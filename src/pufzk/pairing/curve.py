"""Point arithmetic and canonical encodings for the two source groups.

G1 lives on E(Fq): y^2 = x^3 + 4, G2 on the sextic twist E'(Fq2):
y^2 = x^3 + 4(1+u).  Affine points are (x, y) tuples, None is the point
at infinity.  Scalar multiplication runs in Jacobian coordinates with a
fixed 4-bit window; the group generators additionally get lazily built
8-bit fixed-base tables since nearly every protocol exponentiation is
against a generator.

Encodings are the widely used 48/96-byte compressed format: three flag
bits (compressed, infinity, y-sign) folded into the top of big-endian x.
Decoding is strict: non-canonical field values, off-curve x, wrong flag
combinations and off-subgroup points are all rejected.

The subgroup checks use endomorphisms rather than a 255-bit [r]P ladder
(Bowe, ePrint 2019/814; Scott, ePrint 2021/1130).  A twist point is in G2
iff psi(P) = [x]P, where psi is untwist-Frobenius-twist and x the
(negative) curve parameter: a 64-bit multiplication of Hamming weight 6.
A point of E is in G1 iff sigma(P) = (beta*x, y) equals [-x^2]P: a 128-bit
multiplication.  Both are exact, not probabilistic: the kernel of
sigma + [x^2] on E has exactly r points, and that of psi - [x] meets
E'(Fq2) only in G2.
"""

from .fields import (
    P, R, X_ABS, mpz, fq_inv, fq_sqrt,
    fq2_add, fq2_sub, fq2_neg, fq2_conj, fq2_mul, fq2_sqr, fq2_scale, fq2_inv,
    fq2_sqrt, fq2_is_zero, FQ2_ONE,
)

# Curve coefficients: b = 4 on E, b' = 4(1+u) on the twist.
B_G1 = mpz(4)
B_G2 = (mpz(4), mpz(4))

# Standard generators.
G1_GEN = (
    mpz(0x17F1D3A73197D7942695638C4FA9AC0FC3688C4F9774B905A14E3A3F171BAC586C55E83FF97A1AEFFB3AF00ADB22C6BB),
    mpz(0x08B3F481E3AAA0F1A09E30ED741D8AE4FCF5E095D5D00AF600DB18CB2C04B3EDD03CC744A2888AE40CAA232946C5E7E1),
)
G2_GEN = (
    (
        mpz(0x024AA2B2F08F0A91260805272DC51051C6E47AD4FA403B02B4510B647AE3D1770BAC0326A805BBEFD48056C8C121BDB8),
        mpz(0x13E02B6052719F607DACD3A088274F65596BD0D09920B61AB5DA61BBDC7F5049334CF11213945D57E5AC7D055D042B7E),
    ),
    (
        mpz(0x0CE5D527727D6E118CC9CDC6DA2E351AADFD9BAA8CBDD3A76D429A695160D12C923AC9CC3BACA289E193548608B82801),
        mpz(0x0606C4A02EA734CC32ACD2B02BC28B99CB3E287E85A763AF267492AB572E99AB3F370D275CEC1DA1AAA9075FF05F79BE),
    ),
)

# Cofactors clearing E(Fq) -> G1 and E'(Fq2) -> G2.
COFACTOR_G1 = 0x396C8C005555E1568C00AAAB0000AAAB
COFACTOR_G2 = 0x5D543A95414E7F1091D50792876A202CD91DE4547085ABAA68A205B2E5A7DDFA628F1CB4D9E82EF21537E293A6691AE1616EC6E786F0C70CF1C38E31C7238E5

# Endomorphism constants of the subgroup checks.  BETA is the cube root of
# unity in Fq for which sigma(x, y) = (BETA*x, y) acts on G1 as [-x^2];
# psi(x, y) = (conj(x)*PSI_CX, conj(y)*PSI_CY) with PSI_CX = 1/xi^((p-1)/3)
# and PSI_CY = 1/xi^((p-1)/2), xi = 1 + u.
BETA = mpz(0x5F19672FDF76CE51BA69C6076A0F77EADDB3A93BE6F89688DE17D813620A00022E01FFFFFFFEFFFE)
PSI_CX = (
    mpz(0),
    mpz(0x1A0111EA397FE699EC02408663D4DE85AA0D857D89759AD4897D29650FB85F9B409427EB4F49FFFD8BFD00000000AAAD),
)
PSI_CY = (
    mpz(0x135203E60180A68EE2E9C448D77A2CD91C3DEDD930B1CF60EF396489F61EB45E304466CF3E67FA0AF1EE7B04121BDEA2),
    mpz(0x06AF0E0437FF400B6831E36D6BD17FFE48395DABC2D3435E77F76E17009241C5EE67992F72EC05F4C81084FBEDE3CC09),
)
_X_SQR = X_ABS * X_ABS


class DecodeError(ValueError):
    """Raised when bytes do not decode to a canonical subgroup element."""


# ---------------------------------------------------------------------------
# G1 (Jacobian over Fq)
# ---------------------------------------------------------------------------

def g1_is_on_curve(pt):
    if pt is None:
        return True
    x, y = pt
    return (y * y - (x * x * x + B_G1)) % P == 0


def _g1_dbl(p):
    X, Y, Z = p
    if Y == 0:
        return None
    A = X * X % P
    B = Y * Y % P
    C = B * B % P
    D = 2 * ((X + B) * (X + B) - A - C) % P
    E = 3 * A % P
    X3 = (E * E - 2 * D) % P
    Y3 = (E * (D - X3) - 8 * C) % P
    Z3 = 2 * Y * Z % P
    return (X3, Y3, Z3)


def _g1_add_mixed(p, q_aff):
    """Jacobian p + affine q."""
    if p is None:
        qx, qy = q_aff
        return (qx, qy, mpz(1))
    X1, Y1, Z1 = p
    x2, y2 = q_aff
    Z1Z1 = Z1 * Z1 % P
    U2 = x2 * Z1Z1 % P
    S2 = y2 * Z1 * Z1Z1 % P
    H = (U2 - X1) % P
    r = (S2 - Y1) % P
    if H == 0:
        if r == 0:
            return _g1_dbl(p)
        return None
    HH = H * H % P
    HHH = H * HH % P
    V = X1 * HH % P
    X3 = (r * r - HHH - 2 * V) % P
    Y3 = (r * (V - X3) - Y1 * HHH) % P
    Z3 = Z1 * H % P
    return (X3, Y3, Z3)


def _g1_to_affine(p):
    if p is None:
        return None
    X, Y, Z = p
    zinv = fq_inv(Z)
    zinv2 = zinv * zinv % P
    return (X * zinv2 % P, Y * zinv2 * zinv % P)


def g1_neg(pt):
    if pt is None:
        return None
    return (pt[0], -pt[1] % P)


def g1_add(a, b):
    """Affine + affine -> affine."""
    if a is None:
        return b
    if b is None:
        return a
    j = _g1_add_mixed((a[0], a[1], mpz(1)), b)
    return _g1_to_affine(j)


def g1_mul(pt, k):
    """Affine scalar multiple, 4-bit window."""
    k %= R
    if pt is None or k == 0:
        return None
    table = [None, (pt[0], pt[1], mpz(1))]
    for _ in range(14):
        table.append(_g1_add_mixed(table[-1], pt))
    acc = None
    for nib in _nibbles(k):
        if acc is not None:
            for _ in range(4):
                acc = _g1_dbl(acc)
                if acc is None:
                    break
        if nib:
            t = table[nib]
            acc = t if acc is None else _jac_add_g1(acc, t)
    return _g1_to_affine(acc)


def _jac_add_g1(p, q):
    """General Jacobian + Jacobian for G1."""
    X1, Y1, Z1 = p
    X2, Y2, Z2 = q
    Z1Z1 = Z1 * Z1 % P
    Z2Z2 = Z2 * Z2 % P
    U1 = X1 * Z2Z2 % P
    U2 = X2 * Z1Z1 % P
    S1 = Y1 * Z2 * Z2Z2 % P
    S2 = Y2 * Z1 * Z1Z1 % P
    H = (U2 - U1) % P
    r = (S2 - S1) % P
    if H == 0:
        if r == 0:
            return _g1_dbl(p)
        return None
    HH = H * H % P
    HHH = H * HH % P
    V = U1 * HH % P
    X3 = (r * r - HHH - 2 * V) % P
    Y3 = (r * (V - X3) - S1 * HHH) % P
    Z3 = Z1 * Z2 * H % P
    return (X3, Y3, Z3)


def g1_in_subgroup(pt):
    """sigma(P) == [-x^2]P; see the module docstring."""
    if pt is None:
        return True
    return g1_is_on_curve(pt) and g1_mul_unchecked(pt, _X_SQR) == (BETA * pt[0] % P, -pt[1] % P)


def g1_mul_unchecked(pt, k):
    """Scalar multiple without reduction mod R (cofactor clearing, subgroup checks)."""
    if pt is None or k == 0:
        return None
    acc = None
    add = (pt[0], pt[1], mpz(1))
    for bit in bin(k)[2:]:
        acc = _g1_dbl(acc) if acc is not None else None
        if bit == "1":
            acc = _g1_add_mixed(acc, pt) if acc is not None else add
    return _g1_to_affine(acc)


# ---------------------------------------------------------------------------
# G2 (Jacobian over Fq2)
# ---------------------------------------------------------------------------

def g2_is_on_curve(pt):
    if pt is None:
        return True
    x, y = pt
    return fq2_sqr(y) == fq2_add(fq2_mul(fq2_sqr(x), x), B_G2)


def _g2_dbl(p):
    # dbl-2009-l with the Fq2 arithmetic inlined (hot path of every
    # variable-base G2 multiplication)
    (x0, x1), (y0, y1), (z0, z1) = p
    if y0 == 0 and y1 == 0:
        return None
    a0 = (x0 + x1) * (x0 - x1) % P; a1 = 2 * x0 * x1 % P          # X^2
    b0 = (y0 + y1) * (y0 - y1) % P; b1 = 2 * y0 * y1 % P          # Y^2
    c0 = (b0 + b1) * (b0 - b1) % P; c1 = 2 * b0 * b1 % P          # B^2
    s0 = x0 + b0; s1 = x1 + b1
    t0 = (s0 + s1) * (s0 - s1) % P; t1 = 2 * s0 * s1 % P          # (X+B)^2
    d0 = 2 * (t0 - a0 - c0) % P; d1 = 2 * (t1 - a1 - c1) % P
    e0 = 3 * a0; e1 = 3 * a1                                      # 3A
    X30 = ((e0 + e1) * (e0 - e1) - 2 * d0) % P
    X31 = (2 * e0 * e1 - 2 * d1) % P
    f0 = d0 - X30; f1 = d1 - X31
    Y30 = (e0 * f0 - e1 * f1 - 8 * c0) % P
    Y31 = (e0 * f1 + e1 * f0 - 8 * c1) % P
    Z30 = 2 * (y0 * z0 - y1 * z1) % P
    Z31 = 2 * (y0 * z1 + y1 * z0) % P
    return ((X30, X31), (Y30, Y31), (Z30, Z31))


def _g2_add_mixed(p, q_aff):
    if p is None:
        return (q_aff[0], q_aff[1], FQ2_ONE)
    X1, Y1, Z1 = p
    x2, y2 = q_aff
    Z1Z1 = fq2_sqr(Z1)
    U2 = fq2_mul(x2, Z1Z1)
    S2 = fq2_mul(fq2_mul(y2, Z1), Z1Z1)
    H = fq2_sub(U2, X1)
    r = fq2_sub(S2, Y1)
    if fq2_is_zero(H):
        if fq2_is_zero(r):
            return _g2_dbl(p)
        return None
    HH = fq2_sqr(H)
    HHH = fq2_mul(H, HH)
    V = fq2_mul(X1, HH)
    X3 = fq2_sub(fq2_sub(fq2_sqr(r), HHH), fq2_scale(V, 2))
    Y3 = fq2_sub(fq2_mul(r, fq2_sub(V, X3)), fq2_mul(Y1, HHH))
    Z3 = fq2_mul(Z1, H)
    return (X3, Y3, Z3)


def _jac_add_g2(p, q):
    X1, Y1, Z1 = p
    X2, Y2, Z2 = q
    Z1Z1 = fq2_sqr(Z1)
    Z2Z2 = fq2_sqr(Z2)
    U1 = fq2_mul(X1, Z2Z2)
    U2 = fq2_mul(X2, Z1Z1)
    S1 = fq2_mul(fq2_mul(Y1, Z2), Z2Z2)
    S2 = fq2_mul(fq2_mul(Y2, Z1), Z1Z1)
    H = fq2_sub(U2, U1)
    r = fq2_sub(S2, S1)
    if fq2_is_zero(H):
        if fq2_is_zero(r):
            return _g2_dbl(p)
        return None
    HH = fq2_sqr(H)
    HHH = fq2_mul(H, HH)
    V = fq2_mul(U1, HH)
    X3 = fq2_sub(fq2_sub(fq2_sqr(r), HHH), fq2_scale(V, 2))
    Y3 = fq2_sub(fq2_mul(r, fq2_sub(V, X3)), fq2_mul(S1, HHH))
    Z3 = fq2_mul(fq2_mul(Z1, Z2), H)
    return (X3, Y3, Z3)


def _g2_to_affine(p):
    if p is None:
        return None
    X, Y, Z = p
    zinv = fq2_inv(Z)
    zinv2 = fq2_sqr(zinv)
    return (fq2_mul(X, zinv2), fq2_mul(fq2_mul(Y, zinv2), zinv))


def g2_neg(pt):
    if pt is None:
        return None
    return (pt[0], fq2_neg(pt[1]))


def g2_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return _g2_to_affine(_g2_add_mixed((a[0], a[1], FQ2_ONE), b))


def g2_mul(pt, k):
    k %= R
    if pt is None or k == 0:
        return None
    table = [None, (pt[0], pt[1], FQ2_ONE)]
    for _ in range(14):
        table.append(_g2_add_mixed(table[-1], pt))
    acc = None
    for nib in _nibbles(k):
        if acc is not None:
            for _ in range(4):
                acc = _g2_dbl(acc)
                if acc is None:
                    break
        if nib:
            t = table[nib]
            acc = t if acc is None else _jac_add_g2(acc, t)
    return _g2_to_affine(acc)


def g2_mul_unchecked(pt, k):
    if pt is None or k == 0:
        return None
    acc = None
    for bit in bin(k)[2:]:
        acc = _g2_dbl(acc) if acc is not None else None
        if bit == "1":
            acc = _g2_add_mixed(acc, pt) if acc is not None else (pt[0], pt[1], FQ2_ONE)
    return _g2_to_affine(acc)


def g2_psi(pt):
    """Untwist-Frobenius-twist endomorphism of a finite twist point."""
    return (fq2_mul(fq2_conj(pt[0]), PSI_CX), fq2_mul(fq2_conj(pt[1]), PSI_CY))


def g2_in_subgroup(pt):
    """psi(P) == [x]P == -[|x|]P; see the module docstring."""
    if pt is None:
        return True
    return g2_is_on_curve(pt) and g2_mul_unchecked(pt, X_ABS) == g2_neg(g2_psi(pt))


def _nibbles(k):
    """Big-endian 4-bit digits of k."""
    h = f"{int(k):x}"
    return [int(c, 16) for c in h]


# ---------------------------------------------------------------------------
# Fixed-base tables for the generators
# ---------------------------------------------------------------------------

class FixedBaseTable:
    """8-bit windowed precomputation over a fixed affine base point.

    tables[i][d] holds (d << 8i) * base in affine form, so a 255-bit
    scalar multiple costs at most 32 mixed additions.
    """

    def __init__(self, base, dbl, add_mixed, to_affine, batch_affine, windows=32):
        self.windows = windows
        rows = []
        running = base
        for _ in range(windows):
            row_jac = [None] * 256
            acc = None
            for d in range(1, 256):
                acc = add_mixed(acc, running)
                row_jac[d] = acc
            rows.append(row_jac)
            # advance running <- (256) * running
            j = row_jac[255]
            j = add_mixed(j, running)
            running = to_affine(j)
            if running is None:
                break
        self.rows = [batch_affine(row) for row in rows]
        self.add_mixed = add_mixed
        self.to_affine = to_affine

    def mul(self, k):
        k %= R
        if k == 0:
            return None
        acc = None
        i = 0
        while k:
            d = k & 0xFF
            if d:
                acc = self.add_mixed(acc, self.rows[i][d])
            k >>= 8
            i += 1
        return self.to_affine(acc)


def _batch_affine_g1(row_jac):
    out = [None] * len(row_jac)
    # Montgomery batch inversion over the Z coordinates
    idx = [i for i, p in enumerate(row_jac) if p is not None]
    zs = [row_jac[i][2] for i in idx]
    prefix = [mpz(1)]
    for z in zs:
        prefix.append(prefix[-1] * z % P)
    inv_all = fq_inv(prefix[-1])
    invs = [None] * len(zs)
    for j in range(len(zs) - 1, -1, -1):
        invs[j] = prefix[j] * inv_all % P
        inv_all = inv_all * zs[j] % P
    for j, i in enumerate(idx):
        X, Y, _ = row_jac[i]
        zi = invs[j]
        zi2 = zi * zi % P
        out[i] = (X * zi2 % P, Y * zi2 * zi % P)
    return out


def _batch_affine_g2(row_jac):
    out = [None] * len(row_jac)
    for i, p in enumerate(row_jac):
        if p is not None:
            out[i] = _g2_to_affine(p)
    return out


_G1_TABLE = None
_G2_TABLE = None


def g1_mul_gen(k):
    """k * G1 generator via the fixed-base table."""
    global _G1_TABLE
    if _G1_TABLE is None:
        _G1_TABLE = FixedBaseTable(G1_GEN, _g1_dbl, _g1_add_mixed, _g1_to_affine, _batch_affine_g1)
    return _G1_TABLE.mul(k)


def g2_mul_gen(k):
    global _G2_TABLE
    if _G2_TABLE is None:
        _G2_TABLE = FixedBaseTable(G2_GEN, _g2_dbl, _g2_add_mixed, _g2_to_affine, _batch_affine_g2)
    return _G2_TABLE.mul(k)


# ---------------------------------------------------------------------------
# Compressed encodings
# ---------------------------------------------------------------------------

_FLAG_COMPRESSED = 0x80
_FLAG_INFINITY = 0x40
_FLAG_SIGN = 0x20

G1_ENC_LEN = 48
G2_ENC_LEN = 96


def _y_is_large_fq(y):
    return y > P - y


def _y_is_large_fq2(y):
    y0, y1 = y
    if y1 != 0:
        return y1 > P - y1
    return y0 > P - y0


def g1_to_bytes(pt) -> bytes:
    if pt is None:
        return bytes([_FLAG_COMPRESSED | _FLAG_INFINITY]) + b"\x00" * 47
    x, y = pt
    flags = _FLAG_COMPRESSED | (_FLAG_SIGN if _y_is_large_fq(y) else 0)
    buf = bytearray(int(x).to_bytes(48, "big"))
    buf[0] |= flags
    return bytes(buf)


def g1_from_bytes(data: bytes):
    if len(data) != G1_ENC_LEN:
        raise DecodeError(f"G1 encoding must be {G1_ENC_LEN} bytes, got {len(data)}")
    flags = data[0] & 0xE0
    if not flags & _FLAG_COMPRESSED:
        raise DecodeError("uncompressed G1 encodings not accepted")
    body = bytes([data[0] & 0x1F]) + data[1:]
    x = int.from_bytes(body, "big")
    if flags & _FLAG_INFINITY:
        if flags & _FLAG_SIGN or x != 0:
            raise DecodeError("non-canonical infinity encoding")
        return None
    if x >= P:
        raise DecodeError("x coordinate out of range")
    y = fq_sqrt((x * x * x + B_G1) % P)
    if y is None:
        raise DecodeError("x is not on the curve")
    if _y_is_large_fq(y) != bool(flags & _FLAG_SIGN):
        y = -y % P
    pt = (mpz(x), mpz(y))
    if not g1_in_subgroup(pt):
        raise DecodeError("point not in the prime-order subgroup")
    return pt


def g2_to_bytes(pt) -> bytes:
    if pt is None:
        return bytes([_FLAG_COMPRESSED | _FLAG_INFINITY]) + b"\x00" * 95
    (x0, x1), y = pt
    flags = _FLAG_COMPRESSED | (_FLAG_SIGN if _y_is_large_fq2(y) else 0)
    buf = bytearray(int(x1).to_bytes(48, "big") + int(x0).to_bytes(48, "big"))
    buf[0] |= flags
    return bytes(buf)


def g2_from_bytes(data: bytes):
    if len(data) != G2_ENC_LEN:
        raise DecodeError(f"G2 encoding must be {G2_ENC_LEN} bytes, got {len(data)}")
    flags = data[0] & 0xE0
    if not flags & _FLAG_COMPRESSED:
        raise DecodeError("uncompressed G2 encodings not accepted")
    body = bytes([data[0] & 0x1F]) + data[1:48]
    x1 = int.from_bytes(body, "big")
    x0 = int.from_bytes(data[48:], "big")
    if flags & _FLAG_INFINITY:
        if flags & _FLAG_SIGN or x0 != 0 or x1 != 0:
            raise DecodeError("non-canonical infinity encoding")
        return None
    if x0 >= P or x1 >= P:
        raise DecodeError("x coordinate out of range")
    x = (mpz(x0), mpz(x1))
    y = fq2_sqrt(fq2_add(fq2_mul(fq2_sqr(x), x), B_G2))
    if y is None:
        raise DecodeError("x is not on the curve")
    if _y_is_large_fq2(y) != bool(flags & _FLAG_SIGN):
        y = fq2_neg(y)
    pt = (x, y)
    if not g2_in_subgroup(pt):
        raise DecodeError("point not in the prime-order subgroup")
    return pt
