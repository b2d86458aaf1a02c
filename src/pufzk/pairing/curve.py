"""Point arithmetic and canonical encodings for the two source groups.

G1 lives on E(Fq): y^2 = x^3 + 4, G2 on the sextic twist E'(Fq2):
y^2 = x^3 + 4(1+u).  Affine points are (x, y) tuples, None is the point
at infinity.  Variable-base scalar multiplication runs in Jacobian
coordinates and splits the scalar with an endomorphism: GLV in G1
(Gallant-Lambert-Vanstone, CRYPTO 2001), k = a + b*x^2 with a 2-way
ladder of 128 doublings, and GLS in G2 (Galbraith-Lin-Scott, EUROCRYPT
2009), k in base |x| with a 4-way ladder over psi of 64 doublings.  Both
splits hold only in the prime-order subgroups.

Long-lived bases are walked over fixed-base tables in signed 8-bit
windows instead (Brickell, Gordon, McCurley and Wilson, EUROCRYPT 1992),
with the same splits.  In G1 the rows cover one 128-bit half: 16 rows of
128 affine points and a carry row, which needs only its entry 1, as the
top signed digit of a 128-bit half is 0 or 1.  A multiplication walks
them for b, maps the sum by [x^2] = (BETA*x, -y) and walks them for a:
at most 34 mixed additions and no doubling.  In G2 they cover one
64-bit base-|x| digit, 8 rows and the carry, and a multiplication walks
them in Horner form over the four digits, mapping the sum by -psi =
[|x|] between digits: at most 36 mixed additions and no doubling.  The
rows are built by affine additions, one level of doublings and sums at
a time, sharing one inversion per level (Montgomery, Math. Comp. 1987).
Each generator's table is built once per process, on first use.  Any
other base gets a table on its TABLE_AFTER_USES-th multiplication, up to
TABLES_MAX tables per group that are then kept for the process's life:
the CA key that every registration checks, and the device keys that
every authentication and submit checks (see _KeyTables).

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
    P, R, X_ABS, fq_inv, fq_sqrt,
    fq2_add, fq2_neg, fq2_mul, fq2_sqr, fq2_inv, fq2_sqrt, FQ2_ONE,
)

# Curve coefficients: b = 4 on E, b' = 4(1+u) on the twist.
B_G1 = 4
B_G2 = (4, 4)

# Standard generators.
G1_GEN = (
    0x17F1D3A73197D7942695638C4FA9AC0FC3688C4F9774B905A14E3A3F171BAC586C55E83FF97A1AEFFB3AF00ADB22C6BB,
    0x08B3F481E3AAA0F1A09E30ED741D8AE4FCF5E095D5D00AF600DB18CB2C04B3EDD03CC744A2888AE40CAA232946C5E7E1,
)
G2_GEN = (
    (
        0x024AA2B2F08F0A91260805272DC51051C6E47AD4FA403B02B4510B647AE3D1770BAC0326A805BBEFD48056C8C121BDB8,
        0x13E02B6052719F607DACD3A088274F65596BD0D09920B61AB5DA61BBDC7F5049334CF11213945D57E5AC7D055D042B7E,
    ),
    (
        0x0CE5D527727D6E118CC9CDC6DA2E351AADFD9BAA8CBDD3A76D429A695160D12C923AC9CC3BACA289E193548608B82801,
        0x0606C4A02EA734CC32ACD2B02BC28B99CB3E287E85A763AF267492AB572E99AB3F370D275CEC1DA1AAA9075FF05F79BE,
    ),
)

# The cofactor clearing E(Fq) -> G1.
COFACTOR_G1 = 0x396C8C005555E1568C00AAAB0000AAAB

# Endomorphism constants of the subgroup checks and of the multiplications.
# BETA is the cube root of unity in Fq for which sigma(x, y) = (BETA*x, y)
# acts on G1 as [-x^2]; psi(x, y) = (conj(x)*PSI_CX, conj(y)*PSI_CY) with
# PSI_CX = 1/xi^((p-1)/3) and PSI_CY = 1/xi^((p-1)/2), xi = 1 + u, acts on
# G2 as [x].
BETA = 0x5F19672FDF76CE51BA69C6076A0F77EADDB3A93BE6F89688DE17D813620A00022E01FFFFFFFEFFFE
PSI_CX = (
    0,
    0x1A0111EA397FE699EC02408663D4DE85AA0D857D89759AD4897D29650FB85F9B409427EB4F49FFFD8BFD00000000AAAD,
)
PSI_CY = (
    0x135203E60180A68EE2E9C448D77A2CD91C3DEDD930B1CF60EF396489F61EB45E304466CF3E67FA0AF1EE7B04121BDEA2,
    0x06AF0E0437FF400B6831E36D6BD17FFE48395DABC2D3435E77F76E17009241C5EE67992F72EC05F4C81084FBEDE3CC09,
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
    # dbl-2009-l; C = Y^4 and E = 3X^2 stay unreduced, as each only
    # enters a sum that is reduced once
    X, Y, Z = p
    if Y == 0:
        return None
    A = X * X % P
    B = Y * Y % P
    C = B * B
    D = 4 * X * B % P
    E = 3 * A
    X3 = (E * E - 2 * D) % P
    Y3 = (E * (D - X3) - 8 * C) % P
    Z3 = 2 * Y * Z % P
    return (X3, Y3, Z3)


def _g1_add_mixed(p, q_aff):
    """Jacobian p + affine q."""
    if p is None:
        qx, qy = q_aff
        return (qx, qy, 1)
    X1, Y1, Z1 = p
    x2, y2 = q_aff
    Z1Z1 = Z1 * Z1 % P
    H = (x2 * Z1Z1 - X1) % P
    r = (y2 * Z1 * Z1Z1 - Y1) % P
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
    j = _g1_add_mixed((a[0], a[1], 1), b)
    return _g1_to_affine(j)


def _x_sqr_split(k):
    """k mod r = a + b*x^2 with 0 <= a, b < x^2 < 2^128, as (a, b)."""
    b, a = divmod(k % R, _X_SQR)
    return a, b


def _g1_x_sqr(p):
    """[x^2]P = (BETA*x, -y) for P in G1, affine or Jacobian (see
    g1_in_subgroup)."""
    return (BETA * p[0] % P, -p[1] % P, *p[2:])


def g1_mul(pt, k):
    """[k]P for P in G1, the prime-order subgroup, by GLV.

    k mod r = a + b*x^2 with a, b < x^2 < 2^128 gives [k]P = [a]P + [b]Q
    for Q = [x^2]P.  One ladder of 128 doublings walks a and b two bits at
    a time against the affine table [i]P + [j]Q, i, j < 4.  The identity
    holds only on G1: multiply other curve points with g1_mul_unchecked.
    A base that keeps coming back is walked over rows of its own instead
    (see _KeyTables).
    """
    a, b = _x_sqr_split(k)
    if pt is None or a == b == 0:
        return None
    rows = _G1_KEYS.get(pt)
    if rows is not None:
        return _g1_walk(rows, a, b)
    q = _g1_x_sqr(pt)
    p1 = (pt[0], pt[1], 1)
    p2 = _g1_dbl(p1)
    ps = [p1, p2, _g1_add_mixed(p2, pt)]
    # table[4i + j] = [i]P + [j]Q, made affine with one inversion
    table = [None] + [_g1_x_sqr(p) for p in ps]
    for p in ps:
        table.append(p)
        for _ in range(3):
            table.append(_g1_add_mixed(table[-1], q))
    table = _batch_affine_g1(table)
    acc = None
    for shift in range(126, -1, -2):
        if acc is not None:
            acc = _g1_dbl(_g1_dbl(acc))
        d = (a >> shift & 3) << 2 | b >> shift & 3
        if d:
            acc = _g1_add_mixed(acc, table[d])
    return _g1_to_affine(acc)


def g1_in_subgroup(pt):
    """sigma(P) == [-x^2]P; see the module docstring."""
    if pt is None:
        return True
    return g1_is_on_curve(pt) and g1_mul_unchecked(pt, _X_SQR) == _g1_x_sqr(pt)


def g1_mul_unchecked(pt, k):
    """Scalar multiple without reduction mod R (cofactor clearing, subgroup checks)."""
    if pt is None or k == 0:
        return None
    acc = None
    add = (pt[0], pt[1], 1)
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
    # variable-base G2 multiplication); C and E stay unreduced as in _g1_dbl
    (x0, x1), (y0, y1), (z0, z1) = p
    if y0 == 0 and y1 == 0:
        return None
    a0 = (x0 + x1) * (x0 - x1) % P; a1 = 2 * x0 * x1 % P          # X^2
    b0 = (y0 + y1) * (y0 - y1) % P; b1 = 2 * y0 * y1 % P          # Y^2
    c0 = (b0 + b1) * (b0 - b1); c1 = 2 * b0 * b1                  # B^2
    d0 = 4 * (x0 * b0 - x1 * b1) % P; d1 = 4 * (x0 * b1 + x1 * b0) % P  # 4XB
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
    """Jacobian p + affine q, with the Fq2 arithmetic inlined like _g2_dbl."""
    if p is None:
        return (q_aff[0], q_aff[1], FQ2_ONE)
    (X10, X11), (Y10, Y11), (Z10, Z11) = p
    (x0, x1), (y0, y1) = q_aff
    zz0 = (Z10 + Z11) * (Z10 - Z11) % P; zz1 = 2 * Z10 * Z11 % P  # Z1^2
    t0 = (y0 * Z10 - y1 * Z11) % P; t1 = (y0 * Z11 + y1 * Z10) % P  # y2*Z1
    h0 = (x0 * zz0 - x1 * zz1 - X10) % P                          # H = x2*Z1^2 - X1
    h1 = (x0 * zz1 + x1 * zz0 - X11) % P
    r0 = (t0 * zz0 - t1 * zz1 - Y10) % P                          # r = y2*Z1^3 - Y1
    r1 = (t0 * zz1 + t1 * zz0 - Y11) % P
    if h0 == 0 and h1 == 0:
        if r0 == 0 and r1 == 0:
            return _g2_dbl(p)
        return None
    a0 = (h0 + h1) * (h0 - h1) % P; a1 = 2 * h0 * h1 % P          # H^2
    b0 = (h0 * a0 - h1 * a1) % P; b1 = (h0 * a1 + h1 * a0) % P    # H^3
    v0 = (X10 * a0 - X11 * a1) % P; v1 = (X10 * a1 + X11 * a0) % P  # V = X1*H^2
    X30 = ((r0 + r1) * (r0 - r1) - b0 - 2 * v0) % P
    X31 = (2 * r0 * r1 - b1 - 2 * v1) % P
    f0 = v0 - X30; f1 = v1 - X31
    Y30 = (r0 * f0 - r1 * f1 - Y10 * b0 + Y11 * b1) % P
    Y31 = (r0 * f1 + r1 * f0 - Y10 * b1 - Y11 * b0) % P
    Z30 = (Z10 * h0 - Z11 * h1) % P
    Z31 = (Z10 * h1 + Z11 * h0) % P
    return ((X30, X31), (Y30, Y31), (Z30, Z31))


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
    """[k]P for P in G2, the prime-order subgroup, by GLS.

    On G2, psi acts as [x] = -[|x|], and r < |x|^4, so k mod r in base
    |x| has four digits d0..d3 below 2^64 and
    [k]P = [d0]P - [d1]psi(P) + [d2]psi^2(P) - [d3]psi^3(P).  One ladder
    of 64 doublings walks the four digits a bit at a time against the 16
    affine subset sums of those bases.  The identity holds only on G2:
    multiply other twist points with g2_mul_unchecked.  A base that keeps
    coming back is walked over rows of its own instead (see _KeyTables).
    """
    k %= R
    if pt is None or k == 0:
        return None
    digits = _base_x_digits(k)
    rows = _G2_KEYS.get(pt)
    if rows is not None:
        return _g2_walk(rows, digits)
    d0, d1, d2, d3 = digits
    bases = [pt]
    for _ in range(3):
        bases.append(_g2_neg_psi(bases[-1]))  # [|x|] of the previous base
    # table[m] = sum of bases[i] over the set bits i of m
    table = [None]
    for m in range(1, 16):
        low = m & -m
        table.append(_g2_add_mixed(table[m ^ low], bases[low.bit_length() - 1]))
    table = _batch_affine_g2(table)
    acc = None
    for i in range(63, -1, -1):
        if acc is not None:
            acc = _g2_dbl(acc)
        m = (d0 >> i & 1) | (d1 >> i & 1) << 1 | (d2 >> i & 1) << 2 | (d3 >> i & 1) << 3
        if m:
            acc = _g2_add_mixed(acc, table[m])
    return _g2_to_affine(acc)


def _base_x_digits(k):
    """The four base-|x| digits of k < r, least significant first."""
    digits = []
    for _ in range(4):
        k, d = divmod(k, X_ABS)
        digits.append(d)
    return digits


def g2_mul_unchecked(pt, k):
    if pt is None or k == 0:
        return None
    acc = None
    for bit in bin(k)[2:]:
        acc = _g2_dbl(acc) if acc is not None else None
        if bit == "1":
            acc = _g2_add_mixed(acc, pt) if acc is not None else (pt[0], pt[1], FQ2_ONE)
    return _g2_to_affine(acc)


def _g2_neg_psi(p):
    """-psi(P) for a finite twist point P, affine or Jacobian, where psi
    is the untwist-Frobenius-twist endomorphism.  It acts on G2 as [|x|].
    In Jacobian form psi is (conj(X)*PSI_CX, conj(Y)*PSI_CY, conj(Z)),
    here with the Fq2 arithmetic inlined: PSI_CX = (0, c)."""
    (x0, x1), (y0, y1), *z = p
    c, (d0, d1) = PSI_CX[1], PSI_CY
    return ((c * x1 % P, c * x0 % P), (-(y0 * d0 + y1 * d1) % P, (y1 * d0 - y0 * d1) % P),
            *[(z0, -z1 % P) for z0, z1 in z])


def g2_in_subgroup(pt):
    """psi(P) == [x]P == -[|x|]P; see the module docstring."""
    if pt is None:
        return True
    return g2_is_on_curve(pt) and g2_mul_unchecked(pt, X_ABS) == _g2_neg_psi(pt)


# ---------------------------------------------------------------------------
# Fixed-base tables: the generators, and the keys that keep coming back
# ---------------------------------------------------------------------------

def _fixed_base_rows(base, dbl, batch_affine, affine_sums, windows):
    """Signed 8-bit windows over a fixed base point B, given in Jacobian
    form: windows - 1 full rows for a scalar of 8 * (windows - 1) bits,
    and a carry row for its top signed digit, which is 0 or 1.

    rows[i][d] holds d * 256^i * B in affine form, for d = 1..128 in a
    full row and d = 1 in the carry row, and rows[i][0] is None.  The row
    bases 256^i * B take 8 Jacobian doublings each and one batch
    conversion to affine.  Then each of seven levels fills entries
    h+1..2h of every full row (h = 1, 2, .., 64) with one batch inversion
    across all rows: 2h is the affine doubling of h, and h + e, 0 < e < h,
    the affine sum of entries h and e.  No exceptional case can arise: B
    has prime order r > 128, so e*B and h*B are distinct and not each
    other's negatives, and no multiple of B but the identity has y = 0.
    """
    jac = [base]
    for _ in range(windows - 1):
        for _ in range(8):
            base = dbl(base)
        jac.append(base)
    rows = [[None, b] for b in batch_affine(jac)]
    full = rows[:-1]
    h = 1
    while h < 128:
        pairs = []
        for row in full:
            top = row[h]
            pairs += [(top, row[e]) for e in range(1, h)]
            pairs.append((top, None))
        sums = iter(affine_sums(pairs))
        for row in full:
            row += [next(sums) for _ in range(h)]
        h *= 2
    return rows


def _batch_inv(values):
    """Inverses of nonzero Fq values with one inversion (Montgomery's trick)."""
    prefix = [1]
    for v in values:
        prefix.append(prefix[-1] * v % P)
    inv_all = fq_inv(prefix[-1])
    invs = [None] * len(values)
    for j in range(len(values) - 1, -1, -1):
        invs[j] = prefix[j] * inv_all % P
        inv_all = inv_all * values[j] % P
    return invs


def _batch_affine_g1(row_jac):
    out = [None] * len(row_jac)
    idx = [i for i, p in enumerate(row_jac) if p is not None]
    for i, zi in zip(idx, _batch_inv([row_jac[i][2] for i in idx])):
        X, Y, _ = row_jac[i]
        zi2 = zi * zi % P
        out[i] = (X * zi2 % P, Y * zi2 * zi % P)
    return out


def _batch_affine_g2(row_jac):
    # 1/z = conj(z)/N(z) with N(z0 + z1*u) = z0^2 + z1^2 in Fq, so one
    # batch inversion of the norms covers the whole row
    out = [None] * len(row_jac)
    idx = [i for i, p in enumerate(row_jac) if p is not None]
    zs = [row_jac[i][2] for i in idx]
    for i, (z0, z1), ni in zip(idx, zs, _batch_inv([(z0 * z0 + z1 * z1) % P for z0, z1 in zs])):
        X, Y, _ = row_jac[i]
        zinv = (z0 * ni % P, -z1 * ni % P)
        zinv2 = fq2_sqr(zinv)
        out[i] = (fq2_mul(X, zinv2), fq2_mul(fq2_mul(Y, zinv2), zinv))
    return out


def _g1_affine_sums(pairs):
    """p + q for each pair (p, q) of affine G1 points, or 2p where q is
    None, sharing one inversion.  The caller ensures p != +-q."""
    dens = [2 * p[1] if q is None else q[0] - p[0] for p, q in pairs]
    out = []
    for ((x1, y1), q), inv in zip(pairs, _batch_inv(dens)):
        x2, num = (x1, 3 * x1 * x1) if q is None else (q[0], q[1] - y1)
        lam = num * inv % P
        x3 = (lam * lam - x1 - x2) % P
        out.append((x3, (lam * (x1 - x3) - y1) % P))
    return out


def _g2_affine_sums(pairs):
    """_g1_affine_sums over Fq2.  The slope's denominator d is inverted
    as conj(d)/N(d), so one batch inversion of Fq norms serves all pairs."""
    dens = []
    for ((x0, x1), (y0, y1)), q in pairs:
        dens.append((2 * y0, 2 * y1) if q is None else (q[0][0] - x0, q[0][1] - x1))
    norm_invs = _batch_inv([(d0 * d0 + d1 * d1) % P for d0, d1 in dens])
    out = []
    for (((x0, x1), (y0, y1)), q), (d0, d1), ni in zip(pairs, dens, norm_invs):
        if q is None:
            u0, u1, n0, n1 = x0, x1, 3 * (x0 + x1) * (x0 - x1), 6 * x0 * x1  # n = 3x^2
        else:
            (u0, u1), (v0, v1) = q
            n0, n1 = v0 - y0, v1 - y1
        # lambda = n * conj(d) / N(d)
        l0 = (n0 * d0 + n1 * d1) % P * ni % P
        l1 = (n1 * d0 - n0 * d1) % P * ni % P
        s0 = ((l0 + l1) * (l0 - l1) - x0 - u0) % P
        s1 = (2 * l0 * l1 - x1 - u1) % P
        f0 = x0 - s0
        f1 = x1 - s1
        out.append(((s0, s1), ((l0 * f0 - l1 * f1 - y0) % P, (l0 * f1 + l1 * f0 - y1) % P)))
    return out


def _signed_digits(k):
    """The signed base-256 digits of k >= 0, in [-127, 128], least
    significant first: a byte above 128 becomes byte - 256 and carries one
    into the next."""
    digits = []
    while k:
        d = k & 0xFF
        k >>= 8
        if d > 128:
            d -= 256
            k += 1
        digits.append(d)
    return digits


def _fixed_base_walk(rows, k, add, neg, acc=None):
    """acc + [k]B for the base B of rows and 0 <= k < 2^128, with one
    mixed addition per nonzero digit.  A negative digit adds the negated
    entry."""
    for row, d in zip(rows, _signed_digits(k)):
        if d > 0:
            acc = add(acc, row[d])
        elif d:
            acc = add(acc, neg(row[-d]))
    return acc


def _g1_rows(pt):
    """The rows of a G1 base: 16 full rows and a carry row, for the
    halves of k = a + b*x^2, below x^2 < 2^128."""
    return _fixed_base_rows((*pt, 1), _g1_dbl, _batch_affine_g1, _g1_affine_sums, 17)


def _g2_rows(pt):
    """The rows of a G2 base: 8 full rows and a carry row, for the four
    base-|x| digits of k, below |x| < 2^64."""
    return _fixed_base_rows((*pt, FQ2_ONE), _g2_dbl, _batch_affine_g2, _g2_affine_sums, 9)


def _g1_walk(rows, a, b):
    """[a + b*x^2]B for the base B of G1 rows and halves a, b < 2^128:
    walk the rows for b, map the sum by [x^2] once, and walk them for a.
    At most 34 mixed additions and no doubling."""
    acc = _fixed_base_walk(rows, b, _g1_add_mixed, g1_neg)
    if acc is not None:
        acc = _g1_x_sqr(acc)
    return _g1_to_affine(_fixed_base_walk(rows, a, _g1_add_mixed, g1_neg, acc))


def _g2_walk(rows, digits):
    """[k]B for the base B of G2 rows and the base-|x| digits of k, least
    significant first.  -psi acts on G2 as [|x|], so in Horner form: walk
    the rows for d3, map the sum by -psi, walk them for d2, and so on
    down to d0.  At most 36 mixed additions and no doubling."""
    acc = None
    for d in reversed(digits):
        if acc is not None:
            acc = _g2_neg_psi(acc)
        acc = _fixed_base_walk(rows, d, _g2_add_mixed, g2_neg, acc)
    return _g2_to_affine(acc)


_G1_ROWS = None
_G2_ROWS = None


def g1_mul_gen(k):
    """k * G1 generator, walked over the generator's rows."""
    global _G1_ROWS
    if _G1_ROWS is None:
        _G1_ROWS = _g1_rows(G1_GEN)
    return _g1_walk(_G1_ROWS, *_x_sqr_split(k))


def g2_mul_gen(k):
    """k * G2 generator, walked over the generator's rows by psi."""
    global _G2_ROWS
    if _G2_ROWS is None:
        _G2_ROWS = _g2_rows(G2_GEN)
    return _g2_walk(_G2_ROWS, _base_x_digits(k % R))


# A variable base gets rows of its own on its TABLE_AFTER_USES-th
# multiplication.  Measured in pure Python on a 2-core x86-64 host, a G2
# table takes 15-24 ms to build and turns a 3.3-4.3 ms ladder into a
# 0.9-1.4 ms walk, so it repays itself after 6-10 further uses; a G1
# table takes 14-21 ms and turns 1.6-2.4 ms into 0.35-0.55 ms, 8-18
# uses.  9 is the least count that the benchmark's set-up cannot reach:
# it multiplies a device's pk at most 4 times (3 authentication attempts
# and a warm-up submit) and the CA key once per registration, at most 8
# times (4 devices, each replaced once if it fails its first contact), so
# no table is built, and timed, in set-up.  A key used exactly 9 times
# then costs at most 2.2 (G2) and 2.4 (G1) times the best choice made in
# hindsight over the measured ranges, and less the more it comes back.
# A table holds about 0.45 MiB in either group.  At most TABLES_MAX
# exist per group; once they are built, other bases keep to the ladder.
# Nothing is evicted: in a fleet of keys that each come back now and
# then, a table rebuilt after eviction costs more than it saves.
TABLE_AFTER_USES = 9
TABLES_MAX = 16
_USES_MAX = 1024


class _KeyTables:
    """Fill-once rows for one group's variable bases, keyed by point like
    the pairing's line cache.  The use counter is cleared when it holds
    _USES_MAX bases."""

    def __init__(self, build):
        self._build = build
        self.tables = {}
        self.uses = {}

    def get(self, pt):
        """pt's rows, built on the use that reaches TABLE_AFTER_USES, or
        None while pt keeps to the ladder."""
        rows = self.tables.get(pt)
        if rows is None and len(self.tables) < TABLES_MAX:
            n = self.uses.pop(pt, 0) + 1
            if n >= TABLE_AFTER_USES:
                rows = self.tables[pt] = self._build(pt)
            else:
                if len(self.uses) >= _USES_MAX:
                    self.uses.clear()
                self.uses[pt] = n
        return rows


_G1_KEYS = _KeyTables(_g1_rows)
_G2_KEYS = _KeyTables(_g2_rows)


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
    buf = bytearray(x.to_bytes(48, "big"))
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
    pt = (x, y)
    if not g1_in_subgroup(pt):
        raise DecodeError("point not in the prime-order subgroup")
    return pt


def g2_to_bytes(pt) -> bytes:
    if pt is None:
        return bytes([_FLAG_COMPRESSED | _FLAG_INFINITY]) + b"\x00" * 95
    (x0, x1), y = pt
    flags = _FLAG_COMPRESSED | (_FLAG_SIGN if _y_is_large_fq2(y) else 0)
    buf = bytearray(x1.to_bytes(48, "big") + x0.to_bytes(48, "big"))
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
    x = (x0, x1)
    y = fq2_sqrt(fq2_add(fq2_mul(fq2_sqr(x), x), B_G2))
    if y is None:
        raise DecodeError("x is not on the curve")
    if _y_is_large_fq2(y) != bool(flags & _FLAG_SIGN):
        y = fq2_neg(y)
    pt = (x, y)
    if not g2_in_subgroup(pt):
        raise DecodeError("point not in the prime-order subgroup")
    return pt
