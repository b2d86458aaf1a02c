"""Tower-field arithmetic for the BLS12-381 parameter set.

The extension tower is the conventional one:

    Fq2  = Fq[u]  / (u^2 + 1)
    Fq6  = Fq2[v] / (v^3 - xi),  xi = 1 + u
    Fq12 = Fq6[w] / (w^2 - v)

Elements are plain tuples (no classes) so the hot loops in the curve and
pairing modules stay close to raw integer arithmetic.  Fq values are
Python ints, Fq2 is a pair, Fq6 a triple of Fq2, Fq12 a pair of Fq6.
"""

# Base field modulus and subgroup order of BLS12-381.
P = 0x1A0111EA397FE69A4B1BA7B6434BACD764774B84F38512BF6730D2A0F6B0F6241EABFFFEB153FFFFB9FEFFFFFFFFAAAB
R = 0x73EDA753299D7D483339D80809A1D80553BDA402FFFE5BFEFFFFFFFF00000001

# Absolute value of the (negative) curve parameter; drives the Miller loop
# and the final exponentiation.
X_ABS = 0xD201000000010000

FQ2_ONE = (1, 0)
FQ2_ZERO = (0, 0)
FQ6_ZERO = (FQ2_ZERO, FQ2_ZERO, FQ2_ZERO)
FQ6_ONE = (FQ2_ONE, FQ2_ZERO, FQ2_ZERO)
FQ12_ONE = (FQ6_ONE, FQ6_ZERO)

# xi = 1 + u, the Fq6 non-residue.
XI = (1, 1)


def fq_inv(a):
    return pow(a, -1, P)


def fq_sqrt(a):
    """Square root in Fq (p = 3 mod 4), or None when a is a non-residue."""
    a = a % P
    root = pow(a, (P + 1) // 4, P)
    if root * root % P != a:
        return None
    return root


def fq_is_square(a):
    """Whether a is a square in Fq, 0 included, i.e. fq_sqrt(a) is not
    None: the Jacobi symbol (a/P) by the binary algorithm, a few times
    cheaper than the exponentiation in fq_sqrt."""
    a %= P
    n, flip = P, False
    while a:
        # (2/n) = -1 exactly when n = 3 or 5 mod 8
        z = (a & -a).bit_length() - 1
        a >>= z
        if z & 1 and n & 7 in (3, 5):
            flip = not flip
        # reciprocity: (a/n) = -(n/a) exactly when both are 3 mod 4
        if a & n & 2:
            flip = not flip
        a, n = n % a, a
    return not flip


# ---------------------------------------------------------------------------
# Fq2
# ---------------------------------------------------------------------------

def fq2_add(a, b):
    return ((a[0] + b[0]) % P, (a[1] + b[1]) % P)


def fq2_sub(a, b):
    return ((a[0] - b[0]) % P, (a[1] - b[1]) % P)


def fq2_neg(a):
    return (-a[0] % P, -a[1] % P)


def fq2_conj(a):
    return (a[0], -a[1] % P)


def fq2_mul(a, b):
    a0, a1 = a
    b0, b1 = b
    t0 = a0 * b0
    t1 = a1 * b1
    # Karatsuba: (a0+a1)(b0+b1) - t0 - t1 = a0*b1 + a1*b0
    t2 = (a0 + a1) * (b0 + b1) - t0 - t1
    return ((t0 - t1) % P, t2 % P)


def fq2_sqr(a):
    a0, a1 = a
    # (a0 + a1 u)^2 = (a0+a1)(a0-a1) + 2 a0 a1 u
    return ((a0 + a1) * (a0 - a1) % P, 2 * a0 * a1 % P)


def fq2_scale(a, k):
    """Multiply an Fq2 element by an Fq scalar."""
    return (a[0] * k % P, a[1] * k % P)


def fq2_inv(a):
    a0, a1 = a
    norm_inv = fq_inv((a0 * a0 + a1 * a1) % P)
    return (a0 * norm_inv % P, -a1 * norm_inv % P)


def fq2_mul_xi(a):
    """Multiply by xi = 1 + u."""
    a0, a1 = a
    return ((a0 - a1) % P, (a0 + a1) % P)


def fq2_pow(a, e):
    out = FQ2_ONE
    base = a
    while e:
        if e & 1:
            out = fq2_mul(out, base)
        base = fq2_sqr(base)
        e >>= 1
    return out


def fq2_sqrt(a):
    """Square root in Fq2 via the complex method, or None for non-residues."""
    a0, a1 = a
    if a1 == 0:
        r = fq_sqrt(a0)
        if r is not None:
            return (r, 0)
        r = fq_sqrt(-a0 % P)
        if r is None:
            return None
        return (0, r)
    lam = fq_sqrt((a0 * a0 + a1 * a1) % P)
    if lam is None:
        return None
    delta = (a0 + lam) * ((P + 1) // 2) % P
    r = pow(delta, (P + 1) // 4, P)
    # r^2 = delta for a residue; else r^2 = -delta, and since
    # (a0 + lam)(a0 - lam) = -a1^2 the root's imaginary part is r
    if r * r % P == delta:
        cand = (r, a1 * fq_inv(2 * r % P) % P)
    else:
        cand = (a1 * fq_inv(2 * r % P) % P, r)
    if fq2_sqr(cand) != (a0 % P, a1 % P):
        return None
    return cand


# ---------------------------------------------------------------------------
# Fq6 = Fq2[v] / (v^3 - xi)
# ---------------------------------------------------------------------------

def fq6_add(a, b):
    return (fq2_add(a[0], b[0]), fq2_add(a[1], b[1]), fq2_add(a[2], b[2]))


def fq6_sub(a, b):
    return (fq2_sub(a[0], b[0]), fq2_sub(a[1], b[1]), fq2_sub(a[2], b[2]))


def fq6_neg(a):
    return (fq2_neg(a[0]), fq2_neg(a[1]), fq2_neg(a[2]))


def fq6_mul(x, y):
    # Karatsuba over both extension levels with the Fq2 arithmetic
    # inlined; this is the innermost pairing hot spot, so the tuple
    # plumbing of fq2_* helpers is deliberately avoided.
    (a0, a1), (b0, b1), (c0, c1) = x
    (d0, d1), (e0, e1), (f0, f1) = y
    t0 = a0 * d0; t1 = a1 * d1
    v0r = t0 - t1; v0i = (a0 + a1) * (d0 + d1) - t0 - t1
    t0 = b0 * e0; t1 = b1 * e1
    v1r = t0 - t1; v1i = (b0 + b1) * (e0 + e1) - t0 - t1
    t0 = c0 * f0; t1 = c1 * f1
    v2r = t0 - t1; v2i = (c0 + c1) * (f0 + f1) - t0 - t1
    # c0 = v0 + xi*((b+c)(e+f) - v1 - v2)
    s0 = b0 + c0; s1 = b1 + c1; u0 = e0 + f0; u1 = e1 + f1
    t0 = s0 * u0; t1 = s1 * u1
    m0 = t0 - t1 - v1r - v2r; m1 = (s0 + s1) * (u0 + u1) - t0 - t1 - v1i - v2i
    r0r = (v0r + m0 - m1) % P; r0i = (v0i + m0 + m1) % P
    # c1 = (a+b)(d+e) - v0 - v1 + xi*v2
    s0 = a0 + b0; s1 = a1 + b1; u0 = d0 + e0; u1 = d1 + e1
    t0 = s0 * u0; t1 = s1 * u1
    m0 = t0 - t1 - v0r - v1r; m1 = (s0 + s1) * (u0 + u1) - t0 - t1 - v0i - v1i
    r1r = (m0 + v2r - v2i) % P; r1i = (m1 + v2r + v2i) % P
    # c2 = (a+c)(d+f) - v0 - v2 + v1
    s0 = a0 + c0; s1 = a1 + c1; u0 = d0 + f0; u1 = d1 + f1
    t0 = s0 * u0; t1 = s1 * u1
    m0 = t0 - t1 - v0r - v2r + v1r
    m1 = (s0 + s1) * (u0 + u1) - t0 - t1 - v0i - v2i + v1i
    return ((r0r, r0i), (r1r, r1i), (m0 % P, m1 % P))


def fq6_mul_by_v(a):
    """Multiply by v: (c0, c1, c2) -> (xi*c2, c0, c1)."""
    return (fq2_mul_xi(a[2]), a[0], a[1])


def fq6_inv(a):
    a0, a1, a2 = a
    t0 = fq2_sub(fq2_sqr(a0), fq2_mul_xi(fq2_mul(a1, a2)))
    t1 = fq2_sub(fq2_mul_xi(fq2_sqr(a2)), fq2_mul(a0, a1))
    t2 = fq2_sub(fq2_sqr(a1), fq2_mul(a0, a2))
    det = fq2_add(fq2_mul(a0, t0), fq2_mul_xi(fq2_add(fq2_mul(a2, t1), fq2_mul(a1, t2))))
    det_inv = fq2_inv(det)
    return (fq2_mul(t0, det_inv), fq2_mul(t1, det_inv), fq2_mul(t2, det_inv))


# ---------------------------------------------------------------------------
# Fq12 = Fq6[w] / (w^2 - v)
# ---------------------------------------------------------------------------

def fq12_mul(a, b):
    a0, a1 = a
    b0, b1 = b
    v0 = fq6_mul(a0, b0)
    v1 = fq6_mul(a1, b1)
    c1 = fq6_sub(fq6_mul(fq6_add(a0, a1), fq6_add(b0, b1)), fq6_add(v0, v1))
    c0 = fq6_add(v0, fq6_mul_by_v(v1))
    return (c0, c1)


def fq12_sqr(a):
    a0, a1 = a
    v0 = fq6_mul(a0, a1)
    # (a0 + a1 w)^2 = (a0 + a1)(a0 + v a1) - v0 - v*v0 + 2 v0 w
    t = fq6_mul(fq6_add(a0, a1), fq6_add(a0, fq6_mul_by_v(a1)))
    c0 = fq6_sub(fq6_sub(t, v0), fq6_mul_by_v(v0))
    c1 = fq6_add(v0, v0)
    return (c0, c1)


def fq12_inv(a):
    a0, a1 = a
    det = fq6_sub(fq6_mul(a0, a0), fq6_mul_by_v(fq6_mul(a1, a1)))
    det_inv = fq6_inv(det)
    return (fq6_mul(a0, det_inv), fq6_neg(fq6_mul(a1, det_inv)))


def fq12_conj(a):
    """The p^6-power Frobenius: negates the w-odd half."""
    return (a[0], fq6_neg(a[1]))


def fq12_pow(a, e):
    out = FQ12_ONE
    base = a
    while e:
        if e & 1:
            out = fq12_mul(out, base)
        base = fq12_sqr(base)
        e >>= 1
    return out


# Frobenius constants: gamma_k[i] = xi^(i*(p^k - 1)/6), used on the
# coefficient of w^i when Fq12 is viewed as Fq2[w]/(w^6 - xi).
_GAMMA1 = tuple(fq2_pow(XI, i * (P - 1) // 6) for i in range(6))
_GAMMA2 = tuple(fq2_pow(XI, i * (P * P - 1) // 6) for i in range(6))


def _to_w_basis(a):
    (a0, a1, a2), (b0, b1, b2) = a
    return [a0, b0, a1, b1, a2, b2]


def _from_w_basis(c):
    return ((c[0], c[2], c[4]), (c[1], c[3], c[5]))


def fq12_frobenius(a):
    """x -> x^p."""
    c = _to_w_basis(a)
    c = [fq2_mul(fq2_conj(c[i]), _GAMMA1[i]) for i in range(6)]
    return _from_w_basis(c)


def fq12_frobenius2(a):
    """x -> x^(p^2)."""
    c = _to_w_basis(a)
    c = [fq2_mul(c[i], _GAMMA2[i]) for i in range(6)]
    return _from_w_basis(c)

