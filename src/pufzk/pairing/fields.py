"""Tower-field arithmetic for the BLS12-381 parameter set.

The extension tower is the conventional one:

    Fq2  = Fq[u]  / (u^2 + 1)
    Fq6  = Fq2[v] / (v^3 - xi),  xi = 1 + u
    Fq12 = Fq6[w] / (w^2 - v)

Elements are plain tuples (no classes) so the hot loops in the curve and
pairing modules stay close to raw integer arithmetic.  Fq values are ints
(gmpy2.mpz when available), Fq2 is a pair, Fq6 a triple of Fq2, Fq12 a
pair of Fq6.
"""

try:
    from gmpy2 import mpz, invert as _gmpy_invert

    def _inv_mod_p(a: int) -> int:
        return int(_gmpy_invert(a, P))

except ImportError:  # pure-int fallback, ~3x slower
    def mpz(x):  # type: ignore[misc]
        return x

    def _inv_mod_p(a: int) -> int:
        return pow(a, -1, P)


# Base field modulus and subgroup order of BLS12-381.
P = mpz(0x1A0111EA397FE69A4B1BA7B6434BACD764774B84F38512BF6730D2A0F6B0F6241EABFFFEB153FFFFB9FEFFFFFFFFAAAB)
R = mpz(0x73EDA753299D7D483339D80809A1D80553BDA402FFFE5BFEFFFFFFFF00000001)

# Absolute value of the (negative) curve parameter; drives the Miller loop
# and the final exponentiation.
X_ABS = 0xD201000000010000

FQ2_ONE = (mpz(1), mpz(0))
FQ2_ZERO = (mpz(0), mpz(0))
FQ6_ZERO = (FQ2_ZERO, FQ2_ZERO, FQ2_ZERO)
FQ6_ONE = (FQ2_ONE, FQ2_ZERO, FQ2_ZERO)
FQ12_ONE = (FQ6_ONE, FQ6_ZERO)

# xi = 1 + u, the Fq6 non-residue.
XI = (mpz(1), mpz(1))


def fq_inv(a):
    return _inv_mod_p(a)


def fq_sqrt(a):
    """Square root in Fq (p = 3 mod 4), or None when a is a non-residue."""
    a = a % P
    root = pow(a, (P + 1) // 4, P)
    if root * root % P != a:
        return None
    return root


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
    norm_inv = _inv_mod_p((a0 * a0 + a1 * a1) % P)
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


def fq2_is_zero(a):
    return a[0] == 0 and a[1] == 0


def fq2_sqrt(a):
    """Square root in Fq2 via the complex method, or None for non-residues."""
    a0, a1 = a
    if a1 == 0:
        r = fq_sqrt(a0)
        if r is not None:
            return (mpz(r), mpz(0))
        r = fq_sqrt(-a0 % P)
        if r is None:
            return None
        return (mpz(0), mpz(r))
    lam = fq_sqrt((a0 * a0 + a1 * a1) % P)
    if lam is None:
        return None
    inv2 = (P + 1) // 2
    delta = (a0 + lam) * inv2 % P
    x0 = fq_sqrt(delta)
    if x0 is None:
        delta = (a0 - lam) * inv2 % P
        x0 = fq_sqrt(delta)
        if x0 is None:
            return None
    x1 = a1 * _inv_mod_p(2 * x0 % P) % P
    cand = (mpz(x0), mpz(x1))
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


def _fq4_sqr(a, b):
    """Square (a + b s) in Fq4 = Fq2[s]/(s^2 - xi); returns (c0, c1)."""
    t0 = fq2_sqr(a)
    t1 = fq2_sqr(b)
    c0 = fq2_add(fq2_mul_xi(t1), t0)
    c1 = fq2_sub(fq2_sub(fq2_sqr(fq2_add(a, b)), t0), t1)
    return c0, c1


def fq12_cyclotomic_sqr(a):
    """Squaring specialised to the cyclotomic subgroup (Granger-Scott).

    Only valid after the easy part of the final exponentiation; about
    three times cheaper than a general squaring.  Checked against
    ``fq12_sqr`` in the test suite.
    """
    (z0, z4, z3), (z2, z1, z5) = a
    t0, t1 = _fq4_sqr(z0, z1)
    z0 = fq2_add(fq2_scale(fq2_sub(t0, z0), 2), t0)
    z1 = fq2_add(fq2_scale(fq2_add(t1, z1), 2), t1)
    t0, t1 = _fq4_sqr(z2, z3)
    t2, t3 = _fq4_sqr(z4, z5)
    z4 = fq2_add(fq2_scale(fq2_sub(t0, z4), 2), t0)
    z5 = fq2_add(fq2_scale(fq2_add(t1, z5), 2), t1)
    t0 = fq2_mul_xi(t3)
    z2 = fq2_add(fq2_scale(fq2_add(t0, z2), 2), t0)
    z3 = fq2_add(fq2_scale(fq2_sub(t2, z3), 2), t2)
    return ((z0, z4, z3), (z2, z1, z5))
