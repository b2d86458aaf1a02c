"""Optimal ate pairing on BLS12-381.

The Miller loop runs over the 64-bit absolute curve parameter with the
G2 argument kept in affine coordinates on the twist, its lines
precomputed as (a, slope) pairs that do not depend on the G1 argument.
Each line, after clearing denominators, has only three nonzero slots in
the tower (w^0, w^2 and w^3, the textbook M-twist layout), so the
accumulator is multiplied by it with a sparse product (Costello, Lange
and Naehrig, PKC 2010) rather than a general Fq12 multiplication.  Every
line of a pair is divided by the G1 point's y, which turns the w^3 slot
into 1 and leaves four Fq products per line to evaluate it: the loop's
value moves by an element of Fq, which the final exponentiation sends
to 1 (Scott, Pairing 2007; Lauter, Montgomery and Naehrig, Pairing
2010).  Because the curve parameter is negative the accumulated value is
conjugated before the final exponentiation.

The final exponentiation uses the easy part (p^6-1)(p^2+1) followed by
the parameter-driven addition chain for three times the hard part,
3*(p^4-p^2+1)/r = (x-1)^2 (x+p) (x^2+p^2-1) + 3.  The cube factor is
shared by every output, so all bilinearity and product identities hold
exactly; this is the usual trade made by production pairing code.  Each
of the chain's five powers of |x| runs its 63 squarings in Karabina's
compressed form (Math. Comp. 2013): four of the six Fq2 coefficients,
six Fq2 squarings per step where Granger-Scott takes nine.  The powers
f^(2^i) at the six set bits of |x| are decompressed together with one
inversion (Aranha et al., EUROCRYPT 2011) and multiplied.  Decompression
divides by one coefficient; when that is zero (f = 1, the value of a
product whose pairs all hold the point at infinity) the power is taken
by the generic ``fq12_pow`` instead, so every output is the same field
element either way.

``miller_loop`` accepts several (G1, G2 line table) pairs and shares one
final exponentiation across them, which is what every verifier wants.
"""

from .curve import _batch_inv
from .fields import (
    P, X_ABS, FQ12_ONE,
    fq2_sub, fq2_mul, fq2_sqr, fq2_scale, fq2_inv,
    fq12_mul, fq12_sqr, fq12_pow, fq12_inv, fq12_conj, fq12_frobenius, fq12_frobenius2,
)

_X_BITS = bin(X_ABS)[3:]  # skip the leading 1
# positions of the set bits of |x|: 16, 48, 57, 60, 62 and 63
_X_SET_BITS = tuple(i for i in range(X_ABS.bit_length()) if X_ABS >> i & 1)


def _mul_by_line(f, a, slope, yp_inv, xq):
    """f times one (a, slope) entry of a line table, evaluated at the G1
    point P = (xP, yP) and divided by yP; ``yp_inv`` is 1/yP and ``xq``
    is -xP/yP.

    At P the line is (a + slope*(-xP) v) + (yP v) w in the tower, with
    three nonzero slots.  Divided by yP it is (A + B v) + v w, where
    A = a/yP and B = slope*(-xP/yP): four Fq products, and the w^3 slot
    is 1.  With f = g + h w, the product is
    (g (A + B v) + v^2 h) + (v g + h (A + B v)) w: twelve Fq2 products
    by A or B (Karatsuba, inlined), reduced once per output coefficient.
    """
    a0 = a[0] * yp_inv % P; a1 = a[1] * yp_inv % P  # A
    b0 = slope[0] * xq % P; b1 = slope[1] * xq % P  # B
    sa = a0 + a1; sb = b0 + b1
    ((g00, g01), (g10, g11), (g20, g21)), ((h00, h01), (h10, h11), (h20, h21)) = f
    sg0 = g00 + g01; sg1 = g10 + g11; sg2 = g20 + g21
    sh0 = h00 + h01; sh1 = h10 + h11; sh2 = h20 + h21
    # g0*A, g1*A, g2*A, g0*B, g1*B, g2*B
    t0 = g00 * a0; t1 = g01 * a1; ga00 = t0 - t1; ga01 = sg0 * sa - t0 - t1
    t0 = g10 * a0; t1 = g11 * a1; ga10 = t0 - t1; ga11 = sg1 * sa - t0 - t1
    t0 = g20 * a0; t1 = g21 * a1; ga20 = t0 - t1; ga21 = sg2 * sa - t0 - t1
    t0 = g00 * b0; t1 = g01 * b1; gb00 = t0 - t1; gb01 = sg0 * sb - t0 - t1
    t0 = g10 * b0; t1 = g11 * b1; gb10 = t0 - t1; gb11 = sg1 * sb - t0 - t1
    t0 = g20 * b0; t1 = g21 * b1; gb20 = t0 - t1; gb21 = sg2 * sb - t0 - t1
    # the same products for h
    t0 = h00 * a0; t1 = h01 * a1; ha00 = t0 - t1; ha01 = sh0 * sa - t0 - t1
    t0 = h10 * a0; t1 = h11 * a1; ha10 = t0 - t1; ha11 = sh1 * sa - t0 - t1
    t0 = h20 * a0; t1 = h21 * a1; ha20 = t0 - t1; ha21 = sh2 * sa - t0 - t1
    t0 = h00 * b0; t1 = h01 * b1; hb00 = t0 - t1; hb01 = sh0 * sb - t0 - t1
    t0 = h10 * b0; t1 = h11 * b1; hb10 = t0 - t1; hb11 = sh1 * sb - t0 - t1
    t0 = h20 * b0; t1 = h21 * b1; hb20 = t0 - t1; hb21 = sh2 * sb - t0 - t1
    # g (A + B v) + v^2 h, with v^3 = xi:
    #   (g0 A + xi (g2 B + h1), g0 B + g1 A + xi h2, g1 B + g2 A + h0)
    m0 = gb20 + h10; m1 = gb21 + h11
    c0 = (
        ((ga00 + m0 - m1) % P, (ga01 + m0 + m1) % P),
        ((gb00 + ga10 + h20 - h21) % P, (gb01 + ga11 + h20 + h21) % P),
        ((gb10 + ga20 + h00) % P, (gb11 + ga21 + h01) % P),
    )
    # v g + h (A + B v):
    #   (h0 A + xi (h2 B + g2), h0 B + h1 A + g0, h1 B + h2 A + g1)
    m0 = hb20 + g20; m1 = hb21 + g21
    c1 = (
        ((ha00 + m0 - m1) % P, (ha01 + m0 + m1) % P),
        ((hb00 + ha10 + g00) % P, (hb01 + ha11 + g01) % P),
        ((hb10 + ha20 + g10) % P, (hb11 + ha21 + g11) % P),
    )
    return (c0, c1)


def precompute_g2_lines(q):
    """The Miller loop's lines for the G2 argument ``q``, one (a, slope)
    per step: the line through the step's point T = (xT, yT) on the
    twist with ``slope`` (the tangent, or the chord through T and q),
    where a = slope*xT - yT.  Neither depends on the G1 argument, so
    the table is built once for a point that will be paired many times
    (generators, long-lived public keys); see :func:`_mul_by_line` for
    how an entry is evaluated."""
    steps = []
    t = q
    for bit in _X_BITS:
        tx, ty = t
        slope = fq2_mul(fq2_scale(fq2_sqr(tx), 3), fq2_inv(fq2_scale(ty, 2)))
        steps.append((fq2_sub(fq2_mul(slope, tx), ty), slope))
        x3 = fq2_sub(fq2_sqr(slope), fq2_scale(tx, 2))
        y3 = fq2_sub(fq2_mul(slope, fq2_sub(tx, x3)), ty)
        t = (x3, y3)
        if bit == "1":
            tx, ty = t
            qx, qy = q
            slope = fq2_mul(fq2_sub(ty, qy), fq2_inv(fq2_sub(tx, qx)))
            steps.append((fq2_sub(fq2_mul(slope, qx), qy), slope))
            x3 = fq2_sub(fq2_sub(fq2_sqr(slope), tx), qx)
            y3 = fq2_sub(fq2_mul(slope, fq2_sub(tx, x3)), ty)
            t = (x3, y3)
    return steps


def miller_loop(pairs):
    """Product of Miller loops over (g1_point, g2_lines) pairs.

    The second member of each pair is the G2 argument's line table from
    :func:`precompute_g2_lines`, or None for the point at infinity.
    Pairs containing the point at infinity contribute the identity and
    are skipped.  Every line of a pair is divided by its yP (G1 has no
    point with y = 0), with one inversion shared by all pairs.  Returns
    an un-exponentiated Fq12 value: the plain loop's value times an
    element of Fq, which the final exponentiation sends to 1.
    """
    work = [(iter(lines), p1) for p1, lines in pairs if p1 is not None and lines is not None]
    if not work:
        return FQ12_ONE
    yp_invs = _batch_inv([p1[1] for _, p1 in work])
    work = [(lines, yi, -p1[0] * yi % P) for (lines, p1), yi in zip(work, yp_invs)]
    f = FQ12_ONE
    for bit in _X_BITS:
        f = fq12_sqr(f)
        for lines, yp_inv, xq in work:
            a, slope = next(lines)
            f = _mul_by_line(f, a, slope, yp_inv, xq)
        if bit == "1":
            for lines, yp_inv, xq in work:
                a, slope = next(lines)
                f = _mul_by_line(f, a, slope, yp_inv, xq)
    # negative curve parameter: invert via conjugation
    return fq12_conj(f)


def _compressed_sqrs(z, n):
    """n cyclotomic squarings of a compressed element z = (z2, z3, z4, z5).

    The tower value is ((z0, z4, z3), (z2, z1, z5)).  Read (z2, z3) and
    (z4, z5) as elements of Fq4 = Fq2[s]/(s^2 - xi), and square them:
    (z2 + z3 s)^2 = A + B s and (z4 + z5 s)^2 = C + D s.  In the
    cyclotomic subgroup the square's z2 to z5 depend on these alone, so
    z0 and z1 are dropped (Karabina):
        z2' = 3 xi D + 2 z2,  z3' = 3 C - 2 z3,
        z4' = 3 A - 2 z4,     z5' = 3 B + 2 z5.
    The loop keeps the eight Fq coordinates in locals.
    """
    (a0, a1), (b0, b1), (c0, c1), (d0, d1) = z
    for _ in range(n):
        # (z2 + z3 s)^2 = A + B s
        x0 = (a0 + a1) * (a0 - a1); x1 = 2 * a0 * a1
        y0 = (b0 + b1) * (b0 - b1); y1 = 2 * b0 * b1
        s0 = a0 + b0; s1 = a1 + b1
        A0 = x0 + y0 - y1; A1 = x1 + y0 + y1
        B0 = (s0 + s1) * (s0 - s1) - x0 - y0; B1 = 2 * s0 * s1 - x1 - y1
        # (z4 + z5 s)^2 = C + D s
        x0 = (c0 + c1) * (c0 - c1); x1 = 2 * c0 * c1
        y0 = (d0 + d1) * (d0 - d1); y1 = 2 * d0 * d1
        s0 = c0 + d0; s1 = c1 + d1
        C0 = x0 + y0 - y1; C1 = x1 + y0 + y1
        D0 = (s0 + s1) * (s0 - s1) - x0 - y0; D1 = 2 * s0 * s1 - x1 - y1
        a0, a1 = (3 * (D0 - D1) + 2 * a0) % P, (3 * (D0 + D1) + 2 * a1) % P
        b0, b1 = (3 * C0 - 2 * b0) % P, (3 * C1 - 2 * b1) % P
        c0, c1 = (3 * A0 - 2 * c0) % P, (3 * A1 - 2 * c1) % P
        d0, d1 = (3 * B0 + 2 * d0) % P, (3 * B1 + 2 * d1) % P
    return ((a0, a1), (b0, b1), (c0, c1), (d0, d1))


def _decompress(zs):
    """The tower values of compressed cyclotomic elements, with one
    inversion for all of them, or None when some z2 is zero:
        z1 = (xi z5^2 + 3 z4^2 - 2 z3) / (4 z2),
        z0 = xi (2 z1^2 + z2 z5 - 3 z3 z4) + 1.
    1/(4 z2) is conj(4 z2) over the Fq norm of 4 z2, which is zero only
    for z2 = 0.  The Fq2 arithmetic is inlined as in ``fq6_mul``."""
    if any(z2 == (0, 0) for z2, _, _, _ in zs):
        return None
    norm_invs = _batch_inv([16 * (a0 * a0 + a1 * a1) % P for (a0, a1), _, _, _ in zs])
    out = []
    for ((a0, a1), (b0, b1), (c0, c1), (d0, d1)), ni in zip(zs, norm_invs):
        # num = xi z5^2 + 3 z4^2 - 2 z3, and z1 = num * conj(4 z2) / N(4 z2)
        x0 = (d0 + d1) * (d0 - d1); x1 = 2 * d0 * d1
        n0 = (x0 - x1 + 3 * (c0 + c1) * (c0 - c1) - 2 * b0) % P
        n1 = (x0 + x1 + 6 * c0 * c1 - 2 * b1) % P
        i0 = 4 * a0 * ni % P; i1 = -4 * a1 * ni % P
        t0 = n0 * i0; t1 = n1 * i1
        e0 = (t0 - t1) % P; e1 = ((n0 + n1) * (i0 + i1) - t0 - t1) % P
        # t = 2 z1^2 + z2 z5 - 3 z3 z4, and z0 = xi t + 1
        t0 = 2 * (e0 + e1) * (e0 - e1) + a0 * d0 - a1 * d1 - 3 * (b0 * c0 - b1 * c1)
        t1 = 4 * e0 * e1 + a0 * d1 + a1 * d0 - 3 * (b0 * c1 + b1 * c0)
        out.append((
            (((t0 - t1 + 1) % P, (t0 + t1) % P), (c0, c1), (b0, b1)),
            ((a0, a1), (e0, e1), (d0, d1)),
        ))
    return out


def _pow_x_abs(f):
    """f^|x| for f in the cyclotomic subgroup (callers guarantee it).

    f^(2^i) is kept compressed at each set bit i of |x|; the six are
    decompressed together and multiplied.  If one cannot be decompressed
    the power is taken by ``fq12_pow`` instead (see the module docstring)."""
    (_, z4, z3), (z2, _, z5) = f
    z = (z2, z3, z4, z5)
    kept = []
    done = 0
    for i in _X_SET_BITS:
        z = _compressed_sqrs(z, i - done)
        kept.append(z)
        done = i
    powers = _decompress(kept)
    if powers is None:
        return fq12_pow(f, X_ABS)
    out = powers[0]
    for g in powers[1:]:
        out = fq12_mul(out, g)
    return out


def _pow_neg_x(f):
    """f^x for the negative parameter; valid in the cyclotomic subgroup
    where inversion is conjugation."""
    return fq12_conj(_pow_x_abs(f))


def final_exponentiation(f):
    # easy part: f^((p^6 - 1)(p^2 + 1))
    t = fq12_mul(fq12_conj(f), fq12_inv(f))
    m = fq12_mul(fq12_frobenius2(t), t)
    # hard part: m^((x-1)^2 (x+p) (x^2+p^2-1) + 3)
    t1 = fq12_mul(_pow_neg_x(m), fq12_conj(m))          # m^(x-1)
    t1 = fq12_mul(_pow_neg_x(t1), fq12_conj(t1))        # m^((x-1)^2)
    t2 = fq12_mul(_pow_neg_x(t1), fq12_frobenius(t1))   # ^(x+p)
    t3 = fq12_mul(
        _pow_neg_x(_pow_neg_x(t2)),
        fq12_mul(fq12_frobenius2(t2), fq12_conj(t2)),
    )                                                   # ^(x^2+p^2-1)
    return fq12_mul(t3, fq12_mul(fq12_sqr(m), m))

