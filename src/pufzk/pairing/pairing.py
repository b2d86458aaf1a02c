"""Optimal ate pairing on BLS12-381.

The Miller loop runs over the 64-bit absolute curve parameter with the
G2 argument kept in affine coordinates on the twist; line evaluations
are assembled directly into the tower representation (slots w^0, w^2,
w^3 after clearing denominators, the textbook M-twist layout).  Because
the curve parameter is negative the accumulated value is conjugated
before the final exponentiation.

The final exponentiation uses the easy part (p^6-1)(p^2+1) followed by
the parameter-driven addition chain for three times the hard part,
3*(p^4-p^2+1)/r = (x-1)^2 (x+p) (x^2+p^2-1) + 3.  The cube factor is
shared by every output, so all bilinearity and product identities hold
exactly; this is the usual trade made by production pairing code.

``miller_loop`` accepts several (G1, G2 line table) pairs and shares one
final exponentiation across them, which is what every verifier wants.
"""

from .fields import (
    P, X_ABS, FQ12_ONE,
    fq2_sub, fq2_mul, fq2_sqr, fq2_scale, fq2_inv,
    FQ2_ZERO,
    fq12_mul, fq12_sqr, fq12_inv, fq12_conj, fq12_frobenius, fq12_frobenius2,
    fq12_cyclotomic_sqr,
)

_X_BITS = bin(X_ABS)[3:]  # skip the leading 1


def _line_eval(slope, point, xp_neg, yp):
    """Line through `point` on the twist with `slope`, evaluated at the
    G1 point (as precomputed -xP and yP), in Fq12 tower layout."""
    px, py = point
    a = fq2_sub(fq2_mul(slope, px), py)        # w^0 slot
    b = fq2_scale(slope, xp_neg)               # w^2 slot
    c = (yp, 0)                                # w^3 slot
    return ((a, b, FQ2_ZERO), (FQ2_ZERO, c, FQ2_ZERO))


def precompute_g2_lines(q):
    """The per-step (slope, point) sequence of the Miller loop depends
    only on the G2 argument; precompute it once for a point that will
    be paired many times (generators, long-lived public keys)."""
    steps = []
    t = q
    for bit in _X_BITS:
        tx, ty = t
        slope = fq2_mul(fq2_scale(fq2_sqr(tx), 3), fq2_inv(fq2_scale(ty, 2)))
        steps.append((slope, t))
        x3 = fq2_sub(fq2_sqr(slope), fq2_scale(tx, 2))
        y3 = fq2_sub(fq2_mul(slope, fq2_sub(tx, x3)), ty)
        t = (x3, y3)
        if bit == "1":
            tx, ty = t
            qx, qy = q
            slope = fq2_mul(fq2_sub(ty, qy), fq2_inv(fq2_sub(tx, qx)))
            steps.append((slope, q))
            x3 = fq2_sub(fq2_sub(fq2_sqr(slope), tx), qx)
            y3 = fq2_sub(fq2_mul(slope, fq2_sub(tx, x3)), ty)
            t = (x3, y3)
    return steps


def miller_loop(pairs):
    """Product of Miller loops over (g1_point, g2_lines) pairs.

    The second member of each pair is the G2 argument's line table from
    :func:`precompute_g2_lines`, or None for the point at infinity.
    Pairs containing the point at infinity contribute the identity and
    are skipped.  Returns an un-exponentiated Fq12 value.
    """
    work = []
    for p1, lines in pairs:
        if p1 is None or lines is None:
            continue
        work.append((iter(lines), -p1[0] % P, p1[1]))
    f = FQ12_ONE
    if not work:
        return f
    for bit in _X_BITS:
        f = fq12_sqr(f)
        for lines, xp_neg, yp in work:
            slope, point = next(lines)
            f = fq12_mul(f, _line_eval(slope, point, xp_neg, yp))
        if bit == "1":
            for lines, xp_neg, yp in work:
                slope, point = next(lines)
                f = fq12_mul(f, _line_eval(slope, point, xp_neg, yp))
    # negative curve parameter: invert via conjugation
    return fq12_conj(f)


def _pow_x_abs(f):
    """f^|x| over the sparse 64-bit parameter, using cyclotomic
    squarings (callers guarantee f sits in the cyclotomic subgroup)."""
    out = f
    for bit in _X_BITS:
        out = fq12_cyclotomic_sqr(out)
        if bit == "1":
            out = fq12_mul(out, f)
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

