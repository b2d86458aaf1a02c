"""Group arithmetic, hashing, and serialization contracts."""

import hashlib
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from pufzk.pairing import (
    ORDER,
    DecodeError,
    DomainTag,
    G1Element,
    G2Element,
    GtElement,
    Scalar,
    challenge_scalar,
    hash_to_g1,
    hash_to_scalar,
    multi_pair,
    pair,
)
from pufzk.pairing import curve
from pufzk.pairing.fields import (
    FQ12_ONE, X_ABS, XI, fq12_pow, fq12_sqr, fq2_add, fq2_inv,
    fq2_mul, fq2_neg, fq2_pow, fq2_sqr, fq2_sqrt, fq_is_square, fq_sqrt, P, R,
)
from pufzk.pairing.pairing import (
    _compressed_sqrs, _decompress, _mul_by_line, _pow_x_abs,
    final_exponentiation, miller_loop, precompute_g2_lines,
)
from pufzk.pairing.curve import G1_GEN, g1_mul, g1_mul_unchecked, g2_mul_unchecked

VECTORS = pathlib.Path(__file__).resolve().parent.parent / "vectors"

G1 = G1Element.generator()
G2 = G2Element.generator()


def _easy_part(f):
    """f^((p^6 - 1)(p^2 + 1)): an element of the cyclotomic subgroup."""
    from pufzk.pairing.fields import fq12_conj, fq12_frobenius2, fq12_inv, fq12_mul
    t = fq12_mul(fq12_conj(f), fq12_inv(f))
    return fq12_mul(fq12_frobenius2(t), t)


def _compressed(f):
    """(z2, z3, z4, z5) of the tower value ((z0, z4, z3), (z2, z1, z5))."""
    (_, z4, z3), (z2, _, z5) = f
    return (z2, z3, z4, z5)


class TestPairing:
    def test_bilinearity_small_exponents(self):
        assert pair(G1 ** 2, G2 ** 3) == pair(G1, G2) ** 6

    def test_identity_pairs_to_gt_identity(self):
        assert pair(G1Element.identity(), G2).is_identity()
        assert pair(G1, G2Element.identity()).is_identity()

    def test_non_degeneracy(self):
        assert not pair(G1Element.generator(), G2Element.generator()).is_identity()

    def test_swap_exponent_sides(self):
        rng = random.Random(101)
        for _ in range(100):
            x = rng.randrange(1, ORDER)
            assert pair(G1 ** x, G2) == pair(G1, G2 ** x)

    def test_randomized_bilinearity(self):
        rng = random.Random(202)
        base = pair(G1, G2)
        for _ in range(100):
            x = rng.randrange(1, ORDER)
            y = rng.randrange(1, ORDER)
            assert pair(G1 ** x, G2 ** y) == base ** (x * y % ORDER)

    def test_multi_pair_matches_product(self):
        rng = random.Random(3)
        a, b = rng.randrange(1, ORDER), rng.randrange(1, ORDER)
        product = pair(G1 ** a, G2) * pair(G1, G2 ** b)
        assert multi_pair([(G1 ** a, G2), (G1, G2 ** b)]) == product

    def test_pairing_output_in_prime_order_subgroup(self):
        e = pair(G1 ** 5, G2 ** 9)
        # GtElement.__pow__ reduces the exponent mod ORDER, so raise the
        # raw Fq12 value to R itself
        assert fq12_pow(e._pt, R) == FQ12_ONE

    def test_cyclotomic_squaring_matches_general(self):
        # a chain of squarings from the easy part's output, so an output
        # left unreduced or outside the subgroup shows in the next step;
        # the compressed chain keeps four of the six coefficients, and
        # decompressing gives back the other two
        from pufzk.pairing.curve import G2_GEN
        rng = random.Random(4)
        for _ in range(3):
            f = miller_loop([(g1_mul(G1_GEN, rng.randrange(2, 10**6)), precompute_g2_lines(G2_GEN))])
            sqr = _easy_part(f)
            z = _compressed(sqr)
            for _ in range(64):
                sqr, z = fq12_sqr(sqr), _compressed_sqrs(z, 1)
                assert z == _compressed(sqr)
            assert _decompress([z]) == [sqr]

    @given(st.integers(min_value=2, max_value=R - 1), st.integers(min_value=1, max_value=R - 1))
    @settings(max_examples=8, deadline=None)
    def test_compressed_pow_matches_fq12_pow(self, a, b):
        from pufzk.pairing.curve import G2_GEN
        f = miller_loop([(g1_mul(G1_GEN, a), precompute_g2_lines(curve.g2_mul(G2_GEN, b)))])
        m = _easy_part(f)
        assert _pow_x_abs(m) == fq12_pow(m, X_ABS)

    def test_compressed_pow_of_one_takes_the_uncompressed_chain(self):
        # every compressed power of 1 has z2 = 0, which decompression
        # divides by; fq12_pow gives the exact result
        assert _decompress([_compressed(FQ12_ONE)]) is None
        assert _pow_x_abs(FQ12_ONE) == FQ12_ONE
        assert final_exponentiation(FQ12_ONE) == FQ12_ONE
        assert final_exponentiation(miller_loop([(None, None), (G1_GEN, None)])) == FQ12_ONE

    def test_mul_by_line_matches_dense_product(self):
        # each table entry (a, slope) is the line through the step's point
        # T with that slope (the tangent at T, or the chord through T and
        # q), a = slope*xT - yT; scaled by 1/yP it is a/yP at w^0,
        # slope*(-xP/yP) at w^2 and 1 at w^3, as a dense Fq12 value
        from pufzk.pairing.curve import G2_GEN
        from pufzk.pairing.fields import FQ2_ZERO, fq12_mul, fq2_scale, fq2_sub
        rng = random.Random(6)
        xp, yp = g1_mul(G1_GEN, rng.randrange(2, R))
        yp_inv = pow(yp, -1, P)
        xq = -xp * yp_inv % P
        for q in (G2_GEN, curve.g2_mul(G2_GEN, rng.randrange(2, R))):
            steps = precompute_g2_lines(q)
            kinds = [k for bit in bin(X_ABS)[3:] for k in ("dbl", "add")[:1 + (bit == "1")]]
            assert len(kinds) == len(steps)
            t = q
            for i, (kind, (a, slope)) in enumerate(zip(kinds, steps)):
                (tx, ty), (qx, qy) = t, q
                if kind == "dbl":
                    assert fq2_mul(slope, fq2_scale(ty, 2)) == fq2_scale(fq2_sqr(tx), 3)
                    t = curve.g2_add(t, t)
                else:
                    assert fq2_mul(slope, fq2_sub(tx, qx)) == fq2_sub(ty, qy)
                    assert a == fq2_sub(fq2_mul(slope, qx), qy)
                    t = curve.g2_add(t, q)
                assert a == fq2_sub(fq2_mul(slope, tx), ty)
                if kind == "add" or rng.randrange(8) == 0:
                    line = ((fq2_scale(a, yp_inv), fq2_scale(slope, xq), FQ2_ZERO),
                            (FQ2_ZERO, (1, 0), FQ2_ZERO))
                    f = tuple(tuple((rng.randrange(P), rng.randrange(P)) for _ in range(3))
                              for _ in range(2))
                    assert _mul_by_line(f, a, slope, yp_inv, xq) == fq12_mul(f, line)
            assert t == curve.g2_mul(q, X_ABS)

    @pytest.mark.parametrize("n_pairs", [1, 2])
    def test_miller_loop_is_the_plain_loop_times_an_fq_element(self, n_pairs):
        # the plain loop: the G2 point walked in affine coordinates, each
        # line with its three unscaled slots (a at w^0, slope*(-xP) at
        # w^2, yP at w^3) multiplied in densely, squarings as products
        from pufzk.pairing.curve import G2_GEN
        from pufzk.pairing.fields import (
            FQ2_ZERO, fq12_conj, fq12_inv, fq12_mul, fq2_scale, fq2_sub,
        )

        def plain(p1, q):
            xp, yp = p1
            f, t = FQ12_ONE, q
            for bit in bin(X_ABS)[3:]:
                f = fq12_mul(f, f)
                for kind in ("dbl", "add")[:1 + (bit == "1")]:
                    partner = t if kind == "dbl" else q
                    (tx, ty), (qx, qy) = t, q
                    if kind == "dbl":
                        slope = fq2_mul(fq2_scale(fq2_sqr(tx), 3), fq2_inv(fq2_scale(ty, 2)))
                    else:
                        slope = fq2_mul(fq2_sub(ty, qy), fq2_inv(fq2_sub(tx, qx)))
                    a = fq2_sub(fq2_mul(slope, tx), ty)
                    line = ((a, fq2_scale(slope, -xp % P), FQ2_ZERO), (FQ2_ZERO, (yp, 0), FQ2_ZERO))
                    f = fq12_mul(f, line)
                    t = curve.g2_add(t, partner)
            return fq12_conj(f)

        rng = random.Random(60 + n_pairs)
        pairs = [(g1_mul(G1_GEN, rng.randrange(2, R)), curve.g2_mul(G2_GEN, rng.randrange(2, R)))
                 for _ in range(n_pairs)]
        expected = FQ12_ONE
        for p1, q in pairs:
            expected = fq12_mul(expected, plain(p1, q))
        quotient = fq12_mul(miller_loop([(p1, precompute_g2_lines(q)) for p1, q in pairs]),
                            fq12_inv(expected))
        coeffs = [c for half in quotient for pair_ in half for c in pair_]
        assert coeffs[0] != 0 and coeffs[1:] == [0] * 11

    def test_miller_loop_counts(self, monkeypatch):
        # exact counts, independent of host speed: one squaring per bit
        # of |x| below the top one, and every line multiplied in sparsely
        from pufzk.pairing import pairing as pairing_mod
        from pufzk.pairing.curve import G2_GEN
        counts = {"fq12_mul": 0, "fq12_sqr": 0, "_mul_by_line": 0}
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(pairing_mod, name)):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(pairing_mod, name, counted)
        pk_lines = precompute_g2_lines(g2_mul_unchecked(G2_GEN, 12345))
        pairs = [(g1_mul(G1_GEN, 3), precompute_g2_lines(G2_GEN)), (G1_GEN, pk_lines)]
        pairing_mod.miller_loop(pairs)
        assert counts == {"fq12_mul": 0, "fq12_sqr": 63, "_mul_by_line": 2 * len(pk_lines)}

    @pytest.mark.parametrize("one", [False, True], ids=["random", "one"])
    def test_final_exponentiation_counts(self, monkeypatch, one):
        # exact counts, independent of host speed: five powers of |x|,
        # each 63 compressed squarings, one batch inversion and five
        # products, besides the nine products of the easy part and the
        # chain; f = 1 takes each power by fq12_pow instead of the five
        # products and inverts nothing
        from pufzk.pairing import pairing as pairing_mod
        from pufzk.pairing.curve import G2_GEN
        f = FQ12_ONE if one else miller_loop([(g1_mul(G1_GEN, 7), precompute_g2_lines(G2_GEN))])
        counts = {"fq12_mul": 0, "fq12_sqr": 0, "fq12_pow": 0, "_batch_inv": 0}
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(pairing_mod, name)):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(pairing_mod, name, counted)
        counts["compressed squarings"] = 0

        def compressed(z, n, _fn=pairing_mod._compressed_sqrs):
            counts["compressed squarings"] += n
            return _fn(z, n)
        monkeypatch.setattr(pairing_mod, "_compressed_sqrs", compressed)
        pairing_mod.final_exponentiation(f)
        assert counts == {
            "fq12_mul": 9 if one else 34, "fq12_sqr": 1, "compressed squarings": 315,
            "fq12_pow": 5 if one else 0, "_batch_inv": 0 if one else 5,
        }

    def test_final_exponentiation_matches_generic_exponent(self):
        # the addition chain computes f^(3*(p^4-p^2+1)/r) after the easy
        # part; check it against a plain square-and-multiply once
        from pufzk.pairing.curve import G2_GEN
        f = miller_loop([(G1_GEN, precompute_g2_lines(G2_GEN))])
        hard = 3 * ((P ** 4 - P ** 2 + 1) // R)
        assert final_exponentiation(f) == fq12_pow(_easy_part(f), hard)


class TestHashToGroup:
    def test_deterministic(self):
        assert hash_to_g1(b"x", b"t") == hash_to_g1(b"x", b"t")

    def test_tag_separation(self):
        rng = random.Random(77)
        for _ in range(1000):
            msg = rng.getrandbits(128).to_bytes(16, "big")
            assert hash_to_g1(msg, b"tag-1") != hash_to_g1(msg, b"tag-2")

    def test_subgroup_membership(self):
        for i in range(5):
            h = hash_to_g1(bytes([i]), DomainTag.SIGNATURE_MESSAGE)
            assert g1_mul_unchecked(h._pt, R) is None
            assert not h.is_identity()

    def test_long_message_matches_per_counter_formula(self):
        # the try-and-increment formula written out, hashing framed + ctr
        # afresh for every counter, on a 64 KiB message whose first
        # candidates are off the curve
        import hashlib
        from pufzk.pairing.curve import B_G1, COFACTOR_G1
        tag, msg = DomainTag.SIGNATURE_MESSAGE, bytes([1]) * 65536
        framed = bytes([len(tag)]) + tag + msg
        ctr = 0
        while True:
            digest = hashlib.shake_256(framed + ctr.to_bytes(4, "big")).digest(49)
            x = int.from_bytes(digest[:48], "big") % P
            y = fq_sqrt((x * x * x + B_G1) % P)
            if y is not None:
                if digest[48] & 1:
                    y = -y % P
                expected = g1_mul_unchecked((x, y), COFACTOR_G1)
                if expected is not None:
                    break
            ctr += 1
        assert ctr > 0
        assert hash_to_g1(msg, tag)._pt == expected

    @given(st.integers(min_value=0, max_value=P - 1))
    @settings(max_examples=200, deadline=None)
    def test_residuosity_matches_square_root(self, a):
        assert fq_is_square(a) == (fq_sqrt(a) is not None)

    def test_residuosity_edge_cases(self):
        rng = random.Random(12)
        squares = [1, 4] + [pow(rng.randrange(1, P), 2, P) for _ in range(50)]
        # -1 is a non-residue (P = 3 mod 4), so -s is one for every square s
        non_squares = [P - s for s in squares]
        assert fq_is_square(0) and fq_sqrt(0) == 0
        assert all(fq_is_square(a) and fq_sqrt(a) is not None for a in squares)
        assert not any(fq_is_square(a) or fq_sqrt(a) is not None for a in non_squares)

    def test_one_square_root_per_hash(self, monkeypatch):
        # the residuosity test turns every non-residue candidate away
        # before the root is taken; the points stay those of the vectors
        from pufzk.pairing import group
        calls = []
        monkeypatch.setattr(group, "fq_sqrt", lambda a, _fn=group.fq_sqrt: calls.append(a) or _fn(a))
        cases = [line.split()[1:] for line in (VECTORS / "pairing_vectors.txt").read_text().splitlines()
                 if line.startswith("h2g1 ")]
        assert len(cases) >= 4
        for inp, enc in cases:
            tag_hex, msg_hex = inp.split(":")
            assert hash_to_g1(bytes.fromhex(msg_hex), bytes.fromhex(tag_hex)).to_bytes().hex() == enc
        assert len(calls) == len(cases)

    def test_effective_cofactor_sends_the_curve_into_g1(self):
        """[1 - x] = [|x| + 1] clears the cofactor's torsion on its own
        (Wahby and Boneh, TCHES 2019(4), sec. 5; RFC 9380 sec. 8.8.1,
        h_eff = 0xd201000000010001), so hash_to_g1 multiplies by it alone
        and folds the rest of the cofactor into the next ladder.  The
        points of E(Fq) whose order divides r * (|x| + 1) form a subgroup;
        if it were proper, it would hold at most half of E(Fq), and 20
        random points would all land in it with a chance below 2^-20."""
        assert (X_ABS + 1) % 3 == 0 and X_ABS + 1 == 0xD201000000010001
        rng = random.Random(2303)
        points = [_random_e1_point(rng) for _ in range(20)]
        assert not any(curve.g1_in_subgroup(pt) for pt in points)
        for pt in points:
            image = g1_mul_unchecked(pt, X_ABS + 1)
            assert image is not None and curve.g1_in_subgroup(image)
            # [r]P is an h-torsion point, which [|x| + 1] sends to the identity
            torsion = g1_mul_unchecked(pt, R)
            assert torsion is not None and g1_mul_unchecked(torsion, X_ABS + 1) is None

    def test_fold_completes_the_cofactor(self):
        # [(|x| + 1) / 3] of the image is the full cofactor's multiple,
        # through the element hash_to_g1 returns and its resolving ladder
        from pufzk.pairing.curve import COFACTOR_G1
        from pufzk.pairing.group import _COFACTOR_FOLD, _HashedG1
        assert COFACTOR_G1 == (X_ABS + 1) * _COFACTOR_FOLD == (X_ABS + 1) ** 2 // 3
        rng = random.Random(2304)
        points = [_random_e1_point(rng) for _ in range(20)]
        torsion = [g1_mul_unchecked(pt, R) for pt in points[:3]]
        for pt in points + torsion + [None]:
            expected = g1_mul_unchecked(pt, COFACTOR_G1)
            image = g1_mul_unchecked(pt, X_ABS + 1)
            assert g1_mul_unchecked(image, _COFACTOR_FOLD) == expected
            assert _HashedG1(image)._pt == expected
        assert torsion[0] is not None and g1_mul_unchecked(torsion[0], COFACTOR_G1) is None

    @given(st.integers(min_value=-2 * ORDER, max_value=2 * ORDER))
    @settings(max_examples=25, deadline=None)
    def test_unresolved_power_matches_resolved(self, k):
        # ** on a fresh hash folds the cofactor's last factor into k
        # without resolving the point
        from pufzk.pairing.group import _Element
        for exponent in (0, 1, ORDER - 1, Scalar(k), k):
            h = hash_to_g1(b"fold", DomainTag.SIGNATURE_MESSAGE)
            resolved = G1Element(hash_to_g1(b"fold", DomainTag.SIGNATURE_MESSAGE)._pt)
            assert h ** exponent == resolved ** exponent
            with pytest.raises(AttributeError):
                _Element._pt.__get__(h)

    def test_unresolved_hash_behaves_as_resolved(self):
        def fresh():
            return hash_to_g1(b"unresolved", DomainTag.SIGNATURE_MESSAGE)

        resolved = G1Element(fresh()._pt)
        assert type(fresh()) is not G1Element and type(resolved) is G1Element
        assert fresh().to_bytes() == resolved.to_bytes()
        assert fresh() == resolved and resolved == fresh()
        assert hash(fresh()) == hash(resolved)
        assert fresh() * G1 == resolved * G1 and G1 * fresh() == G1 * resolved
        assert fresh().inverse() == resolved.inverse() and not fresh().is_identity()

    def test_signature_takes_one_ladder(self, monkeypatch):
        # [|x| + 1] takes 63 doublings and the folded ladder at most 127;
        # clearing the whole cofactor before a separate ** sk took 252
        from pufzk import zkp
        from pufzk.pairing import group
        rng = random.Random(2305)
        keys = [Scalar(rng.randrange(1, ORDER)) for _ in range(4)]
        point = G1Element(hash_to_g1(b"reading", DomainTag.SIGNATURE_MESSAGE)._pt)
        expected = [zkp.Signature(point ** sk) for sk in keys]
        counts = {"_g1_dbl": 0, "g1_mul": 0}
        for module, name in ((curve, "_g1_dbl"), (group, "g1_mul")):
            def counted(*args, _name=name, _fn=getattr(module, name)):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        for sk, sig in zip(keys, expected):
            counts.update(dict.fromkeys(counts, 0))
            assert zkp.sign(sk, b"reading") == sig
            assert counts["_g1_dbl"] <= 190 and counts["g1_mul"] == 1
        assert zkp.verify_sig(G2 ** keys[0], b"reading", expected[0])

    def test_signature_check_runs_no_g1_ladder(self, monkeypatch):
        # the check pairs the hash's Q = [|x| + 1]P as it is, so its only
        # G1 ladder is the hash's own; the fold rides on G2_FOLD_INV,
        # whose line table, like the key's, is built once
        from pufzk import zkp
        from pufzk.pairing import group
        rng = random.Random(2306)
        sk = Scalar(rng.randrange(1, ORDER))
        pk = G2 ** sk
        signed = [(m, zkp.sign(sk, m)) for m in (b"first reading", b"second reading")]
        names = ("_miller_loop", "_final_exp", "g1_mul", "g1_mul_unchecked", "_precompute_g2_lines")
        counts = dict.fromkeys(names + ("pairs",), 0)
        for name in names:
            def counted(*args, _name=name, _fn=getattr(group, name)):
                counts[_name] += 1
                if _name == "_miller_loop":
                    counts["pairs"] += len(args[0])
                return _fn(*args)
            monkeypatch.setattr(group, name, counted)
        for i, (message, sig) in enumerate(signed):
            counts.update(dict.fromkeys(counts, 0))
            assert zkp.verify_sig(pk, message, sig)
            built = counts.pop("_precompute_g2_lines")
            assert counts == {"_miller_loop": 1, "pairs": 2, "_final_exp": 1,
                              "g1_mul": 0, "g1_mul_unchecked": 1}
            assert built <= 2 if i == 0 else built == 0
            counts["_precompute_g2_lines"] = 0

    def test_fold_inverse_point_is_recomputed(self):
        from pufzk.pairing import G2_FOLD_INV
        from pufzk.pairing.group import _COFACTOR_FOLD
        assert G2_FOLD_INV == G2 ** pow(_COFACTOR_FOLD, -1, ORDER)
        assert G2_FOLD_INV ** _COFACTOR_FOLD == G2

    def test_scalar_hash_deterministic_and_pinned_empty_vector(self):
        s = hash_to_scalar(b"", DomainTag.GENERIC_SCALAR)
        assert s == hash_to_scalar(b"", DomainTag.GENERIC_SCALAR)
        assert s.value == 0x70D8E5F680AB00EB2366391B3122BDD8ED329E519C90EEC68BA87CBA6F295284

    def test_scalar_hash_collision_sanity(self):
        rng = random.Random(55)
        seen = set()
        for _ in range(10_000):
            msg = rng.getrandbits(256).to_bytes(32, "big")
            seen.add(hash_to_scalar(msg, DomainTag.GENERIC_SCALAR).value)
        assert len(seen) == 10_000

    def test_scalar_hash_tag_separation(self):
        assert hash_to_scalar(b"x", b"a") != hash_to_scalar(b"x", b"b")

    @given(st.binary(max_size=80), st.binary(max_size=40))
    @settings(max_examples=200)
    def test_challenge_halves_are_the_digest_words(self, data, tag):
        # the framing written out: tag length, tag, data
        digest = hashlib.shake_256(bytes([len(tag)]) + tag + data).digest(16)
        c1, c0 = divmod(challenge_scalar(data, tag).value, X_ABS * X_ABS)
        assert c0 < 1 << 64 and c1 < 1 << 64
        assert (c0, c1) == (int.from_bytes(digest[:8], "big"), int.from_bytes(digest[8:], "big"))


class TestScalar:
    def test_arithmetic_matches_integers_mod_order(self):
        rng = random.Random(66)
        for _ in range(1000):
            a, b, c = (rng.randrange(ORDER) for _ in range(3))
            sa, sb, sc = Scalar(a), Scalar(b), Scalar(c)
            assert ((sa + sb) + sc).value == (a + b + c) % ORDER
            assert (sa * (sb + sc)).value == (a * (b + c)) % ORDER
            assert (sa * sb * sc).value == (a * b * c) % ORDER
            assert (sa - sb).value == (a - b) % ORDER

    def test_inverse(self):
        s = Scalar(1234567)
        assert (s * s.inverse()).value == 1
        with pytest.raises(ZeroDivisionError):
            Scalar(0).inverse()

    def test_round_trip(self):
        s = Scalar(ORDER - 2)
        assert Scalar.from_bytes(s.to_bytes()) == s

    def test_out_of_range_rejected(self):
        with pytest.raises(DecodeError):
            Scalar.from_bytes(ORDER.to_bytes(32, "big"))

    @given(st.integers(min_value=0, max_value=ORDER - 1))
    @settings(max_examples=50)
    def test_round_trip_property(self, v):
        assert Scalar.from_bytes(Scalar(v).to_bytes()).value == v


class TestSerialization:
    def test_round_trips(self):
        rng = random.Random(8)
        for _ in range(5):
            k = rng.randrange(1, ORDER)
            p1 = G1 ** k
            assert G1Element.from_bytes(p1.to_bytes()) == p1
            p2 = G2 ** k
            assert G2Element.from_bytes(p2.to_bytes()) == p2
        e = pair(G1 ** 3, G2 ** 5)
        assert GtElement.from_bytes(e.to_bytes()) == e

    def test_identity_round_trips(self):
        assert G1Element.from_bytes(G1Element.identity().to_bytes()).is_identity()
        assert G2Element.from_bytes(G2Element.identity().to_bytes()).is_identity()

    def test_canonical_fixed_lengths(self):
        assert len(G1.to_bytes()) == 48
        assert len(G2.to_bytes()) == 96
        assert len(pair(G1, G2).to_bytes()) == 576
        assert len(Scalar(7).to_bytes()) == 32

    def test_serialization_is_canonical(self):
        a = (G1 ** 41) * (G1 ** 1)
        b = G1 ** 42
        assert a == b and a.to_bytes() == b.to_bytes()

    @pytest.mark.parametrize("element", [G1Element, G2Element], ids=["g1", "g2"])
    def test_deferred_decodes_on_first_use(self, element):
        point = element.generator() ** 42
        deferred = element.deferred(point.to_bytes())
        assert deferred.to_bytes() == point.to_bytes()
        assert deferred == point and deferred * point == point ** 2
        bad = bytearray(element.identity().to_bytes())
        bad[-1] = 1
        deferred = element.deferred(bytes(bad))
        assert deferred.to_bytes() == bytes(bad)
        with pytest.raises(DecodeError):
            deferred * point
        with pytest.raises(DecodeError):
            element.from_bytes(bytes(bad))

    def test_truncated_buffers_rejected(self):
        with pytest.raises(DecodeError):
            G1Element.from_bytes(G1.to_bytes()[:-1])
        with pytest.raises(DecodeError):
            G2Element.from_bytes(G2.to_bytes()[:-1])
        with pytest.raises(DecodeError):
            GtElement.from_bytes(b"\x00" * 100)

    def test_uncompressed_flag_rejected(self):
        raw = bytearray(G1.to_bytes())
        raw[0] &= 0x7F
        with pytest.raises(DecodeError):
            G1Element.from_bytes(bytes(raw))

    def test_non_canonical_infinity_rejected(self):
        raw = bytearray(G1Element.identity().to_bytes())
        raw[-1] = 1
        with pytest.raises(DecodeError):
            G1Element.from_bytes(bytes(raw))

    def test_mutation_fuzz_never_accepts_bad_points(self):
        """A mutated byte either fails to decode or yields a different,
        still-canonical subgroup element; off-subgroup points never
        slip through silently."""
        rng = random.Random(9)
        base = (G1 ** 12345).to_bytes()
        accepted_different = 0
        for _ in range(1000):
            raw = bytearray(base)
            pos = rng.randrange(len(raw))
            raw[pos] ^= rng.randrange(1, 256)
            raw = bytes(raw)
            if raw == base:
                continue
            try:
                elem = G1Element.from_bytes(raw)
            except DecodeError:
                continue
            # decoded: must be canonical and in the subgroup
            assert elem.to_bytes() == raw
            assert g1_mul_unchecked(elem._pt, R) is None
            accepted_different += 1
        # sanity: some mutations do produce other valid points
        assert accepted_different >= 0

    def test_gt_subgroup_check_on_decode(self):
        raw = bytearray(pair(G1, G2).to_bytes())
        raw[-1] ^= 1
        with pytest.raises(DecodeError):
            GtElement.from_bytes(bytes(raw))


_FQ = st.integers(0, P - 1)


class TestFq2Sqrt:
    """Roots square back; non-residues have none.  Norms decide: a is a
    square in Fq2 iff a0^2 + a1^2 is one in Fq, and xi = 1 + u has norm
    2, a non-residue for p = 3 mod 8."""

    @given(_FQ, _FQ)
    @settings(max_examples=60, deadline=None)
    def test_roots_of_squares_square_back(self, x0, x1):
        a = fq2_sqr((x0, x1))
        root = fq2_sqrt(a)
        assert root is not None and fq2_sqr(root) == a

    @given(st.integers(1, P - 1), _FQ)
    @settings(max_examples=40, deadline=None)
    def test_non_residues_have_no_root(self, x0, x1):
        assert P % 8 == 3
        assert fq2_sqrt(fq2_mul(fq2_sqr((x0, x1)), XI)) is None

    @given(_FQ, _FQ)
    @settings(max_examples=60, deadline=None)
    def test_root_exists_exactly_for_squares(self, a0, a1):
        root = fq2_sqrt((a0, a1))
        if fq_sqrt((a0 * a0 + a1 * a1) % P) is None:
            assert root is None
        else:
            assert fq2_sqr(root) == (a0, a1)

    @given(_FQ)
    @settings(max_examples=40, deadline=None)
    def test_base_field_elements_all_have_roots(self, a0):
        root = fq2_sqrt((a0, 0))
        assert root is not None and fq2_sqr(root) == (a0, 0)


def _random_e1_point(rng):
    """Uniform-ish point of E(Fq); outside G1 except with odds 1/h."""
    while True:
        x = rng.randrange(P)
        y = fq_sqrt((x * x * x + curve.B_G1) % P)
        if y is not None:
            return (x, y if rng.getrandbits(1) else -y % P)


def _random_e2_point(rng):
    """Uniform-ish point of the twist E'(Fq2)."""
    while True:
        x = (rng.randrange(P), rng.randrange(P))
        y = fq2_sqrt(fq2_add(fq2_mul(fq2_sqr(x), x), curve.B_G2))
        if y is not None:
            return (x, y)


class TestSubgroupChecks:
    """The endomorphism checks against the plain [R]P = O oracle."""

    @staticmethod
    def _g1_oracle(pt):
        return curve.g1_is_on_curve(pt) and g1_mul_unchecked(pt, R) is None

    @staticmethod
    def _g2_oracle(pt):
        return curve.g2_is_on_curve(pt) and g2_mul_unchecked(pt, R) is None

    def test_constants_recomputed(self):
        assert curve.BETA != 1 and pow(curve.BETA, 3, P) == 1
        # the other cube root of unity acts on G1 as x^2 - 1, not -x^2
        expected = curve.g1_neg(g1_mul_unchecked(G1_GEN, X_ABS * X_ABS))
        assert (curve.BETA * G1_GEN[0] % P, G1_GEN[1]) == expected
        assert (curve.BETA ** 2 * G1_GEN[0] % P, G1_GEN[1]) != expected
        assert curve.PSI_CX == fq2_inv(fq2_pow(XI, (P - 1) // 3))
        assert curve.PSI_CY == fq2_inv(fq2_pow(XI, (P - 1) // 2))
        assert curve._g2_neg_psi(curve.G2_GEN) == g2_mul_unchecked(curve.G2_GEN, X_ABS)

    def test_psi_squared_is_x_squared_on_g2(self):
        beta_sqr = curve.PSI_CX[1] ** 2 % P
        assert beta_sqr != 1 and pow(beta_sqr, 3, P) == 1 and beta_sqr == curve.BETA ** 2 % P
        rng = random.Random(2009)
        points = [curve.G2_GEN] + [g2_mul_unchecked(curve.G2_GEN, rng.randrange(1, R)) for _ in range(3)]
        for pt in points:
            (x0, x1), y = pt
            mapped = ((beta_sqr * x0 % P, beta_sqr * x1 % P), fq2_neg(y))
            assert curve._g2_neg_psi(curve._g2_neg_psi(pt)) == mapped == g2_mul_unchecked(pt, X_ABS * X_ABS)

    def test_g1_random_curve_points_agree_with_oracle(self):
        rng = random.Random(1130)
        points = [_random_e1_point(rng) for _ in range(200)]
        # the two points of order 3, (0, +-2)
        points += [(0, 2), (0, P - 2)]
        for pt in points:
            assert curve.g1_in_subgroup(pt) == self._g1_oracle(pt)

    def test_g2_random_curve_points_agree_with_oracle(self):
        rng = random.Random(814)
        for _ in range(30):
            pt = _random_e2_point(rng)
            assert curve.g2_in_subgroup(pt) == self._g2_oracle(pt)

    def test_subgroup_points_accepted(self):
        rng = random.Random(2019)
        for _ in range(20):
            p1 = curve.g1_mul_gen(rng.randrange(1, R))
            assert curve.g1_in_subgroup(p1) and self._g1_oracle(p1)
            p2 = curve.g2_mul_gen(rng.randrange(1, R))
            assert curve.g2_in_subgroup(p2) and self._g2_oracle(p2)

    def test_subgroup_plus_torsion_rejected(self):
        rng = random.Random(2021)
        for _ in range(5):
            torsion = g1_mul_unchecked(_random_e1_point(rng), R)
            pt = curve.g1_add(curve.g1_mul_gen(rng.randrange(1, R)), torsion)
            assert curve.g1_in_subgroup(pt) == self._g1_oracle(pt) == (torsion is None)
            torsion = g2_mul_unchecked(_random_e2_point(rng), R)
            pt = curve.g2_add(curve.g2_mul_gen(rng.randrange(1, R)), torsion)
            assert curve.g2_in_subgroup(pt) == self._g2_oracle(pt) == (torsion is None)

    def test_decoders_reject_off_subgroup_points(self):
        rng = random.Random(7)
        p1 = _random_e1_point(rng)
        assert not self._g1_oracle(p1)
        with pytest.raises(DecodeError, match="point not in the prime-order subgroup"):
            G1Element.from_bytes(curve.g1_to_bytes(p1))
        p2 = _random_e2_point(rng)
        assert not self._g2_oracle(p2)
        with pytest.raises(DecodeError, match="point not in the prime-order subgroup"):
            G2Element.from_bytes(curve.g2_to_bytes(p2))


_X_SQR = X_ABS * X_ABS
_HALF_MAX = (1 << 64) - 1
# halves whose width-4 NAF has one digit more than they have bits: two
# challenge halves below |x|, and a full-width G1 half below x^2
_FOLD_HALVES = [0x8FFF_FFFF_FFFF_FFFF, 0xCFFF_FFFF_FFFF_FFFF, int("8" + "F" * 31, 16)]
# scalars at the edges of the GLV (k = a + b*x^2) and GLS (base |x|)
# splits.  No k < R has all four GLS digits at |x| - 1: R - 2 has three of
# them there and the fourth at |x| - 2, and its GLV halves are x^2 - 1 and
# x^2 - 2; |x|^3 - 1 has three GLS digits at |x| - 1 and a zero.  Then
# challenges c0 + c1*x^2 at the edges of their halves: c0 = |x| - 1 and
# c1 = |x| - 1 leave d1 and d3 zero, and c0 = |x| or 2^64 - 1 and
# c1 = |x| or 2^64 - 1 carry into them.  Last, scalars whose halves'
# width-4 NAFs carry one place past their top bit, so that the ladder
# folds the carry into 2P (see _FOLD_HALVES), and challenges with one
# such half and the other zero.
_EDGE_SCALARS = [
    0, 1, 2, R - 2, R - 1, R, R + 1, X_ABS - 1, X_ABS, X_ABS + 1, _X_SQR - 1, _X_SQR,
    X_ABS ** 3 - 1, X_ABS ** 3, _X_SQR * _X_SQR - 1, _HALF_MAX, (1 << 128) - 1, (1 << 256) - 1,
    (X_ABS - 1) * (1 + _X_SQR), X_ABS * (1 + _X_SQR), _HALF_MAX * _X_SQR, _HALF_MAX * (1 + _X_SQR),
    X_ABS + _HALF_MAX * _X_SQR, _HALF_MAX + X_ABS * _X_SQR,
    *(h * (1 + _X_SQR) for h in _FOLD_HALVES), _FOLD_HALVES[0], _FOLD_HALVES[0] * _X_SQR,
]


def _check_decompositions(k):
    digits = curve._base_x_digits(k)
    assert sum(d * X_ABS ** i for i, d in enumerate(digits)) == k
    assert all(0 <= d < 1 << 64 for d in digits)
    b, a = divmod(k, _X_SQR)
    assert 0 <= a < 1 << 128 and 0 <= b < 1 << 128


def _after_uses(group):
    """The key-table threshold of "g1" or "g2"."""
    return getattr(curve, f"{group.upper()}_TABLE_AFTER_USES")


@pytest.fixture()
def key_tables(monkeypatch):
    """Fresh, empty per-key tables in both groups, as {group: tables}."""
    out = {}
    for group in ("g1", "g2"):
        out[group] = curve._KeyTables(getattr(curve, f"_{group}_rows"), _after_uses(group))
        monkeypatch.setattr(curve, f"_{group.upper()}_KEYS", out[group])
    return out


@pytest.mark.usefixtures("key_tables")
class TestEndomorphismMultiplication:
    """g1_mul (GLV) and g2_mul (GLS) against the unreduced double-and-add
    ladders, which use no endomorphism.  Each test starts with empty
    per-key tables, so a base multiplied many times still runs the
    ladders."""

    @given(st.integers(min_value=1, max_value=R - 1), st.integers(min_value=0, max_value=1 << 256))
    @settings(max_examples=25, deadline=None)
    def test_g1_matches_unchecked_ladder(self, s, k):
        pt = curve.g1_mul_gen(s)
        assert curve.g1_mul(pt, k) == g1_mul_unchecked(pt, k % R)

    @given(st.integers(min_value=1, max_value=R - 1), st.integers(min_value=0, max_value=1 << 256))
    @settings(max_examples=15, deadline=None)
    def test_g2_matches_unchecked_ladder(self, s, k):
        pt = curve.g2_mul_gen(s)
        assert curve.g2_mul(pt, k) == g2_mul_unchecked(pt, k % R)

    @pytest.mark.parametrize("k", _EDGE_SCALARS)
    def test_edge_scalars(self, k):
        p1 = hash_to_g1(b"edge", DomainTag.GENERIC_SCALAR)._pt
        assert curve.g1_mul(p1, k) == g1_mul_unchecked(p1, k % R)
        p2 = curve.g2_mul_gen(0x1234567)
        assert curve.g2_mul(p2, k) == g2_mul_unchecked(p2, k % R)
        _check_decompositions(k % R)

    @given(st.integers(min_value=0, max_value=R - 1))
    @settings(max_examples=200)
    def test_decompositions_recombine_within_bounds(self, k):
        _check_decompositions(k)

    def test_doubling_counts(self, monkeypatch):
        # exact operation counts, independent of host speed; the 4-bit
        # window these ladders replaced ran 255 doublings in either group
        rng = random.Random(31)
        pk, commitment = G2 ** rng.randrange(1, ORDER), G1 ** rng.randrange(1, ORDER)
        c = Scalar.random(rng)
        expected = (pk ** c, commitment ** c)
        counts = {"_g1_dbl": 0, "_g2_dbl": 0}
        for name in counts:
            def counted(p, _name=name, _fn=getattr(curve, name)):
                counts[_name] += 1
                return _fn(p)
            monkeypatch.setattr(curve, name, counted)
        assert pk ** c == expected[0]
        assert 0 < counts["_g2_dbl"] <= 63 and counts["_g1_dbl"] == 0
        counts["_g2_dbl"] = 0
        assert commitment ** c == expected[1]
        assert 0 < counts["_g1_dbl"] <= 127 and counts["_g2_dbl"] == 0

    def test_challenge_counts(self, monkeypatch):
        # exact bounds for a challenge c0 + c1*x^2: its GLV halves are
        # c0 and c1, below 2^64; of its GLS digits, d0 and d2 are below
        # |x| < 2^64 and d1 and d3 are 0 or 1.  The odd-multiple table
        # takes no doubling or mixed addition (see test_odd_table_counts).
        # A 64-bit part's width-4 NAF has at most 65 places, and then its
        # top digit is 1 and folds into 2P one place down, so the ladder
        # doubles at most 63 times.  Each nonzero digit has three zeros
        # above it, so at most ceil(65 / 4) = 17 digits of a part are
        # nonzero, the folded one counting as one addition: at most
        # 2*17 = 34 additions in G1, and 2*17 + 2 = 36 in G2, where the
        # -psi columns read d1 and d3
        rng = random.Random(32)
        names = ("_g1_dbl", "_g2_dbl", "_g1_add_mixed", "_g2_add_mixed")
        counts = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _name=name, _fn=getattr(curve, name)):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(curve, name, counted)
        odd_digits = []
        for i in range(12):
            c = challenge_scalar(i.to_bytes(4, "big"), DomainTag.CORRECTED_CHALLENGE)
            d0, d1, d2, d3 = curve._base_x_digits(c.value)
            odd_digits.append(d1 | d3)
            pk, commitment = G2 ** rng.randrange(1, ORDER), G1 ** rng.randrange(1, ORDER)
            expected = (g2_mul_unchecked(pk._pt, c.value), g1_mul_unchecked(commitment._pt, c.value))
            counts.update(dict.fromkeys(names, 0))
            assert (pk ** c)._pt == expected[0]
            assert counts["_g2_dbl"] <= 63 and counts["_g2_add_mixed"] <= 2 * 17 + 2
            assert counts["_g1_dbl"] == counts["_g1_add_mixed"] == 0
            counts.update(dict.fromkeys(names, 0))
            assert (commitment ** c)._pt == expected[1]
            assert counts["_g1_dbl"] <= 63 and counts["_g1_add_mixed"] <= 2 * 17
            assert counts["_g2_dbl"] == counts["_g2_add_mixed"] == 0
        # the -psi column was read, and was not
        assert set(odd_digits) == {0, 1}

    @pytest.mark.parametrize("group", ["g1", "g2"])
    def test_odd_table_counts(self, group, monkeypatch):
        # three levels of affine sums, one inversion each: 2P; 3P and 4P;
        # 5P and 7P
        pt = getattr(curve, f"{group}_mul_gen")(0xABCDEF)
        ladder = g1_mul_unchecked if group == "g1" else g2_mul_unchecked
        expected = [None if d in (0, 4, 6) else ladder(pt, d) for d in range(8)]
        names = ("fq_inv", f"_{group}_dbl", f"_{group}_add_mixed")
        counts = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _name=name, _fn=getattr(curve, name)):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(curve, name, counted)
        table = curve._odd_table(pt, getattr(curve, f"_{group}_affine_sums"))
        assert counts == {"fq_inv": 3, f"_{group}_dbl": 0, f"_{group}_add_mixed": 0}
        assert table == expected

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1))
    @settings(max_examples=300)
    def test_wnaf_recoding(self, k):
        digits = curve._wnaf(k)
        assert sum(d << i for i, d in enumerate(digits)) == k
        places = [i for i, d in enumerate(digits) if d]
        assert all(digits[i] % 2 == 1 and abs(digits[i]) <= 7 for i in places)
        # at least three zeros above each nonzero digit, and none on top
        assert all(j - i >= 4 for i, j in zip(places, places[1:]))
        assert not digits or digits[-1]
        # an overflow digit is a 1 above a zero, which the ladder folds
        assert len(digits) <= k.bit_length() + 1
        if k and len(digits) > k.bit_length():
            assert digits[-2:] == [0, 1]

    def test_fold_halves_carry(self):
        for h in _FOLD_HALVES:
            assert len(curve._wnaf(h)) == h.bit_length() + 1
        for h in _FOLD_HALVES[:2]:
            # both GLV halves and both even GLS digits of the challenge
            k = h * (1 + _X_SQR)
            assert h < X_ABS and curve._base_x_digits(k) == [h, 0, h, 0]
        k = _FOLD_HALVES[2] * (1 + _X_SQR)
        assert k < R and divmod(k, _X_SQR) == (_FOLD_HALVES[2], _FOLD_HALVES[2])

# halves below x^2 (top byte 0xAC) whose signed digits carry into the
# 17th window, through every window below it
_CARRY_HALVES = [int("80" + "FF" * 15, 16), int("81" * 16, 16), int("AB" + "FF" * 15, 16)]
# scalars at the edges of the signed base-256 recoding: digits at and
# around the sign boundary 128, r and its neighbours, and bytes of 0x80, 0x81
# and 0xFF below the top byte, which carry through every window; then the
# edges of the split k = a + b*x^2, with carrying halves as a, as b and as
# both
_SIGNED_EDGE_SCALARS = [
    0, 1, 127, 128, 129, 255, 256, 383, R - 2, R - 1, R, R + 1, (1 << 255) - 1, (1 << 256) - 1,
    0x70 << 248 | int("80" * 31, 16), 0x70 << 248 | int("81" * 31, 16),
    0x70 << 248 | int("FF" * 31, 16),
    _X_SQR - 1, _X_SQR, _X_SQR + 1, (R - 1) // _X_SQR * _X_SQR + (_X_SQR - 1),
] + [k for h in _CARRY_HALVES for k in (h, h * _X_SQR, h * _X_SQR + h)]
_GENERATORS = [
    (curve.g1_mul_gen, g1_mul_unchecked, curve.G1_GEN),
    (curve.g2_mul_gen, g2_mul_unchecked, curve.G2_GEN),
]
# base-|x| digits whose signed recoding carries into the 9th row: their
# top byte, with the carry from the bytes below, exceeds 0x80.  |x| - 1
# (top byte 0xD2) is one
_CARRY_DIGITS = [X_ABS - 1, int("81" * 8, 16), int("80" + "FF" * 7, 16)]
_GLS_CARRY_SCALARS = [
    sum(d * X_ABS ** i for i, d in enumerate(digits)) for digits in (
        [X_ABS - 1] * 3 + [X_ABS - 2],  # R - 2
        [X_ABS - 1] * 3 + [0],
        [0, X_ABS - 1, 0, X_ABS - 1],
    ) + tuple([d] * 4 for d in _CARRY_DIGITS[1:])
]


def _fixed_base_rows(group, windows):
    """A fresh fixed-base table over the generator of "g1" or "g2"."""
    base = (*curve.G1_GEN, 1) if group == "g1" else (*curve.G2_GEN, curve.FQ2_ONE)
    return curve._fixed_base_rows(
        base, getattr(curve, f"_{group}_dbl"), getattr(curve, f"_batch_affine_{group}"),
        getattr(curve, f"_{group}_affine_sums"), windows=windows)


def _nonzero_digits(group, k):
    """The mixed additions of a fixed-base walk: one per nonzero signed
    digit of each half of k = a + b*x^2 in G1, or of each of the four
    base-|x| digits of k in G2."""
    k %= R
    parts = divmod(k, _X_SQR) if group == "g1" else curve._base_x_digits(k)
    return sum(d != 0 for part in parts for d in _signed_digits(part))


@pytest.fixture(scope="module")
def keyed_tables():
    """Per-key tables apart from the module's, each holding the rows of
    one base: {group: (tables, base)}."""
    out = {}
    for group, base in (("g1", curve.g1_mul_gen(0xC0FFEE)), ("g2", curve.g2_mul_gen(0x1234567))):
        tables = curve._KeyTables(getattr(curve, f"_{group}_rows"), _after_uses(group))
        tables.tables[base] = getattr(curve, f"_{group}_rows")(base)
        out[group] = (tables, base)
    return out


def _keyed_muls(keyed_tables, k):
    """[k]B by g1_mul and g2_mul for the bases of keyed_tables, on their
    rows, each with the unchecked ladder's answer."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        for group, (tables, base) in keyed_tables.items():
            mp.setattr(curve, f"_{group.upper()}_KEYS", tables)
            ladder = g1_mul_unchecked if group == "g1" else g2_mul_unchecked
            out.append((getattr(curve, f"{group}_mul")(base, k), ladder(base, k % R)))
    return out


def _signed_digits(k):
    """Signed base-256 digits in [-127, 128], least significant first,
    written out independently of curve._signed_digits."""
    digits = []
    while k:
        d = (k + 127) % 256 - 127
        digits.append(d)
        k = (k - d) >> 8
    return digits


class TestFixedBaseMultiplication:
    """The fixed-base walks, over the generators' rows and over a key's
    own, against the unreduced double-and-add ladders."""

    @pytest.mark.parametrize("k", _SIGNED_EDGE_SCALARS + _EDGE_SCALARS + _GLS_CARRY_SCALARS)
    def test_signed_edge_scalars(self, k, keyed_tables):
        for mul_gen, ladder, gen in _GENERATORS:
            assert mul_gen(k) == ladder(gen, k % R)
        for got, expected in _keyed_muls(keyed_tables, k):
            assert got == expected

    @given(st.integers(min_value=0, max_value=1 << 256))
    @settings(max_examples=15, deadline=None)
    def test_matches_unchecked_ladder(self, k):
        for mul_gen, ladder, gen in _GENERATORS:
            assert mul_gen(k) == ladder(gen, k % R)

    @given(st.integers(min_value=0, max_value=1 << 256))
    @settings(max_examples=15, deadline=None)
    def test_key_walks_match_unchecked_ladder(self, keyed_tables, k):
        for got, expected in _keyed_muls(keyed_tables, k):
            assert got == expected

    @pytest.mark.parametrize("group", ["g1", "g2"])
    def test_rows_hold_signed_window_multiples(self, group):
        rows = _fixed_base_rows(group, windows=3)
        gen = curve.G1_GEN if group == "g1" else curve.G2_GEN
        ladder = g1_mul_unchecked if group == "g1" else g2_mul_unchecked
        assert [len(row) for row in rows] == [129, 129, 2] and all(row[0] is None for row in rows)
        for i, row in enumerate(rows):
            for d in range(1, len(row)):
                assert row[d] == ladder(gen, d << 8 * i)

    def test_split_parts_carry_into_the_last_row(self):
        for h in _CARRY_HALVES:
            assert h < _X_SQR and len(_signed_digits(h)) == 17 and _signed_digits(h)[-1] == 1
        for d in _CARRY_DIGITS:
            assert d < X_ABS and len(_signed_digits(d)) == 9 and _signed_digits(d)[-1] == 1
        for k in _GLS_CARRY_SCALARS:
            assert k < R and any(len(_signed_digits(d)) == 9 for d in curve._base_x_digits(k))

    def test_module_tables_trim_the_carry_row_to_one_point(self):
        curve.g1_mul_gen(1)
        curve.g2_mul_gen(1)
        for rows, full in ((curve._G1_ROWS, 16), (curve._G2_ROWS, 8)):
            assert [len(row) for row in rows] == [129] * full + [2]
            assert all(row[0] is None for row in rows)
        assert sum(len(row) - 1 for row in curve._G1_ROWS) == 2049
        assert sum(len(row) - 1 for row in curve._G2_ROWS) == 1025

    def test_operation_counts(self, monkeypatch, key_tables):
        # exact counts, independent of host speed: a table's build runs a
        # fixed number of inversions whatever the row count, and a walk,
        # over a generator's rows or a key's, no doubling and one mixed
        # addition per nonzero signed digit (see _nonzero_digits)
        counts = {"fq_inv": 0, "_g1_dbl": 0, "_g2_dbl": 0, "_g1_add_mixed": 0, "_g2_add_mixed": 0}
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(curve, name)):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(curve, name, counted)
        for group, windows in (("g1", 17), ("g2", 9)):
            inversions = []
            for w in (2, windows):
                counts["fq_inv"] = 0
                rows = _fixed_base_rows(group, w)
                inversions.append(counts["fq_inv"])
            assert sum(len(row) - 1 for row in rows) == (windows - 1) * 128 + 1
            assert inversions[0] == inversions[1] <= 2 * 7 + 1
        rng = random.Random(12)
        keys = {"g1": curve.g1_mul_gen(rng.randrange(1, R)), "g2": curve.g2_mul_gen(rng.randrange(1, R))}
        for group in ("g1", "g2"):
            mul, key = getattr(curve, f"{group}_mul"), keys[group]
            # build the key's table outside the count
            for use in range(_after_uses(group)):
                mul(key, use + 1)
            assert key in key_tables[group].tables
            for mul_one in (getattr(curve, f"{group}_mul_gen"), lambda k: mul(key, k)):
                mul_one(1)  # build the generator's table outside the count
                for k in [R - 1, (1 << 256) - 1] + _GLS_CARRY_SCALARS + [rng.randrange(R) for _ in range(20)]:
                    for name in counts:
                        counts[name] = 0
                    mul_one(k)
                    assert counts["_g1_dbl"] == counts["_g2_dbl"] == 0
                    assert counts[f"_{group}_add_mixed"] == _nonzero_digits(group, k)


class TestKeyTables:
    """The fill-once policy of the per-key tables: a base gets rows of
    its own on the use that reaches its group's threshold, until
    TABLES_MAX bases have them."""

    @staticmethod
    def _count_builds(monkeypatch, key_tables):
        built = []
        for tables in key_tables.values():
            def build(pt, _build=tables._build):
                built.append(pt)
                return _build(pt)
            monkeypatch.setattr(tables, "_build", build)
        return built

    @pytest.mark.parametrize("group", ["g1", "g2"])
    def test_nth_use_builds_one_table(self, group, key_tables, monkeypatch):
        built = self._count_builds(monkeypatch, key_tables)
        mul, key = getattr(curve, f"{group}_mul"), getattr(curve, f"{group}_mul_gen")(0xBEEF)
        after = _after_uses(group)
        for use in range(1, after):
            mul(key, use)
        assert built == [] and key_tables[group].uses == {key: after - 1}
        mul(key, 7)
        assert built == [key] and list(key_tables[group].tables) == [key]
        assert key_tables[group].uses == {}
        mul(key, 8)
        assert built == [key]

    @pytest.mark.parametrize("group", ["g1", "g2"])
    def test_twice_the_cap_of_keys_leaves_the_cap_of_tables(self, group, key_tables, monkeypatch):
        built = self._count_builds(monkeypatch, key_tables)
        mul, mul_gen = getattr(curve, f"{group}_mul"), getattr(curve, f"{group}_mul_gen")
        scalars = range(2, 2 + 2 * curve.TABLES_MAX)
        keys = [mul_gen(s) for s in scalars]
        for s, key in zip(scalars, keys):
            for use in range(1, _after_uses(group) + 1):
                assert mul(key, use) == mul_gen(use * s)
        tables = key_tables[group]
        assert built == keys[:curve.TABLES_MAX] and list(tables.tables) == built
        # a base that came after the cap is not counted at all
        assert tables.uses == {}

    def test_use_counter_is_cleared_when_full(self, key_tables, monkeypatch):
        monkeypatch.setattr(curve, "_USES_MAX", 3)
        tables = key_tables["g1"]
        keys = [curve.g1_mul_gen(i) for i in range(2, 7)]
        sizes = []
        for key in keys:
            curve.g1_mul(key, 5)
            sizes.append(len(tables.uses))
        assert sizes == [1, 2, 3, 1, 2] and tables.tables == {}


class TestVectorFile:
    def test_committed_vectors_match_regeneration(self):
        text = (VECTORS / "pairing_vectors.txt").read_text()
        checked = 0
        pair_sizes = set()
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            kind, inp, enc = line.split()
            if kind == "g1exp":
                assert (G1 ** int(inp, 16)).to_bytes().hex() == enc
            elif kind == "g2exp":
                assert (G2 ** int(inp, 16)).to_bytes().hex() == enc
            elif kind == "h2g1":
                tag_hex, msg_hex = inp.split(":")
                point = hash_to_g1(bytes.fromhex(msg_hex), bytes.fromhex(tag_hex))
                assert point.to_bytes().hex() == enc
            elif kind == "h2s":
                tag_hex, msg_hex = inp.split(":")
                s = hash_to_scalar(bytes.fromhex(msg_hex), bytes.fromhex(tag_hex))
                assert s.to_bytes().hex() == enc
            elif kind == "pair":
                terms = [(G1 ** int(a, 16), G2 ** int(b, 16))
                         for a, b in (t.split(":") for t in inp.split(","))]
                gt = pair(*terms[0]) if len(terms) == 1 else multi_pair(terms)
                assert gt.to_bytes().hex() == enc
                pair_sizes.add(len(terms))
            else:
                raise AssertionError(f"unknown vector kind {kind}")
            checked += 1
        assert checked >= 24
        # single pairings and a two-pair product of verify_sig's shape
        assert pair_sizes == {1, 2}

    def test_generator_encodings_are_the_interoperable_ones(self):
        assert G1.to_bytes().hex().startswith("97f1d3a73197d794")
        assert G2.to_bytes().hex().startswith("93e02b6052719f60")


class TestGroupLaws:
    @given(st.integers(min_value=1, max_value=ORDER - 1),
           st.integers(min_value=1, max_value=ORDER - 1))
    @settings(max_examples=20, deadline=None)
    def test_exponent_addition_law(self, a, b):
        assert (G1 ** a) * (G1 ** b) == G1 ** ((a + b) % ORDER)

    def test_inverse_law(self):
        p = G1 ** 987
        assert (p * p.inverse()).is_identity()
        q = G2 ** 987
        assert (q * q.inverse()).is_identity()

    def test_associativity_sample(self):
        a, b, c = G1 ** 2, G1 ** 3, G1 ** 5
        assert (a * b) * c == a * (b * c)


_GROUPS = pytest.mark.parametrize("group", [G1Element, G2Element, GtElement], ids=["g1", "g2", "gt"])


def _element(group):
    """An element of ``group`` other than the identity."""
    return pair(G1 ** 3, G2 ** 5) if group is GtElement else group.generator() ** 987


class TestElementBody:
    """The operations every group's elements share, in each group."""

    @_GROUPS
    def test_inverse_and_identity(self, group):
        x = _element(group)
        assert not x.is_identity()
        assert (x * x.inverse()).is_identity() and x * x.inverse() == group.identity()
        identity = group.from_bytes(group.identity().to_bytes())
        assert type(identity) is group and identity.is_identity() and identity == group.identity()
        assert hash(identity) == hash(group.identity())

    @_GROUPS
    def test_repr_names_the_group(self, group):
        assert repr(_element(group)).startswith(f"{group.__name__}(")

    def test_identities_of_different_groups_are_not_equal(self):
        identities = [group.identity() for group in (G1Element, G2Element, GtElement)]
        for i, a in enumerate(identities):
            for j, b in enumerate(identities):
                assert (a == b) == (i == j)

    @pytest.mark.parametrize("group", [G1Element, G2Element], ids=["g1", "g2"])
    def test_deferred_element_acts_as_its_decoded_twin(self, group):
        x = _element(group)
        deferred = group.deferred(x.to_bytes())
        assert deferred == x and x == deferred and hash(deferred) == hash(x)
        assert repr(deferred) == repr(x)
        for result in (deferred * x, x * deferred, deferred.inverse(), deferred ** 2):
            assert type(result) is group
        assert deferred * x == x ** 2
