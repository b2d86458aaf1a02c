"""Arbiter simulation quality: reproducibility, uniqueness, reliability."""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pufzk.puf import (
    CHALLENGE_BITS,
    challenges_from_bytes,
    challenges_to_bytes,
    fractional_hamming,
    generate_challenges,
    generate_stable_challenges,
    puf_eval_raw,
    puf_new,
    puf_respond,
    responses_from_bytes,
    responses_to_bytes,
)

VECTORS = pathlib.Path(__file__).resolve().parent.parent / "vectors"


class TestDeviceCreation:
    def test_seeded_determinism(self):
        a = puf_new(42, 0.0)
        b = puf_new(42, 0.0)
        assert np.array_equal(a.stage_weights, b.stage_weights)

    def test_distinct_seeds_give_independent_weights(self):
        for k in range(100):
            a = puf_new(2 * k + 1, 0.05)
            b = puf_new(2 * k + 2, 0.05)
            assert np.all(a.stage_weights != b.stage_weights)

    def test_any_non_negative_integer_seeds_a_device(self):
        # seeds below 2**64 keep the weights they always had
        for seed in (0, 1, 2**63, 2**64 - 1):
            expected = np.random.default_rng(np.uint64(seed)).standard_normal(CHALLENGE_BITS + 1)
            assert np.array_equal(puf_new(seed, 0.0).stage_weights, expected)
        assert not np.array_equal(puf_new(2**64, 0.0).stage_weights,
                                  puf_new(2**64 + 1, 0.0).stage_weights)
        with pytest.raises(ValueError):
            puf_new(-1, 0.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            puf_new(1, -0.1)

    def test_weights_immutable(self):
        dev = puf_new(1, 0.0)
        with pytest.raises(ValueError):
            dev.stage_weights[0] = 99.0


class TestEvaluation:
    def test_noiseless_raw_eval_deterministic(self):
        dev = puf_new(7, 0.0)
        ch = generate_challenges(np.random.default_rng(1), 1)[0]
        assert puf_eval_raw(dev, ch) == puf_eval_raw(dev, ch)

    def test_wrong_challenge_length_rejected(self):
        dev = puf_new(7, 0.0)
        with pytest.raises(ValueError):
            puf_eval_raw(dev, np.zeros(32, dtype=np.uint8))

    def test_boundary_challenge_flip_rate_pinned(self):
        """A challenge near the arbiter decision boundary flips on a few
        percent of evaluations; pinned from the first measured run."""
        dev = puf_new(3, 0.05)
        ch = challenges_from_bytes(bytes.fromhex("56e1b8594439c457"))[0]
        raw = np.array([
            puf_eval_raw(dev, ch, np.random.default_rng(100_000 + i)) for i in range(1000)
        ])
        flip_rate = min(raw.mean(), 1 - raw.mean())
        assert flip_rate < 0.5
        assert 0.015 <= flip_rate <= 0.09  # measured 0.040 at pin time

    def test_avalanche_on_single_bit_complement(self):
        dev = puf_new(11, 0.0)
        ch = generate_challenges(np.random.default_rng(5), 1000)
        base = puf_respond(dev, ch, 1)
        flipped = ch.copy()
        flipped[:, 31] ^= 1
        rate = fractional_hamming(base, puf_respond(dev, flipped, 1))
        assert 0.35 <= rate <= 0.65


class TestMajorityVoting:
    def test_even_repetitions_rejected(self):
        dev = puf_new(1, 0.0)
        ch = generate_challenges(np.random.default_rng(0), 4)
        with pytest.raises(ValueError):
            puf_respond(dev, ch, 2)
        with pytest.raises(ValueError):
            puf_respond(dev, ch, 0)

    def test_single_repetition_noiseless_equals_raw(self):
        dev = puf_new(9, 0.0)
        ch = generate_challenges(np.random.default_rng(2), 64)
        resp = puf_respond(dev, ch, 1)
        raw = np.array([puf_eval_raw(dev, c) for c in ch])
        assert np.array_equal(resp, raw)

    def test_noiseless_respond_is_pure_function_of_seed_and_challenges(self):
        ch = generate_challenges(np.random.default_rng(3), 128)
        r1 = puf_respond(puf_new(5, 0.0), ch, 9, np.random.default_rng(1))
        r2 = puf_respond(puf_new(5, 0.0), ch, 9, np.random.default_rng(999))
        assert np.array_equal(r1, r2)

    def test_reliability_under_noise(self):
        """Post-majority intra-device error stays at or below 1% for
        noise 0.05 with 9 repetitions, over 200 regenerations."""
        dev = puf_new(7, 0.05)
        rng = np.random.default_rng(1)
        ch = generate_challenges(rng, 256)
        reference = puf_respond(dev, ch, 9, rng)
        distances = [
            fractional_hamming(reference, puf_respond(dev, ch, 9, np.random.default_rng(500 + k)))
            for k in range(200)
        ]
        assert max(distances) <= 0.01

    def test_uniqueness_across_devices(self):
        """Mean inter-device fractional Hamming distance sits in the
        ideal band around one half."""
        ch = generate_challenges(np.random.default_rng(99), 256)
        distances = []
        for k in range(50):
            a = puf_respond(puf_new(1000 + 2 * k, 0.0), ch, 1)
            b = puf_respond(puf_new(1001 + 2 * k, 0.0), ch, 1)
            distances.append(fractional_hamming(a, b))
        mean = float(np.mean(distances))
        assert 0.45 <= mean <= 0.55


class TestChallengeGeneration:
    def test_shape(self):
        ch = generate_challenges(np.random.default_rng(0), 256)
        assert ch.shape == (256, CHALLENGE_BITS)
        assert set(np.unique(ch)) <= {0, 1}

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            generate_challenges(np.random.default_rng(0), 0)

    def test_reproducible_under_fixed_seed(self):
        a = generate_challenges(np.random.default_rng(42), 16)
        b = generate_challenges(np.random.default_rng(42), 16)
        assert np.array_equal(a, b)

    def test_bit_balance(self):
        ch = generate_challenges(np.random.default_rng(77), 10_000)
        assert 0.48 <= ch.mean() <= 0.52

    def test_stable_screening_keeps_reproducible_challenges(self):
        dev = puf_new(7, 0.05)
        ch, bits = generate_stable_challenges(dev, np.random.default_rng(2), 256)
        assert ch.shape == (256, CHALLENGE_BITS)
        ref = puf_respond(dev, ch, 9, np.random.default_rng(3))
        assert np.array_equal(bits, ref)
        exact = sum(
            int(np.array_equal(ref, puf_respond(dev, ch, 9, np.random.default_rng(9000 + k))))
            for k in range(100)
        )
        assert exact >= 99

    def test_stable_screening_noiseless_passes_everything(self):
        dev = puf_new(12, 0.0)
        ch, bits = generate_stable_challenges(dev, np.random.default_rng(4), 64)
        assert ch.shape == (64, CHALLENGE_BITS)
        assert np.array_equal(bits, puf_respond(dev, ch, 1))


class TestPacking:
    def test_challenge_round_trip(self):
        ch = generate_challenges(np.random.default_rng(6), 100)
        assert np.array_equal(challenges_from_bytes(challenges_to_bytes(ch)), ch)

    def test_response_round_trip(self):
        dev = puf_new(2, 0.0)
        ch = generate_challenges(np.random.default_rng(6), 100)
        resp = puf_respond(dev, ch, 1)
        assert np.array_equal(responses_from_bytes(responses_to_bytes(resp), 100), resp)

    def test_bad_buffer_length_rejected(self):
        with pytest.raises(ValueError):
            challenges_from_bytes(b"\x00" * 7)

    @given(st.binary(min_size=8, max_size=80).filter(lambda b: len(b) % 8 == 0))
    @settings(max_examples=50)
    def test_bytes_round_trip_property(self, raw):
        ch = challenges_from_bytes(raw)
        assert challenges_to_bytes(ch) == raw


class TestCrpVectors:
    def test_committed_crps_match(self):
        dev = puf_new(42, 0.0)
        text = (VECTORS / "puf_crp_vectors.txt").read_text()
        rows = [ln.split() for ln in text.splitlines() if ln and not ln.startswith("#")]
        challenges = challenges_from_bytes(b"".join(bytes.fromhex(r[0]) for r in rows))
        expected = np.array([int(r[1]) for r in rows], dtype=np.uint8)
        assert np.array_equal(puf_respond(dev, challenges, 1), expected)
