"""Simulated delay-based arbiter PUF.

The device is the standard linear additive delay model: 64 delay stages
plus an arbiter bias, drawn once per device from a seeded unit Gaussian.
A challenge is transformed into the usual parity feature vector (the
cumulative product of the +-1 encoded challenge bits, read from each
stage to the end) and the response bit is the sign of the weighted sum.
Per-evaluation Gaussian noise with standard deviation ``noise_ratio``
(relative to the unit weight deviation) models measurement instability.

Majority voting over an odd number of repeated evaluations stabilises
responses; enrollment-quality challenge sets can additionally be
screened so that only challenges with a comfortable noise margin are
kept (see ``generate_stable_challenges``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

CHALLENGE_BITS = 64
DEFAULT_REPETITIONS = 9
SCREEN_ROUNDS = 2

# A challenge set is a (count, CHALLENGE_BITS) uint8 array of 0/1 bits;
# a response set is a (count,) uint8 array of 0/1 bits.
ChallengeSet = np.ndarray
ResponseSet = np.ndarray


@dataclass(frozen=True)
class PufDevice:
    """One simulated device: fixed stage weights plus a noise level."""

    device_seed: int
    noise_ratio: float
    stage_weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.stage_weights.setflags(write=False)


def puf_new(device_seed: int, noise_ratio: float) -> PufDevice:
    """Create a device with seed-determined weights.

    Distinct seeds give independent weight vectors; the same seed always
    reproduces the same device.  Any non-negative integer is a seed; a
    negative one raises ``ValueError``.
    """
    if noise_ratio < 0:
        raise ValueError(f"noise_ratio must be >= 0, got {noise_ratio}")
    weights = np.random.default_rng(device_seed).standard_normal(CHALLENGE_BITS + 1)
    return PufDevice(device_seed=int(device_seed), noise_ratio=float(noise_ratio), stage_weights=weights)


def _features(challenges: np.ndarray) -> np.ndarray:
    """Parity feature vectors: phi_j = prod_{i >= j} (1 - 2 c_i), plus bias 1."""
    signs = 1.0 - 2.0 * challenges.astype(np.float64)
    phi = np.cumprod(signs[:, ::-1], axis=1)[:, ::-1]
    bias = np.ones((challenges.shape[0], 1))
    return np.hstack([phi, bias])


def _check_challenges(challenges: np.ndarray) -> np.ndarray:
    challenges = np.asarray(challenges, dtype=np.uint8)
    if challenges.ndim == 1:
        challenges = challenges[np.newaxis, :]
    if challenges.shape[1] != CHALLENGE_BITS:
        raise ValueError(f"challenges must have {CHALLENGE_BITS} bits, got {challenges.shape[1]}")
    return challenges


def _eval_many(device: PufDevice, challenges: np.ndarray, repetitions: int, eval_rng) -> np.ndarray:
    """Raw evaluations: (repetitions, count) array of response bits."""
    margins = _features(challenges) @ device.stage_weights
    if device.noise_ratio == 0.0:
        raw = np.broadcast_to(margins > 0, (repetitions, margins.shape[0]))
        return raw.astype(np.uint8)
    if eval_rng is None:
        eval_rng = np.random.default_rng()
    noise = eval_rng.normal(0.0, device.noise_ratio, size=(repetitions, margins.shape[0]))
    return (margins[np.newaxis, :] + noise > 0).astype(np.uint8)


def puf_eval_raw(device: PufDevice, challenge: np.ndarray, eval_rng=None) -> int:
    """A single noisy evaluation of one challenge."""
    challenge = _check_challenges(challenge)
    if challenge.shape[0] != 1:
        raise ValueError("puf_eval_raw evaluates one challenge")
    return int(_eval_many(device, challenge, 1, eval_rng)[0, 0])


def puf_respond(device: PufDevice, challenges: np.ndarray, repetitions: int = DEFAULT_REPETITIONS,
                eval_rng=None) -> ResponseSet:
    """Majority-stabilised responses to an ordered challenge set."""
    if repetitions < 1 or repetitions % 2 == 0:
        raise ValueError(f"repetitions must be odd and >= 1, got {repetitions}")
    challenges = _check_challenges(challenges)
    raw = _eval_many(device, challenges, repetitions, eval_rng)
    return (raw.sum(axis=0) * 2 > repetitions).astype(np.uint8)


def generate_challenges(rng, count: int) -> ChallengeSet:
    """Uniformly random challenge set from a numpy Generator."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return rng.integers(0, 2, size=(count, CHALLENGE_BITS), dtype=np.uint8)


def generate_stable_challenges(device: PufDevice, rng, count: int) -> Tuple[ChallengeSet, ResponseSet]:
    """Random challenges screened for reproducible responses.

    Candidates are evaluated ``SCREEN_ROUNDS * DEFAULT_REPETITIONS``
    times; only challenges whose raw evaluations are unanimous survive,
    and each is returned with that unanimous bit.  Exact response
    reproduction at authentication needs every enrolled bit to be
    stable, which plain majority voting cannot guarantee for challenges
    near the arbiter decision boundary.
    """
    kept, bits = [], []
    total = 0
    while total < count:
        batch = generate_challenges(rng, max(count - total + 8, 16))
        raw = _eval_many(device, batch, SCREEN_ROUNDS * DEFAULT_REPETITIONS, rng)
        unanimous = (raw.sum(axis=0) == 0) | (raw.sum(axis=0) == raw.shape[0])
        kept.append(batch[unanimous])
        bits.append(raw[0, unanimous])
        total += int(unanimous.sum())
    return np.vstack(kept)[:count], np.concatenate(bits)[:count]


def fractional_hamming(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of positions where two response sets disagree."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise ValueError("response sets must have equal length")
    return float(np.mean(a != b))


def challenges_to_bytes(challenges: ChallengeSet) -> bytes:
    """Pack a challenge set into bytes (8 bytes per 64-bit challenge)."""
    challenges = _check_challenges(challenges)
    return np.packbits(challenges, axis=1).tobytes()


def challenges_from_bytes(data: bytes) -> ChallengeSet:
    if len(data) % (CHALLENGE_BITS // 8) != 0:
        raise ValueError("challenge buffer length must be a multiple of 8")
    rows = len(data) // (CHALLENGE_BITS // 8)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(rows, CHALLENGE_BITS // 8)
    return np.unpackbits(packed, axis=1)


def responses_to_bytes(responses: ResponseSet) -> bytes:
    """Pack response bits; the canonical byte form hashed into digests."""
    responses = np.asarray(responses, dtype=np.uint8)
    return np.packbits(responses).tobytes()


def responses_from_bytes(data: bytes, count: int) -> ResponseSet:
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if bits.shape[0] < count:
        raise ValueError("response buffer too short")
    return bits[:count]
