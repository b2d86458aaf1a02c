"""Bilinear group arithmetic over the BLS12-381 parameter set."""

from .curve import DecodeError
from .group import (
    ORDER,
    SCALAR_ENC_LEN,
    GT_ENC_LEN,
    DomainTag,
    G1Element,
    G2_FOLD_INV,
    G2Element,
    GtElement,
    Scalar,
    challenge_scalar,
    hash_to_g1,
    hash_to_scalar,
    multi_pair,
    pair,
    random_challenge,
)

__all__ = [
    "ORDER",
    "SCALAR_ENC_LEN",
    "GT_ENC_LEN",
    "DecodeError",
    "DomainTag",
    "G1Element",
    "G2_FOLD_INV",
    "G2Element",
    "GtElement",
    "Scalar",
    "challenge_scalar",
    "hash_to_g1",
    "hash_to_scalar",
    "multi_pair",
    "pair",
    "random_challenge",
]
