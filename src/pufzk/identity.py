"""Device enrollment and a minimal certificate authority.

Enrollment follows the registration flow end to end: draw challenges,
collect stabilised responses, mint a key pair, derive the device
identifier from the public key and the responses, have the CA sign the
registration record, and commit it to the ledger in one atomic
registration transaction.  That ledger record is the registration's only
copy: the device keeps its PUF, its id and its key pair, and reads
everything else back from the ledger.

The CA stands in for a Fabric MSP, which issues ECDSA certificates.
Here the record is the certificate: the CA appends a serial and a
pairing-free Schnorr signature in G1 over the record's encoding up to
the signature (device id, key, commitment, fingerprint, challenge set
and serial), so the register chaincode checks it without a pairing.

The response commitment in the registration record is the G1 image
of the hashed response bits; authentication later proves knowledge of
its exponent without revealing the responses.  A device fingerprint
(responses to a fixed public probe set) lets the registration chaincode
reject a second enrollment of the same physical device even though each
enrollment mints fresh keys.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Set, Tuple

import numpy as np

from .ledger import Ledger
from .pairing import DecodeError, DomainTag, G1Element, G2Element, Scalar, hash_to_scalar
from .params import ParamSet, DEFAULT_PARAMS
from .puf import (
    PufDevice,
    generate_challenges,
    generate_stable_challenges,
    puf_respond,
    challenges_to_bytes,
    responses_to_bytes,
)
from .wire import DeviceRecord, TransactionRecord, WireError
from .zkp import schnorr_sign, schnorr_verify
from .zkp import sign, verify_sig  # noqa: F401  (bound here for the benchmark tracer's hooks)

# Public probe used for duplicate-enrollment detection: every device
# answers the same fixed challenges; the digest of those answers is a
# stable physical fingerprint (best effort under evaluation noise).
_FINGERPRINT_SEED = 0x50554646
_FINGERPRINT_COUNT = 64


class RegistrationError(Exception):
    """Enrollment was refused by the CA or the ledger."""


@dataclass(frozen=True)
class KeyPair:
    sk: Scalar
    pk: G2Element

    @classmethod
    def generate(cls, rng) -> "KeyPair":
        sk = Scalar.random(rng)
        return cls(sk=sk, pk=G2Element.generator() ** sk)


class CertificateAuthority:
    """Signs and revokes device registration records; stands in for an
    MSP.  Its key is a scalar with its G1 image published at bootstrap."""

    def __init__(self, rng):
        self.sk = Scalar.random(rng)
        self.pk = G1Element.generator() ** self.sk
        self._next_serial = 1
        self._revoked: Set[int] = set()

    def issue(self, device_id: bytes, pk: G2Element, commitment_bytes: bytes,
              fingerprint: bytes, challenge_bytes: bytes) -> DeviceRecord:
        """The registration record under the next serial, signed.  Raises
        ``ValueError`` for an identity key or commitment, which the
        register chaincode refuses."""
        if pk.is_identity() or commitment_bytes == G1Element.identity().to_bytes():
            raise ValueError("device key or response commitment is the identity")
        record = DeviceRecord(device_id, pk.to_bytes(), commitment_bytes, fingerprint,
                              challenge_bytes, self._next_serial, b"")
        self._next_serial += 1
        return replace(record, sig_bytes=schnorr_sign(self.sk, self.pk, record.signed_bytes()))

    def revoke(self, serial: int) -> None:
        self._revoked.add(serial)

    def verify(self, record: DeviceRecord) -> bool:
        """Signature check plus revocation-list lookup."""
        if record.serial in self._revoked:
            return False
        try:
            return schnorr_verify(self.pk, record.signed_bytes(), record.sig_bytes)
        except (DecodeError, WireError):
            return False


def compute_device_id(pk: G2Element, responses: np.ndarray) -> bytes:
    """32-byte identifier: digest of the canonical public key encoding
    concatenated with the packed response bits."""
    return hashlib.sha256(pk.to_bytes() + responses_to_bytes(responses)).digest()


def response_scalar(responses: np.ndarray) -> Scalar:
    """The witness scalar behind the on-ledger response commitment."""
    return hash_to_scalar(responses_to_bytes(responses), DomainTag.RESPONSE_SCALAR)


def device_fingerprint(puf: PufDevice) -> bytes:
    """Digest of the device's responses to the fixed public probe set."""
    probe = generate_challenges(np.random.default_rng(_FINGERPRINT_SEED), _FINGERPRINT_COUNT)
    responses = puf_respond(puf, probe, eval_rng=np.random.default_rng(_FINGERPRINT_SEED + 1))
    return hashlib.sha256(b"fingerprint" + responses_to_bytes(responses)).digest()


def register_device(puf: PufDevice, ca: CertificateAuthority, ledger: Ledger,
                    rng, np_rng=None, params: ParamSet = DEFAULT_PARAMS,
                    challenges=None) -> Tuple[bytes, KeyPair]:
    """Enroll a device: challenges, responses, keys, identifier, the
    CA-signed record, and one atomic ledger registration.

    The enrolled responses are the unanimous bits observed while
    screening the challenges, so every stored bit is the device's
    majority answer.  Returns the device id together with the device key
    pair (the secret key never appears on the ledger); the ledger record
    under that id is the only copy of the registration.
    ``challenges`` may be supplied pre-generated as the (challenges,
    responses) pair from ``generate_stable_challenges`` (the benchmark
    times that stage itself).
    """
    if np_rng is None:
        np_rng = np.random.default_rng(rng.getrandbits(64))
    if challenges is None:
        challenges = generate_stable_challenges(puf, np_rng, params.challenge_count)
    challenges, responses = challenges
    keypair = KeyPair.generate(rng)
    device_id = compute_device_id(keypair.pk, responses)
    commitment = G1Element.generator() ** response_scalar(responses)
    record = ca.issue(device_id, keypair.pk, commitment.to_bytes(), device_fingerprint(puf),
                      challenges_to_bytes(challenges))
    result = ledger.invoke("register",
                           TransactionRecord(record.to_bytes(), device_id, b"", b"", "register", b""))
    if not result:
        raise RegistrationError(result.reason)
    return device_id, keypair
