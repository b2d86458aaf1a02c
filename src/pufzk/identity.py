"""Device enrollment and a minimal certificate authority.

Enrollment follows the registration flow end to end: draw challenges,
collect stabilised responses, mint a key pair, derive the device
identifier from the public key and the responses, obtain a CA
certificate, and commit the whole tuple to the ledger in one atomic
registration transaction.

The response commitment stored alongside the identity is the G1 image
of the hashed response bits; authentication later proves knowledge of
its exponent without revealing the responses.  A device fingerprint
(responses to a fixed public probe set) lets the registration chaincode
reject a second enrollment of the same physical device even though each
enrollment mints fresh keys.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Set, Tuple

import numpy as np

from .ledger import Ledger
from .pairing import DomainTag, G1Element, G2Element, Scalar, hash_to_scalar
from .params import ParamSet, DEFAULT_PARAMS
from .puf import (
    PufDevice,
    generate_challenges,
    generate_stable_challenges,
    puf_respond,
    challenges_to_bytes,
    responses_to_bytes,
)
from .wire import Certificate, DeviceRecord, TransactionRecord, WireError, _put_field
from .zkp import Signature, sign, verify_sig

DEVICE_ID_LEN = 32

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


@dataclass(frozen=True)
class DeviceIdentity:
    """A registered identity as stored on the ledger."""

    device_id: bytes
    pk: G2Element
    challenge_set: np.ndarray
    response_commitment: G1Element
    certificate: Certificate

    def export(self) -> bytes:
        """Self-describing versioned binary record."""
        record = DeviceRecord(
            device_id=self.device_id,
            pk_bytes=self.pk.to_bytes(),
            commitment_bytes=self.response_commitment.to_bytes(),
            fingerprint=b"",
            cert_bytes=self.certificate.to_bytes(),
            challenge_bytes=challenges_to_bytes(self.challenge_set),
        )
        buf = bytearray(b"PZID\x01")
        _put_field(buf, record.to_bytes(), width=4)
        return bytes(buf)

    @classmethod
    def load(cls, data: bytes) -> "DeviceIdentity":
        if data[:5] != b"PZID\x01":
            raise WireError("bad identity export header")
        from .wire import _get_field
        raw, off = _get_field(data, 5, width=4)
        if off != len(data):
            raise WireError("trailing bytes in identity export")
        record = DeviceRecord.from_bytes(raw)
        from .puf import challenges_from_bytes
        return cls(
            device_id=record.device_id,
            pk=G2Element.from_bytes(record.pk_bytes),
            challenge_set=challenges_from_bytes(record.challenge_bytes),
            response_commitment=G1Element.from_bytes(record.commitment_bytes),
            certificate=Certificate.from_bytes(record.cert_bytes),
        )


class CertificateAuthority:
    """Issues and revokes device certificates; stands in for an MSP."""

    def __init__(self, rng):
        self.keypair = KeyPair.generate(rng)
        self._next_serial = 1
        self._revoked: Set[int] = set()

    @property
    def pk(self) -> G2Element:
        return self.keypair.pk

    def issue(self, device_id: bytes, pk: G2Element, role: str = "device") -> Certificate:
        cert = Certificate(
            device_id=device_id,
            pk_bytes=pk.to_bytes(),
            role=role,
            serial=self._next_serial,
            sig_bytes=b"",
        )
        sig = sign(self.keypair.sk, cert.signing_payload())
        self._next_serial += 1
        return Certificate(
            device_id=cert.device_id, pk_bytes=cert.pk_bytes, role=cert.role,
            serial=cert.serial, sig_bytes=sig.to_bytes(),
        )

    def revoke(self, serial: int) -> None:
        self._revoked.add(serial)

    def verify(self, cert: Certificate) -> bool:
        """Signature check plus revocation-list lookup."""
        if cert.serial in self._revoked:
            return False
        try:
            sig = Signature.from_bytes(cert.sig_bytes)
        except Exception:
            return False
        return verify_sig(self.pk, cert.signing_payload(), sig)


def compute_device_id(pk: G2Element, responses: np.ndarray) -> bytes:
    """32-byte identifier: digest of the canonical public key encoding
    concatenated with the packed response bits."""
    return hashlib.sha256(pk.to_bytes() + responses_to_bytes(responses)).digest()


def response_scalar(responses: np.ndarray) -> Scalar:
    """The witness scalar behind the on-ledger response commitment."""
    return hash_to_scalar(responses_to_bytes(responses), DomainTag.RESPONSE_SCALAR)


def device_fingerprint(puf: PufDevice, repetitions: int) -> bytes:
    """Digest of the device's responses to the fixed public probe set."""
    probe = generate_challenges(np.random.default_rng(_FINGERPRINT_SEED), _FINGERPRINT_COUNT)
    responses = puf_respond(puf, probe, repetitions, np.random.default_rng(_FINGERPRINT_SEED + 1))
    return hashlib.sha256(b"fingerprint" + responses_to_bytes(responses)).digest()


def register_device(puf: PufDevice, ca: CertificateAuthority, ledger: Ledger,
                    rng, np_rng=None, params: ParamSet = DEFAULT_PARAMS,
                    challenges=None) -> Tuple[DeviceIdentity, KeyPair]:
    """Enroll a device: challenges, responses, keys, identifier,
    certificate, and one atomic ledger registration.

    The enrolled responses are the unanimous bits observed while
    screening the challenges, so every stored bit is the device's
    majority answer.  Returns the registered identity together with the
    device key pair (the secret key never appears on the ledger).
    ``challenges`` may be supplied pre-generated as the (challenges,
    responses) pair from ``generate_stable_challenges`` (the benchmark
    times that stage itself).
    """
    if np_rng is None:
        np_rng = np.random.default_rng(rng.getrandbits(64))
    if challenges is None:
        challenges = generate_stable_challenges(
            puf, np_rng, params.challenge_count, params.repetitions, params.screen_rounds,
        )
    challenges, responses = challenges
    keypair = KeyPair.generate(rng)
    device_id = compute_device_id(keypair.pk, responses)
    commitment = G1Element.generator() ** response_scalar(responses)
    cert = ca.issue(device_id, keypair.pk)

    record = DeviceRecord(
        device_id=device_id,
        pk_bytes=keypair.pk.to_bytes(),
        commitment_bytes=commitment.to_bytes(),
        fingerprint=device_fingerprint(puf, params.repetitions),
        cert_bytes=cert.to_bytes(),
        challenge_bytes=challenges_to_bytes(challenges),
    )
    tx = TransactionRecord(
        payload=record.to_bytes(),
        device_id=device_id,
        signature=b"",
        proof=b"",
        chaincode="register",
        nonce=rng.getrandbits(128).to_bytes(16, "big"),
    )
    result = ledger.invoke("register", tx)
    if not result:
        raise RegistrationError(result.reason)
    identity = DeviceIdentity(
        device_id=device_id,
        pk=keypair.pk,
        challenge_set=challenges,
        response_commitment=commitment,
        certificate=cert,
    )
    return identity, keypair
