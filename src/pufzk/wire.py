"""Wire-level records and message framing.

Every on-ledger record and protocol message has one canonical byte
encoding built from two primitives: fixed-width integers (big-endian)
and length-prefixed fields (u16 or u32 length followed by the bytes).
Messages carry a leading tag byte.  Layouts:

    Certificate      u16 device_id | u16 pk | u16 role | u64 serial | u16 sig
    DeviceRecord     "PZDR" u8 ver | u16 device_id | u16 pk | u16 commitment
                     | u16 fingerprint | u16 cert | u32 challenges
    SubsetRecord     u64 epoch
    TransactionRecord u32 payload | u16 device_id | u16 signature
                     | u16 proof | u16 chaincode | u16 nonce
    AuthRequest      0x01 | u16 device_id | u32 proof | u16 nonce
    AuthDecision     0x02 | u8 accept | u16 reason (utf-8)
    TxSubmit         0x03 | u32 transaction record
    TxDecision       0x04 | u8 accept | u16 reason (utf-8)

Decoding is strict: trailing bytes, truncation, or a wrong tag raise
``WireError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union


class WireError(ValueError):
    """Raised when bytes do not parse as the expected record."""


def _take(data: bytes, off: int, n: int) -> Tuple[bytes, int]:
    if off + n > len(data):
        raise WireError("truncated record")
    return data[off:off + n], off + n


def _put_field(buf: bytearray, field: bytes, width: int = 2) -> None:
    if len(field) >= 1 << (8 * width):
        raise WireError("field too long for length prefix")
    buf += len(field).to_bytes(width, "big")
    buf += field


def _get_field(data: bytes, off: int, width: int = 2) -> Tuple[bytes, int]:
    raw, off = _take(data, off, width)
    n = int.from_bytes(raw, "big")
    return _take(data, off, n)


def _get_int(data: bytes, off: int, width: int) -> Tuple[int, int]:
    raw, off = _take(data, off, width)
    return int.from_bytes(raw, "big"), off


def _done(data: bytes, off: int) -> None:
    if off != len(data):
        raise WireError("trailing bytes after record")


def _utf8(raw: bytes) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise WireError(f"invalid utf-8 in text field: {exc}") from None


# ---------------------------------------------------------------------------
# On-ledger records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """CA-issued binding of a device id to its public key and role."""

    device_id: bytes
    pk_bytes: bytes
    role: str
    serial: int
    sig_bytes: bytes

    def signing_payload(self) -> bytes:
        buf = bytearray(b"cert")
        _put_field(buf, self.device_id)
        _put_field(buf, self.pk_bytes)
        _put_field(buf, self.role.encode())
        buf += self.serial.to_bytes(8, "big")
        return bytes(buf)

    def to_bytes(self) -> bytes:
        buf = bytearray()
        _put_field(buf, self.device_id)
        _put_field(buf, self.pk_bytes)
        _put_field(buf, self.role.encode())
        buf += self.serial.to_bytes(8, "big")
        _put_field(buf, self.sig_bytes)
        return bytes(buf)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Certificate":
        device_id, off = _get_field(data, 0)
        pk_bytes, off = _get_field(data, off)
        role, off = _get_field(data, off)
        serial, off = _get_int(data, off, 8)
        sig_bytes, off = _get_field(data, off)
        _done(data, off)
        return cls(device_id, pk_bytes, _utf8(role), serial, sig_bytes)


_DEVICE_RECORD_MAGIC = b"PZDR"
_DEVICE_RECORD_VERSION = 1


@dataclass(frozen=True)
class DeviceRecord:
    """The registration tuple stored on the ledger."""

    device_id: bytes
    pk_bytes: bytes
    commitment_bytes: bytes
    fingerprint: bytes
    cert_bytes: bytes
    challenge_bytes: bytes

    def to_bytes(self) -> bytes:
        buf = bytearray(_DEVICE_RECORD_MAGIC)
        buf.append(_DEVICE_RECORD_VERSION)
        _put_field(buf, self.device_id)
        _put_field(buf, self.pk_bytes)
        _put_field(buf, self.commitment_bytes)
        _put_field(buf, self.fingerprint)
        _put_field(buf, self.cert_bytes)
        _put_field(buf, self.challenge_bytes, width=4)
        return bytes(buf)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DeviceRecord":
        magic, off = _take(data, 0, 4)
        if magic != _DEVICE_RECORD_MAGIC:
            raise WireError("bad device record magic")
        version, off = _get_int(data, off, 1)
        if version != _DEVICE_RECORD_VERSION:
            raise WireError(f"unsupported device record version {version}")
        device_id, off = _get_field(data, off)
        pk_bytes, off = _get_field(data, off)
        commitment_bytes, off = _get_field(data, off)
        fingerprint, off = _get_field(data, off)
        cert_bytes, off = _get_field(data, off)
        challenge_bytes, off = _get_field(data, off, width=4)
        _done(data, off)
        return cls(device_id, pk_bytes, commitment_bytes, fingerprint, cert_bytes, challenge_bytes)


@dataclass(frozen=True)
class SubsetRecord:
    """Challenge epoch of one device: advanced by every successful
    authentication, bound into each corrected-mode proof."""

    epoch: int

    def to_bytes(self) -> bytes:
        return self.epoch.to_bytes(8, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "SubsetRecord":
        epoch, off = _get_int(data, 0, 8)
        _done(data, off)
        return cls(epoch)


@dataclass(frozen=True)
class TransactionRecord:
    """One submitted transaction: opaque payload plus authentication
    material, immutable once committed."""

    payload: bytes
    device_id: bytes
    signature: bytes
    proof: bytes
    chaincode: str
    nonce: bytes

    def to_bytes(self) -> bytes:
        buf = bytearray()
        _put_field(buf, self.payload, width=4)
        _put_field(buf, self.device_id)
        _put_field(buf, self.signature)
        _put_field(buf, self.proof)
        _put_field(buf, self.chaincode.encode())
        _put_field(buf, self.nonce)
        return bytes(buf)

    @classmethod
    def from_bytes(cls, data: bytes) -> "TransactionRecord":
        payload, off = _get_field(data, 0, width=4)
        device_id, off = _get_field(data, off)
        signature, off = _get_field(data, off)
        proof, off = _get_field(data, off)
        chaincode, off = _get_field(data, off)
        nonce, off = _get_field(data, off)
        _done(data, off)
        return cls(payload, device_id, signature, proof, _utf8(chaincode), nonce)


# ---------------------------------------------------------------------------
# Protocol messages
# ---------------------------------------------------------------------------

TAG_AUTH_REQUEST = 0x01
TAG_AUTH_DECISION = 0x02
TAG_TX_SUBMIT = 0x03
TAG_TX_DECISION = 0x04


@dataclass(frozen=True)
class AuthRequest:
    device_id: bytes
    proof: bytes
    nonce: bytes

    def to_bytes(self) -> bytes:
        buf = bytearray([TAG_AUTH_REQUEST])
        _put_field(buf, self.device_id)
        _put_field(buf, self.proof, width=4)
        _put_field(buf, self.nonce)
        return bytes(buf)


@dataclass(frozen=True)
class AuthDecision:
    accept: bool
    reason: str

    def to_bytes(self) -> bytes:
        buf = bytearray([TAG_AUTH_DECISION, 1 if self.accept else 0])
        _put_field(buf, self.reason.encode())
        return bytes(buf)


@dataclass(frozen=True)
class TxSubmit:
    record: TransactionRecord

    def to_bytes(self) -> bytes:
        buf = bytearray([TAG_TX_SUBMIT])
        _put_field(buf, self.record.to_bytes(), width=4)
        return bytes(buf)


@dataclass(frozen=True)
class TxDecision:
    accept: bool
    reason: str

    def to_bytes(self) -> bytes:
        buf = bytearray([TAG_TX_DECISION, 1 if self.accept else 0])
        _put_field(buf, self.reason.encode())
        return bytes(buf)


ProtocolMessage = Union[AuthRequest, AuthDecision, TxSubmit, TxDecision]


def decode_message(data: bytes) -> ProtocolMessage:
    """Parse any protocol message from its tagged encoding."""
    if not data:
        raise WireError("empty message")
    tag = data[0]
    if tag == TAG_AUTH_REQUEST:
        device_id, off = _get_field(data, 1)
        proof, off = _get_field(data, off, width=4)
        nonce, off = _get_field(data, off)
        _done(data, off)
        return AuthRequest(device_id, proof, nonce)
    if tag == TAG_AUTH_DECISION:
        flag, off = _get_int(data, 1, 1)
        reason, off = _get_field(data, off)
        _done(data, off)
        return AuthDecision(bool(flag), _utf8(reason))
    if tag == TAG_TX_SUBMIT:
        rec, off = _get_field(data, 1, width=4)
        _done(data, off)
        return TxSubmit(TransactionRecord.from_bytes(rec))
    if tag == TAG_TX_DECISION:
        flag, off = _get_int(data, 1, 1)
        reason, off = _get_field(data, off)
        _done(data, off)
        return TxDecision(bool(flag), _utf8(reason))
    raise WireError(f"unknown message tag 0x{tag:02x}")
