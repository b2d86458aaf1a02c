"""Wire-level records and message framing.

Every on-ledger record and protocol message has one canonical byte
encoding built from two primitives: fixed-width integers (big-endian)
and length-prefixed fields (u16 or u32 length followed by the bytes).
Messages carry a leading tag byte.  Layouts:

    DeviceRecord     "PZDR" u8 ver (2) | u16 device_id | u16 pk | u16 commitment
                     | u16 fingerprint | u32 challenges | u64 serial
                     | u16 CA signature (64: Schnorr e | s over all before it)
    SubsetRecord     u64 epoch
    TransactionRecord u32 payload | u16 device_id | u16 signature
                     | u16 proof | u16 chaincode | u16 nonce
    AuthRequest      0x01 | u16 device_id | u32 proof | u16 nonce
    AuthDecision     0x02 | u8 accept | u16 reason (utf-8)
    TxSubmit         0x03 | u32 transaction record
    TxDecision       0x04 | u8 accept | u16 reason (utf-8)

Decoding is strict: trailing bytes, truncation, a wrong tag, or an
accept flag other than 0x00 or 0x01 raise ``WireError``.
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


def _get_flag(data: bytes, off: int) -> Tuple[bool, int]:
    flag, off = _get_int(data, off, 1)
    if flag > 1:
        raise WireError(f"flag byte must be 0x00 or 0x01, got 0x{flag:02x}")
    return flag == 1, off


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

_DEVICE_RECORD_MAGIC = b"PZDR"
_DEVICE_RECORD_VERSION = 2


@dataclass(frozen=True)
class DeviceRecord:
    """The registration tuple stored on the ledger, which is also its
    certificate: the CA's serial and its Schnorr signature over
    :meth:`signed_bytes`, the encoding up to the signature field."""

    device_id: bytes
    pk_bytes: bytes
    commitment_bytes: bytes
    fingerprint: bytes
    challenge_bytes: bytes
    serial: int
    sig_bytes: bytes

    def signed_bytes(self) -> bytes:
        buf = bytearray(_DEVICE_RECORD_MAGIC)
        buf.append(_DEVICE_RECORD_VERSION)
        _put_field(buf, self.device_id)
        _put_field(buf, self.pk_bytes)
        _put_field(buf, self.commitment_bytes)
        _put_field(buf, self.fingerprint)
        _put_field(buf, self.challenge_bytes, width=4)
        buf += self.serial.to_bytes(8, "big")
        return bytes(buf)

    def to_bytes(self) -> bytes:
        buf = bytearray(self.signed_bytes())
        _put_field(buf, self.sig_bytes)
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
        challenge_bytes, off = _get_field(data, off, width=4)
        serial, off = _get_int(data, off, 8)
        sig_bytes, off = _get_field(data, off)
        _done(data, off)
        return cls(device_id, pk_bytes, commitment_bytes, fingerprint, challenge_bytes, serial,
                   sig_bytes)


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


TX_PAYLOAD_WIDTH = 4


@dataclass(frozen=True)
class TransactionRecord:
    """One submitted transaction: opaque payload plus authentication
    material, immutable once committed.  The encoding opens with the
    payload behind a length prefix of ``TX_PAYLOAD_WIDTH`` bytes."""

    payload: bytes
    device_id: bytes
    signature: bytes
    proof: bytes
    chaincode: str
    nonce: bytes

    def to_bytes(self) -> bytes:
        buf = bytearray()
        _put_field(buf, self.payload, width=TX_PAYLOAD_WIDTH)
        _put_field(buf, self.device_id)
        _put_field(buf, self.signature)
        _put_field(buf, self.proof)
        _put_field(buf, self.chaincode.encode())
        _put_field(buf, self.nonce)
        return bytes(buf)

    @classmethod
    def from_bytes(cls, data: bytes) -> "TransactionRecord":
        payload, off = _get_field(data, 0, width=TX_PAYLOAD_WIDTH)
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
class _Decision:
    """A verifier's decision; the two kinds differ only in ``TAG``."""

    accept: bool
    reason: str

    def to_bytes(self) -> bytes:
        buf = bytearray([self.TAG, 1 if self.accept else 0])
        _put_field(buf, self.reason.encode())
        return bytes(buf)


class AuthDecision(_Decision):
    TAG = TAG_AUTH_DECISION


class TxDecision(_Decision):
    TAG = TAG_TX_DECISION


@dataclass(frozen=True)
class TxSubmit:
    record: TransactionRecord

    def to_bytes(self) -> bytes:
        buf = bytearray([TAG_TX_SUBMIT])
        _put_field(buf, self.record.to_bytes(), width=4)
        return bytes(buf)


ProtocolMessage = Union[AuthRequest, AuthDecision, TxSubmit, TxDecision]
_DECISIONS = {kind.TAG: kind for kind in (AuthDecision, TxDecision)}


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
    if tag in _DECISIONS:
        flag, off = _get_flag(data, 1)
        reason, off = _get_field(data, off)
        _done(data, off)
        return _DECISIONS[tag](flag, _utf8(reason))
    if tag == TAG_TX_SUBMIT:
        rec, off = _get_field(data, 1, width=4)
        _done(data, off)
        return TxSubmit(TransactionRecord.from_bytes(rec))
    raise WireError(f"unknown message tag 0x{tag:02x}")
