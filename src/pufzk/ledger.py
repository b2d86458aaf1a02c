"""Append-only hash-chained ledger with keyed world state and chaincode
dispatch.

This is a single-process stand-in for a permissioned blockchain: one
ordering point, no consensus, deterministic execution.  Every committed
transaction produces one block; blocks carry the previous block's
digest, the transaction digest, and a digest of the post-state, so both
tampering and non-determinism are detectable.  Rejected transactions
leave no trace in state or chain.

The state digest is LtHash (Lewi et al., "Securing update propagation
with homomorphic hashing", ePrint 2019/227), a multiset hash in the
Bellare-Micciancio paradigm (EUROCRYPT 1997).  Each key has a leaf: the
SHA-256 of its length-framed (key, value, version), expanded by
SHAKE-128 to 1,024 16-bit lanes.  The accumulator is the lane-wise sum
of all leaves mod 2^16, and the digest is the SHA-256 of its bytes.  A
commit subtracts each written key's old leaf and adds its new one, so it
costs O(write-set) however large the state is.  Finding two states with
the same accumulator, with leaves modelled as random, reduces to a
short-integer-solution problem over Z/2^16 in dimension 1,024, which
Lewi et al. estimate at about 200 bits of security for these
parameters.

Committed bytes live in an anonymous temporary file, as a peer keeps
its block files: each committed transaction is appended as its
``export_log`` frame, followed by the values of its write-set.  A value
equal to the payload is not written twice but read from inside the
frame.  The heap keeps only (offset, length) references, read back with
``os.pread``, and each key's 32-byte leaf seed, so the log and the
state's values grow on disk, not in the Python heap.

Chaincodes are in-process functions from (state view, transaction) to a
write-set; the built-in ones cover publishing the CA key, device
registration, challenge-epoch rotation, and the guarded data-submit
path that checks a signature and a corrected-mode transaction proof
before writing.
Registration checks the CA's Schnorr certificate over the whole tuple
(id, key, commitment, challenges) against the G1 key published at
bootstrap, so it runs no pairing; only submits check a pairing
signature.  A rotation commits only if the device's authentication
proof it carries verifies, and every replay of the log re-verifies it.
The ledger alone decides who may submit: the submit chaincode admits a
device whose epoch a committed rotation has moved off 0, and refuses
any other as "unauthenticated", on every path and on every replay.

Stored device state (``identity/<id>``, ``subset/<id>``) has one typed
reader, :meth:`StateView.load_device`, shared by chaincodes and the
ledger; the register chaincode checks records with the same decoder.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import zkp
from .pairing import DecodeError, G1Element, G2Element
from .puf import ChallengeSet, challenges_from_bytes
from .wire import (
    TX_PAYLOAD_WIDTH,
    Certificate,
    DeviceRecord,
    SubsetRecord,
    TransactionRecord,
    WireError,
    _done,
    _get_field,
    _put_field,
    registration_binding,
)

GENESIS_PREV_HASH = b"\x00" * 32

KEY_CA_PK = "ca/pk"

LTHASH_LANES = 1024

# width of the length prefix of each transaction's log frame
_FRAME_WIDTH = 4


def _digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _leaf_seed(key: str, value: bytes, version: int) -> bytes:
    """SHA-256 over the length-framed (key, value, version)."""
    kb = key.encode()
    h = hashlib.sha256(len(kb).to_bytes(4, "big"))
    h.update(kb)
    h.update(len(value).to_bytes(4, "big"))
    h.update(value)
    h.update(version.to_bytes(8, "big"))
    return h.digest()


def _leaf(seed: bytes) -> np.ndarray:
    """A key's LtHash leaf: its seed expanded by SHAKE-128 to
    :data:`LTHASH_LANES` little-endian 16-bit lanes."""
    return np.frombuffer(hashlib.shake_128(seed).digest(2 * LTHASH_LANES), dtype="<u2")


class LedgerError(Exception):
    """Structural misuse of the ledger (unknown chaincode, bad record)."""


class RecordError(ValueError):
    """Stored device state that does not decode or validate."""


class ChaincodeRejection(Exception):
    """Raised inside a chaincode to reject the transaction."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: bytes
    tx_digests: Tuple[bytes, ...]
    state_digest: bytes

    def to_bytes(self) -> bytes:
        buf = bytearray(self.height.to_bytes(8, "big"))
        buf += self.prev_hash
        buf += len(self.tx_digests).to_bytes(4, "big")
        for d in self.tx_digests:
            buf += d
        buf += self.state_digest
        return bytes(buf)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Block":
        if len(data) < 8 + 32 + 4 + 32:
            raise WireError("block too short")
        height = int.from_bytes(data[0:8], "big")
        prev_hash = data[8:40]
        n = int.from_bytes(data[40:44], "big")
        off = 44
        if len(data) != off + 32 * n + 32:
            raise WireError("bad block length")
        tx_digests = tuple(data[off + 32 * i: off + 32 * (i + 1)] for i in range(n))
        state_digest = data[off + 32 * n:]
        return cls(height, prev_hash, tx_digests, state_digest)


def decode_device_record(raw: bytes) -> Tuple[DeviceRecord, G2Element, G1Element, ChallengeSet]:
    """Decode DeviceRecord bytes into (record, pk, commitment, challenges),
    checking every field.  The point decodes run the subgroup checks."""
    try:
        record = DeviceRecord.from_bytes(raw)
        if len(record.device_id) != 32:
            raise RecordError("device id must be 32 bytes")
        if len(record.fingerprint) != 32:
            raise RecordError("fingerprint must be 32 bytes")
        if not record.challenge_bytes:
            raise RecordError("empty challenge set")
        challenges = challenges_from_bytes(record.challenge_bytes)
        pk = G2Element.from_bytes(record.pk_bytes)
        commitment = G1Element.from_bytes(record.commitment_bytes)
    except ValueError as exc:  # WireError and DecodeError included
        raise RecordError(str(exc)) from None
    return record, pk, commitment, challenges


class StoredDevice(NamedTuple):
    """A registered device's stored state, decoded and validated."""

    record: DeviceRecord
    pk: G2Element
    commitment: G1Element
    challenges: ChallengeSet
    epoch: int

    def auth_statement(self, nonce: bytes) -> zkp.AuthStatement:
        """The authentication statement for session ``nonce`` at the
        stored epoch: what the device proves and the rotate chaincode
        verifies."""
        return zkp.AuthStatement(self.record.device_id, self.pk, self.commitment, self.epoch, nonce)


class _Stored:
    """A committed value: where its bytes sit in the ledger's file, and
    the leaf seed of its (key, value, version).  ``len()`` is the
    value's byte length."""

    __slots__ = ("offset", "length", "seed")

    def __init__(self, offset: int, length: int, seed: bytes):
        self.offset = offset
        self.length = length
        self.seed = seed

    def __len__(self) -> int:
        return self.length


class StateView:
    """Read-only view of committed world state.  Chaincodes are handed
    one, and the ledger is one.  ``state`` maps each key to its
    (stored value, version); the bytes are read from ``file``."""

    def __init__(self, state: Dict[str, Tuple[_Stored, int]], file):
        self._state = state
        self._file = file

    def _read(self, stored: _Stored) -> bytes:
        return os.pread(self._file.fileno(), stored.length, stored.offset)

    def get(self, key: str) -> Optional[bytes]:
        entry = self._state.get(key)
        return self._read(entry[0]) if entry is not None else None

    def has(self, key: str) -> bool:
        return key in self._state

    def get_state(self, key: str) -> bytes:
        return self._read(self._state[key][0])

    def load_device(self, device_id: bytes) -> StoredDevice:
        """A registered device's record, keys, challenges and epoch.
        Raises ``KeyError`` if it is unregistered and
        :class:`RecordError` if its stored state is malformed."""
        raw = self.get(f"identity/{device_id.hex()}")
        if raw is None:
            raise KeyError(f"device {device_id.hex()} not registered")
        record, pk, commitment, challenges = decode_device_record(raw)
        if record.device_id != device_id:
            raise RecordError("record stored under another device id")
        try:
            epoch = SubsetRecord.from_bytes(self.get(f"subset/{device_id.hex()}") or b"").epoch
        except WireError as exc:
            raise RecordError(f"epoch record: {exc}") from None
        return StoredDevice(record, pk, commitment, challenges, epoch)


Chaincode = Callable[[StateView, TransactionRecord], Dict[str, bytes]]


@dataclass
class CommitResult:
    committed: bool
    reason: str
    block_height: Optional[int] = None

    def __bool__(self):
        return self.committed


class Ledger(StateView):
    """Hash-chained block list plus versioned key-value world state.

    All commits flow through :meth:`invoke`, the single writer; reads
    against committed state are safe at any time.  Committed
    transactions and values are kept in a temporary file, closed by
    :meth:`close` or when the ledger is dropped.
    """

    def __init__(self):
        super().__init__({}, tempfile.TemporaryFile())
        self._finalizer = weakref.finalize(self, self._file.close)
        self._lthash = np.zeros(LTHASH_LANES, dtype="<u2")
        self._block_bytes: List[bytes] = []
        self._tx_log: List[Tuple[int, int]] = []  # (offset, length) of each log frame
        self._chaincodes: Dict[str, Chaincode] = dict(_BUILTIN_CHAINCODES)
        genesis = Block(0, GENESIS_PREV_HASH, (), self.state_digest())
        self._block_bytes.append(genesis.to_bytes())
        self._head_digest = _digest(self._block_bytes[-1])

    # -- chain structure ----------------------------------------------------

    @property
    def height(self) -> int:
        return len(self._block_bytes) - 1

    def block(self, height: int) -> Block:
        return Block.from_bytes(self._block_bytes[height])

    def block_bytes(self, height: int) -> bytes:
        return self._block_bytes[height]

    def head_digest(self) -> bytes:
        return self._head_digest

    def transactions(self) -> Tuple[TransactionRecord, ...]:
        """The committed transactions, in commit order."""
        return tuple(TransactionRecord.from_bytes(_get_field(frame, 0, width=_FRAME_WIDTH)[0])
                     for frame in self._frames())

    def state_digest(self) -> bytes:
        """SHA-256 of the LtHash accumulator over every (key, value,
        version) in the state."""
        return _digest(self._lthash.tobytes())

    def close(self) -> None:
        """Close the ledger's file.  The ledger cannot be read after."""
        self._finalizer()

    # -- chaincode dispatch --------------------------------------------------

    def register_chaincode(self, name: str, fn: Chaincode) -> None:
        if name in self._chaincodes:
            raise LedgerError(f"chaincode {name!r} already registered")
        self._chaincodes[name] = fn

    def invoke(self, chaincode_name: str, tx: TransactionRecord) -> CommitResult:
        """Execute a chaincode against committed state and commit its
        write-set atomically, or leave everything untouched."""
        fn = self._chaincodes.get(chaincode_name)
        if fn is None:
            raise LedgerError(f"unknown chaincode {chaincode_name!r}")
        if tx.chaincode != chaincode_name:
            raise LedgerError("transaction chaincode field does not match invocation")
        try:
            writes = fn(StateView(self._state, self._file), tx)
        except ChaincodeRejection as rej:
            return CommitResult(False, rej.reason)
        raw = tx.to_bytes()
        frame = bytearray()
        _put_field(frame, raw, width=_FRAME_WIDTH)
        writes = sorted(writes.items())
        offset = self._file.tell()
        self._file.write(frame)
        # a value equal to the payload is read from the frame, where it
        # sits behind the frame's length prefix and its own
        payload_at = offset + _FRAME_WIDTH + TX_PAYLOAD_WIDTH
        end = offset + len(frame)
        value_at = []
        for _, value in writes:
            if value == tx.payload:
                value_at.append(payload_at)
            else:
                value_at.append(end)
                self._file.write(value)
                end += len(value)
        self._file.flush()
        self._tx_log.append((offset, len(frame)))
        for (key, value), at in zip(writes, value_at):
            old = self._state.get(key)
            version = 1
            if old is not None:
                self._lthash -= _leaf(old[0].seed)
                version = old[1] + 1
            seed = _leaf_seed(key, value, version)
            self._lthash += _leaf(seed)
            self._state[key] = (_Stored(at, len(value), seed), version)
        block = Block(
            height=self.height + 1,
            prev_hash=self._head_digest,
            tx_digests=(_digest(raw),),
            state_digest=self.state_digest(),
        )
        self._block_bytes.append(block.to_bytes())
        self._head_digest = _digest(self._block_bytes[-1])
        return CommitResult(True, "committed", block.height)

    # -- chain verification ----------------------------------------------------

    def verify_chain(self) -> bool:
        """Recompute every link (see :func:`chain_prefix_valid`) and
        check that the recorded head digest matches the last block."""
        valid, _ = chain_prefix_valid(self._block_bytes)
        return valid and self._head_digest == _digest(self._block_bytes[-1])

    # -- export / replay --------------------------------------------------------

    def _frames(self):
        """Each committed transaction's length-prefixed log frame."""
        for offset, length in self._tx_log:
            yield os.pread(self._file.fileno(), length, offset)

    def export_log(self) -> bytes:
        """Length-prefixed binary log of all committed transactions."""
        return b"".join([b"PZLG\x01", len(self._tx_log).to_bytes(4, "big"), *self._frames()])

    @classmethod
    def replay_log(cls, data: bytes) -> "Ledger":
        """Rebuild a ledger by re-executing an exported log from genesis."""
        if data[:5] != b"PZLG\x01":
            raise WireError("bad ledger log header")
        count = int.from_bytes(data[5:9], "big")
        off = 9
        ledger = cls()
        for _ in range(count):
            raw, off = _get_field(data, off, width=_FRAME_WIDTH)
            tx = TransactionRecord.from_bytes(raw)
            result = ledger.invoke(tx.chaincode, tx)
            if not result:
                raise LedgerError(f"replay diverged: {result.reason}")
        if off != len(data):
            raise WireError("trailing bytes in ledger log")
        return ledger

    # -- test hook ---------------------------------------------------------------

    def corrupt_block_byte(self, height: int, offset: int, xor: int = 0xFF) -> None:
        """Flip one byte of a committed block in place (tamper tests)."""
        raw = bytearray(self._block_bytes[height])
        raw[offset % len(raw)] ^= xor
        self._block_bytes[height] = bytes(raw)


def ledger_new() -> Ledger:
    """Fresh ledger: genesis block at height 0 over empty state."""
    return Ledger()


def chain_prefix_valid(block_bytes_list) -> Tuple[bool, int]:
    """Link check over a bare block sequence, returning (valid, height).

    A ledger truncated by dropping tail blocks still validates as a
    prefix; the caller learns the surviving height.  Mutations of the
    final block are only detectable through :meth:`Ledger.verify_chain`,
    which anchors the head digest.
    """
    prev = None
    height = -1
    for raw in block_bytes_list:
        try:
            block = Block.from_bytes(raw)
        except WireError:
            return False, height
        if prev is None:
            if block.prev_hash != GENESIS_PREV_HASH or block.height != 0:
                return False, height
        elif block.prev_hash != _digest(prev):
            return False, height
        prev = raw
        height = block.height
    return True, height


# ---------------------------------------------------------------------------
# Built-in chaincodes
# ---------------------------------------------------------------------------

def _cc_bootstrap(state: StateView, tx: TransactionRecord) -> Dict[str, bytes]:
    """Publish the CA public key (G1), once."""
    if state.has(KEY_CA_PK):
        raise ChaincodeRejection("already bootstrapped")
    if tx.signature or tx.proof:
        raise ChaincodeRejection("malformed bootstrap: signature and proof must be empty")
    try:
        ca_pk, off = _get_field(tx.payload, 0)
        _done(tx.payload, off)
    except WireError as exc:
        raise ChaincodeRejection(f"malformed bootstrap payload: {exc}")
    try:
        if G1Element.from_bytes(ca_pk).is_identity():
            raise DecodeError("CA key is the identity")
    except DecodeError as exc:
        raise ChaincodeRejection(f"invalid bootstrap key: {exc}")
    return {KEY_CA_PK: ca_pk}


def _cc_register(state: StateView, tx: TransactionRecord) -> Dict[str, bytes]:
    """Store a registration tuple, enforcing identifier and device
    uniqueness and a valid CA certificate over the whole tuple.  The
    envelope carries nothing else: its device id is the record's, and
    its signature and proof are empty."""
    try:
        record = decode_device_record(tx.payload)[0]
    except RecordError as exc:
        raise ChaincodeRejection(f"malformed registration: {exc}")
    if tx.device_id != record.device_id or tx.signature or tx.proof:
        raise ChaincodeRejection("malformed registration: envelope does not match the record")
    id_key = f"identity/{record.device_id.hex()}"
    fp_key = f"fingerprint/{record.fingerprint.hex()}"
    if state.has(id_key):
        raise ChaincodeRejection("duplicate device id")
    if state.has(fp_key):
        raise ChaincodeRejection("device already enrolled")
    ca_pk_bytes = state.get(KEY_CA_PK)
    if ca_pk_bytes is None:
        raise ChaincodeRejection("ledger not bootstrapped")
    try:
        cert = Certificate.from_bytes(record.cert_bytes)
    except WireError as exc:
        raise ChaincodeRejection(f"malformed certificate: {exc}")
    binding = registration_binding(record.commitment_bytes, record.fingerprint,
                                   record.challenge_bytes)
    if (cert.device_id, cert.pk_bytes, cert.binding) != (record.device_id, record.pk_bytes, binding):
        raise ChaincodeRejection("certificate does not match registration")
    try:
        valid = zkp.schnorr_verify(G1Element.from_bytes(ca_pk_bytes),
                                   cert.signing_payload(), cert.sig_bytes)
    except DecodeError as exc:
        raise ChaincodeRejection(f"malformed certificate: {exc}")
    if not valid:
        raise ChaincodeRejection("certificate signature invalid")
    return {
        id_key: record.to_bytes(),
        fp_key: record.device_id,
        f"subset/{record.device_id.hex()}": SubsetRecord(0).to_bytes(),
    }


def _cc_rotate(state: StateView, tx: TransactionRecord) -> Dict[str, bytes]:
    """Advance a device's challenge epoch by one for a corrected-mode
    authentication proof that verifies against the stored key,
    commitment and epoch, with the transaction nonce as the session
    nonce.  The proof binds the epoch, so it cannot rotate twice."""
    stored = _stored_device(state, tx.device_id)
    if tx.payload or tx.signature:
        raise ChaincodeRejection("malformed rotation: payload and signature must be empty")
    try:
        proof = zkp.CorrectedAuthProof.from_bytes(tx.proof)
        if zkp.auth_verify_corrected(stored.auth_statement(tx.nonce), proof):
            return {f"subset/{tx.device_id.hex()}": SubsetRecord(stored.epoch + 1).to_bytes()}
        # verification compares the commitments as bytes; only a
        # rejection pays to tell an undecodable one apart
        G2Element.from_bytes(proof.commit_sk.to_bytes())
        G1Element.from_bytes(proof.commit_puf.to_bytes())
    except DecodeError:
        raise ChaincodeRejection("malformed")
    raise ChaincodeRejection("proof invalid")


def _cc_submit(state: StateView, tx: TransactionRecord) -> Dict[str, bytes]:
    """The guarded transaction path: admit a device that has
    authenticated at least once (a committed rotation moved its epoch
    off 0), verify its signature against its on-ledger key and the
    corrected-mode transaction proof, then apply the write.  Any other
    proof, the printed scheme's included, is "proof invalid"."""
    stored = _stored_device(state, tx.device_id)
    if stored.epoch < 1:
        raise ChaincodeRejection("unauthenticated")
    nonce_key = f"txnonce/{tx.device_id.hex()}/{tx.nonce.hex()}"
    if state.has(nonce_key):
        raise ChaincodeRejection("transaction nonce already consumed")
    try:
        sig = zkp.Signature.from_bytes(tx.signature)
    except DecodeError as exc:
        raise ChaincodeRejection(f"malformed record: {exc}")
    if not zkp.verify_sig(stored.pk, tx.payload, sig):
        raise ChaincodeRejection("signature invalid")
    try:
        proof = zkp.CorrectedTxProof.from_bytes(tx.proof)
    except DecodeError:
        raise ChaincodeRejection("proof invalid") from None
    statement = zkp.TxStatement(tx.device_id, stored.pk, _digest(tx.payload), tx.nonce)
    if not zkp.tx_verify_corrected(statement, proof):
        raise ChaincodeRejection("proof invalid")
    seq_raw = state.get(f"dataseq/{tx.device_id.hex()}")
    seq = int.from_bytes(seq_raw, "big") if seq_raw else 0
    return {
        f"data/{tx.device_id.hex()}/{seq}": tx.payload,
        f"dataseq/{tx.device_id.hex()}": (seq + 1).to_bytes(8, "big"),
        nonce_key: b"\x01",
    }


def _stored_device(state: StateView, device_id: bytes) -> StoredDevice:
    try:
        return state.load_device(device_id)
    except KeyError:
        raise ChaincodeRejection("unknown device") from None
    except RecordError as exc:
        raise ChaincodeRejection(f"malformed record: {exc}") from None


_BUILTIN_CHAINCODES: Dict[str, Chaincode] = {
    "bootstrap": _cc_bootstrap,
    "register": _cc_register,
    "rotate": _cc_rotate,
    "submit": _cc_submit,
}


# ---------------------------------------------------------------------------
# Convenience wrappers used by the registry and protocol layers
# ---------------------------------------------------------------------------

def bootstrap(ledger: Ledger, setup_pk: G2Element, ca_pk: G1Element) -> CommitResult:
    """Publish the CA key.  ``setup_pk``, the printed scheme's setup
    key, is no longer published: no chaincode or verifier reads it, and
    the exhibits in :mod:`pufzk.zkp` take their setup directly.  The
    argument is kept because existing callers pass it positionally."""
    buf = bytearray()
    _put_field(buf, ca_pk.to_bytes())
    tx = TransactionRecord(
        payload=bytes(buf), device_id=b"system", signature=b"", proof=b"",
        chaincode="bootstrap", nonce=b"genesis",
    )
    return ledger.invoke("bootstrap", tx)


def rotate_challenges(ledger: Ledger, device_id: bytes, nonce: bytes, proof: bytes) -> CommitResult:
    """Commit the rotation that a device's authentication proof for
    session ``nonce`` earns; the rotate chaincode verifies the proof."""
    return ledger.invoke("rotate", TransactionRecord(b"", device_id, b"", proof, "rotate", nonce))
