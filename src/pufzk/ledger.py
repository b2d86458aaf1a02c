"""Append-only hash-chained ledger with keyed world state and chaincode
dispatch.

This is a single-process stand-in for a permissioned blockchain: one
ordering point, no consensus, deterministic execution.  Every committed
transaction produces one block; blocks carry the previous block's
digest, the transaction digest, and a digest of the post-state, so both
tampering and non-determinism are detectable.  Rejected transactions
leave no trace in state or chain.

Chaincodes are in-process functions from (state view, transaction) to a
write-set; the built-in ones cover bootstrap parameters, device
registration, challenge-epoch rotation, and the guarded data-submit
path that checks a signature and a mode-tagged proof before writing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from . import zkp
from .pairing import DecodeError, G1Element, G2Element
from .puf import challenges_from_bytes
from .wire import (
    Certificate,
    DeviceRecord,
    SubsetRecord,
    TransactionRecord,
    WireError,
    _get_field,
    _put_field,
)

GENESIS_PREV_HASH = b"\x00" * 32

KEY_SETUP_PK = "setup/pk"
KEY_CA_PK = "ca/pk"


def _digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class LedgerError(Exception):
    """Structural misuse of the ledger (unknown chaincode, bad record)."""


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


class StateView:
    """Read-only view of committed world state, handed to chaincodes."""

    def __init__(self, state: Dict[str, Tuple[bytes, int]]):
        self._state = state

    def get(self, key: str) -> Optional[bytes]:
        entry = self._state.get(key)
        return entry[0] if entry is not None else None

    def has(self, key: str) -> bool:
        return key in self._state


Chaincode = Callable[[StateView, TransactionRecord], Dict[str, bytes]]


@dataclass
class CommitResult:
    committed: bool
    reason: str
    block_height: Optional[int] = None

    def __bool__(self):
        return self.committed


class Ledger:
    """Hash-chained block list plus versioned key-value world state.

    All commits flow through :meth:`invoke`, the single writer; reads
    against committed state are safe at any time.
    """

    def __init__(self):
        self._state: Dict[str, Tuple[bytes, int]] = {}
        self._block_bytes: List[bytes] = []
        self._tx_log: List[TransactionRecord] = []
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

    def state_digest(self) -> bytes:
        """Digest over sorted (key, value, version) triples."""
        h = hashlib.sha256()
        for key in sorted(self._state):
            value, version = self._state[key]
            kb = key.encode()
            h.update(len(kb).to_bytes(4, "big"))
            h.update(kb)
            h.update(len(value).to_bytes(4, "big"))
            h.update(value)
            h.update(version.to_bytes(8, "big"))
        return h.digest()

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
            writes = fn(StateView(self._state), tx)
        except ChaincodeRejection as rej:
            return CommitResult(False, rej.reason)
        for key, value in sorted(writes.items()):
            _, version = self._state.get(key, (b"", 0))
            self._state[key] = (value, version + 1)
        self._tx_log.append(tx)
        block = Block(
            height=self.height + 1,
            prev_hash=self._head_digest,
            tx_digests=(_digest(tx.to_bytes()),),
            state_digest=self.state_digest(),
        )
        self._block_bytes.append(block.to_bytes())
        self._head_digest = _digest(self._block_bytes[-1])
        return CommitResult(True, "committed", block.height)

    # -- queries --------------------------------------------------------------

    def get_state(self, key: str) -> bytes:
        entry = self._state.get(key)
        if entry is None:
            raise KeyError(key)
        return entry[0]

    def has_state(self, key: str) -> bool:
        return key in self._state

    def query_identity(self, device_id: bytes):
        """Return (pk, challenge set, response commitment) for a device."""
        record = self.query_device_record(device_id)
        return (
            G2Element.from_bytes(record.pk_bytes),
            challenges_from_bytes(record.challenge_bytes),
            G1Element.from_bytes(record.commitment_bytes),
        )

    def query_device_record(self, device_id: bytes) -> DeviceRecord:
        try:
            raw = self.get_state(f"identity/{device_id.hex()}")
        except KeyError:
            raise KeyError(f"device {device_id.hex()} not registered") from None
        return DeviceRecord.from_bytes(raw)

    def query_subset(self, device_id: bytes) -> SubsetRecord:
        return SubsetRecord.from_bytes(self.get_state(f"subset/{device_id.hex()}"))

    # -- chain verification ----------------------------------------------------

    def verify_chain(self) -> bool:
        """Recompute every link (see :func:`chain_prefix_valid`) and
        check that the recorded head digest matches the last block."""
        valid, _ = chain_prefix_valid(self._block_bytes)
        return valid and self._head_digest == _digest(self._block_bytes[-1])

    # -- export / replay --------------------------------------------------------

    def export_log(self) -> bytes:
        """Length-prefixed binary log of all committed transactions."""
        buf = bytearray(b"PZLG\x01")
        buf += len(self._tx_log).to_bytes(4, "big")
        for tx in self._tx_log:
            _put_field(buf, tx.to_bytes(), width=4)
        return bytes(buf)

    @classmethod
    def replay_log(cls, data: bytes) -> "Ledger":
        """Rebuild a ledger by re-executing an exported log from genesis."""
        if data[:5] != b"PZLG\x01":
            raise WireError("bad ledger log header")
        count = int.from_bytes(data[5:9], "big")
        off = 9
        ledger = cls()
        for _ in range(count):
            raw, off = _get_field(data, off, width=4)
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
    """Publish the one-time setup public key and the CA public key."""
    if state.has(KEY_SETUP_PK):
        raise ChaincodeRejection("already bootstrapped")
    try:
        setup_pk, off = _get_field(tx.payload, 0)
        ca_pk, off = _get_field(tx.payload, off)
    except WireError as exc:
        raise ChaincodeRejection(f"malformed bootstrap payload: {exc}")
    try:
        G2Element.from_bytes(setup_pk)
        G2Element.from_bytes(ca_pk)
    except DecodeError as exc:
        raise ChaincodeRejection(f"invalid bootstrap key: {exc}")
    return {KEY_SETUP_PK: setup_pk, KEY_CA_PK: ca_pk}


def _cc_register(state: StateView, tx: TransactionRecord) -> Dict[str, bytes]:
    """Store a registration tuple, enforcing identifier and device
    uniqueness and a valid CA certificate."""
    try:
        record = DeviceRecord.from_bytes(tx.payload)
    except WireError as exc:
        raise ChaincodeRejection(f"malformed registration: {exc}")
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
        ca_pk = G2Element.from_bytes(ca_pk_bytes)
        sig = zkp.Signature.from_bytes(cert.sig_bytes)
    except (WireError, DecodeError) as exc:
        raise ChaincodeRejection(f"malformed certificate: {exc}")
    if cert.device_id != record.device_id or cert.pk_bytes != record.pk_bytes:
        raise ChaincodeRejection("certificate does not match registration")
    if not zkp.verify_sig(ca_pk, cert.signing_payload(), sig):
        raise ChaincodeRejection("certificate signature invalid")
    return {
        id_key: record.to_bytes(),
        fp_key: record.device_id,
        f"subset/{record.device_id.hex()}": SubsetRecord(0).to_bytes(),
    }


def _cc_rotate(state: StateView, tx: TransactionRecord) -> Dict[str, bytes]:
    """Advance a device's challenge epoch by exactly one."""
    try:
        device_id, off = _get_field(tx.payload, 0)
        epoch_raw, off = _get_field(tx.payload, off)
        new_epoch = SubsetRecord.from_bytes(epoch_raw).epoch
    except WireError as exc:
        raise ChaincodeRejection(f"malformed rotation: {exc}")
    if not state.has(f"identity/{device_id.hex()}"):
        raise ChaincodeRejection("unknown device")
    current = SubsetRecord.from_bytes(state.get(f"subset/{device_id.hex()}")).epoch
    if new_epoch != current + 1:
        raise ChaincodeRejection("rotation epoch must advance by one")
    return {f"subset/{device_id.hex()}": epoch_raw}


def _cc_submit(state: StateView, tx: TransactionRecord) -> Dict[str, bytes]:
    """The guarded transaction path: verify the submitter's signature
    against its on-ledger key and the mode-tagged proof, then apply the
    write."""
    record_raw = state.get(f"identity/{tx.device_id.hex()}")
    if record_raw is None:
        raise ChaincodeRejection("unknown device")
    record = DeviceRecord.from_bytes(record_raw)
    nonce_key = f"txnonce/{tx.device_id.hex()}/{tx.nonce.hex()}"
    if state.has(nonce_key):
        raise ChaincodeRejection("transaction nonce already consumed")
    try:
        pk = G2Element.from_bytes(record.pk_bytes)
        sig = zkp.Signature.from_bytes(tx.signature)
    except DecodeError as exc:
        raise ChaincodeRejection(f"malformed record: {exc}")
    if not zkp.verify_sig(pk, tx.payload, sig):
        raise ChaincodeRejection("signature invalid")
    if not _verify_tx_proof(state, tx, pk):
        raise ChaincodeRejection("proof invalid")
    seq_raw = state.get(f"dataseq/{tx.device_id.hex()}")
    seq = int.from_bytes(seq_raw, "big") if seq_raw else 0
    return {
        f"data/{tx.device_id.hex()}/{seq}": tx.payload,
        f"dataseq/{tx.device_id.hex()}": (seq + 1).to_bytes(8, "big"),
        nonce_key: b"\x01",
    }


def _verify_tx_proof(state: StateView, tx: TransactionRecord, pk: G2Element) -> bool:
    try:
        proof = zkp.parse_proof(tx.proof)
    except DecodeError:
        return False
    if isinstance(proof, zkp.SigmaProof):
        setup_pk_bytes = state.get(KEY_SETUP_PK)
        if setup_pk_bytes is None:
            return False
        setup = zkp.TrustSetup(
            alpha=None, pk_setup=G2Element.from_bytes(setup_pk_bytes), setup_ms=0.0,
        )
        return zkp.tx_verify_literal(setup, proof)
    if isinstance(proof, zkp.CorrectedTxProof):
        statement = zkp.TxStatement(
            device_id=tx.device_id,
            pk=pk,
            payload_digest=_digest(tx.payload),
            tx_nonce=tx.nonce,
        )
        return zkp.tx_verify_corrected(statement, proof)
    return False


_BUILTIN_CHAINCODES: Dict[str, Chaincode] = {
    "bootstrap": _cc_bootstrap,
    "register": _cc_register,
    "rotate": _cc_rotate,
    "submit": _cc_submit,
}


# ---------------------------------------------------------------------------
# Convenience wrappers used by the registry and protocol layers
# ---------------------------------------------------------------------------

def bootstrap(ledger: Ledger, setup_pk: G2Element, ca_pk: G2Element) -> CommitResult:
    buf = bytearray()
    _put_field(buf, setup_pk.to_bytes())
    _put_field(buf, ca_pk.to_bytes())
    tx = TransactionRecord(
        payload=bytes(buf), device_id=b"system", signature=b"", proof=b"",
        chaincode="bootstrap", nonce=b"genesis",
    )
    return ledger.invoke("bootstrap", tx)


def rotate_challenges(ledger: Ledger, device_id: bytes, rng) -> int:
    """Commit the device's next challenge epoch; returns the new epoch.
    Rotation is itself a committed, auditable transaction."""
    new_epoch = ledger.query_subset(device_id).epoch + 1
    buf = bytearray()
    _put_field(buf, device_id)
    _put_field(buf, SubsetRecord(new_epoch).to_bytes())
    tx = TransactionRecord(
        payload=bytes(buf), device_id=device_id, signature=b"", proof=b"",
        chaincode="rotate", nonce=rng.getrandbits(128).to_bytes(16, "big"),
    )
    result = ledger.invoke("rotate", tx)
    if not result:
        raise LedgerError(f"rotation rejected: {result.reason}")
    return new_epoch
