"""Authentication and transaction protocols: the device and verifier
roles and the two drivers that run a session between them.

Message flow is in-process but wire-faithful: every exchange is encoded
to the tagged byte format before the receiving side parses it, so a
man-in-the-middle mutator operates on real message bytes.

A device keeps its PUF, its id and its key pair, nothing more.  To
prove, it reads its registration from the ledger and builds its
statement with :meth:`StoredDevice.auth_statement`, as the rotate
chaincode does to verify, so the two sides share one statement builder.

The verifier role is distinct from the ledger, and it keeps nothing but
the ledger and an rng for session ids.  The ledger alone judges
freshness: a session's nonce is the one the rotate chaincode accepts at
the device's current epoch (:func:`pufzk.ledger.rotate_nonce`), and a
transaction's is the one the submit chaincode accepts for the device's
next reading (:func:`pufzk.ledger.submit_nonce`), which the device reads
from the ledger as it builds the transaction.  The verifier decodes a
request and forwards it to the chaincode, whose reason is its decision;
the request is accepted only if the transaction commits.  Every proof
here is a corrected-mode proof: the printed scheme lives in
:mod:`pufzk.zkp` alone, whose functions the attack suite calls to
demonstrate its defects.  The adversaries live in
:mod:`pufzk.scenarios`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from . import zkp
from .identity import CertificateAuthority, KeyPair, register_device, response_scalar
from .ledger import Ledger, RecordError, StoredDevice, rotate_challenges, rotate_nonce, submit_nonce
from .params import DEFAULT_PARAMS, ParamSet
from .puf import PufDevice, puf_respond
from .wire import (
    TAG_AUTH_REQUEST,
    AuthDecision,
    AuthRequest,
    TransactionRecord,
    TxDecision,
    TxSubmit,
    WireError,
    decode_message,
)

TamperHook = Callable[[bytes], bytes]


@dataclass
class Session:
    """One protocol run: identifiers, freshness material, and the
    append-only transcript of wire messages in delivery order."""

    session_id: bytes
    device_id: bytes
    nonce: bytes
    epoch: int
    transcript: List[bytes] = field(default_factory=list)
    accepted: Optional[bool] = None
    reason: str = ""

    def record(self, message_bytes: bytes) -> None:
        self.transcript.append(message_bytes)

    def exchange(self, raw: bytes, handle, tamper: Optional[TamperHook]) -> "Session":
        """Deliver ``raw``, rewritten in flight by ``tamper`` when given,
        to ``handle``, and record both messages and the decision."""
        if tamper is not None:
            raw = tamper(raw)
        self.record(raw)
        decision = handle(raw)
        self.record(decision.to_bytes())
        self.accepted, self.reason = decision.accept, decision.reason
        return self

    def auth_request_bytes(self) -> Optional[bytes]:
        for raw in self.transcript:
            if raw and raw[0] == TAG_AUTH_REQUEST:
                return raw
        return None


@dataclass
class Device:
    """A device actor: the physical PUF, its id and its keys.  Its
    registration lives on the ledger alone, which it reads to prove."""

    puf: PufDevice
    device_id: bytes
    keypair: KeyPair

    @classmethod
    def enroll(cls, puf: PufDevice, ca: CertificateAuthority, ledger: Ledger, rng,
               np_rng=None, params: ParamSet = DEFAULT_PARAMS) -> "Device":
        return cls(puf, *register_device(puf, ca, ledger, rng, np_rng, params))

    def build_auth_proof(self, ledger: Ledger, nonce: bytes, rng, np_rng=None) -> bytes:
        """Read the device's record from the ledger, regenerate the
        responses to its challenges, and build the authentication proof
        as wire bytes.  A device missing from this ledger gets its
        ``KeyError``, and a stored record that does not load its
        :class:`RecordError`."""
        stored = ledger.load_device(self.device_id)
        responses = puf_respond(self.puf, stored.challenges, eval_rng=np_rng)
        return self.prove_auth(stored, responses, nonce, rng)

    def prove_auth(self, stored: StoredDevice, responses, nonce: bytes, rng) -> bytes:
        """The authentication proof over the PUF responses for the
        statement at the stored epoch, as wire bytes."""
        witness = zkp.AuthWitness(sk=self.keypair.sk, response_scalar=response_scalar(responses))
        return zkp.auth_prove_corrected(stored.auth_statement(nonce), witness, rng).to_bytes()

    def build_tx_submit(self, ledger: Ledger, payload: bytes, rng) -> TransactionRecord:
        """Sign and prove ``payload`` as the device's next reading, under
        the nonce the submit chaincode accepts for it on ``ledger``."""
        nonce = submit_nonce(ledger.next_seq(self.device_id))
        statement = zkp.TxStatement(
            device_id=self.device_id,
            pk=self.keypair.pk,
            payload_digest=hashlib.sha256(payload).digest(),
            tx_nonce=nonce,
        )
        proof = zkp.tx_prove_corrected(statement, self.keypair.sk, rng).to_bytes()
        signature = zkp.sign(self.keypair.sk, payload).to_bytes()
        return TransactionRecord(
            payload=payload,
            device_id=self.device_id,
            signature=signature,
            proof=proof,
            chaincode="submit",
            nonce=nonce,
        )


class Verifier:
    """The front end between devices and the ledger's chaincodes.  It
    keeps no per-device memory: a session's nonce is read from ledger
    state, and the chaincode a request is forwarded to decides it."""

    def __init__(self, ledger: Ledger, rng):
        self.ledger = ledger
        self.rng = rng

    def begin_session(self, device_id: bytes) -> Session:
        """Open a session at the device's current epoch, with the nonce
        the rotate chaincode accepts there.  An id that does not load as
        a registered device gets epoch -1 and an empty nonce; the
        chaincode refuses any answer to it."""
        try:
            epoch = self.ledger.load_device(device_id).epoch
            nonce = rotate_nonce(epoch)
        except (KeyError, RecordError):
            epoch, nonce = -1, b""
        return Session(self.rng.getrandbits(64).to_bytes(8, "big"), device_id, nonce, epoch)

    def handle_auth_request(self, data: bytes) -> AuthDecision:
        """Forward an authentication request to the rotate chaincode,
        which checks its nonce and proof; its reason is the decision."""
        try:
            msg = decode_message(data)
        except WireError:
            return AuthDecision(False, "malformed")
        if not isinstance(msg, AuthRequest):
            return AuthDecision(False, "malformed")
        result = rotate_challenges(self.ledger, msg.device_id, msg.nonce, msg.proof)
        return AuthDecision(bool(result), "ok" if result else result.reason)

    def handle_tx_submit(self, data: bytes) -> TxDecision:
        """Forward a transaction to the ledger's submit chaincode, which
        decides whether the device may submit.  A record naming another
        chaincode is malformed."""
        try:
            msg = decode_message(data)
        except WireError:
            return TxDecision(False, "malformed")
        if not isinstance(msg, TxSubmit) or msg.record.chaincode != "submit":
            return TxDecision(False, "malformed")
        result = self.ledger.invoke("submit", msg.record)
        return TxDecision(bool(result), result.reason)


# ---------------------------------------------------------------------------
# Protocol drivers
# ---------------------------------------------------------------------------

def _check_mode(mode: str) -> None:
    if mode != zkp.MODE_CORRECTED:
        raise ValueError(f"unknown mode {mode!r}: only {zkp.MODE_CORRECTED!r} runs end to end")


def run_authentication(device: Device, verifier: Verifier, ledger: Ledger, mode: str,
                       rng, np_rng=None, tamper: Optional[TamperHook] = None) -> Session:
    """Drive one authentication: session begin, proof build, decision.

    ``mode`` must be ``zkp.MODE_CORRECTED``.  ``tamper``, when given,
    may rewrite the request bytes in flight (the man-in-the-middle
    surface).
    """
    _check_mode(mode)
    session = verifier.begin_session(device.device_id)
    proof = device.build_auth_proof(ledger, session.nonce, rng, np_rng)
    request = AuthRequest(device.device_id, proof, session.nonce).to_bytes()
    return session.exchange(request, verifier.handle_auth_request, tamper)


def run_transaction(device: Device, verifier: Verifier, ledger: Ledger, payload: bytes,
                    mode: str, rng, tamper: Optional[TamperHook] = None) -> Session:
    """Drive one transaction submit through the verifier to the
    ledger's guarded submit chaincode.  ``mode`` must be ``zkp.MODE_CORRECTED``."""
    _check_mode(mode)
    session = Session(rng.getrandbits(64).to_bytes(8, "big"), device.device_id, b"", -1)
    submit = TxSubmit(device.build_tx_submit(ledger, payload, rng)).to_bytes()
    return session.exchange(submit, verifier.handle_tx_submit, tamper)

