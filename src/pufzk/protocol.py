"""Authentication and transaction protocols plus the adversary harness.

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
demonstrate its defects.

Adversary scripts receive public data only: ledger handles, recorded
transcripts, and identifiers.  None of them touch a device's secret
key, PUF weights, or responses (the one deliberate exception is the
stolen-key impersonation scenario, which takes an explicitly leaked key
as input to show that the PUF clause still blocks it).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

import numpy as np

from . import zkp
from .identity import CertificateAuthority, KeyPair, register_device, response_scalar
from .ledger import Ledger, RecordError, StoredDevice, rotate_challenges, rotate_nonce, submit_nonce
from .pairing import Scalar
from .params import DEFAULT_PARAMS, ParamSet
from .puf import PufDevice, puf_new, puf_respond
from .wire import (
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
        from .wire import TAG_AUTH_REQUEST
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


# ---------------------------------------------------------------------------
# Adversary scripts (public data and transcripts only)
# ---------------------------------------------------------------------------

@dataclass
class AttackOutcome:
    """Result of one adversary strategy."""

    name: str
    attempts: int
    accepted: int
    detail: str = ""

    @property
    def defended(self) -> bool:
        return self.accepted == 0


def attack_replay(recorded: Session, verifier: Verifier, ledger: Ledger,
                  forge_current_nonce: bool = False) -> AttackOutcome:
    """Resend a recorded authentication request in a fresh session.

    With ``forge_current_nonce`` the adversary rewrites the message's
    nonce field to the new session's nonce (the proof inside still
    binds the old transcript)."""
    raw = recorded.auth_request_bytes()
    if raw is None:
        raise ValueError("recorded session has no authentication request")
    new_session = verifier.begin_session(recorded.device_id)
    if forge_current_nonce:
        msg = decode_message(raw)
        raw = AuthRequest(msg.device_id, msg.proof, new_session.nonce).to_bytes()
    decision = verifier.handle_auth_request(raw)
    return AttackOutcome(
        name="replay" + ("-forged-nonce" if forge_current_nonce else ""),
        attempts=1,
        accepted=int(decision.accept),
        detail=decision.reason,
    )


def deliver_forged_proof(verifier: Verifier, stored: StoredDevice, prove) -> AuthDecision:
    """Deliver the corrected-mode proof that ``prove(statement)`` builds
    for a registered device's public record, at the record's stored
    epoch and under that epoch's nonce, which is public too."""
    nonce = rotate_nonce(stored.epoch)
    proof = prove(stored.auth_statement(nonce)).to_bytes()
    return verifier.handle_auth_request(AuthRequest(stored.record.device_id, proof, nonce).to_bytes())


def attack_impersonate(target_id: bytes, ledger: Ledger, verifier: Verifier, rng,
                       trials: int = 1, leaked_sk: Optional[Scalar] = None,
                       ) -> AttackOutcome:
    """Try to authenticate as the target from public ledger data.

    Witnesses are random guesses; with ``leaked_sk`` the secret-key
    clause is satisfied but the PUF response clause still fails."""
    stored = ledger.load_device(target_id)

    def prove(statement):
        witness = zkp.AuthWitness(
            sk=leaked_sk if leaked_sk is not None else Scalar.random(rng),
            response_scalar=Scalar.random(rng),
        )
        return zkp.auth_prove_corrected(statement, witness, rng)

    accepted = 0
    last_reason = ""
    for _ in range(trials):
        decision = deliver_forged_proof(verifier, stored, prove)
        accepted += int(decision.accept)
        last_reason = decision.reason
    return AttackOutcome(
        name="impersonate" + ("-stolen-key" if leaked_sk is not None else ""),
        attempts=trials,
        accepted=accepted,
        detail=last_reason,
    )


def attack_clone_device(target_id: bytes, ledger: Ledger, verifier: Verifier, rng,
                        clone_seed: int, params: ParamSet = DEFAULT_PARAMS,
                        ) -> AttackOutcome:
    """Adversary with different physical hardware answers the target's
    public challenges and derives its witness from its own responses."""
    clone = puf_new(clone_seed, params.noise_ratio)
    stored = ledger.load_device(target_id)
    responses = puf_respond(clone, stored.challenges, eval_rng=np.random.default_rng(clone_seed))
    decision = deliver_forged_proof(verifier, stored, lambda statement: zkp.auth_prove_corrected(
        statement, zkp.AuthWitness(Scalar.random(rng), response_scalar(responses)), rng))
    return AttackOutcome("clone-device", 1, int(decision.accept), decision.reason)


def attack_mitm_bitflip(device: Device, verifier: Verifier, ledger: Ledger, rng,
                        np_rng=None, flips: int = 100) -> AttackOutcome:
    """Flip one random byte of the request in flight, many times."""
    accepted = 0
    for _ in range(flips):
        position = rng.randrange(0, 1 << 30)
        mask = rng.randrange(1, 256)

        def mutate(raw: bytes, position=position, mask=mask) -> bytes:
            buf = bytearray(raw)
            buf[position % len(buf)] ^= mask
            return bytes(buf)

        session = run_authentication(device, verifier, ledger, zkp.MODE_CORRECTED, rng, np_rng,
                                     tamper=mutate)
        accepted += int(session.accepted)
    return AttackOutcome("mitm-bitflip", flips, accepted)


def attack_swap_proofs(device_a: Device, device_b: Device, verifier: Verifier,
                       ledger: Ledger, rng, np_rng=None) -> AttackOutcome:
    """Deliver each of two concurrent sessions' proofs to the other."""
    sess_a = verifier.begin_session(device_a.device_id)
    sess_b = verifier.begin_session(device_b.device_id)
    proof_a = device_a.build_auth_proof(ledger, sess_a.nonce, rng, np_rng)
    proof_b = device_b.build_auth_proof(ledger, sess_b.nonce, rng, np_rng)
    swapped_a = AuthRequest(device_a.device_id, proof_b, sess_a.nonce).to_bytes()
    swapped_b = AuthRequest(device_b.device_id, proof_a, sess_b.nonce).to_bytes()
    accepted = 0
    for raw in (swapped_a, swapped_b):
        decision = verifier.handle_auth_request(raw)
        accepted += int(decision.accept)
    return AttackOutcome("mitm-swap", 2, accepted)


def attack_tamper_payload(device: Device, verifier: Verifier, ledger: Ledger, rng,
                          trials: int = 100) -> AttackOutcome:
    """Mutate one byte of the signed transaction payload in flight and
    verify the ledger state digest never changes on rejection."""
    if ledger.load_device(device.device_id).epoch < 1:
        raise RuntimeError("tamper scenario requires an authenticated device")
    accepted = 0
    digest_changes = 0
    for i in range(trials):
        payload = b"reading:" + i.to_bytes(4, "big") + rng.getrandbits(64).to_bytes(8, "big")
        record = device.build_tx_submit(ledger, payload, rng)
        mutated_payload = bytearray(record.payload)
        mutated_payload[rng.randrange(len(mutated_payload))] ^= rng.randrange(1, 256)
        tampered = replace(record, payload=bytes(mutated_payload))
        before = ledger.state_digest()
        result = ledger.invoke("submit", tampered)
        accepted += int(bool(result))
        digest_changes += int(ledger.state_digest() != before and not result)
    return AttackOutcome(
        "tamper-payload", trials, accepted,
        detail=f"state digest changed on {digest_changes} rejects",
    )
