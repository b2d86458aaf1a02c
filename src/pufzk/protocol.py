"""Authentication and transaction protocols plus the adversary harness.

Message flow is in-process but wire-faithful: every exchange is encoded
to the tagged byte format before the receiving side parses it, so a
man-in-the-middle mutator operates on real message bytes.

The verifier role is distinct from the ledger: it mints one 16-byte
nonce per session, checks proofs against ledger state only, and on
success advances the device's challenge epoch.  Corrected-mode decisions
enforce nonce freshness and the current challenge epoch; literal mode
verifies exactly the printed pairing equation and binds no session
data, which is precisely the replay defect the attack suite
demonstrates.

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
from .identity import (
    CertificateAuthority,
    DeviceIdentity,
    KeyPair,
    register_device,
    response_scalar,
)
from .ledger import KEY_SETUP_PK, Ledger, rotate_challenges
from .pairing import DecodeError, G2Element, Scalar
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

NONCE_LEN = 16

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

    def auth_request_bytes(self) -> Optional[bytes]:
        from .wire import TAG_AUTH_REQUEST
        for raw in self.transcript:
            if raw and raw[0] == TAG_AUTH_REQUEST:
                return raw
        return None


@dataclass
class Device:
    """A device actor: the physical PUF, its keys, and its identity."""

    puf: PufDevice
    identity: DeviceIdentity
    keypair: KeyPair
    params: ParamSet = DEFAULT_PARAMS

    @classmethod
    def enroll(cls, puf: PufDevice, ca: CertificateAuthority, ledger: Ledger, rng,
               np_rng=None, params: ParamSet = DEFAULT_PARAMS) -> "Device":
        identity, keypair = register_device(puf, ca, ledger, rng, np_rng, params)
        return cls(puf=puf, identity=identity, keypair=keypair, params=params)

    @property
    def device_id(self) -> bytes:
        return self.identity.device_id

    def build_auth_proof(self, ledger: Ledger, nonce: bytes, mode: str, rng,
                         np_rng=None, setup: Optional[zkp.TrustSetup] = None) -> bytes:
        """Fetch challenges from the ledger, regenerate responses, and
        build the mode's proof as wire bytes.

        A device missing from this ledger (deregistered, or talking to
        the wrong network) falls back to its local identity copy; the
        verifier then rejects the request as unregistered."""
        try:
            _, challenges, _ = ledger.query_identity(self.device_id)
            epoch = ledger.query_subset(self.device_id).epoch
        except KeyError:
            challenges = self.identity.challenge_set
            epoch = 0
        responses = puf_respond(self.puf, challenges, self.params.repetitions, np_rng)
        if mode == zkp.MODE_CORRECTED:
            statement = zkp.AuthStatement(
                device_id=self.device_id,
                pk=self.identity.pk,
                response_commitment=self.identity.response_commitment,
                challenge_epoch=epoch,
                session_nonce=nonce,
            )
            witness = zkp.AuthWitness(sk=self.keypair.sk, response_scalar=response_scalar(responses))
            return zkp.auth_prove_corrected(statement, witness, rng).to_bytes()
        if mode == zkp.MODE_LITERAL:
            from .puf import responses_to_bytes
            return zkp.auth_prove_literal(
                setup, responses_to_bytes(responses), self.keypair.sk, rng,
            ).to_bytes()
        raise ValueError(f"unknown mode {mode!r}")

    def build_tx_submit(self, payload: bytes, mode: str, rng,
                        setup: Optional[zkp.TrustSetup] = None) -> TransactionRecord:
        nonce = rng.getrandbits(128).to_bytes(NONCE_LEN, "big")
        if mode == zkp.MODE_CORRECTED:
            statement = zkp.TxStatement(
                device_id=self.device_id,
                pk=self.identity.pk,
                payload_digest=hashlib.sha256(payload).digest(),
                tx_nonce=nonce,
            )
            proof = zkp.tx_prove_corrected(statement, self.keypair.sk, rng).to_bytes()
        elif mode == zkp.MODE_LITERAL:
            proof = zkp.tx_prove_literal(setup, payload, rng).to_bytes()
        else:
            raise ValueError(f"unknown mode {mode!r}")
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
    """Session management and proof verification against ledger state."""

    def __init__(self, ledger: Ledger, rng):
        self.ledger = ledger
        self.rng = rng
        self._open: dict = {}         # nonce -> Session
        self._consumed: set = set()   # nonces with a delivered decision
        self._authenticated: dict = {}  # device_id -> session_id

    def begin_session(self, device_id: bytes) -> Session:
        nonce = self.rng.getrandbits(128).to_bytes(NONCE_LEN, "big")
        try:
            epoch = self.ledger.query_subset(device_id).epoch
        except KeyError:
            epoch = -1
        session = Session(
            session_id=self.rng.getrandbits(64).to_bytes(8, "big"),
            device_id=device_id,
            nonce=nonce,
            epoch=epoch,
        )
        self._open[nonce] = session
        return session

    def is_authenticated(self, device_id: bytes) -> bool:
        return device_id in self._authenticated

    def handle_auth_request(self, data: bytes, mode: str) -> AuthDecision:
        """Parse and decide one authentication request."""
        try:
            msg = decode_message(data)
        except WireError:
            return AuthDecision(False, "malformed")
        if not isinstance(msg, AuthRequest):
            return AuthDecision(False, "malformed")
        if mode == zkp.MODE_LITERAL:
            return self._decide_literal(msg)
        if mode == zkp.MODE_CORRECTED:
            return self._decide_corrected(msg)
        return AuthDecision(False, f"unknown mode {mode!r}")

    def _decide_literal(self, msg: AuthRequest) -> AuthDecision:
        # The printed scheme carries no session data: verify the pairing
        # equation against the published setup key, nothing else.
        try:
            self.ledger.query_device_record(msg.device_id)
        except KeyError:
            return AuthDecision(False, "unregistered")
        try:
            proof = zkp.SigmaProof.from_bytes(msg.proof)
        except DecodeError:
            return AuthDecision(False, "malformed")
        try:
            setup_pk = G2Element.from_bytes(self.ledger.get_state(KEY_SETUP_PK))
        except KeyError:
            return AuthDecision(False, "no trust setup on ledger")
        setup = zkp.TrustSetup(alpha=None, pk_setup=setup_pk, setup_ms=0.0)
        if zkp.auth_verify_literal(setup, proof):
            self._note_success(msg)
            return AuthDecision(True, "ok")
        return AuthDecision(False, "proof invalid")

    def _decide_corrected(self, msg: AuthRequest) -> AuthDecision:
        session = self._open.get(msg.nonce)
        if session is None:
            reason = "stale nonce" if msg.nonce in self._consumed else "unknown nonce"
            return AuthDecision(False, reason)
        if session.device_id != msg.device_id:
            self._consume(msg.nonce)
            return AuthDecision(False, "device does not match session")
        try:
            record = self.ledger.query_device_record(msg.device_id)
        except KeyError:
            self._consume(msg.nonce)
            return AuthDecision(False, "unregistered")
        current_epoch = self.ledger.query_subset(msg.device_id).epoch
        if session.epoch != current_epoch:
            self._consume(msg.nonce)
            return AuthDecision(False, "challenge epoch advanced")
        try:
            proof = zkp.CorrectedAuthProof.from_bytes(msg.proof)
        except DecodeError:
            self._consume(msg.nonce)
            return AuthDecision(False, "malformed")
        from .pairing import G1Element
        statement = zkp.AuthStatement(
            device_id=msg.device_id,
            pk=G2Element.from_bytes(record.pk_bytes),
            response_commitment=G1Element.from_bytes(record.commitment_bytes),
            challenge_epoch=current_epoch,
            session_nonce=session.nonce,
        )
        ok = zkp.auth_verify_corrected(statement, proof)
        self._consume(msg.nonce)
        if not ok:
            return AuthDecision(False, "proof invalid")
        self._note_success(msg)
        rotate_challenges(self.ledger, msg.device_id, self.rng)
        return AuthDecision(True, "ok")

    def _consume(self, nonce: bytes) -> None:
        self._open.pop(nonce, None)
        self._consumed.add(nonce)

    def _note_success(self, msg: AuthRequest) -> None:
        self._authenticated[msg.device_id] = msg.nonce

    def handle_tx_submit(self, data: bytes) -> TxDecision:
        """Gate and forward a transaction to the ledger chaincode."""
        try:
            msg = decode_message(data)
        except WireError:
            return TxDecision(False, "malformed")
        if not isinstance(msg, TxSubmit):
            return TxDecision(False, "malformed")
        record = msg.record
        if not self.is_authenticated(record.device_id):
            return TxDecision(False, "unauthenticated")
        result = self.ledger.invoke("submit", record)
        return TxDecision(bool(result), result.reason)


# ---------------------------------------------------------------------------
# Protocol drivers
# ---------------------------------------------------------------------------

def run_authentication(device: Device, verifier: Verifier, ledger: Ledger, mode: str,
                       rng, np_rng=None, setup: Optional[zkp.TrustSetup] = None,
                       tamper: Optional[TamperHook] = None) -> Session:
    """Drive one authentication: session begin, proof build, decision.

    ``tamper``, when given, may rewrite the request bytes in flight
    (the man-in-the-middle surface).
    """
    session = verifier.begin_session(device.device_id)
    proof_bytes = device.build_auth_proof(ledger, session.nonce, mode, rng, np_rng, setup)
    request = AuthRequest(device_id=device.device_id, proof=proof_bytes, nonce=session.nonce)
    raw = request.to_bytes()
    if tamper is not None:
        raw = tamper(raw)
    session.record(raw)
    decision = verifier.handle_auth_request(raw, mode)
    session.record(decision.to_bytes())
    session.accepted = decision.accept
    session.reason = decision.reason
    return session


def run_transaction(device: Device, verifier: Verifier, ledger: Ledger, payload: bytes,
                    mode: str, rng, setup: Optional[zkp.TrustSetup] = None,
                    tamper: Optional[TamperHook] = None) -> Session:
    """Drive one transaction submit through the verifier gate and the
    ledger's guarded chaincode."""
    session = Session(
        session_id=rng.getrandbits(64).to_bytes(8, "big"),
        device_id=device.device_id,
        nonce=b"",
        epoch=-1,
    )
    record = device.build_tx_submit(payload, mode, rng, setup)
    raw = TxSubmit(record).to_bytes()
    if tamper is not None:
        raw = tamper(raw)
    session.record(raw)
    decision = verifier.handle_tx_submit(raw)
    session.record(decision.to_bytes())
    session.accepted = decision.accept
    session.reason = decision.reason
    return session


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
                  mode: str = zkp.MODE_CORRECTED, forge_current_nonce: bool = False,
                  ) -> AttackOutcome:
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
    decision = verifier.handle_auth_request(raw, mode)
    return AttackOutcome(
        name="replay" + ("-forged-nonce" if forge_current_nonce else ""),
        attempts=1,
        accepted=int(decision.accept),
        detail=decision.reason,
    )


def attack_impersonate(target_id: bytes, ledger: Ledger, verifier: Verifier, rng,
                       trials: int = 1, leaked_sk: Optional[Scalar] = None,
                       ) -> AttackOutcome:
    """Try to authenticate as the target from public ledger data.

    Witnesses are random guesses; with ``leaked_sk`` the secret-key
    clause is satisfied but the PUF response clause still fails."""
    record = ledger.query_device_record(target_id)
    from .pairing import G1Element
    pk = G2Element.from_bytes(record.pk_bytes)
    commitment = G1Element.from_bytes(record.commitment_bytes)
    accepted = 0
    last_reason = ""
    for _ in range(trials):
        session = verifier.begin_session(target_id)
        statement = zkp.AuthStatement(
            device_id=target_id,
            pk=pk,
            response_commitment=commitment,
            challenge_epoch=session.epoch,
            session_nonce=session.nonce,
        )
        witness = zkp.AuthWitness(
            sk=leaked_sk if leaked_sk is not None else Scalar.random(rng),
            response_scalar=Scalar.random(rng),
        )
        proof = zkp.auth_prove_corrected(statement, witness, rng)
        raw = AuthRequest(target_id, proof.to_bytes(), session.nonce).to_bytes()
        decision = verifier.handle_auth_request(raw, zkp.MODE_CORRECTED)
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
    _, challenges, _ = ledger.query_identity(target_id)
    responses = puf_respond(clone, challenges, params.repetitions, np.random.default_rng(clone_seed))
    record = ledger.query_device_record(target_id)
    from .pairing import G1Element
    session = verifier.begin_session(target_id)
    statement = zkp.AuthStatement(
        device_id=target_id,
        pk=G2Element.from_bytes(record.pk_bytes),
        response_commitment=G1Element.from_bytes(record.commitment_bytes),
        challenge_epoch=session.epoch,
        session_nonce=session.nonce,
    )
    witness = zkp.AuthWitness(sk=Scalar.random(rng), response_scalar=response_scalar(responses))
    proof = zkp.auth_prove_corrected(statement, witness, rng)
    raw = AuthRequest(target_id, proof.to_bytes(), session.nonce).to_bytes()
    decision = verifier.handle_auth_request(raw, zkp.MODE_CORRECTED)
    return AttackOutcome("clone-device", 1, int(decision.accept), decision.reason)


def attack_mitm_bitflip(device: Device, verifier: Verifier, ledger: Ledger, mode: str,
                        rng, np_rng=None, setup=None, flips: int = 100) -> AttackOutcome:
    """Flip one random byte of the request in flight, many times."""
    accepted = 0
    for _ in range(flips):
        position = rng.randrange(0, 1 << 30)
        mask = rng.randrange(1, 256)

        def mutate(raw: bytes, position=position, mask=mask) -> bytes:
            buf = bytearray(raw)
            buf[position % len(buf)] ^= mask
            return bytes(buf)

        session = run_authentication(device, verifier, ledger, mode, rng, np_rng, setup, tamper=mutate)
        accepted += int(session.accepted)
    return AttackOutcome("mitm-bitflip", flips, accepted)


def attack_swap_proofs(device_a: Device, device_b: Device, verifier: Verifier,
                       ledger: Ledger, rng, np_rng=None) -> AttackOutcome:
    """Deliver each of two concurrent sessions' proofs to the other."""
    sess_a = verifier.begin_session(device_a.device_id)
    sess_b = verifier.begin_session(device_b.device_id)
    proof_a = device_a.build_auth_proof(ledger, sess_a.nonce, zkp.MODE_CORRECTED, rng, np_rng)
    proof_b = device_b.build_auth_proof(ledger, sess_b.nonce, zkp.MODE_CORRECTED, rng, np_rng)
    swapped_a = AuthRequest(device_a.device_id, proof_b, sess_a.nonce).to_bytes()
    swapped_b = AuthRequest(device_b.device_id, proof_a, sess_b.nonce).to_bytes()
    accepted = 0
    for raw in (swapped_a, swapped_b):
        decision = verifier.handle_auth_request(raw, zkp.MODE_CORRECTED)
        accepted += int(decision.accept)
    return AttackOutcome("mitm-swap", 2, accepted)


def attack_tamper_payload(device: Device, verifier: Verifier, ledger: Ledger, rng,
                          trials: int = 100, mode: str = zkp.MODE_CORRECTED,
                          setup=None) -> AttackOutcome:
    """Mutate one byte of the signed transaction payload in flight and
    verify the ledger state digest never changes on rejection."""
    accepted = 0
    digest_changes = 0
    for i in range(trials):
        payload = b"reading:" + i.to_bytes(4, "big") + rng.getrandbits(64).to_bytes(8, "big")
        record = device.build_tx_submit(payload, mode, rng, setup)
        mutated_payload = bytearray(record.payload)
        mutated_payload[rng.randrange(len(mutated_payload))] ^= rng.randrange(1, 256)
        tampered = replace(record, payload=bytes(mutated_payload))
        before = ledger.state_digest()
        if not verifier.is_authenticated(device.device_id):
            raise RuntimeError("tamper scenario requires an authenticated device")
        result = ledger.invoke("submit", tampered)
        accepted += int(bool(result))
        digest_changes += int(ledger.state_digest() != before and not result)
    return AttackOutcome(
        "tamper-payload", trials, accepted,
        detail=f"state digest changed on {digest_changes} rejects",
    )
