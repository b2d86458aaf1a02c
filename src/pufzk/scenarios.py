"""Adversary scripts, attack suite, demo walkthrough, and transcript audit.

These are the scenario drivers behind the CLI: the attack suite runs
every adversary script at volume and summarises defence rates; the demo
produces a deterministic end-to-end transcript file; the audit runs the
demo again with the seed and preset a transcript's ``meta`` line
records and compares the two transcripts byte for byte.

The ``attack_*`` scripts receive public data only: ledger handles,
recorded transcripts, and identifiers.  None of them touch a device's
secret key, PUF weights, or responses (the one deliberate exception is
the stolen-key impersonation scenario, which takes an explicitly leaked
key as input to show that the PUF clause still blocks it).

Each scenario that sends attempts counts breaches by the one rule of
:func:`_attempts`; the flood, the interleaved sessions, the rng reset
and the pass-through control judge a whole run, each by its own rule.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass, field
from functools import partial
from itertools import cycle, islice, repeat
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import zkp
from .identity import CertificateAuthority, KeyPair, RegistrationError, register_device, response_scalar
from .ledger import (
    Ledger,
    StoredDevice,
    bootstrap,
    ledger_new,
    rotate_challenges,
    rotate_nonce,
    submit_nonce,
)
from .pairing import G1Element, G2Element, Scalar
from .params import DEFAULT_PARAMS, PRESETS, ParamSet
from .protocol import Device, Session, TamperHook, Verifier, run_authentication, run_transaction
from .puf import puf_new, puf_respond, responses_to_bytes
from .wire import AuthRequest, DeviceRecord, TransactionRecord, TxSubmit, decode_message

SUITE_NAMES = ("replay", "impersonate", "mitm", "tamper", "literal-defects")

# The largest trial-count scale: ten times the full suite.
MAX_SCALE = 10.0


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


@dataclass
class AttackSuiteReport:
    """Defence rates per adversary scenario plus the literal-mode
    defect demonstrations."""

    seed: int
    outcomes: List[AttackOutcome] = field(default_factory=list)
    literal_defects: Dict[str, bool] = field(default_factory=dict)

    @property
    def all_defended(self) -> bool:
        return all(o.defended for o in self.outcomes)

    @property
    def all_defects_reproduced(self) -> bool:
        return all(self.literal_defects.values()) if self.literal_defects else True

    def passed(self) -> bool:
        return self.all_defended and self.all_defects_reproduced

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "outcomes": [dataclasses.asdict(o) for o in self.outcomes],
            "literal_defects_reproduced": self.literal_defects,
            "all_defended": self.all_defended,
            "passed": self.passed(),
        }

    def to_text(self) -> str:
        lines = ["adversary suite results", f"  seed={self.seed}", ""]
        lines.append(f"  {'scenario':<26}{'attempts':>10}{'accepted':>10}  verdict")
        for o in self.outcomes:
            verdict = "DEFENDED" if o.defended else "BREACHED"
            lines.append(f"  {o.name:<26}{o.attempts:>10}{o.accepted:>10}  {verdict}")
        if self.literal_defects:
            lines.append("")
            lines.append("  literal-mode defect demonstrations:")
            for name, reproduced in self.literal_defects.items():
                lines.append(f"    {name}: {'reproduced' if reproduced else 'NOT REPRODUCED'}")
        lines.append("")
        lines.append(f"  overall: {'PASS' if self.passed() else 'FAIL'}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Adversary scripts and their one breach rule
# ---------------------------------------------------------------------------

def _attempts(name: str, ledger: Ledger,
              sends: Iterable[Callable[[], Tuple[bool, str]]]) -> AttackOutcome:
    """Run each of ``sends`` as one attempt and count the breaches.

    A breach is an accepted attempt, or one that moves the ledger's
    state digest or its height.  Each send runs before the next is
    drawn, so a generator of sends may commit set-up work, such as an
    honest session, between two attempts.  The detail joins the distinct
    reasons in order."""
    def state():
        return ledger.state_digest(), ledger.height

    attempts = breaches = 0
    reasons = []
    for send in sends:
        before = state()
        accepted, reason = send()
        attempts += 1
        breaches += int(accepted or state() != before)
        reasons.append(reason)
    return AttackOutcome(name, attempts, breaches, "; ".join(dict.fromkeys(reasons)))


def _delivered(handle, raw: bytes) -> Tuple[bool, str]:
    """``raw`` delivered to a verifier handler, and its decision."""
    decision = handle(raw)
    return decision.accept, decision.reason


def _invoked(ledger: Ledger, chaincode: str, record: TransactionRecord) -> Tuple[bool, str]:
    """``record`` sent straight to a chaincode, and its result."""
    result = ledger.invoke(chaincode, record)
    return result.committed, result.reason


def _tampered(device: Device, verifier: Verifier, ledger: Ledger, rng, np_rng,
              mutate: TamperHook) -> Tuple[bool, str]:
    """An honest authentication whose request ``mutate`` rewrites in flight."""
    session = run_authentication(device, verifier, ledger, zkp.MODE_CORRECTED, rng, np_rng,
                                 tamper=mutate)
    return session.accepted, session.reason


def _honest_auth(device: Device, verifier: Verifier, ledger: Ledger, rng, np_rng) -> Session:
    """An honest authentication, which the suite needs to commit."""
    session = run_authentication(device, verifier, ledger, zkp.MODE_CORRECTED, rng, np_rng)
    if not session.accepted:
        raise RuntimeError("honest session failed during suite setup")
    return session


def deliver_forged_proof(verifier: Verifier, stored: StoredDevice, prove) -> Tuple[bool, str]:
    """Deliver the corrected-mode proof that ``prove(statement)`` builds
    for a registered device's public record, at the record's stored
    epoch and under that epoch's nonce, which is public too, and return
    the decision as ``(accepted, reason)``."""
    nonce = rotate_nonce(stored.epoch)
    proof = prove(stored.auth_statement(nonce)).to_bytes()
    return _delivered(verifier.handle_auth_request,
                      AuthRequest(stored.record.device_id, proof, nonce).to_bytes())


def _replay(recorded: Session, verifier: Verifier, forge_current_nonce: bool) -> Tuple[bool, str]:
    """The one attempt of :func:`attack_replay`."""
    raw = recorded.auth_request_bytes()
    if raw is None:
        raise ValueError("recorded session has no authentication request")
    new_session = verifier.begin_session(recorded.device_id)
    if forge_current_nonce:
        msg = decode_message(raw)
        raw = AuthRequest(msg.device_id, msg.proof, new_session.nonce).to_bytes()
    return _delivered(verifier.handle_auth_request, raw)


def attack_replay(recorded: Session, verifier: Verifier, ledger: Ledger,
                  forge_current_nonce: bool = False) -> AttackOutcome:
    """Resend a recorded authentication request in a fresh session.

    With ``forge_current_nonce`` the adversary rewrites the message's
    nonce field to the new session's nonce (the proof inside still
    binds the old transcript)."""
    return _attempts("replay" + ("-forged-nonce" if forge_current_nonce else ""), ledger,
                     [partial(_replay, recorded, verifier, forge_current_nonce)])


def attack_impersonate(target_id: bytes, ledger: Ledger, verifier: Verifier, rng,
                       trials: int = 1, leaked_sk: Optional[Scalar] = None) -> AttackOutcome:
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

    return _attempts("impersonate" + ("-stolen-key" if leaked_sk is not None else ""), ledger,
                     repeat(lambda: deliver_forged_proof(verifier, stored, prove), trials))


def _clones(target_id: bytes, ledger: Ledger, verifier: Verifier, rng, clone_seeds: Iterable[int],
            params: ParamSet) -> Iterable[Callable[[], Tuple[bool, str]]]:
    """One attempt of :func:`attack_clone_device` per clone seed."""
    for clone_seed in clone_seeds:
        clone = puf_new(clone_seed, params.noise_ratio)
        stored = ledger.load_device(target_id)
        responses = puf_respond(clone, stored.challenges,
                                eval_rng=np.random.default_rng(clone_seed))
        yield lambda: deliver_forged_proof(verifier, stored, lambda statement: zkp.auth_prove_corrected(
            statement, zkp.AuthWitness(Scalar.random(rng), response_scalar(responses)), rng))


def attack_clone_device(target_id: bytes, ledger: Ledger, verifier: Verifier, rng,
                        clone_seed: int, params: ParamSet = DEFAULT_PARAMS) -> AttackOutcome:
    """Adversary with different physical hardware answers the target's
    public challenges and derives its witness from its own responses."""
    return _attempts("clone-device", ledger,
                     _clones(target_id, ledger, verifier, rng, [clone_seed], params))


def _simulator_replay(device: Device, verifier: Verifier, ledger: Ledger, rng,
                      trials: int) -> AttackOutcome:
    """Simulator transcripts (valid sigma equations, no witness) pushed
    through the real verifier under fresh nonces."""
    stored = ledger.load_device(device.device_id)
    return _attempts("simulator-replay", ledger, repeat(lambda: deliver_forged_proof(
        verifier, stored, lambda statement: zkp.simulate_auth_transcript(statement, rng)), trials))


def attack_mitm_bitflip(device: Device, verifier: Verifier, ledger: Ledger, rng,
                        np_rng=None, flips: int = 100) -> AttackOutcome:
    """Flip one random byte of the request in flight, many times."""
    def flip():
        position, mask = rng.randrange(0, 1 << 30), rng.randrange(1, 256)

        def mutate(raw: bytes) -> bytes:
            buf = bytearray(raw)
            buf[position % len(buf)] ^= mask
            return bytes(buf)

        return _tampered(device, verifier, ledger, rng, np_rng, mutate)

    return _attempts("mitm-bitflip", ledger, repeat(flip, flips))


def attack_swap_proofs(device_a: Device, device_b: Device, verifier: Verifier,
                       ledger: Ledger, rng, np_rng=None) -> AttackOutcome:
    """Deliver each of two concurrent sessions' proofs to the other."""
    sess_a = verifier.begin_session(device_a.device_id)
    sess_b = verifier.begin_session(device_b.device_id)
    proof_a = device_a.build_auth_proof(ledger, sess_a.nonce, rng, np_rng)
    proof_b = device_b.build_auth_proof(ledger, sess_b.nonce, rng, np_rng)
    swapped_a = AuthRequest(device_a.device_id, proof_b, sess_a.nonce).to_bytes()
    swapped_b = AuthRequest(device_b.device_id, proof_a, sess_b.nonce).to_bytes()
    return _attempts("mitm-swap", ledger, [partial(_delivered, verifier.handle_auth_request, raw)
                                           for raw in (swapped_a, swapped_b)])


def _perturb_proof_fields(device: Device, verifier: Verifier, ledger: Ledger, rng,
                          np_rng, rounds: int) -> AttackOutcome:
    """Target each proof field in turn: honest request intercepted in
    flight, one field perturbed, delivered.  All must be rejected."""
    replace = dataclasses.replace
    perturbations = (
        lambda p: replace(p, commit_sk=p.commit_sk * G2Element.generator()),
        lambda p: replace(p, commit_puf=p.commit_puf * G1Element.generator()),
        lambda p: replace(p, challenge=p.challenge + 1),
        lambda p: replace(p, resp_sk=p.resp_sk + 1),
        lambda p: replace(p, resp_puf=p.resp_puf + 1),
        lambda p: replace(p, session_nonce=bytes([p.session_nonce[0] ^ 1]) + p.session_nonce[1:]),
    )

    def mutate(perturb, raw: bytes) -> bytes:
        msg = decode_message(raw)
        proof = perturb(zkp.CorrectedAuthProof.from_bytes(msg.proof))
        return AuthRequest(msg.device_id, proof.to_bytes(), msg.nonce).to_bytes()

    return _attempts("perturb-proof-fields", ledger, [
        partial(_tampered, device, verifier, ledger, rng, np_rng, partial(mutate, perturb))
        for perturb in islice(cycle(perturbations), rounds)])


def attack_tamper_payload(device: Device, verifier: Verifier, ledger: Ledger, rng,
                          trials: int = 100) -> AttackOutcome:
    """Mutate one byte of the signed transaction payload in flight, many
    times, and send it to the submit chaincode."""
    if ledger.load_device(device.device_id).epoch < 1:
        raise RuntimeError("tamper scenario requires an authenticated device")

    def tampered(i: int) -> Tuple[bool, str]:
        payload = b"reading:" + i.to_bytes(4, "big") + rng.getrandbits(64).to_bytes(8, "big")
        record = device.build_tx_submit(ledger, payload, rng)
        mutated_payload = bytearray(record.payload)
        mutated_payload[rng.randrange(len(mutated_payload))] ^= rng.randrange(1, 256)
        return _invoked(ledger, "submit", dataclasses.replace(record, payload=bytes(mutated_payload)))

    return _attempts("tamper-payload", ledger, [partial(tampered, i) for i in range(trials)])


def _malformed_registrations(ledger: Ledger, ca: CertificateAuthority, rng) -> AttackOutcome:
    """Registrations the register chaincode must refuse, each a genuine
    CA-signed record with one field broken."""
    pk = KeyPair.generate(rng).pk
    device_id = rng.getrandbits(256).to_bytes(32, "big")
    commitment, challenges = G1Element.generator().to_bytes(), bytes(8 * 4)
    fingerprint = rng.getrandbits(256).to_bytes(32, "big")
    honest = ca.issue(device_id, pk, commitment, fingerprint, challenges)
    payloads = [dataclasses.replace(honest, **changes).to_bytes() for changes in (
        {"commitment_bytes": bytes(48), "challenge_bytes": bytes(9)},
        {"pk_bytes": b"\x80" + bytes(94) + b"\x02"},  # x = 2: on the twist, outside G2
        {"device_id": bytes(16)},
        {"fingerprint": bytes(31)},
        {"challenge_bytes": b""},
    )] + [b"garbage"]
    return _attempts("malformed-registration", ledger, [
        partial(_invoked, ledger, "register", TransactionRecord(payload, b"", b"", b"", "register", b""))
        for payload in payloads])


def _registration_rewrite(ledger: Ledger, ca: CertificateAuthority, rng, np_rng,
                          params: ParamSet) -> AttackOutcome:
    """An attacker who holds a device's leaked sk intercepts its honest
    registration and rewrites one field: the commitment, to a g1^rho' of
    their choosing that would let them pass both clauses of every later
    authentication, or the fingerprint, which would let the same
    physical device enroll again.  Or they rewrite the envelope around
    the record, which the log would replay forever: its device id, to
    one naming another device, or its signature, proof or nonce, to
    bytes that nothing reads."""
    def record(**changes):
        return lambda tx: dataclasses.replace(tx, payload=dataclasses.replace(
            DeviceRecord.from_bytes(tx.payload), **changes).to_bytes())

    rewrites = (
        record(commitment_bytes=(G1Element.generator() ** Scalar.random(rng)).to_bytes()),
        record(fingerprint=rng.getrandbits(256).to_bytes(32, "big")),
        lambda tx: dataclasses.replace(tx, device_id=bytes(16)),
        lambda tx: dataclasses.replace(tx, signature=b"junk"),
        lambda tx: dataclasses.replace(tx, proof=b"junk"),
        lambda tx: dataclasses.replace(tx, nonce=bytes(60_000)),
    )

    def register(rewrite) -> Tuple[bool, str]:
        intercepted = SimpleNamespace(invoke=lambda name, tx: ledger.invoke(name, rewrite(tx)))
        try:
            register_device(puf_new(rng.getrandbits(32), 0.0), ca, intercepted, rng, np_rng, params)
        except RegistrationError as exc:
            return False, str(exc)
        return True, "rewritten registration committed"

    return _attempts("registration-rewrite", ledger, [partial(register, r) for r in rewrites])


def _anonymous_rotations(device: Device, other: Device, honest: AuthRequest, ledger: Ledger,
                         rng, np_rng) -> AttackOutcome:
    """Rotations of the device's epoch sent straight to the rotate
    chaincode: an empty proof, garbage, another device's valid current
    proof, an honest authentication's committed rotation sent again, an
    honest fresh proof carrying a payload, and one under a nonce other
    than the rule's."""
    nonce = rotate_nonce(ledger.load_device(device.device_id).epoch)
    off_rule = rng.randbytes(zkp.NONCE_LEN)
    attempts = [  # (payload, proof, nonce)
        (b"", b"", nonce),
        (b"", rng.randbytes(zkp.CORRECTED_AUTH_PROOF_WIRE_BYTES), nonce),
        (b"", other.build_auth_proof(ledger, nonce, rng, np_rng), nonce),
        (b"", honest.proof, honest.nonce),
        (b"reading", device.build_auth_proof(ledger, nonce, rng, np_rng), nonce),
        (b"", device.build_auth_proof(ledger, off_rule, rng, np_rng), off_rule),
    ]
    return _attempts("anonymous-rotate", ledger, [
        partial(_invoked, ledger, "rotate",
                TransactionRecord(payload, device.device_id, b"", proof, "rotate", tx_nonce))
        for payload, proof, tx_nonce in attempts])


# Rounds in each flood scenario.
_FLOOD = 1024


def _session_flood(devices: Tuple[Device, ...], verifier: Verifier, ledger: Ledger, rng,
                   np_rng) -> AttackOutcome:
    """Open twice ``_FLOOD`` sessions across the registered devices,
    answering half of them with an empty proof.  The verifier keeps no
    per-device memory: a breach is a verifier attribute other than
    ``rng`` changed by the flood, or an honest session refused
    afterwards."""
    def attributes():
        return {name: repr(value) for name, value in vars(verifier).items() if name != "rng"}

    before = attributes()
    for i in range(_FLOOD):
        device_id = devices[i % len(devices)].device_id
        answered = verifier.begin_session(device_id)
        verifier.handle_auth_request(AuthRequest(device_id, b"", answered.nonce).to_bytes())
        verifier.begin_session(device_id)
    changed = sorted({name for name, _ in before.items() ^ attributes().items()})
    honest = run_authentication(devices[0], verifier, ledger, zkp.MODE_CORRECTED, rng, np_rng)
    breached = bool(changed) or not honest.accepted
    return AttackOutcome("session-flood", 2 * _FLOOD, int(breached),
                         f"verifier attributes changed: {', '.join(changed) or 'none'}; "
                         f"honest session: {honest.reason}")


def _interleaved_sessions(name: str, device: Device, stranger_ids: List[bytes],
                          verifier: Verifier, ledger: Ledger, rng, np_rng) -> AttackOutcome:
    """Open an honest session, then a stranger's session for each of
    ``stranger_ids``, then answer the honest one.  A breach is the
    honest answer refused: no one but the device may spoil its
    session, whether by crowding it out with unregistered ids or by
    opening one under its own id."""
    session = verifier.begin_session(device.device_id)
    for stranger_id in stranger_ids:
        verifier.begin_session(stranger_id)
    proof = device.build_auth_proof(ledger, session.nonce, rng, np_rng)
    decision = verifier.handle_auth_request(
        AuthRequest(device.device_id, proof, session.nonce).to_bytes())
    return AttackOutcome(name, len(stranger_ids), int(not decision.accept),
                         f"honest session: {decision.reason}")


def _leaked_key_submit(ca: CertificateAuthority, verifier: Verifier, ledger: Ledger, rng,
                       np_rng, params: ParamSet) -> AttackOutcome:
    """A freshly enrolled device that has never authenticated, or anyone
    holding its leaked sk, submits a signed and proved reading straight
    to the submit chaincode and through the verifier."""
    device = Device.enroll(puf_new(103, 0.0), ca, ledger, rng, np_rng, params)

    def direct():
        return _invoked(ledger, "submit", device.build_tx_submit(ledger, b"reading", rng))

    def through_verifier():
        session = run_transaction(device, verifier, ledger, b"reading", zkp.MODE_CORRECTED, rng)
        return session.accepted, session.reason

    return _attempts("leaked-key-submit", ledger, (direct, through_verifier))


def _rng_reset(ca: CertificateAuthority, verifier: Verifier, ledger: Ledger, rng, np_rng,
               params: ParamSet) -> AttackOutcome:
    """A device whose rng is restored to one snapshot before each of two
    runs, as a reboot or a VM snapshot restores it, authenticates twice
    and submits two readings.  An eavesdropper sees each request in
    flight, the committed ones on the ledger too.  Two proofs with one
    commitment and different challenges give sk = (s1 - s2)/(c1 - c2),
    and rho the same way.  A breach is sk or rho recovered, or a
    rotation or submit built from the recovered values that commits."""
    device = Device.enroll(puf_new(104, 0.0), ca, ledger, rng, np_rng, params)
    device_rng = random.Random(rng.getrandbits(64))
    snapshot = device_rng.getstate()

    def restored(run):
        device_rng.setstate(snapshot)
        return run()

    auths = [restored(lambda: run_authentication(device, verifier, ledger, zkp.MODE_CORRECTED,
                                                 device_rng, np_rng)) for _ in range(2)]
    submits = [restored(lambda: run_transaction(device, verifier, ledger, payload,
                                                zkp.MODE_CORRECTED, device_rng))
               for payload in (b"reading-1", b"reading-2")]
    auth_proofs = [zkp.CorrectedAuthProof.from_bytes(decode_message(s.transcript[0]).proof)
                   for s in auths]
    tx_proofs = [zkp.CorrectedTxProof.from_bytes(decode_message(s.transcript[0]).record.proof)
                 for s in submits]

    def solve(proofs, resp: str) -> Scalar:
        a, b = proofs
        if a.challenge == b.challenge:
            return Scalar(0)
        return (getattr(a, resp) - getattr(b, resp)) * (a.challenge - b.challenge).inverse()

    stored = ledger.load_device(device.device_id)
    sk, rho = solve(auth_proofs, "resp_sk"), solve(auth_proofs, "resp_puf")
    tx_sk = solve(tx_proofs, "resp_sk")
    nonce = rotate_nonce(stored.epoch)
    forged = zkp.auth_prove_corrected(stored.auth_statement(nonce), zkp.AuthWitness(sk, rho), rng)
    thief = Device(None, device.device_id, KeyPair(tx_sk, stored.pk))  # no PUF: submits only
    rotation = rotate_challenges(ledger, device.device_id, nonce, forged.to_bytes())
    submit = ledger.invoke("submit", thief.build_tx_submit(ledger, b"forged", rng))
    breaches = {
        "sk from rotations": G2Element.generator() ** sk == stored.pk,
        "rho from rotations": G1Element.generator() ** rho == stored.commitment,
        "forged rotation": rotation.committed,
        "sk from submits": G2Element.generator() ** tx_sk == stored.pk,
        "forged submit": submit.committed,
    }
    return AttackOutcome("rng-reset", len(breaches), sum(breaches.values()),
                         f"forged rotation: {rotation.reason}; forged submit: {submit.reason}")


def _mode_downgrade(device: Device, verifier: Verifier, ledger: Ledger, auth_proof: bytes,
                    rng) -> AttackOutcome:
    """A committed submit of the authenticated device, sent again
    through the verifier under the nonce the submit chaincode accepts
    next, with the payload and signature it carried and, each time, a
    proof of another kind: the
    printed scheme's identity forgery (S, 1, S), which verifies at every
    setup key, its public forgery, its honest transaction proof, and the
    device's valid authentication proof.  The signature covers the
    payload alone, so only the transaction proof binds the nonce."""
    sent = run_transaction(device, verifier, ledger, b"reading", zkp.MODE_CORRECTED, rng)
    if not sent.accepted:
        raise RuntimeError("honest submit failed during suite setup")
    record = decode_message(sent.transcript[0]).record
    witness_commit = G1Element.generator() ** Scalar.random(rng)
    proofs = [
        zkp.SigmaProof(witness_commit, G1Element.identity(), witness_commit).to_bytes(),
        zkp.forge_literal_proof(rng).to_bytes(),
        zkp.tx_prove_literal(record.payload, rng).to_bytes(),
        auth_proof,
    ]

    nonce = submit_nonce(ledger.next_seq(device.device_id))
    return _resent_submits("mode-downgrade", verifier, ledger, [
        dataclasses.replace(record, proof=proof, nonce=nonce) for proof in proofs])


def _mislabeled_submits(device: Device, verifier: Verifier, ledger: Ledger,
                        rng) -> AttackOutcome:
    """An honest submit of the authenticated device, sent through the
    verifier with its chaincode field relabelled to another chaincode's
    name, to no name and to a near miss."""
    record = device.build_tx_submit(ledger, b"reading", rng)
    return _resent_submits("mislabeled-submit", verifier, ledger, [
        dataclasses.replace(record, chaincode=name)
        for name in ("rotate", "register", "bootstrap", "", "sucmit")])


def _resent_submits(name: str, verifier: Verifier, ledger: Ledger,
                    records: List[TransactionRecord]) -> AttackOutcome:
    """Send each record through the verifier as a submit."""
    return _attempts(name, ledger, [partial(_delivered, verifier.handle_tx_submit,
                                            TxSubmit(record).to_bytes()) for record in records])


def _literal_defect_demos(device: Device, ledger: Ledger, setup: zkp.TrustSetup,
                          rng) -> Dict[str, bool]:
    """The printed scheme's defects, shown with its functions against
    two setups as a verifier knows them, the key without the trapdoor:
    the suite's, whose trapdoor is random, and one made with the
    trapdoor forced to 1.  The honest prover is the suite's device,
    answering its stored challenges with its PUF and key."""
    setup_one = zkp.TrustSetup(None, zkp.trust_setup(rng, forced_alpha=1).pk_setup)
    setup_rand = zkp.TrustSetup(None, setup.pk_setup)
    responses = responses_to_bytes(puf_respond(device.puf,
                                               ledger.load_device(device.device_id).challenges))
    recorded = zkp.auth_prove_literal(responses, device.keypair.sk, rng)
    witness_commit = G1Element.generator() ** Scalar.random(rng)
    return {
        "honest-accepted-at-alpha-1": zkp.auth_verify_literal(setup_one, recorded),
        "public-forgery-accepted-at-alpha-1":
            zkp.auth_verify_literal(setup_one, zkp.forge_literal_proof(rng)),
        # the verifier takes no session input: a recorded proof, sent
        # again, verifies again
        "replay-accepted": zkp.auth_verify_literal(
            setup_one, zkp.SigmaProof.from_bytes(recorded.to_bytes())),
        "honest-rejected-at-random-alpha": not zkp.auth_verify_literal(
            setup_rand, zkp.auth_prove_literal(responses, device.keypair.sk, rng)),
        "identity-forgery-accepted-at-random-alpha": zkp.auth_verify_literal(
            setup_rand, zkp.SigmaProof(witness_commit, G1Element.identity(), witness_commit)),
    }


def _scenario_rngs(seed: int, name: str) -> Tuple[random.Random, np.random.Generator]:
    """The random and numpy generators of one scenario, seeded by
    SHA-256 of the suite's seed and the scenario's name, so that no
    scenario's draws move another's."""
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    derived = int.from_bytes(digest[:8], "big")
    return random.Random(derived), np.random.default_rng(derived)


def run_attack_suite(seed: int = 0, params: ParamSet = DEFAULT_PARAMS,
                     suites: Optional[Tuple[str, ...]] = None,
                     scale: float = 1.0) -> AttackSuiteReport:
    """Run the adversary scripts and the literal-defect demonstrations.

    ``suites`` selects scenario groups (default: all); ``scale``, above
    0 and at most :data:`MAX_SCALE`, multiplies trial counts, and below
    1 shrinks them for quick runs while keeping every scenario
    exercised.  The set-up (the CA, the ledger, the verifier and two
    devices) draws from ``seed``; each scenario then draws from its own
    generators (:func:`_scenario_rngs`).
    """
    if not 0 < scale <= MAX_SCALE:
        raise ValueError(f"scale must be above 0 and at most {MAX_SCALE:g}, got {scale!r}")
    if suites is None:
        suites = SUITE_NAMES
    unknown = set(suites) - set(SUITE_NAMES)
    if unknown:
        raise ValueError(f"unknown suite selection: {sorted(unknown)}")

    def n(count: int) -> int:
        return max(1, int(count * scale))

    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    ca = CertificateAuthority(rng)
    setup = zkp.trust_setup(rng)
    ledger = ledger_new()
    bootstrap(ledger, setup.pk_setup, ca.pk)
    verifier = Verifier(ledger, rng)
    params = dataclasses.replace(params, noise_ratio=0.0)
    device = Device.enroll(puf_new(101, 0.0), ca, ledger, rng, np_rng, params)
    device_b = Device.enroll(puf_new(102, 0.0), ca, ledger, rng, np_rng, params)

    report = AttackSuiteReport(seed=seed)

    def scenario(name: str, run: Callable[..., AttackOutcome]) -> None:
        report.outcomes.append(run(*_scenario_rngs(seed, name)))

    if "replay" in suites:
        def replays(rng, np_rng):
            for _ in range(n(100)):
                honest = _honest_auth(device, verifier, ledger, rng, np_rng)
                yield partial(_replay, honest, verifier, False)

        scenario("replay", lambda rng, np_rng: _attempts("replay", ledger, replays(rng, np_rng)))
        scenario("replay-forged-nonce", lambda rng, np_rng: attack_replay(
            _honest_auth(device, verifier, ledger, rng, np_rng), verifier, ledger,
            forge_current_nonce=True))
        scenario("session-flood", partial(_session_flood, (device, device_b), verifier, ledger))
        scenario("session-eviction", lambda rng, np_rng: _interleaved_sessions(
            "session-eviction", device, [rng.randbytes(32) for _ in range(_FLOOD)],
            verifier, ledger, rng, np_rng))
        scenario("session-displacement", partial(
            _interleaved_sessions, "session-displacement", device, [device.device_id],
            verifier, ledger))

    if "impersonate" in suites:
        scenario("impersonate", lambda rng, _: attack_impersonate(
            device.device_id, ledger, verifier, rng, trials=n(400)))
        scenario("impersonate-stolen-key", lambda rng, _: attack_impersonate(
            device.device_id, ledger, verifier, rng, trials=n(100), leaked_sk=device.keypair.sk))
        scenario("clone-device", lambda rng, _: _attempts("clone-device", ledger, _clones(
            device.device_id, ledger, verifier, rng, range(7_000_000, 7_000_000 + n(100)), params)))
        scenario("simulator-replay", lambda rng, _: _simulator_replay(
            device, verifier, ledger, rng, n(100)))

    if "mitm" in suites:
        scenario("mitm-bitflip", lambda rng, np_rng: attack_mitm_bitflip(
            device, verifier, ledger, rng, np_rng, flips=n(100)))
        scenario("mitm-swap", partial(attack_swap_proofs, device, device_b, verifier, ledger))
        scenario("perturb-proof-fields", lambda rng, np_rng: _perturb_proof_fields(
            device, verifier, ledger, rng, np_rng, rounds=n(60)))

        def control(rng, np_rng):
            session = run_authentication(device, verifier, ledger, zkp.MODE_CORRECTED, rng, np_rng,
                                         tamper=lambda raw: raw)
            return AttackOutcome("pass-through-control", 1, 0 if session.accepted else 1,
                                 "honest session must still succeed")

        scenario("pass-through-control", control)

    if "tamper" in suites:
        auth = _honest_auth(device, verifier, ledger, *_scenario_rngs(seed, "tamper"))
        request = decode_message(auth.auth_request_bytes())
        scenario("tamper-payload", lambda rng, _: attack_tamper_payload(
            device, verifier, ledger, rng, trials=n(100)))
        scenario("malformed-registration", lambda rng, _: _malformed_registrations(ledger, ca, rng))
        scenario("registration-rewrite", lambda rng, np_rng: _registration_rewrite(
            ledger, ca, rng, np_rng, params))
        scenario("anonymous-rotate", partial(_anonymous_rotations, device, device_b, request, ledger))
        scenario("mode-downgrade", lambda rng, _: _mode_downgrade(
            device, verifier, ledger, request.proof, rng))
        scenario("leaked-key-submit", lambda rng, np_rng: _leaked_key_submit(
            ca, verifier, ledger, rng, np_rng, params))
        scenario("mislabeled-submit", lambda rng, _: _mislabeled_submits(device, verifier, ledger, rng))
        scenario("rng-reset", lambda rng, np_rng: _rng_reset(
            ca, verifier, ledger, rng, np_rng, params))

    if "literal-defects" in suites:
        report.literal_defects = _literal_defect_demos(
            device, ledger, setup, _scenario_rngs(seed, "literal-defects")[0])

    return report


# ---------------------------------------------------------------------------
# Demo and audit
# ---------------------------------------------------------------------------

_TRANSCRIPT_HEADER = "pufzk-transcript v1"


def run_demo(seed: int = 0, params: ParamSet = DEFAULT_PARAMS) -> Tuple[str, Dict]:
    """Deterministic walkthrough: enrollment, authentication, a
    committed transaction, a rejected replay, and chain verification.

    Returns (transcript text, summary dict).  Identical seeds produce
    byte-identical transcripts.
    """
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    ca = CertificateAuthority(rng)
    setup = zkp.trust_setup(rng)
    ledger = ledger_new()
    bootstrap(ledger, setup.pk_setup, ca.pk)
    verifier = Verifier(ledger, rng)

    device_a = Device.enroll(puf_new(seed * 7 + 1, params.noise_ratio), ca, ledger, rng, np_rng, params)
    device_b = Device.enroll(puf_new(seed * 7 + 2, params.noise_ratio), ca, ledger, rng, np_rng, params)

    sessions = []
    auth_a = run_authentication(device_a, verifier, ledger, zkp.MODE_CORRECTED, rng, np_rng)
    sessions.append(auth_a)
    tx_a = run_transaction(device_a, verifier, ledger, b"demo-reading-1", zkp.MODE_CORRECTED, rng)
    sessions.append(tx_a)
    # a man in the middle replays the first request in a new session
    replay = run_authentication(device_a, verifier, ledger, zkp.MODE_CORRECTED, rng, np_rng,
                                tamper=lambda raw: auth_a.auth_request_bytes())
    sessions.append(replay)
    auth_b = run_authentication(device_b, verifier, ledger, zkp.MODE_CORRECTED, rng, np_rng)
    sessions.append(auth_b)

    chain_ok = ledger.verify_chain()

    lines = [_TRANSCRIPT_HEADER]
    meta = {"seed": seed, "mode": zkp.MODE_CORRECTED, "params": params.name}
    lines.append("meta " + json.dumps(meta, sort_keys=True).encode().hex())
    lines.append("ledger " + ledger.export_log().hex())
    lines.append("state " + ledger.state_digest().hex())
    lines.append("head " + ledger.head_digest().hex())
    for session in sessions:
        header = (
            session.session_id
            + len(session.device_id).to_bytes(2, "big") + session.device_id
            + len(session.nonce).to_bytes(2, "big") + session.nonce
            + (session.epoch & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
        )
        lines.append("session " + header.hex())
        for raw in session.transcript:
            lines.append("msg " + raw.hex())
        outcome = bytes([1 if session.accepted else 0]) + session.reason.encode()
        lines.append("outcome " + outcome.hex())
    lines.append("chain " + (b"\x01" if chain_ok else b"\x00").hex())
    transcript = "\n".join(lines) + "\n"

    summary = {
        "devices": [device_a.device_id.hex(), device_b.device_id.hex()],
        "sessions": len(sessions),
        "accepted": [bool(s.accepted) for s in sessions],
        "replay_rejected": not replay.accepted,
        "chain_ok": chain_ok,
        "ledger_height": ledger.height,
        "state_digest": ledger.state_digest().hex(),
    }
    return transcript, summary


def audit_transcript(text: str) -> Tuple[bool, List[str]]:
    """Audit a demo transcript by running the demo again with the seed
    and preset its ``meta`` line records, and comparing the two
    transcripts line by line.

    The re-run's ledger verified every proof as it committed it, and its
    ``chain`` line records ``verify_chain``, so a transcript equal to it
    byte for byte carries all of those checks, and every byte, ``meta``
    included, is bound.  Each differing line is reported by number and
    by the kind of line the re-run has there."""
    lines = text.splitlines(keepends=True)
    if not lines or lines[0] != _TRANSCRIPT_HEADER + "\n":
        return False, ["not a transcript file"]
    kind, _, payload = "".join(lines[1:2]).partition(" ")
    try:
        meta = json.loads(bytes.fromhex(payload)) if kind == "meta" else {}
    except (ValueError, RecursionError):
        meta = {}
    seed, name = (meta.get("seed"), meta.get("params")) if isinstance(meta, dict) else (None, None)
    if type(seed) is not int or seed < 0 or not isinstance(name, str) or name not in PRESETS:
        return False, ["the meta line records no non-negative seed and preset"]
    expected = run_demo(seed, PRESETS[name])[0].splitlines(keepends=True)
    findings = [f"line {number}: {want.partition(' ')[0]} line differs from the re-run"
                for number, (got, want) in enumerate(zip(lines, expected), 1) if got != want]
    if len(lines) != len(expected):
        findings.append(f"{len(lines)} lines where the re-run has {len(expected)}")
    return not findings, findings or ["audit clean"]
