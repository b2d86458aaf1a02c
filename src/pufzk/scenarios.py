"""Adversary suite, demo walkthrough, and transcript audit.

These are the scenario drivers behind the CLI: the attack suite runs
every adversary script at volume and summarises defence rates; the demo
produces a deterministic end-to-end transcript file; the audit runs the
demo again with the seed and preset a transcript's ``meta`` line
records and compares the two transcripts byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import zkp
from .identity import CertificateAuthority, KeyPair, RegistrationError, register_device
from .ledger import Ledger, bootstrap, ledger_new
from .pairing import G1Element, G2Element, Scalar
from .params import DEFAULT_PARAMS, PRESETS, ParamSet
from .protocol import (
    AttackOutcome,
    Device,
    Verifier,
    attack_clone_device,
    attack_impersonate,
    attack_mitm_bitflip,
    attack_replay,
    attack_swap_proofs,
    attack_tamper_payload,
    deliver_forged_proof,
    run_authentication,
    run_transaction,
)
from .puf import puf_new, puf_respond, responses_to_bytes
from .wire import AuthRequest, DeviceRecord, TransactionRecord, TxSubmit, decode_message

SUITE_NAMES = ("replay", "impersonate", "mitm", "tamper", "literal-defects")

# The largest trial-count scale: ten times the full suite.
MAX_SCALE = 10.0


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


def _perturb_proof_fields(device: Device, verifier: Verifier, ledger: Ledger, rng,
                          np_rng, rounds: int) -> AttackOutcome:
    """Target each proof field in turn: honest request intercepted in
    flight, one field perturbed, delivered.  All must be rejected."""
    fields = ("commit_sk", "commit_puf", "challenge", "resp_sk", "resp_puf", "session_nonce")
    accepted = 0
    attempts = 0
    for i in range(rounds):
        target = fields[i % len(fields)]

        def mutate(raw: bytes, target=target) -> bytes:
            msg = decode_message(raw)
            proof = zkp.CorrectedAuthProof.from_bytes(msg.proof)
            if target == "commit_sk":
                proof = dataclasses.replace(proof, commit_sk=proof.commit_sk * G2Element.generator())
            elif target == "commit_puf":
                proof = dataclasses.replace(proof, commit_puf=proof.commit_puf * G1Element.generator())
            elif target == "challenge":
                proof = dataclasses.replace(proof, challenge=proof.challenge + 1)
            elif target == "resp_sk":
                proof = dataclasses.replace(proof, resp_sk=proof.resp_sk + 1)
            elif target == "resp_puf":
                proof = dataclasses.replace(proof, resp_puf=proof.resp_puf + 1)
            else:
                flipped = bytes([proof.session_nonce[0] ^ 1]) + proof.session_nonce[1:]
                proof = dataclasses.replace(proof, session_nonce=flipped)
            return AuthRequest(msg.device_id, proof.to_bytes(), msg.nonce).to_bytes()

        session = run_authentication(
            device, verifier, ledger, zkp.MODE_CORRECTED, rng, np_rng, tamper=mutate,
        )
        attempts += 1
        accepted += int(session.accepted)
    return AttackOutcome("perturb-proof-fields", attempts, accepted)


def _simulator_replay(device: Device, verifier: Verifier, ledger: Ledger, rng,
                      trials: int) -> AttackOutcome:
    """Simulator transcripts (valid sigma equations, no witness) pushed
    through the real verifier under fresh nonces."""
    stored = ledger.load_device(device.device_id)
    accepted = sum(
        deliver_forged_proof(verifier, stored,
                             lambda statement: zkp.simulate_auth_transcript(statement, rng)).accept
        for _ in range(trials))
    return AttackOutcome("simulator-replay", trials, accepted)


def _malformed_registrations(ledger: Ledger, ca: CertificateAuthority, rng) -> AttackOutcome:
    """Registrations the register chaincode must refuse, each a genuine
    CA-certified tuple with one field broken.  A breach is one that
    commits or moves the state digest or the height."""
    pk = KeyPair.generate(rng).pk
    device_id = rng.getrandbits(256).to_bytes(32, "big")
    commitment, challenges = G1Element.generator().to_bytes(), bytes(8 * 4)
    fingerprint = rng.getrandbits(256).to_bytes(32, "big")
    honest = DeviceRecord(device_id, pk.to_bytes(), commitment, fingerprint,
                          ca.issue(device_id, pk, commitment, fingerprint, challenges).to_bytes(),
                          challenges)
    payloads = [dataclasses.replace(honest, **changes).to_bytes() for changes in (
        {"commitment_bytes": bytes(48), "challenge_bytes": bytes(9)},
        {"pk_bytes": b"\x80" + bytes(94) + b"\x02"},  # x = 2: on the twist, outside G2
        {"device_id": bytes(16)},
        {"fingerprint": bytes(31)},
        {"challenge_bytes": b""},
    )] + [b"garbage"]
    accepted = 0
    for payload in payloads:
        before = (ledger.state_digest(), ledger.height)
        result = ledger.invoke("register", TransactionRecord(
            payload, b"", b"", b"", "register", rng.getrandbits(128).to_bytes(16, "big")))
        accepted += int(bool(result) or (ledger.state_digest(), ledger.height) != before)
    return AttackOutcome("malformed-registration", len(payloads), accepted, result.reason)


def _registration_rewrite(ledger: Ledger, ca: CertificateAuthority, rng, np_rng,
                          params: ParamSet) -> AttackOutcome:
    """An attacker who holds a device's leaked sk intercepts its honest
    registration and rewrites one field: the commitment, to a g1^rho' of
    their choosing that would let them pass both clauses of every later
    authentication, or the fingerprint, which would let the same
    physical device enroll again.  Or they rewrite the envelope around
    the record, which the log would replay forever: its device id, to
    one naming another device, or its signature or proof, to bytes that
    nothing reads.  A breach is a commit or any move of the state digest
    or the height."""
    def record(**changes):
        return lambda tx: dataclasses.replace(tx, payload=dataclasses.replace(
            DeviceRecord.from_bytes(tx.payload), **changes).to_bytes())

    rewrites = (
        record(commitment_bytes=(G1Element.generator() ** Scalar.random(rng)).to_bytes()),
        record(fingerprint=rng.getrandbits(256).to_bytes(32, "big")),
        lambda tx: dataclasses.replace(tx, device_id=bytes(16)),
        lambda tx: dataclasses.replace(tx, signature=b"junk"),
        lambda tx: dataclasses.replace(tx, proof=b"junk"),
    )
    breaches, reasons = 0, []
    for rewrite in rewrites:
        def intercept(name: str, tx: TransactionRecord, rewrite=rewrite):
            return ledger.invoke(name, rewrite(tx))

        before = (ledger.state_digest(), ledger.height)
        try:
            register_device(puf_new(rng.getrandbits(32), 0.0), ca,
                            SimpleNamespace(invoke=intercept), rng, np_rng, params)
        except RegistrationError as exc:
            breaches += int((ledger.state_digest(), ledger.height) != before)
            reasons.append(str(exc))
        else:
            breaches += 1
            reasons.append("rewritten registration committed")
    return AttackOutcome("registration-rewrite", len(rewrites), breaches,
                         "; ".join(dict.fromkeys(reasons)))


def _anonymous_rotations(device: Device, other: Device, honest: AuthRequest, ledger: Ledger,
                         rng, np_rng) -> AttackOutcome:
    """Rotations of the device's epoch sent straight to the rotate
    chaincode: an empty proof, garbage, another device's valid current
    proof, an honest authentication's committed rotation sent again and
    an honest fresh proof carrying a payload.  A breach is a commit or
    any move of the state digest, the height or the device's epoch."""
    def observed():
        return ledger.state_digest(), ledger.height, ledger.load_device(device.device_id).epoch

    nonce = rng.randbytes(zkp.NONCE_LEN)
    attempts = [  # (payload, proof, nonce)
        (b"", b"", nonce),
        (b"", rng.randbytes(zkp.CORRECTED_AUTH_PROOF_WIRE_BYTES), nonce),
        (b"", other.build_auth_proof(ledger, nonce, rng, np_rng), nonce),
        (b"", honest.proof, honest.nonce),
        (b"reading", device.build_auth_proof(ledger, nonce, rng, np_rng), nonce),
    ]
    breaches, reasons = 0, []
    for payload, proof, tx_nonce in attempts:
        before = observed()
        result = ledger.invoke("rotate", TransactionRecord(
            payload, device.device_id, b"", proof, "rotate", tx_nonce))
        breaches += int(bool(result) or observed() != before)
        reasons.append(result.reason)
    return AttackOutcome("anonymous-rotate", len(attempts), breaches,
                         "; ".join(dict.fromkeys(reasons)))


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
    to the submit chaincode and through the verifier.  A breach is a
    commit or any move of the state digest or the height."""
    device = Device.enroll(puf_new(103, 0.0), ca, ledger, rng, np_rng, params)

    def direct():
        result = ledger.invoke("submit", device.build_tx_submit(b"reading", rng))
        return result.committed, result.reason

    def through_verifier():
        session = run_transaction(device, verifier, ledger, b"reading", zkp.MODE_CORRECTED, rng)
        return session.accepted, session.reason

    breaches, reasons = 0, []
    for send in (direct, through_verifier):
        before = (ledger.state_digest(), ledger.height)
        accepted, reason = send()
        breaches += int(accepted or (ledger.state_digest(), ledger.height) != before)
        reasons.append(reason)
    return AttackOutcome("leaked-key-submit", 2, breaches, "; ".join(dict.fromkeys(reasons)))


def _mode_downgrade(device: Device, verifier: Verifier, ledger: Ledger, auth_proof: bytes,
                    rng) -> AttackOutcome:
    """A committed submit of the authenticated device, sent again
    through the verifier under fresh nonces with the payload and
    signature it carried and, each time, a proof of another kind: the
    printed scheme's identity forgery (S, 1, S), which verifies at every
    setup key, its public forgery, its honest transaction proof, and the
    device's valid authentication proof.  The signature covers the
    payload alone, so only the transaction proof binds the nonce.  A
    breach is a commit or any move of the state digest, the height or
    the device's data sequence number."""
    sent = run_transaction(device, verifier, ledger, b"reading", zkp.MODE_CORRECTED, rng)
    if not sent.accepted:
        raise RuntimeError("honest submit failed during suite setup")
    record = decode_message(sent.transcript[0]).record
    witness_commit = G1Element.generator() ** Scalar.random(rng)
    proofs = [
        zkp.SigmaProof(witness_commit, G1Element.identity(), witness_commit).to_bytes(),
        zkp.forge_literal_proof(rng).to_bytes(),
        zkp.tx_prove_literal(None, record.payload, rng).to_bytes(),
        auth_proof,
    ]

    return _resent_submits("mode-downgrade", device, verifier, ledger, [
        dataclasses.replace(record, proof=proof, nonce=rng.randbytes(zkp.NONCE_LEN))
        for proof in proofs])


def _mislabeled_submits(device: Device, verifier: Verifier, ledger: Ledger,
                        rng) -> AttackOutcome:
    """An honest submit of the authenticated device, sent through the
    verifier with its chaincode field relabelled to another chaincode's
    name, to no name and to a near miss."""
    record = device.build_tx_submit(b"reading", rng)
    return _resent_submits("mislabeled-submit", device, verifier, ledger, [
        dataclasses.replace(record, chaincode=name)
        for name in ("rotate", "register", "bootstrap", "", "sucmit")])


def _resent_submits(name: str, device: Device, verifier: Verifier, ledger: Ledger,
                    records: List[TransactionRecord]) -> AttackOutcome:
    """Send each record through the verifier as a submit.  A breach is
    an accept or any move of the state digest, the height or the
    device's data sequence number."""
    def observed():
        return ledger.state_digest(), ledger.height, ledger.get(f"dataseq/{device.device_id.hex()}")

    breaches, reasons = 0, []
    for record in records:
        before = observed()
        decision = verifier.handle_tx_submit(TxSubmit(record).to_bytes())
        breaches += int(decision.accept or observed() != before)
        reasons.append(decision.reason)
    return AttackOutcome(name, len(records), breaches, "; ".join(dict.fromkeys(reasons)))


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
    recorded = zkp.auth_prove_literal(None, responses, device.keypair.sk, rng)
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
            setup_rand, zkp.auth_prove_literal(None, responses, device.keypair.sk, rng)),
        "identity-forgery-accepted-at-random-alpha": zkp.auth_verify_literal(
            setup_rand, zkp.SigmaProof(witness_commit, G1Element.identity(), witness_commit)),
    }


def run_attack_suite(seed: int = 0, params: ParamSet = DEFAULT_PARAMS,
                     suites: Optional[Tuple[str, ...]] = None,
                     scale: float = 1.0) -> AttackSuiteReport:
    """Run the adversary scripts and the literal-defect demonstrations.

    ``suites`` selects scenario groups (default: all); ``scale``, above
    0 and at most :data:`MAX_SCALE`, multiplies trial counts, and below
    1 shrinks them for quick runs while keeping every scenario
    exercised.
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

    if "replay" in suites:
        replays = n(100)
        accepted = 0
        detail = ""
        for _ in range(replays):
            honest = run_authentication(device, verifier, ledger, zkp.MODE_CORRECTED, rng, np_rng)
            if not honest.accepted:
                raise RuntimeError("honest session failed during suite setup")
            outcome = attack_replay(honest, verifier, ledger)
            accepted += outcome.accepted
            detail = outcome.detail
        report.outcomes.append(AttackOutcome("replay", replays, accepted, detail))
        honest = run_authentication(device, verifier, ledger, zkp.MODE_CORRECTED, rng, np_rng)
        forged = attack_replay(honest, verifier, ledger, forge_current_nonce=True)
        report.outcomes.append(AttackOutcome("replay-forged-nonce", 1, forged.accepted, forged.detail))
        report.outcomes.append(_session_flood((device, device_b), verifier, ledger, rng, np_rng))
        report.outcomes.append(_interleaved_sessions(
            "session-eviction", device, [rng.randbytes(32) for _ in range(_FLOOD)],
            verifier, ledger, rng, np_rng))
        report.outcomes.append(_interleaved_sessions(
            "session-displacement", device, [device.device_id], verifier, ledger, rng, np_rng))

    if "impersonate" in suites:
        report.outcomes.append(
            attack_impersonate(device.device_id, ledger, verifier, rng, trials=n(400)))
        report.outcomes.append(
            attack_impersonate(device.device_id, ledger, verifier, rng, trials=n(100),
                               leaked_sk=device.keypair.sk))
        clone_accepted = 0
        clones = n(100)
        for i in range(clones):
            outcome = attack_clone_device(device.device_id, ledger, verifier, rng,
                                          clone_seed=7_000_000 + i, params=params)
            clone_accepted += outcome.accepted
        report.outcomes.append(AttackOutcome("clone-device", clones, clone_accepted))
        report.outcomes.append(_simulator_replay(device, verifier, ledger, rng, n(100)))

    if "mitm" in suites:
        report.outcomes.append(
            attack_mitm_bitflip(device, verifier, ledger, rng, np_rng, flips=n(100)))
        report.outcomes.append(attack_swap_proofs(device, device_b, verifier, ledger, rng, np_rng))
        report.outcomes.append(
            _perturb_proof_fields(device, verifier, ledger, rng, np_rng, rounds=n(60)))
        control = run_authentication(device, verifier, ledger, zkp.MODE_CORRECTED, rng, np_rng)
        report.outcomes.append(AttackOutcome(
            "pass-through-control", 1, 0 if control.accepted else 1,
            "honest session must still succeed"))

    if "tamper" in suites:
        auth = run_authentication(device, verifier, ledger, zkp.MODE_CORRECTED, rng, np_rng)
        if not auth.accepted:
            raise RuntimeError("honest session failed during suite setup")
        report.outcomes.append(attack_tamper_payload(device, verifier, ledger, rng, trials=n(100)))
        report.outcomes.append(_malformed_registrations(ledger, ca, rng))
        report.outcomes.append(_registration_rewrite(ledger, ca, rng, np_rng, params))
        request = decode_message(auth.auth_request_bytes())
        report.outcomes.append(_anonymous_rotations(device, device_b, request, ledger, rng, np_rng))
        report.outcomes.append(_mode_downgrade(device, verifier, ledger, request.proof, rng))
        report.outcomes.append(_leaked_key_submit(ca, verifier, ledger, rng, np_rng, params))
        report.outcomes.append(_mislabeled_submits(device, verifier, ledger, rng))

    if "literal-defects" in suites:
        report.literal_defects = _literal_defect_demos(device, ledger, setup, rng)

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
