"""Acceptance criteria, one test per criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -s`` to see
the lines as they complete.

Tolerances and trial counts are pinned here, not configurable: any
relaxation is a contract change.  The published prototype's absolute
timings are hardware-bound and appear only as report metadata (see
criterion 9); property thresholds stand in for them.
"""

import dataclasses
import json
import random
import time

import numpy as np
import pytest

from pufzk import zkp
from pufzk.identity import CertificateAuthority, response_scalar
from pufzk.ledger import Ledger, bootstrap, ledger_new
from pufzk.pairing import G1Element, G2Element, Scalar
from pufzk.params import ParamSet
from pufzk.protocol import Device, Verifier, run_authentication, run_transaction
from pufzk.puf import (
    fractional_hamming,
    generate_challenges,
    puf_new,
    puf_respond,
)
from pufzk.scenarios import attack_replay

NOISELESS = ParamSet("acceptance-noiseless", noise_ratio=0.0)


def _report(criterion: int, description: str, passed: bool, detail: str = "") -> None:
    marker = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{marker}] criterion {criterion}: {description}{suffix}")
    assert passed, f"criterion {criterion} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def stack():
    """One bootstrapped ecosystem shared by the protocol criteria."""
    rng = random.Random(0xACCE)
    np_rng = np.random.default_rng(0xACCE)
    ca = CertificateAuthority(rng)
    setup = zkp.trust_setup(rng)
    ledger = ledger_new()
    bootstrap(ledger, setup.pk_setup, ca.pk)
    verifier = Verifier(ledger, rng)
    device = Device.enroll(puf_new(0xD0, 0.0), ca, ledger, rng, np_rng, NOISELESS)
    # warm the generator tables so criterion timings measure the protocol
    zkp.sign(Scalar(2), b"warm")
    return {"rng": rng, "np_rng": np_rng, "ca": ca, "setup": setup,
            "ledger": ledger, "verifier": verifier, "device": device}


def test_criterion_1_corrected_completeness(stack):
    """1,000 honest enroll->auth cycles, all accepted, under 60 s."""
    rng, np_rng, ca = stack["rng"], stack["np_rng"], stack["ca"]
    ledger = ledger_new()
    bootstrap(ledger, stack["setup"].pk_setup, ca.pk)
    verifier = Verifier(ledger, rng)
    cycles = 1000
    started = time.perf_counter()
    accepted = 0
    for i in range(cycles):
        device = Device.enroll(puf_new(1_000_000 + i, 0.0), ca, ledger, rng, np_rng, NOISELESS)
        session = run_authentication(device, verifier, ledger, zkp.MODE_CORRECTED, rng, np_rng)
        accepted += int(session.accepted)
    elapsed = time.perf_counter() - started
    _report(
        1, "corrected-mode completeness: 1,000 honest enroll->auth cycles",
        accepted == cycles and elapsed < 60.0,
        f"{accepted}/{cycles} accepted in {elapsed:.1f} s (budget 60 s)",
    )


def test_criterion_2_corrected_soundness(stack):
    """No forgery among >= 1,000 attempts verifies."""
    rng = stack["rng"]
    device, ledger, verifier = stack["device"], stack["ledger"], stack["verifier"]
    record = ledger.load_device(device.device_id).record
    pk = G2Element.from_bytes(record.pk_bytes)
    commitment = G1Element.from_bytes(record.commitment_bytes)

    def fresh_statement():
        return zkp.AuthStatement(
            device_id=device.device_id,
            pk=pk,
            response_commitment=commitment,
            challenge_epoch=ledger.load_device(device.device_id).epoch,
            session_nonce=rng.getrandbits(128).to_bytes(16, "big"),
        )

    attempts = 0
    accepted = 0

    # random witnesses
    for _ in range(400):
        statement = fresh_statement()
        witness = zkp.AuthWitness(sk=Scalar.random(rng), response_scalar=Scalar.random(rng))
        proof = zkp.auth_prove_corrected(statement, witness, rng)
        accepted += int(zkp.auth_verify_corrected(statement, proof))
        attempts += 1

    # per-field perturbations of honest proofs
    statement = fresh_statement()
    honest_witness = zkp.AuthWitness(
        sk=device.keypair.sk,
        response_scalar=response_scalar(
            puf_respond(device.puf, ledger.load_device(device.device_id).challenges, 9)),
    )
    mutations = [
        lambda p: dataclasses.replace(p, resp_sk=p.resp_sk + 1),
        lambda p: dataclasses.replace(p, resp_puf=p.resp_puf + 1),
        lambda p: dataclasses.replace(p, challenge=p.challenge + 1),
        lambda p: dataclasses.replace(p, commit_sk=p.commit_sk * G2Element.generator()),
        lambda p: dataclasses.replace(p, commit_puf=p.commit_puf * G1Element.generator()),
    ]
    for k in range(500):
        proof = zkp.auth_prove_corrected(statement, honest_witness, rng)
        assert zkp.auth_verify_corrected(statement, proof)
        accepted += int(zkp.auth_verify_corrected(statement, mutations[k % 5](proof)))
        attempts += 1

    # simulator transcripts replayed under fresh nonces
    for _ in range(100):
        old = fresh_statement()
        simulated = zkp.simulate_auth_transcript(old, rng)
        fresh = dataclasses.replace(old, session_nonce=rng.getrandbits(128).to_bytes(16, "big"))
        accepted += int(zkp.auth_verify_corrected(fresh, simulated))
        # even against its own statement the Fiat-Shamir binding fails
        accepted += int(zkp.auth_verify_corrected(old, simulated))
        attempts += 2

    # protocol-level impersonation through the live verifier
    from pufzk.scenarios import attack_impersonate
    outcome = attack_impersonate(device.device_id, ledger, verifier, rng, trials=100)
    accepted += outcome.accepted
    attempts += outcome.attempts

    _report(
        2, "corrected-mode soundness: forgeries and perturbations all rejected",
        attempts >= 1000 and accepted == 0,
        f"0 required, got {accepted} accepted of {attempts} attempts",
    )


def test_criterion_3_literal_fidelity(stack):
    """Printed equations: alpha=1 accepts 100/100 honest proofs, random
    alpha rejects 100/100, and the public forgery tracks honest
    acceptance."""
    rng = stack["rng"]
    setup_one = zkp.trust_setup(rng, forced_alpha=1)
    setup_rand = zkp.trust_setup(rng)
    assert setup_rand.alpha.value != 1

    honest_at_one = sum(
        int(zkp.auth_verify_literal(
            setup_one,
            zkp.auth_prove_literal(bytes([i % 256]) * 32, Scalar.random(rng), rng)))
        for i in range(100)
    )
    honest_at_rand = sum(
        int(zkp.auth_verify_literal(
            setup_rand,
            zkp.auth_prove_literal(bytes([i % 256]) * 32, Scalar.random(rng), rng)))
        for i in range(100)
    )
    forged_at_one = sum(
        int(zkp.auth_verify_literal(setup_one, zkp.forge_literal_proof(rng))) for _ in range(20)
    )
    forged_at_rand = sum(
        int(zkp.auth_verify_literal(setup_rand, zkp.forge_literal_proof(rng))) for _ in range(20)
    )
    ok = (honest_at_one == 100 and honest_at_rand == 0
          and forged_at_one == 20 and forged_at_rand == 0)
    _report(
        3, "literal-mode fidelity: acceptance is exactly the alpha=1 predicate, "
           "and the public forgery is accepted whenever honest proofs are",
        ok,
        f"honest@1={honest_at_one}/100, honest@rand={honest_at_rand}/100, "
        f"forged@1={forged_at_one}/20, forged@rand={forged_at_rand}/20",
    )


def test_criterion_4_replay_resistance(stack):
    """100/100 replayed corrected-mode sessions rejected."""
    rng, np_rng = stack["rng"], stack["np_rng"]
    device, verifier, ledger = stack["device"], stack["verifier"], stack["ledger"]
    rejected = 0
    for _ in range(100):
        honest = run_authentication(device, verifier, ledger, zkp.MODE_CORRECTED, rng, np_rng)
        assert honest.accepted
        outcome = attack_replay(honest, verifier, ledger)
        rejected += int(outcome.defended)
    _report(4, "replay resistance under nonce freshness plus challenge rotation",
            rejected == 100, f"{rejected}/100 replays rejected")


def test_criterion_5_tamper_evidence(stack):
    """Single-byte transaction mutations all rejected with state digest
    unchanged; single-byte block mutations all detected."""
    rng, np_rng = stack["rng"], stack["np_rng"]
    device, verifier, ledger = stack["device"], stack["verifier"], stack["ledger"]
    auth = run_authentication(device, verifier, ledger, zkp.MODE_CORRECTED, rng, np_rng)
    assert auth.accepted

    tx_rejected = 0
    digests_intact = 0
    for i in range(100):
        payload = b"tamper-probe-" + i.to_bytes(2, "big")
        record = device.build_tx_submit(ledger, payload, rng)
        mutated = bytearray(record.payload)
        mutated[rng.randrange(len(mutated))] ^= rng.randrange(1, 256)
        tampered = dataclasses.replace(record, payload=bytes(mutated))
        before = ledger.state_digest()
        result = ledger.invoke("submit", tampered)
        tx_rejected += int(not result)
        digests_intact += int(ledger.state_digest() == before)

    block_detected = 0
    for _ in range(100):
        height = rng.randrange(0, ledger.height + 1)
        offset = rng.randrange(0, len(ledger.block_bytes(height)))
        mask = rng.randrange(1, 256)
        ledger.corrupt_block_byte(height, offset, mask)
        block_detected += int(not ledger.verify_chain())
        ledger.corrupt_block_byte(height, offset, mask)
    assert ledger.verify_chain()

    _report(
        5, "tamper evidence: mutated transactions rejected, mutated blocks detected",
        tx_rejected == 100 and digests_intact == 100 and block_detected == 100,
        f"tx {tx_rejected}/100 rejected, digests intact {digests_intact}/100, "
        f"blocks {block_detected}/100 detected",
    )


def test_criterion_6_puf_quality():
    """Uniqueness in [0.45, 0.55] over 50 device pairs; stabilised
    intra-device error at most 1% over 200 regenerations."""
    challenges = generate_challenges(np.random.default_rng(61), 256)
    distances = []
    for k in range(50):
        a = puf_respond(puf_new(600_000 + 2 * k, 0.0), challenges, 1)
        b = puf_respond(puf_new(600_001 + 2 * k, 0.0), challenges, 1)
        distances.append(fractional_hamming(a, b))
    uniqueness = float(np.mean(distances))

    device = puf_new(616, 0.05)
    rng = np.random.default_rng(62)
    enrolled = puf_respond(device, challenges, 9, rng)
    worst = max(
        fractional_hamming(enrolled, puf_respond(device, challenges, 9, np.random.default_rng(63_000 + k)))
        for k in range(200)
    )
    _report(
        6, "PUF quality: inter-device uniqueness and post-majority reliability",
        0.45 <= uniqueness <= 0.55 and worst <= 0.01,
        f"uniqueness mean {uniqueness:.4f} in [0.45, 0.55]; worst intra-device "
        f"error {worst:.4f} <= 0.01",
    )


def test_criterion_7_proof_size_constancy(stack):
    """Zero variance in serialized proof size across 50 proofs per
    mode; sizes pinned as regression constants."""
    rng = stack["rng"]
    literal_sizes = {
        len(zkp.auth_prove_literal(bytes([i]), Scalar.random(rng), rng).to_bytes())
        for i in range(50)
    }
    corrected_sizes = set()
    for i in range(50):
        sk, rho = Scalar.random(rng), Scalar.random(rng)
        statement = zkp.AuthStatement(
            device_id=rng.getrandbits(256).to_bytes(32, "big"),
            pk=G2Element.generator() ** sk,
            response_commitment=G1Element.generator() ** rho,
            challenge_epoch=i,
            session_nonce=rng.getrandbits(128).to_bytes(16, "big"),
        )
        proof = zkp.auth_prove_corrected(statement, zkp.AuthWitness(sk, rho), rng)
        corrected_sizes.add(len(proof.to_bytes()))
    ok = (literal_sizes == {zkp.LITERAL_PROOF_WIRE_BYTES}
          and corrected_sizes == {zkp.CORRECTED_AUTH_PROOF_WIRE_BYTES})
    _report(
        7, "proof-size constancy and pinned regression constants",
        ok,
        f"literal {sorted(literal_sizes)} B (pinned {zkp.LITERAL_PROOF_WIRE_BYTES}), "
        f"corrected {sorted(corrected_sizes)} B (pinned {zkp.CORRECTED_AUTH_PROOF_WIRE_BYTES}); "
        f"published prototype reference 805 B, non-binding",
    )


def test_criterion_8_ledger_determinism(stack):
    """Replaying any committed log reproduces the final state digest,
    bit-exact, across 10 randomized scenario runs."""
    ca = stack["ca"]
    reproduced = 0
    for scenario in range(10):
        rng = random.Random(8000 + scenario)
        np_rng = np.random.default_rng(8000 + scenario)
        setup = zkp.trust_setup(rng)
        ledger = ledger_new()
        bootstrap(ledger, setup.pk_setup, ca.pk)
        verifier = Verifier(ledger, rng)
        devices = [
            Device.enroll(puf_new(880_000 + scenario * 10 + d, 0.0), ca, ledger, rng, np_rng, NOISELESS)
            for d in range(rng.randrange(2, 4))
        ]
        for device in devices:
            for _ in range(rng.randrange(1, 3)):
                session = run_authentication(device, verifier, ledger,
                                             zkp.MODE_CORRECTED, rng, np_rng)
                assert session.accepted
            for t in range(rng.randrange(1, 3)):
                tx = run_transaction(device, verifier, ledger,
                                     b"scenario-" + bytes([scenario, t]),
                                     zkp.MODE_CORRECTED, rng)
                assert tx.accepted
        replayed = Ledger.replay_log(ledger.export_log())
        reproduced += int(
            replayed.state_digest() == ledger.state_digest()
            and replayed.head_digest() == ledger.head_digest()
        )
    _report(8, "ledger determinism: log replay reproduces state digests",
            reproduced == 10, f"{reproduced}/10 scenarios bit-exact")


def test_criterion_9_benchmark_harness(tmp_path):
    """cmd_bench at 50 iterations emits a schema-valid report whose
    end-to-end time dominates each stage; the published reference
    numbers ride along as metadata only."""
    from pufzk.bench import validate_report
    from pufzk.cli import EXIT_OK, main

    out = tmp_path / "bench50.json"
    code = main(["bench", "--iterations", "50", "--seed", "90",
                 "--out", str(out), "--params", "noiseless"])
    report = json.loads(out.read_text())
    problems = validate_report(report)
    dominated = all(
        rec["end_to_end_ms"] >= max(
            rec["challenge_gen_ms"], rec["puf_response_ms"], rec["input_prep_ms"],
            rec["proof_gen_ms"], rec["verify_ms"])
        for rec in report["records"]
    )
    ref = report["reference_baseline"]
    metadata_only = (
        ref["trust_setup_ms"] == 1415.60
        and ref["end_to_end_ms"] == 2800.0
        and "trust_setup_ms" not in report["aggregates"]
    )
    _report(
        9, "benchmark harness: 50-iteration schema-valid report",
        code == EXIT_OK and not problems and dominated and metadata_only
        and len(report["records"]) == 50,
        f"exit={code}, violations={problems or 'none'}, "
        f"reference values metadata-only={metadata_only}",
    )
