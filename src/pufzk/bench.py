"""Benchmark harness: staged timings over full protocol cycles.

Each iteration runs one complete enroll -> authenticate -> transact
cycle with a fresh device, bracketing the named stages with a monotonic
clock.  The authentication stages time the device's own steps, the
same code ``Device.build_auth_proof`` runs: ``input_prep_ms`` is the
ledger read of the device's record (``Ledger.load_device``),
``puf_response_ms`` the PUF evaluation, and ``proof_gen_ms`` the
statement building and proving (``Device.prove_auth``).  A warm-up
iteration runs first and is excluded from the records and aggregates.
One-time costs are timed on their own: ``precompute_ms`` is the build of
the two generator tables, which every later exponentiation of a
generator reads (near zero when this process built them earlier), and
``trust_setup_ms`` is the trust set-up alone.
The proof pipeline here has no circuit compilation or witness-file
generation, so those stages are listed as absent rather than reported
as zero.

Published reference measurements from the original prototype (obtained
on desktop hardware with a circuit-based proving pipeline) ride in the
report metadata for context only; they are never pass/fail gates.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter as _now
from dataclasses import asdict, dataclass, field
from typing import Dict, List

import numpy as np

from . import zkp
from .identity import CertificateAuthority, register_device
from .ledger import bootstrap, ledger_new
from .pairing import G1Element, G2Element
from .params import DEFAULT_PARAMS, ParamSet
from .protocol import Device, Verifier, run_transaction
from .puf import generate_stable_challenges, puf_new, puf_respond
from .wire import AuthRequest

SCHEMA_VERSION = 1

STAGE_FIELDS = (
    "challenge_gen_ms",
    "puf_response_ms",
    "input_prep_ms",
    "proof_gen_ms",
    "verify_ms",
    "end_to_end_ms",
)

# Stages of a circuit-based proving pipeline with no sigma-protocol
# analogue; reported as absent, never as zero.
ABSENT_STAGES = ("circuit_compile_ms", "witness_generation_ms")

# Reference prototype numbers (desktop hardware, circuit pipeline);
# context only.
REFERENCE_BASELINE = {
    "trust_setup_ms": 1415.60,
    "end_to_end_ms": 2800.0,
    "proof_size_bytes": 805,
    "note": "published prototype measurements; hardware-specific, non-binding",
}


@dataclass
class MetricsReport:
    """Schema-stable benchmark output; one record per iteration.  Its
    ``mode`` is always the corrected scheme, the only one that runs."""

    iterations: int
    seed: int
    params: Dict
    precompute_ms: float
    trust_setup_ms: float
    records: List[Dict] = field(default_factory=list)

    def aggregates(self) -> Dict[str, Dict[str, float]]:
        out = {}
        for name in STAGE_FIELDS + ("proof_size_bytes",):
            values = [r[name] for r in self.records]
            out[name] = {
                "mean": statistics.fmean(values),
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
            }
        return out

    def to_dict(self) -> Dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": zkp.MODE_CORRECTED,
            "iterations": self.iterations,
            "seed": self.seed,
            "params": self.params,
            "precompute_ms": self.precompute_ms,
            "trust_setup_ms": self.trust_setup_ms,
            "stages_absent": list(ABSENT_STAGES),
            "reference_baseline": dict(REFERENCE_BASELINE),
            "warmup_excluded": True,
            "records": self.records,
            "aggregates": self.aggregates(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [
            f"benchmark report (schema v{SCHEMA_VERSION})",
            f"  mode={zkp.MODE_CORRECTED} iterations={self.iterations} seed={self.seed} "
            f"params={self.params.get('name', '?')}",
            f"  precompute_ms={self.precompute_ms:.2f}  (generator tables, built once per process)",
            f"  trust_setup_ms={self.trust_setup_ms:.2f}"
            f"  (reference prototype: {REFERENCE_BASELINE['trust_setup_ms']} ms, non-binding)",
            f"  proof_size_bytes={self.records[0]['proof_size_bytes']}"
            f"  (reference prototype: {REFERENCE_BASELINE['proof_size_bytes']} B, non-binding)",
            f"  stages absent from this pipeline: {', '.join(ABSENT_STAGES)}",
            "",
            f"  {'stage':<18}{'mean':>10}{'median':>10}{'min':>10}{'max':>10}",
        ]
        for name, agg in self.aggregates().items():
            lines.append(
                f"  {name:<18}{agg['mean']:>10.3f}{agg['median']:>10.3f}"
                f"{agg['min']:>10.3f}{agg['max']:>10.3f}"
            )
        return "\n".join(lines) + "\n"


def validate_report(report: Dict) -> List[str]:
    """Schema and invariant check; returns a list of violations."""
    problems = []
    for key in ("schema_version", "mode", "iterations", "seed", "params",
                "precompute_ms", "trust_setup_ms", "stages_absent", "reference_baseline",
                "records", "aggregates"):
        if key not in report:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    if report["schema_version"] != SCHEMA_VERSION:
        problems.append("schema version mismatch")
    if len(report["records"]) != report["iterations"]:
        problems.append("record count does not match iterations")
    sizes = set()
    for i, rec in enumerate(report["records"]):
        for name in STAGE_FIELDS + ("proof_size_bytes",):
            if name not in rec:
                problems.append(f"record {i} missing {name}")
                break
        else:
            stage_max = max(rec[name] for name in STAGE_FIELDS[:-1])
            if rec["end_to_end_ms"] < stage_max:
                problems.append(f"record {i}: end_to_end_ms below a component stage")
            sizes.add(rec["proof_size_bytes"])
    if len(sizes) > 1:
        problems.append(f"proof size varies across iterations: {sorted(sizes)}")
    for absent in report["stages_absent"]:
        if any(absent in rec for rec in report["records"]):
            problems.append(f"absent stage {absent!r} present in records")
    return problems


def run_bench(iterations: int = 50, seed: int = 0,
              params: ParamSet = DEFAULT_PARAMS) -> MetricsReport:
    """Run timed enroll -> auth -> transact cycles and build the report."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    import random
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)

    t0 = _now()
    G1Element.generator() ** 1
    G2Element.generator() ** 1
    precompute_ms = (_now() - t0) * 1000.0

    t0 = _now()
    setup = zkp.trust_setup(rng)
    trust_setup_ms = (_now() - t0) * 1000.0

    ca = CertificateAuthority(rng)
    ledger = ledger_new()
    bootstrap(ledger, setup.pk_setup, ca.pk)
    verifier = Verifier(ledger, rng)

    records = []
    for iteration in range(iterations + 1):  # +1 warm-up
        puf = puf_new(seed * 1_000_003 + iteration, params.noise_ratio)
        cycle_start = _now()

        t = _now()
        screened = generate_stable_challenges(puf, np_rng, params.challenge_count)
        challenge_gen_ms = (_now() - t) * 1000.0

        device = Device(puf, *register_device(
            puf, ca, ledger, rng, np_rng, params, challenges=screened,
        ))

        session = verifier.begin_session(device.device_id)

        t = _now()
        stored = ledger.load_device(device.device_id)
        input_prep_ms = (_now() - t) * 1000.0

        t = _now()
        responses = puf_respond(puf, stored.challenges, eval_rng=np_rng)
        puf_response_ms = (_now() - t) * 1000.0

        t = _now()
        proof_bytes = device.prove_auth(stored, responses, session.nonce, rng)
        proof_gen_ms = (_now() - t) * 1000.0

        request = AuthRequest(device.device_id, proof_bytes, session.nonce).to_bytes()
        t = _now()
        decision = verifier.handle_auth_request(request)
        verify_ms = (_now() - t) * 1000.0
        if not decision.accept:
            raise RuntimeError(f"benchmark cycle failed authentication: {decision.reason}")

        tx_session = run_transaction(
            device, verifier, ledger, b"bench-payload-" + iteration.to_bytes(4, "big"),
            zkp.MODE_CORRECTED, rng,
        )
        if not tx_session.accepted:
            raise RuntimeError(f"benchmark cycle failed transaction: {tx_session.reason}")

        end_to_end_ms = (_now() - cycle_start) * 1000.0
        if iteration == 0:
            continue  # warm-up
        records.append({
            "iteration": iteration,
            "challenge_gen_ms": challenge_gen_ms,
            "puf_response_ms": puf_response_ms,
            "input_prep_ms": input_prep_ms,
            "proof_gen_ms": proof_gen_ms,
            "verify_ms": verify_ms,
            "end_to_end_ms": end_to_end_ms,
            "proof_size_bytes": len(proof_bytes),
        })

    return MetricsReport(
        iterations=iterations,
        seed=seed,
        params=asdict(params),
        precompute_ms=precompute_ms,
        trust_setup_ms=trust_setup_ms,
        records=records,
    )
