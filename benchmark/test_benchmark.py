"""Self-test of the benchmark at tiny scale: a few ops per workload.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

import argparse
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = workloads.Scale(fleet_devices=3, bulk_devices=2, warmup_ops=1, bulk_bytes=4096)
OPS = 4

# The per-stage latencies each workload must print (p90s need 100
# samples, more than a tiny run has).
STAGES = {
    "onboard": {"op_ms.p50", "enroll_ms.p50", "auth_ms.p50", "auth_prove_ms.p50", "auth_verify_ms.p50"},
    "fleet": {"op_ms.p50", "auth_ms.p50", "tx_ms.p50", "auth_prove_ms.p50", "auth_verify_ms.p50",
              "tx_build_ms.p50", "tx_commit_ms.p50"},
    "bulk": {"op_ms.p50", "tx_ms.p50", "tx_build_ms.p50", "tx_commit_ms.p50"},
}


def _run(workload, trace, seed=7):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=60.0, trace=trace,
                              setup_only=False)
    return run.measure(args, scale=TINY, max_ops=OPS, setup_samples=1)


def _check_result(result, declared):
    assert result["correct"] is True
    assert result["attempted"] == OPS
    assert result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(STAGES))
def test_end_to_end_metrics(workload, capsys):
    result = _run(workload, trace=0)
    out = capsys.readouterr().out
    _check_result(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    exchanges = {"onboard": OPS, "fleet": 3 * OPS, "bulk": OPS}[workload]
    assert (f"fail_ratio = 0.0 ratio (0 of {exchanges} honest exchanges not accepted; "
            f"0 new devices replaced; 0 of {OPS} ops failed)") in out
    printed = {line.split(" = ")[0] for line in out.splitlines()
               if line.endswith(" samples)") and " ms (" in line}
    assert printed == STAGES[workload]


def test_traced_run_reports_every_layer(capsys):
    # A seed no other test uses, so no key is in the process-wide
    # decode and line caches yet.
    seed = 8
    seen = set()
    for workload in sorted(STAGES):
        result = _run(workload, trace=1, seed=seed)
        capsys.readouterr()
        _check_result(result, SPEC["per_layer"])
        values = {name: m["value"] for name, m in result["metrics"].items()}
        layer_self = sum(values[f"{layer}.self_ms"] for layer in tracing.LAYERS)
        uncovered = values["trace.uncovered_share"] * values["trace.op_ms"]
        assert layer_self + uncovered == pytest.approx(values["trace.op_ms"], rel=1e-9)
        spans = (HERE / "out" / f"spans-{workload}-{seed}.jsonl").read_text().splitlines()[1:]
        seen |= {json.loads(line)[2] for line in spans}
    bases = {m["name"].rsplit(".", 1)[0] for m in SPEC["per_layer"] if m["name"].endswith(".calls")}
    assert seen - {tracing.ROOT} == bases


def test_per_layer_list_matches_tracer():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == tracing.per_layer_metrics()


def test_same_seed_same_ledger():
    digests = []
    for _ in range(2):
        bench = workloads.Bench("fleet", 11, TINY)
        bench.set_up()
        workloads.timed_phase(bench, 60.0, max_ops=2)
        digests.append(bench.ledger.head_digest())
    assert digests[0] == digests[1]


def _reject_first(monkeypatch, count):
    """Make the next ``count`` authentications fail, as PUF noise now
    and then does, by flipping a bit of the request in flight."""
    real = workloads.run_authentication
    left = [count]

    def flaky(*args, **kwargs):
        if left[0]:
            left[0] -= 1
            kwargs["tamper"] = lambda raw: raw[:-1] + bytes([raw[-1] ^ 1])
        return real(*args, **kwargs)

    monkeypatch.setattr(workloads, "run_authentication", flaky)


ALL_ATTEMPTS = workloads.AUTH_ATTEMPTS * workloads.DEVICE_ATTEMPTS


def test_set_up_retries_a_rejected_authentication(monkeypatch):
    _reject_first(monkeypatch, workloads.AUTH_ATTEMPTS)
    bench = workloads.Bench("bulk", 12, TINY)
    bench.set_up()
    exchanges, rejected, replaced = bench.setup_counts
    assert (rejected, replaced) == (workloads.AUTH_ATTEMPTS, 1)


def test_set_up_fails_when_every_attempt_is_rejected(monkeypatch):
    _reject_first(monkeypatch, ALL_ATTEMPTS)
    with pytest.raises(RuntimeError):
        workloads.Bench("bulk", 12, TINY).set_up()


@pytest.mark.parametrize("rejections", [1, workloads.AUTH_ATTEMPTS, ALL_ATTEMPTS])
def test_rejected_attempts_are_counted(monkeypatch, rejections):
    bench = workloads.Bench("onboard", 12, TINY)
    bench.set_up()
    _reject_first(monkeypatch, rejections)
    records, _, _ = workloads.timed_phase(bench, 60.0, max_ops=1)
    # An op fails only when every attempt of every enrollment is
    # rejected; each rejected attempt counts against fail_ratio.
    assert records[0].accepted == (rejections < ALL_ATTEMPTS)
    assert bench.rejected == rejections
    assert bench.exchanges == min(rejections + 1, ALL_ATTEMPTS)
    assert bench.replaced == min(rejections // workloads.AUTH_ATTEMPTS,
                                 workloads.DEVICE_ATTEMPTS - 1)


def test_host_scales_use_the_nearest_probes():
    records = [workloads.OpRecord() for _ in range(6)]
    for record, probe in zip(records, [1, 1, 1, 1, 2, 2]):
        record.probe_s = probe * workloads.PROBE_REF_S
    assert workloads.host_scales(records) == pytest.approx([1, 1, 0.8, 2 / 3, 2 / 3, 2 / 3])
