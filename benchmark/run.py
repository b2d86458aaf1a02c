"""Benchmark entry point.

    python3 benchmark/run.py --workload {onboard,fleet,bulk,all} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object
holding every end-to-end metric; with ``--trace 1`` it holds the
per-layer metrics of a traced run instead.  The lines before it give
the failure count with its base, the correctness checks, the ledger
head digest and, untraced, the latency of the op and of each protocol
stage the workload has, unscaled.

The op metrics are scaled to the reference host speed by the probes
timed between ops (see ``workloads.PROBE_REF_S``), so that the
neighbours' load on a shared host does not move them; the unscaled
values are printed as well.

``setup_s`` is the median of two to five set-ups, each in a fresh
interpreter (this one and children started with ``--setup-only``), so
that process-wide caches (point decoders, the G2 line cache, the
fixed-base generator tables) are cold every time, as they are for a
user.  Children stop once 6 s of set-up have been measured: about four
set-ups for ``onboard`` and ``bulk``, two for ``fleet`` (160 devices).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
SETUP_BUDGET_S = 6.0
CHILD_TIMEOUT_S = 120

# Times in op metrics are in reference-host units (workloads.PROBE_REF_S).
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/ref_s",
    "op_ms.p50": "ref_ms",
    "device_ms.mean": "ref_ms",
    "verifier_ms.mean": "ref_ms",
    "peak_rss_mb": "MiB",
}


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads + ("all",),
                    help="'all' runs every workload, each in a fresh interpreter")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it as JSON (used for the setup_s median)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _import_library():
    if not (ROOT / "src" / "pufzk" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no library sources at {ROOT / 'src' / 'pufzk'}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import tracing
    return workloads, tracing


def timed_set_up(bench) -> float:
    t0 = time.perf_counter()
    bench.set_up()
    return time.perf_counter() - t0


def set_up_samples(args, first_s, samples) -> list:
    """``first_s`` plus set-up times from fresh interpreters, run one
    after another, until there are ``samples`` of them or, once there
    are two, :data:`SETUP_BUDGET_S` seconds of set-up have been
    measured."""
    out = [first_s]
    while len(out) < samples and (len(out) < 2 or sum(out) < SETUP_BUDGET_S):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def measure(args, scale=None, max_ops=None, setup_samples=SETUP_SAMPLES):
    """Run one benchmark and return the result object the last line
    prints.  ``scale``, ``max_ops`` and ``setup_samples`` shrink the
    run for the self-test."""
    workloads, tracing = _import_library()
    bench = workloads.Bench(args.workload, args.seed, scale or workloads.FULL)
    setup_s = timed_set_up(bench)
    if args.setup_only:
        return {"setup_s": setup_s}

    tracer = tracing.Tracer() if args.trace else None
    records, elapsed, untraced_s = workloads.timed_phase(
        bench, args.seconds, max_ops=max_ops, tracer=tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = bench.check()
    failed = sum(not r.accepted for r in records)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(records)} seconds={elapsed:.3f}")
    print(f"fail_ratio = {bench.rejected / bench.exchanges} ratio ({bench.rejected} of "
          f"{bench.exchanges} honest exchanges not accepted; {bench.replaced} new devices "
          f"replaced; {failed} of {len(records)} ops failed)")
    print("set-up: {1} of {0} honest exchanges not accepted; {2} new devices replaced"
          .format(*bench.setup_counts))
    print("checks " + json.dumps(checks))
    print(f"ledger height={bench.ledger.height} head_digest={bench.ledger.head_digest().hex()}")

    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        values = tracer.report(len(untraced_s) / sum(untraced_s))
        values.update(bench.ledger_gauges())
        units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
    else:
        for name, (value, samples) in workloads.stage_report(records).items():
            print(f"{name} = {value} ms ({samples} samples)")
        setups = set_up_samples(args, setup_s, setup_samples)
        print("setup_s samples " + json.dumps(setups))
        scales = workloads.host_scales(records)
        print(f"host probe: mean {statistics.fmean(r.probe_s for r in records) * 1e3:.4f} ms, "
              f"mean scale {statistics.fmean(scales):.4f}; unscaled: "
              + json.dumps(workloads.op_report(records)))
        values = workloads.op_report(records, scales)
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END_UNITS
    return {
        "correct": all(checks.values()),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    # Single-threaded numeric libraries, here and in the set-up
    # children: set before numpy is imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    workloads, _ = _import_library()
    args = parse_args(argv, workloads.WORKLOADS)
    if args.workload == "all":
        return max(
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in workloads.WORKLOADS
        )
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
