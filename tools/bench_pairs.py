#!/usr/bin/env python3
"""Run the benchmark in two checkouts, alternately, and compare them.

    python tools/bench_pairs.py --parent DIR --change DIR \\
        --workload bulk --workload onboard --seeds 2331-2340 \\
        --seconds 30 --out BENCH_N.json [--trace-seed 31] [--setup-only]

For each workload and seed, ``benchmark/run.py --trace 0`` runs once in
each checkout, each run in a fresh interpreter; the parent goes first
on even-numbered pairs and the change on odd ones, so drift of the host
falls on both sides.  The output holds every run and an ``all_pairs``
block per workload: for each end-to-end metric of the change's
``BENCHMARK.json``, both sides' quartiles and interquartile range,
``change_over_parent`` (the change's median over the parent's, minus
one) and ``change_better_in`` (pairs where the change reads strictly
better, of all pairs), and two acceptance rules:

- ``gain_rule`` is true when the change reads better, in the metric's
  own direction, in at least 9/10 of the pairs, and its median beats the
  parent's by more than the parent's interquartile range;
- ``bound_rule`` is "broken" when the change's median is worse than the
  parent's by more than the metric's ``bound`` (a fraction of the
  parent's median), else "unresolved" when the parent's interquartile
  range is wider than ``bound`` times its median and not every change
  run beats every parent run, else "holds".

The file is rewritten after every pair.

With ``--setup-only``, each run is ``benchmark/run.py --setup-only``
instead: one set-up in a fresh interpreter and no timed phase, so many
pairs are cheap enough to resolve ``setup_s`` where a few full runs, each
the median of a few set-ups, do not.  ``all_pairs`` then summarises
``setup_s`` alone.

With ``--trace-seed``, one traced run per side and workload follows the
pairs.  Raw traced milliseconds move with the host from run to run, so
each ``.ms`` and ``.self_ms`` figure is also given as a share of the
same run's ``pairing.miller_loop.ms``, or, in a run that pairs nothing,
of its ``pairing.g2_mul_gen.ms``; ``share_base`` names the one used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# the traced figures that shares are taken over, in order of preference
BASES_MS = ("pairing.miller_loop.ms", "pairing.g2_mul_gen.ms")


def parse_seeds(text):
    """'5-8' or '5,6,9' (or both, comma-separated) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root, workload, seed, options):
    """One ``benchmark/run.py`` run with ``options``, flattened: the
    seed, then the last line's fields, each metric as its value."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           *options]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result.pop("metrics", {})
    return {"seed": seed, **result, **{name: m["value"] for name, m in metrics.items()}}


def summarize(runs, metrics):
    """The all_pairs block of one workload; runs[side][i] is pair i."""
    out = {}
    for m in metrics:
        name, better = m["name"], m["better"]
        entry = {"unit": m["unit"], "better": better, "bound": m["bound"]}
        for side in SIDES:
            values = [r[name] for r in runs[side]]
            q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                           if len(values) > 1 else values * 3)
            entry.update({f"{side}_q1": q1, f"{side}_median": med, f"{side}_q3": q3,
                          f"{side}_iqr": q3 - q1})
        entry["change_over_parent"] = entry["change_median"] / entry["parent_median"] - 1
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c[name] - p[name]) > 0 for p, c in zip(runs["parent"], runs["change"]))
        entry["change_better_in"] = f"{wins}/{len(runs['change'])}"
        entry["gain_rule"] = (10 * wins >= 9 * len(runs["change"]) and
                              sign * (entry["change_median"] - entry["parent_median"])
                              > entry["parent_iqr"])
        worse_by = -sign * entry["change_over_parent"]
        # signed so that higher reads better on either side
        parent, change = ([sign * r[name] for r in runs[side]] for side in SIDES)
        if worse_by > m["bound"]:
            entry["bound_rule"] = "broken"
        elif (entry["parent_iqr"] > m["bound"] * abs(entry["parent_median"])
              and min(change) <= max(parent)):
            entry["bound_rule"] = "unresolved"
        else:
            entry["bound_rule"] = "holds"
        out[name] = {k: round(v, 4) if isinstance(v, float) else v for k, v in entry.items()}
    return out


def traced_shares(values):
    """(base, shares): each traced ms figure over the first of
    :data:`BASES_MS` that reads above 0 in the run, or (None, None) if
    none does."""
    base = next((name for name in BASES_MS if values.get(name)), None)
    if base is None:
        return None, None
    return base, {name: round(v / values[base], 4) for name, v in values.items()
                  if name.endswith((".ms", ".self_ms")) and isinstance(v, (int, float))}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True, action="append", dest="workloads")
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 2331-2340")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up per run and summarise setup_s alone")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    timed = ["--seconds", f"{args.seconds:g}", "--trace"]
    if args.setup_only:
        metrics = [m for m in metrics if m["name"] == "setup_s"]
        options = ["--setup-only"]
    else:
        options = timed + ["0"]

    doc = {
        "command": f"python3 benchmark/run.py --workload W --seed S {' '.join(options)}, one "
                   f"run per side for each seed, the parent first on even pairs",
        "all_pairs": {},
        "runs": {},
    }
    for workload in args.workloads:
        runs = doc["runs"][workload] = {side: [] for side in SIDES}
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(roots[side], workload, seed, options)
                runs[side].append({"first": side == order[0], **result})
                print(f"{workload} seed={seed} {side}: " + json.dumps(result), flush=True)
            doc["all_pairs"][workload] = summarize(runs, metrics)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.trace_seed is not None:
        doc["traced"] = {"command": f"python3 benchmark/run.py --workload W --seed "
                                    f"{args.trace_seed} --seconds {args.seconds:g} --trace 1"}
        for workload in args.workloads:
            doc["traced"][workload] = {}
            for side in SIDES:
                values = run_once(roots[side], workload, args.trace_seed, timed + ["1"])
                base, shares = traced_shares(values)
                doc["traced"][workload][side] = {
                    "values": values, "share_base": base, "shares": shares}
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
