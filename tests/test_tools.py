"""The paired-benchmark summary in tools/bench_pairs.py."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_seed_lists():
    assert bench_pairs.parse_seeds("2331-2334") == [2331, 2332, 2333, 2334]
    assert bench_pairs.parse_seeds("5,7-8,3") == [5, 7, 8, 3]


def test_summary_counts_wins_by_the_metric_direction():
    metrics = [
        {"name": "ms", "unit": "ms", "better": "lower", "bound": 0.2},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.2},
    ]
    runs = {
        "parent": [{"ms": v, "rate": 1 / v} for v in (10.0, 11.0, 12.0, 13.0, 14.0)],
        # one tie, one loss, three wins for both metrics
        "change": [{"ms": v, "rate": 1 / v} for v in (9.0, 11.0, 13.0, 12.0, 10.0)],
    }
    out = bench_pairs.summarize(runs, metrics)
    assert out["ms"]["change_better_in"] == out["rate"]["change_better_in"] == "3/5"
    ms = out["ms"]
    assert (ms["parent_q1"], ms["parent_median"], ms["parent_q3"]) == (11.0, 12.0, 13.0)
    assert ms["parent_iqr"] == 2.0
    assert ms["change_median"] == 11.0
    assert ms["change_over_parent"] == round(11 / 12 - 1, 4)
    assert ms["bound"] == 0.2 and ms["better"] == "lower"


def test_traced_shares_are_over_the_miller_loop():
    values = {"pairing.miller_loop.ms": 4.0, "pairing.final_exponentiation.ms": 5.0,
              "zkp.verify_sig.self_ms": 1.0, "pairing.miller_loop.calls": 1, "correct": True}
    assert bench_pairs.traced_shares(values) == {
        "pairing.miller_loop.ms": 1.0, "pairing.final_exponentiation.ms": 1.25,
        "zkp.verify_sig.self_ms": 0.25,
    }
    assert bench_pairs.traced_shares({"pairing.miller_loop.ms": 0.0}) is None
