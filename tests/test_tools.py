"""The paired-benchmark summary in tools/bench_pairs.py."""

import importlib.util
import json
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


def _rules(parent, change, better="lower", bound=0.2):
    metrics = [{"name": "m", "unit": "ms", "better": better, "bound": bound}]
    runs = {"parent": [{"m": v} for v in parent], "change": [{"m": v} for v in change]}
    out = bench_pairs.summarize(runs, metrics)["m"]
    return out["gain_rule"], out["bound_rule"]


def test_gain_rule_needs_nine_wins_in_ten_and_a_gap_past_the_parent_iqr():
    parent = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]  # IQR 0.9
    # better in all ten pairs, median 1.8 lower
    assert _rules(parent, [v - 1.8 for v in parent]) == (True, "holds")
    # in the metric's own direction: the same numbers are a loss for a rate
    assert _rules(parent, [v - 1.8 for v in parent], better="higher") == (False, "holds")
    assert _rules(parent, [v + 1.8 for v in parent], better="higher") == (True, "holds")
    # nine wins of ten still gain; eight do not
    nine = [v - 1.8 for v in parent[:9]] + [parent[9] + 1]
    assert _rules(parent, nine)[0] is True
    eight = [v - 1.8 for v in parent[:8]] + [v + 1 for v in parent[8:]]
    assert _rules(parent, eight)[0] is False
    # ten wins, but the medians lie closer than the parent's IQR
    assert _rules(parent, [v - 0.5 for v in parent]) == (False, "holds")


def test_bound_rule_holds_breaks_or_stays_unresolved():
    parent = [10.0, 10.1, 10.2, 10.3, 10.4]
    # worse by 10% against a 0.2 bound
    assert _rules(parent, [v * 1.1 for v in parent])[1] == "holds"
    # worse by 25%
    assert _rules(parent, [v * 1.25 for v in parent])[1] == "broken"
    assert _rules(parent, [v * 0.75 for v in parent], better="higher")[1] == "broken"
    # a parent spread wider than the bound cannot tell a 10% loss apart
    wide = [6.0, 8.0, 10.0, 12.0, 14.0]  # IQR 4 against 0.2 * 10 = 2
    assert _rules(wide, [v * 1.1 for v in wide])[1] == "unresolved"
    # unless every change run beats every parent run
    assert _rules(wide, [v - 9.0 for v in wide]) == (True, "holds")
    # a break beyond the bound is broken however wide the spread
    assert _rules(wide, [v * 1.5 for v in wide])[1] == "broken"


def test_traced_shares_are_over_the_miller_loop():
    values = {"pairing.miller_loop.ms": 4.0, "pairing.final_exponentiation.ms": 5.0,
              "pairing.g2_mul_gen.ms": 2.0, "zkp.verify_sig.self_ms": 1.0,
              "pairing.miller_loop.calls": 1, "correct": True}
    assert bench_pairs.traced_shares(values) == ("pairing.miller_loop.ms", {
        "pairing.miller_loop.ms": 1.0, "pairing.final_exponentiation.ms": 1.25,
        "pairing.g2_mul_gen.ms": 0.5, "zkp.verify_sig.self_ms": 0.25,
    })
    # a run that pairs nothing, as an onboard op, is taken over its G2
    # generator multiplications
    unpaired = {"pairing.miller_loop.ms": 0.0, "pairing.g2_mul_gen.ms": 2.0,
                "pairing.g1_mul.ms": 1.0, "pairing.g2_mul_gen.calls": 3}
    assert bench_pairs.traced_shares(unpaired) == ("pairing.g2_mul_gen.ms", {
        "pairing.miller_loop.ms": 0.0, "pairing.g2_mul_gen.ms": 1.0, "pairing.g1_mul.ms": 0.5,
    })
    assert bench_pairs.traced_shares(
        {"pairing.miller_loop.ms": 0.0, "pairing.g2_mul_gen.ms": 0.0}) == (None, None)


def test_setup_only_pairs_summarise_setup_s_alone(monkeypatch, tmp_path):
    # fixed set-up times, no subprocess: the change reads better in
    # pairs 0, 2 and 3, ties in pair 4 and is worse in pair 1
    setup_s = {"parent": [0.10, 0.09, 0.12, 0.11, 0.08], "change": [0.09, 0.10, 0.11, 0.10, 0.08]}
    roots = {tmp_path / "parent": "parent", TOOL.parent.parent: "change"}
    (tmp_path / "parent").mkdir()
    calls = []

    def run_once(root, workload, seed, options):
        side = roots[root]
        calls.append((side, seed))
        assert options == ["--setup-only"] and workload == "bulk"
        return {"seed": seed, "setup_s": setup_s[side][seed - 40]}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(TOOL.parent.parent),
                             "--workload", "bulk", "--seeds", "40-44", "--setup-only",
                             "--out", str(out)]) == 0
    # the parent runs first on even pairs, the change on odd ones
    assert calls[:4] == [("parent", 40), ("change", 40), ("change", 41), ("parent", 41)]
    doc = json.loads(out.read_text())
    assert "--setup-only" in doc["command"] and "--seconds" not in doc["command"]
    assert list(doc["all_pairs"]["bulk"]) == ["setup_s"]
    summary = doc["all_pairs"]["bulk"]["setup_s"]
    assert (summary["parent_q1"], summary["parent_median"], summary["parent_q3"]) == (0.09, 0.1, 0.11)
    assert summary["parent_iqr"] == 0.02 and summary["change_median"] == 0.1
    assert summary["change_over_parent"] == 0.0 and summary["change_better_in"] == "3/5"
    assert [r["setup_s"] for r in doc["runs"]["bulk"]["change"]] == setup_s["change"]
