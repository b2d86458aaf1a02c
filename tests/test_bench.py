"""Benchmark harness: report schema, invariants, and reference metadata."""

import copy

import pytest

from pufzk import zkp
from pufzk.bench import (
    ABSENT_STAGES,
    STAGE_FIELDS,
    run_bench,
    validate_report,
)
from pufzk.pairing import curve
from pufzk.params import PRESETS
from pufzk.protocol import Device


@pytest.fixture(scope="module")
def small_report():
    return run_bench(iterations=3, seed=7, params=PRESETS["fast"])


class TestReportStructure:
    def test_schema_valid(self, small_report):
        assert validate_report(small_report.to_dict()) == []
        assert small_report.to_dict()["mode"] == zkp.MODE_CORRECTED

    def test_record_count_matches_iterations(self, small_report):
        assert len(small_report.records) == 3

    def test_end_to_end_dominates_stages(self, small_report):
        for rec in small_report.records:
            for stage in STAGE_FIELDS[:-1]:
                assert rec["end_to_end_ms"] >= rec[stage]

    def test_proof_size_constant(self, small_report):
        sizes = {rec["proof_size_bytes"] for rec in small_report.records}
        assert sizes == {zkp.CORRECTED_AUTH_PROOF_WIRE_BYTES}

    def test_absent_stages_not_reported_as_zero(self, small_report):
        d = small_report.to_dict()
        assert set(d["stages_absent"]) == set(ABSENT_STAGES)
        for rec in d["records"]:
            for absent in ABSENT_STAGES:
                assert absent not in rec

    def test_reference_values_metadata_only(self, small_report):
        d = small_report.to_dict()
        ref = d["reference_baseline"]
        assert ref["trust_setup_ms"] == 1415.60
        assert ref["end_to_end_ms"] == 2800.0
        assert ref["proof_size_bytes"] == 805
        # reference values never gate the report
        assert validate_report(d) == []

    def test_single_iteration_aggregates_equal_record(self):
        report = run_bench(iterations=1, seed=1, params=PRESETS["fast"])
        agg = report.aggregates()
        rec = report.records[0]
        for stage in STAGE_FIELDS:
            assert agg[stage]["mean"] == rec[stage] == agg[stage]["median"]
            assert agg[stage]["min"] == agg[stage]["max"] == rec[stage]

    def test_text_rendering_mentions_reference(self, small_report):
        text = small_report.to_text()
        assert "1415.6" in text
        assert "non-binding" in text

    def test_json_round_trip(self, small_report):
        import json
        assert json.loads(small_report.to_json())["iterations"] == 3


class TestPrecompute:
    def test_table_build_is_timed_apart_from_trust_setup(self, monkeypatch):
        """With the generator tables unbuilt, run_bench builds both before
        its trust-setup timer starts and reports the build as
        ``precompute_ms``, which the validator requires and the text
        prints on its own line."""
        monkeypatch.setattr(curve, "_G1_ROWS", None)
        monkeypatch.setattr(curve, "_G2_ROWS", None)
        real = zkp.trust_setup

        def checked(*args, **kwargs):
            assert curve._G1_ROWS is not None and curve._G2_ROWS is not None
            return real(*args, **kwargs)

        monkeypatch.setattr(zkp, "trust_setup", checked)
        report = run_bench(iterations=1, seed=2, params=PRESETS["fast"])
        d = report.to_dict()
        assert d["precompute_ms"] == report.precompute_ms > 0
        assert validate_report(d) == []
        del d["precompute_ms"]
        assert "missing key 'precompute_ms'" in validate_report(d)
        lines = report.to_text().splitlines()
        assert sum(line.strip().startswith("precompute_ms=") for line in lines) == 1


class TestDeviceProver:
    def test_bench_proves_through_the_device(self, monkeypatch):
        """The timed proof is the device's own ``prove_auth``, once per
        iteration and once for the warm-up."""
        calls = []
        real = Device.prove_auth

        def counted(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Device, "prove_auth", counted)
        report = run_bench(iterations=2, seed=5, params=PRESETS["fast"])
        assert len(calls) == 3
        assert validate_report(report.to_dict()) == []


class TestValidator:
    def test_detects_missing_key(self, small_report):
        d = small_report.to_dict()
        del d["records"]
        assert any("records" in p for p in validate_report(d))

    def test_detects_stage_violation(self, small_report):
        d = copy.deepcopy(small_report.to_dict())
        d["records"][0]["end_to_end_ms"] = 0.0
        assert any("end_to_end" in p for p in validate_report(d))

    def test_detects_varying_proof_size(self, small_report):
        d = copy.deepcopy(small_report.to_dict())
        d["records"][0]["proof_size_bytes"] += 1
        assert any("proof size" in p for p in validate_report(d))

    def test_detects_absent_stage_leak(self, small_report):
        d = copy.deepcopy(small_report.to_dict())
        d["records"][0][ABSENT_STAGES[0]] = 1.0
        assert any("absent" in p for p in validate_report(d))


class TestArguments:
    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            run_bench(iterations=0)
