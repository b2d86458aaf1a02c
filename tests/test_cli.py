"""CLI surface: subcommands, exit codes, artifacts."""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from pufzk.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from pufzk.ledger import ledger_new
from pufzk.params import PRESETS
from pufzk.scenarios import MAX_SCALE, _attempts, audit_transcript, run_attack_suite, run_demo
from pufzk.wire import TransactionRecord

HEX = "0123456789abcdef"

# SHA-256 of the `demo --seed 7` transcript.  A change that means to
# alter transcripts updates this digest and says so.
DEMO_SEED_7_SHA256 = "3c26429eafda842dd17f915e7d6f27138ed6c5e42c235c5c7e0fa4a563451ffc"

# SHA-256 of that transcript's `ledger` line, the exported transaction
# log.  It depends on the committed transactions alone, not on how the
# state is digested.
DEMO_SEED_7_LEDGER_LINE_SHA256 = "91c340e04246393480101e563c837acd2fe3158b21423a615acebec395283abd"

# SHA-256 of `json.dumps(run_attack_suite(seed=0, scale=0.02).to_dict(),
# sort_keys=True)`: every scenario's name, counts and reasons.  A change
# that means to alter the report updates this digest and says so.
ATTACK_SEED_0_SHA256 = "1967dce8bd360510424515845e933830d442bbe7898140ab1bd56ee8ee153764"


@pytest.fixture(scope="module")
def demo_lines():
    return run_demo(seed=5, params=PRESETS["fast"])[0].splitlines()


@pytest.fixture(scope="module")
def demo_seed_7():
    return run_demo(seed=7)[0]


def _flip_bit(payload_hex: str, index: int) -> str:
    raw = bytearray(bytes.fromhex(payload_hex))
    raw[index] ^= 1
    return raw.hex()


def _flip_accepted_outcome(lines):
    """The first session's outcome (an accepted authentication) flipped
    to rejected."""
    i = next(i for i, line in enumerate(lines) if line.startswith("outcome 01"))
    lines[i] = "outcome 00" + lines[i][len("outcome 01"):]


def _flip_outcome_and_decision(lines):
    _flip_accepted_outcome(lines)
    i = next(i for i, line in enumerate(lines) if line.startswith("msg 0201"))
    lines[i] = "msg 0200" + lines[i][len("msg 0201"):]


def _flip_request_nonce_bit(lines):
    # the nonce is the last field of an auth request
    i = next(i for i, line in enumerate(lines) if line.startswith("msg 01"))
    lines[i] = "msg " + _flip_bit(lines[i][4:], -1)


def _set_decision_flag_3(lines):
    # an accepted authentication's decision, its flag 0x01 read as 0x03
    i = next(i for i, line in enumerate(lines) if line.startswith("msg 0201"))
    lines[i] = "msg 0203" + lines[i][len("msg 0201"):]


def _flip_accepted_session_header_bit(index):
    """Flip one bit of the accepted authentication's session header:
    byte 44 is the first of its nonce, byte -1 the last of its epoch."""
    def mutate(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith("session "))
        assert lines[i + 3].startswith("outcome 01")
        lines[i] = "session " + _flip_bit(lines[i][len("session "):], index)
    return mutate


def _flip_request_proof_bit(lines):
    # the proof of the accepted auth request starts at byte 39, after
    # the tag, the id field and the proof's 4-byte length
    i = next(i for i, line in enumerate(lines) if line.startswith("msg 01"))
    lines[i] = "msg " + _flip_bit(lines[i][4:], 39 + 200)


def _flip_session_id_bit(lines):
    # the first 8 bytes of a session header are its session id
    i = next(i for i, line in enumerate(lines) if line.startswith("session "))
    lines[i] = "session " + _flip_bit(lines[i][len("session "):], 0)


def _flip_tx_session_epoch_bit(lines):
    # the second session is the transaction: its header's nonce is empty
    # and its last byte is the epoch placeholder
    i = [i for i, line in enumerate(lines) if line.startswith("session ")][1]
    assert lines[i + 1].startswith("msg 03")
    lines[i] = "session " + _flip_bit(lines[i][len("session "):], -1)


def _flip_rejected_request_bit(lines):
    # the third session is the rejected replay; its first message is the
    # replayed request
    i = [i for i, line in enumerate(lines) if line.startswith("session ")][2]
    assert lines[i + 3].startswith("outcome 00")
    lines[i + 1] = "msg " + _flip_bit(lines[i + 1][4:], 223)


def _meta(seed, params="default"):
    meta = {"mode": "corrected", "params": params, "seed": seed}
    return "meta " + json.dumps(meta, sort_keys=True).encode().hex()


def _reencode_meta_seed(lines):
    assert lines[1] == _meta(7)
    lines[1] = _meta(8)


class TestDemoAndAudit:
    def test_demo_writes_transcript_and_audit_passes(self, tmp_path):
        out = tmp_path / "demo.transcript"
        assert main(["demo", "--seed", "5", "--out", str(out), "--params", "fast"]) == EXIT_OK
        ok, findings = audit_transcript(out.read_text())
        assert ok, findings

    def test_demo_deterministic(self, tmp_path):
        a = tmp_path / "a.t"
        b = tmp_path / "b.t"
        assert main(["demo", "--seed", "9", "--out", str(a), "--params", "fast"]) == EXIT_OK
        assert main(["demo", "--seed", "9", "--out", str(b), "--params", "fast"]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_demo_seeds_differ(self, tmp_path):
        a = tmp_path / "a.t"
        b = tmp_path / "b.t"
        main(["demo", "--seed", "1", "--out", str(a), "--params", "fast"])
        main(["demo", "--seed", "2", "--out", str(b), "--params", "fast"])
        assert a.read_bytes() != b.read_bytes()

    def test_audit_detects_corruption(self, tmp_path):
        out = tmp_path / "demo.transcript"
        main(["demo", "--seed", "4", "--out", str(out), "--params", "fast"])
        lines = out.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("state "):
                kind, payload = line.split()
                flipped = bytearray(bytes.fromhex(payload))
                flipped[0] ^= 1
                lines[i] = f"state {bytes(flipped).hex()}"
                break
        corrupted = tmp_path / "bad.transcript"
        corrupted.write_text("\n".join(lines) + "\n")
        assert main(["audit", str(corrupted)]) == EXIT_FAILURE

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_mutated_transcript_never_raises(self, demo_lines, data):
        """One hex digit changed or one line cut short: the audit returns
        findings, never raises, and fails, whatever the line's kind."""
        index = data.draw(st.integers(1, len(demo_lines) - 1))
        kind, _, payload = demo_lines[index].partition(" ")
        pos = data.draw(st.integers(0, len(payload) - 1))
        if data.draw(st.booleans()):
            digit = data.draw(st.sampled_from(HEX.replace(payload[pos], "")))
            payload = payload[:pos] + digit + payload[pos + 1:]
        else:
            payload = payload[:pos]
        lines = demo_lines[:index] + [f"{kind} {payload}"] + demo_lines[index + 1:]
        ok, findings = audit_transcript("\n".join(lines) + "\n")
        assert findings and all(isinstance(f, str) for f in findings)
        assert not ok, (kind, findings)

    def test_demo_seed_7_transcript_is_pinned(self, demo_seed_7):
        assert hashlib.sha256(demo_seed_7.encode()).hexdigest() == DEMO_SEED_7_SHA256
        ok, findings = audit_transcript(demo_seed_7)
        assert ok, findings

    def test_demo_seed_7_ledger_line_is_pinned(self, demo_seed_7):
        line = next(line for line in demo_seed_7.splitlines() if line.startswith("ledger "))
        assert hashlib.sha256(line.encode()).hexdigest() == DEMO_SEED_7_LEDGER_LINE_SHA256

    @pytest.mark.parametrize("mutate", [
        _flip_accepted_outcome, _flip_outcome_and_decision, _flip_request_nonce_bit,
        _set_decision_flag_3, _flip_accepted_session_header_bit(-1),
        _flip_accepted_session_header_bit(44), _flip_request_proof_bit, _flip_session_id_bit,
        _flip_tx_session_epoch_bit, _flip_rejected_request_bit, _reencode_meta_seed,
    ], ids=["outcome", "outcome-and-decision", "request-nonce",
            "decision-flag", "session-epoch", "session-nonce", "request-proof", "session-id",
            "tx-session-epoch", "rejected-request", "meta-seed"])
    def test_audit_binds_recorded_decisions(self, demo_seed_7, mutate):
        lines = demo_seed_7.splitlines()
        mutate(lines)
        ok, findings = audit_transcript("\n".join(lines) + "\n")
        assert not ok, findings

    @pytest.mark.parametrize("meta", [
        _meta(-1), _meta(7, "warp-speed"), _meta(7, ["default"]), _meta(True), _meta("7"),
        "meta " + b"[7]".hex(), "meta " + b"{not json".hex(), "meta zz", "meta",
        "ledger 00",
    ], ids=["negative-seed", "no-preset", "unhashable-preset", "bool-seed", "string-seed",
            "not-an-object", "not-json", "not-hex", "empty", "no-meta"])
    def test_audit_of_unrunnable_meta_is_a_finding(self, demo_seed_7, meta):
        lines = demo_seed_7.splitlines()
        lines[1] = meta
        ok, findings = audit_transcript("\n".join(lines) + "\n")
        assert not ok and findings == ["the meta line records no non-negative seed and preset"]

    def test_audit_reports_lines_by_number_and_kind(self, demo_seed_7):
        lines = demo_seed_7.splitlines()
        lines[3] = "state " + _flip_bit(lines[3][len("state "):], 0)
        ok, findings = audit_transcript("\n".join(lines[:-1]) + "\n")
        assert not ok
        assert findings == ["line 4: state line differs from the re-run",
                            f"{len(lines) - 1} lines where the re-run has {len(lines)}"]

    def test_audit_missing_file_usage_error(self):
        assert main(["audit", "/no/such/file"]) == EXIT_USAGE

    def test_audit_garbage_fails(self, tmp_path):
        bad = tmp_path / "garbage.transcript"
        bad.write_text("this is not a transcript\n")
        assert main(["audit", str(bad)]) == EXIT_FAILURE

    def test_audit_of_bytes_that_are_not_utf8_is_a_finding(self, tmp_path, demo_seed_7, capsys):
        garbage = tmp_path / "garbage.transcript"
        garbage.write_bytes(b"\xff\xfe\x00garbage\x80\n")
        raw = bytearray(demo_seed_7.encode())
        raw[len(raw) // 2] = 0xFF
        corrupted = tmp_path / "corrupted.transcript"
        corrupted.write_bytes(bytes(raw))
        for path, offset in ((garbage, 0), (corrupted, len(raw) // 2)):
            assert main(["audit", str(path)]) == EXIT_FAILURE
            out = capsys.readouterr().out
            assert f"byte {offset}: not UTF-8 text" in out and "audit: FAIL" in out

    def test_audit_binds_line_endings(self, tmp_path, demo_seed_7):
        # the file's bytes are audited as they are: CRLF endings differ
        crlf = tmp_path / "crlf.transcript"
        crlf.write_bytes(demo_seed_7.replace("\n", "\r\n").encode())
        assert main(["audit", str(crlf)]) == EXIT_FAILURE
        lf = tmp_path / "lf.transcript"
        lf.write_bytes(demo_seed_7.encode())
        assert main(["audit", str(lf)]) == EXIT_OK

    def test_transcript_line_kinds(self, demo_lines):
        kinds = [line.partition(" ")[0] for line in demo_lines[1:]]
        assert kinds[:4] == ["meta", "ledger", "state", "head"] and kinds[-1] == "chain"
        assert set(kinds[4:-1]) == {"session", "msg", "outcome"}

    def test_demo_with_a_seed_of_2_to_the_64_audits_clean(self, tmp_path):
        out = tmp_path / "demo.transcript"
        assert main(["demo", "--seed", str(2**64), "--out", str(out), "--params", "fast"]) == EXIT_OK
        assert main(["audit", str(out)]) == EXIT_OK


class TestBenchCommand:
    def test_bench_writes_valid_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["bench", "--iterations", "2", "--seed", "3",
                     "--out", str(out), "--params", "fast"])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["iterations"] == 2
        assert report["reference_baseline"]["trust_setup_ms"] == 1415.60

    def test_environment_does_not_pick_the_preset(self, tmp_path, monkeypatch):
        """Only --params picks the preset; the variable that once
        overrode the default is ignored."""
        monkeypatch.setenv("PUFZK_PARAMS", "fast")
        out = tmp_path / "report.json"
        assert main(["bench", "--iterations", "1", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["params"]["name"] == "default"

    @pytest.mark.parametrize("command", ["bench", "attack", "demo"])
    def test_unknown_params_usage_error(self, command, capsys):
        assert main([command, "--params", "warp-speed"]) == EXIT_USAGE
        assert "argument --params: invalid choice: 'warp-speed'" in capsys.readouterr().err

    def test_bench_with_a_seed_of_2_to_the_63(self):
        assert main(["bench", "--seed", str(2**63), "--iterations", "1",
                     "--params", "fast"]) == EXIT_OK

    @pytest.mark.parametrize("mode", ["no-such-mode", "literal"])
    def test_bad_mode_usage_error(self, mode, capsys):
        """The bench runs the corrected scheme only and has no --mode."""
        assert main(["bench", "--mode", mode]) == EXIT_USAGE
        assert f"unrecognized arguments: --mode {mode}" in capsys.readouterr().err

    def test_unwritable_out_path_usage_error(self):
        assert main(["bench", "--iterations", "1", "--params", "fast",
                     "--out", "/no/such/dir/report.json"]) == EXIT_USAGE


class TestAttackCommand:
    def test_scaled_suite_passes(self, tmp_path):
        out = tmp_path / "attack.json"
        code = main(["attack", "--scale", "0.02", "--seed", "2", "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads(out.read_text())
        assert summary["passed"] is True
        assert summary["all_defended"] is True
        assert all(summary["literal_defects_reproduced"].values())

    def test_malformed_registrations_rejected_without_trace(self):
        report = run_attack_suite(seed=3, suites=("tamper",), scale=0.02)
        outcome = next(o for o in report.outcomes if o.name == "malformed-registration")
        assert outcome.attempts == 6 and outcome.defended
        assert outcome.detail.startswith("malformed registration: ")

    def test_registration_rewrite_defended(self):
        report = run_attack_suite(seed=4, suites=("tamper",), scale=0.02)
        outcome = next(o for o in report.outcomes if o.name == "registration-rewrite")
        assert outcome.attempts == 6 and outcome.defended
        assert outcome.detail == ("certificate does not match registration; "
                                  "malformed registration: envelope does not match the record; "
                                  "unknown nonce")

    def test_anonymous_rotate_defended(self):
        report = run_attack_suite(seed=6, suites=("tamper",), scale=0.02)
        outcome = next(o for o in report.outcomes if o.name == "anonymous-rotate")
        assert outcome.attempts == 6 and outcome.defended
        assert outcome.detail == ("malformed; proof invalid; stale nonce; "
                                  "malformed rotation: payload and signature must be empty; "
                                  "unknown nonce")

    def test_mode_downgrade_defended(self):
        report = run_attack_suite(seed=7, suites=("tamper",), scale=0.02)
        outcome = next(o for o in report.outcomes if o.name == "mode-downgrade")
        assert outcome.attempts == 4 and outcome.defended
        assert outcome.detail == "proof invalid"

    def test_session_flood_defended(self):
        report = run_attack_suite(seed=5, suites=("replay",), scale=0.02)
        outcome = next(o for o in report.outcomes if o.name == "session-flood")
        assert outcome.attempts == 2048 and outcome.defended
        assert outcome.detail == "verifier attributes changed: none; honest session: ok"

    @pytest.mark.parametrize("name, attempts", [
        ("session-eviction", 1024), ("session-displacement", 1)])
    def test_interleaved_sessions_defended(self, name, attempts):
        report = run_attack_suite(seed=5, suites=("replay",), scale=0.02)
        outcome = next(o for o in report.outcomes if o.name == name)
        assert outcome.attempts == attempts and outcome.defended
        assert outcome.detail == "honest session: ok"

    def test_leaked_key_submit_defended(self):
        report = run_attack_suite(seed=8, suites=("tamper",), scale=0.02)
        outcome = next(o for o in report.outcomes if o.name == "leaked-key-submit")
        assert outcome.attempts == 2 and outcome.defended
        assert outcome.detail == "unauthenticated"

    def test_mislabeled_submit_defended(self):
        report = run_attack_suite(seed=9, suites=("tamper",), scale=0.02)
        outcome = next(o for o in report.outcomes if o.name == "mislabeled-submit")
        assert outcome.attempts == 5 and outcome.defended
        assert outcome.detail == "malformed"

    def test_rng_reset_defended(self):
        report = run_attack_suite(seed=10, suites=("tamper",), scale=0.02)
        outcome = next(o for o in report.outcomes if o.name == "rng-reset")
        assert outcome.attempts == 5 and outcome.defended
        assert outcome.detail == "forged rotation: proof invalid; forged submit: signature invalid"

    def test_suite_selection(self):
        assert main(["attack", "--scale", "0.02", "--suite", "replay"]) == EXIT_OK


class TestAttempts:
    """The suite's one breach rule, on a ledger whose test chaincode
    writes every payload it is sent."""

    @pytest.fixture()
    def ledger(self):
        ledger = ledger_new()
        ledger.register_chaincode("put", lambda view, tx: {"test/" + tx.nonce.hex(): tx.payload})
        return ledger

    @staticmethod
    def _put(ledger, nonce):
        assert ledger.invoke("put", TransactionRecord(b"value", b"", b"", b"", "put", nonce))

    def test_a_commit_reported_as_refused_is_a_breach(self, ledger):
        def send():
            self._put(ledger, b"n")
            return False, "refused"

        outcome = _attempts("hidden-commit", ledger, [send])
        assert (outcome.attempts, outcome.accepted, outcome.detail) == (1, 1, "refused")

    def test_clean_refusals_count_none_and_join_distinct_reasons(self, ledger):
        reasons = ["stale nonce", "proof invalid", "stale nonce", "malformed", "proof invalid"]
        outcome = _attempts("clean", ledger, [lambda r=r: (False, r) for r in reasons])
        assert (outcome.attempts, outcome.accepted) == (5, 0)
        assert outcome.detail == "stale nonce; proof invalid; malformed"

    def test_an_accept_is_a_breach(self, ledger):
        outcome = _attempts("accepted", ledger, [lambda: (False, "no"), lambda: (True, "ok")])
        assert (outcome.attempts, outcome.accepted, outcome.detail) == (2, 1, "no; ok")

    def test_commits_between_attempts_are_not_counted(self, ledger):
        def sends():
            for nonce in (b"1", b"2"):
                self._put(ledger, nonce)  # set-up, outside the attempt
                yield lambda: (False, "refused")

        outcome = _attempts("set-up", ledger, sends())
        assert (outcome.attempts, outcome.accepted) == (2, 0)
        assert ledger.height == 2

    def test_report_of_seed_0_is_pinned(self):
        report = run_attack_suite(seed=0, scale=0.02).to_dict()
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == ATTACK_SEED_0_SHA256


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["demo", "--seed", "-1"], ["bench", "--seed", "-1"], ["attack", "--seed", "-1"],
        ["attack", "--scale", "nan"], ["attack", "--scale", "inf"], ["attack", "--scale", "0"],
        ["attack", "--scale", "1e308"], ["attack", "--scale", "10.001"],
        ["attack", "--suite", ""], ["attack", "--suite", "quantum"], ["bench", "--iterations", "0"],
    ], ids=["demo-seed", "bench-seed", "attack-seed", "scale-nan", "scale-inf", "scale-zero",
            "scale-1e308", "scale-above-bound", "suite-empty", "suite-unknown", "iterations-zero"])
    def test_bad_value_usage_error(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        assert "error: argument" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, 1e308, MAX_SCALE * 1.001])
    def test_suite_refuses_scale_outside_bound(self, scale):
        with pytest.raises(ValueError):
            run_attack_suite(suites=("replay",), scale=scale)

    def test_no_command_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_command_usage_error(self):
        assert main(["explode"]) == EXIT_USAGE
