"""End-to-end protocol behaviour and the adversary scripts."""

import dataclasses
import hashlib
import importlib
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from pufzk import zkp
from pufzk.identity import CertificateAuthority, response_scalar
from pufzk.ledger import (
    RecordError,
    StoredDevice,
    bootstrap,
    ledger_new,
    rotate_challenges,
    rotate_nonce,
)
from pufzk.pairing import DecodeError, G1Element, G2Element, Scalar, curve, group
from pufzk.params import ParamSet
from pufzk.protocol import Device, Verifier, run_authentication, run_transaction
from pufzk.puf import puf_new, puf_respond
from pufzk.scenarios import (
    attack_clone_device,
    attack_impersonate,
    attack_mitm_bitflip,
    attack_replay,
    attack_swap_proofs,
    attack_tamper_payload,
)
from pufzk.wire import AuthRequest, TransactionRecord, TxSubmit, decode_message

NOISELESS = ParamSet("noiseless-test", noise_ratio=0.0)


@pytest.fixture()
def env():
    rng = random.Random(1200)
    np_rng = np.random.default_rng(1200)
    ca = CertificateAuthority(rng)
    setup = zkp.trust_setup(rng)
    ledger = ledger_new()
    bootstrap(ledger, setup.pk_setup, ca.pk)
    verifier = Verifier(ledger, rng)
    device = Device.enroll(puf_new(3100, 0.0), ca, ledger, rng, np_rng, NOISELESS)
    return {
        "rng": rng, "np_rng": np_rng, "ca": ca, "setup": setup,
        "ledger": ledger, "verifier": verifier, "device": device,
    }


class TestDevice:
    def test_fields_are_the_puf_the_id_and_the_keys(self):
        assert [f.name for f in dataclasses.fields(Device)] == ["puf", "device_id", "keypair"]

    def test_device_and_chaincode_build_one_statement(self, env, monkeypatch):
        """One authentication builds its statement twice, on the device
        and in the rotate chaincode, with the same builder and bytes."""
        built = []
        real = StoredDevice.auth_statement

        def recorded(self, nonce):
            built.append(real(self, nonce))
            return built[-1]

        monkeypatch.setattr(StoredDevice, "auth_statement", recorded)
        assert run_authentication(env["device"], env["verifier"], env["ledger"],
                                  zkp.MODE_CORRECTED, env["rng"], env["np_rng"]).accepted
        assert len(built) == 2 and built[0].to_bytes() == built[1].to_bytes()


class TestAuthentication:
    def test_honest_corrected_accepts(self, env):
        session = run_authentication(
            env["device"], env["verifier"], env["ledger"], zkp.MODE_CORRECTED,
            env["rng"], env["np_rng"])
        assert session.accepted and session.reason == "ok"
        assert len(session.nonce) == 16

    def test_success_rotates_challenge_subset(self, env):
        device_id = env["device"].device_id
        before = env["ledger"].load_device(device_id).epoch
        run_authentication(env["device"], env["verifier"], env["ledger"],
                           zkp.MODE_CORRECTED, env["rng"], env["np_rng"])
        assert env["ledger"].load_device(device_id).epoch == before + 1

    def test_unregistered_device_rejected(self, env):
        ghost_puf = puf_new(3101, 0.0)
        ca2 = CertificateAuthority(env["rng"])
        other_ledger = ledger_new()
        bootstrap(other_ledger, env["setup"].pk_setup, ca2.pk)
        ghost = Device.enroll(ghost_puf, ca2, other_ledger, env["rng"], env["np_rng"], NOISELESS)
        # the ghost proves against its own ledger and asks this verifier
        verifier = env["verifier"]
        session = verifier.begin_session(ghost.device_id)
        nonce = rotate_nonce(0)
        proof = ghost.build_auth_proof(other_ledger, nonce, env["rng"], env["np_rng"])
        decision = verifier.handle_auth_request(
            AuthRequest(ghost.device_id, proof, nonce).to_bytes())
        assert (session.epoch, session.nonce) == (-1, b"")
        assert not decision.accept and decision.reason == "unknown device"

    def test_device_missing_from_the_ledger_gets_a_key_error(self, env):
        device, empty = env["device"], ledger_new()
        with pytest.raises(KeyError):
            device.build_auth_proof(empty, bytes(16), env["rng"], env["np_rng"])
        with pytest.raises(KeyError):
            run_authentication(device, Verifier(empty, env["rng"]), empty, zkp.MODE_CORRECTED,
                               env["rng"], env["np_rng"])

    def test_malformed_proof_rejected(self, env):
        verifier = env["verifier"]
        session = verifier.begin_session(env["device"].device_id)
        raw = AuthRequest(env["device"].device_id, b"\x02garbage", session.nonce).to_bytes()
        decision = verifier.handle_auth_request(raw)
        assert not decision.accept and decision.reason == "malformed"

    @pytest.mark.parametrize("corrupt", ["garbage-record", "zero-commitment"])
    def test_malformed_stored_record_rejected(self, env, corrupt):
        ledger, verifier = env["ledger"], env["verifier"]
        device_id = env["device"].device_id
        record = ledger.load_device(device_id).record
        if corrupt == "garbage-record":
            raw_record = b"garbage"
        else:
            raw_record = dataclasses.replace(record, commitment_bytes=bytes(48)).to_bytes()
        # the register chaincode refuses such records, so write one directly
        ledger.register_chaincode(
            "overwrite", lambda state, tx: {f"identity/{device_id.hex()}": tx.payload})
        assert ledger.invoke("overwrite", TransactionRecord(raw_record, b"", b"", b"", "overwrite", b"n"))
        session = verifier.begin_session(device_id)
        raw = AuthRequest(device_id, b"\x02garbage", session.nonce).to_bytes()
        decision = verifier.handle_auth_request(raw)
        assert not decision.accept and decision.reason.startswith("malformed record: ")

    def test_noisy_accept_rate_over_200_sessions(self, env):
        """With evaluation noise, screening plus majority voting keeps
        honest acceptance at or above 99%."""
        noisy_params = ParamSet("noisy-test", noise_ratio=0.05)
        device = Device.enroll(
            puf_new(3102, 0.05), env["ca"], env["ledger"], env["rng"], env["np_rng"], noisy_params)
        accepted = sum(
            int(run_authentication(device, env["verifier"], env["ledger"],
                                   zkp.MODE_CORRECTED, env["rng"], env["np_rng"]).accepted)
            for _ in range(200)
        )
        assert accepted >= 198  # >= 99%

    def test_literal_mode_is_refused(self, env):
        """The printed scheme is an exhibit in ``pufzk.zkp``: both drivers
        refuse its mode before opening a session or drawing randomness."""
        device, verifier, ledger, rng = env["device"], env["verifier"], env["ledger"], env["rng"]
        state, height, attributes = rng.getstate(), ledger.height, dict(vars(verifier))
        with pytest.raises(ValueError):
            run_authentication(device, verifier, ledger, zkp.MODE_LITERAL, rng, env["np_rng"])
        with pytest.raises(ValueError):
            run_transaction(device, verifier, ledger, b"reading", zkp.MODE_LITERAL, rng)
        assert (rng.getstate(), ledger.height, vars(verifier)) == (state, height, attributes)

    def test_transcript_messages_decode(self, env):
        session = run_authentication(env["device"], env["verifier"], env["ledger"],
                                     zkp.MODE_CORRECTED, env["rng"], env["np_rng"])
        assert len(session.transcript) == 2
        for raw in session.transcript:
            decode_message(raw)


def _overwrite_with_garbage(ledger, device_id, kinds):
    """Write b"garbage" over the device's stored state.  The register
    chaincode refuses such records, so a custom chaincode writes them."""
    ledger.register_chaincode(
        "overwrite", lambda state, tx: {f"{kind}/{device_id.hex()}": b"garbage" for kind in kinds})
    assert ledger.invoke("overwrite", TransactionRecord(b"", b"", b"", b"", "overwrite", b"n"))


GARBAGE_KINDS = pytest.mark.parametrize(
    "kinds", [("identity",), ("subset",), ("identity", "subset")], ids=["identity", "subset", "both"])


class TestMalformedStoredState:
    @GARBAGE_KINDS
    def test_every_verifier_path_gives_a_typed_decision(self, env, kinds):
        ledger, verifier, device, rng = env["ledger"], env["verifier"], env["device"], env["rng"]
        # authenticated beforehand, so the submit chaincode admits the device
        assert run_authentication(device, verifier, ledger, zkp.MODE_CORRECTED, rng, env["np_rng"]).accepted
        # the request is built before the overwrite; after it, the
        # device's own ledger read fails
        session = verifier.begin_session(device.device_id)
        proof = device.build_auth_proof(ledger, session.nonce, rng, env["np_rng"])
        _overwrite_with_garbage(ledger, device.device_id, kinds)
        assert verifier.begin_session(device.device_id).epoch == -1
        with pytest.raises(RecordError):
            device.build_auth_proof(ledger, session.nonce, rng, env["np_rng"])
        decision = verifier.handle_auth_request(
            AuthRequest(device.device_id, proof, session.nonce).to_bytes())
        assert not decision.accept and decision.reason.startswith("malformed record: ")
        session = run_transaction(device, verifier, ledger, b"reading", zkp.MODE_CORRECTED, rng)
        assert not session.accepted and session.reason.startswith("malformed record: ")
        digest, height = ledger.state_digest(), ledger.height
        result = ledger.invoke("submit", device.build_tx_submit(ledger, b"direct", rng))
        assert not result and result.reason.startswith("malformed record: ")
        assert (ledger.state_digest(), ledger.height) == (digest, height)

    @GARBAGE_KINDS
    def test_ledger_side_readers_raise_record_error(self, env, kinds):
        ledger, verifier, rng = env["ledger"], env["verifier"], env["rng"]
        device_id = env["device"].device_id
        _overwrite_with_garbage(ledger, device_id, kinds)
        digest, height = ledger.state_digest(), ledger.height
        result = rotate_challenges(ledger, device_id, bytes(16), b"")
        assert not result and result.reason.startswith("malformed record: ")
        assert (ledger.state_digest(), ledger.height) == (digest, height)
        with pytest.raises(RecordError):
            attack_impersonate(device_id, ledger, verifier, rng)
        with pytest.raises(RecordError):
            attack_clone_device(device_id, ledger, verifier, rng, clone_seed=3102, params=NOISELESS)


class TestTransactions:
    def test_honest_flow_commits(self, env):
        run_authentication(env["device"], env["verifier"], env["ledger"],
                           zkp.MODE_CORRECTED, env["rng"], env["np_rng"])
        session = run_transaction(env["device"], env["verifier"], env["ledger"],
                                  b"reading", zkp.MODE_CORRECTED, env["rng"])
        assert session.accepted
        assert env["ledger"].verify_chain()

    def test_unauthenticated_device_rejected_by_submit_chaincode(self, env):
        height = env["ledger"].height
        session = run_transaction(env["device"], env["verifier"], env["ledger"],
                                  b"reading", zkp.MODE_CORRECTED, env["rng"])
        assert not session.accepted and session.reason == "unauthenticated"
        assert env["ledger"].height == height

    def test_authentication_admits_submits_through_any_verifier(self, env):
        """The ledger, not the verifier, records that a device has
        authenticated: a second verifier on the same ledger forwards
        its submits."""
        device, ledger, rng = env["device"], env["ledger"], env["rng"]
        assert run_authentication(device, env["verifier"], ledger, zkp.MODE_CORRECTED,
                                  rng, env["np_rng"]).accepted
        session = run_transaction(device, Verifier(ledger, rng), ledger, b"reading",
                                  zkp.MODE_CORRECTED, rng)
        assert session.accepted and session.reason == "committed"

    def test_payload_tamper_in_flight_rejected(self, env):
        run_authentication(env["device"], env["verifier"], env["ledger"],
                           zkp.MODE_CORRECTED, env["rng"], env["np_rng"])
        digest_before = None

        def tamper(raw: bytes) -> bytes:
            msg = decode_message(raw)
            mutated = dataclasses.replace(msg.record, payload=msg.record.payload + b"!")
            return TxSubmit(mutated).to_bytes()

        digest_before = env["ledger"].state_digest()
        session = run_transaction(env["device"], env["verifier"], env["ledger"],
                                  b"reading", zkp.MODE_CORRECTED, env["rng"], tamper=tamper)
        assert not session.accepted
        assert env["ledger"].state_digest() == digest_before

    @pytest.mark.parametrize("chaincode", ["rotate", "register", "bootstrap", "", "sucmit"])
    def test_relabelled_submit_is_malformed(self, env, chaincode):
        """A well-formed submit whose record names another chaincode
        gets a typed rejection and leaves the ledger untouched."""
        device, verifier, ledger, rng = env["device"], env["verifier"], env["ledger"], env["rng"]
        assert run_authentication(device, verifier, ledger, zkp.MODE_CORRECTED,
                                  rng, env["np_rng"]).accepted
        record = dataclasses.replace(device.build_tx_submit(ledger, b"reading", rng), chaincode=chaincode)
        digest, height = ledger.state_digest(), ledger.height
        decision = verifier.handle_tx_submit(TxSubmit(record).to_bytes())
        assert (decision.accept, decision.reason) == (False, "malformed")
        assert (ledger.state_digest(), ledger.height) == (digest, height)

    def test_resubmission_of_committed_record_rejected(self, env):
        run_authentication(env["device"], env["verifier"], env["ledger"],
                           zkp.MODE_CORRECTED, env["rng"], env["np_rng"])
        record = env["device"].build_tx_submit(env["ledger"], b"once-only", env["rng"])
        assert env["ledger"].invoke("submit", record)
        result = env["ledger"].invoke("submit", record)
        assert not result and result.reason == "stale nonce"


class TestReplay:
    def test_replay_rejected_100_of_100(self, env):
        rejected = 0
        for _ in range(100):
            honest = run_authentication(env["device"], env["verifier"], env["ledger"],
                                        zkp.MODE_CORRECTED, env["rng"], env["np_rng"])
            assert honest.accepted
            outcome = attack_replay(honest, env["verifier"], env["ledger"])
            rejected += int(outcome.defended)
        assert rejected == 100

    def test_replay_with_forged_current_nonce_rejected(self, env):
        honest = run_authentication(env["device"], env["verifier"], env["ledger"],
                                    zkp.MODE_CORRECTED, env["rng"], env["np_rng"])
        outcome = attack_replay(honest, env["verifier"], env["ledger"], forge_current_nonce=True)
        assert outcome.defended

    def test_verifier_recomputes_nonces_and_stores_none(self, env):
        device, verifier, ledger = env["device"], env["verifier"], env["ledger"]

        def answer(session, device_id=device.device_id, proof=b""):
            raw = AuthRequest(device_id, proof, session.nonce).to_bytes()
            return verifier.handle_auth_request(raw).reason

        assert set(vars(verifier)) == {"ledger", "rng"}
        stranger = verifier.begin_session(env["rng"].randbytes(32))
        assert (stranger.epoch, stranger.nonce) == (-1, b"")
        assert answer(stranger, stranger.device_id) == "unknown device"
        sessions = [verifier.begin_session(device.device_id) for _ in range(8)]
        assert {s.nonce for s in sessions} == {rotate_nonce(0)} and sessions[0].epoch == 0
        assert answer(sessions[0]) == "malformed"
        proof = device.build_auth_proof(ledger, sessions[0].nonce, env["rng"], env["np_rng"])
        assert answer(sessions[0], proof=proof) == "ok"
        assert answer(sessions[0]) == "stale nonce"
        later = verifier.begin_session(device.device_id)
        assert (later.epoch, later.nonce) == (1, rotate_nonce(1))
        assert set(vars(verifier)) == {"ledger", "rng"}

    def test_altered_or_foreign_nonce_is_unknown(self, env):
        device, verifier, ledger = env["device"], env["verifier"], env["ledger"]
        nonce = verifier.begin_session(device.device_id).nonce
        flipped = nonce[:-1] + bytes([nonce[-1] ^ 1])
        foreign = env["rng"].randbytes(16)  # a nonce of no rule
        for bad in (flipped, foreign, rotate_nonce(1), b"", nonce + b"\x00"):
            proof = device.build_auth_proof(ledger, bad, env["rng"], env["np_rng"])
            decision = verifier.handle_auth_request(
                AuthRequest(device.device_id, proof, bad).to_bytes())
            assert (decision.accept, decision.reason) == (False, "unknown nonce")
        assert ledger.load_device(device.device_id).epoch == 0

    def test_old_subset_proof_fails_after_rotation(self, env):
        """A proof bound to a stale epoch fails even with a fresh nonce."""
        device, verifier, ledger = env["device"], env["verifier"], env["ledger"]
        first = run_authentication(device, verifier, ledger, zkp.MODE_CORRECTED,
                                   env["rng"], env["np_rng"])
        assert first.accepted  # rotation happened, epoch now >= 1
        session = verifier.begin_session(device.device_id)
        stored = ledger.load_device(device.device_id)
        responses = puf_respond(device.puf, stored.challenges, 9, env["np_rng"])
        statement = stored._replace(epoch=stored.epoch - 1).auth_statement(session.nonce)
        witness = zkp.AuthWitness(sk=device.keypair.sk, response_scalar=response_scalar(responses))
        proof = zkp.auth_prove_corrected(statement, witness, env["rng"])
        raw = AuthRequest(device.device_id, proof.to_bytes(), session.nonce).to_bytes()
        decision = verifier.handle_auth_request(raw)
        assert not decision.accept


class TestImpersonation:
    def test_random_witness_impersonation_rejected(self, env):
        outcome = attack_impersonate(env["device"].device_id, env["ledger"],
                                     env["verifier"], env["rng"], trials=100)
        assert outcome.defended and outcome.attempts == 100

    def test_stolen_key_without_puf_rejected(self, env):
        outcome = attack_impersonate(env["device"].device_id, env["ledger"],
                                     env["verifier"], env["rng"], trials=10,
                                     leaked_sk=env["device"].keypair.sk)
        assert outcome.defended

    def test_cloned_hardware_rejected(self, env):
        for k in range(10):
            outcome = attack_clone_device(env["device"].device_id, env["ledger"],
                                          env["verifier"], env["rng"],
                                          clone_seed=40_000 + k, params=NOISELESS)
            assert outcome.defended


class TestMitm:
    def test_bitflip_fuzz_1000(self, env):
        outcome = attack_mitm_bitflip(env["device"], env["verifier"], env["ledger"],
                                      env["rng"], env["np_rng"], flips=1000)
        assert outcome.defended and outcome.attempts == 1000

    def test_swapped_proofs_both_rejected(self, env):
        other = Device.enroll(puf_new(3105, 0.0), env["ca"], env["ledger"],
                              env["rng"], env["np_rng"], NOISELESS)
        outcome = attack_swap_proofs(env["device"], other, env["verifier"],
                                     env["ledger"], env["rng"], env["np_rng"])
        assert outcome.defended and outcome.attempts == 2

    def test_pass_through_control_accepts(self, env):
        session = run_authentication(env["device"], env["verifier"], env["ledger"],
                                     zkp.MODE_CORRECTED, env["rng"], env["np_rng"],
                                     tamper=lambda raw: raw)
        assert session.accepted


class TestTamper:
    def test_tampered_payloads_all_rejected_state_intact(self, env):
        run_authentication(env["device"], env["verifier"], env["ledger"],
                           zkp.MODE_CORRECTED, env["rng"], env["np_rng"])
        outcome = attack_tamper_payload(env["device"], env["verifier"], env["ledger"],
                                        env["rng"], trials=50)
        assert outcome.defended


class TestAcceptanceConditions:
    """Corrected-mode acceptance iff every honesty condition holds."""

    def _handcrafted_attempt(self, env, *, sk=None, rho=None, nonce=None, epoch=None):
        device, verifier, ledger = env["device"], env["verifier"], env["ledger"]
        session = verifier.begin_session(device.device_id)
        stored = ledger.load_device(device.device_id)
        responses = puf_respond(device.puf, stored.challenges, 9, env["np_rng"])
        statement = zkp.AuthStatement(
            device_id=device.device_id,
            pk=stored.pk,
            response_commitment=stored.commitment,
            challenge_epoch=stored.epoch if epoch is None else epoch,
            session_nonce=session.nonce if nonce is None else nonce,
        )
        witness = zkp.AuthWitness(
            sk=device.keypair.sk if sk is None else sk,
            response_scalar=response_scalar(responses) if rho is None else rho,
        )
        proof = zkp.auth_prove_corrected(statement, witness, env["rng"])
        raw = AuthRequest(device.device_id, proof.to_bytes(),
                          session.nonce if nonce is None else nonce).to_bytes()
        return verifier.handle_auth_request(raw)

    def test_all_conditions_honest_accepts(self, env):
        assert self._handcrafted_attempt(env).accept

    def test_wrong_secret_key_rejects(self, env):
        assert not self._handcrafted_attempt(env, sk=Scalar.random(env["rng"])).accept

    def test_wrong_response_scalar_rejects(self, env):
        assert not self._handcrafted_attempt(env, rho=Scalar.random(env["rng"])).accept

    def test_stale_nonce_rejects(self, env):
        first = run_authentication(env["device"], env["verifier"], env["ledger"],
                                   zkp.MODE_CORRECTED, env["rng"], env["np_rng"])
        assert not self._handcrafted_attempt(env, nonce=first.nonce).accept

    def test_wrong_epoch_rejects(self, env):
        current = env["ledger"].load_device(env["device"].device_id).epoch
        assert not self._handcrafted_attempt(env, epoch=current + 5).accept


def _off_subgroup_encoding(group_name: str) -> bytes:
    """The compressed encoding of the curve point with the smallest x
    that lies outside the prime-order subgroup."""
    for x0 in range(1, 100):
        if group_name == "g1":
            y = curve.fq_sqrt((x0 ** 3 + curve.B_G1) % curve.P)
            pt = (x0, y)
            if y is not None and not curve.g1_in_subgroup(pt):
                return curve.g1_to_bytes(pt)
        else:
            x = (x0, 0)
            y = curve.fq2_sqrt(curve.fq2_add(curve.fq2_mul(curve.fq2_sqr(x), x), curve.B_G2))
            if y is not None and not curve.g2_in_subgroup((x, y)):
                return curve.g2_to_bytes((x, y))
    raise AssertionError("no off-subgroup point found")


def _alter(enc: bytes, how: str, rng) -> bytes:
    """A commitment encoding altered one of the ways a sender could."""
    group_name = "g1" if len(enc) == 48 else "g2"
    if how == "xor-sign-flag":
        return bytes([enc[0] ^ 0x20]) + enc[1:]
    if how == "xor-last-byte":
        return enc[:-1] + bytes([enc[-1] ^ 0x01])
    if how == "random-bytes":
        return rng.getrandbits(8 * len(enc)).to_bytes(len(enc), "big")
    if how == "off-subgroup":
        return _off_subgroup_encoding(group_name)
    if how == "x-out-of-range":
        x = bytearray(curve.P.to_bytes(48, "big"))
        x[0] |= 0x80
        return bytes(x) + bytes(len(enc) - 48)
    if how == "noncanonical-infinity":
        return b"\xc0" + bytes(len(enc) - 2) + b"\x01"
    if how == "other-point":
        element = G1Element if group_name == "g1" else G2Element
        return (element.generator() ** Scalar.random(rng)).to_bytes()
    assert how == "unaltered"
    return enc


ALTERATIONS = ["unaltered", "xor-sign-flag", "xor-last-byte", "random-bytes", "off-subgroup",
               "x-out-of-range", "noncanonical-infinity", "other-point"]


# Decisions the reference must reach; the other alterations may give
# either rejection reason, depending on the bytes they produce.
_EXPECTED_AUTH = {
    "unaltered": (True, "ok"),
    "xor-sign-flag": (False, "proof invalid"),
    "off-subgroup": (False, "malformed"),
    "x-out-of-range": (False, "malformed"),
    "noncanonical-infinity": (False, "malformed"),
    "other-point": (False, "proof invalid"),
}


def _reference_auth_decision(statement, raw):
    """The decision as made by decoding both commitments up front (with
    the subgroup check) and checking the sigma equations on points."""
    try:
        commit_sk = G2Element.from_bytes(raw[1:97])
        commit_puf = G1Element.from_bytes(raw[97:145])
        proof = zkp.CorrectedAuthProof.from_bytes(raw)
    except DecodeError:
        return False, "malformed"
    g1, g2, c = G1Element.generator(), G2Element.generator(), proof.challenge
    ok = (proof.session_nonce == statement.session_nonce
          and c == zkp._challenge(statement, (commit_sk, commit_puf))
          and g2 ** proof.resp_sk == commit_sk * statement.pk ** c
          and g1 ** proof.resp_puf == commit_puf * statement.response_commitment ** c)
    return (True, "ok") if ok else (False, "proof invalid")


def _reference_tx_accepts(statement, raw) -> bool:
    try:
        commit_sk = G2Element.from_bytes(raw[1:97])
        proof = zkp.CorrectedTxProof.from_bytes(raw)
    except DecodeError:
        return False
    c = proof.challenge
    return (proof.tx_nonce == statement.tx_nonce
            and c == zkp._challenge(statement, (commit_sk,))
            and G2Element.generator() ** proof.resp_sk == commit_sk * statement.pk ** c)


class TestCommitmentsComparedAsBytes:
    """The verifier recomputes each commitment and compares encodings;
    its decisions match decoding the commitments first."""

    @pytest.mark.parametrize("field", ["commit_sk", "commit_puf"])
    @pytest.mark.parametrize("how", ALTERATIONS)
    def test_auth_decision_matches_decoding_first(self, env, field, how):
        device, verifier, ledger, rng = env["device"], env["verifier"], env["ledger"], env["rng"]
        session = verifier.begin_session(device.device_id)
        raw = device.build_auth_proof(ledger, session.nonce, rng, env["np_rng"])
        span = slice(1, 97) if field == "commit_sk" else slice(97, 145)
        raw = raw[:span.start] + _alter(raw[span], how, rng) + raw[span.stop:]
        statement = ledger.load_device(device.device_id).auth_statement(session.nonce)
        expected = _reference_auth_decision(statement, raw)
        assert expected == _EXPECTED_AUTH.get(how, expected)
        if expected[1] != "malformed":
            assert zkp.auth_verify_corrected(
                statement, zkp.CorrectedAuthProof.from_bytes(raw)) == expected[0]
        decision = verifier.handle_auth_request(
            AuthRequest(device.device_id, raw, session.nonce).to_bytes())
        assert (decision.accept, decision.reason) == expected

    @pytest.mark.parametrize("how", ALTERATIONS)
    def test_submit_result_matches_decoding_first(self, env, how):
        device, ledger, rng = env["device"], env["ledger"], env["rng"]
        assert run_authentication(device, env["verifier"], ledger, zkp.MODE_CORRECTED,
                                  rng, env["np_rng"]).accepted
        record = device.build_tx_submit(ledger, b"reading", rng)
        proof = record.proof[:1] + _alter(record.proof[1:97], how, rng) + record.proof[97:]
        record = dataclasses.replace(record, proof=proof)
        statement = zkp.TxStatement(device.device_id, device.keypair.pk,
                                    hashlib.sha256(record.payload).digest(), record.nonce)
        accepts = _reference_tx_accepts(statement, proof)
        assert accepts == (how == "unaltered")
        digest, height = ledger.state_digest(), ledger.height
        result = ledger.invoke("submit", record)
        assert (result.committed, result.reason) == (
            (True, "committed") if accepts else (False, "proof invalid"))
        if not accepts:
            assert (ledger.state_digest(), ledger.height) == (digest, height)


@pytest.fixture()
def decode_counts(monkeypatch):
    """Calls to the point decoders behind the decode caches, which start
    empty: seeded tests repeat their proofs, so a cache could hold one."""
    group._g1_decode_cached.cache_clear()
    group._g2_decode_cached.cache_clear()
    counts = {"g1": 0, "g2": 0}
    for name in counts:
        decode = getattr(group, f"{name}_from_bytes")

        def counted(data, name=name, decode=decode):
            counts[name] += 1
            return decode(data)

        monkeypatch.setattr(group, f"{name}_from_bytes", counted)
    return counts


class TestAcceptDecodesNoCommitment:
    """Once a device's stored keys are decoded, accepting its proofs
    decodes nothing the prover sent."""

    def test_accepted_auth_request_decodes_no_point(self, env, decode_counts):
        device, verifier, ledger = env["device"], env["verifier"], env["ledger"]
        session = verifier.begin_session(device.device_id)
        raw = device.build_auth_proof(ledger, session.nonce, env["rng"], env["np_rng"])
        request = AuthRequest(device.device_id, raw, session.nonce).to_bytes()
        ledger.load_device(device.device_id)
        decode_counts.update(g1=0, g2=0)
        assert verifier.handle_auth_request(request).accept
        assert decode_counts == {"g1": 0, "g2": 0}

    def test_accepted_submit_decodes_no_g2_point(self, env, decode_counts):
        assert run_authentication(env["device"], env["verifier"], env["ledger"],
                                  zkp.MODE_CORRECTED, env["rng"], env["np_rng"]).accepted
        record = env["device"].build_tx_submit(env["ledger"], b"reading", env["rng"])
        env["ledger"].load_device(env["device"].device_id)
        decode_counts.update(g1=0, g2=0)
        assert env["ledger"].invoke("submit", record)
        assert decode_counts["g2"] == 0


class TestSetUpBuildsNoKeyTable:
    """The benchmark's own set-up multiplies every key fewer than
    TABLE_AFTER_USES times, even when each new device fails its first
    contact and is replaced, so no per-key table is built, and charged
    to setup_s, inside it."""

    @pytest.fixture()
    def key_tables(self, monkeypatch):
        tables = {}
        for group in ("g1", "g2"):
            tables[group] = curve._KeyTables(getattr(curve, f"_{group}_rows"))
            monkeypatch.setattr(curve, f"_{group.upper()}_KEYS", tables[group])
        return tables

    @pytest.fixture()
    def workloads(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
        return importlib.import_module("workloads")

    @pytest.mark.parametrize("workload", ["bulk", "onboard"])
    def test_no_key_reaches_its_table(self, workload, workloads, key_tables):
        bench = workloads.Bench(workload, 2100)
        bench.set_up()
        assert key_tables["g1"].tables == key_tables["g2"].tables == {}
        # the CA key once per registration
        slots = workloads.FULL.bulk_devices if workload == "bulk" else workloads.FULL.warmup_ops
        assert key_tables["g1"].uses[bench.ca.pk._pt] == slots + bench.setup_counts[2]

    @pytest.mark.parametrize("workload", ["bulk", "onboard"])
    def test_replacing_every_device_builds_no_table(self, workload, workloads, key_tables, monkeypatch):
        # the worst case: the first device of every slot runs its real
        # authentication, is counted as failing it, and is replaced, so
        # the CA key is checked twice per slot
        authenticate = workloads.Bench._authenticate
        contacts = itertools.count()

        def first_contact_fails(bench, device):
            accepted = authenticate(bench, device)
            return next(contacts) % 2 == 1 and accepted

        monkeypatch.setattr(workloads.Bench, "_authenticate", first_contact_fails)
        bench = workloads.Bench(workload, 2101)
        bench.set_up()
        slots = workloads.FULL.bulk_devices if workload == "bulk" else workloads.FULL.warmup_ops
        assert bench.setup_counts[2] == slots
        assert key_tables["g1"].tables == key_tables["g2"].tables == {}
        assert key_tables["g1"].uses[bench.ca.pk._pt] == workloads.DEVICE_ATTEMPTS * slots
