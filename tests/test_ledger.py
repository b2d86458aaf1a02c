"""Ledger mechanics: chaining, chaincode dispatch, atomicity, replay."""

import dataclasses
import hashlib
import os
import random
import statistics
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pufzk import zkp
from pufzk.identity import CertificateAuthority, KeyPair, register_device, response_scalar
from pufzk.ledger import (
    GENESIS_PREV_HASH,
    ChaincodeRejection,
    Ledger,
    LedgerError,
    RecordError,
    bootstrap,
    chain_prefix_valid,
    ledger_new,
    rotate_challenges,
    rotate_nonce,
    submit_nonce,
)
from pufzk.pairing import ORDER, DecodeError, G1Element, G2Element
from pufzk.protocol import Device
from pufzk.puf import challenges_to_bytes, puf_new, puf_respond
from pufzk.wire import (
    Certificate,
    DeviceRecord,
    SubsetRecord,
    TransactionRecord,
    WireError,
    _get_field,
    _put_field,
)


@pytest.fixture(scope="module")
def env():
    """Bootstrapped ledger with one registered device, authenticated
    once so that the submit chaincode admits it."""
    rng = random.Random(500)
    np_rng = np.random.default_rng(500)
    ca = CertificateAuthority(rng)
    setup = zkp.trust_setup(rng)
    ledger = ledger_new()
    assert bootstrap(ledger, setup.pk_setup, ca.pk)
    device_id, keypair = register_device(puf_new(7000, 0.0), ca, ledger, rng, np_rng)
    _authenticate(ledger, device_id, keypair, 7000, rng)
    return {
        "rng": rng, "np_rng": np_rng, "ca": ca, "setup": setup,
        "ledger": ledger, "device_id": device_id, "keypair": keypair,
    }


def _authenticate(ledger, device_id, keypair, puf_seed, rng):
    """Commit the device's rotation for its current epoch, as an
    accepted authentication does, so that the submit chaincode admits
    it."""
    nonce = rotate_nonce(ledger.load_device(device_id).epoch)
    proof = Device(puf_new(puf_seed, 0.0), device_id, keypair).build_auth_proof(ledger, nonce, rng)
    assert rotate_challenges(ledger, device_id, nonce, proof)


def _submit_record(ledger, device_id, keypair, payload, rng, nonce=None):
    """The device's signed and proved submit of ``payload``, by default
    under the nonce the submit chaincode accepts next."""
    if nonce is None:
        nonce = submit_nonce(ledger.next_seq(device_id))
    statement = zkp.TxStatement(
        device_id=device_id,
        pk=keypair.pk,
        payload_digest=hashlib.sha256(payload).digest(),
        tx_nonce=nonce,
    )
    proof = zkp.tx_prove_corrected(statement, keypair.sk, rng)
    return TransactionRecord(
        payload=payload,
        device_id=device_id,
        signature=zkp.sign(keypair.sk, payload).to_bytes(),
        proof=proof.to_bytes(),
        chaincode="submit",
        nonce=nonce,
    )


class TestGenesis:
    def test_genesis_prev_hash_all_zeros(self):
        ledger = ledger_new()
        assert ledger.block(0).prev_hash == GENESIS_PREV_HASH

    def test_fresh_ledgers_identical(self):
        a, b = ledger_new(), ledger_new()
        assert a.block_bytes(0) == b.block_bytes(0)
        assert a.state_digest() == b.state_digest()

    def test_fresh_chain_verifies(self):
        assert ledger_new().verify_chain()


class TestInvoke:
    def test_valid_signed_proved_tx_commits(self, env):
        ledger, rng = env["ledger"], env["rng"]
        before_height = ledger.height
        tx = _submit_record(ledger, env["device_id"], env["keypair"], b"reading-1", rng)
        result = ledger.invoke("submit", tx)
        assert result
        assert ledger.height == before_height + 1
        stored = ledger.get_state(f"data/{env['device_id'].hex()}/0")
        assert stored == b"reading-1"

    def test_mutated_payload_rejected_state_unchanged(self, env):
        ledger, rng = env["ledger"], env["rng"]
        tx = _submit_record(ledger, env["device_id"], env["keypair"], b"reading-2", rng)
        import dataclasses
        tampered = dataclasses.replace(tx, payload=b"reading-2!")
        digest_before = ledger.state_digest()
        result = ledger.invoke("submit", tampered)
        assert not result
        assert ledger.state_digest() == digest_before

    def test_corrupted_proof_rejected(self, env):
        ledger, rng = env["ledger"], env["rng"]
        tx = _submit_record(ledger, env["device_id"], env["keypair"], b"reading-3", rng)
        import dataclasses
        bad = bytearray(tx.proof)
        bad[10] ^= 0xFF
        result = ledger.invoke("submit", dataclasses.replace(tx, proof=bytes(bad)))
        assert not result

    @pytest.mark.parametrize("signature, detail", [
        (b"", "bad signature length"),
        (bytes(47), "bad signature length"),
        (b"x" * 48, "uncompressed G1 encodings not accepted"),
    ], ids=["empty", "47-bytes", "flag-less-48-bytes"])
    def test_undecodable_signature_has_its_own_reason(self, env, signature, detail):
        """Not "malformed record: …", which names a stored device
        record that does not parse."""
        ledger, rng = env["ledger"], env["rng"]
        tx = _submit_record(ledger, env["device_id"], env["keypair"], b"reading-6", rng)
        digest, height = ledger.state_digest(), ledger.height
        result = ledger.invoke("submit", dataclasses.replace(tx, signature=signature))
        assert not result and result.reason == f"malformed signature: {detail}"
        assert (ledger.state_digest(), ledger.height) == (digest, height)

    @pytest.mark.parametrize("rewrite", [
        lambda proof: proof + b"\x00",
        lambda proof: b"\x00" + proof[1:],
        lambda proof: proof[:-1] + bytes([proof[-1] ^ 1]),
    ], ids=["trailing-byte", "zero-tag", "rewritten-nonce"])
    def test_tx_proof_off_its_layout_or_nonce_is_invalid(self, env, rewrite):
        ledger, rng = env["ledger"], env["rng"]
        tx = _submit_record(ledger, env["device_id"], env["keypair"], b"reading-7", rng)
        digest, height = ledger.state_digest(), ledger.height
        result = ledger.invoke("submit", dataclasses.replace(tx, proof=rewrite(tx.proof)))
        assert not result and result.reason == "proof invalid"
        assert (ledger.state_digest(), ledger.height) == (digest, height)

    def test_nonce_reuse_rejected(self, env):
        """Two submits built from one read of the device's sequence
        number conflict: the first to commit makes the other stale."""
        ledger, rng = env["ledger"], env["rng"]
        first, second = [_submit_record(ledger, env["device_id"], env["keypair"], payload, rng)
                         for payload in (b"reading-4", b"reading-5")]
        assert first.nonce == second.nonce
        assert ledger.invoke("submit", first)
        digest, height = ledger.state_digest(), ledger.height
        result = ledger.invoke("submit", second)
        assert not result and result.reason == "stale nonce"
        assert (ledger.state_digest(), ledger.height) == (digest, height)

    @pytest.mark.parametrize("offset, reason", [
        (-1, "stale nonce"), (1, "unknown nonce"), ("random", "unknown nonce"),
        ("empty", "unknown nonce"), ("17-bytes", "unknown nonce")])
    def test_only_the_next_sequence_number_is_accepted(self, env, offset, reason):
        ledger, rng, device_id = env["ledger"], env["rng"], env["device_id"]
        assert ledger.invoke("submit", _submit_record(ledger, device_id, env["keypair"], b"r", rng))
        seq = ledger.next_seq(device_id)
        nonce = {"random": rng.randbytes(16), "empty": b"",
                 "17-bytes": b"\x00" + submit_nonce(seq)}.get(offset)
        if nonce is None:
            nonce = submit_nonce(seq + offset)
        digest, height = ledger.state_digest(), ledger.height
        tx = _submit_record(ledger, device_id, env["keypair"], b"off-rule", rng, nonce=nonce)
        result = ledger.invoke("submit", tx)
        assert not result and result.reason == reason
        assert (ledger.state_digest(), ledger.height) == (digest, height)

    def test_a_submit_adds_one_state_key(self, env):
        """The reading's key; the sequence number is rewritten in place
        and no key records the nonce."""
        ledger, rng, device_id = env["ledger"], env["rng"], env["device_id"]
        assert ledger.invoke("submit", _submit_record(ledger, device_id, env["keypair"], b"r", rng))
        keys = set(ledger._state)
        assert ledger.invoke("submit", _submit_record(ledger, device_id, env["keypair"], b"s", rng))
        seq = ledger.next_seq(device_id) - 1
        assert set(ledger._state) - keys == {f"data/{device_id.hex()}/{seq}"}
        assert not any(key.startswith("txnonce/") for key in ledger._state)

    def test_unknown_device_rejected(self, env):
        ledger, rng = env["ledger"], env["rng"]
        import dataclasses
        tx = _submit_record(ledger, env["device_id"], env["keypair"], b"x", rng)
        alien = dataclasses.replace(tx, device_id=bytes(32))
        result = ledger.invoke("submit", alien)
        assert not result and "unknown device" in result.reason

    def test_unknown_chaincode_raises(self, env):
        tx = _submit_record(env["ledger"], env["device_id"], env["keypair"], b"x", env["rng"])
        with pytest.raises(LedgerError):
            env["ledger"].invoke("no-such-chaincode", tx)

    def test_chaincode_field_mismatch_raises(self, env):
        tx = _submit_record(env["ledger"], env["device_id"], env["keypair"], b"x", env["rng"])
        with pytest.raises(LedgerError):
            env["ledger"].invoke("register", tx)

    def test_custom_chaincode_registration(self):
        ledger = ledger_new()

        def echo(state, tx):
            if not tx.payload:
                raise ChaincodeRejection("empty")
            return {"echo/last": tx.payload}

        ledger.register_chaincode("echo", echo)
        tx = TransactionRecord(b"hello", b"", b"", b"", "echo", b"n1")
        assert ledger.invoke("echo", tx)
        assert ledger.get_state("echo/last") == b"hello"
        with pytest.raises(LedgerError):
            ledger.register_chaincode("echo", echo)


def _registration(env, device_id=None, **changes):
    """A CA-certified registration tuple for a fresh key, under
    ``device_id`` (by default a fresh one), with fields replaced by
    ``changes``."""
    import dataclasses
    rng = env["rng"]
    keypair = KeyPair.generate(rng)
    if device_id is None:
        device_id = rng.getrandbits(256).to_bytes(32, "big")
    commitment, challenges = (G1Element.generator() ** 99).to_bytes(), bytes(8 * 4)
    fingerprint = rng.getrandbits(256).to_bytes(32, "big")
    record = DeviceRecord(
        device_id=device_id,
        pk_bytes=keypair.pk.to_bytes(),
        commitment_bytes=commitment,
        fingerprint=fingerprint,
        cert_bytes=env["ca"].issue(device_id, keypair.pk, commitment, fingerprint,
                                   challenges).to_bytes(),
        challenge_bytes=challenges,
    )
    record = dataclasses.replace(record, **changes)
    return TransactionRecord(record.to_bytes(), record.device_id, b"", b"", "register", b"")


class TestRegistrationValidation:
    def test_well_formed_registration_commits(self, env):
        assert env["ledger"].invoke("register", _registration(env))

    @pytest.mark.parametrize("changes", [
        # the probe from the ledger audit: both defects at once
        {"commitment_bytes": bytes(48), "challenge_bytes": bytes(9)},
        {"commitment_bytes": bytes(48)},
        {"challenge_bytes": bytes(9)},
        {"challenge_bytes": b""},
        {"fingerprint": bytes(31)},
        {"device_id": bytes(16)},
        {"pk_bytes": bytes(96)},
        {"commitment_bytes": (G1Element.generator() ** 5).to_bytes()[:47]},
    ], ids=["probe", "zero-commitment", "challenges-9-bytes", "no-challenges",
            "short-fingerprint", "short-device-id", "zero-pk", "short-commitment"])
    def test_malformed_registration_rejected_without_trace(self, env, changes):
        ledger = env["ledger"]
        digest, height = ledger.state_digest(), ledger.height
        result = ledger.invoke("register", _registration(env, **changes))
        assert not result and result.reason.startswith("malformed registration: ")
        assert ledger.state_digest() == digest and ledger.height == height

    def test_registration_before_bootstrap_rejected(self, env):
        ledger = ledger_new()
        digest, height = ledger.state_digest(), ledger.height
        result = ledger.invoke("register", _registration(env))
        assert not result and result.reason == "ledger not bootstrapped"
        assert (ledger.state_digest(), ledger.height) == (digest, height)

    def test_registered_device_id_is_a_duplicate(self, env):
        # certified, and under a fingerprint no device has enrolled with
        ledger = env["ledger"]
        digest, height = ledger.state_digest(), ledger.height
        result = ledger.invoke("register", _registration(env, device_id=env["device_id"]))
        assert not result and result.reason == "duplicate device id"
        assert (ledger.state_digest(), ledger.height) == (digest, height)

    @pytest.mark.parametrize("envelope", [
        lambda env: {"device_id": bytes(16)},
        lambda env: {"device_id": env["device_id"]},
        lambda env: {"signature": b"junk"},
        lambda env: {"proof": b"junk"},
    ], ids=["zero-device-id", "registered-device-id", "signature", "proof"])
    def test_envelope_carries_nothing_but_the_record(self, env, envelope):
        # the chaincode reads only the payload, so any other envelope
        # bytes would be committed unread and replayed forever
        ledger = env["ledger"]
        digest, height = ledger.state_digest(), ledger.height
        result = ledger.invoke("register", dataclasses.replace(_registration(env), **envelope(env)))
        assert not result and result.reason == (
            "malformed registration: envelope does not match the record")
        assert ledger.state_digest() == digest and ledger.height == height

    @pytest.mark.parametrize("nonce", [bytes(16), bytes(60_000)], ids=["16-bytes", "60000-bytes"])
    def test_registration_nonce_must_be_empty(self, env, nonce):
        ledger = env["ledger"]
        digest, height = ledger.state_digest(), ledger.height
        result = ledger.invoke("register", dataclasses.replace(_registration(env), nonce=nonce))
        assert not result and result.reason == "unknown nonce"
        assert ledger.state_digest() == digest and ledger.height == height

    def test_off_subgroup_pk_rejected(self, env):
        from pufzk.pairing import curve
        # the twist point with the smallest real x lies outside G2
        for x0 in range(1, 100):
            x = (x0, 0)
            y = curve.fq2_sqrt(curve.fq2_add(curve.fq2_mul(curve.fq2_sqr(x), x), curve.B_G2))
            if y is not None:
                break
        assert y is not None and not curve.g2_in_subgroup((x, y))
        pk_bytes = curve.g2_to_bytes((x, y))
        result = env["ledger"].invoke("register", _registration(env, pk_bytes=pk_bytes))
        assert not result and result.reason == (
            "malformed registration: point not in the prime-order subgroup")


def _with_cert_sig(tx, forge):
    """The registration ``tx`` with its certificate signature (e, s)
    replaced by ``forge(e, s)``."""
    record = DeviceRecord.from_bytes(tx.payload)
    cert = Certificate.from_bytes(record.cert_bytes)
    e, s = (int.from_bytes(cert.sig_bytes[i:i + 32], "big") for i in (0, 32))
    cert = dataclasses.replace(cert, sig_bytes=forge(e, s))
    record = dataclasses.replace(record, cert_bytes=cert.to_bytes())
    return dataclasses.replace(tx, payload=record.to_bytes())


def _scalars(*values):
    return b"".join(v.to_bytes(32, "big") for v in values)


class TestCertificateCheck:
    @pytest.mark.parametrize("forge", [
        lambda e, s: _scalars(e, s + ORDER),   # g1^(s + r) = g1^s
        lambda e, s: _scalars(e + ORDER, s),
        lambda e, s: _scalars(e, s) + b"\x00",
        lambda e, s: _scalars(e, s)[:63],
        lambda e, s: b"",
    ], ids=["s-plus-r", "e-plus-r", "65-bytes", "63-bytes", "empty"])
    def test_non_canonical_signature_is_malformed(self, env, forge):
        ledger = env["ledger"]
        tx = _registration(env)
        assert _with_cert_sig(tx, _scalars) == tx
        digest, height = ledger.state_digest(), ledger.height
        result = ledger.invoke("register", _with_cert_sig(tx, forge))
        assert not result and result.reason.startswith("malformed certificate: ")
        assert (ledger.state_digest(), ledger.height) == (digest, height)

    def test_signature_of_another_ca_rejected(self, env):
        other = dict(env, ca=CertificateAuthority(random.Random(501)))
        result = env["ledger"].invoke("register", _registration(other))
        assert not result and result.reason == "certificate signature invalid"

    def test_altered_signature_rejected(self, env):
        tx = _with_cert_sig(_registration(env), lambda e, s: _scalars(e, (s + 1) % ORDER))
        result = env["ledger"].invoke("register", tx)
        assert not result and result.reason == "certificate signature invalid"


# moves a challenge out of the 128-bit challenge set: c0 + c1*x^2 with
# c0, c1 < 2^64 lies below 2^192, and c + 2^200 stays below r
_OFF_THE_SET = 1 << 200


def _off_the_set(proof, secrets):
    """``proof`` with its challenge moved out of the challenge set and
    each response moved to match, so that its sigma equations hold."""
    commits, challenge, responses, nonce = proof._parts()
    return type(proof)(*commits, challenge + _OFF_THE_SET,
                       *(s + _OFF_THE_SET * x for s, x in zip(responses, secrets)), nonce)


class TestChallengeSet:
    """A proof or certificate whose challenge lies outside the challenge
    set is refused, although its group equations hold: only the hashed
    challenge is accepted."""

    @staticmethod
    def _refused(ledger, chaincode, tx, reason):
        digest, height = ledger.state_digest(), ledger.height
        result = ledger.invoke(chaincode, tx)
        assert not result and result.reason == reason
        assert (ledger.state_digest(), ledger.height) == (digest, height)

    def test_auth_proof_off_the_set_is_invalid(self, env):
        ledger, device_id = env["ledger"], env["device_id"]
        stored = ledger.load_device(device_id)
        nonce = rotate_nonce(stored.epoch)
        statement = stored.auth_statement(nonce)
        honest = zkp.CorrectedAuthProof.from_bytes(_auth_proof(env, nonce))
        assert zkp.auth_verify_corrected(statement, honest)
        rho = response_scalar(puf_respond(puf_new(7000, 0.0), stored.challenges))
        proof = _off_the_set(honest, (env["keypair"].sk, rho))
        assert zkp.verify_sigma_equations(statement, proof)
        tx = TransactionRecord(b"", device_id, b"", proof.to_bytes(), "rotate", nonce)
        self._refused(ledger, "rotate", tx, "proof invalid")

    def test_tx_proof_off_the_set_is_invalid(self, env):
        ledger, keypair = env["ledger"], env["keypair"]
        tx = _submit_record(ledger, env["device_id"], keypair, b"reading-off-the-set", env["rng"])
        statement = zkp.TxStatement(env["device_id"], keypair.pk, hashlib.sha256(tx.payload).digest(), tx.nonce)
        proof = _off_the_set(zkp.CorrectedTxProof.from_bytes(tx.proof), (keypair.sk,))
        assert zkp.verify_sigma_equations(statement, proof)
        self._refused(ledger, "submit", dataclasses.replace(tx, proof=proof.to_bytes()), "proof invalid")

    def test_certificate_off_the_set_is_invalid(self, env):
        # R = g1^s * pk^-e is unchanged when s moves by 2^200 * sk
        sk = env["ca"].sk.value
        tx = _with_cert_sig(_registration(env), lambda e, s: _scalars(
            e + _OFF_THE_SET, (s + _OFF_THE_SET * sk) % ORDER))
        self._refused(env["ledger"], "register", tx, "certificate signature invalid")


class TestQueries:
    def test_missing_key_not_found(self):
        with pytest.raises(KeyError):
            ledger_new().get_state("nope")

    def test_unknown_identity_not_found(self):
        with pytest.raises(KeyError):
            ledger_new().load_device(bytes(32))

    def test_load_device_matches_registration(self, env):
        stored = env["ledger"].load_device(env["device_id"])
        key = env["device_id"].hex()
        assert stored.record == DeviceRecord.from_bytes(env["ledger"].get_state(f"identity/{key}"))
        assert stored.pk == env["keypair"].pk
        assert stored.commitment == G1Element.generator() ** response_scalar(
            puf_respond(puf_new(7000, 0.0), stored.challenges))
        assert challenges_to_bytes(stored.challenges) == stored.record.challenge_bytes
        assert stored.epoch == SubsetRecord.from_bytes(env["ledger"].get_state(f"subset/{key}")).epoch

    @pytest.mark.parametrize("case", [
        "well-formed", "garbage-record", "garbage-epoch", "missing-epoch", "record-of-another-id"])
    def test_malformed_device_state_raises_record_error(self, env, case):
        """Device state planted by a foreign chaincode: every malformed
        form of it is one typed error."""
        record = env["ledger"].load_device(env["device_id"]).record
        device_id = bytes(range(32))
        planted = {
            "identity": dataclasses.replace(record, device_id=device_id).to_bytes(),
            "subset": SubsetRecord(0).to_bytes(),
        }
        if case == "garbage-record":
            planted["identity"] = b"garbage"
        elif case == "garbage-epoch":
            planted["subset"] = b"garbage"
        elif case == "missing-epoch":
            del planted["subset"]
        elif case == "record-of-another-id":
            planted["identity"] = record.to_bytes()
        ledger = ledger_new()
        ledger.register_chaincode("plant", lambda view, tx: {
            f"{kind}/{device_id.hex()}": value for kind, value in planted.items()})
        assert ledger.invoke("plant", TransactionRecord(b"", b"", b"", b"", "plant", b"n"))
        if case == "well-formed":
            assert ledger.load_device(device_id).epoch == 0
        else:
            with pytest.raises(RecordError):
                ledger.load_device(device_id)

    def test_rejected_tx_writes_never_visible(self, env):
        ledger, rng = env["ledger"], env["rng"]
        seq_key = f"dataseq/{env['device_id'].hex()}"
        seq_before = ledger.get_state(seq_key)
        tx = _submit_record(ledger, env["device_id"], env["keypair"], b"phantom", rng)
        import dataclasses
        ledger.invoke("submit", dataclasses.replace(tx, signature=b"\x00" * 48))
        assert ledger.get_state(seq_key) == seq_before
        count = int.from_bytes(seq_before, "big")
        with pytest.raises(KeyError):
            ledger.get_state(f"data/{env['device_id'].hex()}/{count}")


class TestChainVerification:
    def test_untouched_chain_verifies(self, env):
        assert env["ledger"].verify_chain()

    def test_every_single_byte_mutation_detected(self, env):
        ledger, rng = env["ledger"], env["rng"]
        assert ledger.height >= 2
        for _ in range(100):
            height = rng.randrange(0, ledger.height + 1)
            offset = rng.randrange(0, len(ledger.block_bytes(height)))
            mask = rng.randrange(1, 256)
            ledger.corrupt_block_byte(height, offset, mask)
            assert not ledger.verify_chain(), f"mutation at block {height} offset {offset} undetected"
            ledger.corrupt_block_byte(height, offset, mask)  # restore
        assert ledger.verify_chain()

    def test_truncated_ledger_prefix_semantics(self, env):
        ledger = env["ledger"]
        blocks = [ledger.block_bytes(h) for h in range(ledger.height + 1)]
        valid, height = chain_prefix_valid(blocks[:-1])
        assert valid and height == ledger.height - 1
        valid, height = chain_prefix_valid(blocks)
        assert valid and height == ledger.height


def _auth_proof(env, nonce, epoch=None):
    """The env device's corrected-mode authentication proof for session
    ``nonce`` at ``epoch`` (by default its stored one), as wire bytes."""
    device = Device(puf_new(7000, 0.0), env["device_id"], env["keypair"])
    stored = env["ledger"].load_device(env["device_id"])
    if epoch is not None:
        stored = stored._replace(epoch=epoch)
    return device.prove_auth(stored, puf_respond(device.puf, stored.challenges), nonce, env["rng"])


class TestRotation:
    def test_rotation_is_committed_and_advances_epoch(self, env):
        """A rotation carrying the device's proof for its current epoch
        commits once; sent again, its nonce is behind state."""
        ledger = env["ledger"]
        device_id = env["device_id"]
        before = ledger.load_device(device_id).epoch
        height_before = ledger.height
        nonce = rotate_nonce(before)
        proof = _auth_proof(env, nonce)
        result = rotate_challenges(ledger, device_id, nonce, proof)
        assert result and result.block_height == height_before + 1
        assert ledger.height == height_before + 1
        assert ledger.load_device(device_id).epoch == before + 1
        assert ledger.transactions()[-1] == TransactionRecord(b"", device_id, b"", proof, "rotate", nonce)
        again = rotate_challenges(ledger, device_id, nonce, proof)
        assert not again and again.reason == "stale nonce"
        assert ledger.height == height_before + 1

    @pytest.mark.parametrize("case, reason", [
        ("empty-proof", "malformed"),
        ("garbage-proof", "malformed"),
        ("off-subgroup-commitment", "malformed"),
        ("next-epoch", "proof invalid"),
        ("other-nonce", "unknown nonce"),
        ("next-epoch-nonce", "unknown nonce"),
        ("earlier-epoch-nonce", "stale nonce"),
        ("zero-tail-flipped", "unknown nonce"),
        ("payload", "malformed rotation: payload and signature must be empty"),
        ("signature", "malformed rotation: payload and signature must be empty"),
    ])
    def test_rotation_without_a_valid_current_proof_rejected(self, env, case, reason):
        ledger, rng = env["ledger"], env["rng"]
        device_id = env["device_id"]
        current = ledger.load_device(device_id).epoch
        nonce = rotate_nonce(current)
        honest = _auth_proof(env, nonce)
        tx = TransactionRecord(b"", device_id, b"", honest, "rotate", nonce)

        def under(other):
            return dataclasses.replace(tx, proof=_auth_proof(env, other), nonce=other)

        tx = {
            "empty-proof": dataclasses.replace(tx, proof=b""),
            "garbage-proof": dataclasses.replace(tx, proof=b"\x02garbage"),
            # (0, 2), a point of order 3 outside G1, as the PUF commitment
            "off-subgroup-commitment": dataclasses.replace(
                tx, proof=honest[:97] + b"\x80" + bytes(47) + honest[145:]),
            "next-epoch": dataclasses.replace(tx, proof=_auth_proof(env, nonce, current + 1)),
            "other-nonce": dataclasses.replace(tx, nonce=rng.randbytes(16)),
            "next-epoch-nonce": under(rotate_nonce(current + 1)),
            "earlier-epoch-nonce": under(rotate_nonce(current - 1)),
            "zero-tail-flipped": under(nonce[:-1] + b"\x01"),
            "payload": dataclasses.replace(tx, payload=b"reading"),
            "signature": dataclasses.replace(tx, signature=bytes(48)),
        }[case]
        digest, height = ledger.state_digest(), ledger.height
        result = ledger.invoke("rotate", tx)
        assert not result and result.reason == reason
        assert (ledger.state_digest(), ledger.height) == (digest, height)
        assert ledger.load_device(device_id).epoch == current

    def test_rotation_of_unknown_device_fails(self, env):
        ledger, nonce = env["ledger"], env["rng"].randbytes(16)
        height = ledger.height
        result = rotate_challenges(ledger, bytes(32), nonce, _auth_proof(env, nonce))
        assert not result and result.reason == "unknown device"
        assert ledger.height == height


def _log(records) -> bytes:
    """An export_log-format log of ``records``, in the order given."""
    log = bytearray(b"PZLG\x01" + len(records).to_bytes(4, "big"))
    for record in records:
        _put_field(log, record.to_bytes(), width=4)
    return bytes(log)


@pytest.fixture(scope="module")
def one_of_each(env):
    """A ledger holding one transaction of each built-in chaincode:
    bootstrap, register, rotate and submit, in commit order."""
    rng, np_rng = random.Random(65), np.random.default_rng(65)
    ledger = ledger_new()
    assert bootstrap(ledger, env["setup"].pk_setup, env["ca"].pk)
    device_id, keypair = register_device(puf_new(7065, 0.0), env["ca"], ledger, rng, np_rng)
    _authenticate(ledger, device_id, keypair, 7065, rng)
    assert ledger.invoke("submit", _submit_record(ledger, device_id, keypair, b"reading", rng))
    return ledger


_MALFORMED_BOOTSTRAP = "malformed bootstrap: device id, signature and proof must be empty"


class TestReplayDeterminism:
    def test_replay_reproduces_state_digest(self, env):
        ledger = env["ledger"]
        replayed = Ledger.replay_log(ledger.export_log())
        assert replayed.state_digest() == ledger.state_digest()
        assert replayed.head_digest() == ledger.head_digest()
        assert replayed.height == ledger.height

    def test_replay_reverifies_rotation_proofs(self, env):
        """One byte of a committed rotation's proof flipped inside the
        exported log: the rotate chaincode rejects it on replay."""
        ledger = env["ledger"]
        nonce = rotate_nonce(ledger.load_device(env["device_id"]).epoch)
        proof = _auth_proof(env, nonce)
        assert rotate_challenges(ledger, env["device_id"], nonce, proof)
        log = bytearray(ledger.export_log())
        log[log.rindex(proof) + 200] ^= 0x01  # inside resp_sk
        with pytest.raises(LedgerError, match="^replay diverged: "):
            Ledger.replay_log(bytes(log))

    def test_replay_reapplies_the_submit_gate(self, one_of_each):
        """A hand-built log whose submit precedes the device's first
        rotation diverges on replay; in commit order it replays."""
        ledger = one_of_each
        bootstrap_tx, register_tx, rotate_tx, submit_tx = ledger.transactions()
        assert _log(ledger.transactions()) == ledger.export_log()
        assert Ledger.replay_log(ledger.export_log()).state_digest() == ledger.state_digest()
        with pytest.raises(LedgerError, match="^replay diverged: unauthenticated$"):
            Ledger.replay_log(_log((bootstrap_tx, register_tx, submit_tx, rotate_tx)))

    @pytest.mark.parametrize("index", range(4), ids=["bootstrap", "register", "rotate", "submit"])
    def test_replay_refuses_an_off_rule_nonce(self, one_of_each, index):
        """A hand-built log in commit order, with one transaction's
        nonce rewritten off its chaincode's rule, diverges on replay."""
        records = list(one_of_each.transactions())
        records[index] = dataclasses.replace(records[index], nonce=b"\x01" * 16)
        with pytest.raises(LedgerError, match="^replay diverged: unknown nonce$"):
            Ledger.replay_log(_log(records))

    def test_bad_log_header_rejected(self):
        from pufzk.wire import WireError
        with pytest.raises(WireError):
            Ledger.replay_log(b"JUNK\x01\x00\x00\x00\x00")

    @pytest.mark.parametrize("size", range(5, 9))
    def test_log_cut_inside_its_header_is_truncated(self, size):
        log = ledger_new().export_log()
        assert log == b"PZLG\x01" + bytes(4) and Ledger.replay_log(log).height == 0
        with pytest.raises(WireError, match="^truncated record$"):
            Ledger.replay_log(log[:size])

    @given(st.lists(st.tuples(
        st.sampled_from(["bootstrap", "register", "rotate", "submit", "unknown"]),
        st.binary(max_size=48), st.binary(max_size=40)), max_size=4),
        st.binary(max_size=16))
    @settings(max_examples=150, deadline=None)
    def test_replay_of_any_log_raises_only_typed_errors(self, txs, tail):
        """Well-framed logs of garbage transactions reach every chaincode;
        a stray tail exercises the framing."""
        buf = bytearray(b"PZLG\x01" + len(txs).to_bytes(4, "big"))
        for chaincode, payload, device_id in txs:
            tx = TransactionRecord(payload, device_id, payload[:48], payload, chaincode, b"n")
            _put_field(buf, tx.to_bytes(), width=4)
        for log in (bytes(buf), bytes(buf) + tail, bytes(buf[:len(buf) - len(tail)])):
            try:
                Ledger.replay_log(log)
            except (WireError, DecodeError, LedgerError):
                pass

    @pytest.mark.parametrize("ca_pk", [
        (G2Element.generator() ** 3).to_bytes(),
        b"\x80" + bytes(47),  # (0, 2): a point of order 3, outside G1
        b"\xc0" + bytes(47),  # the identity
    ], ids=["g2-key", "off-subgroup", "identity"])
    def test_bootstrap_rejects_bad_ca_key(self, env, ca_pk):
        buf = bytearray()
        _put_field(buf, ca_pk)
        ledger = ledger_new()
        result = ledger.invoke("bootstrap", TransactionRecord(
            bytes(buf), b"", b"", b"", "bootstrap", b""))
        assert not result and result.reason.startswith("invalid bootstrap key: ")
        assert ledger.height == 0

    def test_bootstrap_rejects_trailing_fields(self, env):
        # the CA-key field, then a second field and 8 stray bytes
        buf = bytearray()
        _put_field(buf, env["ca"].pk.to_bytes())
        _put_field(buf, b"second field")
        buf += bytes(8)
        ledger = ledger_new()
        digest = ledger.state_digest()
        result = ledger.invoke("bootstrap", TransactionRecord(
            bytes(buf), b"", b"", b"", "bootstrap", b""))
        assert not result and result.reason.startswith("malformed bootstrap payload: ")
        assert ledger.height == 0 and ledger.state_digest() == digest
        assert list(ledger._state) == []

    @pytest.mark.parametrize("envelope, reason", [
        ({"signature": b"junk"}, _MALFORMED_BOOTSTRAP),
        ({"proof": b"junk"}, _MALFORMED_BOOTSTRAP),
        ({"device_id": b"system"}, _MALFORMED_BOOTSTRAP),
        ({"nonce": b"genesis"}, "unknown nonce"),
    ], ids=["signature", "proof", "device-id", "nonce"])
    def test_bootstrap_envelope_carries_nothing_but_the_key(self, env, envelope, reason):
        buf = bytearray()
        _put_field(buf, env["ca"].pk.to_bytes())
        tx = TransactionRecord(bytes(buf), b"", b"", b"", "bootstrap", b"")
        assert ledger_new().invoke("bootstrap", tx)
        ledger = ledger_new()
        digest = ledger.state_digest()
        result = ledger.invoke("bootstrap", dataclasses.replace(tx, **envelope))
        assert not result and result.reason == reason
        assert ledger.height == 0 and ledger.state_digest() == digest
        assert list(ledger._state) == []

    def test_bootstrap_only_once(self, env):
        setup, ca = env["setup"], env["ca"]
        ledger = ledger_new()
        assert bootstrap(ledger, setup.pk_setup, ca.pk)
        assert list(ledger._state) == ["ca/pk"]  # the setup key is not published
        result = bootstrap(ledger, setup.pk_setup, ca.pk)
        assert not result and "bootstrapped" in result.reason


def _cc_put(view, tx):
    """Test chaincode: the payload is a reject flag byte, then (key,
    value) fields to write."""
    writes, off = {}, 1
    while off < len(tx.payload):
        key, off = _get_field(tx.payload, off)
        value, off = _get_field(tx.payload, off, width=4)
        writes[key.decode()] = value
    if tx.payload[:1] == b"\x01":
        raise ChaincodeRejection("rejected on request")
    return writes


def _cc_fill(view, tx):
    """Test chaincode: writes as many 8-byte keys as the payload says."""
    return {f"fill/{i}": i.to_bytes(8, "big") for i in range(int.from_bytes(tx.payload, "big"))}


class _PutLedger(Ledger):
    """A ledger with the ``put`` chaincode, so that its logs replay."""

    def __init__(self):
        super().__init__()
        self.register_chaincode("put", _cc_put)


def _put_tx(writes, reject=False, nonce=b"n"):
    buf = bytearray(b"\x01" if reject else b"\x00")
    for key, value in writes.items():
        _put_field(buf, key.encode())
        _put_field(buf, value, width=4)
    return TransactionRecord(bytes(buf), b"", b"", b"", "put", nonce)


def _lthash_from_scratch(state):
    """The state digest recomputed in plain Python over ``state``,
    {key: (value, version)}: SHA-256 of the lane-wise sum mod 2^16 of
    each key's SHAKE-128 leaf."""
    lanes = [0] * 1024
    for key, (value, version) in state.items():
        kb = key.encode()
        seed = hashlib.sha256(len(kb).to_bytes(4, "big") + kb + len(value).to_bytes(4, "big")
                              + value + version.to_bytes(8, "big")).digest()
        leaf = struct.unpack("<1024H", hashlib.shake_128(seed).digest(2048))
        lanes = [(a + b) % 65536 for a, b in zip(lanes, leaf)]
    return hashlib.sha256(struct.pack("<1024H", *lanes)).digest()


_KEYS = st.sampled_from(["", "a", "b", "data/0", "k" * 300]) | st.text(max_size=6)
_VALUES = st.sampled_from([b"", b"v", bytes(5000)]) | st.binary(max_size=64)


class TestStateDigest:
    @given(st.lists(st.tuples(st.booleans(), st.dictionaries(_KEYS, _VALUES, min_size=1,
                                                             max_size=4)), max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_digest_matches_lthash_from_scratch(self, steps):
        """Committed and rejected writes of new keys, overwrites and
        identical rewrites: after each, the digest equals the one
        recomputed over the whole state, and the log, its export and
        its replay agree."""
        ledger, model, committed = _PutLedger(), {}, []
        assert ledger.state_digest() == _lthash_from_scratch(model)
        for i, (reject, writes) in enumerate(steps):
            tx = _put_tx(writes, reject, nonce=i.to_bytes(4, "big"))
            assert bool(ledger.invoke("put", tx)) is not reject
            if not reject:
                committed.append(tx)
                for key, value in writes.items():
                    model[key] = (value, model.get(key, (b"", 0))[1] + 1)
            assert ledger.state_digest() == _lthash_from_scratch(model)
            assert ledger.block(ledger.height).state_digest == ledger.state_digest()
        assert {key: (ledger.get_state(key), version)
                for key, (_, version) in ledger._state.items()} == model
        assert ledger.transactions() == tuple(committed)
        log = bytearray(b"PZLG\x01" + len(committed).to_bytes(4, "big"))
        for tx in committed:
            _put_field(log, tx.to_bytes(), width=4)
        assert ledger.export_log() == bytes(log)
        replayed = _PutLedger.replay_log(ledger.export_log())
        assert replayed.state_digest() == ledger.state_digest()
        assert replayed.head_digest() == ledger.head_digest()

    @given(st.dictionaries(st.text(max_size=8), _VALUES, min_size=2, max_size=6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_same_state_in_any_write_order_same_digest(self, writes, data):
        order = data.draw(st.permutations(sorted(writes)))
        digests = set()
        for keys in (sorted(writes), order):
            ledger = _PutLedger()
            for key in keys:
                assert ledger.invoke("put", _put_tx({key: writes[key]}))
            digests.add(ledger.state_digest())
        ledger = _PutLedger()
        assert ledger.invoke("put", _put_tx(writes))
        digests.add(ledger.state_digest())
        assert len(digests) == 1

    @given(st.text(max_size=8), st.binary(min_size=1, max_size=64), st.data())
    @settings(max_examples=40, deadline=None)
    def test_one_byte_or_a_version_changes_the_digest(self, key, value, data):
        i = data.draw(st.integers(0, len(value) - 1))
        flipped = bytearray(value)
        flipped[i] ^= data.draw(st.integers(1, 255))
        digests = set()
        for values in ([value], [bytes(flipped)], [value, value]):
            ledger = _PutLedger()
            assert ledger.invoke("put", _put_tx({"other": b"x"}))
            for v in values:
                assert ledger.invoke("put", _put_tx({key: v}))
            digests.add(ledger.state_digest())
        assert len(digests) == 3


class TestCommitCost:
    def test_commit_time_does_not_grow_with_state(self):
        """The median commit of a 3-key write-set at 10,000 keys costs
        within 2x of the same commit at 1,000 keys."""
        ledgers = []
        for count in (1_000, 10_000):
            ledger = _PutLedger()
            ledger.register_chaincode("fill", _cc_fill)
            assert ledger.invoke("fill", TransactionRecord(
                count.to_bytes(4, "big"), b"", b"", b"", "fill", b"f"))
            ledgers.append(ledger)
        times = ([], [])
        for i in range(61):
            tx = _put_tx({f"new/{i}/{j}": bytes(64) for j in range(3)}, nonce=i.to_bytes(4, "big"))
            for ledger, out in zip(ledgers, times):
                t0 = time.perf_counter()
                assert ledger.invoke("put", tx)
                out.append(time.perf_counter() - t0)
        small, large = (statistics.median(t) for t in times)
        assert large < 2 * small, (small, large)


class TestCommittedBytesOffHeap:
    def test_committed_payloads_leave_the_heap(self):
        """200 commits of 64 KiB payloads grow the Python heap by less
        than 8 KiB each."""
        ledger, rng = _PutLedger(), random.Random(7)

        def commit(i):
            tx = _put_tx({f"data/{i}": rng.randbytes(65536)}, nonce=i.to_bytes(4, "big"))
            assert ledger.invoke("put", tx)

        for i in range(5):
            commit(i)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(5, 205):
                commit(i)
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert growth / 200 < 8 * 1024, growth

    def test_values_read_back_byte_exact(self):
        """Every value reads back as written, from the ledger and from a
        chaincode's view, and ``len()`` of a stored value is its byte
        length, as state-size gauges read it."""
        rng = random.Random(11)
        values = {f"v/{n}": rng.randbytes(n) for n in (0, 1, 4095, 4096, 4097, 65536)}
        ledger = _PutLedger()
        for i, (key, value) in enumerate(values.items()):
            assert ledger.invoke("put", _put_tx({key: value}, nonce=bytes([i])))
        assert ledger.invoke("put", _put_tx({"v/1": b"rewritten"}, nonce=b"r"))
        values["v/1"] = b"rewritten"
        ledger.register_chaincode("copy", lambda view, tx: {"copy": view.get("v/65536")})
        assert ledger.invoke("copy", TransactionRecord(b"", b"", b"", b"", "copy", b"c"))
        values["copy"] = values["v/65536"]
        for key, value in values.items():
            assert ledger.get_state(key) == value
            assert len(ledger._state[key][0]) == len(value)
        assert (sum(len(k) + len(v) for k, (v, _) in ledger._state.items())
                == sum(len(k) + len(v) for k, v in values.items()))

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open fds in /proc")
    def test_dropped_or_closed_ledgers_release_their_files(self):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        before = open_fds()
        for i in range(500):
            ledger = _PutLedger()
            assert ledger.invoke("put", _put_tx({"k": bytes(i)}))
        del ledger
        assert open_fds() == before
        ledger = _PutLedger()
        assert ledger.invoke("put", _put_tx({"k": b"v"}))
        ledger.close()
        assert open_fds() == before
        with pytest.raises(ValueError):
            ledger.get_state("k")


class TestPayloadStoredOnce:
    def test_submitted_payload_is_written_once(self, env):
        """A 64 KiB submit grows the ledger file by one copy of its
        payload, not two.  The stored reading is the payload, the digest
        is the one recomputed over the values read back, and the export
        and its replay hold the same transactions, values and digests."""
        rng, np_rng = random.Random(64), np.random.default_rng(64)
        ledger = ledger_new()
        assert bootstrap(ledger, env["setup"].pk_setup, env["ca"].pk)
        device_id, keypair = register_device(puf_new(7064, 0.0), env["ca"], ledger, rng, np_rng)
        _authenticate(ledger, device_id, keypair, 7064, rng)
        payload = rng.randbytes(65536)
        tx = _submit_record(ledger, device_id, keypair, payload, rng)
        before = os.fstat(ledger._file.fileno()).st_size
        assert ledger.invoke("submit", tx)
        assert os.fstat(ledger._file.fileno()).st_size - before < 70 * 1024
        assert ledger.get_state(f"data/{device_id.hex()}/0") == payload
        assert ledger.get_state(f"dataseq/{device_id.hex()}") == (1).to_bytes(8, "big")
        values = {key: ledger.get_state(key) for key in ledger._state}
        model = {key: (values[key], version) for key, (_, version) in ledger._state.items()}
        assert ledger.state_digest() == _lthash_from_scratch(model)
        committed = ledger.transactions()
        assert len(committed) == 4 and committed[-1] == tx
        assert ledger.export_log() == _log(committed)
        replayed = Ledger.replay_log(ledger.export_log())
        assert replayed.export_log() == ledger.export_log()
        assert {key: replayed.get_state(key) for key in replayed._state} == values
        assert replayed.state_digest() == ledger.state_digest()
        assert replayed.head_digest() == ledger.head_digest()
