"""Ledger mechanics: chaining, chaincode dispatch, atomicity, replay."""

import random

import numpy as np
import pytest

from pufzk import zkp
from pufzk.identity import CertificateAuthority, register_device
from pufzk.ledger import (
    GENESIS_PREV_HASH,
    ChaincodeRejection,
    Ledger,
    LedgerError,
    bootstrap,
    chain_prefix_valid,
    ledger_new,
    rotate_challenges,
)
from pufzk.puf import puf_new
from pufzk.wire import SubsetRecord, TransactionRecord, _put_field


@pytest.fixture(scope="module")
def env():
    """Bootstrapped ledger with one registered device."""
    rng = random.Random(500)
    np_rng = np.random.default_rng(500)
    ca = CertificateAuthority(rng)
    setup = zkp.trust_setup(rng)
    ledger = ledger_new()
    assert bootstrap(ledger, setup.pk_setup, ca.pk)
    identity, keypair = register_device(puf_new(7000, 0.0), ca, ledger, rng, np_rng)
    return {
        "rng": rng, "np_rng": np_rng, "ca": ca, "setup": setup,
        "ledger": ledger, "identity": identity, "keypair": keypair,
    }


def _submit_record(identity, keypair, payload, rng, nonce=None):
    nonce = nonce or rng.getrandbits(128).to_bytes(16, "big")
    import hashlib
    statement = zkp.TxStatement(
        device_id=identity.device_id,
        pk=identity.pk,
        payload_digest=hashlib.sha256(payload).digest(),
        tx_nonce=nonce,
    )
    proof = zkp.tx_prove_corrected(statement, keypair.sk, rng)
    return TransactionRecord(
        payload=payload,
        device_id=identity.device_id,
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
        tx = _submit_record(env["identity"], env["keypair"], b"reading-1", rng)
        result = ledger.invoke("submit", tx)
        assert result
        assert ledger.height == before_height + 1
        stored = ledger.get_state(f"data/{env['identity'].device_id.hex()}/0")
        assert stored == b"reading-1"

    def test_mutated_payload_rejected_state_unchanged(self, env):
        ledger, rng = env["ledger"], env["rng"]
        tx = _submit_record(env["identity"], env["keypair"], b"reading-2", rng)
        import dataclasses
        tampered = dataclasses.replace(tx, payload=b"reading-2!")
        digest_before = ledger.state_digest()
        result = ledger.invoke("submit", tampered)
        assert not result
        assert ledger.state_digest() == digest_before

    def test_corrupted_proof_rejected(self, env):
        ledger, rng = env["ledger"], env["rng"]
        tx = _submit_record(env["identity"], env["keypair"], b"reading-3", rng)
        import dataclasses
        bad = bytearray(tx.proof)
        bad[10] ^= 0xFF
        result = ledger.invoke("submit", dataclasses.replace(tx, proof=bytes(bad)))
        assert not result

    def test_nonce_reuse_rejected(self, env):
        ledger, rng = env["ledger"], env["rng"]
        nonce = rng.getrandbits(128).to_bytes(16, "big")
        tx = _submit_record(env["identity"], env["keypair"], b"reading-4", rng, nonce=nonce)
        assert ledger.invoke("submit", tx)
        replay = _submit_record(env["identity"], env["keypair"], b"reading-5", rng, nonce=nonce)
        result = ledger.invoke("submit", replay)
        assert not result and "nonce" in result.reason

    def test_unknown_device_rejected(self, env):
        ledger, rng = env["ledger"], env["rng"]
        import dataclasses
        tx = _submit_record(env["identity"], env["keypair"], b"x", rng)
        alien = dataclasses.replace(tx, device_id=bytes(32))
        result = ledger.invoke("submit", alien)
        assert not result and "unknown device" in result.reason

    def test_unknown_chaincode_raises(self, env):
        tx = _submit_record(env["identity"], env["keypair"], b"x", env["rng"])
        with pytest.raises(LedgerError):
            env["ledger"].invoke("no-such-chaincode", tx)

    def test_chaincode_field_mismatch_raises(self, env):
        tx = _submit_record(env["identity"], env["keypair"], b"x", env["rng"])
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


class TestQueries:
    def test_missing_key_not_found(self):
        with pytest.raises(KeyError):
            ledger_new().get_state("nope")

    def test_unknown_identity_not_found(self):
        with pytest.raises(KeyError):
            ledger_new().query_identity(bytes(32))

    def test_rejected_tx_writes_never_visible(self, env):
        ledger, rng = env["ledger"], env["rng"]
        seq_key = f"dataseq/{env['identity'].device_id.hex()}"
        seq_before = ledger.get_state(seq_key)
        tx = _submit_record(env["identity"], env["keypair"], b"phantom", rng)
        import dataclasses
        ledger.invoke("submit", dataclasses.replace(tx, signature=b"\x00" * 48))
        assert ledger.get_state(seq_key) == seq_before
        count = int.from_bytes(seq_before, "big")
        with pytest.raises(KeyError):
            ledger.get_state(f"data/{env['identity'].device_id.hex()}/{count}")


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


class TestRotation:
    def test_rotation_is_committed_and_advances_epoch(self, env):
        ledger, rng = env["ledger"], env["rng"]
        device_id = env["identity"].device_id
        before = ledger.query_subset(device_id)
        height_before = ledger.height
        new_epoch = rotate_challenges(ledger, device_id, rng)
        assert new_epoch == before.epoch + 1
        assert ledger.height == height_before + 1
        assert ledger.query_subset(device_id).epoch == new_epoch

    def test_rotation_must_advance_epoch_by_one(self, env):
        ledger, rng = env["ledger"], env["rng"]
        device_id = env["identity"].device_id
        current = ledger.query_subset(device_id).epoch
        digest, height = ledger.state_digest(), ledger.height
        for epoch in (current, current + 2):
            buf = bytearray()
            _put_field(buf, device_id)
            _put_field(buf, SubsetRecord(epoch).to_bytes())
            tx = TransactionRecord(
                payload=bytes(buf), device_id=device_id, signature=b"", proof=b"",
                chaincode="rotate", nonce=rng.getrandbits(128).to_bytes(16, "big"),
            )
            result = ledger.invoke("rotate", tx)
            assert not result and "advance by one" in result.reason
        assert ledger.state_digest() == digest
        assert ledger.height == height
        assert ledger.query_subset(device_id).epoch == current

    def test_rotation_of_unknown_device_fails(self, env):
        with pytest.raises(KeyError):
            rotate_challenges(env["ledger"], bytes(32), env["rng"])


class TestReplayDeterminism:
    def test_replay_reproduces_state_digest(self, env):
        ledger = env["ledger"]
        replayed = Ledger.replay_log(ledger.export_log())
        assert replayed.state_digest() == ledger.state_digest()
        assert replayed.head_digest() == ledger.head_digest()
        assert replayed.height == ledger.height

    def test_bad_log_header_rejected(self):
        from pufzk.wire import WireError
        with pytest.raises(WireError):
            Ledger.replay_log(b"JUNK\x01\x00\x00\x00\x00")

    def test_bootstrap_only_once(self, env):
        setup, ca = env["setup"], env["ca"]
        ledger = ledger_new()
        assert bootstrap(ledger, setup.pk_setup, ca.pk)
        result = bootstrap(ledger, setup.pk_setup, ca.pk)
        assert not result and "bootstrapped" in result.reason
