"""Enrollment, identifiers, and the certificate authority."""

import dataclasses
import random
from types import SimpleNamespace

import numpy as np
import pytest

from pufzk import zkp
from pufzk.identity import (
    CertificateAuthority,
    KeyPair,
    RegistrationError,
    compute_device_id,
    device_fingerprint,
    register_device,
    response_scalar,
)
from pufzk.ledger import bootstrap, ledger_new
from pufzk.pairing import G1Element, G2Element, Scalar
from pufzk.protocol import Device
from pufzk.puf import challenges_to_bytes, fractional_hamming, generate_challenges, puf_new, puf_respond
from pufzk.wire import DeviceRecord, WireError


# (commitment bytes, fingerprint, challenge bytes) of the test records
_TUPLE = ((G1Element.generator() ** 7).to_bytes(), bytes(32), bytes(8 * 4))


@pytest.fixture(scope="module")
def env():
    rng = random.Random(900)
    np_rng = np.random.default_rng(900)
    ca = CertificateAuthority(rng)
    setup = zkp.trust_setup(rng)
    ledger = ledger_new()
    bootstrap(ledger, setup.pk_setup, ca.pk)
    return {"rng": rng, "np_rng": np_rng, "ca": ca, "ledger": ledger}


class TestKeyPair:
    def test_public_key_consistent(self):
        kp = KeyPair.generate(random.Random(1))
        assert kp.pk == G2Element.generator() ** kp.sk


class TestDeviceId:
    def test_deterministic_and_32_bytes(self):
        rng = random.Random(2)
        kp = KeyPair.generate(rng)
        resp = puf_respond(puf_new(5, 0.0), generate_challenges(np.random.default_rng(5), 256), 1)
        a = compute_device_id(kp.pk, resp)
        assert a == compute_device_id(kp.pk, resp)
        assert len(a) == 32

    def test_single_bit_avalanche(self):
        rng = random.Random(3)
        kp = KeyPair.generate(rng)
        resp = puf_respond(puf_new(6, 0.0), generate_challenges(np.random.default_rng(6), 256), 1)
        base = compute_device_id(kp.pk, resp)
        seen = {base}
        for i in range(256):
            flipped = resp.copy()
            flipped[i] ^= 1
            seen.add(compute_device_id(kp.pk, flipped))
        assert len(seen) == 257


class TestRegistration:
    def test_round_trip_of_stored_tuple(self, env):
        puf = puf_new(8100, 0.0)
        device_id, keypair = register_device(
            puf, env["ca"], env["ledger"], env["rng"], env["np_rng"])
        stored = env["ledger"].load_device(device_id)
        assert stored.record.device_id == device_id
        assert stored.pk == keypair.pk
        assert device_id == compute_device_id(keypair.pk, puf_respond(puf, stored.challenges, 9))

    def test_commitment_recomputable_from_responses(self, env):
        puf = puf_new(8101, 0.0)
        device_id, _ = register_device(puf, env["ca"], env["ledger"], env["rng"], env["np_rng"])
        stored = env["ledger"].load_device(device_id)
        responses = puf_respond(puf, stored.challenges, 9)
        assert stored.commitment == G1Element.generator() ** response_scalar(responses)

    def test_duplicate_device_rejected(self, env):
        puf = puf_new(8102, 0.0)
        register_device(puf, env["ca"], env["ledger"], env["rng"], env["np_rng"])
        with pytest.raises(RegistrationError):
            register_device(puf, env["ca"], env["ledger"], env["rng"], env["np_rng"])

    def test_rejected_registration_leaves_no_partial_state(self, env):
        puf = puf_new(8103, 0.0)
        register_device(puf, env["ca"], env["ledger"], env["rng"], env["np_rng"])
        digest = env["ledger"].state_digest()
        with pytest.raises(RegistrationError):
            register_device(puf, env["ca"], env["ledger"], env["rng"], env["np_rng"])
        assert env["ledger"].state_digest() == digest

    @pytest.mark.parametrize("field, rewrite", [
        ("commitment_bytes", lambda raw: (G1Element.generator() ** 1234).to_bytes()),
        ("challenge_bytes", lambda raw: raw[8:]),
        ("fingerprint", lambda raw: bytes(32)),
    ], ids=["commitment", "challenges", "fingerprint"])
    def test_rewritten_registration_rejected_without_trace(self, env, field, rewrite):
        # an attacker with a leaked sk rewrites the honest registration
        # in flight, e.g. to carry a commitment g1^rho' of their choosing
        ledger = env["ledger"]

        def intercept(name, tx):
            record = DeviceRecord.from_bytes(tx.payload)
            record = dataclasses.replace(record, **{field: rewrite(getattr(record, field))})
            return ledger.invoke(name, dataclasses.replace(tx, payload=record.to_bytes()))

        digest, height = ledger.state_digest(), ledger.height
        with pytest.raises(RegistrationError, match="^certificate signature invalid$"):
            register_device(puf_new(8106, 0.0), env["ca"], SimpleNamespace(invoke=intercept),
                            env["rng"], env["np_rng"])
        assert (ledger.state_digest(), ledger.height) == (digest, height)

    def test_rewritten_fingerprint_cannot_enroll_a_device_twice(self, env):
        # a registration rewritten to carry another fingerprint must not
        # commit, or the same physical device could enroll a second time
        ledger, puf = env["ledger"], puf_new(8108, 0.0)

        def intercept(name, tx):
            record = dataclasses.replace(DeviceRecord.from_bytes(tx.payload), fingerprint=bytes(32))
            return ledger.invoke(name, dataclasses.replace(tx, payload=record.to_bytes()))

        digest, height = ledger.state_digest(), ledger.height
        with pytest.raises(RegistrationError, match="^certificate signature invalid$"):
            register_device(puf, env["ca"], SimpleNamespace(invoke=intercept),
                            env["rng"], env["np_rng"])
        assert (ledger.state_digest(), ledger.height) == (digest, height)
        register_device(puf, env["ca"], ledger, env["rng"], env["np_rng"])
        with pytest.raises(RegistrationError, match="^device already enrolled$"):
            register_device(puf, env["ca"], ledger, env["rng"], env["np_rng"])

    def test_enrollment_runs_no_pairing(self, env, monkeypatch):
        from pufzk.pairing import group
        calls = {"_miller_loop": 0, "_final_exp": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(group, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(group, name, counted)
        Device.enroll(puf_new(8107, 0.0), env["ca"], env["ledger"], env["rng"], env["np_rng"])
        assert calls == {"_miller_loop": 0, "_final_exp": 0}
        # the counters see the pairing a device signature check runs
        assert zkp.verify_sig(G2Element.generator() ** 3, b"m", zkp.sign(Scalar(3), b"m"))
        assert calls == {"_miller_loop": 1, "_final_exp": 1}

    def test_hundred_enrollments_unique_ids(self, env):
        ids = set()
        for i in range(100):
            device_id, _ = register_device(
                puf_new(20_000 + i, 0.0), env["ca"], env["ledger"], env["rng"], env["np_rng"])
            ids.add(device_id)
        assert len(ids) == 100

    def test_adversary_device_cannot_reproduce_target_responses(self, env):
        # fixed trial set; every imposter stays far from the target
        target = puf_new(8104, 0.0)
        device_id, _ = register_device(
            target, env["ca"], env["ledger"], env["rng"], np.random.default_rng(1234))
        challenges = env["ledger"].load_device(device_id).challenges
        target_responses = puf_respond(target, challenges, 9)
        for k in range(50):
            imposter = puf_new(94_000 + k, 0.0)
            imposter_responses = puf_respond(imposter, challenges, 9)
            assert fractional_hamming(target_responses, imposter_responses) >= 0.4

    @pytest.mark.parametrize("seed", [2850, 4181, 5399])
    def test_enrolled_bits_are_the_noiseless_responses(self, env, seed):
        # Nine-vote re-evaluation after screening stored a minority bit
        # for these devices; the screened unanimous bits match the
        # device's noiseless twin.
        device = Device.enroll(puf_new(seed, 0.05), env["ca"], env["ledger"], env["rng"],
                               np_rng=np.random.default_rng(seed))
        stored = env["ledger"].load_device(device.device_id)
        twin = puf_respond(puf_new(seed, 0.0), stored.challenges, 1)
        assert stored.commitment == G1Element.generator() ** response_scalar(twin)

    def test_fingerprint_stable_per_device(self):
        assert device_fingerprint(puf_new(1, 0.0)) == device_fingerprint(puf_new(1, 0.0))
        assert device_fingerprint(puf_new(1, 0.0)) != device_fingerprint(puf_new(2, 0.0))


class TestCertificates:
    """The CA signs the registration record itself."""

    def test_issue_then_verify(self, env):
        ca, rng = env["ca"], env["rng"]
        kp = KeyPair.generate(rng)
        record = ca.issue(bytes(32), kp.pk, *_TUPLE)
        assert (record.device_id, record.pk_bytes) == (bytes(32), kp.pk.to_bytes())
        assert (record.commitment_bytes, record.fingerprint, record.challenge_bytes) == _TUPLE
        assert ca.verify(record)

    def test_identity_key_or_commitment_not_issued(self, env):
        ca, pk = env["ca"], KeyPair.generate(env["rng"]).pk
        serial = ca._next_serial
        with pytest.raises(ValueError, match="is the identity"):
            ca.issue(bytes(32), G2Element.identity(), *_TUPLE)
        with pytest.raises(ValueError, match="is the identity"):
            ca.issue(bytes(32), pk, G1Element.identity().to_bytes(), *_TUPLE[1:])
        assert ca._next_serial == serial

    def test_revoke_then_verify_fails(self, env):
        ca, rng = env["ca"], env["rng"]
        kp = KeyPair.generate(rng)
        record = ca.issue(bytes(32), kp.pk, *_TUPLE)
        assert ca.verify(record)
        ca.revoke(record.serial)
        assert not ca.verify(record)

    def test_mutated_device_id_fails(self, env):
        ca, rng = env["ca"], env["rng"]
        kp = KeyPair.generate(rng)
        record = ca.issue(bytes(32), kp.pk, *_TUPLE)
        mutated = dataclasses.replace(record, device_id=bytes([1]) + bytes(31))
        assert not ca.verify(mutated)

    def test_payload_mutation_fuzz(self, env):
        ca, rng = env["ca"], env["rng"]
        kp = KeyPair.generate(rng)
        record = ca.issue(bytes(32), kp.pk, *_TUPLE)
        raw = record.to_bytes()
        accepted = 0
        for _ in range(50):
            buf = bytearray(raw)
            buf[rng.randrange(len(buf))] ^= rng.randrange(1, 256)
            try:
                mutated = DeviceRecord.from_bytes(bytes(buf))
            except WireError:
                continue
            if mutated == record:
                continue
            accepted += int(ca.verify(mutated))
        assert accepted == 0

    def test_mutated_registration_fields_fail(self, env):
        ca, rng = env["ca"], env["rng"]
        record = ca.issue(bytes(32), KeyPair.generate(rng).pk, *_TUPLE)
        for changes in ({"challenge_bytes": bytes(8 * 5)}, {"fingerprint": b"\x01" * 32},
                        {"commitment_bytes": G1Element.generator().to_bytes()},
                        {"serial": record.serial + 1}):
            assert not ca.verify(dataclasses.replace(record, **changes))

    def test_signing_is_deterministic(self, env):
        ca = env["ca"]
        record = ca.issue(bytes(32), KeyPair.generate(env["rng"]).pk, *_TUPLE)
        assert len(record.sig_bytes) == zkp.SCHNORR_SIGNATURE_WIRE_BYTES
        assert zkp.schnorr_sign(ca.sk, ca.pk, record.signed_bytes()) == record.sig_bytes

    def test_certificate_of_another_ca_fails(self, env):
        record = CertificateAuthority(random.Random(6)).issue(
            bytes(32), KeyPair.generate(env["rng"]).pk, *_TUPLE)
        assert not env["ca"].verify(record)

    def test_serials_increment(self, env):
        ca, rng = env["ca"], env["rng"]
        kp = KeyPair.generate(rng)
        a = ca.issue(bytes(32), kp.pk, *_TUPLE)
        b = ca.issue(bytes(32), kp.pk, *_TUPLE)
        assert b.serial == a.serial + 1


class TestStoredRecord:
    def test_stored_record_is_the_signed_record(self, env):
        puf = puf_new(8106, 0.0)
        device_id, _ = register_device(puf, env["ca"], env["ledger"], env["rng"], env["np_rng"])
        stored = env["ledger"].load_device(device_id)
        assert stored.record.fingerprint == device_fingerprint(puf)
        assert stored.record.challenge_bytes == challenges_to_bytes(stored.challenges)
        assert env["ca"].verify(stored.record)
