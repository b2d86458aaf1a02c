"""Enrollment, identifiers, and the certificate authority."""

import random

import numpy as np
import pytest

from pufzk import zkp
from pufzk.identity import (
    CertificateAuthority,
    DeviceIdentity,
    KeyPair,
    RegistrationError,
    compute_device_id,
    device_fingerprint,
    register_device,
    response_scalar,
)
from pufzk.ledger import bootstrap, ledger_new
from pufzk.pairing import G1Element, G2Element
from pufzk.protocol import Device
from pufzk.puf import fractional_hamming, generate_challenges, puf_new, puf_respond
from pufzk.wire import Certificate, WireError


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
        identity, keypair = register_device(
            puf_new(8100, 0.0), env["ca"], env["ledger"], env["rng"], env["np_rng"])
        pk, challenges, commitment = env["ledger"].query_identity(identity.device_id)
        assert pk == identity.pk == keypair.pk
        assert np.array_equal(challenges, identity.challenge_set)
        assert commitment == identity.response_commitment

    def test_commitment_recomputable_from_responses(self, env):
        puf = puf_new(8101, 0.0)
        identity, _ = register_device(puf, env["ca"], env["ledger"], env["rng"], env["np_rng"])
        responses = puf_respond(puf, identity.challenge_set, 9)
        assert identity.response_commitment == G1Element.generator() ** response_scalar(responses)

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

    def test_hundred_enrollments_unique_ids(self, env):
        ids = set()
        for i in range(100):
            identity, _ = register_device(
                puf_new(20_000 + i, 0.0), env["ca"], env["ledger"], env["rng"], env["np_rng"])
            ids.add(identity.device_id)
        assert len(ids) == 100

    def test_adversary_device_cannot_reproduce_target_responses(self, env):
        # fixed trial set; every imposter stays far from the target
        target = puf_new(8104, 0.0)
        identity, _ = register_device(
            target, env["ca"], env["ledger"], env["rng"], np.random.default_rng(1234))
        target_responses = puf_respond(target, identity.challenge_set, 9)
        for k in range(50):
            imposter = puf_new(94_000 + k, 0.0)
            imposter_responses = puf_respond(imposter, identity.challenge_set, 9)
            assert fractional_hamming(target_responses, imposter_responses) >= 0.4

    @pytest.mark.parametrize("seed", [2850, 4181, 5399])
    def test_enrolled_bits_are_the_noiseless_responses(self, env, seed):
        # Nine-vote re-evaluation after screening stored a minority bit
        # for these devices; the screened unanimous bits match the
        # device's noiseless twin.
        device = Device.enroll(puf_new(seed, 0.05), env["ca"], env["ledger"], env["rng"],
                               np_rng=np.random.default_rng(seed))
        identity = device.identity
        twin = puf_respond(puf_new(seed, 0.0), identity.challenge_set, 1)
        assert identity.response_commitment == G1Element.generator() ** response_scalar(twin)

    def test_fingerprint_stable_per_device(self):
        assert device_fingerprint(puf_new(1, 0.0), 9) == device_fingerprint(puf_new(1, 0.0), 9)
        assert device_fingerprint(puf_new(1, 0.0), 9) != device_fingerprint(puf_new(2, 0.0), 9)


class TestCertificates:
    def test_issue_then_verify(self, env):
        ca, rng = env["ca"], env["rng"]
        kp = KeyPair.generate(rng)
        cert = ca.issue(bytes(32), kp.pk)
        assert ca.verify(cert)

    def test_revoke_then_verify_fails(self, env):
        ca, rng = env["ca"], env["rng"]
        kp = KeyPair.generate(rng)
        cert = ca.issue(bytes(32), kp.pk, role="sensor")
        assert ca.verify(cert)
        ca.revoke(cert.serial)
        assert not ca.verify(cert)

    def test_mutated_device_id_fails(self, env):
        import dataclasses
        ca, rng = env["ca"], env["rng"]
        kp = KeyPair.generate(rng)
        cert = ca.issue(bytes(32), kp.pk)
        mutated = dataclasses.replace(cert, device_id=bytes([1]) + bytes(31))
        assert not ca.verify(mutated)

    def test_payload_mutation_fuzz(self, env):
        ca, rng = env["ca"], env["rng"]
        kp = KeyPair.generate(rng)
        cert = ca.issue(bytes(32), kp.pk)
        raw = cert.to_bytes()
        accepted = 0
        for _ in range(50):
            buf = bytearray(raw)
            buf[rng.randrange(len(buf))] ^= rng.randrange(1, 256)
            try:
                mutated = Certificate.from_bytes(bytes(buf))
            except WireError:
                continue
            if mutated == cert:
                continue
            accepted += int(ca.verify(mutated))
        assert accepted == 0

    def test_serials_increment(self, env):
        ca, rng = env["ca"], env["rng"]
        kp = KeyPair.generate(rng)
        a = ca.issue(bytes(32), kp.pk)
        b = ca.issue(bytes(32), kp.pk)
        assert b.serial == a.serial + 1


class TestIdentityExport:
    def test_round_trip(self, env):
        identity, _ = register_device(
            puf_new(8105, 0.0), env["ca"], env["ledger"], env["rng"], env["np_rng"])
        loaded = DeviceIdentity.load(identity.export())
        assert loaded.device_id == identity.device_id
        assert loaded.pk == identity.pk
        assert np.array_equal(loaded.challenge_set, identity.challenge_set)
        assert loaded.response_commitment == identity.response_commitment
        assert loaded.certificate == identity.certificate

    def test_bad_header_rejected(self):
        with pytest.raises(WireError):
            DeviceIdentity.load(b"NOPE\x01\x00\x00\x00\x00")
