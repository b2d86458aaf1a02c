"""Proof scheme behaviour: the printed-equation mode with its defects,
the sound corrected mode, and the pairing signature."""

import dataclasses
import random

import pytest

from pufzk.pairing import (
    DecodeError,
    G1Element,
    G2Element,
    ORDER,
    Scalar,
    pair,
)
from pufzk.zkp import (
    CORRECTED_AUTH_PROOF_WIRE_BYTES,
    CORRECTED_TX_PROOF_WIRE_BYTES,
    LITERAL_PROOF_WIRE_BYTES,
    SIGNATURE_WIRE_BYTES,
    AuthStatement,
    AuthWitness,
    CorrectedAuthProof,
    CorrectedTxProof,
    SigmaProof,
    Signature,
    TxStatement,
    auth_prove_corrected,
    auth_prove_literal,
    auth_verify_corrected,
    auth_verify_literal,
    forge_literal_proof,
    prover_nonce,
    schnorr_sign,
    sign,
    simulate_auth_transcript,
    trust_setup,
    tx_prove_corrected,
    tx_prove_literal,
    tx_verify_corrected,
    verify_sigma_equations,
)
from pufzk.zkp import _literal_challenge
from pufzk.pairing.fields import X_ABS

G1 = G1Element.generator()
G2 = G2Element.generator()

PROOF_TYPES = (SigmaProof, CorrectedAuthProof, CorrectedTxProof)


def _decodes_only_as(raw, proof_type):
    """``raw`` decodes as ``proof_type`` and as no other proof type."""
    for other in PROOF_TYPES:
        if other is proof_type:
            other.from_bytes(raw)
        else:
            with pytest.raises(DecodeError):
                other.from_bytes(raw)


def _statement_and_witness(rng, nonce=b"\xAA" * 16, epoch=1):
    sk = Scalar.random(rng)
    rho = Scalar.random(rng)
    statement = AuthStatement(
        device_id=rng.getrandbits(256).to_bytes(32, "big"),
        pk=G2 ** sk,
        response_commitment=G1 ** rho,
        challenge_epoch=epoch,
        session_nonce=nonce,
    )
    return statement, AuthWitness(sk=sk, response_scalar=rho)


class TestTrustSetup:
    def test_forced_alpha_one_gives_generator(self):
        setup = trust_setup(random.Random(1), forced_alpha=1)
        assert setup.pk_setup == G2

    def test_runs_produce_distinct_trapdoors(self):
        rng = random.Random(2)
        alphas = {trust_setup(rng).alpha.value for _ in range(100)}
        assert len(alphas) == 100

    def test_public_key_consistent_with_trapdoor(self):
        setup = trust_setup(random.Random(3))
        assert pair(G1, setup.pk_setup) == pair(G1, G2) ** setup.alpha


class TestLiteralMode:
    def test_deterministic_under_fixed_randomness(self):
        sk = Scalar(77)
        p1 = auth_prove_literal(b"resp", sk, random.Random(42))
        p2 = auth_prove_literal(b"resp", sk, random.Random(42))
        assert p1.to_bytes() == p2.to_bytes()

    def test_constant_serialized_size(self):
        rng = random.Random(6)
        sizes = {
            len(auth_prove_literal(bytes([i]), Scalar.random(rng), rng).to_bytes())
            for i in range(50)
        }
        assert sizes == {LITERAL_PROOF_WIRE_BYTES}

    def test_self_check_identity_holds_for_generated_proofs(self):
        # response element always equals witness_commit * rand_commit^challenge
        rng = random.Random(7)
        for _ in range(10):
            proof = auth_prove_literal(b"r", Scalar.random(rng), rng)
            h = _literal_challenge(proof.witness_commit, proof.rand_commit)
            assert proof.response == proof.witness_commit * proof.rand_commit ** h

    def test_accepts_honest_proofs_iff_alpha_is_one(self):
        rng = random.Random(8)
        setup_one = trust_setup(rng, forced_alpha=1)
        setup_rand = trust_setup(rng)
        assert setup_rand.alpha.value != 1
        for _ in range(5):
            sk = Scalar.random(rng)
            assert auth_verify_literal(setup_one, auth_prove_literal(b"x", sk, rng))
            assert not auth_verify_literal(setup_rand, auth_prove_literal(b"x", sk, rng))

    def test_acceptance_predicate_via_exponent_bookkeeping(self):
        """Independent oracle: build the three elements from a
        known-exponent base and decide acceptance by integer arithmetic
        in the exponent; implementation must agree for alpha = 1 and a
        spread of other alphas."""
        rng = random.Random(9)
        for alpha in [1, 2, 3, rng.randrange(2, ORDER)]:
            setup = trust_setup(rng, forced_alpha=alpha)
            b = rng.randrange(2, ORDER)   # discrete log of the base
            r = rng.randrange(2, ORDER)   # blinding exponent
            witness_commit = G1 ** (b * r % ORDER)
            rand_commit = G1 ** r
            h = _literal_challenge(witness_commit, rand_commit).value
            response = G1 ** ((b + h) * r % ORDER)
            proof = SigmaProof(witness_commit, rand_commit, response)
            # left side exponent: b*r + r*alpha*h ; right side: (b+h)*r
            lhs = (b * r + r * alpha * h) % ORDER
            rhs = (b + h) * r % ORDER
            expected = lhs == rhs
            assert expected == (alpha % ORDER == 1)
            assert auth_verify_literal(setup, proof) == expected

    def test_public_forgery_accepted_whenever_honest_proofs_are(self):
        rng = random.Random(10)
        setup_one = trust_setup(rng, forced_alpha=1)
        setup_rand = trust_setup(rng)
        for _ in range(10):
            forged = forge_literal_proof(rng)
            assert auth_verify_literal(setup_one, forged)
            assert not auth_verify_literal(setup_rand, forged)

    def test_identity_forgery_accepted_at_random_alpha(self):
        """(S, 1, S) passes the printed equation whatever the setup key:
        the setup-key term vanishes and e(S, g2) cancels."""
        rng = random.Random(33)
        for setup in (trust_setup(rng), trust_setup(rng, forced_alpha=1)):
            witness_commit = G1 ** Scalar.random(rng)
            forged = SigmaProof(witness_commit, G1Element.identity(), witness_commit)
            assert auth_verify_literal(setup, forged)
            assert SigmaProof.from_bytes(forged.to_bytes()) == forged

    def test_tx_mode_mirrors_auth(self):
        rng = random.Random(11)
        setup_one = trust_setup(rng, forced_alpha=1)
        setup_rand = trust_setup(rng)
        assert auth_verify_literal(setup_one, tx_prove_literal(b"payload", rng))
        assert not auth_verify_literal(setup_rand, tx_prove_literal(b"payload", rng))

    def test_distinct_payloads_give_distinct_proof_bytes(self):
        a = tx_prove_literal(b"payload-a", random.Random(1))
        b = tx_prove_literal(b"payload-b", random.Random(1))
        assert a.to_bytes() != b.to_bytes()

    def test_wire_round_trip_and_rejects(self):
        rng = random.Random(13)
        proof = auth_prove_literal(b"r", Scalar.random(rng), rng)
        raw = proof.to_bytes()
        assert SigmaProof.from_bytes(raw) == proof
        _decodes_only_as(raw, SigmaProof)
        with pytest.raises(DecodeError):
            SigmaProof.from_bytes(raw[:-1])
        with pytest.raises(DecodeError):
            SigmaProof.from_bytes(b"\x02" + raw[1:])


class TestCorrectedMode:
    def test_completeness(self):
        rng = random.Random(14)
        for _ in range(20):
            statement, witness = _statement_and_witness(rng)
            proof = auth_prove_corrected(statement, witness, rng)
            assert auth_verify_corrected(statement, proof)

    def test_nonce_variation_changes_challenge_and_responses(self):
        rng = random.Random(15)
        statement, witness = _statement_and_witness(rng, nonce=b"\x01" * 16)
        other = dataclasses.replace(statement, session_nonce=b"\x02" * 16)
        p1 = auth_prove_corrected(statement, witness, random.Random(3))
        p2 = auth_prove_corrected(other, witness, random.Random(3))
        assert p1.challenge != p2.challenge
        assert p1.resp_sk != p2.resp_sk

    @pytest.mark.parametrize("mutation", [
        lambda p: dataclasses.replace(p, resp_sk=p.resp_sk + 1),
        lambda p: dataclasses.replace(p, resp_puf=p.resp_puf + 1),
        lambda p: dataclasses.replace(p, challenge=p.challenge + 1),
        lambda p: dataclasses.replace(p, commit_sk=p.commit_sk * G2Element.generator()),
        lambda p: dataclasses.replace(p, commit_puf=p.commit_puf * G1Element.generator()),
        lambda p: dataclasses.replace(p, session_nonce=bytes(16)),
    ])
    def test_each_field_perturbation_flips_acceptance(self, mutation):
        rng = random.Random(16)
        statement, witness = _statement_and_witness(rng)
        proof = auth_prove_corrected(statement, witness, rng)
        assert auth_verify_corrected(statement, proof)
        assert not auth_verify_corrected(statement, mutation(proof))

    def test_inconsistent_witness_fails_verification(self):
        rng = random.Random(17)
        statement, witness = _statement_and_witness(rng)
        wrong = AuthWitness(sk=witness.sk, response_scalar=witness.response_scalar + 1)
        proof = auth_prove_corrected(statement, wrong, rng)
        assert not auth_verify_corrected(statement, proof)

    def test_challenges_lie_in_the_challenge_set(self):
        # c0 + c1*x^2 with both halves below 2^64: honest challenges of
        # both proofs and of the CA signature, and the simulator's, which
        # must be distributed like them
        rng = random.Random(20)
        statement, witness = _statement_and_witness(rng)
        tx_statement = TxStatement(statement.device_id, statement.pk, bytes(32), bytes(16))
        challenges = [
            auth_prove_corrected(statement, witness, rng).challenge,
            tx_prove_corrected(tx_statement, witness.sk, rng).challenge,
            Scalar.from_bytes(schnorr_sign(witness.sk, G1 ** witness.sk, b"cert")[:32]),
        ] + [simulate_auth_transcript(statement, rng).challenge for _ in range(8)]
        for c in challenges:
            c1, c0 = divmod(c.value, X_ABS * X_ABS)
            assert c0 < 1 << 64 and c1 < 1 << 64

    def test_simulator_passes_equations_but_fails_fiat_shamir(self):
        rng = random.Random(18)
        statement, _ = _statement_and_witness(rng)
        simulated = simulate_auth_transcript(statement, rng)
        assert verify_sigma_equations(statement, simulated)
        assert not auth_verify_corrected(statement, simulated)

    def test_statement_binding(self):
        rng = random.Random(19)
        statement, witness = _statement_and_witness(rng)
        proof = auth_prove_corrected(statement, witness, rng)
        for changed in [
            dataclasses.replace(statement, challenge_epoch=statement.challenge_epoch + 1),
            dataclasses.replace(statement, device_id=bytes(32)),
            dataclasses.replace(statement, session_nonce=bytes(16)),
        ]:
            assert not auth_verify_corrected(changed, proof)

    def test_wire_round_trip_and_size(self):
        rng = random.Random(20)
        statement, witness = _statement_and_witness(rng)
        proof = auth_prove_corrected(statement, witness, rng)
        raw = proof.to_bytes()
        assert len(raw) == CORRECTED_AUTH_PROOF_WIRE_BYTES
        assert CorrectedAuthProof.from_bytes(raw) == proof
        _decodes_only_as(raw, CorrectedAuthProof)

    def test_constant_size_across_proofs(self):
        rng = random.Random(21)
        sizes = set()
        for _ in range(50):
            statement, witness = _statement_and_witness(rng)
            sizes.add(len(auth_prove_corrected(statement, witness, rng).to_bytes()))
        assert sizes == {CORRECTED_AUTH_PROOF_WIRE_BYTES}

    def test_verification_is_non_interactive(self):
        # a verifier holding only (statement, proof bytes) decides
        rng = random.Random(22)
        statement, witness = _statement_and_witness(rng)
        raw = auth_prove_corrected(statement, witness, rng).to_bytes()
        assert auth_verify_corrected(statement, CorrectedAuthProof.from_bytes(raw))


class TestCorrectedTx:
    def test_round_trip_and_verify(self):
        rng = random.Random(23)
        sk = Scalar.random(rng)
        statement = TxStatement(
            device_id=bytes(32), pk=G2 ** sk,
            payload_digest=bytes(range(32)), tx_nonce=b"\x07" * 16,
        )
        proof = tx_prove_corrected(statement, sk, rng)
        assert tx_verify_corrected(statement, proof)
        raw = proof.to_bytes()
        assert len(raw) == CORRECTED_TX_PROOF_WIRE_BYTES
        assert CorrectedTxProof.from_bytes(raw) == proof
        _decodes_only_as(raw, CorrectedTxProof)

    def test_binds_payload_digest_and_nonce(self):
        rng = random.Random(24)
        sk = Scalar.random(rng)
        statement = TxStatement(bytes(32), G2 ** sk, bytes(32), b"\x07" * 16)
        proof = tx_prove_corrected(statement, sk, rng)
        assert not tx_verify_corrected(
            dataclasses.replace(statement, payload_digest=bytes([1]) * 32), proof)
        assert not tx_verify_corrected(
            dataclasses.replace(statement, tx_nonce=bytes(16)), proof)

    def test_wrong_key_rejected(self):
        rng = random.Random(25)
        sk = Scalar.random(rng)
        statement = TxStatement(bytes(32), G2 ** Scalar.random(rng), bytes(32), b"\x09" * 16)
        proof = tx_prove_corrected(statement, sk, rng)
        assert not tx_verify_corrected(statement, proof)


class TestHedgedNonces:
    """A prover whose rng is restored to one snapshot repeats a nonce
    only for the same witness and statement."""

    def test_restored_rng_gives_fresh_auth_nonces_for_a_new_statement(self):
        rng = random.Random(33)
        statement, witness = _statement_and_witness(rng)
        later = dataclasses.replace(statement, challenge_epoch=2, session_nonce=b"\xBB" * 16)
        snapshot = rng.getstate()
        first = auth_prove_corrected(statement, witness, rng)
        rng.setstate(snapshot)
        second = auth_prove_corrected(later, witness, rng)
        assert first.commit_sk != second.commit_sk and first.commit_puf != second.commit_puf
        rng.setstate(snapshot)
        assert auth_prove_corrected(statement, witness, rng) == first

    def test_restored_rng_gives_fresh_tx_nonces_for_a_new_statement(self):
        rng = random.Random(34)
        sk = Scalar.random(rng)
        statement = TxStatement(bytes(32), G2 ** sk, bytes(32), bytes(16))
        snapshot = rng.getstate()
        first = tx_prove_corrected(statement, sk, rng)
        rng.setstate(snapshot)
        second = tx_prove_corrected(dataclasses.replace(statement, payload_digest=bytes([1]) * 32),
                                    sk, rng)
        assert first.commit_sk != second.commit_sk
        # the sk that equal commitments would give is not the key
        solved = (first.resp_sk - second.resp_sk) * (first.challenge - second.challenge).inverse()
        assert solved != sk

    def test_each_input_moves_the_nonce(self):
        witness, statement, fresh = (Scalar(5), Scalar(6)), b"statement", bytes(32)
        nonce = prover_nonce(witness, statement, 0, fresh)
        assert prover_nonce(witness, statement, 0, fresh) == nonce
        assert len({nonce,
                    prover_nonce((Scalar(5), Scalar(7)), statement, 0, fresh),
                    prover_nonce(witness, b"statemenu", 0, fresh),
                    prover_nonce(witness, statement, 1, fresh),
                    prover_nonce(witness, statement, 0, bytes(31) + b"\x01"),
                    prover_nonce(witness, statement, 0)}) == 6


class TestSignature:
    def test_sign_then_verify(self):
        rng = random.Random(26)
        sk = Scalar.random(rng)
        from pufzk.zkp import verify_sig
        assert verify_sig(G2 ** sk, b"msg", sign(sk, b"msg"))

    def test_wrong_key_rejections(self):
        rng = random.Random(27)
        from pufzk.zkp import verify_sig
        sk = Scalar.random(rng)
        sig = sign(sk, b"msg")
        rejected = sum(
            int(not verify_sig(G2 ** Scalar.random(rng), b"msg", sig)) for _ in range(100)
        )
        assert rejected == 100

    def test_message_mutation_fuzz(self):
        rng = random.Random(28)
        from pufzk.zkp import verify_sig
        sk = Scalar.random(rng)
        pk = G2 ** sk
        message = bytearray(b"base message for mutation fuzzing, 48 bytes long")
        sig = sign(sk, bytes(message))
        accepted = 0
        for _ in range(1000):
            mutated = bytearray(message)
            mutated[rng.randrange(len(mutated))] ^= rng.randrange(1, 256)
            accepted += int(verify_sig(pk, bytes(mutated), sig))
        assert accepted == 0

    def test_signature_wire(self):
        rng = random.Random(29)
        sig = sign(Scalar.random(rng), b"m")
        raw = sig.to_bytes()
        assert len(raw) == SIGNATURE_WIRE_BYTES
        assert Signature.from_bytes(raw) == sig
        with pytest.raises(DecodeError):
            Signature.from_bytes(raw[:-1])

    def test_malformed_signature_bytes_rejected(self):
        with pytest.raises(DecodeError):
            Signature.from_bytes(b"\x01" * SIGNATURE_WIRE_BYTES)


class TestSchnorrSignature:
    def test_sign_then_verify(self):
        from pufzk.zkp import SCHNORR_SIGNATURE_WIRE_BYTES, schnorr_sign, schnorr_verify
        sk = Scalar.random(random.Random(30))
        sig = schnorr_sign(sk, G1 ** sk, b"msg")
        assert len(sig) == SCHNORR_SIGNATURE_WIRE_BYTES
        assert schnorr_verify(G1 ** sk, b"msg", sig)
        assert schnorr_sign(sk, G1 ** sk, b"msg") == sig  # deterministic

    def test_wrong_key_and_mutation_rejected(self):
        from pufzk.zkp import schnorr_sign, schnorr_verify
        rng = random.Random(32)
        sk = Scalar.random(rng)
        message = b"base message for mutation fuzzing"
        sig = schnorr_sign(sk, G1 ** sk, message)
        assert not any(schnorr_verify(G1 ** Scalar.random(rng), message, sig) for _ in range(20))
        accepted = 0
        for _ in range(100):
            mutated = bytearray(message + sig)
            mutated[rng.randrange(len(mutated))] ^= rng.randrange(1, 256)
            try:
                accepted += int(schnorr_verify(G1 ** sk, bytes(mutated[:len(message)]),
                                               bytes(mutated[len(message):])))
            except DecodeError:
                pass
        assert accepted == 0

    @pytest.mark.parametrize("length", [0, 63, 65])
    def test_signature_of_any_other_length_is_undecodable(self, length):
        from pufzk.zkp import schnorr_sign, schnorr_verify
        sk = Scalar.random(random.Random(33))
        sig = (schnorr_sign(sk, G1 ** sk, b"msg") + b"\x00")[:length]
        with pytest.raises(DecodeError):
            schnorr_verify(G1 ** sk, b"msg", sig)


class TestWireVectors:
    def test_committed_wire_vectors_match(self):
        import pathlib
        g1, g2 = G1Element.generator(), G2Element.generator()
        text = (pathlib.Path(__file__).resolve().parent.parent
                / "vectors" / "wire_vectors.txt").read_text()
        checked = 0
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            kind, inp, enc = line.split()
            if kind == "sig":
                sk_hex, msg_hex = inp.split(":")
                sig = sign(Scalar(int(sk_hex, 16)), bytes.fromhex(msg_hex))
                assert sig.to_bytes().hex() == enc
            elif kind == "literalproof":
                a, b, c = (int(x) for x in inp.split(":"))
                proof = SigmaProof(g1 ** a, g1 ** b, g1 ** c)
                assert proof.to_bytes().hex() == enc
                assert SigmaProof.from_bytes(bytes.fromhex(enc)) == proof
            elif kind == "authproof":
                a, b, c, d, e = (int(x) for x in inp.split(":"))
                proof = CorrectedAuthProof(g2 ** a, g1 ** b, Scalar(c), Scalar(d),
                                           Scalar(e), bytes(range(16)))
                assert proof.to_bytes().hex() == enc
                assert CorrectedAuthProof.from_bytes(bytes.fromhex(enc)) == proof
            elif kind == "txproof":
                a, b, c = (int(x) for x in inp.split(":"))
                proof = CorrectedTxProof(g2 ** a, Scalar(b), Scalar(c), bytes(range(16)))
                assert proof.to_bytes().hex() == enc
                assert CorrectedTxProof.from_bytes(bytes.fromhex(enc)) == proof
            else:
                raise AssertionError(f"unknown wire vector kind {kind}")
            checked += 1
        assert checked >= 6


@pytest.mark.parametrize("proof_type", PROOF_TYPES, ids=lambda t: t.__name__)
class TestProofDecoders:
    def test_unknown_tag_rejected(self, proof_type):
        with pytest.raises(DecodeError):
            proof_type.from_bytes(b"\x7f" + bytes(144))

    def test_empty_rejected(self, proof_type):
        with pytest.raises(DecodeError):
            proof_type.from_bytes(b"")

    def test_bad_corrected_length_rejected(self, proof_type):
        with pytest.raises(DecodeError):
            proof_type.from_bytes(b"\x02" + bytes(100))
