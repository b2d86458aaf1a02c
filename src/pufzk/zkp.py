"""Proof schemes, the device signature and the CA signature.

Two proof schemes are defined here:

``literal``
    The three-element pairing-checked proof exactly as its source
    equations prescribe, defects included.  Verification multiplies
    the setup public key into the check, so honest proofs only verify
    when the setup trapdoor equals one, and the response element is
    publicly recomputable from the first two elements, so the scheme
    has no soundness.  It is an exhibit: the acceptance suite and the
    attack suite's defect demonstrations call these functions
    directly, and no device, verifier or chaincode runs them.  It is
    excluded from every security guarantee.

``corrected``
    The one scheme the protocol runs: a sound Fiat-Shamir sigma
    protocol for the same statement shape, an AND-composition of two
    discrete-log knowledge proofs, one for the secret key against the
    device public key and one for the PUF response scalar against the
    response commitment registered at enrollment.  Challenges bind a
    protocol version tag, the full statement, and the per-session nonce.
    Each is a 128-bit member of the challenge set (``challenge_scalar``),
    so the soundness error is 2^-128 and the verifier's multiplications
    walk 64 bits.  The verifier recomputes each
    commitment from the responses and compares encodings, as a Schnorr
    (e, s) verifier recomputes R, so an accepted proof's commitments
    are never decoded: the proof codec keeps them as received bytes.
    Each prover nonce is hedged (:func:`prover_nonce`), so an rng that
    repeats its output does not repeat a nonce across statements.  The
    transaction proof is the same protocol with one clause, the secret
    key.  Both proofs run one core: each statement lists its clauses as
    (base, public key) pairs, and one prover, one verifier, one
    challenge function and one codec serve any number of them.

Two signature schemes sit beside the proofs.  Devices sign
transactions with the usual pairing scheme: sig = H(msg)^sk in G1 with
a two-pairing product check.  The certificate authority signs
registrations with a pairing-free Schnorr signature in G1, (e, s) with
a deterministic nonce and a challenge from the same set, whose check
costs two G1 multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .pairing import (
    DecodeError,
    DomainTag,
    G1Element,
    G2Element,
    SCALAR_ENC_LEN,
    Scalar,
    challenge_scalar,
    hash_to_g1,
    hash_to_scalar,
    multi_pair,
    random_challenge,
)

MODE_LITERAL = "literal"
MODE_CORRECTED = "corrected"

WIRE_TAG_LITERAL = 0x01
WIRE_TAG_CORRECTED = 0x02

NONCE_LEN = 16

# Pinned wire sizes (regression constants; see the proof-size tests).
LITERAL_PROOF_WIRE_BYTES = 1 + 3 * 48            # 145
CORRECTED_AUTH_PROOF_WIRE_BYTES = 1 + 96 + 48 + 3 * 32 + NONCE_LEN   # 257
CORRECTED_TX_PROOF_WIRE_BYTES = 1 + 96 + 2 * 32 + NONCE_LEN          # 177
SIGNATURE_WIRE_BYTES = 48
SCHNORR_SIGNATURE_WIRE_BYTES = 2 * SCALAR_ENC_LEN                      # 64

_G1 = G1Element.generator()
_G2 = G2Element.generator()


@dataclass(frozen=True)
class TrustSetup:
    """One-time setup for literal mode: trapdoor and its public key.

    Honest deployments discard the trapdoor; it is retained here so the
    defect tests can force alpha = 1.  A verifier's copy carries
    ``alpha=None``.
    """

    alpha: Scalar | None
    pk_setup: G2Element


def trust_setup(rng, forced_alpha: int | None = None) -> TrustSetup:
    """Sample the setup trapdoor and publish its G2 image.

    ``forced_alpha`` is a test hook; honest runs leave it None.
    """
    alpha = Scalar(forced_alpha) if forced_alpha is not None else Scalar.random(rng)
    return TrustSetup(alpha=alpha, pk_setup=_G2 ** alpha)


def prover_nonce(witness, statement: bytes, index: int, fresh: bytes = b"") -> Scalar:
    """The ``index``-th nonce of a proof or signature, hedged (RFC 6979
    section 3.6): a hash of the length-framed witness scalars, statement,
    index and ``fresh`` rng bytes.  A repeated rng then repeats a nonce
    only with the whole proof.  Empty ``fresh`` makes it deterministic."""
    parts = [w.to_bytes() for w in witness] + [statement, index.to_bytes(4, "big"), fresh]
    return hash_to_scalar(b"".join(len(p).to_bytes(4, "big") + p for p in parts),
                          DomainTag.PROVER_NONCE)


# ---------------------------------------------------------------------------
# Literal mode
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaProof:
    """The printed three-element proof: base commitment, randomness
    commitment, and the challenge response, all in G1."""

    witness_commit: G1Element
    rand_commit: G1Element
    response: G1Element

    def to_bytes(self) -> bytes:
        return (
            bytes([WIRE_TAG_LITERAL])
            + self.witness_commit.to_bytes()
            + self.rand_commit.to_bytes()
            + self.response.to_bytes()
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "SigmaProof":
        if len(data) != LITERAL_PROOF_WIRE_BYTES or data[0] != WIRE_TAG_LITERAL:
            raise DecodeError("not a literal-mode proof")
        return cls(
            witness_commit=G1Element.from_bytes(data[1:49]),
            rand_commit=G1Element.from_bytes(data[49:97]),
            response=G1Element.from_bytes(data[97:145]),
        )


def _literal_challenge(proof_witness_commit: G1Element, proof_rand_commit: G1Element) -> Scalar:
    return hash_to_scalar(
        proof_witness_commit.to_bytes() + proof_rand_commit.to_bytes(),
        DomainTag.LITERAL_CHALLENGE,
    )


def _prove_literal(base: G1Element, rng) -> SigmaProof:
    blind = Scalar.random(rng)
    witness_commit = base ** blind
    rand_commit = _G1 ** blind
    challenge = _literal_challenge(witness_commit, rand_commit)
    response = (base * (_G1 ** challenge)) ** blind
    return SigmaProof(witness_commit, rand_commit, response)


def auth_prove_literal(response_bytes: bytes, sk: Scalar, rng) -> SigmaProof:
    """Authentication proof over the hashed (responses || secret key).
    The printed prover never reads the setup key."""
    base = hash_to_g1(response_bytes + sk.to_bytes(), DomainTag.LITERAL_WITNESS_BASE)
    return _prove_literal(base, rng)


def tx_prove_literal(payload: bytes, rng) -> SigmaProof:
    """Transaction proof; same construction over the hashed payload."""
    base = hash_to_g1(payload, DomainTag.LITERAL_TX_BASE)
    return _prove_literal(base, rng)


def auth_verify_literal(setup: TrustSetup, proof: SigmaProof) -> bool:
    """Check the printed pairing equation; transaction proofs share it."""
    challenge = _literal_challenge(proof.witness_commit, proof.rand_commit)
    # e(S, g2) * e(U, pk)^h == e(V, g2), checked as a pairing product.
    check = multi_pair([
        (proof.witness_commit, _G2),
        (proof.rand_commit ** challenge, setup.pk_setup),
        (proof.response.inverse(), _G2),
    ])
    return check.is_identity()


def forge_literal_proof(rng) -> SigmaProof:
    """Build an accepting literal proof from public data only.

    The response element is recomputable from the first two elements,
    so any (S', U', S' * U'^h') triple passes whenever honest proofs
    do.  Used by the defect demonstrations.
    """
    witness_commit = _G1 ** Scalar.random(rng)
    rand_commit = _G1 ** Scalar.random(rng)
    challenge = _literal_challenge(witness_commit, rand_commit)
    response = witness_commit * rand_commit ** challenge
    return SigmaProof(witness_commit, rand_commit, response)


# ---------------------------------------------------------------------------
# Corrected mode
# ---------------------------------------------------------------------------

_CORRECTED_VERSION = b"pufzk-corrected-v1"


class _CorrectedProof:
    """The wire layout both corrected proofs share: tag || one commitment
    per clause || challenge || one response per clause || nonce.  A
    subclass declares its dataclass fields in that order, names each
    commitment's group in ``_GROUPS``, clause by clause, and pins its
    length in ``_WIRE_BYTES``."""

    def _parts(self):
        """(commitments, challenge, responses, nonce)."""
        n = len(self._GROUPS)
        values = [getattr(self, f.name) for f in fields(self)]
        return values[:n], values[n], values[n + 1:-1], values[-1]

    def to_bytes(self) -> bytes:
        *elements, nonce = (getattr(self, f.name) for f in fields(self))
        return bytes([WIRE_TAG_CORRECTED]) + b"".join(e.to_bytes() for e in elements) + nonce

    @classmethod
    def from_bytes(cls, data: bytes):
        if len(data) != cls._WIRE_BYTES or data[0] != WIRE_TAG_CORRECTED:
            raise DecodeError(f"not a {cls.__name__}")
        commits, off = [], 1
        for group in cls._GROUPS:
            commits.append(group.deferred(data[off:off + group.ENC_LEN]))
            off += group.ENC_LEN
        end = off + (len(cls._GROUPS) + 1) * SCALAR_ENC_LEN
        scalars = [Scalar.from_bytes(data[i:i + SCALAR_ENC_LEN]) for i in range(off, end, SCALAR_ENC_LEN)]
        return cls(*commits, *scalars, data[end:end + NONCE_LEN])


def _challenge(statement, commits) -> Scalar:
    """The Fiat-Shamir challenge, a member of the 128-bit challenge set
    (see challenge_scalar): the version tag, the statement and every
    commitment, in clause order."""
    transcript = _CORRECTED_VERSION + statement.to_bytes() + b"".join(c.to_bytes() for c in commits)
    return challenge_scalar(transcript, DomainTag.CORRECTED_CHALLENGE)


def _prove(proof_type, statement, secrets, nonce: bytes, rng):
    """One hedged prover nonce per clause from one 32-byte rng draw, then
    base^k per clause, the challenge and the responses k + c * secret."""
    fresh = rng.randbytes(32)
    ks = [prover_nonce(secrets, statement.to_bytes(), i, fresh) for i in range(len(secrets))]
    commits = [base ** k for (base, _), k in zip(statement.clauses(), ks)]
    challenge = _challenge(statement, commits)
    return proof_type(*commits, challenge, *(k + challenge * x for k, x in zip(ks, secrets)), nonce)


def _commits_to(commit, base, resp: Scalar, pk, challenge: Scalar) -> bool:
    """Whether ``commit`` is base^resp * pk^-challenge, compared as
    encodings: the one point the sigma equation allows is recomputed
    and encoded, so the received commitment is never decoded."""
    return (base ** resp * (pk ** challenge).inverse()).to_bytes() == commit.to_bytes()


def verify_sigma_equations(statement, proof) -> bool:
    """The group-equation checks alone, one per clause, with the proof's
    own challenge.  This is the interactive-verifier view used by the
    honest-verifier zero-knowledge test; it deliberately skips the
    Fiat-Shamir challenge recomputation.

    Each check recomputes the commitment C = g^s * X^-c and compares
    its encoding with the received one.  Encodings are canonical and C
    lies in the subgroup, so the bytes match exactly when the
    commitment decodes (subgroup check included) and satisfies
    g^s == C * X^c."""
    commits, challenge, responses, _ = proof._parts()
    return all(_commits_to(commit, base, resp, pk, challenge)
               for commit, (base, pk), resp in zip(commits, statement.clauses(), responses))


def _verify(statement, nonce: bytes, proof) -> bool:
    """Nonce binding, challenge recomputation, then the sigma equations."""
    commits, challenge, _, proof_nonce = proof._parts()
    if proof_nonce != nonce or challenge != _challenge(statement, commits):
        return False
    return verify_sigma_equations(statement, proof)


@dataclass(frozen=True)
class AuthStatement:
    """Public inputs an authentication proof is bound to."""

    device_id: bytes
    pk: G2Element
    response_commitment: G1Element
    challenge_epoch: int
    session_nonce: bytes

    def clauses(self):
        """(base, public key) per clause: sk against pk, and the
        response scalar against the registered commitment."""
        return (_G2, self.pk), (_G1, self.response_commitment)

    def to_bytes(self) -> bytes:
        return b"".join([
            b"auth",
            len(self.device_id).to_bytes(2, "big"), self.device_id,
            self.pk.to_bytes(),
            self.response_commitment.to_bytes(),
            self.challenge_epoch.to_bytes(8, "big"),
            len(self.session_nonce).to_bytes(2, "big"), self.session_nonce,
        ])


@dataclass(frozen=True)
class AuthWitness:
    """Private inputs: the device secret key and the response scalar
    whose G1 image is the registered response commitment."""

    sk: Scalar
    response_scalar: Scalar


@dataclass(frozen=True)
class CorrectedAuthProof(_CorrectedProof):
    _GROUPS, _WIRE_BYTES = (G2Element, G1Element), CORRECTED_AUTH_PROOF_WIRE_BYTES

    commit_sk: G2Element
    commit_puf: G1Element
    challenge: Scalar
    resp_sk: Scalar
    resp_puf: Scalar
    session_nonce: bytes


def auth_prove_corrected(statement: AuthStatement, witness: AuthWitness, rng) -> CorrectedAuthProof:
    """AND-composed knowledge proof for (sk, response scalar).

    The prover never checks witness consistency; an inconsistent
    witness yields a proof that simply fails verification.
    """
    return _prove(CorrectedAuthProof, statement, (witness.sk, witness.response_scalar),
                  statement.session_nonce, rng)


def auth_verify_corrected(statement: AuthStatement, proof: CorrectedAuthProof) -> bool:
    """Full non-interactive verification: nonce binding, challenge
    recomputation, and both sigma equations."""
    return _verify(statement, statement.session_nonce, proof)


def simulate_auth_transcript(statement: AuthStatement, rng) -> CorrectedAuthProof:
    """Honest-verifier zero-knowledge simulator.

    Produces a transcript distributed like an honest one without any
    witness: sample the challenge from the challenge set and the
    responses from the scalars, then solve for the commitments.  It
    satisfies ``verify_sigma_equations`` but not the Fiat-Shamir binding,
    so ``auth_verify_corrected`` rejects it.
    """
    clauses = statement.clauses()
    challenge = random_challenge(rng)
    responses = [Scalar.random(rng) for _ in clauses]
    commits = [base ** s * (pk ** challenge).inverse() for (base, pk), s in zip(clauses, responses)]
    return CorrectedAuthProof(*commits, challenge, *responses, statement.session_nonce)


@dataclass(frozen=True)
class TxStatement:
    """Public inputs a corrected-mode transaction proof is bound to."""

    device_id: bytes
    pk: G2Element
    payload_digest: bytes
    tx_nonce: bytes

    def clauses(self):
        """(base, public key) of the one clause: sk against pk."""
        return ((_G2, self.pk),)

    def to_bytes(self) -> bytes:
        return b"".join([
            b"tx",
            len(self.device_id).to_bytes(2, "big"), self.device_id,
            self.pk.to_bytes(),
            len(self.payload_digest).to_bytes(2, "big"), self.payload_digest,
            len(self.tx_nonce).to_bytes(2, "big"), self.tx_nonce,
        ])


@dataclass(frozen=True)
class CorrectedTxProof(_CorrectedProof):
    _GROUPS, _WIRE_BYTES = (G2Element,), CORRECTED_TX_PROOF_WIRE_BYTES

    commit_sk: G2Element
    challenge: Scalar
    resp_sk: Scalar
    tx_nonce: bytes


def tx_prove_corrected(statement: TxStatement, sk: Scalar, rng) -> CorrectedTxProof:
    """Knowledge-of-sk proof bound to the payload digest and nonce; a
    signature of knowledge playing the printed transaction proof's role
    in corrected mode."""
    return _prove(CorrectedTxProof, statement, (sk,), statement.tx_nonce, rng)


def tx_verify_corrected(statement: TxStatement, proof: CorrectedTxProof) -> bool:
    return _verify(statement, statement.tx_nonce, proof)


# ---------------------------------------------------------------------------
# Pairing-based signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    sig: G1Element

    def to_bytes(self) -> bytes:
        return self.sig.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        if len(data) != SIGNATURE_WIRE_BYTES:
            raise DecodeError("bad signature length")
        return cls(sig=G1Element.from_bytes(data))


def sign(sk: Scalar, message: bytes) -> Signature:
    return Signature(sig=hash_to_g1(message, DomainTag.SIGNATURE_MESSAGE) ** sk)


def verify_sig(pk: G2Element, message: bytes, signature: Signature) -> bool:
    """Check e(sig, g2) == e(H(msg), pk) via one pairing product."""
    check = multi_pair([
        (signature.sig.inverse(), _G2),
        (hash_to_g1(message, DomainTag.SIGNATURE_MESSAGE), pk),
    ])
    return check.is_identity()


# ---------------------------------------------------------------------------
# Pairing-free Schnorr signatures in G1 (certificate authority)
# ---------------------------------------------------------------------------

def _schnorr_challenge(commit: G1Element, pk: G1Element, message: bytes) -> Scalar:
    return challenge_scalar(commit.to_bytes() + pk.to_bytes() + message,
                            DomainTag.SCHNORR_CHALLENGE)


def schnorr_sign(sk: Scalar, pk: G1Element, message: bytes) -> bytes:
    """(e, s) with k = H(sk, msg), R = g1^k, e = H(R || pk || msg) and
    s = k + e * sk.  ``pk`` must be g1^sk; passing it saves a
    multiplication.  The nonce is :func:`prover_nonce` with no fresh
    bytes, so signing draws no randomness and equal inputs give equal
    signatures."""
    k = prover_nonce((sk,), message, 0)
    e = _schnorr_challenge(_G1 ** k, pk, message)
    return e.to_bytes() + (k + e * sk).to_bytes()


def schnorr_verify(pk: G1Element, message: bytes, signature: bytes) -> bool:
    """Recompute R = g1^s * pk^-e and check e == H(R || pk || msg).

    Raises ``DecodeError`` unless the signature is exactly two scalars
    below the group order, so each signature has one encoding."""
    e = Scalar.from_bytes(signature[:SCALAR_ENC_LEN])
    s = Scalar.from_bytes(signature[SCALAR_ENC_LEN:])
    return e == _schnorr_challenge(_G1 ** s * (pk ** e).inverse(), pk, message)
