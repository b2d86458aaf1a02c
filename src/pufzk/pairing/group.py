"""Public group API: scalars, group elements, pairing, and hashing.

Everything above this module is group-agnostic: protocol code deals in
``Scalar``, ``G1Element``, ``G2Element``, ``GtElement`` and the hash
functions, never in raw coordinates.  Group notation is multiplicative
to match the usual pairing-protocol conventions: ``a * b`` is the group
operation, ``a ** k`` scalar exponentiation.

Every hash function takes a mandatory domain tag.  Distinct tags give
independent random oracles; every usage site in the protocol stack has
its own tag (see ``DomainTag``).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Iterable, Tuple

from .fields import P, R, X_ABS, FQ12_ONE, fq12_mul, fq12_inv, fq12_pow, fq_is_square
from .curve import (
    DecodeError,
    G1_ENC_LEN, G2_ENC_LEN,
    g1_add, g1_neg, g1_mul, g1_mul_gen, g1_to_bytes, g1_from_bytes,
    g2_add, g2_neg, g2_mul, g2_mul_gen, g2_to_bytes, g2_from_bytes,
    g1_mul_unchecked, fq_sqrt,
    G1_GEN, G2_GEN, B_G1,
)
from .pairing import (
    final_exponentiation as _final_exp,
    miller_loop as _miller_loop,
    precompute_g2_lines as _precompute_g2_lines,
)

ORDER = R
SCALAR_ENC_LEN = 32
GT_ENC_LEN = 576


class DomainTag:
    """Domain-separation tags, one per hash usage site."""

    LITERAL_WITNESS_BASE = b"pufzk/v1/literal/witness-base"
    LITERAL_TX_BASE = b"pufzk/v1/literal/tx-base"
    LITERAL_CHALLENGE = b"pufzk/v1/literal/fiat-shamir"
    CORRECTED_CHALLENGE = b"pufzk/v1/corrected/fiat-shamir"
    SIGNATURE_MESSAGE = b"pufzk/v1/signature/message"
    PROVER_NONCE = b"pufzk/v1/prover/nonce"
    SCHNORR_CHALLENGE = b"pufzk/v1/schnorr/challenge"
    RESPONSE_SCALAR = b"pufzk/v1/identity/response-scalar"
    GENERIC_SCALAR = b"pufzk/v1/scalar"


def _framed(data: bytes, tag: bytes) -> bytes:
    if isinstance(tag, str):
        tag = tag.encode()
    if len(tag) > 255:
        raise ValueError("domain tag too long")
    return bytes([len(tag)]) + tag + data


class Scalar:
    """An element of the prime-order scalar field Z_r."""

    __slots__ = ("value",)
    ORDER = ORDER

    def __init__(self, value: int):
        self.value = int(value) % ORDER

    @classmethod
    def random(cls, rng) -> "Scalar":
        """Uniform nonzero scalar from ``rng.randrange``."""
        return cls(rng.randrange(1, ORDER))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Scalar":
        if len(data) != SCALAR_ENC_LEN:
            raise DecodeError(f"scalar encoding must be {SCALAR_ENC_LEN} bytes")
        v = int.from_bytes(data, "big")
        if v >= ORDER:
            raise DecodeError("scalar out of range")
        return cls(v)

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(SCALAR_ENC_LEN, "big")

    def inverse(self) -> "Scalar":
        if self.value == 0:
            raise ZeroDivisionError("zero scalar has no inverse")
        return Scalar(pow(self.value, -1, ORDER))

    def __add__(self, other): return Scalar(self.value + _sv(other))
    def __radd__(self, other): return Scalar(self.value + _sv(other))
    def __sub__(self, other): return Scalar(self.value - _sv(other))
    def __rsub__(self, other): return Scalar(_sv(other) - self.value)
    def __mul__(self, other): return Scalar(self.value * _sv(other))
    def __rmul__(self, other): return Scalar(self.value * _sv(other))
    def __neg__(self): return Scalar(-self.value)

    def __eq__(self, other):
        return isinstance(other, Scalar) and self.value == other.value

    def __hash__(self):
        return hash(("Scalar", self.value))

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"Scalar(0x{self.value:x})"


def _sv(x) -> int:
    if isinstance(x, Scalar):
        return x.value
    if isinstance(x, int):
        return x
    raise TypeError(f"expected Scalar or int, got {type(x).__name__}")


# Subgroup checks dominate decoding; long-lived keys are deserialized
# over and over from ledger state, so cache by exact input bytes.
# Points are immutable, sharing them is safe.
@lru_cache(maxsize=4096)
def _g1_decode_cached(data: bytes):
    return g1_from_bytes(data)


@lru_cache(maxsize=4096)
def _g2_decode_cached(data: bytes):
    return g2_from_bytes(data)


def _gt_from_bytes(data: bytes):
    """The Fq12 value of a Gt encoding: twelve 48-byte coefficients, each
    below P, of an element of the prime-order subgroup."""
    if len(data) != GT_ENC_LEN:
        raise DecodeError(f"Gt encoding must be {GT_ENC_LEN} bytes")
    coeffs = []
    for i in range(12):
        v = int.from_bytes(data[i * 48:(i + 1) * 48], "big")
        if v >= P:
            raise DecodeError("Gt coefficient out of range")
        coeffs.append(v)
    val = (
        ((coeffs[0], coeffs[1]), (coeffs[2], coeffs[3]), (coeffs[4], coeffs[5])),
        ((coeffs[6], coeffs[7]), (coeffs[8], coeffs[9]), (coeffs[10], coeffs[11])),
    )
    if fq12_pow(val, ORDER) != FQ12_ONE:
        raise DecodeError("element not in the prime-order Gt subgroup")
    return val


def _gt_to_bytes(val) -> bytes:
    out = bytearray()
    for half in val:
        for c in half:
            out += c[0].to_bytes(48, "big")
            out += c[1].to_bytes(48, "big")
    return bytes(out)


class _Element:
    """The body every group element shares.  Each group's class names its
    routines: ``_encode`` and ``_decode`` between the value and bytes,
    ``_op`` (the group law), ``_inv`` and the identity value
    ``_IDENTITY``; ``_group`` is the class itself, which every operation
    returns and which equality compares within."""

    __slots__ = ("_pt",)

    def __init__(self, pt):
        self._pt = pt

    @classmethod
    def identity(cls):
        return cls._group(cls._IDENTITY)

    @classmethod
    def from_bytes(cls, data: bytes):
        return cls._group(cls._decode(bytes(data)))

    def to_bytes(self) -> bytes:
        return self._encode(self._pt)

    def is_identity(self) -> bool:
        return self._pt == self._IDENTITY

    def __mul__(self, other):
        return self._group(self._op(self._pt, other._pt))

    def inverse(self):
        return self._group(self._inv(self._pt))

    def __eq__(self, other):
        return isinstance(other, self._group) and self._pt == other._pt

    def __hash__(self):
        return hash((self._group.__name__, self.to_bytes()))

    def __repr__(self):
        return f"{self._group.__name__}({self.to_bytes().hex()[:16]}...)"


class _Point(_Element):
    """A point of a source group's prime-order subgroup: decoded with a
    subgroup check, hashed to G1 with cofactor clearing, or derived from
    such points.  ``**`` relies on it.  The identity is None; each group
    names its generator ``_GENERATOR`` and its deferred class
    ``_deferred``."""

    __slots__ = ()
    _IDENTITY = None

    @classmethod
    def generator(cls):
        return cls._group(cls._GENERATOR)

    @classmethod
    def deferred(cls, data: bytes):
        """The element encoded by ``data``, decoded only when it is first
        used as a point; ``to_bytes`` returns ``data`` as received.  For
        commitments that a verifier only compares as bytes."""
        return cls._deferred(data)


class G1Element(_Point):
    """Element of the first source group (48-byte compressed encoding)."""

    __slots__ = ()
    ENC_LEN = G1_ENC_LEN
    _GENERATOR = G1_GEN
    _encode, _decode = staticmethod(g1_to_bytes), staticmethod(_g1_decode_cached)
    _op, _inv = staticmethod(g1_add), staticmethod(g1_neg)

    def __pow__(self, k) -> "G1Element":
        k = _sv(k) % ORDER
        if self._pt == G1_GEN:
            return G1Element(g1_mul_gen(k))
        return G1Element(g1_mul(self._pt, k))


class G2Element(_Point):
    """Element of the second source group (96-byte compressed encoding)."""

    __slots__ = ()
    ENC_LEN = G2_ENC_LEN
    _GENERATOR = G2_GEN
    _encode, _decode = staticmethod(g2_to_bytes), staticmethod(_g2_decode_cached)
    _op, _inv = staticmethod(g2_add), staticmethod(g2_neg)

    def __pow__(self, k) -> "G2Element":
        k = _sv(k) % ORDER
        if self._pt == G2_GEN:
            return G2Element(g2_mul_gen(k))
        return G2Element(g2_mul(self._pt, k))


class GtElement(_Element):
    """Element of the pairing target group (576-byte encoding)."""

    __slots__ = ()
    ENC_LEN = GT_ENC_LEN
    _IDENTITY = FQ12_ONE
    _encode, _decode = staticmethod(_gt_to_bytes), staticmethod(_gt_from_bytes)
    _op, _inv = staticmethod(fq12_mul), staticmethod(fq12_inv)

    def __pow__(self, k) -> "GtElement":
        k = _sv(k) % ORDER
        return GtElement(fq12_pow(self._pt, k))


class _Deferred:
    """A group element known by its received encoding and decoded, with
    the subgroup check, on first use as a point.  ``to_bytes`` returns
    the encoding without decoding; a bad encoding raises ``DecodeError``
    from the first arithmetic or comparison instead."""

    __slots__ = ()

    def __init__(self, data: bytes):
        self._enc = bytes(data)

    def __getattr__(self, name):
        # reached only while the ``_pt`` slot is still unset
        if name != "_pt":
            raise AttributeError(name)
        self._pt = self._decode(self._enc)
        return self._pt

    def to_bytes(self) -> bytes:
        return self._enc


class _DeferredG1(_Deferred, G1Element):
    __slots__ = ("_enc",)


class _DeferredG2(_Deferred, G2Element):
    __slots__ = ("_enc",)


G1Element._group, G2Element._group, GtElement._group = G1Element, G2Element, GtElement
G1Element._deferred, G2Element._deferred = _DeferredG1, _DeferredG2


# Miller-loop line tables for G2 points that keep being paired
# (generators, setup and CA keys, cached device keys).
_LINE_CACHE: dict = {}
_LINE_CACHE_MAX = 128


def _g2_lines(pt):
    if pt is None:
        return None
    lines = _LINE_CACHE.get(pt)
    if lines is None:
        if len(_LINE_CACHE) >= _LINE_CACHE_MAX:
            _LINE_CACHE.clear()
        lines = _precompute_g2_lines(pt)
        _LINE_CACHE[pt] = lines
    return lines


def pair(a: G1Element, b: G2Element) -> GtElement:
    """The bilinear map e: G1 x G2 -> Gt."""
    return GtElement(_final_exp(_miller_loop([(a._pt, _g2_lines(b._pt))])))


def multi_pair(pairs: Iterable[Tuple[G1Element, G2Element]]) -> GtElement:
    """Product of pairings with a single shared final exponentiation."""
    return GtElement(_final_exp(_miller_loop(
        [(a._pt, _g2_lines(b._pt)) for a, b in pairs]
    )))


def hash_to_scalar(data: bytes, tag: bytes) -> Scalar:
    """Map bytes to a uniform-looking scalar under a domain tag."""
    digest = hashlib.shake_256(_framed(data, tag)).digest(48)
    return Scalar(int.from_bytes(digest, "big"))


_CHALLENGE_BYTES = 16


def _challenge_from_bytes(data: bytes) -> Scalar:
    """The member c0 + c1*x^2 of the challenge set whose halves c0 and
    c1 are the two big-endian 8-byte words of ``data``, c0 first.

    c0 < 2^64 < x^2, so distinct halves give distinct integers, and all
    of them lie below 2^192 < r: the set has 2^128 members, any two of
    which differ by an invertible scalar.  The halves are the split that
    g1_mul and g2_mul read, so a challenge takes 64 bits of either
    ladder."""
    c0, c1 = int.from_bytes(data[:8], "big"), int.from_bytes(data[8:], "big")
    return Scalar(c0 + c1 * X_ABS * X_ABS)


def challenge_scalar(data: bytes, tag: bytes) -> Scalar:
    """Map bytes to a uniform-looking member of the challenge set under a
    domain tag: 16 bytes of SHAKE-256 output (see _challenge_from_bytes)."""
    return _challenge_from_bytes(hashlib.shake_256(_framed(data, tag)).digest(_CHALLENGE_BYTES))


def random_challenge(rng) -> Scalar:
    """A uniform member of the challenge set from 16 bytes of
    ``rng.randbytes``."""
    return _challenge_from_bytes(rng.randbytes(_CHALLENGE_BYTES))


# The G1 cofactor is (x - 1)^2 / 3 = (|x| + 1) * ((|x| + 1) / 3).  Two
# ladders over the factors take 125 doublings and 33 additions; one over
# the product takes 125 and 47.
_COFACTOR_G1_FACTORS = (X_ABS + 1, (X_ABS + 1) // 3)


def _clear_cofactor_g1(pt):
    """[COFACTOR_G1]pt for a point of E(Fq), by the two factors in turn."""
    for k in _COFACTOR_G1_FACTORS:
        pt = g1_mul_unchecked(pt, k)
    return pt


def hash_to_g1(data: bytes, tag: bytes) -> G1Element:
    """Map bytes to a G1 subgroup element under a domain tag.

    Deterministic try-and-increment: the i-th try hashes the framed
    message and a 4-byte counter to a candidate x and a sign bit, and
    is taken when x^3 + 4 is a square.  A residuosity test (a Jacobi
    symbol) rejects about half the candidates before the square root is
    taken, so the root runs once per hash.  The point is then multiplied
    by the cofactor; a try whose product is the identity is skipped, so
    the identity is never returned.
    """
    # absorb the framed message once; each try hashes it plus a counter
    absorbed = hashlib.shake_256(_framed(data, tag))
    ctr = 0
    while True:
        attempt = absorbed.copy()
        attempt.update(ctr.to_bytes(4, "big"))
        digest = attempt.digest(49)
        x = int.from_bytes(digest[:48], "big") % P
        rhs = (x * x * x + B_G1) % P
        if fq_is_square(rhs):
            y = fq_sqrt(rhs)
            if digest[48] & 1:
                y = -y % P
            pt = _clear_cofactor_g1((x, y))
            if pt is not None:
                return G1Element(pt)
        ctr += 1

