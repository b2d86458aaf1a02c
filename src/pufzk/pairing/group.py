"""Public group API: scalars, group elements, pairing, and hashing.

Everything above this module is group-agnostic: protocol code deals in
``Scalar``, ``G1Element``, ``G2Element``, ``GtElement`` and the two hash
functions, never in raw coordinates.  Group notation is multiplicative
to match the usual pairing-protocol conventions: ``a * b`` is the group
operation, ``a ** k`` scalar exponentiation.

Both hash functions take a mandatory domain tag.  Distinct tags give
independent random oracles; every usage site in the protocol stack has
its own tag (see ``DomainTag``).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Iterable, Tuple

from .fields import P, R, mpz, FQ12_ONE, fq12_mul, fq12_inv, fq12_pow
from .curve import (
    DecodeError,
    G1_ENC_LEN, G2_ENC_LEN,
    g1_add, g1_neg, g1_mul, g1_mul_gen, g1_to_bytes, g1_from_bytes,
    g2_add, g2_neg, g2_mul, g2_mul_gen, g2_to_bytes, g2_from_bytes,
    g1_mul_unchecked, fq_sqrt,
    G1_GEN, G2_GEN, B_G1, COFACTOR_G1,
)
from .pairing import (
    final_exponentiation as _final_exp,
    miller_loop as _miller_loop,
    precompute_g2_lines as _precompute_g2_lines,
)

ORDER = int(R)
SCALAR_ENC_LEN = 32
GT_ENC_LEN = 576


class DomainTag:
    """Domain-separation tags, one per hash usage site."""

    LITERAL_WITNESS_BASE = b"pufzk/v1/literal/witness-base"
    LITERAL_TX_BASE = b"pufzk/v1/literal/tx-base"
    LITERAL_CHALLENGE = b"pufzk/v1/literal/fiat-shamir"
    CORRECTED_CHALLENGE = b"pufzk/v1/corrected/fiat-shamir"
    SIGNATURE_MESSAGE = b"pufzk/v1/signature/message"
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
    def hash(cls, data: bytes, tag: bytes) -> "Scalar":
        return hash_to_scalar(data, tag)

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


class G1Element:
    """Element of the first source group (48-byte compressed encoding)."""

    __slots__ = ("_pt",)
    ENC_LEN = G1_ENC_LEN

    def __init__(self, pt):
        self._pt = pt

    @classmethod
    def generator(cls) -> "G1Element":
        return _G1_GEN_ELEM

    @classmethod
    def identity(cls) -> "G1Element":
        return cls(None)

    @classmethod
    def from_bytes(cls, data: bytes) -> "G1Element":
        return cls(_g1_decode_cached(bytes(data)))

    def to_bytes(self) -> bytes:
        return g1_to_bytes(self._pt)

    def is_identity(self) -> bool:
        return self._pt is None

    def __mul__(self, other: "G1Element") -> "G1Element":
        return G1Element(g1_add(self._pt, other._pt))

    def __pow__(self, k) -> "G1Element":
        k = _sv(k) % ORDER
        if self._pt == G1_GEN:
            return G1Element(g1_mul_gen(k))
        return G1Element(g1_mul(self._pt, k))

    def inverse(self) -> "G1Element":
        return G1Element(g1_neg(self._pt))

    def __eq__(self, other):
        return isinstance(other, G1Element) and self._pt == other._pt

    def __hash__(self):
        return hash(("G1", self.to_bytes()))

    def __repr__(self):
        return f"G1Element({self.to_bytes().hex()[:16]}...)"


class G2Element:
    """Element of the second source group (96-byte compressed encoding)."""

    __slots__ = ("_pt",)
    ENC_LEN = G2_ENC_LEN

    def __init__(self, pt):
        self._pt = pt

    @classmethod
    def generator(cls) -> "G2Element":
        return _G2_GEN_ELEM

    @classmethod
    def identity(cls) -> "G2Element":
        return cls(None)

    @classmethod
    def from_bytes(cls, data: bytes) -> "G2Element":
        return cls(_g2_decode_cached(bytes(data)))

    def to_bytes(self) -> bytes:
        return g2_to_bytes(self._pt)

    def is_identity(self) -> bool:
        return self._pt is None

    def __mul__(self, other: "G2Element") -> "G2Element":
        return G2Element(g2_add(self._pt, other._pt))

    def __pow__(self, k) -> "G2Element":
        k = _sv(k) % ORDER
        if self._pt == G2_GEN:
            return G2Element(g2_mul_gen(k))
        return G2Element(g2_mul(self._pt, k))

    def inverse(self) -> "G2Element":
        return G2Element(g2_neg(self._pt))

    def __eq__(self, other):
        return isinstance(other, G2Element) and self._pt == other._pt

    def __hash__(self):
        return hash(("G2", self.to_bytes()))

    def __repr__(self):
        return f"G2Element({self.to_bytes().hex()[:16]}...)"


class GtElement:
    """Element of the pairing target group (576-byte encoding)."""

    __slots__ = ("_val",)
    ENC_LEN = GT_ENC_LEN

    def __init__(self, val):
        self._val = val

    @classmethod
    def identity(cls) -> "GtElement":
        return cls(FQ12_ONE)

    @classmethod
    def from_bytes(cls, data: bytes) -> "GtElement":
        if len(data) != GT_ENC_LEN:
            raise DecodeError(f"Gt encoding must be {GT_ENC_LEN} bytes")
        coeffs = []
        for i in range(12):
            v = int.from_bytes(data[i * 48:(i + 1) * 48], "big")
            if v >= P:
                raise DecodeError("Gt coefficient out of range")
            coeffs.append(mpz(v))
        val = (
            ((coeffs[0], coeffs[1]), (coeffs[2], coeffs[3]), (coeffs[4], coeffs[5])),
            ((coeffs[6], coeffs[7]), (coeffs[8], coeffs[9]), (coeffs[10], coeffs[11])),
        )
        if fq12_pow(val, ORDER) != FQ12_ONE:
            raise DecodeError("element not in the prime-order Gt subgroup")
        return cls(val)

    def to_bytes(self) -> bytes:
        out = bytearray()
        for half in self._val:
            for c in half:
                out += int(c[0]).to_bytes(48, "big")
                out += int(c[1]).to_bytes(48, "big")
        return bytes(out)

    def __mul__(self, other: "GtElement") -> "GtElement":
        return GtElement(fq12_mul(self._val, other._val))

    def __pow__(self, k) -> "GtElement":
        k = _sv(k) % ORDER
        return GtElement(fq12_pow(self._val, k))

    def inverse(self) -> "GtElement":
        return GtElement(fq12_inv(self._val))

    def is_identity(self) -> bool:
        return self._val == FQ12_ONE

    def __eq__(self, other):
        return isinstance(other, GtElement) and self._val == other._val

    def __hash__(self):
        return hash(("Gt", self.to_bytes()))

    def __repr__(self):
        return f"GtElement({self.to_bytes().hex()[:16]}...)"


_G1_GEN_ELEM = G1Element(G1_GEN)
_G2_GEN_ELEM = G2Element(G2_GEN)


# Subgroup checks dominate decoding; long-lived keys are deserialized
# over and over from ledger state, so cache by exact input bytes.
# Points are immutable, sharing them is safe.
@lru_cache(maxsize=4096)
def _g1_decode_cached(data: bytes):
    return g1_from_bytes(data)


@lru_cache(maxsize=4096)
def _g2_decode_cached(data: bytes):
    return g2_from_bytes(data)


# Miller-loop line tables for G2 points that keep being paired
# (generators, setup and CA keys, cached device keys).
_LINE_CACHE: dict = {}
_LINE_CACHE_MAX = 128


def _g2_lines(pt):
    if pt is None:
        return None
    key = (int(pt[0][0]), int(pt[0][1]), int(pt[1][0]), int(pt[1][1]))
    lines = _LINE_CACHE.get(key)
    if lines is None:
        if len(_LINE_CACHE) >= _LINE_CACHE_MAX:
            _LINE_CACHE.clear()
        lines = _precompute_g2_lines(pt)
        _LINE_CACHE[key] = lines
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


def hash_to_g1(data: bytes, tag: bytes) -> G1Element:
    """Map bytes to a G1 subgroup element under a domain tag.

    Deterministic try-and-increment over hashed x-candidates followed by
    cofactor clearing; never returns the identity.
    """
    framed = _framed(data, tag)
    ctr = 0
    while True:
        digest = hashlib.shake_256(framed + ctr.to_bytes(4, "big")).digest(49)
        x = int.from_bytes(digest[:48], "big") % int(P)
        rhs = (x * x * x + B_G1) % P
        y = fq_sqrt(rhs)
        if y is not None:
            if digest[48] & 1:
                y = -y % P
            pt = g1_mul_unchecked((mpz(x), mpz(y)), COFACTOR_G1)
            if pt is not None:
                return G1Element(pt)
        ctr += 1

