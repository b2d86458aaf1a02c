#!/usr/bin/env python3
"""Regenerate the committed test-vector files under vectors/.

Run from the repository root:  python tools/make_vectors.py
The test suite regenerates the same data and compares, so these files
pin the canonical encodings across refactors.
"""

import pathlib

import numpy as np

from pufzk.pairing import (
    DomainTag, G1Element, G2Element, Scalar, hash_to_g1, hash_to_scalar, multi_pair, pair,
)
from pufzk.puf import generate_challenges, puf_new, puf_respond

ROOT = pathlib.Path(__file__).resolve().parent.parent
VECTORS = ROOT / "vectors"


def pairing_vectors() -> str:
    lines = [
        "# canonical encodings: <kind> <input-hex> <encoding-hex>",
        "# g1exp/g2exp: input is a big-endian exponent applied to the group generator",
        "# h2g1: input is <tag-utf8-hex>:<message-hex>, output the 48-byte point encoding",
        "# h2s:  input is <tag-utf8-hex>:<message-hex>, output the 32-byte scalar encoding",
        "# pair: input is comma-separated <a-hex>:<b-hex> exponent pairs, output the 576-byte",
        "#       Gt encoding of pair(g1^a, g2^b), or of their multi_pair product for several",
    ]
    g1, g2 = G1Element.generator(), G2Element.generator()
    for k in [1, 2, 3, 7, 0xFFFF, 2**64 - 1, Scalar.ORDER - 1]:
        lines.append(f"g1exp {k:x} {(g1 ** k).to_bytes().hex()}")
    for k in [1, 2, 3, 7, 0xFFFF, 2**64 - 1, Scalar.ORDER - 1]:
        lines.append(f"g2exp {k:x} {(g2 ** k).to_bytes().hex()}")
    lines.append(f"g1exp 0 {G1Element.identity().to_bytes().hex()}")
    lines.append(f"g2exp 0 {G2Element.identity().to_bytes().hex()}")
    for msg in [b"", b"abc", b"device-7", bytes(range(32))]:
        tag = DomainTag.LITERAL_WITNESS_BASE
        lines.append(f"h2g1 {tag.hex()}:{msg.hex()} {hash_to_g1(msg, tag).to_bytes().hex()}")
    for msg in [b"", b"abc", b"device-7", bytes(range(32))]:
        tag = DomainTag.GENERIC_SCALAR
        lines.append(f"h2s {tag.hex()}:{msg.hex()} {hash_to_scalar(msg, tag).to_bytes().hex()}")
    for a, b in [(1, 1), (7, 0xFFFF), (Scalar.ORDER - 1, 2**64 - 1)]:
        lines.append(f"pair {a:x}:{b:x} {pair(g1 ** a, g2 ** b).to_bytes().hex()}")
    # verify_sig's shape: (sig^-1, g2) and (H(m), pk)
    terms = [(Scalar.ORDER - 5, 1), (0x1234567, Scalar.ORDER - 3)]
    product = multi_pair([(g1 ** a, g2 ** b) for a, b in terms])
    lines.append(f"pair {','.join(f'{a:x}:{b:x}' for a, b in terms)} {product.to_bytes().hex()}")
    return "\n".join(lines) + "\n"


def wire_vectors() -> str:
    from pufzk.zkp import (
        CorrectedAuthProof, CorrectedTxProof, SigmaProof, sign,
    )

    lines = [
        "# proof and signature wire encodings over fixed inputs",
        "# sig: input <sk-hex>:<msg-hex>, output the 48-byte signature",
        "# literalproof/authproof/txproof: synthetic fixed-exponent fields, output the wire bytes",
    ]
    g1, g2 = G1Element.generator(), G2Element.generator()
    for sk, msg in [(5, b"reading-1"), (12345, b""), (Scalar.ORDER - 2, b"x" * 64)]:
        sig = sign(Scalar(sk), msg)
        lines.append(f"sig {sk:x}:{msg.hex()} {sig.to_bytes().hex()}")
    literal = SigmaProof(g1 ** 2, g1 ** 3, g1 ** 4)
    lines.append(f"literalproof 2:3:4 {literal.to_bytes().hex()}")
    auth = CorrectedAuthProof(
        commit_sk=g2 ** 6, commit_puf=g1 ** 7, challenge=Scalar(8),
        resp_sk=Scalar(9), resp_puf=Scalar(10), session_nonce=bytes(range(16)),
    )
    lines.append(f"authproof 6:7:8:9:10 {auth.to_bytes().hex()}")
    tx = CorrectedTxProof(
        commit_sk=g2 ** 11, challenge=Scalar(12), resp_sk=Scalar(13),
        tx_nonce=bytes(range(16)),
    )
    lines.append(f"txproof 11:12:13 {tx.to_bytes().hex()}")
    return "\n".join(lines) + "\n"


def crp_vectors() -> str:
    lines = [
        "# arbiter CRPs: <challenge-hex> <response-bit>",
        "# device_seed=42 noise_ratio=0 repetitions=1; challenges from numpy PCG64 seed 7",
    ]
    device = puf_new(42, 0.0)
    challenges = generate_challenges(np.random.default_rng(7), 64)
    responses = puf_respond(device, challenges, 1)
    for ch, bit in zip(challenges, responses):
        lines.append(f"{np.packbits(ch).tobytes().hex()} {int(bit)}")
    return "\n".join(lines) + "\n"


def main() -> None:
    VECTORS.mkdir(exist_ok=True)
    (VECTORS / "pairing_vectors.txt").write_text(pairing_vectors())
    (VECTORS / "puf_crp_vectors.txt").write_text(crp_vectors())
    (VECTORS / "wire_vectors.txt").write_text(wire_vectors())
    print(f"wrote pairing, CRP, and wire vector files under {VECTORS}")


if __name__ == "__main__":
    main()
