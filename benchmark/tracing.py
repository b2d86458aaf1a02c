"""Spans around the library's layer functions, for the traced run.

Each traced function is replaced at the site its caller looks it up
(a module attribute or a class attribute), so the library itself is
never edited.  A span records its name, start, end, parent span and the
id of the workload op it belongs to.  Spans stay in memory while the
run lasts and are written out once it ends.

A layer's self time is its span's duration minus its children's; the
children of one span never overlap because the library is
single-threaded.  Layers are named after the modules.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

ROOT = "op"

LAYERS = ("pairing", "zkp", "puf", "wire", "ledger", "identity", "protocol")


def per_layer_metrics():
    """Every metric the traced run reports, as (name, unit, better)."""
    out = []
    for base in _sites():
        out += [(f"{base}.calls", "calls/op", "lower"),
                (f"{base}.ms", "ms/op", "lower"),
                (f"{base}.self_ms", "ms/op", "lower")]
        if base == "pairing.miller_loop":
            out.append((f"{base}.pairs", "pairs/op", "lower"))
        elif base == "ledger.invoke":
            out.append((f"{base}.rejected", "calls/op", "lower"))
    out += [(f"{layer}.self_ms", "ms/op", "lower") for layer in LAYERS]
    out += [
        ("pairing.decode_cache.hit_ratio", "ratio", "higher"),
        ("pairing.line_cache.hit_ratio", "ratio", "higher"),
        ("ledger.state_digest.growth", "ratio", "lower"),
        ("zkp.growth", "ratio", "lower"),
        ("ledger.state_keys", "count", "higher"),
        ("ledger.state_mb", "MiB", "higher"),
        ("ledger.height", "blocks", "higher"),
        ("trace.op_ms", "ms", "lower"),
        ("trace.uncovered_share", "ratio", "lower"),
        ("trace.untraced_ops_per_s", "ops/s", "higher"),
        ("trace.traced_ops_per_s", "ops/s", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return out


def _sites():
    """Metric base name ("<layer>.<function>") -> [(owner, attribute)]
    for each traced function, in report order: every place a caller on
    the benchmarked paths looks the function up."""
    from pufzk import identity, ledger, protocol, zkp
    from pufzk.pairing import curve, group

    return {
        "pairing.miller_loop": [(group, "_miller_loop")],
        "pairing.final_exponentiation": [(group, "_final_exp")],
        "pairing.precompute_g2_lines": [(group, "_precompute_g2_lines")],
        # group's decode caches call these only on a miss
        "pairing.g1_from_bytes": [(group, "g1_from_bytes")],
        "pairing.g2_from_bytes": [(group, "g2_from_bytes")],
        "pairing.g1_in_subgroup": [(curve, "g1_in_subgroup")],
        "pairing.g2_in_subgroup": [(curve, "g2_in_subgroup")],
        "pairing.g1_mul": [(group, "g1_mul")],
        "pairing.g2_mul": [(group, "g2_mul")],
        "pairing.g1_mul_gen": [(group, "g1_mul_gen")],
        "pairing.g2_mul_gen": [(group, "g2_mul_gen")],
        "pairing.hash_to_g1": [(zkp, "hash_to_g1")],
        "zkp.auth_prove_corrected": [(zkp, "auth_prove_corrected")],
        "zkp.auth_verify_corrected": [(zkp, "auth_verify_corrected")],
        "zkp.tx_prove_corrected": [(zkp, "tx_prove_corrected")],
        "zkp.tx_verify_corrected": [(zkp, "tx_verify_corrected")],
        "zkp.sign": [(zkp, "sign"), (identity, "sign")],
        "zkp.verify_sig": [(zkp, "verify_sig"), (identity, "verify_sig")],
        "puf.generate_stable_challenges": [(identity, "generate_stable_challenges")],
        "puf.puf_respond": [(identity, "puf_respond"), (protocol, "puf_respond")],
        "wire.decode_message": [(protocol, "decode_message")],
        "ledger.invoke": [(ledger.Ledger, "invoke")],
        "ledger.state_digest": [(ledger.Ledger, "state_digest")],
        "identity.register_device": [(protocol, "register_device")],
        "identity.CertificateAuthority.issue": [(identity.CertificateAuthority, "issue")],
        "protocol.Device.build_auth_proof": [(protocol.Device, "build_auth_proof")],
        "protocol.Verifier.handle_auth_request": [(protocol.Verifier, "handle_auth_request")],
        "protocol.Device.build_tx_submit": [(protocol.Device, "build_tx_submit")],
        "protocol.Verifier.handle_tx_submit": [(protocol.Verifier, "handle_tx_submit")],
        "protocol.rotate_challenges": [(protocol, "rotate_challenges")],
    }


@contextmanager
def patched(replacements):
    """Install (owner, attribute, new value) replacements, restoring
    whatever each attribute held before on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _decode_lookups():
    from pufzk.pairing import group
    return sum(
        info.hits + info.misses
        for info in (group._g1_decode_cached.cache_info(), group._g2_decode_cached.cache_info())
    )


class Tracer:
    """Collects spans for the ops run under :meth:`op`.

    A span is ``[op_id, parent_index, name, start_ns, end_ns]``; the
    parent index points into :attr:`spans` (-1 for an op's root).
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op_id = -1
        self.pairs = 0
        self.rejected = 0
        self.decode_lookups = 0
        self._replacements = []
        for name, owner_attrs in _sites().items():
            for owner, attr in owner_attrs:
                wrapper = self._wrap(name, owner.__dict__[attr])
                self._replacements.append((owner, attr, wrapper))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        if name == "pairing.miller_loop":
            def count(args, result):
                self.pairs += len(args[0])
        elif name == "ledger.invoke":
            def count(args, result):
                self.rejected += not result
        else:
            count = None

        def traced(*args, **kwargs):
            span = [self._op_id, stack[-1], name, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def op(self, op_id):
        """Trace one workload op: a root span with every traced call
        made inside it as a descendant."""
        self._op_id = op_id
        lookups = _decode_lookups()
        root = [op_id, -1, ROOT, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        with patched(self._replacements):
            root[3] = time.perf_counter_ns()
            try:
                yield
            finally:
                root[4] = time.perf_counter_ns()
                self._stack.pop()
        self.decode_lookups += _decode_lookups() - lookups

    def write(self, path):
        """Write every span as one JSON list per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["op", "parent", "name", "start_ns", "end_ns"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def report(self, untraced_ops_per_s):
        """Per-op layer metrics over the traced ops, as name -> value
        (units come from :func:`per_layer_metrics`)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for op_id, parent, name, t0, t1 in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls, total, self_ns = {}, {}, {}
        roots = []
        per_op = {}
        for i, (op_id, parent, name, t0, t1) in enumerate(spans):
            if name == ROOT:
                roots.append(i)
                continue
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + dur
            self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i]
            if name == "ledger.state_digest" or name.startswith("zkp."):
                key = (op_id, name == "ledger.state_digest")
                per_op[key] = per_op.get(key, 0) + dur
        n = len(roots)
        if n == 0:
            raise ValueError("no traced ops to report")
        op_ns = sum(spans[i][4] - spans[i][3] for i in roots)
        uncovered_ns = sum(spans[i][4] - spans[i][3] - child_ns[i] for i in roots)

        out = {}
        layer_self = dict.fromkeys(LAYERS, 0)
        for base in _sites():
            out[f"{base}.calls"] = calls.get(base, 0) / n
            out[f"{base}.ms"] = total.get(base, 0) / n / 1e6
            out[f"{base}.self_ms"] = self_ns.get(base, 0) / n / 1e6
            layer_self[base.split(".")[0]] += self_ns.get(base, 0)
        out["pairing.miller_loop.pairs"] = self.pairs / n
        out["ledger.invoke.rejected"] = self.rejected / n
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = layer_self[layer] / n / 1e6
        uncached = calls.get("pairing.g1_from_bytes", 0) + calls.get("pairing.g2_from_bytes", 0)
        out["pairing.decode_cache.hit_ratio"] = 1 - uncached / max(self.decode_lookups, 1)
        out["pairing.line_cache.hit_ratio"] = (
            1 - calls.get("pairing.precompute_g2_lines", 0) / max(self.pairs, 1))
        op_ids = [spans[i][0] for i in roots]
        out["ledger.state_digest.growth"] = _growth(op_ids, per_op, True)
        out["zkp.growth"] = _growth(op_ids, per_op, False)
        out["trace.op_ms"] = op_ns / n / 1e6
        out["trace.uncovered_share"] = uncovered_ns / op_ns
        traced_ops_per_s = n / (op_ns / 1e9)
        out["trace.untraced_ops_per_s"] = untraced_ops_per_s
        out["trace.traced_ops_per_s"] = traced_ops_per_s
        out["trace.overhead"] = untraced_ops_per_s / traced_ops_per_s
        return out


def _growth(op_ids, per_op, digest):
    """Mean per-op time in the last quarter of the traced ops divided
    by that in the first quarter."""
    quarter = max(len(op_ids) // 4, 1)
    first = sum(per_op.get((i, digest), 0) for i in op_ids[:quarter])
    last = sum(per_op.get((i, digest), 0) for i in op_ids[-quarter:])
    return last / first if first else 0.0
