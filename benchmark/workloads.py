"""The benchmark's workloads, driven through the public protocol API.

Every op goes through ``Device.enroll``, ``run_authentication`` and
``run_transaction`` in corrected mode, the only mode with security
claims.  All inputs (device seeds, device choices, payload bytes) and
the randomness handed to the library derive from the workload seed, so
the same seed and op count give a byte-identical ledger.

Load is a closed loop with one client: the next op starts when the
previous one has returned.

``BENCHMARK.json`` lists ``onboard`` and ``bulk``.  ``fleet`` runs by
hand (``--workload fleet``): its set-up (160 devices enrolled and
authenticated) takes about 20 s, and a run that sets up twice, as
``setup_s`` needs, does not fit the benchmark's time limit beside the
other two workloads.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

import numpy as np

from pufzk import zkp
from pufzk.identity import CertificateAuthority, RegistrationError
from pufzk.ledger import Ledger, bootstrap, ledger_new
from pufzk.params import DEFAULT_PARAMS
from pufzk.protocol import Device, Verifier, run_authentication, run_transaction
from pufzk.puf import puf_new

from tracing import patched

MODE = zkp.MODE_CORRECTED
PARAMS = DEFAULT_PARAMS
TX_BYTES = 32

WORKLOADS = ("onboard", "fleet", "bulk")
# At the default noise an honest authentication is now and then
# rejected: a PUF response flips.  A device retries a rejected
# authentication, as one in the field would, up to AUTH_ATTEMPTS
# attempts in all.  About one new device in 800 fails nearly every
# attempt: screening kept a challenge whose margin is below the noise,
# and enrollment stored its minority response.  Such a device cannot be
# enrolled again (the ledger refuses a second registration of its PUF
# fingerprint), so an operator sets it aside and onboards a replacement,
# up to DEVICE_ATTEMPTS devices in all.  Every rejected attempt counts
# in fail_ratio, and every replacement is printed.
AUTH_ATTEMPTS = 3
DEVICE_ATTEMPTS = 2

# The host-speed probe: a fixed piece of pure-Python big-int arithmetic
# on 381-bit numbers, like the library's field arithmetic, timed before
# every op.  On a shared host the neighbours' load changes the speed of
# both by about the same factor, from one second to the next, so each
# op's times are scaled by PROBE_REF_S over the mean of the
# PROBE_WINDOW probes timed nearest it: "ref_ms" is a millisecond at the
# speed the probe has on the reference host (2 vCPUs, Python 3.11).  In
# eight onboard and six bulk runs this cut the run-to-run spread (q3 - q1
# over the median) of the median op latency from 0.18 and 0.10 to 0.03
# and 0.01.
PROBE_MODULUS = 2**381 - 2**100 + 7
PROBE_REF_S = 1.8e-3
PROBE_WINDOW = 4


@dataclass(frozen=True)
class Scale:
    """Sizes of a workload; :data:`FULL` is the benchmark's own."""

    fleet_devices: int = 160
    bulk_devices: int = 4
    warmup_ops: int = 2
    bulk_bytes: int = 64 * 1024


FULL = Scale()

# Stage names and the protocol method each one times, inside
# run_authentication / run_transaction.
STAGE_METHODS = {
    "auth_prove": (Device, "build_auth_proof"),
    "auth_verify": (Verifier, "handle_auth_request"),
    "tx_build": (Device, "build_tx_submit"),
    "tx_commit": (Verifier, "handle_tx_submit"),
}
DEVICE_STAGES = ("auth_prove", "tx_build")


class OpRecord:
    """Wall-clock stage timings (seconds) of one op."""

    __slots__ = ("stages", "accepted", "probe_s")

    def __init__(self):
        self.stages = {}
        self.accepted = True
        self.probe_s = 0.0

    def add(self, stage, seconds):
        self.stages.setdefault(stage, []).append(seconds)


class Bench:
    """One workload instance: its set-up state and its op."""

    def __init__(self, workload: str, seed: int, scale: Scale = FULL):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.scale = scale
        # Randomness the library consumes (keys, nonces, PUF noise) and
        # the benchmark's own input choices come from separate streams.
        self.rng = random.Random(f"pufzk-bench/{workload}/{seed}/protocol")
        self.np_rng = np.random.default_rng([seed, len(workload)])
        self.inputs = random.Random(f"pufzk-bench/{workload}/{seed}/inputs")
        self.devices = []
        self.sent = {}          # device id -> payloads committed, in order
        self.record = None      # OpRecord of the op in flight
        self.ops_done = 0
        self.exchanges = 0      # honest exchanges attempted (auth attempts, tx submits)
        self.rejected = 0       # ... and not accepted
        self.replaced = 0       # new devices set aside after failing first contact
        self.setup_counts = (0, 0, 0)  # (exchanges, rejected, replaced) in set-up

    # -- set-up ------------------------------------------------------------

    def set_up(self) -> None:
        """Everything before the first timed op, warm-up ops included."""
        setup = zkp.trust_setup(self.rng)
        self.ca = CertificateAuthority(self.rng)
        self.ledger: Ledger = ledger_new()
        if not bootstrap(self.ledger, setup.pk_setup, self.ca.pk):
            raise RuntimeError("bootstrap rejected")
        self.verifier = Verifier(self.ledger, self.rng)
        if self.workload != "onboard":
            # Every device has authenticated once, so the timed phase
            # sees devices in service, whose keys the verifier has
            # decoded before, not a fleet's first contact.
            fleet = self.workload == "fleet"
            count = self.scale.fleet_devices if fleet else self.scale.bulk_devices
            self.devices = [self._onboard() for _ in range(count)]
            if None in self.devices:
                raise RuntimeError("set-up: a device failed to onboard on every attempt")
        for _ in range(self.scale.warmup_ops):
            self.run_op()
        self.setup_counts = (self.exchanges, self.rejected, self.replaced)
        self.exchanges = self.rejected = self.replaced = 0
        self.ops_done = 0

    def _onboard(self, rec=None):
        """Enroll a new device and authenticate it, replacing it when
        its first authentication fails on every attempt.  Returns the
        device, or None when no device authenticated."""
        clock = time.perf_counter
        for attempt in range(DEVICE_ATTEMPTS):
            self.replaced += attempt > 0
            puf = puf_new(self.inputs.getrandbits(63), PARAMS.noise_ratio)
            t0 = clock()
            try:
                device = Device.enroll(puf, self.ca, self.ledger, self.rng, self.np_rng, PARAMS)
            except RegistrationError:
                return None
            t1 = clock()
            ok = self._authenticate(device)
            if rec is not None:
                rec.add("enroll", t1 - t0)
                rec.add("auth", clock() - t1)
            if ok:
                return device
        return None

    def _authenticate(self, device) -> bool:
        """Authenticate ``device``, retrying a rejected attempt up to
        :data:`AUTH_ATTEMPTS` attempts in all."""
        for _ in range(AUTH_ATTEMPTS):
            self.exchanges += 1
            session = run_authentication(device, self.verifier, self.ledger, MODE,
                                         self.rng, self.np_rng)
            if session.accepted:
                return True
            self.rejected += 1
        return False

    def _transact(self, device, payload) -> bool:
        self.exchanges += 1
        session = run_transaction(device, self.verifier, self.ledger, payload, MODE, self.rng)
        if not session.accepted:
            self.rejected += 1
            return False
        self.sent.setdefault(device.device_id, []).append(payload)
        return True

    # -- one op ------------------------------------------------------------

    def run_op(self) -> bool:
        """Run the workload's op; True when every exchange was accepted."""
        rec = self.record
        clock = time.perf_counter
        ok = True
        if self.workload == "onboard":
            ok = self._onboard(rec) is not None
        elif self.workload == "fleet":
            device = self.devices[self.inputs.randrange(len(self.devices))]
            payloads = [self.inputs.randbytes(TX_BYTES) for _ in range(2)]
            t0 = clock()
            ok = self._authenticate(device)
            t1 = clock()
            if rec is not None:
                rec.add("auth", t1 - t0)
            for payload in payloads:
                t1 = clock()
                ok = self._transact(device, payload) and ok
                if rec is not None:
                    rec.add("tx", clock() - t1)
        else:
            device = self.devices[self.ops_done % len(self.devices)]
            payload = self.inputs.randbytes(self.scale.bulk_bytes)
            t0 = clock()
            ok = self._transact(device, payload)
            if rec is not None:
                rec.add("tx", clock() - t0)
        self.ops_done += 1
        return ok

    def stage_timers(self):
        """Replacements that time the protocol stages into the op's
        record; install with :func:`tracing.patched`."""
        out = []
        for stage, (owner, attr) in STAGE_METHODS.items():
            out.append((owner, attr, self._timed(stage, owner.__dict__[attr])))
        return out

    def _timed(self, stage, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if self.record is not None:
                    self.record.add(stage, time.perf_counter() - t0)
        return timed

    # -- checks --------------------------------------------------------------

    def check(self) -> dict:
        """Correctness checks on the final ledger (never timed)."""
        ledger = self.ledger
        replay = Ledger.replay_log(ledger.export_log())
        stored = all(
            ledger.get_state(f"dataseq/{dev.hex()}") == len(payloads).to_bytes(8, "big")
            and ledger.get_state(f"data/{dev.hex()}/{len(payloads) - 1}") == payloads[-1]
            for dev, payloads in self.sent.items()
        )
        return {
            "chain_valid": ledger.verify_chain(),
            "replay_state_matches": replay.state_digest() == ledger.state_digest(),
            "replay_head_matches": replay.head_digest() == ledger.head_digest(),
            "payloads_stored": stored,
        }

    def ledger_gauges(self) -> dict:
        # The ledger has no public way to list its state.
        state = self.ledger._state
        return {
            "ledger.state_keys": len(state),
            "ledger.state_mb": sum(len(k) + len(v) for k, (v, _) in state.items()) / 2**20,
            "ledger.height": self.ledger.height,
        }


def probe() -> float:
    """Seconds the host-speed probe takes now."""
    t0 = time.perf_counter()
    x = 3
    for _ in range(100):
        x = pow(x, 65537, PROBE_MODULUS)
    return time.perf_counter() - t0


def quantile(values, q):
    """The q-quantile (0 < q < 1) of ``values``, inclusive method."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def timed_phase(bench: Bench, seconds: float, max_ops=None, tracer=None):
    """Run ops in a closed loop until ``seconds`` have passed (or
    ``max_ops`` ops have run).  Without a tracer, stage timers time
    every op.  With one, ops alternate untraced/traced, so both halves
    see the same cache and ledger history, and the untraced ones give
    the base for the tracing overhead.

    Returns (records, elapsed seconds, untraced op seconds)."""
    records = []
    untraced_s = []
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    timers = bench.stage_timers()
    op_id = 0
    while True:
        if max_ops is not None and op_id >= max_ops:
            break
        # two ops at least, so a traced run has a traced and an untraced one
        if max_ops is None and clock() >= deadline and op_id >= 2:
            break
        rec = OpRecord()
        rec.probe_s = probe()
        bench.record = rec
        t0 = clock()
        if tracer is None:
            with patched(timers):
                rec.accepted = bench.run_op()
        elif op_id % 2:
            with tracer.op(op_id):
                rec.accepted = bench.run_op()
        else:
            rec.accepted = bench.run_op()
            untraced_s.append(clock() - t0)
        rec.add("op", clock() - t0)
        bench.record = None
        records.append(rec)
        op_id += 1
    return records, clock() - start, untraced_s


# (metric name, stage, percentiles) of the per-stage report
STAGE_LATENCIES = (
    ("op_ms", "op", (50,)),
    ("enroll_ms", "enroll", (50, 90)),
    ("auth_ms", "auth", (50, 90)),
    ("tx_ms", "tx", (50, 90)),
    ("auth_prove_ms", "auth_prove", (50,)),
    ("auth_verify_ms", "auth_verify", (50,)),
    ("tx_build_ms", "tx_build", (50,)),
    ("tx_commit_ms", "tx_commit", (50,)),
)


def stage_report(records) -> dict:
    """Latency in ms of each protocol stage the workload has, as
    name -> (value, sample count).  A p90 needs 100 samples, so below
    that it is left out."""
    out = {}
    for name, stage, pcts in STAGE_LATENCIES:
        samples = [s * 1e3 for r in records for s in r.stages.get(stage, ())]
        for p in pcts:
            if samples and (p < 90 or len(samples) >= 100):
                out[f"{name}.p{p}"] = (quantile(samples, p / 100), len(samples))
    return out


def host_scales(records) -> list:
    """Per op, the factor that turns its seconds into reference-host
    seconds: :data:`PROBE_REF_S` over the mean of the
    :data:`PROBE_WINDOW` probes nearest it (the one timed just before
    it, the one just after, and their neighbours)."""
    probes = [r.probe_s for r in records]
    last = max(len(probes) - PROBE_WINDOW, 0)
    return [PROBE_REF_S / statistics.fmean(probes[lo:lo + PROBE_WINDOW])
            for lo in (min(max(i - 1, 0), last) for i in range(len(probes)))]


def op_report(records, scales=None) -> dict:
    """The end-to-end metrics that every workload has, with each op's
    times multiplied by its entry in ``scales`` (unscaled without).
    Device and verifier time are means per op: on ``bulk``, where each
    commit costs more than the last, a percentile moves with how many
    ops the run completed, the mean much less."""
    if scales is None:
        scales = [1.0] * len(records)

    def per_op_ms(stages):
        return [sum(sum(r.stages.get(s, ())) for s in stages) * 1e3 * k
                for r, k in zip(records, scales)]

    op_ms = per_op_ms(("op",))
    return {
        "ops_per_s": len(records) / (sum(op_ms) / 1e3),
        "op_ms.p50": quantile(op_ms, 0.5),
        "device_ms.mean": statistics.fmean(per_op_ms(DEVICE_STAGES)),
        "verifier_ms.mean": statistics.fmean(
            per_op_ms([s for s in STAGE_METHODS if s not in DEVICE_STAGES])),
    }
