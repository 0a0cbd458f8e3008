"""One single-threaded benchmark process; started by run.py, never directly.

Untraced, it runs rounds of one workload until another round would, on
average, end more than ``--budget`` seconds after its first timed
operation, checks every round, and prints as one JSON line, per operation,
its time and the median time of the reference kernel during its round.
With ``--setup-only`` it stops just before its first timed operation and
prints only its set-up time.  Traced (``--trace 1``), it runs a fixed
number of rounds, each once with the tracer installed and once without,
checks that both give identical outputs, and prints the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time

import numpy as np

from tracer import Tracer
from workloads import ROUNDS, TRACE_ROUNDS, OpFailed, Recorder, SetupDone

# Load from other tenants of a shared host slows a pure-Python loop by up
# to 2x, in spells from milliseconds to minutes, so each operation's time is
# divided by the time of a fixed reference kernel sampled during its round,
# every REFERENCE_INTERVAL_S.
REFERENCE_INTERVAL_S = 0.03


def _run_round(rec, workload, seed, index, first):
    try:
        ROUNDS[workload](rec, seed, index, first)
    except OpFailed:
        pass


def _thread_count():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 1


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def setup_only(workload, seed, spawned_at):
    rec = Recorder(setup_only=True)
    try:
        _run_round(rec, workload, seed, 0, True)
    except SetupDone:
        pass
    return {"setup_s": rec.first_op_at - spawned_at, "maxrss_kb": _maxrss_kb(),
            "records": [], "rounds": 0, "attempted": 0, "failed": 0, "failures": []}


def _reference_kernel():
    """Fixed work shaped like the package's hot loop, the determinant
    elimination modulo a prime power: column pivot search, row swap and
    rank-one update of a 64 x 64 int64 matrix modulo 5^8, in numpy.  It
    calls no padiclat code, so no change to the package moves its time;
    only the machine does."""
    mod = 5 ** 8
    n = 64
    a = (np.arange(n * n, dtype=np.int64).reshape(n, n) * 7919 + 13) % mod
    for k in range(n - 1):
        nz = a[k:, k] % 5 != 0
        if not nz.any():
            continue
        piv = k + int(np.argmax(nz))
        if piv != k:
            a[[k, piv], :] = a[[piv, k], :]
        inv = pow(int(a[k, k]), -1, mod)
        f = a[k + 1:, k] * inv % mod
        a[k + 1:, k + 1:] = (a[k + 1:, k + 1:] - np.outer(f, a[k, k + 1:])) % mod
    return a


class Reference:
    """Samples the reference kernel every ``REFERENCE_INTERVAL_S`` of a round
    from an interval timer, in the round's own thread, and keeps the time it
    takes apart: ``clock`` is ``time.perf_counter`` less that time, so an
    operation the kernel interrupts is timed without it."""

    def __init__(self):
        self.samples = []
        self._taken = 0.0

    def clock(self):
        return time.perf_counter() - self._taken

    def sample(self, *_):
        t0 = time.perf_counter()
        _reference_kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self._taken += dt

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _checked_round(workload, seed, index, first):
    """One checked round; returns its Recorder and the median time of the
    reference kernel during the round."""
    with Reference() as ref:
        rec = Recorder(clock=ref.clock)
        _run_round(rec, workload, seed, index, first)
    rec.run_checks()
    if not ref.samples:
        # a round shorter than one interval: sample once after it
        ref.sample()
    return rec, statistics.median(ref.samples)


def measure(workload, seed, budget, spawned_at):
    records = []    # [kind, shape, round, count, seconds, reference seconds]
    attempted = failed = 0
    failures = []
    first_op_at = None
    index = 0
    while True:
        rec, ref = _checked_round(workload, seed, index, index == 0)
        first_op_at = first_op_at or rec.first_op_at
        attempted += rec.attempted
        failed += rec.failed
        failures += rec.failures
        records += ([kind, shape, index, count, seconds, ref]
                    for kind, shape, seconds, count in rec.records)
        index += 1
        elapsed = time.monotonic() - first_op_at
        # stop before a round that would, on average, end past the budget
        if elapsed + elapsed / index > budget:
            break
    return {
        "setup_s": first_op_at - spawned_at,
        "maxrss_kb": _maxrss_kb(),
        "rounds": index,
        "records": records,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def trace(workload, seed, spans_path):
    tracer = Tracer()
    wall = {True: 0.0, False: 0.0}
    attempted = failed = 0
    failures = []
    for index in range(TRACE_ROUNDS[workload]):
        outputs = {}
        # alternate which side runs first so warm-up does not favour one
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            rec = Recorder()
            t0 = time.perf_counter()
            with tracer.installed() if traced else contextlib.nullcontext():
                _run_round(rec, workload, seed, index, index == 0)
            wall[traced] += time.perf_counter() - t0
            rec.run_checks()
            outputs[traced] = rec.outputs
            attempted += rec.attempted
            failed += rec.failed
            failures += rec.failures
        if outputs[True] != outputs[False]:
            failed += 1
            failures.append(f"round {index}: traced outputs differ from untraced outputs")
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = wall[True] / wall[False]
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.dump(spans_path)
    return {
        "per_layer": metrics,
        "binding_sites": tracer.sites,
        "missing": tracer.missing,
        "spans": len(tracer.span_layer),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(ROUNDS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the launcher just before it started this process")
    ap.add_argument("--spans", default="")
    args = ap.parse_args()
    if args.trace:
        out = trace(args.workload, args.seed, args.spans)
    elif args.setup_only:
        out = setup_only(args.workload, args.seed, args.spawned_at)
    else:
        out = measure(args.workload, args.seed, args.budget, args.spawned_at)
    threads = _thread_count()
    if threads > 1:
        out["failed"] += 1
        out["failures"].append(f"worker ran {threads} threads, expected 1")
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
