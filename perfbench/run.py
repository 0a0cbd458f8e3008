"""padiclat benchmark launcher.

    python3 perfbench/run.py --workload recover|lifecycle|oracle|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; padiclat is imported from ``src``.
Each workload runs in processes of its own (``ru_maxrss`` is a lifetime
maximum), one after another, single-threaded.  An untraced run starts one
worker that measures for ``--seconds`` and, three before it and three
after, six that stop at their first timed operation, so set-up is measured
seven times; a traced run starts one worker.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by
name with its unit, per-operation medians with their sample counts, and
any failed check.

Exit status: 0 when every check passed, 1 when a check failed (the result
is still printed), 2 on bad arguments or a checkout without padiclat, 3
when a worker crashed or ran out of time (no result).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("recover", "lifecycle", "oracle")
SETUPS = 7
TIME_LIMIT_S = 170.0
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "op_cost": "ref", "peak_rss_mb": "MB"}

PER_LAYER = (
    "fields.NormEngine.calls", "fields.NormEngine.self_s",
    "fields.coordinates_in.calls", "fields.coordinates_in.self_s",
    "fields.char_poly.calls", "fields.char_poly.self_s",
    "fields.FieldElement.add.calls", "fields.FieldElement.add.self_s",
    "fields.FieldElement.mul.calls", "fields.FieldElement.mul.self_s",
    "lattices.lvp_oracle.calls", "lattices.lvp_oracle.self_s",
    "lattices.cvp_orthogonal.calls", "lattices.cvp_orthogonal.self_s",
    "lattices.complete_orthogonal.self_s",
    "reduction.find_second_longest.self_s", "reduction.orthogonalize.self_s",
    "reduction.abs_count",
    "schemes.keygen.self_s", "schemes.sign.self_s", "schemes.verify.self_s",
    "schemes.encrypt.self_s", "schemes.decrypt.self_s",
    "schemes.hash_to_target.calls", "schemes.hash_to_target.self_s",
    "schemes.in_lattice.calls", "schemes.in_lattice.self_s",
    "attack.recover_uniformizer.self_s", "attack.BrokenKey.from_public.self_s",
    "attack.attack_decrypt.self_s", "attack.forge_signature.self_s",
    "bench.make_instance.self_s",
    "trace.overhead_ratio",
)

class WorkerError(Exception):
    pass


def _unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def _geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _start_worker(workload, seed, deadline, *flags):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("time limit reached before the worker could start")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} worker exceeded the {TIME_LIMIT_S:.0f} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def _measure(workload, seed, seconds, deadline):
    # set-up is sampled before and after the measuring worker, so a spell of
    # load on the machine moves fewer of the samples
    setups = [_start_worker(workload, seed, deadline, "--setup-only")
              for _ in range(SETUPS // 2)]
    worker = _start_worker(workload, seed, deadline, "--budget", repr(float(seconds)))
    setups += [_start_worker(workload, seed, deadline, "--setup-only")
               for _ in range(SETUPS - 1 - SETUPS // 2)]

    rounds = {}
    per_op = {}
    for kind, shape, index, count, seconds, reference in worker["records"]:
        cost = seconds / reference
        per_op.setdefault(kind, []).append(seconds)
        if not count:
            continue
        totals = rounds.setdefault((shape, index), [0.0, 0.0, 0])
        totals[0] += cost
        totals[1] += seconds
        totals[2] += count
    per_shape = {}
    for (shape, _), (cost, seconds, count) in rounds.items():
        per_shape.setdefault(shape, []).append((cost / count, seconds / count))
    if not per_shape:
        for failure in worker["failures"]:
            print(f"  FAILED {failure}", file=sys.stderr)
        raise WorkerError(f"no timed {workload} operation completed")
    metrics = {
        "setup_s": statistics.median(w["setup_s"] for w in setups + [worker]),
        "op_cost": _geomean(statistics.median(c for c, _ in v) for v in per_shape.values()),
        "peak_rss_mb": max(w["maxrss_kb"] for w in setups + [worker]) / 1024.0,
    }
    attempted = worker["attempted"]
    failed = worker["failed"]

    lines = [f"workload {workload}: seed {seed}, {SETUPS} set-ups, {worker['rounds']} rounds, "
             f"{attempted} operations"]
    for name, value in metrics.items():
        lines.append(f"  {name:<26} {value:>14.6g} {END_TO_END[name]}")
    op_ms = 1000.0 * _geomean(statistics.median(s for _, s in v) for v in per_shape.values())
    lines.append(f"  {'op_ms':<26} {op_ms:>14.6g} ms    as op_cost, in milliseconds")
    for kind, samples in per_op.items():
        lines.append(f"  {kind + '_s':<26} {statistics.median(samples):>14.6g} s"
                     f"    median of {len(samples)}")
    lattices = len(per_op.get("lvp_oracle", ()))
    if lattices:
        busy = sum(sum(v) for v in per_op.values())
        lines.append(f"  {'referee_lattices_per_s':<26} {lattices / busy:>14.6g} 1/s"
                     f"    {lattices} lattices")
    lines.append(f"  {'failure_ratio':<26} {failed / max(attempted, 1):>14.6g}"
                 f"    {failed} of {attempted}")
    return metrics, END_TO_END, attempted, failed, lines, worker["failures"]


def _trace(workload, seed, deadline):
    spans = os.path.join(ROOT, ".perfbench-spans", f"{workload}-seed{seed}.json")
    out = _start_worker(workload, seed, deadline, "--trace", "1", "--spans", spans)
    metrics = {name: out["per_layer"].get(name, 0) for name in PER_LAYER}
    units = {name: _unit(name) for name in PER_LAYER}
    lines = [f"workload {workload}: seed {seed}, traced, {out['spans']} spans in {spans}"]
    for name, value in metrics.items():
        lines.append(f"  {name:<38} {value:>14.6g} {units[name]}")
    sites = ", ".join(f"{t} x{n}" for t, n in out["binding_sites"].items())
    lines.append(f"  bindings wrapped: {sites}")
    for target in out["missing"]:
        lines.append(f"  not found, reported as zero: {target}")
    return metrics, units, out["attempted"], out["failed"], lines, out["failures"]


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + TIME_LIMIT_S
    if trace:
        metrics, units, attempted, failed, lines, failures = _trace(workload, seed, deadline)
    else:
        metrics, units, attempted, failed, lines, failures = _measure(workload, seed, seconds, deadline)
    for line in lines:
        print(line)
    for failure in failures:
        print(f"  FAILED {failure}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result), flush=True)
    return result["correct"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "padiclat", "__init__.py")):
        print(f"no padiclat sources under {os.path.join(ROOT, 'src')}; "
              "run from a padiclat checkout", file=sys.stderr)
        return 2
    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            ok = run(workload, args.seed, args.seconds, args.trace) and ok
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
