"""epscut benchmark: one workload, one seed, one JSON line of metrics.

  python3 perfbench/run.py --workload ball_diagnose --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; epscut is imported from ./src.
Each call starts fresh single-threaded worker processes (perfbench/worker.py)
with OPENBLAS/OMP/MKL_NUM_THREADS=1:

* ``--trace 0``: SETUP_PAIRS pairs of a calibration worker (a fresh
  process that imports numpy and scipy.optimize and stops) and a worker
  that sets up; the last of these also times ops for ``--seconds``.
  ``setup_s`` is CALIBRATION_REF_S times the median, over the pairs, of
  the set-up time over the calibration time, each measured from process
  start to ``READY``.  Op times are scaled by the worker's speed probe
  (see worker.SpeedProbe).
* ``--trace 1``: one worker that runs every op untraced and traced and
  reports the per-layer metrics, the tracing overhead and the fingerprint
  (exact work counts and trace-CSV digests of the first ops of the seed).

Every op's output is checked.  Human-readable lines come first; the last
line of stdout is {"correct", "attempted", "failed", "metrics"} with exactly
the metrics BENCHMARK.json declares for the mode.  Everything is also
written to .perfbench_out/result-<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PAIRS = 6
# Nominal time of the calibration worker: ``setup_s`` reads as on a machine
# where importing numpy and scipy.optimize in a fresh process takes 0.5 s.
CALIBRATION_REF_S = 0.5
DEADLINE_S = 170.0
SINGLE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def git_sha(root: str) -> str:
    """HEAD commit of the checkout at ``root``; 'none' if it is no git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or not os.path.samefile(lines[0], root):
        return "none"
    return lines[1]


def spawn(args, mode: str, deadline: float):
    """Run one worker; returns (seconds to READY, lines printed after it)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode]
    env = dict(os.environ, **SINGLE_THREAD)
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("time budget exhausted before the worker started")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"{mode} worker exited with {code} before finishing")
    return setup, rest.strip().splitlines()


def declared(root: str, trace: bool) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    group = spec["per_layer" if trace else "end_to_end"]
    return spec, {m["name"]: m["unit"] for m in group}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    try:
        spec, units = declared(ROOT, bool(args.trace))
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.seed < 0 or not args.seconds > 0:
            raise BenchError("--seed must be >= 0 and --seconds > 0")
        if not os.path.isfile(os.path.join(ROOT, "src", "epscut", "__init__.py")):
            raise BenchError("no epscut sources under ./src; run from a source checkout")

        setups = []     # (set-up seconds, calibration seconds) of each pair
        if args.trace:
            _, lines = spawn(args, "trace", deadline)
        else:
            for pair in range(SETUP_PAIRS):
                calibration, _ = spawn(args, "calibrate", deadline)
                mode = "run" if pair == SETUP_PAIRS - 1 else "setup"
                setup, lines = spawn(args, mode, deadline)
                setups.append((setup, calibration))
        if not lines:
            raise BenchError("worker printed no result")
        result = json.loads(lines[-1])
        if setups:
            result["metrics"]["setup_s"] = CALIBRATION_REF_S * statistics.median(
                s / c for s, c in setups)
            result["info"]["raw_setup_s"] = statistics.median(s for s, _ in setups)
            result["info"]["calibration_s"] = statistics.median(c for _, c in setups)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = result["metrics"]
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} differ "
              "from BENCHMARK.json", file=sys.stderr)
        return 2
    failed = result["failed"]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "setup_and_calibration_s": setups,
        **result,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as handle:
        json.dump(summary, handle, indent=2)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} sha={summary['git_sha'][:12]}")
    print("provenance " + json.dumps(result["provenance"]))
    for name in units:
        print(f"  {name:58s} {metrics[name]:14.6g} {units[name]}")
    info = dict(result["info"])
    if "fingerprint" in info:
        fp = dict(info.pop("fingerprint"))
        digests = fp.pop("csv_sha256")
        fp["csv_files"] = len(digests)
        fp["csv_sha256_of_all"] = hashlib.sha256("".join(digests).encode()).hexdigest()
        print("fingerprint " + json.dumps(fp))
    print("info " + json.dumps(info))
    for error in result["errors"]:
        print(f"FAILED {error}")
    print(f"details in {os.path.relpath(out, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
