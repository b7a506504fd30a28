"""One fresh benchmark process: set up a workload, time it, print the result.

Started by run.py, which pins the BLAS thread pools to one thread and
times set-up from the outside:

  python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

Modes: ``setup`` stops after set-up; ``run`` times ops untraced and prints
end-to-end figures; ``trace`` runs each op twice, untraced and traced in
alternating order, and prints per-layer figures plus the fingerprint of the
first ops.  ``calibrate`` only imports numpy and scipy.optimize, the
third-party part of set-up, and stops.  The line ``READY`` marks the end of
set-up (import, input generation, warm-up); the last line is the JSON
result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# Blocks of consecutive ops; rates are the median over blocks, so a burst
# of machine noise moves one block, not the figure.
BLOCKS = 16


class SpeedProbe:
    """Control variate for the speed of the machine.

    On a shared 2-vCPU Xeon VM the speed of the same single-threaded code
    drifts by up to +-25% within a minute, so raw times of fresh runs spread
    by more than any useful regression bound.  This fixed kernel (tiny numpy
    operations, interpreter arithmetic and 6x6 least squares, the mix epscut
    spends its time on, but no epscut code) is timed between ops.
    ``factor()`` is REF_S over its time: times multiplied by the factor of
    their block read as on a machine where the kernel takes REF_S.  On that
    VM the kernel's speed followed the drift with correlation 0.96-0.98 over
    10 s windows, and scaling cut the spread of iteration rates between
    fresh runs from 12-25% to 2-5%.
    """

    REF_S = 1.5e-3      # kernel time on an idle Intel Xeon 2.1 GHz VM core
    EVERY_S = 0.05      # op time between two readings

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.rows = np.ones((4, 8))
        self.mats = [m @ m.T + np.eye(6) for m in rng.standard_normal((20, 6, 6))]
        self.rhs = np.ones(6)

    def seconds(self) -> float:
        np = self.np
        t0 = perf_counter()
        x = np.linspace(0.0, 1.0, 8)
        acc = 0.0
        for _ in range(100):
            acc += float(np.linalg.norm(self.rows @ x)) + float(np.dot(x, x))
            x = x * 0.999 + 0.001
        count = 0
        for i in range(5000):
            count += i * i % 7
        for m in self.mats:
            acc += float(np.linalg.lstsq(m, self.rhs, rcond=None)[0][0])
        return perf_counter() - t0

    def factor(self, readings) -> float:
        return self.REF_S / statistics.median(readings)


def _import_epscut():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import epscut

    if not os.path.abspath(epscut.__file__).startswith(src + os.sep):
        raise SystemExit(f"epscut imported from {epscut.__file__}, not {src}")
    return epscut


def _provenance() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Runner:
    """Runs ops of one workload and keeps their times and outcomes."""

    def __init__(self, workload):
        from workloads import Outcome

        self.workload = workload
        self.outcome_type = Outcome
        self.errors = []
        self.probe = SpeedProbe()

    def execute(self, stream, index, digest=False, span=None):
        """Prepare, time and check one op; returns (seconds, Outcome)."""
        w = self.workload
        inputs = w.prepare(stream, index)
        try:
            with span(index) if span else contextlib.nullcontext():
                t0 = perf_counter()
                output = w.run(inputs)
                elapsed = perf_counter() - t0
            outcome = w.check(inputs, output, digest)
        except Exception as exc:  # one bad op must not end the run
            elapsed = 0.0
            outcome = self.outcome_type(ok=False, iters=0, solves=0, feasible=0,
                                        error=f"{type(exc).__name__}: {exc}")
        if not outcome.ok and len(self.errors) < 5:
            self.errors.append(f"op {stream}/{index}: {outcome.error}")
        return elapsed, outcome


def _blocks(n):
    count = min(BLOCKS, n)
    return [(k * n // count, (k + 1) * n // count) for k in range(count)]


def _block_rate(numer, seconds):
    """Median over blocks of consecutive ops of sum(numer) / sum(seconds)."""
    rates = []
    for lo, hi in _blocks(len(seconds)):
        spent = sum(seconds[lo:hi])
        if spent > 0.0:
            rates.append(sum(numer[lo:hi]) / spent)
    return statistics.median(rates) if rates else 0.0


def measure(runner, seconds):
    from workloads import TIMED

    probe = runner.probe
    times, outcomes, readings = [], [], []
    since_probe = 0.0
    start = perf_counter()
    index = 0
    while perf_counter() - start < seconds:
        elapsed, outcome = runner.execute(TIMED, index)
        times.append(elapsed)
        outcomes.append(outcome)
        index += 1
        since_probe += elapsed
        if since_probe >= probe.EVERY_S:
            readings.append((index - 1, probe.seconds()))
            since_probe = 0.0
    wall = perf_counter() - start
    n = len(times)
    everywhere = [r for _, r in readings] or [probe.seconds()]
    scaled = []
    for lo, hi in _blocks(n):
        inside = [r for i, r in readings if lo <= i < hi] or everywhere
        factor = probe.factor(inside)
        scaled.extend(t * factor for t in times[lo:hi])
    iters = [o.iters for o in outcomes]
    ms = sorted(1e3 * t for t in scaled)
    solves = sum(o.solves for o in outcomes)
    metrics = {
        "op_ms_p50": statistics.median(ms),
        "iters_per_s": _block_rate(iters, scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Reported, not gated: the raw figures, and those that follow the mix
    # of inputs a seed draws.
    p90 = statistics.quantiles(ms, n=10)[-1] if n >= 2 else ms[-1]
    info = {
        "ops": n,
        "wall_s": wall,
        "speed_factor": probe.factor(everywhere),
        "speed_readings": len(readings),
        "raw_op_ms_p50": 1e3 * statistics.median(times),
        "raw_iters_per_s": _block_rate(iters, times),
        "ops_per_s": _block_rate([1] * n, scaled),
        "op_ms_p90": p90 if n >= 100 else None,
        "op_ms_p90_samples_beyond": sum(v > p90 for v in ms),
        "iters_per_solve": sum(iters) / solves if solves else None,
        "feasible_frac": sum(o.feasible for o in outcomes) / solves if solves else None,
        "failed_frac": sum(not o.ok for o in outcomes) / max(n, 1),
    }
    return metrics, info, outcomes


def trace(runner, seconds, out_path):
    from tracing import Tracer, fingerprint_counts, layer_metrics
    from workloads import TIMED

    tracer = Tracer()
    first = runner.workload.fingerprint_ops
    outcomes, digests = [], []
    plain = traced = 0.0
    start = perf_counter()
    index = 0
    while index < first or perf_counter() - start < seconds:
        # Alternate which twin runs first so neither always gets warm caches.
        for is_traced in ((False, True) if index % 2 == 0 else (True, False)):
            if is_traced:
                elapsed, outcome = runner.execute(TIMED, index, index < first,
                                                  span=tracer.op_span)
                traced += elapsed
                if index < first:
                    digests.extend(outcome.csv_sha256)
            else:
                elapsed, outcome = runner.execute(TIMED, index)
                plain += elapsed
            outcomes.append(outcome)
        index += 1
    table = tracer.table()
    overhead = traced / plain - 1.0 if plain > 0.0 else float("nan")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        names = [m["name"] for m in json.load(handle)["per_layer"]]
    metrics, not_measured = layer_metrics(tracer, table, overhead, names)
    tracer.save(out_path, table)
    root = table["name"] == 0
    listed = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    info = {
        "ops": index,
        "not_measured": not_measured,
        "missing_bindings": tracer.missing,
        "accounting_ms_per_op": {
            "listed_self_plus_harness": listed,
            "traced_op": 1e3 * float(table["dur"][root].sum()) / max(index, 1),
            "untraced_op": 1e3 * plain / max(index, 1),
        },
        "fingerprint": dict(fingerprint_counts(tracer, table, first),
                            csv_sha256=digests),
        "spans_file": os.path.relpath(out_path, ROOT),
        "spans": int(table["dur"].size),
    }
    return metrics, info, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("calibrate", "setup", "run", "trace"),
                        required=True)
    args = parser.parse_args(argv)

    if args.mode == "calibrate":
        import numpy  # noqa: F401
        import scipy.optimize  # noqa: F401

        print("READY", flush=True)
        return 0
    _import_epscut()
    from workloads import WARMUP, WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    try:
        runner = Runner(workload)
        warm = [runner.execute(WARMUP, j)[1] for j in range(workload.warmup_ops)]
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        for _ in range(3):
            runner.probe.seconds()
        if args.mode == "run":
            metrics, info, outcomes = measure(runner, args.seconds)
        else:
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
            metrics, info, outcomes = trace(runner, args.seconds, spans)
    finally:
        workload.close()
    checked = warm + outcomes
    result = {
        "attempted": len(checked),
        "failed": sum(not o.ok for o in checked),
        "errors": runner.errors,
        "metrics": metrics,
        "info": info,
        "provenance": _provenance(),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
