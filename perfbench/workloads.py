"""The four benchmark workloads: seeded inputs, the timed op, output checks.

Every workload turns (seed, op index) into its inputs with its own
generator, so the same seed always gives the same inputs and epscut only
ever receives arrays and files.  An op calls epscut through module
attributes (``cli.main``, ``solver.solve``, ...) looked up at call time, so
the tracer can rebind those names without touching this file.

Each ``prepare`` runs outside the op timer, ``run`` is the timed op, and
``check`` (again outside the timer) verifies the outputs and returns an
``Outcome``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

import epscut
from epscut import cli, geometry, solver, traceio

# Stream keys for SeedSequence: timed ops and warm-up ops never share inputs.
TIMED = 0
WARMUP = 1
# Warm-up ops draw from this key whatever the seed, so set-up does the same
# work for every seed and ``setup_s`` does not follow a seed's input mix.
WARMUP_SEED = 0

DOCUMENTED_STATUSES = frozenset(epscut.TerminationStatus)


@dataclass
class Outcome:
    """What one op did, as seen by the output checks."""

    ok: bool
    iters: int          # inner iterations: solver steps, or VI sample draws
    solves: int         # solver runs (or VI checks) the op made
    feasible: int       # of those, how many ended feasible / nonempty
    error: str = ""
    csv_sha256: list[str] = field(default_factory=list)  # filled on request


def _key(seed: int, stream: int, index: int) -> list[int]:
    return [WARMUP_SEED if stream == WARMUP else seed, stream, index]


def op_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(_key(seed, stream, index))


def op_int(seed: int, stream: int, index: int) -> int:
    """A 31-bit integer seed handed to epscut for op ``index``."""
    state = np.random.SeedSequence(_key(seed, stream, index) + [1]).generate_state(1)
    return int(state[0] >> 1)


def _check_solve_trace(problem, trace) -> str:
    if trace.status not in DOCUMENTED_STATUSES:
        return f"undocumented status {trace.status!r}"
    value = problem.value(trace.final_x)
    if value != trace.final_f:
        return f"value(final_x)={value!r} != final_f={trace.final_f!r}"
    if trace.status is epscut.TerminationStatus.FEASIBLE_FOUND and not trace.final_f <= 0.0:
        return f"FeasibleFound with final_f={trace.final_f!r}"
    return ""


def _csv_digest(trace) -> str:
    return hashlib.sha256(traceio.trace_to_csv(trace).encode()).hexdigest()


class BallDiagnose:
    """``epscut diagnose`` on the 2-D unit ball, zero shift, 1000 steps.

    The per-iteration-overhead path: every layer shares the time and it is
    the only workload that reaches cli, diagnostics and traceio.
    """

    name = "ball_diagnose"
    warmup_ops = 2
    fingerprint_ops = 8
    EXIT_STATUS = {0: "FeasibleFound", 2: "MaxIterExceeded"}

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.dir = tempfile.mkdtemp(prefix="ball-", dir=out_dir)
        self.problem_path = os.path.join(self.dir, "ball.json")
        with open(self.problem_path, "w") as handle:
            json.dump({"name": "unit-ball", "kind": "ball", "dim": 2,
                       "params": {"center": [0.0, 0.0], "radius": 1.0}}, handle)
        self.csv = os.path.join(self.dir, "trace.csv")
        self.json = os.path.join(self.dir, "trace.json")
        self.report = os.path.join(self.dir, "report.json")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def prepare(self, stream: int, index: int):
        for path in (self.csv, self.json, self.report):
            if os.path.exists(path):
                os.unlink(path)
        return [
            "diagnose", "--problem", self.problem_path,
            "--baseline", "zero_eps", "--max-iter", "1000",
            "--x0-random", f"{op_int(self.seed, stream, index)}:3",
            "--trace-csv", self.csv, "--trace-json", self.json,
            "--report-json", self.report,
        ]

    def run(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        with open(self.csv) as handle:
            text = handle.read()
        return code, text, traceio.parse_trace_csv(text)

    def check(self, argv, result, digest: bool = False) -> Outcome:
        code, text, rows = result
        with open(self.json) as handle:
            doc = json.load(handle)
        iters = doc["status_iteration"]
        out = Outcome(ok=False, iters=iters, solves=1, feasible=int(code == 0))
        if digest:
            out.csv_sha256.append(hashlib.sha256(text.encode()).hexdigest())
        json_rows = [
            (r["i"], r["eps_i"], r["f_xi"], r["J_i"], r["step_norm"],
             r["dist_sublevel"], r["cut_count_active"])
            for r in doc["rows"]
        ]
        csv_rows = [
            (r.i, r.eps_i, r.f_xi, r.j_i, r.step_norm, r.dist_sublevel,
             r.cut_count_active)
            for r in rows
        ]
        has_report = os.path.exists(self.report)
        if code not in (0, 2, 5):
            out.error = f"exit code {code}"
        elif csv_rows != json_rows:
            out.error = "CSV rows differ from JSON rows"
        elif len(rows) != iters + 1:
            out.error = f"{len(rows)} rows for status_iteration {iters}"
        elif code == 5:
            if has_report:
                out.error = "exit 5 wrote a report"
        elif not has_report:
            out.error = f"exit {code} wrote no report"
        else:
            with open(self.report) as handle:
                report = json.load(handle)
            if report["status"] != self.EXIT_STATUS[code] or doc["status"] != report["status"]:
                out.error = f"exit {code} with status {report['status']!r}"
            elif code == 0 and not (report["final_f"] <= 0.0 and rows[-1].f_xi <= 0.0):
                out.error = f"exit 0 with final f {report['final_f']!r}"
            elif code == 2 and iters != 1000:
                out.error = f"exit 2 after {iters} iterations"
        out.ok = not out.error
        return out


class MaxAffineBundle:
    """One ``solve`` on a seeded max-affine instance, n = 200, k = 64.

    The projection-bound path: activity_tol = 100 puts up to ~54 pieces in
    a bundle, so nearly all time is in project_polyhedron.
    """

    name = "maxaffine_bundle"
    warmup_ops = 3
    fingerprint_ops = 16
    N, K = 200, 64

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.opts = epscut.SolveOptions(j_max=64)

    def close(self) -> None:
        pass

    def prepare(self, stream: int, index: int):
        rng = op_rng(self.seed, stream, index)
        coefs = rng.standard_normal((self.K, self.N))
        # Negative intercepts keep the origin strictly feasible.
        intercepts = -rng.uniform(0.5, 1.5, self.K)
        problem = epscut.MaxAffineProblem(coefs, intercepts, activity_tol=100.0)
        x0 = 5.0 * rng.standard_normal(self.N)
        return problem, x0

    def run(self, inputs):
        problem, x0 = inputs
        return solver.solve(problem, x0, self.opts)

    def check(self, inputs, trace, digest: bool = False) -> Outcome:
        problem, _ = inputs
        error = _check_solve_trace(problem, trace)
        feasible = trace.status is epscut.TerminationStatus.FEASIBLE_FOUND
        return Outcome(ok=not error, iters=trace.status_iteration, solves=1,
                       feasible=int(feasible), error=error,
                       csv_sha256=[_csv_digest(trace)] if digest else [])


class NonconvexMultistart:
    """``solve_multistart`` from 20 starts about the parabola-disk corner.

    Many 1-5 step solves: per-call fixed cost and the two-piece quadratic
    oracle dominate; carries the paper's local-success claim.
    """

    name = "nonconvex_multistart"
    warmup_ops = 10
    fingerprint_ops = 16
    STARTS = 20
    RADIUS = 1.5

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.problem = epscut.nonconvex_default_problem()
        self.corner = epscut.nonconvex_default_boundary()
        self.opts = epscut.SolveOptions(max_iter=500)

    def close(self) -> None:
        pass

    def prepare(self, stream: int, index: int):
        rng = op_rng(self.seed, stream, index)
        radius = self.RADIUS * np.sqrt(rng.random(self.STARTS))
        angle = rng.uniform(0.0, 2.0 * math.pi, self.STARTS)
        offsets = np.stack([np.cos(angle), np.sin(angle)], axis=1) * radius[:, None]
        return self.corner + offsets

    def run(self, starts):
        return solver.solve_multistart(self.problem, starts, self.opts)

    def check(self, starts, traces, digest: bool = False) -> Outcome:
        error = "" if len(traces) == len(starts) else f"{len(traces)} traces"
        for trace in traces:
            error = error or _check_solve_trace(self.problem, trace)
        feasible = sum(t.status is epscut.TerminationStatus.FEASIBLE_FOUND for t in traces)
        return Outcome(ok=not error, iters=sum(t.status_iteration for t in traces),
                       solves=len(traces), feasible=feasible, error=error,
                       csv_sha256=[_csv_digest(t) for t in traces] if digest else [])


def projection_instance(rng: np.random.Generator):
    """One polyhedral-projection instance with n <= 5, k <= 6.

    Mixes interior and exterior starts and, for about one instance in ten,
    adds a contradicting pair of halfspaces so empty polyhedra occur too.
    """
    n = int(rng.integers(1, 6))
    force_empty = rng.random() < 0.1
    k = int(rng.integers(1, 5 if force_empty else 7))
    rows = []
    for _ in range(k):
        a = rng.standard_normal(n)
        while np.linalg.norm(a) < 1e-3:
            a = rng.standard_normal(n)
        rows.append(a)
    A = np.array(rows) * (10.0 ** rng.uniform(-1.0, 1.0, size=k))[:, None]
    anchor = rng.standard_normal(n)
    slack = rng.uniform(-0.5, 1.0, size=k)
    b = A @ anchor + slack * np.linalg.norm(A, axis=1)
    if force_empty:
        a = rng.standard_normal(n)
        while np.linalg.norm(a) < 1e-3:
            a = rng.standard_normal(n)
        c = float(rng.standard_normal())
        A = np.vstack([A, a, -a])
        b = np.append(b, [c, -c - 1.0])
    if rng.random() < 0.15:
        x0 = anchor.copy()
    else:
        x0 = anchor + 2.0 * rng.standard_normal(n)
    return x0, A, b


class VerifyBattery:
    """``project_polyhedron`` then ``check_variational_inequality``.

    The only workload reaching the VI checker and the chebyshev_point LP;
    it also uses the kernel at small k and on empty polyhedra.
    """

    name = "verify_battery"
    warmup_ops = 10
    fingerprint_ops = 64
    KKT_TOL = 1e-10
    VI_TOL = 1e-9

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    def close(self) -> None:
        pass

    def prepare(self, stream: int, index: int):
        x0, A, b = projection_instance(op_rng(self.seed, stream, index))
        poly = epscut.CutPolyhedron.from_arrays(A, b)
        return x0, A, b, poly, op_int(self.seed, stream, index)

    def run(self, inputs):
        x0, _, _, poly, vi_seed = inputs
        try:
            result = geometry.project_polyhedron(x0, poly)
        except epscut.InfeasiblePolyhedronError:
            return None, None
        report = geometry.check_variational_inequality(
            x0, result, poly, samples=100, seed=vi_seed)
        return result, report

    def check(self, inputs, output, digest: bool = False) -> Outcome:
        x0, A, b, _, _ = inputs
        result, report = output
        if result is None:
            # Independent witness of emptiness: a feasibility LP.
            lp = linprog(np.zeros(A.shape[1]), A_ub=A, b_ub=b,
                         bounds=[(None, None)] * A.shape[1], method="highs")
            error = "" if lp.status == 2 else "declared empty, LP found a point"
            return Outcome(ok=not error, iters=0, solves=1, feasible=0, error=error)
        error = self._kkt_error(x0, A, b, result)
        if not error and not report.max_normalized_violation <= self.VI_TOL:
            error = f"VI violation {report.max_normalized_violation:.3g}"
        return Outcome(ok=not error, iters=report.n_attempts, solves=1,
                       feasible=1, error=error)

    def _kkt_error(self, x0, A, b, result) -> str:
        lam = np.asarray(result.multipliers, dtype=float)
        active = list(result.active_set)
        if len(active) != lam.size:
            return "active set and multipliers differ in length"
        if np.any(lam < 0.0):
            return "negative multiplier"
        rebuilt = x0 - A[active].T @ lam if active else x0
        scale = 1.0 + float(np.linalg.norm(x0)) + float(np.linalg.norm(result.point))
        if float(np.linalg.norm(result.point - rebuilt)) > 1e-9 * scale:
            return "point != x0 - A^T lambda"
        norms = np.linalg.norm(A, axis=1)
        slack = (A @ result.point - b) / norms
        worst = float(np.max(slack))
        if worst > self.KKT_TOL:
            return f"scaled violation {worst:.3g}"
        # Complementary slackness: a cut with a positive multiplier is tight.
        loose = [j for j, l in zip(active, lam) if l > 0.0
                 and abs(slack[j]) > self.KKT_TOL * scale]
        if loose:
            return f"cut {loose[0]} has lambda > 0 but slack {slack[loose[0]]:.3g}"
        return ""


WORKLOADS = {
    w.name: w
    for w in (BallDiagnose, MaxAffineBundle, NonconvexMultistart, VerifyBattery)
}
