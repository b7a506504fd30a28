"""Golden corpus: every serialized byte of a fixed set of seeded runs.

The digest below is the SHA-256 of ``trace_to_csv(t) + trace_to_json(t)``
over all traces of the corpus, in order. It pins the exact floating-point
behaviour of the oracle, cut assembly and projection path for this
numpy/BLAS build. A refactor that is meant to keep behaviour must keep the
digest; any change to it must be explained in CHANGES.md together with the
largest deviation it causes (ROADMAP aim 2).
"""

import hashlib

import numpy as np

from epscut import (
    BallBody,
    BallProblem,
    EpsilonSchedule,
    HalfspaceBody,
    MaxAffineProblem,
    MaxQuadraticsProblem,
    ShiftedBallProblem,
    SipDistanceProblem,
    SolveOptions,
    nonconvex_default_boundary,
    nonconvex_default_problem,
    solve,
    solve_multistart,
    trace_to_csv,
    trace_to_json,
)

CORPUS_SHA256 = "a4656b8322434bf7bab8d28df8c61e282f949f8eeab6256e3255976de0b1d463"

BALL = BallProblem([0.0, 0.0], 1.0)
OPPOSING = MaxAffineProblem([[1.0], [-1.0]], [1.0, 1.0], activity_tol=0.0)


def _harmonic(**kwargs) -> SolveOptions:
    return SolveOptions(schedule=EpsilonSchedule.harmonic(0.1, 1.0), **kwargs)


def _max_affine(seed: int, n: int, k: int) -> tuple[MaxAffineProblem, np.ndarray]:
    rng = np.random.default_rng(seed)
    coefs = rng.standard_normal((k, n))
    intercepts = -rng.uniform(0.5, 1.5, k)
    problem = MaxAffineProblem(coefs, intercepts, activity_tol=100.0)
    return problem, 5.0 * rng.standard_normal(n)


def _max_quadratics(seed: int) -> tuple[MaxQuadraticsProblem, np.ndarray]:
    rng = np.random.default_rng(seed)
    n = 5
    pieces = []
    for j in range(4):
        quad = rng.standard_normal((n, n))
        # Two convex pieces, two indefinite ones; all non-diagonal.
        if j < 2:
            quad = quad @ quad.T / n
        pieces.append((quad, rng.standard_normal(n), -float(rng.uniform(1.0, 3.0))))
    return MaxQuadraticsProblem(pieces, activity_tol=0.5), 2.0 * rng.standard_normal(n)


def _sip_distance() -> SipDistanceProblem:
    return SipDistanceProblem([
        BallBody([0.0, 0.0, 0.0], 2.0),
        BallBody([1.5, 0.5, -0.5], 1.5),
        HalfspaceBody([1.0, 1.0, 0.0], 0.5),
        HalfspaceBody([0.0, -2.0, 1.0], 1.0),
    ], activity_tol=0.3)


def corpus_traces() -> list:
    traces = [
        solve(BALL, [2.0, 0.0], _harmonic(record_sublevel_distance=True)),
        solve(BALL, [2.5, -1.5],
              SolveOptions(schedule=EpsilonSchedule.constant_for_testing(0.0), max_iter=1000)),
        solve(nonconvex_default_problem(), [2.5, 1.2], _harmonic(j_max=1)),
    ]
    rng = np.random.default_rng(7)
    starts = nonconvex_default_boundary() + rng.uniform(-1.5, 1.5, (20, 2))
    traces += solve_multistart(nonconvex_default_problem(), starts, SolveOptions(max_iter=500))
    for seed, n, k in ((11, 20, 16), (12, 200, 64)):
        problem, x0 = _max_affine(seed, n, k)
        traces.append(solve(problem, x0, SolveOptions(j_max=64, record_sublevel_distance=True)))
    problem, x0 = _max_quadratics(13)
    traces.append(solve(problem, x0, SolveOptions(max_iter=200)))
    traces.append(solve(_sip_distance(), [6.0, -4.0, 5.0], SolveOptions(max_iter=300)))
    for fallback in ("first_cut_only", "fail"):
        traces.append(solve(OPPOSING, [0.0], _harmonic(infeasible_cut_fallback=fallback,
                                                      max_iter=20)))
    traces.append(solve(ShiftedBallProblem(2), [0.0, 0.0], _harmonic()))
    return traces


def corpus_digest() -> str:
    h = hashlib.sha256()
    for trace in corpus_traces():
        h.update((trace_to_csv(trace) + trace_to_json(trace)).encode())
    return h.hexdigest()


def test_corpus_is_byte_identical():
    assert corpus_digest() == CORPUS_SHA256


def test_cells_are_python_numbers():
    # csv and json write a row's cells as they are. A NumPy scalar would
    # come out of csv as 'np.float64(0.1)', and json rejects a NumPy int.
    for trace in corpus_traces():
        for row in trace.rows:
            assert {type(cell) for cell in row} <= {int, float, type(None)}, row
