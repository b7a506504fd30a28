"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria covered:
 1. polyhedral projection matches a brute-force active-subset oracle
 2. sampled variational inequality of every projection
 3. finite convergence on the ball instance, matching a 1-D reference
 4. the zero-shift baseline never terminates where the shifted run does
 5. local success rate of multistart runs on the nonconvex instance
 6. recorded sublevel distances decay geometrically until termination
 7. sampled slackened-convexity inequality across the zoo
 8. zero-subgradient and empty-cut error paths, including CLI exit codes
 9. byte-identical reruns and bit-exact CSV round-trips
"""

import json
import time

import numpy as np
import pytest

from epscut import (
    BallProblem,
    CutPolyhedron,
    EpsilonSchedule,
    InfeasiblePolyhedronError,
    MaxAffineProblem,
    ShiftedBallProblem,
    SolveOptions,
    TerminationStatus,
    check_approximate_convexity,
    check_variational_inequality,
    fit_decay_rate,
    nonconvex_default_boundary,
    nonconvex_default_problem,
    parse_trace_csv,
    problem_to_dict,
    project_polyhedron,
    solve,
    solve_multistart,
    trace_to_csv,
)
from epscut.cli import main
from conftest import (
    brute_force_projection,
    radial_ball_reference,
    random_projection_instance,
)

BALL = BallProblem([0.0, 0.0], 1.0)
HARMONIC = EpsilonSchedule.harmonic(0.1, 1.0)


def _report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="module")
def battery():
    rng = np.random.default_rng(7_101_321)
    instances = [random_projection_instance(rng) for _ in range(200)]
    results = []
    start = time.perf_counter()
    for x0, A, b in instances:
        poly = CutPolyhedron.from_arrays(A, b)
        try:
            res = project_polyhedron(x0, poly)
        except InfeasiblePolyhedronError:
            res = None
        results.append((x0, A, b, poly, res))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_projection_oracle_equivalence(battery):
    results, solver_elapsed = battery
    start = time.perf_counter()
    worst = 0.0
    n_empty = 0
    for x0, A, b, poly, res in results:
        oracle = brute_force_projection(x0, A, b)
        if oracle is None:
            assert res is None, "kernel found a projection in an empty polyhedron"
            n_empty += 1
            continue
        assert res is not None, "kernel declared a nonempty polyhedron empty"
        worst = max(worst, float(np.linalg.norm(res.point - oracle)))
        x0_feasible = bool(np.max(poly.scaled_violations(x0)) <= 1e-10)
        assert res.feasible == x0_feasible
    elapsed = solver_elapsed + (time.perf_counter() - start)
    _report(
        "criterion 1: oracle equivalence over 200 instances",
        worst <= 1e-8 and elapsed < 10.0,
        f"max point gap {worst:.2e}, {n_empty} empty instances, {elapsed:.2f}s",
    )


def test_criterion_2_variational_inequality(battery):
    results, _ = battery
    worst = -np.inf
    checked = 0
    for idx, (x0, A, b, poly, res) in enumerate(results):
        if res is None:
            continue
        report = check_variational_inequality(x0, res, poly, samples=100, seed=idx)
        worst = max(worst, report.max_normalized_violation)
        checked += 1
    _report(
        "criterion 2: variational inequality of projections",
        worst <= 1e-9,
        f"max normalized violation {worst:.2e} over {checked} instances",
    )


def test_criterion_3_finite_convergence_matches_reference():
    start = time.perf_counter()
    trace = solve(BALL, [2.0, 0.0], SolveOptions(schedule=HARMONIC))
    elapsed = time.perf_counter() - start
    ref_i, ref_t = radial_ball_reference(2.0, 0.1)
    ok = (
        trace.status is TerminationStatus.FEASIBLE_FOUND
        and trace.status_iteration <= 100
        and trace.status_iteration == ref_i
        and abs(trace.final_x[0] - ref_t) <= 1e-12
        and elapsed < 1.0
    )
    _report(
        "criterion 3: finite convergence on the ball",
        ok,
        f"terminated at i={trace.status_iteration} (reference {ref_i}), "
        f"f={trace.final_f:.4g}, {elapsed * 1e3:.1f}ms",
    )


def test_criterion_4_shift_necessity():
    baseline = solve(
        BALL, [2.0, 0.0],
        SolveOptions(schedule=EpsilonSchedule.constant_for_testing(0.0), max_iter=1000),
    )
    shifted = solve(BALL, [2.0, 0.0], SolveOptions(schedule=HARMONIC))
    baseline_stays_out = (
        baseline.status is TerminationStatus.MAX_ITER_EXCEEDED
        and all(row.f_xi > 0.0 for row in baseline.rows)
    )
    shifted_terminates = shifted.status is TerminationStatus.FEASIBLE_FOUND
    _report(
        "criterion 4: the shift is necessary",
        baseline_stays_out and shifted_terminates,
        f"baseline min f {min(r.f_xi for r in baseline.rows):.2e} over "
        f"{len(baseline.rows)} rows; shifted run ended at i={shifted.status_iteration}",
    )


def test_criterion_5_nonconvex_local_success():
    problem = nonconvex_default_problem()
    corner = nonconvex_default_boundary()
    rng = np.random.default_rng(2024)
    directions = rng.standard_normal((20, 2))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = 0.5 * rng.random((20, 1)) ** 0.5
    starts = corner + directions * radii
    opts = SolveOptions(schedule=HARMONIC, max_iter=500)
    traces = solve_multistart(problem, starts, opts)
    found = sum(t.status is TerminationStatus.FEASIBLE_FOUND for t in traces)
    _report(
        "criterion 5: nonconvex local success",
        found >= 19,
        f"{found}/20 runs feasible within 500 iterations",
    )


def test_criterion_6_distance_decay():
    trace = solve(
        BALL, [2.0, 0.0],
        SolveOptions(schedule=HARMONIC, record_sublevel_distance=True),
    )
    dist = [r.dist_sublevel for r in trace.rows]
    strictly_decreasing = all(b < a for a, b in zip(dist, dist[1:]))
    fit = fit_decay_rate(dist)
    _report(
        "criterion 6: sublevel distance decays geometrically",
        strictly_decreasing and fit.rho < 1.0 and fit.r2 >= 0.9,
        f"rho={fit.rho:.4f}, r2={fit.r2:.4f}, d={['%.3g' % d for d in dist]}",
    )


def test_criterion_7_approximate_convexity():
    convex_cases = [
        (BallProblem([0.0, 0.0], 1.0), [2.0, 0.5], 1.5),
        (BallProblem([0.4, -0.7], 2.0), [-1.0, 1.0], 2.0),
        (MaxAffineProblem([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]), [0.0, 0.0], 3.0),
        (MaxAffineProblem([[2.0, -1.0], [0.5, 1.0]], [0.3, -0.1]), [1.0, -1.0], 2.0),
    ]
    worst_convex = -np.inf
    for problem, center, delta in convex_cases:
        report = check_approximate_convexity(
            problem, center, delta=delta, eps_ac=1e-8, pairs=20_000, seed=77
        )
        worst_convex = max(worst_convex, report.worst_violation)

    nonconvex = check_approximate_convexity(
        nonconvex_default_problem(),
        nonconvex_default_boundary(),
        delta=0.2,
        eps_ac=0.5,
        pairs=100_000,
        seed=78,
    )
    ok = worst_convex <= 1e-10 and nonconvex.worst_violation <= 1e-10
    _report(
        "criterion 7: sampled slackened-convexity inequality",
        ok,
        f"convex worst {worst_convex:.2e}, nonconvex worst "
        f"{nonconvex.worst_violation:.2e} over 1e5 pairs",
    )


def test_criterion_8_error_paths(tmp_path):
    trace = solve(ShiftedBallProblem(2), [0.0, 0.0], SolveOptions(schedule=HARMONIC))
    zero_ok = (
        trace.status is TerminationStatus.ZERO_SUBGRADIENT
        and trace.status_iteration == 0
        and np.array_equal(trace.final_x, [0.0, 0.0])
    )

    opposing = MaxAffineProblem([[1.0], [-1.0]], [1.0, 1.0], activity_tol=0.0)
    cuts_trace = solve(
        opposing, [0.0],
        SolveOptions(schedule=HARMONIC, infeasible_cut_fallback="fail"),
    )
    cuts_ok = cuts_trace.status is TerminationStatus.INFEASIBLE_CUTS

    zero_path = tmp_path / "zero.json"
    zero_path.write_text(json.dumps(problem_to_dict(ShiftedBallProblem(2))))
    code_zero = main(["solve", "--problem", str(zero_path), "--x0", "0,0"])
    opp_path = tmp_path / "opposing.json"
    opp_path.write_text(json.dumps(problem_to_dict(opposing)))
    code_cuts = main([
        "solve", "--problem", str(opp_path), "--x0", "0", "--fallback", "fail",
    ])
    _report(
        "criterion 8: error paths and exit codes",
        zero_ok and cuts_ok and code_zero == 3 and code_cuts == 3,
        f"statuses {trace.status.value}/{cuts_trace.status.value}, "
        f"exit codes {code_zero}/{code_cuts}",
    )


def test_criterion_9_determinism_and_formats(tmp_path):
    ball_path = tmp_path / "ball.json"
    ball_path.write_text(json.dumps(problem_to_dict(BALL)))
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        code = main([
            "solve", "--problem", str(ball_path), "--x0-random", "1234:1.75",
            "--eps0", "0.1", "--schedule", "harmonic:p=1",
            "--trace-csv", str(out / "t.csv"),
            "--trace-json", str(out / "t.json"),
            "--record-dist",
        ])
        assert code in (0, 2)
        outputs.append((
            (out / "t.csv").read_bytes(), (out / "t.json").read_bytes()
        ))
    byte_identical = outputs[0] == outputs[1]

    trace = solve(
        BALL, [2.0, 0.0],
        SolveOptions(schedule=HARMONIC, record_sublevel_distance=True),
    )
    round_trip = parse_trace_csv(trace_to_csv(trace)) == trace.rows
    _report(
        "criterion 9: determinism and formats",
        byte_identical and round_trip,
        f"byte identical={byte_identical}, csv round trip={round_trip}",
    )
