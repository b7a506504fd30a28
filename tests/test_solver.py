"""Driver tests: steps, cut validity, termination semantics, baselines."""

import collections
import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from epscut import (
    BallProblem,
    CutPolyhedron,
    DimensionMismatchError,
    EpsilonSchedule,
    MaxAffineProblem,
    MaxQuadraticsProblem,
    ShiftedBallProblem,
    SolveOptions,
    SolveTrace,
    TerminationStatus,
    TraceRow,
    ZeroNormalError,
    build_cuts,
    evaluate,
    exact_sublevel_distance,
    nonconvex_default_boundary,
    nonconvex_default_problem,
    project_polyhedron,
    solve,
    solve_multistart,
)
from epscut import solver, trace_to_csv, trace_to_json
from epscut.geometry import as_vector
from epscut.problems import DEFAULT_J_MAX, KINDS, Evaluation, supports_sublevel_distance
from conftest import assert_compares_by_bytes, radial_ball_reference
from test_problems import random_problem

BALL = BallProblem([0.0, 0.0], 1.0)
AXES_MAX = MaxAffineProblem([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], activity_tol=0.0)
# f = max(x+1, -x+1) = |x| + 1 > 0 everywhere; at 0 the two cuts oppose
# each other exactly, so their intersection is empty.
OPPOSING = MaxAffineProblem([[1.0], [-1.0]], [1.0, 1.0], activity_tol=0.0)
# Every shift 0.0: the classical unshifted linearization cut.
ZERO_SHIFT = EpsilonSchedule.constant_for_testing(0.0)


def harmonic_opts(**kwargs) -> SolveOptions:
    return SolveOptions(schedule=EpsilonSchedule.harmonic(0.1, 1.0), **kwargs)


def one_step(problem, x, eps, **kwargs):
    """A one-iteration run with shift eps at iteration 0."""
    opts = SolveOptions(schedule=EpsilonSchedule.harmonic(eps), max_iter=1, **kwargs)
    return solve(problem, x, opts)


def first_cut(x, ev, eps) -> CutPolyhedron:
    """The most active cut at x as a one-row polyhedron."""
    poly = build_cuts(x, ev, eps)
    return CutPolyhedron(poly.normals[:1], poly.offsets[:1])


class TestStep:
    def test_ball_single_cut_closed_form(self):
        trace = one_step(BALL, [2.0, 0.0], 0.1)
        assert_allclose(trace.final_x, [1.225, 0.0], rtol=0, atol=1e-15)
        assert trace.rows[0].j_i == 1
        assert trace.rows[0].cut_count_active == 1

    def test_single_cut_bundle_equals_halfspace_projection(self):
        x = np.array([1.7, -0.4])
        ev = evaluate(BALL, x)
        via_step = one_step(BALL, x, 0.05).final_x
        assert_allclose(via_step, project_polyhedron(x, first_cut(x, ev, 0.05)).point, rtol=1e-14)

    def test_max_affine_corner(self):
        trace = one_step(AXES_MAX, [1.0, 1.0], 0.5)
        assert_allclose(trace.final_x, [-0.5, -0.5], atol=1e-14)
        assert trace.rows[0].j_i == 2
        assert trace.rows[0].cut_count_active == 2

    def test_opposing_cuts_first_cut_fallback(self):
        trace = one_step(OPPOSING, [0.0], 0.1)
        # Only the first (most active, lowest index) cut is honored:
        # x <= 0 - f - eps = -1.1. Both cuts together are empty, so this
        # point is reachable only through the fallback.
        assert_allclose(trace.final_x, [-1.1], atol=1e-15)
        assert trace.rows[0].j_i == 2
        assert trace.rows[0].cut_count_active == 1


class TestSolveBall:
    def test_already_feasible_start(self):
        trace = solve(BALL, [0.5, 0.0], harmonic_opts())
        assert trace.status is TerminationStatus.FEASIBLE_FOUND
        assert trace.status_iteration == 0
        assert len(trace.rows) == 1
        assert trace.rows[0].step_norm == 0.0
        assert trace.final_f == -0.75
        assert trace.strict_feasible

    def test_matches_independent_radial_reference(self):
        ref_i, ref_t = radial_ball_reference(2.0, 0.1)
        trace = solve(BALL, [2.0, 0.0], harmonic_opts())
        assert trace.status is TerminationStatus.FEASIBLE_FOUND
        assert trace.status_iteration == ref_i == 3
        assert trace.final_x[1] == 0.0
        assert trace.final_x[0] == pytest.approx(ref_t, abs=1e-12)
        assert len(trace.rows) == ref_i + 1

    def test_rows_consistent(self):
        trace = solve(BALL, [2.0, 0.0], harmonic_opts())
        for idx, row in enumerate(trace.rows):
            assert row.i == idx
        eps = [r.eps_i for r in trace.rows]
        assert all(b < a for a, b in zip(eps, eps[1:]))
        for row in trace.rows[:-1]:
            assert row.f_xi > 0.0
        assert trace.rows[-1].f_xi <= 0.0

    def test_cut_validity_per_iteration(self):
        for problem, x0 in [
            (BALL, [2.0, 0.0]),
            (nonconvex_default_problem(), [2.5, 1.2]),
            (AXES_MAX, [1.0, 1.0]),
        ]:
            opts = harmonic_opts(max_iter=200)
            trace = solve(problem, x0, opts)
            points = reference_points(problem, x0, opts, trace)
            for i in range(len(points) - 1):
                x_i, x_next = points[i], points[i + 1]
                ev = evaluate(problem, x_i)
                eps_i = trace.rows[i].eps_i
                delta = x_next - x_i
                for s in ev.bundle:
                    slack = 1e-9 * (1 + np.linalg.norm(s) * np.linalg.norm(delta))
                    assert ev.value + float(np.dot(s, delta)) <= -eps_i + slack

    def test_step_dominates_first_single_cut(self):
        problem, x0, opts = nonconvex_default_problem(), [2.5, 1.2], harmonic_opts()
        trace = solve(problem, x0, opts)
        points = reference_points(problem, x0, opts, trace)
        for i in range(len(points) - 1):
            x_i, x_next = points[i], points[i + 1]
            ev = evaluate(problem, x_i)
            single = project_polyhedron(x_i, first_cut(x_i, ev, trace.rows[i].eps_i)).point
            assert (
                np.linalg.norm(x_next - x_i)
                >= np.linalg.norm(single - x_i) - 1e-12
            )

    def test_monotone_distance_decay_at_fixed_shift(self):
        trace = solve(BALL, [2.0, 0.0], harmonic_opts())
        points = reference_points(BALL, [2.0, 0.0], harmonic_opts(), trace)
        for i in range(len(points) - 1):
            eps_i = trace.rows[i].eps_i
            d_now = exact_sublevel_distance(BALL, points[i], eps_i)
            d_next = exact_sublevel_distance(BALL, points[i + 1], eps_i)
            assert d_next <= d_now + 1e-12

    def test_recorded_distances(self):
        trace = solve(
            BALL, [2.0, 0.0], harmonic_opts(record_sublevel_distance=True)
        )
        dists = [r.dist_sublevel for r in trace.rows]
        assert all(d is not None for d in dists)
        assert dists[0] == pytest.approx(2.0 - np.sqrt(0.9), abs=1e-14)
        # No recording requested: rows carry None.
        bare = solve(BALL, [2.0, 0.0], harmonic_opts())
        assert all(r.dist_sublevel is None for r in bare.rows)


class TestZeroShiftBaseline:
    """The unshifted linearization cut never reaches the sublevel set.

    On a strictly convex instance the cut boundary lies strictly outside
    {f <= 0}, so f stays positive at every iterate. Numerically the iteration
    freezes once the cut violation drops below the scale-aware projection
    tolerance, a hair outside the boundary, and never terminates.
    """

    def test_never_terminates_over_1000_iterations(self):
        opts = SolveOptions(schedule=ZERO_SHIFT, max_iter=1000)
        trace = solve(BALL, [2.0, 0.0], opts)
        assert trace.status is TerminationStatus.MAX_ITER_EXCEEDED
        assert len(trace.rows) == 1001
        assert all(row.f_xi > 0.0 for row in trace.rows)
        assert all(row.eps_i == 0.0 for row in trace.rows)

    def test_shifted_run_terminates_strictly_inside(self):
        trace = solve(BALL, [2.0, 0.0], harmonic_opts())
        assert trace.status is TerminationStatus.FEASIBLE_FOUND
        assert trace.strict_feasible


class TestSolveErrors:
    def test_zero_subgradient_status(self):
        trace = solve(ShiftedBallProblem(2), [0.0, 0.0], harmonic_opts())
        assert trace.status is TerminationStatus.ZERO_SUBGRADIENT
        assert trace.status_iteration == 0
        assert_allclose(trace.final_x, [0.0, 0.0])
        assert len(trace.rows) == 1

    def test_infeasible_cuts_status(self):
        opts = harmonic_opts(infeasible_cut_fallback="fail")
        trace = solve(OPPOSING, [0.0], opts)
        assert trace.status is TerminationStatus.INFEASIBLE_CUTS
        assert trace.status_iteration == 0

    def test_max_iter_exceeded(self):
        trace = solve(BALL, [2.0, 0.0], harmonic_opts(max_iter=2))
        assert trace.status is TerminationStatus.MAX_ITER_EXCEEDED
        assert trace.status_iteration == 2
        assert len(trace.rows) == 3
        assert trace.final_f > 0.0

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(j_max=0)
        with pytest.raises(ValueError):
            SolveOptions(max_iter=0)
        with pytest.raises(ValueError):
            SolveOptions(infeasible_cut_fallback="retry")

    @pytest.mark.parametrize("field", ["j_max", "max_iter"])
    @pytest.mark.parametrize("value", [2.5, 1.0, "3", None, True])
    def test_run_lengths_must_be_integers(self, field, value):
        # A max_iter of 2.5 is never met by the iteration counter, so solve
        # ran forever; a j_max of 2.5 failed as a slice in one loop only. A
        # bool is not a count either: max_iter=True ran one iteration.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SolveOptions(**{field: value})

    @pytest.mark.parametrize("field", ["j_max", "max_iter"])
    def test_numpy_integer_run_lengths_run_both_loops(self, field):
        problem, x0 = ShiftedBallProblem(2), [3.0, 1.0]
        base = {"j_max": 2, "max_iter": 5}
        opts = SolveOptions(**{**base, field: np.int64(3)})
        plain = SolveOptions(**{**base, field: 3})
        for run in (lambda o: [solve(problem, x0, o)],
                    lambda o: solve_multistart(problem, [x0, x0], o)):
            traces = run(opts)
            assert all(t.status is TerminationStatus.MAX_ITER_EXCEEDED for t in traces)
            assert [trace_bytes(t) for t in traces] == [trace_bytes(t) for t in run(plain)]

    def test_numpy_counts_are_stored_as_ints(self):
        # The stall fill ends at min(next_change, max_iter), which carried a
        # NumPy max_iter into the last row and status_iteration, and
        # trace_to_json could not write it.
        opts = SolveOptions(j_max=np.int64(3), max_iter=np.int64(50), schedule=ZERO_SHIFT)
        plain = SolveOptions(j_max=3, max_iter=50, schedule=ZERO_SHIFT)
        assert type(opts.j_max) is int and type(opts.max_iter) is int and opts == plain
        x0 = [2.5, -1.5]
        for run in (lambda o: [solve(BALL, x0, o)],
                    lambda o: solve_multistart(BALL, [x0, x0], o)):
            traces = run(opts)
            assert [t.status_iteration for t in traces] == [50] * len(traces)
            assert [trace_bytes(t) for t in traces] == [trace_bytes(t) for t in run(plain)]
            for trace in traces:
                assert_plain_record(trace)


class TestFailureSurface:
    """Every run ends with a status, whatever the arithmetic does."""

    @pytest.mark.parametrize("x0", [[1e200, 0.0], [1.2e154, 0.0]])
    def test_overflow_is_nonfinite_step(self, x0):
        # At 1e200, f overflows to inf and the bundle comes out empty; at
        # 1.2e154, f is finite but the cut offset and normal length are not.
        with np.errstate(over="ignore", invalid="ignore"):
            trace = solve(BALL, x0)
        assert trace.status is TerminationStatus.NONFINITE_STEP
        assert trace.status_iteration == 0
        assert len(trace.rows) == 1

    def test_overflowing_multiplier_is_projection_failed(self):
        # One cut with |a| = 1e-83 and violation 1e160: the step length
        # 1e160 / |a|^2 overflows inside the kernel.
        problem = MaxAffineProblem([[1e-83]], [1e160])
        with np.errstate(over="ignore", invalid="ignore"):
            trace = solve(problem, [0.0])
        assert trace.status is TerminationStatus.PROJECTION_FAILED
        assert trace.status_iteration == 0

    @pytest.mark.parametrize("x0, iteration", [([1.0, 0.0], 0), ([3e150, 0.0], 6)])
    def test_huge_radius_ends_with_a_status(self, x0, iteration):
        # 1e150 squares to 1e300, so f and the sublevel distance stay finite.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = solve(BallProblem([0.0, 0.0], 1e150), x0,
                          SolveOptions(record_sublevel_distance=True))
        assert trace.status is TerminationStatus.FEASIBLE_FOUND
        assert trace.status_iteration == iteration

    def test_far_kink_instance_reaches_feasibility(self):
        # Far from the origin in the scale of these coefficients, a cut's
        # residual is pure round-off; the kernel must stop there, not cycle.
        problem = MaxAffineProblem(
            [[-38.39464111343761, -88.6093251812894],
             [-7.73739607246644e-05, -0.0006767083573014546],
             [0.0013832068193243951, 0.0017191089333276814]],
            [-342663.00805355696, -295100.05812114757, 1234197.6684161827],
            activity_tol=1.0206153797562739e-07,
        )
        trace = solve(problem, [0.01144337679981268, 0.019161912388399104])
        assert trace.status is TerminationStatus.FEASIBLE_FOUND
        assert trace.status_iteration == 622

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0, 3, 6, 10]), st.booleans())
    def test_random_max_affine_returns_a_status(self, seed, log_spread, record):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        spread = lambda size: 10.0 ** rng.uniform(-log_spread, log_spread, size=size)
        problem = MaxAffineProblem(
            rng.standard_normal((k, n)) * spread((k, n)),
            rng.standard_normal(k) * spread(k),
            activity_tol=None if rng.random() < 0.5 else float(10.0 ** rng.uniform(-10, 0)),
        )
        x0 = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
        opts = SolveOptions(max_iter=200, record_sublevel_distance=record)
        with np.errstate(over="ignore", invalid="ignore"):
            trace = solve(problem, x0, opts)
        assert trace.status in set(TerminationStatus)
        assert len(trace.rows) == trace.status_iteration + 1


class TestQuietOverflow:
    """Overflow ends a run with its status and raises no NumPy warning."""

    @pytest.mark.parametrize("problem, x0, status", [
        (BALL, [1.2e154, 0.0], TerminationStatus.NONFINITE_STEP),
        (BALL, [1e200, 0.0], TerminationStatus.NONFINITE_STEP),
        (MaxAffineProblem([[1e-83]], [1e160]), [0.0], TerminationStatus.PROJECTION_FAILED),
    ])
    def test_status_without_warning(self, problem, x0, status):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = solve(problem, x0, SolveOptions(record_sublevel_distance=True))
        assert trace.status is status
        assert trace.status_iteration == 0

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_nonfinite_distance_is_recorded_empty(self, bad):
        # The max-affine distance overflows to inf far from the origin (the
        # wedge from (-1e300, 1e300)), and both loops recorded it; an empty
        # cell is what solve promises for a distance that cannot be
        # computed. The trace is then the one recorded without distances.
        class Overflowing(BallProblem):
            def _sublevel_distances(self, X, eps):
                return np.full(X.shape[:-1], bad)

        opts = SolveOptions(max_iter=3, record_sublevel_distance=True)
        trace = solve(Overflowing(), [2.0, 0.0], opts)
        (batch,) = solve_multistart(Overflowing(), [[2.0, 0.0]], opts)
        assert batch == trace == solve(BALL, [2.0, 0.0], SolveOptions(max_iter=3))
        assert len(trace.rows) == 4


class TestCallPoints:
    """The loop calls each layer through its name in the solver module.

    Tracing tools rebind exactly these names to time the layers, so each
    call must go through them.
    """

    NAMES = ("evaluate", "build_cuts", "project_one_cut", "project_polyhedron",
             "exact_sublevel_distance")

    def count_calls(self, monkeypatch) -> collections.Counter:
        counts = collections.Counter()
        for name in self.NAMES:
            def counting(*args, _name=name, _call=getattr(solver, name), **kwargs):
                counts[_name] += 1
                return _call(*args, **kwargs)
            monkeypatch.setattr(solver, name, counting)
        return counts

    def test_ball_run_counts_match_trace(self, monkeypatch):
        counts = self.count_calls(monkeypatch)
        trace = solve(BALL, [2.0, 0.0], harmonic_opts(record_sublevel_distance=True))
        assert trace.status is TerminationStatus.FEASIBLE_FOUND
        rows, steps = len(trace.rows), len(trace.rows) - 1
        assert steps == 3
        assert all(row.dist_sublevel is not None for row in trace.rows)
        # Each step has one cut, projected in closed form.
        assert counts == {"evaluate": rows, "exact_sublevel_distance": rows,
                          "project_one_cut": steps}

    def test_fallback_projects_twice(self, monkeypatch):
        # The two opposing cuts go to the kernel, which finds them empty;
        # the step on the first cut alone is the closed form.
        counts = self.count_calls(monkeypatch)
        trace = one_step(OPPOSING, [0.0], 0.1)
        assert trace.rows[0].cut_count_active == 1
        assert counts == {"evaluate": 2, "build_cuts": 1, "project_polyhedron": 1,
                          "project_one_cut": 1}

    def test_stalled_run_is_filled(self, monkeypatch):
        # The zero shift stalls from step 5 on. Steps 0-4 are closed forms;
        # at step 5 x lies inside its cut, so the closed form is not settled
        # and the kernel hands x back. The 994 later steps are written
        # without calling any layer, and the last row is evaluated once more
        # to end the run.
        counts = self.count_calls(monkeypatch)
        opts = SolveOptions(schedule=ZERO_SHIFT, max_iter=1000,
                            record_sublevel_distance=True)
        trace = solve(BALL, [2.0, 0.0], opts)
        assert trace.status is TerminationStatus.MAX_ITER_EXCEEDED
        assert len(trace.rows) == 1001
        assert [row.cut_count_active for row in trace.rows[4:7]] == [1, 0, 0]
        assert counts == {"evaluate": 7, "exact_sublevel_distance": 7,
                          "project_one_cut": 6, "build_cuts": 1, "project_polyhedron": 1}


def reference_build_cuts(x, evaluation, eps) -> CutPolyhedron:
    """build_cuts through the validating constructor, after the zero-row check."""
    G = evaluation.bundle
    if (np.vecdot(G, G) == 0.0).any():
        raise ZeroNormalError("cut normals must be nonzero")
    return CutPolyhedron(G, np.vecdot(G, x) - evaluation.value - eps)


def cut_outcome(build, x, evaluation, eps):
    """The exception class raised, or the bytes of the three arrays."""
    try:
        with np.errstate(all="ignore"):
            poly = build(x, evaluation, eps)
    except (ValueError, ZeroNormalError) as exc:
        return type(exc)
    return tuple((a.shape, a.tobytes())
                 for a in (poly.normals, poly.offsets, poly.normal_norms))


BUNDLE_ENTRY = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 1e-200, 1e154, 1e200, -1e200,
                     np.inf, -np.inf, np.nan]),
)


class TestBuildCuts:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        st.integers(1, 4).flatmap(lambda n: st.tuples(
            st.lists(st.lists(BUNDLE_ENTRY, min_size=n, max_size=n), max_size=4),
            st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
        )),
        st.integers(-4, 3),
        st.one_of(st.floats(-10.0, 10.0), st.sampled_from([1e308, np.inf, -np.inf, np.nan])),
        st.floats(0.0, 1.0),
    )
    def test_matches_validating_constructor(self, rows_and_x, zero_row, f, eps):
        rows, x = rows_and_x
        G = np.array(rows, dtype=float).reshape(len(rows), len(x))
        if 0 <= zero_row < len(G):
            G[zero_row] = 0.0
        x = np.array(x)
        ev = Evaluation(value=f, bundle=G, active=list(range(len(G))))
        expected = cut_outcome(reference_build_cuts, x, ev, eps)
        assert cut_outcome(build_cuts, x, ev, eps) == expected
        with np.errstate(all="ignore"):
            has_zero_row = (np.vecdot(G, G) == 0.0).any()
        if has_zero_row:
            assert expected is ZeroNormalError

    def test_zero_row_reported_before_nonfinite_rows(self):
        G = np.array([[np.nan, 1.0], [0.0, 0.0], [np.inf, 0.0]])
        ev = Evaluation(value=np.inf, bundle=G, active=[0, 1, 2])
        with np.errstate(invalid="ignore"), pytest.raises(ZeroNormalError):
            build_cuts(np.zeros(2), ev, 0.1)

    @pytest.mark.parametrize("f, bundle", [
        (np.inf, np.zeros((0, 2))),
        (np.nan, [[1.0, 0.0]]),
        (-np.inf, [[1.0, 0.0]]),
        (1.0, [[1e200, 1e200]]),
        (1.0, [[1.0, np.nan]]),
    ])
    def test_empty_or_nonfinite_cuts_rejected(self, f, bundle):
        ev = Evaluation(value=f, bundle=np.array(bundle), active=[])
        with np.errstate(all="ignore"), pytest.raises(ValueError):
            build_cuts(np.ones(2), ev, 0.1)

    @pytest.mark.parametrize("x, error", [
        (np.ones((3, 2)), ValueError),
        (np.ones((1, 2)), ValueError),
        (np.ones(3), DimensionMismatchError),
    ])
    def test_point_shape_checked(self, x, error):
        # A (3, 2) point would broadcast one cut's offset to three.
        ev = Evaluation(value=1.0, bundle=np.array([[1.0, 0.0]]), active=[0])
        with pytest.raises(error):
            build_cuts(x, ev, 0.1)


class TestInputChecks:
    """Public entry points check their inputs; the loop relies on them.

    ``CutPolyhedron``'s own checks are in test_geometry.py.
    """

    @pytest.mark.parametrize("x, error", [
        ([np.nan, 0.0], ValueError),
        ([np.inf, 0.0], ValueError),
        ([0.0, -np.inf], ValueError),
        ([1.0, 2.0, 3.0], DimensionMismatchError),
        ([[1.0, 2.0]], ValueError),
    ])
    def test_bad_points_rejected(self, x, error):
        poly = CutPolyhedron([[1.0, 0.0]], [0.0])
        calls = [
            lambda: solve(BALL, x),
            lambda: evaluate(BALL, x),
            lambda: project_polyhedron(x, poly),
            lambda: build_cuts(x, evaluate(BALL, [2.0, 0.0]), 0.1),
        ]
        distances = [
            lambda: exact_sublevel_distance(BALL, x, 0.1),
            lambda: exact_sublevel_distance(AXES_MAX, x, 0.1),
        ]
        if np.ndim(x) == 1:
            calls += distances
        else:
            # exact_sublevel_distance broadcasts over points, (..., n) -> (...):
            # a (1, 2) array is a stack of one good point to it.
            assert [d().shape for d in distances] == [(1,), (1,)]
        for call in calls:
            with np.errstate(invalid="ignore"), pytest.raises(error):
                call()


class TestMultistart:
    def test_singleton_matches_solve(self):
        batch = solve_multistart(BALL, [[2.0, 0.0]], harmonic_opts())
        single = solve(BALL, [2.0, 0.0], harmonic_opts())
        assert len(batch) == 1
        assert batch[0].status is single.status
        assert batch[0].rows == single.rows

    def test_order_matches_input_and_permutation_invariance(self):
        starts = [[2.0, 0.0], [0.0, 3.0], [0.5, 0.0]]
        traces = solve_multistart(BALL, starts, harmonic_opts())
        permuted = solve_multistart(BALL, starts[::-1], harmonic_opts())
        keys = sorted((t.status.value, t.status_iteration) for t in traces)
        keys_p = sorted((t.status.value, t.status_iteration) for t in permuted)
        assert keys == keys_p
        assert [t.rows for t in traces[::-1]] == [t.rows for t in permuted]

    def test_errors_captured_per_start(self):
        problem = ShiftedBallProblem(2)
        traces = solve_multistart(
            problem, [[0.0, 0.0], [1.0, 0.0]], harmonic_opts(max_iter=5)
        )
        assert traces[0].status is TerminationStatus.ZERO_SUBGRADIENT
        assert traces[1].status is TerminationStatus.MAX_ITER_EXCEEDED

    def test_empty_start_list_rejected(self):
        with pytest.raises(ValueError):
            solve_multistart(BALL, [], harmonic_opts())

    @pytest.mark.parametrize("starts", [
        [[2.0, 0.0], [1.0]],
        [[2.0, [0.0]]],
        [[2.0, 0.0], [np.inf, 0.0]],
        [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],
    ], ids=["ragged", "nested", "non-finite", "wrong-dimension"])
    def test_bad_start_raises_what_as_vector_raises(self, starts):
        with pytest.raises(Exception) as expected:
            for x0 in starts:
                as_vector(x0, BALL.dim)
        with pytest.raises(expected.type, match=re.escape(str(expected.value))):
            solve_multistart(BALL, starts, harmonic_opts())


def trace_bytes(trace) -> bytes:
    """Every serialized byte of a trace, plus the bytes of its last point."""
    text = trace_to_csv(trace) + trace_to_json(trace)
    return text.encode() + trace.final_x.tobytes()


# The cell types of a row, column by column, as TraceRow's docstring gives them.
ROW_CELL_TYPES = ((int,), (float,), (float,), (int,), (float,), (float, type(None)), (int,))


def assert_plain_record(trace):
    """The trace is the frozen SolveTrace that SolveTrace(...) makes, with
    Python ints, floats and None in its rows and scalars."""
    names = [f.name for f in dataclasses.fields(SolveTrace)]
    assert type(trace) is SolveTrace
    assert list(vars(trace)) == names
    copy = dataclasses.replace(trace)
    assert type(copy) is SolveTrace
    assert all(getattr(copy, name) is getattr(trace, name) for name in names)
    assert repr(copy) == repr(trace)
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.status = TerminationStatus.FEASIBLE_FOUND
    for row in trace.rows:
        assert type(row) is TraceRow
        assert all(type(cell) in kinds for cell, kinds in zip(row, ROW_CELL_TYPES, strict=True))
    assert type(trace.final_f) is float and type(trace.status_iteration) is int
    assert trace.strict_feasible in (True, False, None)


def assert_lockstep_matches_solve(problem, starts, opts):
    """solve_multistart gives, start by start, solve's trace byte for byte,
    without a warning of any kind."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = solve_multistart(problem, starts, opts)
        single = [solve(problem, x0, opts) for x0 in starts]
    assert [trace_bytes(t) for t in batch] == [trace_bytes(t) for t in single]
    return batch


# The loop of solve before it filled stalled runs: every iteration
# evaluates, measures and steps. It calls the layers through the solver
# module, so a patched name reaches both loops. It returns its trace and
# the points x_0, x_1, ... it visited, which the solver does not keep.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _solve_reference(problem, x0, opts):
    x = as_vector(x0, problem.dim).copy()
    record_dist = opts.record_sublevel_distance and supports_sublevel_distance(problem)

    rows = []
    points = [x.copy()]
    for i in range(opts.max_iter + 1):
        evaluation = solver.evaluate(problem, x, opts.j_max)
        f_xi = evaluation.value
        eps_i = solver.eps_at(opts.schedule, i)
        dist = solver._sublevel_distance(problem, x, eps_i) if record_dist else None
        if f_xi <= 0.0:
            status = TerminationStatus.FEASIBLE_FOUND
        elif i == opts.max_iter:
            status = TerminationStatus.MAX_ITER_EXCEEDED
        else:
            status, point, active = solver._step(x, evaluation, eps_i,
                                                 opts.infeasible_cut_fallback)
        if status is not None:
            break
        step = point - x
        rows.append(
            solver.TraceRow(i, eps_i, f_xi, len(evaluation.bundle), math.sqrt(step.dot(step)),
                            dist, active)
        )
        x = point
        points.append(x.copy())
    trace = solver._finish(rows, status, i, eps_i, f_xi, len(evaluation.bundle), dist, x)
    return trace, points


def reference_points(problem, x0, opts, trace) -> list:
    """The points a run from x0 visited, after checking that its trace is
    the step-by-step loop's, byte for byte."""
    reference, points = _solve_reference(problem, x0, opts)
    assert trace_bytes(trace) == trace_bytes(reference)
    return points


SCHEDULES = {
    "harmonic": EpsilonSchedule.harmonic,
    "const": EpsilonSchedule.constant_for_testing,
    "log": EpsilonSchedule.logarithmic,
    "zero": lambda eps0: ZERO_SHIFT,
}


class TestStalledRunFill:
    """A step that leaves x in place repeats while the schedule hands back
    the same shift object; solve writes those rows without stepping, and
    its trace must be the step-by-step loop's."""

    # A shift of 1e-20 is below the round-off of most of these cuts, so the
    # const schedule can stall as the zero shift does, and the harmonic and
    # log ones can stall with a new shift at every step.
    CASES = dict(kind=st.sampled_from(KINDS), n=st.sampled_from([1, 2, 3, 6]),
                 schedule=st.sampled_from(sorted(SCHEDULES)),
                 eps0=st.sampled_from([0.1, 1e-20]), max_iter=st.sampled_from([1, 2, 50, 300]),
                 seed=st.integers(0, 2**32 - 1), j_max=st.sampled_from([DEFAULT_J_MAX, 1]),
                 infeasible_cut_fallback=st.sampled_from(solver.FALLBACK_MODES),
                 record_sublevel_distance=st.booleans())

    @staticmethod
    def case(kind, n, schedule, eps0, max_iter, seed, **options):
        """The problem, a start, the options and the generator they came from."""
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, kind, n)
        x0 = rng.standard_normal(n) * 10.0 ** rng.uniform(-1.0, 6.0)
        opts = SolveOptions(schedule=SCHEDULES[schedule](eps0), max_iter=max_iter, **options)
        return problem, x0, opts, rng

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(**CASES)
    def test_matches_reference(self, **case):
        problem, x0, opts, _ = self.case(**case)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = solve(problem, x0, opts)
        assert trace_bytes(trace) == trace_bytes(_solve_reference(problem, x0, opts)[0])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(**CASES)
    # Two zero-shift runs that stall, 34 and 49 unmoved steps of 50.
    @example(kind="ball", n=2, schedule="zero", eps0=0.1, max_iter=50, seed=1, j_max=8,
             infeasible_cut_fallback="first_cut_only", record_sublevel_distance=True)
    @example(kind="max_affine", n=2, schedule="zero", eps0=0.1, max_iter=50, seed=1, j_max=8,
             infeasible_cut_fallback="fail", record_sublevel_distance=False)
    def test_unmoved_step_keeps_the_bits(self, **case):
        # A step with no active cut hands x back as it was: x_{i+1} has
        # x_i's bits. Both loops give the step-by-step loop's trace and last
        # point, and the stall fill relies on this to keep x for the rows
        # it writes.
        problem, x0, opts, rng = self.case(**case)
        starts = [x0, rng.standard_normal(problem.dim) * 10.0 ** rng.uniform(-1.0, 2.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traces = [solve(problem, x0, opts), *solve_multistart(problem, starts, opts)]
        for start, trace in zip([x0, *starts], traces):
            points = reference_points(problem, start, opts, trace)
            for i, row in enumerate(trace.rows[:-1]):
                if row.cut_count_active == 0:
                    assert points[i + 1].tobytes() == points[i].tobytes()

    def test_equal_shifts_in_new_objects_step(self, monkeypatch):
        # From i = 1 on, harmonic(5e-324) underflows to a new +0.0 object at
        # every step: equal bits, but not the stalled step's shift object,
        # so the stalled run steps at every iteration and still writes the
        # step-by-step loop's trace.
        opts = SolveOptions(schedule=EpsilonSchedule.harmonic(5e-324),
                            record_sublevel_distance=True)
        shift = solver.eps_at(opts.schedule, 1)
        assert shift == 0.0 and shift is not solver.eps_at(opts.schedule, 1)
        evaluated = []
        evaluate = solver.evaluate

        def counting(*args):
            evaluated.append(args)
            return evaluate(*args)

        monkeypatch.setattr(solver, "evaluate", counting)
        trace = solve(BALL, [2.5, -1.5], opts)
        assert trace.status is TerminationStatus.MAX_ITER_EXCEEDED
        assert [row.cut_count_active for row in trace.rows[-3:]] == [0, 0, 0]
        assert len(evaluated) == opts.max_iter + 1
        assert trace_bytes(trace) == trace_bytes(_solve_reference(BALL, [2.5, -1.5], opts)[0])

    def test_fill_stops_where_the_shift_changes(self, monkeypatch):
        # Shift segments, one shift object each: a switch of sign of zero
        # and one of type (0 and 0.0 compare equal) each end a fill, and so
        # does a new value. The schedule says where each segment ends, and
        # the fill asks it once per stall, not the shifts row by row.
        changes = [20, 30, 40, 55, 70]
        shifts = [0.0, -0.0, 0.0, 0, 1e-300, 0.0]

        class Segments:
            """A schedule whose shift object changes at ``changes``."""

            asked = []

            def next_change(self, i):
                self.asked.append(i)
                return next((c for c in changes if c > i), math.inf)

        def shift(schedule, i):
            shift.calls.append(i)
            return shifts[sum(i >= c for c in changes)]

        shift.calls = []
        evaluated = []
        evaluate = solver.evaluate

        def marking(*args):
            evaluated.append(len(shift.calls))
            return evaluate(*args)

        monkeypatch.setattr(solver, "eps_at", shift)
        monkeypatch.setattr(solver, "evaluate", marking)
        opts = SolveOptions(schedule=Segments(), max_iter=100, record_sublevel_distance=True)
        trace = solve(BALL, [2.0, 0.0], opts)
        # solve asks for the shift of iteration i right after evaluating at it.
        at = [shift.calls[k] for k in evaluated]
        assert at == [0, 1, 2, 3, 4, 5, *changes, 100]
        assert shift.calls == at and Segments.asked == [5, *changes]
        assert trace.status is TerminationStatus.MAX_ITER_EXCEEDED
        assert [str(trace.rows[c].eps_i) for c in changes] == ["-0.0", "0.0", "0", "1e-300", "0.0"]
        assert trace_bytes(trace) == trace_bytes(_solve_reference(BALL, [2.0, 0.0], opts)[0])


OPTION_CHOICES = dict(
    infeasible_cut_fallback=st.sampled_from(solver.FALLBACK_MODES),
    record_sublevel_distance=st.booleans(),
)


class TestLockstep:
    """solve_multistart advances its starts together; each run must still
    be the run of solve from that start."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(KINDS), n=st.sampled_from([1, 2, 3, 6, 20]),
           j_max=st.sampled_from([1, 3, 8]), seed=st.integers(0, 2**32 - 1),
           schedule=st.sampled_from(["harmonic", "const", "zero"]), **OPTION_CHOICES)
    def test_random_problems(self, kind, n, j_max, seed, schedule, **options):
        # A constant shift of 1e-20 is below the round-off of most cuts, so
        # runs stall and leave the batch for the loop of solve, which fills
        # the stall.
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, kind, n)
        starts = rng.standard_normal((8, n)) * 10.0 ** rng.uniform(-1.0, 2.0, (8, 1))
        if kind == "shifted_ball_infeasible":
            starts[3] = 0.0
        schedule = SCHEDULES[schedule](0.1 if schedule == "harmonic" else 1e-20)
        opts = SolveOptions(schedule=schedule, max_iter=20, j_max=j_max, **options)
        assert_lockstep_matches_solve(problem, starts, opts)

    # Starts whose runs end with an error status: (status, problem, starts).
    # In the last, the cut is finite but its length overflows.
    EDGE_STARTS = (
        (TerminationStatus.ZERO_SUBGRADIENT, ShiftedBallProblem(2), [[0.0, 0.0]]),
        (TerminationStatus.NONFINITE_STEP, BALL, [[1e200, 0.0], [1.2e154, 0.0]]),
        (TerminationStatus.PROJECTION_FAILED, MaxAffineProblem([[1e-83]], [1e160]), [[0.0]]),
        (TerminationStatus.INFEASIBLE_CUTS, OPPOSING, [[0.0]]),
        (TerminationStatus.NONFINITE_STEP, MaxAffineProblem([[1e200, 1e200]], [1.0]),
         [[1e-300, 0.0]]),
    )

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(edge=st.sampled_from(EDGE_STARTS), seed=st.integers(0, 2**32 - 1),
           schedule=st.sampled_from(["harmonic", "zero"]),
           j_max=st.sampled_from([DEFAULT_J_MAX, 1]), **OPTION_CHOICES)
    def test_batches_mixing_error_statuses(self, edge, seed, schedule, j_max, **options):
        status, problem, edge_starts = edge
        rng = np.random.default_rng(seed)
        starts = list(rng.uniform(-3.0, 3.0, (6, problem.dim)))
        for x0 in edge_starts:
            starts.insert(int(rng.integers(0, len(starts) + 1)), np.array(x0))
        opts = SolveOptions(schedule=SCHEDULES[schedule](0.1), max_iter=15, j_max=j_max,
                            **options)
        traces = assert_lockstep_matches_solve(problem, starts, opts)
        if status is not TerminationStatus.INFEASIBLE_CUTS or (
            options["infeasible_cut_fallback"] == "fail" and j_max != 1
        ):
            assert sum(t.status is status for t in traces) >= len(edge_starts)

    def test_multi_cut_steps_and_closed_form_share_a_batch(self):
        # AXES_MAX has two-cut bundles near the diagonal and one-cut ones
        # elsewhere; some starts are feasible from the outset.
        starts = [[1.0, 1.0], [3.0, -1.0], [-2.0, -2.0], [0.5, 2.5], [2.0, 2.0 + 1e-12]]
        traces = assert_lockstep_matches_solve(AXES_MAX, starts, harmonic_opts())
        counts = {row.cut_count_active for t in traces for row in t.rows[:-1]}
        assert counts == {1, 2}
        assert traces[2].status_iteration == 0

    def test_capped_ties_stay_in_the_batch(self, monkeypatch):
        # On AXES_MAX's diagonal both pieces tie. j_max = 1 caps that
        # two-piece bundle at the top piece's one cut, so these runs take
        # every step in the batch and none reaches the loop of solve. The
        # last three starts are feasible on the diagonal, where the
        # finishing row's J_i is the capped count.
        starts = [[1.0, 1.0], [2.0, 2.0], [0.5, 0.5], [3.0, 3.0], [-1.0, -1.0], [0.0, 0.0],
                  [-2.0, -2.0]]
        opts = harmonic_opts(j_max=1)
        runs = []
        run = solver._run

        def counting(*args):
            runs.append(args)
            return run(*args)

        monkeypatch.setattr(solver, "_run", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = solve_multistart(AXES_MAX, starts, opts)
        monkeypatch.undo()
        assert runs == []
        assert [trace_bytes(t) for t in batch] == [trace_bytes(solve(AXES_MAX, x0, opts))
                                                   for x0 in starts]
        assert all(t.status is TerminationStatus.FEASIBLE_FOUND for t in batch)
        for trace in batch:
            assert all(row.j_i == 1 for row in trace.rows)
            values = AXES_MAX.piece_values(trace.final_x)
            active = int(AXES_MAX.activity_mask(values, values.max()).sum())
            assert trace.rows[-1].j_i == min(active, opts.j_max)
        # The tie was there: each start's first row saw both pieces active.
        assert all(np.ptp(AXES_MAX.piece_values(np.array(x0))) == 0.0 for x0 in starts)

    def test_stalled_runs_leave_the_batch_and_are_filled(self, monkeypatch):
        # The zero shift stalls each run a few steps in. A stalled run
        # leaves the batch for the loop of solve, which writes the rest of
        # the stall without calling the oracle; stepping through the stall
        # in the batch took one oracle call per round, 1,001 in all.
        ball = BallProblem([0.0, 0.0], 1.0)
        starts = [[2.0, 0.0], [-3.0, 0.2], [-1.5, 1.5], [0.5, -2.0]]
        opts = SolveOptions(schedule=ZERO_SHIFT, max_iter=1000)
        traces = assert_lockstep_matches_solve(ball, starts, opts)
        assert all(t.status is TerminationStatus.MAX_ITER_EXCEEDED for t in traces)

        calls = collections.Counter()
        piece_values, evaluate = ball.piece_values, solver.evaluate

        def counting_values(X):
            calls["piece_values"] += 1
            return piece_values(X)

        def counting_evaluate(*args):
            calls["evaluate"] += 1
            return evaluate(*args)

        monkeypatch.setattr(ball, "piece_values", counting_values)
        monkeypatch.setattr(solver, "evaluate", counting_evaluate)
        again = solve_multistart(ball, starts, opts)
        # Every oracle call, batched or through evaluate, calls piece_values.
        assert 0 < calls["evaluate"] < calls["piece_values"] < 50
        assert [trace_bytes(t) for t in again] == [trace_bytes(t) for t in traces]

    # Piece values at (1e200, 0) are [nan, -1, inf], so f is NaN there: the
    # first piece's x1^2 is inf and its -1e300 x1 is -inf. Its step is never
    # settled, so the run leaves the batch before the loop of solve reports
    # NonfiniteStep. Starts with x1 > 0 follow the third piece, a disk, from
    # inside the batch; (-1e-299, 2) has a cut normal of length 1e300, whose
    # square overflows, and (0.5, 0.5) is feasible from the outset.
    NAN_VALUE = MaxQuadraticsProblem([(np.eye(2), [-1e300, 0.0], 0.0),
                                      (np.zeros((2, 2)), [0.0, 0.0], -1.0),
                                      (np.eye(2), [0.0, 0.0], -1.0)])

    @pytest.mark.parametrize("schedule", ["harmonic", "zero"])
    @pytest.mark.parametrize("max_iter", [1, 2, 20])
    def test_nan_value_leaves_the_batch(self, schedule, max_iter):
        starts = [[2.0, 1.0], [1e200, 0.0], [3.0, -2.0], [0.5, 0.5], [-1e-299, 2.0],
                  [1.5, 4.0]]
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(self.NAN_VALUE.piece_values(np.array(starts[1]))[0])
        opts = SolveOptions(schedule=SCHEDULES[schedule](0.1), max_iter=max_iter)
        traces = assert_lockstep_matches_solve(self.NAN_VALUE, starts, opts)
        assert traces[1].status is TerminationStatus.NONFINITE_STEP
        assert traces[1].status_iteration == 0 and math.isnan(traces[1].final_f)
        assert traces[3].status is TerminationStatus.FEASIBLE_FOUND
        if max_iter < 20:
            assert traces[0].status is TerminationStatus.MAX_ITER_EXCEEDED

    def test_ended_runs_are_plain_records(self, monkeypatch):
        # (-2, -2) is feasible at round 0. (3, 1) steps once in the batch, to
        # a point where the second piece is still positive, and max_iter = 1
        # ends it there. (1, 1) ties both pieces, and the loop of solve ends
        # its run after its two-cut step.
        starts = [[-2.0, -2.0], [3.0, 1.0], [1.0, 1.0]]
        runs = []
        run = solver._run

        def counting(problem, x, *args):
            runs.append(x.tolist())
            return run(problem, x, *args)

        monkeypatch.setattr(solver, "_run", counting)
        batch = solve_multistart(AXES_MAX, starts, harmonic_opts(max_iter=1,
                                                                 record_sublevel_distance=True))
        monkeypatch.undo()
        assert runs == [[1.0, 1.0]]
        assert [t.status for t in batch] == [TerminationStatus.FEASIBLE_FOUND,
                                             TerminationStatus.MAX_ITER_EXCEEDED,
                                             TerminationStatus.FEASIBLE_FOUND]
        singles = [solve(problem, x0, opts) for problem, x0, opts in (
            (AXES_MAX, starts[1], harmonic_opts(max_iter=1)),
            (BALL, [2.0, 0.0], harmonic_opts(record_sublevel_distance=True)),
            (BALL, [2.0, 0.0], SolveOptions(schedule=ZERO_SHIFT, max_iter=50)),
            (OPPOSING, [0.0], harmonic_opts(infeasible_cut_fallback="fail")),
        )]
        for trace in batch + singles:
            assert_plain_record(trace)

    def test_equal_calls_give_equal_traces(self):
        # Each run builds its rows and final_x anew; traces compare by
        # final_x's bytes and by their rows' cells.
        starts = [[-2.0, -2.0], [3.0, 1.0], [1.0, 1.0]]
        opts = harmonic_opts(record_sublevel_distance=True)
        assert solve_multistart(AXES_MAX, starts, opts) == solve_multistart(AXES_MAX, starts, opts)
        trace = solve(BALL, [2.0, 0.0], opts)
        assert trace == solve(BALL, [2.0, 0.0], opts)
        assert trace != dataclasses.replace(trace, rows=trace.rows[:-1])
        assert trace != dataclasses.replace(trace, status_iteration=0)
        assert_compares_by_bytes(trace, "final_x")
        assert_compares_by_bytes(trace, "final_f")
        # A run that ends with a NaN value and NaN cells equals itself.
        nan_run = solve(self.NAN_VALUE, [1e200, 0.0], opts)
        assert math.isnan(nan_run.final_f) and math.isnan(nan_run.rows[-1].f_xi)
        assert nan_run == nan_run and not nan_run != nan_run
        assert nan_run == dataclasses.replace(nan_run)
        assert nan_run == solve(self.NAN_VALUE, [1e200, 0.0], opts)
        assert_compares_by_bytes(nan_run, "final_f")


class TestNonconvexLocal:
    # 20 starts uniform in a disk about the corner: of radius 0.5 (seed 11),
    # where at least 19 runs end feasible, and of radius 1.5, the disk of
    # the nonconvex_multistart benchmark (seeds 0-4). Each batch gives every
    # start solve's trace; at max_iter 1 and 2 some runs end
    # MaxIterExceeded inside the batch.
    @pytest.mark.parametrize("max_iter", [1, 2, 500])
    @pytest.mark.parametrize("seed, radius", [(11, 0.5), *((seed, 1.5) for seed in range(5))])
    def test_multistart_near_boundary_succeeds(self, seed, radius, max_iter):
        problem = nonconvex_default_problem()
        corner = nonconvex_default_boundary()
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((20, 2))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        starts = corner + radius * raw * rng.random((20, 1)) ** 0.5
        traces = assert_lockstep_matches_solve(problem, starts, harmonic_opts(max_iter=max_iter))
        statuses = [t.status for t in traces]
        if max_iter < 500:
            assert TerminationStatus.MAX_ITER_EXCEEDED in statuses
        elif radius == 0.5:
            assert statuses.count(TerminationStatus.FEASIBLE_FOUND) >= 19


@st.composite
def interior_ball_instances(draw):
    """A convex problem, a ball B(z, rho) inside every {f <= -eps_i}, the
    bound L on its subgradient norms along a run, starts, and a shift.

    A ball has z at its center, and rho = sqrt(r^2 - eps_0). A max-affine
    problem is built around z with f(z) <= -delta, so that f(y) <= -delta +
    L ||y - z|| with L = max ||c_j||, and rho = (delta - eps_0) / L. In the
    orthant case the pieces are s_j (y_j - z_j) - delta, and the first
    start ties all of them, so that its first bundle has a cut per piece.
    Both shifts, harmonic and positive constant, stay at or below eps_0 <=
    delta / 10.
    """
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["ball", "max_affine", "orthant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.uniform(-2.0, 2.0, n)
    if kind == "ball":
        r = rng.uniform(0.5, 3.0)
        delta = r * r
        problem = BallProblem(z, r)
    else:
        delta = 10.0 ** rng.uniform(-1.0, 1.0)
        if kind == "orthant":
            C = np.diag(10.0 ** rng.uniform(-1.0, 1.0, n))
            margin = 0.0
        else:
            k = int(rng.integers(1, 8))
            C = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-1.0, 1.0, (k, 1))
            # Half the pieces stay below -delta at z by a random margin.
            margin = rng.exponential(delta, k) * (rng.random(k) < 0.5)
        problem = MaxAffineProblem(C, -C @ z - delta - margin)
        L = float(np.linalg.norm(C, axis=1).max())
    eps0 = delta * draw(st.floats(1e-3, 0.1))
    rho = math.sqrt(r * r - eps0) if kind == "ball" else (delta - eps0) / L
    direction = rng.standard_normal((4, n))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    starts = z + direction * rho * 10.0 ** rng.uniform(0.1, 3.0, (4, 1))
    if kind == "orthant":
        starts[0] = z + rho * 10.0 ** rng.uniform(0.1, 3.0) / np.diag(C)
    if kind == "ball":
        # ||x_i - z|| never grows, so 2 ||x_0 - z|| bounds each gradient.
        L = 2.0 * float(np.linalg.norm(starts - z, axis=1).max())
    schedule = draw(st.sampled_from([EpsilonSchedule.harmonic,
                                     EpsilonSchedule.constant_for_testing]))
    return problem, z, rho, L, starts, schedule(eps0)


class TestFiniteTermination:
    """Fukushima's argument, step by step. A cut that contains B(z, rho)
    makes each projection step of length d_i bring x closer to z:
    ||x_{i+1} - z||^2 <= ||x_i - z||^2 - d_i^2 - 2 rho d_i. The top piece's
    cut is violated by at least eps_i / L, so d_i >= eps_i / L, and no run
    can make N steps with sum_{i<N} eps_i > L ||x_0 - z||^2 / (2 rho).

    Bundles of several cuts keep the default activity tolerance: a large
    one gives cuts that are not linearizations of f.
    """

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(instance=interior_ball_instances(), j_max=st.sampled_from([1, DEFAULT_J_MAX]),
           batched=st.booleans())
    def test_each_step_approaches_an_interior_ball(self, instance, j_max, batched):
        problem, z, rho, L, starts, schedule = instance
        opts = SolveOptions(schedule=schedule, j_max=j_max, max_iter=300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if batched:
                traces = solve_multistart(problem, starts, opts)
            else:
                traces = [solve(problem, starts[0], opts)]
        for x0, trace in zip(starts, traces):
            assert trace.status in (TerminationStatus.FEASIBLE_FOUND,
                                    TerminationStatus.MAX_ITER_EXCEEDED)
            points = reference_points(problem, x0, opts, trace)
            gaps = [float(np.sum((x - z) ** 2)) for x in points]
            for row, now, after in zip(trace.rows, gaps, gaps[1:]):
                d = row.step_norm
                assert after <= now - d * d - 2.0 * rho * d + 1e-12 * now
            steps = trace.rows[:-1]
            assert math.fsum(row.eps_i for row in steps) <= L * gaps[0] / (2.0 * rho)


# Run in a fresh process in which every import of SciPy fails.
NO_SCIPY_SCRIPT = r"""
import json, sys
sys.modules["scipy"] = None
from epscut import (BallProblem, CutPolyhedron, SolveOptions, TerminationStatus,
                    chebyshev_point, check_variational_inequality, cli, geometry,
                    problem_to_dict, solve)
from test_corpus import _max_affine

trace = solve(BallProblem([0.0, 0.0], 1.0), [2.0, 0.0],
              SolveOptions(record_sublevel_distance=True))
assert trace.status is TerminationStatus.FEASIBLE_FOUND
assert trace.rows[-1].dist_sublevel == 0.0

drops = []
drop = geometry._WorkingSet.drop
geometry._WorkingSet.drop = lambda ws, j: (drops.append(j), drop(ws, j))[1]
problem, x0 = _max_affine(11, 20, 16)
trace = solve(problem, x0, SolveOptions(j_max=64, record_sublevel_distance=True))
assert trace.status is TerminationStatus.FEASIBLE_FOUND
assert drops

with open(sys.argv[1], "w") as handle:
    json.dump(problem_to_dict(BallProblem([0.0, 0.0], 1.0)), handle)
assert cli.main(["diagnose", "--problem", sys.argv[1], "--x0", "2,0"]) == 0

slab = CutPolyhedron([[-1.0, 0.0], [1.0, 0.0]], [0.0, 1.0])
res = geometry.project_polyhedron([2.0, 0.5], slab)
assert chebyshev_point(slab, res.point) is not None
report = check_variational_inequality([2.0, 0.5], res, slab, samples=10, seed=0)
assert report.max_normalized_violation <= 1e-9
assert not [m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None]
"""


def test_solve_path_runs_without_scipy(tmp_path):
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), str(root / "tests"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path / "ball.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
