"""Diagnostics tests: rate fits, modulus lower bounds, trace contrast."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epscut import (
    BallProblem,
    DimensionMismatchError,
    EpscutError,
    EpsilonSchedule,
    InsufficientDataError,
    NotAvailableError,
    SolveOptions,
    TerminationStatus,
    SublevelEmptyError,
    claim_contrast,
    estimate_kappa,
    exact_sublevel_distance,
    fit_decay_rate,
    nonconvex_default_problem,
    solve,
)
from epscut import diagnostics
from test_problems import random_problem

BALL = BallProblem([0.0, 0.0], 1.0)


def ball_trace(schedule=EpsilonSchedule.harmonic(0.1, 1.0), **kwargs):
    opts = SolveOptions(
        schedule=schedule,
        record_sublevel_distance=True,
        **kwargs,
    )
    return solve(BALL, [2.0, 0.0], opts)


class TestFitDecayRate:
    def test_exact_geometric(self):
        fit = fit_decay_rate([1.0, 0.5, 0.25, 0.125])
        assert fit.rho == pytest.approx(0.5, abs=1e-15)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 4

    def test_harmonic_values_fit_poorly_late(self):
        # Frozen from an ordinary least-squares fit of log(1/(i+1)) on i.
        fit = fit_decay_rate([1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5])
        assert fit.rho == pytest.approx(0.6762433378062414, abs=1e-12)
        assert fit.r2 == pytest.approx(0.9473245635652926, abs=1e-12)
        ratios = [1 / 2, 2 / 3, 3 / 4, 4 / 5]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_constant_values(self):
        fit = fit_decay_rate([3.0, 3.0, 3.0])
        assert fit.rho == 1.0
        assert fit.r2 == 1.0

    def test_geometric_property_battery(self, rng):
        for _ in range(20):
            q = float(rng.uniform(0.05, 0.95))
            c = float(10.0 ** rng.uniform(-3, 3))
            values = c * q ** np.arange(8)
            fit = fit_decay_rate(values)
            assert fit.rho == pytest.approx(q, abs=1e-12)
            assert fit.r2 == pytest.approx(1.0, abs=1e-10)

    def test_scale_invariance(self, rng):
        values = [1.7, 0.9, 0.31, 0.11, 0.04]
        base = fit_decay_rate(values)
        for alpha in (2.0, 0.25, 1024.0):
            scaled = fit_decay_rate([alpha * v for v in values])
            assert scaled.rho == base.rho
        for alpha in (3.7, 10.0, 0.013):
            scaled = fit_decay_rate([alpha * v for v in values])
            assert scaled.rho == pytest.approx(base.rho, rel=1e-13)

    def test_trailing_zeros_trimmed(self):
        fit = fit_decay_rate([1.0, 0.5, 0.25, 0.0, 0.0])
        assert fit.n_points == 3
        assert fit.rho == pytest.approx(0.5, abs=1e-15)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_decay_rate([1.0, 0.5])
        with pytest.raises(InsufficientDataError):
            fit_decay_rate([1.0, 0.5, 0.0, 0.0])

    def test_interior_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_decay_rate([1.0, 0.0, 0.5, 0.25])
        with pytest.raises(ValueError):
            fit_decay_rate([1.0, -0.5, 0.25])


class TestEstimateKappa:
    def test_single_point(self):
        ratio = estimate_kappa(BALL, [[2.0, 0.0]], eps=0.19)
        assert ratio == pytest.approx(1.1 / 3.19, abs=1e-14)

    def test_ray_maximum_at_smallest_radius(self):
        points = [[t, 0.0] for t in np.linspace(1.1, 3.0, 25)]
        ratio = estimate_kappa(BALL, points, eps=0.0)
        # (t - 1)/(t^2 - 1) = 1/(t + 1) peaks at the smallest radius.
        assert ratio == pytest.approx(1.0 / 2.1, abs=1e-12)

    def test_large_value_gives_small_ratio(self):
        ratio = estimate_kappa(BALL, [[100.0, 0.0]], eps=0.0)
        assert ratio < 0.02

    def test_monotone_under_inclusion(self):
        small = [[1.5, 0.0], [2.0, 0.0]]
        large = small + [[1.1, 0.0]]
        assert estimate_kappa(BALL, large, 0.0) >= estimate_kappa(BALL, small, 0.0)

    def test_requires_positive_denominator(self):
        with pytest.raises(ValueError):
            estimate_kappa(BALL, [[0.5, 0.0]], eps=0.0)

    def test_not_available_propagates(self):
        with pytest.raises(NotAvailableError):
            estimate_kappa(nonconvex_default_problem(), [[3.0, 0.0]], eps=0.0)


def kappa_loop(problem, points, eps):
    """estimate_kappa as it was, one value and one distance call per point:
    the reference the batched form must match bit for bit."""
    points = list(points)
    if not points:
        raise ValueError("at least one point is required")
    best = 0.0
    for idx, x in enumerate(points):
        f = problem.value(x)
        denom = f + eps
        if not denom > 0.0:
            raise ValueError(f"point {idx}: f(x) + eps = {denom} is not positive")
        d = exact_sublevel_distance(problem, x, eps)
        best = max(best, d / denom)
    return best


def raised(call):
    """The exception ``call`` raises, as (type, message)."""
    with pytest.raises((EpscutError, ValueError)) as info:
        call()
    return type(info.value), str(info.value)


class TestKappaMatchesTheLoop:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["ball", "max_affine"]), n=st.sampled_from([1, 2, 5, 30]),
           m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_bit_for_bit(self, kind, n, m, seed):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, kind, n)
        X = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (m, 1))
        if kind == "ball":
            # From just outside the ball to far away, and at times its center.
            radial = 1.0 + 10.0 ** rng.uniform(-8.0, 3.0, (m, 1))
            X = problem.center + problem.radius * radial * X / np.linalg.norm(X, axis=1, keepdims=True)
            if rng.random() < 0.2:
                X[rng.integers(m)] = problem.center
        if rng.random() < 0.2:
            # f and d both overflow to inf there: a NaN ratio.
            X[rng.integers(m)] = 1e200
        eps = 0.0 if rng.random() < 0.5 else float(10.0 ** rng.uniform(-6.0, 0.0))
        if kind == "ball":
            eps *= problem.radius**2
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                expected = kappa_loop(problem, X, eps)
            except EpscutError:
                # An empty shifted set or a failed projection; which error
                # wins is pinned in test_which_error_wins.
                return
            except ValueError:
                # The first point with f(x) + eps <= 0, named alike.
                assert raised(lambda: estimate_kappa(problem, X, eps)) == \
                    raised(lambda: kappa_loop(problem, X, eps))
                return
            got = estimate_kappa(problem, X, eps)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()
            assert estimate_kappa(problem, list(X), eps) == got

    def test_nan_ratios_are_skipped(self):
        far, near = [1e200, 0.0], [2.0, 0.0]
        with np.errstate(over="ignore"):
            assert math.isnan(exact_sublevel_distance(BALL, far, 0.0) / BALL.value(far))
            for points in ([far, near], [near, far], [far, near, far]):
                assert estimate_kappa(BALL, points, 0.0) == kappa_loop(BALL, points, 0.0) == 1.0 / 3.0
            assert estimate_kappa(BALL, [far], 0.0) == kappa_loop(BALL, [far], 0.0) == 0.0

    def test_first_bad_point_is_named(self):
        points = [[2.0, 0.0], [3.0, 0.0], [0.5, 0.0], [0.2, 0.0]]
        error = raised(lambda: estimate_kappa(BALL, points, 0.0))
        assert error == (ValueError, "point 2: f(x) + eps = -0.75 is not positive")
        assert error == raised(lambda: kappa_loop(BALL, points, 0.0))

    # (problem, points, eps, error of estimate_kappa, whether the loop raised
    # the same). The loop checked each point in turn and made the
    # problem-wide checks of exact_sublevel_distance after point 0; the
    # batch checks every point first.
    PRECEDENCE = {
        "no-points": (BALL, [], 0.0, (ValueError, "at least one"), True),
        "eps-alone": (BALL, [[2.0, 0.0]], -0.1, (ValueError, "eps must be nonnegative"), True),
        "denominator-0-over-kind": (
            nonconvex_default_problem(), [[1.0, 0.0], [3.0, 0.0]], 0.0,
            (ValueError, "point 0"), True),
        "dimension-over-eps": (BALL, [[2.0, 0.0, 0.0]], -1.0, (DimensionMismatchError, ""), True),
        "point-1-over-kind": (
            nonconvex_default_problem(), [[3.0, 0.0], [math.nan, 0.0]], 0.0,
            (ValueError, "finite"), False),
        "denominator-2-over-eps": (
            BALL, [[2.0, 0.0], [3.0, 0.0], [0.5, 0.0]], -0.1, (ValueError, "point 2"), False),
        "denominator-1-over-empty-set": (
            BALL, [[2.0, 0.0], [0.0, 0.0]], 1.0, (ValueError, "point 1"), False),
        "non-finite-2-over-denominator-0": (
            BALL, [[0.5, 0.0], [2.0, 0.0], [math.inf, 0.0]], 0.0, (ValueError, "finite"), False),
        "ragged": (BALL, [[2.0, 0.0], [2.0, 0.0, 0.0]], 0.0, (ValueError, "inhomogeneous"), False),
        # The loop took each (2, 2) entry as a point and raised for its shape.
        "stack-of-stacks": (
            BALL, np.full((2, 2, 2), 3.0), 0.0,
            (ValueError, "expected an (m, n) stack of points, got shape (2, 2, 2)"), False),
    }

    @pytest.mark.parametrize("case", PRECEDENCE)
    def test_which_error_wins(self, case):
        problem, points, eps, (error, match), same_as_loop = self.PRECEDENCE[case]
        got = raised(lambda: estimate_kappa(problem, points, eps))
        assert got[0] is error and match in got[1]
        assert (got == raised(lambda: kappa_loop(problem, points, eps))) == same_as_loop

    def test_one_distance_call_for_all_points(self, monkeypatch):
        calls = []

        def counted(problem, x, eps):
            calls.append(np.shape(x))
            return exact_sublevel_distance(problem, x, eps)

        monkeypatch.setattr(diagnostics, "exact_sublevel_distance", counted)
        points = [[t, 0.0] for t in np.linspace(1.1, 3.0, 25)]
        assert estimate_kappa(BALL, points, 0.0) == kappa_loop(BALL, points, 0.0)
        assert calls == [(25, 2)]


class TestClaimContrast:
    def test_ball_run_report(self):
        trace = ball_trace()
        report = claim_contrast(trace)
        assert report.terminated
        assert report.termination_index == 3
        dist = report.dist
        assert all(b < a for a, b in zip(dist, dist[1:]))
        assert report.rate.rho < 1.0
        assert report.l_hat > 0.0
        assert len(report.eps_over_dist) == len(dist)
        assert "terminated" in report.verdict

    def test_zero_shift_baseline_decays_without_terminating(self):
        trace = ball_trace(EpsilonSchedule.constant_for_testing(0.0), max_iter=50)
        report = claim_contrast(trace)
        assert not report.terminated
        assert report.rate.rho < 1.0
        assert all(row.f_xi > 0.0 for row in trace.rows)
        assert report.l_hat == 0.0

    def test_short_trace_insufficient(self):
        trace = solve(
            BALL, [0.5, 0.0], SolveOptions(record_sublevel_distance=True)
        )
        assert trace.status is TerminationStatus.FEASIBLE_FOUND
        with pytest.raises(InsufficientDataError):
            claim_contrast(trace)

    def test_unrecorded_trace_insufficient(self):
        trace = solve(BALL, [2.0, 0.0], SolveOptions())
        with pytest.raises(InsufficientDataError):
            claim_contrast(trace)

    def test_report_serializes(self):
        report = claim_contrast(ball_trace())
        payload = report.to_dict()
        assert set(payload) == {
            "rate", "dist", "eps_over_dist", "l_hat", "terminated",
            "termination_index", "verdict",
        }
        assert payload["rate"]["n_points"] >= 3
