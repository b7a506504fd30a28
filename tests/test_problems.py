"""Oracle tests: values, bundles, generalized-gradient validity, distances."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    BOOLEAN_SPECS,
    HUGE_DIM_SPECS,
    INCOMPLETE_SPECS,
    MALFORMED_SPECS,
    NULL_OR_HUGE_SPECS,
    STRING_SPECS,
)
from epscut.problems import KINDS, Evaluation
from epscut import (
    BallBody,
    BallProblem,
    DimensionMismatchError,
    EpscutError,
    HalfspaceBody,
    MaxAffineProblem,
    MaxQuadraticsProblem,
    NotAvailableError,
    Problem,
    ShiftedBallProblem,
    SipDistanceProblem,
    SublevelEmptyError,
    check_approximate_convexity,
    evaluate,
    exact_sublevel_distance,
    nonconvex_default_boundary,
    nonconvex_default_problem,
    problem_from_dict,
    problem_to_dict,
    supports_sublevel_distance,
)

AXES_MAX = MaxAffineProblem([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], activity_tol=0.0)


class TestEvaluate:
    def test_ball_value_and_gradient(self):
        ev = evaluate(BallProblem([0.0, 0.0], 1.0), [2.0, 0.0])
        assert ev.value == 3.0
        assert len(ev.bundle) == 1
        assert_allclose(ev.bundle[0], [4.0, 0.0])

    def test_max_affine_kink_returns_both_pieces(self):
        ev = evaluate(AXES_MAX, [1.0, 1.0])
        assert ev.value == 1.0
        assert len(ev.bundle) == 2
        assert_allclose(ev.bundle[0], [1.0, 0.0])
        assert_allclose(ev.bundle[1], [0.0, 1.0])

    def test_sip_distance_argmax_body(self):
        problem = SipDistanceProblem(
            [BallBody([0.0, 0.0], 1.0), HalfspaceBody([1.0, 0.0], 0.0)]
        )
        ev = evaluate(problem, [2.0, 0.0])
        assert ev.value == 2.0
        assert len(ev.bundle) == 1
        assert_allclose(ev.bundle[0], [1.0, 0.0])

    def test_bundle_ordered_most_active_first_and_capped(self):
        problem = MaxAffineProblem(
            [[1.0, 0.0], [0.9, 0.0], [0.8, 0.0]],
            [0.0, 0.0, 0.0],
            activity_tol=10.0,
        )
        ev = evaluate(problem, [1.0, 0.0], j_max=2)
        assert ev.active == [0, 1]
        ev_all = evaluate(problem, [1.0, 0.0], j_max=8)
        assert ev_all.active == [0, 1, 2]

    def test_adaptive_activity_threshold_keeps_near_kink(self):
        problem = MaxAffineProblem([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        ev = evaluate(problem, [1.0, 1.0 - 1e-12])
        assert len(ev.bundle) == 2

    def test_deterministic_bit_identical(self):
        problem = nonconvex_default_problem()
        x = [0.731, -1.12]
        e1, e2 = evaluate(problem, x), evaluate(problem, x)
        assert e1.value == e2.value
        assert all(np.array_equal(a, b) for a, b in zip(e1.bundle, e2.bundle))

    def test_sip_zero_distance_body_excluded_while_infeasible(self):
        problem = SipDistanceProblem(
            [BallBody([0.0, 0.0], 1.0), HalfspaceBody([1.0, 0.0], -1.0)]
        )
        # Inside the ball (distance 0) but 1e-10 outside the halfspace: the
        # ball would be activity-threshold-active yet only contributes a zero
        # vector, which must not enter the bundle while f > 0.
        ev = evaluate(problem, [-1.0 + 1e-10, 0.0])
        assert ev.value > 0.0
        assert ev.active == [1]
        assert np.linalg.norm(ev.bundle[0]) > 0.0

    def test_sip_zero_at_feasible_point(self):
        problem = SipDistanceProblem(
            [BallBody([0.0, 0.0], 1.0), HalfspaceBody([1.0, 0.0], 0.0)]
        )
        ev = evaluate(problem, [-0.5, 0.0])
        assert ev.value == 0.0

    def test_shifted_ball_zero_gradient_at_origin(self):
        ev = evaluate(ShiftedBallProblem(2), [0.0, 0.0])
        assert ev.value == 1.0
        assert np.array_equal(ev.bundle[0], [0.0, 0.0])

    def test_j_max_validation(self):
        with pytest.raises(ValueError):
            evaluate(BallProblem(), [1.0, 0.0], j_max=0)

    @pytest.mark.parametrize("j_max", [2.5, 1.0, None, "3", True])
    def test_j_max_must_be_an_integer(self, j_max):
        # A float, a string or None raised a bare TypeError from the range
        # check or the bundle slice, and True capped the bundle at one piece.
        with pytest.raises(ValueError, match="j_max must be an integer"):
            evaluate(BallProblem(), [1.0, 0.0], j_max)


def test_evaluation_is_a_named_tuple():
    ev = evaluate(AXES_MAX, [1.0, 1.0])
    assert Evaluation._fields == ("value", "bundle", "active")
    value, bundle, active = ev
    assert (value, active) == (ev.value, ev.active) == (1.0, [0, 1])
    assert bundle is ev.bundle
    assert repr(Evaluation(1.0, None, [0])) == "Evaluation(value=1.0, bundle=None, active=[0])"


class TestOracleContract:
    PROBLEMS = [
        BallProblem([0.3, -0.2, 0.1], 1.5),
        ShiftedBallProblem(3),
        MaxAffineProblem([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]], [0.1, -0.2]),
        MaxQuadraticsProblem([
            ([[1.0, 0.5, 0.0], [0.5, -2.0, 0.3], [0.0, 0.3, 0.4]], [0.1, 0.0, -1.0], 0.5),
            (np.eye(3), [0.0, 1.0, 0.0], -4.0),
        ]),
        SipDistanceProblem(
            [BallBody([0.0, 0.0, 0.0], 1.0), HalfspaceBody([1.0, 1.0, 0.0], 0.5)]
        ),
    ]

    @pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.kind)
    def test_methods_broadcast_over_leading_axes(self, problem, rng):
        X = rng.uniform(-2.0, 2.0, size=(4, 5, problem.dim))
        X[0, 0] = 0.0
        values = problem.piece_values(X)
        grads = problem.piece_gradients(X)
        k = values.shape[-1]
        assert values.shape == (4, 5, k)
        assert grads.shape == (4, 5, k, problem.dim)
        for idx in np.ndindex(4, 5):
            assert_allclose(values[idx], problem.piece_values(X[idx]), rtol=1e-14)
            assert_allclose(grads[idx], problem.piece_gradients(X[idx]), rtol=1e-14)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(KINDS), n=st.sampled_from([1, 2, 3, 8, 20, 200]),
           seed=st.integers(0, 2**32 - 1))
    def test_batch_is_bit_identical_to_points(self, kind, n, seed):
        # solve_multistart evaluates a batch of points where solve evaluates
        # one; both must see the same bits.
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, kind, n)
        X = rng.standard_normal((12, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (12, 1))
        values = problem.piece_values(X)
        grads = problem.piece_gradients(X)
        for x, v, g in zip(X, values, grads):
            assert v.tobytes() == problem.piece_values(x).tobytes()
            assert g.tobytes() == problem.piece_gradients(x).tobytes()

    @pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.kind)
    def test_bundle_is_gradient_rows_of_active_pieces(self, problem, rng):
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, size=problem.dim)
            ev = evaluate(problem, x)
            assert ev.bundle.shape == (len(ev.active), problem.dim)
            assert np.array_equal(ev.bundle, problem.piece_gradients(x)[ev.active])


class TestGradientValidity:
    def test_finite_difference_at_smooth_points(self, rng):
        problems = [
            BallProblem([0.3, -0.2], 1.5),
            nonconvex_default_problem(),
            ShiftedBallProblem(2),
        ]
        for problem in problems:
            for _ in range(20):
                x = rng.uniform(-1.5, 1.5, size=2)
                ev = evaluate(problem, x)
                if len(ev.bundle) != 1:
                    continue
                s = ev.bundle[0]
                d = rng.standard_normal(2)
                d /= np.linalg.norm(d)
                for h in (1e-4, 1e-5):
                    lhs = problem.value(x + h * d) - ev.value - h * float(np.dot(s, d))
                    assert abs(lhs) <= 10.0 * h**2

    def test_clarke_membership_at_kinks(self, rng):
        # For a maximum of smooth pieces the generalized directional
        # derivative equals the max of active-piece directional derivatives.
        problem = nonconvex_default_problem(activity_tol=1e-9)
        kink = nonconvex_default_boundary() * 1.2  # outside, near the corner ray
        ev = evaluate(problem, kink)
        grads = problem.piece_gradients(kink)
        values = problem.piece_values(kink)
        active = [j for j in range(2) if values[j] >= ev.value - 1e-9]
        for _ in range(50):
            d = rng.standard_normal(2)
            f0 = max(float(np.dot(grads[j], d)) for j in active)
            for s in ev.bundle:
                assert float(np.dot(s, d)) <= f0 + 1e-12

    def test_sip_unit_norm_at_unique_argmax(self, rng):
        problem = SipDistanceProblem(
            [BallBody([0.0, 0.0], 1.0), HalfspaceBody([0.0, 1.0], -2.0)]
        )
        for _ in range(20):
            x = rng.uniform(-3, 3, size=2)
            ev = evaluate(problem, x)
            if ev.value <= 0.0 or len(ev.bundle) != 1:
                continue
            assert np.linalg.norm(ev.bundle[0]) == pytest.approx(1.0, abs=1e-12)

    def test_sip_zero_iff_in_intersection(self):
        problem = SipDistanceProblem(
            [BallBody([0.0, 0.0], 1.0), HalfspaceBody([1.0, 0.0], 0.0)]
        )
        assert problem.value([-0.3, 0.2]) == 0.0
        assert problem.value([0.5, 0.0]) > 0.0  # in ball, outside halfspace
        assert problem.value([-3.0, 0.0]) > 0.0  # in halfspace, outside ball


class TestApproximateConvexity:
    def test_ball_satisfies_with_any_shift(self):
        report = check_approximate_convexity(
            BallProblem([0.2, -0.4], 1.3), [1.0, 1.0], delta=2.0, eps_ac=1e-6,
            pairs=5000, seed=3,
        )
        assert report.worst_violation <= 1e-10

    def test_max_affine_satisfies(self):
        report = check_approximate_convexity(
            AXES_MAX, [0.0, 0.0], delta=3.0, eps_ac=1e-6, pairs=5000, seed=4
        )
        assert report.worst_violation <= 1e-10

    def test_nonconvex_instance_near_smooth_center(self):
        report = check_approximate_convexity(
            nonconvex_default_problem(), [0.5, 0.3], delta=0.2, eps_ac=0.5,
            pairs=10_000, seed=5,
        )
        assert report.worst_violation <= 0.0

    def test_sip_zero_distance_piece_stays_out(self):
        # Near [1.05, 0] every point lies in the second disk, where its
        # distance is 0 with a zero gradient, and outside the first. With
        # activity_tol = 0.3 that piece is within the threshold of the
        # maximum, but evaluate never puts it in a bundle while f > 0, and
        # the check must not test it either: the instance is convex.
        problem = SipDistanceProblem(
            [BallBody([0.0, 0.0], 1.0), BallBody([1.0, 0.0], 1.0)], activity_tol=0.3
        )
        assert evaluate(problem, [1.05, 0.0]).active == [0]
        report = check_approximate_convexity(
            problem, [1.05, 0.0], delta=0.05, eps_ac=1e-3, pairs=2000, seed=0
        )
        assert report.worst_violation <= 0.0

    def test_deterministic(self):
        p = nonconvex_default_problem()
        a = check_approximate_convexity(p, [0.5, 0.3], 0.2, 0.5, pairs=500, seed=9)
        b = check_approximate_convexity(p, [0.5, 0.3], 0.2, 0.5, pairs=500, seed=9)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            check_approximate_convexity(AXES_MAX, [0.0, 0.0], 0.0, 0.5)
        with pytest.raises(ValueError):
            check_approximate_convexity(AXES_MAX, [0.0, 0.0], 0.1, 0.0)

    @pytest.mark.parametrize("value", ["1", 10**400, True, math.inf, math.nan, 0.0, -1.0],
                             ids=["str", "10**400", "bool", "inf", "nan", "zero", "negative"])
    @pytest.mark.parametrize("field", ["delta", "eps_ac"])
    def test_radius_and_slack_must_be_positive_finite_reals(self, field, value):
        # A string raised a bare TypeError, 10**400 a bare OverflowError,
        # True ran as 1, and delta=inf returned -inf after NaN warnings.
        args = {"delta": 0.1, "eps_ac": 0.5, field: value}
        with pytest.raises(ValueError, match=f"^{field} "):
            check_approximate_convexity(AXES_MAX, [0.0, 0.0], pairs=10, **args)

    def test_numpy_pair_count_is_reported_as_an_int(self):
        # The report carried the NumPy count it was given.
        args = (nonconvex_default_problem(), [0.5, 0.3], 0.2, 0.5)
        report = check_approximate_convexity(*args, pairs=np.int64(50), seed=9)
        assert type(report.n_pairs) is int
        assert report == check_approximate_convexity(*args, pairs=50, seed=9)

    @pytest.mark.parametrize("pairs", [2.5, True])
    def test_pairs_must_be_an_integer(self, pairs):
        # Both raised a bare TypeError from the sampler.
        with pytest.raises(ValueError, match="pairs must be an integer"):
            check_approximate_convexity(AXES_MAX, [0.0, 0.0], 0.1, 0.5, pairs=pairs)


NAN, INF = float("nan"), float("inf")


class TestFiniteProblemData:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: BallProblem([0.0, NAN], 1.0),
            lambda: BallProblem([0.0, 0.0], INF),
            lambda: BallProblem([0.0, 0.0], 1e200),
            lambda: ShiftedBallProblem(2, activity_tol=NAN),
            lambda: ShiftedBallProblem(2, activity_tol=INF),
            lambda: MaxAffineProblem([[1.0, NAN]], [0.0]),
            lambda: MaxAffineProblem([[1.0, 0.0]], [-INF]),
            lambda: MaxQuadraticsProblem([([[1.0, NAN], [0.0, 1.0]], [0.0, 0.0], 0.0)]),
            lambda: MaxQuadraticsProblem([(np.eye(2), [0.0, INF], 0.0)]),
            lambda: MaxQuadraticsProblem([(np.eye(2), [0.0, 0.0], NAN)]),
            lambda: MaxQuadraticsProblem([([[0.0, 1.7e308], [1.7e308, 0.0]], [0.0, 0.0], 0.0)]),
            lambda: SipDistanceProblem([BallBody([0.0, 0.0], INF)]),
            lambda: SipDistanceProblem([HalfspaceBody([1.0, 0.0], NAN)]),
            lambda: SipDistanceProblem([HalfspaceBody([0.0, 0.0], 1.0)]),
            lambda: SipDistanceProblem([HalfspaceBody([1e200, 1e200], 1.0)]),
        ],
        ids=[
            "ball-center", "ball-radius", "ball-radius-squared", "shifted-activity-tol-nan",
            "shifted-activity-tol-inf", "max-affine-coef", "max-affine-intercept",
            "quad", "lin", "const", "quad-symmetrized", "sip-ball-radius", "sip-halfspace-offset",
            "sip-halfspace-zero-normal", "sip-halfspace-normal-overflow",
        ],
    )
    def test_constructor_rejects_non_finite(self, build):
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            build()

    def test_symmetrized_quad_overflow_is_rejected_quietly(self):
        # Finite entries whose symmetrized sum overflows: the piece stored
        # inf, with an overflow warning, and f was NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="symmetrized"):
                MaxQuadraticsProblem([([[0.0, 1.7e308], [1.7e308, 0.0]], [0.0, 0.0], 0.0)])

    def test_spec_rejects_non_finite(self):
        spec = problem_to_dict(MaxAffineProblem([[1.0, 0.0]], [0.0]))
        spec["params"]["pieces"][0]["coef"][1] = NAN
        with pytest.raises(ValueError, match="finite"):
            problem_from_dict(spec)
        with pytest.raises(ValueError, match="activity_tol"):
            problem_from_dict({"kind": "ball", "dim": 2, "activity_tol": NAN})
        with pytest.raises(ValueError, match="radius squared"):
            problem_from_dict({"kind": "ball", "dim": 2, "params": {"radius": 1e200}})


class TestArgumentTypes:
    @pytest.mark.parametrize("dim", [2.5, True, "3", None])
    def test_dim_must_be_an_integer(self, dim):
        # 2.5 built a 2-D problem and True a 1-D one; "3" and None raised a
        # bare TypeError.
        with pytest.raises(ValueError, match="dim must be an integer"):
            ShiftedBallProblem(dim)

    def test_numpy_integer_dim_is_stored_as_an_int(self):
        problem = ShiftedBallProblem(np.int64(3))
        assert type(problem.dim) is int and problem.dim == 3

    @pytest.mark.parametrize("tol", [True, "1", 10**400], ids=["bool", "string", "huge-int"])
    def test_activity_tol_must_be_a_real_number(self, tol):
        # True and 10**400 were kept as the tolerance, the latter to raise a
        # bare OverflowError from evaluate; "1" raised a bare TypeError.
        with pytest.raises(ValueError, match="activity_tol"):
            BallProblem([0.0, 0.0], 1.0, activity_tol=tol)

    def test_activity_tol_is_stored_as_a_float(self):
        for tol in (1, np.float64(0.5)):
            assert type(ShiftedBallProblem(2, activity_tol=tol).activity_tol) is float

    @pytest.mark.parametrize("value", ["1", True, 10**400], ids=["string", "bool", "huge-int"])
    @pytest.mark.parametrize("argument, build", [
        ("radius", lambda v: BallProblem([0.0, 0.0], v)),
        ("ball radius", lambda v: BallBody([0.0, 0.0], v)),
        ("halfspace offset", lambda v: HalfspaceBody([1.0, 0.0], v)),
        ("quadratic piece const", lambda v: MaxQuadraticsProblem([(np.eye(2), [0.0, 0.0], v)])),
        ("eps", lambda v: exact_sublevel_distance(BallProblem(), [2.0, 0.0], v)),
    ], ids=["ball", "ball-body", "halfspace-body", "quadratic-const", "sublevel-eps"])
    def test_scalars_must_be_real_numbers(self, argument, build, value):
        # The two radii and eps raised a bare TypeError for "1"; True built
        # the unit ball, and the offset and const took "1" and True as 1.0.
        with pytest.raises(ValueError, match=f"^{argument} "):
            build(value)

    def test_scalars_are_stored_as_floats(self):
        assert type(BallProblem([0.0, 0.0], np.float64(2.0)).radius) is float
        assert type(BallBody([0.0, 0.0], 2).radius) is float
        assert type(HalfspaceBody([1.0, 0.0], np.int64(1)).offset) is float

    @pytest.mark.parametrize("build", [
        lambda: MaxAffineProblem(np.zeros((0, 2)), []),
        lambda: MaxQuadraticsProblem([]),
        lambda: SipDistanceProblem([]),
    ], ids=["max-affine", "max-quadratics", "sip-distance"])
    def test_a_maximum_needs_a_piece(self, build):
        # A max-affine problem without pieces was built, and then evaluate,
        # value and solve raised NumPy's bare "zero-size array" ValueError.
        with pytest.raises(ValueError, match="^at least one "):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: MaxAffineProblem([[1, 0], [0, 1]], [0]),
         "coefs and intercepts must have matching length"),
        (lambda: MaxQuadraticsProblem([(np.eye(2), [0.0, 0.0], 0.0),
                                       (np.eye(3), [0.0, 0.0, 0.0], 0.0)]),
         "all pieces must share one dimension"),
        (lambda: MaxQuadraticsProblem([(np.eye(3), [0.0, 0.0], 0.0)]),
         "quadratic matrix shape must match the linear term"),
        (lambda: SipDistanceProblem([BallBody([0.0, 0.0], 1.0), BallBody([0.0, 0.0, 0.0], 1.0)]),
         "all bodies must share one dimension"),
    ], ids=["max-affine-lengths", "quadratic-dimensions", "quadratic-matrix-shape",
            "sip-dimensions"])
    def test_pieces_must_agree(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("pieces", [
        [(np.eye(2), [0.0, 0.0])],
        [(np.eye(2), [0.0, 0.0], 0.0, 1.0)],
        [(np.eye(2), [0.0, 0.0], 0.0), (np.eye(2), [0.0, 0.0], 0.0, 1.0)],
    ], ids=["pair", "four", "mixed"])
    def test_quadratic_pieces_are_triples(self, pieces):
        with pytest.raises(ValueError, match=re.escape("a (quad, lin, const) triple")):
            MaxQuadraticsProblem(pieces)


class TestSublevelDistance:
    def test_ball_outside(self):
        d = exact_sublevel_distance(BallProblem([0.0, 0.0], 1.0), [2.0, 0.0], 0.19)
        assert d == pytest.approx(1.1, abs=1e-15)

    def test_ball_inside_is_zero(self):
        assert exact_sublevel_distance(BallProblem(), [0.5, 0.0], 0.0) == 0.0

    def test_max_affine_polyhedral(self):
        d = exact_sublevel_distance(AXES_MAX, [1.0, 1.0], 0.5)
        assert d == pytest.approx(np.sqrt(2 * 1.5**2), rel=1e-14)

    def test_zero_shift_distance_vanishes_on_feasible_points(self, rng):
        for problem in (BallProblem([0.1, 0.2], 1.2), AXES_MAX):
            for _ in range(20):
                x = rng.uniform(-2, 2, size=2)
                if problem.value(x) <= 0.0:
                    assert exact_sublevel_distance(problem, x, 0.0) == 0.0

    def test_sublevel_empty(self):
        with pytest.raises(SublevelEmptyError):
            exact_sublevel_distance(BallProblem(), [2.0, 0.0], 1.0)
        with pytest.raises(SublevelEmptyError):
            exact_sublevel_distance(BallProblem(), [2.0, 0.0], 2.5)

    def test_not_available(self):
        assert not supports_sublevel_distance(nonconvex_default_problem())
        assert not supports_sublevel_distance(ShiftedBallProblem(2))
        with pytest.raises(NotAvailableError):
            exact_sublevel_distance(nonconvex_default_problem(), [1.0, 1.0], 0.1)
        sip = SipDistanceProblem([BallBody([0.0, 0.0], 1.0)])
        assert not supports_sublevel_distance(sip)
        with pytest.raises(NotAvailableError, match="^no analytic sublevel distance for kind "
                                                    "'sip_distance'$"):
            exact_sublevel_distance(sip, [1.0, 1.0], 0.1)

    def test_supports(self):
        assert supports_sublevel_distance(BallProblem())
        assert supports_sublevel_distance(AXES_MAX)

    def test_subclasses_keep_their_parents_distance(self, rng):
        class Ball(BallProblem):
            pass

        class Wedge(MaxAffineProblem):
            pass

        pairs = [(BallProblem([0.5, -0.2], 1.3), Ball([0.5, -0.2], 1.3)),
                 (AXES_MAX, Wedge(AXES_MAX.coefs, AXES_MAX.intercepts, activity_tol=0.0))]
        X = 3.0 * rng.standard_normal((2, 3, 2))
        for parent, child in pairs:
            assert supports_sublevel_distance(child)
            for eps in (0.0, 0.5):
                got = exact_sublevel_distance(child, X, eps)
                assert got.tobytes() == exact_sublevel_distance(parent, X, eps).tobytes()
                d = exact_sublevel_distance(child, X[0, 0], eps)
                assert type(d) is float
                assert repr(d) == repr(exact_sublevel_distance(parent, X[0, 0], eps))

    def test_arguments_are_checked_before_the_kind(self):
        # A kind without a formula still gets its eps and points checked
        # first, as ball and max-affine instances do.
        class Paraboloid(Problem):
            kind = "paraboloid"

            def piece_values(self, X):
                return (np.vecdot(X, X) - 1.0)[..., None]

            def piece_gradients(self, X):
                return (2.0 * X)[..., None, :]

        problem = Paraboloid(2)
        assert not supports_sublevel_distance(problem)
        for x, eps, message in (([2.0, 0.0], -0.1, "eps must be nonnegative"),
                                ([NAN, 0.0], 0.1, "vector entries must be finite")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                exact_sublevel_distance(problem, x, eps)
        with pytest.raises(NotAvailableError, match="'paraboloid'$"):
            exact_sublevel_distance(problem, [2.0, 0.0], 0.1)


def distances_one_by_one(problem, X, eps):
    """The 1-D distances of a stack's points in order, up to the type of
    the first error a point raises (None if none does)."""
    dists = []
    for x in X.reshape(-1, X.shape[-1]):
        try:
            dists.append(exact_sublevel_distance(problem, x, eps))
        except EpscutError as exc:
            return dists, type(exc)
    return dists, None


class TestMaxAffineGradients:
    PROBLEM = MaxAffineProblem(np.arange(12.0).reshape(4, 3) - 5.0, [0.5, -1.0, 2.0, 0.0])

    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    def test_gradients_are_a_read_only_view_of_coefs(self, lead):
        coefs = self.PROBLEM.coefs
        before = coefs.tobytes()
        G = self.PROBLEM.piece_gradients(np.ones(lead + (3,)))
        assert G.shape == lead + coefs.shape
        assert G.tobytes() == np.broadcast_to(coefs, G.shape).tobytes()
        assert not G.flags.writeable
        with pytest.raises(ValueError):
            G[..., 0, 0] = 1.0
        assert coefs.tobytes() == before

    def test_bundle_is_a_writable_copy(self):
        problem = self.PROBLEM
        ev = evaluate(problem, [1.0, -2.0, 0.5])
        assert ev.bundle.flags.writeable
        assert not np.shares_memory(ev.bundle, problem.coefs)
        assert ev.bundle.tobytes() == problem.coefs[ev.active].tobytes()


class TestBatchedSublevelDistance:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["ball", "max_affine"]), n=st.sampled_from([1, 2, 3, 8, 40]),
           lead=st.sampled_from([(1,), (7,), (2, 3)]), seed=st.integers(0, 2**32 - 1))
    def test_stack_matches_points_bit_for_bit(self, kind, n, lead, seed):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, kind, n)
        X = rng.standard_normal(lead + (n,)) * 10.0 ** rng.uniform(-3.0, 3.0, lead + (1,))
        if kind == "ball":
            # Points inside and outside, and a shift that may empty the set.
            X = problem.center + problem.radius * X
            eps = problem.radius**2 * float(rng.uniform(0.0, 1.1))
        else:
            eps = float(10.0 ** rng.uniform(-6.0, 2.0))
        if rng.random() < 0.3:
            eps = 0.0
        dists, error = distances_one_by_one(problem, X, eps)
        if error is not None:
            with pytest.raises(error):
                exact_sublevel_distance(problem, X, eps)
            return
        assert all(type(d) is float for d in dists)
        batch = exact_sublevel_distance(problem, X, eps)
        assert batch.shape == lead
        assert batch.tobytes() == np.array(dists).tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["ball", "max_affine"]), n=st.integers(1, 4),
           m=st.integers(1, 5), bad=st.sampled_from([NAN, INF, -INF]),
           seed=st.integers(0, 2**32 - 1))
    def test_errors_are_those_of_a_point(self, kind, n, m, bad, seed):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, kind, n)
        X = rng.standard_normal((m, n))
        # A NaN shift returned 0.0 on a ball and blamed the offsets on a
        # max-affine problem.
        for points, eps in zip((X[0], X, X[0], X), (-1e-3, -1e-3, NAN, NAN)):
            with pytest.raises(ValueError, match="eps must be nonnegative"):
                exact_sublevel_distance(problem, points, eps)
        wide = np.hstack([X, X[:, :1]])
        for points in (wide[0], wide):
            with pytest.raises(DimensionMismatchError):
                exact_sublevel_distance(problem, points, 0.0)
        row = int(rng.integers(m))
        X[row, rng.integers(n)] = bad
        for points in (X[row], X, X[None]):
            with pytest.raises(ValueError, match="finite"):
                exact_sublevel_distance(problem, points, 0.0)
        with pytest.raises(ValueError, match="1-D"):
            exact_sublevel_distance(problem, 1.0, 0.0)

    def test_stacks_of_empty_shifted_sets(self):
        stack = [[2.0, 0.0], [3.0, 1.0]]
        flat = MaxAffineProblem([[0.0, 0.0], [1.0, 0.0]], [-0.5, 0.0])
        apart = MaxAffineProblem([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0])
        for problem, eps in ((BallProblem(), 1.0), (flat, 0.75), (apart, 0.0)):
            for points in (stack[0], stack):
                with pytest.raises(SublevelEmptyError):
                    exact_sublevel_distance(problem, points, eps)

    def test_stacks_of_other_kinds(self):
        for problem in (nonconvex_default_problem(), ShiftedBallProblem(2)):
            with pytest.raises(NotAvailableError):
                exact_sublevel_distance(problem, [[1.0, 1.0], [2.0, 0.0]], 0.1)

    def test_point_gives_a_float(self):
        for problem in (BallProblem(), AXES_MAX, MaxAffineProblem([[0.0, 0.0]], [-1.0])):
            for x in ([2.0, 1.0], [0.1, -0.2]):
                assert type(exact_sublevel_distance(problem, x, 0.5)) is float

    def test_stack_is_left_as_it_was(self):
        # Each point is a row view of the stack, which the kernel must only
        # read: points inside the set, outside a few of its cuts, and
        # outside all six, where the whole-bundle start is taken.
        rng = np.random.default_rng(4)
        problem = MaxAffineProblem(rng.standard_normal((6, 8)), -rng.uniform(0.5, 1.5, 6))
        X = np.vstack([np.zeros(8), 3.0 * rng.standard_normal((6, 8)),
                       5.0 * problem.coefs.sum(axis=0)])
        before = X.tobytes()
        dists = exact_sublevel_distance(problem, X, 0.25)
        assert X.tobytes() == before
        assert dists[0] == 0.0 and (dists[1:] > 0.0).all()

    def test_empty_and_flat_stacks(self):
        assert exact_sublevel_distance(BallProblem(), np.empty((0, 2)), 0.0).shape == (0,)
        assert exact_sublevel_distance(AXES_MAX, np.empty((3, 0, 2)), 0.5).shape == (3, 0)
        flat = MaxAffineProblem([[0.0, 0.0]], [-1.0])
        assert exact_sublevel_distance(flat, [2.0, 0.0], 0.5) == 0.0
        assert exact_sublevel_distance(flat, np.ones((2, 3, 2)), 0.5).tolist() == [[0.0] * 3] * 2


def random_problem(rng, kind, n):
    """A problem of the given kind in R^n with data spread over 1e+-6."""
    def spread(*shape):
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-6.0, 6.0, size=shape)

    tol = None if rng.random() < 0.5 else float(10.0 ** rng.uniform(-10.0, 0.0))
    k = int(rng.integers(1, 4))
    if kind == "ball":
        return BallProblem(spread(n), float(abs(spread())) + 1e-3, tol, "ball-x")
    if kind == "shifted_ball_infeasible":
        return ShiftedBallProblem(n, tol)
    if kind == "max_affine":
        return MaxAffineProblem(spread(k, n), spread(k), tol)
    if kind == "max_quadratics":
        pieces = [(spread(n, n), spread(n), float(spread())) for _ in range(k)]
        return MaxQuadraticsProblem(pieces, tol)
    bodies = [
        BallBody(spread(n), float(abs(spread())) + 1e-3) if rng.random() < 0.5
        else HalfspaceBody(spread(n), float(spread()))
        for _ in range(k)
    ]
    return SipDistanceProblem(bodies, tol)


class TestSpecSerialization:
    @pytest.mark.parametrize(
        "problem",
        [
            BallProblem([1.0, -2.0], 0.7, name="off-center"),
            ShiftedBallProblem(3),
            MaxAffineProblem([[1.0, 0.0], [0.0, 1.0]], [0.1, -0.2], activity_tol=1e-7),
            nonconvex_default_problem(),
            SipDistanceProblem(
                [BallBody([0.0, 1.0], 2.0), HalfspaceBody([1.0, 1.0], 0.5)]
            ),
        ],
    )
    def test_round_trip(self, problem, rng):
        rebuilt = problem_from_dict(problem_to_dict(problem))
        assert rebuilt.kind == problem.kind
        assert rebuilt.dim == problem.dim
        for _ in range(10):
            x = rng.uniform(-2, 2, size=problem.dim)
            assert rebuilt.value(x) == problem.value(x)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS), st.integers(1, 4))
    def test_json_round_trip_property(self, seed, kind, n):
        # Through JSON text, as the CLI reads a spec: the spec comes back
        # equal and the rebuilt problem has the same values, bit for bit.
        problem = random_problem(np.random.default_rng(seed), kind, n)
        spec = problem_to_dict(problem)
        rebuilt = problem_from_dict(json.loads(json.dumps(spec)))
        assert problem_to_dict(rebuilt) == spec
        assert (rebuilt.kind, rebuilt.dim, rebuilt.name) == (kind, n, problem.name)
        X = 3.0 * np.random.default_rng(seed).standard_normal((5, n))
        assert np.array_equal(rebuilt.piece_values(X), problem.piece_values(X))

    def test_kinds_in_order(self):
        assert KINDS == ("ball", "max_affine", "max_quadratics", "sip_distance",
                         "shifted_ball_infeasible")

    def test_only_instances_of_a_kinds_class_serialize(self):
        class Lookalike(Problem):
            kind = "ball"

            def piece_values(self, X):
                return np.vecdot(X, X)[..., None]

            def piece_gradients(self, X):
                return (2.0 * X)[..., None, :]

        class Named(BallProblem):
            pass

        with pytest.raises(ValueError, match="cannot serialize problem kind 'ball'"):
            problem_to_dict(Lookalike(2))
        assert problem_to_dict(Named()) == problem_to_dict(BallProblem())

    def test_error_messages_name_offending_field(self):
        with pytest.raises(ValueError, match="'kind'"):
            problem_from_dict({"kind": "mystery", "dim": 2})
        with pytest.raises(ValueError, match="'dim'"):
            problem_from_dict({"kind": "ball", "dim": 0})
        with pytest.raises(ValueError, match="pieces"):
            problem_from_dict({"kind": "max_affine", "dim": 2, "params": {}})
        with pytest.raises(ValueError, match="'dim'"):
            problem_from_dict(
                {
                    "kind": "ball",
                    "dim": 3,
                    "params": {"center": [0.0, 0.0], "radius": 1.0},
                }
            )
        with pytest.raises(ValueError, match="activity_tol"):
            problem_from_dict({"kind": "ball", "dim": 2, "params": {}, "activity_tol": -1})
        with pytest.raises(ValueError, match="'dim'"):
            problem_from_dict(BOOLEAN_SPECS["dim-true"])
        with pytest.raises(ValueError, match="'activity_tol'"):
            problem_from_dict(BOOLEAN_SPECS["activity-tol-true"])

    @pytest.mark.parametrize("key, field", [
        ("ball-radius-true", "params.radius"),
        ("max-affine-coef-true", "params.pieces[1].coef[1]"),
        ("max-affine-intercept-false", "params.pieces[0].intercept"),
        ("quadratic-const-true", "params.pieces[0].const"),
        ("sip-ball-radius-true", "params.bodies[0].radius"),
    ])
    def test_boolean_params_name_the_field(self, key, field):
        # A bool is an int to NumPy and float(): radius true built the unit
        # ball, and intercept false an intercept of 0.0.
        with pytest.raises(ValueError, match=re.escape(f"field '{field}'")):
            problem_from_dict(BOOLEAN_SPECS[key])

    @pytest.mark.parametrize("spec, field", STRING_SPECS.values(), ids=STRING_SPECS)
    def test_string_params_name_the_field(self, spec, field):
        with pytest.raises(ValueError,
                           match=re.escape(f"field '{field}': expected a number, got a string")):
            problem_from_dict(spec)

    @pytest.mark.parametrize("spec, field, got", NULL_OR_HUGE_SPECS.values(),
                             ids=NULL_OR_HUGE_SPECS)
    def test_null_or_huge_params_name_the_field(self, spec, field, got):
        with pytest.raises(ValueError,
                           match=re.escape(f"field '{field}': expected a number, got {got}")):
            problem_from_dict(spec)

    def test_a_sip_body_type_is_the_one_string(self):
        spec = problem_to_dict(SipDistanceProblem([HalfspaceBody([1.0, 0.0], 0.0)]))
        assert problem_from_dict(spec).kind == "sip_distance"
        spec["params"]["bodies"][0]["normal"][0] = "1"
        with pytest.raises(ValueError, match=re.escape("'params.bodies[0].normal[0]'")):
            problem_from_dict(spec)
        spec = {"kind": "ball", "dim": 1, "params": {"center": [0.0], "type": "ball"}}
        with pytest.raises(ValueError, match=re.escape("'params.type'")):
            problem_from_dict(spec)
        # A body type that is not a string gets the type's own message.
        for body_type in (None, True, 1.0):
            spec = {"kind": "sip_distance", "dim": 1,
                    "params": {"bodies": [{"type": body_type, "normal": [1.0], "offset": 0.0}]}}
            with pytest.raises(ValueError, match=re.escape(
                    f"'params.bodies[].type': expected 'ball' or 'halfspace', got {body_type!r}")):
                problem_from_dict(spec)

    @pytest.mark.parametrize("name", [7, ["ball"]], ids=["int", "list"])
    def test_name_must_be_a_string(self, name):
        # A name of 7 reached every report as "problem": 7.
        with pytest.raises(ValueError, match="'name'"):
            problem_from_dict({"name": name, "kind": "ball", "dim": 2})

    @pytest.mark.parametrize("spec, message", INCOMPLETE_SPECS.values(), ids=INCOMPLETE_SPECS)
    def test_incomplete_specs_say_what_is_missing(self, spec, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            problem_from_dict(spec)

    @pytest.mark.parametrize("spec", MALFORMED_SPECS.values(), ids=MALFORMED_SPECS)
    def test_malformed_params_name_params(self, spec):
        with pytest.raises(ValueError, match="'params'"):
            problem_from_dict(spec)

    @pytest.mark.parametrize("spec, message", HUGE_DIM_SPECS.values(), ids=HUGE_DIM_SPECS)
    def test_huge_dim_is_a_value_error(self, spec, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            problem_from_dict(spec)

    def test_default_nonconvex_boundary_is_on_both_pieces(self):
        x = nonconvex_default_boundary()
        problem = nonconvex_default_problem()
        values = problem.piece_values(x)
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[1] == pytest.approx(0.0, abs=1e-12)
