"""Projection kernel tests: closed forms, KKT certificates, oracle equivalence."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from epscut import (
    CutPolyhedron,
    DimensionMismatchError,
    InfeasiblePolyhedronError,
    NoFeasibleSampleFoundError,
    ProjectionFailedError,
    ZeroNormalError,
    check_variational_inequality,
    project_polyhedron,
)
from epscut import geometry
from conftest import assert_compares_by_bytes, brute_force_projection, random_projection_instance


# Cut entries at every edge of a row length (signed zeros, a subnormal,
# entries whose squares underflow or overflow, and non-finite values) and
# normal-sized entries scaled across 340 decades.
EXTREME_VALUES = [0.0, -0.0, 5e-324, 2.3e-162, 1e-170, 1e154, 1e200, -1e200,
                  np.inf, -np.inf, np.nan]
EXTREME_ENTRY = st.sampled_from(EXTREME_VALUES)
DECADE = st.integers(-170, 170)


def cut_rows(n):
    """Rows of n entries: each entry extreme or scaled on its own, or the
    whole row scaled by one power of ten."""
    entry = st.one_of(EXTREME_ENTRY, st.builds(lambda z, e: z * 10.0**e, st.floats(-3.0, 3.0),
                                               DECADE))
    return st.one_of(
        st.lists(entry, min_size=n, max_size=n),
        st.builds(lambda zs, e: [z * 10.0**e for z in zs],
                  st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n), DECADE),
    )


# A finite draw is the depth of x past its cut, in lengths of the normal; a
# non-finite one is the offset itself.
CUT_OFFSET = st.one_of(st.floats(-1.0, 2.0), st.sampled_from([np.inf, -np.inf, np.nan]))
CUT_POINT_ENTRY = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e200, 1e200))


def one_cut_reference(x, a, b):
    """``project_one_cut`` written out in full: row lengths by
    ``np.linalg.norm``, the residual ``<a, x> - b`` computed a second time
    for the entry test, and the round-off bound evaluated on every row."""
    norm = np.linalg.norm(a, axis=-1)
    t = (np.vecdot(a, x) - b) / np.vecdot(a, a)
    point = x - (t * a.T).T
    scaled = (np.vecdot(a, point) - b) / norm
    outside = (np.vecdot(a, x) - b) / norm > geometry.FEASIBILITY_TOL
    settled = outside & np.isfinite(point).all(axis=-1) & (
        (scaled <= geometry.FEASIBILITY_TOL)
        | (scaled < np.inf) & (scaled <= geometry._roundoff(a, point, b, norm))
    )
    return point, settled


def halfspace(normal, offset) -> CutPolyhedron:
    """The halfspace {x : <normal, x> <= offset} as a one-row polyhedron."""
    return CutPolyhedron([normal], [offset])


def nearest_point(x, h: CutPolyhedron) -> np.ndarray:
    return project_polyhedron(x, h).point


def random_halfspace(rng, n) -> CutPolyhedron:
    return halfspace(rng.standard_normal(n) + 1e-3, float(rng.standard_normal()))


class TestHalfspaceProjection:
    def test_exterior_point_lands_on_boundary(self):
        h = halfspace([1.0, 0.0], 1.0)
        assert_allclose(nearest_point([2.0, 0.0], h), [1.0, 0.0])

    def test_interior_point_unchanged(self):
        h = halfspace([1.0, 0.0], 1.0)
        x = np.array([0.5, 0.5])
        assert np.array_equal(nearest_point(x, h), x)

    def test_shifted_cut_projection(self):
        # Cut built at f = 3 with gradient (4, 0) and shift 0.1:
        # <(4,0), x> <= <(4,0),(2,0)> - 3 - 0.1 = 4.9.
        h = halfspace([4.0, 0.0], 8.0 - 3.1)
        got = nearest_point([2.0, 0.0], h)
        # Independent scalar route: 4 t <= 4.9  =>  t = 4.9 / 4.
        assert_allclose(got, [4.9 / 4.0, 0.0], rtol=0, atol=1e-15)
        assert_allclose(got, [1.225, 0.0], rtol=0, atol=1e-15)

    def test_zero_normal_rejected_at_construction(self):
        with pytest.raises(ZeroNormalError):
            halfspace([0.0, 0.0], 1.0)

    def test_dimension_mismatch(self):
        h = halfspace([1.0, 0.0], 1.0)
        with pytest.raises(DimensionMismatchError):
            nearest_point([1.0, 2.0, 3.0], h)

    def test_idempotent(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            h = random_halfspace(rng, n)
            x = 3.0 * rng.standard_normal(n)
            once = nearest_point(x, h)
            twice = nearest_point(once, h)
            assert_allclose(twice, once, rtol=1e-12, atol=1e-12)

    def test_nonexpansive(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            h = random_halfspace(rng, n)
            x, y = 3.0 * rng.standard_normal((2, n))
            px, py = nearest_point(x, h), nearest_point(y, h)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) * (1 + 1e-12) + 1e-15


class TestPolyhedronProjection:
    def test_arrays_validated_at_construction(self):
        with pytest.raises(ZeroNormalError):
            CutPolyhedron([[1.0, 0.0], [0.0, 0.0]], [0.0, 1.0])
        with pytest.raises(ValueError):
            CutPolyhedron(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            CutPolyhedron([1.0, 0.0], [0.0])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                CutPolyhedron([[1.0, bad]], [0.0])
        # A zero row is reported ahead of non-finite rows and offsets.
        with pytest.raises(ZeroNormalError):
            CutPolyhedron([[np.nan, 1.0], [0.0, 0.0]], [np.inf, 0.0])
        with pytest.raises(ValueError):
            CutPolyhedron([[1.0, 0.0], [0.0, 1.0]], [0.0])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                CutPolyhedron([[1.0, 0.0], [0.0, 1.0]], [0.0, bad])
        # Finite entries whose row length overflows.
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            CutPolyhedron([[1.0, 0.0], [1e200, 1e200]], [0.0, 0.0])
        P = CutPolyhedron([[3.0, 4.0]], [1.0])
        assert (len(P), P.dim) == (1, 2)
        assert_allclose(P.normal_norms, [5.0])

    def test_symmetric_corner(self):
        P = CutPolyhedron([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        res = project_polyhedron([1.0, 1.0], P)
        assert_allclose(res.point, [0.0, 0.0], atol=1e-14)
        assert res.active_set == [0, 1]
        assert_allclose(res.multipliers, [1.0, 1.0], atol=1e-14)
        assert not res.feasible

    def test_single_cut_matches_halfspace_kernel(self, rng):
        # Reference: the closed form x - (<a,x> - b)/||a||^2 a, or x when
        # the point is inside.
        for _ in range(100):
            n = int(rng.integers(1, 6))
            a, b = rng.standard_normal(n) + 1e-3, float(rng.standard_normal())
            x = 3.0 * rng.standard_normal(n)
            viol = float(np.dot(a, x)) - b
            lone = x if viol <= 0.0 else x - (viol / float(np.dot(a, a))) * a
            poly = project_polyhedron(x, CutPolyhedron([a], [b])).point
            assert np.array_equal(poly, lone)
        # project_one_cut makes the same projections for a batch of rows.
        # A settled row is one where the kernel moves x, and its point must
        # equal the kernel's bit for bit. Rows inside their cut (a third of
        # them; the kernel hands x back) are not settled, and neither is a
        # row whose step overflows, where the kernel raises, nor a violated
        # row that CutPolyhedron rejects: a zero normal or an offset of -inf.
        for n in (1, 2, 3, 8, 50, 200):
            A = rng.standard_normal((30, n)) * 10.0 ** rng.uniform(-3, 3, (30, 1))
            X = 3.0 * rng.standard_normal((30, n))
            depth = rng.uniform(-1.0, 2.0, 30) * np.linalg.norm(A, axis=1)
            b = np.vecdot(A, X) - depth
            b[0] = np.vecdot(A[0], X[0]) - 0.5 * geometry.FEASIBILITY_TOL * np.linalg.norm(A[0])
            A[-3], b[-3] = 0.0, -1.0
            b[-2] = -np.inf
            A[-1], X[-1], b[-1] = 10.0, 1e308, 0.0
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                point, settled = geometry.project_one_cut(X, A, b)
            assert not settled[0] and not settled[-3:].any()
            assert 5 < settled.sum() < 27
            for x, a, b_row, p, s in zip(X[:-3], A, b, point, settled):
                result = project_polyhedron(x, CutPolyhedron([a], [b_row]))
                assert s == (not result.feasible)
                if s:
                    assert p.tobytes() == result.point.tobytes()
            with pytest.raises(ZeroNormalError):
                CutPolyhedron(A[-3:-2], b[-3:-2])
            with pytest.raises(ValueError, match="offsets must be finite"):
                CutPolyhedron(A[-2:-1], b[-2:-1])
            with np.errstate(over="ignore"), pytest.raises(ProjectionFailedError):
                project_polyhedron(X[-1], CutPolyhedron(A[-1:], b[-1:]))

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(st.tuples(st.integers(1, 4), st.one_of(st.integers(0, 8), st.just(20))).flatmap(
        lambda shape: st.tuples(st.just(shape[1] == 0), st.lists(
            st.tuples(cut_rows(shape[0]), CUT_OFFSET,
                      st.one_of(cut_rows(shape[0]),
                                st.lists(CUT_POINT_ENTRY, min_size=shape[0], max_size=shape[0]))),
            min_size=max(shape[1], 1), max_size=max(shape[1], 1)))))
    def test_one_cut_settles_only_cuts_the_constructor_accepts(self, batch):
        # project_one_cut has no test of a cut's length or offset: a cut that
        # CutPolyhedron rejects must fail its step's own arithmetic. Its
        # point and settled bits are one_cut_reference's, on one cut (1-D
        # input and a scalar offset, as solve's step has it) and on batches
        # of up to 20 rows.
        one, cuts = batch
        A = np.array([a for a, _, _ in cuts])
        X = np.array([x for _, _, x in cuts])
        D = np.array([d for _, d, _ in cuts])
        with np.errstate(all="ignore"):
            # A finite draw's depth is scaled by x's largest entry (when
            # above 1), as a solve step's depth f(x_i) grows with x_i, so
            # that rows only the round-off bound settles are common.
            depth = D * np.linalg.norm(A, axis=1) * np.maximum(1.0, np.abs(X).max(axis=1))
            b = np.where(np.isfinite(D), np.vecdot(A, X) - depth, D)
            if one:
                X, A, b = X[0], A[0], b[0]
            point, settled = geometry.project_one_cut(X, A, b)
            ref_point, ref_settled = one_cut_reference(X, A, b)
        assert type(point) is type(ref_point) and point.shape == ref_point.shape
        assert point.tobytes() == ref_point.tobytes()
        assert type(settled) is type(ref_settled)
        assert np.asarray(settled).tobytes() == np.asarray(ref_settled).tobytes()
        for a, b_row, x, p, s in zip(np.atleast_2d(A), np.atleast_1d(b), np.atleast_2d(X),
                                     np.atleast_2d(point), np.atleast_1d(settled)):
            try:
                with np.errstate(all="ignore"):
                    cut = CutPolyhedron([a], [b_row])
            except (ValueError, ZeroNormalError):
                assert not s
                continue
            if s:
                with np.errstate(all="ignore"):
                    assert p.tobytes() == project_polyhedron(x, cut).point.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(width=st.integers(1, 200), rows=st.sampled_from([None, 1, 2, 5, 17]),
           seed=st.integers(0, 2**32 - 1))
    def test_row_norms_are_linalg_norms(self, order, width, rows, seed):
        # Rows scaled across 340 decades, so that some squares overflow to
        # inf and others underflow to 0, with extreme entries (+-inf, NaN,
        # signed zeros, subnormals) scattered through them; widths past 128
        # take NumPy's pairwise summation into a second block.
        rng = np.random.default_rng(seed)
        shape = (width,) if rows is None else (rows, width)
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-170, 171, shape[:-1] + (1,))
        extreme = rng.random(shape) < rng.choice([0.0, 0.05, 0.5])
        a[extreme] = rng.choice(EXTREME_VALUES, size=int(extreme.sum()))
        a = np.asfortranarray(a) if order == "F" else a
        with np.errstate(all="ignore"):
            norms = geometry._row_norms(a)
            expected = np.linalg.norm(a, axis=-1)
        assert type(norms) is type(expected) and np.shape(norms) == np.shape(expected)
        assert np.asarray(norms).tobytes() == np.asarray(expected).tobytes()
        if rows is not None:
            usable = (norms > 0.0) & np.isfinite(norms)
            if usable.any():
                normals = a[usable]
                poly = CutPolyhedron(normals, np.zeros(len(normals)))
                assert poly.normal_norms.tobytes() == geometry._row_norms(normals).tobytes()

    def test_feasible_point_returned_unchanged(self):
        P = CutPolyhedron([[1.0, 0.0]], [0.0])
        res = project_polyhedron([-1.0, 5.0], P)
        assert res.feasible
        assert res.active_set == []
        assert_allclose(res.point, [-1.0, 5.0])

    def test_single_active_constraint(self):
        P = CutPolyhedron([[1.0, 0.0]], [0.0])
        res = project_polyhedron([1.0, 1.0], P)
        assert_allclose(res.point, [0.0, 1.0], atol=1e-14)
        assert res.active_set == [0]

    def test_infeasible_intersection_raises(self):
        P = CutPolyhedron([[1.0, 0.0], [-1.0, 0.0]], [0.0, -1.0])
        with pytest.raises(InfeasiblePolyhedronError):
            project_polyhedron([0.3, 0.0], P)

    def test_redundant_constraint_swap(self):
        # The deeper parallel constraint must end up active even if the
        # shallow one enters the working set first.
        P = CutPolyhedron([[1.0, 0.0], [1.0, 0.0]], [1.0, -1.0])
        res = project_polyhedron([2.0, 0.5], P)
        assert_allclose(res.point, [-1.0, 0.5], atol=1e-14)

    def test_nonfinite_iterate_raises_projection_failed(self):
        # <a, x0> overflows, so the first step sends the iterate to -inf.
        P = CutPolyhedron([[10.0, 10.0]], [0.0])
        with np.errstate(over="ignore"), pytest.raises(ProjectionFailedError):
            project_polyhedron([1e308, 1e308], P)

    def test_matches_brute_force_battery(self, rng):
        for _ in range(80):
            x0, A, b = random_projection_instance(rng)
            poly = CutPolyhedron.from_arrays(A, b)
            oracle = brute_force_projection(x0, A, b)
            if oracle is None:
                with pytest.raises(InfeasiblePolyhedronError):
                    project_polyhedron(x0, poly)
                continue
            res = project_polyhedron(x0, poly)
            assert np.linalg.norm(res.point - oracle) <= 1e-8

    def test_kkt_reconstruction(self, rng):
        for _ in range(60):
            x0, A, b = random_projection_instance(rng)
            poly = CutPolyhedron.from_arrays(A, b)
            try:
                res = project_polyhedron(x0, poly)
            except InfeasiblePolyhedronError:
                continue
            assert np.all(res.multipliers >= 0.0)
            recon = res.point.copy()
            for j, lam in zip(res.active_set, res.multipliers):
                recon = recon + lam * poly.normals[j]
            scale = 1.0 + np.linalg.norm(x0)
            assert np.linalg.norm(recon - x0) <= 1e-8 * scale
            assert np.max(poly.scaled_violations(res.point)) <= 1e-9

    def test_nonexpansive_on_pairs(self, rng):
        P = CutPolyhedron([[1.0, 0.3], [-0.2, 1.0], [-1.0, -1.0]], [0.5, 0.1, 2.0])
        for _ in range(50):
            x, y = 4.0 * rng.standard_normal((2, 2))
            px = project_polyhedron(x, P).point
            py = project_polyhedron(y, P).point
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) * (1 + 1e-12) + 1e-15


def _hard_instance(seed, n, k, rows, log_spread, empty_pair):
    """Random projection instance with optional degeneracies.

    ``rows="near_parallel"`` rebuilds the back half of the rows as earlier
    rows plus 1e-6 relative noise, ``rows="repeated"`` copies earlier rows
    exactly (rank deficient), ``log_spread`` spreads row norms over
    10**(+-log_spread), and ``empty_pair`` appends a contradicting pair.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((k, n))
    A[np.linalg.norm(A, axis=1) < 1e-3, 0] = 1.0
    for j in range(max(1, k // 2), k):
        src = A[rng.integers(0, j)]
        if rows == "near_parallel":
            A[j] = src + 1e-6 * np.linalg.norm(src) * rng.standard_normal(n)
        elif rows == "repeated":
            A[j] = src
    A *= 10.0 ** rng.uniform(-log_spread, log_spread, size=(k, 1))
    anchor = rng.standard_normal(n)
    b = A @ anchor + rng.uniform(-0.5, 1.0, size=k) * np.linalg.norm(A, axis=1)
    if empty_pair:
        a = rng.standard_normal(n) + 1e-3
        c = float(rng.standard_normal())
        A = np.vstack([A, a, -a])
        b = np.append(b, [c, -c - 1.0])
    return anchor + 2.0 * rng.standard_normal(n), A, b


@st.composite
def hard_instances(draw, max_k=None):
    """n <= 8 and k <= 3n, plus the drop-heavy shapes (3, 12) and (10, 40)."""
    if max_k is None and draw(st.integers(0, 4)) == 0:
        n, k = draw(st.sampled_from([(3, 12), (10, 40)]))
    else:
        n = draw(st.integers(1, 8))
        k = draw(st.integers(1, min(3 * n, max_k or 3 * n)))
    return _hard_instance(
        draw(st.integers(0, 2**32 - 1)), n, k,
        rows=draw(st.sampled_from(["generic", "near_parallel", "repeated"])),
        log_spread=draw(st.sampled_from([0.0, 1.0, 2.0])),
        empty_pair=draw(st.integers(0, 9)) == 0,
    )


def _project_or_none(x0, A, b):
    try:
        return project_polyhedron(x0, CutPolyhedron.from_arrays(A, b))
    except InfeasiblePolyhedronError:
        return None


def _least_violation(A, b) -> float:
    """The LP's least worst scaled violation ``max_j (<a_j, x> - b_j)/||a_j||``
    over x, floored at -1: positive exactly when the polyhedron is empty.
    Unlike a zero-objective feasibility LP, it has an optimum, which HiGHS
    also finds for hundreds of cuts. On a nonempty polyhedron it is the
    Chebyshev-center LP: its negation is the inradius, capped at 1. It is
    the one use of SciPy in the tests, so only its callers skip where SciPy
    is not installed."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    norms = np.linalg.norm(A, axis=1)
    lp = linprog(np.append(np.zeros(A.shape[1]), 1.0),
                 A_ub=np.hstack([A / norms[:, None], -np.ones((len(A), 1))]),
                 b_ub=b / norms, bounds=[(None, None)] * A.shape[1] + [(-1.0, None)],
                 method="highs")
    assert lp.status == 0, lp.message
    return lp.fun


def _kkt_error(x0, A, b, res, feas_tol=1e-9) -> str:
    """Independent KKT certificate check; empty string when it holds."""
    lam = res.multipliers
    if len(res.active_set) != lam.size or np.any(lam < 0.0):
        return "bad multipliers"
    active = list(res.active_set)
    rebuilt = x0 - A[active].T @ lam if active else x0
    scale = 1.0 + np.linalg.norm(x0) + np.linalg.norm(res.point)
    if np.linalg.norm(res.point - rebuilt) > 1e-9 * scale:
        return "point != x0 - A[active]^T lambda"
    slack = (A @ res.point - b) / np.linalg.norm(A, axis=1)
    if np.max(slack) > feas_tol:
        return f"scaled violation {np.max(slack):.3g}"
    if any(l > 0.0 and abs(slack[j]) > 1e-9 * scale for j, l in zip(active, lam)):
        return "a cut with lambda > 0 is not tight"
    return ""


def _assert_factors_hold(ws) -> int:
    """Check the working set's factors ``A[work].T = Q R``; return |work|."""
    m = len(ws.work)
    qt, rinv = ws.qt[:m], ws.rinv[:m, :m]
    normals = ws.A[ws.work]
    # R = Q^T A[work]^T, with the columns scaled to unit normals.
    r = qt @ normals.T
    unit_r = r / np.linalg.norm(normals, axis=1)
    assert_allclose(qt @ qt.T, np.eye(m), rtol=0, atol=1e-12)
    assert np.abs(np.tril(unit_r, -1)).max(initial=0.0) <= 1e-12
    assert (np.diag(unit_r) > 0.0).all()
    assert_allclose(rinv @ r, np.eye(m), rtol=0, atol=1e-10)
    assert not np.tril(ws.rinv, -1).any()
    return m


class TestProjectionProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(hard_instances())
    def test_emptiness_and_kkt_certificate(self, inst):
        x0, A, b = inst
        res = _project_or_none(x0, A, b)
        assert (res is None) == (_least_violation(A, b) > 0.0)
        if res is not None:
            assert _kkt_error(x0, A, b, res) == ""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(hard_instances(max_k=8))
    def test_matches_brute_force(self, inst):
        x0, A, b = inst
        res = _project_or_none(x0, A, b)
        oracle = brute_force_projection(x0, A, b)
        assert (res is None) == (oracle is None)
        if res is not None:
            assert np.linalg.norm(res.point - oracle) <= 1e-8

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4),
           st.sampled_from([0, 2, 4, 6, 8, 10]))
    def test_far_start_stops_at_round_off(self, seed, n, k, log_dist):
        # A nonempty polyhedron around the anchor, projected from up to 1e10
        # away. There <a, x> - b carries round-off far above the kernel's
        # 1e-10 tolerance; the kernel must stop there instead of cycling.
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((k, n))
        A[np.linalg.norm(A, axis=1) < 1e-3, 0] = 1.0
        A *= 10.0 ** rng.uniform(-1.0, 1.0, size=(k, 1))
        anchor = rng.standard_normal(n)
        b = A @ anchor + rng.uniform(0.0, 1.0, size=k) * np.linalg.norm(A, axis=1)
        d = rng.standard_normal(n)
        x0 = anchor + 10.0**log_dist * d / np.linalg.norm(d)
        res = project_polyhedron(x0, CutPolyhedron(A, b))
        roundoff = 8 * np.finfo(float).eps * (
            np.abs(A) @ np.abs(res.point) + np.abs(b)) / np.linalg.norm(A, axis=1)
        assert _kkt_error(x0, A, b, res, max(1e-10, roundoff.max())) == ""

    def test_brute_force_oracle_on_near_antiparallel_pair(self):
        # Cut 1 is nearly antiparallel to cut 0, and both are violated by 1
        # at x0, so the projection lies 2/delta = 4000 away with multipliers
        # near 2/delta^2 = 8e6. A Gram-matrix pseudoinverse, with cond(A)^2
        # ~ 1.6e7, misses that subset's 1e-7 residual test and calls the
        # polyhedron empty.
        delta = 5e-4
        a = np.array([1.0, 0.3]) / np.hypot(1.0, 0.3)
        a2 = -a + delta * np.array([-a[1], a[0]])
        x0 = np.array([0.5, 0.5])
        A = np.array([a, a2, [0.2, 1.0], [-1.0, 0.5]])
        b = np.array([a @ x0 - 1.0, a2 @ x0 - 1.0, 5.0, 5.0])
        res = project_polyhedron(x0, CutPolyhedron(A, b))
        assert res.active_set == [0, 1]
        assert _kkt_error(x0, A, b, res) == ""
        oracle = brute_force_projection(x0, A, b)
        assert oracle is not None
        assert np.linalg.norm(res.point - oracle) <= 1e-12 * np.linalg.norm(res.point - x0)

    def test_far_single_cut_lands_on_it(self):
        a, b = np.array([3.0, 7.0]), 1.0
        res = project_polyhedron([1e9, 1.0], CutPolyhedron([a], [b]))
        assert res.active_set == [0]
        assert abs(a @ res.point - b) <= 8 * np.finfo(float).eps * (np.abs(a) @ np.abs(res.point) + b)

    def test_drop_shapes_reach_givens_path(self, monkeypatch):
        drops = []
        drop = geometry._WorkingSet.drop

        def counting_drop(ws, j):
            drops.append(j)
            drop(ws, j)

        monkeypatch.setattr(geometry._WorkingSet, "drop", counting_drop)
        for n, k in [(3, 12), (10, 40)]:
            before = len(drops)
            for seed in range(20):
                x0, A, b = _hard_instance(seed, n, k, "generic", 1.0, False)
                res = _project_or_none(x0, A, b)
                if res is not None:
                    assert _kkt_error(x0, A, b, res) == ""
            assert len(drops) > before

    def test_factors_hold_after_each_drop(self, monkeypatch):
        checked = []
        drop = geometry._WorkingSet.drop

        def checking_drop(ws, j):
            drop(ws, j)
            checked.append(_assert_factors_hold(ws))

        monkeypatch.setattr(geometry._WorkingSet, "drop", checking_drop)
        for n, k in [(3, 12), (10, 40)]:
            before = len(checked)
            for seed in range(20):
                _project_or_none(*_hard_instance(seed, n, k, "generic", 1.0, False))
            assert len(checked) > before


def _chain(depth):
    """``depth`` normals in R^depth, and violations ``c > 0`` at the query
    point, on which the whole-bundle start needs ``depth`` factorizations.

    Row j is row j + 1 plus ``alpha_j`` along a fresh axis, with half its
    violation. The least-squares multipliers of rows j..depth-1 are then
    ``-2**(depth-1-j), ..., 2, 3``, or ``1`` for the last row alone, so each
    factorization prunes exactly its first row.
    """
    A = np.zeros((depth, depth))
    c = np.ones(depth)
    A[-1, 0] = 1.0
    alpha = 0.5
    for j in range(depth - 2, -1, -1):
        A[j] = A[j + 1]
        A[j, depth - 1 - j] = alpha
        c[j] = c[j + 1] / 2.0
        alpha /= 2.0
    return A, c


def _near_pair(ratio):
    """Two unit normals at angle ``asin(ratio)`` and violations 1 and 1.5:
    a QR of both has ``R_22 = ratio * ||a_2||``, and the first row's
    multiplier is negative."""
    A = np.array([[1.0, 0.0], [1.0, ratio]])
    A[1] /= np.hypot(1.0, ratio)
    return A, np.array([1.0, 1.5])


def _rotation(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def _acute_instance(rng, n, k, log_norm=(0.0, 0.0)):
    """``(x0, A, b)``: k <= n cuts in R^n whose unit normals meet at acute
    angles, with row lengths ``10 ** uniform(*log_norm)``. The unit-normal
    multipliers are drawn from [0.5, 2], so every cut is violated at x0 and
    the whole-bundle start keeps them all."""
    units = np.abs(rng.standard_normal((k, n))) @ _rotation(rng, n)
    units /= np.linalg.norm(units, axis=1)[:, None]
    norms = 10.0 ** rng.uniform(*log_norm, size=k)
    A = norms[:, None] * units
    x0 = rng.standard_normal(n)
    mu = rng.uniform(0.5, 2.0, size=k)
    return x0, A, A @ x0 - norms * (units @ (units.T @ mu))


def _block_instance(rng, n, depths, pair):
    """Orthogonal blocks of chains, plus an optional near-dependent pair,
    rotated into R^n with rows scaled and shuffled.

    Returns ``(x0, A, b, start_size)``: the blocks' multipliers decouple, so
    the start needs ``max(depths)`` factorizations (2 for a pair) and keeps
    every row but the first of each block. A pair with ``R_22`` under the
    dependence threshold ends the start, and so do more than 3
    factorizations; the size is then 0, as for fewer than four rows.
    """
    blocks = [_chain(d) for d in depths]
    if pair is not None:
        ratio = geometry._DEPENDENCE_TOL * (2.0 if pair == "above" else 0.5)
        blocks.append(_near_pair(ratio))
    k = sum(len(c) for _, c in blocks)
    M = np.zeros((k, n))
    c = np.empty(k)
    at = 0
    for Ab, cb in blocks:
        d = len(cb)
        M[at:at + d, at:at + d] = Ab
        c[at:at + d] = cb
        at += d
    scale = 10.0 ** rng.uniform(-1.0, 1.0, size=k)
    order = rng.permutation(k)
    A = (scale[:, None] * M @ _rotation(rng, n))[order]
    c = (10.0 ** rng.uniform(-1.0, 1.0) * scale * c)[order]
    x0 = rng.standard_normal(n)
    if k < geometry._START_MIN_CUTS or pair == "below" or max(depths) > 3:
        size = 0
    else:
        size = k - sum(d - 1 for d in depths) - (pair is not None)
    return x0, A, A @ x0 - c, size


@st.composite
def step_instances(draw):
    """Instances shaped like a ``solve`` step, ``b = A x0 - c`` with c > 0,
    and the start size they must give (None where it is not known ahead).

    ``generic``: Gaussian rows, k <= n. ``acute``: rows with pairwise
    nonnegative inner products and ``c = A A^T lam`` for lam > 0, whose
    projection is ``x0 - A^T lam``; a start from all rows is taken when
    k >= 4. ``blocks``: see ``_block_instance``. ``single``, ``over``
    (k > n) and ``satisfied`` (one cut holds at x0) never try the start.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["generic", "acute", "blocks", "single", "over", "satisfied"]))
    n = draw(st.one_of(st.integers(4, 8), st.integers(9, 200)))
    if shape == "blocks":
        depths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        pair = draw(st.sampled_from([None, "above", "below"]))
        dims = sum(depths) + 2 * (pair is not None)
        return (*_block_instance(rng, max(n, dims), depths, pair), None)
    k = {"single": 1, "over": n + draw(st.integers(1, n))}.get(shape)
    if k is None:
        k = draw(st.integers(2, n))
    if shape == "acute":
        A = np.abs(rng.standard_normal((k, n))) @ _rotation(rng, n)
        A *= 10.0 ** rng.uniform(-1.0, 1.0, size=(k, 1))
        lam = rng.uniform(0.5, 2.0, size=k)
        x0 = rng.standard_normal(n)
        size = k if k >= geometry._START_MIN_CUTS else 0
        return x0, A, A @ x0 - A @ (A.T @ lam), size, x0 - A.T @ lam
    A = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-1.0, 1.0, size=(k, 1))
    c = rng.uniform(0.01, 1.0, size=k) * np.linalg.norm(A, axis=1)
    if shape == "satisfied":
        c[rng.integers(k)] *= -1.0
    x0 = rng.standard_normal(n)
    return x0, A, A @ x0 - c, None if shape == "generic" else 0, None


def _qr_start(A, b, x):
    """The whole-bundle start as one Householder QR of ``A[S].T`` per
    attempt, the reference for the kernel's Gram start: ``(S, point)``, or
    None where it starts cold."""
    norms = np.linalg.norm(A, axis=1)
    work = np.arange(len(A))
    for _ in range(geometry._START_FACTORIZATIONS):
        normals = A[work]
        q, r = np.linalg.qr(normals.T)
        diag = np.diag(r)
        if (np.abs(diag) <= geometry._DEPENDENCE_TOL * norms[work]).any():
            return None
        sign = np.copysign(1.0, diag)[:, None]
        rinv = np.triu(np.linalg.inv(sign * r))
        y = rinv.T @ (normals @ x - b[work])
        keep = rinv @ y >= 0.0
        if keep.all():
            point = x - y @ (sign * q.T)
            return (work.tolist(), point) if np.isfinite(point).all() else None
        work = work[keep]
        if not work.size:
            return None
    return None


class TestBundleStart:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(step_instances())
    def test_certificate_and_start_size(self, inst):
        x0, A, b, size, point = inst
        res = _project_or_none(x0, A, b)
        assert (res is None) == (_least_violation(A, b) > 0.0)
        oracle = brute_force_projection(x0, A, b) if len(A) <= 8 else None
        if len(A) <= 8:
            assert (res is None) == (oracle is None)
        if res is None:
            return
        assert _kkt_error(x0, A, b, res) == ""
        if oracle is not None:
            assert np.linalg.norm(res.point - oracle) <= 1e-8
        if point is not None:
            assert np.linalg.norm(res.point - point) <= 1e-9 * (1.0 + np.linalg.norm(x0))
        assert len(res.active_set) == res.start_size + res.adds - res.drops
        assert 0 <= res.start_size <= len(A)
        if size is not None:
            assert res.start_size == size

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(step_instances())
    def test_gram_start_matches_qr_start(self, inst):
        x0, A, b, _, _ = inst
        poly = CutPolyhedron(A, b)
        scaled = poly.scaled_violations(x0)
        assume(geometry._START_MIN_CUTS <= len(A) <= poly.dim)
        assume((scaled > geometry.FEASIBILITY_TOL).all())
        ws = geometry._WorkingSet(poly.normals)
        point = geometry._bundle_start(ws, poly.normal_norms, scaled, x0)
        reference = _qr_start(A, b, x0)
        assert (point is None) == (reference is None)
        size = project_polyhedron(x0, poly).start_size
        if reference is None:
            assert (ws.work, size) == ([], 0)
            return
        work, ref_point = reference
        assert (ws.work, size) == (work, len(work))
        assert np.linalg.norm(point - ref_point) <= 1e-9 * (1.0 + np.linalg.norm(x0))

    @pytest.mark.parametrize("log_norm", [(-161.0, -150.0), (149.5, 150.5)])
    def test_start_taken_at_extreme_row_scales(self, log_norm):
        # Acute bundles with unit-normal multipliers mu in [0.5, 2], so the
        # start keeps every cut. The row lengths square to below the
        # smallest normal double, or to near 1e300: a Gram matrix of the
        # rows themselves loses the small ones to subnormal round-off.
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(4, n + 1))
            x0, A, b = _acute_instance(rng, n, k, log_norm)
            res = project_polyhedron(x0, CutPolyhedron(A, b))
            assert res.start_size == k
            assert _kkt_error(x0, A, b, res) == ""

    @pytest.mark.parametrize("depth, factorizations, size",
                             [(1, 1, 4), (2, 2, 4), (3, 3, 4), (4, 3, 0), (5, 3, 0)])
    def test_chain_prunes_one_cut_per_factorization(self, monkeypatch, depth,
                                                    factorizations, size):
        # A chain beside three single cuts: k = depth + 3.
        rng = np.random.default_rng(depth)
        x0, A, b, expected = _block_instance(rng, depth + 5, [depth, 1, 1, 1], None)
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda M: (calls.append(M.shape), cholesky(M))[1])
        res = project_polyhedron(x0, CutPolyhedron(A, b))
        assert (res.start_size, expected) == (size, size)
        k = depth + 3
        assert [m for _, m in calls] == list(range(k, k - factorizations, -1))
        assert _kkt_error(x0, A, b, res) == ""

    @pytest.mark.parametrize("k", [2, 3])
    def test_two_or_three_cuts_start_cold(self, monkeypatch, k):
        calls = []
        monkeypatch.setattr(np.linalg, "qr", lambda M: calls.append(M))
        monkeypatch.setattr(np.linalg, "cholesky", lambda M: calls.append(M))
        A = np.eye(k, 5)
        res = project_polyhedron(np.ones(5), CutPolyhedron(A, np.zeros(k)))
        assert (res.start_size, res.adds, res.drops, calls) == (0, k, 0, [])
        assert_allclose(res.point, np.r_[np.zeros(k), np.ones(5 - k)])

    def test_start_only_builds_no_factors(self, monkeypatch):
        # A projection that ends at its start never needs the QR factors,
        # nor the buffers that would hold them.
        rng = np.random.default_rng(8)
        instances = [_acute_instance(rng, 12, k) for k in range(4, 10)]
        calls = []
        for name in ("factor", "_allocate"):
            method = getattr(geometry._WorkingSet, name)
            monkeypatch.setattr(geometry._WorkingSet, name,
                                lambda ws, m=method, name=name: (calls.append(name), m(ws))[1])
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda M: (calls.append("qr"), qr(M))[1])
        for x0, A, b in instances:
            k = len(A)
            res = project_polyhedron(x0, CutPolyhedron(A, b))
            assert (res.start_size, res.adds, res.drops) == (k, 0, 0)
            assert _kkt_error(x0, A, b, res) == ""
        assert calls == []

    def test_factors_hold_after_start_and_later_drops(self, monkeypatch):
        # The start leaves its QR factors to the first split that needs
        # them; check them there and after every later drop.
        factor, drop = geometry._WorkingSet.factor, geometry._WorkingSet.drop
        started, dropped = [], []

        def checking_factor(ws):
            factor(ws)
            ws.started = True
            started.append(_assert_factors_hold(ws))

        def checking_drop(ws, j):
            drop(ws, j)
            if getattr(ws, "started", False):
                dropped.append(_assert_factors_hold(ws))

        monkeypatch.setattr(geometry._WorkingSet, "factor", checking_factor)
        monkeypatch.setattr(geometry._WorkingSet, "drop", checking_drop)
        rng = np.random.default_rng(5)
        for _ in range(600):
            n = int(rng.integers(4, 11))
            k = int(rng.integers(4, n + 1))
            A = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-1.0, 1.0, size=(k, 1))
            x0 = rng.standard_normal(n)
            b = A @ x0 - rng.uniform(0.01, 1.0, size=k) * np.linalg.norm(A, axis=1)
            res = project_polyhedron(x0, CutPolyhedron(A, b))
            assert _kkt_error(x0, A, b, res) == ""
        assert len(started) > 100
        assert len(dropped) >= 10


class TestInputIsOnlyRead:
    """``project_polyhedron`` reads x0 and returns a point of its own, on
    every path of the kernel. The query points are 1-D float64 arrays,
    which ``as_vector`` passes through uncopied."""

    @staticmethod
    def _project(x0, A, b):
        assert geometry.as_vector(x0) is x0
        before = x0.tobytes()
        res = project_polyhedron(x0, CutPolyhedron(A, b))
        assert not np.shares_memory(res.point, x0)
        assert x0.tobytes() == before
        return res

    def test_feasible_point(self):
        x0 = np.array([0.5, -0.25, 1.0])
        res = self._project(x0, np.eye(3), np.full(3, 2.0))
        assert res.feasible
        assert res.point.tobytes() == x0.tobytes()

    def test_start_only(self):
        x0, A, b = _acute_instance(np.random.default_rng(3), 8, 6)
        res = self._project(x0, A, b)
        assert (res.start_size, res.adds, res.drops) == (6, 0, 0)

    def test_cold_loop_with_drops(self):
        res = self._project(*_hard_instance(6, 3, 12, "generic", 1.0, False))
        assert res.start_size == 0 and res.drops > 0

    def test_start_then_drops(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(4, 11))
            k = int(rng.integers(4, n + 1))
            A = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-1.0, 1.0, size=(k, 1))
            x0 = rng.standard_normal(n)
            b = A @ x0 - rng.uniform(0.01, 1.0, size=k) * np.linalg.norm(A, axis=1)
            res = self._project(x0, A, b)
            if res.start_size and res.drops:
                return
        pytest.fail("no projection started and then dropped a cut")


def min_ratio_reference(lam, r):
    """``_min_ratio`` written out in NumPy: the ratios, inf where r_j does
    not exceed ``MULTIPLIER_TOL``, and the first of their minima by
    ``argmin``, which picks the first NaN when there is one."""
    lam, r = np.array(lam, dtype=float), np.array(r, dtype=float)
    with np.errstate(all="ignore"):
        ratios = np.full(lam.size, np.inf)
        np.divide(lam, r, out=ratios, where=r > geometry.MULTIPLIER_TOL)
    j = int(np.argmin(ratios))
    best = float(ratios[j])
    return (best, j) if best < np.inf else (np.inf, -1)


_TOL = geometry.MULTIPLIER_TOL
# Entries that tie, overflow a ratio (1e300 over a divisor near the
# tolerance), sit exactly at the tolerance or one ulp either side of it,
# or are not finite.
RATIO_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e300, -1e300, 5e-324,
                     _TOL, np.nextafter(_TOL, 0.0), np.nextafter(_TOL, 1.0),
                     np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def ratio_pairs(draw):
    m = draw(st.integers(1, 7))
    row = st.lists(RATIO_ENTRY, min_size=m, max_size=m)
    return draw(row), draw(row)


class TestMinRatio:
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(ratio_pairs())
    @example(([1.0, 2.0, 1.0], [1.0, 2.0, 1.0]))
    @example(([0.0, -0.0], [1.0, 1.0]))
    @example(([-0.0, 0.0, 1.0], [1.0, 1.0, 1.0]))
    @example(([1.0, np.nan, 0.0], [1.0, 1.0, 1.0]))
    @example(([1.0, 1.0], [_TOL, np.nextafter(_TOL, 1.0)]))
    @example(([1e300, -1e300], [np.nextafter(_TOL, 1.0), np.nextafter(_TOL, 1.0)]))
    @example(([np.inf, 1.0], [np.inf, np.nan]))
    def test_matches_the_numpy_reference(self, pair):
        lam, r = pair
        got = geometry._min_ratio(np.array(lam), np.array(r))
        want = min_ratio_reference(lam, r)
        assert type(got[0]) is float and type(got[1]) is int
        assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])


def _record_instance(case):
    """A query point and cuts for each return path of the kernel."""
    if case == "feasible":
        return np.array([0.5, -0.25, 1.0]), np.eye(3), np.full(3, 2.0)
    if case == "start_only":
        return _acute_instance(np.random.default_rng(3), 8, 6)
    return _hard_instance(6, 3, 12, "generic", 1.0, False)


class TestProjectionRecord:
    """The kernel fills its frozen record without ``__init__``; the record
    must behave as one made by the constructor."""

    @pytest.mark.parametrize("case", ["feasible", "start_only", "loop"])
    def test_plain_record(self, case):
        x0, A, b = _record_instance(case)
        res = project_polyhedron(x0, CutPolyhedron(A, b))
        names = [f.name for f in dataclasses.fields(geometry.ProjectionResult)]
        assert type(res) is geometry.ProjectionResult
        assert list(vars(res)) == names
        built = geometry.ProjectionResult(*(getattr(res, name) for name in names))
        assert res == built
        assert repr(res) == repr(built)
        copy = dataclasses.replace(res)
        assert type(copy) is geometry.ProjectionResult
        assert all(getattr(copy, name) is getattr(res, name) for name in names)
        assert copy == res and repr(copy) == repr(res)
        assert res.feasible is built.feasible is (case == "feasible")
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.adds = 1
        assert type(res.active_set) is list
        assert all(type(j) is int for j in res.active_set)
        assert res.multipliers.dtype == np.float64 and res.multipliers.ndim == 1
        assert all(type(v) is int for v in (res.adds, res.drops, res.start_size))
        if case == "feasible":
            # The constructor's defaults, with only the point given.
            assert repr(res) == repr(geometry.ProjectionResult(res.point))
        elif case == "start_only":
            assert (res.start_size, res.adds, res.drops) == (6, 0, 0)
        else:
            assert res.start_size == 0 and res.adds > 0 and res.drops > 0

    @pytest.mark.parametrize("case", ["feasible", "start_only", "loop"])
    def test_equal_calls_give_equal_records(self, case):
        # Each call builds its arrays anew, so the records compare by the
        # arrays' bytes, not by the arrays being one object.
        x0, A, b = _record_instance(case)
        P = CutPolyhedron(A, b)
        res = project_polyhedron(x0, P)
        assert res == project_polyhedron(x0, P)
        assert res != dataclasses.replace(res, adds=res.adds + 1)
        for field in ("point", "multipliers"):
            assert_compares_by_bytes(res, field)

    def test_feasible_records_share_nothing(self):
        P = CutPolyhedron(np.eye(2), [1.0, 1.0])
        first, second = (project_polyhedron([0.0, 0.0], P) for _ in range(2))
        assert first.active_set is not second.active_set
        assert first.multipliers is not second.multipliers
        first.active_set.append(0)
        assert second.active_set == []


class TestVariationalInequality:
    def test_corner_instance_nonpositive(self):
        P = CutPolyhedron([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        res = project_polyhedron([1.0, 1.0], P)
        report = check_variational_inequality([1.0, 1.0], res, P, samples=200, seed=7)
        assert report.max_violation <= 0.0
        assert report.n_samples == 200

    def test_feasible_origin_gives_exact_zero(self):
        P = CutPolyhedron([[1.0, 0.0]], [1.0])
        res = project_polyhedron([0.0, 0.0], P)
        report = check_variational_inequality([0.0, 0.0], res, P, samples=50, seed=1)
        assert report.max_violation == 0.0

    def test_numpy_sample_count_is_reported_as_an_int(self):
        # The report carried the NumPy count it was given.
        P = CutPolyhedron([[1.0, 0.2], [-0.3, 1.0]], [0.4, 0.2])
        res = project_polyhedron([2.0, 2.0], P)
        report = check_variational_inequality([2.0, 2.0], res, P, samples=np.int64(64), seed=42)
        assert type(report.n_samples) is int and type(report.n_attempts) is int
        assert report == check_variational_inequality([2.0, 2.0], res, P, samples=64, seed=42)

    def test_deterministic_given_seed(self):
        P = CutPolyhedron([[1.0, 0.2], [-0.3, 1.0]], [0.4, 0.2])
        res = project_polyhedron([2.0, 2.0], P)
        r1 = check_variational_inequality([2.0, 2.0], res, P, samples=64, seed=42)
        r2 = check_variational_inequality([2.0, 2.0], res, P, samples=64, seed=42)
        assert r1 == r2

    def test_random_battery_normalized_bound(self, rng):
        checked = 0
        for _ in range(40):
            x0, A, b = random_projection_instance(rng)
            poly = CutPolyhedron.from_arrays(A, b)
            try:
                res = project_polyhedron(x0, poly)
            except InfeasiblePolyhedronError:
                continue
            report = check_variational_inequality(
                x0, res, poly, samples=100, seed=checked
            )
            assert report.max_normalized_violation <= 1e-9
            checked += 1
        assert checked >= 20

    def test_no_feasible_sample_on_degenerate_point_set(self):
        # {x : x <= 0 and -x <= 0} is the single point 0; rejection cannot
        # hit it and the deepest ball has zero radius.
        P = CutPolyhedron([[1.0], [-1.0]], [0.0, 0.0])
        res = project_polyhedron([3.0], P)
        with pytest.raises(NoFeasibleSampleFoundError):
            check_variational_inequality([3.0], res, P, samples=10, seed=0)

    @pytest.mark.parametrize("samples", [2.5, True])
    def test_samples_must_be_an_integer(self, samples):
        # Both raised a bare TypeError.
        P = CutPolyhedron([[1.0, 0.0]], [0.0])
        res = project_polyhedron([1.0, 0.0], P)
        with pytest.raises(ValueError, match="samples must be an integer"):
            check_variational_inequality([1.0, 0.0], res, P, samples=samples)

    def test_point_outside_polyhedron_rejected(self):
        P = CutPolyhedron([[1.0, 0.0]], [0.0])
        res = project_polyhedron([1.0, 0.0], P)
        bad = type(res)(point=np.array([5.0, 0.0]))
        with pytest.raises(ValueError):
            check_variational_inequality([1.0, 0.0], bad, P, samples=10, seed=0)

    @pytest.mark.parametrize("point, error, message", [
        ([np.nan, 0.0], ValueError, "must be finite"),
        ([0.0, 0.0, 0.0], DimensionMismatchError, "dimension"),
        ([1e-8 + 1e-7, 0.0], ValueError, "does not lie in the polyhedron"),
    ])
    def test_bad_result_point_raises(self, point, error, message):
        # The point is checked once, by as_vector, and then tested against
        # the cuts with the tolerance; the last point is 1e-7 outside it.
        P = CutPolyhedron([[1.0, 0.0]], [0.0])
        res = type(project_polyhedron([1.0, 0.0], P))(point=np.array(point))
        with pytest.raises(error, match=message):
            check_variational_inequality([1.0, 0.0], res, P, samples=10, seed=0)
        inside = type(res)(point=np.array([1e-8, 0.0]))
        report = check_variational_inequality([1.0, 0.0], inside, P, samples=10, seed=0)
        assert report.n_samples == 10

    def test_slab_far_from_the_origin(self):
        # The slab 2e4 <= x_1 <= 2e4 + 1e-3 is too thin for rejection draws
        # to hit, so the quota rests on its interior point. A Chebyshev LP
        # that boxed the center within |c_i| <= 1e4 found none here.
        P = CutPolyhedron([[-1.0, 0.0], [1.0, 0.0]], [-2e4, 2e4 + 1e-3])
        res = project_polyhedron([3e4, 0.0], P)
        assert_allclose(geometry.chebyshev_point(P, res.point), [2e4 + 5e-4, 0.0],
                        rtol=0.0, atol=1e-9)
        report = check_variational_inequality([3e4, 0.0], res, P, samples=10, seed=0)
        assert (report.n_samples, report.n_attempts) == (10, 2000)
        assert report.max_normalized_violation <= 1e-9

    @pytest.mark.parametrize("x0", [[3e153, 1.0], [1e154, 1.0], [1.4e154, 1.0]])
    def test_query_point_too_far_raises(self, x0):
        # The scores overflow from the first two points; unchecked, they
        # give a normalized violation of -0.0 and NaN. From the third,
        # ||x0 - x1|| itself overflows, so the check raises before any draw.
        P = CutPolyhedron([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        res = project_polyhedron(x0, P)
        rows = []
        real = np.random.default_rng
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
            warnings.simplefilter("error")
            mp.setattr(np.random, "default_rng", lambda s: _DrawRecorder(real(s), rows))
            with pytest.raises(ValueError, match="too far"):
                check_variational_inequality(x0, res, P, samples=100)
        assert (not rows) == (x0[0] == 1.4e154)


@st.composite
def chebyshev_instances(draw):
    """n <= 5, k <= 6: generic cuts around an anchor, some with a pair of
    opposite cuts through the anchor (a zero-width slab in a random
    direction), and a start whose projection anchors the interior point."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat = draw(st.booleans())
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 4 if flat else 6))
    A = rng.standard_normal((k, n))
    A[np.linalg.norm(A, axis=1) < 1e-3, 0] = 1.0
    A *= 10.0 ** rng.uniform(-1.0, 1.0, size=(k, 1))
    anchor = rng.standard_normal(n)
    b = A @ anchor + rng.uniform(-0.5, 1.0, size=k) * np.linalg.norm(A, axis=1)
    if flat:
        a = rng.standard_normal(n) + 1e-3
        A, b = np.vstack([A, a, -a]), np.append(b, [a @ anchor, -(a @ anchor)])
    return anchor + 2.0 * rng.standard_normal(n), A, b


class TestChebyshevPoint:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(chebyshev_instances())
    def test_none_exactly_when_the_lp_finds_no_ball(self, inst):
        x0, A, b = inst
        poly = CutPolyhedron(A, b)
        try:
            near = project_polyhedron(x0, poly).point
        except InfeasiblePolyhedronError:
            assume(False)
        center = geometry.chebyshev_point(poly, near)
        assert (center is None) == (-_least_violation(A, b) <= 1e-12)
        if center is not None:
            assert (poly.scaled_violations(center) < 0.0).all()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_width_slab_gives_none(self, n):
        a = np.eye(n)[0]
        P = CutPolyhedron([a, -a], [0.0, 0.0])
        assert geometry.chebyshev_point(P, np.zeros(n)) is None

    def test_round_off_radius_on_a_tilted_zero_width_slab(self):
        # Rows 2 and 3 are opposite cuts through one line. Here the lifted
        # projection ends with a radius of about 1.1e-12, which is round-off:
        # its center violates row 2 by about 1.1e-12.
        P = CutPolyhedron(
            [[-0.1769408318604141, -0.34112628762957403],
             [0.5160799753741088, -0.07658715787478723],
             [0.15416278073388473, 0.5855080706106454],
             [-0.15416278073388473, -0.5855080706106454]],
            [0.569756874687203, -0.46681087882829053, -0.3676546554062162,
             0.3676546554062162])
        near = [-4.081067294288751, 0.4466104570868308]
        assert geometry.chebyshev_point(P, near) is None

    @pytest.mark.parametrize("length", [9.4e153, 9.5e153, 1.2e154, 1.3e154])
    def test_lifted_row_too_long_for_a_float(self, length):
        # From a row length of about 9.48e153 the lifted row [a, ||a||] is
        # too long for a float, though a is not. There is then no interior
        # point, and no warning; the checker samples by rejection alone.
        P = CutPolyhedron([[length, 0.0], [0.0, 1.0]], [0.0, 1.0])
        res = project_polyhedron([1.0, 0.5], P)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            center = geometry.chebyshev_point(P, res.point)
            report = _assert_matches_reference([1.0, 0.5], P, samples=20, seed=0)
        assert (center is None) == (length > 9.4e153)
        if center is not None:
            assert (P.scaled_violations(center) < 0.0).all()
        assert report.n_samples == 20

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_single_halfspace_depth_is_the_cap(self, rng, n):
        for _ in range(20):
            a = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 2.0)
            h = halfspace(a, float(rng.standard_normal()))
            near = nearest_point(10.0 * rng.standard_normal(n), h)
            center = geometry.chebyshev_point(h, near)
            depth = -h.scaled_violations(center)[0]
            assert_allclose(depth, geometry._CHEBYSHEV_RADIUS_CAP, rtol=1e-12)


def _reference_vi(x0, result, poly, samples, seed):
    """The VI checker as a loop over one draw at a time: the test oracle.

    It reads the generator, tests feasibility and scores the samples one
    vector at a time; the checker must return an equal report.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = result.point
    rng = np.random.default_rng(seed)
    gap = x0 - x1
    scale = 1.0 + float(np.linalg.norm(gap))
    interior = geometry.chebyshev_point(poly, x1)
    ys = [] if interior is None else [interior]
    budget = 200 * samples
    attempts = 0
    radii = (0.5 * scale, 2.0 * scale, 0.05 * scale)
    while len(ys) < samples and attempts < budget:
        y = x1 + radii[attempts % 3] * rng.standard_normal(poly.dim)
        attempts += 1
        if poly.contains(y, 0.0):
            ys.append(y)
    if len(ys) < samples and interior is not None:
        while len(ys) < samples:
            ys.append(x1 + rng.uniform(0.0, 1.0) * (interior - x1))
    if len(ys) < samples:
        raise NoFeasibleSampleFoundError(
            f"found {len(ys)}/{samples} feasible samples in {attempts} attempts"
        )
    max_violation = max_normalized = -np.inf
    for y in ys:
        v = float(np.dot(gap, y - x1))
        denom = 1.0 + float(np.linalg.norm(gap)) * float(np.linalg.norm(y - x1))
        max_violation = max(max_violation, v)
        max_normalized = max(max_normalized, v / denom)
    return geometry.VariationalInequalityReport(
        max_violation, max_normalized, len(ys), attempts
    )


def _report_bits(report):
    """Report fields with floats as hex, so that -0.0 and 0.0 differ."""
    return (report.max_violation.hex(), report.max_normalized_violation.hex(),
            report.n_samples, report.n_attempts)


def _assert_matches_reference(x0, poly, samples, seed):
    """Run the checker and the oracle on one instance; return the report."""
    res = project_polyhedron(x0, poly)
    try:
        want = _reference_vi(x0, res, poly, samples, seed)
    except NoFeasibleSampleFoundError as exc:
        with pytest.raises(NoFeasibleSampleFoundError) as got:
            check_variational_inequality(x0, res, poly, samples=samples, seed=seed)
        assert str(got.value) == str(exc)
        return None
    got = check_variational_inequality(x0, res, poly, samples=samples, seed=seed)
    assert got == want
    assert _report_bits(got) == _report_bits(want)
    return got


@st.composite
def vi_instances(draw, shapes=("generic", "interior", "thin"), samples=st.integers(1, 12)):
    """n <= 5, k <= 6: generic cuts, cuts around an interior start (x0 = x1),
    or cuts plus a thin slab through the anchor that rejects most draws;
    one of ``shapes``, with a sample count drawn from ``samples``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    shape = draw(st.sampled_from(list(shapes)))
    A = rng.standard_normal((k, n))
    A[np.linalg.norm(A, axis=1) < 1e-3, 0] = 1.0
    A *= 10.0 ** rng.uniform(-1.0, 1.0, size=(k, 1))
    anchor = rng.standard_normal(n)
    low = 0.1 if shape == "interior" else -0.5
    b = A @ anchor + rng.uniform(low, 1.0, size=k) * np.linalg.norm(A, axis=1)
    if shape == "thin":
        a = rng.standard_normal(n) + 1e-3
        half = 0.5 * 10.0 ** rng.uniform(-6.0, -1.0) * np.linalg.norm(a)
        A = np.vstack([A, a, -a])
        b = np.append(b, [a @ anchor + half, half - a @ anchor])
    x0 = anchor if shape == "interior" else anchor + 2.0 * rng.standard_normal(n)
    return x0, A, b, draw(samples), draw(st.integers(0, 2**32 - 1))


def _stacked_chebyshev_point(poly, near):
    """``chebyshev_point`` with its lifted polyhedron and query point built
    by stacking; returns them and the center."""
    lifted = CutPolyhedron(
        np.vstack([np.column_stack([poly.normals, poly.normal_norms]),
                   np.eye(1, poly.dim + 1, poly.dim)]),
        np.append(poly.offsets, geometry._CHEBYSHEV_RADIUS_CAP),
    )
    query = np.append(near, geometry._CHEBYSHEV_HEIGHT)
    try:
        point = project_polyhedron(query, lifted).point
    except ProjectionFailedError:
        return lifted, query, None
    c, r = point[:-1], point[-1]
    return lifted, query, c if r > 1e-12 and (poly.normals @ c < poly.offsets).all() else None


class TestChebyshevLift:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(vi_instances())
    def test_lift_is_the_stacked_form(self, inst):
        x0, A, b, _, _ = inst
        poly = CutPolyhedron(A, b)
        try:
            near = project_polyhedron(x0, poly).point
        except InfeasiblePolyhedronError:
            assume(False)
        calls = []
        real = geometry.project_polyhedron

        def recording(x, lifted):
            calls.append((x, lifted))
            return real(x, lifted)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "project_polyhedron", recording)
            center = geometry.chebyshev_point(poly, near)
        [(query, lifted)] = calls
        want_lifted, want_query, want_center = _stacked_chebyshev_point(poly, near)
        assert lifted.normals.shape == want_lifted.normals.shape
        assert lifted.normals.tobytes() == want_lifted.normals.tobytes()
        assert lifted.offsets.tobytes() == want_lifted.offsets.tobytes()
        assert lifted.normal_norms.tobytes() == want_lifted.normal_norms.tobytes()
        assert query.tobytes() == want_query.tobytes()
        assert (center is None) == (want_center is None)
        if center is not None:
            assert center.tobytes() == want_center.tobytes()


class TestVariationalInequalityReference:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(vi_instances())
    def test_matches_one_draw_at_a_time(self, inst):
        x0, A, b, samples, seed = inst
        poly = CutPolyhedron(A, b)
        try:
            project_polyhedron(x0, poly)
        except InfeasiblePolyhedronError:
            assume(False)
        _assert_matches_reference(x0, poly, samples, seed)

    def test_budget_exhausted_then_segment_top_up(self):
        # The slab {0 <= x_1 <= 1e-6} rejects nearly every draw, so the whole
        # budget is spent and the segment toward the interior fills the quota.
        P = CutPolyhedron([[-1.0, 0.0], [1.0, 0.0]], [0.0, 1e-6])
        report = _assert_matches_reference([2.0, 0.5], P, samples=10, seed=3)
        assert (report.n_samples, report.n_attempts) == (10, 2000)

    def test_no_feasible_sample(self):
        P = CutPolyhedron([[1.0], [-1.0]], [0.0, 0.0])
        assert _assert_matches_reference([3.0], P, samples=10, seed=0) is None

    @pytest.mark.parametrize("x0", [[0.0], [0.0, 0.0]])
    def test_block_accepts_more_rows_than_needed(self, x0):
        # x0 lies inside, so x1 = x0, every score is a signed zero, and the
        # first block accepts nearly all of its rows but keeps only four.
        P = CutPolyhedron(np.eye(len(x0))[:1], [10.0])
        report = _assert_matches_reference(x0, P, samples=5, seed=2)
        assert report.n_attempts < geometry._VI_BLOCK_ROWS

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_generator_streams_match_one_draw_at_a_time(self, n):
        # The checker draws its normals and its segment uniforms in blocks
        # and relies on them equalling draws made one at a time.
        rng = np.random.default_rng(11)
        one_by_one = [rng.standard_normal(n) for _ in range(500)]
        assert np.array_equal(np.random.default_rng(11).standard_normal((500, n)), one_by_one)
        rng = np.random.default_rng(12)
        one_by_one = [rng.uniform(0.0, 1.0) for _ in range(500)]
        assert np.array_equal(np.random.default_rng(12).uniform(0.0, 1.0, size=500), one_by_one)


class _DrawRecorder:
    """A generator that records the size of each ``standard_normal`` draw
    and hands every call to the generator it wraps."""

    def __init__(self, rng, sizes):
        self._rng = rng
        self._sizes = sizes

    def standard_normal(self, size):
        self._sizes.append(size)
        return self._rng.standard_normal(size)

    def uniform(self, *args, **kwargs):
        return self._rng.uniform(*args, **kwargs)


def _checked_blocks(x0, poly, samples, seed):
    """``_assert_matches_reference`` with every generator recording its
    draws; returns the report and the row counts of the checker's blocks,
    after asserting that no block exceeds the cap or runs past the budget."""
    sizes = []
    real = np.random.default_rng
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda s: _DrawRecorder(real(s), sizes))
        report = _assert_matches_reference(x0, poly, samples, seed)
    # The oracle draws one n-vector at a time; the checker draws (m, n) blocks.
    blocks = [size for size in sizes if isinstance(size, tuple)]
    assert blocks and all(n == poly.dim for _, n in blocks)
    rows = [m for m, _ in blocks]
    assert rows[0] <= min(max(geometry._VI_BLOCK_ROWS, 4 * samples), geometry._VI_MAX_BLOCK_ROWS)
    assert max(rows[1:], default=0) <= geometry._VI_MAX_BLOCK_ROWS
    assert sum(rows) <= 200 * samples
    return report, rows


class TestVariationalInequalityBlocks:
    """The block schedule of the rejection sampler: whatever it draws, the
    report is the one-draw-at-a-time oracle's, bit for bit."""

    def test_thin_slab(self):
        # {0 <= x_1 <= 1e-3} accepts a few draws in a thousand: every block
        # after the first is sized at the cap until the budget ends, and the
        # segment top-up fills the rest.
        P = CutPolyhedron([[-1.0, 0.0], [1.0, 0.0]], [0.0, 1e-3])
        report, rows = _checked_blocks([2.0, 0.5], P, samples=100, seed=5)
        assert report.n_attempts == 20000
        assert len(rows) <= math.ceil((20000 - rows[0]) / geometry._VI_MAX_BLOCK_ROWS) + 1

    def test_slab_sized_from_its_acceptance(self):
        # {0 <= x_1 <= 0.03} accepts about 3% of the draws, so the blocks
        # shrink toward the floor as the quota fills.
        P = CutPolyhedron([[-1.0, 0.0], [1.0, 0.0]], [0.0, 0.03])
        report, rows = _checked_blocks([2.0, 0.5], P, samples=100, seed=5)
        assert report.n_attempts < 20000
        assert geometry._VI_BLOCK_ROWS in rows
        assert any(geometry._VI_BLOCK_ROWS < m < geometry._VI_MAX_BLOCK_ROWS for m in rows[1:])

    def test_zero_acceptance_slab(self):
        # {0 <= x_1 <= 0} holds no draw: each block after the first is four
        # times the one before up to the cap, where blocks of a fixed 400
        # rows would take 50.
        P = CutPolyhedron([[-1.0, 0.0], [1.0, 0.0]], [0.0, 0.0])
        report, rows = _checked_blocks([2.0, 0.5], P, samples=100, seed=5)
        assert report is None
        assert sum(rows) == 20000
        assert rows[0] == 400
        assert len(rows) <= math.ceil((20000 - rows[0]) / geometry._VI_MAX_BLOCK_ROWS) + 1

    def test_accepting_halfspace_takes_one_block(self):
        # x0 lies deep inside, so x1 = x0 and nearly every draw is kept. The
        # interior point is sample 0, so the first block draws for 99.
        P = CutPolyhedron([[1.0, 0.0]], [1e3])
        report, rows = _checked_blocks([0.0, 0.0], P, samples=100, seed=5)
        assert rows == [4 * 99]
        assert report.n_attempts < 4 * 99

    @pytest.mark.parametrize("samples", [300, 1000])
    def test_first_block_is_capped(self, samples):
        # 4 * need exceeds the cap: the first block holds 1023 rows, on a
        # halfspace that keeps every draw as on a slab that keeps few.
        P = CutPolyhedron([[1.0, 0.0]], [1e3])
        report, rows = _checked_blocks([0.0, 0.0], P, samples=samples, seed=5)
        assert rows == [geometry._VI_MAX_BLOCK_ROWS]
        assert report.n_attempts == samples - 1
        P = CutPolyhedron([[-1.0, 0.0], [1.0, 0.0]], [0.0, 1e-3])
        report, rows = _checked_blocks([2.0, 0.5], P, samples=samples, seed=5)
        assert rows[0] == geometry._VI_MAX_BLOCK_ROWS
        assert report.n_attempts == sum(rows) == 200 * samples

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.floats(allow_nan=False),
                              st.sampled_from([1e154, -1.4e154, 1e200, 5e-324])),
                    min_size=1, max_size=6))
    @example([1e200, 1e200])
    @example([np.inf, -1.0])
    def test_gap_norm_is_linalg_norm(self, gap):
        # The checker takes ||x0 - x1|| as the square root of a dot product,
        # which is what np.linalg.norm computes for a real 1-D array.
        gap = np.array(gap)
        with np.errstate(over="ignore"):
            want = float(np.linalg.norm(gap))
            got = math.sqrt(gap.dot(gap))
        assert got.hex() == want.hex()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(vi_instances(shapes=("thin",), samples=st.integers(60, 120)))
    # The slab {0 <= x_1 <= 1e-3} from (2, 0.5): seeds 0-4 at 100 samples
    # and seed 0 at 300.
    @example(([2.0, 0.5], [[-1.0, 0.0], [1.0, 0.0]], [0.0, 1e-3], 100, 0))
    @example(([2.0, 0.5], [[-1.0, 0.0], [1.0, 0.0]], [0.0, 1e-3], 100, 1))
    @example(([2.0, 0.5], [[-1.0, 0.0], [1.0, 0.0]], [0.0, 1e-3], 100, 2))
    @example(([2.0, 0.5], [[-1.0, 0.0], [1.0, 0.0]], [0.0, 1e-3], 100, 3))
    @example(([2.0, 0.5], [[-1.0, 0.0], [1.0, 0.0]], [0.0, 1e-3], 100, 4))
    @example(([2.0, 0.5], [[-1.0, 0.0], [1.0, 0.0]], [0.0, 1e-3], 300, 0))
    def test_thin_polyhedra_match_one_draw_at_a_time(self, inst):
        x0, A, b, samples, seed = inst
        poly = CutPolyhedron(A, b)
        try:
            project_polyhedron(x0, poly)
        except InfeasiblePolyhedronError:
            assume(False)
        _checked_blocks(x0, poly, samples, seed)
