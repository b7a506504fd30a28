"""Problem zoo and the function/subgradient oracle contract.

Every problem evaluates f(x) as the pointwise maximum of finitely many
pieces. A problem implements exactly two broadcasting oracle methods:

  piece_values(X)     (..., n) -> (..., k)     values of all k pieces
  piece_gradients(X)  (..., n) -> (..., k, n)  gradients of all k pieces

The same two methods serve ``evaluate`` on one point, and
``solve_multistart`` and the sampled convexity check on a batch of points.

The oracles are deterministic, and the solvers rely on it: the same point
gets the same bits, whenever it is evaluated and whatever batch it is in.
A problem keeps no state between calls and draws nothing at random. So a
batched run reproduces the per-point one, and ``solve`` can write the rest
of a stalled run, where the iterate no longer moves, without calling the
oracle again. ``exact_sublevel_distance`` keeps the same contract.

``evaluate`` returns, besides the value, a bundle of generalized gradients
as a (J, n) array: the gradients of all pieces active within a small
threshold, most active first. For a maximum of C1 pieces the generalized
gradients at x form the convex hull of the active-piece gradients, so each
bundle row is a valid element of it. Smooth instances are single-piece
maxima.

Instances:
  ball                     f(x) = ||x - c||^2 - r^2          (smooth, convex)
  max_affine               f(x) = max_j <c_j, x> + d_j       (convex, kinks)
  max_quadratics           f(x) = max_j x'Q_j x + b_j'x + c_j (possibly nonconvex)
  sip_distance             f(x) = max_i dist(x, K_i)         (set intersection)
  shifted_ball_infeasible  f(x) = ||x||^2 + 1                (no feasible point;
                           the gradient vanishes at the origin, which is the
                           designated trigger for the zero-subgradient path)

Each instance class also reads and writes the ``params`` of its kind's JSON
spec, with the defaults and required fields of that kind: the class method
``_from_params(params, dim, activity_tol, name)`` builds a problem from
them, and ``_params()`` returns the params that rebuild the problem. One
registry maps each kind to its class. ``KINDS`` lists the kinds in its
order, and ``problem_from_dict`` and ``problem_to_dict`` dispatch through it.
A count (``dim``, ``j_max``, ``pairs``) is checked by ``check_count`` and
every real scalar (``activity_tol``, a radius, an offset, a constant, a
shift) by ``as_float``, both from ``geometry``.

A kind also owns its two rules. ``activity_mask`` picks the pieces that
enter a bundle; ``sip_distance`` overrides it to leave out zero-distance
bodies while f > 0. ``_sublevel_distances`` gives the exact distance to
{f <= -eps}; only the convex kinds (``ball``, ``max_affine``) define it,
and it is None on the others. ``exact_sublevel_distance`` checks its
arguments and then calls it, and ``supports_sublevel_distance`` asks
whether it is there, so a subclass keeps its parent's rules.
"""

from __future__ import annotations

import math
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    InfeasiblePolyhedronError,
    NotAvailableError,
    SublevelEmptyError,
)
from .geometry import (
    CutPolyhedron,
    as_float,
    as_points,
    as_vector,
    check_count,
    project_polyhedron,
)

DEFAULT_J_MAX = 8


class Evaluation(NamedTuple):
    """Oracle output at one point, a named tuple: value, (J, n) bundle, active pieces."""

    value: float
    bundle: np.ndarray
    active: list[int]


class Problem(ABC):
    """A feasibility instance f(x) <= 0 given as a finite maximum of pieces.

    ``dim`` must pass ``check_count``, and ``activity_tol``, when given, must
    be a finite nonnegative real number, which is stored as a Python float;
    anything else raises ValueError.
    """

    kind: str = ""
    # The kind's exact distances to {f <= -eps}, a method taking an (..., n)
    # stack of checked points and a checked eps >= 0 and returning the (...)
    # distances; None where the kind has no formula for them.
    _sublevel_distances = None

    def __init__(self, dim: int, activity_tol: float | None = None,
                 name: str | None = None):
        self.dim = check_count("dim", dim)
        if activity_tol is not None:
            activity_tol = as_float("activity_tol", activity_tol)
            if not 0.0 <= activity_tol < math.inf:
                raise ValueError("activity_tol must be finite and nonnegative")
        self.activity_tol = activity_tol
        self.name = name or self.kind

    @abstractmethod
    def piece_values(self, X: np.ndarray) -> np.ndarray:
        """Values of all k pieces at each point: (..., n) -> (..., k)."""

    @abstractmethod
    def piece_gradients(self, X: np.ndarray) -> np.ndarray:
        """Gradients of all k pieces at each point: (..., n) -> (..., k, n)."""

    def value(self, x) -> float:
        x = as_vector(x, self.dim)
        return float(np.max(self.piece_values(x)))

    def activity_mask(self, values, f):
        """Which pieces enter the bundle: ``values`` (..., k) against their
        maxima ``f``, which broadcast against them; returns a (..., k) mask.

        A piece is active when its value is within the activity threshold of
        the maximum, ``activity_tol`` or else ``1e-8 * (1 + |f|)``. A kind
        may narrow this rule by overriding the method, as
        ``SipDistanceProblem`` does.
        """
        tol = self.activity_tol
        if tol is None:
            tol = 1e-8 * (1.0 + abs(f))
        return values >= f - tol


def evaluate(problem: Problem, x, j_max: int = DEFAULT_J_MAX) -> Evaluation:
    """Value and subgradient bundle at x.

    The bundle holds the gradients of every piece whose value is within the
    activity threshold of the maximum, ordered most active first (ties by
    piece index) and capped at ``j_max``, which ``check_count`` checks.
    """
    check_count("j_max", j_max)
    x = as_vector(x, problem.dim)
    values = problem.piece_values(x)
    f = float(values.max())
    order = (-values).argsort(kind="stable")
    active = order[problem.activity_mask(values, f)[order]][:j_max]
    return Evaluation(
        value=f, bundle=problem.piece_gradients(x)[active], active=active.tolist()
    )


class BallProblem(Problem):
    """f(x) = ||x - center||^2 - radius^2."""

    kind = "ball"

    def __init__(self, center=(0.0, 0.0), radius: float = 1.0,
                 activity_tol: float | None = None, name: str | None = None):
        center = as_vector(center)
        radius = as_float("radius", radius)
        if not 0.0 < radius < math.inf:
            raise ValueError("radius must be positive and finite")
        # f and the sublevel distance square the radius as a Python float,
        # which raises OverflowError where the square is not finite.
        if radius * radius == math.inf:
            raise ValueError("radius squared must be finite (radius below about 1.34e154)")
        super().__init__(center.size, activity_tol, name)
        self.center = center
        self.radius = radius

    @classmethod
    def _from_params(cls, params, dim, activity_tol, name):
        center = params["center"] if "center" in params else [0.0] * dim
        return cls(center, params.get("radius", 1.0), activity_tol, name)

    def _params(self):
        return {"center": self.center.tolist(), "radius": self.radius}

    def piece_values(self, X):
        D = X - self.center
        return (np.vecdot(D, D) - self.radius**2)[..., None]

    def piece_gradients(self, X):
        return (2.0 * (X - self.center))[..., None, :]

    def _sublevel_distances(self, X, eps):
        # {f <= -eps} is the concentric ball of radius sqrt(r^2 - eps).
        rr = self.radius**2 - eps
        if rr <= 0.0:
            raise SublevelEmptyError(f"no point satisfies f <= -{eps} for this ball instance")
        gap = X - self.center
        d = np.sqrt(np.vecdot(gap, gap)) - math.sqrt(rr)
        return np.where(d > 0.0, d, 0.0)


class ShiftedBallProblem(Problem):
    """f(x) = ||x||^2 + 1, infeasible everywhere; gradient vanishes at 0."""

    kind = "shifted_ball_infeasible"

    def __init__(self, dim: int = 2, activity_tol: float | None = None,
                 name: str | None = None):
        super().__init__(dim, activity_tol, name)

    @classmethod
    def _from_params(cls, params, dim, activity_tol, name):
        return cls(dim, activity_tol, name)

    def _params(self):
        return {}

    def piece_values(self, X):
        return (np.vecdot(X, X) + 1.0)[..., None]

    def piece_gradients(self, X):
        return (2.0 * X)[..., None, :]


class MaxAffineProblem(Problem):
    """f(x) = max_j <coefs[j], x> + intercepts[j]."""

    kind = "max_affine"

    def __init__(self, coefs, intercepts, activity_tol: float | None = None,
                 name: str | None = None):
        coefs = np.atleast_2d(np.asarray(coefs, dtype=float))
        intercepts = np.atleast_1d(np.asarray(intercepts, dtype=float))
        if coefs.shape[0] != intercepts.size:
            raise ValueError("coefs and intercepts must have matching length")
        if not intercepts.size:
            raise ValueError("at least one piece is required")
        if not (np.isfinite(coefs).all() and np.isfinite(intercepts).all()):
            raise ValueError("coefs and intercepts must be finite")
        super().__init__(coefs.shape[1], activity_tol, name)
        self.coefs = coefs
        self.intercepts = intercepts

    @classmethod
    def _from_params(cls, params, dim, activity_tol, name):
        pieces = _nonempty(params, "pieces")
        return cls([p["coef"] for p in pieces], [p.get("intercept", 0.0) for p in pieces],
                   activity_tol, name)

    def _params(self):
        return {"pieces": [{"coef": c.tolist(), "intercept": float(d)}
                           for c, d in zip(self.coefs, self.intercepts)]}

    def piece_values(self, X):
        # One dot product per piece, as for a single point: a matrix
        # product would round a batch differently from its rows.
        return np.vecdot(X[..., None, :], self.coefs) + self.intercepts

    def piece_gradients(self, X):
        if X.ndim > 1:
            return np.broadcast_to(self.coefs, X.shape[:-1] + self.coefs.shape)
        # For one point, a read-only view as broadcast_to would give, made
        # and indexed for a fraction of its cost.
        view = self.coefs.view()
        view.flags.writeable = False
        return view

    def _sublevel_distances(self, X, eps):
        # One polyhedral projection per point, onto cuts built once.
        flat = np.vecdot(self.coefs, self.coefs) == 0.0
        if np.any(self.intercepts[flat] > -eps):
            raise SublevelEmptyError("a constant piece exceeds the shift everywhere")
        if np.all(flat):
            return np.zeros(X.shape[:-1])
        cuts = CutPolyhedron(self.coefs[~flat], -eps - self.intercepts[~flat])
        dists = [_polyhedral_distance(x, cuts) for x in X.reshape(-1, self.dim)]
        return np.array(dists).reshape(X.shape[:-1])


class MaxQuadraticsProblem(Problem):
    """f(x) = max over quadratic pieces x'Qx + <b, x> + c; pieces may be nonconvex.

    ``pieces`` are ``(quad, lin, const)`` triples, stacked into ``quads``
    (k, n, n), each stored symmetrized, ``lins`` (k, n) and ``consts`` (k,).
    """

    kind = "max_quadratics"

    def __init__(self, pieces, activity_tol: float | None = None,
                 name: str | None = None):
        pieces = list(pieces)
        if not pieces:
            raise ValueError("at least one quadratic piece is required")
        try:
            quads, lins, consts = zip(*pieces, strict=True)
        except (TypeError, ValueError):
            raise ValueError("each quadratic piece must be a (quad, lin, const) triple") from None
        lins = [as_vector(b) for b in lins]
        dim = lins[0].size
        if any(b.size != dim for b in lins):
            raise ValueError("all pieces must share one dimension")
        quads = [np.atleast_2d(np.asarray(q, dtype=float)) for q in quads]
        if any(q.shape != (dim, dim) for q in quads):
            raise ValueError("quadratic matrix shape must match the linear term")
        quads = np.array(quads)
        consts = np.array([as_float("quadratic piece const", c) for c in consts])
        # A non-finite entry leaves its symmetrized entry non-finite too.
        with np.errstate(over="ignore", invalid="ignore"):
            quads = 0.5 * (quads + quads.swapaxes(-1, -2))
        if not (np.isfinite(quads).all() and np.isfinite(consts).all()):
            raise ValueError("symmetrized quadratic matrix and constant must be finite")
        super().__init__(dim, activity_tol, name)
        self.quads = quads
        self.lins = np.array(lins)
        self.consts = consts

    @classmethod
    def _from_params(cls, params, dim, activity_tol, name):
        pieces = [
            (p["quad"] if "quad" in p else np.zeros((dim, dim)),
             p["lin"] if "lin" in p else np.zeros(dim), p.get("const", 0.0))
            for p in _nonempty(params, "pieces")
        ]
        return cls(pieces, activity_tol, name)

    def _params(self):
        return {"pieces": [{"quad": q.tolist(), "lin": b.tolist(), "const": float(c)}
                           for q, b, c in zip(self.quads, self.lins, self.consts)]}

    def piece_values(self, X):
        X = X[..., None, :]
        XQ = (X[..., None, :] @ self.quads)[..., 0, :]
        return np.vecdot(XQ, X) + np.vecdot(self.lins, X) + self.consts

    def piece_gradients(self, X):
        return 2.0 * (self.quads @ X[..., None, :, None])[..., 0] + self.lins


@dataclass(frozen=True)
class BallBody:
    """Closed ball used as one target set of a distance maximum."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = as_vector(self.center)
        radius = as_float("ball radius", self.radius)
        if not 0.0 < radius < math.inf:
            raise ValueError("ball radius must be positive and finite")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)

    @property
    def dim(self) -> int:
        return self.center.size

    def distance(self, X) -> np.ndarray:
        """Distance to the ball: (..., n) -> (...)."""
        gap = X - self.center
        return np.maximum(0.0, np.sqrt(np.vecdot(gap, gap)) - self.radius)

    def distance_gradient(self, X) -> np.ndarray:
        """Unit vector away from the ball, 0 inside it: (..., n) -> (..., n)."""
        gap = X - self.center
        norm = np.sqrt(np.vecdot(gap, gap))[..., None]
        return np.divide(gap, norm, out=np.zeros_like(gap), where=norm > self.radius)


@dataclass(frozen=True)
class HalfspaceBody:
    """Halfspace {x : <normal, x> <= offset} used as one target set of a
    distance maximum."""

    normal: np.ndarray
    offset: float
    _norm: float = field(init=False, repr=False)

    def __post_init__(self):
        a = as_vector(self.normal)
        norm = float(np.linalg.norm(a))
        if not 0.0 < norm < math.inf:
            raise ValueError("halfspace normal must be nonzero with a finite length")
        offset = as_float("halfspace offset", self.offset)
        if not math.isfinite(offset):
            raise ValueError("halfspace offset must be finite")
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "_norm", norm)

    @property
    def dim(self) -> int:
        return self.normal.size

    def _violation(self, X) -> np.ndarray:
        return np.vecdot(X, self.normal) - self.offset

    def distance(self, X) -> np.ndarray:
        """Distance to the halfspace: (..., n) -> (...)."""
        viol = self._violation(X)
        return np.where(viol <= 0.0, 0.0, viol / self._norm)

    def distance_gradient(self, X) -> np.ndarray:
        """Unit outer normal outside, 0 inside: (..., n) -> (..., n)."""
        outside = (self._violation(X) > 0.0)[..., None]
        return np.where(outside, self.normal / self._norm, 0.0)


def _body_params(body) -> dict:
    """A SIP body's spec entry. A body that is neither a ``BallBody`` nor a
    ``HalfspaceBody`` has none, and raises ValueError naming its type."""
    if isinstance(body, BallBody):
        return {"type": "ball", "center": body.center.tolist(), "radius": body.radius}
    if isinstance(body, HalfspaceBody):
        return {"type": "halfspace", "normal": body.normal.tolist(), "offset": body.offset}
    raise ValueError(f"cannot serialize a SIP body of type {type(body).__name__!r}")


class SipDistanceProblem(Problem):
    """f(x) = max_i dist(x, K_i) over balls and halfspaces.

    f(x) = 0 exactly on the intersection of the bodies; where f(x) > 0 every
    bundle member is the unit vector from the nearest point of an (almost)
    farthest body, and at feasible points the zero vector is returned (it is
    a valid generalized gradient of each distance there).
    """

    kind = "sip_distance"

    def __init__(self, bodies, activity_tol: float | None = None,
                 name: str | None = None):
        bodies = list(bodies)
        if not bodies:
            raise ValueError("at least one body is required")
        dim = bodies[0].dim
        for body in bodies:
            if body.dim != dim:
                raise ValueError("all bodies must share one dimension")
        super().__init__(dim, activity_tol, name)
        self.bodies = bodies

    @classmethod
    def _from_params(cls, params, dim, activity_tol, name):
        bodies = []
        for entry in _nonempty(params, "bodies"):
            body_type = entry.get("type")
            if body_type == "ball":
                bodies.append(BallBody(entry["center"], entry["radius"]))
            elif body_type == "halfspace":
                bodies.append(HalfspaceBody(entry["normal"], entry["offset"]))
            else:
                raise ValueError(
                    f"field 'params.bodies[].type': expected 'ball' or 'halfspace', got {body_type!r}"
                )
        return cls(bodies, activity_tol, name)

    def _params(self):
        return {"bodies": list(map(_body_params, self.bodies))}

    def piece_values(self, X):
        return np.stack([body.distance(X) for body in self.bodies], axis=-1)

    def piece_gradients(self, X):
        return np.stack([body.distance_gradient(X) for body in self.bodies], axis=-2)

    def activity_mask(self, values, f):
        """The rule of ``Problem.activity_mask``, less the pieces with value
        <= 0 while f > 0."""
        # A body that contains x has distance 0 and only the zero vector as
        # its gradient, which would make every cut empty.
        return super().activity_mask(values, f) & ((values > 0.0) | (f <= 0.0))


# The spec kinds and the class that reads and writes each one's params.
_CLASS_OF_KIND = {
    cls.kind: cls
    for cls in (BallProblem, MaxAffineProblem, MaxQuadraticsProblem, SipDistanceProblem,
                ShiftedBallProblem)
}
KINDS = tuple(_CLASS_OF_KIND)


def _nonempty(params: dict, field_name: str):
    """``params[field_name]``, which a spec must give as a nonempty list."""
    value = params.get(field_name)
    if not value:
        raise ValueError(f"field 'params.{field_name}' is required and nonempty")
    return value


@dataclass(frozen=True)
class ApproxConvexityReport:
    worst_violation: float
    n_pairs: int


def check_approximate_convexity(
    problem: Problem,
    center,
    delta: float,
    eps_ac: float,
    pairs: int = 10_000,
    seed: int = 0,
):
    """Sampled test of the slackened convexity inequality on a ball.

    Draws ``pairs`` point pairs (x, y) uniformly from the ball of radius
    ``delta`` around ``center`` and, for every bundle gradient s at x,
    evaluates f(x) + <s, y-x> - eps_ac*||y-x|| - f(y). A nonpositive worst
    case means every sampled pair satisfied the inequality. Deterministic
    for a fixed seed. ``delta`` and ``eps_ac`` must be positive finite reals
    (``as_float``), or ValueError names the one that is not.
    """
    delta, eps_ac = as_float("delta", delta), as_float("eps_ac", eps_ac)
    for name, value in (("delta", delta), ("eps_ac", eps_ac)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    pairs = check_count("pairs", pairs)
    center = as_vector(center, problem.dim)
    rng = np.random.default_rng(seed)

    X = center + delta * ball_samples(rng, pairs, problem.dim)
    Y = center + delta * ball_samples(rng, pairs, problem.dim)

    VX = problem.piece_values(X)
    fx = VX.max(axis=1)
    fy = problem.piece_values(Y).max(axis=1)
    active = problem.activity_mask(VX, fx[:, None])

    G = problem.piece_gradients(X)
    diff = Y - X
    inner = np.einsum("bkn,bn->bk", G, diff)
    dist = np.linalg.norm(diff, axis=1)
    viol = fx[:, None] + inner - eps_ac * dist[:, None] - fy[:, None]
    viol = np.where(active, viol, -np.inf)
    worst = float(viol.max())
    return ApproxConvexityReport(worst_violation=worst, n_pairs=pairs)


def ball_samples(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Uniform samples from the closed unit ball, shape (count, dim)."""
    raw = rng.standard_normal((count, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = rng.random(count) ** (1.0 / dim)
    return raw / norms * radii[:, None]


def supports_sublevel_distance(problem: Problem) -> bool:
    """Whether exact_sublevel_distance has an analytic formula here: whether
    the problem's kind defines one."""
    return problem._sublevel_distances is not None


def exact_sublevel_distance(problem: Problem, x, eps: float):
    """Exact distance from each point to the shifted sublevel set {f <= -eps}.

    Broadcasts over points, (..., n) -> (...): a 1-D ``x`` gives a float,
    a stack an array whose every entry has the bits its point gets alone.
    The formula is the kind's own ``_sublevel_distances``: ball instances
    reduce to a concentric-ball distance in closed form, max-affine
    instances to one polyhedral projection per point, onto cuts built once.
    Raises ValueError for an eps that is not a nonnegative real number
    (``as_float``) or a non-finite point, DimensionMismatchError for points
    of the wrong dimension, NotAvailableError for a kind without a formula
    and SublevelEmptyError when the shifted set is empty, in that order.
    """
    eps = as_float("eps", eps)
    if not eps >= 0.0:
        raise ValueError("eps must be nonnegative")
    X = as_points(x, problem.dim)
    if problem._sublevel_distances is None:
        raise NotAvailableError(f"no analytic sublevel distance for kind {problem.kind!r}")
    d = problem._sublevel_distances(X, eps)
    return float(d) if X.ndim == 1 else d


def _polyhedral_distance(x: np.ndarray, cuts: CutPolyhedron) -> float:
    try:
        result = project_polyhedron(x, cuts)
    except InfeasiblePolyhedronError as exc:
        raise SublevelEmptyError(str(exc)) from exc
    return float(np.linalg.norm(x - result.point))


def nonconvex_default_problem(activity_tol: float | None = None) -> MaxQuadraticsProblem:
    """f(x) = max(x2 - x1^2, ||x||^2 - 4) on the plane.

    The feasible region {x2 <= x1^2, ||x|| <= 2} is nonconvex; f is a
    maximum of two smooth pieces.
    """
    below_parabola = ([[-1.0, 0.0], [0.0, 0.0]], [0.0, 1.0], 0.0)
    inside_disk = (np.eye(2), [0.0, 0.0], -4.0)
    return MaxQuadraticsProblem(
        [below_parabola, inside_disk],
        activity_tol=activity_tol,
        name="parabola-disk",
    )


def nonconvex_default_boundary() -> np.ndarray:
    """Corner of the default nonconvex instance: parabola meets circle."""
    t = (math.sqrt(17.0) - 1.0) / 2.0
    return np.array([math.sqrt(t), t])


# The one place where a spec's params hold a string: a SIP body's kind.
_STRING_FIELD = re.compile(r"params\.bodies\[\d+\]\.type")


def _non_numbers(value, path: str):
    """The paths of the values in ``value`` that stand where a number must,
    such as ``params.pieces[0].intercept``, each with what it is instead: a
    JSON true, false, string or null, or an integer too large for a float.
    A SIP body's ``type`` is left to the body's own check."""
    if _STRING_FIELD.fullmatch(path):
        return
    if isinstance(value, bool):
        yield path, "a boolean"
    elif isinstance(value, str):
        yield path, "a string"
    elif value is None:
        yield path, "null"
    elif isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            yield path, "an integer too large for a float"
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _non_numbers(item, f"{path}.{key}")
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _non_numbers(item, f"{path}[{k}]")


def problem_from_dict(spec: dict) -> Problem:
    """Build a problem from its JSON description.

    Schema: {"name": str?, "kind": str, "dim": int, "params": {...},
    "activity_tol": float?}. Every entry of ``params`` is a number that a
    float can hold, or a list or object of them, except a SIP body's
    ``type`` string. Raises ValueError naming the offending field.
    """
    if not isinstance(spec, dict):
        raise ValueError("problem spec: expected a JSON object")
    kind = spec.get("kind")
    if kind not in KINDS:
        raise ValueError(f"problem spec field 'kind': expected one of {KINDS}, got {kind!r}")
    dim = spec.get("dim")
    check_count("problem spec field 'dim'", dim)
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("problem spec field 'params': expected an object")
    name = spec.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError(f"problem spec field 'name': expected a string, got {name!r}")
    # NumPy and float() read true as 1.0, false as 0.0 and "1" as 1.0, and
    # a null or a huge integer fails deep inside a constructor.
    wrong = next(_non_numbers(params, "params"), None)
    if wrong is not None:
        raise ValueError("problem spec field {!r}: expected a number, got {}".format(*wrong))
    # The problem's constructor checks the range of activity_tol.
    activity_tol = spec.get("activity_tol")
    if activity_tol is not None:
        activity_tol = as_float("problem spec field 'activity_tol'", activity_tol)

    try:
        problem = _CLASS_OF_KIND[kind]._from_params(params, dim, activity_tol, name)
    except KeyError as exc:
        raise ValueError(f"problem spec params: missing field {exc.args[0]!r}") from exc
    except (TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"problem spec field 'params': malformed value ({exc})") from exc
    except MemoryError as exc:
        # A default sized from dim, such as a zero center, cannot be built.
        raise ValueError(f"problem spec field 'dim': no memory for dimension {dim}") from exc

    if problem.dim != dim:
        raise ValueError(
            f"problem spec field 'dim': params imply dimension {problem.dim}, spec says {dim}"
        )
    return problem


def problem_to_dict(problem: Problem) -> dict:
    """Inverse of problem_from_dict for the supported kinds: raises
    ValueError for a problem that is not an instance of its kind's class,
    and for a SIP problem with a body that is neither a ``BallBody`` nor a
    ``HalfspaceBody``."""
    if not isinstance(problem, _CLASS_OF_KIND.get(problem.kind, ())):
        raise ValueError(f"cannot serialize problem kind {problem.kind!r}")
    spec = {"name": problem.name, "kind": problem.kind, "dim": problem.dim,
            "params": problem._params()}
    if problem.activity_tol is not None:
        spec["activity_tol"] = problem.activity_tol
    return spec
