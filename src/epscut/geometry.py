"""Projection kernel onto polyhedra, and its sampled certificate check.

Points are plain 1-D ``numpy.float64`` arrays. A polyhedron ``{x : A x <= b}``
is held as its (k, n) matrix of nonzero normals ``A`` and its k offsets
``b``; a halfspace is the case k = 1.
The polyhedral projection is an exact small dense QP solved with the dual
active-set method of Goldfarb and Idnani (Math. Programming 27, 1983), and it
returns a KKT certificate (active set plus nonnegative multipliers). Its
working set is kept as a thin QR factorization. When every cut is violated
at the query point and there are at least four cuts but no more than the
dimension, the loop starts from the whole bundle, pruned by multiplier
sign, whose multipliers come from the Gram matrix of its unit normals; the
QR factors of that start are built only when the loop first needs them.
Otherwise it starts empty. Later constraints join one
Gram-Schmidt column at a time, and a constraint leaves by truncating the
factors and adding the later constraints again. All feasibility tests are
scale-aware: violations ``<a, x> - b`` are measured relative to ``||a||``
so that cuts with wildly different normal magnitudes are treated
uniformly. ``project_one_cut`` makes the one-cut projection for a whole
batch of points at once, in the closed form of the kernel's first step, and
says where the kernel would return that step. ``chebyshev_point`` finds an
interior point for the sampled certificate check with one call of the same
kernel, so the module needs NumPy only.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    DimensionMismatchError,
    InfeasiblePolyhedronError,
    NoFeasibleSampleFoundError,
    ProjectionFailedError,
    ZeroNormalError,
)

# Largest scaled violation (<a, x> - b) / ||a|| at which a point counts as
# inside a cut polyhedron, for the projection kernel.
FEASIBILITY_TOL = 1e-10
# Multiplier sign tolerance for dropping constraints inside the active-set loop.
MULTIPLIER_TOL = 1e-12
# Relative threshold below which a normal counts as linearly dependent on the
# current working set. Conservative on purpose: admitting a direction that
# contributes less than ~1e-7 of the normal's magnitude would put a diagonal
# entry that small into the working set's triangular factor R, and R^-1 would
# amplify round-off beyond what double precision resolves reliably, so such
# constraints are handled by dual steps (swaps) instead. Wedges thinner than
# this are treated as numerically empty.
_DEPENDENCE_TOL = 1e-7
# Most factorizations the whole-bundle start makes before starting cold.
_START_FACTORIZATIONS = 3
# Fewest cuts for which the whole-bundle start is tried. Step projections
# of small max-quadratic and SIP solves, every cut violated, took 58-63 us
# with the start against 66-72 us cold at k = 2, and 73-91 against 86-105
# us at k = 3 (two interleaved runs, 2-vCPU x86 VM, one BLAS thread). So
# the start is no slower there; but its point carries other round-off than
# the add-by-add loop's, and 4 keeps the traces of small bundles as they are.
_START_MIN_CUTS = 4
# Multiple of the machine epsilon in the round-off bound of a residual
# <a, x> - b, which is about eps * (|a| . |x| + |b|).
_ROUNDOFF_FACTOR = 8.0 * np.finfo(float).eps
# chebyshev_point: cap on the ball radius, and the radius coordinate of the
# lifted query point (near, r), far above the cap so that depth outweighs
# distance from near.
_CHEBYSHEV_RADIUS_CAP = 1e3
_CHEBYSHEV_HEIGHT = 1e5
# Rows per block of the VI checker's rejection sampler. The first block holds
# 4 * need rows for the `need` samples still missing; each later one is
# sized from the acceptance seen so far. Every block holds at least
# _VI_BLOCK_ROWS and at most _VI_MAX_BLOCK_ROWS rows (see
# check_variational_inequality). A block costs ~13 us of NumPy calls plus
# ~64 ns per row (timeit, n = 3, k = 5), so a call that accepts few draws
# should take a few full blocks, not dozens of small ones. The cap bounds a
# block's arrays (40 kB of draws at n = 5): with no cap, verify_battery read
# 0.5-1.6 MB more peak RSS at the same throughput. No block runs past the
# budget of draws, and rows past the last sample kept are discarded
# uncounted, so the block sizes change no draw, sample or count: only how
# many rows are thrown away.
_VI_BLOCK_ROWS = 64
_VI_MAX_BLOCK_ROWS = 1023
# Draw i takes radius i % 3. A block of m rows from draw `attempts` reads
# its radii's indices as the slice [o, o + m) of this table, o = attempts % 3,
# built once: an arange and a modulo per block cost more than its gather.
_VI_RADIUS_INDEX = np.arange(_VI_MAX_BLOCK_ROWS + 2) % 3
# Largest scaled violation the VI checker grants the projection point it is
# given; its samples must be strictly feasible.
_VI_POINT_TOL = 1e-8
_VI_TOO_FAR = "x0 is too far from result.point for the check's arithmetic"


def check_count(name: str, value) -> int:
    """Return ``value`` as an int if it is an integer of at least 1: a value
    of a type with ``__index__`` other than bool. A float is not a count,
    however integral. Anything else raises ValueError naming ``name``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer")
    count = operator.index(value)
    if count < 1:
        raise ValueError(f"{name} must be at least 1")
    return count


def as_float(name: str, value) -> float:
    """Return the real number ``value`` as a Python float. A bool, a string
    or another non-real, or a real too large for a float, raises ValueError
    naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and convert ``x`` to a finite 1-D float64 array.

    Raises ValueError on input that is not a nonempty 1-D vector, then what
    ``as_points`` raises: ValueError on NaN/Inf entries, and
    DimensionMismatchError if ``dim`` is given and does not match.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty 1-D vector, got shape {v.shape}")
    return as_points(v, v.size if dim is None else dim)


def as_points(x, dim: int) -> np.ndarray:
    """Validate and convert ``x`` to a finite float64 array of points (..., dim).

    A 1-D ``x`` is one point and raises what ``as_vector`` raises; a stack
    may hold no points. Raises ValueError on 0-d input or NaN/Inf entries,
    then DimensionMismatchError if the last axis is not ``dim``.
    """
    v = np.asarray(x, dtype=float)
    if not v.ndim or not v.size and v.ndim == 1:
        raise ValueError(f"expected a nonempty 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    if v.shape[-1] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.shape[-1]}")
    return v


class CutPolyhedron:
    """The polyhedron {x : normals @ x <= offsets} of k cuts in R^n.

    ``normals`` is a nonempty (k, n) array of finite, nonzero rows whose
    lengths are finite, and ``offsets`` a (k,) array of finite numbers;
    ``normal_norms`` holds the row lengths. Anything else raises ValueError
    at construction, except that a zero row, checked ahead of finiteness,
    raises ZeroNormalError.
    """

    def __init__(self, normals, offsets):
        normals = np.asarray(normals, dtype=float)
        offsets = np.asarray(offsets, dtype=float)
        if normals.ndim != 2 or normals.shape[1] == 0:
            raise ValueError(f"normals must be a (k, n) array, got shape {normals.shape}")
        if normals.shape[0] == 0:
            raise ValueError("a polyhedron needs at least one cut")
        if offsets.shape != normals.shape[:1]:
            raise ValueError(
                f"expected {normals.shape[0]} offsets, got shape {offsets.shape}"
            )
        norms = _row_norms(normals)
        if (norms == 0.0).any():
            raise ZeroNormalError("cut normals must be nonzero")
        if not np.isfinite(offsets).all():
            raise ValueError("offsets must be finite")
        # A row length is finite only when every entry of the row is.
        if not np.isfinite(norms).all():
            raise ValueError("cut normals must be finite and of finite length")
        self.normals = normals
        self.offsets = offsets
        self.normal_norms = norms

    @classmethod
    def from_arrays(cls, normals, offsets) -> "CutPolyhedron":
        """Alias of the constructor."""
        return cls(normals, offsets)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def __len__(self) -> int:
        return self.normals.shape[0]

    def scaled_violations(self, x) -> np.ndarray:
        x = as_vector(x, self.dim)
        return (self.normals @ x - self.offsets) / self.normal_norms

    def contains(self, x, tol: float = 0.0) -> bool:
        return bool(np.max(self.scaled_violations(x)) <= tol)


def record_eq(self, other) -> bool:
    """``==`` for frozen dataclass records that hold arrays, field by field.

    An array field compares by dtype, shape and bytes, so -0.0 differs from
    0.0 and a NaN equals a NaN of the same bits; every other field compares
    with ``==``, under which -0.0 equals 0.0 and a NaN equals nothing. A
    record of another class gives NotImplemented. The dataclass's own
    ``__eq__`` compares the fields as one tuple, which asks two arrays that
    are not one object for the truth value of their ``==``, and that raises
    ValueError.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    for f in fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        if isinstance(a, np.ndarray):
            same = (isinstance(b, np.ndarray) and (a.dtype, a.shape) == (b.dtype, b.shape)
                    and a.tobytes() == b.tobytes())
        else:
            same = a == b
        if not same:
            return False
    return True


@dataclass(frozen=True)
class ProjectionResult:
    """Nearest point of a polyhedron plus its KKT certificate.

    ``point = x0 - sum(multipliers[j] * normals[active_set[j]])`` holds within
    round-off and all multipliers are nonnegative. ``feasible`` is true
    exactly when the active set is empty: the query point already satisfied
    every halfspace and is returned as the point. A projection that moves
    the point keeps at least one working constraint.

    ``adds`` and ``drops`` count the working-set constraints the active-set
    loop added one at a time and dropped, and ``start_size`` the cuts of the
    whole-bundle start (0 for a cold start). ``point`` is always a new
    array: it shares no memory with the query point, even when it equals it.

    Two results compare by ``record_eq``: ``point`` and ``multipliers`` by
    their bytes, the other fields with ``==``. ``hash()`` raises TypeError,
    since the fields hold a list and arrays.
    """

    __eq__ = record_eq

    point: np.ndarray
    active_set: list[int] = field(default_factory=list)
    multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    adds: int = 0
    drops: int = 0
    start_size: int = 0

    @property
    def feasible(self) -> bool:
        return not self.active_set


def project_polyhedron(x0, poly: CutPolyhedron) -> ProjectionResult:
    """Project a point onto a halfspace intersection (exact dense QP).

    Dual active-set iteration (Goldfarb & Idnani, "A numerically stable dual
    method for solving strictly convex quadratic programs", Math. Programming
    27, 1983): starting from the unconstrained optimum ``x0``, repeatedly pick
    the most violated constraint (ties broken by lowest index), move onto it
    along the component of its normal that is orthogonal to the current
    working set, and drop working-set constraints whose multipliers would
    turn negative. Terminates finitely for small dense problems. An empty
    intersection is certified by an unbounded dual ray and raises
    InfeasiblePolyhedronError; a nonfinite iterate or an exhausted iteration
    cap raises ProjectionFailedError.

    The working set W is kept as Q and ``R^-1`` of a thin QR factorization
    ``A[W].T = Q R``. An added constraint costs O(n|W|) (one Gram-Schmidt
    pass with re-orthogonalization). Dropping the j-th constraint keeps the
    factors of the j before it and adds each later one again, which costs
    O(n|W|^2). A one-cut projection never builds the factors. Their buffers
    are allocated by the first add or by the first QR of a start, so a
    projection that ends at its start allocates none. ``x0`` is read, never
    written: the first move of x makes a new array, and a query point
    already inside is returned as a copy.

    Each step on the most violated constraint p takes the shorter of two
    dual steps: the full step onto p, or the partial step at which a
    working-set multiplier reaches zero and its constraint is dropped. When
    ``a_p`` lies in the span of the working set there is no full step and
    x does not move; if no multiplier blocks either, the dual ray is
    unbounded and the intersection empty.

    Any working set of independent cuts whose multipliers
    ``(A[W] A[W]^T) lam = A[W] x0 - b[W]`` are nonnegative is dual feasible,
    so the loop may start from it instead of the empty set. When
    4 <= k <= n and every cut is violated at ``x0``, as in each step of
    ``solve``, the kernel solves that system for the whole bundle through
    the Gram matrix of the unit normals, and, if some multiplier is
    negative, drops those cuts and solves again, at most three times in
    all. A Cholesky factor with a diagonal entry under the dependence
    threshold ends the attempt. If no attempt gives nonnegative
    multipliers, the loop starts from the empty working set. The start sets
    only the working set and its multipliers; one Householder QR builds its
    factors when the loop first adds or drops. The loop then adds and drops
    as usual, so the start decides where the iteration begins, not the
    projection it returns (up to round-off).

    A point counts as inside when its largest scaled violation
    ``(<a_p,x> - b_p)/||a_p||`` is at most ``FEASIBILITY_TOL`` (1e-10). The
    loop also stops when the most violated constraint p is already in the
    working set and its finite scaled violation is within the round-off of
    evaluating it, ``8 eps (|a_p| . |x| + |b_p|) / ||a_p||``: x then lies on
    that constraint as nearly as double precision can say, and adding it
    again would only cycle. The second bound exceeds ``FEASIBILITY_TOL``
    only far out, where ``|x|`` or ``|b_p| / ||a_p||`` is above about 5e4.

    The loop's scalar bookkeeping (the ratio test, ``b_p``, ``||a_p||``,
    the step lengths) runs on Python floats, which round as NumPy's
    float64 scalars do. Both returns build the record through
    ``_projection_result``, which fills the frozen dataclass without its
    ``__init__``; a point already inside gets a new empty active set and
    a new empty multiplier array.
    """
    x = as_vector(x0, poly.dim)
    A = poly.normals
    b = poly.offsets
    norms = poly.normal_norms
    k = len(poly)
    scaled = (A @ x - b) / norms
    p = int(scaled.argmax())
    if scaled[p] <= FEASIBILITY_TOL:
        return _projection_result(x.copy(), [], np.zeros(0), 0, 0, 0)

    ws = _WorkingSet(A)
    adds = drops = start_size = 0
    if _START_MIN_CUTS <= k <= poly.dim and (scaled > FEASIBILITY_TOL).all():
        point = _bundle_start(ws, norms, scaled, x)
        if point is not None:
            x = point
            start_size = len(ws.work)
            scaled = (A @ x - b) / norms
            p = int(scaled.argmax())

    for _ in range(50 * (k + 1)):
        scaled_p = scaled.item(p)
        b_p = b.item(p)
        if scaled_p <= FEASIBILITY_TOL or p in ws.work and scaled_p < math.inf and (
            scaled_p <= _roundoff(A[p], x, b_p, norms.item(p))
        ):
            break
        a_p = A[p]
        lam_p = 0.0
        for _ in range(2 * (k + 1)):
            m = len(ws.work)
            if not m:
                # An empty working set: no multiplier blocks and a nonzero
                # normal always moves x, so this is the full step, in the
                # closed form that project_one_cut shares.
                x, t, zz, _ = _one_cut_step(x, a_p, b_p)
                _check_finite(x)
                ws.add(p, lam_p + t, None, a_p, math.sqrt(zz))
                adds += 1
                break
            r, z = ws.split(a_p)
            lam = ws.lam[:m]
            t_part, j_drop = _min_ratio(lam, r)
            zz = float(z.dot(z))
            znorm = math.sqrt(zz)
            # A normal in the span of the working set has no full step: the
            # dual step leaves x in place.
            moves = znorm > _DEPENDENCE_TOL * norms.item(p)
            t_full = (float(a_p.dot(x)) - b_p) / zz if moves else math.inf
            if not moves and t_part == math.inf:
                raise InfeasiblePolyhedronError(
                    "empty halfspace intersection (dual ray found)"
                )
            dropping = t_part < t_full
            t = t_part if dropping else t_full
            if moves:
                x -= t * z
                _check_finite(x)
            lam -= t * r
            lam_p += t
            if dropping:
                ws.drop(j_drop)
                drops += 1
            else:
                ws.add(p, lam_p, r, z, znorm)
                adds += 1
                break
        else:
            raise ProjectionFailedError("active-set inner loop failed to converge")
        scaled = (A @ x - b) / norms
        p = int(scaled.argmax())
    else:
        raise ProjectionFailedError("active-set outer loop failed to converge")

    # The working set is most often in index order already; the result is
    # built positionally. Both save time on every one-cut projection.
    active = sorted(ws.work)
    multipliers = ws.lam[:len(active)]
    if active != ws.work:
        multipliers = multipliers[np.argsort(ws.work)]
    return _projection_result(x, active, np.maximum(multipliers, 0.0), adds, drops,
                              start_size)


def _projection_result(point, active_set, multipliers, adds, drops, start_size):
    """``ProjectionResult(point, active_set, multipliers, adds, drops,
    start_size)``, with its ``__dict__`` filled in one update, in field
    order, where the frozen dataclass's ``__init__`` makes one
    ``object.__setattr__`` per field. The class has no ``__post_init__``
    to skip, so the record compares, prints, ``dataclasses.replace``s and
    refuses assignment as a constructed one does."""
    result = object.__new__(ProjectionResult)
    result.__dict__.update(point=point, active_set=active_set, multipliers=multipliers,
                           adds=adds, drops=drops, start_size=start_size)
    return result


def project_one_cut(x, a, b):
    """Project each point onto its own halfspace {y : <a, y> <= b} in closed
    form, as ``project_polyhedron`` does on a one-cut polyhedron.

    Broadcasts over leading axes: ``x`` and ``a`` are (..., n) and ``b`` is
    (...). Returns ``(point, settled)``. The point is the kernel's first
    add, ``x - t a`` with ``t = (<a, x> - b) / <a, a>``. ``settled`` is true
    only where the kernel would return exactly that moved point: x fails
    the kernel's entry test (its scaled violation ``(<a, x> - b) / norm``,
    with ``norm`` the length of ``a`` from ``_row_norms``, as
    ``CutPolyhedron``'s ``normal_norms`` are, exceeds ``FEASIBILITY_TOL``),
    the point is finite, and the kernel's stop test holds there. A point
    inside its cut, which the kernel hands back unmoved, is not settled.
    Nor is a cut that ``CutPolyhedron`` would reject, with no test of its
    own: a zero length (or squares that underflow) or an offset of -inf
    makes t infinite and the point not finite, and a length that is
    infinite or NaN, or an offset of +inf or NaN, fails the entry test.
    Every settled point equals ``project_polyhedron``'s bit for bit.
    Unsettled rows may warn of division by zero, overflow or invalid values.

    Each quantity is computed once: the entry test divides the residual
    ``<a, x> - b`` that the step has made, and the round-off bound of the
    stop test is evaluated only when some moved point's scaled violation
    exceeds ``FEASIBILITY_TOL``, since where every one is within it the
    bound cannot change the test.
    """
    norm = _row_norms(a)
    point, _, _, residual = _one_cut_step(x, a, b)
    scaled = (np.vecdot(a, point) - b) / norm
    stops = scaled <= FEASIBILITY_TOL
    if not stops.all():
        stops = stops | (scaled < math.inf) & (scaled <= _roundoff(a, point, b, norm))
    return point, (residual / norm > FEASIBILITY_TOL) & np.isfinite(point).all(axis=-1) & stops


def _one_cut_step(x, a, b):
    """``(x - t a, t, <a, a>, <a, x> - b)`` with ``t = (<a, x> - b) / <a, a>``,
    over leading axes: the step onto the hyperplane ``<a, y> = b`` along
    ``a``, with the residual it divides. It is the step onto a constraint
    that joins an empty working set, and the one-cut projection of
    ``project_one_cut``."""
    aa = np.vecdot(a, a)
    residual = np.vecdot(a, x) - b
    t = residual / aa
    # (t * a.T).T scales each row of a by its t; for one point it is the
    # plain t * a, without the cost of indexing a 0-d t.
    return x - (t * a.T).T, t, aa, residual


def _row_norms(a):
    """Lengths of the rows of ``a`` (its last axis): the arithmetic of
    ``np.linalg.norm(a, axis=-1)`` for real input, without its dispatch."""
    return np.sqrt(np.add.reduce(a * a, axis=-1))


def _roundoff(a, x, b, norm):
    """Round-off bound of the scaled residual ``(<a, x> - b) / norm``,
    ``8 eps (|a| . |x| + |b|) / norm``, over leading axes."""
    return _ROUNDOFF_FACTOR * (np.vecdot(np.abs(a), np.abs(x)) + np.abs(b)) / norm


def _check_finite(x):
    if not np.isfinite(x).all():
        raise ProjectionFailedError("active-set iterate became nonfinite")


def _bundle_start(ws, norms, scaled, x):
    """Start the empty working set ``ws`` from the whole bundle at ``x`` and
    return the start point, or return None and leave ``ws`` empty.

    Works with the unit normals ``U = A / norms`` and their Gram matrix
    ``C = U U^T``, formed once. An attempt on the cuts S takes the Cholesky
    factor L of ``C[S, S]`` and solves ``C[S, S] mu = scaled[S]``, where
    ``scaled`` holds the scaled violations ``(A x - b) / norms``; the
    multipliers are ``lam = mu / norms[S]`` and the point is
    ``x - mu U[S]``. Cuts with a negative multiplier leave S and the next
    attempt factors the smaller principal submatrix, at most
    ``_START_FACTORIZATIONS`` attempts in all. The start is the first S
    whose multipliers are all nonnegative and whose point is finite. There
    is none when a diagonal entry of L is at most ``_DEPENDENCE_TOL``, the
    same test as ``|R_ii| / ||a_i||`` of a QR of ``A[S]^T`` and as for a
    single add, when the factorization fails, or when no attempt succeeds.
    Unit rows keep C in range whatever the normals' scale: the Gram matrix
    of A itself squares the row lengths, which underflow or overflow.
    ``ws`` records only S and its multipliers; its QR factors are built
    when the loop first needs them. The first attempt takes every cut and
    indexes nothing: it reads C, the violations, the unit normals and the
    row lengths in place.
    """
    A = ws.A
    units = A / norms[:, None]
    gram = units @ units.T
    work = np.arange(len(A))
    for _ in range(_START_FACTORIZATIONS):
        # Most starts end on their first attempt, which indexes nothing.
        full = work.size == len(A)
        sub = gram if full else gram[work][:, work]
        try:
            chol = np.linalg.cholesky(sub)
        except np.linalg.LinAlgError:
            return None
        if not (np.diagonal(chol) > _DEPENDENCE_TOL).all():
            return None
        # NumPy has no triangular solve; one LU solve of C[S, S] costs
        # less than two general solves with L.
        mu = np.linalg.solve(sub, scaled if full else scaled[work])
        keep = mu >= 0.0
        if keep.all():
            if not full:
                units, norms = units[work], norms[work]
            point = x - mu @ units
            if not np.isfinite(point).all():
                return None
            ws.start(work.tolist(), mu / norms)
            return point
        work = work[keep]
        if not work.size:
            return None
    return None


class _WorkingSet:
    """Working set of the dual active-set loop as ``A[work].T = Q R``.

    ``work`` lists row indices of the normal matrix ``A`` in insertion order
    and ``lam`` their multipliers. Q's orthonormal columns are stored as the
    rows of ``qt``, and ``rinv`` holds ``R^-1`` (R upper triangular with a
    positive diagonal, never stored) so that multiplier directions need no
    triangular solve. ``rinv`` is applied as a full matrix product, so it
    keeps explicit zeros below its diagonal. The buffers hold at most
    min(n, k) constraints, since admitted normals are linearly independent.
    ``qt`` and ``rinv`` are None until ``factor`` or the first ``add``
    allocates them. After ``start`` the factors are stale until ``split``
    first needs them.
    """

    def __init__(self, A: np.ndarray):
        self.A = A
        self.work: list[int] = []
        self.lam = np.empty(min(A.shape))
        self.qt = self.rinv = None
        self.stale = False

    def _allocate(self) -> None:
        """Allocate ``qt`` and ``rinv``, the latter zero-filled."""
        cap = self.lam.size
        self.qt = np.empty((cap, self.A.shape[1]))
        self.rinv = np.zeros((cap, cap))

    def start(self, work: list[int], lam: np.ndarray) -> None:
        """Take the independent cuts ``work`` with multipliers ``lam`` as the
        working set, and leave its factors to ``factor``."""
        self.lam[:len(work)] = lam
        self.work = work
        self.stale = True

    def factor(self) -> None:
        """Build the factors of the whole working set from one Householder
        QR of ``A[work].T``, with R's diagonal made positive."""
        m = len(self.work)
        q, r = np.linalg.qr(self.A[self.work].T)
        sign = np.copysign(1.0, np.diagonal(r))[:, None]
        self._allocate()
        self.qt[:m] = sign * q.T
        self.rinv[:m, :m] = np.triu(np.linalg.inv(sign * r))
        self.stale = False

    def split(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(R^-1 Q^T a, a - Q Q^T a)`` with one re-orthogonalization pass."""
        if self.stale:
            self.factor()
        m = len(self.work)
        qt = self.qt[:m]
        q = qt @ a
        z = a - q @ qt
        c = qt @ z
        return self.rinv[:m, :m] @ (q + c), z - c @ qt

    def add(self, p: int, lam_p: float, r, z: np.ndarray, znorm: float) -> None:
        """Append constraint ``p``; ``r, z`` come from ``split``."""
        m = len(self.work)
        if self.qt is None:
            self._allocate()
        self.qt[m] = z / znorm
        if m:
            self.rinv[:m, m] = r / -znorm
        self.rinv[m, m] = 1.0 / znorm
        self.lam[m] = lam_p
        self.work.append(p)

    def drop(self, j: int) -> None:
        """Remove the ``j``-th working constraint. The factors of the j
        before it stay; each later one is added again, in order, with its
        multiplier. A later normal's part orthogonal to the working set can
        only lengthen, so none falls under the dependence threshold."""
        later = self.work[j + 1:]
        lams = self.lam[j + 1:len(self.work)].tolist()
        del self.work[j:]
        for p, lam_p in zip(later, lams):
            a = self.A[p]
            r, z = self.split(a) if self.work else (None, a)
            self.add(p, lam_p, r, z, math.sqrt(z.dot(z)))


def _min_ratio(lam: np.ndarray, r: np.ndarray) -> tuple[float, int]:
    """Smallest lam_j / r_j over r_j > MULTIPLIER_TOL, lowest j on ties.

    Returns (inf, -1) when none qualifies, and also when some qualifying
    ratio is NaN, as ``argmin`` over the ratios (inf where r_j does not
    qualify) would pick that NaN. One pass over Python floats: the working
    set holds a few constraints, where NumPy's per-call cost outweighs
    its arithmetic.
    """
    best, j_best = math.inf, -1
    for j, (lam_j, r_j) in enumerate(zip(lam.tolist(), r.tolist())):
        if r_j > MULTIPLIER_TOL:
            ratio = lam_j / r_j
            if ratio < best:
                best, j_best = ratio, j
            elif ratio != ratio:
                return math.inf, -1
    return best, j_best


@dataclass(frozen=True)
class VariationalInequalityReport:
    """Sampled check of <x0 - x1, y - x1> <= 0 over feasible points y.

    ``max_violation`` is the raw maximum inner product; the normalized
    variant divides each sample by ``1 + ||x0-x1|| * ||y-x1||`` so a single
    threshold works across scales.
    """

    max_violation: float
    max_normalized_violation: float
    n_samples: int
    n_attempts: int


def chebyshev_point(poly: CutPolyhedron, near) -> np.ndarray | None:
    """Center of a deep ball inside the polyhedron, or None when it has none.

    The centers c and radii r of the balls inside ``{x : A x <= b}`` form
    the lifted polyhedron ``{(c, r) : <a_j, c> + r ||a_j|| <= b_j,
    r <= _CHEBYSHEV_RADIUS_CAP}`` of the Chebyshev-center LP (Boyd and
    Vandenberghe, Convex Optimization, 8.5.1). It is never empty, since r
    is unbounded below. One ``project_polyhedron`` call projects
    ``(near, _CHEBYSHEV_HEIGHT)`` onto it and returns c when r > 1e-12, so
    the ball is deep and near ``near``, but not necessarily the deepest.
    Returns None when r <= 1e-12, when the projection fails, or when c is
    not strictly inside every cut: on a polyhedron of zero width, r is
    round-off and may exceed 1e-12. It also returns None, without a
    warning, when a lifted row ``[a_j, ||a_j||]`` is too long for a float
    (``||a_j||`` above about 9.48e153) so that the lift is no
    ``CutPolyhedron``; the VI checker then samples by rejection alone.
    """
    k, n = poly.normals.shape
    normals = np.zeros((k + 1, n + 1))
    normals[:k, :n] = poly.normals
    normals[:k, n] = poly.normal_norms
    normals[k, n] = 1.0
    offsets = np.empty(k + 1)
    offsets[:k] = poly.offsets
    offsets[k] = _CHEBYSHEV_RADIUS_CAP
    query = np.empty(n + 1)
    query[:n] = as_vector(near, n)
    query[n] = _CHEBYSHEV_HEIGHT
    # A row [a, ||a||] is sqrt(2) times as long as a, so its length can
    # overflow where a's does not: the lift is then no polyhedron.
    with np.errstate(over="ignore"):
        try:
            lifted = CutPolyhedron(normals, offsets)
        except ValueError:
            return None
    try:
        point = project_polyhedron(query, lifted).point
    except ProjectionFailedError:
        return None
    c, r = point[:-1], point[-1]
    return c if r > 1e-12 and (poly.normals @ c < poly.offsets).all() else None


# Far from its projection the checker's draws and scores can overflow. A draw
# that does is rejected or, if kept, gives a score that is not finite, and
# such a score raises ValueError; NumPy need not warn.
@np.errstate(over="ignore", invalid="ignore")
def check_variational_inequality(
    x0,
    result: ProjectionResult,
    poly: CutPolyhedron,
    samples: int = 100,
    seed: int = 0,
) -> VariationalInequalityReport:
    """Sample feasible points and bound the projection inner product.

    The projection x1 of x0 satisfies <x0 - x1, y - x1> <= 0 for every
    feasible y; this estimates the worst case over ``samples`` points drawn
    by seeded rejection sampling around x1. Sample 0 is the interior point
    ``chebyshev_point(poly, x1)`` when there is one, and segments from x1
    toward it top up the quota when rejection alone cannot fill it. Raises
    NoFeasibleSampleFoundError if the quota cannot be met, and ValueError
    if ``samples`` fails ``check_count``, if ``result.point`` violates a cut
    by more than ``_VI_POINT_TOL`` (1e-8) in scaled terms, or if x0 lies so
    far from ``result.point`` that the check's own arithmetic overflows:
    when ``||x0 - x1||`` is not finite, before any draw, or when a score
    ``<x0 - x1, y - x1>`` or its denominator is not finite. None of these
    cases warns.

    Draw ``i`` (counting from 0) is ``x1 + radii[i % 3] * z_i`` with ``z_i``
    a standard normal n-vector, and it is kept when it is strictly feasible.
    The draws are made and tested in blocks of rows, and the generator is
    read as if one n-vector were drawn at a time: with PCG64 an (m, n) draw
    equals m draws of n. Samples are kept in draw order, and ``n_attempts``
    counts the draws up to the last sample kept, or the whole budget of
    ``200 * samples`` when rejection falls short; rows drawn past the last
    sample kept are discarded uncounted. The segment top-up is reached only
    after the whole budget is drawn, so it reads the same uniforms as one
    draw at a time would.

    So the block sizes decide only how many rows are drawn and thrown away,
    never a sample, ``n_attempts`` or a report bit, as long as no block runs
    past the budget. The first block asks for ``4 * need`` rows for the
    ``need`` samples still missing. A later one asks for ``ceil(1.25 *
    need * attempts / own)`` rows, where ``own`` counts the samples drawn so
    far (not the interior point), or four times the rows of the block before
    while ``own`` is 0. Every block, the first included, holds at least 64
    and at most ``min(budget - attempts, 1023)`` rows. A block's radii are
    read as one slice of the fixed index table ``_VI_RADIUS_INDEX``,
    starting at ``attempts % 3``.
    """
    x0 = as_vector(x0, poly.dim)
    x1 = as_vector(result.point, poly.dim)
    check_count("samples", samples)
    # poly.contains(x1, _VI_POINT_TOL) without its second check of x1.
    if not np.max((poly.normals @ x1 - poly.offsets) / poly.normal_norms) <= _VI_POINT_TOL:
        raise ValueError("result.point does not lie in the polyhedron")

    rng = np.random.default_rng(seed)
    gap = x0 - x1
    # np.linalg.norm of a real 1-D array is this sqrt of a dot, overflow
    # to inf included.
    gap_norm = math.sqrt(gap.dot(gap))
    if not math.isfinite(gap_norm):
        raise ValueError(_VI_TOO_FAR)
    scale = 1.0 + gap_norm
    interior = chebyshev_point(poly, x1)

    ys = np.empty((samples, poly.dim))
    count = 0
    if interior is not None:
        ys[0] = interior
        count = 1
    budget = 200 * samples
    attempts = 0
    m = 4 * (samples - count)
    radii = np.array([0.5 * scale, 2.0 * scale, 0.05 * scale])
    A, b, norms = poly.normals, poly.offsets[:, None], poly.normal_norms[:, None]
    while count < samples and attempts < budget:
        need = samples - count
        if attempts:
            # The draws kept so far: the interior point is not one of them.
            own = count - (interior is not None)
            m = -(-5 * need * attempts // (4 * own)) if own else 4 * m
        m = min(max(m, _VI_BLOCK_ROWS), _VI_MAX_BLOCK_ROWS, budget - attempts)
        o = attempts % 3
        radius = radii[_VI_RADIUS_INDEX[o:o + m]]
        Y = rng.standard_normal((m, poly.dim))
        Y *= radius[:, None]
        Y += x1
        # Samples must be strictly feasible; only the projection point
        # itself is granted the tolerance. The (k, m) layout makes the max
        # over cuts a reduction over the leading axis, which is the fast one.
        scaled = A @ Y.T
        scaled -= b
        scaled /= norms
        kept = np.flatnonzero(scaled.max(axis=0) <= 0.0)[:need]
        ys[count:count + kept.size] = Y[kept]
        count += kept.size
        attempts += int(kept[-1]) + 1 if kept.size == need else m
    if count < samples and interior is not None:
        # Segment [x1, interior] is feasible by convexity.
        t = rng.uniform(0.0, 1.0, size=samples - count)
        ys[count:] = x1 + t[:, None] * (interior - x1)
        count = samples
    if count < samples:
        raise NoFeasibleSampleFoundError(
            f"found {count}/{samples} feasible samples in {attempts} attempts"
        )

    # The scores round exactly as np.dot(gap, y - x1) does for one sample:
    # vecdot takes one dot product per row (a matrix-vector product may sum
    # in another order), and a length-1 np.dot is the bare product, whose
    # sign of zero vecdot's 0.0 + product would lose. argmax keeps the first
    # of equal maxima, as a running max() does.
    D = ys - x1
    inner = np.vecdot(D, gap) if poly.dim > 1 else D[:, 0] * gap[0]
    denominator = 1.0 + gap_norm * np.sqrt(np.vecdot(D, D))
    if not (np.isfinite(inner).all() and np.isfinite(denominator).all()):
        raise ValueError(_VI_TOO_FAR)
    normalized = inner / denominator
    return VariationalInequalityReport(
        max_violation=float(inner[inner.argmax()]),
        max_normalized_violation=float(normalized[normalized.argmax()]),
        n_samples=samples,
        n_attempts=attempts,
    )
