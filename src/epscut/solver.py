"""Driver for the shifted-cut projection iteration.

At each iterate x_i with f(x_i) > 0, every bundle subgradient s produces the
cut {x : <s, x> <= <s, x_i> - f(x_i) - eps_i}, a halfspace that contains the
shifted sublevel set {f <= -eps_i} whenever the convexity inequality holds
between x_i and that set. The next iterate is the exact projection of x_i
onto the intersection of these cuts. Every run ends with one status:

  FeasibleFound    f(x_i) <= 0 (checked before each step)
  MaxIterExceeded  the iteration budget ran out
  ZeroSubgradient  a bundle member has zero norm, so its cut is undefined
  InfeasibleCuts   the cuts have an empty intersection and the fallback
                   is 'fail'
  NonfiniteStep    f(x_i) is +inf or NaN, or a bundle row, a cut offset
                   or a cut normal's length is not finite
  ProjectionFailed the projection did not converge (ProjectionFailedError)

The last four mean that the step from x_i could not be computed.

``solve`` runs one start point by point, and writes the rest of a stalled
run (a step that leaves x in place, under an unchanged shift) in one pass.
``solve_multistart`` is a batched front end to the same loop. Its starts
advance in lockstep for as long as each step is a one-cut move: each round
evaluates the oracle once for every start in the batch and makes all those
moves at once, in closed form (``geometry.project_one_cut``). A start whose
step is anything else (more cuts, a point inside its cut, a cut that cannot
be built) leaves the batch, and the loop of ``solve`` continues its run
from that iteration, stall fill included. That loop makes a one-cut step
with the same closed form on one point, so both give the same trace from a
start, byte for byte, because the oracles round a batch exactly as its
points.

Inputs are checked where they enter. The public functions (``evaluate``,
``build_cuts``, ``project_polyhedron``, ``CutPolyhedron``, ...) check their
arguments; ``solve`` checks x0, ``solve_multistart`` every start before its
first round, and ``SolveOptions`` checks itself when it is made. The loop
of ``solve`` calls those public functions, so their checks run again at
every step: ``evaluate`` checks ``j_max`` (``check_count``) and the iterate
(``as_vector``), and a step through the kernel checks the iterate again in
``project_polyhedron``. In both loops, each recorded distance checks its
shift (``as_float``) and its point (``as_points``). A lockstep round calls
the oracle methods and ``project_one_cut`` directly and checks no point.
Each later iterate is a projection point, which the kernel and the closed
form return finite, so the per-step checks of an iterate always pass. What
the oracle returns is checked once per step. A closed form is settled
only where it moves x to a finite point that the kernel would return,
which the step's own arithmetic rules out for a cut that ``CutPolyhedron``
would reject (``project_one_cut``). Any other step goes through
``build_cuts``, which builds its cuts through the ``CutPolyhedron``
constructor, whose checks of f(x_i), the cut offsets and the lengths of
the cut normals are the step's only finiteness checks, and reports a cut
that fails them.
The loops run with NumPy's overflow, invalid-operation and division
warnings off, since the status already reports what they would.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    InfeasiblePolyhedronError,
    ProjectionFailedError,
    SublevelEmptyError,
    ZeroNormalError,
)
from .geometry import (
    CutPolyhedron,
    as_vector,
    check_count,
    project_one_cut,
    project_polyhedron,
    record_eq,
)
from .problems import (
    DEFAULT_J_MAX,
    Evaluation,
    Problem,
    evaluate,
    exact_sublevel_distance,
    supports_sublevel_distance,
)
from .schedule import EpsilonSchedule, eps_at

FALLBACK_MODES = ("first_cut_only", "fail")


@dataclass(frozen=True)
class SolveOptions:
    """Knobs of one run; the defaults match the CLI defaults."""

    j_max: int = DEFAULT_J_MAX
    max_iter: int = 1000
    schedule: EpsilonSchedule = field(default_factory=EpsilonSchedule.harmonic)
    infeasible_cut_fallback: str = "first_cut_only"
    record_sublevel_distance: bool = False

    def __post_init__(self):
        check_count("j_max", self.j_max)
        check_count("max_iter", self.max_iter)
        if self.infeasible_cut_fallback not in FALLBACK_MODES:
            raise ValueError(
                f"unknown fallback {self.infeasible_cut_fallback!r}"
            )


class TerminationStatus(enum.Enum):
    FEASIBLE_FOUND = "FeasibleFound"
    MAX_ITER_EXCEEDED = "MaxIterExceeded"
    ZERO_SUBGRADIENT = "ZeroSubgradient"
    INFEASIBLE_CUTS = "InfeasibleCuts"
    NONFINITE_STEP = "NonfiniteStep"
    PROJECTION_FAILED = "ProjectionFailed"


class TraceRow(NamedTuple):
    """One per-iterate record, a named tuple of its cells in CSV column order.

    The cells are Python ints, floats and None (no sublevel distance), which
    ``traceio`` hands to ``csv`` and ``json`` as they are. The solver builds
    its rows as ``tuple.__new__(TraceRow, cells)``: the row ``TraceRow(*cells)``
    makes, without the call through the Python-level ``__new__``.
    """

    i: int
    eps_i: float
    f_xi: float
    j_i: int
    step_norm: float
    dist_sublevel: float | None
    cut_count_active: int


@dataclass(frozen=True)
class SolveTrace:
    """Full record of one run: its rows and where it ended.

    No visited point is kept but the last, ``final_x``; a run of k steps
    (``solve(..., max_iter=k)`` that does not stop sooner) ends at x_k.
    ``status_iteration`` is the index at which the run stopped; for error
    statuses it is the iteration that failed. ``strict_feasible`` is
    meaningful only for FEASIBLE_FOUND and records whether f was strictly
    negative.

    Two traces compare by ``geometry.record_eq``: ``final_x`` by its dtype,
    shape and bytes, the other fields with ``==``, so the rows compare cell
    by cell as tuples do. ``hash()`` raises TypeError, since ``rows`` is a
    list.
    """

    __eq__ = record_eq

    rows: list[TraceRow]
    status: TerminationStatus
    status_iteration: int
    final_x: np.ndarray
    final_f: float
    strict_feasible: bool | None


def build_cuts(x, evaluation: Evaluation, eps: float) -> CutPolyhedron:
    """Cut polyhedron at x from a bundle G: G y <= G x - f - eps.

    This is the step's one finiteness check, and the ``CutPolyhedron``
    constructor makes it: a zero row of G, checked ahead of finiteness,
    raises ZeroNormalError; an empty bundle (which only a non-finite f
    leaves), a non-finite offset or a row length that is not finite raises
    ValueError. A non-finite x makes every offset non-finite, so x needs
    only its shape checked: a point that is not 1-D raises ValueError, one
    of the wrong dimension DimensionMismatchError.
    """
    x = np.asarray(x, dtype=float)
    G = np.asarray(evaluation.bundle, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D point, got shape {x.shape}")
    if G.ndim == 2 and x.size != G.shape[1]:
        raise DimensionMismatchError(f"expected dimension {G.shape[1]}, got {x.size}")
    return CutPolyhedron(G, np.vecdot(G, x) - evaluation.value - eps)


def _sublevel_distance(problem: Problem, x, eps: float) -> float | None:
    try:
        return exact_sublevel_distance(problem, x, eps)
    except (SublevelEmptyError, ProjectionFailedError, ValueError):
        return None


def _step(x, evaluation: Evaluation, eps: float, fallback: str):
    """One step from x: the cuts of its bundle, projected.

    Returns ``(None, point, active)``, where ``active`` counts the cuts
    active at the point (0 when x lay inside its cuts and is handed back
    unmoved), or ``(status, None, 0)`` when the step cannot be computed. A
    one-cut bundle is projected in closed form (``project_one_cut``, the
    lockstep round's step), with the offset ``build_cuts`` would give it.
    Where that form is not settled, and for a bundle of any other size,
    ``build_cuts`` and ``project_polyhedron`` make the step, and their
    errors decide its status: a zero bundle row (ZeroNormalError) is
    ZERO_SUBGRADIENT. When the cuts have an empty intersection, the
    fallback ``first_cut_only`` steps again on the bundle's first row alone.
    Each layer is called through its name in this module.
    """
    G = evaluation.bundle
    if len(G) == 1:
        point, settled = project_one_cut(x, G[0], np.vecdot(G[0], x) - evaluation.value - eps)
        if settled:
            return None, point, 1
    try:
        result = project_polyhedron(x, build_cuts(x, evaluation, eps))
        return None, result.point, len(result.active_set)
    except InfeasiblePolyhedronError:
        # One cut is never empty, so the fallback re-enters only once.
        if fallback == "fail" or len(G) == 1:
            return TerminationStatus.INFEASIBLE_CUTS, None, 0
        return _step(x, evaluation._replace(bundle=G[:1]), eps, fallback)
    except ZeroNormalError:
        return TerminationStatus.ZERO_SUBGRADIENT, None, 0
    except ValueError:
        # build_cuts rejects non-finite cuts, and the empty bundle that only
        # a non-finite f leaves.
        return TerminationStatus.NONFINITE_STEP, None, 0
    except ProjectionFailedError:
        return TerminationStatus.PROJECTION_FAILED, None, 0


def _finish(rows, status, i, eps_i, f_xi, j_i, dist, x) -> SolveTrace:
    """The trace of a run that stopped at iteration i, from x.

    Every run ends here, so the record skips the frozen dataclass's
    generated ``__init__``, which makes one ``object.__setattr__`` call per
    field: it fills the new object's ``__dict__`` in one update, in
    ``fields`` order, with what ``__init__`` would store. ``SolveTrace``
    has no ``__post_init__`` to skip, so the record compares, prints,
    ``dataclasses.replace``s and refuses assignment as one made by
    ``SolveTrace(...)`` does, at half the cost.
    """
    rows.append(tuple.__new__(TraceRow, (i, eps_i, f_xi, j_i, 0.0, dist, 0)))
    trace = object.__new__(SolveTrace)
    trace.__dict__.update(
        rows=rows, status=status, status_iteration=i, final_x=x, final_f=f_xi,
        strict_feasible=f_xi < 0.0 if status is TerminationStatus.FEASIBLE_FOUND else None,
    )
    return trace


def _start_points(starts: list, dim: int) -> np.ndarray:
    """The starts as the rows of a new (B, dim) array. A start that
    ``as_vector`` would reject raises its error."""
    try:
        X = np.array(starts, dtype=float)
    except (TypeError, ValueError):
        X = None
    if X is None or X.shape[1:] != (dim,) or not np.isfinite(X).all():
        X = np.array([as_vector(x0, dim) for x0 in starts])
    return X


def solve(problem: Problem, x0, opts: SolveOptions | None = None) -> SolveTrace:
    """Run the iteration from x0 until feasibility or the budget runs out.

    Termination is checked before stepping, so an already feasible start
    yields a one-row trace. A step that cannot be computed does not raise;
    its status and failing iteration index go into the trace, so batch runs
    always complete. ``dist_sublevel`` is None where the exact distance is
    not recorded, not defined (an empty shifted sublevel set) or cannot be
    computed (its projection fails, or the problem data overflow).

    A step that leaves x where it is (x already lies inside its cuts, as
    when the zero shift stalls just outside the boundary) is repeated by
    every later step for as long as the schedule hands back the same shift
    object, as a constant schedule does: the oracle and the kernel give the
    same bits from the same point, so the next evaluation, cuts, projection
    and distance are this step's again. The schedule says where that ends
    (``EpsilonSchedule.next_change``). The loop writes those rows straight
    away, without evaluating anything, and steps again from x at that
    iteration. The trace is the one the step-by-step loop gives, byte for
    byte. The harmonic and logarithmic schedules make a new shift at every
    step, so only constant schedules, the zero shift among them, take this
    path; a harmonic shift that underflows to zero still steps at every
    iteration.
    """
    opts = opts or SolveOptions()
    x = as_vector(x0, problem.dim).copy()
    return _run(problem, x, 0, [], opts)


# Far from the origin the oracle and the cuts overflow, and the closed-form
# step divides by a zero-length cut before build_cuts rejects it. The status
# reports all of these, so NumPy need not warn about them.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _run(problem: Problem, x, i: int, rows: list[TraceRow], opts: SolveOptions) -> SolveTrace:
    """The loop of ``solve``, from x at iteration i to the end of the run.

    ``rows`` holds the rows of iterations 0 to i - 1; it is extended in
    place and goes into the trace, which keeps x only as the run's last
    point. A step with no active cut leaves x's bits as they were (x lay
    inside its cuts, and the kernel hands it back), so its next iterate
    repeats x. The stall fill asks the schedule once for the first later
    iteration whose shift may not be this step's shift object
    (``next_change``), then appends the rows up to it, or up to
    ``max_iter``, in one call. The fill rows share the stalled step's row's
    cell objects after i, so ``traceio`` writes each of them from the text
    of that row.
    """
    record_dist = opts.record_sublevel_distance and supports_sublevel_distance(problem)
    while True:
        evaluation = evaluate(problem, x, opts.j_max)
        f_xi = evaluation.value
        eps_i = eps_at(opts.schedule, i)
        dist = _sublevel_distance(problem, x, eps_i) if record_dist else None
        if f_xi <= 0.0:
            status = TerminationStatus.FEASIBLE_FOUND
        elif i == opts.max_iter:
            status = TerminationStatus.MAX_ITER_EXCEEDED
        else:
            status, point, active = _step(x, evaluation, eps_i, opts.infeasible_cut_fallback)
        if status is not None:
            break
        step = point - x
        row = tuple.__new__(TraceRow, (i, eps_i, f_xi, len(evaluation.bundle),
                                       math.sqrt(step.dot(step)), dist, active))
        rows.append(row)
        x = point
        i += 1
        if not active:
            # x lay inside its own cuts and came back unmoved, so every later
            # step repeats this one while the schedule hands back this shift
            # object, as a constant schedule does at every step.
            end = min(opts.schedule.next_change(i - 1), opts.max_iter)
            # The rows take this row's cells after i; x stays as it is for all
            # of them.
            rows.extend(map(tuple.__new__, repeat(TraceRow),
                            zip(range(i, end), *map(repeat, row[1:]))))
            i = end

    # The loop always stops by ``break``: at the latest when i == max_iter.
    return _finish(rows, status, i, eps_i, f_xi, len(evaluation.bundle), dist, x)


# A round also makes the closed-form step of rows whose cut has zero length;
# their results are not used.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_multistart(
    problem: Problem, starts, opts: SolveOptions | None = None
) -> list[SolveTrace]:
    """Independent runs from several starts; output order matches input.

    Each trace is the one ``solve`` gives from that start, byte for byte.
    The runs start in lockstep: one round makes iteration i of every run
    still in the batch. A round evaluates the oracle once on all their
    points and projects each onto its top piece's cut at once, in closed
    form (``project_one_cut``). A run whose step is that settled one-cut
    move, the step ``solve`` makes from the same point, stays in the batch.
    A run that stops leaves it with its last row. Any other run (a bundle
    of two or more cuts, cut data that are zero or not finite, a closed
    form that is not settled, or a point already inside its cut) leaves the
    batch for good: the loop of ``solve`` continues it from that iteration,
    stall fill included.

    A round tests each row as that loop does, in this order: f <= 0 ends
    the run FeasibleFound, then the last iteration ends it
    MaxIterExceeded, then a step that is not settled leaves the batch, and
    only a row past all three stays. The order matters for a NaN f: it is
    not <= 0 and its step is never settled, so before the last iteration
    it leaves the batch, and the loop of ``solve`` reports NonfiniteStep.
    Testing "f > 0 and not the last iteration" first would finish it in
    the batch as MaxIterExceeded.

    Per-start failures are already captured inside each trace's status, so a
    bad start never aborts the batch. Every start is checked before the
    first round.
    """
    opts = opts or SolveOptions()
    starts = list(starts)
    if not starts:
        raise ValueError("at least one start point is required")
    X = _start_points(starts, problem.dim)
    record_dist = opts.record_sublevel_distance and supports_sublevel_distance(problem)

    rows: list[list[TraceRow]] = [[] for _ in starts]
    traces: list[SolveTrace | None] = [None] * len(starts)
    owner = list(range(len(starts)))  # the start of each live row
    index = np.arange(len(starts))
    for i in range(opts.max_iter + 1):
        eps_i = eps_at(opts.schedule, i)
        values = problem.piece_values(X)
        f = values.max(axis=-1)
        sizes = np.minimum(problem.activity_mask(values, f[:, None]).sum(axis=-1), opts.j_max)
        # The cut of a one-cut bundle is the top piece's.
        g = problem.piece_gradients(X)[index[:len(X)], values.argmax(axis=-1)]
        point, settled = project_one_cut(X, g, np.vecdot(g, X) - f - eps_i)
        # Only a one-cut bundle's step is settled. A cut that build_cuts
        # would reject never is: it leaves the batch, and _run reports it.
        settled &= sizes == 1
        step = point - X
        step_norms = np.sqrt(np.vecdot(step, step)).tolist()
        live, next_owner = [], []
        for r, (start, f_xi, stays, step_norm) in enumerate(zip(owner, f.tolist(),
                                                                settled.tolist(), step_norms)):
            status = None
            if f_xi <= 0.0:
                status = TerminationStatus.FEASIBLE_FOUND
            elif i == opts.max_iter:
                status = TerminationStatus.MAX_ITER_EXCEEDED
            elif not stays:
                traces[start] = _run(problem, X[r].copy(), i, rows[start], opts)
                continue
            dist = _sublevel_distance(problem, X[r], eps_i) if record_dist else None
            if status is None:
                rows[start].append(tuple.__new__(TraceRow, (i, eps_i, f_xi, 1, step_norm,
                                                            dist, 1)))
                live.append(r)
                next_owner.append(start)
            else:
                traces[start] = _finish(rows[start], status, i, eps_i, f_xi, sizes.item(r),
                                        dist, X[r].copy())
        if not live:
            return traces
        X = point.take(live, axis=0)
        owner = next_owner
