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

Inputs are checked where they enter. The public functions (``evaluate``,
``build_cuts``, ``project_polyhedron``, ``CutPolyhedron``, ...) check their
arguments; ``solve`` checks x0 once, and ``SolveOptions`` checks itself when
it is made. Each later iterate is a projection point, which the kernel
returns finite, so the loop checks no iterate again. What the oracle
returns is checked once per step, by ``build_cuts``: it builds its cuts
through the ``CutPolyhedron`` constructor, whose checks of f(x_i), the cut
offsets and the lengths of the cut normals are the step's only finiteness
checks. The loop runs with NumPy's overflow and invalid-operation warnings
off, since the status already reports what they would.

Baselines:
  zero_eps   cuts built with eps = 0 (the classical unshifted linearization)
  single_cut only the most active subgradient is used (J_i = 1)
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InfeasiblePolyhedronError,
    ProjectionFailedError,
    SublevelEmptyError,
    ZeroNormalError,
    ZeroSubgradientError,
)
from .geometry import CutPolyhedron, as_vector, project_polyhedron
from .problems import (
    DEFAULT_J_MAX,
    Evaluation,
    Problem,
    evaluate,
    exact_sublevel_distance,
    supports_sublevel_distance,
)
from .schedule import EpsilonSchedule, eps_at

BASELINE_MODES = ("none", "zero_eps", "single_cut")
FALLBACK_MODES = ("first_cut_only", "fail")


@dataclass(frozen=True)
class SolveOptions:
    """Knobs of one run; the defaults match the CLI defaults."""

    j_max: int = DEFAULT_J_MAX
    max_iter: int = 1000
    schedule: EpsilonSchedule = field(default_factory=EpsilonSchedule.harmonic)
    baseline_mode: str = "none"
    infeasible_cut_fallback: str = "first_cut_only"
    record_sublevel_distance: bool = False

    def __post_init__(self):
        if self.j_max < 1:
            raise ValueError("j_max must be at least 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.baseline_mode not in BASELINE_MODES:
            raise ValueError(f"unknown baseline mode {self.baseline_mode!r}")
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


@dataclass(frozen=True)
class TraceRow:
    """One per-iterate record; exactly the columns of the CSV format."""

    i: int
    eps_i: float
    f_xi: float
    j_i: int
    step_norm: float
    dist_sublevel: float | None
    cut_count_active: int


@dataclass(frozen=True)
class SolveTrace:
    """Full record of one run.

    ``iterates`` keeps every visited point (x_0 first); it is not part of
    the serialized formats but feeds diagnostics. ``status_iteration`` is
    the index at which the run stopped; for error statuses it is the
    iteration that failed. ``strict_feasible`` is meaningful only for
    FEASIBLE_FOUND and records whether f was strictly negative.
    """

    rows: list[TraceRow]
    status: TerminationStatus
    status_iteration: int
    final_x: np.ndarray
    final_f: float
    strict_feasible: bool | None
    iterates: list[np.ndarray]


def build_cuts(x, evaluation: Evaluation, eps: float) -> CutPolyhedron:
    """Cut polyhedron at x from a bundle G: G y <= G x - f - eps.

    This is the step's one finiteness check. A zero row of G raises
    ZeroSubgradientError; then an empty bundle (which only a non-finite f
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
    try:
        return CutPolyhedron(G, np.vecdot(G, x) - evaluation.value - eps)
    except ZeroNormalError:
        raise ZeroSubgradientError(x) from None


# Far from the origin the oracle and the cuts overflow. build_cuts and the
# kernel turn that into a status, so NumPy need not warn about it.
@np.errstate(over="ignore", invalid="ignore")
def solve(problem: Problem, x0, opts: SolveOptions | None = None) -> SolveTrace:
    """Run the iteration from x0 until feasibility or the budget runs out.

    Termination is checked before stepping, so an already feasible start
    yields a one-row trace. A step that cannot be computed does not raise;
    its status and failing iteration index go into the trace, so batch runs
    always complete. ``dist_sublevel`` is None where the exact distance is
    not recorded, not defined (an empty shifted sublevel set) or cannot be
    computed (its projection fails, or the problem data overflow).
    """
    opts = opts or SolveOptions()
    x = as_vector(x0, problem.dim).copy()
    j_max = 1 if opts.baseline_mode == "single_cut" else opts.j_max
    record_dist = opts.record_sublevel_distance and supports_sublevel_distance(problem)

    rows: list[TraceRow] = []
    iterates = [x.copy()]
    for i in range(opts.max_iter + 1):
        evaluation = evaluate(problem, x, j_max)
        f_xi = evaluation.value
        eps_i = 0.0 if opts.baseline_mode == "zero_eps" else eps_at(opts.schedule, i)
        dist = None
        if record_dist:
            try:
                dist = exact_sublevel_distance(problem, x, eps_i)
            except (SublevelEmptyError, ProjectionFailedError, ValueError):
                pass

        status = None
        if f_xi <= 0.0:
            status = TerminationStatus.FEASIBLE_FOUND
        elif i == opts.max_iter:
            status = TerminationStatus.MAX_ITER_EXCEEDED
        else:
            try:
                poly = build_cuts(x, evaluation, eps_i)
                try:
                    result = project_polyhedron(x, poly)
                except InfeasiblePolyhedronError:
                    if opts.infeasible_cut_fallback == "fail":
                        raise
                    first = CutPolyhedron(poly.normals[:1], poly.offsets[:1])
                    result = project_polyhedron(x, first)
            except ZeroSubgradientError:
                status = TerminationStatus.ZERO_SUBGRADIENT
            except InfeasiblePolyhedronError:
                status = TerminationStatus.INFEASIBLE_CUTS
            except ValueError:
                # build_cuts rejects non-finite cuts, and the empty bundle
                # that only a non-finite f leaves.
                status = TerminationStatus.NONFINITE_STEP
            except ProjectionFailedError:
                status = TerminationStatus.PROJECTION_FAILED
        if status is not None:
            break
        step = result.point - x
        rows.append(
            TraceRow(i, eps_i, f_xi, len(evaluation.bundle), math.sqrt(step.dot(step)),
                     dist, len(result.active_set))
        )
        x = result.point
        iterates.append(x.copy())

    # The loop always stops by ``break``: at the latest when i == max_iter.
    rows.append(TraceRow(i, eps_i, f_xi, len(evaluation.bundle), 0.0, dist, 0))
    strict_feasible = (
        f_xi < 0.0 if status is TerminationStatus.FEASIBLE_FOUND else None
    )
    return SolveTrace(rows, status, i, x, f_xi, strict_feasible, iterates)


def solve_multistart(
    problem: Problem, starts, opts: SolveOptions | None = None
) -> list[SolveTrace]:
    """Independent runs from several starts; output order matches input.

    Per-start failures are already captured inside each trace's status, so a
    bad start never aborts the batch.
    """
    starts = list(starts)
    if not starts:
        raise ValueError("at least one start point is required")
    return [solve(problem, x0, opts) for x0 in starts]
