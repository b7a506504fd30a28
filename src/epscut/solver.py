"""Driver for the shifted-cut projection iteration.

At each iterate x_i with f(x_i) > 0, every bundle subgradient s produces the
cut {x : <s, x> <= <s, x_i> - f(x_i) - eps_i}, a halfspace that contains the
shifted sublevel set {f <= -eps_i} whenever the convexity inequality holds
between x_i and that set. The next iterate is the exact projection of x_i
onto the intersection of these cuts. The run stops the first time
f(x_i) <= 0, or after the iteration budget, or on one of two error
conditions captured in the trace status: a zero-norm subgradient (the cut is
undefined) or an empty cut intersection with the fail fallback.

Baselines:
  zero_eps   cuts built with eps = 0 (the classical unshifted linearization)
  single_cut only the most active subgradient is used (J_i = 1)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InfeasibleCutsError,
    InfeasiblePolyhedronError,
    SublevelEmptyError,
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

PROJECTION_TOL = 1e-10

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


@dataclass(frozen=True)
class StepMeta:
    j_used: int
    cut_count_active: int
    fallback_used: bool


def build_cuts(x, evaluation: Evaluation, eps: float) -> CutPolyhedron:
    """Cut polyhedron at x from a bundle G: G y <= G x - f - eps."""
    x = np.asarray(x, dtype=float)
    G = evaluation.bundle
    if (np.vecdot(G, G) == 0.0).any():
        raise ZeroSubgradientError(x)
    return CutPolyhedron(G, np.vecdot(G, x) - evaluation.value - eps)


def _step(
    x: np.ndarray, evaluation: Evaluation, eps: float, opts: SolveOptions
) -> tuple[np.ndarray, StepMeta]:
    """One projection step; raises ZeroSubgradientError or InfeasibleCutsError."""
    poly = build_cuts(x, evaluation, eps)
    try:
        result = project_polyhedron(x, poly, PROJECTION_TOL)
        fallback_used = False
    except InfeasiblePolyhedronError:
        if opts.infeasible_cut_fallback == "fail":
            raise InfeasibleCutsError()
        first = CutPolyhedron(poly.normals[:1], poly.offsets[:1])
        result = project_polyhedron(x, first, PROJECTION_TOL)
        fallback_used = True
    meta = StepMeta(
        j_used=len(evaluation.bundle),
        cut_count_active=len(result.active_set),
        fallback_used=fallback_used,
    )
    return result.point, meta


def _maybe_distance(problem, x, eps, opts) -> float | None:
    if not (opts.record_sublevel_distance and supports_sublevel_distance(problem)):
        return None
    try:
        return exact_sublevel_distance(problem, x, eps)
    except SublevelEmptyError:
        return None


def solve(problem: Problem, x0, opts: SolveOptions | None = None) -> SolveTrace:
    """Run the iteration from x0 until feasibility or the budget runs out.

    Termination is checked before stepping, so an already feasible start
    yields a one-row trace. Zero-subgradient and empty-cut conditions do not
    raise; they are captured in the trace status with the failing iteration
    index so batch runs always complete.
    """
    opts = opts or SolveOptions()
    x = as_vector(x0, problem.dim).copy()
    j_max = 1 if opts.baseline_mode == "single_cut" else opts.j_max

    rows: list[TraceRow] = []
    iterates = [x.copy()]
    for i in range(opts.max_iter + 1):
        evaluation = evaluate(problem, x, j_max)
        f_xi = evaluation.value
        if opts.baseline_mode == "zero_eps":
            eps_i = 0.0
        else:
            eps_i = eps_at(opts.schedule, i)
        dist = _maybe_distance(problem, x, eps_i, opts)

        status = None
        if f_xi <= 0.0:
            status = TerminationStatus.FEASIBLE_FOUND
        elif i == opts.max_iter:
            status = TerminationStatus.MAX_ITER_EXCEEDED
        else:
            try:
                x_next, meta = _step(x, evaluation, eps_i, opts)
            except ZeroSubgradientError:
                status = TerminationStatus.ZERO_SUBGRADIENT
            except InfeasibleCutsError:
                status = TerminationStatus.INFEASIBLE_CUTS
        if status is not None:
            break
        step_norm = float(np.linalg.norm(x_next - x))
        rows.append(
            TraceRow(i, eps_i, f_xi, meta.j_used, step_norm, dist,
                     meta.cut_count_active)
        )
        x = x_next
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
