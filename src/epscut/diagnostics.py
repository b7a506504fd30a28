"""Empirical rate and regularity diagnostics over solve traces.

Two quantities drive the analysis of a run:

* the ratio d(x, S_eps) / (f(x) + eps), whose supremum over a region lower
  bounds any valid modulus in the local error bound
  d(x, S_eps) <= kappa * (f(x) + eps);
* the per-iteration decay of the recorded distances d(x_i, S_{eps_i}),
  summarized by a log-linear least-squares fit.

A trace whose distance sequence decays geometrically while eps_i / d_i
stays bounded cannot run forever: a geometric sequence eventually drops
below any sublinearly decaying floor. ``claim_contrast`` packages both
measurements and states that verdict for a concrete trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .geometry import as_points
from .problems import Problem, exact_sublevel_distance
from .solver import SolveTrace, TerminationStatus


@dataclass(frozen=True)
class RateFit:
    """Geometric-rate summary of a positive sequence.

    ``rho`` is exp(slope) of the least-squares line through log(values)
    versus index; ``r2`` its coefficient of determination.
    """

    rho: float
    r2: float
    n_points: int


def fit_decay_rate(values) -> RateFit:
    """Fit a geometric decay factor to a positive sequence.

    Trailing zeros are trimmed before fitting (a sequence that has reached
    zero carries no rate information at its tail); remaining values must be
    at least three, positive and finite, and so must their ratios to the
    first. The fit is performed on those ratios, so it depends on ratios
    only. A value or ratio that fails raises ValueError, without a NumPy
    warning.
    """
    v = [float(x) for x in values]
    while v and v[-1] == 0.0:
        v.pop()
    if len(v) < 3:
        raise InsufficientDataError(
            f"need at least 3 positive values, got {len(v)} after trimming"
        )
    arr = np.asarray(v)
    # An inf or NaN value, or a ratio that overflows or underflows to zero,
    # fails the check below; NumPy need not warn about it.
    with np.errstate(all="ignore"):
        ratios = arr / arr[0]
    if not ((arr > 0.0) & (ratios > 0.0) & (ratios < math.inf)).all():
        raise ValueError("values must be positive and finite (zeros only at the tail), "
                         "and so must their ratios to the first")
    y = np.log(ratios)
    x = np.arange(arr.size, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    r2 = min(1.0, max(0.0, r2))
    return RateFit(rho=math.exp(slope), r2=r2, n_points=arr.size)


def estimate_kappa(problem: Problem, points, eps: float) -> float:
    """Empirical lower bound for the error-bound modulus on given points.

    ``points`` is an (m, n) stack of m >= 1 points. Returns the largest
    d(x, S_eps) / (f(x) + eps) over them, and 0.0 if none is positive; a
    NaN ratio (inf / inf, where f and d both overflow) is skipped. One
    ``piece_values`` call gives every f and one ``exact_sublevel_distance``
    call every d. Errors, first match wins: ValueError for an empty,
    ragged or non-finite stack, DimensionMismatchError for the wrong
    dimension, ValueError naming the first point where f(x) + eps is not
    positive, then what ``exact_sublevel_distance`` raises: ValueError for
    a negative eps, NotAvailableError for a kind without an analytic
    distance, SublevelEmptyError for an empty shifted set. The result is
    only a sampled lower bound on any valid modulus, never the modulus
    itself.
    """
    X = np.asarray(points, dtype=float)
    if X.shape[:1] == (0,):
        raise ValueError("at least one point is required")
    if X.ndim != 2:
        raise ValueError(f"expected an (m, n) stack of points, got shape {X.shape}")
    X = as_points(X, problem.dim)
    denom = problem.piece_values(X).max(axis=-1) + eps
    bad = np.flatnonzero(~(denom > 0.0))
    if bad.size:
        idx = int(bad[0])
        raise ValueError(
            f"point {idx}: f(x) + eps = {float(denom[idx])} is not positive"
        )
    d = exact_sublevel_distance(problem, X, eps)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = d / denom
    return _largest_ratio(ratios.tolist())


def _largest_ratio(ratios) -> float:
    """The largest ratio above 0.0, and 0.0 if there is none: as
    max(best, ratio) from best = 0.0 finds it ratio by ratio, so a NaN is
    never above."""
    return max((q for q in ratios if q > 0.0), default=0.0)


@dataclass(frozen=True)
class ContrastReport:
    """Decay rate of recorded distances versus the shift floor.

    ``l_hat`` is the largest observed eps_i / d_i; its finiteness over the
    recorded rows witnesses that the distances stayed above a multiple of
    the shifts. ``kappa_hat`` is the largest d_i / (f_i + eps_i) over the
    same rows, the error-bound ratio at the shift each step used, taken by
    ``estimate_kappa``'s rule: only a ratio above 0.0 counts, a NaN
    (inf / inf) never does, and 0.0 stands for none.
    """

    rate: RateFit
    dist: list[float]
    eps_over_dist: list[float]
    l_hat: float
    kappa_hat: float
    terminated: bool
    termination_index: int | None
    verdict: str

    def to_dict(self) -> dict:
        """The fields in order, with ``rate`` as a dict too, and without
        ``kappa_hat``, which the diagnose report carries ahead of them."""
        fields = {**vars(self), "rate": dict(vars(self.rate))}
        del fields["kappa_hat"]
        return fields


def claim_contrast(trace: SolveTrace) -> ContrastReport:
    """Contrast the distance decay of a trace with its shift floor.

    Every field is measured on the rows recorded before termination (f > 0)
    that carry a sublevel distance. Raises InsufficientDataError when fewer
    than three such rows exist.
    """
    pre_rows = [
        r for r in trace.rows if r.f_xi > 0.0 and r.dist_sublevel is not None
    ]
    if len(pre_rows) < 3:
        raise InsufficientDataError(
            f"need >= 3 pre-termination rows with recorded distances, got {len(pre_rows)}"
        )
    dist = [r.dist_sublevel for r in pre_rows]
    rate = fit_decay_rate(dist)
    eps_over_dist = [
        (r.eps_i / r.dist_sublevel) if r.dist_sublevel > 0.0 else math.inf
        for r in pre_rows
    ]
    finite = [v for v in eps_over_dist if math.isfinite(v)]
    l_hat = max(finite) if finite else math.inf
    kappa_hat = _largest_ratio(r.dist_sublevel / (r.f_xi + r.eps_i) for r in pre_rows)

    terminated = trace.status is TerminationStatus.FEASIBLE_FOUND
    term_index = trace.status_iteration if terminated else None
    if terminated:
        verdict = (
            f"distances decay geometrically (rho={rate.rho:.4g}) while "
            f"eps_i/d_i stays bounded by {l_hat:.4g}; both trends can only "
            f"coexist for finitely many steps, and the run indeed terminated "
            f"at iteration {term_index}"
        )
    else:
        verdict = (
            f"distances decay with fitted rho={rate.rho:.4g} and "
            f"eps_i/d_i bounded by {l_hat:.4g}; the run did not terminate "
            f"within its budget ({trace.status.value})"
        )
    return ContrastReport(
        rate=rate,
        dist=dist,
        eps_over_dist=eps_over_dist,
        l_hat=l_hat,
        kappa_hat=kappa_hat,
        terminated=terminated,
        termination_index=term_index,
        verdict=verdict,
    )
