"""Exception types shared across the package."""


class EpscutError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(EpscutError):
    """Operands live in spaces of different dimension."""


class ZeroNormalError(EpscutError):
    """A cut polyhedron was constructed with a zero normal vector.

    ``build_cuts`` raises it for a zero bundle row, which ends a run
    ``ZeroSubgradient``.
    """


class InfeasiblePolyhedronError(EpscutError):
    """The halfspace intersection is empty (certified by an unbounded dual)."""


class ProjectionFailedError(EpscutError):
    """The projection's active-set iteration diverged or hit its iteration cap."""


class NoFeasibleSampleFoundError(EpscutError):
    """Rejection sampling could not produce the requested feasible points."""


class NotAvailableError(EpscutError):
    """The requested quantity has no analytic formula for this problem."""


class SublevelEmptyError(EpscutError):
    """The shifted sublevel set {f <= -eps} is empty."""


class InsufficientDataError(EpscutError):
    """Too few data points to fit or report anything meaningful."""
