"""Exception types shared across the package."""


class EpscutError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(EpscutError):
    """Operands live in spaces of different dimension."""


class ZeroNormalError(EpscutError):
    """A halfspace was constructed with a zero normal vector."""


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


class ZeroSubgradientError(EpscutError):
    """A bundle member has zero norm, so the cut projection is undefined."""

    def __init__(self, point):
        self.point = point
        super().__init__("zero subgradient in bundle")


class InsufficientDataError(EpscutError):
    """Too few data points to fit or report anything meaningful."""
