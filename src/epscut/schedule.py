"""Shift schedules: strictly decreasing positive sequences tending to zero.

The solver needs shifts eps_i > 0 whose decay is sublinear, meaning the
ratio eps_{i+1}/eps_i tends to 1 (slower than every geometric sequence).
Both non-constant kinds here have that property by construction; the
constant kind exists only to exercise baselines that violate it. A zero
constant is the unshifted baseline: the classical linearization cut of
Fukushima's method. Each schedule also says where its shift next changes
(``EpsilonSchedule.next_change``), so that the solver can write the rows of
a stalled run without stepping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import as_float

KINDS = ("harmonic", "logarithmic", "constant_for_testing")


@dataclass(frozen=True)
class EpsilonSchedule:
    """Closed-form shift sequence eps(i), evaluated statelessly.

    ``eps0`` and ``p`` are stored as Python floats, whatever real number
    type they were given as, so every shift is a Python float: an integer
    or NumPy ``eps0`` gives the shifts, and the trace cells, of
    ``float(eps0)``. A bad value of either raises ValueError: a bool, a
    string or another non-real, a real too large for a float, or one out of
    range. ``eps0`` must be positive and finite; the constant kind also
    takes zero, stored as +0.0 (so -0.0 gives it too), which is the
    unshifted baseline.

    kinds:
      harmonic             eps0 / (i+1)**p,  0 < p <= 1
      logarithmic          eps0 / log(i+e)
      constant_for_testing eps0            (deliberately not decreasing)
    """

    kind: str
    eps0: float
    p: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        # Adding +0.0 turns -0.0 into +0.0 and leaves every other value as it is.
        object.__setattr__(self, "eps0", as_float("eps0", self.eps0) + 0.0)
        object.__setattr__(self, "p", as_float("p", self.p))
        zero_ok = self.kind == "constant_for_testing"
        if not (0.0 < self.eps0 < math.inf or zero_ok and self.eps0 == 0.0):
            raise ValueError(f"eps0 must be {'nonnegative' if zero_ok else 'positive'} and finite")
        if self.kind == "harmonic" and not 0.0 < self.p <= 1.0:
            raise ValueError("harmonic exponent p must lie in (0, 1]")

    def next_change(self, i: int) -> float:
        """The first iteration after i whose shift may not be the shift
        object of iteration i: ``math.inf`` for the constant kind, which
        hands back ``eps0`` itself at every iteration, and i + 1 for the
        others, which make a new shift at every iteration. The solver's stall
        fill writes the rows up to that iteration without stepping."""
        return math.inf if self.kind == "constant_for_testing" else i + 1

    @classmethod
    def harmonic(cls, eps0: float = 0.1, p: float = 1.0) -> "EpsilonSchedule":
        return cls("harmonic", eps0, p)

    @classmethod
    def logarithmic(cls, eps0: float = 0.1) -> "EpsilonSchedule":
        return cls("logarithmic", eps0)

    @classmethod
    def constant_for_testing(cls, eps0: float = 0.1) -> "EpsilonSchedule":
        return cls("constant_for_testing", eps0)


def eps_at(schedule: EpsilonSchedule, i: int) -> float:
    """Shift value at iteration i >= 0."""
    if i < 0:
        raise ValueError("iteration index must be nonnegative")
    if schedule.kind == "harmonic":
        return schedule.eps0 / (i + 1) ** schedule.p
    if schedule.kind == "logarithmic":
        return schedule.eps0 / math.log(i + math.e)
    return schedule.eps0


def parse_schedule(descriptor: str, eps0: float) -> EpsilonSchedule:
    """Build a schedule from a CLI descriptor.

    Accepted forms: "harmonic", "harmonic:p=0.5", "log", "const".
    """
    desc = descriptor.strip().lower()
    name, colon, option = desc.partition(":")
    if name == "harmonic":
        p = 1.0
        if colon:
            key, _, value = option.partition("=")
            if key != "p":
                raise ValueError(f"unknown schedule option {key!r}")
            p = float(value)
        return EpsilonSchedule.harmonic(eps0, p)
    if desc in ("log", "logarithmic"):
        return EpsilonSchedule.logarithmic(eps0)
    if desc in ("const", "constant", "constant_for_testing"):
        return EpsilonSchedule.constant_for_testing(eps0)
    raise ValueError(f"unknown schedule descriptor {descriptor!r}")
