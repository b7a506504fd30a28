"""Shift schedules: strictly decreasing positive sequences tending to zero.

The solver needs shifts eps_i > 0 whose decay is sublinear, meaning the
ratio eps_{i+1}/eps_i tends to 1 (slower than every geometric sequence).
Both non-constant kinds here have that property by construction; the
constant kind exists only to exercise baselines that violate it. A zero
constant is the unshifted baseline: the classical linearization cut of
Fukushima's method. Each kind's rule for eps_i lives in one place, its
entry of ``_RULES``, which also says whether the rule reads the exponent
``p``: only the harmonic one does. ``_KIND_BY_NAME`` maps each CLI
descriptor name to its kind. Each schedule also says where its shift next
changes (``EpsilonSchedule.next_change``), so that the solver can write the
rows of a stalled run without stepping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import as_float

# Each kind's shift at iteration i >= 0, as a function of the schedule and
# i, and whether that rule reads p. A kind whose rule does not read p takes
# only its default, 1.0.
_RULES = {
    "harmonic": (lambda s, i: s.eps0 / (i + 1) ** s.p, True),
    "logarithmic": (lambda s, i: s.eps0 / math.log(i + math.e), False),
    "constant_for_testing": (lambda s, i: s.eps0, False),
}

_KIND_BY_NAME = {"harmonic": "harmonic", "log": "logarithmic", "logarithmic": "logarithmic",
                 "const": "constant_for_testing", "constant": "constant_for_testing",
                 "constant_for_testing": "constant_for_testing"}


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

    kinds, each with its rule in its entry of ``_RULES``:
      harmonic             eps0 / (i+1)**p,  0 < p <= 1
      logarithmic          eps0 / log(i+e)
      constant_for_testing eps0            (deliberately not decreasing)

    ``p`` belongs to the harmonic kind, the one rule that reads it. The
    other kinds take only its default, 1.0: any other ``p`` raises
    ValueError, so a setting that would change nothing is refused.
    """

    kind: str
    eps0: float
    p: float = 1.0

    def __post_init__(self):
        if self.kind not in _RULES:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        # Adding +0.0 turns -0.0 into +0.0 and leaves every other value as it is.
        object.__setattr__(self, "eps0", as_float("eps0", self.eps0) + 0.0)
        object.__setattr__(self, "p", as_float("p", self.p))
        zero_ok = self.kind == "constant_for_testing"
        if not (0.0 < self.eps0 < math.inf or zero_ok and self.eps0 == 0.0):
            raise ValueError(f"eps0 must be {'nonnegative' if zero_ok else 'positive'} and finite")
        if self.p != 1.0 and not _RULES[self.kind][1]:
            raise ValueError(f"p is not read by the {self.kind} kind, which takes only p = 1.0")
        if not 0.0 < self.p <= 1.0:
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
    """Shift value at iteration i >= 0, by the rule of the schedule's kind."""
    if i < 0:
        raise ValueError("iteration index must be nonnegative")
    return _RULES[schedule.kind][0](schedule, i)


def parse_schedule(descriptor: str, eps0: float) -> EpsilonSchedule:
    """Build a schedule from a CLI descriptor.

    The descriptor is a name of ``_KIND_BY_NAME``, in any case and with
    surrounding spaces: "harmonic", "log" or "logarithmic", and "const",
    "constant" or "constant_for_testing". The harmonic kind alone also
    takes its exponent, as in "harmonic:p=0.5". Anything else raises
    ValueError.
    """
    name, colon, option = descriptor.strip().lower().partition(":")
    kind = _KIND_BY_NAME.get(name)
    key, _, value = option.partition("=")
    if kind is None or colon and (key != "p" or not _RULES[kind][1]):
        raise ValueError(f"unknown schedule descriptor {descriptor!r}")
    return EpsilonSchedule(kind, eps0, float(value) if colon else 1.0)
