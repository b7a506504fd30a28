"""Shift schedule tests: closed forms, monotonicity, sublinearity witnesses."""

import math

import numpy as np
import pytest

from epscut import EpsilonSchedule, eps_at, parse_schedule
from epscut.cli import BASELINES


def test_harmonic_values():
    s = EpsilonSchedule.harmonic(0.1, 1.0)
    assert eps_at(s, 0) == 0.1
    assert eps_at(s, 3) == pytest.approx(0.025, abs=0)


def test_harmonic_ratio_approaches_one():
    s = EpsilonSchedule.harmonic(0.1, 1.0)
    for i in (1000, 10_000):
        ratio = eps_at(s, i + 1) / eps_at(s, i)
        assert ratio > 0.999
    assert eps_at(s, 10_001) / eps_at(s, 10_000) == pytest.approx(0.9999, abs=1e-7)


@pytest.mark.parametrize(
    "schedule",
    [
        EpsilonSchedule.harmonic(0.1, 1.0),
        EpsilonSchedule.harmonic(2.0, 0.5),
        EpsilonSchedule.logarithmic(0.1),
    ],
)
def test_strictly_decreasing_and_positive(schedule):
    indices = [2**k for k in range(21)] + [0, 1, 10**6]
    for i in sorted(set(indices)):
        assert eps_at(schedule, i) > 0.0
        assert eps_at(schedule, i + 1) < eps_at(schedule, i)


@pytest.mark.parametrize(
    "schedule",
    [EpsilonSchedule.harmonic(0.1, 1.0), EpsilonSchedule.logarithmic(0.1)],
)
@pytest.mark.parametrize("r", [0.9, 0.99])
def test_sublinearity_witness(schedule, r):
    found = any(
        eps_at(schedule, i + 1) / eps_at(schedule, i) > r
        for i in [2**k for k in range(21)]
    )
    assert found


def test_harmonic_ratio_nondecreasing():
    s = EpsilonSchedule.harmonic(0.1, 1.0)
    ratios = [eps_at(s, i + 1) / eps_at(s, i) for i in range(0, 2000, 37)]
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("s, eps0", [(EpsilonSchedule.constant_for_testing(0.25), 0.25),
                                     (BASELINES["zero_eps"]["schedule"], 0.0)],
                         ids=["const", "zero_eps"])
def test_constant_kind_is_constant(s, eps0):
    # Every shift is one object, the schedule's own: solve's stall fill
    # keeps filling while the shift is the stalled step's object.
    assert [eps_at(s, i) for i in (0, 5, 500)] == [eps0, eps0, eps0]
    assert all(eps_at(s, i) is eps_at(s, 0) for i in (5, 500))


@pytest.mark.parametrize("eps0", [0.0, -0.0, 0], ids=["zero", "negative-zero", "int-zero"])
def test_zero_constant_shifts_are_positive_zero(eps0):
    # The unshifted baseline: every shift is +0.0, so a trace writes "0.0".
    schedule = EpsilonSchedule.constant_for_testing(eps0)
    assert parse_schedule("const", eps0) == schedule
    for i in (0, 1, 1000):
        shift = eps_at(schedule, i)
        assert type(shift) is float and shift == 0.0 and math.copysign(1.0, shift) == 1.0


@pytest.mark.parametrize("eps0", [0.0, -0.0])
@pytest.mark.parametrize("kind", ["harmonic", "logarithmic"])
def test_only_the_constant_kind_takes_zero(kind, eps0):
    with pytest.raises(ValueError, match="eps0 must be positive and finite"):
        EpsilonSchedule(kind, eps0)


def test_constant_rejects_negative_shifts():
    with pytest.raises(ValueError, match="eps0 must be nonnegative and finite"):
        EpsilonSchedule.constant_for_testing(-1e-300)


def test_validation():
    with pytest.raises(ValueError):
        EpsilonSchedule.harmonic(0.0)
    with pytest.raises(ValueError):
        EpsilonSchedule.harmonic(0.1, 1.5)
    with pytest.raises(ValueError):
        EpsilonSchedule("quadratic", 0.1)
    with pytest.raises(ValueError):
        eps_at(EpsilonSchedule.harmonic(0.1), -1)


def test_parse_descriptors():
    assert parse_schedule("harmonic:p=0.5", 0.2) == EpsilonSchedule.harmonic(0.2, 0.5)
    assert parse_schedule("harmonic", 0.2) == EpsilonSchedule.harmonic(0.2, 1.0)
    assert parse_schedule("log", 1.0) == EpsilonSchedule.logarithmic(1.0)
    assert parse_schedule("const", 1.0) == EpsilonSchedule.constant_for_testing(1.0)
    # Every accepted name, in any case and with surrounding spaces, and the
    # kind it builds.
    accepted = {
        "harmonic": ("harmonic", 1.0), "harmonic:p=0.5": ("harmonic", 0.5),
        "log": ("logarithmic", 1.0), "logarithmic": ("logarithmic", 1.0),
        "const": ("constant_for_testing", 1.0), "constant": ("constant_for_testing", 1.0),
        "constant_for_testing": ("constant_for_testing", 1.0),
    }
    for descriptor, (kind, p) in accepted.items():
        for form in (descriptor, descriptor.upper(), f"  {descriptor} \t"):
            schedule = parse_schedule(form, 0.2)
            assert (schedule.kind, schedule.eps0, schedule.p) == (kind, 0.2, p)
            assert schedule == EpsilonSchedule(kind, 0.2, p)
    # Only the harmonic kind takes an option.
    for descriptor in ("harmonic:q=2", "geometric", "log:p=1", "const:p=1",
                       "logarithmic:p=0.5", "constant_for_testing:p=1"):
        with pytest.raises(ValueError):
            parse_schedule(descriptor, 0.1)


@pytest.mark.parametrize("kind", ["logarithmic", "constant_for_testing"])
def test_only_the_harmonic_kind_takes_p(kind):
    # The rules of these kinds do not read p, so a p other than its default
    # would change nothing and is refused.
    for p in (1, 1.0, np.float64(1.0)):
        assert EpsilonSchedule(kind, 0.1, p) == EpsilonSchedule(kind, 0.1)
    for p in (0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match=f"^p is not read by the {kind} kind"):
            EpsilonSchedule(kind, 0.1, p)


@pytest.mark.parametrize(
    "descriptor", ["harmonicly", "harmonic2", "harmonics:p=0.5", "harmonic:", "harmonic:p="],
)
def test_parse_accepts_only_harmonic_forms(descriptor):
    with pytest.raises(ValueError):
        parse_schedule(descriptor, 0.1)


@pytest.mark.parametrize("eps0", [float("inf"), float("nan"), -float("inf")])
@pytest.mark.parametrize("kind", ["harmonic", "log", "const"])
def test_eps0_must_be_finite(kind, eps0):
    with pytest.raises(ValueError):
        parse_schedule(kind, eps0)


@pytest.mark.parametrize("eps0", [1, np.float64(0.1), np.float32(0.5)],
                         ids=["int", "float64", "float32"])
@pytest.mark.parametrize("kind", ["harmonic", "log", "const"])
def test_shifts_are_python_floats(kind, eps0):
    # The trace writers write a row's cells as they are, so a shift must be
    # a Python float whatever number type eps0 was given as.
    schedule = parse_schedule(kind, eps0)
    assert type(schedule.eps0) is float and schedule.eps0 == eps0
    assert all(type(eps_at(schedule, i)) is float for i in range(5))


def test_harmonic_exponent_is_stored_as_a_float():
    schedule = EpsilonSchedule.harmonic(0.1, np.float64(0.5))
    assert type(schedule.p) is float
    assert eps_at(schedule, 3) == eps_at(EpsilonSchedule.harmonic(0.1, 0.5), 3)
    assert type(eps_at(schedule, 3)) is float


BAD_NUMBERS = [10**400, "0.1", True, None, [0.1], complex(0.1, 0.0)]
BAD_IDS = ["10**400", "str", "bool", "None", "list", "complex"]


@pytest.mark.parametrize("eps0", BAD_NUMBERS, ids=BAD_IDS)
@pytest.mark.parametrize("kind", ["harmonic", "logarithmic", "constant_for_testing"])
def test_bad_eps0_raises_value_error(kind, eps0):
    # An integer too large for a float overflowed, a string failed the
    # range comparison with TypeError, and a bool passed as 1.
    with pytest.raises(ValueError, match="eps0"):
        EpsilonSchedule(kind, eps0)


@pytest.mark.parametrize("p", BAD_NUMBERS, ids=BAD_IDS)
@pytest.mark.parametrize("kind", ["harmonic", "logarithmic", "constant_for_testing"])
def test_bad_exponent_raises_value_error(kind, p):
    # Only the harmonic kind reads p, but every kind checks it.
    with pytest.raises(ValueError, match="^p "):
        EpsilonSchedule(kind, 0.1, p)


@pytest.mark.parametrize("schedule", [
    EpsilonSchedule.constant_for_testing(0.0),
    EpsilonSchedule.constant_for_testing(0.1),
    EpsilonSchedule.harmonic(0.1, 1.0),
    EpsilonSchedule.harmonic(5e-324, 0.5),
    EpsilonSchedule.logarithmic(0.1),
], ids=["zero", "constant", "harmonic", "harmonic-underflow", "log"])
def test_next_change(schedule):
    # A constant hands back eps0 itself at every iteration, so its shift
    # never changes; the other kinds make a new object at every iteration,
    # an underflowed +0.0 too.
    constant = schedule.kind == "constant_for_testing"
    for i in (0, 1, 7, 10**6):
        assert schedule.next_change(i) == (math.inf if constant else i + 1)
        assert (eps_at(schedule, i + 1) is eps_at(schedule, i)) == constant
