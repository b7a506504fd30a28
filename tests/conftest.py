"""Shared test oracles and instance generators.

The brute-force projection oracle enumerates every constraint subset,
projects the query point onto each subset's affine hull, and keeps the
feasible candidate nearest to the query point. It is independent of the
active-set kernel it validates.
"""

import dataclasses
import math
import struct

import numpy as np
import pytest


def brute_force_projection(x0, normals, offsets, feas_tol=1e-9):
    """Exact projection onto {x : normals @ x <= offsets} by enumeration.

    Returns the nearest feasible candidate or None when no subset yields a
    feasible point (empty polyhedron).
    """
    x0 = np.asarray(x0, dtype=float)
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    k = normals.shape[0]
    row_norms = np.linalg.norm(normals, axis=1)

    best = None
    best_dist = np.inf
    for mask in range(2**k):
        subset = [j for j in range(k) if (mask >> j) & 1]
        if subset:
            A = normals[subset]
            b = offsets[subset]
            # The pseudoinverse of A itself, not of the Gram matrix A A^T:
            # its error grows with cond(A) rather than cond(A)^2.
            cand = x0 - np.linalg.pinv(A) @ (A @ x0 - b)
            residual = np.abs(A @ cand - b) / row_norms[subset]
            if np.max(residual) > 1e-7:
                continue
        else:
            cand = x0.copy()
        scaled = (normals @ cand - offsets) / row_norms
        if np.max(scaled) > feas_tol:
            continue
        dist = float(np.linalg.norm(cand - x0))
        if dist < best_dist:
            best_dist = dist
            best = cand
    return best


def assert_compares_by_bytes(record, field):
    """A record equals its copy, and differs from one whose float64 array
    or float ``field`` is one bit off, holds -0.0 where it held 0.0, or (an
    array) has another dtype or shape. A float field equals a new float of
    its bits, a NaN too, and differs from a NaN of the other sign."""
    array = getattr(record, field)
    assert record == dataclasses.replace(record) and not record != dataclasses.replace(record)
    if isinstance(array, float):
        bits = struct.unpack("<Q", struct.pack("<d", array))[0]
        same, flipped = (struct.unpack("<d", struct.pack("<Q", b))[0] for b in (bits, bits ^ 1))
        assert record == dataclasses.replace(record, **{field: same})
        assert record != dataclasses.replace(record, **{field: flipped})
        for value, negated in ((0.0, -0.0), (math.nan, -math.nan)):
            changed = dataclasses.replace(record, **{field: value})
            assert changed == dataclasses.replace(record, **{field: float(str(value))})
            assert changed != dataclasses.replace(record, **{field: negated})
        return
    changed = [array.astype(np.float32), array.reshape(-1, 1)]
    if array.size:
        bits = array.copy().view(np.uint64)
        bits[-1] ^= np.uint64(1)
        changed.append(bits.view(np.float64))
    for other in changed:
        assert record != dataclasses.replace(record, **{field: other})
    zero = dataclasses.replace(record, **{field: np.zeros(array.size)})
    negative_zero = dataclasses.replace(record, **{field: -np.zeros(array.size)})
    assert zero == dataclasses.replace(record, **{field: np.zeros(array.size)})
    assert (zero == negative_zero) == (array.size == 0)


def random_projection_instance(rng):
    """One random polyhedral-projection instance with n <= 5, k <= 6.

    Mixes interior starts, exterior starts, and (occasionally) an explicit
    contradicting constraint pair so empty intersections are exercised too.
    """
    n = int(rng.integers(1, 6))
    force_empty = rng.random() < 0.1
    k = int(rng.integers(1, 5 if force_empty else 7))

    rows = []
    for _ in range(k):
        a = rng.standard_normal(n)
        while np.linalg.norm(a) < 1e-3:
            a = rng.standard_normal(n)
        rows.append(a)
    A = np.array(rows) * (10.0 ** rng.uniform(-1.0, 1.0, size=k))[:, None]

    anchor = rng.standard_normal(n)
    slack = rng.uniform(-0.5, 1.0, size=k)
    b = A @ anchor + slack * np.linalg.norm(A, axis=1)

    if force_empty:
        a = rng.standard_normal(n)
        while np.linalg.norm(a) < 1e-3:
            a = rng.standard_normal(n)
        c = float(rng.standard_normal())
        A = np.vstack([A, a, -a])
        b = np.append(b, [c, -c - 1.0])

    if rng.random() < 0.15:
        x0 = anchor.copy()
    else:
        x0 = anchor + 2.0 * rng.standard_normal(n)
    return x0, A, b


def radial_ball_reference(t0, eps0, max_iter=1000):
    """Independent 1-D resolution of the ball run along the positive axis.

    For f(x) = ||x||^2 - 1 started on the axis, the whole iteration stays on
    the axis, so scalar arithmetic reproduces it: t <- t - (eps + f)/(2 t).
    Returns (termination index, final radius) or (None, t) if the budget
    runs out.
    """
    t = float(t0)
    for i in range(max_iter + 1):
        f = t * t - 1.0
        if f <= 0.0:
            return i, t
        eps = eps0 / (i + 1)
        t = t - (eps + f) / (2.0 * t)
    return None, t


# Problem specs whose params have the wrong types. Building from them raised
# TypeError or AttributeError before problem_from_dict named the params.
MALFORMED_SPECS = {
    "pieces-of-numbers": {"kind": "max_affine", "dim": 2, "params": {"pieces": [1]}},
    "pieces-object": {"kind": "max_affine", "dim": 2, "params": {"pieces": {"a": 1}}},
    "bodies-of-numbers": {"kind": "sip_distance", "dim": 2, "params": {"bodies": [3]}},
}

# Specs that miss a required part or are not a JSON object, each with the
# whole message problem_from_dict raises.
INCOMPLETE_SPECS = {
    "not-an-object": ([], "problem spec: expected a JSON object"),
    "params-list": ({"kind": "ball", "dim": 2, "params": []},
                    "problem spec field 'params': expected an object"),
    "max-affine-piece-without-coef": (
        {"kind": "max_affine", "dim": 1, "params": {"pieces": [{"intercept": 1.0}]}},
        "problem spec params: missing field 'coef'"),
    "sip-ball-without-radius": (
        {"kind": "sip_distance", "dim": 2,
         "params": {"bodies": [{"type": "ball", "center": [0.0, 0.0]}]}},
        "problem spec params: missing field 'radius'"),
}

# JSON true or false where a spec wants a number: a Python bool, which is an
# int too.
BOOLEAN_SPECS = {
    "dim-true": {"kind": "ball", "dim": True, "params": {"center": [0.0]}},
    "activity-tol-true": {
        "kind": "ball", "dim": 1, "params": {"center": [0.0]}, "activity_tol": True,
    },
    "ball-radius-true": {"kind": "ball", "dim": 1, "params": {"center": [0.0], "radius": True}},
    "max-affine-coef-true": {
        "kind": "max_affine", "dim": 2,
        "params": {"pieces": [{"coef": [1.0, 0.0]}, {"coef": [0.0, True]}]},
    },
    "max-affine-intercept-false": {
        "kind": "max_affine", "dim": 1, "params": {"pieces": [{"coef": [1.0], "intercept": False}]},
    },
    "quadratic-const-true": {
        "kind": "max_quadratics", "dim": 1,
        "params": {"pieces": [{"quad": [[1.0]], "lin": [0.0], "const": True}]},
    },
    "sip-ball-radius-true": {
        "kind": "sip_distance", "dim": 1,
        "params": {"bodies": [{"type": "ball", "center": [0.0], "radius": True}]},
    },
}

# A string where a spec wants a number, each with the params path that
# problem_from_dict names. NumPy and float() read "1" as 1.0: the center,
# coef, intercept, const and offset strings built a problem, and the two
# radius strings raised TypeError.
STRING_SPECS = {
    "ball-center-string": (
        {"kind": "ball", "dim": 2, "params": {"center": ["0", "0"]}}, "params.center[0]"),
    "radius-string": ({"kind": "ball", "dim": 2, "params": {"radius": "1"}}, "params.radius"),
    "max-affine-coef-string": (
        {"kind": "max_affine", "dim": 2, "params": {"pieces": [{"coef": [1.0, "0"]}]}},
        "params.pieces[0].coef[1]"),
    "max-affine-intercept-string": (
        {"kind": "max_affine", "dim": 1,
         "params": {"pieces": [{"coef": [1.0]}, {"coef": [-1.0], "intercept": "0"}]}},
        "params.pieces[1].intercept"),
    "quadratic-const-string": (
        {"kind": "max_quadratics", "dim": 1,
         "params": {"pieces": [{"quad": [[1.0]], "lin": [0.0], "const": "-1"}]}},
        "params.pieces[0].const"),
    "body-radius-string": (
        {"kind": "sip_distance", "dim": 2,
         "params": {"bodies": [{"type": "ball", "center": [0.0, 0.0], "radius": "2"}]}},
        "params.bodies[0].radius"),
    "halfspace-offset-string": (
        {"kind": "sip_distance", "dim": 2,
         "params": {"bodies": [{"type": "ball", "center": [0.0, 0.0], "radius": 2.0},
                               {"type": "halfspace", "normal": [1.0, 0.0], "offset": "1"}]}},
        "params.bodies[1].offset"),
}

# A JSON null, or an integer too large for a float, where a spec wants a
# number: (spec, the params path problem_from_dict names, what it got). The
# constructors' messages named the argument but not the path ("radius must
# be a real number, got None", "vector entries must be finite", "radius is
# too large for a float"), or no field below params at all.
NULL_OR_HUGE_SPECS = {
    "radius-null": (
        {"kind": "ball", "dim": 2, "params": {"radius": None}}, "params.radius", "null"),
    "ball-center-null": (
        {"kind": "ball", "dim": 2, "params": {"center": [0.0, None]}}, "params.center[1]",
        "null"),
    "max-affine-intercept-null": (
        {"kind": "max_affine", "dim": 1,
         "params": {"pieces": [{"coef": [1.0]}, {"coef": [-1.0], "intercept": None}]}},
        "params.pieces[1].intercept", "null"),
    "quadratic-const-null": (
        {"kind": "max_quadratics", "dim": 1,
         "params": {"pieces": [{"quad": [[1.0]], "lin": [0.0], "const": None}]}},
        "params.pieces[0].const", "null"),
    "pieces-null": ({"kind": "max_affine", "dim": 1, "params": {"pieces": None}},
                    "params.pieces", "null"),
    "radius-huge-int": (
        {"kind": "ball", "dim": 2, "params": {"radius": 10**400}}, "params.radius",
        "an integer too large for a float"),
    "intercept-huge-int": (
        {"kind": "max_affine", "dim": 1,
         "params": {"pieces": [{"coef": [1.0], "intercept": 10**400}]}},
        "params.pieces[0].intercept", "an integer too large for a float"),
    "body-center-huge-int": (
        {"kind": "sip_distance", "dim": 2,
         "params": {"bodies": [{"type": "ball", "center": [0.0, -10**400], "radius": 1.0}]}},
        "params.bodies[0].center[1]", "an integer too large for a float"),
}

# A dim far larger than its params imply: (spec, what problem_from_dict's
# message says). A default sized from dim (a zero center, quad or lin) was
# built even where the field was given, and raised MemoryError before dim
# was compared with the params. These allocations fail at once.
HUGE_DIM_SPECS = {
    "quadratic-fields-given": (
        {"kind": "max_quadratics", "dim": 10**6,
         "params": {"pieces": [{"quad": [[1.0]], "lin": [0.0], "const": -1.0}]}},
        "params imply dimension 1"),
    "ball-center-given": (
        {"kind": "ball", "dim": 2**40, "params": {"center": [0.0]}},
        "params imply dimension 1"),
    "quadratic-default-quad": (
        {"kind": "max_quadratics", "dim": 10**6, "params": {"pieces": [{"const": -1.0}]}},
        "field 'dim': no memory for dimension 1000000"),
}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
