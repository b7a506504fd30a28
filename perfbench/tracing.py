"""Spans around the calls into each epscut layer, recorded from outside.

The tracer rebinds the names each epscut module looks up (for example
``epscut.solver.project_polyhedron``, which ``solve`` calls) to timing
wrappers, and restores them afterwards.  A span holds its name, start, end,
parent span and op id, plus two numbers the wrapper reads off the call
(cuts projected, bundle size, ...).  Spans stay in memory until the run
ends.  A layer's self time is its span minus its child spans; the op's root
span ``harness.op`` keeps the benchmark's own time, so the listed self
times plus ``harness.self_ms`` add up to the traced op time.

A binding that no longer resolves after a refactor is skipped and its
metrics are reported as not measured.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
from array import array
from time import perf_counter

import numpy as np

NAN = math.nan


def _poly_size(args, kwargs):
    poly = args[1] if len(args) > 1 else kwargs["poly"]
    return len(poly)


def _observe_projection(args, kwargs, result):
    return _poly_size(args, kwargs), NAN if result is None else len(result.active_set)


def _observe_evaluate(args, kwargs, result):
    return len(result.bundle), NAN


def _observe_solve(args, kwargs, result):
    return result.status_iteration, float(result.status.name == "FEASIBLE_FOUND")


def _observe_vi(args, kwargs, result):
    return result.n_attempts, result.n_samples


def _observe_chebyshev(args, kwargs, result):
    return float(result is None), NAN


def _observe_write(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode()), NAN


# (module, attribute, span name, observer).  Every name a module looks up
# at call time, so rebinding it puts a span around each call.
BINDINGS = (
    ("epscut.cli", "main", "cli.main", None),
    ("epscut.cli", "solve", "solver.solve", _observe_solve),
    ("epscut.cli", "trace_to_csv", "traceio.trace_to_csv", None),
    ("epscut.cli", "trace_to_json", "traceio.trace_to_json", None),
    ("epscut.cli", "write_text_atomic", "traceio.write_text_atomic", _observe_write),
    ("epscut.traceio", "parse_trace_csv", "traceio.parse_trace_csv", None),
    ("epscut.solver", "solve", "solver.solve", _observe_solve),
    ("epscut.solver", "evaluate", "problems.evaluate", _observe_evaluate),
    ("epscut.solver", "build_cuts", "solver.build_cuts", None),
    ("epscut.solver", "project_polyhedron", "geometry.project_polyhedron", _observe_projection),
    ("epscut.solver", "exact_sublevel_distance", "problems.exact_sublevel_distance", None),
    ("epscut.problems", "project_polyhedron", "geometry.project_polyhedron", _observe_projection),
    ("epscut.diagnostics", "claim_contrast", "diagnostics.claim_contrast", None),
    ("epscut.diagnostics", "estimate_kappa", "diagnostics.estimate_kappa", None),
    ("epscut.diagnostics", "exact_sublevel_distance", "problems.exact_sublevel_distance", None),
    ("epscut.geometry", "project_polyhedron", "geometry.project_polyhedron", _observe_projection),
    ("epscut.geometry", "check_variational_inequality",
     "geometry.check_variational_inequality", _observe_vi),
    ("epscut.geometry", "chebyshev_point", "geometry.chebyshev_point", _observe_chebyshev),
)

ROOT = "harness.op"

# k ranges of the projection buckets: cuts in [lo, hi].
PROJECTION_BUCKETS = (("k1", 1, 1), ("k2-8", 2, 8), ("k9-64", 9, 10**9))


class Tracer:
    """Timing wrappers for the bindings plus the spans they record."""

    def __init__(self):
        self.names = [ROOT]
        self._ids = {ROOT: 0}
        self._bindings = []          # (module, attr, original, wrapper)
        self.missing = []            # "module.attr" that did not resolve
        for module_name, attr, span, observe in BINDINGS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(self._name_id(span), original, observe)
            self._bindings.append((module, attr, original, wrapper))
        self.measured = {self.names[i] for i in range(1, len(self.names))}
        self._stack = []
        self._next = 0
        self.op = -1
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("l")
        self.op_id = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.err = array("b")
        self.a = array("d")
        self.b = array("d")

    def _name_id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def _record(self, sid, name_id, parent, t0, t1, err, payload):
        self.sid.append(sid)
        self.parent.append(parent)
        self.name.append(name_id)
        self.op_id.append(self.op)
        self.t0.append(t0)
        self.t1.append(t1)
        self.err.append(err)
        self.a.append(payload[0])
        self.b.append(payload[1])

    def _open(self):
        sid = self._next
        self._next = sid + 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _wrap(self, name_id, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                self._stack.pop()
                self._record(sid, name_id, parent, t0, t1, 1,
                             _payload(observe, args, kwargs, None))
                raise
            t1 = perf_counter()
            self._stack.pop()
            self._record(sid, name_id, parent, t0, t1, 0,
                         _payload(observe, args, kwargs, result))
            return result
        return traced

    @contextlib.contextmanager
    def op_span(self, op: int):
        """Root span of one op, with every binding rebound inside it."""
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        self.op = op
        sid, parent = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._record(sid, 0, parent, t0, t1, 0, (NAN, NAN))
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)

    def table(self) -> dict:
        """Spans as numpy arrays indexed by span id, with self times."""
        order = np.argsort(np.frombuffer(self.sid, dtype=np.int64), kind="stable")
        cols = {
            "parent": np.frombuffer(self.parent, dtype=np.int64)[order],
            "name": np.asarray(self.name)[order],
            "op": np.asarray(self.op_id)[order],
            "t0": np.frombuffer(self.t0)[order],
            "t1": np.frombuffer(self.t1)[order],
            "err": np.asarray(self.err)[order],
            "a": np.frombuffer(self.a)[order],
            "b": np.frombuffer(self.b)[order],
        }
        dur = cols["t1"] - cols["t0"]
        has_parent = cols["parent"] >= 0
        child = np.bincount(cols["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        cols["dur"] = dur
        cols["self"] = dur - child
        return cols

    def save(self, path: str, table: dict) -> None:
        np.savez_compressed(path, names=np.array(self.names), **table)


def _payload(observe, args, kwargs, result):
    if observe is None:
        return NAN, NAN
    try:
        return observe(args, kwargs, result)
    except Exception:  # a changed signature must not stop the run
        return NAN, NAN


def layer_metrics(tracer: Tracer, table: dict, overhead_frac: float, metric_names):
    """The named per-layer metrics and those of them that could not be measured.

    ``metric_names`` are the ``per_layer`` names of BENCHMARK.json.  Counts
    and times are per op; ``*_mean`` and ``*_frac`` are per call.
    """
    names = tracer.names
    n_ops = int(np.sum(table["name"] == 0))
    values, not_measured = {}, []

    def mask(span):
        return table["name"] == names.index(span) if span in names else np.zeros(
            table["name"].size, dtype=bool)

    def put(metric, value, measured=True):
        if not measured or value is None or not math.isfinite(value):
            not_measured.append(metric)
            value = 0.0
        values[metric] = float(value)

    def ratio(num, den, measured=True):
        return (num / den if den else None), measured

    def per_op(x):
        return x / n_ops

    for metric in metric_names:
        span, _, stat = metric.rpartition(".")
        if metric == "harness.self_ms":
            put(metric, per_op(1e3 * table["self"][mask(ROOT)].sum()))
            continue
        if metric == "trace.overhead_frac":
            put(metric, overhead_frac)
            continue
        if metric == "traceio.bytes_written":
            m = mask("traceio.write_text_atomic")
            put(metric, per_op(table["a"][m].sum()), "traceio.write_text_atomic" in tracer.measured)
            continue
        if metric == "solver.fallback_frac":
            proj = mask("geometry.project_polyhedron") & (table["err"] == 1)
            parents = table["parent"][proj]
            solve_id = names.index("solver.solve") if "solver.solve" in names else -1
            fallbacks = int(np.sum(table["name"][parents] == solve_id))
            steps = int(mask("solver.build_cuts").sum())
            put(metric, *ratio(fallbacks, steps, "solver.build_cuts" in tracer.measured))
            continue
        if ".us_per_call." in metric:
            span = "geometry.project_polyhedron"
            lo, hi = next((lo, hi) for key, lo, hi in PROJECTION_BUCKETS if metric.endswith(key))
            m = mask(span) & (table["a"] >= lo) & (table["a"] <= hi)
            put(metric, *ratio(1e6 * table["dur"][m].sum(), int(m.sum()), span in tracer.measured))
            continue
        m = mask(span)
        measured = span in tracer.measured
        calls = int(m.sum())
        ok = m & (table["err"] == 0)
        if stat == "calls":
            put(metric, per_op(calls), measured)
        elif stat == "self_ms":
            put(metric, per_op(1e3 * table["self"][m].sum()), measured)
        elif stat in ("bundle_mean", "cuts_mean", "iters_mean"):
            sel = m if stat == "cuts_mean" else ok
            put(metric, *ratio(table["a"][sel].sum(), int(sel.sum()), measured))
        elif stat == "active_mean":
            put(metric, *ratio(table["b"][ok].sum(), int(ok.sum()), measured))
        elif stat == "empty_frac":
            put(metric, *ratio(int((m & (table["err"] == 1)).sum()), calls, measured))
        elif stat == "feasible_frac":
            put(metric, *ratio(table["b"][ok].sum(), int(ok.sum()), measured))
        elif stat == "attempts_per_sample":
            put(metric, *ratio(table["a"][ok].sum(), table["b"][ok].sum(), measured))
        elif stat == "none_frac":
            put(metric, *ratio(table["a"][ok].sum(), int(ok.sum()), measured))
        else:
            raise KeyError(metric)
    return values, not_measured


def fingerprint_counts(tracer: Tracer, table: dict, ops: int) -> dict:
    """Exact work counts over ops [0, ops): the fixed corpus of a seed."""
    names = tracer.names
    first = table["op"] < ops

    def of(span):
        if span not in tracer.measured:
            return None
        return first & (table["name"] == names.index(span))

    def total(span, col):
        m = of(span)
        return None if m is None else int(table[col][m & (table["err"] == 0)].sum())

    proj = of("geometry.project_polyhedron")
    return {
        "ops": ops,
        "solver_iterations": total("solver.solve", "a"),
        "projection_calls": None if proj is None else int(proj.sum()),
        "cuts_projected": None if proj is None else int(table["a"][proj].sum()),
        "vi_attempts": total("geometry.check_variational_inequality", "a"),
    }
