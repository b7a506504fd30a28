"""Command-line front end: solve, compare, and diagnose subcommands.

Exit codes:
  0  run reached a feasible point
  1  configuration error (bad flags, malformed problem file, bad paths)
  2  iteration budget exhausted
  3  the step could not be computed: zero subgradient, empty cut
     polyhedron, non-finite cut, or projection failure
  4  the problem kind has no analytic sublevel distance (diagnose only)
  5  not enough recorded data to diagnose

All file writes are atomic; identical configurations and seeds produce
byte-identical outputs.

Baselines (--baseline; compare runs both beside the flags' own run):
  zero_eps   cuts built with eps = 0 (the classical unshifted linearization),
             as with --schedule const --eps0 0
  single_cut only the most active subgradient is used (J_i = 1), as with
             --j-max 1
A baseline replaces only those options. The other flags still apply, and
all of them are checked first.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import replace
from itertools import accumulate, compress
from operator import is_not

import numpy as np

from . import diagnostics
from .errors import DimensionMismatchError, InsufficientDataError
from .geometry import as_vector
from .problems import (
    Problem,
    problem_from_dict,
    supports_sublevel_distance,
    ball_samples,
)
from .schedule import EpsilonSchedule, parse_schedule
from .solver import (
    FALLBACK_MODES,
    SolveOptions,
    SolveTrace,
    TerminationStatus,
    solve,
)
from .traceio import trace_to_csv, trace_to_json, write_text_atomic

# Every status but these two means that a step could not be computed.
EXIT_CODE_BY_STATUS = {status: 3 for status in TerminationStatus} | {
    TerminationStatus.FEASIBLE_FOUND: 0, TerminationStatus.MAX_ITER_EXCEEDED: 2}

# The options each --baseline choice replaces in the run of the other flags.
BASELINES = {
    "none": {},
    "zero_eps": {"schedule": EpsilonSchedule.constant_for_testing(0.0)},
    "single_cut": {"j_max": 1},
}


class _ConfigError(Exception):
    pass


# A comma-separated list of numbers whose first starts with '-', such as
# "-2,0" or "-1e3,-5".
_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_NEGATIVE_NUMBERS = re.compile(rf"^-{_NUMBER}(?:,[-+]?{_NUMBER})*$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument that starts with '-' as a flag unless
        # it matches this pattern; its own accepts one plain number only.
        # Subparsers are built from this class, so they share the pattern.
        self._negative_number_matcher = _NEGATIVE_NUMBERS

    # argparse's default usage-error exit code collides with the budget
    # exhaustion code; config problems of any kind must map to 1.
    def error(self, message):
        raise _ConfigError(message)


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    # Each run setting's default is the one SolveOptions() holds. The default
    # schedule's kind reads p, so its descriptor states p.
    defaults = SolveOptions()
    sub.add_argument("--problem", required=True, help="problem spec JSON file")
    sub.add_argument("--x0", help="start point, comma separated: 'v1,v2,...'")
    sub.add_argument(
        "--x0-random",
        metavar="SEED:RADIUS",
        help="seeded uniform start in the ball of given radius about the origin",
    )
    sub.add_argument("--eps0", type=float, default=defaults.schedule.eps0, help="initial shift")
    sub.add_argument(
        "--schedule",
        default=f"{defaults.schedule.kind}:p={defaults.schedule.p}",
        help="shift schedule: harmonic:p=P | log | const",
    )
    sub.add_argument("--j-max", type=int, default=defaults.j_max, help="bundle size cap")
    sub.add_argument("--max-iter", type=int, default=defaults.max_iter)
    sub.add_argument("--baseline", choices=list(BASELINES), default="none")
    sub.add_argument(
        "--fallback",
        choices=FALLBACK_MODES,
        default=defaults.infeasible_cut_fallback,
        help="behavior when the cut polyhedron of a step is empty",
    )
    sub.add_argument("--trace-csv", help="write the trace as CSV here")
    sub.add_argument("--trace-json", help="write the trace as JSON here")
    sub.add_argument("--report-json", help="write the command report here")
    sub.add_argument(
        "--record-dist",
        action="store_true",
        help="record the exact sublevel distance per iterate when available",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="epscut", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        _add_common_flags(subparsers.add_parser(name, help=help_text))
    return parser


def _load_problem(path: str) -> Problem:
    try:
        with open(path) as handle:
            spec = json.load(handle)
    except OSError as exc:
        raise _ConfigError(f"problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _ConfigError(f"problem file is not valid JSON: {exc}") from exc
    try:
        return problem_from_dict(spec)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc


def _resolve_x0(args, problem: Problem) -> np.ndarray:
    if (args.x0 is None) == (args.x0_random is None):
        raise _ConfigError("exactly one of --x0 and --x0-random is required")
    if args.x0 is not None:
        try:
            return as_vector([float(part) for part in args.x0.split(",")], problem.dim)
        except (ValueError, DimensionMismatchError) as exc:
            raise _ConfigError(f"--x0: {exc}") from exc
    try:
        seed_text, _, radius_text = args.x0_random.partition(":")
        seed = int(seed_text)
        radius = float(radius_text)
    except ValueError as exc:
        raise _ConfigError(f"--x0-random expects SEED:RADIUS: {exc}") from exc
    if seed < 0:
        raise _ConfigError("--x0-random seed must be nonnegative")
    if not 0.0 < radius < math.inf:
        raise _ConfigError("--x0-random radius must be positive and finite")
    rng = np.random.default_rng(seed)
    try:
        return radius * ball_samples(rng, 1, problem.dim)[0]
    except (ValueError, MemoryError) as exc:
        # A spec's dim is bounded only from below; NumPy rejects a huge one.
        reason = str(exc) or type(exc).__name__
        raise _ConfigError(
            f"--x0-random: no point of dimension {problem.dim}: {reason}"
        ) from exc


def _build_options(args, record_dist: bool = False,
                   baseline: str | None = None) -> SolveOptions:
    """The options of the flags, checked, then with those of the baseline
    (by default --baseline's) replaced. ``record_dist`` records distances
    whatever --record-dist says."""
    try:
        opts = SolveOptions(
            j_max=args.j_max,
            max_iter=args.max_iter,
            schedule=parse_schedule(args.schedule, args.eps0),
            infeasible_cut_fallback=args.fallback,
            record_sublevel_distance=args.record_dist or record_dist,
        )
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    return replace(opts, **BASELINES[baseline or args.baseline])


def _indented_json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` for a report: dicts with string keys,
    scalars and lists of numbers. json.dumps with an indent takes json's
    pure-Python encoder, so here json's C encoder writes each list in one
    call instead, split on the ``", "`` that no number holds. A run of
    entries that are one object (a stalled run's repeated distance) is
    formatted once: json's text for a number depends only on the object.
    ``indent`` is the indent of the line that ``value`` starts on."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{inner}{json.dumps(key)}: {_indented_json(item, inner)}"
                 for key, item in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if isinstance(value, list) and value:
        # new[i]: value[i + 1] starts a run; each entry takes its run's text.
        new = list(map(is_not, value[1:], value))
        texts = json.dumps([value[0], *compress(value[1:], new)])[1:-1].split(", ")
        cells = map(texts.__getitem__, accumulate(new, initial=0))
        return f"[\n{inner}" + f",\n{inner}".join(cells) + f"\n{indent}]"
    return json.dumps(value)


def _write_outputs(args, trace: SolveTrace, report: dict | None = None) -> None:
    try:
        csv_text = trace_to_csv(trace) if args.trace_csv or args.trace_json else None
        if args.trace_csv:
            write_text_atomic(args.trace_csv, csv_text)
        if args.trace_json:
            write_text_atomic(args.trace_json, trace_to_json(trace, csv_text))
        if args.report_json and report is not None:
            write_text_atomic(args.report_json, _indented_json(report) + "\n")
    except OSError as exc:
        raise _ConfigError(f"cannot write output file: {exc}") from exc


def _summary_line(trace: SolveTrace) -> str:
    return (
        f"{trace.status.value} i={trace.status_iteration} "
        f"f={trace.final_f!r}"
    )


def _decay_rho(trace: SolveTrace) -> float | None:
    try:
        return diagnostics.claim_contrast(trace).rate.rho
    except (InsufficientDataError, ValueError):
        return None


def _outcome(trace: SolveTrace) -> dict:
    """How a run ended, the keys every report shares."""
    return {"status": trace.status.value, "iterations": trace.status_iteration,
            "final_f": trace.final_f}


def cmd_solve(args) -> int:
    problem = _load_problem(args.problem)
    x0 = _resolve_x0(args, problem)
    opts = _build_options(args)
    trace = solve(problem, x0, opts)
    report = {"problem": problem.name, **_outcome(trace),
              "strict_feasible": trace.strict_feasible}
    _write_outputs(args, trace, report)
    print(_summary_line(trace))
    return EXIT_CODE_BY_STATUS[trace.status]


def cmd_compare(args) -> int:
    problem = _load_problem(args.problem)
    x0 = _resolve_x0(args, problem)
    # Each variant is the run of the flags with its own baseline, not
    # --baseline. Runs are deterministic, so equal options share one trace.
    # The solver records distances only where the kind has them.
    runs, traces = {}, {}
    for name in ("main", "zero_eps", "single_cut"):
        opts = _build_options(args, True, None if name == "main" else name)
        if opts not in runs:
            runs[opts] = solve(problem, x0, opts)
        traces[name] = runs[opts]

    report = {
        "problem": problem.name,
        "x0": [float(v) for v in x0],
        "variants": {name: {**_outcome(t), "decay_rho": _decay_rho(t)}
                     for name, t in traces.items()},
    }
    _write_outputs(args, traces["main"], report)
    for name, trace in traces.items():
        print(f"{name}: {_summary_line(trace)}")
    return EXIT_CODE_BY_STATUS[traces["main"].status]


def cmd_diagnose(args) -> int:
    problem = _load_problem(args.problem)
    # Bad flags are a configuration error (exit 1) whatever the kind.
    x0 = _resolve_x0(args, problem)
    opts = _build_options(args, record_dist=True)
    if not supports_sublevel_distance(problem):
        print(
            f"diagnose: problem kind {problem.kind!r} has no analytic "
            "sublevel distance",
            file=sys.stderr,
        )
        return 4
    trace = solve(problem, x0, opts)
    try:
        contrast = diagnostics.claim_contrast(trace)
    except InsufficientDataError as exc:
        _write_outputs(args, trace)
        print(f"diagnose: {exc}", file=sys.stderr)
        return 5
    report = {"problem": problem.name, **_outcome(trace), "kappa_hat": contrast.kappa_hat,
              "contrast": contrast.to_dict()}
    _write_outputs(args, trace, report)
    print(_summary_line(trace))
    print(contrast.verdict)
    return EXIT_CODE_BY_STATUS[trace.status]


# Each subcommand's function and help line.
_COMMANDS = {
    "solve": (cmd_solve, "run the solver and emit its trace"),
    "compare": (cmd_compare, "run the solver plus the zero-shift and single-cut baselines"),
    "diagnose": (cmd_diagnose, "run and report decay-rate and error-bound estimates"),
}

# Built once per process: building takes about ten times as long as parsing.
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
