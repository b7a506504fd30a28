"""Trace format round-trips, CLI exit codes, and output determinism."""

import csv
import dataclasses
import io
import json
import math
import operator
import os
import pathlib
import re
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epscut import (
    BallProblem,
    EpsilonSchedule,
    SolveOptions,
    SolveTrace,
    TerminationStatus,
    TraceRow,
    claim_contrast,
    eps_at,
    estimate_kappa,
    parse_trace_csv,
    problem_to_dict,
    solve,
    trace_to_csv,
    trace_to_dict,
    trace_to_json,
)
from epscut import cli, traceio
from epscut.cli import _build_options, _build_parser, main
from epscut.problems import (
    BallBody,
    HalfspaceBody,
    MaxAffineProblem,
    ShiftedBallProblem,
    SipDistanceProblem,
    nonconvex_default_problem,
)
from epscut.traceio import CSV_COLUMNS, write_text_atomic
from test_problems import random_problem
from test_solver import reference_points
from conftest import (
    BOOLEAN_SPECS,
    HUGE_DIM_SPECS,
    INCOMPLETE_SPECS,
    MALFORMED_SPECS,
    NULL_OR_HUGE_SPECS,
    STRING_SPECS,
)

BALL = BallProblem([0.0, 0.0], 1.0)
# |x2| <= 0.2 x1: a max-affine wedge with a polyhedral sublevel distance.
WEDGE = MaxAffineProblem([[-0.2, 1.0], [-0.2, -1.0]], [0.0, 0.0])


@pytest.fixture
def ball_file(tmp_path):
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(problem_to_dict(BALL)))
    return str(path)


def write_problem(tmp_path, problem, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(problem_to_dict(problem)))
    return str(path)


class TestTraceFormats:
    def trace(self, record=True):
        opts = SolveOptions(
            schedule=EpsilonSchedule.harmonic(0.1, 1.0),
            record_sublevel_distance=record,
        )
        return solve(BALL, [2.0, 0.0], opts)

    def test_csv_round_trip_bit_exact(self):
        trace = self.trace()
        rows = parse_trace_csv(trace_to_csv(trace))
        assert rows == trace.rows

    def test_csv_without_distances(self):
        trace = self.trace(record=False)
        text = trace_to_csv(trace)
        assert ",," in text  # empty dist field
        assert parse_trace_csv(text) == trace.rows

    def test_csv_header(self):
        text = trace_to_csv(self.trace())
        assert text.splitlines()[0] == (
            "i,eps_i,f_xi,J_i,step_norm,dist_sublevel,cut_count_active"
        )
        with pytest.raises(ValueError):
            parse_trace_csv("a,b\n1,2\n")
        with pytest.raises(ValueError):
            parse_trace_csv("")

    @pytest.mark.parametrize("row", [
        "0,0.1,1.0,1,0.5,",  # short by one field
        "0,0.1,1.0,1,0.5",  # short by two
        "0,0.1,1.0,1,0.5,,1,9",  # one field extra
        "0,0.1,,1,0.5,,1",  # empty f_xi
        "0,0.1,1.0,1,0.5,0.2,",  # empty cut_count_active
    ])
    def test_malformed_row_rejected(self, row):
        header = ",".join(CSV_COLUMNS)
        assert len(parse_trace_csv(f"{header}\n0,0.1,1.0,1,0.5,,1\n")) == 1
        with pytest.raises(ValueError):
            parse_trace_csv(f"{header}\n{row}\n")

    def test_rows_are_tuples_of_their_cells(self):
        trace = self.trace()
        row = trace.rows[1]
        cells = (row.i, row.eps_i, row.f_xi, row.j_i, row.step_norm, row.dist_sublevel,
                 row.cut_count_active)
        assert isinstance(row, tuple) and row == cells and tuple(row) == cells
        assert [dict(zip(CSV_COLUMNS, r)) for r in trace.rows] == trace_to_dict(trace)["rows"]
        assert repr(TraceRow(0, 0.1, 1.0, 1, 0.5, None, 1)) == (
            "TraceRow(i=0, eps_i=0.1, f_xi=1.0, j_i=1, step_norm=0.5, "
            "dist_sublevel=None, cut_count_active=1)"
        )

    @pytest.mark.parametrize("eps0, text", [(1, "1.0"), (np.float64(0.1), "0.1")],
                             ids=["int", "numpy"])
    def test_constant_schedule_writes_float_shifts(self, eps0, text):
        # The schedule stores eps0 as a Python float, so both files write
        # the shift as the float it equals: 1.0, not 1.
        schedule = EpsilonSchedule.constant_for_testing(eps0)
        assert type(schedule.eps0) is float and type(eps_at(schedule, 2)) is float
        trace = solve(BALL, [2.0, 0.0], SolveOptions(schedule=schedule, max_iter=3))
        expected = [text] * len(trace.rows)
        csv_lines = trace_to_csv(trace).splitlines()[1:]
        assert [line.split(",")[1] for line in csv_lines] == expected
        assert re.findall(r'"eps_i": (.*),', trace_to_json(trace)) == expected

    def test_json_round_trip(self):
        trace = self.trace()
        payload = json.loads(trace_to_json(trace))
        assert payload["status"] == "FeasibleFound"
        assert payload["status_iteration"] == 3
        assert payload["final_f"] == trace.final_f
        for row, rec in zip(trace.rows, payload["rows"]):
            assert rec["f_xi"] == row.f_xi
            assert rec["eps_i"] == row.eps_i
            assert rec["dist_sublevel"] == row.dist_sublevel


FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
INTS = st.integers(-(2**70), 2**70)
ROWS = st.builds(
    TraceRow, INTS, FLOATS | INTS, FLOATS, INTS, FLOATS, st.none() | FLOATS, INTS
)
TRACES = st.builds(
    SolveTrace, st.lists(ROWS, max_size=5), st.sampled_from(TerminationStatus), INTS,
    st.lists(FLOATS, max_size=3).map(np.array), FLOATS, st.sampled_from([None, True, False]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TRACES)
@example(SolveTrace(
    [TraceRow(0, 0.1, math.nan, 1, math.inf, None, 2**65),
     TraceRow(1, 1, -math.inf, 0, -0.0, math.nan, 0)],
    TerminationStatus.MAX_ITER_EXCEEDED, 1, np.array([-0.0, 1e308]), math.inf, None,
))
def test_json_writer_matches_json_dumps(trace):
    # The rows' cells come from the CSV text, made here or passed in; the
    # document must be the one json.dumps writes, byte for byte, whatever the
    # cells hold: NaN, the infinities, -0.0, a missing distance, an integer
    # shift, large ints.
    expected = json.dumps(trace_to_dict(trace), indent=2) + "\n"
    assert trace_to_json(trace) == expected
    assert trace_to_json(trace, trace_to_csv(trace)) == expected


REPORT_NUMBERS = FLOATS | INTS | st.sampled_from([5e-324, 1e308])
REPORT_TEXT = st.text(st.sampled_from('a ,"\\\n\u00e9\u221e'), max_size=6)
# Lists of runs: each drawn (number, count) pair gives count entries that
# are one object, as a stalled run's repeated distance is.
REPORT_LISTS = st.lists(st.tuples(REPORT_NUMBERS, st.integers(1, 4)), max_size=5).map(
    lambda runs: [entry for number, count in runs for entry in [number] * count])
REPORTS = st.recursive(
    st.none() | st.booleans() | REPORT_NUMBERS | REPORT_TEXT | REPORT_LISTS,
    lambda children: st.dictionaries(REPORT_TEXT, children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(REPORTS)
@example({"x0": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308], "empty": [],
          "variants": {"main": {"decay_rho": None, "final_f": -0.0}, "none": {}},
          "terminated": True, "verdict": 'rho=0.5, "l_hat" \u221e'})
@example({"runs": [-0.0] * 3 + [math.nan] * 2 + [0.5] + [math.inf] * 4 + [-math.inf] * 2
                  + [5e-324] * 3 + [1e308] * 2,
          "ints": [1] * 3 + [1.0] * 2 + [2**65] * 2, "zeros": [0.0, -0.0, float("0.0")],
          "signed": [0.0] * 2 + [-0.0] * 2 + [float("0.0")] * 2, "one": [7],
          "single": [1.1102230246251565e-15] * 5})
def test_report_writer_matches_json_dumps(report):
    # The report shapes: dicts with string keys, scalars and lists of
    # numbers, with runs of one object at the start, middle and end of a
    # list. A run is keyed on identity, so -0.0 stays apart from 0.0 and
    # 1.0 from 1.
    assert cli._indented_json(report) == json.dumps(report, indent=2)


def reference_csv(trace) -> str:
    """The CSV as a writer that formats cell by cell makes it: a float
    column by ``repr(float(v))``, a missing distance as an empty field and
    an int column by ``str``."""
    def cell(column, value):
        if column in ("i", "J_i", "cut_count_active"):
            return str(value)
        return "" if value is None else repr(float(value))

    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(map(cell, CSV_COLUMNS, row)) for row in trace.rows]
    return "\n".join(lines) + "\n"


def reference_parse(text: str) -> list[TraceRow]:
    """The reader as it was before plain text was split: ``csv`` reads every
    text, and a header with no rows raises TypeError."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header!r}")
    records = list(reader)
    for number, rec in enumerate(records, start=2):
        if len(rec) != len(CSV_COLUMNS):
            raise ValueError(
                f"CSV row {number}: expected {len(CSV_COLUMNS)} fields, got {len(rec)}"
            )
    parsers = [parse for _, parse in traceio._SCHEMA]
    return list(map(TraceRow, *(list(map(parse, cells))
                                for cells, parse in zip(zip(*records), parsers))))


def cell_reprs(rows) -> list[tuple]:
    """The rows' cells by ``repr``, so that NaN compares equal to NaN and
    -0.0 differs from 0.0."""
    return [tuple(map(repr, row)) for row in rows]


def csv_trace(rows) -> SolveTrace:
    return SolveTrace(rows, TerminationStatus.MAX_ITER_EXCEEDED, 0, np.zeros(1), 0.0, None)


CSV_FLOATS = FLOATS | st.just(1e308)
CSV_ROWS = st.builds(
    TraceRow, INTS, CSV_FLOATS, CSV_FLOATS, INTS, CSV_FLOATS, st.none() | CSV_FLOATS, INTS
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(CSV_ROWS, max_size=5))
@example([TraceRow(2**70, math.nan, math.inf, -(2**70), -0.0, None, 0),
          TraceRow(0, 1e308, -math.inf, 1, 5e-324, math.nan, 2**65)])
def test_csv_writer_matches_cell_by_cell_reference(rows):
    # csv writes a float by its repr and an int by str, as the reference
    # does, for rows of Python floats and ints, and the reader gives the
    # rows back, none for a header alone.
    trace = csv_trace(rows)
    text = trace_to_csv(trace)
    assert text == reference_csv(trace)
    assert cell_reprs(parse_trace_csv(text)) == cell_reprs(rows)


# Cells drawn as new objects, so that equal cells of two rows are not one
# object, and from a fixed list, so that they may be. An int column may
# hold a float as well: 0 and 0.0 are equal but written apart.
SHARED_FLOATS = (st.builds(float, st.sampled_from(["0.0", "-0.0", "nan", "inf", "0.5"]))
                 | st.sampled_from([0.0, -0.0, math.nan, 0.5]))
SHARED_INTS = st.sampled_from([0, 1, 0.0, 1.0]) | INTS
SHARED_ROWS = st.builds(TraceRow, INTS, SHARED_FLOATS, SHARED_FLOATS, SHARED_INTS,
                        SHARED_FLOATS, st.none() | SHARED_FLOATS, SHARED_INTS)


def equal_twins(cell) -> list:
    """Cells equal to ``cell`` (NaN for NaN) that are not ``cell`` itself:
    an int as a float, a float as a new object and, for a zero, with the
    other sign. None has no twin."""
    if cell is None:
        return [None]
    if isinstance(cell, int):
        return [float(cell)]
    return [float(repr(cell)), -cell] if cell == 0.0 else [float(repr(cell))]


@st.composite
def traces_with_repeats(draw):
    """Traces whose rows run on from the last one: a run of rows that reuse
    its cell objects after ``i``, as a stall's rows do, a row with one cell
    swapped for an equal twin, or a new row."""
    rows = [draw(SHARED_ROWS)]
    for _ in range(draw(st.integers(0, 8))):
        prev = rows[-1]
        step = draw(st.sampled_from(["repeat", "twin", "new"]))
        if step == "repeat":
            rows += [prev._replace(i=draw(INTS)) for _ in range(draw(st.integers(1, 4)))]
        elif step == "twin":
            cells = list(prev._replace(i=draw(INTS)))
            column = draw(st.integers(1, len(cells) - 1))
            cells[column] = draw(st.sampled_from(equal_twins(cells[column])))
            rows.append(TraceRow(*cells))
        else:
            rows.append(draw(SHARED_ROWS))
    return csv_trace(rows)


_ZERO = TraceRow(0, 0.1, 0.0, 1, 0.0, None, 0)
_NEGATIVE_ZERO = _ZERO._replace(i=2, f_xi=-0.0)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(traces_with_repeats())
@example(SolveTrace(
    # A repeat, then rows equal to the one before them: -0.0 for 0.0 (then
    # a repeat of that row), 1.0 for 1 and 0.0 for -0.0.
    [_ZERO, _ZERO._replace(i=1), _NEGATIVE_ZERO, _NEGATIVE_ZERO._replace(i=3),
     _NEGATIVE_ZERO._replace(i=4, j_i=1.0), _ZERO._replace(i=5, j_i=1.0)],
    TerminationStatus.MAX_ITER_EXCEEDED, 0, np.zeros(1), 0.0, None,
))
def test_writers_reuse_only_rows_of_the_same_cell_objects(trace):
    # A row whose cells after i are the previous row's own objects reuses
    # that row's text. A row of equal cells that are other objects, such as
    # -0.0 for 0.0 or 0.0 for 0, is written for itself.
    csv_text = trace_to_csv(trace)
    assert csv_text == reference_csv(trace)
    expected = json.dumps(trace_to_dict(trace), indent=2) + "\n"
    assert trace_to_json(trace) == expected
    assert trace_to_json(trace, csv_text) == expected
    # The reader gives the rows back, unless an int column holds a float,
    # whose text int rejects.
    if all(type(row[k]) is int for row in trace.rows for k in (3, 6)):
        assert cell_reprs(parse_trace_csv(csv_text)) == cell_reprs(trace.rows)
    else:
        with pytest.raises(ValueError, match="invalid literal for int"):
            parse_trace_csv(csv_text)


FIELD_LIMIT = csv.field_size_limit()
MUTATIONS = ["none", "crlf", "quote", "blank", "blank_last", "no_final_newline", "short",
             "long", "bad_cell", "nul", "nel", "line_separator", "huge_cell"]


@st.composite
def trace_texts(draw):
    """The CSV text of a trace, or a copy of it changed in one place: line
    ends, quoting, a blank or unterminated line, a row's field count, a
    cell that does not parse, a character that only ``csv`` or only
    ``str.splitlines`` treats apart, or a cell at or past ``csv``'s field
    size limit."""
    trace = draw(traces_with_repeats() | st.lists(CSV_ROWS, max_size=5).map(csv_trace))
    text = trace_to_csv(trace)
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "none":
        return text
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "no_final_newline":
        return text[:-1]
    if kind == "blank_last":
        return text + "\n"
    lines = text.split("\n")  # the last is the empty text after the final newline
    k = draw(st.integers(0, len(lines) - 2))
    if kind == "blank":
        lines.insert(k + 1, "")
        return "\n".join(lines)
    cells = lines[k].split(",")
    c = draw(st.integers(0, len(cells) - 1))
    if kind == "quote":
        cells[c] = f'"{cells[c]}"'
    elif kind == "short":
        del cells[c]
    elif kind == "long":
        cells.insert(c, cells[c])
    elif kind == "bad_cell":
        cells[c] = draw(st.sampled_from(["x", "", "1.5", "1e", "-", "0x1"]))
    elif kind == "nul":
        cells[c] += "\0"
    elif kind == "nel":
        cells[c] += "\x85"
    elif kind == "line_separator":
        cells[c] = "\u2028" + cells[c]
    else:  # huge_cell: spaces that int and float skip, to the limit or one past it
        size = FIELD_LIMIT + draw(st.integers(0, 1))
        cells[c] = cells[c].rjust(size)
    lines[k] = ",".join(cells)
    return "\n".join(lines)


def read_outcome(parse, text):
    """The cell reprs of the rows that ``parse`` reads, or the type and
    message of the error it raises."""
    try:
        return cell_reprs(parse(text))
    except (ValueError, TypeError, csv.Error) as exc:
        return type(exc), str(exc)


_HEADER = ",".join(CSV_COLUMNS)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(trace_texts())
@example(f"{_HEADER}\n")
@example(f"{_HEADER}")
@example(f"{_HEADER}\r\n")
@example(f'"i",{_HEADER[2:]}\n0,0.1,1.0,1,0.5,,1\n1,0.1,1.0,1,0.5,,1\n')
@example(f"{_HEADER}\n0,0.1,1.0,1,0.5,,1\n1,0.1,1.0,1,0.5,,1\n1,0.1,1.0,1,0.5\n")
@example(f"{_HEADER}\n0,0.1,1.0,1,0.5,,1\n{' ' * FIELD_LIMIT}1,0.1,1.0,1,0.5,,1\n")
@example("")
def test_reader_matches_csv_reader(text):
    # Whatever the text, the rows are the ones the csv-only reader reads, or
    # the error is its error, type and message. The one difference: that
    # reader failed on a header with no rows, which now reads as no rows.
    expected = read_outcome(reference_parse, text)
    if isinstance(expected, tuple) and expected[0] is TypeError:
        assert list(csv.reader(io.StringIO(text))) == [list(CSV_COLUMNS)]
        expected = []
    assert read_outcome(parse_trace_csv, text) == expected


def text_repeat_spans(text: str) -> list[list[int]]:
    """The ``[start, stop]`` row index ranges of the maximal runs of rows
    whose text after ``i`` is the previous row's."""
    tails = [line.partition(",")[2] for line in text.splitlines()[1:]]
    spans: list[list[int]] = []
    for k in range(1, len(tails)):
        if tails[k] == tails[k - 1]:
            if spans and spans[-1][1] == k:
                spans[-1][1] = k + 1
            else:
                spans.append([k, k + 1])
    return spans


@pytest.mark.parametrize("x0, schedule", [
    ([2.5, -1.5], EpsilonSchedule.constant_for_testing(0.0)),
    ([2.0, 0.0], EpsilonSchedule.harmonic(0.1, 1.0)),
], ids=["stalled_zero_shift", "harmonic"])
def test_parsed_repeats_share_cells(x0, schedule):
    # Rows read from the same text after i share their cells, so the writer
    # writes each repeat from the text of the row before it. The stall
    # fill's rows share the cells of the stalled step's own row, which
    # starts their span; the last row, which solve builds anew after
    # evaluating again, has their text but its own cells. Text that only
    # csv reads, with CRLF line ends or every cell quoted, goes through the
    # same parser, so its rows share their cells too.
    trace = solve(BALL, x0, SolveOptions(schedule=schedule, record_sublevel_distance=True))
    text = trace_to_csv(trace)
    solve_spans = traceio._repeat_spans(trace.rows)
    text_spans = text_repeat_spans(text)
    assert all(any(a <= start and stop <= b for a, b in text_spans)
               for start, stop in solve_spans)
    if schedule.eps0 == 0.0:
        assert (solve_spans, text_spans) == ([[7, 1000]], [[7, 1001]])
        stalled, first_fill = trace.rows[6:8]
        assert stalled.cut_count_active == 0
        assert all(map(operator.is_, stalled[1:], first_fill[1:]))
    else:
        assert text_spans == []
    quoted = io.StringIO()
    csv.writer(quoted, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(
        csv.reader(io.StringIO(text)))
    for rendering in (text, text.replace("\n", "\r\n"), quoted.getvalue()):
        rows = parse_trace_csv(rendering)
        assert cell_reprs(rows) == cell_reprs(reference_parse(rendering))
        assert traceio._repeat_spans(rows) == text_spans
        assert trace_to_csv(dataclasses.replace(trace, rows=rows)) == text


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_written_file_mode_matches_open(tmp_path, umask):
    previous = os.umask(umask)
    try:
        write_text_atomic(str(tmp_path / "atomic.csv"), "i\n")
        with open(tmp_path / "plain.csv", "w") as handle:
            handle.write("i\n")
    finally:
        os.umask(previous)
    mode = stat.S_IMODE((tmp_path / "atomic.csv").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "plain.csv").stat().st_mode)
    assert mode == 0o666 & ~umask


@pytest.mark.parametrize("failure", ["encode", "rename"])
def test_failed_write_leaves_no_temp_file(tmp_path, failure):
    if failure == "encode":
        # A lone surrogate has no encoding, so the write itself fails.
        path, text, error = tmp_path / "trace.csv", "i\n\ud800\n", UnicodeError
    else:
        # A nonempty directory cannot be replaced by a file.
        path, text, error = tmp_path / "out", "i\n", OSError
        (path / "inner").mkdir(parents=True)
    with pytest.raises(error):
        write_text_atomic(str(path), text)
    assert not list(tmp_path.glob("*.tmp"))


def test_rewrite_keeps_file_mode(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("old\n")
    path.chmod(0o600)
    write_text_atomic(str(path), "i\n")
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert path.read_text() == "i\n"


@pytest.mark.parametrize("command", ["solve", "compare", "diagnose"])
def test_default_flags_build_default_options(command):
    # SolveOptions documents that its defaults are the CLI's.
    args = _build_parser().parse_args([command, "--problem", "p.json", "--x0", "1,0"])
    assert _build_options(args) == SolveOptions()


def test_help_prints_the_description_as_written():
    # argparse's default formatter reflowed the exit-code table and the
    # Baselines block into run-on paragraphs.
    help_text = cli._PARSER.format_help()
    assert cli.__doc__.strip() in help_text
    assert "\n  2  iteration budget exhausted\n" in help_text


def assert_config_error(code, capsys):
    """Exit 1 with a single ``error:`` line on stderr and nothing on stdout."""
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestCmdSolve:
    def test_feasible_run_exit_zero_and_files(self, ball_file, tmp_path, capsys):
        csv_path = tmp_path / "trace.csv"
        json_path = tmp_path / "trace.json"
        code = main([
            "solve", "--problem", ball_file, "--x0", "2,0",
            "--trace-csv", str(csv_path), "--trace-json", str(json_path),
            "--record-dist",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "FeasibleFound" in out and "i=3" in out
        rows = parse_trace_csv(csv_path.read_text())
        assert len(rows) == 4
        payload = json.loads(json_path.read_text())
        assert payload["strict_feasible"] is True

    def test_already_feasible_single_row(self, ball_file, tmp_path):
        csv_path = tmp_path / "t.csv"
        code = main([
            "solve", "--problem", ball_file, "--x0", "0.5,0",
            "--trace-csv", str(csv_path),
        ])
        assert code == 0
        assert len(parse_trace_csv(csv_path.read_text())) == 1

    @pytest.mark.parametrize("command", ["solve", "compare", "diagnose"])
    @pytest.mark.parametrize("x0", ["-2,0", "-1e3,-5"])
    def test_start_with_leading_minus(self, ball_file, tmp_path, command, x0):
        # argparse takes an argument that starts with '-' for a flag unless
        # it looks like a negative number.
        json_path = tmp_path / "trace.json"
        code = main([command, "--problem", ball_file, "--x0", x0,
                     "--trace-json", str(json_path)])
        assert code == 0
        start = [float(v) for v in x0.split(",")]
        assert json.loads(json_path.read_text())["rows"][0]["f_xi"] == BALL.value(start)

    # Spec texts of the other kinds, with the fields a spec may leave out
    # left out: the parabola-disk instance without one piece's linear term
    # and the other's constant, the 3-D distance maximum of the test corpus,
    # max_j (x_j - 1) in R^4, whose first four cuts are all violated, so
    # the kernel starts from the whole bundle, and the wedge |x2| <= 0.2 x1,
    # diagnosed along the polyhedral distance path.
    @pytest.mark.parametrize("command, spec, x0", [
        ("solve", {"name": "parabola-disk", "kind": "max_quadratics", "dim": 2, "params": {
            "pieces": [{"quad": [[-1.0, 0.0], [0.0, 0.0]], "lin": [0.0, 1.0]},
                       {"quad": [[1.0, 0.0], [0.0, 1.0]], "const": -4.0}]}}, "2.5,1.2"),
        ("solve", {"kind": "sip_distance", "dim": 3, "activity_tol": 0.3, "params": {"bodies": [
            {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 2.0},
            {"type": "ball", "center": [1.5, 0.5, -0.5], "radius": 1.5},
            {"type": "halfspace", "normal": [1.0, 1.0, 0.0], "offset": 0.5},
            {"type": "halfspace", "normal": [0.0, -2.0, 1.0], "offset": 1.0}]}}, "6,-4,5"),
        ("solve", {"kind": "max_affine", "dim": 4, "params": {"pieces": [
            {"coef": row, "intercept": -1.0} for row in np.eye(4).tolist()]}}, "3,3,3,3"),
        ("diagnose", {"kind": "max_affine", "dim": 2, "params": {"pieces": [
            {"coef": [-0.2, 1.0], "intercept": 0.0},
            {"coef": [-0.2, -1.0], "intercept": 0.0}]}}, "-2,0.5"),
    ], ids=["parabola-disk", "sip-distance", "orthant", "wedge"])
    def test_spec_of_each_kind_runs_to_feasibility(self, tmp_path, command, spec, x0, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main([command, "--problem", str(path), "--x0", x0]) == 0
        assert capsys.readouterr().out.startswith("FeasibleFound ")

    def test_flag_like_start_still_rejected(self, ball_file, capsys):
        assert main(["solve", "--problem", ball_file, "--x0", "-x,0"]) == 1
        assert "--x0: expected one argument" in capsys.readouterr().err

    def test_dim_mismatch_exit_one(self, ball_file, capsys):
        code = main(["solve", "--problem", ball_file, "--x0", "2,0,0"])
        assert code == 1
        assert "dim" in capsys.readouterr().err

    def test_malformed_spec_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "mystery", "dim": 2}))
        code = main(["solve", "--problem", str(path), "--x0", "1,1"])
        assert code == 1
        assert "kind" in capsys.readouterr().err

    def test_non_finite_spec_exit_one(self, tmp_path, capsys):
        spec = problem_to_dict(MaxAffineProblem([[1.0, 0.0]], [0.0]))
        spec["params"]["pieces"][0]["coef"][1] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(spec))
        assert main(["solve", "--problem", str(path), "--x0", "1,1"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", MALFORMED_SPECS.values(), ids=MALFORMED_SPECS)
    def test_malformed_params_exit_one(self, tmp_path, spec, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert_config_error(main(["solve", "--problem", str(path), "--x0", "1,1"]), capsys)

    @pytest.mark.parametrize("problem", ["missing", "directory", "not-json"])
    def test_unusable_problem_file_exit_one(self, tmp_path, problem, capsys):
        path = tmp_path / problem
        if problem == "directory":
            path.mkdir()
        elif problem == "not-json":
            path.write_text("{kind: ball}")
        assert_config_error(main(["solve", "--problem", str(path), "--x0", "1,1"]), capsys)

    @pytest.mark.parametrize("x0_flags", [
        ["--x0", "1,x"],
        ["--x0-random", "5"],
        ["--x0-random", "a:1"],
    ], ids=["x0-not-a-number", "random-no-radius", "random-seed-not-a-number"])
    def test_malformed_start_exit_one(self, ball_file, x0_flags, capsys):
        assert_config_error(main(["solve", "--problem", ball_file, *x0_flags]), capsys)

    def test_unwritable_trace_path_exit_one(self, ball_file, tmp_path, capsys):
        csv_path = tmp_path / "missing" / "trace.csv"
        code = main(["solve", "--problem", ball_file, "--x0", "2,0",
                     "--trace-csv", str(csv_path)])
        assert_config_error(code, capsys)
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("spec", BOOLEAN_SPECS.values(), ids=BOOLEAN_SPECS)
    def test_boolean_spec_field_exit_one(self, tmp_path, spec, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(spec))
        assert_config_error(main(["solve", "--problem", str(path), "--x0-random", "1:1"]),
                            capsys)

    @pytest.mark.parametrize("spec, field", STRING_SPECS.values(), ids=STRING_SPECS)
    def test_string_spec_field_exit_one(self, tmp_path, spec, field, capsys):
        path = tmp_path / "string.json"
        path.write_text(json.dumps(spec))
        assert main(["solve", "--problem", str(path), "--x0-random", "1:1"]) == 1
        assert capsys.readouterr() == (
            "", f"error: problem spec field '{field}': expected a number, got a string\n")

    @pytest.mark.parametrize("spec, field, got", NULL_OR_HUGE_SPECS.values(),
                             ids=NULL_OR_HUGE_SPECS)
    def test_null_or_huge_spec_field_exit_one(self, tmp_path, spec, field, got, capsys):
        path = tmp_path / "null.json"
        path.write_text(json.dumps(spec))
        assert main(["solve", "--problem", str(path), "--x0-random", "1:1"]) == 1
        assert capsys.readouterr() == (
            "", f"error: problem spec field '{field}': expected a number, got {got}\n")

    @pytest.mark.parametrize("command", ["solve", "compare", "diagnose"])
    @pytest.mark.parametrize("spec, message", INCOMPLETE_SPECS.values(), ids=INCOMPLETE_SPECS)
    def test_incomplete_spec_exit_one(self, tmp_path, spec, message, command, capsys):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps(spec))
        assert main([command, "--problem", str(path), "--x0", "1,1"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("spec", [spec for spec, _ in HUGE_DIM_SPECS.values()],
                             ids=HUGE_DIM_SPECS)
    def test_spec_of_huge_dim_exit_one(self, tmp_path, spec, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(spec))
        assert_config_error(main(["solve", "--problem", str(path), "--x0", "1"]), capsys)

    def test_random_start_of_huge_dim_exit_one(self, tmp_path, capsys):
        # NumPy rejects the shape before it allocates anything.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"kind": "shifted_ball_infeasible", "dim": 10**30}))
        code = main(["solve", "--problem", str(path), "--x0-random", "1:1"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: --x0-random") and err.count("\n") == 1

    def test_random_start_out_of_memory_exit_one(self, ball_file, monkeypatch, capsys):
        def out_of_memory(rng, count, dim):
            raise MemoryError

        monkeypatch.setattr(cli, "ball_samples", out_of_memory)
        assert_config_error(main(["solve", "--problem", ball_file, "--x0-random", "1:1"]),
                            capsys)

    @pytest.mark.parametrize("x0", ["1,x", "nan,0", "2,0,0"],
                             ids=["not-a-number", "nan", "wrong-dim"])
    def test_bad_x0_names_the_flag(self, ball_file, x0, capsys):
        code = main(["solve", "--problem", ball_file, "--x0", x0])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: --x0: ") and err.count("\n") == 1, err

    def test_missing_x0_exit_one(self, ball_file):
        assert main(["solve", "--problem", ball_file]) == 1

    @pytest.mark.parametrize(
        "x0_flags",
        [
            ["--x0", "nan,0"],
            ["--x0-random", "1:nan"],
            ["--x0-random", "1:inf"],
            ["--x0-random", "1:0"],
        ],
        ids=["x0-nan", "random-nan-radius", "random-inf-radius", "random-zero-radius"],
    )
    def test_bad_start_exit_one(self, ball_file, x0_flags, capsys):
        assert main(["solve", "--problem", ball_file, *x0_flags]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "compare", "diagnose"])
    @pytest.mark.parametrize("seed", ["-1", "-12345678901234567890"])
    def test_negative_random_seed_exit_one(self, ball_file, command, seed, capsys):
        # NumPy's generator raises a bare ValueError for a negative seed.
        code = main([command, "--problem", ball_file, f"--x0-random={seed}:3"])
        assert code == 1
        assert capsys.readouterr().err == "error: --x0-random seed must be nonnegative\n"

    @pytest.mark.parametrize(
        "flags", [["--schedule", "harmonicly"], ["--eps0", "inf"], ["--eps0", "nan"]],
        ids=["schedule-prefix", "eps0-inf", "eps0-nan"],
    )
    def test_bad_schedule_exit_one(self, ball_file, flags, capsys):
        assert main(["solve", "--problem", ball_file, "--x0", "2,0", *flags]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--baseline", "both"], ["--baseline", "zero_eps", "--eps0", "nan"],
         ["--baseline", "single_cut", "--j-max", "0"]],
        ids=["unknown-baseline", "zero-eps-eps0-nan", "single-cut-j-max-0"],
    )
    def test_bad_baseline_run_exit_one(self, ball_file, flags, capsys):
        # A baseline replaces options only after the flags are checked, so
        # the flags it overrides must still be valid.
        assert_config_error(main(["solve", "--problem", ball_file, "--x0", "2,0", *flags]),
                            capsys)

    def test_zero_eps_baseline_is_the_zero_constant_schedule(self, ball_file, tmp_path):
        outputs = []
        for flags in (["--baseline", "zero_eps"], ["--schedule", "const", "--eps0", "0"]):
            csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
            code = main(["solve", "--problem", ball_file, "--x0", "2,0", *flags,
                         "--trace-csv", str(csv_path), "--trace-json", str(json_path)])
            outputs.append((code, csv_path.read_bytes(), json_path.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 2

    def test_both_x0_sources_exit_one(self, ball_file):
        code = main([
            "solve", "--problem", ball_file, "--x0", "2,0",
            "--x0-random", "1:2.0",
        ])
        assert code == 1

    def test_max_iter_exceeded_exit_two(self, ball_file):
        code = main([
            "solve", "--problem", ball_file, "--x0", "2,0", "--max-iter", "1",
        ])
        assert code == 2

    def test_zero_subgradient_exit_three(self, tmp_path):
        path = write_problem(tmp_path, ShiftedBallProblem(2))
        assert main(["solve", "--problem", path, "--x0", "0,0"]) == 3

    def test_infeasible_cuts_exit_three(self, tmp_path):
        opposing = MaxAffineProblem([[1.0], [-1.0]], [1.0, 1.0], activity_tol=0.0)
        path = write_problem(tmp_path, opposing)
        code = main([
            "solve", "--problem", path, "--x0", "0", "--fallback", "fail",
        ])
        assert code == 3
        # The default fallback steps on the first cut alone and runs out of
        # iterations instead.
        assert main(["solve", "--problem", path, "--x0", "0"]) == 2

    def test_nonfinite_step_exit_three(self, ball_file, capsys):
        # f is finite at 1.2e154, but the cut offset overflows.
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["solve", "--problem", ball_file, "--x0", "1.2e154,0"]) == 3
        assert capsys.readouterr().out.startswith("NonfiniteStep i=0 ")

    def test_nonfinite_step_stderr_is_quiet(self, ball_file):
        # A separate process: there, NumPy warnings would reach stderr as
        # they do for a user, instead of pytest's warning capture.
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        script = "import sys; from epscut.cli import main; sys.exit(main(sys.argv[1:]))"
        for x0 in ("1.2e154,0", "1e200,0"):
            proc = subprocess.run(
                [sys.executable, "-c", script, "solve", "--problem", ball_file, "--x0", x0],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 3
            assert proc.stdout.startswith("NonfiniteStep i=0 ")
            assert "Warning" not in proc.stderr, proc.stderr

    def test_zero_normal_body_exit_one(self, tmp_path, capsys):
        path = tmp_path / "sip.json"
        path.write_text(json.dumps({
            "kind": "sip_distance", "dim": 2,
            "params": {"bodies": [{"type": "halfspace", "normal": [0, 0], "offset": 1}]},
        }))
        assert main(["solve", "--problem", str(path), "--x0", "1,1"]) == 1
        assert "nonzero" in capsys.readouterr().err

    def test_unknown_flag_exit_one(self, ball_file):
        assert main(["solve", "--problem", ball_file, "--x0", "1,1", "--bogus"]) == 1

    def test_byte_identical_reruns(self, ball_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        out1.mkdir(), out2.mkdir()
        for out in (out1, out2):
            code = main([
                "solve", "--problem", ball_file, "--x0-random", "99:1.5",
                "--trace-csv", str(out / "t.csv"),
                "--trace-json", str(out / "t.json"),
                "--report-json", str(out / "r.json"),
                "--record-dist",
            ])
            assert code in (0, 2)
        assert (out1 / "t.csv").read_bytes() == (out2 / "t.csv").read_bytes()
        assert (out1 / "t.json").read_bytes() == (out2 / "t.json").read_bytes()
        assert (out1 / "r.json").read_bytes() == (out2 / "r.json").read_bytes()

    def test_x0_random_seed_changes_start(self, ball_file, tmp_path):
        paths = []
        for seed in (1, 2):
            p = tmp_path / f"s{seed}.json"
            main([
                "solve", "--problem", ball_file, "--x0-random", f"{seed}:1.5",
                "--trace-json", str(p),
            ])
            paths.append(json.loads(p.read_text()))
        assert paths[0]["rows"][0]["f_xi"] != paths[1]["rows"][0]["f_xi"]


class TestCmdCompare:
    def test_side_by_side_report(self, ball_file, tmp_path, capsys):
        report_path = tmp_path / "cmp.json"
        code = main([
            "compare", "--problem", ball_file, "--x0", "2,0",
            "--report-json", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert set(report["variants"]) == {"main", "zero_eps", "single_cut"}
        main_v = report["variants"]["main"]
        zero_v = report["variants"]["zero_eps"]
        assert main_v["status"] == "FeasibleFound"
        assert zero_v["status"] == "MaxIterExceeded"
        assert zero_v["final_f"] > 0.0
        assert main_v["decay_rho"] is not None and main_v["decay_rho"] < 1.0
        out = capsys.readouterr().out
        assert out.count("\n") == 3

    def test_variants_ignore_the_baseline_flag(self, tmp_path, capsys):
        # With cut-pairs near the diagonal, j_max moves both the shifted and
        # the unshifted run, so a zero_eps variant that took --baseline
        # single_cut's j_max = 1 would differ.
        path = write_problem(
            tmp_path, MaxAffineProblem([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], activity_tol=0.5))

        def variants(*flags):
            report_path = tmp_path / "cmp.json"
            main(["compare", "--problem", path, "--x0", "2,2.1",
                  "--report-json", str(report_path), *flags])
            capsys.readouterr()
            return json.loads(report_path.read_text())["variants"]

        plain, single, one_cut = (variants(), variants("--baseline", "single_cut"),
                                  variants("--j-max", "1"))
        assert single["zero_eps"] == plain["zero_eps"] != one_cut["zero_eps"]
        assert single["main"] == single["single_cut"] == plain["single_cut"] != plain["main"]

    @pytest.mark.parametrize("flags, solves", [
        ([], 3),
        (["--baseline", "zero_eps"], 2),
        (["--baseline", "single_cut"], 2),
        (["--j-max", "1"], 2),
        (["--schedule", "const", "--eps0", "0"], 2),
    ], ids=["plain", "zero-eps", "single-cut", "j-max-1", "const-0"])
    def test_each_distinct_configuration_is_solved_once(self, ball_file, monkeypatch, capsys,
                                                        flags, solves):
        # Each of the four flag sets made 3 solve calls, one of them a
        # repeat of another run's options.
        calls = []

        def counted(problem, x0, opts):
            calls.append(opts)
            return solve(problem, x0, opts)

        monkeypatch.setattr(cli, "solve", counted)
        main(["compare", "--problem", ball_file, "--x0", "2,0", *flags])
        assert len(calls) == len(set(calls)) == solves
        assert capsys.readouterr().out.count("\n") == 3

    def test_baseline_failure_recorded_not_fatal(self, tmp_path):
        path = write_problem(tmp_path, ShiftedBallProblem(2))
        report_path = tmp_path / "cmp.json"
        code = main([
            "compare", "--problem", path, "--x0", "0,0",
            "--report-json", str(report_path),
        ])
        assert code == 3
        report = json.loads(report_path.read_text())
        statuses = {v["status"] for v in report["variants"].values()}
        assert statuses == {"ZeroSubgradient"}


class TestCmdDiagnose:
    def test_ball_report(self, ball_file, tmp_path, capsys):
        # All three files of a harmonic run: the JSON trace and the report
        # are json.dumps(indent=2) of themselves, and the JSON rows are the
        # ones read from the CSV trace.
        report_path, csv_path, json_path = (tmp_path / name
                                            for name in ("diag.json", "t.csv", "t.json"))
        code = main([
            "diagnose", "--problem", ball_file, "--x0", "2,0",
            "--report-json", str(report_path), "--trace-csv", str(csv_path),
            "--trace-json", str(json_path),
        ])
        assert code == 0
        for path in (report_path, json_path):
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
        rows = json.loads(json_path.read_text())["rows"]
        assert [tuple(row.values()) for row in rows] == parse_trace_csv(csv_path.read_text())
        report = json.loads(report_path.read_text())
        dist = report["contrast"]["dist"]
        assert all(b < a for a, b in zip(dist, dist[1:]))
        assert report["contrast"]["l_hat"] > 0.0
        assert report["kappa_hat"] > 0.0
        assert "terminated" in capsys.readouterr().out

    def test_unsupported_kind_exit_four(self, tmp_path, capsys):
        sip = SipDistanceProblem([BallBody([0.0, 0.0], 1.0), HalfspaceBody([1.0, 0.0], 0.0)])
        outputs = [tmp_path / name for name in ("t.csv", "t.json", "r.json")]
        for problem in (nonconvex_default_problem(), sip, ShiftedBallProblem(2)):
            path = write_problem(tmp_path, problem)
            code = main(["diagnose", "--problem", path, "--x0", "2.5,1.2",
                         "--trace-csv", str(outputs[0]), "--trace-json", str(outputs[1]),
                         "--report-json", str(outputs[2])])
            assert code == 4
            assert capsys.readouterr() == (
                "", f"diagnose: problem kind {problem.kind!r} has no analytic sublevel distance\n")
            assert not any(output.exists() for output in outputs)

    @pytest.mark.parametrize("flags", [
        ["--x0", "1,2,3"],
        ["--x0", "2.5,1.2", "--schedule", "bogus"],
    ], ids=["x0-wrong-dim", "schedule-unknown"])
    def test_bad_flags_exit_one_for_every_kind(self, tmp_path, flags, capsys):
        # Flags are checked before the kind is asked for its distance, as
        # solve checks them.
        sip = SipDistanceProblem([BallBody([0.0, 0.0], 1.0), HalfspaceBody([1.0, 0.0], 0.0)])
        for problem in (nonconvex_default_problem(), sip, ShiftedBallProblem(2)):
            path = write_problem(tmp_path, problem)
            assert_config_error(main(["diagnose", "--problem", path, *flags]), capsys)

    @pytest.mark.parametrize("x0, repeated", [
        ("2.5,-1.5", 0.0), ("2,0", 1.1102230246251565e-15),
    ], ids=["zero-distance", "positive-distance"])
    def test_stalled_run_writes_all_three_files(self, ball_file, tmp_path, capsys, x0,
                                                repeated):
        # The zero shift stalls just outside the ball: all 1,001 rows are
        # written, and the report's distances end in a run of one value,
        # 0.0 from (2.5, -1.5), where eps_over_dist reads Infinity, and a
        # positive one from (2, 0).
        paths = {name: tmp_path / name for name in ("t.csv", "t.json", "r.json")}
        argv = ["diagnose", "--problem", ball_file, "--baseline", "zero_eps", "--x0", x0]
        code = main([*argv, "--trace-csv", str(paths["t.csv"]),
                     "--trace-json", str(paths["t.json"]), "--report-json", str(paths["r.json"])])
        assert code == 2
        docs = {}
        for name in ("t.json", "r.json"):
            text = paths[name].read_text()
            docs[name] = json.loads(text)
            assert text == json.dumps(docs[name], indent=2) + "\n"
        rows = docs["t.json"]["rows"]
        assert len(rows) == 1001
        assert [tuple(row.values()) for row in rows] == parse_trace_csv(paths["t.csv"].read_text())
        contrast = docs["r.json"]["contrast"]
        assert contrast["dist"][-990:] == [repeated] * 990
        assert (math.inf in contrast["eps_over_dist"]) == (repeated == 0.0)
        # The report writer formats a run of one object once: the run's
        # own distances share the stall fill's cells.
        trace = solve(BALL, np.array([float(v) for v in x0.split(",")]),
                      _build_options(_build_parser().parse_args(argv), record_dist=True))
        assert trace_to_csv(trace) == paths["t.csv"].read_text()
        assert len(set(map(id, claim_contrast(trace).dist))) <= 8
        capsys.readouterr()

    def test_solve_and_compare_reports_keep_the_layout(self, ball_file, tmp_path, capsys):
        # The solve and compare reports are json.dumps(indent=2) too.
        report = tmp_path / "r.json"
        for command in ("solve", "compare"):
            main([command, "--problem", ball_file, "--x0", "2,0", "--report-json", str(report)])
            text = report.read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
        capsys.readouterr()

    @pytest.mark.parametrize("problem, flags", [
        (BALL, ["--x0", "2.5,-1.5", "--baseline", "zero_eps"]),
        (BALL, ["--x0", "2,0"]),
        (WEDGE, ["--x0", "-2,0.5"]),
        (WEDGE, ["--x0", "-2,0.5", "--schedule", "log"]),
    ], ids=["stalled-ball", "harmonic-ball", "max-affine-wedge", "log-wedge"])
    def test_kappa_is_the_largest_ratio_of_its_rows(self, tmp_path, problem, flags, capsys):
        # kappa_hat is the largest d(x_i, S_eps_i) / (f(x_i) + eps_i) over
        # the rows with f > 0 and a distance, read back from the run's own
        # CSV trace, bit for bit.
        path, csv_path, report = (write_problem(tmp_path, problem), tmp_path / "t.csv",
                                  tmp_path / "r.json")
        main(["diagnose", "--problem", path, *flags, "--trace-csv", str(csv_path),
              "--report-json", str(report)])
        capsys.readouterr()
        expected = max(r.dist_sublevel / (r.f_xi + r.eps_i)
                       for r in parse_trace_csv(csv_path.read_text())
                       if r.f_xi > 0.0 and r.dist_sublevel is not None)
        assert expected > 0.0
        assert json.loads(report.read_text())["kappa_hat"].hex() == expected.hex()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["ball", "max_affine"]), n=st.sampled_from([1, 2, 3]),
           max_iter=st.sampled_from([3, 50, 300]), seed=st.integers(0, 2**32 - 1))
    # Runs that stall just outside the sublevel set, and runs that end
    # feasible without a stall: a ball, then a max-affine problem of each.
    @example(kind="ball", n=1, max_iter=50, seed=0)
    @example(kind="ball", n=1, max_iter=50, seed=8)
    @example(kind="max_affine", n=2, max_iter=300, seed=11)
    @example(kind="max_affine", n=2, max_iter=50, seed=12)
    def test_zero_shift_kappa_is_the_estimate_over_every_point(self, tmp_path_factory, kind,
                                                               n, max_iter, seed):
        # At the zero shift, each row's ratio is estimate_kappa's at eps = 0
        # for its point, so kappa_hat is the estimate over every point with
        # f > 0 that the step-by-step loop visits, stalled run or not.
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, kind, n)
        x0 = rng.standard_normal(n) * 10.0 ** rng.uniform(-1.0, 2.0)
        tmp_path = tmp_path_factory.mktemp("zero")
        path, report = write_problem(tmp_path, problem), tmp_path / "r.json"
        argv = ["diagnose", "--problem", path, "--x0", ",".join(map(repr, x0.tolist())),
                "--baseline", "zero_eps", "--max-iter", str(max_iter)]
        code = main([*argv, "--report-json", str(report)])
        # Fewer than three rows with f > 0 leave nothing to diagnose.
        assert report.exists() == (code != 5)
        if code == 5:
            return
        args = cli._PARSER.parse_args(argv)
        problem = cli._load_problem(path)
        x0, opts = cli._resolve_x0(args, problem), _build_options(args, record_dist=True)
        trace = solve(problem, x0, opts)
        points = reference_points(problem, x0, opts, trace)
        expected = estimate_kappa(problem, [x for row, x in zip(trace.rows, points)
                                            if row.f_xi > 0.0], 0.0)
        assert json.loads(report.read_text())["kappa_hat"].hex() == expected.hex()

    def test_short_trace_exit_five(self, ball_file):
        assert main(["diagnose", "--problem", ball_file, "--x0", "0.5,0"]) == 5
