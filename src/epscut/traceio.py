"""Stable on-disk formats for solve traces.

CSV columns, in order: i, eps_i, f_xi, J_i, step_norm, dist_sublevel,
cut_count_active. The header row is mandatory. A trace row holds Python
ints, floats and None (a missing sublevel distance), and ``csv`` writes the
rows as they are: a float by its shortest round-trip decimal (``repr``), so
parsing reproduces every numeric field bit-exactly, an int by ``str`` and
None as an empty field. The JSON form carries the same rows plus the
termination record. Its cells are the CSV's with csv's three non-numeric
tokens in json's spelling: ``inf`` is ``Infinity``, ``nan`` is ``NaN`` and
an empty distance is ``null``, and ``trace_to_json`` takes them from the
CSV text. So a caller that writes both forms formats each cell once, by
handing that text to ``trace_to_json``. A row whose cells after ``i`` are
the previous row's own objects, as the rows that ``solve`` writes for a
stalled run are, is not formatted again: its text is the previous row's
with its own ``i``. ``parse_trace_csv`` has two tokenizers and one parser.
It splits text as the writer makes it (no quote, carriage return or NUL,
no line past ``csv``'s field size limit) on newlines and commas, and
``csv`` reads every other text and raises every error. Either way the
parser reads each distinct tail, a row's fields after its ``i``, once, so
a stalled run's repeated rows again share their cells. File writes are
whole-file atomic (temp file then rename).
"""

from __future__ import annotations

import csv
import io
import json
import operator
import os
import stat
import tempfile
from itertools import compress, count, repeat

from .solver import SolveTrace, TraceRow


def _parse_optional(text: str) -> float | None:
    return None if text == "" else float(text)


# The one row schema of every form, in TraceRow field order: column name and
# CSV parser. Only the sublevel distance may be missing; it is written as an
# empty CSV field, and int/float reject an empty field anywhere else.
_SCHEMA = (
    ("i", int),
    ("eps_i", float),
    ("f_xi", float),
    ("J_i", int),
    ("step_norm", float),
    ("dist_sublevel", _parse_optional),
    ("cut_count_active", int),
)
CSV_COLUMNS = tuple(column for column, _ in _SCHEMA)
# The parser of i, and those of the cells after it: a row's tail.
_PARSE_I = _SCHEMA[0][1]
_CELL_PARSERS = [parse for _, parse in _SCHEMA[1:]]
_HEADER = ",".join(CSV_COLUMNS)
# The text that json.dumps(indent=2) writes before each cell of a row in the
# document's rows array, the text between one row's last cell and the next
# row's first, and the text after the last row's last cell.
_JSON_BEFORE = [f"{',' if k else '    {'}\n      {json.dumps(column)}: "
                for k, column in enumerate(CSV_COLUMNS)]
_JSON_CLOSE = "\n    }"
_JSON_NEXT_ROW = f"{_JSON_CLOSE},\n{_JSON_BEFORE[0]}"


def _repeat_spans(rows: list[TraceRow]) -> list[list[int]]:
    """The ``[start, stop]`` index ranges of the maximal runs of rows whose
    every cell after ``i`` is the previous row's own object, as the rows
    that ``solve`` writes for a stall are. Such a row's text is the previous
    row's with its own ``i``. Identity, not equality: equal cells can differ
    in text (0.0 and -0.0, 0 and 0.0). Only a row whose ``f_xi`` is the
    previous row's is looked at further, so a trace without repeats costs
    one pass over its rows."""
    f = list(map(operator.itemgetter(2), rows))
    spans: list[list[int]] = []
    for k, row, prev in compress(zip(count(1), rows[1:], rows), map(operator.is_, f[1:], f)):
        # The cells but i (0) and f_xi (2), which passed the prefilter.
        if (row[1] is prev[1] and row[3] is prev[3] and row[4] is prev[4]
                and row[5] is prev[5] and row[6] is prev[6]):
            if spans and spans[-1][1] == k:
                spans[-1][1] = k + 1
            else:
                spans.append([k, k + 1])
    return spans


def trace_to_csv(trace: SolveTrace) -> str:
    """The CSV text of a trace. ``csv`` writes the rows outside the repeat
    spans in one call. A row in a span is written as the row before the span
    with its own ``i``: that row's text from its first comma on, after the
    text of ``i``."""
    rows = trace.rows
    spans = _repeat_spans(rows)
    outside, start = [], 0
    for first, stop in spans:
        outside += rows[start:first]
        start = stop
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(outside + rows[start:])
    text = buf.getvalue()
    if not spans:
        return text
    lines = text.split("\n")
    # lines[0] is the header. Once the spans before it are in place, a span
    # goes after the line of row first - 1, which is lines[first].
    for first, stop in spans:
        tail = lines[first][lines[first].index(","):]
        lines[first + 1:first + 1] = [f"{row.i}{tail}" for row in rows[first:stop]]
    return "\n".join(lines)


def parse_trace_csv(text: str) -> list[TraceRow]:
    """Rows of a CSV trace. Raises ValueError on a missing or wrong header,
    a row with the wrong number of fields, or a field that does not parse,
    including an empty field other than ``dist_sublevel``. A header with no
    rows reads as no rows.

    Two tokenizers feed one parser. Text with no quote, carriage return or
    NUL and no line longer than ``csv.field_size_limit()``, as
    ``trace_to_csv`` writes it, splits on newlines and commas into the
    fields ``csv`` reads from it, and is read so. Any other text, and text
    that fails a check of the header, a field count or a parse, is read by
    ``csv``, which raises every error. Either way each row's ``i`` is
    parsed, and each distinct tail (the fields after a row's ``i``) is
    parsed once: rows with the same tail, as a stalled run's repeats have,
    share one set of cell objects, so ``trace_to_csv`` writes them again
    from the first one's text."""
    if '"' not in text and "\r" not in text and "\0" not in text:
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()  # the final newline's
        limit = csv.field_size_limit()
        if lines[:1] == [_HEADER] and (len(text) <= limit or max(map(len, lines)) <= limit):
            if len(lines) == 1:
                return []
            heads, _, tails = zip(*map(str.partition, lines[1:], repeat(",")))
            try:
                return _parse_rows(heads, tails, split=True)
            except ValueError:
                pass  # csv reads the text again and raises the error
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header!r}")
    records = list(reader)
    for number, rec in enumerate(records, start=2):
        if len(rec) != len(_SCHEMA):
            raise ValueError(
                f"CSV row {number}: expected {len(_SCHEMA)} fields, got {len(rec)}"
            )
    if not records:
        return []
    return _parse_rows([rec[0] for rec in records], [tuple(rec[1:]) for rec in records],
                       split=False)


def _parse_rows(heads, tails, split: bool) -> list[TraceRow]:
    """The rows with these ``i`` texts and tails: tuples of field texts,
    or with ``split`` a line's text after its first comma, which splits at
    every comma (a line without a comma has the tail "", one field). Each
    ``i`` is parsed, then each column of the distinct tails in turn, so the
    first field that does not parse, in column order, raises its
    ValueError, as a column-by-column read of every row would. A tail with
    a field count other than the schema's, or unlike another tail's,
    raises ValueError too."""
    indices = list(map(_PARSE_I, heads))
    distinct = list(dict.fromkeys(tails))
    fields = map(str.split, distinct, repeat(",")) if split else distinct
    columns = zip(*fields, strict=True)
    parsed = [list(map(parse, cells))
              for cells, parse in zip(columns, _CELL_PARSERS, strict=True)]
    cells = dict(zip(distinct, zip(*parsed)))
    # TraceRow(i, *cells) for each row, built in C: tuple.__new__ of the
    # class and the row's cells, with i's 1-tuple added to the tail's cells.
    rows = map(operator.add, zip(indices), map(cells.__getitem__, tails))
    return list(map(tuple.__new__, repeat(TraceRow), rows))


def _document(trace: SolveTrace, rows: list) -> dict:
    return {
        "status": trace.status.value,
        "status_iteration": trace.status_iteration,
        "final_x": [float(v) for v in trace.final_x],
        "final_f": trace.final_f,
        "strict_feasible": trace.strict_feasible,
        "rows": rows,
    }


def trace_to_dict(trace: SolveTrace) -> dict:
    return _document(trace, [dict(zip(CSV_COLUMNS, r)) for r in trace.rows])


def trace_to_json(trace: SolveTrace, csv_text: str | None = None) -> str:
    """``json.dumps(trace_to_dict(trace), indent=2)`` plus a newline.
    ``indent`` selects json's pure-Python encoder, which would spend most
    of the time on the rows, so the rows array is joined in one pass from
    the cells of the CSV text and the text that json writes around them. A
    repeated row costs no more than any other. ``csv_text``, when given,
    must be ``trace_to_csv(trace)``; a caller that writes the CSV too passes
    it, so no cell is formatted twice. Otherwise the text is made here."""
    head = json.dumps(_document(trace, []), indent=2)
    if not trace.rows:
        return head + "\n"
    if csv_text is None:
        csv_text = trace_to_csv(trace)
    # Only the distance can be empty, and it is never the first or the last
    # field, so an empty field is always ',,'. No number's text holds 'inf'
    # or 'nan', and '-inf' becomes '-Infinity'. No cell holds a comma, so
    # with each row's newline made a comma too, the text splits into the
    # cells of all rows in order.
    body = csv_text.partition("\n")[2][:-1].replace(",,", ",null,")
    body = body.replace("inf", "Infinity").replace("nan", "NaN").replace("\n", ",")
    cells = body.split(",")
    before = [_JSON_NEXT_ROW, *_JSON_BEFORE[1:]] * len(trace.rows)
    before[0] = _JSON_BEFORE[0]
    parts = [""] * (2 * len(cells))
    parts[0::2] = before
    parts[1::2] = cells
    # The head ends with the empty rows array, '[]', and the closing brace.
    return f"{head[:-4]}[\n{''.join(parts)}{_JSON_CLOSE}\n  ]\n}}\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file. The file gets the mode ``open(path, "w")`` would leave:
    an existing file's own, or else 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        # mkstemp made the file 0o600.
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0o022)  # reading the umask means setting it
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp_path, mode)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
