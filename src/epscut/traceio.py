"""Stable on-disk formats for solve traces.

CSV columns, in order: i, eps_i, f_xi, J_i, step_norm, dist_sublevel,
cut_count_active. The header row is mandatory; floats are written in
shortest round-trip decimal (``repr``), so parsing reproduces every numeric
field bit-exactly; a missing sublevel distance is an empty field. The JSON
form carries the same rows plus the termination record. File writes are
whole-file atomic (temp file then rename).
"""

from __future__ import annotations

import csv
import io
import json
import os
import stat
import tempfile

from .solver import SolveTrace, TraceRow


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_optional(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _parse_optional(text: str) -> float | None:
    return None if text == "" else float(text)


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value) -> str:
    """``value`` as ``json.dumps`` writes it: a float by its repr, except
    NaN and the infinities; anything else, such as None or the integer
    shift of a constant schedule, by ``json.dumps`` itself."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_NONFINITE.get(text, text)
    return json.dumps(value)


# The one row schema of every form, in TraceRow field order: column name,
# CSV writer, CSV parser and JSON writer. Only the sublevel distance may be
# missing; it is written as an empty CSV field, and int/float reject an
# empty field anywhere else.
_SCHEMA = (
    ("i", str, int, str),
    ("eps_i", _fmt, float, _json_float),
    ("f_xi", _fmt, float, _json_float),
    ("J_i", str, int, str),
    ("step_norm", _fmt, float, _json_float),
    ("dist_sublevel", _fmt_optional, _parse_optional, _json_float),
    ("cut_count_active", str, int, str),
)
CSV_COLUMNS = tuple(column for column, *_ in _SCHEMA)
# One row as json.dumps(indent=2) lays it out in the document's rows array.
_JSON_ROW = "    {\n" + ",\n".join(
    f"      {json.dumps(column)}: %s" for column in CSV_COLUMNS
) + "\n    }"


def trace_to_csv(trace: SolveTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    columns = zip(*trace.rows)
    writer.writerows(zip(*(
        map(write, values) for values, (_, write, _, _) in zip(columns, _SCHEMA)
    )))
    return buf.getvalue()


def parse_trace_csv(text: str) -> list[TraceRow]:
    """Rows of a CSV trace. Raises ValueError on a missing or wrong header,
    a row with the wrong number of fields, or a field that does not parse,
    including an empty field other than ``dist_sublevel``."""
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
    columns = zip(*records)
    return list(map(TraceRow, *(list(map(parse, cells))
                                for cells, (_, _, parse, _) in zip(columns, _SCHEMA))))


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


def trace_to_json(trace: SolveTrace) -> str:
    """``json.dumps(trace_to_dict(trace), indent=2)`` plus a newline, with
    the rows written column by column: ``indent`` selects json's pure-Python
    encoder, which would spend most of the time on the rows."""
    head = json.dumps(_document(trace, []), indent=2)
    if not trace.rows:
        return head + "\n"
    columns = zip(*trace.rows)
    cells = zip(*(
        map(write, values) for values, (*_, write) in zip(columns, _SCHEMA)
    ))
    rows = ",\n".join(map(_JSON_ROW.__mod__, cells))
    # The head ends with the empty rows array, '[]', and the closing brace.
    return f"{head[:-4]}[\n{rows}\n  ]\n}}\n"


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
