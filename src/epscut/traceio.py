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
handing that text to ``trace_to_json``. File writes are whole-file atomic
(temp file then rename).
"""

from __future__ import annotations

import csv
import io
import json
import os
import stat
import tempfile

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
# One row as json.dumps(indent=2) lays it out in the document's rows array.
_JSON_ROW = "    {\n" + ",\n".join(
    f"      {json.dumps(column)}: %s" for column in CSV_COLUMNS
) + "\n    }"


def trace_to_csv(trace: SolveTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(trace.rows)
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
                                for cells, (_, parse) in zip(columns, _SCHEMA))))


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
    of the time on the rows, so each row's cells, taken from the CSV text,
    fill its indented template. ``csv_text``, when given, must be
    ``trace_to_csv(trace)``; a caller that writes the CSV too passes it, so
    no cell is formatted twice. Otherwise the text is made here."""
    head = json.dumps(_document(trace, []), indent=2)
    if not trace.rows:
        return head + "\n"
    if csv_text is None:
        csv_text = trace_to_csv(trace)
    # Only the distance can be empty, and it is never the first or the last
    # field, so an empty field is always ',,'. No number's text holds 'inf'
    # or 'nan', and '-inf' becomes '-Infinity'.
    body = csv_text.partition("\n")[2].replace(",,", ",null,")
    lines = body.replace("inf", "Infinity").replace("nan", "NaN").splitlines()
    rows = ",\n".join([_JSON_ROW % tuple(line.split(",")) for line in lines])
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
