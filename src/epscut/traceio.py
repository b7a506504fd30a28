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

CSV_COLUMNS = (
    "i", "eps_i", "f_xi", "J_i", "step_norm", "dist_sublevel",
    "cut_count_active",
)


def _fmt(value: float) -> str:
    return repr(float(value))


def trace_to_csv(trace: SolveTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in trace.rows:
        writer.writerow([
            r.i,
            _fmt(r.eps_i),
            _fmt(r.f_xi),
            r.j_i,
            _fmt(r.step_norm),
            "" if r.dist_sublevel is None else _fmt(r.dist_sublevel),
            r.cut_count_active,
        ])
    return buf.getvalue()


def parse_trace_csv(text: str) -> list[TraceRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = []
    for rec in reader:
        rows.append(TraceRow(
            i=int(rec[0]),
            eps_i=float(rec[1]),
            f_xi=float(rec[2]),
            j_i=int(rec[3]),
            step_norm=float(rec[4]),
            dist_sublevel=None if rec[5] == "" else float(rec[5]),
            cut_count_active=int(rec[6]),
        ))
    return rows


def trace_to_dict(trace: SolveTrace) -> dict:
    return {
        "status": trace.status.value,
        "status_iteration": trace.status_iteration,
        "final_x": [float(v) for v in trace.final_x],
        "final_f": trace.final_f,
        "strict_feasible": trace.strict_feasible,
        "rows": [
            {
                "i": r.i,
                "eps_i": r.eps_i,
                "f_xi": r.f_xi,
                "J_i": r.j_i,
                "step_norm": r.step_norm,
                "dist_sublevel": r.dist_sublevel,
                "cut_count_active": r.cut_count_active,
            }
            for r in trace.rows
        ],
    }


def trace_to_json(trace: SolveTrace) -> str:
    return json.dumps(trace_to_dict(trace), indent=2) + "\n"


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
