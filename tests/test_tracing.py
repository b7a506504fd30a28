"""The benchmark tracer's bindings: every epscut name it wraps resolves.

``perfbench/tracing.py`` times each layer by rebinding names such as
``epscut.solver.project_polyhedron``. A name that no longer resolves is
skipped, and its metrics read as not measured, so a refactor that moves or
renames one must fail here. The module needs only NumPy and epscut.
"""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracer_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    assert tracer.missing == []
    assert len(tracer.measured) == len({span for _, _, span, _ in tracing.BINDINGS})
