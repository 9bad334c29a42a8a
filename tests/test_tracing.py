"""The benchmark's tracer finds every boundary it wraps.

perfbench/tracing.py looks its boundaries up by module and attribute name,
so a rename under src/ would leave a layer untraced; this catches it.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_finds_every_boundary():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.BOUNDARIES)
        assert tracer.absent == []
    finally:
        tracer.uninstall()
