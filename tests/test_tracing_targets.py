"""The benchmark tracer's targets must name functions that exist.

perfbench/tracing.py wraps qstrength functions by dotted path; a refactor that
renames or removes one should fail here, not only in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracer_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for path, _ in tracing.TARGETS:
        head, *rest = path.split(".")
        owner = importlib.import_module(f"qstrength.{head}")
        for part in rest:
            owner = getattr(owner, part)
        assert callable(owner), path
