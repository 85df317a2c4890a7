"""The benchmark's traced run (``perfbench/tracer.py``) still finds what it wraps."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{prefix}: {owner.__name__}.{attr}"
               for prefix, targets in tracer.TARGETS.items()
               for owner, attr in targets if attr not in owner.__dict__]
    assert not missing
