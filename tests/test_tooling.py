"""The benchmark's traced run (``perfbench/tracer.py``) still finds what it wraps."""

import importlib.util
from pathlib import Path

from opucgems.lab import SequenceFamily, convergence_study
from opucgems.trig import CriticalPoints

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{prefix}: {owner.__name__}.{attr}"
               for prefix, targets in tracer.TARGETS.items()
               for owner, attr in targets if attr not in owner.__dict__]
    assert not missing


def test_tracer_sees_one_trace_route_call_per_schedule_point():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    schedule = (10, 20, 40)
    with module.Tracer() as tracer:
        convergence_study(SequenceFamily.power_decay(0.3, 1.0),
                          CriticalPoints.from_pairs([(0.0, 2)]), schedule)
    assert tracer.calls["opuc.ggt_matrix"] == len(schedule)
    assert tracer.calls["opuc.trace_v"] == len(schedule)
    # every route reads slices of the study's one coefficient array
    assert tracer.calls["opuc.head"] == 1


def test_tracer_sees_one_site_route_compile_per_study():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    schedule = (10, 20, 40)
    points = CriticalPoints.from_pairs([(0.3, 2), (1.2, 1)])
    with module.Tracer() as tracer:
        convergence_study(SequenceFamily.power_decay(0.3, 1.0), points, schedule)
    # the benchmark's per-point clock marks each return of lab.site_functional
    assert tracer.calls["algmodel.site_functional"] == len(schedule)
    assert tracer.calls["algmodel.site_poly"] == points.degree


def test_tracer_sees_one_weight_build_per_study():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with module.Tracer() as tracer:
        convergence_study(SequenceFamily.power_decay(0.3, 1.0),
                          CriticalPoints.from_pairs([(0.3, 2), (1.2, 1)]), (10, 20, 40))
    # the trace route and the site route share one exact weight
    assert tracer.calls["trig.build_h"] == 1
