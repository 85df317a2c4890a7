"""The benchmark (``perfbench/``) still finds what its workloads call and its tracer wraps."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from opucgems import lab
from opucgems.lab import SequenceFamily, convergence_study
from opucgems.trig import CriticalPoints

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS_PY = PERFBENCH / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_one_tiny_pass(name):
    # the calls each benchmark workload makes into the package still exist and pass
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    result = WORKLOADS[name](seed=1, reference=reference, tiny=True).run_pass()
    assert result.attempted > 0
    assert result.failures == []


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


def test_tracer_sees_one_site_route_compile_per_study(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    schedule = (10, 20, 40)
    points = CriticalPoints.from_pairs([(0.3, 2), (1.2, 1)])
    compiles = []
    site_route = lab.site_route

    def counted(h):
        compiles.append(h)
        return site_route(h)

    monkeypatch.setattr(lab, "site_route", counted)
    with module.Tracer() as tracer:
        convergence_study(SequenceFamily.power_decay(0.3, 1.0), points, schedule)
    # the benchmark's per-point clock marks each return of lab.site_functional
    assert tracer.calls["algmodel.site_functional"] == len(schedule)
    # each point evaluates only the sites above the previous point
    assert tracer.counts["algmodel.site_functional.sites"] == schedule[-1]
    assert len(compiles) == 1


def test_tracer_sees_one_weight_build_per_study():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with module.Tracer() as tracer:
        convergence_study(SequenceFamily.power_decay(0.3, 1.0),
                          CriticalPoints.from_pairs([(0.3, 2), (1.2, 1)]), (10, 20, 40))
    # the trace route and the site route share one exact weight
    assert tracer.calls["trig.build_h"] == 1
