"""The benchmark (``perfbench/``) still finds what its workloads call and its tracer
wraps, and the package imports nothing beyond the standard library and numpy."""

import ast
import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

from opucgems import lab
from opucgems.lab import SequenceFamily, convergence_study
from opucgems.trig import CriticalPoints

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "opucgems"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS_PY = PERFBENCH / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_one_tiny_pass(name):
    # the calls each benchmark workload makes into the package still exist and pass
    result = WORKLOADS[name](seed=1, reference=REFERENCE, tiny=True).run_pass()
    assert result.attempted > 0
    assert result.failures == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_one_traced_tiny_pass(name):
    # a traced pass rebinds the wrapped names; the workload must still pass
    # and the tracer must report its per-layer metrics
    workload = WORKLOADS[name](seed=1, reference=REFERENCE, tiny=True)
    with load_tracer().Tracer() as tracer:
        start = time.perf_counter()
        result = workload.run_pass()
        metrics = tracer.metrics(time.perf_counter() - start)
    assert result.attempted > 0
    assert result.failures == []
    if name == "verify-routes":
        for layer in ("algmodel.g2k_trace_scaled", "algmodel.g2k_hl_scaled_dd",
                      "algmodel.g2k_hl_scaled_hom", "laurent.exact_div",
                      "laurent.divided_diff"):
            assert metrics[f"{layer}.calls"] > 0


def test_tracer_targets_exist():
    tracer = load_tracer()
    missing = [f"{prefix}: {owner.__name__}.{attr}"
               for prefix, targets in tracer.TARGETS.items()
               for owner, attr in targets if attr not in owner.__dict__]
    assert not missing


def test_tracer_sees_one_trace_route_call_per_schedule_point():
    module = load_tracer()
    schedule = (10, 20, 40)
    with module.Tracer() as tracer:
        convergence_study(SequenceFamily.power_decay(0.3, 1.0),
                          CriticalPoints.from_pairs([(0.0, 2)]), schedule)
    assert tracer.calls["opuc.ggt_matrix"] == len(schedule)
    assert tracer.calls["opuc.trace_v"] == len(schedule)
    # every route reads slices of the study's one coefficient array
    assert tracer.calls["opuc.head"] == 1


def test_tracer_sees_one_site_route_compile_per_study(monkeypatch):
    module = load_tracer()
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
    module = load_tracer()
    with module.Tracer() as tracer:
        convergence_study(SequenceFamily.power_decay(0.3, 1.0),
                          CriticalPoints.from_pairs([(0.3, 2), (1.2, 1)]), (10, 20, 40))
    # the trace route and the site route share one exact weight
    assert tracer.calls["trig.build_h"] == 1


@pytest.mark.parametrize("stored", ["finiteSupport", "file"])
def test_tracer_sees_one_head_call_per_stored_values_study(tmp_path, stored):
    # stored values are checked as they are stored, not by a head call
    values = [[0.3, 0.0], [0.2, -0.1]]
    if stored == "file":
        path = tmp_path / "alphas.json"
        path.write_text(json.dumps(values))
        family = SequenceFamily.from_file(str(path))
    else:
        family = SequenceFamily.finite_support([complex(*v) for v in values])
    with load_tracer().Tracer() as tracer:
        convergence_study(family, CriticalPoints.from_pairs([(0.0, 2)]), (10, 20, 40))
    assert tracer.calls["opuc.head"] == 1


def test_runtime_dependency_stays_numpy_only():
    allowed = set(sys.stdlib_module_names) | {"numpy", "opucgems"}
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue  # not an import, or a relative one from the package
            outside += [f"{path.name}:{node.lineno} {root}" for root in roots
                        if root not in allowed]
    assert not outside
