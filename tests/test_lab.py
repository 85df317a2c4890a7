"""Sequence families, diagnostics, the classifier and report formats."""

import cmath
import json
import math
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from opucgems import lab
from opucgems.algmodel import site_functional, site_route
from opucgems.lab import (
    DEFAULT_SCHEDULE,
    LabError,
    SequenceFamily,
    classify_values,
    condition_diagnostics,
    convergence_study,
    export_report,
    shifted_difference,
)
from opucgems.opuc import OpucError, VerblunskySeq, log_term, trace_v
from opucgems.trig import CriticalPoints, build_h


def szego_points():
    return CriticalPoints.from_pairs([(0.0, 1)])


# -- families ---------------------------------------------------------------------


def test_power_decay_family_values():
    fam = SequenceFamily.power_decay(0.3, 0.4)
    head = fam.sequence().head(8)
    assert abs(head[0] - 0.3) <= 1e-15
    assert abs(head[7] - 0.3 / 8 ** 0.4) <= 1e-15


def test_rotating_constant_family_values():
    fam = SequenceFamily.constant(0.5, phase=0.7)
    head = fam.sequence().head(4)
    assert abs(head[3] - 0.5 * np.exp(-1j * 2.1)) <= 1e-15


def test_family_json_round_trip():
    fam = SequenceFamily.finite_support([0.1 + 0.2j, -0.3])
    again = SequenceFamily.from_json(fam.to_json())
    assert again == fam
    assert again.sequence().head(2)[1] == -0.3 + 0.0j


def test_family_rejects_large_modulus():
    with pytest.raises(LabError):
        SequenceFamily.constant(1.2).sequence()


def test_file_family_reads_pairs(tmp_path):
    path = tmp_path / "alphas.json"
    path.write_text(json.dumps([[0.1, 0.2], [-0.3, 0.0]]))
    fam = SequenceFamily.from_file(str(path))
    seq = fam.sequence()
    assert list(seq.head(2)) == [0.1 + 0.2j, -0.3 + 0.0j]
    assert seq.support == 2
    with pytest.raises(LabError):
        SequenceFamily.from_file(str(tmp_path / "missing.json")).sequence()


# -- the coefficient path against a per-index oracle -----------------------------


def per_index_fn(family):
    """alpha_k one index at a time, by the scalar ``cmath`` closed forms."""
    params = family.params
    if family.name in ("powerDecay", "constant"):
        c = complex(params["c"])
        phase = float(params.get("phase", 0.0))
        if family.name == "constant":
            return lambda k: c * cmath.exp(-1j * phase * k)
        gamma = float(params["gamma"])
        return lambda k: c * cmath.exp(-1j * phase * k) / (k + 1) ** gamma
    if family.name == "file":
        pairs = json.loads(Path(params["path"]).read_text())
    else:
        pairs = params["values"]
    values = [complex(re, im) for re, im in pairs]
    return lambda k: values[k] if k < len(values) else 0.0 + 0.0j


def per_index_head(family, n):
    fn = per_index_fn(family)
    return np.array([fn(k) for k in range(n)], dtype=complex)


class PerIndexFamily(SequenceFamily):
    """The same family, its generator producing one index at a time."""

    def sequence(self):
        fn = per_index_fn(self)
        return VerblunskySeq(lambda m: np.array([fn(int(k)) for k in m], dtype=complex))


@st.composite
def families(draw):
    kind = draw(st.sampled_from(["powerDecay", "constant", "finiteSupport"]))
    # |c| stays well above the subnormals, where a relative bound says
    # nothing about the last bit
    c = draw(st.complex_numbers(min_magnitude=1e-6, max_magnitude=0.95))
    phase = draw(st.floats(-1e3, 1e3))
    if kind == "powerDecay":
        return SequenceFamily.power_decay(c, draw(st.floats(0.0, 3.0)), phase)
    if kind == "constant":
        return SequenceFamily.constant(c, phase)
    return SequenceFamily.finite_support(
        draw(st.lists(st.complex_numbers(max_magnitude=0.95), max_size=40)))


@settings(max_examples=60, deadline=None)
@given(family=families(), n=st.integers(0, 2000), as_file=st.booleans())
def test_head_equals_per_index_oracle(family, n, as_file):
    with tempfile.TemporaryDirectory() as tmp:
        if as_file and family.name == "finiteSupport":
            path = Path(tmp) / "alphas.json"
            path.write_text(json.dumps(family.params["values"]))
            family = SequenceFamily.from_file(str(path))
        seq = family.sequence()
        got = seq.head(n)
        want = per_index_head(family, n)
    if family.name == "powerDecay":
        # numpy's pow and complex division may differ from CPython's in the last bit
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    else:
        assert got.tobytes() == want.tobytes()


ONE_POINT = CriticalPoints.from_pairs([(0.3, 1)])
ONE_POINT_ROUTE = site_route(build_h(ONE_POINT))
# the look-ahead of a study's one head past its largest N
ONE_POINT_LOOK_AHEAD = max(ONE_POINT_ROUTE.max_shift + 1, ONE_POINT.degree)


def given_family(seq):
    """A family whose sequence is ``seq``, to run a study on hand-made coefficients."""
    class Given(SequenceFamily):
        def sequence(self):
            return seq
    return Given("given", {})


def must_not_run(*args):
    raise AssertionError("ran on input that must be rejected before it")


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 300), at=st.integers(0, 399),
       bad=st.sampled_from([1.0, -1.0, 1j, 1.5, 0.8 + 0.8j, math.nan,
                            complex(0.0, math.nan)]))
@example(n=50, at=50 + ONE_POINT_LOOK_AHEAD - 1, bad=1.0)
def test_a_bad_coefficient_is_rejected_by_head(n, at, bad):
    # any index in [0, N_max + L) is read, the look-ahead past N_max included
    at %= n + ONE_POINT_LOOK_AHEAD
    seq = VerblunskySeq(lambda m: np.where(m == at, bad, 0.3 * np.exp(-0.5j * m)))
    with pytest.raises(OpucError):
        seq.head(n + ONE_POINT_LOOK_AHEAD)
    with pytest.MonkeyPatch.context() as patch:
        for name in ("trace_v", "log_term", "site_functional", "condition_diagnostics"):
            patch.setattr(lab, name, must_not_run)
        # at N = 1 = d the schedule is rejected first, before head reads anything
        with pytest.raises(OpucError if n > ONE_POINT.degree else LabError):
            convergence_study(given_family(seq), ONE_POINT, [n])
    with pytest.raises(OpucError):
        VerblunskySeq.from_values([0.3] * at + [bad])


def test_a_bad_coefficient_past_the_look_ahead_is_not_read():
    n = 50
    at = n + ONE_POINT_LOOK_AHEAD
    seq = VerblunskySeq(lambda m: np.where(m == at, 1.5, 0.3 * np.exp(-0.5j * m)))
    report = convergence_study(given_family(seq), ONE_POINT, [n])
    assert all(math.isfinite(v) for v in report.trace_values + report.site_values)


# a non-finite parameter is rejected sooner, when the sequence is built
@pytest.mark.parametrize("family,error", [
    (SequenceFamily.power_decay(0.9, -0.5), OpucError),
    (SequenceFamily.power_decay(0.3, 1.0, phase=math.nan), LabError),
    (SequenceFamily.constant(0.3, phase=math.nan), LabError),
], ids=["growing", "nan-phase", "constant-nan-phase"])
def test_a_bad_family_is_rejected_by_head(family, error):
    with pytest.raises(error):
        family.sequence().head(10)
    with pytest.raises(error):
        convergence_study(family, ONE_POINT, [10])


@pytest.mark.parametrize("params", [
    {"c": math.nan, "gamma": 1.0}, {"c": complex(0.1, math.inf), "gamma": 1.0},
    {"c": 0.3, "gamma": math.nan}, {"c": 0.3, "gamma": -math.inf},
    {"c": 0.3, "gamma": 1.0, "phase": math.inf},
])
def test_non_finite_parameters_are_named(params):
    name = next(key for key, value in params.items() if not cmath.isfinite(value))
    with pytest.raises(LabError, match=f"parameter {name} must be finite"):
        SequenceFamily("powerDecay", params).sequence()


# the boolean and misspelled-key cases of the gem command are rows of
# tests/test_cli.py::MALFORMED; these are the other families' key sets
@pytest.mark.parametrize("name,params,message", [
    ("powerDecay", {"c": 0.3, "gamma": 1.0, "values": []}, "no parameter 'values'"),
    ("finiteSupport", {"values": [], "path": "x.json"}, "no parameter 'path'"),
    ("file", {"path": "x.json", "c": 0.3}, "no parameter 'c'"),
    ("constat", {"c": 0.3}, "unknown family 'constat'"),
])
def test_family_rejects_unknown_keys(name, params, message):
    with pytest.raises(LabError, match=message):
        SequenceFamily(name, params).sequence()


def test_file_family_rejects_boolean_values(tmp_path):
    path = tmp_path / "alphas.json"
    path.write_text(json.dumps([[0.1, 0.2], [0.3, True]]))
    with pytest.raises(LabError, match="file value must be a number"):
        SequenceFamily.from_file(str(path)).sequence()


def relative_gaps(got, want):
    return [abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, want)]


def test_study_equals_per_index_oracle():
    family = SequenceFamily.power_decay(0.4, 0.9, phase=0.37)
    points = CriticalPoints.from_pairs([(0.3, 3), (1.1, 2)])
    schedule = (50, 100, 200, 400, 800)
    got = convergence_study(family, points, schedule)
    want = convergence_study(PerIndexFamily(family.name, family.params), points, schedule)
    for field in ("trace_values", "site_values", "log_sums"):
        assert max(relative_gaps(getattr(got, field), getattr(want, field))) <= 1e-12
    got_diag, want_diag = got.diagnostics, want.diagnostics
    assert got_diag["power_sums"].keys() == want_diag["power_sums"].keys()
    assert max(relative_gaps(
        [got_diag[key] for key in ("difference_l2_sq", "l2", "l4")]
        + list(got_diag["power_sums"].values()),
        [want_diag[key] for key in ("difference_l2_sq", "l2", "l4")]
        + list(want_diag["power_sums"].values()))) <= 1e-12
    assert got.verdict == want.verdict


@st.composite
def study_points(draw):
    """Critical points of degree d <= 4 at one or two float angles."""
    d = draw(st.integers(1, 4))
    if d == 1 or draw(st.booleans()):
        mults = [d]
    else:
        first = draw(st.integers(1, d - 1))
        mults = [first, d - first]
    # angles over pi, from disjoint ranges so that they stay distinct
    angles = [draw(st.floats(lo, lo + 0.9)) for lo in (0.0, 1.0)[:len(mults)]]
    return CriticalPoints.from_pairs(list(zip(angles, mults)))


def head_per_consumer_study(family, points, schedule):
    """A study's routes, log sums and diagnostics with a fresh ``head`` per
    consumer and point, each as long as that consumer reads."""
    alpha = family.sequence()
    h = build_h(points)
    route = site_route(h)
    trace_values, site_values, log_sums = [], [], []
    for n in schedule:
        log_sum = log_term(alpha.head(n))
        trace_values.append(float(trace_v(alpha.head(n), h, 0, n) - log_sum))
        site_head = alpha.head(n + route.max_shift + 1)
        site_values.append(float(site_functional(site_head, n, route)))
        log_sums.append(float(log_sum))
    n = schedule[-1]
    diagnostics = condition_diagnostics(alpha.head(n + points.degree), points, n)
    return trace_values, site_values, log_sums, diagnostics


# two double points: a program whose block of sites is narrower than the
# drawn schedules reach
NARROW_POINTS = CriticalPoints.from_pairs([(0.3, 2), (1.2, 2)])
NARROW_BLOCK = site_route(build_h(NARROW_POINTS)).block


@settings(max_examples=25, deadline=None)
@given(family=families(), points=study_points(),
       schedule=st.sets(st.integers(1, 300), min_size=1, max_size=4).map(sorted))
# adjacent points, one point, and segments that end at and cross block edges
@example(SequenceFamily.power_decay(0.5, 0.6, 0.3), CriticalPoints.from_pairs([(0.0, 2)]),
         [37, 38, 39])
@example(SequenceFamily.constant(0.5), CriticalPoints.from_pairs([(0.0, 2)]), [300])
@example(SequenceFamily.power_decay(0.4, 0.2, 1.1), NARROW_POINTS,
         [NARROW_BLOCK - 1, NARROW_BLOCK + 1, 2 * NARROW_BLOCK + 5])
def test_one_head_study_equals_a_head_per_consumer(family, points, schedule):
    assume(schedule[0] > points.degree)
    report = convergence_study(family, points, schedule).to_json()
    trace_values, site_values, log_sums, diagnostics = head_per_consumer_study(
        family, points, schedule)
    assert report["logTermSums"] == log_sums
    assert report["diagnostics"] == diagnostics
    # the study sums both routes segment by segment, the oracle from site 0
    assert max(relative_gaps(report["traceRoute"], trace_values)) <= 1e-12
    assert max(relative_gaps(report["corollaryRoute"], site_values)) <= 1e-12


def test_red_case_study_equals_per_index_oracle_exactly():
    family = SequenceFamily.constant(0.5)
    points = CriticalPoints.from_pairs([(0.0, 2)])
    got = convergence_study(family, points)
    want = convergence_study(PerIndexFamily(family.name, family.params), points)
    for fmt in ("json", "csv"):
        assert export_report(got, fmt) == export_report(want, fmt)


# -- diagnostics -------------------------------------------------------------------


def test_diagnostics_zero_sequence():
    d = condition_diagnostics(VerblunskySeq.from_values([]).head(41), szego_points(), 40)
    assert d["difference_l2_sq"] == 0.0
    assert d["l2"] == 0.0 and d["l4"] == 0.0
    assert all(v == 0.0 for v in d["power_sums"].values())


def test_diagnostics_rotating_constant_telescopes():
    # alpha_n = c e^{-i theta n}: (S - e^{-i theta}) alpha = 0 exactly,
    # while the power sums grow linearly
    theta = 0.6
    fam = SequenceFamily.constant(0.5, phase=theta * math.pi)
    pts = CriticalPoints.from_pairs([(theta, 1)])
    n = 150
    d = condition_diagnostics(fam.sequence().head(n + pts.degree), pts, n)
    assert d["difference_l2_sq"] <= 1e-24
    assert abs(d["power_sums"]["1"] - 0.5 ** 4 * n) <= 1e-10


def test_diagnostics_power_decay_pattern():
    # c/(n+1)^0.4: the difference and l4 sums converge, l2 diverges
    fam = SequenceFamily.power_decay(0.3, 0.4)
    pts = szego_points()
    head = fam.sequence().head(3200 + pts.degree)
    d_small = condition_diagnostics(head, pts, 400)
    d_large = condition_diagnostics(head, pts, 3200)
    assert d_large["difference_l2_sq"] - d_small["difference_l2_sq"] <= 1e-3
    assert d_large["l4"] - d_small["l4"] <= 2e-2
    # l2 partial sums keep growing like n^0.2
    assert d_large["l2"] - d_small["l2"] >= 0.3


def test_shifted_difference_composes():
    pts = CriticalPoints.from_pairs([(0.0, 2)])
    values = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    out = shifted_difference(values, pts)
    assert np.allclose(out, [1.0, 2.0, 4.0])  # second difference of powers of 2


# -- classifier --------------------------------------------------------------------


def test_classifier_flat_is_bounded():
    verdict, slope, rng_ = classify_values([50, 100, 200, 400], [1.0, 1.0, 1.0, 1.0])
    assert verdict == "bounded" and abs(slope) <= 1e-12


def test_classifier_linear_growth_diverges():
    schedule = [50, 100, 200, 400]
    values = [0.05 * n for n in schedule]
    verdict, slope, _ = classify_values(schedule, values)
    assert verdict == "diverging" and slope >= 0.01


def test_classifier_slow_drift_inconclusive():
    schedule = [50, 100, 200, 400]
    values = [0.002 * n for n in schedule]
    verdict, _, _ = classify_values(schedule, values)
    assert verdict == "inconclusive"


@pytest.mark.parametrize("schedule,values", [([100], [5.0]), ([50, 100], [1.0, 2.0])],
                         ids=["one-point", "two-points"])
def test_classifier_one_point_window_is_inconclusive(schedule, values):
    # the top half of a one- or two-point schedule holds one point, which
    # shows no trend: neither bounded nor diverging
    assert classify_values(schedule, values) == ("inconclusive", 0.0, 0.0)


# -- convergence studies ------------------------------------------------------------


def test_finite_support_study_is_bounded():
    fam = SequenceFamily.finite_support([0.4, -0.2 + 0.3j, 0.1j])
    report = convergence_study(fam, szego_points(), schedule=(20, 40, 80, 160))
    assert report.verdict == "bounded"
    # exact stabilization beyond the support
    assert abs(report.trace_values[-1] - report.trace_values[-2]) <= 1e-12
    assert abs(report.site_values[-1] - report.site_values[-2]) <= 1e-12


def test_constant_family_study_diverges():
    fam = SequenceFamily.constant(0.5)
    report = convergence_study(fam, szego_points(), schedule=(50, 100, 200, 400))
    assert report.verdict == "diverging"
    assert report.slope >= 0.01


def test_routes_differ_by_bounded_sequence():
    fam = SequenceFamily.power_decay(0.4, 0.6)
    report = convergence_study(fam, szego_points(),
                               schedule=(50, 75, 100, 150, 200, 300, 400))
    diffs = [t - s for t, s in zip(report.trace_values, report.site_values)]
    early = [d for n, d in zip(report.schedule, diffs) if 50 <= n <= 100]
    late = diffs
    early_range = max(early) - min(early)
    late_range = max(late) - min(late)
    assert late_range <= 10 * early_range + 1e-9


def test_max_n_schedule_is_reachable():
    # the trace route reads only the band of the GGT corner, so the default
    # max_n = 20000 is a real limit; the slope is the red case's closed form
    fam = SequenceFamily.constant(0.5)
    points = CriticalPoints.from_pairs([(Fraction(0), 2)])
    start = time.perf_counter()
    report = convergence_study(fam, points, schedule=(2500, 5000, 10000, 20000))
    elapsed = time.perf_counter() - start
    rate = sum(0.25 ** k / k for k in range(3, 200))
    assert elapsed < 30.0
    assert math.isclose(report.slope, rate, rel_tol=1e-9)


def test_schedule_must_increase():
    fam = SequenceFamily.constant(0.1)
    with pytest.raises(LabError):
        convergence_study(fam, szego_points(), schedule=(100, 50))


@pytest.mark.parametrize("schedule", [
    [], (), [10.5, 20], [True, 5], [0, 10], [-5, 10], "ab", 5, [10, 10], [10, 20001],
], ids=["empty", "empty-tuple", "fraction", "bool", "zero", "negative", "text",
        "number", "repeated", "over-max-n"])
def test_schedule_is_checked_before_the_study(schedule):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lab, "build_h", must_not_run)
        with pytest.raises(LabError):
            convergence_study(SequenceFamily.constant(0.1), szego_points(), schedule)


# -- report export -------------------------------------------------------------------


def study_report():
    fam = SequenceFamily.finite_support([0.3])
    return convergence_study(fam, szego_points(), schedule=(10, 20))


def test_csv_export_columns():
    report = study_report()
    lines = export_report(report, "csv").decode().splitlines()
    assert lines[0] == "N,traceRoute,corollaryRoute,logTermSum,diffNorm,verdict"
    assert len(lines) == 3
    assert lines[1].startswith("10,") and lines[2].startswith("20,")


def test_csv_empty_schedule_is_header_only():
    report = study_report()
    report.schedule = []
    lines = export_report(report, "csv").decode().splitlines()
    assert lines == ["N,traceRoute,corollaryRoute,logTermSum,diffNorm,verdict"]


def test_json_round_trip_identity():
    report = study_report()
    assert json.loads(export_report(report, "json")) == report.to_json()


def test_default_schedule_shape():
    assert DEFAULT_SCHEDULE == (50, 100, 200, 400, 800, 1600)
