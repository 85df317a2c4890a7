"""Sequence families, diagnostics, the classifier and report formats."""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from opucgems.lab import (
    DEFAULT_SCHEDULE,
    GemReport,
    LabError,
    SequenceFamily,
    classify_values,
    condition_diagnostics,
    convergence_study,
    export_report,
    shifted_difference,
)
from opucgems.opuc import VerblunskySeq
from opucgems.trig import CriticalPoints


def szego_points():
    return CriticalPoints.from_pairs([(0.0, 1)])


# -- families ---------------------------------------------------------------------


def test_power_decay_family_values():
    fam = SequenceFamily.power_decay(0.3, 0.4)
    seq = fam.sequence()
    assert abs(seq(0) - 0.3) <= 1e-15
    assert abs(seq(7) - 0.3 / 8 ** 0.4) <= 1e-15


def test_rotating_constant_family_values():
    fam = SequenceFamily.constant(0.5, phase=0.7)
    seq = fam.sequence()
    assert abs(seq(3) - 0.5 * np.exp(-1j * 2.1)) <= 1e-15


def test_family_json_round_trip():
    fam = SequenceFamily.finite_support([0.1 + 0.2j, -0.3])
    again = SequenceFamily.from_json(fam.to_json())
    assert again == fam
    assert again.sequence()(1) == -0.3 + 0.0j


def test_family_rejects_large_modulus():
    with pytest.raises(LabError):
        SequenceFamily.constant(1.2).sequence()


def test_file_family_reads_pairs(tmp_path):
    path = tmp_path / "alphas.json"
    path.write_text(json.dumps([[0.1, 0.2], [-0.3, 0.0]]))
    fam = SequenceFamily.from_file(str(path))
    seq = fam.sequence()
    assert seq(0) == 0.1 + 0.2j and seq(1) == -0.3 + 0.0j
    assert seq.support == 2
    with pytest.raises(LabError):
        SequenceFamily.from_file(str(tmp_path / "missing.json")).sequence()


# -- diagnostics -------------------------------------------------------------------


def test_diagnostics_zero_sequence():
    d = condition_diagnostics(VerblunskySeq.from_values([]), szego_points(), 40)
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
    d = condition_diagnostics(fam.sequence(), pts, n)
    assert d["difference_l2_sq"] <= 1e-24
    assert abs(d["power_sums"]["1"] - 0.5 ** 4 * n) <= 1e-10


def test_diagnostics_power_decay_pattern():
    # c/(n+1)^0.4: the difference and l4 sums converge, l2 diverges
    fam = SequenceFamily.power_decay(0.3, 0.4)
    pts = szego_points()
    d_small = condition_diagnostics(fam.sequence(), pts, 400)
    d_large = condition_diagnostics(fam.sequence(), pts, 3200)
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
    again = GemReport.from_json(json.loads(export_report(report, "json")))
    assert again == report


def test_default_schedule_shape():
    assert DEFAULT_SCHEDULE == (50, 100, 200, 400, 800, 1600)
