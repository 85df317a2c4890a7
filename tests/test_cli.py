"""Command-line surface: records, exit codes, determinism."""

import json
import math

import pytest

from opucgems import lab
from opucgems.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    return code, records, captured.err


def test_enum_d_prints_tuples(capsys):
    code, records, _ = run_cli(capsys, "enum-d", "--k", "2", "--l", "2")
    assert code == 0
    tuples = [r["tuple"] for r in records if "tuple" in r]
    assert tuples == [[0, 0, -1, 1], [0, 1, 0, 1], [0, 2, 1, 1]]
    assert records[-1]["count"] == 3


def test_enum_d_rejects_bad_input(capsys):
    code, _, err = run_cli(capsys, "enum-d", "--k", "0", "--l", "2")
    assert code == 2 and "enum-d" in err


def test_dump_g2k_szego_case(capsys):
    code, records, _ = run_cli(capsys, "dump-g2k", "--k", "1", "--d", "1",
                               "--theta", "0")
    assert code == 0
    assert records[0]["g2k"] == "(-1/2+0*i)*y1^1 + (-1/2+0*i)*x1^1"


def test_dump_g2k_generic(capsys):
    code, records, _ = run_cli(capsys, "dump-g2k", "--k", "1", "--d", "1")
    assert code == 0
    assert records[0]["g2k"] == \
        "(-1/2+0*i)*y1^1*z1^-1 + (-1/2+0*i)*x1^1*z1^1"


def test_dump_g2k_second_order(capsys):
    # h = (1/4, -1, 3/2, -1, 1/4), Z_H = 3/2:
    # G'_2 = -(2/3)(x1 + y1) + (x1^2 + y1^2)/6
    code, records, _ = run_cli(capsys, "dump-g2k", "--k", "1", "--d", "2",
                               "--theta", "0")
    assert code == 0
    assert records[0]["g2k"] == ("(-2/3+0*i)*y1^1 + (1/6+0*i)*y1^2 + "
                                 "(-2/3+0*i)*x1^1 + (1/6+0*i)*x1^2")


def test_dump_g2k_rejects_non_quarter_angle(capsys):
    code, _, _ = run_cli(capsys, "dump-g2k", "--k", "1", "--d", "1",
                         "--theta", "1/3")
    assert code == 2


def test_verify_small_suite_passes(capsys):
    code, records, err = run_cli(capsys, "verify", "--kmax", "1", "--dmax", "1")
    assert code == 0
    assert len(records) >= 10
    assert all(r["status"] == "pass" for r in records)
    assert "cases passed" in err


def test_verify_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--kmax", "1", "--dmax", "1")
    _, second, _ = run_cli(capsys, "verify", "--kmax", "1", "--dmax", "1")
    assert first == second


def test_verify_flags_constant_sign(capsys):
    _, records, _ = run_cli(capsys, "verify", "--kmax", "1", "--dmax", "1")
    constant_cases = [r for r in records if r["case"].startswith("constant-sum")]
    assert len(constant_cases) == 5
    assert all("signNote" in r for r in constant_cases)


def test_gem_missing_config_is_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "gem", "--config", str(tmp_path / "none.json"))
    assert code == 2 and "gem" in err


def test_gem_study_round_trip(capsys, tmp_path):
    config = {
        "family": {"name": "finiteSupport", "values": [[0.4, 0.0], [0.0, 0.2]]},
        "criticalPoints": [{"thetaOverPi": 0.0, "m": 1}],
        "schedule": [10, 20, 40],
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config))
    csv_path = tmp_path / "study.csv"
    code, records, err = run_cli(capsys, "gem", "--config", str(path),
                                 "--csv", str(csv_path))
    assert code == 0
    report = records[0]
    assert report["verdict"] == "bounded"
    assert report["schedule"] == [10, 20, 40]
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("N,traceRoute")
    assert len(lines) == 4


def test_szego_check_runs(capsys, tmp_path):
    path = tmp_path / "alphas.json"
    path.write_text(json.dumps([[0.5, 0.0], [-0.2, 0.3]]))
    code, records, _ = run_cli(capsys, "szego-check", "--alphas", str(path))
    assert code == 0
    assert records[0]["status"] == "pass"
    assert records[0]["diff"] <= 1e-8


def test_szego_check_bad_file(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "szego-check", "--alphas",
                         str(tmp_path / "nope.json"))
    assert code == 2


def test_unknown_flag_is_input_error(capsys):
    assert main(["verify", "--bogus"]) == 2


GOOD_GEM = {
    "family": {"name": "finiteSupport", "values": [[0.4, 0.0], [0.0, 0.2]]},
    "criticalPoints": [{"thetaOverPi": 0.0, "m": 1}],
    "schedule": [10, 20],
}

REAL_STUDY = lab.convergence_study


def nan_slope_study(*args):
    """A study whose report holds a non-finite value."""
    report = REAL_STUDY(*args)
    report.slope = math.nan
    return report


def study_must_not_run(*args):
    """Stands in for the study where input must be rejected before it."""
    raise AssertionError("convergence_study ran on malformed input")


# (command, input data, replacement for lab.convergence_study or None)
MALFORMED = [
    ("gem", {"family": {"name": "finiteSupport", "values": [[math.nan, 0.0]]}}, None),
    ("gem", {"criticalPoints": [{"thetaOverPi": "abc", "m": 1}]}, None),
    ("gem", {"family": {"name": "powerDecay", "c": "zz", "gamma": 1.0}}, None),
    ("gem", {"schedule": [10, "x"]}, None),
    ("gem", {"criticalPoints": [{"thetaOverPi": 0.0, "m": 3}], "schedule": [2, 20]},
     None),
    ("szego-check", [[math.nan, 0.0]], None),
    ("gem", {}, nan_slope_study),
    ("gem", {"family": {"name": "powerDecay", "c": 0.3, "gamma": -2000}}, None),
    ("gem", {"family": {"name": "powerDecay", "c": 0.3, "gamma": 1e300}}, None),
    ("gem", {"criticalPoints": {"thetaOverPi": 0.0, "m": 1}}, study_must_not_run),
    ("gem", {"criticalPoints": [{"thetaOverPi": 0.0, "m": 1.5}]}, study_must_not_run),
    ("gem", {"criticalPoints": [{"thetaOverPi": math.nan, "m": 1}]}, study_must_not_run),
]


@pytest.mark.parametrize("command,data,study", MALFORMED, ids=[
    "gem-nan-value", "gem-angle-text", "gem-c-text", "gem-schedule-text",
    "gem-schedule-below-degree", "szego-nan-value", "gem-nan-report",
    "gem-gamma-underflow", "gem-gamma-overflow", "gem-points-object",
    "gem-multiplicity-fraction", "gem-angle-nan"])
def test_malformed_input_exits_2_with_one_line(capsys, tmp_path, monkeypatch,
                                               command, data, study):
    if study is not None:
        monkeypatch.setattr(lab, "convergence_study", study)
    path = tmp_path / "input.json"
    if command == "gem":
        path.write_text(json.dumps({**GOOD_GEM, **data}))
        argv = ["gem", "--config", str(path)]
    else:
        path.write_text(json.dumps(data))
        argv = ["szego-check", "--alphas", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{command}: ")
