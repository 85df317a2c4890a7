"""Command-line surface: records, exit codes, determinism."""

import hashlib
import json
import math
import os

import pytest

from opucgems import algmodel, cli, lab, laurent
from opucgems.cli import main
from opucgems.trig import CriticalPoints, build_h


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


@pytest.mark.parametrize("theta", ["1/3", "1/0"])
def test_dump_g2k_rejects_non_quarter_angle(capsys, theta):
    code = main(["dump-g2k", "--k", "1", "--d", "1", "--theta", theta])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dump-g2k: ")


def test_dump_g2k_points_a_non_quarter_angle_to_the_generic_symbol(capsys):
    # --theta is a Fraction, so the way to a generic angle is to leave it out
    code, records, err = run_cli(capsys, "dump-g2k", "--k", "1", "--d", "2",
                                 "--theta", "0.3")
    assert code == 2 and records == []
    assert err == ("dump-g2k: angle 3/10*pi has no Gaussian-rational unit; "
                   "omit --theta for a generic angle\n")


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


def test_verify_compares_each_route_identity_once(capsys, monkeypatch):
    # one generic K = 1 case per k at d = dmax weighs every power |l| <= dmax,
    # so each (route pair, k, l) is compared by exactly one case, and each
    # premise (k, n) that those powers need is evaluated once
    real = algmodel.parts_agree
    real_premise = algmodel.dd_premise
    compared, premises = [], []

    def recording(first, second, k, h):
        compared.extend((first, second, k, l)
                        for l, coeff in h.coeffs.items() if not coeff.is_zero)
        return real(first, second, k, h)

    def premise(k, n):
        premises.append((k, n))
        return real_premise(k, n)

    monkeypatch.setattr(algmodel, "parts_agree", recording)
    monkeypatch.setattr(algmodel, "dd_premise", premise)
    code, records, _ = run_cli(capsys, "verify", "--kmax", "3", "--dmax", "5")
    assert code == 0
    expected = [("trace", "hom", k, l) for k in range(1, 4) for l in range(-5, 6)]
    assert sorted(compared) == sorted(expected)
    # n = l - 1 and n = l + k - 1 for |l| <= 5
    assert sorted(premises) == [(k, n) for k in range(1, 4) for n in range(-6, k + 5)]
    routes = [r for r in records if r["case"].startswith("g2k-routes")]
    assert [r["k"] for r in routes] == [1, 2, 3]
    assert all(r["d"] == 5 for r in routes)


def hom_sums_top_step_broken(points, degree):
    """``hom_sums`` with one step broken: the running power of the first
    point skips its product at the top degree."""
    first, *rest = points
    rows = [first.table.one()]
    for m in range(1, degree + 1):
        rows.append(rows[m - 1] * (first if m < degree else first.table.one()))
    for point in rest:
        for m in range(1, degree + 1):
            rows[m] = rows[m] + point * rows[m - 1]
    return rows


def divided_diff_sign_flipped(points, power):
    """``divided_diff`` dividing by ``p_i - p_{i-j}`` at each of its levels:
    the opposite sign for an even number of points."""
    return laurent.divided_diff(points, power) * (-1) ** (len(points) - 1)


@pytest.mark.parametrize("name,mutant,broken", [
    ("divided_diff", divided_diff_sign_flipped, {2}),
    ("hom_sums", hom_sums_top_step_broken, {1, 2, 3})], ids=["divided_diff-sign", "hom_sums-step"])
def test_a_broken_premise_fails_verify_and_the_hl_build(capsys, monkeypatch, fresh_exact_caches,
                                                        name, mutant, broken):
    # a flipped sign cancels in the product of the two dd factors, so only
    # the premise sees it, at each even k
    monkeypatch.setattr(algmodel, name, mutant)
    code, records, _ = run_cli(capsys, "verify", "--kmax", "3", "--dmax", "5")
    assert code == 1
    routes = {r["k"]: r for r in records if r["case"].startswith("g2k-routes")}
    assert {k for k, r in routes.items() if r["routesEqual"] is False} == broken
    assert all(routes[k]["status"] == "fail" for k in broken)
    h = build_h(CriticalPoints.generic([3]), "exact")
    for k in broken:
        with pytest.raises(algmodel.ModelError, match="route disagreement"):
            algmodel.build_g2k_hl(k, h)


def hom_sums_zero(points, degree):
    """``hom_sums`` with every row zero."""
    return [points[0].table.zero()] * (degree + 1)


def divided_diff_not_divisible(points, power):
    raise laurent.NonDivisible("remainder left")


@pytest.mark.parametrize("name,mutant,message", [
    ("hom_sums", hom_sums_zero, "route disagreement for k=2, d=3"),
    ("divided_diff", divided_diff_not_divisible, "remainder left")], ids=["hom_sums", "divided_diff"])
def test_dump_g2k_reports_a_failed_identity_in_one_line(capsys, monkeypatch, fresh_exact_caches,
                                                       name, mutant, message):
    monkeypatch.setattr(algmodel, name, mutant)
    code = main(["dump-g2k", "--k", "2", "--d", "3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"dump-g2k: {message}\n"


def test_verify_and_dump_form_no_divided_difference_part(capsys, monkeypatch, fresh_exact_caches):
    # with the part cache empty, any divided-difference part a command needs
    # would be formed here
    calls = []
    real = algmodel._dd_product

    def recording(k, l):
        calls.append((k, l))
        return real(k, l)

    monkeypatch.setattr(algmodel, "_dd_product", recording)
    assert main(["verify", "--kmax", "3", "--dmax", "5"]) == 0
    assert main(["dump-g2k", "--k", "3", "--d", "4", "--theta", "1/2"]) == 0
    capsys.readouterr()
    assert calls == []


def test_every_routes_case_has_its_basis_relation():
    # routesEqual for l <= -k rests on the basis relation of k, which verify
    # checks as a case of its own
    for kmax in range(1, cli.MAX_RELATION_K + 1):
        for dmax in range(1, 12):
            cases = cli._verify_cases(kmax, dmax)
            routes = {params[0] for _, kind, params in cases if kind == "routes"}
            relations = {params[0] for _, kind, params in cases if kind == "relation"}
            assert routes and routes <= relations


# SHA-256 of the whole stdout, recorded with the Fraction-pair scalar and the
# max-scan division; guards every verify record (``comparedTerms`` included)
# and the dump-g2k normal forms against silent drift in the exact kernel.  The
# verify digests were recorded when verify came to keep one g2k-routes case
# per k, at d = dmax: each stdout is the one before with the other routes lines
# removed and every other line byte for byte the same.  The dump-g2k digests
# for k <= 3 are older; those for k = 4 and 5 were recorded while the route
# check still lifted each part.  All of them held when the divided-difference
# parts gave way to the premise of each power.
PINNED_STDOUT = [
    ("verify --kmax 2 --dmax 4",
     "74f94a611ee58d432db6f081262b4bbaf7b25a82699814affe9fc5bb8f6881ea"),
    ("verify --kmax 3 --dmax 6",
     "811c3ce82152eecc193a1bd229f39d156483229f7a321e3e2cfd58d1be7972c4"),
    ("verify --kmax 5 --dmax 8",
     "df8014c038df05fc74ff4ef29c6a0c2df84cd7e04a9dc3282a1de87c26ff9170"),
    ("dump-g2k --k 1 --d 3",
     "3da817de65c83def9cb6cc9aa5de178b08b46b0e9f63cfc8103eedf666398b38"),
    ("dump-g2k --k 2 --d 3",
     "92ab144b43356dcd687537cfd57002f033fecd88811ea109f9510fba286d358a"),
    ("dump-g2k --k 3 --d 3",
     "c049207922a52430cad5acbd69ed34395a583451280cf007bf8277bbb14d5986"),
    ("dump-g2k --k 1 --d 4 --theta 1/2",
     "befaf9ef90eebc64adbfa77453cc759b72d76b1d1de386909ed074b0a0f0f263"),
    ("dump-g2k --k 2 --d 4 --theta 1/2",
     "acf88c20e2158ad068ae738c952403a5b8c70e40050b4f180ddef2cdf9eb7aa4"),
    ("dump-g2k --k 3 --d 4 --theta 1/2",
     "4b2856bf4590166dcf7652da6499f4e48ae90b3f4c6edea08f17da68f0a4a471"),
    ("dump-g2k --k 4 --d 6 --theta 1",
     "790ae83772b0c9d32bd616a031fd9b6348a5fc8c57d53f3f00b4d1f887e5a75f"),
    ("dump-g2k --k 5 --d 7",
     "90f6e12d45bcaecbfde7387701b8963514551ebb111465261b430dc46eb6a759"),
]


@pytest.mark.parametrize("command,digest", PINNED_STDOUT,
                         ids=[command for command, _ in PINNED_STDOUT])
def test_stdout_digest_is_pinned(capsys, command, digest):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# each part set forms 2 * sum_{l=1}^{d} (index_tuple_count(k, l) + k*l) terms:
# 2 * (10 + 45 + 3*10) = 170 at (3, 4); verify (4, 4) adds k = 1, 2 and 4
# (28, 92 and 150) and the (4 + 1)^2 terms of its degree2-product case
@pytest.mark.parametrize("command,what,count", [
    ("dump-g2k --k 3 --d 4", "k=3, d=4", 170),
    ("verify --kmax 4 --dmax 4", "kmax=4, dmax=4", 28 + 92 + 170 + 150 + 25)],
    ids=["dump-g2k --k 3 --d 4", "verify --kmax 4 --dmax 4"])
def test_part_ceiling_admits_its_own_count(capsys, monkeypatch, command, what, count):
    monkeypatch.setattr(cli, "MAX_PART_TERMS", count)
    assert main(command.split()) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "MAX_PART_TERMS", count - 1)
    assert main(command.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"{command.split()[0]}: {what} forms at least {count} "
                            f"terms, above the ceiling of {count - 1}\n")


def test_relation_ceiling_admits_its_own_k(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_RELATION_K", 3)
    assert main(["verify", "--kmax", "3", "--dmax", "1"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "MAX_RELATION_K", 2)
    assert main(["verify", "--kmax", "3", "--dmax", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verify: the basis relations for k=3 are above the ceiling of k=2\n"


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


def test_gem_two_point_schedule_is_inconclusive(capsys, tmp_path):
    # constant(0.5) against one first-order point diverges, and the site
    # route doubles from N = 50 to 100; one point in the top half of the
    # schedule cannot tell that from a bounded family
    config = {
        "family": {"name": "constant", "c": 0.5},
        "criticalPoints": [{"thetaOverPi": 0.0, "m": 1}],
        "schedule": [50, 100],
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config))
    code, records, err = run_cli(capsys, "gem", "--config", str(path))
    assert code == 0
    report = records[0]
    assert report["corollaryRoute"][1] > 1.9 * report["corollaryRoute"][0]
    assert report["verdict"] == "inconclusive"
    assert "verdict=inconclusive" in err


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


def site_route_must_not_run(*args):
    raise AssertionError("the site route compiled for malformed input")


def study_without_site_route(*args):
    """The study, for input its up-front checks must reject before the site
    route compiles."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lab, "site_route", site_route_must_not_run)
        return REAL_STUDY(*args)


# (command with any options, input data, replacement for lab.convergence_study or None)
MALFORMED = [
    ("gem", {"family": {"name": "finiteSupport", "values": [[math.nan, 0.0]]}}, None),
    ("gem", {"criticalPoints": [{"thetaOverPi": "abc", "m": 1}]}, None,
     """critical angle 'abc' must be a number, a "p/q" string or null"""),
    ("gem", {"family": {"name": "powerDecay", "c": "zz", "gamma": 1.0}}, None),
    ("gem", {"schedule": [10, "x"]}, None),
    ("gem", {"criticalPoints": [{"thetaOverPi": 0.0, "m": 3}], "schedule": [2, 20]},
     study_without_site_route,
     "weight degree 3 must be smaller than the matrix size, but the schedule starts at N = 2"),
    ("szego-check", [[math.nan, 0.0]], None),
    ("gem", {}, nan_slope_study),
    ("gem", {"family": {"name": "powerDecay", "c": 0.3, "gamma": -2000}}, None),
    ("gem", {"family": {"name": "powerDecay", "c": 0.3, "gamma": 1e300}}, None),
    ("gem", {"criticalPoints": {"thetaOverPi": 0.0, "m": 1}}, study_must_not_run),
    ("gem", {"criticalPoints": [{"thetaOverPi": 0.0, "m": 1.5}]}, study_must_not_run),
    ("gem", {"criticalPoints": [{"thetaOverPi": math.nan, "m": 1}]}, study_must_not_run),
    ("szego-check --grid 10", [[0.5, 0.0]], None),
    ("gem --csv /nonexistent-dir/study.csv", {}, None),
    ("verify --kmax 0 --dmax 1", None, None),
    ("verify --kmax -2 --dmax -2", None, None),
    ("verify --kmax 2 --dmax 0", None, None),
    ("gem", {"family": {"name": "powerDecay", "c": 0.9605, "gamma": -0.01},
             "criticalPoints": [{"thetaOverPi": 0.0, "m": 2}], "schedule": [50]}, None),
    ("gem", {"schedule": []}, None),
    ("gem", {"schedule": [10.5, 20]}, None),
    ("gem", {"schedule": [True, 5]}, None),
    ("gem", {"schedule": [0, 10]}, None),
    ("gem", {"criticalPoints": [{"thetaOverPi": True, "m": 1}]}, study_must_not_run),
    ("gem", {"family": {"name": "powerDecay", "c": 0.3, "gamma": math.nan}}, None),
    ("gem", {"family": {"name": "constant", "c": 0.3, "phase": math.inf}}, None),
    ("szego-check --grid 1048576", [[0.5, 0.0]], None),
    ("gem", {"family": {"name": "powerDecay", "c": 0.3, "gamma": True}}, None),
    ("gem", {"family": {"name": "constant", "c": False}}, None),
    ("gem", {"family": {"name": "constant", "c": 0.3, "phase": True}}, None),
    ("gem", {"family": {"name": "finiteSupport", "values": [[False, 0.3]]}}, None),
    ("gem", {"family": {"name": "constant", "c": 0.3, "phse": 1.0}}, None),
    ("gem", {"schedul": [10, 20]}, study_must_not_run),
    ("gem", {"criticalPoints": [{"thetaOverPi": 0.0, "m": 1, "mult": 3}]},
     study_must_not_run),
    ("gem", {"family": {"name": "constant", "c": "0.3"}}, None),
    ("gem", {"family": {"name": "powerDecay", "c": 0.3, "gamma": "1"}}, None),
    ("gem", {"family": {"name": "constant", "c": 0.3, "phase": "0.2"}}, None),
    # rows with a fourth entry name the full message after "gem: bad config: "
    ("gem", {"family": {"name": "finiteSupport", "values": [[0.1]]}}, None,
     "finiteSupport values must be a list of [re, im] pairs"),
    ("gem", {"family": {"name": "finiteSupport", "values": 5}}, None,
     "finiteSupport values must be a list of [re, im] pairs"),
    ("gem", {"family": {"name": "finiteSupport", "values": [0.1]}}, None,
     "finiteSupport values must be a list of [re, im] pairs"),
    ("gem", {"family": {"name": ["x"]}}, None, "unknown family ['x']"),
    ("gem", {"family": "powerDecay"}, None, "family must be a JSON object"),
    ("gem", {"criticalPoints": [{"thetaOverPi": "1/0", "m": 1}]}, study_must_not_run,
     "critical angle '1/0' has a zero denominator"),
    ("gem", {"criticalPoints": [{"thetaOverPi": 0.3, "m": 40}], "schedule": [100]}, None,
     "weight degree 40 exceeds the ceiling of 8 for compiling the site route"),
    ("gem", {"criticalPoints": [{"thetaOverPi": [1], "m": 1}]}, study_must_not_run,
     'critical angle [1] must be a number, a "p/q" string or null'),
    ("gem", {"criticalPoints": [{"thetaOverPi": {"a": 1}, "m": 1}]}, study_must_not_run,
     """critical angle {'a': 1} must be a number, a "p/q" string or null"""),
    ("gem", {"criticalPoints": [{"thetaOverPi": 10 ** 400, "m": 1}]}, study_must_not_run,
     "critical angle is too large for a float"),
    ("gem", {"criticalPoints": [{"thetaOverPi": f"{10 ** 400}/1", "m": 1}]}, None,
     "critical angle is too large for a float"),
    ("enum-d --k 6 --l 12", None, None),
    ("verify --kmax 7 --dmax 9", None, None),
    ("dump-g2k --k 6 --d 12", None, None),
    ("verify --kmax 1 --dmax 1000", None, None),
    ("dump-g2k --k 2 --d 200", None, None),
    ("dump-g2k --k 1 --d 5000", None, None),
    ("verify --kmax 10 --dmax 1", None, None),
    ("szego-check", [[0.99999999, 0.0]], None),
]


@pytest.mark.parametrize("command,data,study,message",
                         [(*row, None)[:4] for row in MALFORMED], ids=[
    "gem-nan-value", "gem-angle-text", "gem-c-text", "gem-schedule-text",
    "gem-schedule-below-degree", "szego-nan-value", "gem-nan-report",
    "gem-gamma-underflow", "gem-gamma-overflow", "gem-points-object",
    "gem-multiplicity-fraction", "gem-angle-nan", "szego-grid-too-small",
    "gem-csv-unwritable", "verify-kmax-zero", "verify-negative", "verify-dmax-zero",
    "gem-alpha-reaches-one-past-n", "gem-schedule-empty", "gem-schedule-fraction",
    "gem-schedule-bool", "gem-schedule-zero", "gem-angle-bool", "gem-gamma-nan",
    "gem-phase-infinite", "szego-grid-too-large", "gem-gamma-bool", "gem-c-bool",
    "gem-phase-bool", "gem-values-bool", "gem-family-unknown-key",
    "gem-config-unknown-key", "gem-point-unknown-key", "gem-c-numeric-text",
    "gem-gamma-text", "gem-phase-text", "gem-values-pair-short", "gem-values-number",
    "gem-values-flat", "gem-name-list", "gem-family-text", "gem-angle-zero-denominator",
    "gem-degree-above-ceiling", "gem-angle-list", "gem-angle-dict", "gem-angle-int-huge",
    "gem-angle-text-huge", "enum-d-count-above-ceiling", "verify-part-above-ceiling",
    "dump-g2k-part-above-ceiling", "verify-steps-above-ceiling",
    "dump-g2k-parts-above-ceiling", "dump-g2k-steps-above-ceiling",
    "verify-relation-above-ceiling",
    "szego-quadrature-above-ceiling"])
@pytest.mark.filterwarnings("error")
def test_malformed_input_exits_2_with_one_line(capsys, tmp_path, monkeypatch,
                                               command, data, study, message):
    command, *options = command.split()
    if study is not None:
        monkeypatch.setattr(lab, "convergence_study", study)
    path = tmp_path / "input.json"
    if command in ("verify", "enum-d", "dump-g2k"):
        argv = [command, *options]
    elif command == "gem":
        path.write_text(json.dumps({**GOOD_GEM, **data}))
        argv = ["gem", "--config", str(path), *options]
    else:
        path.write_text(json.dumps(data))
        argv = ["szego-check", "--alphas", str(path), *options]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{command}: ")
    if message is not None:
        assert lines[0] == f"{command}: bad config: {message}"


@pytest.mark.parametrize("config", [[], "family", None, 3])
def test_gem_config_must_be_an_object(capsys, tmp_path, config):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config))
    code = main(["gem", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "gem: bad config: config must be a JSON object\n"


@pytest.mark.parametrize("config,message", [
    ({**GOOD_GEM, "criticalPoints": [{"thetaOverPi": 0.0}]}, "critical point needs key 'm'"),
    ({**GOOD_GEM, "family": {"values": [[0.4, 0.0]]}}, "family needs key 'name'"),
    ({**GOOD_GEM, "family": {"name": "powerDecay", "gamma": 1.0}},
     "powerDecay family needs parameter 'c'"),
    ({"family": GOOD_GEM["family"]}, "config needs key 'criticalPoints'"),
])
def test_missing_key_is_named(capsys, tmp_path, config, message):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config))
    code = main(["gem", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"gem: bad config: {message}\n"


def test_file_family_path_must_be_a_string(capsys, tmp_path):
    alphas = tmp_path / "alphas.json"
    alphas.write_text(json.dumps([[0.4, 0.0], [0.0, 0.2]]))
    fd = os.open(alphas, os.O_RDONLY)
    try:
        config = tmp_path / "study.json"
        config.write_text(json.dumps({**GOOD_GEM, "family": {"name": "file", "path": fd}}))
        code = main(["gem", "--config", str(config)])
    finally:
        os.close(fd)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("gem: ")
