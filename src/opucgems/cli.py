"""Command-line entry point.

Subcommands::

    verify       run the symbolic verification suites
    gem          run a convergence study from a JSON config
    dump-g2k     print the normal form of G'_2k for one critical point
    szego-check  quadrature vs. coefficient sum for a finite sequence
    enum-d       print the index tuples for one (k, l)

Machine-readable line-delimited JSON goes to stdout, a human summary to
stderr.  Exit code 0 means all checks passed, 1 means a check failed,
2 means bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import algmodel, lab
from .opuc import OpucError, bs_weight_quadrature, log_term
from .trig import CriticalPoints, TrigError, build_h, exact_unit

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
# largest index-tuple set enum-d lists: (k, l) = (5, 12) has 600600 tuples and
# takes about 7 s and 155 MB on a 2-core host; (6, 12) has 2.86e6
MAX_ENUM_TUPLES = 10 ** 6
# largest weight-free part verify and dump-g2k build, as index tuples
# (index_tuple_count(k, d)); the parts stay cached for the process, so this
# also bounds what the cache holds.  On a 2-core host verify --kmax 5 --dmax 10
# (126126) takes about 12 s and 0.37 GB and dump-g2k --k 5 --d 10 about 7.5 s
# and 0.39 GB; (7, 9) has 140140 and (6, 10) 378378
MAX_PART_TUPLES = 130_000
# largest kmax verify takes, as it checks the basis relations for k = 1..kmax;
# on a 2-core host basis_relation_check takes about 0.05 s at k = 6, 0.34 s at
# k = 7 and 1.5 s at k = 8, about 5x more per further k
MAX_RELATION_K = 7


def _line(record: dict) -> str:
    """One JSON line; a non-finite float raises ValueError."""
    return json.dumps(record, sort_keys=True, allow_nan=False) + "\n"


def _emit(record: dict):
    """Write one JSON line; a non-finite float raises ValueError first."""
    sys.stdout.write(_line(record))


def _say(message: str):
    sys.stderr.write(message + "\n")


def _part_too_large(command: str, k: int, d: int) -> bool:
    """Say so in one line when the (k, d) part passes ``MAX_PART_TUPLES``."""
    count = algmodel.index_tuple_count(k, d)
    if count > MAX_PART_TUPLES:
        _say(f"{command}: the part for k={k}, d={d} has {count} index tuples, "
             f"above the ceiling of {MAX_PART_TUPLES}")
    return count > MAX_PART_TUPLES


# -- verify ------------------------------------------------------------------------


def _verify_cases(kmax: int, dmax: int) -> list:
    """Deterministic list of (case_id, kind, params) descriptors."""
    cases = []
    for d in range(1, dmax + 1):
        for k in range(1, min(kmax, d) + 1):
            cases.append((f"g2k-routes K=1 k={k} d={d}", "routes", (k, (d,))))
        if d >= 2:
            mults = (d - 1, 1)
            for k in range(1, min(kmax, d) + 1):
                cases.append((f"g2k-routes K=2 k={k} m={mults}", "routes",
                              (k, mults)))
    for k in range(1, min(kmax, 3) + 1):
        for l in range(1, max(2, dmax) + 1):
            if k * l <= algmodel.MAX_TRACE_COMPLEXITY:
                cases.append((f"trace-expansion k={k} l={l}", "trace", (k, l)))
    for k in range(1, 6):
        cases.append((f"constant-sum k={k}", "constant", (k,)))
    for k in range(1, max(kmax, 2) + 1):
        cases.append((f"basis-relation k={k}", "relation", (k,)))
    product_mults = [(1,)]
    if dmax >= 2:
        product_mults += [(dmax,), (1, 1)]
    if dmax >= 3:
        product_mults += [(2, 1)]
    for mults in product_mults:
        cases.append((f"degree2-product K={len(mults)} m={mults}", "product",
                      (mults,)))
    for k in range(1, min(kmax, 3) + 1):
        for l in range(1, 7):
            cases.append((f"enum-d k={k} l={l}", "enum", (k, l)))
    return cases


def _dispatch_case(kind: str, params: tuple) -> tuple:
    if kind == "routes":
        k, mults = params
        h = build_h(CriticalPoints.generic(list(mults)), "exact")
        r = algmodel.g2k_routes_check(k, h)
        return r.passed, {"k": k, "d": sum(mults),
                          "routesEqual": r.routes_equal,
                          "traceEqualsHl": r.trace_equals_hl}
    if kind == "trace":
        k, l = params
        r = algmodel.trace_expansion_check(k, l)
        return r.passed, {"k": k, "l": l, "comparedTerms": r.compared_terms,
                          "mismatches": r.mismatches[:3]}
    if kind == "constant":
        (k,) = params
        value = algmodel.constant_sum_check(k)
        expected = algmodel.GaussianRational((-1) ** (k + 1))
        return value == expected, {
            "k": k, "value": value.to_text(), "expected": "(-1)^(k+1)",
            "signNote": "derived constant is (-1)^(k+1); the commonly "
                        "quoted (-1)^k display is a suspected sign typo",
        }
    if kind == "relation":
        (k,) = params
        return algmodel.basis_relation_check(k), {"k": k}
    if kind == "product":
        (mults,) = params
        h = build_h(CriticalPoints.generic(list(mults)), "exact")
        r = algmodel.degree2_product_check(h)
        return r.passed, {"d": r.degree, "K": r.points}
    if kind == "enum":
        k, l = params
        bij = algmodel.enum_d(k, l)
        direct = algmodel.enum_d_direct(k, l)
        expected = algmodel.index_tuple_count(k, l)
        ok = bij == direct and len(bij) == expected
        return ok, {"k": k, "l": l, "count": len(bij), "expected": expected}
    raise ValueError(f"unknown case kind {kind!r}")


def _run_case(case):
    label, kind, params = case
    try:
        passed, detail = _dispatch_case(kind, params)
    except Exception as exc:  # a raised identity tripwire is a failure
        return label, False, {"error": f"{type(exc).__name__}: {exc}"}
    return label, passed, detail


def cmd_verify(args) -> int:
    if args.kmax < 1 or args.dmax < 1:
        _say("verify: need kmax >= 1 and dmax >= 1")
        return EXIT_BAD_INPUT
    # the route cases build parts up to (min(kmax, dmax), dmax), and the
    # count over k can peak below the top k, so check each
    if any(_part_too_large("verify", k, args.dmax)
           for k in range(1, min(args.kmax, args.dmax) + 1)):
        return EXIT_BAD_INPUT
    if args.kmax > MAX_RELATION_K:
        _say(f"verify: the basis relations for k={args.kmax} are above the ceiling "
             f"of k={MAX_RELATION_K}")
        return EXIT_BAD_INPUT
    cases = _verify_cases(args.kmax, args.dmax)
    results = [_run_case(case) for case in cases]
    results.sort(key=lambda item: item[0])
    failures = 0
    for label, passed, detail in results:
        record = {"case": label, "status": "pass" if passed else "fail"}
        record.update(detail)
        _emit(record)
        if not passed:
            failures += 1
    _say(f"verify: {len(results) - failures}/{len(results)} cases passed")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# -- gem ----------------------------------------------------------------------------


def cmd_gem(args) -> int:
    try:
        with open(args.config, "rb") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _say(f"gem: cannot read config: {exc}")
        return EXIT_BAD_INPUT
    try:
        if not isinstance(config, dict):
            raise TypeError("config must be a JSON object")
        unknown = sorted(set(config) - {"family", "criticalPoints", "schedule"})
        if unknown:
            raise ValueError(f"config has no key {unknown[0]!r}")
        for key in ("family", "criticalPoints"):
            if key not in config:
                raise ValueError(f"config needs key {key!r}")
        family = lab.SequenceFamily.from_json(config["family"])
        points = CriticalPoints.from_json(config["criticalPoints"])
        schedule = config.get("schedule", list(lab.DEFAULT_SCHEDULE))
        report = lab.convergence_study(family, points, schedule)
    except (KeyError, ValueError, TypeError, ArithmeticError, lab.LabError, TrigError,
            OpucError) as exc:
        _say(f"gem: bad config: {exc}")
        return EXIT_BAD_INPUT
    # serialise and write the CSV first: a failure leaves stdout empty
    try:
        line = _line(report.to_json())
    except ValueError as exc:
        _say(f"gem: report is not finite JSON: {exc}")
        return EXIT_BAD_INPUT
    if args.csv:
        try:
            with open(args.csv, "wb") as fh:
                fh.write(lab.export_report(report, "csv"))
        except OSError as exc:
            _say(f"gem: cannot write CSV: {exc}")
            return EXIT_BAD_INPUT
        _say(f"gem: CSV written to {args.csv}")
    sys.stdout.write(line)
    _say(f"gem: verdict={report.verdict} slope={report.slope:.3e}")
    return EXIT_OK


# -- dump-g2k ------------------------------------------------------------------------


def cmd_dump_g2k(args) -> int:
    if args.k < 1 or args.d < args.k:
        _say("dump-g2k: need 1 <= k <= d")
        return EXIT_BAD_INPUT
    if _part_too_large("dump-g2k", args.k, args.d):
        return EXIT_BAD_INPUT
    if args.theta is None:
        points = CriticalPoints.generic([args.d])
    else:
        try:
            theta = Fraction(args.theta)
        except (ValueError, ZeroDivisionError):
            _say("dump-g2k: theta must be a rational multiple of pi, like 1/2")
            return EXIT_BAD_INPUT
        if exact_unit(theta) is None:
            _say(f"dump-g2k: angle {theta}*pi has no Gaussian-rational unit; "
                 "omit --theta for a generic angle")
            return EXIT_BAD_INPUT
        points = CriticalPoints.from_pairs([(theta, args.d)])
    try:
        h = build_h(points, "exact")
        g = algmodel.build_g2k_hl(args.k, h)
    except TrigError as exc:
        _say(f"dump-g2k: {exc}")
        return EXIT_BAD_INPUT
    _emit({"k": args.k, "d": args.d,
           "theta": None if args.theta is None else str(Fraction(args.theta)),
           "g2k": g.to_text()})
    _say(f"dump-g2k: {len(g.terms)} terms")
    return EXIT_OK


# -- szego-check ----------------------------------------------------------------------


def cmd_szego_check(args) -> int:
    try:
        alpha = lab.SequenceFamily.from_file(args.alphas).sequence()
        values = alpha.head(alpha.support)
        quad = bs_weight_quadrature(values, None, grid_size=args.grid)
    except (lab.LabError, OpucError) as exc:
        _say(f"szego-check: {exc}")
        return EXIT_BAD_INPUT
    coeff_sum = log_term(values)
    diff = abs(quad - coeff_sum)
    passed = diff <= 1e-8
    _emit({"case": "szego-quadrature", "status": "pass" if passed else "fail",
           "quadrature": quad, "coefficientSum": coeff_sum, "diff": diff})
    _say(f"szego-check: |diff| = {diff:.3e}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# -- enum-d --------------------------------------------------------------------------


def cmd_enum_d(args) -> int:
    if args.k < 1 or args.l < 1:
        _say("enum-d: need k >= 1 and l >= 1")
        return EXIT_BAD_INPUT
    expected = algmodel.index_tuple_count(args.k, args.l)
    if expected > MAX_ENUM_TUPLES:
        _say(f"enum-d: {expected} tuples exceed the ceiling of {MAX_ENUM_TUPLES}")
        return EXIT_BAD_INPUT
    tuples = sorted(algmodel.enum_d(args.k, args.l))
    for tup in tuples:
        _emit({"tuple": list(tup)})
    _emit({"case": f"enum-d k={args.k} l={args.l}", "count": len(tuples),
           "expected": expected})
    _say(f"enum-d: {len(tuples)} tuples")
    return EXIT_OK


# -- parser --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opucgems",
        description="Exact and numeric checks for higher-order sum rules "
                    "of orthogonal polynomials on the unit circle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the symbolic suites")
    p_verify.add_argument("--kmax", type=int, default=2)
    p_verify.add_argument("--dmax", type=int, default=2)
    p_verify.set_defaults(fn=cmd_verify)

    p_gem = sub.add_parser("gem", help="run a convergence study")
    p_gem.add_argument("--config", required=True)
    p_gem.add_argument("--csv", default=None)
    p_gem.set_defaults(fn=cmd_gem)

    p_dump = sub.add_parser("dump-g2k", help="print G'_2k in normal form")
    p_dump.add_argument("--k", type=int, required=True)
    p_dump.add_argument("--d", type=int, required=True)
    p_dump.add_argument("--theta", default=None,
                        help="angle over pi as a fraction, e.g. 1/2")
    p_dump.set_defaults(fn=cmd_dump_g2k)

    p_szego = sub.add_parser("szego-check", help="quadrature identity check")
    p_szego.add_argument("--alphas", required=True,
                         help="JSON file with [re, im] pairs")
    p_szego.add_argument("--grid", type=int, default=4096)
    p_szego.set_defaults(fn=cmd_szego_check)

    p_enum = sub.add_parser("enum-d", help="print index tuples")
    p_enum.add_argument("--k", type=int, required=True)
    p_enum.add_argument("--l", type=int, required=True)
    p_enum.set_defaults(fn=cmd_enum_d)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
