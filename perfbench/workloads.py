"""The four benchmark workloads and their correctness gates.

Each workload does its set-up in ``__init__`` (weights, families, case
lists) and one pass over its fixed input in ``run_pass``.  Every call into
the program goes through a module attribute (``algmodel.x``, ``lab.x``),
so the tracer can rebind those attributes for a traced pass.

The seed draws the inputs; the work done per pass is the same for every
seed.  See ``NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from opucgems import algmodel, lab, trig
from opucgems.laurent import GaussianRational

# Across a schedule, trace-route minus site-route may move by at most this
# much.  The gap converges like the tail of |alpha_n|^2; with the parameter
# ranges drawn below it moves by under 1e-3 on both gem workloads.
GAP_BOUND = 2e-3
# Relative tolerance for the red-case values against the stored reference.
RED_CASE_RTOL = 1e-9
QUARTER_ANGLES = ("0", "1/2", "1", "3/2")


@dataclass
class PassResult:
    """What one pass did: items, each item's (start, end) and its checks."""

    items: int = 0
    item_spans: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, label: str):
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class _Verify:
    """Shared pass loop: each case is one item and one check."""

    cases: list
    host_paced = True  # interpreter-bound: times are corrected (pace.py)

    def run_pass(self) -> PassResult:
        out = PassResult()
        for kind, params in self.cases:
            t0 = time.perf_counter()
            try:
                ok = self.run_case(kind, params)
            except Exception as exc:  # a raised identity tripwire is a failure
                ok = False
                kind = f"{kind} raised {type(exc).__name__}"
            out.item_spans.append((t0, time.perf_counter()))
            out.items += 1
            out.check(ok, f"{kind} {params}")
        return out


class VerifyTrace(_Verify):
    """``trace_expansion_check(k, l)`` for k = 1..3, l = 1..5."""

    name = "verify-trace"

    def __init__(self, seed: int, reference: dict, tiny: bool = False):
        kmax, lmax = (2, 3) if tiny else (3, 5)
        self.cases = [("trace", (k, l)) for k in range(1, kmax + 1)
                      for l in range(1, lmax + 1)]
        random.Random(seed).shuffle(self.cases)

    def run_case(self, kind: str, params: tuple) -> bool:
        return algmodel.trace_expansion_check(*params).passed


class VerifyRoutes(_Verify):
    """Route grid, ``build_g2k_hl`` at a quarter angle, constant and basis checks."""

    name = "verify-routes"

    def __init__(self, seed: int, reference: dict, tiny: bool = False):
        kmax, dmax = (2, 2) if tiny else (4, 5)
        rng = random.Random(seed)
        self.theta = rng.choice(QUARTER_ANGLES)
        self.digests = reference["digests"][self.theta]
        self.weights = {}
        self.cases = []
        for d in range(1, dmax + 1):
            grid = [(d,)] + ([(d - 1, 1)] if d >= 2 else [])
            for mults in grid:
                self.weights[mults] = trig.build_h(
                    trig.CriticalPoints.generic(list(mults)), "exact")
                self.cases += [("routes", (k, mults))
                               for k in range(1, min(kmax, d) + 1)]
            self.weights[("dump", d)] = trig.build_h(
                trig.CriticalPoints.from_pairs([(Fraction(self.theta), d)]),
                "exact")
            self.cases += [("dump", (k, d)) for k in range(1, min(kmax, d) + 1)]
        self.cases += [("constant", (k,)) for k in range(1, 6)]
        self.cases += [("relation", (k,)) for k in range(1, max(kmax, 2) + 1)]
        rng.shuffle(self.cases)

    def run_case(self, kind: str, params: tuple) -> bool:
        if kind == "routes":
            k, mults = params
            return algmodel.g2k_routes_check(k, self.weights[mults]).passed
        if kind == "dump":
            k, d = params
            g = algmodel.build_g2k_hl(k, self.weights[("dump", d)])
            return digest(g.to_text()) == self.digests.get(f"k={k} d={d}")
        if kind == "constant":
            (k,) = params
            return algmodel.constant_sum_check(k) == GaussianRational((-1) ** (k + 1))
        if kind == "relation":
            return algmodel.basis_relation_check(*params)
        raise ValueError(f"unknown case kind {kind!r}")


def _draw_power_decay(rng: random.Random) -> lab.SequenceFamily:
    return lab.SequenceFamily.power_decay(
        c=rng.uniform(0.2, 0.5), gamma=rng.uniform(0.8, 1.2),
        phase=rng.uniform(0.0, 2 * math.pi))


def _finite(report: lab.GemReport) -> bool:
    values = (report.trace_values + report.site_values + report.log_sums
              + [report.slope, report.value_range])
    diag = report.diagnostics
    values += [diag["difference_l2_sq"], diag["l2"], diag["l4"]]
    values += list(diag["power_sums"].values())
    return all(math.isfinite(v) for v in values)


class _PointClock:
    """Marks the end of each schedule point while a study runs.

    ``convergence_study`` evaluates the site route last at each N, so the
    time between consecutive returns of ``lab.site_functional`` (the first
    measured from the study's start) is that point's time.  This costs one
    clock read per point and is installed on untraced passes too.
    """

    def __init__(self):
        self.marks = []

    def __enter__(self):
        self._saved = lab.site_functional

        def marked(*args, **kwargs):
            value = self._saved(*args, **kwargs)
            self.marks.append(time.perf_counter())
            return value

        lab.site_functional = marked
        return self

    def __exit__(self, *exc):
        lab.site_functional = self._saved
        return False


class _Gem:
    """Shared pass loop: one ``convergence_study`` per family."""

    studies: list  # (label, family, points, reference-or-None)
    schedule: list
    host_paced = True

    def _prepare(self):
        # the set-up a ``gem`` config costs: both weights and every sequence
        for _, family, points, _ in self.studies:
            trig.build_h(points, "numeric")
            trig.build_h(points, "exact")
            family.sequence()

    def run_pass(self) -> PassResult:
        out = PassResult()
        for label, family, points, expected in self.studies:
            with _PointClock() as clock:
                start = time.perf_counter()
                try:
                    report = lab.convergence_study(family, points, self.schedule)
                    lab.export_report(report, "json")
                except Exception as exc:
                    out.check(False, f"{label} raised {type(exc).__name__}")
                    continue
                end = time.perf_counter()
            out.items += sum(self.schedule)
            marks = [start] + clock.marks
            if len(clock.marks) == len(self.schedule):
                out.item_spans += list(zip(marks, marks[1:]))
            else:  # the study no longer calls the site route once per point
                out.item_spans.append((start, end))
            out.check(_finite(report), f"{label} non-finite value")
            gaps = [t - s for t, s in zip(report.trace_values, report.site_values)]
            out.check(max(gaps) - min(gaps) < GAP_BOUND,
                      f"{label} route gap moved by {max(gaps) - min(gaps):.3e}")
            if expected is not None:
                out.check(_matches(report, expected), f"{label} differs from reference")
        return out


def red_case_values(report: lab.GemReport) -> dict:
    return {"trace": report.trace_values, "site": report.site_values,
            "verdict": report.verdict}


def _matches(report: lab.GemReport, expected: dict) -> bool:
    got = red_case_values(report)
    if got["verdict"] != expected["verdict"]:
        return False
    return all(math.isclose(a, b, rel_tol=RED_CASE_RTOL, abs_tol=RED_CASE_RTOL)
               for key in ("trace", "site")
               for a, b in zip(got[key], expected[key], strict=True))


class GemDense(_Gem):
    """d = 2, K = 1 at theta = 0: a drawn powerDecay and the red case."""

    name = "gem-dense"
    # Its time is in 2-thread BLAS matmuls, whose speed the interpreter
    # kernel does not track: corrected times spread more than wall times.
    host_paced = False

    def __init__(self, seed: int, reference: dict, tiny: bool = False):
        self.schedule = [100, 200, 400] if tiny else [400, 800, 1600, 3200]
        points = trig.CriticalPoints.from_pairs([(Fraction(0), 2)])
        red = reference["red_case"][",".join(map(str, self.schedule))]
        self.studies = [
            ("powerDecay", _draw_power_decay(random.Random(seed)), points, None),
            ("red case constant(0.5)", lab.SequenceFamily.constant(0.5), points, red),
        ]
        self._prepare()


class GemSites(_Gem):
    """d = 5, K = 2 with m = (3, 2) at drawn float angles."""

    name = "gem-sites"

    def __init__(self, seed: int, reference: dict, tiny: bool = False):
        self.schedule = [60, 120] if tiny else [100, 200, 400, 800]
        rng = random.Random(seed)
        points = trig.CriticalPoints.from_pairs(
            [(rng.uniform(0.05, 0.95), 3), (rng.uniform(1.05, 1.95), 2)])
        self.studies = [("powerDecay", _draw_power_decay(rng), points, None)]
        self._prepare()


WORKLOADS = {w.name: w for w in (VerifyTrace, VerifyRoutes, GemDense, GemSites)}
