"""Sequence families, coefficient-condition diagnostics and experiments.

A convergence study evaluates the sum-rule functional along a schedule of
truncation sizes through two independent routes (the GGT trace and the
per-site expansion) and classifies the family as bounded or diverging.
The classifier is an explicit desk-scale decision rule: the statements it
probes are asymptotic, so thresholds are engineering choices and are
documented on :func:`classify_values`.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .algmodel import MAX_SITE_DEGREE, site_functional, site_route
from .opuc import VerblunskySeq, ggt_matrix, log_term, trace_v
from .trig import CriticalPoints, build_h

DEFAULT_SCHEDULE = (50, 100, 200, 400, 800, 1600)

# classifier thresholds (per-unit-N slope over the top half of the schedule)
SLOPE_BOUNDED = 1e-4
SLOPE_DIVERGING = 1e-2
RANGE_BOUNDED = 1.0


# the parameters each family reads; any other key is rejected as a misspelling
FAMILY_PARAMS = {
    "powerDecay": ("c", "gamma", "phase"),
    "constant": ("c", "phase"),
    "finiteSupport": ("values",),
    "file": ("path",),
}


class LabError(Exception):
    pass


def _number(value, name: str):
    """``value`` itself if it is an int, float or complex; anything else,
    a boolean or a numeric string included, is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float, complex)):
        raise LabError(f"{name} must be a number, not {type(value).__name__}")
    return value


def _complex_values(pairs, name: str) -> list:
    """``[re, im]`` pairs as complex numbers."""
    if not isinstance(pairs, (list, tuple)) or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in pairs):
        raise LabError(f"{name}s must be a list of [re, im] pairs")
    return [complex(_number(re, name), _number(im, name)) for re, im in pairs]


@dataclass(frozen=True)
class SequenceFamily:
    """A named generator of Verblunsky sequences with JSON-safe parameters."""

    name: str
    params: dict

    @staticmethod
    def power_decay(c: float, gamma: float, phase: float = 0.0) -> "SequenceFamily":
        """``alpha_n = c * e^{-i*phase*n} / (n+1)^gamma``."""
        return SequenceFamily("powerDecay", {"c": c, "gamma": gamma, "phase": phase})

    @staticmethod
    def constant(c: float, phase: float = 0.0) -> "SequenceFamily":
        """``alpha_n = c * e^{-i*phase*n}`` (rotating constant)."""
        return SequenceFamily("constant", {"c": c, "phase": phase})

    @staticmethod
    def finite_support(values: Sequence[complex]) -> "SequenceFamily":
        return SequenceFamily(
            "finiteSupport",
            {"values": [[complex(v).real, complex(v).imag] for v in values]},
        )

    @staticmethod
    def from_file(path: str) -> "SequenceFamily":
        """Finite sequence read from a JSON file of [re, im] pairs."""
        return SequenceFamily("file", {"path": str(path)})

    def sequence(self) -> VerblunskySeq:
        if not isinstance(self.name, str) or self.name not in FAMILY_PARAMS:
            raise LabError(f"unknown family {self.name!r}")
        unknown = sorted(set(self.params) - set(FAMILY_PARAMS[self.name]))
        if unknown:
            raise LabError(f"{self.name} family has no parameter {unknown[0]!r}")
        # every parameter but the phase (default 0) is required
        missing = [p for p in FAMILY_PARAMS[self.name] if p != "phase" and p not in self.params]
        if missing:
            raise LabError(f"{self.name} family needs parameter {missing[0]!r}")
        if self.name in ("powerDecay", "constant"):
            params = {"phase": 0.0, **self.params}
            for name, value in params.items():
                _number(value, f"{self.name} parameter {name}")
            c = complex(params["c"])
            gamma = float(params["gamma"]) if self.name == "powerDecay" else None
            phase = float(params["phase"])
            for name, value in (("c", c), ("gamma", gamma), ("phase", phase)):
                if value is not None and not cmath.isfinite(value):
                    raise LabError(f"{self.name} parameter {name} must be finite, not {value}")
            if abs(c) >= 1.0:
                raise LabError(f"{self.name} needs |c| < 1")

            def closed_form(n: np.ndarray) -> np.ndarray:
                # overflow and division by zero raise FloatingPointError (an
                # ArithmeticError); c * e^{-i phase n} is multiplied out in
                # real parts, as cmath rounds it (numpy's complex multiply
                # may fuse a multiply and an add)
                with np.errstate(over="raise", divide="raise"):
                    e = np.exp(-1j * phase * n)
                    values = np.empty(e.shape, dtype=complex)
                    values.real = c.real * e.real - c.imag * e.imag
                    values.imag = c.real * e.imag + c.imag * e.real
                    return values if gamma is None else values / (n + 1.0) ** gamma

            return VerblunskySeq(closed_form)
        if self.name == "finiteSupport":
            values = _complex_values(self.params["values"], "finiteSupport value")
        else:  # file
            if not isinstance(self.params["path"], str):
                raise LabError("file family needs a string path")
            try:
                with open(self.params["path"], "rb") as fh:
                    pairs = json.load(fh)
                values = _complex_values(pairs, "coefficient file value")
            except (OSError, ValueError, TypeError) as exc:
                raise LabError(f"cannot read coefficient file: {exc}") from exc
        return VerblunskySeq.from_values(values)

    def to_json(self) -> dict:
        return {"name": self.name, **self.params}

    @staticmethod
    def from_json(data: Mapping) -> "SequenceFamily":
        if not isinstance(data, Mapping):
            raise LabError("family must be a JSON object")
        data = dict(data)
        if "name" not in data:
            raise LabError("family needs key 'name'")
        return SequenceFamily(data.pop("name"), data)


def shifted_difference(values: np.ndarray, points: CriticalPoints) -> np.ndarray:
    """Apply ``prod_j (S - e^{-i theta_j})^{m_j}`` to a coefficient block.

    ``(S alpha)_n = alpha_{n+1}``; each factor shortens the block by one,
    so the input must carry d extra entries beyond the requested length.
    """
    out = np.asarray(values, dtype=complex)
    for theta, m in zip(points.numeric_angles(), points.multiplicities):
        root = cmath.exp(-1j * theta)
        for _ in range(m):
            out = out[1:] - root * out[:-1]
    return out


def condition_diagnostics(head: np.ndarray, points: CriticalPoints,
                          n: int) -> dict:
    """Partial norms behind the coefficient-side sum-rule conditions.

    Returns the squared l2 norm of the full shifted difference, the
    ``l^{2m+2}`` power sums for m = 0..d, and the l4 sum, all over the
    first n entries.  ``head`` holds at least n + d validated coefficients.
    """
    d = points.degree
    if n < d:
        raise LabError("need at least d coefficients")
    diff = shifted_difference(head[:n + d], points)[:n]
    mods = np.abs(head[:n])
    # string keys so reports survive a JSON round trip unchanged
    powers = {str(m): float(np.sum(mods ** (2 * m + 2))) for m in range(d + 1)}
    return {
        "difference_l2_sq": float(np.sum(np.abs(diff) ** 2)),
        "power_sums": powers,
        "l2": powers["0"],
        "l4": powers["1"],
    }


@dataclass
class GemReport:
    """One convergence experiment: schedule, both routes, verdict."""

    family: dict
    critical_points: list
    schedule: list
    trace_values: list
    site_values: list
    log_sums: list
    diagnostics: dict
    verdict: str
    slope: float
    value_range: float

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "criticalPoints": self.critical_points,
            "schedule": self.schedule,
            "traceRoute": self.trace_values,
            "corollaryRoute": self.site_values,
            "logTermSums": self.log_sums,
            "diagnostics": self.diagnostics,
            "verdict": self.verdict,
            "slope": self.slope,
            "range": self.value_range,
        }


def classify_values(schedule: Sequence[int], values: Sequence[float]) -> tuple:
    """Verdict from the least-squares slope over the top half of the schedule.

    ``|slope| < 1e-4`` and range < 1 over that window: bounded; ``slope >
    1e-2``: diverging; anything else: inconclusive.  A window of one point,
    as a schedule of one or two points has, shows no trend: inconclusive,
    with slope and range 0.  Returns ``(verdict, slope, range)``.
    """
    if len(schedule) != len(values) or not schedule:
        raise LabError("schedule and values must align and be nonempty")
    half = len(schedule) // 2
    xs = np.asarray(schedule[half:], dtype=float)
    ys = np.asarray(values[half:], dtype=float)
    if xs.size == 1:
        return "inconclusive", 0.0, 0.0
    slope = float(np.polyfit(xs, ys, 1)[0])
    value_range = float(np.max(ys) - np.min(ys))
    if abs(slope) < SLOPE_BOUNDED and value_range < RANGE_BOUNDED:
        return "bounded", slope, value_range
    if slope > SLOPE_DIVERGING:
        return "diverging", slope, value_range
    return "inconclusive", slope, value_range


def convergence_study(family: SequenceFamily, points: CriticalPoints,
                      schedule: Sequence[int] = DEFAULT_SCHEDULE,
                      max_n: int = 20000) -> GemReport:
    """Run both functional routes along the schedule and classify.

    The verdict is driven by the trace route; the per-site route is
    recorded alongside (their difference stays bounded in N).  Every
    route reads slices of one ``alpha.head(N_max + L)``, where ``L =
    max(max_shift + 1, d)`` is the longest look-ahead of any route.  The
    trace route and the log sums are computed afresh at each N; the site
    route is a running sum that each N extends by the sites above the
    previous N, so a study evaluates each site once.  The schedule and
    the weight degree (at most ``MAX_SITE_DEGREE``) are checked before
    anything is built.
    """
    if (not isinstance(schedule, (list, tuple)) or not schedule
            or not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1
                       for n in schedule)):
        raise LabError("schedule must be a nonempty list of integers >= 1")
    schedule = list(schedule)
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise LabError("schedule must be strictly increasing")
    if schedule[-1] > max_n:
        raise LabError("schedule exceeds the configured limit")
    if points.degree > MAX_SITE_DEGREE:
        raise LabError(f"weight degree {points.degree} exceeds the ceiling of "
                       f"{MAX_SITE_DEGREE} for compiling the site route")
    alpha = family.sequence()
    h = build_h(points, "exact")
    route = site_route(h)
    head = alpha.head(schedule[-1] + max(route.max_shift + 1, points.degree))
    trace_values = []
    site_values = []
    log_sums = []
    site_sum = 0.0
    prev = 0
    for n in schedule:
        u = ggt_matrix(head, n)
        log_sum = log_term(head[:n])
        trace_values.append(float(trace_v(u, h) - log_sum))
        # a site's term does not depend on N: add only the sites new at this point
        site_sum += site_functional(head[prev:], n - prev, route)
        site_values.append(site_sum)
        log_sums.append(float(log_sum))
        prev = n
    verdict, slope, value_range = classify_values(schedule, trace_values)
    diagnostics = condition_diagnostics(head, points, schedule[-1])
    return GemReport(
        family=family.to_json(),
        critical_points=points.to_json(),
        schedule=schedule,
        trace_values=trace_values,
        site_values=site_values,
        log_sums=log_sums,
        diagnostics=diagnostics,
        verdict=verdict,
        slope=slope,
        value_range=value_range,
    )


def export_report(report: GemReport, fmt: str = "json") -> bytes:
    """Serialize a report: JSON mirrors the fields, CSV has one row per N.

    JSON is strict: a non-finite value raises ValueError instead of being
    written as ``NaN`` or ``Infinity``.
    """
    if fmt == "json":
        return json.dumps(report.to_json(), sort_keys=True, indent=2,
                          allow_nan=False).encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["N", "traceRoute", "corollaryRoute", "logTermSum",
                         "diffNorm", "verdict"])
        for i, n in enumerate(report.schedule):
            diff = abs(float(report.trace_values[i]) - float(report.site_values[i]))
            writer.writerow([n, repr(float(report.trace_values[i])),
                             repr(float(report.site_values[i])),
                             repr(float(report.log_sums[i])), repr(diff),
                             report.verdict])
        return buf.getvalue().encode()
    raise LabError(f"unknown format {fmt!r}")
