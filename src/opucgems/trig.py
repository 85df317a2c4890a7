"""Nonnegative trigonometric weights from critical-point data.

The weight is ``H(e^{i\\theta}) = prod_j (1 - cos(theta - theta_j))^{m_j}``,
stored through its Fourier coefficients ``h_l`` for ``l in [-d, d]`` where
``d = sum m_j``.  Each critical point's factor is one binomial row.  With
``x = e^{i theta}``, ``z_j = e^{i theta_j}`` and ``w = x/z_j``, the identity
``1 - cos(theta - theta_j) = -(w^{1/2} - w^{-1/2})^2 / 2`` gives
``(1 - cos(theta - theta_j))^m = 2^{-m} sum_{l=-m}^{m} (-1)^l C(2m, m+l) w^l``.

H has one representation: ``h_l`` are Laurent polynomials in unit symbols
``z1..zK``.  A symbol stays generic unless its angle is an exact quarter
multiple of pi, in which case the Gaussian-rational unit is substituted.
Numeric values of H (``h_l``, ``Z_H``, values on a grid) come from one
evaluation of these coefficients at the angles, made on first numeric use.

``Z_H`` is the mean of H over the circle, which equals ``h_0``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .laurent import GR_I, GaussianRational, LaurentPoly, VarTable, _accumulate


class TrigError(Exception):
    pass


# exact units for angles theta = q*pi with q in {0, 1/2, 1, 3/2} (mod 2)
_EXACT_UNITS = {
    Fraction(0): GaussianRational(1),
    Fraction(1, 2): GR_I,
    Fraction(1): GaussianRational(-1),
    Fraction(3, 2): GaussianRational(0, -1),
}


def exact_unit(theta) -> GaussianRational | None:
    """``e^{i theta pi}`` for a Fraction angle that is a quarter multiple of
    pi; None for any other angle, which keeps a generic symbol."""
    return _EXACT_UNITS.get(theta % 2) if isinstance(theta, Fraction) else None


@dataclass(frozen=True)
class CriticalPoints:
    """Critical angles with multiplicities.

    Each angle is a Fraction (exact multiple of pi), a float (radians /
    pi, numeric only) or None (generic symbol).  Angles must be distinct
    in [0, 2*pi) and multiplicities positive.
    """

    angles: tuple
    multiplicities: tuple

    def __post_init__(self):
        if len(self.angles) != len(self.multiplicities):
            raise TrigError("angles and multiplicities must match")
        if not self.angles:
            raise TrigError("at least one critical point required")
        for m in self.multiplicities:
            if isinstance(m, bool) or not isinstance(m, int) or m < 1:
                raise TrigError("multiplicities must be positive integers")
        seen = set()
        for theta in self.angles:
            if theta is None:
                continue
            if isinstance(theta, Fraction):
                key = theta % 2
            elif isinstance(theta, float):
                if not math.isfinite(theta):
                    raise TrigError(f"critical angles must be finite, not {theta!r}")
                key = round(math.fmod(theta, 2.0) % 2.0, 12)
            else:
                raise TrigError(f"unsupported angle {theta!r}")
            if key in seen:
                raise TrigError("critical angles must be distinct in [0, 2*pi)")
            seen.add(key)

    @staticmethod
    def generic(multiplicities: Sequence[int]) -> "CriticalPoints":
        """K generic (symbolic) angles with the given multiplicities."""
        return CriticalPoints((None,) * len(multiplicities), tuple(multiplicities))

    @staticmethod
    def from_pairs(pairs: Sequence[tuple]) -> "CriticalPoints":
        """Build from (theta_over_pi, m) pairs."""
        return CriticalPoints(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))

    @staticmethod
    def from_json(data) -> "CriticalPoints":
        """Parse ``[{"thetaOverPi": "p/q" | number | null, "m": int}, ...]``."""
        if not isinstance(data, list) or not all(isinstance(e, dict) for e in data):
            raise TrigError("criticalPoints must be a list of {thetaOverPi, m} objects")
        angles = []
        mults = []
        for entry in data:
            unknown = sorted(set(entry) - {"thetaOverPi", "m"})
            if unknown:
                raise TrigError(f"critical point has no key {unknown[0]!r}")
            raw = entry.get("thetaOverPi")
            bad = f'critical angle {raw!r} must be a number, a "p/q" string or null'
            if raw is None:
                angles.append(None)
            elif isinstance(raw, str):
                try:
                    angles.append(Fraction(raw))
                except ZeroDivisionError:
                    raise TrigError(f"critical angle {raw!r} has a zero denominator") from None
                except ValueError:
                    raise TrigError(bad) from None
            elif isinstance(raw, (int, float)) and not isinstance(raw, bool):
                angles.append(_angle_float(raw))
            else:
                raise TrigError(bad)
            if "m" not in entry:
                raise TrigError("critical point needs key 'm'")
            mults.append(entry["m"])
        return CriticalPoints(tuple(angles), tuple(mults))

    def to_json(self) -> list:
        out = []
        for theta, m in zip(self.angles, self.multiplicities):
            if theta is None:
                raw = None
            elif isinstance(theta, Fraction):
                raw = str(theta)
            else:
                raw = theta
            out.append({"thetaOverPi": raw, "m": m})
        return out

    @property
    def count(self) -> int:
        return len(self.angles)

    @property
    def degree(self) -> int:
        return sum(self.multiplicities)

    def numeric_angles(self) -> list:
        """Angles in radians; fails on generic entries.  A float angle is
        reduced mod 2 (exactly, by ``fmod``) before it is scaled by pi."""
        out = []
        for theta in self.angles:
            if theta is None:
                raise TrigError("generic angle has no numeric value")
            if isinstance(theta, float):
                theta = math.fmod(theta, 2.0)
            out.append(_angle_float(theta) * math.pi)
        return out


def _angle_float(theta) -> float:
    """``float(theta)`` for an angle over pi; an int or Fraction beyond the
    float range is a :class:`TrigError`, not an ``OverflowError``."""
    try:
        return float(theta)
    except OverflowError:
        raise TrigError("critical angle is too large for a float") from None


@dataclass(frozen=True)
class TrigPoly:
    """The weight H with its coefficient vector and normalization Z_H.

    ``coeffs[l]`` is a LaurentPoly over ``table`` (unit symbols only) and
    ``unit_polys[j]`` is the polynomial standing for ``e^{i theta_j}`` (a
    symbol or an exact constant).  :attr:`numeric_coeffs` evaluates these
    coefficients at the concrete angles once, on first numeric use.
    """

    points: CriticalPoints
    degree: int
    table: VarTable
    coeffs: Mapping[int, LaurentPoly]
    unit_polys: tuple

    @cached_property
    def numeric_coeffs(self) -> dict:
        """``{l: h_l}`` for l in -d..d as complex numbers, ``Z_H = h_0``; shared, read-only."""
        values = self.unit_values()
        return {l: c.evaluate(values) for l, c in self.coeffs.items()}

    def unit_values(self) -> dict:
        """Numeric value of every table symbol (needs numeric angles)."""
        values = {}
        thetas = self.points.numeric_angles()
        for name, theta in zip(self.table.names, thetas):
            values[name] = cmath.exp(1j * theta)
        return values

    def eval_numeric(self, thetas: np.ndarray) -> np.ndarray:
        """Evaluate H on a grid of angles (real output)."""
        z = np.exp(1j * np.asarray(thetas, dtype=float))
        return sum(c * z ** l for l, c in self.numeric_coeffs.items()).real


def _convolve(a: dict, b: dict) -> dict:
    return _accumulate({}, ((la + lb, ca * cb)
                            for la, ca in a.items() for lb, cb in b.items()))


def build_h(points: CriticalPoints, mode: str = "exact") -> TrigPoly:
    """Construct H by convolving one binomial row per critical point,
    ``(1 - cos(theta - theta_j))^m = 2^{-m} sum_l (-1)^l C(2m, m+l) (x/z_j)^l``.

    A quarter-multiple Fraction angle gets its Gaussian-rational unit; other
    angles keep a generic symbol ``z_j``.  ``"exact"`` rejects any other
    Fraction angle; ``"numeric"`` keeps it as a symbol but rejects a generic
    (None) angle, so that H can be evaluated.
    """
    if mode not in ("exact", "numeric"):
        raise TrigError(f"unknown mode {mode!r}")
    if mode == "numeric" and None in points.angles:
        raise TrigError("generic angle has no numeric value")
    d = points.degree
    names = tuple(f"z{j + 1}" for j in range(points.count))
    table = VarTable(0, units=names)
    unit_polys = []
    for name, theta in zip(names, points.angles):
        unit = exact_unit(theta)
        if unit is not None:
            unit_polys.append(table.const(unit))
        elif isinstance(theta, Fraction) and mode == "exact":
            raise TrigError(
                f"angle {theta}*pi has no Gaussian-rational unit; "
                "use a float angle to keep the symbol generic"
            )
        else:
            unit_polys.append(table.var(name))
    coeffs = {0: table.one()}
    for z, m in zip(unit_polys, points.multiplicities):
        row = {l: z ** -l * Fraction((-1) ** abs(l) * math.comb(2 * m, m + l), 2 ** m)
               for l in range(-m, m + 1)}
        coeffs = _convolve(coeffs, row)
    full = {l: coeffs.get(l, table.zero()) for l in range(-d, d + 1)}
    for l in range(0, d + 1):
        if full[-l] != full[l].conjugate():
            raise TrigError("coefficient symmetry h_{-l} = conj(h_l) violated")
    return TrigPoly(points, d, table, full, tuple(unit_polys))
