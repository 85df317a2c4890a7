"""Nonnegative trigonometric weights from critical-point data.

The weight is ``H(e^{i\\theta}) = prod_j (1 - cos(theta - theta_j))^{m_j}``,
stored through its Fourier coefficients ``h_l`` for ``l in [-d, d]`` where
``d = sum m_j``.  Each factor is built from the exact linear factorization
``1 - cos(theta - theta_j) = (x - z_j)(1/x - 1/z_j) / 2`` with ``x = e^{i
theta}`` and ``z_j = e^{i theta_j}``.

Two modes:

* exact  - ``h_l`` are Laurent polynomials in unit symbols ``z1..zK``
  (symbols stay generic unless the angle is an exact quarter multiple of
  pi, in which case the Gaussian-rational unit is substituted),
* numeric - ``h_l`` are complex floats for concrete angles.

``Z_H`` is the mean of H over the circle, which equals ``h_0``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
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
            raw = entry.get("thetaOverPi")
            if raw is None:
                angles.append(None)
            elif isinstance(raw, str):
                angles.append(Fraction(raw))
            else:
                angles.append(float(raw))
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
        """Angles in radians; fails on generic entries."""
        out = []
        for theta in self.angles:
            if theta is None:
                raise TrigError("generic angle has no numeric value")
            out.append(float(theta) * math.pi)
        return out


@dataclass(frozen=True)
class TrigPoly:
    """The weight H with its coefficient vector and normalization Z_H.

    In exact mode ``coeffs[l]`` is a LaurentPoly over ``table`` (unit
    symbols only) and ``unit_polys[j]`` is the polynomial standing for
    ``e^{i theta_j}`` (a symbol or an exact constant).  In numeric mode
    ``numeric_coeffs[l + degree]`` is a complex float.
    """

    points: CriticalPoints
    degree: int
    table: VarTable | None
    coeffs: Mapping[int, LaurentPoly] | None
    unit_polys: tuple | None
    numeric_coeffs: np.ndarray | None

    @property
    def mode(self) -> str:
        return "exact" if self.coeffs is not None else "numeric"

    @property
    def z_h(self):
        """Normalization constant: the l = 0 Fourier coefficient."""
        if self.coeffs is not None:
            return self.coeffs[0]
        return self.numeric_coeffs[self.degree]

    def z_h_numeric(self) -> float:
        if self.numeric_coeffs is not None:
            return float(self.numeric_coeffs[self.degree].real)
        return complex(self.coeffs[0].evaluate(self.unit_values())).real

    def coeff_numeric(self, l: int) -> complex:
        if self.numeric_coeffs is not None:
            return complex(self.numeric_coeffs[l + self.degree])
        return self.coeffs[l].evaluate(self.unit_values())

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
        total = np.zeros_like(z)
        for l in range(-self.degree, self.degree + 1):
            total = total + self.coeff_numeric(l) * z ** l
        return total.real


def _convolve(a: dict, b: dict) -> dict:
    return _accumulate({}, ((la + lb, ca * cb)
                            for la, ca in a.items() for lb, cb in b.items()))


def build_h(points: CriticalPoints, mode: str = "exact") -> TrigPoly:
    """Construct H by convolving the 2d exact linear factors.

    Exact mode keeps generic unit symbols ``z_j`` for angles given as None
    or floats; Fraction angles must be quarter multiples of pi (the only
    ones whose unit is a Gaussian rational) and are substituted exactly.
    """
    d = points.degree
    if mode == "numeric":
        thetas = points.numeric_angles()
        coeffs = {0: complex(1.0)}
        for theta, m in zip(thetas, points.multiplicities):
            z = cmath.exp(1j * theta)
            for _ in range(m):
                coeffs = _convolve(coeffs, {1: 0.5, 0: -0.5 * z})
                coeffs = _convolve(coeffs, {-1: 1.0, 0: -z.conjugate()})
        vec = np.zeros(2 * d + 1, dtype=complex)
        for l, c in coeffs.items():
            vec[l + d] = c
        _validate_numeric(points, vec, d)
        return TrigPoly(points, d, None, None, None, vec)

    if mode != "exact":
        raise TrigError(f"unknown mode {mode!r}")

    names = tuple(f"z{j + 1}" for j in range(points.count))
    table = VarTable.build(0, units=names)
    unit_polys = []
    for name, theta in zip(names, points.angles):
        if isinstance(theta, Fraction):
            unit = _EXACT_UNITS.get(theta % 2)
            if unit is None:
                raise TrigError(
                    f"angle {theta}*pi has no Gaussian-rational unit; "
                    "use a float angle to keep the symbol generic"
                )
            unit_polys.append(table.const(unit))
        else:
            unit_polys.append(table.var(name))
    half = table.const(Fraction(1, 2))
    coeffs = {0: table.one()}
    for z, m in zip(unit_polys, points.multiplicities):
        z_inv = z.inverse()
        for _ in range(m):
            coeffs = _convolve(coeffs, {1: half, 0: -half * z})
            coeffs = _convolve(coeffs, {-1: table.one(), 0: -z_inv})
    full = {l: coeffs.get(l, table.zero()) for l in range(-d, d + 1)}
    for l in range(0, d + 1):
        if full[-l] != full[l].conjugate():
            raise TrigError("coefficient symmetry h_{-l} = conj(h_l) violated")
    return TrigPoly(points, d, table, full, tuple(unit_polys), None)


def _validate_numeric(points: CriticalPoints, vec: np.ndarray, d: int):
    if abs(vec[d].imag) > 1e-12:
        raise TrigError("Z_H must be real")
    for l in range(0, d + 1):
        if abs(vec[d - l] - vec[d + l].conjugate()) > 1e-10:
            raise TrigError("coefficient symmetry h_{-l} = conj(h_l) violated")
    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    z = np.exp(1j * thetas)
    values = sum(vec[l + d] * z ** l for l in range(-d, d + 1))
    if np.min(values.real) < -1e-10:
        raise TrigError("H must be nonnegative on the circle")


def build_v(h: TrigPoly):
    """Coefficients of V: ``v_l = -h_l / (Z_H * |l|)`` for l != 0, v_0 = 0.

    Numeric mode returns a complex vector indexed like ``numeric_coeffs``;
    exact mode returns a dict of LaurentPoly (requires h_0 to divide each
    h_l exactly, which always holds for a single critical point).
    """
    d = h.degree
    if h.mode == "numeric":
        z_h = h.z_h_numeric()
        if abs(z_h) < 1e-14:
            raise TrigError("Z_H vanished; invalid weight")
        vec = np.zeros(2 * d + 1, dtype=complex)
        for l in range(1, d + 1):
            vec[d + l] = -h.numeric_coeffs[d + l] / (z_h * l)
            vec[d - l] = -h.numeric_coeffs[d - l] / (z_h * l)
        return vec
    from .laurent import exact_div

    z_h = h.coeffs[0]
    if z_h.is_zero:
        raise TrigError("Z_H vanished; invalid weight")
    out = {0: h.table.zero()}
    for l in range(1, d + 1):
        scale = z_h * Fraction(l)
        out[l] = exact_div(-h.coeffs[l], scale)
        out[-l] = exact_div(-h.coeffs[-l], scale)
    return out
