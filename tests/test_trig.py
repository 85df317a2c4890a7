"""Weight construction: coefficients, symmetry, normalization, V."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opucgems.opuc import VerblunskySeq
from opucgems.trig import CriticalPoints, TrigError, build_h
from oracles import linear_factor_weight, sum_rule_functional


def coeff(h, l):
    return h.coeffs[l].constant_value()


def test_single_point_order_one():
    h = build_h(CriticalPoints.from_pairs([(Fraction(0), 1)]))
    assert coeff(h, 0) == 1
    assert coeff(h, 1) == Fraction(-1, 2)
    assert coeff(h, -1) == Fraction(-1, 2)


def test_single_point_order_two():
    h = build_h(CriticalPoints.from_pairs([(Fraction(0), 2)]))
    assert coeff(h, 0) == Fraction(3, 2)
    assert coeff(h, 1) == -1 and coeff(h, -1) == -1
    assert coeff(h, 2) == Fraction(1, 4) and coeff(h, -2) == Fraction(1, 4)


def test_two_opposite_points():
    h = build_h(CriticalPoints.from_pairs([(Fraction(0), 1), (Fraction(1), 1)]))
    assert coeff(h, 0) == Fraction(1, 2)
    assert coeff(h, 1) == 0 and coeff(h, -1) == 0
    assert coeff(h, 2) == Fraction(-1, 4) and coeff(h, -2) == Fraction(-1, 4)


def test_generic_symbols_stay_symbolic():
    h = build_h(CriticalPoints.generic([1]))
    t = h.table
    assert h.coeffs[1] == t.monomial({"z1": -1}, Fraction(-1, 2))
    assert h.coeffs[-1] == t.monomial({"z1": 1}, Fraction(-1, 2))
    assert h.coeffs[0] == t.one()


def test_quarter_angle_substitutes_exact_unit():
    h = build_h(CriticalPoints.from_pairs([(Fraction(1, 2), 1)]))
    # z = i: h_1 = -1/(2z) = i/2
    c = coeff(h, 1)
    assert (c.re, c.im) == (0, Fraction(1, 2))
    assert coeff(h, -1) == c.conjugate()


def test_non_quarter_fraction_rejected_in_exact_mode():
    with pytest.raises(TrigError):
        build_h(CriticalPoints.from_pairs([(Fraction(1, 3), 1)]))


def test_numeric_mode_keeps_non_quarter_fraction_and_rejects_generic():
    h = build_h(CriticalPoints.from_pairs([(Fraction(1, 3), 1)]), "numeric")
    # h_1 = -1/(2z) with z = e^{i pi/3}
    assert abs(h.numeric_coeffs[1] + 0.5 * np.exp(-1j * math.pi / 3)) <= 1e-15
    with pytest.raises(TrigError):
        build_h(CriticalPoints.generic([1]), "numeric")


def test_duplicate_angles_rejected():
    with pytest.raises(TrigError):
        CriticalPoints.from_pairs([(Fraction(0), 1), (Fraction(2), 1)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_numeric_coefficients_reproduce_product(seed):
    rng = np.random.default_rng(seed)
    n_points = int(rng.integers(1, 4))
    mults = rng.integers(1, 3, size=n_points).tolist()
    while sum(mults) > 6:
        mults[0] = 1
    angles = np.sort(rng.random(n_points) * 1.9).tolist()
    pts = CriticalPoints.from_pairs(list(zip(angles, mults)))
    h = build_h(pts, "numeric")
    thetas = np.linspace(0.0, 2 * math.pi, 1000, endpoint=False)
    direct = np.ones_like(thetas)
    for theta, m in zip(pts.numeric_angles(), pts.multiplicities):
        direct *= (1.0 - np.cos(thetas - theta)) ** m
    assert np.max(np.abs(h.eval_numeric(thetas) - direct)) <= 1e-12


@pytest.mark.parametrize("pairs", [[(0.37, 17)], [(0.0, 24)], [(0.2, 12), (1.3, 12)]])
def test_high_degree_weights_evaluate_to_the_product(pairs):
    # coefficients grow like 2^d, so H is checked relative to its maximum
    pts = CriticalPoints.from_pairs(pairs)
    h = build_h(pts, "numeric")
    thetas = np.linspace(0.0, 2 * math.pi, 2000, endpoint=False)
    direct = np.ones_like(thetas)
    for theta, m in zip(pts.numeric_angles(), pts.multiplicities):
        direct *= (1.0 - np.cos(thetas - theta)) ** m
    assert np.max(np.abs(h.eval_numeric(thetas) - direct)) <= 1e-10 * np.max(direct)
    alpha = VerblunskySeq(lambda n: 0.3 / (n + 1), support=None)
    assert math.isfinite(sum_rule_functional(alpha.head(400), 400, h))


def test_z_h_equals_h0_and_quadrature():
    pts = CriticalPoints.from_pairs([(0.4, 2), (1.3, 1)])
    h = build_h(pts, "numeric")
    thetas = np.linspace(0.0, 2 * math.pi, 1 << 14, endpoint=False)
    quad = float(np.mean(h.eval_numeric(thetas)))
    assert abs(h.numeric_coeffs[0].real - quad) <= 1e-12
    hx = build_h(pts, "exact")
    # the exact l = 0 coefficient, evaluated at the angles, is that mean too
    assert abs(hx.coeffs[0].evaluate(hx.unit_values()) - quad) <= 1e-12


def test_exact_specialization_matches_numeric():
    pts = CriticalPoints.from_pairs([(0.25, 1), (0.9, 2)])
    hx = build_h(pts, "exact")
    hn = build_h(pts, "numeric")
    values = hx.unit_values()
    for l in range(-hx.degree, hx.degree + 1):
        assert abs(hx.coeffs[l].evaluate(values) - hn.numeric_coeffs[l]) <= 1e-12


@st.composite
def weights(draw):
    """``(points, mode)``: K <= 3 critical points of total degree d <= 8, all
    generic, all quarter Fractions, Fractions of pi/6 (``"numeric"``, quarter
    multiples among them) or floats."""
    mults = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)
                 .filter(lambda m: sum(m) <= 8))
    kind = draw(st.sampled_from(["generic", "quarter", "sixth", "float"]))
    if kind == "generic":
        return CriticalPoints.generic(mults), "exact"
    pool = {"quarter": [Fraction(q, 2) for q in range(4)],
            "sixth": [Fraction(q, 6) for q in range(12)],
            "float": [q / 50 for q in range(100)]}[kind]
    angles = draw(st.lists(st.sampled_from(pool), min_size=len(mults),
                           max_size=len(mults), unique=True))
    mode = "numeric" if kind == "sixth" else "exact"
    return CriticalPoints.from_pairs(list(zip(angles, mults))), mode


@settings(max_examples=60, deadline=None)
@given(weights())
def test_binomial_rows_equal_the_linear_factor_product(case):
    points, mode = case
    h = build_h(points, mode)
    oracle = linear_factor_weight(points, mode)
    assert set(h.coeffs) == set(oracle)
    for l, c in oracle.items():
        assert h.coeffs[l] == c


def test_coefficient_symmetry_exact():
    hx = build_h(CriticalPoints.generic([2, 1]))
    for l in range(0, hx.degree + 1):
        assert hx.coeffs[-l] == hx.coeffs[l].conjugate()


def test_json_round_trip():
    pts = CriticalPoints.from_json(
        [{"thetaOverPi": "1/2", "m": 2}, {"thetaOverPi": 0.3, "m": 1},
         {"thetaOverPi": None, "m": 1}])
    assert pts.degree == 4
    assert pts.angles[0] == Fraction(1, 2)
    assert CriticalPoints.from_json(pts.to_json()) == pts
