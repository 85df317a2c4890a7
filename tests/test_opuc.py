"""GGT truncations, the trace functional and the quadrature oracle."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opucgems.opuc import (
    OpucError,
    VerblunskySeq,
    bs_weight_on_grid,
    bs_weight_quadrature,
    ggt_matrix,
    log_term,
    sum_rule_functional,
    trace_powers,
    trace_v,
)
from opucgems.trig import CriticalPoints, build_h


def h_szego():
    return build_h(CriticalPoints.from_pairs([(Fraction(0), 1)]), "numeric")


def random_seq(rng, n, radius=0.8):
    vals = radius * (rng.random(n) - 0.5) + 1j * radius * (rng.random(n) - 0.5)
    return VerblunskySeq.from_values(vals.tolist())


# -- dense oracles: the full matrix and repeated multiplication ---------------------


def dense_trace_powers(m, max_power):
    """Traces of m^1 .. m^max_power by dense matrix powers."""
    traces = []
    power = m
    for l in range(1, max_power + 1):
        traces.append(complex(np.trace(power)))
        if l < max_power:
            power = power @ m
    return traces


def dense_trace_v(m, h):
    """``trace_v`` on a dense matrix through :func:`dense_trace_powers`."""
    traces = dense_trace_powers(m, h.degree)
    acc = sum(h.coeff_numeric(l) / l * traces[l - 1] for l in range(1, h.degree + 1))
    return float(-(2.0 / h.z_h_numeric()) * acc.real)


def trace_v_inverse(m, h):
    """``Tr V(m)`` using the exact matrix inverse for x^{-l}.

    Only meaningful when m is (numerically) unitary; validates the adjoint
    convention of :func:`trace_v`.
    """
    d = h.degree
    traces = dense_trace_powers(m, d)
    inv_traces = dense_trace_powers(np.linalg.inv(m), d)
    acc = 0.0 + 0.0j
    for l in range(1, d + 1):
        acc += h.coeff_numeric(l) / l * traces[l - 1]
        acc += h.coeff_numeric(-l) / l * inv_traces[l - 1]
    return float((-1.0 / h.z_h_numeric()) * acc.real)


# -- matrix structure -----------------------------------------------------------------


def test_size_one_corner_is_conjugate_alpha0():
    a = VerblunskySeq.from_values([0.3 + 0.1j])
    u = ggt_matrix(a, 1).dense()
    assert u[0, 0] == np.conj(0.3 + 0.1j)


def test_size_two_corner():
    a0, a1 = 0.3 + 0.1j, -0.2 + 0.4j
    a = VerblunskySeq.from_values([a0, a1])
    rho0 = math.sqrt(1 - abs(a0) ** 2)
    u = ggt_matrix(a, 2).dense()
    expected = np.array(
        [[np.conj(a0), np.conj(a1) * rho0], [rho0, -a0 * np.conj(a1)]])
    assert np.max(np.abs(u - expected)) <= 1e-14


def test_zero_sequence_gives_shift():
    u = ggt_matrix(VerblunskySeq.from_values([]), 3).dense()
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = 1.0
    assert np.max(np.abs(u - expected)) == 0.0


def test_strict_subdiagonal_zeros():
    rng = np.random.default_rng(3)
    u = ggt_matrix(random_seq(rng, 6), 6).dense()
    for k in range(6):
        for l in range(6):
            if k >= l + 2:
                assert u[k, l] == 0.0


def test_entries_match_definition():
    rng = np.random.default_rng(4)
    seq = random_seq(rng, 5)
    n = 5
    u = ggt_matrix(seq, n).dense()
    rho = [math.sqrt(1 - abs(seq(j)) ** 2) for j in range(n)]
    for k in range(n):
        for l in range(k, n):
            prod = 1.0
            for j in range(k, l):
                prod *= rho[j]
            expected = -seq(k - 1) * np.conj(seq(l)) * prod
            assert abs(u[k, l] - expected) <= 1e-14
        if k + 1 < n:
            assert abs(u[k + 1, k] - rho[k]) <= 1e-14


def test_zero_sequence_powers_have_zero_trace():
    u = ggt_matrix(VerblunskySeq.from_values([]), 7)
    for t in trace_powers(u, 6):
        assert abs(t) == 0.0


def test_sequence_index_conventions():
    seq = VerblunskySeq.from_values([0.25j])
    assert seq(-1) == -1.0 + 0.0j
    assert seq(-4) == 0.0 + 0.0j
    assert seq(0) == 0.25j
    assert seq(5) == 0.0 + 0.0j  # past the support


def test_invalid_modulus_rejected():
    with pytest.raises(OpucError):
        VerblunskySeq.from_values([1.0])
    bad = VerblunskySeq(lambda n: np.full(n.shape, 1.5), support=None)
    with pytest.raises(OpucError):
        bad.head(3)


def test_generator_must_return_one_value_per_index():
    # a scalar would otherwise broadcast into a constant sequence unnoticed
    with pytest.raises(OpucError):
        VerblunskySeq(lambda n: 0.5).head(3)


# -- trace functional -------------------------------------------------------------------


def test_trace_v_zero_sequence_vanishes():
    h = h_szego()
    for n in (2, 5, 9):
        u = ggt_matrix(VerblunskySeq.from_values([]), n)
        assert abs(trace_v(u, h)) == 0.0


def test_trace_v_first_order_formula():
    # for H = 1 - cos(theta): Tr V(U_N) = -sum Re(alpha_{n-1} conj(alpha_n))
    rng = np.random.default_rng(5)
    seq = random_seq(rng, 7)
    n = 10
    u = ggt_matrix(seq, n)
    direct = -sum((seq(j - 1) * np.conj(seq(j))).real for j in range(n))
    assert abs(trace_v(u, h_szego()) - direct) <= 1e-12


def test_trace_v_matrix_oracle_higher_degree():
    # entrywise V(U) with adjoint powers, for a degree-3 weight
    rng = np.random.default_rng(11)
    h = build_h(CriticalPoints.from_pairs([(0.3, 2), (1.4, 1)]), "numeric")
    seq = random_seq(rng, 6)
    n = 7
    u = ggt_matrix(seq, n)
    m = u.dense()
    v_of_u = np.zeros((n, n), dtype=complex)
    for l in range(1, h.degree + 1):
        coeff = h.coeff_numeric(l)
        v_of_u += -(coeff / l) * np.linalg.matrix_power(m, l) / h.z_h_numeric()
        v_of_u += -(np.conj(coeff) / l) * \
            np.linalg.matrix_power(m.conj().T, l) / h.z_h_numeric()
    assert abs(trace_v(u, h) - np.trace(v_of_u).real) <= 1e-12


def test_degree_must_be_smaller_than_size():
    h = build_h(CriticalPoints.from_pairs([(Fraction(0), 2)]), "numeric")
    u = ggt_matrix(VerblunskySeq.from_values([0.1]), 2)
    with pytest.raises(OpucError):
        trace_v(u, h)


@pytest.mark.parametrize("eps,tol", [(1e-8, 1e-6), (1e-12, 1e-10)])
def test_adjoint_convention_against_inverse_near_unitary(eps, tol):
    # the truncation is unitary exactly when |alpha_{N-1}| = 1; close to the
    # boundary the adjoint and inverse readings agree to O(eps)
    rng = np.random.default_rng(6)
    h = build_h(CriticalPoints.from_pairs([(Fraction(0), 2)]), "numeric")
    for _ in range(5):
        vals = 0.5 * (rng.random(3) - 0.5) + 0.5j * (rng.random(3) - 0.5)
        boundary = (1 - eps) * np.exp(2j * np.pi * rng.random())
        seq = VerblunskySeq.from_values(list(vals) + [boundary])
        u = ggt_matrix(seq, 4)
        assert abs(trace_v(u, h) - trace_v_inverse(u.dense(), h)) <= tol


def test_diagonals_equal_dense_fill_exactly():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        u = ggt_matrix(random_seq(rng, n, radius=1.3), n)
        m = u.dense()
        assert m.shape == u.shape == (n, n)
        for j in range(-n - 1, n + 2):
            assert np.array_equal(u.diagonal(j), m.diagonal(j))


def test_tiny_rho_products_stay_finite():
    # |alpha| this close to 1 underflows rho products; a quotient of
    # cumulative products would turn them into 0/0
    seq = VerblunskySeq.from_values([np.nextafter(1.0, 0.0)] * 60 + [0.3] * 4)
    u = ggt_matrix(seq, 64)
    for j in range(-1, 64):
        assert np.array_equal(u.diagonal(j), u.dense().diagonal(j))
    assert all(np.isfinite(t) for t in trace_powers(u, 6))


@st.composite
def weights(draw, d):
    """A numeric weight of degree d with one or two float critical points."""
    if d == 1 or draw(st.booleans()):
        mults = [d]
    else:
        first = draw(st.integers(1, d - 1))
        mults = [first, d - first]
    # angles over pi, from disjoint ranges so that they stay distinct
    angles = [draw(st.floats(lo, lo + 0.9)) for lo in (0.0, 1.0)[:len(mults)]]
    return build_h(CriticalPoints.from_pairs(list(zip(angles, mults))), "numeric")


def close(got, want):
    """Equal within 1e-12, relative to |want| but never to less than 1."""
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 800), d=st.integers(1, 6), radius=st.floats(0.0, 0.95),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_banded_trace_route_equals_dense_oracle(n, d, radius, seed, data):
    rng = np.random.default_rng(seed)
    vals = radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    u = ggt_matrix(VerblunskySeq.from_values(vals.tolist()), n)
    m = u.dense()
    banded = trace_powers(u, d)
    assert trace_powers(m, d) == banded
    for got, want in zip(banded, dense_trace_powers(m, d), strict=True):
        assert close(got, want)
    h = data.draw(weights(d))
    if d < n:
        assert close(trace_v(u, h), dense_trace_v(m, h))
    else:
        with pytest.raises(OpucError):
            trace_v(u, h)


def test_trace_v_at_n_20000_stays_small_in_memory():
    # one dense 20000 x 20000 complex matrix would be 6.4 GB
    h = build_h(CriticalPoints.from_pairs([(0.3, 2), (1.1, 2)]), "numeric")
    seq = VerblunskySeq(lambda n: 0.5 / (n + 1) ** 0.7, support=None)
    tracemalloc.start()
    try:
        value = trace_v(ggt_matrix(seq, 20000), h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(value)
    assert peak < 32 * 2 ** 20


# -- the sum-rule functional ---------------------------------------------------------------


def test_functional_zero_sequence():
    assert sum_rule_functional(VerblunskySeq.from_values([]), 5, h_szego()) == 0.0


def test_functional_single_coefficient_value():
    # alpha = (1/2, 0, ...): trace term 1/2, log term log(3/4)
    seq = VerblunskySeq.from_values([0.5])
    value = sum_rule_functional(seq, 4, h_szego())
    assert abs(value - (0.5 - math.log(0.75))) <= 1e-14
    # brute-force matrix oracle: build V(U) entrywise from powers
    u = ggt_matrix(seq, 4).dense()
    h = h_szego()
    v_of_u = np.zeros((4, 4), dtype=complex)
    for l in range(1, 2):
        coeff = complex(h.coeff_numeric(l))
        v_of_u += -(coeff / l) * np.linalg.matrix_power(u, l) / h.z_h_numeric()
        v_of_u += -(np.conj(coeff) / l) * np.linalg.matrix_power(u.conj().T, l) / h.z_h_numeric()
    oracle = float(np.trace(v_of_u).real) - log_term(seq, 4)
    assert abs(value - oracle) <= 1e-14


def test_functional_stabilizes_past_support():
    rng = np.random.default_rng(7)
    h = build_h(CriticalPoints.from_pairs([(0.5, 1), (1.7, 1)]), "numeric")
    seq = random_seq(rng, 5)
    base = sum_rule_functional(seq, 5 + h.degree + 1, h)
    for n in (9, 12, 20, 33):
        assert abs(sum_rule_functional(seq, n, h) - base) <= 1e-12


def test_functional_steps_stay_bounded():
    # no blowup of f(N+1) - f(N) for |alpha| <= 0.9
    rng = np.random.default_rng(8)
    h = build_h(CriticalPoints.from_pairs([(Fraction(0), 2)]), "numeric")
    seq = random_seq(rng, 70, radius=1.2)  # re, im in [-0.6, 0.6]: |alpha| <= 0.85
    values = [sum_rule_functional(seq, n, h) for n in range(3, 60)]
    steps = np.abs(np.diff(values))
    assert np.max(steps) <= 25.0


# -- Bernstein-Szego quadrature -------------------------------------------------------------


def test_quadrature_single_coefficient():
    seq = VerblunskySeq.from_values([0.5])
    value = bs_weight_quadrature(seq, None)
    assert abs(value - math.log(0.75)) <= 1e-10


def test_quadrature_zero_sequence():
    seq = VerblunskySeq.from_values([])
    h = h_szego()
    assert abs(bs_weight_quadrature(seq, h)) <= 1e-14


def test_weight_is_probability_density():
    rng = np.random.default_rng(9)
    seq = random_seq(rng, 6, radius=1.2)
    thetas = np.linspace(0, 2 * math.pi, 1 << 13, endpoint=False)
    w = bs_weight_on_grid(seq, thetas)
    assert np.min(w) > 0.0
    assert abs(np.mean(w) - 1.0) <= 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_szego_identity_random_finite_sequences(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 9))
    seq = random_seq(rng, n, radius=1.4)
    quad = bs_weight_quadrature(seq, None)
    direct = float(np.sum(np.log(1.0 - np.abs(seq.head(n)) ** 2)))
    assert abs(quad - direct) <= 1e-8


def test_quadrature_needs_finite_support():
    seq = VerblunskySeq(lambda n: 0.5 / (n + 1), support=None)
    with pytest.raises(OpucError):
        bs_weight_quadrature(seq, None)
