"""GGT truncations, the trace functional and the quadrature oracle."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opucgems import lab, opuc
from opucgems.lab import LabError, SequenceFamily, convergence_study
from opucgems.laurent import LaurentPoly
from opucgems.opuc import (
    OpucError,
    VerblunskySeq,
    bs_weight_on_grid,
    bs_weight_quadrature,
    ggt_matrix,
    log_term,
    trace_powers,
    trace_v,
)
from opucgems.trig import CriticalPoints, build_h
from oracles import sum_rule_functional


def h_szego():
    return build_h(CriticalPoints.from_pairs([(Fraction(0), 1)]), "numeric")


def random_seq(rng, n, radius=0.8):
    vals = radius * (rng.random(n) - 0.5) + 1j * radius * (rng.random(n) - 0.5)
    return VerblunskySeq.from_values(vals.tolist())


# -- dense oracles: the full matrix and repeated multiplication ---------------------


def dense(u):
    """The full matrix of a :class:`GGTCorner`, filled row by row: O(N^2) memory."""
    n = u.shape[0]
    a, rho = u.a, u.rho
    m = np.zeros((n, n), dtype=complex)
    conj_tail = np.conj(a[1:])
    for k in range(n):
        # rho_k * ... * rho_{l-1} for l = k..n-1, leading factor 1
        prods = np.empty(n - k, dtype=complex)
        prods[0] = 1.0
        if n - k > 1:
            np.cumprod(rho[k:n - 1], out=prods[1:])
        m[k, k:] = -a[k] * conj_tail[k:] * prods
        if k + 1 < n:
            m[k + 1, k] = rho[k]
    return m


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
    acc = sum(h.numeric_coeffs[l] / l * traces[l - 1] for l in range(1, h.degree + 1))
    return float(-(2.0 / h.numeric_coeffs[0].real) * acc.real)


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
        acc += h.numeric_coeffs[l] / l * traces[l - 1]
        acc += h.numeric_coeffs[-l] / l * inv_traces[l - 1]
    return float((-1.0 / h.numeric_coeffs[0].real) * acc.real)


# -- matrix structure -----------------------------------------------------------------


def test_size_one_corner_is_conjugate_alpha0():
    a = VerblunskySeq.from_values([0.3 + 0.1j])
    u = dense(ggt_matrix(a.head(1), 1))
    assert u[0, 0] == np.conj(0.3 + 0.1j)


def test_size_two_corner():
    a0, a1 = 0.3 + 0.1j, -0.2 + 0.4j
    a = VerblunskySeq.from_values([a0, a1])
    rho0 = math.sqrt(1 - abs(a0) ** 2)
    u = dense(ggt_matrix(a.head(2), 2))
    expected = np.array(
        [[np.conj(a0), np.conj(a1) * rho0], [rho0, -a0 * np.conj(a1)]])
    assert np.max(np.abs(u - expected)) <= 1e-14


def test_zero_sequence_gives_shift():
    u = dense(ggt_matrix(VerblunskySeq.from_values([]).head(3), 3))
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = 1.0
    assert np.max(np.abs(u - expected)) == 0.0


def test_strict_subdiagonal_zeros():
    rng = np.random.default_rng(3)
    u = dense(ggt_matrix(random_seq(rng, 6).head(6), 6))
    for k in range(6):
        for l in range(6):
            if k >= l + 2:
                assert u[k, l] == 0.0


def test_entries_match_definition():
    rng = np.random.default_rng(4)
    n = 5
    head = random_seq(rng, n).head(n)
    u = dense(ggt_matrix(head, n))
    rho = [math.sqrt(1 - abs(head[j]) ** 2) for j in range(n)]
    for k in range(n):
        for l in range(k, n):
            prod = 1.0
            for j in range(k, l):
                prod *= rho[j]
            alpha_prev = head[k - 1] if k else -1.0  # alpha_{-1} = -1
            expected = -alpha_prev * np.conj(head[l]) * prod
            assert abs(u[k, l] - expected) <= 1e-14
        if k + 1 < n:
            assert abs(u[k + 1, k] - rho[k]) <= 1e-14


def test_zero_sequence_powers_have_zero_trace():
    for t in trace_powers(VerblunskySeq.from_values([]).head(7), 6, 0, 7):
        assert abs(t) == 0.0


def test_sequence_index_conventions():
    head = VerblunskySeq.from_values([0.25j]).head(6)
    assert head[0] == 0.25j
    assert head[5] == 0.0 + 0.0j  # past the support


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
        assert abs(trace_v(VerblunskySeq.from_values([]).head(n), h, 0, n)) == 0.0


def test_trace_v_first_order_formula():
    # for H = 1 - cos(theta): Tr V(U_N) = -sum Re(alpha_{n-1} conj(alpha_n))
    rng = np.random.default_rng(5)
    n = 10
    head = random_seq(rng, 7).head(n)
    # the j = 0 term reads alpha_{-1} = -1
    direct = -sum((alpha_prev * np.conj(alpha_j)).real
                  for alpha_prev, alpha_j in zip(np.append(-1.0, head), head))
    assert abs(trace_v(head, h_szego(), 0, n) - direct) <= 1e-12


def test_trace_v_matrix_oracle_higher_degree():
    # entrywise V(U) with adjoint powers, for a degree-3 weight
    rng = np.random.default_rng(11)
    h = build_h(CriticalPoints.from_pairs([(0.3, 2), (1.4, 1)]), "numeric")
    seq = random_seq(rng, 6)
    n = 7
    m = dense(ggt_matrix(seq.head(n), n))
    v_of_u = np.zeros((n, n), dtype=complex)
    z_h = h.numeric_coeffs[0].real
    for l in range(1, h.degree + 1):
        coeff = h.numeric_coeffs[l]
        v_of_u += -(coeff / l) * np.linalg.matrix_power(m, l) / z_h
        v_of_u += -(np.conj(coeff) / l) * np.linalg.matrix_power(m.conj().T, l) / z_h
    assert abs(trace_v(seq.head(n), h, 0, n) - np.trace(v_of_u).real) <= 1e-12


def test_degree_must_be_smaller_than_size():
    # the trace route is defined at every N; a study refuses its first N
    # at or below the weight degree, before it builds anything
    points = CriticalPoints.from_pairs([(Fraction(0), 2)])
    with pytest.raises(LabError, match="^weight degree 2 must be smaller than the "
                                       "matrix size, but the schedule starts at N = 2$"):
        convergence_study(SequenceFamily.finite_support([0.1]), points, [2, 4])


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
        head = seq.head(4)
        assert abs(trace_v(head, h, 0, 4) - trace_v_inverse(dense(ggt_matrix(head, 4)), h)) <= tol


def test_tiny_rho_products_stay_finite():
    # |alpha| this close to 1 underflows the dense oracle's rho products,
    # and the recursion's Mobius steps meet |alpha| = 1 to rounding
    seq = VerblunskySeq.from_values([np.nextafter(1.0, 0.0)] * 60 + [0.3] * 4)
    traces = trace_powers(seq.head(64), 6, 0, 64)
    assert all(np.isfinite(t) for t in traces)
    for got, want in zip(traces, dense_trace_powers(dense(ggt_matrix(seq.head(64), 64)), 6)):
        assert close(got, want)


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


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 60), h=st.integers(1, 8).flatmap(weights),
       radius=st.floats(0.0, 0.97), seed=st.integers(0, 2 ** 32 - 1))
# N <= d + 1, and a run of coefficients near the bound at the largest degree
@example(n=1, h=build_h(CriticalPoints.from_pairs([(0.5, 1)])), radius=0.5, seed=1)
@example(n=3, h=build_h(CriticalPoints.from_pairs([(0.25, 8)])), radius=0.9, seed=3)
@example(n=9, h=build_h(CriticalPoints.from_pairs([(0.25, 8)])), radius=0.97, seed=2)
def test_trace_route_equals_dense_oracle(n, h, radius, seed):
    d = h.degree
    rng = np.random.default_rng(seed)
    vals = radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    head = VerblunskySeq.from_values(vals.tolist()).head(n)
    m = dense(ggt_matrix(head, n))
    # blocks of one to a few sites, so that the shares cross block edges
    budget = int(rng.integers(d, 4 * d + 1))
    split = int(rng.integers(0, n + 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(opuc, "SITE_ELEMENTS", budget)
        whole = trace_powers(head, d, 0, n)
        shares = trace_powers(head, d, 0, split) + trace_powers(head, d, split, n)
        value = trace_v(head, h, 0, n)
        value_shares = trace_v(head, h, 0, split) + trace_v(head, h, split, n)
    for got, share, want in zip(whole, shares, dense_trace_powers(m, d), strict=True):
        assert close(got, want)
        assert close(share, got)
    want = dense_trace_v(m, h)
    assert close(value, want)
    assert close(value_shares, value)


def test_trace_route_needs_every_site():
    head = VerblunskySeq.from_values([0.3, 0.2, 0.1]).head(3)
    with pytest.raises(OpucError):
        trace_powers(head, 2, 1, 4)


def test_trace_v_at_n_20000_stays_small_in_memory():
    # one dense 20000 x 20000 complex matrix would be 6.4 GB
    h = build_h(CriticalPoints.from_pairs([(0.3, 2), (1.1, 2)]), "numeric")
    seq = VerblunskySeq(lambda n: 0.5 / (n + 1) ** 0.7, support=None)
    head = seq.head(20000)
    tracemalloc.start()
    try:
        value = trace_v(head, h, 0, 20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(value)
    assert peak < 32 * 2 ** 20


def test_trace_v_memory_stays_bounded_along_a_long_study(monkeypatch):
    # the block of sites, not N, bounds the trace route's working memory;
    # O(N d) temporaries of about 240 bytes a site would take 62.5 MB at
    # the last point, N = 2.56e5
    peaks = []

    def measured(*args):
        tracemalloc.start()
        try:
            return trace_v(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(lab, "trace_v", measured)
    schedule = [1000 * 2 ** j for j in range(9)]
    report = convergence_study(SequenceFamily.power_decay(0.5, 0.22, 0.3),
                               CriticalPoints.from_pairs([(0.3, 3), (1.1, 1)]),
                               schedule, max_n=schedule[-1])
    assert len(peaks) == len(schedule)
    assert all(math.isfinite(v) for v in report.trace_values)
    assert max(peaks) < 8 * 2 ** 20


# -- the sum-rule functional ---------------------------------------------------------------


def test_functional_zero_sequence():
    assert sum_rule_functional(VerblunskySeq.from_values([]).head(5), 5, h_szego()) == 0.0


def test_functional_single_coefficient_value():
    # alpha = (1/2, 0, ...): trace term 1/2, log term log(3/4)
    seq = VerblunskySeq.from_values([0.5])
    value = sum_rule_functional(seq.head(4), 4, h_szego())
    assert abs(value - (0.5 - math.log(0.75))) <= 1e-14
    # brute-force matrix oracle: build V(U) entrywise from powers
    u = dense(ggt_matrix(seq.head(4), 4))
    h = h_szego()
    v_of_u = np.zeros((4, 4), dtype=complex)
    z_h = h.numeric_coeffs[0].real
    for l in range(1, 2):
        coeff = complex(h.numeric_coeffs[l])
        v_of_u += -(coeff / l) * np.linalg.matrix_power(u, l) / z_h
        v_of_u += -(np.conj(coeff) / l) * np.linalg.matrix_power(u.conj().T, l) / z_h
    oracle = float(np.trace(v_of_u).real) - log_term(seq.head(4))
    assert abs(value - oracle) <= 1e-14


def test_functional_stabilizes_past_support():
    rng = np.random.default_rng(7)
    h = build_h(CriticalPoints.from_pairs([(0.5, 1), (1.7, 1)]), "numeric")
    seq = random_seq(rng, 5)
    n0 = 5 + h.degree + 1
    base = sum_rule_functional(seq.head(n0), n0, h)
    for n in (9, 12, 20, 33):
        assert abs(sum_rule_functional(seq.head(n), n, h) - base) <= 1e-12


def test_functional_steps_stay_bounded():
    # no blowup of f(N+1) - f(N) for |alpha| <= 0.9
    rng = np.random.default_rng(8)
    h = build_h(CriticalPoints.from_pairs([(Fraction(0), 2)]), "numeric")
    seq = random_seq(rng, 70, radius=1.2)  # re, im in [-0.6, 0.6]: |alpha| <= 0.85
    values = [sum_rule_functional(seq.head(n), n, h) for n in range(3, 60)]
    steps = np.abs(np.diff(values))
    assert np.max(steps) <= 25.0


# -- Bernstein-Szego quadrature -------------------------------------------------------------


def test_quadrature_single_coefficient():
    value = bs_weight_quadrature(VerblunskySeq.from_values([0.5]).head(1), None)
    assert abs(value - math.log(0.75)) <= 1e-10


def test_quadrature_zero_sequence():
    values = VerblunskySeq.from_values([]).head(0)
    assert abs(bs_weight_quadrature(values, h_szego())) <= 1e-14


D5_POINTS = CriticalPoints.from_pairs([(0.3, 3), (1.1, 2)])
D5_FAMILY = SequenceFamily.power_decay(0.4, 0.9, phase=0.37)


@pytest.mark.parametrize("run", [
    lambda: convergence_study(D5_FAMILY, D5_POINTS, (50, 100, 200, 400)),
    lambda: convergence_study(D5_FAMILY, D5_POINTS, (50, 100, 200, 400, 800, 1600, 3200, 6400)),
    lambda: bs_weight_quadrature(np.array([0.5, 0.2j, -0.1]), build_h(D5_POINTS)),
], ids=["study-4-points", "study-8-points", "quadrature"])
def test_the_weight_is_evaluated_once(monkeypatch, run):
    # both routes, at every point of the schedule, and every grid of the
    # quadrature read h_l from one cached evaluation of the 2d + 1 exact ones
    calls = []
    evaluate = LaurentPoly.evaluate
    monkeypatch.setattr(LaurentPoly, "evaluate",
                        lambda poly, values: calls.append(poly) or evaluate(poly, values))
    run()
    assert len(calls) == 2 * D5_POINTS.degree + 1


def test_quadrature_that_does_not_converge_raises():
    # |alpha| this close to 1 puts a spike in log w that no grid below the
    # ceiling resolves to QUADRATURE_TOL; the last grid's value is not returned
    with pytest.raises(OpucError, match=f"ceiling of {opuc.MAX_GRID} "):
        bs_weight_quadrature(np.array([0.99999999]), None)


def test_weight_is_probability_density():
    rng = np.random.default_rng(9)
    seq = random_seq(rng, 6, radius=1.2)
    thetas = np.linspace(0, 2 * math.pi, 1 << 13, endpoint=False)
    w = bs_weight_on_grid(seq.head(6), thetas)
    assert np.min(w) > 0.0
    assert abs(np.mean(w) - 1.0) <= 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_szego_identity_random_finite_sequences(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 9))
    values = random_seq(rng, n, radius=1.4).head(n)
    quad = bs_weight_quadrature(values, None)
    direct = float(np.sum(np.log(1.0 - np.abs(values) ** 2)))
    assert abs(quad - direct) <= 1e-8
