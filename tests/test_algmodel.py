"""Index tuples, the evaluation map, trace expansions and the G_2k builders."""

import cmath
import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opucgems import algmodel
from opucgems.algmodel import (
    SITE_ELEMENTS,
    PART_ROUTES,
    GaussianRational,
    ModelError,
    PhiProgram,
    a_monomials,
    b_monomials,
    basis_relation_check,
    build_g2k_hl,
    c_monomials,
    constant_partial_sums,
    constant_sum_check,
    compositions,
    critical_product,
    d_monomials,
    degree2_product_check,
    diagonal_entry,
    e_monomials,
    enum_d,
    enum_d_direct,
    g2k_hl_scaled_hom,
    g2k_routes_check,
    g2k_trace_scaled,
    hom_sums,
    in_polynomial_ring,
    index_tuple_count,
    phi_sums,
    site_functional,
    site_poly,
    site_route,
    table_for,
    trace_expansion_check,
    trace_orbit_check,
    trace_symbolic,
    trace_table,
    weight_free_part,
)
from opucgems.lab import LabError, SequenceFamily, convergence_study
from opucgems.laurent import LaurentPoly, VarTable, divided_diff, exact_div, substitute
from opucgems.opuc import OpucError, VerblunskySeq, trace_powers
from opucgems.trig import CriticalPoints, build_h
from oracles import (
    hl_double_sum,
    hl_part,
    l_degree,
    phi_program,
    phi_sites,
    phi_terms,
    product_representative,
    program_rows,
    representative_search,
    routes_by_lifts,
    site_parts,
    sum_rule_functional,
    walk_enumeration,
)


def szego_h(mode="exact"):
    return build_h(CriticalPoints.from_pairs([(Fraction(0), 1)]), mode)


def random_seq(rng, n, radius=0.8):
    vals = radius * (rng.random(n) - 0.5) + 1j * radius * (rng.random(n) - 0.5)
    return VerblunskySeq.from_values(vals.tolist())


# -- index tuples ----------------------------------------------------------------------


def test_enum_examples():
    assert enum_d(1, 3) == {(0, 3)}
    assert enum_d(2, 2) == {(0, 2, 1, 1), (0, 1, 0, 1), (0, 0, -1, 1)}
    assert enum_d(2, 1) == frozenset()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("l", range(1, 7))
def test_enum_bijection_equals_direct_filter(k, l):
    bij = enum_d(k, l)
    assert bij == enum_d_direct(k, l)
    assert len(bij) == index_tuple_count(k, l)


def test_enum_tuples_satisfy_constraints():
    for k, l in [(2, 4), (3, 5)]:
        for tup in enum_d(k, l):
            i = tup[0::2]
            j = tup[1::2]
            assert i[0] == 0
            assert sum(b - a for a, b in zip(i, j)) == l
            for p in range(k):
                assert j[p] >= i[p]
                assert j[p] > i[(p + 1) % k]
            assert all(-l + 1 <= e <= l for e in tup)


# -- the evaluation map ------------------------------------------------------------------


def phi_eval(p, head, n, unit_values=None):
    """``[phi_2k(p)]_n``: :func:`phi_sites` of ``phi_program([[(1, p)]])`` at one site."""
    a = head[n:]
    program = phi_program([[(1, p)]], unit_values or {})
    return complex(phi_sites(program, a, np.conj(a), 0, 1)[0][0])


def test_phi_basic_monomial():
    rng = np.random.default_rng(0)
    head = random_seq(rng, 10).head(10)
    t = VarTable(1)
    value = phi_eval(t.monomial({"x1": 1, "y1": 2}), head, 3)
    assert abs(value - head[4] * np.conj(head[5])) <= 1e-15


def test_phi_is_permutation_invariant_not_injective():
    rng = np.random.default_rng(1)
    head = random_seq(rng, 10).head(10)
    t = VarTable(2)
    p = t.monomial({"x1": 1, "y1": 1, "x2": 2, "y2": 2})
    q = t.monomial({"x1": 2, "y1": 2, "x2": 1, "y2": 1})
    n = 2
    expected = abs(head[n + 1]) ** 2 * abs(head[n + 2]) ** 2
    assert abs(phi_eval(p, head, n) - expected) <= 1e-15
    assert abs(phi_eval(p, head, n) - phi_eval(q, head, n)) <= 1e-15
    assert p != q  # distinct polynomials, equal images


def test_phi_of_constant_is_modulus_power():
    # every pair contributes, so a constant c maps to c * |alpha_n|^{2k};
    # this is what matches the k-th order of -log(1 - |alpha_n|^2)
    rng = np.random.default_rng(2)
    head = random_seq(rng, 5).head(5)
    for k in (1, 2, 3):
        t = VarTable(k)
        val = phi_eval(t.one(), head, 2)
        assert abs(val - abs(head[2]) ** (2 * k)) <= 1e-15


def test_phi_rejects_negative_exponents():
    t = VarTable(1)
    with pytest.raises(ModelError):
        phi_eval(t.monomial({"x1": -1}), VerblunskySeq.from_values([0.1]).head(1), 0)


# -- symbolic trace --------------------------------------------------------------------


def degree_part(p, degree):
    """Total-degree-homogeneous component of a polynomial."""
    return LaurentPoly(p.table, {e: c for e, c in p.terms.items() if sum(e) == degree})


def g2k_trace_symbolic(k, l, n_sym):
    """Degree-2k homogeneous part of the symbolic ``Tr(U_N^l)``."""
    return degree_part(trace_symbolic(l, n_sym), 2 * k)


def window_check(k, l):
    """Oracle for trace_expansion_check: ``(passed, compared_terms)``.

    Builds the whole truncated trace on 7l symbols and compares, on the
    monomials whose indices all lie in the window [2l, 5l], its degree-2k
    part with the index-tuple sum placed at every site.
    """
    n_sym = 7 * l
    window = (2 * l, 5 * l)
    actual = g2k_trace_symbolic(k, l, n_sym)
    weight = GaussianRational(Fraction((-1) ** k * l, k))
    predicted = {}
    for n in range(l - 1, n_sym - l):
        for tup in enum_d(k, l):
            vec = [0] * (2 * n_sym)
            for slot, idx in enumerate(tup):
                if not 0 <= n + idx < n_sym:
                    break
                vec[slot % 2 * n_sym + n + idx] += 1
            else:
                key = tuple(vec)
                predicted[key] = predicted.get(key, GaussianRational(0)) + weight
    predicted = {e: c for e, c in predicted.items() if c}

    def interior(e):
        return all(window[0] <= slot % n_sym <= window[1]
                   for slot, exp in enumerate(e) if exp)

    actual_interior = {e: c for e, c in actual.terms.items() if interior(e)}
    predicted_interior = {e: c for e, c in predicted.items() if interior(e)}
    return actual_interior == predicted_interior, len(actual_interior)


def test_symbolic_trace_matches_matrix_powers():
    rng = np.random.default_rng(3)
    for n in (4, 6, 8):
        head = random_seq(rng, n).head(n)
        numeric_traces = trace_powers(head, 4, 0, n)
        values = {}
        for m in range(n):
            values[f"al{m}"] = head[m]
            values[f"ac{m}"] = np.conj(head[m])
        for l in range(1, 5):
            symbolic = trace_symbolic(l, n).evaluate(values)
            assert abs(symbolic - numeric_traces[l - 1]) <= 1e-10


def test_g2k_symbolic_first_order_coefficients():
    # degree-2 part of Tr(U): -alpha_{m-1} conj(alpha_m) for every m >= 1
    n = 7
    g = g2k_trace_symbolic(1, 1, n)
    t = trace_table(n)
    for m in range(1, n):
        mono = t.monomial({f"al{m - 1}": 1, f"ac{m}": 1})
        ((exp, _),) = mono.terms.items()
        assert g.terms[exp] == GaussianRational(-1)


def test_g2k_symbolic_second_order_coefficient():
    # degree-2 part of Tr(U^2): coefficient -2 on alpha_{m-1} conj(alpha_{m+1})
    n = 14
    g = g2k_trace_symbolic(1, 2, n)
    t = trace_table(n)
    mono = t.monomial({"al4": 1, "ac6": 1})
    ((exp, _),) = mono.terms.items()
    assert g.terms[exp] == GaussianRational(-2)


def test_g4_symbolic_cross_coefficient():
    # degree-4 part of Tr(U^2): +2 on alpha_{m-1} conj(alpha_{m+1}) |alpha_m|^2
    n = 14
    g = g2k_trace_symbolic(2, 2, n)
    t = trace_table(n)
    mono = t.monomial({"al4": 1, "ac6": 1, "al5": 1, "ac5": 1})
    ((exp, _),) = mono.terms.items()
    assert g.terms[exp] == GaussianRational(2)


def test_degree_part_is_homogeneous():
    p = trace_symbolic(2, 6)
    g = degree_part(p, 4)
    assert all(sum(e) == 4 for e in g.terms)


def test_trace_guard():
    with pytest.raises(ModelError):
        trace_expansion_check(5, 5)


@pytest.mark.parametrize("l,n_sym", [(l, m * l) for l in range(1, 7) for m in (1, 2, 3)])
def test_closed_walks_equal_walk_enumeration(l, n_sym):
    """The walk-sum dynamic program against the walks enumerated one by one:
    from every start row (row 0's entries give the odd degrees) and from
    row l alone, in full and at each degree up to 2l."""
    for starts in (range(n_sym), (l,))[:1 + (l < n_sym)]:
        full = walk_enumeration(l, n_sym, starts)
        assert algmodel._closed_walks(l, n_sym, starts) == full
        for degree in range(2 * l + 1):
            assert algmodel._closed_walks(l, n_sym, starts, degree) == degree_part(full, degree)


@pytest.mark.parametrize("l", range(1, 6))
def test_diagonal_entry_is_degree_part_of_all_walks(l):
    full = algmodel._closed_walks(l, 2 * l, (l,))
    for k in range(0, l + 1):
        assert diagonal_entry(l, 2 * k) == degree_part(full, 2 * k)


@pytest.mark.parametrize("k,l", [(k, l) for k in range(1, 4) for l in range(1, 6)])
def test_orbit_check_agrees_with_window_oracle(k, l):
    r = trace_expansion_check(k, l)
    assert (r.passed, r.compared_terms) == window_check(k, l)


@pytest.mark.parametrize("k,l", [(2, 3), (3, 4)])
def test_orbit_check_reports_a_dropped_tuple(k, l):
    tuples = sorted(enum_d(k, l))
    weight = GaussianRational(Fraction((-1) ** k * l, k))
    assert trace_orbit_check(k, l, tuples, weight).passed
    for drop in range(len(tuples)):
        r = trace_orbit_check(k, l, tuples[:drop] + tuples[drop + 1:], weight)
        assert not r.passed


@pytest.mark.parametrize("k,l", [(2, 3), (3, 4)])
def test_orbit_check_reports_a_wrong_weight(k, l):
    weight = GaussianRational(Fraction((-1) ** k * (l + 1), k))
    r = trace_orbit_check(k, l, enum_d(k, l), weight)
    assert len(r.mismatches) == r.compared_orbits > 0


# mismatch records of (2, 3) with the weight (l + 1)/k and of (3, 4) without
# its least tuple, (0, 0, -2, -2, -3, 1)
MISMATCH_PINS = {
    (2, 3): [
        {"monomial": "al0^1*al2^1*ac2^1*ac3^1", "trace": "3+0*i", "predicted": "4+0*i"},
        {"monomial": "al0^1*al1^1*ac2^2", "trace": "3+0*i", "predicted": "4+0*i"},
        {"monomial": "al0^1*al1^1*ac1^1*ac3^1", "trace": "3+0*i", "predicted": "4+0*i"},
        {"monomial": "al0^2*ac1^1*ac2^1", "trace": "3+0*i", "predicted": "4+0*i"},
    ],
    (3, 4): [
        {"monomial": "al0^1*al1^1*al3^1*ac1^1*ac3^1*ac4^1", "trace": "-4+0*i",
         "predicted": "-8/3+0*i"},
    ],
}


def test_orbit_check_mismatch_records_are_pinned():
    k, l = 2, 3
    wrong = trace_orbit_check(k, l, enum_d(k, l), GaussianRational(Fraction(l + 1, k)))
    k, l = 3, 4
    dropped = trace_orbit_check(k, l, sorted(enum_d(k, l))[1:],
                                GaussianRational(Fraction(-l, k)))
    assert wrong.mismatches == MISMATCH_PINS[2, 3]
    assert dropped.mismatches == MISMATCH_PINS[3, 4]


@pytest.mark.parametrize("k,l", [(1, 8), (2, 8), (3, 6)])
def test_trace_expansion_beyond_the_window_reach(k, l):
    r = trace_expansion_check(k, l)
    assert r.passed and r.compared_orbits > 0 and r.compared_terms > 0


@pytest.mark.parametrize("k,l,coeff", [(1, 1, -1), (1, 3, -3)])
def test_trace_expansion_known_coefficients(k, l, coeff):
    r = trace_expansion_check(k, l)
    assert r.passed
    # the interior coefficient is (-1)^k * (l/k) per tuple
    assert GaussianRational(Fraction((-1) ** k * l, k)) == GaussianRational(coeff)


def test_trace_expansion_multiplicity_case():
    r = trace_expansion_check(2, 2)
    assert r.passed and r.compared_terms > 0


# -- G_2k builders -----------------------------------------------------------------------


def build_g2k_trace(k, h):
    """The trace-route G_2k: ``g2k_trace_scaled`` divided by k * Z_H."""
    return exact_div(g2k_trace_scaled(k, h), h.coeffs[0].embed(table_for(k, h)) * k)


def test_trace_route_szego_case():
    h = szego_h()
    g = build_g2k_trace(1, h)
    t = table_for(1, h)
    expected = t.monomial({"y1": 1}, Fraction(-1, 2)) + t.monomial({"x1": 1}, Fraction(-1, 2))
    assert g == expected


def test_trace_route_generic_first_degree():
    h = build_h(CriticalPoints.generic([1]))
    g = build_g2k_trace(1, h)
    t = table_for(1, h)
    expected = t.monomial({"y1": 1, "z1": -1}, Fraction(-1, 2)) \
        + t.monomial({"x1": 1, "z1": 1}, Fraction(-1, 2))
    assert g == expected


def test_trace_route_above_degree_is_zero():
    h = szego_h()
    assert build_g2k_trace(2, h).is_zero
    assert build_g2k_hl(2, h).is_zero


def test_hl_route_szego_case():
    h = szego_h()
    assert build_g2k_hl(1, h) == build_g2k_trace(1, h)


def test_hl_route_equals_product_minus_one():
    # k = 1 generic: G'_2 is the critical product over Z_H, minus 1
    for d in (1, 2):
        h = build_h(CriticalPoints.generic([d]))
        g = build_g2k_hl(1, h)
        witness = product_representative(h) - 1
        assert g == witness.normal_form()


def test_hl_double_sum_first_degree_is_h_at_pair_monomial():
    h = build_h(CriticalPoints.generic([2]))
    ds = hl_double_sum(1, h)
    t = table_for(1, h)
    expected = t.zero()
    for l in range(-2, 3):
        expected = expected + h.coeffs[l].embed(t) * t.monomial({"x1": l, "y1": 2 * l})
    assert ds == expected


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_dd_factors_vanish_exactly_where_the_parts_are_skipped(k):
    # where _dd_product is None: D(b)(t^{l-1}) = 0 iff 1 <= l < k and
    # D(a)(t^{l+k-1}) = 0 iff 1-k <= l < 0, over |l| <= k
    table = VarTable(k)
    a_pts, b_pts = a_monomials(table, k), b_monomials(table, k)
    for l in range(-k, k + 1):
        assert divided_diff(b_pts, l - 1).is_zero == (1 <= l < k)
        assert divided_diff(a_pts, l + k - 1).is_zero == (1 - k <= l < 0)


def oracle_divided_diff(points, f, var):
    """Divided difference of a Laurent ``f`` in ``var``, by substituting each point."""
    memo = {}

    def rec(idx):
        if idx not in memo:
            if len(idx) == 1:
                memo[idx] = substitute(f, {var: points[idx[0]]})
            else:
                left = rec((idx[0],) + idx[2:])
                right = rec((idx[1],) + idx[2:])
                memo[idx] = exact_div(left - right, points[idx[1]] - points[idx[0]])
        return memo[idx]

    return rec(tuple(range(len(points))))


def oracle_project(poly, table):
    """``poly`` over a sub-table; the dropped variables must not occur."""
    slots = [poly.table.slot(name) for name in table.names]
    out = {}
    for e, c in poly.terms.items():
        assert not any(exp for i, exp in enumerate(e) if i not in slots)
        out[tuple(e[i] for i in slots)] = c
    return LaurentPoly(table, out)


def oracle_hl_double_sum(k, h):
    """The double sum as nested divided differences of ``f1(s, t) = H(t s)
    t^{k-1} s^{-1}`` over two plain symbols: t over the a points, then s
    over the b points."""
    table = VarTable(k, units=h.table.names, plain=("hl_s", "hl_t"))
    f1 = table.zero()
    for l in range(-h.degree, h.degree + 1):
        f1 = f1 + h.coeffs[l].embed(table) * table.monomial({"hl_t": l + k - 1, "hl_s": l - 1})
    f2 = oracle_divided_diff(a_monomials(table, k), f1, "hl_t")
    b_pts = b_monomials(table, k)
    ds = math.prod(b_pts, start=oracle_divided_diff(b_pts, f2, "hl_s"))
    return oracle_project(ds, table_for(k, h))


@pytest.mark.parametrize("mults", [[d] for d in range(1, 6)]
                         + [[d - 1, 1] for d in range(2, 6)])
def test_hl_double_sum_equals_plain_symbol_oracle(mults):
    h = build_h(CriticalPoints.generic(mults))
    for k in range(1, h.degree + 1):
        assert hl_double_sum(k, h) == oracle_hl_double_sum(k, h)


@pytest.mark.parametrize("mults,k", [([1], 1), ([2], 1), ([2], 2), ([1, 1], 2)])
def test_route_equivalence_small(mults, k):
    h = build_h(CriticalPoints.generic(mults))
    assert g2k_routes_check(k, h).passed


def test_route_equivalence_beyond_required_range():
    # one degree past the verified range, as cheap extra confidence
    h = build_h(CriticalPoints.generic([4]))
    for k in (1, 2, 3, 4):
        assert g2k_routes_check(k, h).passed


def test_route_equivalence_with_exact_fixed_angles():
    # quarter-multiple angles substitute Gaussian-rational units, so the
    # whole pipeline also runs with constant coefficients
    h = build_h(CriticalPoints.from_pairs([(Fraction(0), 1), (Fraction(1, 2), 1)]))
    assert g2k_routes_check(1, h).passed
    assert g2k_routes_check(2, h).passed


@pytest.mark.parametrize("pairs", [[(None, 1), (None, 1)], [(None, 2), (None, 1)],
                                   [(0.3, 1), (1.1, 1)], [(0.3, 2), (1.1, 1)]])
def test_build_g2k_hl_needs_a_constant_z_h(pairs):
    # two generic or float angles leave units in h_0, and G'_2k is then no
    # Laurent polynomial: that is bad input, not a NonDivisible identity failure
    h = build_h(CriticalPoints.from_pairs(pairs))
    for k in range(1, h.degree + 1):
        with pytest.raises(ModelError, match="Z_H = h_0 is not a constant"):
            build_g2k_hl(k, h)


def test_build_g2k_hl_at_exact_fixed_angles():
    h = build_h(CriticalPoints.from_pairs([(Fraction(0), 1), (Fraction(1, 2), 1)]))
    assert build_g2k_hl(1, h).to_text() == (
        "(-1/2+1/2*i)*y1^1 + (0-1/4*i)*y1^2 + (-1/2-1/2*i)*x1^1 + (0+1/4*i)*x1^2")
    assert build_g2k_hl(2, h).to_text() == (
        "(0+1/8*i)*y1^1*y2^1 + (0+1/8*i)*y1^2*x2^1*y2^1 + (0-1/8*i)*x1^1*x2^1 + "
        "(0-1/8*i)*x1^1*x2^2*y2^1 + (0+1/8*i)*x1^1*y1^1*y2^2 + (0-1/8*i)*x1^2*y1^1*x2^1")


@pytest.mark.parametrize("builder", [g2k_trace_scaled, algmodel.g2k_hl_scaled_dd,
                                     g2k_hl_scaled_hom, build_g2k_hl, g2k_routes_check,
                                     hl_double_sum], ids=lambda f: f.__name__)
@pytest.mark.parametrize("k", [0, -1])
def test_builders_reject_k_below_one_alike(builder, k):
    with pytest.raises(ModelError, match="^k must be positive$"):
        builder(k, build_h(CriticalPoints.generic([2])))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_route_parts_agree_degree_by_degree(k):
    # each route is linear in h_l: per degree l, the weight-free part that
    # h_l multiplies has one normal form on all three routes; the dd part
    # is the product as formed, taken to normal form here
    d = max(4, k + 2)
    table = VarTable(k)
    sign = algmodel._sign(k)
    zero = table.zero()
    parts = {route: {l: weight_free_part(route, k, l) for l in range(-d, d + 1)}
             for route in PART_ROUTES}
    # the product as formed and the site part are built outside the part cache
    parts["dd-exact"] = {l: algmodel._dd_product(k, l) for l in range(-d, d + 1)}
    parts["dd"] = {l: None if p is None else p.normal_form()
                   for l, p in parts["dd-exact"].items()}
    parts["site"] = {l: algmodel._site_part(k, l) for l in range(-d, d + 1)}
    for by_power in parts.values():
        for part in by_power.values():
            if part is not None:
                # over the pair variables alone: no unit-symbol slot
                assert part.table == table
                for e, c in part.terms.items():
                    assert c.b == 0 and c.d == 1
    trace = {l: part for l, part in parts["trace"].items() if part is not None}
    hom = {l: part for l, part in parts["hom"].items() if part is not None}
    assert set(trace) == set(hom) == {s * l for l in range(k, d + 1) for s in (1, -1)}
    a_pts, b_pts = a_monomials(table, k), b_monomials(table, k)
    prod_b = math.prod(b_pts, start=table.one())
    for l in range(-d, d + 1):
        exact = divided_diff(a_pts, l + k - 1) * divided_diff(b_pts, l - 1) * prod_b
        dd = (exact * sign).normal_form()
        assert (parts["dd-exact"][l] or zero) == exact
        assert ((parts["dd"][l] or zero) * sign) == dd
        assert ((parts["site"][l] or zero) * sign).normal_form() == dd
        if l == 0:
            assert dd == table.one()
            continue
        # below degree k neither the trace nor the hom route has a part
        assert (trace.get(l, zero) * sign).normal_form() == dd
        assert (hom.get(l, zero) * sign).normal_form() == dd
    for route in ("trace", "hom", "dd"):
        assert all(p is None or p == p.normal_form() for p in parts[route].values())
    assert all(in_polynomial_ring(p) for p in parts["site"].values() if p is not None)


@pytest.mark.parametrize("route,k", [("bogus", 1), ("trace", 0), ("dd", -1)])
def test_weight_free_part_rejects_unknown_route_and_k_below_one(route, k):
    with pytest.raises(ModelError):
        weight_free_part(route, k, 1)


@st.composite
def lift_cases(draw):
    """k, a weight with K <= 2 and d <= 4 at generic or quarter angles (0 to
    2 unit symbols), random parts over ``VarTable(k)`` and a sign.  Like a
    route's part, the part for t^l has y-degree minus x-degree l in every
    term."""
    k = draw(st.integers(1, 3))
    count = draw(st.integers(1, 2))
    mults = draw(st.lists(st.integers(1, 2), min_size=count, max_size=count))
    quarters = draw(st.lists(st.sampled_from([Fraction(q, 2) for q in range(4)]),
                             min_size=count, max_size=count, unique=True))
    angles = [draw(st.sampled_from([None, theta])) for theta in quarters]
    h = build_h(CriticalPoints.from_pairs(list(zip(angles, mults))))
    table = VarTable(k)
    parts = {}
    for l in range(-h.degree, h.degree + 1):
        if draw(st.booleans()):
            terms = {}
            for _ in range(draw(st.integers(0, 4))):
                e = [draw(st.integers(-2, 2)) for _ in range(2 * k - 1)]
                e.append(l + sum(e[0::2]) - sum(e[1::2]))  # y_k
                terms[tuple(e)] = GaussianRational(draw(st.integers(-3, 3)),
                                                   draw(st.integers(-1, 1)))
            parts[l] = LaurentPoly(table, terms)
    sign = draw(st.sampled_from([GaussianRational(1), GaussianRational(-1)]))
    return k, h, parts, sign


@settings(max_examples=60, deadline=None)
@given(lift_cases())
def test_weighted_lift_equals_embedded_products(case):
    # concatenating a part's pair exponents with h_l's unit exponents is the
    # product of both embedded into table_for(k, h)
    k, h, parts, sign = case
    table = table_for(k, h)
    want = table.zero()
    for l, part in parts.items():
        want = want + (h.coeffs[l] * sign).embed(table) * part.embed(table)
    got = algmodel._weighted(parts.get, k, h, sign)
    assert got.table == table
    assert got == want


def test_weighted_lift_raises_where_two_terms_would_collide():
    # the same part at every l breaks the y-degree invariant: h_1 and h_-1 of
    # an exact weight are constants, so their lifted terms coincide
    h = build_h(CriticalPoints.from_pairs([(Fraction(0), 1)]))
    one = VarTable(1).one()
    with pytest.raises(ModelError, match="collided"):
        algmodel._weighted(lambda l: one, 1, h)


def test_normal_forms_do_not_depend_on_which_weight_filled_the_cache():
    # the parts are shared by every weight: building the pinned inputs with
    # K = 2 first and with K = 1 first gives the same text and digests
    rows = [row for row in NORMAL_FORM_DIGESTS if row[0] != "trace_symbolic"]

    def texts(first_k):
        weight_free_part.cache_clear()
        ordered = sorted(rows, key=lambda row: len(row[1]) != first_k)
        return {row[:3]: _pinned_poly(*row[:3]).to_text() for row in ordered}

    two_first, one_first = texts(2), texts(1)
    assert two_first == one_first
    for name, first, second, digest in rows:
        text = two_first[name, first, second]
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# SHA-256 of to_text() for fixed inputs: the exact normal forms, pinned byte for byte
NORMAL_FORM_DIGESTS = [
    ("g2k_hl_scaled_hom", (1,), 1, "168e2f52a600c93a4b4e25fc03d82bce86c8046778eac84f966011c46ad39435"),
    ("g2k_trace_scaled", (1,), 1, "168e2f52a600c93a4b4e25fc03d82bce86c8046778eac84f966011c46ad39435"),
    ("site_poly", (1,), 1, "9d439bcb8260e8e4b7f2ade49fbcc87af68952eb293c4e302e88eb3af159b896"),
    ("g2k_hl_scaled_hom", (2,), 1, "3a05606c85f28ea983dc253d612297702891a531b420b9390937323a3d25fdac"),
    ("g2k_trace_scaled", (2,), 1, "3a05606c85f28ea983dc253d612297702891a531b420b9390937323a3d25fdac"),
    ("site_poly", (2,), 1, "9f57c0a7a68681a1ccfb20e3b3bfd0d6c2b08130a97cc02f6c54837e4bcb0e14"),
    ("g2k_hl_scaled_hom", (2,), 2, "5f6327b66451d49d0429595c9937967c5fe0d92b59716eef502681a0d4ac9935"),
    ("g2k_trace_scaled", (2,), 2, "5f6327b66451d49d0429595c9937967c5fe0d92b59716eef502681a0d4ac9935"),
    ("site_poly", (2,), 2, "7902369de4946b865dab6d83be20446929968ea540388ca0fd070f0dc2349d7d"),
    ("g2k_hl_scaled_hom", (3,), 1, "559aa0b5cb3ee81a56a50da2778a362dfe70d99aa18994b33e5e1cf3bd5c0907"),
    ("g2k_trace_scaled", (3,), 1, "559aa0b5cb3ee81a56a50da2778a362dfe70d99aa18994b33e5e1cf3bd5c0907"),
    ("site_poly", (3,), 1, "01703a04da47116a584cbd8c77feb59f4f4c88543bdb0a7af3b5f67e745ff2e5"),
    ("g2k_hl_scaled_hom", (3,), 2, "ffb7b3986f4eda7d1d74c00a16e94b3b86ef17ce6575436b8c29364f6accb193"),
    ("g2k_trace_scaled", (3,), 2, "ffb7b3986f4eda7d1d74c00a16e94b3b86ef17ce6575436b8c29364f6accb193"),
    ("site_poly", (3,), 2, "f94b37e8dbceda036d4fc2994cbb0d5fa560863c63097cbee83643382ba72e33"),
    ("g2k_hl_scaled_hom", (3,), 3, "87bfb0a5ff694a5ddd20c6d611a232d9d058328af4fdebc9fa0a8317e9b5a247"),
    ("g2k_trace_scaled", (3,), 3, "87bfb0a5ff694a5ddd20c6d611a232d9d058328af4fdebc9fa0a8317e9b5a247"),
    ("site_poly", (3,), 3, "69f4c967384ad5830ce7d4af00ddda69c9be0c0a0e75a04e6dfa6dfcbed02734"),
    ("g2k_hl_scaled_hom", (2, 1), 1, "2d82e7fa1408b01b9d1cd2e674324adf4f1075e369a70a40aa4733a79f7b0494"),
    ("g2k_trace_scaled", (2, 1), 1, "2d82e7fa1408b01b9d1cd2e674324adf4f1075e369a70a40aa4733a79f7b0494"),
    ("site_poly", (2, 1), 1, "28e188a8229396ba6ccc6ec51b76f3682ccef3e1b2e22de368de2560b33a03e1"),
    ("g2k_hl_scaled_hom", (2, 1), 2, "7cdffd55a10184b98037cbab53dcb296cf315f0a1ea9f5f94923c35ac637be6f"),
    ("g2k_trace_scaled", (2, 1), 2, "7cdffd55a10184b98037cbab53dcb296cf315f0a1ea9f5f94923c35ac637be6f"),
    ("site_poly", (2, 1), 2, "a827ba41d9c3f86a811b846627ee8761107496b039ef18fea77d7be7e2855f1f"),
    ("g2k_hl_scaled_hom", (2, 1), 3, "33d0644512bc46322fe8291db9bf8b055263b70dbb449c0c26641ed93eda0e52"),
    ("g2k_trace_scaled", (2, 1), 3, "33d0644512bc46322fe8291db9bf8b055263b70dbb449c0c26641ed93eda0e52"),
    ("site_poly", (2, 1), 3, "daebf608ac1042fa6ffcee3129ecc624da9e031f154ffc6ed221e4c0433fc747"),
    ("trace_symbolic", 1, 7, "1bf65eab8766ba8ddf7e0091a1840c4386abc10a6ef701fa81b2f23a66521893"),
    ("trace_symbolic", 2, 14, "f2fa9b6be8a0831f4137212caf6fbe6da5a5d6a7f9bb8229da462e622018de36"),
    ("trace_symbolic", 3, 21, "c47226deb84fbcd042082b7022d647697f55b3f3ad0a71ce273b4e786a770660"),
]


def _pinned_poly(name, first, second):
    if name == "trace_symbolic":
        return trace_symbolic(first, second)
    builders = {"g2k_hl_scaled_hom": g2k_hl_scaled_hom,
                "g2k_trace_scaled": g2k_trace_scaled, "site_poly": site_poly}
    return builders[name](second, build_h(CriticalPoints.generic(list(first))))


@pytest.mark.parametrize("name,first,second,digest", NORMAL_FORM_DIGESTS, ids=[
    f"{name}-{first}-{second}".replace(" ", "") for name, first, second, _ in NORMAL_FORM_DIGESTS])
def test_normal_form_digests_are_pinned(name, first, second, digest):
    text = _pinned_poly(name, first, second).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- constant identity ----------------------------------------------------------------


@pytest.mark.parametrize("k", range(1, 6))
def test_constant_sums(k):
    a_val, b_val = constant_partial_sums(k)
    assert a_val == GaussianRational(1)
    assert b_val == GaussianRational((-1) ** (k + 1))
    assert constant_sum_check(k) == GaussianRational((-1) ** (k + 1))


@pytest.mark.parametrize("k", range(1, 5))
def test_basis_relations(k):
    assert basis_relation_check(k)


@pytest.mark.parametrize("k", range(2, 5))
def test_basis_relations_fail_on_a_wrong_monomial(k, monkeypatch):
    # two d monomials swapped: the check must see it, not return True regardless
    def swapped(table, k):
        d = d_monomials(table, k)
        d[0], d[1] = d[1], d[0]
        return d

    monkeypatch.setattr(algmodel, "d_monomials", swapped)
    assert not basis_relation_check(k)


def corrupt_denominators(monkeypatch, entries):
    """Make ``_denominators`` return ``change(product)`` at each ``(list, index)``
    of ``entries``; the lists count in call order: a, b, e, d."""
    real = algmodel._denominators
    calls = []

    def wrong(points, flipped=False):
        out = real(points, flipped)
        for index, change in entries.get(len(calls), ()):
            out[index] = change(out[index])
        calls.append(flipped)
        return out

    monkeypatch.setattr(algmodel, "_denominators", wrong)
    return calls


@pytest.mark.parametrize("k,which,index", [(k, which, index) for k in (2, 3, 4)
                                            for which in range(4) for index in range(1, k)])
def test_basis_relations_fail_on_one_wrong_denominator(k, which, index, monkeypatch):
    # 2k - 1 comparisons settle all k^2 pairs: one wrong product at any index
    # of any of the four lists, the shared index 0 aside, is still seen
    calls = corrupt_denominators(monkeypatch, {which: [(index, lambda p: p * 2)]})
    assert not basis_relation_check(k)
    assert calls == [False, True, False, True]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_basis_relations_do_not_cancel_a_zero_product(k, monkeypatch):
    # with a_den[0] = d_den[0] = 0 each of the 2k - 1 comparisons reads 0 = 0
    # or holds as it should, so only the nonzero test on the cancelled
    # products can see it
    zero = VarTable(k).zero()
    corrupt_denominators(monkeypatch, {0: [(0, lambda p: zero)], 3: [(0, lambda p: zero)]})
    assert not basis_relation_check(k)


def with_changed_part(monkeypatch, route, power, change):
    """Make ``weight_free_part`` return ``change(terms)`` for one route's part
    at t^power, leaving the cached part as it is."""
    real = algmodel.weight_free_part

    def changed(r, k, l):
        part = real(r, k, l)
        if r == route and l == power:
            part = LaurentPoly(part.table, change(dict(part.terms)))
        return part

    monkeypatch.setattr(algmodel, "weight_free_part", changed)


@pytest.mark.parametrize("k,power", [pytest.param(k, k, id=str(k)) for k in (1, 2, 3)]
                         + [pytest.param(2, 0, id="2-power0")])
def test_routes_see_one_dropped_term_of_a_dd_part(k, power, monkeypatch, fresh_exact_caches):
    # one term dropped from the divided difference D(t^n) at n = power + k - 1,
    # the a factor of the dd part at t^power, breaks the premise there: at
    # power 0 that factor is the constant (-1)^{k+1} that cancels -Z_H.  The
    # dd route no longer equals the hom route, and the trace route, which
    # reads no divided difference, still does
    h = build_h(CriticalPoints.generic([k + 1]))
    assert g2k_routes_check(k, h).passed
    algmodel.dd_premise.cache_clear()
    real = algmodel.divided_diff

    def dropped(points, n):
        out = real(points, n)
        if n == power + k - 1:
            out = LaurentPoly(out.table, dict(sorted(out.terms.items())[1:]))
        return out

    monkeypatch.setattr(algmodel, "divided_diff", dropped)
    result = g2k_routes_check(k, h)
    assert not result.routes_equal
    assert result.trace_equals_hl
    with pytest.raises(ModelError, match="route disagreement"):
        build_g2k_hl(k, h)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_routes_see_one_doubled_coefficient_of_a_trace_part(k, monkeypatch):
    # the doubled term gives the part a second distinct coefficient: the lift
    # must keep its terms apart from the rest
    def doubled(terms):
        e = min(terms)
        terms[e] = terms[e] * 2
        return terms

    h = build_h(CriticalPoints.generic([k, 1]))
    with_changed_part(monkeypatch, "trace", -k, doubled)
    result = g2k_routes_check(k, h)
    assert result.routes_equal
    assert not result.trace_equals_hl


PART_CHANGES = {"drop": lambda terms: dict(sorted(terms.items())[1:]),
                "double": lambda terms: {**terms, min(terms): terms[min(terms)] * 2}}


@st.composite
def route_cases(draw):
    """A weight with K <= 3 points and degree d <= 5, each angle generic, a
    quarter multiple of pi or a float; k in 1..d+1; and, or not, one
    changed part ``(route, l, change)`` at a power whose part is nonzero,
    which may be a power with h_l = 0; k > d has no such power."""
    mults = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                 .filter(lambda ms: sum(ms) <= 5))
    quarters = draw(st.permutations([Fraction(q, 2) for q in range(4)]))
    floats = draw(st.permutations([0.3, 0.7, 1.1, 1.6]))
    angles = [draw(st.sampled_from([None, q, f])) for q, f in zip(quarters, floats)]
    pairs = list(zip(angles, mults))
    d = sum(mults)
    k = draw(st.integers(1, d + 1))
    change = None
    spots = [(route, l) for route in PART_ROUTES for l in range(-d, d + 1)
             if weight_free_part(route, k, l) is not None]
    if spots and draw(st.integers(0, 2)):  # two cases in three change a part
        change = (*draw(st.sampled_from(spots)), draw(st.sampled_from(sorted(PART_CHANGES))))
    return pairs, k, change


@settings(max_examples=60, deadline=None)
@given(route_cases())
@example(([(None, 2)], 3, None))  # k > d: only the premises of l = 0 are read
@example(([(Fraction(0), 1), (Fraction(1), 1)], 1, None))  # h_1 = h_-1 = 0
@example(([(Fraction(0), 1), (Fraction(1), 1)], 1, ("trace", 1, "drop")))
@example(([(Fraction(0), 1), (Fraction(1), 1)], 2, ("hom", -2, "double")))
@example(([(None, 1), (0.3, 1)], 1, ("hom", 1, "drop")))
@example(([(0.3, 2), (Fraction(1, 2), 1)], 2, ("hom", -3, "double")))
def test_routes_check_equals_the_lift_oracle(case):
    # the check compares parts power by power, the oracle whole lifted sums:
    # both see the same changed trace or hom part, and read the same where
    # h_l = 0.  The check's dd side is the premise, which reads no part, so
    # routesEqual stays true where the oracle's lifted dd sum sees a changed
    # hom part; trace with hom and the verdict agree
    pairs, k, change = case
    h = build_h(CriticalPoints.from_pairs(pairs))
    with pytest.MonkeyPatch.context() as mp:
        if change is not None:
            route, power, kind = change
            with_changed_part(mp, route, power, PART_CHANGES[kind])
        result, oracle = g2k_routes_check(k, h), routes_by_lifts(k, h)
    assert result.passed == oracle.passed
    assert result.trace_equals_hl == oracle.trace_equals_hl
    assert result.routes_equal
    if change is None:
        assert result == oracle
        assert result.passed


@pytest.mark.parametrize("pairs,builds", [([(None, 3)], True), ([(None, 2), (None, 1)], False),
                                          ([(Fraction(0), 2), (Fraction(1, 2), 1)], True)])
def test_routes_check_lifts_nothing_and_build_lifts_once(pairs, builds, monkeypatch):
    # build_g2k_hl needs a constant Z_H: one point, or exact angles only
    h = build_h(CriticalPoints.from_pairs(pairs))
    calls = []
    weighted = algmodel._weighted

    def counted(*args):
        calls.append(args[1])
        return weighted(*args)

    monkeypatch.setattr(algmodel, "_weighted", counted)
    for k in range(1, h.degree + 2):
        assert g2k_routes_check(k, h).passed
        assert calls == []
        if builds:
            build_g2k_hl(k, h)
            assert calls == [k]
            calls.clear()


# -- basis monomials and homogeneous sums against name-keyed oracles ---------------------


def oracle_a(table, k):
    out = []
    for p in range(1, k + 1):
        exps = {}
        for s in range(p, k + 1):
            exps[f"y{s}"] = 1
        for s in range(p + 1, k + 1):
            exps[f"x{s}"] = 1
        out.append(table.monomial(exps))
    return out


def oracle_b(table, k):
    out = []
    for p in range(1, k + 1):
        exps = {}
        for s in range(1, p + 1):
            exps[f"x{s}"] = 1
            exps[f"y{s}"] = 1
        out.append(table.monomial(exps))
    return out


def oracle_c(table, k):
    out = []
    for p in range(1, k + 1):
        exps = {}
        for s in range(p, k + 1):
            exps[f"x{s}"] = 1
        for s in range(p, k):
            exps[f"y{s}"] = exps.get(f"y{s}", 0) + 1
        out.append(table.monomial(exps))
    return out


def oracle_d(table, k):
    out = []
    for p in range(1, k + 1):
        exps = {}
        for s in range(1, p + 1):
            y_index = s - 1 if s > 1 else k
            exps[f"y{y_index}"] = exps.get(f"y{y_index}", 0) + 1
            exps[f"x{s}"] = exps.get(f"x{s}", 0) + 1
        out.append(table.monomial(exps))
    return out


def oracle_e(table, k):
    return [table.monomial({f"y{k}": -1})] + oracle_c(table, k)[1:]


def oracle_pair_product(table, k, power):
    return table.monomial({name: power for p in range(1, k + 1) for name in (f"x{p}", f"y{p}")})


def oracle_tuple_pos(table, tup, k):
    exps = {}
    for p in range(k):
        i, j = tup[2 * p], tup[2 * p + 1]
        if i:
            exps[f"x{p + 1}"] = exps.get(f"x{p + 1}", 0) + i
        if j:
            exps[f"y{p + 1}"] = exps.get(f"y{p + 1}", 0) + j
    return table.monomial(exps)


def oracle_tuple_neg(table, tup, k):
    # prod_p y_{p-1}^{i_p} x_p^{j_p} with y_0 := y_k
    exps = {}
    for p in range(k):
        i, j = tup[2 * p], tup[2 * p + 1]
        y_index = p if p >= 1 else k
        if i:
            exps[f"y{y_index}"] = exps.get(f"y{y_index}", 0) + i
        if j:
            exps[f"x{p + 1}"] = exps.get(f"x{p + 1}", 0) + j
    return table.monomial(exps)


def oracle_hom_sym(points, degree):
    """Sum over every composition of ``degree`` of the matching point powers."""
    table = points[0].table
    out = table.zero()
    for comp in compositions(degree, len(points)):
        term = table.one()
        for point, power in zip(points, comp):
            term = term * point ** power
        out = out + term
    return out


BASES = [(a_monomials, oracle_a), (b_monomials, oracle_b), (c_monomials, oracle_c),
         (d_monomials, oracle_d), (e_monomials, oracle_e)]


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("extra", [{}, {"units": ("z1",), "plain": ("s",)}])
def test_pair_monomial_bases_equal_name_keyed_oracles(k, extra):
    table = VarTable(k, **extra)
    for basis, oracle in BASES:
        assert basis(table, k) == oracle(table, k)
    for power in (-1, 2, 2 * k):
        assert table.pair_monomial([power] * k, [power] * k) == oracle_pair_product(table, k, power)


@pytest.mark.parametrize("k", range(1, 7))
def test_tuple_monomial_slices_equal_name_keyed_oracles(k):
    table = VarTable(k, units=("z1",))
    for l in range(k, max(k + 1, 6) + 1):
        for tup in enum_d(k, l):
            assert table.pair_monomial(tup[::2], tup[1::2]) == oracle_tuple_pos(table, tup, k)
            assert (table.pair_monomial(tup[1::2], tup[2::2] + tup[:1])
                    == oracle_tuple_neg(table, tup, k))


def test_pair_monomial_needs_one_exponent_per_pair():
    with pytest.raises(ValueError):
        VarTable(2).pair_monomial([1], [1, 1])


monomial_points = st.lists(
    st.tuples(st.integers(-3, 3).filter(bool), st.lists(st.integers(-2, 2), min_size=5,
                                                         max_size=5)),
    min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(points=monomial_points, degree=st.integers(0, 8))
def test_hom_sums_equal_composition_oracle(points, degree):
    table = VarTable(2, units=("z1",))
    pts = [LaurentPoly(table, {tuple(e): GaussianRational(c)}) for c, e in points]
    rows = hom_sums(pts, degree)
    assert len(rows) == degree + 1
    for m, row in enumerate(rows):
        assert row == oracle_hom_sym(pts, m)


# -- site polynomial and functional ------------------------------------------------------


def test_site_poly_first_degree_form():
    h = szego_h()
    sp = site_poly(1, h)
    t = table_for(1, h)
    expected = t.monomial({"x1": 2, "y1": 2}) \
        + t.monomial({"x1": 3, "y1": 4}, Fraction(-1, 2)) \
        + t.monomial({"x1": 4, "y1": 3}, Fraction(-1, 2))
    assert sp == expected


def test_site_poly_phi_image():
    rng = np.random.default_rng(4)
    head = random_seq(rng, 12).head(12)
    h = szego_h()
    sp = site_poly(1, h)
    n = 3
    expected = abs(head[n + 2]) ** 2 \
        - 0.5 * head[n + 3] * np.conj(head[n + 4]) \
        - 0.5 * head[n + 4] * np.conj(head[n + 3])
    assert abs(phi_eval(sp, head, n) - expected) <= 1e-14


@pytest.mark.parametrize("mults,k", [([1], 1), ([2], 1), ([2], 2),
                                     ([3], 2), ([1, 1], 2), ([2, 1], 3)])
def test_site_poly_exponent_range(mults, k):
    h = build_h(CriticalPoints.generic(mults))
    sp = site_poly(k, h)
    d = sum(mults)
    for e in sp.terms:
        for x in e[:2 * sp.table.pairs]:
            assert 0 <= x <= 4 * k * d


def double_sum_numeric(k, h, values):
    """The Hall-Littlewood double sum evaluated as a plain rational sum."""
    t = VarTable(k)
    a_vals = [complex(m.evaluate(values)) for m in a_monomials(t, k)]
    b_vals = [complex(m.evaluate(values)) for m in b_monomials(t, k)]
    unit_values = h.unit_values()

    def h_of(w):
        return sum(complex(h.coeffs[l].evaluate(unit_values)) * w ** l
                   for l in range(-h.degree, h.degree + 1))

    total = 0j
    for p in range(k):
        for q in range(k):
            denom = 1.0 + 0j
            for s in range(k):
                if s != p:
                    denom *= 1.0 - a_vals[s] / a_vals[p]
            for t_idx in range(k):
                if t_idx != q:
                    denom *= b_vals[q] / b_vals[t_idx] - 1.0
            total += h_of(a_vals[p] * b_vals[q]) / denom
    return total


@pytest.mark.parametrize("mults,k,seed", [([2], 1, 0), ([2], 2, 1),
                                          ([1, 1], 2, 2), ([2, 1], 2, 3)])
def test_site_poly_matches_rational_double_sum(mults, k, seed):
    # random unit-modulus substitution with prod x_p y_p = 1 makes the
    # cleared polynomial and the rational double sum agree exactly
    rng = np.random.default_rng(seed)
    h = build_h(CriticalPoints.from_pairs(
        [(float(a), m) for a, m in zip(rng.random(len(mults)) * 1.9, mults)]))
    values = dict(h.unit_values())
    prod = 1.0 + 0j
    for p in range(1, k + 1):
        values[f"x{p}"] = cmath.exp(2j * math.pi * rng.random())
        prod *= values[f"x{p}"]
        if p < k:
            values[f"y{p}"] = cmath.exp(2j * math.pi * rng.random())
            prod *= values[f"y{p}"]
    values[f"y{k}"] = 1.0 / prod
    sp = site_poly(k, h)
    lhs = sp.evaluate(values)
    rhs = double_sum_numeric(k, h, values)
    assert abs(lhs - rhs) <= 1e-10


def site_functional_loop(alpha, n, h):
    """The per-site functional as a scalar loop over sites, terms and pairs.

    The oracle for the vectorised :func:`site_functional`: it rebuilds every
    site polynomial and walks site by site.
    """
    d = h.degree
    unit_values = h.unit_values()
    z_h = h.numeric_coeffs[0].real
    compiled = []
    max_shift = 0
    for k in range(1, d + 1):
        terms = phi_terms(site_poly(k, h), unit_values)
        pref = (-1) ** (k + 1) / (k * z_h)
        compiled.append((k, pref, terms))
        for _, exps in terms:
            for beta, gamma in exps:
                max_shift = max(max_shift, beta, gamma)

    a_vals = alpha.head(n + max_shift + 1)
    a_conj = np.conj(a_vals)
    total = 0.0
    for j in range(n):
        site = 0.0 + 0.0j
        for k, pref, terms in compiled:
            acc = 0.0 + 0.0j
            for coeff, exps in terms:
                prod = coeff
                for beta, gamma in exps:
                    prod *= a_vals[j + beta] * a_conj[j + gamma]
                acc += prod
            site += pref * acc
        mod2 = abs(a_vals[j]) ** 2
        log_part = math.log1p(-mod2)
        power_part = sum(mod2 ** k / k for k in range(1, d + 1))
        total += site.real - log_part - power_part
    return float(total)


def site_head(alpha, n, route):
    """The coefficients the site route reads at n, from one ``head`` call."""
    return alpha.head(n + route.max_shift + 1)


def given_family(seq):
    """A family whose sequence is ``seq``, to run a study on hand-made coefficients."""
    class Given(SequenceFamily):
        def sequence(self):
            return seq
    return Given("given", {})


def test_site_functional_zero_sequence():
    route = site_route(szego_h())
    zero = VerblunskySeq.from_values([])
    assert site_functional(site_head(zero, 30, route), 30, route) == 0.0


def test_site_functional_rejects_invalid_modulus():
    # the study's one head validates every coefficient the site route reads
    bad = VerblunskySeq(lambda n: np.full(n.shape, 1.5), support=None)
    with pytest.raises(OpucError):
        convergence_study(given_family(bad), szego_h().points, [5])


def test_site_functional_stabilizes():
    rng = np.random.default_rng(5)
    alpha = random_seq(rng, 6)
    h = build_h(CriticalPoints.from_pairs([(0.4, 1), (1.9, 1)]))
    route = site_route(h)
    d = h.degree
    n0 = 6 + 2 * d * (d + 1) + 1
    base = site_functional(site_head(alpha, n0, route), n0, route)
    for n in (n0 + 3, n0 + 11, n0 + 25):
        assert abs(site_functional(site_head(alpha, n, route), n, route) - base) <= 1e-12


def test_site_functional_tracks_trace_functional():
    # bounded distance between the two routes along growing N
    rng = np.random.default_rng(6)
    route = site_route(build_h(CriticalPoints.from_pairs([(0.0, 1)])))
    h_num = build_h(CriticalPoints.from_pairs([(0.0, 1)]), "numeric")
    decay = VerblunskySeq(lambda n: 0.4 / (n + 1) ** 0.6, support=None)
    diffs = [site_functional(site_head(decay, n, route), n, route)
             - sum_rule_functional(decay.head(n), n, h_num)
             for n in range(20, 70, 10)]
    assert max(diffs) - min(diffs) <= 0.05


@st.composite
def exact_weights(draw):
    """A weight of degree d <= 5 with one or two float critical points."""
    d = draw(st.integers(1, 5))
    if d == 1 or draw(st.booleans()):
        mults = [d]
    else:
        first = draw(st.integers(1, d - 1))
        mults = [first, d - first]
    # angles over pi, from disjoint ranges so that they stay distinct
    angles = [draw(st.floats(lo, lo + 0.9)) for lo in (0.0, 1.0)[:len(mults)]]
    return build_h(CriticalPoints.from_pairs(list(zip(angles, mults))))


@st.composite
def bounded_sequences(draw):
    """powerDecay or finitely supported coefficients with |alpha| <= 0.95."""
    c = draw(st.floats(0.0, 0.95))
    if draw(st.booleans()):
        gamma = draw(st.floats(0.0, 2.0))
        phase = draw(st.floats(0.0, 2 * math.pi))
        return VerblunskySeq(lambda n: c * np.exp(-1j * phase * n) / (n + 1) ** gamma)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(0, 40))
    vals = c * np.sqrt(rng.random(size)) * np.exp(2j * np.pi * rng.random(size))
    return VerblunskySeq.from_values(vals.tolist())


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 400), h=exact_weights(), alpha=bounded_sequences(),
       bad=st.sampled_from([1.0, 1.5, math.nan]), at=st.integers(0, 399))
def test_site_route_equals_per_site_loop(n, h, alpha, bad, at):
    route = site_route(h)
    got = site_functional(site_head(alpha, n, route), n, route)
    want = site_functional_loop(alpha, n, h)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    # one coefficient at |alpha| >= 1 or NaN anywhere a study at n reads,
    # the site route's look-ahead past n included, rejects the study; at n
    # <= d the schedule is rejected first, before any coefficient is read
    look_ahead = max(route.max_shift + 1, h.degree)
    values = alpha.head(n + look_ahead)
    values[at % (n + look_ahead)] = bad
    broken = VerblunskySeq(lambda m: values[m])
    with pytest.raises(OpucError if n > h.degree else LabError):
        convergence_study(given_family(broken), h.points, [n])


@pytest.mark.parametrize("pairs", [[(0.3, 1), (1.2, 1)], [(0.3, 3), (1.1, 2)]],
                         ids=["d2", "d5"])
@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 5)],
                         ids=["width-1", "width", "width+1", "2width+5"])
def test_site_route_blocks_cover_every_site(pairs, blocks, extra):
    # a rotating constant gives every site the same nonzero share, so a
    # site lost or counted twice at a block edge moves the sum; the block
    # width follows from the program, so each degree has its own edges
    h = build_h(CriticalPoints.from_pairs(pairs))
    alpha = VerblunskySeq(lambda m: 0.5 * np.exp(-0.7j * m))
    route = site_route(h)
    n = blocks * route.block + extra
    want = site_functional_loop(alpha, n, h)
    assert abs(site_functional(site_head(alpha, n, route), n, route) - want) \
        <= 1e-12 * max(1.0, abs(want))


def scaled_site_polys(h):
    """The exact site polynomials, each scaled by pref_k = (-1)^{k+1} / (k Z_H),
    compiled term by term."""
    z_h = h.numeric_coeffs[0].real
    return phi_program([[((-1) ** (k + 1) / (k * z_h), site_poly(k, h))]
                        for k in range(1, h.degree + 1)], h.unit_values())


def window_sums(program, a, start, stop):
    """Per polynomial, the oracle's phi summed over sites ``start .. stop-1``."""
    return [values.sum() for values in phi_sites(program, a, np.conj(a), start, stop)]


def assert_sums_close(got, want):
    for g, w in zip(got, want, strict=True):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w))


@settings(max_examples=20, deadline=None)
@given(h=exact_weights(), alpha=bounded_sequences(), start=st.integers(0, 60))
def test_site_route_program_equals_compiled_site_polys(h, alpha, start):
    # the route compiled from weight-free parts, summed over a window by
    # shift class, against the exact site polynomials summed site by site
    route = site_route(h)
    oracle = scaled_site_polys(h)
    assert route.max_shift == oracle.max_shift
    stop = start + 7
    a = alpha.head(stop + 2 * route.max_shift)
    assert_sums_close(phi_sums(route, a[start:], stop - start),
                      window_sums(oracle, a, start, stop))


@pytest.mark.parametrize("pairs", [[(Fraction(0), 1), (Fraction(1), 1)],
                                   [(Fraction(0), 2), (Fraction(1), 2)]], ids=["d2", "d4"])
def test_site_route_leaves_out_the_powers_whose_h_l_is_zero(pairs):
    # exact opposite points zero the odd h_l: the route's layout then has
    # other powers than a generic weight of the same degree
    h = build_h(CriticalPoints.from_pairs(pairs))
    assert any(c.is_zero for c in h.coeffs.values())
    route = site_route(h)
    alpha = VerblunskySeq(lambda m: 0.5 * np.exp(-0.7j * m) / (m + 1) ** 0.3)
    a = alpha.head(40 + 2 * route.max_shift)
    assert_sums_close(phi_sums(route, a[3:], 37),
                      window_sums(scaled_site_polys(h), a, 3, 40))


@pytest.mark.parametrize("pairs", [[(0.3, 1), (1.2, 1)], [(0.3, 3), (1.1, 2)]],
                         ids=["d2", "d5"])
def test_compiled_rows_are_distinct_products_of_pair_factors(pairs):
    # phi of a row is its coefficient times a product of pair factors; rows
    # with the same b's and the same g's, in any order, are merged into one
    h = build_h(CriticalPoints.from_pairs(pairs))
    for program in (site_route(h), scaled_site_polys(h)):
        for rows in program_rows(program):
            products = [(tuple(sorted(b for b, _ in key)), tuple(sorted(g for _, g in key)))
                        for key in rows]
            assert len(set(products)) == len(products)


@settings(max_examples=20, deadline=None)
@given(h=exact_weights(), alpha=bounded_sequences(), start=st.integers(0, 60))
def test_site_route_equals_term_by_term_compile_of_its_parts(h, alpha, start):
    # the cached integer rows, weighted, against the same weighted parts
    # compiled term by term: row by row, and summed over a window
    route = site_route(h)
    oracle = phi_program([site_parts(k, h) for k in range(1, h.degree + 1)], {})
    assert route.max_shift == oracle.max_shift
    for got, want in zip(program_rows(route), program_rows(oracle), strict=True):
        assert got.keys() == want.keys()
        assert all(abs(got[key] - c) <= 1e-12 * max(1.0, abs(c)) for key, c in want.items())
    stop = start + 7
    a = alpha.head(stop + 2 * route.max_shift)
    assert_sums_close(phi_sums(route, a[start:], stop - start),
                      window_sums(oracle, a, start, stop))


@settings(max_examples=30, deadline=None)
@given(h=exact_weights(), alpha=bounded_sequences(), start=st.integers(0, 40),
       kind=st.sampled_from(["one", "short", "across"]), data=st.data())
def test_site_route_window_sums_equal_the_term_by_term_program(h, alpha, start, kind, data):
    # the route sums each window by shift class, a row's sum a class's full
    # sum less two edges; the term-by-term program has every row at offset 0
    route = site_route(h)
    oracle = phi_program([site_parts(k, h) for k in range(1, h.degree + 1)], {})
    if kind == "one":
        width = 1
    elif kind == "short":
        width = data.draw(st.integers(1, max(1, route.max_shift - 1)))
    else:  # site_functional splits a window wider than a block at block edges
        width = data.draw(st.integers(route.block + 1, 2 * route.block + route.max_shift))
    stop = start + width
    a = alpha.head(stop + 2 * route.max_shift)
    want = window_sums(oracle, a, start, stop)
    if kind != "across":
        assert_sums_close(phi_sums(route, a[start:], stop - start), want)
    # the segment's share in site_functional: the same sums, less the log terms
    mod2 = np.abs(a[start:stop]) ** 2
    logs = float(np.sum(np.log1p(-mod2) + sum(mod2 ** k / k for k in range(1, h.degree + 1))))
    sites = float(sum(want).real)
    assert abs(site_functional(a[start:], width, route) - (sites - logs)) \
        <= 1e-12 * max(1.0, abs(sites), abs(logs))


def test_site_route_classes_and_block_pins():
    # d = 5, K = 2: translates share a class, so no polynomial has more
    # classes than rows, and every polynomial above k = 1 has fewer
    route = site_route(build_h(CriticalPoints.from_pairs([(0.3, 3), (1.1, 2)])))
    classes = [len(c) for c in route.classes]
    rows = [len(r) for r in program_rows(route)]
    assert classes[0] == rows[0] and all(c < r for c, r in zip(classes[1:], rows[1:]))
    assert (sum(classes), sum(rows)) == (261, 621)
    # d = 8: a block holds more sites than the max_shift columns a site reads
    # past itself (one site per block when every row was evaluated at every
    # site, as one polynomial had more rows than SITE_ELEMENTS)
    wide = site_route(build_h(CriticalPoints.from_pairs([(0.3, 8)])))
    assert (sum(map(len, wide.classes)), sum(map(len, program_rows(wide)))) == (7826, 28386)
    assert wide.block > wide.max_shift


def test_second_weight_of_a_degree_builds_no_part():
    # the rows are cached per (k, l) and their layout per list of powers: a
    # second weight of the same degree, with no zero h_l, only scales them,
    # so neither cache misses; the site parts are built outside the part
    # cache, which keeps none of them
    site_route(build_h(CriticalPoints.from_pairs([(0.3, 2), (1.1, 1)])))

    def misses():
        return (weight_free_part.cache_info().misses,
                algmodel._site_rows.cache_info().misses,
                algmodel._site_layout.cache_info().misses)

    before = misses()
    site_route(build_h(CriticalPoints.from_pairs([(0.7, 3)])))
    assert misses() == before


@pytest.mark.parametrize("part,message", [
    (VarTable(1).pair_monomial([1], [-1]), "nonnegative pair exponents"),
    (VarTable(1).pair_monomial([1], [1]) * Fraction(1, 2), "non-integer coefficient"),
], ids=["negative-exponent", "half-coefficient"])
def test_site_rows_reject_a_part_phi_cannot_count(monkeypatch, part, message):
    # the uncached body, so that the broken part stays out of the cache
    monkeypatch.setattr(algmodel, "_site_part", lambda k, l: part)
    with pytest.raises(ModelError, match=message):
        algmodel._site_rows.__wrapped__(1, 1)


def test_site_block_holds_one_site_past_the_element_budget():
    # one polynomial of more classes than SITE_ELEMENTS: |a_j|^2 spread over
    # its rows, so that each site's term is -log(1 - |a_j|^2) and a window's
    # phi sum is the window's sum of |a_j|^2
    rows = SITE_ELEMENTS + 1
    program = PhiProgram(((0, 0),), (np.zeros((rows, 1), dtype=np.intp),),
                         (np.full(rows, 1 / rows, dtype=complex),),
                         (np.zeros((rows, 0), dtype=complex),), 0)
    assert program.block == 1
    a = 0.5 * np.exp(-0.7j * np.arange(4))
    mod2 = np.abs(a[:3]) ** 2
    assert abs(phi_sums(program, a, 3)[0] - mod2.sum()) <= 1e-12
    want = -float(np.sum(np.log1p(-mod2)))
    assert abs(site_functional(a, 3, program) - want) <= 1e-12


def test_site_functional_at_n_20000_stays_small_in_memory():
    # unblocked, the term products over all 20000 sites would take tens of MB
    route = site_route(build_h(CriticalPoints.from_pairs([(0.3, 3), (1.1, 2)])))
    seq = VerblunskySeq(lambda n: 0.5 / (n + 1) ** 0.7, support=None)
    tracemalloc.start()
    try:
        value = site_functional(site_head(seq, 20000, route), 20000, route)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(value)
    assert peak < 16 * 2 ** 20


# -- degree-2 product identity ------------------------------------------------------------


@pytest.mark.parametrize("mults", [[1], [2], [3], [4], [1, 1], [2, 1], [2, 2], [3, 1]])
def test_degree2_product_identity(mults):
    h = build_h(CriticalPoints.generic(mults))
    assert degree2_product_check(h).passed


def test_critical_product_phi_image_is_shifted_difference_norm():
    # phi_2 of the product equals
    # 2^{-d} |(prod_j (S - e^{-i theta_j})^{m_j} alpha)_n|^2
    rng = np.random.default_rng(7)
    head = random_seq(rng, 12).head(12)
    angles = [0.3, 1.2]
    mults = [2, 1]
    h = build_h(CriticalPoints.from_pairs(list(zip(angles, mults))))
    table = table_for(1, h)
    product = critical_product(h, table)
    n = 2
    image = phi_eval(product, head, n, unit_values=h.unit_values())
    block = head[n:n + 5]
    for theta, m in zip(angles, mults):
        root = cmath.exp(-1j * theta * math.pi)
        for _ in range(m):
            block = block[1:] - root * block[:-1]
    assert abs(image - abs(block[0]) ** 2 / 2 ** h.degree) <= 1e-12


# -- contact degree and representative search ----------------------------------------------


def test_l_degree_centered_product():
    t = VarTable(1, units=("z1",))
    x1, y1, z1 = t.var("x1"), t.var("y1"), t.var("z1")
    assert l_degree((x1 - z1.inverse()) * (y1 - z1), 1) == 2


def test_l_degree_pair_product_has_constant():
    t = VarTable(1, units=("z1",))
    assert l_degree(t.monomial({"x1": 1, "y1": 1}), 1) == 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_l_degree_power_products(m):
    t = VarTable(1, units=("z1",))
    x1, y1, z1 = t.var("x1"), t.var("y1"), t.var("z1")
    p = (x1 - z1.inverse()) ** m * (y1 - z1) ** m
    assert l_degree(p, m) == 2 * m


def test_l_degree_caps_exponents():
    t = VarTable(1, units=("z1",))
    x1, y1, z1 = t.var("x1"), t.var("y1"), t.var("z1")
    p = (x1 - z1.inverse()) ** 4 * (y1 - z1) ** 4
    assert l_degree(p, 2) == 4


def test_representative_search_is_class_preserving_noop():
    h = build_h(CriticalPoints.generic([1]))
    witness = product_representative(h)
    rep, score = representative_search(witness, 1, budget=2)
    assert rep == witness and score == 2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_representative_search_reaches_full_contact(d):
    # the double-sum part of G'_2 admits contact order 2d = 2(d+1) - 2
    h = build_h(CriticalPoints.generic([d]))
    part = hl_part(1, h)
    witness = product_representative(h)
    rep, score = representative_search(part, d, budget=3, extra_candidates=[witness])
    assert rep.normal_form() == part.normal_form()
    assert score >= 2 * d


def test_full_class_constant_blocks_contact():
    # G'_2 itself carries the class-invariant constant -1, so every
    # representative has contact 0; the search reports that honestly
    h = build_h(CriticalPoints.generic([1]))
    g = build_g2k_hl(1, h)
    rep, score = representative_search(g, 1, budget=2)
    assert score == 0
