"""The quotient-ring model for sum-rule coefficient polynomials.

Everything lives in the Laurent ring over pair variables ``x1, y1, ...,
xk, yk`` modulo the relation ``x1*y1*...*xk*yk = 1`` (normal forms), with
unit symbols ``z_j`` standing for the critical points ``e^{i theta_j}``.

The degree-2k part ``G_2k`` of the sum-rule trace functional is built two
independent ways and compared as normal forms:

* the trace route, from the index-tuple expansion of ``Tr(U_N^l)``,
* the Hall-Littlewood route, from the double sum over the monomials
  ``a_{k,p}`` and ``b_{k,q}``, itself evaluated both by nested divided
  differences and by complete homogeneous symmetric sums.

The evaluation map ``phi`` sends ``x_p^b y_p^g`` (per pair) to
``alpha_{n+b} * conj(alpha_{n+g})``; in particular a constant c maps to
``c * |alpha_n|^{2k}``, which is what makes the ``-1/k`` term match the
k-th order of ``-log(1 - |alpha_n|^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from .laurent import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    LaurentPoly,
    VarTable,
    _accumulate,
    divided_diff,
    exact_div,
    substitute,
)
from .trig import TrigPoly

# guard for the symbolic trace expansion; k*l and window size beyond this
# point produce polynomials too large for desk use
MAX_TRACE_COMPLEXITY = 18
MAX_TRACE_WINDOW = 80
# sites per block in site_functional: bounds its working memory
SITE_BLOCK = 64


class ModelError(Exception):
    pass


# -- tables and basis monomials ---------------------------------------------------


def model_table(k: int, units: Sequence[str] = (), plain: Sequence[str] = ()) -> VarTable:
    """Pair variables x1..yk plus the unit symbols of a weight."""
    return VarTable.build(k, units=units, plain=plain)


def table_for(k: int, h: TrigPoly, plain: Sequence[str] = ()) -> VarTable:
    return model_table(k, units=h.table.names, plain=plain)


def in_polynomial_ring(poly: LaurentPoly) -> bool:
    """True when no term of ``poly`` has a negative pair exponent."""
    pair_slots = poly.table.pair_slots()
    return all(e[i] >= 0 for e in poly.terms for i in pair_slots)


def a_monomials(table: VarTable, k: int) -> list:
    """``a_{k,p} = prod_{s>=p} y_s * prod_{s>=p+1} x_s`` for p = 1..k."""
    return [table.pair_monomial([0] * p + [1] * (k - p), [0] * (p - 1) + [1] * (k - p + 1))
            for p in range(1, k + 1)]


def b_monomials(table: VarTable, k: int) -> list:
    """``b_{k,p} = prod_{s<=p} x_s y_s`` for p = 1..k."""
    return [table.pair_monomial([1] * p + [0] * (k - p), [1] * p + [0] * (k - p))
            for p in range(1, k + 1)]


def c_monomials(table: VarTable, k: int) -> list:
    """``c_{k,p} = prod_{s>=p} x_s * prod_{p<=s<=k-1} y_s``."""
    return [table.pair_monomial([0] * (p - 1) + [1] * (k - p + 1),
                                [0] * (p - 1) + [1] * (k - p) + [0])
            for p in range(1, k + 1)]


def d_monomials(table: VarTable, k: int) -> list:
    """``d_{k,p} = prod_{s<=p} y_{s-1} x_s`` with ``y_0 := y_k``."""
    return [table.pair_monomial(xs, xs[1:] + xs[:1])
            for xs in ([1] * p + [0] * (k - p) for p in range(1, k + 1))]


def e_monomials(table: VarTable, k: int) -> list:
    """``e_{k,p}``: equals ``c_{k,p}`` for p >= 2, and ``1/y_k`` for p = 1."""
    return [table.pair_monomial([0] * k, [0] * (k - 1) + [-1])] + c_monomials(table, k)[1:]


# -- compositions and symmetric sums ----------------------------------------------


def compositions(total: int, parts: int, positive: bool = False) -> Iterator[tuple]:
    """All length-``parts`` integer compositions of ``total`` (>= 0 or >= 1)."""
    low = 1 if positive else 0
    if parts == 0:
        if total == 0:
            yield ()
        return

    def rec(remaining: int, slots: int, prefix: tuple):
        if slots == 1:
            if remaining >= low:
                yield prefix + (remaining,)
            return
        top = remaining - low * (slots - 1)
        for v in range(low, top + 1):
            yield from rec(remaining - v, slots - 1, prefix + (v,))

    yield from rec(total, parts, ())


def hom_sums(points: Sequence[LaurentPoly], degree: int) -> list:
    """Complete homogeneous symmetric polynomials ``[h_0, ..., h_degree]`` of the points.

    One pass over the points of ``h_m(p_1..p_j) = h_m(p_1..p_{j-1}) + p_j *
    h_{m-1}(p_1..p_j)``; only ``[h_0] = [1]`` for negative degree.
    """
    table = points[0].table
    rows = [table.one()] + [table.zero()] * degree
    for point in points:
        for m in range(1, degree + 1):
            rows[m] = rows[m] + point * rows[m - 1]
    return rows


# -- index tuples ------------------------------------------------------------------


def enum_d(k: int, l: int) -> frozenset:
    """Index tuples ``(i_1, j_1, ..., i_k, j_k)`` of the trace expansion.

    Generated through the bijection with pairs of compositions: ``v`` with
    nonnegative parts and ``vt`` with positive parts, both summing to l,
    via ``i_p = sum_{s<p} (v_s - vt_s)`` and ``j_p = i_p + v_p``.  Empty
    exactly when l < k.
    """
    if k < 1 or l < 1:
        raise ModelError("k and l must be positive")
    out = set()
    for v in compositions(l, k):
        for vt in compositions(l, k, positive=True):
            tup = []
            i = 0
            for p in range(k):
                j = i + v[p]
                tup += [i, j]
                i = j - vt[p]
            out.add(tuple(tup))
    return frozenset(out)


def enum_d_direct(k: int, l: int) -> frozenset:
    """Independent enumeration by constraint filtering over a bounded box.

    Constraints: ``i_1 = 0``, ``j_p >= i_p``, ``j_p > i_{p+1}`` cyclically,
    ``sum (j_p - i_p) = l``.  Entries provably lie in ``[-l+1, l]``.
    """
    out = []

    def rec(p: int, prev_j: int, acc: int, prefix: tuple):
        if p > k:
            if acc == l and prev_j > 0:
                out.append(prefix)
            return
        lo_i = 0 if p == 1 else -l
        hi_i = 0 if p == 1 else min(prev_j - 1, l)
        for i in range(lo_i, hi_i + 1):
            for j in range(i, l + 1):
                if acc + (j - i) > l:
                    break
                rec(p + 1, j, acc + (j - i), prefix + (i, j))

    rec(1, l + 1, 0, ())
    return frozenset(out)


def index_tuple_count(k: int, l: int) -> int:
    """``C(l+k-1, k-1) * C(l-1, k-1)``, the size of the index-tuple set."""
    return math.comb(l + k - 1, k - 1) * math.comb(l - 1, k - 1)


# -- the evaluation map phi ---------------------------------------------------------


def phi_eval(p: LaurentPoly, head: np.ndarray, n: int,
             unit_values: Mapping[str, complex] | None = None) -> complex:
    """Evaluate ``[phi_2k(p)]_n`` for p with nonnegative pair exponents.

    Every pair contributes ``alpha_{n+b} * conj(alpha_{n+g})`` from
    ``head``, including pairs with zero exponents, so ``phi(1) =
    |alpha_n|^{2k}``.  This is the one-site case of :func:`phi_sites`.
    """
    program = phi_program([p], unit_values or {})
    a = head[n:]
    return complex(phi_sites(program, a, np.conj(a), 0, 1)[0][0])


def phi_terms(poly: LaurentPoly, unit_values: Mapping[str, complex]) -> list:
    """Compile a polynomial for phi: one ``(coeff, ((b_1, g_1), ...))`` per term.

    ``coeff`` is the coefficient times the unit-symbol values and
    ``(b_p, g_p)`` are the exponents of ``x_p`` and ``y_p``.  Raises
    :class:`ModelError` on plain symbols and negative pair exponents.
    """
    table = poly.table
    xs = [i for i, kind in enumerate(table.kinds) if kind == "x"]
    ys = [i for i, kind in enumerate(table.kinds) if kind == "y"]
    compiled = []
    for e, c in poly.terms.items():
        value = complex(c)
        for slot, (name, kind) in enumerate(zip(table.names, table.kinds)):
            if kind == "z" and e[slot]:
                value *= unit_values[name] ** e[slot]
            elif kind == "a" and e[slot]:
                raise ModelError("phi is undefined on plain symbols")
        exps = tuple((e[x], e[y]) for x, y in zip(xs, ys))
        if any(beta < 0 or gamma < 0 for beta, gamma in exps):
            raise ModelError("phi needs nonnegative pair exponents")
        compiled.append((value, exps))
    return compiled


@dataclass(frozen=True)
class PhiProgram:
    """Polynomials compiled for phi over one shared table of pair factors.

    ``shifts[i] = (b, g)`` is the pair factor ``alpha_{n+b} *
    conj(alpha_{n+g})``.  Polynomial q is ``sum_t coeffs[q][t] * prod_p
    factor[slots[q][t, p]]``; ``max_shift`` is the largest b or g.
    """

    shifts: tuple
    coeffs: tuple
    slots: tuple
    max_shift: int


def phi_program(polys: Sequence[LaurentPoly],
                unit_values: Mapping[str, complex]) -> PhiProgram:
    """Compile polynomials with :func:`phi_terms` into one :class:`PhiProgram`."""
    index: dict = {}
    coeffs = []
    slots = []
    for poly in polys:
        terms = phi_terms(poly, unit_values)
        pairs = poly.table.kinds.count("x")
        coeffs.append(np.array([c for c, _ in terms], dtype=complex))
        slots.append(np.array(
            [[index.setdefault(pair, len(index)) for pair in exps] for _, exps in terms],
            dtype=np.intp).reshape(len(terms), pairs))
    max_shift = max((max(pair) for pair in index), default=0)
    return PhiProgram(tuple(index), tuple(coeffs), tuple(slots), max_shift)


def phi_sites(program: PhiProgram, a: np.ndarray, a_conj: np.ndarray,
              start: int, stop: int) -> list:
    """phi of each compiled polynomial at sites ``start .. stop-1``.

    ``a`` holds the coefficients from site 0 on (at least ``stop +
    max_shift`` of them) and ``a_conj`` their conjugates.  Each pair factor
    is one slice product over all the sites; each term multiplies its
    factors in pair order onto its coefficient, and the terms are summed in
    order, as a scalar loop over one site would.
    """
    width = stop - start
    factors = np.empty((len(program.shifts), width), dtype=complex)
    for row, (beta, gamma) in zip(factors, program.shifts):
        np.multiply(a[start + beta:stop + beta], a_conj[start + gamma:stop + gamma],
                    out=row)
    values = []
    for coeffs, slots in zip(program.coeffs, program.slots):
        prod = np.repeat(coeffs[:, None], width, axis=1)
        for column in slots.T:
            prod *= factors[column]
        values.append(prod.sum(axis=0))
    return values


# -- symbolic trace expansion --------------------------------------------------------


def trace_table(n_sym: int) -> VarTable:
    names = [f"al{m}" for m in range(n_sym)] + [f"ac{m}" for m in range(n_sym)]
    return VarTable.build(0, plain=names)


def trace_symbolic(l: int, n_sym: int) -> LaurentPoly:
    """``Tr(U_N^l)`` as an exact polynomial in symbols al_m, ac_m.

    Uses the squared-rho variant of the truncation, whose entries are
    polynomial (``-al_{k-1} ac_l`` above the diagonal, ``1 - al_m ac_m``
    on the subdiagonal); it has the same traces of powers as the GGT
    corner itself.  Computed by enumerating closed Hessenberg walks.
    """
    if l < 1 or n_sym < 1:
        raise ModelError("power and window must be positive")
    if n_sym > MAX_TRACE_WINDOW:
        raise ModelError("symbolic window exceeds the configured guard")
    return _closed_walks(l, n_sym, range(n_sym))


def diagonal_entry(l: int, degree: int) -> LaurentPoly:
    """Degree-``degree`` part of ``(U^l)_{ll}`` of the infinite squared-rho matrix.

    A closed walk of length l from row l falls at most one row per step and
    must climb back, so it stays in rows 1..2l-1 of ``trace_table(2l)``.
    """
    return _closed_walks(l, 2 * l, (l,), degree)


def _closed_walks(l: int, n_sym: int, starts, degree: int | None = None) -> LaurentPoly:
    """Sum of the closed Hessenberg walks of length l from each start row.

    With ``degree`` set, only its homogeneous part: walk products drop the
    terms above it (degrees never fall), and a walk left empty is cut.
    """
    table = trace_table(n_sym)
    entry_cache: dict = {}

    def entry(row: int, col: int) -> LaurentPoly:
        key = (row, col)
        cached = entry_cache.get(key)
        if cached is None:
            if col == row - 1:
                cached = table.one() - table.monomial(
                    {f"al{col}": 1, f"ac{col}": 1})
            elif row == 0:
                cached = table.var(f"ac{col}")
            else:
                cached = table.monomial({f"al{row - 1}": 1, f"ac{col}": 1}, -1)
            entry_cache[key] = cached
        return cached

    out: dict = {}

    def rec(start: int, pos: int, remaining: int, acc: LaurentPoly):
        if degree is not None:
            acc = LaurentPoly(table, {e: c for e, c in acc.terms.items() if sum(e) <= degree})
            if acc.is_zero:
                return
        if remaining == 1:
            if start >= pos - 1:
                _accumulate(out, (acc * entry(pos, start)).terms.items())
            return
        lo = max(pos - 1, 0)
        hi = min(n_sym - 1, start + remaining - 1)
        for nxt in range(lo, hi + 1):
            rec(start, nxt, remaining - 1, acc * entry(pos, nxt))

    for start in starts:
        rec(start, start, l, table.one())
    if degree is not None:
        out = {e: c for e, c in out.items() if sum(e) == degree}
    return LaurentPoly(table, out)


def _orbit_sums(terms, n_sym: int) -> dict:
    """Coefficient sums per orbit, each monomial shifted to least al/ac index 0."""
    out: dict = {}
    for e, c in terms:
        lo = min(i for i in range(n_sym) if e[i] or e[n_sym + i])
        pad = (0,) * lo
        _accumulate(out, ((e[lo:n_sym] + pad + e[n_sym + lo:] + pad, c),))
    return out


@dataclass
class TraceExpansionResult:
    """``compared_orbits`` shift orbits had a nonzero trace sum;
    ``compared_terms`` counts their copies in ``window``, the interior of
    an ``n_sym``-symbol truncation, where its trace is the infinite one's."""

    k: int
    l: int
    n_sym: int
    window: tuple
    compared_terms: int
    compared_orbits: int
    mismatches: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches


def trace_expansion_check(k: int, l: int) -> TraceExpansionResult:
    """Compare the degree-2k trace coefficients against the index-tuple formula.

    The claim: the degree-2k part of ``Tr(U^l)`` equals ``(-1)^k (l/k)
    sum_n sum_tuples prod_p al_{n+i_p} ac_{n+j_p}``, duplicate tuples
    counted with multiplicity.  Exact comparison, no tolerance.
    """
    weight = GaussianRational(Fraction((-1) ** k * l, k))
    return trace_orbit_check(k, l, enum_d(k, l), weight)


def trace_orbit_check(k: int, l: int, tuples, weight: GaussianRational
                      ) -> TraceExpansionResult:
    """Per shift orbit, compare the degree-2k part of ``(U^l)_{ll}`` with
    ``weight * prod_p al_{i_p} ac_{j_p}`` summed over the tuples.

    Both sides of the expansion are sums over the sites n of one shifted
    polynomial, so they agree exactly when their orbit sums do.  Tuple
    entries lie in ``[-l+1, l]``, so a shift by l-1 fits ``trace_table(2l)``.
    """
    if k * l > MAX_TRACE_COMPLEXITY:
        raise ModelError("k*l exceeds the configured symbolic-trace guard")
    n = 2 * l
    actual = _orbit_sums(diagonal_entry(l, 2 * k).terms.items(), n)

    def vector(tup):  # i_p indexes al, j_p indexes ac
        vec = [0] * (2 * n)
        for slot, idx in enumerate(tup):
            vec[slot % 2 * n + idx + l - 1] += 1
        return tuple(vec)

    predicted = _orbit_sums(((vector(tup), weight) for tup in tuples), n)
    # an orbit of index span s has 3l + 1 - s copies in [2l, 5l]
    copies = sum(3 * l + 1 - max(i for i in range(n) if e[i] or e[n + i]) for e in actual)
    result = TraceExpansionResult(k, l, 7 * l, (2 * l, 5 * l), copies, len(actual))
    names = trace_table(n).names
    for e in sorted(set(actual) | set(predicted)):
        got, want = actual.get(e, GR_ZERO), predicted.get(e, GR_ZERO)
        if got != want:
            mono = "*".join(f"{names[i]}^{x}" for i, x in enumerate(e) if x)
            result.mismatches.append({"monomial": mono, "trace": got.to_text(),
                                      "predicted": want.to_text()})
    return result


# -- the G_2k builders ----------------------------------------------------------------


def _embedded_coeffs(h: TrigPoly, table: VarTable) -> dict:
    return {l: poly.embed(table) for l, poly in h.coeffs.items()}


def _sign(k: int) -> GaussianRational:
    """The route sign ``(-1)^{k+1}``."""
    return GR_ONE if k % 2 else -GR_ONE


def g2k_trace_scaled(k: int, h: TrigPoly) -> LaurentPoly:
    """Trace-route ``k * Z_H * G_2k`` in normal form.

    ``(-1)^{k+1} * sum_{l=1}^{d} [h_l * S_l^+ + h_{-l} * S_l^-]`` where the
    S-sums run over index tuples in their positive and negative monomial
    forms.  Empty (zero) when k exceeds the weight degree.
    """
    if k < 1:
        raise ModelError("k must be positive")
    table = table_for(k, h)
    hc = _embedded_coeffs(h, table)
    out: dict = {}
    for l in range(k, h.degree + 1):
        s_pos: dict = {}
        s_neg: dict = {}
        for tup in enum_d(k, l):
            # prod_p x_p^{i_p} y_p^{j_p}, and prod_p y_{p-1}^{i_p} x_p^{j_p} with y_0 := y_k
            _accumulate(s_pos, table.pair_monomial(tup[::2], tup[1::2]).terms.items())
            _accumulate(s_neg, table.pair_monomial(tup[1::2], tup[2::2] + tup[:1]).terms.items())
        _accumulate(out, (hc[l] * LaurentPoly(table, s_pos)).terms.items())
        _accumulate(out, (hc[-l] * LaurentPoly(table, s_neg)).terms.items())
    return (LaurentPoly(table, out) * _sign(k)).normal_form()


def hl_double_sum(k: int, h: TrigPoly) -> LaurentPoly:
    """The Hall-Littlewood double sum, by nested divided differences.

    ``sum_{p,q} H(a_p b_q) / (prod_{s!=p}(1 - a_s/a_p) prod_{t!=q}(b_q/b_t
    - 1))`` computed exactly as ``D(b_1..b_k)(f2) * prod b_t`` with ``f2 =
    D(a_1..a_k)(f1(x, .))`` and ``f1(x, t) = H(t x) t^{k-1} x^{-1}``.
    Any division failure in the recursion signals a broken identity.
    """
    d = h.degree
    table = table_for(k, h, plain=("hl_s", "hl_t"))
    hc = _embedded_coeffs(h, table)
    f1 = table.zero()
    for l in range(-d, d + 1):
        if hc[l].is_zero:
            continue
        mono = table.monomial({"hl_t": l + k - 1, "hl_s": l - 1})
        f1 = f1 + hc[l] * mono
    a_pts = a_monomials(table, k)
    b_pts = b_monomials(table, k)
    f2 = divided_diff(a_pts, f1, "hl_t")
    ds = math.prod(b_pts, start=divided_diff(b_pts, f2, "hl_s"))
    return ds.project(table_for(k, h))


def g2k_hl_scaled_dd(k: int, h: TrigPoly) -> LaurentPoly:
    """Divided-difference route for ``k * Z_H * G'_2k`` in normal form."""
    z_h = h.coeffs[0].embed(table_for(k, h))
    return (hl_double_sum(k, h) * _sign(k) - z_h).normal_form()


def g2k_hl_scaled_hom(k: int, h: TrigPoly) -> LaurentPoly:
    """Complete-homogeneous route for ``k * Z_H * G'_2k`` in normal form.

    Per degree l: the positive part is ``h_l(a) * prod(b) * h_{l-k}(b)``
    and the negative part ``h_l(e) * prod(d) * h_{l-k}(d)``; the constant
    from the l = 0 coefficient cancels the ``- Z_H`` exactly.
    """
    table = table_for(k, h)
    ds = _hom_double_sum(k, h, table, e_monomials(table, k))
    return (ds * _sign(k)).normal_form()


def _hom_double_sum(k: int, h: TrigPoly, table: VarTable,
                    neg_pts: Sequence[LaurentPoly]) -> LaurentPoly:
    """``sum_{l=k}^{d} h_l * pos_l + h_{-l} * neg_l`` by complete homogeneous sums.

    ``pos_l = h_l(a) * prod(b) * h_{l-k}(b)`` and ``neg_l = h_l(neg_pts) *
    prod(d) * h_{l-k}(d)``; the negative point set is e (quotient ring) or
    c (cleared exponents).
    """
    d = h.degree
    hc = _embedded_coeffs(h, table)
    b_pts = b_monomials(table, k)
    d_pts = d_monomials(table, k)
    prod_b = math.prod(b_pts, start=table.one())
    prod_d = math.prod(d_pts, start=table.one())
    h_a, h_b = hom_sums(a_monomials(table, k), d), hom_sums(b_pts, d - k)
    h_neg, h_d = hom_sums(neg_pts, d), hom_sums(d_pts, d - k)
    out: dict = {}
    for l in range(k, d + 1):
        pos = h_a[l] * prod_b * h_b[l - k]
        neg = h_neg[l] * prod_d * h_d[l - k]
        _accumulate(out, (hc[l] * pos).terms.items())
        _accumulate(out, (hc[-l] * neg).terms.items())
    return LaurentPoly(table, out)


@dataclass
class RouteCheckResult:
    k: int
    d: int
    routes_equal: bool
    trace_equals_hl: bool
    diff_terms: int

    @property
    def passed(self) -> bool:
        return self.routes_equal and self.trace_equals_hl


def g2k_routes_check(k: int, h: TrigPoly) -> RouteCheckResult:
    """Full equivalence check between all three constructions of G_2k.

    Compares the scaled (by ``k * Z_H``) normal forms, which is equivalent
    to comparing the polynomials themselves because the Laurent ring has
    no zero divisors.
    """
    dd = g2k_hl_scaled_dd(k, h)
    hom = g2k_hl_scaled_hom(k, h)
    tr = g2k_trace_scaled(k, h)
    routes_equal = dd == hom
    trace_equals_hl = tr == dd
    diff = (tr - dd) if not trace_equals_hl else (dd - hom)
    return RouteCheckResult(k, h.degree, routes_equal, trace_equals_hl,
                            len(diff.terms))


def _divide_by_scale(poly: LaurentPoly, k: int, h: TrigPoly) -> LaurentPoly:
    z_h = h.coeffs[0].embed(poly.table)
    return exact_div(poly, z_h * Fraction(k))


def build_g2k_trace(k: int, h: TrigPoly) -> LaurentPoly:
    """Normal form of the trace-route G_2k (including the 1/(k Z_H) scale).

    Raises :class:`NonDivisible` when ``Z_H`` is not constant and does not
    divide the assembled polynomial; the scaled builders avoid this.
    """
    return _divide_by_scale(g2k_trace_scaled(k, h), k, h)


def build_g2k_hl(k: int, h: TrigPoly) -> LaurentPoly:
    """Normal form of G'_2k built by both Hall-Littlewood routes.

    The two routes are compared exactly before returning; a mismatch (or a
    NonDivisible from the divided-difference recursion) is an identity
    failure, not a recoverable condition.
    """
    dd = g2k_hl_scaled_dd(k, h)
    hom = g2k_hl_scaled_hom(k, h)
    if dd != hom:
        raise ModelError(f"route disagreement for k={k}, d={h.degree}")
    return _divide_by_scale(dd, k, h)


def hl_part(k: int, h: TrigPoly) -> LaurentPoly:
    """The Hall-Littlewood double-sum part of G'_2k, without the -1/k term.

    This is the piece whose class admits high-contact representatives at
    the critical point; the constant -1/k is class-invariant and is
    handled by the logarithm expansion instead.
    """
    ds = hl_double_sum(k, h)
    return _divide_by_scale((ds * _sign(k)).normal_form(), k, h)


def basis_relation_check(k: int) -> bool:
    """Monomial identities tying the negative-degree basis to (a, b).

    For all p, q in [k]: ``d_p * e_{q+1} * a_p * b_q = (prod x_i y_i)^2``
    and the denominator products match:
    ``prod_{s!=p}(1 - a_s/a_p) * prod_{t!=q}(b_q/b_t - 1)`` equals
    ``prod_{s!=q}(1 - e_{s+1}/e_{q+1}) * prod_{t!=p}(d_p/d_t - 1)``.
    """
    table = model_table(k)
    one = table.one()
    a = a_monomials(table, k)
    b = b_monomials(table, k)
    d_m = d_monomials(table, k)
    e = e_monomials(table, k)
    unit2 = table.pair_monomial([2] * k, [2] * k)

    def e_next(idx: int) -> LaurentPoly:
        # e_{idx+1} with the wrap e_{k+1} = e_1 (1-based idx in [1, k])
        return e[idx % k]

    for p in range(1, k + 1):
        for q in range(1, k + 1):
            if d_m[p - 1] * e_next(q) * a[p - 1] * b[q - 1] != unit2:
                return False
            lhs = one
            for s in range(1, k + 1):
                if s != p:
                    lhs = lhs * (one - a[s - 1] * a[p - 1].inverse())
            for t in range(1, k + 1):
                if t != q:
                    lhs = lhs * (b[q - 1] * b[t - 1].inverse() - one)
            rhs = one
            for s in range(1, k + 1):
                if s != q:
                    rhs = rhs * (one - e_next(s) * e_next(q).inverse())
            for t in range(1, k + 1):
                if t != p:
                    rhs = rhs * (d_m[p - 1] * d_m[t - 1].inverse() - one)
            if lhs != rhs:
                return False
    return True


# -- the constant identity ---------------------------------------------------------


def constant_partial_sums(k: int) -> tuple:
    """The two scalar factors of the double-sum constant identity.

    ``sum_p 1 / prod_{s != p} (1 - t_s/t_p)`` equals 1 and ``sum_p 1 /
    prod_{s != p} (t_p/t_s - 1)`` equals ``(-1)^{k+1}``; both are computed
    through exact divided differences of ``x^{k-1}`` and ``1/x``.
    """
    table = VarTable.build(0, units=[f"t{i}" for i in range(1, k + 1)],
                           plain=("s",))
    pts = [table.var(f"t{i}") for i in range(1, k + 1)]
    sign = _sign(k)

    a_poly = divided_diff(pts, table.var("s", k - 1), "s") * sign
    if not a_poly.is_monomial and not a_poly.is_zero:
        raise ModelError("first constant sum did not collapse to a scalar")

    prod_t = math.prod(pts, start=table.one())
    b_poly = divided_diff(pts, table.var("s", -1), "s") * prod_t * sign
    a_val = a_poly.constant_value()
    b_val = b_poly.constant_value()
    if table.const(a_val) != a_poly or table.const(b_val) != b_poly:
        raise ModelError("constant sums did not collapse to scalars")
    return a_val, b_val


def constant_sum_check(k: int) -> GaussianRational:
    """Exact value of the full double-sum constant; equals ``(-1)^{k+1}``."""
    a_val, b_val = constant_partial_sums(k)
    return a_val * b_val


# -- per-site expansion polynomial (phi-ready form) -----------------------------------


def site_poly(k: int, h: TrigPoly) -> LaurentPoly:
    """The degree-2k site polynomial with all exponents cleared to >= 0.

    Assembles the double sum per degree with the positive-composition
    rewriting of the negative part (monomials c and d), adds the constant
    ``h_0 * (-1)^{k+1}``, and multiplies by ``(prod x_i y_i)^{2k}``.  The
    result lies in the plain polynomial ring; a negative exponent would
    mean a broken identity and raises.
    """
    if k > h.degree:
        raise ModelError("k cannot exceed the weight degree")
    table = table_for(k, h)
    total = (h.coeffs[0].embed(table) * _sign(k)
             + _hom_double_sum(k, h, table, c_monomials(table, k)))
    out = total * table.pair_monomial([2 * k] * k, [2 * k] * k)
    if not in_polynomial_ring(out):
        raise ModelError("site polynomial has a negative exponent")
    return out


@dataclass(frozen=True)
class SiteRoute:
    """``site_poly(k, h)`` for k = 1..d, compiled for :func:`site_functional`.

    ``prefs[k-1] = (-1)^{k+1} / (k Z_H)``; ``program`` holds polynomial k
    at position k - 1.
    """

    prefs: tuple
    program: PhiProgram


def site_route(h: TrigPoly) -> SiteRoute:
    """Build and compile every site polynomial of h once."""
    d = h.degree
    z_h = h.z_h_numeric()
    polys = [site_poly(k, h) for k in range(1, d + 1)]
    prefs = tuple((-1) ** (k + 1) / (k * z_h) for k in range(1, d + 1))
    return SiteRoute(prefs, phi_program(polys, h.unit_values()))


def site_functional(a: np.ndarray, n: int, route: SiteRoute) -> float:
    """Per-site reformulation of the sum-rule functional.

    ``sum_{j<n} [ sum_k pref_k * phi_2k(site_poly(k)) - log(1-|a_j|^2)
    - sum_k |a_j|^{2k}/k ]`` with ``pref_k = (-1)^{k+1} / (k Z_H)``; the
    k-sum runs to the weight degree.  Differs from the trace functional
    by a bounded amount that depends only on coefficients near both ends
    of the window, so it is not constant in N.

    ``a`` holds the validated ``alpha_0 .. alpha_{n + max_shift}``;
    ``route`` is :func:`site_route` of the weight, built once and reused
    for every n.  Sites are evaluated ``SITE_BLOCK`` at a time by
    :func:`phi_sites`, so working memory is bounded by the block and the
    number of terms, not by n.
    """
    program = route.program
    a_conj = np.conj(a[:n + program.max_shift + 1])
    total = 0.0
    for start in range(0, n, SITE_BLOCK):
        stop = min(start + SITE_BLOCK, n)
        site = np.zeros(stop - start, dtype=complex)
        for pref, acc in zip(route.prefs, phi_sites(program, a, a_conj, start, stop)):
            site += pref * acc
        mod2 = np.abs(a[start:stop]) ** 2
        power_part = sum(mod2 ** k / k for k in range(1, len(route.prefs) + 1))
        total += float(np.sum(site.real - np.log1p(-mod2) - power_part))
    return total


# -- degree-2 product identity ---------------------------------------------------------


@dataclass
class ProductCheckResult:
    degree: int
    points: int
    passed: bool
    diff_terms: int


def h_at_pair_monomial(h: TrigPoly, table: VarTable) -> LaurentPoly:
    """``H(x1 * y1^2)``, the weight evaluated at ``a_{1,1} b_{1,1}``."""
    out = table.zero()
    for l in range(-h.degree, h.degree + 1):
        coeff = h.coeffs[l].embed(table)
        if coeff.is_zero:
            continue
        out = out + coeff * table.pair_monomial([l], [2 * l])
    return out


def critical_product(h: TrigPoly, table: VarTable) -> LaurentPoly:
    """``2^{-d} prod_j (y1 - z_j)^{m_j} (x1 - 1/z_j)^{m_j}``.

    The image of this polynomial under phi at site n is exactly
    ``2^{-d} |(prod_j (S - conj(z_j))^{m_j} alpha)_n|^2``, which ties the
    degree-2 class to the shifted-difference summability condition.
    """
    out = table.const(Fraction(1, 2 ** h.degree))
    x1, y1 = table.var("x1"), table.var("y1")
    for z, m in zip(h.unit_polys, h.points.multiplicities):
        zp = z.embed(table)
        out = out * (y1 - zp) ** m * (x1 - zp.inverse()) ** m
    return out


def degree2_product_check(h: TrigPoly) -> ProductCheckResult:
    """Quotient equality of ``H(x1 y1^2)`` with the critical product."""
    table = table_for(1, h)
    lhs = h_at_pair_monomial(h, table).normal_form()
    rhs = critical_product(h, table).normal_form()
    diff = lhs - rhs
    return ProductCheckResult(h.degree, h.points.count, diff.is_zero,
                              len(diff.terms))


def product_representative(h: TrigPoly) -> LaurentPoly:
    """The critical product divided by ``Z_H``: the k = 1 witness with full
    contact order 2d at the critical point."""
    table = table_for(1, h)
    z_h = h.coeffs[0].embed(table)
    return exact_div(critical_product(h, table), z_h)


# -- Taylor contact degree and representative search ------------------------------------


def l_degree(p: LaurentPoly, d: int, z_name: str = "z1") -> int:
    """Minimum capped Taylor degree at the critical point.

    Expands p around ``(x_p, y_p) = (1/z, z)`` and returns ``min_terms
    sum_p (beta_p ^ d + gamma_p ^ d)`` where ``^`` caps at d.  Requires
    nonnegative pair exponents.  Zero polynomial returns 0.
    """
    table = p.table
    if table.pair_count == 0:
        raise ModelError("contact degree needs pair variables")
    if not in_polynomial_ring(p):
        raise ModelError("contact degree needs nonnegative pair exponents")
    if p.is_zero:
        return 0
    pairs = [(name, kind) for name, kind in zip(table.names, table.kinds) if kind in ("x", "y")]
    shifts = tuple("d" + name for name, _ in pairs)
    ext = VarTable(table.names + shifts, table.kinds + ("a",) * len(shifts))
    z = ext.var(z_name)
    bindings = {name: ext.var(shift) + (z.inverse() if kind == "x" else z)
                for (name, kind), shift in zip(pairs, shifts)}
    expanded = substitute(p.embed(ext), bindings)
    shift_slots = range(table.arity, ext.arity)
    return min(sum(min(e[s], d) for s in shift_slots) for e in expanded.terms)


def representative_search(p: LaurentPoly, k: int, d: int, budget: int = 3,
                          extra_candidates: Sequence[LaurentPoly] = ()) -> tuple:
    """Best-effort search for a high-contact representative of p's class.

    Greedy hill-climb over per-monomial shifts by ``(prod x_i y_i)^t`` for
    ``t in [-budget, budget]`` (canonical monomial order, ties to smaller
    |t|), maximizing :func:`l_degree`.  Extra candidates whose class
    matches are used as additional seeds; this is how the exact k = 1
    product witness enters.  Returns ``(representative, contact_degree)``
    and never changes the quotient class.
    """
    table = p.table
    pair_slots = table.pair_slots()
    target = p.normal_form()

    def score(poly: LaurentPoly) -> int:
        return l_degree(poly, d)

    seeds = [p if in_polynomial_ring(p) else target]
    for cand in extra_candidates:
        if in_polynomial_ring(cand) and cand.normal_form() == target:
            seeds.append(cand)

    shifts = sorted(range(-budget, budget + 1), key=lambda t: (abs(t), t))
    best_poly = None
    best_score = -1
    for seed in seeds:
        current = seed
        current_score = score(current)
        improved = True
        while improved:
            improved = False
            for e, c in current.sorted_terms():
                if e not in current.terms:
                    continue
                single = LaurentPoly(table, {e: current.terms[e]})
                base = current - single
                best_shift = None  # (score, |t|, t, candidate); ties to smaller |t|
                for t in shifts:
                    if t == 0:
                        continue
                    shifted_exp = list(e)
                    for i in pair_slots:
                        shifted_exp[i] += t
                    if any(x < 0 for x in shifted_exp):
                        continue
                    cand = base + LaurentPoly(table, {tuple(shifted_exp): current.terms[e]})
                    cand_score = score(cand)
                    if cand_score > current_score and (
                            best_shift is None or cand_score > best_shift[0]):
                        best_shift = (cand_score, abs(t), t, cand)
                if best_shift is not None:
                    current, current_score = best_shift[3], best_shift[0]
                    improved = True
        if current_score > best_score:
            best_poly, best_score = current, current_score

    if best_poly.normal_form() != target:
        raise ModelError("search changed the quotient class")
    return best_poly, best_score
