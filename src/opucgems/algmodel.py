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

Both are linear in the weight's coefficients h_l, so a route's part for the
power t^l depends only on (k, l), not on the weight or its degree:
:func:`weight_free_part` builds each part once per process, over the pair
variables alone, and ``_weighted`` alone lifts the parts into a weight's
table and multiplies them by the exact h_l.  The site route weights the
same parts by numeric h_l.

The evaluation map ``phi`` sends ``x_p^b y_p^g`` (per pair) to
``alpha_{n+b} * conj(alpha_{n+g})``; in particular a constant c maps to
``c * |alpha_n|^{2k}``, which is what makes the ``-1/k`` term match the
k-th order of ``-log(1 - |alpha_n|^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from typing import Iterator, Mapping, Sequence

import numpy as np

from .laurent import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    LaurentPoly,
    VarTable,
    _accumulate,
    _poly,
    divided_diff,
    exact_div,
    substitute,  # no caller here; perfbench/tracer.py rebinds this name
)
from .trig import TrigPoly

# guard for the symbolic trace expansion; k*l and window size beyond this
# point produce polynomials too large for desk use
MAX_TRACE_COMPLEXITY = 18
MAX_TRACE_WINDOW = 80
# complex entries in each intermediate array of site_functional: bounds its
# working memory, and fixes its block of sites through PhiProgram.block
SITE_ELEMENTS = 2 ** 15
# largest weight degree a study compiles a site route for: on a 2-core host
# the K = 1 compile takes about 1.4 s at d = 8 and 8.9 s (430 MB) at d = 9
MAX_SITE_DEGREE = 8


class ModelError(Exception):
    pass


# -- tables and basis monomials ---------------------------------------------------


def table_for(k: int, h: TrigPoly) -> VarTable:
    """Pair variables x1..yk plus the unit symbols of a weight.

    Every G_2k builder starts here, so this is where k < 1 is rejected.
    """
    if k < 1:
        raise ModelError("k must be positive")
    return VarTable(k, units=h.table.units)


def in_polynomial_ring(poly: LaurentPoly) -> bool:
    """True when no term of ``poly`` has a negative pair exponent."""
    pairs = 2 * poly.table.pairs
    return all(x >= 0 for e in poly.terms for x in e[:pairs])


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


def phi_terms(poly: LaurentPoly, unit_values: Mapping[str, complex]) -> list:
    """Compile a polynomial for phi: one ``(coeff, ((b_1, g_1), ...))`` per term.

    ``coeff`` is the coefficient times the unit-symbol values and
    ``(b_p, g_p)`` are the exponents of ``x_p`` and ``y_p``.  Raises
    :class:`ModelError` on plain symbols and negative pair exponents.
    """
    units = poly.table.units
    pairs = 2 * poly.table.pairs
    plain = pairs + len(units)
    compiled = []
    for e, c in poly.terms.items():
        value = complex(c)
        for name, exp in zip(units, e[pairs:plain]):
            if exp:
                value *= unit_values[name] ** exp
        if any(e[plain:]):
            raise ModelError("phi is undefined on plain symbols")
        if pairs and min(e[:pairs]) < 0:
            raise ModelError("phi needs nonnegative pair exponents")
        compiled.append((value, tuple(zip(e[0:pairs:2], e[1:pairs:2]))))
    return compiled


@dataclass(frozen=True)
class PhiProgram:
    """Polynomials compiled for phi over one shared table of pair factors.

    ``shifts[i] = (b, g)`` is the pair factor ``alpha_{n+b} *
    conj(alpha_{n+g})``.  Polynomial q is ``sum_t coeffs[q][t] * prod_p
    factor[slots[q][t, p]]``; ``max_shift`` is the largest b or g.  No two
    rows of a polynomial multiply the same pair factors.
    """

    shifts: tuple
    coeffs: tuple
    slots: tuple
    max_shift: int

    @property
    def block(self) -> int:
        """Sites per block in :func:`site_functional`.

        Its widest intermediates, the pair factors and one polynomial's term
        products, then hold at most ``SITE_ELEMENTS`` entries each: wide
        blocks for a small program, where numpy's per-call cost dominates,
        narrow ones for a large program.  A block holds at least one site,
        so a polynomial of more than ``SITE_ELEMENTS`` rows bounds working
        memory by its own row count instead.
        """
        return max(1, SITE_ELEMENTS // max(len(self.shifts), *map(len, self.coeffs)))


def phi_program(polys: Sequence, unit_values: Mapping[str, complex]) -> PhiProgram:
    """Compile polynomials with :func:`phi_terms` into one :class:`PhiProgram`.

    Each entry is a nonempty sequence of ``(weight, part)`` pairs standing
    for ``sum weight * part``, the parts :class:`LaurentPoly` over one table
    and the weights complex numbers.  phi sends terms whose
    pair exponents ``(b_p, g_p)`` are equal up to the order of the pairs
    to the same product of pair factors, so their rows merge into one,
    with the pairs sorted and the coefficients summed.
    """
    index: dict = {}
    coeffs = []
    slots = []
    for entry in polys:
        rows: dict = {}
        for weight, part in entry:
            for c, exps in phi_terms(part, unit_values):
                exps = tuple(sorted(exps))
                rows[exps] = rows.get(exps, 0) + weight * c
        pairs = entry[0][1].table.pairs
        coeffs.append(np.array(list(rows.values()), dtype=complex))
        slots.append(np.array(
            [[index.setdefault(pair, len(index)) for pair in exps] for exps in rows],
            dtype=np.intp).reshape(len(rows), pairs))
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
    return VarTable(0, plain=tuple(names))


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
            acc = _poly(table, {e: c for e, c in acc.terms.items() if sum(e) <= degree})
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
    return _poly(table, out)


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
    ``compared_terms`` counts 3l + 1 - span copies of each, where span is
    the orbit's largest index minus its least."""

    k: int
    l: int
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
    result = TraceExpansionResult(k, l, copies, len(actual))
    names = trace_table(n).names
    for e in sorted(set(actual) | set(predicted)):
        got, want = actual.get(e, GR_ZERO), predicted.get(e, GR_ZERO)
        if got != want:
            mono = "*".join(f"{names[i]}^{x}" for i, x in enumerate(e) if x)
            result.mismatches.append({"monomial": mono, "trace": got.to_text(),
                                      "predicted": want.to_text()})
    return result


# -- the exact weighting -------------------------------------------------------------


def _sign(k: int) -> GaussianRational:
    """The route sign ``(-1)^{k+1}``."""
    return GR_ONE if k % 2 else -GR_ONE


def _weighted(part, k: int, h: TrigPoly, sign=GR_ONE) -> LaurentPoly:
    """``sign * sum_l h_l * part(l)`` over ``table_for(k, h)``: the one place the
    exact weight enters a route.

    ``part(l)`` is a weight-free part over ``VarTable(k)``, or None for a zero
    part; it is not asked for where h_l is zero.  The table lays the pair
    slots first and the unit slots after them, and h_l has only unit slots,
    so a term of the product has the part's exponent tuple followed by the
    h_l term's: the lift needs no embedding.  The sign scales each h_l, which
    has a few terms, not the sum.
    """
    table = table_for(k, h)
    out: dict = {}
    for l, coeff in h.coeffs.items():
        if coeff.is_zero:
            continue
        p = part(l)
        if p is not None:
            weight = [(e, c * sign) for e, c in coeff.terms.items()]
            _accumulate(out, ((ep + eh, cp * ch) for ep, cp in p.terms.items()
                              for eh, ch in weight))
    return _poly(table, out)


# -- weight-free parts ------------------------------------------------------------


PART_ROUTES = ("trace", "hom", "dd", "dd-exact", "site")


@cache
def weight_free_part(route: str, k: int, l: int) -> LaurentPoly | None:
    """One route's part for the power t^l over ``VarTable(k)``; None when it is zero.

    Every route is linear in the weight's coefficients h_l, so the part that
    h_l multiplies depends only on (k, l): it is built once per process and
    shared by every weight and degree.  The cache keeps every part the
    process asks for, so callers bound (k, l) (``cli.MAX_PART_TUPLES``).
    The routes:

    * ``"trace"``: the index-tuple sum S_l^+ for l >= k and S_{-l}^- for
      l <= -k (:func:`_trace_part`), in normal form;
    * ``"hom"``: ``h_l(a) * prod(b) * h_{l-k}(b)`` for l >= k and
      ``h_{-l}(e) * prod(d) * h_{-l-k}(d)`` for l <= -k (:func:`_pair_part`),
      in normal form;
    * ``"dd"``: ``D(a)(t^{l+k-1}) * prod b * D(b)(t^{l-1})``
      (:func:`_dd_product`), in normal form; ``"dd-exact"`` is the same
      product as formed, for :func:`hl_double_sum` (built on its own, so
      the routes check holds only normal forms);
    * ``"site"``: the ``"hom"`` part with the c points for e, times ``U =
      (prod x_i y_i)^{2k}``, and ``(-1)^{k+1} U`` at l = 0: every exponent
      cleared to >= 0, as :func:`site_poly` and :func:`phi_program` need.

    The trace and pair parts are zero for ``0 < |l| < k`` (and at l = 0).
    """
    if route not in PART_ROUTES:
        raise ModelError(f"unknown route {route!r}")
    if k < 1:
        raise ModelError("k must be positive")
    table = VarTable(k)
    if route in ("dd", "dd-exact"):
        exact = _dd_product(k, l, table)
        return exact if exact is None or route == "dd-exact" else exact.normal_form()
    if route == "site":
        unit = table.pair_monomial([2 * k] * k, [2 * k] * k)
        if l == 0:
            return unit * _sign(k)
    if abs(l) < k:
        return None
    if route == "trace":
        return _trace_part(k, l, table).normal_form()
    if route == "hom":
        return _pair_part(k, l, table, e_monomials(table, k), table.one()).normal_form()
    return _pair_part(k, l, table, c_monomials(table, k), unit)


def _trace_part(k: int, l: int, table: VarTable) -> LaurentPoly:
    """S_l^+ for l > 0 and S_{-l}^- for l < 0: the index tuples of
    :func:`enum_d` in their positive or negative monomial form, summed."""
    out: dict = {}
    for tup in enum_d(k, abs(l)):
        if l > 0:  # prod_p x_p^{i_p} y_p^{j_p}
            mono = table.pair_monomial(tup[::2], tup[1::2])
        else:  # prod_p y_{p-1}^{i_p} x_p^{j_p} with y_0 := y_k
            mono = table.pair_monomial(tup[1::2], tup[2::2] + tup[:1])
        _accumulate(out, mono.terms.items())
    return _poly(table, out)


def _pair_part(k: int, l: int, table: VarTable, neg_pts: Sequence[LaurentPoly],
               scale: LaurentPoly) -> LaurentPoly:
    """``scale * h_l(a) * prod(b) * h_{l-k}(b)`` for l >= k and ``scale *
    h_{-l}(neg_pts) * prod(d) * h_{-l-k}(d)`` for l <= -k, by complete
    homogeneous sums.  The negative point set is e (quotient ring) or c
    (cleared exponents), and ``scale`` is a monomial."""
    pts, tail = ((a_monomials(table, k), b_monomials(table, k)) if l > 0
                 else (neg_pts, d_monomials(table, k)))
    m = abs(l)
    return hom_sums(pts, m)[m] * math.prod(tail, start=scale) * hom_sums(tail, m - k)[m - k]


def _dd_product(k: int, l: int, table: VarTable) -> LaurentPoly | None:
    """``D(a)(t^{l+k-1}) * prod b * D(b)(t^{l-1})``, or None where it is zero.

    The divided differences run over the k points ``a_1..a_k`` and
    ``b_1..b_k``, and one of ``t^m`` over k points is zero exactly when
    ``0 <= m <= k-2``.  The factor with the smaller power, ``D(b)(t^{l-1})``
    for l >= 0 and ``D(a)(t^{l+k-1})`` for l < 0, is formed first and is the
    one that can vanish: for ``1 <= l < k`` and for ``1-k <= l < 0``.  Then
    the other factor is never formed; else ``prod b`` goes into the short
    factor before the long product.
    """
    a_pts = a_monomials(table, k)
    b_pts = b_monomials(table, k)
    short, long = (((b_pts, l - 1), (a_pts, l + k - 1)) if l >= 0
                   else ((a_pts, l + k - 1), (b_pts, l - 1)))
    f = divided_diff(*short)
    if f.is_zero:
        return None
    return f * math.prod(b_pts, start=table.one()) * divided_diff(*long)


# -- the G_2k builders ----------------------------------------------------------------


def g2k_trace_scaled(k: int, h: TrigPoly) -> LaurentPoly:
    """Trace-route ``k * Z_H * G_2k`` in normal form.

    ``(-1)^{k+1} * sum_{l=1}^{d} [h_l * S_l^+ + h_{-l} * S_l^-]`` over the
    ``"trace"`` parts of :func:`weight_free_part`.  Zero when k exceeds the
    weight degree.  h_l has no pair exponent, so a weighted sum of normal
    forms (and a constant added to it) is again in normal form.
    """
    return _weighted(partial(weight_free_part, "trace", k), k, h, _sign(k))


def hl_double_sum(k: int, h: TrigPoly) -> LaurentPoly:
    """The Hall-Littlewood double sum, by divided differences of powers.

    ``sum_{p,q} H(a_p b_q) / (prod_{s!=p}(1 - a_s/a_p) prod_{t!=q}(b_q/b_t
    - 1))``.  Since ``H(t x) = sum_l h_l t^l x^l`` the sum is linear in the
    coefficients h_l, and each power separates into a divided difference
    over the a points times one over the b points:
    ``prod b_t * sum_l h_l * D(a_1..a_k)(t^{l+k-1}) * D(b_1..b_k)(t^{l-1})``,
    the weighted sum of the ``"dd-exact"`` parts, as formed (no normal
    form).  The term of l is zero for ``1 <= |l| < k``, where one factor is
    the divided difference of a power in 0..k-2.  Any division failure in
    the recursion signals a broken identity.
    """
    return _weighted(partial(weight_free_part, "dd-exact", k), k, h)


def g2k_hl_scaled_dd(k: int, h: TrigPoly) -> LaurentPoly:
    """Divided-difference route for ``k * Z_H * G'_2k`` in normal form."""
    out = _weighted(partial(weight_free_part, "dd", k), k, h, _sign(k))
    return out - h.coeffs[0].embed(out.table)


def g2k_hl_scaled_hom(k: int, h: TrigPoly) -> LaurentPoly:
    """Complete-homogeneous route for ``k * Z_H * G'_2k`` in normal form.

    Per degree l: the positive part is ``h_l(a) * prod(b) * h_{l-k}(b)``
    and the negative part ``h_l(e) * prod(d) * h_{l-k}(d)``; the constant
    from the l = 0 coefficient cancels the ``- Z_H`` exactly.
    """
    return _weighted(partial(weight_free_part, "hom", k), k, h, _sign(k))


@dataclass
class RouteCheckResult:
    routes_equal: bool
    trace_equals_hl: bool

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
    return RouteCheckResult(dd == hom, tr == dd)


def build_g2k_hl(k: int, h: TrigPoly) -> LaurentPoly:
    """Normal form of G'_2k built by both Hall-Littlewood routes.

    The routes give ``k * Z_H * G'_2k``, and the result divides by the
    monomial ``k * Z_H``.  That needs Z_H = h_0 to be a constant, as it is
    for one critical point or for exact quarter angles; otherwise G'_2k has
    coefficients that are rational functions of the unit symbols, and a
    :class:`ModelError` says so before either route runs.  The two routes
    are compared exactly before returning; a mismatch (or a NonDivisible
    from the divided-difference recursion) is an identity failure, not a
    recoverable condition.
    """
    z_h = h.coeffs[0]
    if z_h != h.table.const(z_h.constant_value()):
        raise ModelError("Z_H = h_0 is not a constant, so G'_2k is not a Laurent polynomial")
    dd = g2k_hl_scaled_dd(k, h)
    hom = g2k_hl_scaled_hom(k, h)
    if dd != hom:
        raise ModelError(f"route disagreement for k={k}, d={h.degree}")
    return exact_div(dd, h.coeffs[0].embed(dd.table) * Fraction(k))


def basis_relation_check(k: int) -> bool:
    """Monomial identities tying the negative-degree basis to (a, b).

    For all p, q in [k]: ``d_p * e_{q+1} * a_p * b_q = (prod x_i y_i)^2``
    and the denominator products match:
    ``prod_{s!=p}(1 - a_s/a_p) * prod_{t!=q}(b_q/b_t - 1)`` equals
    ``prod_{s!=q}(1 - e_{s+1}/e_{q+1}) * prod_{t!=p}(d_p/d_t - 1)``.
    """
    table = VarTable(k)
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
    table = VarTable(0, units=tuple(f"t{i}" for i in range(1, k + 1)))
    pts = [table.var(f"t{i}") for i in range(1, k + 1)]
    sign = _sign(k)

    a_poly = divided_diff(pts, k - 1) * sign
    if not a_poly.is_monomial and not a_poly.is_zero:
        raise ModelError("first constant sum did not collapse to a scalar")

    prod_t = math.prod(pts, start=table.one())
    b_poly = divided_diff(pts, -1) * prod_t * sign
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

    The double sum per degree with the positive-composition rewriting of
    the negative part (monomials c and d), plus the constant ``h_0 *
    (-1)^{k+1}``, times ``(prod x_i y_i)^{2k}``: the weighted ``"site"``
    parts of :func:`weight_free_part`.  The result lies in the plain
    polynomial ring; a negative exponent would mean a broken identity and
    raises.  :func:`site_route` weights the same parts numerically.
    """
    if k > h.degree:
        raise ModelError("k cannot exceed the weight degree")
    out = _weighted(partial(weight_free_part, "site", k), k, h)
    if not in_polynomial_ring(out):
        raise ModelError("site polynomial has a negative exponent")
    return out


def _site_parts(k: int, h: TrigPoly) -> list:
    """``pref_k * site_poly(k, h)`` as ``(weight, part)`` pairs: the ``"site"``
    parts over the pair variables alone, l = 0, k, -k, ..., d, -d, weighted by
    the numeric ``pref_k * h_l`` with ``pref_k = (-1)^{k+1} / (k Z_H)``.  Parts
    whose exact h_l is zero are left out, as they are from the exact sum."""
    pref = (-1) ** (k + 1) / (k * h.z_h_numeric())
    powers = [0] + [s * l for l in range(k, h.degree + 1) for s in (1, -1)]
    return [(pref * h.coeff_numeric(l), weight_free_part("site", k, l))
            for l in powers if not h.coeffs[l].is_zero]


def site_route(h: TrigPoly) -> PhiProgram:
    """``pref_k * site_poly(k, h)`` for k = 1..d, compiled for :func:`site_functional`.

    Polynomial k, at position k - 1, is compiled from :func:`_site_parts`,
    not from the exact ``site_poly(k, h)``, which would carry each h_l's
    unit symbols into every term; phi of the two agrees to rounding.
    """
    return phi_program([_site_parts(k, h) for k in range(1, h.degree + 1)], {})


def site_functional(a: np.ndarray, n: int, route: PhiProgram) -> float:
    """Per-site reformulation of the sum-rule functional.

    ``sum_{j<n} [ sum_k pref_k * phi_2k(site_poly(k)) - log(1-|a_j|^2)
    - sum_k |a_j|^{2k}/k ]`` with ``pref_k = (-1)^{k+1} / (k Z_H)``; the
    k-sum runs to the weight degree.  Differs from the trace functional
    by a bounded amount that depends only on coefficients near both ends
    of the window, so it is not constant in N.

    ``a`` holds the validated coefficients from the first site on, at
    least ``n + max_shift + 1`` of them; ``route`` is :func:`site_route` of
    the weight, built once and reused for every n.  Its polynomials carry
    their pref_k, so a site's k-sum is the sum of its :func:`phi_sites`
    values.  Site j reads only ``a_j .. a_{j + max_shift}``, so its term
    does not depend on n, and ``site_functional(head[m:], n - m, route)``
    is the share of sites m .. n-1 in the value at n: a study adds these
    segments up instead of starting again from site 0.  Sites are
    evaluated ``route.block`` at a time, so working memory is bounded by
    ``SITE_ELEMENTS``, not by n.
    """
    block = route.block
    a_conj = np.conj(a[:n + route.max_shift + 1])
    total = 0.0
    for start in range(0, n, block):
        stop = min(start + block, n)
        site = sum(phi_sites(route, a, a_conj, start, stop))
        mod2 = np.abs(a[start:stop]) ** 2
        power_part = sum(mod2 ** k / k for k in range(1, len(route.coeffs) + 1))
        total += float(np.sum(site.real - np.log1p(-mod2) - power_part))
    return total


# -- degree-2 product identity ---------------------------------------------------------


@dataclass
class ProductCheckResult:
    degree: int
    points: int
    passed: bool


def h_at_pair_monomial(h: TrigPoly) -> LaurentPoly:
    """``H(x1 * y1^2)``, the weight evaluated at ``a_{1,1} b_{1,1}``."""
    pair = VarTable(1)
    return _weighted(lambda l: pair.pair_monomial([l], [2 * l]), 1, h)


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
    lhs = h_at_pair_monomial(h).normal_form()
    rhs = critical_product(h, table).normal_form()
    return ProductCheckResult(h.degree, h.points.count, lhs == rhs)
