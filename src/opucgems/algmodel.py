"""The quotient-ring model for sum-rule coefficient polynomials.

Everything lives in the Laurent ring over pair variables ``x1, y1, ...,
xk, yk`` modulo the relation ``x1*y1*...*xk*yk = 1`` (normal forms), with
unit symbols ``z_j`` standing for the critical points ``e^{i theta_j}``.

The degree-2k part ``G_2k`` of the sum-rule trace functional is built two
independent ways and compared as normal forms:

* the trace route, from the index-tuple expansion of ``Tr(U_N^l)``: each
  index tuple is the exponent tuple of its monomial,
* the Hall-Littlewood route, from the double sum over the monomials
  ``a_{k,p}`` and ``b_{k,q}``, evaluated by complete homogeneous symmetric
  sums (the hom route).

Both are linear in the weight's coefficients h_l, so a route's part for the
power t^l depends only on (k, l), not on the weight or its degree:
:func:`weight_free_part` builds each part once per process, over the pair
variables alone.  The two routes agree on a weight exactly when their parts
agree at each l with h_l != 0 (:func:`parts_agree`), so no check lifts a
part.  The double sum's own form, nested divided differences, differs from
the homogeneous sums only by the classical identity for divided differences
of powers, which :func:`dd_premise` checks once per (k, n) over unit
symbols; no command forms a divided-difference part.  ``_weighted`` alone
lifts the parts into a weight's table and multiplies them by the exact h_l.
The site route compiles each site part, the hom part's construction times
a monomial (:func:`_pair_part`), once into window sums (:func:`_site_rows`)
and weights those by numeric h_l, for l >= 0 alone: H is real, and the -l
part is the l part with alpha and its conjugate swapped, so the -l parts add
the conjugate of the l parts.  Terms that are translates of one product
share a shift class, so :func:`phi_sums` sums a run of sites from each
class's product, formed once over the run, and two sums of the class's
coefficients.

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
from itertools import repeat
from operator import add, itemgetter
from typing import Iterator, Sequence

import numpy as np

from .laurent import (
    GR_ONE,
    GaussianRational,
    LaurentPoly,
    VarTable,
    _accumulate,
    _poly,
    _scalar_triple,
    _triple,
    divided_diff,
    exact_div,  # no caller here; perfbench/tracer.py rebinds this name
    substitute,  # no caller here; perfbench/tracer.py rebinds this name
)
from .opuc import SITE_ELEMENTS
from .trig import TrigPoly

# guards for the symbolic trace expansion: k*l and the window size.  verify's
# trace cases, pinned by their stdout, stop at k*l = 18; past it the walk-sum
# dynamic program takes about 0.04 s at (k, l) = (4, 8), 0.2 s at (6, 8),
# 0.7-1.2 s at (5, 10), 2.2-3.5 s at (6, 10) and 7 s at (8, 10) on a 2-core host
MAX_TRACE_COMPLEXITY = 18
MAX_TRACE_WINDOW = 80
# least sites per block, in units of PhiProgram.lead: each block also
# computes lead columns past its last site, and a block holds more than
# SITE_ELEMENTS entries where EDGE_SHARE * lead sites need more (14.5 * 2^15
# at d = 8)
EDGE_SHARE = 8
# largest weight degree a study compiles a site route for: on a 2-core host
# the first K = 1 compile of a process, parts and rows included, takes about
# 0.7 s at d = 8 and 4.2 s at d = 9
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
    """Complete homogeneous symmetric polynomials ``[h_0, ..., h_degree]`` of
    the points, which are monomials.

    The rows start as the powers of the first point, ``h_m(p_1) = p_1^m``:
    for ``p_1 = c * x^e`` that is ``c^m * x^{m e}``, one exponent sum per row
    (and a coefficient product unless c = 1), no polynomial product.  Then one
    pass over the other points of ``h_m(p_1..p_j) = h_m(p_1..p_{j-1}) + p_j
    * h_{m-1}(p_1..p_j)``.  Only ``[h_0] = [1]`` for negative degree.
    """
    first, *rest = points
    ((e, c),) = first.terms.items()
    rows, power, coeff = [first.table.one()], e, c
    for _ in range(degree):
        rows.append(_poly(first.table, {power: coeff}))
        power = tuple(map(add, power, e))
        coeff = coeff if c == GR_ONE else coeff * c
    for point in rest:
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


@dataclass(frozen=True, eq=False)
class PhiProgram:
    """Polynomials compiled for phi as window sums over one table of pair factors.

    ``shifts[i] = (b, g)`` is the pair factor ``alpha_{n+b} *
    conj(alpha_{n+g})``.  Polynomial q has shift classes, the products
    ``M_c(n) = prod_p factor[classes[q][c, p]](n)``, and is a sum of
    translates ``M_c(n + o)``, its terms.  :func:`phi_sums` reads it through
    two sums of their coefficients: ``weights[q][c]`` sums those of class c,
    and ``edges[q][c, t]`` those of its terms at an offset o above t, for t
    below ``lead``.  ``max_shift`` is the largest b or g of any term, its
    offset included.
    """

    shifts: tuple
    classes: tuple
    weights: tuple
    edges: tuple
    max_shift: int

    def scaled(self, class_scales: Sequence[np.ndarray]) -> PhiProgram:
        """The program with the weights and edges of class c of polynomial q
        multiplied by ``class_scales[q][c]``."""
        return PhiProgram(
            self.shifts, self.classes,
            tuple(s * w for s, w in zip(class_scales, self.weights)),
            tuple(s[:, None] * e for s, e in zip(class_scales, self.edges)),
            self.max_shift)

    @property
    def lead(self) -> int:
        """The largest offset of any term: the columns a block computes past its sites."""
        return max(edges.shape[1] for edges in self.edges)

    @property
    def block(self) -> int:
        """Sites per block in :func:`site_functional`.

        A block holds at least ``EDGE_SHARE * lead`` sites, so that the
        ``lead`` columns it computes past its sites stay a small share of its
        work.  Beyond that, its widest intermediates, the pair factors and
        one polynomial's class products, hold at most ``SITE_ELEMENTS``
        entries each: wide blocks for a small program, where numpy's
        per-call cost dominates, narrow ones for a large program.  A block
        holds at least one site.
        """
        widest = max(len(self.shifts), *map(len, self.classes))
        return max(1, EDGE_SHARE * self.lead, SITE_ELEMENTS // widest - self.lead)


def phi_sums(program: PhiProgram, a: np.ndarray, width: int) -> list:
    """Per compiled polynomial, the sum of its phi over sites ``0 .. width-1``.

    Column t of the block is site t.  A term at offset o sums its class
    product over the columns ``o .. o + width - 1``: the first width
    columns, less the o leading ones, plus the o columns after them.
    So a polynomial's sum is its class sums over the first width columns
    times the class weights, plus the edges times the trailing columns less
    the leading ones.  Each class product is formed once, over ``width +
    lead`` columns, with each pair factor one slice product over all of
    them.  The class sums are pairwise sums over the columns, and no BLAS
    call is made: a threaded one can stall on a busy host.

    ``a`` holds the coefficients from site 0 on, at least ``width + lead +
    max_shift`` of them.  Those from ``width + max_shift`` on meet only zero
    weights, so they may be zero padding.

    A :func:`site_route` program holds each polynomial's l >= 0 parts alone,
    so only the real part of its sum is the polynomial's sum; the imaginary
    part is the odd share that the left-out -l parts cancel.
    """
    span = width + program.lead
    a_conj = np.conj(a)
    factors = np.empty((len(program.shifts), span), dtype=complex)
    for row, (beta, gamma) in zip(factors, program.shifts):
        np.multiply(a[beta:beta + span], a_conj[gamma:gamma + span], out=row)
    sums = []
    for classes, weights, edges in zip(program.classes, program.weights, program.edges):
        prod = factors[classes[:, 0]]
        for column in classes.T[1:]:
            prod *= factors[column]
        lead = edges.shape[1]
        edge = prod[:, width:width + lead] - prod[:, :lead]
        sums.append((weights * prod[:, :width].sum(axis=1)).sum() + (edges * edge).sum())
    return sums


# -- symbolic trace expansion --------------------------------------------------------


def trace_table(n_sym: int) -> VarTable:
    names = [f"al{m}" for m in range(n_sym)] + [f"ac{m}" for m in range(n_sym)]
    return VarTable(0, plain=tuple(names))


def trace_symbolic(l: int, n_sym: int) -> LaurentPoly:
    """``Tr(U_N^l)`` as an exact polynomial in symbols al_m, ac_m.

    Uses the squared-rho variant of the truncation, whose entries are
    polynomial (``-al_{k-1} ac_l`` above the diagonal, ``1 - al_m ac_m``
    on the subdiagonal); it has the same traces of powers as the GGT
    corner itself.  Computed by the walk-sum dynamic program of
    :func:`_walk_sums`, one start row at a time.
    """
    if l < 1 or n_sym < 1:
        raise ModelError("power and window must be positive")
    if n_sym > MAX_TRACE_WINDOW:
        raise ModelError("symbolic window exceeds the configured guard")
    return _closed_walks(l, n_sym, range(n_sym))


def _closed_walks(l: int, n_sym: int, starts) -> LaurentPoly:
    """Sum of the closed Hessenberg walks of length l from each start row,
    as a polynomial over ``trace_table(n_sym)``: :func:`_walk_sums` unpacked.
    """
    bits = l.bit_length()
    terms = {_unpack(e, n_sym, bits): _triple(c, 0, 1)
             for e, c in _walk_sums(l, n_sym, starts).items()}
    return _poly(trace_table(n_sym), terms)


def _walk_sums(l: int, n_sym: int, starts, degree: int | None = None) -> dict:
    """``{packed exponent: int coefficient}`` of the closed Hessenberg walks
    of length l from each start row, summed by a transfer-matrix dynamic
    program rather than walk by walk.

    The state after s steps maps (row, degree) to the packed sum of the
    walks' first s entry products ending there.  Every entry term is a
    monomial with coefficient +-1: the subdiagonal entry ``1 - al_c ac_c``,
    row 0's ``ac_c`` and every other ``-al_{r-1} ac_c``.  A step adds one
    packed monomial per term, so the sums stay exact in Python ints.  Only
    rows from which the start can still be reached are kept (a walk falls at
    most one row per step), and with ``degree`` set, only states at or below
    it (degrees never fall); the result is then that homogeneous part.

    Packing: symbol al_m has field 2m and ac_m field 2m + 1, each ``bits =
    l.bit_length()`` wide.  A walk takes at most one al and one ac per step,
    so no exponent exceeds l < 2^bits and sums of walk monomials never carry
    from one field into the next.
    """
    bits = l.bit_length()
    entries: dict = {}

    def entry(row: int, col: int) -> tuple:
        """``(packed monomial, sign, degree)`` per term of ``U[row, col]``."""
        key = (row, col)
        cached = entries.get(key)
        if cached is None:
            ac = 1 << (2 * col + 1) * bits
            if col == row - 1:
                cached = ((0, 1, 0), (ac | 1 << 2 * col * bits, -1, 2))
            elif row == 0:
                cached = ((ac, 1, 1),)
            else:
                cached = ((ac | 1 << 2 * (row - 1) * bits, -1, 2),)
            entries[key] = cached
        return cached

    out: dict = {}
    for start in starts:
        states = {(start, 0): {0: 1}}
        for remaining in range(l, 0, -1):
            hi = min(n_sym - 1, start + remaining - 1)
            stepped: dict = {}
            for (row, deg), sums in states.items():
                # the last step must land on the start row
                lo = max(row - 1, 0) if remaining > 1 else start
                for col in range(lo, hi + 1):
                    for mono, sign, rise in entry(row, col):
                        if degree is not None and deg + rise > degree:
                            continue
                        target = stepped.setdefault((col, deg + rise), {})
                        get = target.get
                        for e, c in sums.items():
                            e += mono
                            target[e] = get(e, 0) + sign * c
            states = stepped
        for (_, deg), sums in states.items():
            if degree is None or deg == degree:
                for e, c in sums.items():
                    out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _unpack(e: int, n_sym: int, bits: int) -> tuple:
    """Exponent tuple over ``trace_table(n_sym)`` of a packed monomial."""
    mask = (1 << bits) - 1
    fields = [e >> f * bits & mask for f in range(2 * n_sym)]
    return tuple(fields[0::2] + fields[1::2])


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
    Both sides stay packed as :func:`_walk_sums` packs them: a site is one
    (al, ac) field pair, so the lowest set bit gives a monomial's least
    index and the highest its span.  Only a mismatch is unpacked.
    """
    if k * l > MAX_TRACE_COMPLEXITY:
        raise ModelError("k*l exceeds the configured symbolic-trace guard")
    n = 2 * l
    # a tuple has k of each kind, so its fields need max(k, l) < 2^bits; the
    # walk side uses l < 2^bits and is empty when k > l (its degree is <= 2l)
    bits = max(k, l).bit_length()
    site = 2 * bits

    def orbit_sums(terms) -> dict:
        """Sums per orbit, each monomial shifted to least al/ac index 0."""
        out: dict = {}
        for e, c in terms:
            e >>= ((e & -e).bit_length() - 1) // site * site
            out[e] = out.get(e, 0) + c
        return out

    def packed(tup):  # i_p indexes al, j_p indexes ac
        return sum(1 << (2 * (idx + l - 1) + slot % 2) * bits for slot, idx in enumerate(tup))

    sums = orbit_sums(_walk_sums(l, n, (l,), 2 * k).items())
    actual = {e: c for e, c in sums.items() if c}
    counts = orbit_sums((packed(tup), 1) for tup in tuples)
    # an orbit of index span s has 3l + 1 - s copies in [2l, 5l]
    copies = sum(3 * l + 1 - (e.bit_length() - 1) // site for e in actual)
    result = TraceExpansionResult(k, l, copies, len(actual))
    wrong = []
    for e in set(actual) | set(counts):
        got, want = GaussianRational(actual.get(e, 0)), weight * counts.get(e, 0)
        if got != want:
            wrong.append((_unpack(e, n, bits), got, want))
    names = trace_table(n).names
    for vec, got, want in sorted(wrong, key=itemgetter(0)):
        mono = "*".join(f"{names[i]}^{x}" for i, x in enumerate(vec) if x)
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
    h_l term's: the lift needs no embedding.  The sign scales each h_l term,
    not the sum.

    A part's terms are grouped by coefficient (:func:`_by_coefficient`), and
    each (group, h_l term) pair forms its one product ``cp * (ch * sign)``,
    shared by the group's lifted terms; the exponent tuples are concatenated
    and the terms stored at C speed.  Every trace and hom part up to k = 5,
    |l| = 8 has the one coefficient 1, so a lift of those makes one product
    per h_l term.

    No two lifted terms collide: a part's y-degree minus x-degree is l, and
    appending h_l's distinct unit exponents is injective.  So the terms go
    into the table unmerged, and a count that falls short of the terms made
    raises instead of letting one overwrite another.
    """
    table = table_for(k, h)
    out: dict = {}
    made = 0
    for l, coeff in h.coeffs.items():
        if coeff.is_zero:
            continue
        p = part(l)
        if p is not None:
            weight = [(eh, ch * sign) for eh, ch in coeff.terms.items()]
            for cp, exps in _by_coefficient(p.terms):
                for eh, ch in weight:
                    out.update(zip(map(add, exps, repeat(eh)), repeat(cp * ch)))
            made += len(p.terms) * len(weight)
    if len(out) != made:
        raise ModelError(f"lifted terms collided for k={k}")
    return _poly(table, out)


def _by_coefficient(terms: dict) -> list:
    """``(coefficient, exponent tuples)`` per distinct coefficient of ``terms``,
    keyed on the integer triple, not on the scalar's hash, which builds
    Fractions.  One coefficient shared by all terms, the common case, is
    found at C speed."""
    triples = list(map(_scalar_triple, terms.values()))
    if triples and triples.count(triples[0]) == len(triples):
        return [(next(iter(terms.values())), terms.keys())]
    groups: dict = {}
    for e, t in zip(terms, triples):
        groups.setdefault(t, []).append(e)
    return [(_triple(*t), exps) for t, exps in groups.items()]


# -- weight-free parts ------------------------------------------------------------


PART_ROUTES = ("trace", "hom")


@cache
def weight_free_part(route: str, k: int, l: int) -> LaurentPoly | None:
    """One route's part for the power t^l over ``VarTable(k)``; None when it is zero.

    Every route is linear in the weight's coefficients h_l, so the part that
    h_l multiplies depends only on (k, l): it is built once per process and
    shared by every weight and degree.  The cache keeps every part the
    process asks for, so callers bound (k, l) (``cli.MAX_PART_TERMS``).
    It holds the two routes :func:`parts_agree` compares, in normal form:

    * ``"trace"``: the index-tuple sum S_l^+ for l >= k and S_{-l}^- for
      l <= -k (:func:`_trace_part`);
    * ``"hom"``: ``h_l(a) * prod(b) * h_{l-k}(b)`` for l >= k and
      ``h_{-l}(c) * prod(d) * h_{-l-k}(d)`` for l <= -k (:func:`_pair_part`).

    Both parts are zero for ``0 < |l| < k`` (and at l = 0).  The
    divided-difference products (:func:`_dd_product`) and the site parts
    (:func:`_site_part`) are not kept: :func:`dd_premise` stands in for the
    first, and the site route caches the window sums of the second.
    """
    if route not in PART_ROUTES:
        raise ModelError(f"unknown route {route!r}")
    if k < 1:
        raise ModelError("k must be positive")
    table = VarTable(k)
    if abs(l) < k:
        return None
    build = _trace_part(k, l, table) if route == "trace" else _pair_part(k, l, table, table.one())
    return build.normal_form()


def _site_part(k: int, l: int) -> LaurentPoly | None:
    """The site part for t^l over ``VarTable(k)``; None when it is zero.

    The ``"hom"`` part of :func:`weight_free_part` before its normal form,
    times ``U = (prod x_i y_i)^{2k}`` (:func:`_pair_part` with scale U), and
    ``(-1)^{k+1} U`` at l = 0: no exponent is negative, as :func:`site_poly`
    and :func:`_site_rows` need.  Built afresh on each call: the rows cache
    their window sums, so a study keeps those, not the larger polynomial.
    """
    table = VarTable(k)
    unit = table.pair_monomial([2 * k] * k, [2 * k] * k)
    if l == 0:
        return unit * _sign(k)
    if abs(l) < k:
        return None
    return _pair_part(k, l, table, unit)


def _trace_part(k: int, l: int, table: VarTable) -> LaurentPoly:
    """S_l^+ for l > 0 and S_{-l}^- for l < 0 over ``table = VarTable(k)``,
    whose slots run ``x1, y1, ..., xk, yk``: each index tuple of
    :func:`enum_d` is the exponent tuple of ``prod_p x_p^{i_p} y_p^{j_p}``,
    and rotated by one slot that of ``prod_p y_{p-1}^{i_p} x_p^{j_p}`` with
    ``y_0 := y_k``.  Distinct tuples give distinct monomials, each with
    coefficient 1."""
    tuples = enum_d(k, abs(l))
    return _poly(table, dict.fromkeys(tuples if l > 0 else (t[1:] + t[:1] for t in tuples),
                                      GR_ONE))


def _pair_part(k: int, l: int, table: VarTable, scale: LaurentPoly) -> LaurentPoly:
    """``scale * h_l(a) * prod(b) * h_{l-k}(b)`` for l >= k and ``scale *
    h_{-l}(c) * prod(d) * h_{-l-k}(d)`` for l <= -k, by complete homogeneous
    sums; ``scale`` is a monomial.  The c points have no negative exponent
    and equal e but for ``c_1 = e_1 * prod x_i y_i``: the normal form is e's."""
    pts, tail = ((a_monomials(table, k), b_monomials(table, k)) if l > 0
                 else (c_monomials(table, k), d_monomials(table, k)))
    m = abs(l)
    return hom_sums(pts, m)[m] * math.prod(tail, start=scale) * hom_sums(tail, m - k)[m - k]


def _dd_product(k: int, l: int) -> LaurentPoly | None:
    """``D(a)(t^{l+k-1}) * prod b * D(b)(t^{l-1})`` over ``VarTable(k)``, as
    formed (no normal form), or None where it is zero: for ``1 <= |l| < k``,
    where one factor is the divided difference of a power in 0..k-2.  The
    divided differences run over the k points ``a_1..a_k`` and ``b_1..b_k``.
    """
    table = VarTable(k)
    b_pts = b_monomials(table, k)
    out = (divided_diff(a_monomials(table, k), l + k - 1)
           * math.prod(b_pts, start=table.one()) * divided_diff(b_pts, l - 1))
    return None if out.is_zero else out


# -- the G_2k builders ----------------------------------------------------------------


def g2k_trace_scaled(k: int, h: TrigPoly) -> LaurentPoly:
    """Trace-route ``k * Z_H * G_2k`` in normal form.

    ``(-1)^{k+1} * sum_{l=1}^{d} [h_l * S_l^+ + h_{-l} * S_l^-]`` over the
    ``"trace"`` parts of :func:`weight_free_part`.  Zero when k exceeds the
    weight degree.  h_l has no pair exponent, so a weighted sum of normal
    forms (and a constant added to it) is again in normal form.
    """
    return _weighted(partial(weight_free_part, "trace", k), k, h, _sign(k))


def g2k_hl_scaled_dd(k: int, h: TrigPoly) -> LaurentPoly:
    """Divided-difference route for ``k * Z_H * G'_2k`` in normal form.

    The products of :func:`_dd_product`, built afresh and kept by no cache,
    lifted as formed and taken to normal form once.  At l = 0 the product is
    the constant ``(-1)^{k+1}``, which the sign makes 1 and ``- Z_H``
    cancels.
    """
    out = _weighted(partial(_dd_product, k), k, h, _sign(k)).normal_form()
    return out - h.coeffs[0].embed(out.table)


def g2k_hl_scaled_hom(k: int, h: TrigPoly) -> LaurentPoly:
    """Complete-homogeneous route for ``k * Z_H * G'_2k`` in normal form.

    Per degree l: the positive part is ``h_l(a) * prod(b) * h_{l-k}(b)``
    and the negative part ``h_l(c) * prod(d) * h_{l-k}(d)``; the constant
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


def parts_agree(k: int, h: TrigPoly) -> bool:
    """True when the trace and hom routes give one ``k * Z_H * G_2k`` for h:
    their cached parts agree at each l with h_l != 0.  The lift is
    linear and injective (parts of different l lift to disjoint terms), so
    this is the lifted sums' equality, and nothing is lifted.
    """
    def net(route: str, l: int) -> dict:
        part = weight_free_part(route, k, l)
        return {} if part is None else part.terms

    return all(net("trace", l) == net("hom", l)
               for l, coeff in h.coeffs.items() if not coeff.is_zero)


def hl_routes_agree(k: int, h: TrigPoly) -> bool:
    """True when the double sum's divided-difference form equals its
    homogeneous-sum form (the ``"hom"`` parts) at each l with h_l != 0.

    The dd form's part for t^l is ``D(a)(t^{l+k-1}) * prod(b) *
    D(b)(t^{l-1})``, so it is the hom part exactly where :func:`dd_premise`
    holds at n = l + k - 1 and n = l - 1:

    * for l >= k both factors are ``(-1)^{k-1}`` times h_l(a) and h_{l-k}(b);
    * for ``1 <= |l| < k`` one factor is zero, as is the hom part;
    * at l = 0 the product is ``(-1)^{k-1} prod(b) / prod(b)``, the constant
      that cancels ``- Z_H``;
    * for l <= -k the factors are h_{-l-k}(1/a) / prod(a) and h_{-l}(1/b) /
      prod(b), and the e and d points stand for them through the basis
      relation, which :func:`basis_relation_check` checks factor by factor.
      The hom part reads c, and c equals e modulo ``prod x_i y_i = 1``, so
      the relation, stated with e, still underwrites it.

    This reads the premise at each n once and the basis relation not at all:
    ``verify`` checks that as a case of its own, for every k it has a routes
    case for, in about 1 ms at k = 4 and 3 ms at k = 7 on a 2-core host.
    """
    powers = [l for l, coeff in h.coeffs.items() if not coeff.is_zero]
    return all(dd_premise(k, n) for n in {n for l in powers for n in (l + k - 1, l - 1)})


def g2k_routes_check(k: int, h: TrigPoly) -> RouteCheckResult:
    """Equivalence check between the constructions of G_2k.

    Compares the scaled (by ``k * Z_H``) sums, which is comparing the
    polynomials in a ring without zero divisors.  ``routes_equal``: the two
    Hall-Littlewood evaluations, nested divided differences and complete
    homogeneous sums, agree (:func:`hl_routes_agree`, with the basis
    relation of k).  ``trace_equals_hl``: the trace and hom parts agree,
    power by power (:func:`parts_agree`).  A generic weight of degree d has
    every h_l with |l| <= d nonzero, so its check covers every weight of
    degree <= d.
    """
    return RouteCheckResult(hl_routes_agree(k, h), parts_agree(k, h))


def build_g2k_hl(k: int, h: TrigPoly) -> LaurentPoly:
    """Normal form of G'_2k built by both Hall-Littlewood routes.

    The routes give ``k * Z_H * G'_2k``, and the result is that times the
    scalar ``1 / (k * Z_H)``.  That needs Z_H = h_0 to be a constant, as it is
    for one critical point or for exact quarter angles; otherwise G'_2k has
    coefficients that are rational functions of the unit symbols, and a
    :class:`ModelError` says so before either route runs.  The two routes
    are compared through the premise of each power (:func:`hl_routes_agree`),
    the hom parts with the trace parts power by power (:func:`parts_agree`),
    and the hom parts alone lifted, with ``(-1)^{k+1} / (k * Z_H)`` for the
    sign; a failed premise or part comparison (or a NonDivisible from the
    divided-difference recursion) is an identity failure, not a recoverable
    condition.
    """
    z_h = h.coeffs[0]
    if z_h != h.table.const(z_h.constant_value()):
        raise ModelError("Z_H = h_0 is not a constant, so G'_2k is not a Laurent polynomial")
    if not (hl_routes_agree(k, h) and parts_agree(k, h)):
        raise ModelError(f"route disagreement for k={k}, d={h.degree}")
    scale = _sign(k) / (k * z_h.constant_value())
    return _weighted(partial(weight_free_part, "hom", k), k, h, scale)


def _factors(points: Sequence[LaurentPoly], i: int, flipped: bool = False) -> list:
    """The factors ``1 - p_s/p_i`` (s != i, in order) of index i's
    denominator, or ``p_i/p_s - 1`` when ``flipped``."""
    one = points[0].table.one()
    p = points[i]
    p_inv = p.inverse()
    return [p * q.inverse() - one if flipped else one - q * p_inv
            for s, q in enumerate(points) if s != i]


def basis_relation_check(k: int) -> bool:
    """Monomial identities tying the negative-degree basis to (a, b).

    For all p, q in [k]: ``d_p * e_{q+1} * a_p * b_q = (prod x_i y_i)^2``
    and the denominator products match:
    ``A_p * B_q = E_q * D_p`` with ``A_p = prod_{s!=p}(1 - a_s/a_p)``,
    ``B_q = prod_{t!=q}(b_q/b_t - 1)``, ``E_q = prod_{t!=q}(1 -
    e_{t+1}/e_{q+1})``, ``D_p = prod_{s!=p}(d_p/d_s - 1)`` and ``e_{k+1} =
    e_1``.

    The monomial identity reads ``(a_p d_p) * (b_q e_{q+1}) = (prod x_i
    y_i)^2`` over monomials, which are units, so 2k - 1 pairs settle all k^2:
    every (p, 1) and every (1, q).  It says that ``a_p * d_p`` does not depend
    on p and ``b_q * e_{q+1}`` does not depend on q.  Hence ``a_s/a_p =
    d_p/d_s``, and each factor ``1 - a_s/a_p`` of A_p is ``-(d_p/d_s - 1)``,
    the factor of D_p at the same s; likewise ``b_q/b_t = e_{t+1}/e_{q+1}``,
    and each factor ``b_q/b_t - 1`` of B_q is ``-(1 - e_{t+1}/e_{q+1})``, the
    factor of E_q at the same t.  So ``A_p = (-1)^{k-1} D_p`` and ``B_q =
    (-1)^{k-1} E_q``, and ``A_p * B_q = E_q * D_p`` for every (p, q).  The
    check compares those 2k(k - 1) binomial pairs exactly, ``f == -g``, and
    expands no product (``A_p * B_q`` has 4^{k-1} terms).  It also asks every
    f to be nonzero: a zero factor is a zero denominator of the
    Hall-Littlewood sum, which an equation between products reads as 0 = 0.
    """
    table = VarTable(k)
    a = a_monomials(table, k)
    b = b_monomials(table, k)
    d_m = d_monomials(table, k)
    e = e_monomials(table, k)
    e_next = e[1:] + e[:1]
    unit2 = table.pair_monomial([2] * k, [2] * k)
    pairs = [(p, 0) for p in range(k)] + [(0, q) for q in range(1, k)]
    if not all(d_m[p] * e_next[q] * a[p] * b[q] == unit2 for p, q in pairs):
        return False
    factor_pairs = [pair for p in range(k)
                    for pair in zip(_factors(a, p), _factors(d_m, p, flipped=True))]
    factor_pairs += [pair for q in range(k)
                     for pair in zip(_factors(b, q, flipped=True), _factors(e_next, q))]
    return all(not f.is_zero and f == -g for f, g in factor_pairs)


# -- the constant identity ---------------------------------------------------------


def _unit_points(k: int) -> tuple:
    """``(table, [t_1, ..., t_k])``: k unit symbols over their own table."""
    names = tuple(f"t{i}" for i in range(1, k + 1))
    table = VarTable(0, units=names)
    return table, [table.var(name) for name in names]


@cache
def dd_premise(k: int, n: int) -> bool:
    """The classical identity for the divided difference of one power over
    the k unit symbols of :func:`_unit_points`, with D signed as
    :func:`divided_diff` signs it, ``D(t^n) = sum_i t_i^n / prod_{j!=i}(t_j -
    t_i)``:

    * ``D(t^n) = (-1)^{k-1} h_{n-k+1}(t)`` for n >= 0, zero for n <= k-2;
    * ``D(t^n) = h_{-n-1}(1/t) / prod t`` for n < 0.

    Any k distinct monomials, the a and b points among them, may stand for
    the symbols, so the identity holds over them too.  Cached per (k, n).
    """
    if k < 1:
        raise ModelError("k must be positive")
    table, pts = _unit_points(k)
    if n >= 0:
        m, points, scale = n - k + 1, pts, _sign(k)
    else:
        points = [p.inverse() for p in pts]
        m, scale = -n - 1, math.prod(points, start=table.one())
    want = hom_sums(points, m)[m] * scale if m >= 0 else table.zero()
    return divided_diff(pts, n) == want


def constant_partial_sums(k: int) -> tuple:
    """The two scalar factors of the double-sum constant identity.

    ``sum_p 1 / prod_{s != p} (1 - t_s/t_p)`` equals 1 and ``sum_p 1 /
    prod_{s != p} (t_p/t_s - 1)`` equals ``(-1)^{k+1}``; both are computed
    through exact divided differences of ``x^{k-1}`` and ``1/x``.
    """
    table, pts = _unit_points(k)
    sign = _sign(k)

    a_poly = divided_diff(pts, k - 1) * sign
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
    (-1)^{k+1}``, times ``(prod x_i y_i)^{2k}``: the weighted parts of
    :func:`_site_part`, the ``"hom"`` parts as built times that monomial.
    The result lies in the plain polynomial ring; a negative exponent would
    mean a broken identity and raises.  :func:`site_route` weights the same
    parts numerically.
    """
    if k > h.degree:
        raise ModelError("k cannot exceed the weight degree")
    out = _weighted(partial(_site_part, k), k, h)
    if not in_polynomial_ring(out):
        raise ModelError("site polynomial has a negative exponent")
    return out


@cache
def _site_rows(k: int, l: int) -> tuple | None:
    """The site part of (k, l) compiled for phi as window sums; None when it is zero.

    ``(classes, weights, edges, reach)``.  phi sends a term with the pairs
    ``(b_p, g_p)`` to ``prod_p alpha_{n+b_p} * prod_p conj(alpha_{n+g_p})``,
    which depends only on the b's and the g's each up to order, so terms
    whose sorted b's and sorted g's agree merge into one row with an integer
    count; a row that merges to zero is dropped.  A row's offset is its
    least b or g, and less that offset, its sorted b's paired with its
    sorted g's are its class: phi of the row at site n is phi of its class
    at site n + offset.  ``classes`` is an int array of shape (C, k, 2),
    sorted.  The rows go no further: :func:`phi_sums` reads only their
    counts summed per class, ``weights[c]``, and summed over class c's rows
    at an offset above t, ``edges[c, t]`` for t below the part's largest
    offset, both int64.  ``reach`` is the part's largest exponent.  Cached
    per process like :func:`weight_free_part`, on plain integers, and
    read-only.  A negative pair exponent raises :class:`ModelError`: phi is
    undefined there.
    """
    part = _site_part(k, l)
    if part is None:
        return None
    for e, c in part.terms.items():
        if min(e) < 0:
            raise ModelError("phi needs nonnegative pair exponents")
        if c.d != 1 or c.b:
            raise ModelError("a site part has a non-integer coefficient")
    rows = _accumulate({}, ((tuple(sorted(e[0::2])) + tuple(sorted(e[1::2])), c.a)
                            for e, c in part.terms.items()))
    exps = np.array(list(rows), dtype=np.intp).reshape(len(rows), 2 * k)
    offsets = exps.min(axis=1)
    classes, row_class = np.unique(exps - offsets[:, None], axis=0, return_inverse=True)
    lead = int(offsets.max())
    # column lead - o sums the rows at offset o, and the running sum those above
    above = np.zeros((len(classes), lead + 1), dtype=np.int64)
    np.add.at(above, (row_class.reshape(-1), lead - offsets),
              np.array(list(rows.values()), dtype=np.int64))
    above.cumsum(axis=1, out=above)
    out = (np.ascontiguousarray(classes.reshape(-1, 2, k).transpose(0, 2, 1)),
           above[:, lead].copy(), np.ascontiguousarray(above[:, :lead][:, ::-1]))
    for array in out:
        array.flags.writeable = False  # shared by every caller
    return *out, int(exps.max())


@cache
def _site_layout(powers: tuple) -> tuple:
    """The weight-free part of :func:`site_route`: ``(program, parts)``.

    Polynomial k, at position k - 1, stacks the cached :func:`_site_rows` of
    the powers l in ``powers[k - 1]``: their classes, their integer weights
    and their edges, each part's edges padded with zero columns up to the
    polynomial's largest offset; ``max_shift`` is the largest part reach.
    A part's y-degree minus x-degree is l, and a translate keeps it, so
    classes of different l never coincide and need no merge.
    ``parts[k - 1][c]`` is the position in ``powers[k - 1]`` of the power
    that class c comes from.  One ``np.unique`` over every (b, g) pair of
    the classes gives the shift table and the slots.  Cached per process,
    on plain integers; weights whose nonzero h_l sit at the same powers
    share it, as every weight of a degree with no zero h_l does.
    :func:`site_route` asks it for the powers l >= 0 alone, so no -l part's
    rows are built.
    """
    classes, weights, edges, parts = [], [], [], []
    max_shift = 0
    for k, ls in enumerate(powers, 1):
        kept = [(i, *rows) for i, l in enumerate(ls) if (rows := _site_rows(k, l)) is not None]
        index, part_classes, part_weights, part_edges, reach = zip(*kept)
        lead = max(e.shape[1] for e in part_edges)
        classes.append(np.concatenate(part_classes))
        weights.append(np.concatenate(part_weights))
        edges.append(np.concatenate([np.pad(e, ((0, 0), (0, lead - e.shape[1])))
                                     for e in part_edges]))
        parts.append(np.repeat(index, [len(c) for c in part_classes]))
        max_shift = max(max_shift, *reach)
    flat = np.concatenate([c.reshape(-1, 2) for c in classes])
    width = int(flat.max()) + 1
    codes, inverse = np.unique(flat[:, 0] * width + flat[:, 1], return_inverse=True)
    beta, gamma = np.divmod(codes, width)
    ends = np.cumsum([len(c) * c.shape[1] for c in classes])
    slots = [s.reshape(c.shape[:2]) for s, c in zip(np.split(inverse, ends[:-1]), classes)]
    program = PhiProgram(tuple(zip(beta.tolist(), gamma.tolist())), tuple(slots),
                         tuple(weights), tuple(edges), max_shift)
    return program, tuple(parts)


def site_route(h: TrigPoly) -> PhiProgram:
    """``pref_k * site_poly(k, h)`` for k = 1..d, compiled for :func:`site_functional`
    from the powers l >= 0 alone: phi of a compiled polynomial has the real
    part of phi of the exact one, which is real.

    Polynomial k, at position k - 1, holds the window sums of the powers l
    = 0, k, k+1, ..., d, leaving out each l whose exact h_l is zero, as the
    exact sum does: the cached :func:`_site_layout` of those powers, with
    the l = 0 part's weights and edges scaled by ``pref_k * h_0`` and each
    other part's by ``2 * pref_k * h_l``, the numeric h_l of
    ``h.numeric_coeffs`` and ``pref_k = (-1)^{k+1} / (k Z_H)``.

    The -l part is the l part with alpha and its conjugate swapped: its rows
    are the l part's with b and g swapped, with the same counts.  H is real,
    so ``h_{-l} = conj(h_l)``, and phi of the weighted -l part is the
    conjugate of phi of the weighted l part; the two add up to twice its
    real part.  The l = 0 part, a sign times ``U``, is real under phi.  The
    exact ``site_poly(k, h)`` holds every power and would carry each h_l's
    unit symbols into every term; the real parts of phi of the two agree to
    rounding.
    """
    h_num = {l: c for l, c in h.numeric_coeffs.items() if not h.coeffs[l].is_zero}
    powers = tuple(tuple(l for l in [0, *range(k, h.degree + 1)] if l in h_num)
                   for k in range(1, h.degree + 1))
    layout, parts = _site_layout(powers)
    scales = [np.array([h_num[l] * (2 if l else 1) for l in ls])
              * ((-1) ** (k + 1) / (k * h_num[0].real))
              for k, ls in enumerate(powers, 1)]
    return layout.scaled([s[p] for s, p in zip(scales, parts)])


def site_functional(a: np.ndarray, n: int, route: PhiProgram) -> float:
    """Per-site reformulation of the sum-rule functional.

    ``sum_{j<n} [ sum_k pref_k * phi_2k(site_poly(k)) - log(1-|a_j|^2)
    - sum_k |a_j|^{2k}/k ]`` with ``pref_k = (-1)^{k+1} / (k Z_H)``; the
    k-sum runs to the weight degree.  Differs from the trace functional
    by a bounded amount that depends only on coefficients near both ends
    of the window, so it is not constant in N.

    ``a`` holds the validated coefficients from the first site on, at
    least ``n + max_shift`` of them; ``route`` is :func:`site_route` of
    the weight, built once and reused for every n.  Its polynomials carry
    their pref_k, so the k-sum over a block of sites is the real part of
    the sum of its :func:`phi_sums` values (the route holds the powers l >=
    0 alone, and the real part is the whole sum's).  Site j reads only
    ``a_j .. a_{j + max_shift}``, so its term does not depend on n, and
    ``site_functional(head[m:], n - m, route)`` is the share of sites m ..
    n-1 in the value at n: a study adds these segments up instead of
    starting again from site 0.  Sites are evaluated ``route.block`` at a
    time, so working memory is bounded by the block, not by n.
    """
    if len(a) < n + route.max_shift:
        raise ModelError("the site route reads max_shift coefficients past the last site")
    block = route.block
    reach = route.lead + route.max_shift
    total = 0.0
    for start in range(0, n, block):
        stop = min(start + block, n)
        # the block reads reach coefficients past its last site; those past
        # n + max_shift meet only zero weights, so zeros stand in for them
        window = np.zeros(stop - start + reach, dtype=complex)
        seg = a[start:min(stop + reach, n + route.max_shift)]
        window[:len(seg)] = seg
        site = sum(phi_sums(route, window, stop - start))
        mod2 = np.abs(a[start:stop]) ** 2
        power_part = sum(mod2 ** k / k for k in range(1, len(route.classes) + 1))
        total += float(site.real - np.sum(np.log1p(-mod2) + power_part))
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
