"""Reference code that more than one test file uses.

* :func:`sum_rule_functional`, the trace route of a study at one N, as a
  composition of the package's calls.
* The term-by-term phi compiler: :func:`phi_terms` and :func:`phi_program`
  compile any polynomial, unit symbols and all, and :func:`site_parts`
  gives the weighted site parts that ``site_route`` compiles from cached
  window sums instead.  :func:`program_rows` reads any compiled program's
  rows back from its window sums, and :func:`phi_sites` evaluates them
  site by site and row by row, the oracle for ``phi_sums``.
* :func:`linear_factor_weight`, the weight's coefficients from its 2d
  linear factors, the oracle for ``build_h``'s binomial rows.
* :func:`scalar_text` and :func:`poly_text`, the text form written term by
  term through :class:`Fraction`, the oracle for ``to_text``.
* :func:`routes_by_lifts`, the G_2k route check as whole lifted sums, the
  oracle for ``g2k_routes_check``, which compares parts power by power.
* The contact-degree cluster behind acceptance 9: the Hall-Littlewood
  double sum and its part of G'_2k, the k = 1 product witness, the capped
  Taylor degree at the critical point and a greedy search for a
  high-contact representative.
"""

from fractions import Fraction
from functools import partial

import numpy as np

from opucgems.algmodel import (
    ModelError,
    PhiProgram,
    RouteCheckResult,
    _dd_product,
    _site_part,
    _weighted,
    critical_product,
    g2k_hl_scaled_dd,
    g2k_hl_scaled_hom,
    g2k_trace_scaled,
    in_polynomial_ring,
    table_for,
)
from opucgems.laurent import LaurentPoly, VarTable, exact_div, substitute
from opucgems.opuc import log_term, trace_v
from opucgems.trig import _convolve, build_h


def sum_rule_functional(head, n, h):
    """``Tr(V(U_N)) - sum_{j<N} log(1 - |alpha_j|^2)`` over ``head[:n]``."""
    return trace_v(head, h, 0, n) - log_term(head[:n])


def linear_factor_weight(points, mode):
    """``{l: h_l}`` for l in -d..d by convolving the 2d exact linear factors
    ``1 - cos(theta - theta_j) = (x - z_j)(1/x - 1/z_j) / 2``, over the table
    and units of ``build_h(points, mode)``."""
    h = build_h(points, mode)
    table = h.table
    half = table.const(Fraction(1, 2))
    coeffs = {0: table.one()}
    for z, m in zip(h.unit_polys, points.multiplicities):
        z_inv = z.inverse()
        for _ in range(m):
            coeffs = _convolve(coeffs, {1: half, 0: -half * z})
            coeffs = _convolve(coeffs, {-1: table.one(), 0: -z_inv})
    return {l: coeffs.get(l, table.zero()) for l in range(-h.degree, h.degree + 1)}


def scalar_text(a, b, d):
    """The text of the scalar ``(a + b*i) / d``, each part through a Fraction."""
    sign = "+" if b >= 0 else "-"
    return f"{Fraction(a, d)}{sign}{abs(Fraction(b, d))}*i"


def poly_text(poly):
    """``poly.to_text()`` with every term's coefficient written afresh."""
    if poly.is_zero:
        return "0"
    chunks = []
    for e, c in poly.sorted_terms():
        mono = "*".join(f"{name}^{exp}" for name, exp in zip(poly.table.names, e) if exp)
        chunks.append(f"({scalar_text(c.a, c.b, c.d)})*{mono or '1'}")
    return " + ".join(chunks)


def phi_terms(poly, unit_values):
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


def phi_program(polys, unit_values):
    """Compile polynomials with :func:`phi_terms` into one :class:`PhiProgram`.

    Each entry is a nonempty sequence of ``(weight, part)`` pairs standing
    for ``sum weight * part``, the parts :class:`LaurentPoly` over one table
    and the weights complex numbers.  phi sends terms whose pair
    exponents ``(b_p, g_p)`` have the same b's and the same g's, each up to
    order, to the same product, so their rows merge into one, with the
    sorted b's paired with the sorted g's and the coefficients summed.
    Every row is its own class, at offset 0: no translation is shared, so
    the weights are the row coefficients and the edges have no column.
    """
    index = {}
    coeffs = []
    classes = []
    for entry in polys:
        rows = {}
        for weight, part in entry:
            for c, exps in phi_terms(part, unit_values):
                exps = tuple(zip(sorted(b for b, _ in exps), sorted(g for _, g in exps)))
                rows[exps] = rows.get(exps, 0) + weight * c
        pairs = entry[0][1].table.pairs
        coeffs.append(np.array(list(rows.values()), dtype=complex))
        classes.append(np.array(
            [[index.setdefault(pair, len(index)) for pair in exps] for exps in rows],
            dtype=np.intp).reshape(len(rows), pairs))
    max_shift = max((max(pair) for pair in index), default=0)
    return PhiProgram(tuple(index), tuple(classes), tuple(coeffs),
                      tuple(np.zeros((len(c), 0), dtype=complex) for c in coeffs), max_shift)


def program_rows(program):
    """Per polynomial, ``{pair factors: coefficient}`` over its rows, read
    back from the window sums.

    The rows of class c at offset o sum to ``edges[c, o - 1] - edges[c,
    o]``, with ``weights[c]`` for o = 0 and zero past the last column; a
    row's pair factors are its class's pairs moved by o.  This is exact:
    no two rows share a class and an offset, and equal integer sums scale
    to equal floats, so a zero difference is no row.  Asserts that no two
    rows of a polynomial share their pair factors.
    """
    out = []
    for classes, weights, edges in zip(program.classes, program.weights, program.edges,
                                       strict=True):
        above = np.column_stack([weights, edges])
        coeffs = above - np.column_stack([edges, np.zeros(len(weights))])
        rows = {tuple((program.shifts[i][0] + o, program.shifts[i][1] + o)
                      for i in classes[c]): coeffs[c, o]
                for c, o in zip(*(axis.tolist() for axis in np.nonzero(coeffs)))}
        assert len(rows) == np.count_nonzero(coeffs)
        out.append(rows)
    return out


def phi_sites(program, a, a_conj, start, stop):
    """phi of each compiled polynomial at each site ``start .. stop-1``.

    A scalar loop over the rows of :func:`program_rows` and their pair
    factors: a row at site j multiplies its coefficient by ``a[j + b] *
    a_conj[j + g]`` for each of its pair factors ``(b, g)``.  ``a`` and
    ``a_conj`` hold at least ``stop + max_shift`` coefficients from site 0
    on.
    """
    values = []
    for rows in program_rows(program):
        out = np.zeros(stop - start, dtype=complex)
        for factors, coeff in rows.items():
            prod = np.full(stop - start, coeff, dtype=complex)
            for beta, gamma in factors:
                prod *= a[start + beta:stop + beta] * a_conj[start + gamma:stop + gamma]
            out += prod
        values.append(out)
    return values


def site_parts(k, h):
    """``pref_k * site_poly(k, h)`` as ``(weight, part)`` pairs: the site
    parts over the pair variables alone, l = 0, k, -k, ..., d, -d, weighted by
    the numeric ``pref_k * h_l`` with ``pref_k = (-1)^{k+1} / (k Z_H)``.  Parts
    whose exact h_l is zero are left out, as they are from the exact sum.
    ``phi_program([site_parts(k, h) for k in 1..d], {})`` is the site route
    compiled term by term."""
    pref = (-1) ** (k + 1) / (k * h.numeric_coeffs[0].real)
    powers = [0] + [s * l for l in range(k, h.degree + 1) for s in (1, -1)]
    return [(pref * h.numeric_coeffs[l], _site_part(k, l))
            for l in powers if not h.coeffs[l].is_zero]


def hl_double_sum(k, h):
    """The Hall-Littlewood double sum, by divided differences of powers.

    ``sum_{p,q} H(a_p b_q) / (prod_{s!=p}(1 - a_s/a_p) prod_{t!=q}(b_q/b_t
    - 1))``.  Since ``H(t x) = sum_l h_l t^l x^l`` the sum is linear in the
    coefficients h_l, and each power separates into a divided difference
    over the a points times one over the b points:
    ``prod b_t * sum_l h_l * D(a_1..a_k)(t^{l+k-1}) * D(b_1..b_k)(t^{l-1})``,
    the weighted sum of the products ``_dd_product`` forms (no normal
    form).  The term of l is zero for ``1 <= |l| < k``, where one factor is
    the divided difference of a power in 0..k-2.  Any division failure in
    the recursion signals a broken identity.
    """
    return _weighted(partial(_dd_product, k), k, h)


def routes_by_lifts(k, h):
    """``g2k_routes_check(k, h)`` by three lifts: each route's whole
    ``k * Z_H * G_2k`` for h through its per-weight builder, and the normal
    forms compared term by term, dd with hom and trace with dd."""
    dd = g2k_hl_scaled_dd(k, h)
    hom = g2k_hl_scaled_hom(k, h)
    tr = g2k_trace_scaled(k, h)
    return RouteCheckResult(dd == hom, tr == dd)


def hl_part(k, h):
    """The Hall-Littlewood double-sum part of G'_2k, without the -1/k term.

    This is the piece whose class admits high-contact representatives at
    the critical point; the constant -1/k is class-invariant and is
    handled by the logarithm expansion instead.
    """
    scaled = (hl_double_sum(k, h) * (-1) ** (k + 1)).normal_form()
    return exact_div(scaled, h.coeffs[0].embed(scaled.table) * k)


def product_representative(h):
    """The critical product divided by ``Z_H``: the k = 1 witness with full
    contact order 2d at the critical point."""
    table = table_for(1, h)
    return exact_div(critical_product(h, table), h.coeffs[0].embed(table))


def l_degree(p, d, z_name="z1"):
    """Minimum capped Taylor degree at the critical point.

    Expands p around ``(x_p, y_p) = (1/z, z)`` and returns ``min_terms
    sum_p (beta_p ^ d + gamma_p ^ d)`` where ``^`` caps at d.  Requires
    nonnegative pair exponents.  Zero polynomial returns 0.
    """
    if not in_polynomial_ring(p):
        raise ModelError("contact degree needs nonnegative pair exponents")
    if p.is_zero:
        return 0
    table = p.table
    pairs = table.names[:2 * table.pairs]  # x1, y1, ..., xk, yk
    shifts = tuple("d" + name for name in pairs)
    ext = VarTable(table.pairs, table.units, table.plain + shifts)
    z = ext.var(z_name)
    bindings = {name: ext.var(shift) + (z if i % 2 else z.inverse())
                for i, (name, shift) in enumerate(zip(pairs, shifts))}
    expanded = substitute(p.embed(ext), bindings)
    shift_slots = range(table.arity, ext.arity)
    return min(sum(min(e[s], d) for s in shift_slots) for e in expanded.terms)


def representative_search(p, d, budget=3, extra_candidates=()):
    """Best-effort search for a high-contact representative of p's class.

    Greedy hill-climb over per-monomial shifts by ``(prod x_i y_i)^t`` for
    ``0 < |t| <= budget`` (canonical monomial order; of equal gains, the
    smaller |t| wins), maximizing :func:`l_degree`.  Extra candidates whose
    class matches are used as additional seeds; this is how the exact k = 1
    product witness enters.  Returns ``(representative, contact_degree)``
    and never changes the quotient class.
    """
    table = p.table
    pair_slots = range(2 * table.pairs)
    target = p.normal_form()
    seeds = [p if in_polynomial_ring(p) else target]
    seeds += [c for c in extra_candidates if in_polynomial_ring(c) and c.normal_form() == target]
    shifts = sorted((t for t in range(-budget, budget + 1) if t), key=lambda t: (abs(t), t))
    best_poly, best_score = None, -1
    for current in seeds:
        current_score = l_degree(current, d)
        improved = True
        while improved:
            improved = False
            for e, _ in current.sorted_terms():
                if e not in current.terms:
                    continue
                coeff = current.terms[e]
                base = current - LaurentPoly(table, {e: coeff})
                best = None  # (score, candidate) of the first shift with the largest gain
                for t in shifts:
                    shifted = list(e)
                    for i in pair_slots:
                        shifted[i] += t
                    if any(x < 0 for x in shifted):
                        continue
                    cand = base + LaurentPoly(table, {tuple(shifted): coeff})
                    score = l_degree(cand, d)
                    if score > current_score and (best is None or score > best[0]):
                        best = (score, cand)
                if best is not None:
                    current_score, current = best
                    improved = True
        if current_score > best_score:
            best_poly, best_score = current, current_score
    if best_poly.normal_form() != target:
        raise ModelError("search changed the quotient class")
    return best_poly, best_score
