"""Reference code that more than one test file uses.

* :func:`sum_rule_functional`, the trace route of a study at one N, as a
  composition of the package's calls.
* The contact-degree cluster behind acceptance 9: the double-sum part of
  G'_2k, the k = 1 product witness, the capped Taylor degree at the
  critical point and a greedy search for a high-contact representative.
"""

from opucgems.algmodel import (
    ModelError,
    critical_product,
    hl_double_sum,
    in_polynomial_ring,
    table_for,
)
from opucgems.laurent import LaurentPoly, VarTable, exact_div, substitute
from opucgems.opuc import ggt_matrix, log_term, trace_v


def sum_rule_functional(head, n, h):
    """``Tr(V(U_N)) - sum_{j<N} log(1 - |alpha_j|^2)`` over ``head[:n]``."""
    return trace_v(ggt_matrix(head, n), h) - log_term(head[:n])


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
