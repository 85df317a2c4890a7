"""Verblunsky-sequence numerics: GGT truncations and sum-rule functionals.

A :class:`VerblunskySeq` wraps a vectorised generator from an integer index
array to the coefficients at those indices.  Consumers take coefficients as
one array from :meth:`VerblunskySeq.head`, which evaluates the generator
once and checks |alpha| < 1, and read slices of it; a study calls it once.

The truncated GGT matrix is the N x N top-left corner

    U[k, l] = -alpha_{k-1} * conj(alpha_l) * rho_k * ... * rho_{l-1}   (k <= l)
    U[l+1, l] = rho_l
    U[k, l] = 0                                                        (k >= l+2)

with ``rho_j = sqrt(1 - |alpha_j|^2)`` and the conventions ``alpha_{-1} =
-1``, ``alpha_n = 0`` for n < -1.  Negative powers of the (non-unitary)
truncation are read as powers of the adjoint, which is exact in the
unitary limit and differs only by N-independent boundary terms otherwise.

The trace route never forms the matrix.  Its eigenvalues are the zeros of
Phi_N (Simon, *OPUC* Part 1), so ``Tr(U^l)`` is their l-th power sum,
``-l [w^l] log phi_N`` for the reversed polynomial ``phi_n(w) = w^n
Phi_n(1/w)``.  With ``psi_n(w) = w^n Phi*_n(1/w)`` the Szego recursion
reads ``(phi, psi) <- (phi - conj(alpha_n) w psi, w psi - alpha_n phi)``:
step n multiplies phi by ``1 - conj(alpha_n) w f_n``, where the ratio ``f =
psi / phi`` follows ``f <- (w f - alpha_n) / (1 - conj(alpha_n) w f)``.
Mod ``w^d``, ``f_n`` depends only on ``alpha_{n-d} .. alpha_{n-1}``.  So
``Tr(U^l)`` for l <= d is a sum over sites j < N of local moments ``-l
[w^l] log(1 - conj(alpha_j) w f_j)``, with ``f_j`` run from f = 0 over the
d steps before site j.  The route carries f alone: its coefficients stay
bounded by 1, while phi's and psi's grow like 2^d and take digits with
them.  :func:`trace_powers` sums the moments a block of sites at a time,
in O(d^3) time per site and O(d) memory per site of a block.
:func:`ggt_matrix` keeps the corner's coefficients and rho's, which the
dense fill in the tests reads as the oracle of this route.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .trig import TrigPoly

# complex entries in each intermediate of a block of sites, in both numeric
# routes (a series of rows in trace_powers, an array in
# algmodel.site_functional): bounds their working memory and fixes how many
# sites a block holds
SITE_ELEMENTS = 2 ** 15
# exclusive bound on the quadrature grid: the doubling loop stops here, so
# a starting grid must lie below it for convergence to be checked at all
MAX_GRID = 2 ** 20
# two successive quadrature grids agreeing this closely end the doubling
QUADRATURE_TOL = 1e-10

class OpucError(Exception):
    pass


def _check_modulus(values: np.ndarray) -> np.ndarray:
    """``values``, once every entry is checked to satisfy |alpha| < 1 (NaN fails)."""
    if not np.all(np.abs(values) < 1.0):
        raise OpucError("Verblunsky coefficients must satisfy |alpha| < 1")
    return values


class VerblunskySeq:
    """A coefficient sequence ``alpha_0, alpha_1, ...`` with |alpha_n| < 1.

    ``fn`` is a vectorised generator: it maps an index array (entries >= 0)
    to the complex array of the coefficients there.  :meth:`head` evaluates
    it and checks |alpha| < 1 by :func:`_check_modulus`, which
    :meth:`from_values` applies to its stored values.  ``support`` is the
    length of the nonzero head for finitely supported sequences, or None.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], support: int | None = None):
        self._fn = fn
        self.support = support

    @staticmethod
    def from_values(values: Sequence[complex]) -> "VerblunskySeq":
        """The stored values, validated as they are stored, followed by zeros."""
        vals = _check_modulus(np.asarray(values, dtype=complex))
        padded = np.append(vals, 0.0)
        return VerblunskySeq(lambda n: padded[np.minimum(n, vals.size)], support=vals.size)

    def head(self, n: int) -> np.ndarray:
        """``alpha_0 .. alpha_{n-1}`` as an array, validating |alpha| < 1."""
        out = np.asarray(self._fn(np.arange(n)), dtype=complex)
        if out.shape != (n,):
            raise OpucError("a coefficient generator must return one value per index")
        return _check_modulus(out)


class GGTCorner:
    """The N x N truncated GGT matrix: ``a = (alpha_{-1} = -1, alpha_0, ...,
    alpha_{N-1})`` and ``rho_0 .. rho_{N-1}``, from which its entries follow."""

    def __init__(self, a: np.ndarray, rho: np.ndarray):
        self.a = a
        self.rho = rho
        self.shape = (rho.size, rho.size)


def ggt_matrix(head: np.ndarray, n: int) -> GGTCorner:
    """The N x N top-left GGT corner of ``head[:n]``."""
    if n < 1:
        raise OpucError("matrix size must be at least 1")
    a = np.empty(n + 1, dtype=complex)
    a[0] = -1.0
    a[1:] = head[:n]
    return GGTCorner(a, np.sqrt(1.0 - np.abs(a[1:]) ** 2))


def trace_powers(head: np.ndarray, max_power: int, start: int, stop: int) -> np.ndarray:
    """The share of sites ``start .. stop-1`` in ``Tr(U^1) .. Tr(U^max_power)``.

    ``head`` holds the validated coefficients from site 0 on, at least
    ``stop`` of them; ``U`` is the corner of any size N >= stop, since a
    site's moment does not depend on N.  Site j runs the Mobius step of the
    module docstring over ``alpha_{j-d} .. alpha_{j-1}``, ``d =
    max_power``, with ``alpha_{-1} = -1`` and zeros before it, each step
    one series division that gains one coefficient of f.  Its moments are
    the Newton transform ``p_l = -l q_l - sum_{i<l} q_i p_{l-i}`` of ``q =
    1 - conj(alpha_j) w f``.  A series over a block of sites is a list of
    coefficient rows, one array per power of w; sites go ``SITE_ELEMENTS //
    d`` to a block, so the rows of one series hold at most ``SITE_ELEMENTS``
    entries.
    """
    if len(head) < stop:
        raise OpucError("the trace route needs a coefficient for every site below stop")
    d = max_power
    block = max(1, SITE_ELEMENTS // d)
    traces = np.zeros(d, dtype=complex)
    for lo in range(start, stop, block):
        width = min(block, stop - lo)
        # alpha_{lo-d} .. alpha_{lo+width-1}; step t of site lo + i reads a[i + t]
        if lo >= d:
            a = head[lo - d:lo + width]
        else:
            a = np.zeros(width + d, dtype=complex)
            a[d - lo - 1] = -1.0
            a[d - lo:] = head[:lo + width]
        # the coefficients of -f, one row each: after the step of alpha_{j-d}
        # from f = 0 mod w, then after each later step, which divides
        # (w f - alpha) by (1 - conj(alpha) w f), mod one more power of w
        f = [a[:width]]
        for t in range(1, d):
            alpha = a[t:t + width]
            alpha_conj = np.conj(alpha)
            g = [alpha]
            for k in range(1, t + 1):
                acc = f[0] * g[k - 1]
                for i in range(1, k):
                    acc += f[i] * g[k - 1 - i]
                g.append(f[k - 1] - alpha_conj * acc)
            f = g
        # the site's step multiplies phi by q = 1 - conj(alpha_j) w f
        alpha_conj = np.conj(a[d:])
        q = [alpha_conj * row for row in f]
        p = []
        for l in range(1, d + 1):
            acc = -l * q[l - 1]
            for i in range(1, l):
                acc -= q[i - 1] * p[l - 1 - i]
            p.append(acc)
        traces += [row.sum() for row in p]
    return traces


def trace_v(head: np.ndarray, h: TrigPoly, start: int, stop: int) -> float:
    """The share of sites ``start .. stop-1`` in ``Tr(V(U))``, with negative
    powers read through the adjoint; U and ``head`` as for :func:`trace_powers`.

    Equals ``-(2 / Z_H) * Re sum_{l=1}^{d} (h_l / l) Tr(U^l)`` because
    ``h_{-l} = conj(h_l)`` pairs each power with its adjoint.  Shares add
    up: ``trace_v(head, h, 0, m) + trace_v(head, h, m, n)`` is the value at n.
    """
    d = h.degree
    traces = trace_powers(head, d, start, stop)
    acc = sum(h.coeff_numeric(l) / l * traces[l - 1] for l in range(1, d + 1))
    return float(-(2.0 / h.z_h_numeric()) * acc.real)


def log_term(head: np.ndarray) -> float:
    """``sum_j log(1 - |alpha_j|^2)`` over the validated coefficients ``head``."""
    return float(np.sum(np.log1p(-np.abs(head) ** 2)))


# -- Bernstein-Szego quadrature oracle -------------------------------------------


def szego_pstar_coeffs(values: np.ndarray) -> np.ndarray:
    """Coefficients of the reversed monic polynomial Phi*_{N0}, N0 = len(values).

    Szego recursion: Phi_{n+1} = z Phi_n - conj(alpha_n) Phi*_n and
    Phi*_{n+1} = Phi*_n - alpha_n z Phi_n.  Index i of the result is the
    coefficient of z^i.
    """
    phi = np.zeros(values.size + 1, dtype=complex)
    pstar = np.zeros(values.size + 1, dtype=complex)
    phi[0] = 1.0
    pstar[0] = 1.0
    for a in values:
        shifted = np.roll(phi, 1)
        shifted[0] = 0.0
        phi_next = shifted - np.conj(a) * pstar
        pstar_next = pstar - a * shifted
        phi, pstar = phi_next, pstar_next
    return pstar


def bs_weight_on_grid(values: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Bernstein-Szego weight ``w(theta)`` of the finite sequence ``values``."""
    pstar = szego_pstar_coeffs(values)
    norm = float(np.prod(1.0 - np.abs(values) ** 2))
    z = np.exp(1j * thetas)
    return norm / np.abs(np.polyval(pstar[::-1], z)) ** 2


def bs_weight_quadrature(values: np.ndarray, h: TrigPoly | None,
                         grid_size: int = 4096) -> float:
    """``(1/2pi) \\int H(e^{i theta}) log w(theta) d theta`` by quadrature.

    ``values`` are the coefficients as :meth:`VerblunskySeq.head` returns
    them; every later one is zero.  Uniform trapezoid rule on the periodic
    integrand (the grid mean); the grid doubles until two successive
    results agree within ``QUADRATURE_TOL`` or it reaches ``MAX_GRID``.
    With ``h=None`` the weight H is 1, which recovers the classical Szego
    sum ``sum log(1 - |alpha_n|^2)``.
    """
    if not 2 ** 10 <= grid_size < MAX_GRID:
        raise OpucError(f"grid size must be at least 2^10 and below {MAX_GRID}")

    def integral(m: int) -> float:
        thetas = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        integrand = np.log(bs_weight_on_grid(values, thetas))
        if h is not None:
            integrand = integrand * h.eval_numeric(thetas)
        return float(np.mean(integrand))

    value = integral(grid_size)
    m = grid_size
    while m < MAX_GRID:
        m *= 2
        refined = integral(m)
        if abs(refined - value) < QUADRATURE_TOL:
            return refined
        value = refined
    return value
