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

The trace route never forms the N x N matrix.  :func:`ggt_matrix` returns
a :class:`GGTCorner` that stores only the coefficients and the rho's and
produces one diagonal on demand.  The corner is upper Hessenberg: ``U[i,
j] = 0`` unless ``j >= i - 1``, so along a product ``U[i_0, i_1] U[i_1,
i_2] ...`` each step lowers the index by at most one.  A closed walk of
length l therefore never raises the index by more than l - 1 in one
step, and ``Tr(U^l)`` reads only diagonals -1 .. l-1 of U.  For the same
reason, when only the traces of U^l for l <= d are wanted, ``U^m`` is
needed only on offsets [-m, d-m]: it has nothing below -m, and an entry
above d - m cannot be brought back to the diagonal by the at most d - m
factors still to come.  :func:`trace_powers` keeps exactly those offsets,
so it is exact, not an approximation, and costs O(N * d^3) time and
O(N * d) memory instead of O(d * N^3) and O(N^2).  This is the
closed-walk structure that ``algmodel.diagonal_entry`` enumerates.  The
dense N x N fill lives in the tests, as the oracle of this route.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .trig import TrigPoly

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
    """The N x N truncated GGT matrix in O(N) generator form.

    Holds ``a = (alpha_{-1} = -1, alpha_0, ..., alpha_{N-1})`` and ``rho_0
    .. rho_{N-1}``; entries are produced one diagonal at a time.
    """

    def __init__(self, a: np.ndarray, rho: np.ndarray):
        self.a = a
        self.rho = rho
        self.shape = (rho.size, rho.size)

    def diagonal(self, j: int) -> np.ndarray:
        """``U[k, k+j]`` in numpy's ``diagonal(j)`` order, in O(N * j) time.

        Row k of diagonal ``j >= 0`` is ``-alpha_{k-1} conj(alpha_{k+j})
        rho_k ... rho_{k+j-1}``; the rho products are running products,
        never quotients of cumulative products, since a rho can be tiny.
        """
        n = self.shape[0]
        if j == -1:
            return self.rho[:n - 1].astype(complex)
        if j < -1 or j >= n:
            return np.zeros(max(n - abs(j), 0), dtype=complex)
        prods = np.ones(n - j)
        for i in range(j):
            prods *= self.rho[i:n - j + i]
        return -self.a[:n - j] * np.conj(self.a[1 + j:]) * prods


def ggt_matrix(head: np.ndarray, n: int) -> GGTCorner:
    """The N x N top-left GGT corner of ``head[:n]``, in generator form."""
    if n < 1:
        raise OpucError("matrix size must be at least 1")
    a = np.empty(n + 1, dtype=complex)
    a[0] = -1.0
    a[1:] = head[:n]
    return GGTCorner(a, np.sqrt(1.0 - np.abs(a[1:]) ** 2))


def _row_aligned(diag: np.ndarray, j: int, n: int) -> np.ndarray:
    """Diagonal j as a length-n array indexed by row, zero where absent."""
    out = np.zeros(n, dtype=complex)
    start = max(-j, 0)
    out[start:start + diag.size] = diag
    return out


def _band_product(a: dict, b: dict, lo: int, hi: int, n: int) -> dict:
    """Diagonals lo..hi of ``A @ B`` from row-aligned diagonals of A and B.

    ``C[k, k+j] = sum_p A[k, k+p] * B[k+p, k+j]``; a diagonal missing from
    ``a`` or ``b`` is zero.
    """
    out = {}
    for j in range(max(lo, 1 - n), min(hi, n - 1) + 1):
        acc = np.zeros(n, dtype=complex)
        for p, ap in a.items():
            bq = b.get(j - p)
            if bq is None:
                continue
            if p >= 0:
                acc[:n - p] += ap[:n - p] * bq[p:]
            else:
                acc[-p:] += ap[-p:] * bq[:n + p]
        out[j] = acc
    return out


def trace_powers(u: GGTCorner | np.ndarray, max_power: int) -> list:
    """Traces of u^1 .. u^max_power for an upper Hessenberg u, from its band.

    ``u`` is anything with ``shape`` and numpy's ``diagonal(j)``: a
    :class:`GGTCorner` or a dense ndarray.  Only diagonals -1 .. max_power-1
    are read, and u^m is kept on offsets [-m, max_power-m]; that is exact
    (see the module docstring).  O(N * max_power^3) time, O(N * max_power)
    memory.
    """
    n = u.shape[0]
    band = {j: _row_aligned(u.diagonal(j), j, n)
            for j in range(-1, min(max_power, n))}
    power = band
    traces = []
    for m in range(1, max_power + 1):
        traces.append(complex(np.sum(power[0])))
        if m < max_power:
            power = _band_product(power, band, -m - 1, max_power - m - 1, n)
    return traces


def trace_v(u: GGTCorner | np.ndarray, h: TrigPoly) -> float:
    """``Tr(V(U))`` with negative powers read through the adjoint.

    Equals ``-(2 / Z_H) * Re sum_{l=1}^{d} (h_l / l) Tr(U^l)`` because
    ``h_{-l} = conj(h_l)`` pairs each power with its adjoint.
    """
    d = h.degree
    if d >= u.shape[0]:
        raise OpucError("weight degree must be smaller than the matrix size")
    z_h = h.z_h_numeric()
    traces = trace_powers(u, d)
    acc = 0.0 + 0.0j
    for l in range(1, d + 1):
        acc += h.coeff_numeric(l) / l * traces[l - 1]
    return float(-(2.0 / z_h) * acc.real)


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
