"""Exact sparse multivariate Laurent polynomial arithmetic.

Coefficients are Gaussian rationals, held as one canonical integer triple
``(a + b*i) / d`` with ``d > 0`` and ``gcd(a, b, d) == 1``: each operation
is integer arithmetic plus one three-argument gcd, skipped when the
denominator is 1.  A polynomial is a sparse map from integer exponent
vectors to coefficients over a fixed variable table.  Every table lays
its slots out the same way, ``VarTable(pairs, units, plain)``:

* first the paired variables ``x1, y1, ..., xk, yk`` that participate in
  the quotient relation ``x1*y1*...*xk*yk = 1`` and swap under
  conjugation, so ``x_p`` is slot ``2p-2`` and ``y_p`` slot ``2p-1``,
* then unit symbols (``z1``, ...) for points on the unit circle, with
  ``conj(z) = 1/z``,
* then plain symbols with no conjugation rule (formal increments, trace
  symbols, substitution slots).

An operation reads the kind of a slot from its position, by slicing the
exponent tuple at ``2 * pairs`` and at the end of the units.

All values are immutable after construction and every operation is pure,
so polynomials can be shared freely across threads.  :func:`_accumulate`
is the only place the layer merges coefficients (add, then drop a zero
sum); it mutates only dicts the calling operation owns, never the
``terms`` of a constructed polynomial.  A product with a monomial factor
merges nothing: the shift is injective on exponents and a product of
nonzero scalars is nonzero, so it scales and shifts term by term.  The
public constructor drops zero coefficients; the layer's own results,
which never hold one, are built by :func:`_poly` without that copy.

:func:`exact_div` divides by the two divisor shapes the G_2k proof has.
A monomial, such as the scalar ``k * Z_H``, divides by its inverse.  A
binomial ``c1*X^e1 + c2*X^e2``, such as every divisor ``p_{i-j} - p_i`` of a
divided difference over monomial points, maps each line ``e + Z*(e2 - e1)``
of exponents to itself, so the quotient comes from one recurrence along
each line of the dividend: a prefix sum when the ratio ``-c2/c1`` is 1.  A
divisor of three or more terms is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, Mapping, Sequence


class LaurentError(Exception):
    """Base error for the polynomial layer."""


class VarTableMismatch(LaurentError):
    """Operands live over different variable tables."""


class NonDivisible(LaurentError):
    """Exact division failed; usually signals a broken identity."""


class NonInvertibleBinding(LaurentError):
    """A substitution needs the inverse of a non-monomial polynomial."""


class DuplicatePoint(LaurentError):
    """Divided difference received two equal interpolation points."""


class GaussianRational:
    """Exact complex scalar ``(a + b*i) / d`` with integer ``a``, ``b``, ``d``.

    The triple is kept canonical: ``d > 0`` and ``gcd(a, b, d) == 1``, so
    equal values have equal fields.  ``re`` and ``im`` present the parts as
    :class:`Fraction`.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @staticmethod
    def coerce(value) -> "GaussianRational":
        out = GaussianRational._try_coerce(value)
        if out is not None:
            return out
        if isinstance(value, complex):
            raise TypeError("floating-point values cannot enter exact arithmetic")
        raise TypeError(f"cannot coerce {value!r} to a Gaussian rational")

    @staticmethod
    def _try_coerce(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, int):
            return _triple(int(value), 0, 1)
        if isinstance(value, Fraction):
            return _triple(value.numerator, 0, value.denominator)
        return None

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational._try_coerce(other)
            if other is None:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational._try_coerce(other)
            if other is None:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a - other.a, self.b - other.b, d)
        return _reduced(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other):
        other = GaussianRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _triple(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational._try_coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + bi)/d / ((c + ei)/f) = f * (a + bi)(c - ei) / (d * (c^2 + e^2))
        f = other.d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self.d * norm)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def conjugate(self) -> "GaussianRational":
        return _triple(self.a, -self.b, self.d)

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            try:
                other = GaussianRational.coerce(other)
            except TypeError:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        # a real value hashes like the equal Fraction (or int), as == demands
        return hash(self.re) if self.b == 0 else hash((self.re, self.im))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __complex__(self):
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def to_text(self) -> str:
        """Canonical ``a/b+c/d*i`` form used by the text serialization."""
        sign = "+" if self.b >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


_new_scalar = object.__new__


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """Scalar from a triple that is already canonical."""
    out = _new_scalar(GaussianRational)
    out.a, out.b, out.d = a, b, d
    return out


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """Scalar from a triple with ``d > 0``, divided by ``gcd(a, b, d)``."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    out = _new_scalar(GaussianRational)
    out.a, out.b, out.d = a, b, d
    return out


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


@dataclass(frozen=True)
class VarTable:
    """Ordered variable table shared by all polynomials of one context.

    Every table has one layout: the paired variables ``x1, y1, ..., xk,
    yk`` (``k = pairs``) in slots ``0 .. 2k-1``, then the unit symbols, then
    the plain symbols.  Conjugation swaps each ``x_p`` with ``y_p``, negates
    unit exponents, and is undefined on plain symbols.
    """

    pairs: int
    units: tuple = ()
    plain: tuple = ()

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise LaurentError("variable names must be unique")

    @cached_property
    def names(self) -> tuple:
        pair_names = tuple(f"{v}{p}" for p in range(1, self.pairs + 1) for v in "xy")
        return pair_names + self.units + self.plain

    def pair_monomial(self, xs: Sequence[int], ys: Sequence[int]) -> "LaurentPoly":
        """``prod_p x_p^{xs[p-1]} * y_p^{ys[p-1]}``, one exponent per pair."""
        vec = [0] * self.arity
        # an extended slice takes exactly one value per pair, else ValueError
        vec[0:2 * self.pairs:2] = xs
        vec[1:2 * self.pairs:2] = ys
        return _poly(self, {tuple(vec): GR_ONE})

    @property
    def arity(self) -> int:
        return len(self.names)

    def slot(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise LaurentError(f"unknown variable {name!r}") from None

    def zero(self) -> "LaurentPoly":
        return _poly(self, {})

    def one(self) -> "LaurentPoly":
        return self.const(GR_ONE)

    def const(self, value) -> "LaurentPoly":
        value = GaussianRational.coerce(value)
        if not value:
            return self.zero()
        return _poly(self, {(0,) * self.arity: value})

    def var(self, name: str, exp: int = 1) -> "LaurentPoly":
        vec = [0] * self.arity
        vec[self.slot(name)] = exp
        return _poly(self, {tuple(vec): GR_ONE})

    def monomial(self, exponents: Mapping[str, int], coeff=GR_ONE) -> "LaurentPoly":
        coeff = GaussianRational.coerce(coeff)
        if not coeff:
            return self.zero()
        vec = [0] * self.arity
        for name, exp in exponents.items():
            vec[self.slot(name)] = exp
        return _poly(self, {tuple(vec): coeff})

    def contains(self, other: "VarTable") -> bool:
        """True when every variable of ``other`` exists here with equal kind."""
        return (other.pairs <= self.pairs and set(other.units) <= set(self.units)
                and set(other.plain) <= set(self.plain))


class LaurentPoly:
    """Sparse Laurent polynomial over a :class:`VarTable`.

    ``terms`` maps exponent tuples (one signed integer per table slot) to
    nonzero :class:`GaussianRational` coefficients.  Instances are treated
    as immutable; no method mutates ``terms`` after construction.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[tuple, GaussianRational]):
        self.table = table
        self.terms = {e: c for e, c in terms.items() if c}

    # -- basic predicates -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self) -> GaussianRational:
        """Coefficient of the empty monomial (total constant term)."""
        return self.terms.get((0,) * self.table.arity, GR_ZERO)

    def sorted_terms(self) -> list:
        """Terms in canonical order: lexicographic on exponent vectors."""
        return sorted(self.terms.items())

    # -- ring operations ---------------------------------------------------

    def _check_table(self, other: "LaurentPoly"):
        if self.table != other.table:
            raise VarTableMismatch("operands use different variable tables")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            other = self.table.const(other)
        self._check_table(other)
        return _poly(self.table, _accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            other = self.table.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _poly(self.table, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            scalar = GaussianRational.coerce(other)
            if not scalar:
                return self.table.zero()
            return _poly(self.table, {e: c * scalar for e, c in self.terms.items()})
        self._check_table(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            ((ea, ca),) = a.items()
            return _poly(self.table, {tuple(map(add, ea, eb)): ca * cb for eb, cb in b.items()})
        out = _accumulate({}, ((tuple(map(add, ea, eb)), ca * cb)
                               for ea, ca in a.items() for eb, cb in b.items()))
        return _poly(self.table, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("polynomial powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        if self.is_monomial:
            ((e, c),) = self.terms.items()
            return _poly(self.table, {tuple(x * n for x in e): _scalar_pow(c, n)})
        result = self.table.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    def inverse(self) -> "LaurentPoly":
        """Inverse of a monomial (the only units of the Laurent ring)."""
        if not self.is_monomial:
            raise NonInvertibleBinding("only monomials are invertible")
        ((e, c),) = self.terms.items()
        return _poly(self.table, {tuple(-x for x in e): GR_ONE / c})

    def conjugate(self) -> "LaurentPoly":
        """Apply the table conjugation: i -> -i, z -> 1/z, x_p <-> y_p."""
        pairs = 2 * self.table.pairs
        plain = pairs + len(self.table.units)

        def conj_key(e: tuple) -> tuple:
            if any(e[plain:]):
                raise LaurentError("cannot conjugate a plain symbol")
            vec = list(e)
            vec[0:pairs:2], vec[1:pairs:2] = e[1:pairs:2], e[0:pairs:2]
            vec[pairs:plain] = [-x for x in e[pairs:plain]]
            return tuple(vec)

        out = _accumulate({}, ((conj_key(e), c.conjugate()) for e, c in self.terms.items()))
        return _poly(self.table, out)

    # -- quotient ring normal form ------------------------------------------

    def normal_form(self) -> "LaurentPoly":
        """Canonical representative modulo ``prod x_i*y_i = 1``.

        Each monomial's pair-variable exponents are shifted by a multiple
        of the all-ones vector so their minimum is zero; like monomials
        merge.  Two polynomials have equal normal form exactly when they
        have the same image in the quotient ring.
        """
        pairs = 2 * self.table.pairs
        if not pairs:
            raise LaurentError("normal form needs at least one variable pair")

        def reduced(e: tuple) -> tuple:
            shift = min(e[:pairs])
            if not shift:
                return e
            return tuple([x - shift for x in e[:pairs]]) + e[pairs:]

        out = _accumulate({}, ((reduced(e), c) for e, c in self.terms.items()))
        return _poly(self.table, out)

    # -- embeddings and evaluation -------------------------------------------

    def embed(self, table: VarTable) -> "LaurentPoly":
        """Reinterpret over a larger table containing all current variables."""
        if table == self.table:
            return self
        if not table.contains(self.table):
            raise VarTableMismatch("target table does not contain all variables")
        slots = [table.slot(name) for name in self.table.names]
        out = {}
        for e, c in self.terms.items():
            vec = [0] * table.arity
            for i, exp in enumerate(e):
                vec[slots[i]] = exp
            out[tuple(vec)] = c
        return _poly(table, out)

    def evaluate(self, values: Mapping[str, complex]) -> complex:
        """Numeric evaluation with every variable bound to a complex value."""
        vals = [values[name] for name in self.table.names]
        total = 0j
        for e, c in self.terms.items():
            prod = complex(c)
            for v, exp in zip(vals, e):
                if exp:
                    prod *= v ** exp
            total += prod
        return total

    # -- comparison and presentation -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            if self.table.arity == 0 or isinstance(other, (int, Fraction, GaussianRational)):
                return self == self.table.const(other)
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash((self.table, tuple(self.sorted_terms())))

    def to_text(self) -> str:
        """Deterministic text form: sorted terms, ``(coeff)*x1^e1*...``."""
        if self.is_zero:
            return "0"
        chunks = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{name}^{exp}" for name, exp in zip(self.table.names, e) if exp
            )
            chunks.append(f"({c.to_text()})*{mono or '1'}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"<LaurentPoly {self.to_text()}>"


_new_poly = object.__new__


def _poly(table: VarTable, terms: dict) -> LaurentPoly:
    """Polynomial over ``terms`` as given: a dict with no zero coefficient
    that no one else holds."""
    out = _new_poly(LaurentPoly)
    out.table, out.terms = table, terms
    return out


def _scalar_pow(c: GaussianRational, n: int) -> GaussianRational:
    """``c ** n`` for ``n >= 0`` by repeated squaring."""
    out = GR_ONE
    while n:
        if n & 1:
            out = out * c
        n >>= 1
        if n:
            c = c * c
    return out


# -- coefficient merging ------------------------------------------------------


def _accumulate(out: dict, items: Iterable[tuple]) -> dict:
    """Add ``(key, coeff)`` pairs into ``out``; a key whose sum is zero is dropped.

    ``out`` must be a dict the calling operation owns.  Returns ``out``.
    """
    for key, c in items:
        acc = out.get(key)
        s = c if acc is None else acc + c
        if s:
            out[key] = s
        elif acc is not None:
            del out[key]
    return out


# -- exact division -----------------------------------------------------------


def _grlex_key(exponent: tuple):
    return (sum(exponent), exponent)


def exact_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Exact quotient ``p / q`` in the Laurent ring, for a monomial or binomial ``q``.

    A monomial ``q`` multiplies by its inverse, and a two-term ``q`` takes
    one pass along each line of ``p``'s exponents (:func:`_binomial_div`);
    a nonzero remainder there raises :class:`NonDivisible`, which means
    ``p`` is not a multiple of ``q``.  A divisor of three or more terms
    raises a plain :class:`LaurentError`: no division the identities need
    has one.
    """
    p._check_table(q)
    if q.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if len(q.terms) > 2:
        raise LaurentError("exact division needs a divisor of one or two terms, "
                           f"not {len(q.terms)}")
    if p.is_zero:
        return p.table.zero()
    if q.is_monomial:
        return p * q.inverse()
    return _binomial_div(p, q)


def _binomial_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """``p / q`` for ``q = c1*X^e1 + c2*X^e2``, one pass along each line.

    With ``r = e2 - e1`` and ``rho = -c2/c1``, ``q = c1*X^e1*(1 - rho*X^r)``
    and the factor ``1 - rho*X^r`` maps each line ``base + Z*r`` of
    exponents to itself.  Along a line whose terms of p run from ``t = lo``
    to ``hi``, the quotient's coefficients are ``Q_t = p_t + rho*Q_{t-1}``
    (``Q_{lo-1} = 0``) for ``t < hi``, and ``Q_hi`` must vanish, else
    :class:`NonDivisible`.  The quotient comes out in decreasing graded
    order, the order in which long division by leading terms finds it, so
    the term order does not depend on how ``p`` lists its terms.
    """
    (e1, c1), (e2, c2) = q.terms.items()
    r = tuple(map(sub, e2, e1))
    axis = next(i for i, x in enumerate(r) if x)
    step = r[axis]
    # the line of e is keyed by base = e - t*r with t = e[axis] // step, so that
    # base[axis] lies in one fixed residue range of step
    along: dict = {}
    lines: dict = {}
    for e, c in p.terms.items():
        t = e[axis] // step
        offset = along.get(t)
        if offset is None:
            offset = along[t] = tuple(t * x for x in r)
        base = tuple(map(sub, e, offset))
        line = lines.get(base)
        if line is None:
            lines[base] = {t: c}
        else:
            line[t] = c
    rho = -c2 / c1
    unit_rho = rho == GR_ONE
    inv = None if c1 == GR_ONE else GR_ONE / c1
    at: dict = {}  # t -> t*r - e1, the shift from a line's base to its quotient term
    out = {}
    for base, line in lines.items():
        lo, hi = min(line), max(line)
        acc = line[lo]
        for t in range(lo, hi):
            if acc:
                shift = at.get(t)
                if shift is None:
                    shift = at[t] = tuple(t * x - y for x, y in zip(r, e1))
                out[tuple(map(add, base, shift))] = acc if inv is None else acc * inv
            if not unit_rho:
                acc = rho * acc
            c = line.get(t + 1)
            if c is not None:
                acc = acc + c
        if acc:
            raise NonDivisible("remainder at the top of a line")
    return _poly(p.table, {e: out[e] for e in sorted(out, key=_grlex_key, reverse=True)})


# -- substitution ---------------------------------------------------------------


def substitute(p: LaurentPoly, bindings: Mapping[str, LaurentPoly]) -> LaurentPoly:
    """Exact composition: replace each bound variable by a polynomial.

    A binding must be invertible (a monomial) whenever the variable occurs
    with a negative exponent; otherwise :class:`NonInvertibleBinding`.
    """
    if not bindings:
        return p
    table = p.table
    slots = {}
    for name, value in bindings.items():
        if not isinstance(value, LaurentPoly):
            value = table.const(value)
        value._check_table(p)
        slots[table.slot(name)] = value

    power_cache: dict = {}

    def power(slot: int, exp: int) -> LaurentPoly:
        key = (slot, exp)
        cached = power_cache.get(key)
        if cached is None:
            base = slots[slot]
            if exp < 0:
                cached = base.inverse() ** (-exp)
            else:
                cached = base ** exp
            power_cache[key] = cached
        return cached

    out: dict = {}
    for e, c in p.terms.items():
        vec = list(e)
        factors = []
        for slot in slots:
            if vec[slot]:
                factors.append(power(slot, vec[slot]))
                vec[slot] = 0
        term = _poly(table, {tuple(vec): c})
        for f in factors:
            term = term * f
        _accumulate(out, term.terms.items())
    return _poly(table, out)


# -- divided differences ---------------------------------------------------------


def divided_diff(points: Sequence[LaurentPoly], power: int) -> LaurentPoly:
    """Divided difference of the single power ``t^power`` over the points.

    Computes ``D(p_1,...,p_n)(t^m) = sum_i p_i^m / prod_{j != i} (p_j - p_i)``
    for ``m = power`` by a Newton table: start from ``p_i ** m`` and, at level
    ``j = 1..n-1``, replace entry ``i >= j`` (from the bottom up) by
    ``(T_i - T_{i-1}) / (p_{i-j} - p_i)``, one exact division per entry,
    ``n(n-1)/2`` in all.  Dividing by ``p_{i-j} - p_i`` rather than
    ``p_i - p_{i-j}`` gives the sign of the sum above.  Each divisor is a
    difference of two points, so it is a binomial for monomial points; a
    difference of three or more terms is a :class:`LaurentError` from
    :func:`exact_div`.  The result is always a polynomial, so a
    :class:`NonDivisible` signals a broken identity upstream.
    The operator is linear, so a Laurent ``f = sum_m c_m t^m`` has ``D(f) =
    sum_m c_m * divided_diff(points, m)``.  A negative power needs monomial
    points (:class:`NonInvertibleBinding` otherwise); the points must share
    one table and be pairwise distinct.
    """
    if not points:
        raise LaurentError("at least one interpolation point required")
    pts = list(points)
    for point in pts[1:]:
        point._check_table(pts[0])
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] == pts[j]:
                raise DuplicatePoint(f"points {i} and {j} coincide")
    table = [p ** power for p in pts]
    for j in range(1, len(pts)):
        for i in range(len(pts) - 1, j - 1, -1):
            table[i] = exact_div(table[i] - table[i - 1], pts[i - j] - pts[i])
    return table[-1]
