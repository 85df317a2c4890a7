"""Exact sparse multivariate Laurent polynomial arithmetic.

Coefficients are Gaussian rationals, held as one canonical integer triple
``(a + b*i) / d`` with ``d > 0`` and ``gcd(a, b, d) == 1``: each operation
is integer arithmetic plus one three-argument gcd, skipped when the
denominator is 1.  A polynomial is a sparse map from integer exponent
vectors to coefficients over a fixed variable table.  The table
distinguishes three kinds of variables:

* paired variables ``x1, y1, ..., xk, yk`` that participate in the
  quotient relation ``x1*y1*...*xk*yk = 1`` and swap under conjugation,
* unit symbols (``z1``, ...) for points on the unit circle, with
  ``conj(z) = 1/z``,
* plain symbols with no conjugation rule (formal increments, trace
  symbols, substitution slots).

All values are immutable after construction and every operation is pure,
so polynomials can be shared freely across threads.  :func:`_accumulate`
is the only place the layer merges coefficients (add, then drop a zero
sum); it mutates only dicts the calling operation owns, never the
``terms`` of a constructed polynomial.

:func:`exact_div` takes each leading term from a heap of the remainder's
exponents.  The graded order is translation invariant, so the terms a
division step adds all rank below the lead it cancels; leads strictly
decrease, and a heap entry whose exponent has since cancelled is skipped.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, neg, sub
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

    ``kinds[i]`` is one of ``'x'``, ``'y'`` (paired, in matched order),
    ``'z'`` (unit symbol) or ``'a'`` (plain symbol).  Conjugation swaps
    each x-slot with the matching y-slot, negates unit exponents, and is
    undefined on plain symbols.
    """

    names: tuple
    kinds: tuple

    def __post_init__(self):
        if len(self.names) != len(self.kinds):
            raise LaurentError("names and kinds must have equal length")
        if len(set(self.names)) != len(self.names):
            raise LaurentError("variable names must be unique")
        if self.kinds.count("x") != self.kinds.count("y"):
            raise LaurentError("paired variables must come in x/y pairs")
        for kind in self.kinds:
            if kind not in ("x", "y", "z", "a"):
                raise LaurentError(f"unknown variable kind {kind!r}")

    @staticmethod
    def build(pairs: int, units: Sequence[str] = (), plain: Sequence[str] = ()) -> "VarTable":
        """Table with pair variables x1,y1,...,xk,yk then units then plain."""
        names = []
        kinds = []
        for p in range(1, pairs + 1):
            names += [f"x{p}", f"y{p}"]
            kinds += ["x", "y"]
        names += list(units)
        kinds += ["z"] * len(units)
        names += list(plain)
        kinds += ["a"] * len(plain)
        return VarTable(tuple(names), tuple(kinds))

    def pair_monomial(self, xs: Sequence[int], ys: Sequence[int]) -> "LaurentPoly":
        """``prod_p x_p^{xs[p-1]} * y_p^{ys[p-1]}``, one exponent per pair."""
        vec = [0] * self.arity
        for kind, exps in (("x", xs), ("y", ys)):
            slots = [i for i, k in enumerate(self.kinds) if k == kind]
            for slot, exp in zip(slots, exps, strict=True):
                vec[slot] = exp
        return LaurentPoly(self, {tuple(vec): GR_ONE})

    @property
    def arity(self) -> int:
        return len(self.names)

    @property
    def pair_count(self) -> int:
        return self.kinds.count("x")

    def slot(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise LaurentError(f"unknown variable {name!r}") from None

    def pair_slots(self) -> tuple:
        return tuple(i for i, k in enumerate(self.kinds) if k in ("x", "y"))

    def conj_permutation(self) -> tuple:
        """Slot permutation applied by conjugation (x_p <-> y_p)."""
        xs = [i for i, k in enumerate(self.kinds) if k == "x"]
        ys = [i for i, k in enumerate(self.kinds) if k == "y"]
        perm = list(range(self.arity))
        for a, b in zip(xs, ys):
            perm[a], perm[b] = b, a
        return tuple(perm)

    def zero(self) -> "LaurentPoly":
        return LaurentPoly(self, {})

    def one(self) -> "LaurentPoly":
        return self.const(GR_ONE)

    def const(self, value) -> "LaurentPoly":
        value = GaussianRational.coerce(value)
        if not value:
            return self.zero()
        return LaurentPoly(self, {(0,) * self.arity: value})

    def var(self, name: str, exp: int = 1) -> "LaurentPoly":
        vec = [0] * self.arity
        vec[self.slot(name)] = exp
        return LaurentPoly(self, {tuple(vec): GR_ONE})

    def monomial(self, exponents: Mapping[str, int], coeff=GR_ONE) -> "LaurentPoly":
        coeff = GaussianRational.coerce(coeff)
        if not coeff:
            return self.zero()
        vec = [0] * self.arity
        for name, exp in exponents.items():
            vec[self.slot(name)] = exp
        return LaurentPoly(self, {tuple(vec): coeff})

    def contains(self, other: "VarTable") -> bool:
        """True when every variable of ``other`` exists here with equal kind."""
        for name, kind in zip(other.names, other.kinds):
            if name not in self.names:
                return False
            if self.kinds[self.names.index(name)] != kind:
                return False
        return True


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
        return LaurentPoly(self.table, _accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            other = self.table.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return LaurentPoly(self.table, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            scalar = GaussianRational.coerce(other)
            if not scalar:
                return self.table.zero()
            return LaurentPoly(self.table, {e: c * scalar for e, c in self.terms.items()})
        self._check_table(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = _accumulate({}, ((tuple(map(add, ea, eb)), ca * cb)
                               for ea, ca in a.items() for eb, cb in b.items()))
        return LaurentPoly(self.table, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("polynomial powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
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
        return LaurentPoly(self.table, {tuple(-x for x in e): GR_ONE / c})

    def conjugate(self) -> "LaurentPoly":
        """Apply the table conjugation: i -> -i, z -> 1/z, x_p <-> y_p."""
        perm = self.table.conj_permutation()
        kinds = self.table.kinds

        def conj_key(e: tuple) -> tuple:
            vec = [e[perm[i]] for i in range(len(e))]
            for i, kind in enumerate(kinds):
                if kind == "z":
                    vec[i] = -vec[i]
                elif kind == "a" and vec[i] != 0:
                    raise LaurentError("cannot conjugate a plain symbol")
            return tuple(vec)

        out = _accumulate({}, ((conj_key(e), c.conjugate()) for e, c in self.terms.items()))
        return LaurentPoly(self.table, out)

    # -- quotient ring normal form ------------------------------------------

    def normal_form(self) -> "LaurentPoly":
        """Canonical representative modulo ``prod x_i*y_i = 1``.

        Each monomial's pair-variable exponents are shifted by a multiple
        of the all-ones vector so their minimum is zero; like monomials
        merge.  Two polynomials have equal normal form exactly when they
        have the same image in the quotient ring.
        """
        slots = self.table.pair_slots()
        if not slots:
            raise LaurentError("normal form needs at least one variable pair")

        def reduced(e: tuple) -> tuple:
            shift = min(e[i] for i in slots)
            if not shift:
                return e
            vec = list(e)
            for i in slots:
                vec[i] -= shift
            return tuple(vec)

        out = _accumulate({}, ((reduced(e), c) for e, c in self.terms.items()))
        return LaurentPoly(self.table, out)

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
        return LaurentPoly(table, out)

    def project(self, table: VarTable) -> "LaurentPoly":
        """Reinterpret over a sub-table; dropped variables must not occur."""
        if table == self.table:
            return self
        if not self.table.contains(table):
            raise VarTableMismatch("target table is not a sub-table")
        slots = [self.table.slot(name) for name in table.names]
        kept = set(slots)
        out = {}
        for e, c in self.terms.items():
            for i, exp in enumerate(e):
                if exp and i not in kept:
                    raise LaurentError(
                        f"variable {self.table.names[i]!r} still occurs")
            out[tuple(e[i] for i in slots)] = c
        return LaurentPoly(table, out)

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


def _monomial_shift(poly: LaurentPoly) -> tuple:
    """Per-variable minimum exponent over all terms (zero poly -> zeros)."""
    arity = poly.table.arity
    mins = [0] * arity
    first = True
    for e in poly.terms:
        if first:
            mins = list(e)
            first = False
        else:
            for i, x in enumerate(e):
                if x < mins[i]:
                    mins[i] = x
    return tuple(mins)


def _grlex_key(exponent: tuple):
    return (sum(exponent), exponent)


def _heap_entry(exponent: tuple) -> tuple:
    """Min-heap entry whose order is the reverse of :func:`_grlex_key`."""
    return (-sum(exponent), tuple(map(neg, exponent)), exponent)


def exact_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Exact quotient ``p / q``; raises :class:`NonDivisible` otherwise.

    Works in the Laurent ring: monomial factors are stripped first, then
    ordinary polynomial division runs on the primitive parts with a graded
    leading-term order.  A nonzero remainder can only appear when ``p`` is
    genuinely not a multiple of ``q``.

    Leading terms come from a heap of the remainder's exponents; an entry
    whose exponent has left the remainder is skipped when popped (the
    module docstring says why a popped exponent never returns).
    """
    p._check_table(q)
    if q.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero:
        return p.table.zero()
    if q.is_monomial:
        return p * q.inverse()

    p_shift = _monomial_shift(p)
    q_shift = _monomial_shift(q)
    p_hat = {tuple(map(sub, e, p_shift)): c for e, c in p.terms.items()}
    q_hat = {tuple(map(sub, e, q_shift)): c for e, c in q.terms.items()}

    lead_q = max(q_hat, key=_grlex_key)
    lead_q_coeff = q_hat[lead_q]
    q_items = list(q_hat.items())
    quotient: dict = {}
    rem = dict(p_hat)
    heap = [_heap_entry(e) for e in rem]
    heapq.heapify(heap)
    while rem:
        lead_p = heapq.heappop(heap)[2]
        if lead_p not in rem:
            continue
        diff = tuple(map(sub, lead_p, lead_q))
        if any(d < 0 for d in diff):
            raise NonDivisible("leading term not divisible")
        factor = rem[lead_p] / lead_q_coeff
        quotient[diff] = factor
        step = [(tuple(map(add, e, diff)), -(factor * c)) for e, c in q_items]
        for e, _ in step:
            if e not in rem:
                heapq.heappush(heap, _heap_entry(e))
        _accumulate(rem, step)

    shift = tuple(map(sub, p_shift, q_shift))
    out = {tuple(map(add, e, shift)): c for e, c in quotient.items()}
    return LaurentPoly(p.table, out)


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
        term = LaurentPoly(table, {tuple(vec): c})
        for f in factors:
            term = term * f
        _accumulate(out, term.terms.items())
    return LaurentPoly(table, out)


# -- divided differences ---------------------------------------------------------


def divided_diff(points: Sequence[LaurentPoly], f: LaurentPoly, var: str) -> LaurentPoly:
    """Divided-difference operator over interpolation points.

    Computes ``D(p_1,...,p_n)(f) = sum_i f(p_i) / prod_{j != i} (p_j - p_i)``
    by the two-point recursion, with an exact division at every step; the
    result is always a polynomial, so a division failure signals a broken
    identity upstream.  ``f`` is treated as univariate in ``var``; the
    points must not involve ``var`` and must be pairwise distinct.
    """
    if not points:
        raise LaurentError("at least one interpolation point required")
    table = f.table
    slot = table.slot(var)
    pts = []
    for point in points:
        point._check_table(f)
        if any(e[slot] for e in point.terms):
            raise LaurentError("interpolation points must not involve the variable")
        pts.append(point)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] == pts[j]:
                raise DuplicatePoint(f"points {i} and {j} coincide")

    memo: dict = {}

    def rec(idx: tuple) -> LaurentPoly:
        cached = memo.get(idx)
        if cached is not None:
            return cached
        if len(idx) == 1:
            value = substitute(f, {var: pts[idx[0]]})
        else:
            tail = idx[2:]
            left = rec((idx[0],) + tail)
            right = rec((idx[1],) + tail)
            value = exact_div(left - right, pts[idx[1]] - pts[idx[0]])
        memo[idx] = value
        return value

    return rec(tuple(range(len(pts))))
