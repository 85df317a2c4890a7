"""Ring, quotient and divided-difference properties of the Laurent engine."""

import cmath
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from opucgems import laurent
from opucgems.laurent import (
    DuplicatePoint,
    GaussianRational,
    LaurentError,
    LaurentPoly,
    NonDivisible,
    NonInvertibleBinding,
    VarTable,
    VarTableMismatch,
    divided_diff,
    exact_div,
    substitute,
)
from opucgems.laurent import _accumulate, _grlex_key


def table_k1():
    return VarTable(1, units=("z1",))


def vars_k1(t):
    return t.var("x1"), t.var("y1"), t.var("z1")


# -- construction and basic arithmetic ------------------------------------------------


def test_product_expands_distributively():
    t = table_k1()
    x1, y1, z1 = vars_k1(t)
    product = (x1 - z1.inverse()) * (y1 - z1)
    expected = (
        x1 * y1
        - t.monomial({"x1": 1, "z1": 1})
        - t.monomial({"y1": 1, "z1": -1})
        + t.one()
    )
    assert product == expected


def test_multiplication_by_one_is_identity():
    t = table_k1()
    x1, y1, z1 = vars_k1(t)
    p = 3 * x1 * y1 - z1 + t.const(Fraction(5, 7))
    assert p * t.one() == p


def test_conjugate_swaps_pairs_and_inverts_units():
    t = table_k1()
    x1, y1, z1 = vars_k1(t)
    assert (x1 - z1.inverse()).conjugate() == y1 - z1


def test_conjugate_matches_numeric_conjugation():
    # under the intended valuation x -> conj(a), y -> a, z on the circle,
    # conjugating the polynomial conjugates the value
    t = table_k1()
    x1, y1, z1 = vars_k1(t)
    p = (x1 - z1.inverse()) * (y1 - z1) + GaussianRational(1, 2) * x1
    a = 0.3 - 0.4j
    z = cmath.exp(0.7j)
    values = {"x1": a.conjugate(), "y1": a, "z1": z}
    lhs = p.conjugate().evaluate(values)
    rhs = p.evaluate(values).conjugate()
    assert abs(lhs - rhs) < 1e-12


def test_table_mismatch_raises():
    t1 = table_k1()
    t2 = VarTable(1, units=("z2",))
    with pytest.raises(VarTableMismatch):
        t1.var("x1") * t2.var("x1")


def test_table_lays_out_pairs_then_units_then_plain():
    t = VarTable(2, units=("z1",), plain=("s",))
    assert t.names == ("x1", "y1", "x2", "y2", "z1", "s")
    assert VarTable(2, ("z1",), ("s",)) == t and hash(VarTable(2, ("z1",), ("s",))) == hash(t)
    assert VarTable(0).names == ()


@pytest.mark.parametrize("units,plain", [(("x1",), ()), ((), ("y1",)), (("z1",), ("z1",)),
                                         (("z1", "z1"), ())])
def test_table_rejects_a_duplicate_name_across_kinds(units, plain):
    with pytest.raises(LaurentError, match="unique"):
        VarTable(1, units=units, plain=plain)


def test_embed_needs_every_variable_with_its_kind():
    p = table_k1().monomial({"x1": 1, "z1": 1})
    assert p.embed(VarTable(2, units=("z0", "z1"), plain=("s",))).to_text() \
        == "(1+0*i)*x1^1*z1^1"
    for smaller in (VarTable(0, units=("z1",), plain=("x1", "y1")), VarTable(1),
                    VarTable(1, plain=("z1",)), VarTable(2, units=("z2",))):
        with pytest.raises(VarTableMismatch):
            p.embed(smaller)


def test_conjugate_rejects_a_plain_symbol():
    t = VarTable(1, units=("z1",), plain=("s",))
    with pytest.raises(LaurentError, match="plain symbol"):
        (t.var("x1") + t.var("s")).conjugate()
    assert (t.var("x1") * t.var("z1", 2)).conjugate() == t.var("y1") * t.var("z1", -2)


def test_normal_form_needs_a_pair():
    t = VarTable(0, units=("z1",))
    with pytest.raises(LaurentError, match="at least one variable pair"):
        (t.var("z1") + t.one()).normal_form()


# -- normal form ------------------------------------------------------------------


def test_normal_form_shifts_to_min_zero():
    t = table_k1()
    assert t.monomial({"x1": 1, "y1": 2}).normal_form() == t.var("y1")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_normal_form_kills_the_relation(k):
    t = VarTable(k)
    relation = t.monomial({f"x{i}": 1 for i in range(1, k + 1)}
                          | {f"y{i}": 1 for i in range(1, k + 1)}) - t.one()
    assert relation.normal_form().is_zero


def test_normal_form_merges_equivalent_terms():
    t = table_k1()
    p = t.monomial({"x1": 1, "y1": 2}) - t.var("y1")
    assert p.normal_form().is_zero


# -- exact division -----------------------------------------------------------------


def units_table():
    return VarTable(0, units=("t1", "t2", "t3"))


def test_exact_div_difference_of_squares():
    t = units_table()
    a, b = t.var("t1"), t.var("t2")
    assert exact_div(a * a - b * b, a - b) == a + b


def test_exact_div_difference_of_cubes():
    t = units_table()
    a, b = t.var("t1"), t.var("t2")
    assert exact_div(a ** 3 - b ** 3, a - b) == a * a + a * b + b * b


def test_exact_div_rejects_non_multiple():
    t = units_table()
    a, b = t.var("t1"), t.var("t2")
    with pytest.raises(NonDivisible):
        exact_div(a * a + b, a - b)
    # remainder check by substitution a = b: a^2 + b at a=b is b^2+b != 0
    assert not substitute(a * a + b, {"t1": b}).is_zero


def test_exact_div_handles_laurent_shifts():
    t = units_table()
    a = t.var("t1")
    p = a ** 2 - t.one()
    assert exact_div(p, a) == a - a.inverse()


def test_three_term_divisor_is_rejected_as_unsupported_not_as_a_non_multiple():
    t = units_table()
    a, b, c = t.var("t1"), t.var("t2"), t.var("t3")
    q = a + b + c
    for call in (lambda: exact_div(q * a, q), lambda: divided_diff([a, b + c], 2)):
        with pytest.raises(LaurentError, match="one or two terms, not 3") as info:
            call()
        assert not isinstance(info.value, NonDivisible)


# -- substitution ------------------------------------------------------------------


def test_substitute_monomial_composition():
    t = table_k1()
    x1, y1, _ = vars_k1(t)
    h_like = x1 * y1
    bound = substitute(h_like, {"x1": t.monomial({"x1": 1, "y1": 2})})
    assert bound == t.monomial({"x1": 1, "y1": 3})


def test_substitute_expansion_at_center():
    ext = VarTable(1, units=("z1",), plain=("u", "v"))
    x1, y1, z1 = ext.var("x1"), ext.var("y1"), ext.var("z1")
    u, v = ext.var("u"), ext.var("v")
    result = substitute(x1 * y1, {"x1": u + z1.inverse(), "y1": v + z1})
    expected = u * v + ext.monomial({"u": 1, "z1": 1}) \
        + ext.monomial({"v": 1, "z1": -1}) + ext.one()
    assert result == expected


def test_substitute_empty_bindings_is_identity():
    t = table_k1()
    p = t.var("x1") - t.var("z1")
    assert substitute(p, {}) == p


def test_substitute_negative_power_needs_monomial():
    t = table_k1()
    x1, y1, z1 = vars_k1(t)
    p = t.monomial({"x1": -1})
    with pytest.raises(NonInvertibleBinding):
        substitute(p, {"x1": y1 + z1})
    assert substitute(p, {"x1": y1 * z1}) == t.monomial({"y1": -1, "z1": -1})


# -- divided differences ----------------------------------------------------------------


def divided_diff_of(points, f):
    """Divided difference of ``f = sum_m f[m] t^m``, by linearity in the powers."""
    return sum((c * divided_diff(points, m) for m, c in f.items()), points[0].table.zero())


def test_divided_diff_single_point_is_evaluation():
    t = units_table()
    a = t.var("t1")
    assert divided_diff_of([a], {3: 1, 1: 2}) == a ** 3 + 2 * a
    assert divided_diff([a], -2) == t.monomial({"t1": -2})
    assert divided_diff([a], 0) == t.one()


def test_divided_diff_two_points_square():
    t = units_table()
    a, b = t.var("t1"), t.var("t2")
    assert divided_diff([a, b], 2) == -(a + b)


def test_divided_diff_three_points_linear_vanishes():
    t = units_table()
    pts = [t.var("t1"), t.var("t2"), t.var("t3")]
    assert divided_diff(pts, 1).is_zero


def test_divided_diff_rejects_duplicate_points():
    t = units_table()
    a = t.var("t1")
    with pytest.raises(DuplicatePoint):
        divided_diff([a, a], 1)


def six_distinct_points():
    t = units_table()
    a, b, c = t.var("t1"), t.var("t2"), t.var("t3")
    return [a, b, c, a * b, b * c, a * c]


@pytest.mark.parametrize("n", range(1, 7))
def test_divided_diff_is_a_newton_table_of_n_choose_2_divisions(monkeypatch, n):
    calls = []

    def counting(p, q):
        calls.append((p, q))
        return exact_div(p, q)

    monkeypatch.setattr(laurent, "exact_div", counting)
    pts = six_distinct_points()[:n]
    result = divided_diff(pts, 7)
    assert len(calls) == n * (n - 1) // 2
    assert result == hom_direct(pts, 8 - n) * (-1) ** (n + 1)


def fail_if_called(*args):
    raise AssertionError("called before the duplicate-point check")


@pytest.mark.parametrize("picks", [(0, 1, 0), (0, 1, 2, 1), (5, 3, 5)])
def test_divided_diff_rejects_non_adjacent_duplicates_first(monkeypatch, picks):
    pts = [six_distinct_points()[i] for i in picks]
    monkeypatch.setattr(laurent, "exact_div", fail_if_called)
    monkeypatch.setattr(LaurentPoly, "__pow__", fail_if_called)
    with pytest.raises(DuplicatePoint):
        divided_diff(pts, 3)


def test_divided_diff_duplicate_check_precedes_inverse():
    t = units_table()
    a, b, c = t.var("t1"), t.var("t2"), t.var("t3")
    # a + b has no inverse, but the duplicate is what is wrong with these points
    with pytest.raises(DuplicatePoint):
        divided_diff([a + b, c, a + b], -1)
    with pytest.raises(DuplicatePoint):
        divided_diff([a + b, a + b], -2)


def test_divided_diff_points_share_one_table():
    a = units_table().var("t1")
    b = VarTable(0, units=("t1", "t2")).var("t2")
    with pytest.raises(VarTableMismatch):
        divided_diff([a, b], 2)


def test_divided_diff_negative_power_needs_monomial_points():
    t = units_table()
    a, b = t.var("t1"), t.var("t2")
    with pytest.raises(NonInvertibleBinding):
        divided_diff([a + b], -1)
    with pytest.raises(NonInvertibleBinding):
        divided_diff([a, a + b], -2)
    # non-negative powers of a binomial point need no inverse
    assert divided_diff([a, a + b], 2) == -(2 * a + b)


def brute_force_numerator(points, f):
    """sum_i f(p_i) * prod_{m != i} C_m with C_m = prod_{j != m} (p_j - p_m).

    Multiplication-only form of the defining rational expression for ``f =
    sum_m f[m] t^m``; the recursion result r must satisfy r * prod_i C_i ==
    numerator.
    """
    n = len(points)
    table = points[0].table
    c = []
    for i in range(n):
        prod = table.one()
        for j in range(n):
            if j != i:
                prod = prod * (points[j] - points[i])
        c.append(prod)
    total = table.zero()
    for i in range(n):
        term = sum((coeff * points[i] ** m for m, coeff in f.items()), table.zero())
        for m in range(n):
            if m != i:
                term = term * c[m]
        total = total + term
    denominator = table.one()
    for i in range(n):
        denominator = denominator * c[i]
    return total, denominator


@pytest.mark.parametrize("n_points", [2, 3, 4])
def test_divided_diff_matches_rational_definition(n_points):
    t = VarTable(0, units=("t1", "t2", "t3", "t4"))
    points = [t.var(f"t{i}") for i in range(1, n_points + 1)]
    # Laurent test function with negative powers, degree span [-3, 6]
    f = {6: 1, 3: -2, 1: 1, -1: Fraction(1, 2), -3: -1}
    result = divided_diff_of(points, f)
    numerator, denominator = brute_force_numerator(points, f)
    assert result * denominator == numerator


random_monomial_points = st.lists(
    st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 3),
              st.lists(st.integers(-2, 2), min_size=2, max_size=2)),
    min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(points=random_monomial_points, power=st.integers(-5, 8))
def test_divided_diff_of_a_power_matches_rational_definition(points, power):
    t = VarTable(0, units=("t1", "t2"))
    pts = [LaurentPoly(t, {tuple(e): GaussianRational(Fraction(num, den))})
           for num, den, e in points]
    assume(len(set(pts)) == len(pts))
    numerator, denominator = brute_force_numerator(pts, {power: 1})
    assert divided_diff(pts, power) * denominator == numerator


def test_divided_diff_is_symmetric_in_points():
    t = VarTable(0, units=("t1", "t2", "t3"))
    pts = [t.var("t1"), t.var("t2"), t.var("t3")]
    f = {5: 1, -2: -1}
    reference = divided_diff_of(pts, f)
    assert divided_diff_of([pts[2], pts[0], pts[1]], f) == reference
    assert divided_diff_of([pts[1], pts[2], pts[0]], f) == reference


def hom_direct(points, degree):
    """Complete homogeneous sum by direct multiset expansion."""
    table = points[0].table
    if degree < 0:
        return table.zero()
    total = table.zero()

    def rec(idx, remaining, acc):
        nonlocal total
        if idx == len(points) - 1:
            total = total + acc * points[idx] ** remaining
            return
        for take in range(remaining + 1):
            rec(idx + 1, remaining - take, acc * points[idx] ** take)

    rec(0, degree, table.one())
    return total


@pytest.mark.parametrize("n_points,m", [(n, m) for n in (1, 2, 3) for m in range(6)])
def test_divided_diff_of_powers_gives_homogeneous_sums(n_points, m):
    # D(x_1..x_n)(x^m) = (-1)^{n+1} h_{m-n+1}(x_1..x_n)
    t = VarTable(0, units=("t1", "t2", "t3"))
    points = [t.var(f"t{i}") for i in range(1, n_points + 1)]
    lhs = divided_diff(points, m)
    rhs = hom_direct(points, m - n_points + 1) * ((-1) ** (n_points + 1))
    assert lhs == rhs


# -- randomized ring properties -----------------------------------------------------


@st.composite
def polys(draw, pairs=2, units=1, min_terms=0, max_terms=4, max_exp=2):
    table = VarTable(pairs, units=tuple(f"z{i}" for i in range(1, units + 1)))
    n_terms = draw(st.integers(min_terms, max_terms))
    terms = {}
    for _ in range(n_terms):
        exp = tuple(
            draw(st.integers(-max_exp, max_exp)) for _ in range(table.arity)
        )
        num = draw(st.integers(-4, 4))
        den = draw(st.integers(1, 3))
        imag = draw(st.integers(-2, 2))
        coeff = GaussianRational(Fraction(num, den), Fraction(imag))
        if coeff:
            terms[exp] = coeff
    return LaurentPoly(table, terms)


@settings(max_examples=60, deadline=None)
@given(polys(pairs=3))
def test_normal_form_idempotent(p):
    assert p.normal_form().normal_form() == p.normal_form()


@settings(max_examples=60, deadline=None)
@given(polys(pairs=2), st.integers(-3, 3))
def test_normal_form_ignores_relation_powers(p, t_shift):
    unit = p.table.pair_monomial([t_shift] * 2, [t_shift] * 2)
    assert (p * unit).normal_form() == p.normal_form()


@settings(max_examples=60, deadline=None)
@given(polys(pairs=2), polys(pairs=2))
def test_normal_form_constant_on_ideal_cosets(p, r):
    # adding any multiple of (x1 y1 x2 y2 - 1) never changes the normal form
    relation = p.table.pair_monomial([1, 1], [1, 1]) - p.table.one()
    assert (p + relation * r).normal_form() == p.normal_form()


@settings(max_examples=60, deadline=None)
@given(polys(), polys(max_terms=2))
def test_exact_div_inverts_multiplication(p, q):
    if q.is_zero:
        return
    assert exact_div(p * q, q) == p


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_conjugate_is_ring_homomorphism(p, q):
    assert (p + q).conjugate() == p.conjugate() + q.conjugate()
    assert (p * q).conjugate() == p.conjugate() * q.conjugate()


@settings(max_examples=60, deadline=None)
@given(polys())
def test_conjugate_is_involution(p):
    assert p.conjugate().conjugate() == p


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_merged_coefficients_are_never_zero(p, q, r):
    results = [p + q, p - q, p * q, p.conjugate(), p.normal_form()]
    if 1 <= len(q.terms) <= 2:  # the divisor shapes exact_div supports
        results.append(exact_div(p * q, q))
    for result in results:
        assert all(result.terms.values())
    assert (p + q) - q == p
    assert (p + (-p)).is_zero
    assert p * (q + r) == p * q + p * r


# -- serialization -------------------------------------------------------------------


def test_text_serialization_is_canonical():
    t = table_k1()
    p = t.monomial({"x1": 1, "z1": -1}, GaussianRational(Fraction(-1, 2))) \
        + t.monomial({"y1": 2}, GaussianRational(0, Fraction(3, 4))) + t.one()
    assert p.to_text() == \
        "(1+0*i)*1 + (0+3/4*i)*y1^2 + (-1/2+0*i)*x1^1*z1^-1"


def test_zero_serializes_as_zero():
    assert table_k1().zero().to_text() == "0"


# -- scalar oracle ----------------------------------------------------------------------


class PairRational:
    """Gaussian rational as a pair of Fractions: the reference for the scalar."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @staticmethod
    def coerce(value):
        if isinstance(value, PairRational):
            return value
        if isinstance(value, (int, Fraction)):
            return PairRational(value)
        raise TypeError(f"cannot coerce {value!r}")

    def __add__(self, other):
        other = PairRational.coerce(other)
        return PairRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = PairRational.coerce(other)
        return PairRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return PairRational.coerce(other) - self

    def __neg__(self):
        return PairRational(-self.re, -self.im)

    def __mul__(self, other):
        other = PairRational.coerce(other)
        return PairRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = PairRational.coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return PairRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        return PairRational.coerce(other) / self

    def conjugate(self):
        return PairRational(self.re, -self.im)

    def __eq__(self, other):
        other = PairRational.coerce(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def to_text(self):
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


# denominators 1, powers of two and odd primes; numerators with zero and signs
rational_parts = st.builds(
    Fraction,
    st.integers(-40, 40) | st.integers(-10 ** 30, 10 ** 30),
    st.sampled_from([1, 1, 2, 4, 8, 1024, 3, 5, 7, 11, 101]),
)
plain_scalars = st.integers(-6, 6) | rational_parts


def assert_same_scalar(got, want):
    assert type(got) is GaussianRational
    assert got.d > 0 and math.gcd(got.a, got.b, got.d) == 1
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert (got.re, got.im) == (want.re, want.im)
    assert hash(got) == hash(want)
    assert bool(got) == bool(want)
    assert complex(got) == complex(want)
    assert got.to_text() == want.to_text()
    assert repr(got) == repr(want)


@settings(max_examples=300, deadline=None)
@given(rational_parts, rational_parts, rational_parts, rational_parts, plain_scalars)
def test_scalar_matches_fraction_pair_oracle(re1, im1, re2, im2, plain):
    x, y = GaussianRational(re1, im1), GaussianRational(re2, im2)
    ox, oy = PairRational(re1, im1), PairRational(re2, im2)
    assert_same_scalar(x, ox)
    for op in (operator.add, operator.sub, operator.mul):
        assert_same_scalar(op(x, y), op(ox, oy))
        assert_same_scalar(op(x, plain), op(ox, plain))
        assert_same_scalar(op(plain, x), op(plain, ox))
    assert_same_scalar(-x, -ox)
    assert_same_scalar(x.conjugate(), ox.conjugate())
    for num, den, onum, oden in ((x, y, ox, oy), (x, plain, ox, plain), (plain, x, plain, ox)):
        if PairRational.coerce(oden):
            assert_same_scalar(num / den, onum / oden)
        else:
            with pytest.raises(ZeroDivisionError):
                num / den
    assert (x == y) == (ox == oy)
    assert (x == plain) == (ox == plain)
    assert (plain == x) == (ox == plain)
    assert (x == GaussianRational(x.re, x.im)) and hash(x) == hash(GaussianRational(x.re, x.im))
    if x == x.re:  # equal values hash equally
        assert hash(x) == hash(x.re)
    real = GaussianRational(re1)
    assert real == re1 and hash(real) == hash(re1)


@settings(max_examples=100, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False) | st.integers(-5, 5))
def test_scalar_coerces_floats_like_the_oracle(re, im):
    assert_same_scalar(GaussianRational(re, im), PairRational(re, im))


def test_scalar_keeps_the_pair_hash_and_integer_equality():
    assert hash(GaussianRational(1)) == hash(1)
    assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert len({GaussianRational(1), 1}) == 1
    assert hash(GaussianRational(Fraction(1, 2), 3)) == hash((Fraction(1, 2), 3))
    assert GaussianRational(Fraction(6, 3)) == 2
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussianRational(0, 1) != 0
    assert GaussianRational(0.5) != 0.5
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 2) / GaussianRational(0)
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 2) / 0


# -- division oracle ----------------------------------------------------------------------


def _monomial_shift(poly):
    """Per-variable minimum exponent over the terms of a nonzero polynomial."""
    return tuple(map(min, zip(*poly.terms)))


def max_scan_exact_div(p, q):
    """Exact division that scans the whole remainder for each leading term.

    The reference for :func:`exact_div`'s binomial path: ordinary long
    division with the graded order, whose quotient insertion order is the
    decreasing graded order the binomial path emits.
    """
    if q.is_monomial:
        return p * q.inverse()
    p_shift = _monomial_shift(p)
    q_shift = _monomial_shift(q)
    p_hat = {tuple(x - s for x, s in zip(e, p_shift)): c for e, c in p.terms.items()}
    q_hat = {tuple(x - s for x, s in zip(e, q_shift)): c for e, c in q.terms.items()}
    lead_q = max(q_hat, key=_grlex_key)
    lead_q_coeff = q_hat[lead_q]
    quotient = {}
    rem = dict(p_hat)
    while rem:
        lead_p = max(rem, key=_grlex_key)
        diff = tuple(a - b for a, b in zip(lead_p, lead_q))
        if any(d < 0 for d in diff):
            raise NonDivisible("leading term not divisible")
        factor = rem[lead_p] / lead_q_coeff
        quotient[diff] = factor
        _accumulate(rem, ((tuple(a + b for a, b in zip(e, diff)), -(factor * c))
                          for e, c in q_hat.items()))
    shift = tuple(a - b for a, b in zip(p_shift, q_shift))
    out = {tuple(a + b for a, b in zip(e, shift)): c for e, c in quotient.items()}
    return LaurentPoly(p.table, out)


# -- binomial division ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(polys(max_terms=5), polys(min_terms=2, max_terms=2))
def test_binomial_division_matches_max_scan_oracle(p, q):
    # random coefficient ratios, exponents in [-2, 2] on the pairs and the unit z1
    assume(len(q.terms) == 2)
    got = exact_div(p * q, q)
    assert list(got.terms.items()) == list(max_scan_exact_div(p * q, q).terms.items())
    assert got == p


@settings(max_examples=150, deadline=None)
@given(polys(max_terms=5), polys(min_terms=2, max_terms=2), polys(min_terms=1, max_terms=1))
def test_binomial_division_rejects_non_multiples(p, q, r):
    assume(len(q.terms) == 2 and r.is_monomial)
    with pytest.raises(NonDivisible):
        exact_div(p * q + r, q)


def test_binomial_division_with_a_general_ratio():
    t = table_k1()
    x1, y1, z1 = vars_k1(t)
    q = 2 * x1.inverse() * z1 + GaussianRational(Fraction(-1, 3), 1) * y1 ** 2
    p = GaussianRational(0, Fraction(5, 2)) * z1 ** -2 - x1 * y1 ** -1 + 7 * x1 ** 3
    got = exact_div(p * q, q)
    assert got == p
    assert list(got.terms.items()) == list(max_scan_exact_div(p * q, q).terms.items())


@pytest.mark.parametrize("n", [2, 3, 8])
def test_binomial_quotient_can_be_denser_than_the_dividend(n):
    # (u^n - 1)/(u - 1) = 1 + u + ... + u^{n-1}: one line, n quotient terms from two
    t = VarTable(1, units=("u",))
    u, shift = t.var("u"), t.monomial({"x1": -1, "y1": 2})
    p = (u ** n - t.one()) * shift
    got = exact_div(p, u - t.one())
    assert got == sum((u ** j for j in range(n)), t.zero()) * shift
    assert len(got.terms) == n
    assert list(got.terms.items()) == list(max_scan_exact_div(p, u - t.one()).terms.items())
