"""Cyclotomic field arithmetic, checked against sympy and a Fraction oracle.

``reference_mul`` is the multiply the field kernel used while it stored one
``Fraction`` per coefficient: a dense product reduced by a ``Fraction`` table
of z^j, kept here as the oracle for the integer-numerator kernel.
"""
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from qtlie.cyclo import (
    CycloNum,
    cyclotomic_polynomial,
    make_field,
    parse_cyclonum,
    parse_scalar,
    proper_factor_over_q,
)
from qtlie.errors import DimensionMismatch, ParseError


def test_degenerate_field_is_q():
    fld = make_field(1)
    assert fld.phi == 1
    assert fld.root(5) == fld.one


def test_order_two_root_is_minus_one():
    fld = make_field(2)
    assert fld.phi == 1
    assert fld.root(1) == fld.from_rational(-1)


def test_totient_of_twelve():
    # oracle: phi(12) by direct gcd enumeration
    phi = sum(1 for j in range(1, 13) if sympy.gcd(j, 12) == 1)
    assert phi == 4
    assert make_field(12).phi == 4


@pytest.mark.parametrize("L", list(range(1, 31)))
def test_cyclotomic_polynomial_against_sympy(L):
    x = sympy.Symbol("x")
    ours = cyclotomic_polynomial(L)
    theirs = sympy.Poly(sympy.cyclotomic_poly(L, x), x).all_coeffs()[::-1]
    assert list(ours) == [int(c) for c in theirs]


def test_third_roots_sum_to_minus_one():
    fld = make_field(3)
    assert fld.root(1) + fld.root(2) == fld.from_rational(-1)


def test_fourth_root_squares_to_minus_one():
    fld = make_field(4)
    assert fld.root(2) == fld.from_rational(-1)
    assert fld.root(1) * fld.root(1) == fld.from_rational(-1)


@pytest.mark.parametrize("L", list(range(1, 25)))
def test_inverse_roots_multiply_to_one(L):
    fld = make_field(L)
    for j in range(L):
        assert fld.root(j) * fld.root(L - j) == fld.one


def test_root_power_wraps():
    fld = make_field(5)
    z = fld.root(1)
    assert z**5 == fld.one
    assert z**-1 == fld.root(4)


def test_product_of_conjugates():
    fld = make_field(4)
    i = fld.root(1)
    assert (fld.one + i) * (fld.one - i) == fld.from_rational(2)


def test_rationalized_inverse():
    fld = make_field(4)
    i = fld.root(1)
    inv = fld.one / (fld.one + i)
    assert inv == (fld.one - i) * Fraction(1, 2)
    assert inv.coeffs == (Fraction(1, 2), Fraction(-1, 2))


def test_cube_roots_cancel():
    fld = make_field(3)
    assert fld.root(1) * fld.root(2) == fld.one


def test_division_by_zero():
    fld = make_field(3)
    with pytest.raises(ZeroDivisionError):
        fld.one / fld.zero


ORACLE_FIELDS = [1, 2, 3, 4, 5, 12]
_RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=8)
_SCALARS = st.one_of(st.integers(-50, 50), _RATIONALS)


def _elements(L):
    fld = make_field(L)
    return st.lists(_RATIONALS, min_size=fld.phi, max_size=fld.phi).map(fld.element)


@pytest.mark.parametrize("L", ORACLE_FIELDS)
@given(data=st.data())
def test_rational_factor_scales_coefficients(L, data):
    fld = make_field(L)
    x = data.draw(_elements(L))
    q = data.draw(_SCALARS)
    want = x * fld.from_rational(q)
    assert x * q == want
    assert q * x == want


@pytest.mark.parametrize("L", ORACLE_FIELDS)
class TestFieldAxioms:
    @given(data=st.data())
    def test_mul_associative_and_distributive(self, L, data):
        a = data.draw(_elements(L))
        b = data.draw(_elements(L))
        c = data.draw(_elements(L))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(data=st.data())
    def test_inverses(self, L, data):
        a = data.draw(_elements(L))
        if not a.is_zero():
            assert a * a.inverse() == make_field(L).one
        assert a + (-a) == make_field(L).zero


@pytest.mark.parametrize("L", [1, 2, 3, 12])
@given(data=st.data())
def test_serialization_round_trip(L, data):
    a = data.draw(_elements(L))
    assert parse_cyclonum(a.serialize()) == a
    assert parse_cyclonum(a.serialize()).serialize() == a.serialize()


@pytest.mark.parametrize("L", [3, 4, 5, 12])
@given(data=st.data())
def test_printed_form_parses_back(L, data):
    a = data.draw(_elements(L))
    assert parse_scalar(str(a), make_field(L)) == a


def test_parse_scalar_printed_forms():
    fld = make_field(5)
    z = fld.root(1)
    assert parse_scalar("-2 - 4*z", fld) == -2 - 4 * z
    assert parse_scalar("z^3", fld) == fld.root(3)
    assert parse_scalar("1/2 - z + 3/4*z^2", fld) == Fraction(1, 2) - z + Fraction(3, 4) * fld.root(2)
    for bad in ("2*y", "z^", "1-z", "2 * z", "z*2", "--z"):
        with pytest.raises(ParseError):
            parse_scalar(bad, fld)


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_cyclonum("4:[1/1]")  # wrong coefficient count
    with pytest.raises(ParseError):
        parse_cyclonum("not a number")
    with pytest.raises(ParseError):
        parse_cyclonum("3:[1/1,0/1]", make_field(4))


def test_approx_is_close_to_unit_circle():
    z = make_field(7).root(3).approx()
    assert abs(abs(z) - 1) < 1e-9
    assert abs(z**7 - 1) < 1e-8


def test_equality_is_canonical():
    fld = make_field(6)
    # zeta_6 satisfies z^2 = z - 1; build the same value two ways
    z = fld.root(1)
    assert z * z == z - fld.one
    assert hash(z * z) == hash(z - fld.one)


@pytest.mark.parametrize("L", ORACLE_FIELDS)
@pytest.mark.parametrize("value", [0, 1, -3, Fraction(1, 2), Fraction(-7, 3)])
def test_rational_values_hash_like_their_rationals(L, value):
    fld = make_field(L)
    x = fld.from_rational(value)
    for partner in (value, Fraction(value)):
        assert x == partner and hash(x) == hash(partner)
        assert len({x, partner}) == 1
    assert len({fld.one, 1, Fraction(1)}) == 1


@given(q=_RATIONALS)
def test_cross_field_equality_compares_rational_values(q):
    values = [make_field(L).from_rational(q) for L in ORACLE_FIELDS]
    assert all(x == q and hash(x) == hash(q) for x in values)
    assert len(set(values)) == 1
    assert len({make_field(2).one, make_field(4).one}) == 1
    assert make_field(3).from_rational(Fraction(1, 2)) == make_field(12).from_rational(Fraction(1, 2))
    assert make_field(3).one != make_field(4).from_rational(2)
    i, w = make_field(4).root(1), make_field(3).root(1)
    assert i != w and w != i and i != make_field(2).one
    assert len({i, w, make_field(3).one, make_field(4).one}) == 3
    with pytest.raises(DimensionMismatch, match="mixed cyclotomic fields"):
        i + w


def _poly(*roots):
    """Monic polynomial with the given roots, low degree first."""
    out = [Fraction(1)]
    for r in roots:
        out = [-r * out[0]] + [a - r * b for a, b in zip(out[:-1], out[1:])] + [out[-1]]
    return out


@pytest.mark.parametrize("roots", [
    (1, 1, 2), (3, 3, 3, -1), (0, 5), (Fraction(2, 3), Fraction(-5, 7)), (Fraction(-1, 6), 4, -4),
    (-2, Fraction(-3, 5)),
])
def test_proper_factor_over_q_splits(roots):
    factor = proper_factor_over_q(_poly(*roots))
    if len(set(roots)) < len(roots):  # a repeated factor: the square-free part
        assert factor == _poly(*set(roots))
    else:  # x - r for a rational root r
        assert len(factor) == 2 and factor[1] == 1 and -factor[0] in roots


@pytest.mark.parametrize("poly", [
    [2, 0, 1],  # x^2 + 2
    [6, 0, -5, 0, 1],  # (x^2 - 2)(x^2 - 3): square-free, no rational root
    [Fraction(4, 3), Fraction(-404, 177), 1],
])
def test_proper_factor_over_q_finds_none(poly):
    assert proper_factor_over_q(poly) is None


def reference_powers(L):
    """z^j for phi <= j <= 2*phi-2 as Fraction tuples: the table the field kept
    while it stored one Fraction per coefficient."""
    poly = tuple(Fraction(c) for c in cyclotomic_polynomial(L))
    phi = len(poly) - 1
    powers = {}
    cur = [Fraction(1)] + [Fraction(0)] * (phi - 1)  # z^0
    for j in range(1, 2 * phi - 1):  # z^j = z * z^(j-1), reduced by Phi_L
        carry = cur[-1]
        cur = [Fraction(0)] + cur[:-1]
        if carry:
            for i in range(phi):
                cur[i] -= carry * poly[i]
        if j >= phi:
            powers[j] = tuple(cur)
    return powers


def reference_mul(L, a, b):
    """The product of two Fraction coefficient tuples of Q(zeta_L)."""
    phi = len(a)
    prod = [Fraction(0)] * (2 * phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    out = list(prod[:phi])
    for j, zj in reference_powers(L).items():
        c = prod[j]
        if c:
            for i, zji in enumerate(zj):
                if zji:
                    out[i] += c * zji
    return tuple(out)


def is_canonical(x):
    """den > 0, gcd(den, *num) == 1, and zero stored as (0, ..., 0) / 1."""
    return (len(x.num) == x.field.phi and all(type(c) is int for c in x.num + (x.den,))
            and x.den > 0 and math.gcd(x.den, *x.num) == 1 and (any(x.num) or x.den == 1))


def _operands(L):
    """Elements of Q(zeta_L), with zero and the rationals over-represented."""
    fld = make_field(L)
    return st.one_of(_elements(L), _RATIONALS.map(fld.from_rational), st.just(fld.zero))


@pytest.mark.parametrize("L", ORACLE_FIELDS)
class TestAgainstFractionOracle:
    @given(data=st.data())
    def test_ring_operations(self, L, data):
        a, b = data.draw(_operands(L)), data.draw(_operands(L))
        q = data.draw(_SCALARS)
        fa, fb = a.coeffs, b.coeffs
        cases = [
            (a * b, reference_mul(L, fa, fb)),
            (a + b, tuple(x + y for x, y in zip(fa, fb))),
            (a - b, tuple(x - y for x, y in zip(fa, fb))),
            (a - a, (Fraction(0),) * len(fa)),
            (-a, tuple(-x for x in fa)),
            (a * q, tuple(x * q for x in fa)),
            (q * a, tuple(x * q for x in fa)),
            (a + q, (fa[0] + q,) + fa[1:]),
            (q - a, (q - fa[0],) + tuple(-x for x in fa[1:])),
        ]
        for got, want in cases:
            assert got.coeffs == want
            assert is_canonical(got)

    @given(data=st.data())
    def test_inverse_division_and_powers(self, L, data):
        a, b = data.draw(_operands(L)), data.draw(_operands(L))
        one = make_field(L).one.coeffs
        n = data.draw(st.integers(0, 5))
        want = one
        for _ in range(n):
            want = reference_mul(L, want, a.coeffs)
        assert (a ** n).coeffs == want and is_canonical(a ** n)
        if b.is_zero():
            return
        inv = b.inverse()
        assert is_canonical(inv)
        assert reference_mul(L, inv.coeffs, b.coeffs) == one
        assert (a / b).coeffs == reference_mul(L, a.coeffs, inv.coeffs)
        assert reference_mul(L, (b ** -n).coeffs, (b ** n).coeffs) == one

    @given(data=st.data())
    def test_hash_agrees_with_equality(self, L, data):
        fld = make_field(L)
        a, b = data.draw(_operands(L)), data.draw(_operands(L))
        again = (a + b) - b
        assert again == a and hash(again) == hash(a)
        assert fld.element(a.coeffs) == a and hash(fld.element(a.coeffs)) == hash(a)
        if not a.is_rational():
            assert hash(a) == hash((L, a.coeffs))

    @given(data=st.data())
    def test_the_unit_multiplies_for_free(self, L, data):
        fld = make_field(L)
        one, x = fld.one, data.draw(_operands(L))
        q = data.draw(st.integers(-50, 50))
        assert x * one is x and one * x is x
        assert (x * one).coeffs == reference_mul(L, x.coeffs, one.coeffs)
        assert (one * x).coeffs == reference_mul(L, one.coeffs, x.coeffs)
        for n in (3, q):  # an int operand keeps the int path and gives a new CycloNum
            got = one * n
            assert type(got) is CycloNum and is_canonical(got)
            assert got.coeffs == reference_mul(L, one.coeffs, fld.from_rational(n).coeffs)

    @given(data=st.data())
    def test_the_zero_adds_for_free(self, L, data):
        fld = make_field(L)
        zero, x = fld.zero, data.draw(_operands(L))
        q = data.draw(_SCALARS)
        assert x + zero is x and zero + x is x and x - zero is x
        assert x + 0 is x and 0 + x is x and x - 0 is x
        fx = x.coeffs
        for got, want in ((x + zero, fx), (zero + x, fx), (x - zero, fx),
                          (zero - x, tuple(-c for c in fx)), (0 - x, tuple(-c for c in fx))):
            assert got.coeffs == want and is_canonical(got)
        # a zero that is not the shared object takes the ordinary path, with the same values
        other = CycloNum(fld, [0] * fld.phi)
        assert other is not zero
        assert (x + other).coeffs == (other + x).coeffs == fx and (other - x).coeffs == (zero - x).coeffs
        # a rational operand of zero still gives the rational
        assert (zero + q).coeffs == (q - zero).coeffs == fld.from_rational(q).coeffs


@pytest.mark.parametrize("L", ORACLE_FIELDS)
def test_unit_and_roots_are_shared_objects(L):
    fld = make_field(L)
    assert fld.from_rational(1) is fld.one and fld.coerce(1) is fld.one
    assert fld.from_rational(0) is fld.zero and fld.coerce(0) is fld.zero
    assert fld.root(0) is fld.one and fld.root(L) is fld.one
    for j in range(-L, 2 * L):
        assert fld.root(j) is fld.root(j % L)
        assert fld.root(j).coeffs == fld._zpow[j % L] and is_canonical(fld.root(j))


def test_constructor_normalises_numerators_and_denominator():
    fld = make_field(3)
    x = CycloNum(fld, [2, -4], -6)
    assert (x.num, x.den) == ((-1, 2), 3) and is_canonical(x)
    assert x == fld.element([Fraction(-1, 3), Fraction(2, 3)])
    zero = CycloNum(fld, [0, 0], -7)
    assert (zero.num, zero.den) == ((0, 0), 1) and zero == fld.zero


@pytest.mark.parametrize("num, den, error", [
    ([1], 1, DimensionMismatch),  # wrong length for phi = 2
    ([1, 2, 3], 1, DimensionMismatch),
    ([1, 0], 0, ZeroDivisionError),
    ([Fraction(1, 2), 0], 1, TypeError),
    ([1, 0], 2.0, TypeError),
])
def test_constructor_rejects_what_it_cannot_normalise(num, den, error):
    with pytest.raises(error):
        CycloNum(make_field(3), num, den)


def test_element_rejects_wrong_length():
    with pytest.raises(DimensionMismatch, match="expected 2 coefficients"):
        make_field(3).element([1, 2, 3])


@pytest.mark.parametrize("L", list(range(1, 31)))
def test_inverse_of_an_element_that_is_no_root_of_unity(L):
    fld = make_field(L)
    x = fld.one * 2 + fld.root(1) * 3 - fld.root(L // 2) * Fraction(1, 5)
    if not x.is_zero():
        assert x * x.inverse() == fld.one and is_canonical(x.inverse())
