from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from qtlie.cyclo import (
    arith,
    cyclotomic_polynomial,
    make_field,
    parse_cyclonum,
    parse_scalar,
    proper_factor_over_q,
)
from qtlie.errors import ParseError


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


def test_arith_dispatch():
    fld = make_field(4)
    a, b = fld.root(1), fld.from_rational(2)
    assert arith(a, b, "add") == a + b
    assert arith(a, b, "sub") == a - b
    assert arith(a, b, "mul") == a * b
    assert arith(a, b, "div") == a * b.inverse()
    with pytest.raises(ValueError):
        arith(a, b, "pow")


def _elements(L):
    fld = make_field(L)
    rat = st.fractions(min_value=-20, max_value=20, max_denominator=8)
    return st.lists(rat, min_size=fld.phi, max_size=fld.phi).map(fld.element)


@pytest.mark.parametrize("L", [3, 4, 5, 12])
@given(data=st.data())
def test_rational_factor_scales_coefficients(L, data):
    fld = make_field(L)
    x = data.draw(_elements(L))
    q = data.draw(st.one_of(st.integers(-50, 50),
                            st.fractions(min_value=-20, max_value=20, max_denominator=8)))
    want = x * fld.from_rational(q)
    assert x * q == want
    assert q * x == want


@pytest.mark.parametrize("L", [3, 4, 5, 12])
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


@pytest.mark.parametrize("L", [1, 2, 3, 4, 12])
@pytest.mark.parametrize("value", [0, 1, -3, Fraction(1, 2), Fraction(-7, 3)])
def test_rational_values_hash_like_their_rationals(L, value):
    fld = make_field(L)
    x = fld.from_rational(value)
    for partner in (value, Fraction(value)):
        assert x == partner and hash(x) == hash(partner)
        assert len({x, partner}) == 1
    assert len({fld.one, 1, Fraction(1)}) == 1


def test_cross_field_equality_compares_rational_values():
    assert len({make_field(2).one, make_field(4).one}) == 1
    assert make_field(3).from_rational(Fraction(1, 2)) == make_field(12).from_rational(Fraction(1, 2))
    assert make_field(3).one != make_field(4).from_rational(2)
    i, w = make_field(4).root(1), make_field(3).root(1)
    assert i != w and w != i and i != make_field(2).one
    assert len({i, w, make_field(3).one, make_field(4).one}) == 3
    with pytest.raises(ValueError, match="mixed cyclotomic fields"):
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
