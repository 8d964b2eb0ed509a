import itertools
import random
from functools import partial

import pytest
from hypothesis import given, strategies as st

from qtlie import derivations, jetalg, verify
from qtlie.cyclo import CycloNum
from qtlie.derivations import (
    DElement,
    WdElement,
    bracket_d,
    bracket_witt,
    deriv,
    deriv_along,
    derivations_to_witt,
    inner,
    is_generic,
    parse_d_element,
    parse_witt_element,
    solenoidal_span_check,
    witt,
    witt_along,
)
from qtlie.errors import DimensionMismatch, ExponentNotInR, MalformedBasisKey, NotGeneric, ParseError
from qtlie.torus import canonical_rep, exp_add, in_R, make_torus
from qtlie.verify import suite_jacobi_derivations, suite_jacobi_witt, suite_witt_embedding
from qtlie.xmatrix import x_power

import wrong_sign_brackets as wrong_sign


def test_degree_degree_bracket(e1):
    got = bracket_d(e1, deriv(e1, 1, (2, 0)), deriv(e1, 2, (2, 2)))
    assert got == deriv(e1, 2, (4, 2), 2)


def test_degree_inner_bracket(e1):
    got = bracket_d(e1, deriv(e1, 1, (0, 0)), inner(e1, (1, 0)))
    assert got == inner(e1, (1, 0))


def test_inner_inner_bracket(e1):
    got = bracket_d(e1, inner(e1, (1, 0)), inner(e1, (0, 1)))
    assert got == inner(e1, (1, 1), 2)


def test_inner_bracket_vanishes_when_sum_central(e1):
    got = bracket_d(e1, inner(e1, (1, 0)), inner(e1, (1, 2)))
    assert got.is_zero()


def test_antisymmetry_samples(e1, e2):
    rng = random.Random(0)
    for spec in (e1, e2):
        for _ in range(40):
            elts = []
            for _ in range(2):
                if rng.random() < 0.5:
                    m = tuple(rng.randint(-2, 2) * spec.k[0] for _ in range(spec.d))
                    elts.append(deriv(spec, rng.randint(1, spec.d), m))
                else:
                    while True:
                        s = tuple(rng.randint(-3, 3) for _ in range(spec.d))
                        if not in_R(spec, s):
                            break
                    elts.append(inner(spec, s))
            a, b = elts
            assert bracket_d(spec, a, b) == -bracket_d(spec, b, a)
            assert bracket_d(spec, a, a).is_zero()


@pytest.mark.parametrize("fixture", ["e1", "e2", "e3"])
def test_jacobi_derivations(fixture, request):
    spec = request.getfixturevalue(fixture)
    assert suite_jacobi_derivations(spec, triples=200, box=4).passed


@pytest.mark.parametrize("fixture", ["e1", "e2", "e3"])
def test_jacobi_witt(fixture, request):
    spec = request.getfixturevalue(fixture)
    assert suite_jacobi_witt(spec, triples=200, box=4).passed


def test_witt_bracket_frozen(e1):
    fld = e1.field
    # [x^{(1,0)} x_1 d_1, x^{(0,1)} x_2 d_2]: both coefficients vanish
    assert bracket_witt(witt(fld, 1, (1, 0)), witt(fld, 2, (0, 1))).is_zero()
    got = bracket_witt(witt(fld, 1, (0, 0)), witt(fld, 2, (1, 1)))
    assert got == witt(fld, 2, (1, 1))
    a = witt(fld, 1, (2, -1))
    assert bracket_witt(a, a).is_zero()


def test_witt_bracket_same_direction(e1):
    fld = e1.field
    got = bracket_witt(witt(fld, 1, (1, 0)), witt(fld, 1, (0, 1)))
    # x^{m+n}(n_1 - m_1) x_1 d_1 with n_1 = 0, m_1 = 1
    assert got == witt(fld, 1, (1, 1), -1)


def test_witt_map_frozen(e1):
    assert derivations_to_witt(e1, deriv(e1, 1, (2, 0))) == witt(e1.field, 1, (1, 0), 2)
    assert derivations_to_witt(e1, deriv(e1, 2, (0, 0))) == witt(e1.field, 2, (0, 0), 2)


def test_witt_map_respects_example_bracket(e1):
    a = deriv(e1, 1, (2, 0))
    b = deriv(e1, 2, (2, 2))
    lhs = derivations_to_witt(e1, bracket_d(e1, a, b))
    rhs = bracket_witt(derivations_to_witt(e1, a), derivations_to_witt(e1, b))
    assert lhs == rhs


@pytest.mark.parametrize("fixture", ["e1", "e3"])
def test_witt_map_is_homomorphism(fixture, request):
    spec = request.getfixturevalue(fixture)
    assert suite_witt_embedding(spec, pairs=100).passed


def test_witt_map_rejects_inner_terms(e1):
    with pytest.raises(ExponentNotInR):
        derivations_to_witt(e1, inner(e1, (1, 0)))
    with pytest.raises(ExponentNotInR):
        deriv(e1, 1, (1, 0))


def test_malformed_keys(e1):
    with pytest.raises(MalformedBasisKey):
        inner(e1, (2, 0))  # central exponent
    with pytest.raises(MalformedBasisKey):
        deriv(e1, 3, (0, 0))  # index out of range


def test_adjoint_matches_matrix_bracket(e1):
    """Inner-part brackets agree with matrix commutators after class reduction."""
    noncentral = [
        s for s in itertools.product(range(-2, 3), repeat=2) if not in_R(e1, s)
    ]
    for r in noncentral:
        xr = x_power(e1, r)
        for s in noncentral:
            xs = x_power(e1, s)
            res = bracket_d(e1, inner(e1, r), inner(e1, s))
            commut = xr * xs - xs * xr
            if res.is_zero():
                assert commut.is_zero(), (r, s)
            else:
                ((_, key_exp),) = [(k[0], k[1]) for k in res.terms]
                coeff = res.terms[("t", key_exp)]
                assert key_exp == exp_add(r, s)
                assert commut == x_power(e1, canonical_rep(e1, key_exp)).scale(coeff)


def test_is_generic(e1_wide):
    fld = e1_wide.field
    assert is_generic(e1_wide, (fld.one, fld.root(1)))
    assert not is_generic(e1_wide, (1, 2))
    spec = make_torus(4, 0, [], L=3)  # phi(3) = 2 < 4 caps the rational rank
    mu = (spec.field.one, spec.field.root(1), spec.field.from_rational(2), spec.field.root(2))
    assert not is_generic(spec, mu)


def test_solenoidal_closure(e1_wide):
    mu = (e1_wide.field.one, e1_wide.field.root(1))
    assert solenoidal_span_check(e1_wide, mu, "quantum", 1).closed
    assert solenoidal_span_check(e1_wide, mu, "commutative", 2).closed
    with pytest.raises(NotGeneric):
        solenoidal_span_check(e1_wide, (1, 2), "quantum", 1)
    with pytest.raises(ParseError, match="^unknown flavor 'sideways'$"):
        solenoidal_span_check(e1_wide, mu, "sideways", 1)


def test_is_generic_rejects_a_vector_of_the_wrong_length(e1_wide):
    with pytest.raises(DimensionMismatch, match="^mu must have d entries$"):
        is_generic(e1_wide, (1, 2, 3))


def test_solenoidal_commutative_closure_names_the_first_pair(e1_wide, monkeypatch):
    mu = (e1_wide.field.one, e1_wide.field.root(1))
    monkeypatch.setattr(derivations, "bracket_witt", lambda a, b: bracket_witt(a, b).scale(2))
    report = solenoidal_span_check(e1_wide, mu, "commutative", 1)
    assert not report.closed
    assert (report.cases, report.counterexample) == (2, ((-1, -1), (-1, 0)))


def _is_inner(x) -> bool:
    return any(key[0] == "t" for key in x.terms)


@pytest.mark.parametrize("doubled,cases,counterexample", [
    (lambda a, b: True, 2, ((-2, -2), (-2, 0))),  # degree with degree
    (lambda a, b: _is_inner(b) and not _is_inner(a), 10, ((-2, -2), (-1, -1))),  # degree with inner
    (lambda a, b: _is_inner(a), 155, ((-1, -1), (-1, 0))),  # inner with inner
], ids=["degree-degree", "degree-inner", "inner-inner"])
def test_solenoidal_quantum_closure_names_the_first_pair(e1_wide, monkeypatch, doubled, cases, counterexample):
    """The bracket doubled on one kind of pair fails the closure there, and only there."""
    mu = (e1_wide.field.one, e1_wide.field.root(1))
    monkeypatch.setattr(derivations, "bracket_d",
                        lambda spec, a, b: bracket_d(spec, a, b).scale(2 if doubled(a, b) else 1))
    report = solenoidal_span_check(e1_wide, mu, "quantum", 1)
    assert not report.closed
    assert (report.cases, report.counterexample) == (cases, counterexample)


def test_deriv_along_expands(e1):
    got = deriv_along(e1, (2, -1), (2, 0))
    assert got == deriv(e1, 1, (2, 0), 2) - deriv(e1, 2, (2, 0))
    fld = e1.field
    assert witt_along(fld, (0, 3), (1, 1)) == witt(fld, 2, (1, 1), 3)


def test_element_grammar(e1):
    elt = parse_d_element(e1, "2*D(1;2,0) - 1/2*T(1,0) + T(0,1)")
    want = deriv(e1, 1, (2, 0), 2) + inner(e1, (0, 1)) - inner(e1, (1, 0)).scale(
        e1.field.from_rational(1) / e1.field.from_rational(2)
    )
    assert elt == want
    welt = parse_witt_element(e1.field, "W(1;1,0) - 3*W(2;0,-1)")
    assert welt == witt(e1.field, 1, (1, 0)) - witt(e1.field, 2, (0, -1), 3)
    with pytest.raises(ParseError):
        parse_d_element(e1, "W(1;0,0)")
    with pytest.raises(ParseError):
        parse_d_element(e1, "D(oops)")


def test_element_string_round_trip(e1):
    elt = deriv(e1, 1, (2, 0), 2) - inner(e1, (1, 0))
    assert parse_d_element(e1, str(elt)) == elt


WRONG_LENGTH = [
    ("d", "D(1;2,0,0)", "T(1,0)"),
    ("d", "T(1,0,0)", "T(1,0)"),
    ("d", "T(1)", "T(1,0)"),
    ("d", "D(1;2)", "T(1,0)"),
    ("wd", "W(1;1)", "W(2;0,1)"),
    ("wd", "W(3;1,0)", "W(2;0,1)"),
]


@pytest.mark.parametrize("algebra,left,right", WRONG_LENGTH)
def test_wrong_length_symbols_are_rejected(e1, algebra, left, right):
    with pytest.raises(MalformedBasisKey):
        if algebra == "d":
            bracket_d(e1, parse_d_element(e1, left), parse_d_element(e1, right))
        else:
            bracket_witt(parse_witt_element(e1.field, left), parse_witt_element(e1.field, right))


def test_key_constructors_check_length_and_index(e1):
    fld = e1.field
    with pytest.raises(MalformedBasisKey):
        deriv(e1, 1, (2, 0, 0))
    with pytest.raises(MalformedBasisKey):
        inner(e1, (1,))
    with pytest.raises(MalformedBasisKey):
        deriv_along(e1, (1, 0), (2, 0, 0))
    with pytest.raises(MalformedBasisKey):
        witt(fld, 0, (1, 0))
    with pytest.raises(MalformedBasisKey):
        witt_along(fld, (0, 0, 1), (1, 0))
    with pytest.raises(MalformedBasisKey):
        bracket_witt(witt(fld, 1, (1,)), witt(fld, 1, (0, 1)))


# _Combo.bracket on E1, E2 and E4 (L = 4): the fields Q, Q(zeta_3) and Q(i);
# and on k = 4 over L = 12, where phi = 4 < L and skews meet roots z^j with j >= phi
SUM_SPECS = [make_torus(2, 1, [2]), make_torus(2, 1, [3]), make_torus(2, 1, [4], 4), make_torus(2, 1, [4], 12)]
SUM_IDS = ["e1", "e2", "e4", "k4-L12"]


def reference_bracket(x, y, key_bracket):
    """[x, y] as the plain bilinear loop: every product through from_terms,
    which sums and drops zeros."""
    return x.from_terms(x.field, (
        (key, cx * cy * coeff)
        for kx, cx in x.terms.items() for ky, cy in y.terms.items()
        for key, coeff in key_bracket(kx, ky)))


def _algebra(spec, name):
    """(element class, key bracket, key strategy) of one algebra over `spec`."""
    small = st.integers(-2, 2)
    vec = st.tuples(*[small] * spec.d)
    index = st.integers(1, spec.d)
    if name == "d":
        central = vec.map(lambda c: tuple(ci * bi for ci, bi in zip(c, spec.B)))
        keys = st.one_of(st.builds(lambda i, m: ("d", i, m), index, central),
                         vec.filter(lambda s: not in_R(spec, s)).map(lambda s: ("t", s)))
        return DElement, partial(derivations._bracket_d_keys, spec), keys
    if name == "witt":
        return WdElement, derivations._bracket_witt_keys, st.tuples(index, vec)
    poly = st.tuples(*[st.integers(0, 2)] * spec.d)
    keys = st.one_of(st.builds(lambda p, j: ("XD", p, j), poly.filter(any), index),
                     st.builds(lambda l, s: ("XT", l, s), poly, vec))
    return jetalg.JetElement, partial(jetalg._bracket_jet_keys, spec), keys


@pytest.mark.parametrize("spec", SUM_SPECS, ids=SUM_IDS)
@pytest.mark.parametrize("name", ["d", "witt", "jets"])
@given(data=st.data())
def test_bracket_sum_is_the_sum_of_the_brackets(spec, name, data):
    """A sum of brackets, each through `bracket`, is the sum of the reference
    brackets, cancelling pairs included; the bracket of x + y with itself,
    one call in which every coefficient cancels, is zero."""
    fld = spec.field
    cls, key_bracket, keys = _algebra(spec, name)
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    coeffs = st.one_of(st.just(fld.one), st.lists(rational, min_size=fld.phi, max_size=fld.phi).map(fld.element))
    # few keys, so that terms repeat within an element and across the pairs
    pool = data.draw(st.lists(keys, min_size=1, max_size=3, unique=True))
    elements = st.lists(st.tuples(st.sampled_from(pool), coeffs), max_size=4).map(
        partial(cls.from_terms, fld))
    pairs = data.draw(st.lists(st.tuples(elements, elements), max_size=4))
    # cancelling terms: a pair followed by its swap, or by its negation
    for x, y in data.draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else ():
        pairs.append(data.draw(st.sampled_from([(y, x), (x, -y), (-x, y)])))
    want, got = cls(fld), cls(fld)
    for x, y in pairs:
        want = want + reference_bracket(x, y, key_bracket)
        got = got + x.bracket(y, key_bracket)
    assert type(got) is cls and got == want
    for x, y in pairs:
        one = x.bracket(y, key_bracket)
        assert one == reference_bracket(x, y, key_bracket)
        assert all(not c.is_zero() for c in one.terms.values())
        assert (x + y).bracket(x + y, key_bracket).terms == {}


@pytest.mark.parametrize("spec", SUM_SPECS, ids=SUM_IDS)
@pytest.mark.parametrize("name", ["d", "witt", "jets"])
@given(data=st.data())
def test_bracket_keys_pass_their_validators_unchanged(spec, name, data):
    """Key brackets build their keys as plain tuples; every such key is one
    that the algebra's own key constructor accepts and returns as it is."""
    cls, key_bracket, keys = _algebra(spec, name)
    ctx = spec.d if cls is jetalg.JetElement else spec
    pool = data.draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    for kx in pool:
        for ky in pool:
            for key, _ in key_bracket(kx, ky):
                tag, args = cls._symbol(key)
                assert cls._SYMBOLS[tag][1](ctx, *args) == key


# The int path of _Combo.bracket: integer coefficients ride as Python ints and
# become canonical CycloNums only in the result.

def _int_coeffs(fld):
    """The unit, 2, -3 and general field elements, as drawn coefficients."""
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.one_of(st.sampled_from([fld.one, fld.from_rational(2), fld.from_rational(-3)]),
                     st.lists(rational, min_size=fld.phi, max_size=fld.phi).map(fld.element))


@pytest.mark.parametrize("spec", SUM_SPECS, ids=SUM_IDS)
@pytest.mark.parametrize("name", ["d", "witt", "jets"])
@given(data=st.data())
def test_bracket_results_hold_only_field_elements(spec, name, data):
    fld = spec.field
    cls, key_bracket, keys = _algebra(spec, name)
    pool = data.draw(st.lists(keys, min_size=1, max_size=3, unique=True))
    elements = st.lists(st.tuples(st.sampled_from(pool), _int_coeffs(fld)), max_size=4).map(
        partial(cls.from_terms, fld))
    pairs = data.draw(st.lists(st.tuples(elements, elements), min_size=1, max_size=3))
    xs, ys = zip(*pairs)
    results = [sum(xs, cls(fld)).bracket(sum(ys, cls(fld)), key_bracket)]
    for x, y in pairs:
        got, want = x.bracket(y, key_bracket), reference_bracket(x, y, key_bracket)
        assert got == want and list(got.terms) == list(want.terms) and hash(got) == hash(want)
        results.append(got)
    for got in results:
        assert all(type(c) is CycloNum and not c.is_zero() for c in got.terms.values())


@pytest.mark.parametrize("spec", SUM_SPECS, ids=SUM_IDS)
def test_integer_terms_that_cancel_drop_their_key(spec):
    fld = spec.field
    # [x^(1,0) x_1 d_1, x^(1,1) x_1 d_1] = (n_1 - m_1) x^(2,1) x_1 d_1 = 0
    assert bracket_witt(witt(fld, 1, (1, 0)), witt(fld, 1, (1, 1))).terms == {}
    x = witt(fld, 1, (1, 0), 2) + witt(fld, 2, (0, 1), -3)
    y = witt(fld, 2, (2, 1), -3) + witt(fld, 1, (1, 2), 2)
    assert not bracket_witt(x, y).is_zero()
    # [x + y, x + y]: every integer coefficient cancels to the int 0
    assert bracket_witt(x + y, x + y).terms == {}
    # [x + z, 2x] = 2 [z, x]: only the terms of z survive
    z = witt(fld, 2, (1, 1), 2)
    got = bracket_witt(x + z, x.scale(2))
    want = bracket_witt(z, x).scale(2)
    assert got == want and list(got.terms) == list(want.terms)


MIXED_KEY = {
    # 2*D(1;0,0) + T(1,0) against -3*T(1,1) + T(0,1): T(1,1) is reached by
    # [D(1;0,0), T(1,1)], an int, and by the skew of [T(1,0), T(0,1)]
    "d": (lambda spec: deriv(spec, 1, (0, 0), 2) + inner(spec, (1, 0)),
          lambda spec: inner(spec, (1, 1), -3) + inner(spec, (0, 1)),
          ("t", (1, 1))),
    # the same with jets: XT((1,0);1,1) from [XD((1,0);1), XT((0,0);1,1)] and
    # from the skew of [XT((0,0);1,0), XT((1,0);0,1)]
    "jets": (lambda spec: jetalg.xd(spec, (1, 0), 1, 2) + jetalg.xt(spec, (0, 0), (1, 0)),
             lambda spec: jetalg.xt(spec, (0, 0), (1, 1), -3) + jetalg.xt(spec, (1, 0), (0, 1)),
             ("XT", (1, 0), (1, 1))),
}


@pytest.mark.parametrize("spec", SUM_SPECS, ids=SUM_IDS)
@pytest.mark.parametrize("name", ["d", "jets"])
def test_a_key_reached_by_an_int_and_a_skew_matches_the_reference(spec, name):
    _, key_bracket, _ = _algebra(spec, name)
    make_x, make_y, key = MIXED_KEY[name]
    x, y = make_x(spec), make_y(spec)
    kinds = {type(coeff) for kx in x.terms for ky in y.terms
             for k, coeff in key_bracket(kx, ky) if k == key}
    assert kinds == {int, CycloNum}
    want = reference_bracket(x, y, key_bracket)
    got = x.bracket(y, key_bracket)
    assert key in got.terms and got == want and list(got.terms) == list(want.terms)
    assert all(type(c) is CycloNum for c in got.terms.values())


@pytest.fixture
def field_ops(monkeypatch):
    """Counts CycloNum multiplications and additions, reflected ones included."""
    calls = []
    for attr in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def counted(self, other, op=getattr(CycloNum, attr)):
            calls.append(1)
            return op(self, other)

        monkeypatch.setattr(CycloNum, attr, counted)
    return calls


def test_witt_jacobi_suite_does_no_field_arithmetic(e2, field_ops):
    assert suite_jacobi_witt(e2, triples=100).passed
    assert field_ops == []


def test_sampled_jet_suite_brackets_each_triple_three_times(e2, monkeypatch):
    calls = []

    def counted(spec, a, b, bracket=jetalg.bracket_jets):
        calls.append(1)
        return bracket(spec, a, b)

    monkeypatch.setattr(jetalg, "bracket_jets", counted)
    monkeypatch.setattr(verify, "bracket_jets", counted)
    assert verify.suite_jacobi_jets(e2, 3, sample=100).passed
    assert len(calls) == 300


# The key-level Jacobi sum of the four Jacobi suites (verify._jacobi_sum)
# against the outer brackets built with reference_bracket, with the right key
# brackets and with the wrong-sign ones of tests/wrong_sign_brackets.py.

WRONG_SIGN = {"d": lambda spec: partial(wrong_sign.d_keys, spec),
              "witt": lambda spec: wrong_sign.witt_keys,
              "jets": lambda spec: partial(wrong_sign.jet_keys, spec)}


def _nonzero(terms, fld):
    """The nonzero coefficients of a _jacobi_sum result, as field elements."""
    return {key: fld.coerce(c) for key, c in terms.items() if (c if type(c) is int else not c.is_zero())}


def _reference_jacobi(cls, fld, key_bracket, a, b, c):
    x, y, z = (cls._term(fld, key, 1) for key in (a, b, c))
    total = cls(fld)
    for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
        total = total + reference_bracket(reference_bracket(p, q, key_bracket), r, key_bracket)
    return total


def _inners(cls, fld, key_bracket):
    """The inner brackets as key-bracket terms, and as one-term elements bracketed (CycloNum terms)."""
    return (key_bracket,
            lambda x, y: cls._term(fld, x, 1).bracket(cls._term(fld, y, 1), key_bracket).terms.items())


@pytest.mark.parametrize("spec", SUM_SPECS, ids=SUM_IDS)
@pytest.mark.parametrize("name", ["d", "witt", "jets"])
@given(data=st.data())
def test_the_key_level_jacobi_sum_is_the_sum_of_the_outer_brackets(spec, name, data):
    fld = spec.field
    cls, right, keys = _algebra(spec, name)
    a, b, c = data.draw(st.tuples(keys, keys, keys))
    for key_bracket in (right, WRONG_SIGN[name](spec)):
        want = _reference_jacobi(cls, fld, key_bracket, a, b, c).terms
        for inner in _inners(cls, fld, key_bracket):
            assert _nonzero(verify._jacobi_sum(key_bracket, inner, a, b, c), fld) == want
        if key_bracket is right:
            assert want == {}


# the witness triples of tests/test_bracket_checks.py, whose sums are nonzero under the wrong signs
WITNESSES = {"d": ("D(2;-2,4)", "D(2;4,-4)", "D(1;0,2)"),
             "witt": ("W(2;0,-2)", "W(1;-2,-1)", "W(1;-2,-3)"),
             "jets": ("XD(1,2;1)", "XD(2,0;2)", "XT(3,0;2,1)")}


@pytest.mark.parametrize("name", ["d", "witt", "jets"])
def test_a_wrong_sign_gives_the_reference_nonzero_jacobi_sum(e1, name):
    fld = e1.field
    cls, _, _ = _algebra(e1, name)
    key_bracket = WRONG_SIGN[name](e1)
    ctx = e1.d if cls is jetalg.JetElement else e1
    a, b, c = (cls._key(ctx, text) for text in WITNESSES[name])
    want = _reference_jacobi(cls, fld, key_bracket, a, b, c).terms
    assert want != {}
    for inner in _inners(cls, fld, key_bracket):
        assert _nonzero(verify._jacobi_sum(key_bracket, inner, a, b, c), fld) == want


@pytest.fixture
def validated_keys(monkeypatch):
    """Wraps the three key brackets so that every key they are given must pass
    its algebra's validator unchanged; returns the keys seen, per algebra."""
    seen = {"d": [], "witt": [], "jets": []}
    # algebra -> (module, key bracket, element class, validator context from the bracket's arguments)
    brackets = {"d": (derivations, "_bracket_d_keys", DElement, lambda args: args[0]),
                "witt": (derivations, "_bracket_witt_keys", WdElement, lambda args: None),
                "jets": (jetalg, "_bracket_jet_keys", jetalg.JetElement, lambda args: args[0].d)}
    for name, (module, attr, cls, context) in brackets.items():
        def checked(*args, bracket=getattr(module, attr), cls=cls, context=context, keys=seen[name]):
            for key in args[-2:]:
                tag, body = cls._symbol(key)
                assert cls._SYMBOLS[tag][1](context(args), *body) == key, key
                keys.append(key)
            return bracket(*args)

        monkeypatch.setattr(module, attr, checked)
    return seen


@pytest.mark.parametrize("fixture", ["e2", "commutative"])
def test_drawn_derivation_keys_pass_their_validators_unchanged(fixture, request, validated_keys):
    spec = request.getfixturevalue(fixture)
    assert suite_jacobi_derivations(spec, triples=100).passed
    kinds = {key[0] for key in validated_keys["d"]}
    assert kinds == ({"d", "t"} if spec.z else {"d"})


def test_drawn_witt_keys_pass_their_validators_unchanged(e2, validated_keys):
    assert suite_jacobi_witt(e2, triples=100).passed
    assert validated_keys["witt"]


def test_drawn_jet_keys_pass_their_validators_unchanged(e2, validated_keys):
    assert verify.suite_jacobi_jets(e2, 3, sample=100).passed
    raw = [key for key in validated_keys["jets"] if key[0] == "XT" and canonical_rep(e2, key[2]) != key[2]]
    assert raw  # raw-shifted torus indices were drawn


def test_derivation_and_witt_suites_build_no_elements(e2, monkeypatch):
    def unused(*args):
        raise AssertionError("the Jacobi suites bracket keys, not elements")

    for module in (derivations, verify):
        monkeypatch.setattr(module, "bracket_d", unused)
        monkeypatch.setattr(module, "bracket_witt", unused)
    monkeypatch.setattr(derivations._Combo, "bracket", unused)
    assert suite_jacobi_derivations(e2, triples=100).passed
    assert suite_jacobi_witt(e2, triples=100).passed
