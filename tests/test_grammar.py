"""Printed elements of the derivation, Witt and jet algebras parse back."""
from hypothesis import given, strategies as st

from qtlie.derivations import DElement, WdElement, parse_d_element, parse_witt_element
from qtlie.jetalg import JetElement, key_from_string, key_to_string, parse_jet_element
from qtlie.torus import in_R, make_torus

E2 = make_torus(2, 1, [3])  # Q(zeta_3), R = 3Z x 3Z

_small = st.integers(-4, 4)
_vec = st.tuples(_small, _small)
_nonneg = st.tuples(st.integers(0, 3), st.integers(0, 3))
_index = st.integers(1, 2)

_rat = st.fractions(min_value=-9, max_value=9, max_denominator=6)
# a + b*z with b != 0: never rational
_coeff = st.tuples(_rat, _rat.filter(bool)).map(E2.field.element)

_d_keys = st.one_of(
    st.tuples(st.just("d"), _index, _vec.map(lambda m: (3 * m[0], 3 * m[1]))),
    st.tuples(st.just("t"), _vec.filter(lambda s: not in_R(E2, s))),
)
_w_keys = st.tuples(_index, _vec)
_xd_keys = st.tuples(st.just("XD"), _nonneg.filter(lambda p: sum(p) >= 1), _index)
_xt_keys = st.tuples(st.just("XT"), _nonneg, _vec)
_jet_keys = st.one_of(_xd_keys, _xt_keys)


def _elements(cls, keys):
    return st.dictionaries(keys, _coeff, min_size=1, max_size=4).map(lambda t: cls(E2.field, t))


@given(_elements(DElement, _d_keys))
def test_derivation_elements_parse_back(a):
    assert parse_d_element(E2, str(a)) == a


@given(_elements(WdElement, _w_keys))
def test_witt_elements_parse_back(a):
    assert parse_witt_element(E2.field, str(a)) == a


@given(_elements(JetElement, _jet_keys))
def test_jet_elements_parse_back(a):
    assert parse_jet_element(E2, str(a)) == a


@given(_jet_keys)
def test_jet_keys_parse_back(key):
    assert key_from_string(key_to_string(key)) == key
