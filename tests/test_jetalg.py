import pytest

from qtlie.errors import MalformedBasisKey, ParseError
from qtlie.jetalg import (
    bracket_jets,
    canonical_keys,
    commutator_span_dims,
    filtration_degree,
    gamma_class,
    gl_d_keys,
    in_plus_ideal,
    key_from_string,
    key_to_string,
    parse_jet_element,
    project_quotient,
    xd,
    xd_along,
    xt,
)
from qtlie.matrices import ExactMatrix
from qtlie.torus import canonical_rep, class_representatives, in_R, make_torus, sigma_skew
from qtlie.verify import suite_jacobi_jets, suite_quotient, suite_span_filtration
from qtlie.xmatrix import x_power


def test_vector_field_bracket(e1):
    got = bracket_jets(e1, xd(e1, (1, 0), 2), xd(e1, (0, 1), 1))
    assert got == xd(e1, (1, 0), 1) - xd(e1, (0, 1), 2)


def test_gl_d_keys_are_the_degree_zero_vector_fields_in_row_major_order():
    assert gl_d_keys(2) == [(("XD", (1, 0), 1), (1, 1)), (("XD", (1, 0), 2), (1, 2)),
                            (("XD", (0, 1), 1), (2, 1)), (("XD", (0, 1), 2), (2, 2))]
    keys = gl_d_keys(3)
    assert [pair for _, pair in keys] == [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    spec = make_torus(3, 0, [])
    assert all(set(xd(spec, *key[1:]).terms) == {key} for key, _ in keys)


def test_mixed_bracket(e1):
    got = bracket_jets(e1, xd(e1, (1, 0), 1), xt(e1, (0, 0), (1, 2)))
    assert got == xt(e1, (1, 0), (1, 2))


def test_torus_side_bracket_keeps_raw_exponent(e1):
    got = bracket_jets(e1, xt(e1, (0, 0), (1, 2)), xt(e1, (0, 0), (2, 1)))
    assert got == xt(e1, (0, 0), (3, 3), 2)
    # the raw index reduces to the class representative only inside modules


def test_critical_jacobi_triple(e1):
    """The triple that rules out class-representative indexing on XT symbols."""
    a = xd(e1, (1, 0), 1)
    b = xt(e1, (0, 0), (1, 2))
    c = xt(e1, (0, 0), (2, 1))
    total = (
        bracket_jets(e1, bracket_jets(e1, a, b), c)
        + bracket_jets(e1, bracket_jets(e1, b, c), a)
        + bracket_jets(e1, bracket_jets(e1, c, a), b)
    )
    assert total.is_zero()


def test_jacobi_exhaustive(e1):
    assert suite_jacobi_jets(e1, max_total=3).passed


def test_jacobi_sampled_e2(e2):
    assert suite_jacobi_jets(e2, max_total=3, sample=500).passed


def test_negative_exponents_never_appear(e1):
    # 28 vector-field symbols and 40 torus-side symbols below degree 4
    kinds = [k[0] for k in canonical_keys(e1, 3)]
    assert (kinds.count("XD"), kinds.count("XT")) == (28, 40)
    keys = canonical_keys(e1, 2)
    for ka in keys:
        for kb in keys:
            a = xd(e1, ka[1], ka[2]) if ka[0] == "XD" else xt(e1, ka[1], ka[2])
            b = xd(e1, kb[1], kb[2]) if kb[0] == "XD" else xt(e1, kb[1], kb[2])
            for key in bracket_jets(e1, a, b).terms:
                assert all(x >= 0 for x in key[1])


def test_grading_is_compatible(e1):
    reps = class_representatives(e1)
    for r in reps:
        for s in reps:
            a = xt(e1, (1, 0), r)
            b = xt(e1, (0, 2), s)
            res = bracket_jets(e1, a, b)
            if res.is_zero():
                continue
            assert gamma_class(e1, res) == canonical_rep(e1, tuple(x + y for x, y in zip(r, s)))


def test_gamma_class(e1):
    zero_class = canonical_rep(e1, (0, 0))
    assert gamma_class(e1, xd(e1, (1, 0), 1)) == zero_class
    assert gamma_class(e1, xt(e1, (2, 0), (1, 2))) == (1, 2)
    mixed = xd(e1, (1, 0), 1) + xt(e1, (0, 0), (1, 2))
    assert gamma_class(e1, mixed) == "mixed"
    assert gamma_class(e1, bracket_jets(e1, xd(e1, (1, 0), 1), xd(e1, (1, 0), 1))) is None


def test_filtration_degree(e1):
    assert filtration_degree(xd(e1, (1, 0), 2)) == 0
    assert filtration_degree(xt(e1, (0, 0), (1, 2))) == 0
    assert filtration_degree(xd(e1, (1, 1), 1)) == 1
    assert in_plus_ideal(xd(e1, (1, 1), 1))
    assert not in_plus_ideal(xd(e1, (1, 0), 1))


def test_plus_ideal_closed_under_brackets(e1):
    keys = canonical_keys(e1, 2)
    plus = [k for k in keys if (k[0] == "XD" and sum(k[1]) >= 2) or (k[0] == "XT" and sum(k[1]) >= 1)]
    others = keys
    for kp in plus:
        p_elt = xd(e1, kp[1], kp[2]) if kp[0] == "XD" else xt(e1, kp[1], kp[2])
        for ko in others:
            o_elt = xd(e1, ko[1], ko[2]) if ko[0] == "XD" else xt(e1, ko[1], ko[2])
            assert in_plus_ideal(bracket_jets(e1, o_elt, p_elt))


def test_skew_coefficient_vanishes_on_central_sums(e1, e2):
    for spec in (e1, e2):
        reps = class_representatives(spec)
        for r in reps:
            for s in reps:
                rs = tuple(a + b for a, b in zip(r, s))
                if in_R(spec, rs):
                    assert sigma_skew(spec, r, s).is_zero()


def test_quotient_examples(e1):
    fld = e1.field
    g, n = project_quotient(e1, xd(e1, (1, 0), 2))
    assert g == ExactMatrix(fld, [[0, 1], [0, 0]]) and n.is_zero()
    g, n = project_quotient(e1, xt(e1, (0, 0), (1, 1)))
    assert g.is_zero() and n == ExactMatrix(fld, [[0, 1], [-1, 0]])
    g, n = project_quotient(e1, xd(e1, (1, 1), 1))
    assert g.is_zero() and n.is_zero()


def test_quotient_respects_raw_indices(e1):
    _, n1 = project_quotient(e1, xt(e1, (0, 0), (3, 3)))
    _, n2 = project_quotient(e1, xt(e1, (0, 0), (1, 1)))
    assert n1 == n2 == x_power(e1, (1, 1))


def test_quotient_is_homomorphism(e1):
    assert suite_quotient(e1).passed


def test_quotient_hits_identity(e1):
    w0 = canonical_rep(e1, (0, 0))
    _, n = project_quotient(e1, xt(e1, (0, 0), w0))
    assert n == ExactMatrix.identity(e1.field, e1.N)


def test_commutator_span_dimensions(e1, e3):
    dims = commutator_span_dims(e1, 3)
    assert dims[0] == (3, 4)  # traceless part of gl_2
    assert dims[1] == (6, 6)  # d * #{|p| = 2}
    assert all(span == full for deg, (span, full) in dims.items() if deg >= 1)
    dims3 = commutator_span_dims(e3, 2)
    assert dims3[0] == (8, 9)
    assert suite_span_filtration(e1, 3).passed
    assert suite_span_filtration(e3, 2).passed


def test_bad_keys(e1):
    with pytest.raises(MalformedBasisKey):
        xd(e1, (0, 0), 1)  # |p| must be >= 1
    with pytest.raises(MalformedBasisKey):
        xd(e1, (-1, 1), 1)
    with pytest.raises(MalformedBasisKey):
        xt(e1, (0, -1), (1, 0))
    with pytest.raises(MalformedBasisKey):
        xd(e1, (1, 0), 5)


def test_grammar(e1):
    elt = parse_jet_element(e1, "XD(1,0;2) - 2*XT(0,0;1,2)")
    assert elt == xd(e1, (1, 0), 2) - xt(e1, (0, 0), (1, 2), 2)
    assert parse_jet_element(e1, str(elt)) == elt
    with pytest.raises(ParseError):
        parse_jet_element(e1, "D(1;0,0)")
    key = ("XT", (1, 0), (-1, 2))
    assert key_from_string(key_to_string(key)) == key


def test_xd_along(e1):
    assert xd_along(e1, (1, 0), (3, -1)) == xd(e1, (1, 0), 1, 3) - xd(e1, (1, 0), 2)
