"""The pair-relation and Jacobi checks: the antisymmetry they rely on, and their witnesses.

The witnesses below are pinned: the reports, case counts and messages are
the ones each check gave when it still computed every ordered pair.
"""
import pytest

from qtlie import derivations, jetalg, repn, torus, verify, xmatrix
from qtlie.errors import InvalidModuleData, InvariantViolated
from qtlie.matrices import ExactMatrix
from qtlie.repn import GLdGLNModule, graded_regular_glN, natural_gld, preset_pullback, verify_representation
from qtlie.torus import class_representatives, sigma_skew

import wrong_sign_brackets as wrong_sign


@pytest.mark.parametrize("fixture", ["e1", "e2", "e3"])
def test_key_bracket_is_antisymmetric(fixture, request):
    spec = request.getfixturevalue(fixture)
    keys = jetalg.canonical_keys(spec, 3)
    for ka in keys:
        assert jetalg.bracket_keys(spec, ka, ka).is_zero(), ka
        for kb in keys:
            assert jetalg.bracket_keys(spec, ka, kb) == -jetalg.bracket_keys(spec, kb, ka), (ka, kb)


@pytest.mark.parametrize("fixture", ["e1", "e2", "e3"])
def test_sigma_skew_is_antisymmetric(fixture, request):
    spec = request.getfixturevalue(fixture)
    reps = class_representatives(spec)
    for r in reps:
        for s in reps:
            assert sigma_skew(spec, r, s) == -sigma_skew(spec, s, r), (r, s)


def test_a_corrupted_pairing_violates_the_R_invariant_in_every_bracket(e1, monkeypatch):
    """sigma_skew alone checks that [t^r, t^s] vanishes when r + s lies in R."""
    r, s = (1, 0), (-1, 0)  # r + s = 0 lies in R
    brackets = [
        lambda: derivations.bracket_d(e1, derivations.inner(e1, r), derivations.inner(e1, s)),
        lambda: jetalg.bracket_jets(e1, jetalg.xt(e1, (0, 0), r), jetalg.xt(e1, (0, 0), s)),
        lambda: xmatrix.glN_bracket(e1, r, s),
    ]
    assert [bracket().is_zero() for bracket in brackets] == [True, True, True]
    # a pairing that is no longer symmetric on r, s: the skew there is 1 - (-1) = 2
    monkeypatch.setattr(torus, "sigma_hat", lambda spec, m, n: spec.field.from_rational(m[0]))
    for bracket in brackets:
        with pytest.raises(InvariantViolated, match=r"sigma skew at \(1, 0\), \(-1, 0\) .* lies in R"):
            bracket()


def test_gl_d_witness(e1):
    v_mats = natural_gld(e1)
    v_mats[(2, 1)] = v_mats[(2, 1)].scale(2)
    wmats, wclasses = graded_regular_glN(e1)
    with pytest.raises(InvalidModuleData) as exc:
        GLdGLNModule(e1, v_mats, wmats, wclasses)
    assert str(exc.value) == "V relations fail at (1,2),(2,1)"


def test_gl_n_witness(e2):
    wmats, wclasses = graded_regular_glN(e2)
    wmats[(2, 2)] = wmats[(2, 2)].scale(3)
    with pytest.raises(InvalidModuleData) as exc:
        GLdGLNModule(e2, natural_gld(e2), wmats, wclasses)
    assert str(exc.value) == "W relations fail at (1, 2),(1, 3)"


def test_representation_witness(e2):
    _, rep = preset_pullback(e2)
    key = jetalg.key_from_string("XT(0,0;1,3)")
    rep = repn.GRepresentation(rep.space, {**rep.action, key: rep.action[key].scale(2)})
    report = verify_representation(e2, rep, 2)
    assert (report.passed, report.cases, report.first_failure) == (
        False, 1317, "[XT(0,0;1,1), XT(0,0;1,3)] entry (0, 10)")


def test_passing_representation_counts_every_ordered_pair(e1):
    report = verify_representation(e1, preset_pullback(e1)[1], 3)
    assert (report.passed, report.cases) == (True, 4624)  # 68 canonical keys, squared


def test_quotient_witness(e1, monkeypatch):
    def transposed_gl_d(spec, a):
        gl_d, gl_n = jetalg.project_quotient(spec, a)
        return gl_d.transpose(), gl_n

    monkeypatch.setattr(verify, "project_quotient", transposed_gl_d)
    assert verify.suite_quotient(e1).to_dict() == {
        "suite": "quotient", "cases": 2, "failures": [{"pair": ["XD(1,0;1)", "XD(1,0;2)"]}],
        "passed": False}


def test_jacobi_witt_witness(e1, monkeypatch):
    monkeypatch.setattr(derivations, "_bracket_witt_keys", wrong_sign.witt_keys)
    assert verify.suite_jacobi_witt(e1).to_dict() == {
        "suite": "jacobi-witt", "cases": 200,
        "failures": [{"triple": ["W(2;0,-2)", "W(1;-2,-1)", "W(1;-2,-3)"], "index": 0}],
        "passed": False}


def test_jacobi_derivations_witness(e1, monkeypatch):
    monkeypatch.setattr(derivations, "_bracket_d_keys", wrong_sign.d_keys)
    assert verify.suite_jacobi_derivations(e1).to_dict() == {
        "suite": "jacobi-derivations", "cases": 200,
        "failures": [{"triple": ["D(2;-2,4)", "D(2;4,-4)", "D(1;0,2)"], "index": 4}],
        "passed": False}


@pytest.fixture
def wrong_jet_sign(monkeypatch):
    monkeypatch.setattr(jetalg, "_bracket_jet_keys", wrong_sign.jet_keys)


def test_jacobi_jets_sampled_witness(e1, wrong_jet_sign):
    assert verify.suite_jacobi_jets(e1, sample=200).to_dict() == {
        "suite": "jacobi-jets", "cases": 5,
        "failures": [{"triple": ["XD(1,2;1)", "XD(2,0;2)", "XT(3,0;2,1)"]}],
        "passed": False}


def test_jacobi_jets_exhaustive_witness(e1, wrong_jet_sign):
    assert verify.suite_jacobi_jets(e1).to_dict() == {
        "suite": "jacobi-jets", "cases": 17,
        "failures": [{"triple": ["XD(0,1;1)", "XD(0,1;2)", "XT(0,0;1,1)"]}],
        "passed": False}


def test_representation_check_takes_one_commutator_per_unordered_pair(e1, commutator_calls):
    _, rep = preset_pullback(e1)
    commutator_calls.clear()  # building the pullback checks its module data
    assert verify_representation(e1, rep, 3).passed
    assert len(commutator_calls) == 8 * 7 // 2  # the 8 degree-zero symbols act; the rest are skipped


def test_module_data_check_takes_one_commutator_per_unordered_pair(e2, commutator_calls):
    wmats, wclasses = graded_regular_glN(e2)
    GLdGLNModule(e2, natural_gld(e2), wmats, wclasses)
    assert len(commutator_calls) == 4 * 3 // 2 + 9 * 8 // 2  # d^2 = 4 for gl_d, N^2 = 9 for gl_N


def test_first_bracket_failure_reports_the_row_major_case_count(e1):
    keys = [(i, j) for i in (1, 2) for j in (1, 2)]

    def check(mats):  # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj
        def bracket(a, b):
            (i, j), (k, l) = a, b
            want = ExactMatrix.zeros(e1.field, 2)
            if j == k:
                want = want + mats[(i, l)]
            if l == i:
                want = want - mats[(k, j)]
            return want

        return repn.first_bracket_failure(keys, mats.__getitem__, bracket)

    mats = natural_gld(e1)
    assert check(mats) == (16, None)
    # with the (2,1) unit doubled, ((1,2),(2,1)) is the first failing
    # ordered pair: the 7th of the 16 in row-major order
    mats[(2, 1)] = mats[(2, 1)].scale(2)
    cases, failure = check(mats)
    assert (cases, failure[:2]) == (7, ((1, 2), (2, 1)))
