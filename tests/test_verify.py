"""The suite registry: config keys map onto suite parameters, defaults live in the suites.

A suite that fails names its failure in a fixed record.
"""
import inspect

import pytest

from qtlie import verify
from qtlie.cuspidal import TensorFieldModule, weight_multiplicities
from qtlie.derivations import bracket_witt
from qtlie.jetalg import project_quotient
from qtlie.matrices import ExactMatrix
from qtlie.repn import preset_pullback, truncated_polynomial_rep
from qtlie.verify import SUITES, run_suites


@pytest.mark.parametrize("name", list(SUITES))
def test_config_keys_map_onto_exactly_the_suite_parameters(name):
    suite, params = SUITES[name]
    expected = [p for p in inspect.signature(suite).parameters if p != "spec"]
    assert sorted(params.values()) == sorted(expected)


@pytest.mark.parametrize("name", ["witt-embedding", "jacobi-derivations"])
def test_an_empty_config_keeps_the_suite_defaults(e1, name):
    suite, _ = SUITES[name]
    [report] = run_suites(e1, [name], {})
    assert report.to_dict() == suite(e1).to_dict()
    assert report.wall_time > 0


def test_present_config_keys_reach_the_suite_and_others_are_ignored(e1):
    [report] = run_suites(e1, ["jacobi-derivations"], {"samples": 3, "flip": True, "degree": 9})
    assert report.cases == 3 and report.passed


def test_a_run_builds_the_standard_pullback_once(commutative, monkeypatch):
    """The six module suites of one run_suites call share one (V, W) pair and
    its pullback; each call builds its own, and so does a suite run alone."""
    calls = []

    def counted(spec, name="natural-regular"):
        calls.append((spec, name))
        return preset_pullback(spec, name)

    monkeypatch.setattr(verify, "preset_pullback", counted)
    reports = {r.suite: r.to_dict() for r in run_suites(commutative, ["all"])}
    assert list(reports) == list(SUITES)  # each CLI key is its suite's report name
    assert calls == [(commutative, "natural-regular")]
    again = [r.to_dict() for r in run_suites(commutative, ["functor-axioms", "cuspidality"])]
    assert again == [reports["functor-axioms"], reports["cuspidality"]] and len(calls) == 2
    alone = {r.suite: r.to_dict() for r in (suite(commutative) for suite, _ in SUITES.values())}
    assert alone == reports and len(calls) == 2 + 6


# ---------------------------------------------------------------------------
# failure records: each suite, with one function it calls broken, fails and names the failure
# ---------------------------------------------------------------------------


def test_xmatrix_identity_reports_a_short_span(e1, monkeypatch):
    monkeypatch.setattr(verify, "span_dimension", lambda spec: 3)
    report = verify.suite_xmatrix_identity(e1)
    assert not report.passed
    assert report.failures == [{"span_dimension": 3, "expected": 4}]


def test_witt_embedding_reports_the_first_pair(e1, monkeypatch):
    monkeypatch.setattr(verify, "bracket_witt", lambda a, b: bracket_witt(a, b).scale(2))
    report = verify.suite_witt_embedding(e1)
    assert not report.passed
    assert report.failures == [{"pair": ["2*D(1;4,-6) - 2*D(2;4,-6)", "D(1;2,-4)"], "index": 0}]


def test_quotient_reports_a_missing_summand(e1, monkeypatch):
    """With the gl_N part projected to zero the brackets still agree, but the image is gl_d alone."""
    monkeypatch.setattr(verify, "project_quotient",
                        lambda spec, a: (project_quotient(spec, a)[0], ExactMatrix.zeros(spec.field, spec.N)))
    report = verify.suite_quotient(e1)
    assert not report.passed
    assert (report.cases, report.failures) == (99, [{"surjectivity": "image does not span gl_d + gl_N"}])


def test_quotient_reports_a_symbol_outside_the_kernel(e1, monkeypatch):
    """Every symbol taken for positive degree: the first, XD(0,1;1), projects to E_11."""
    monkeypatch.setattr(verify, "key_degree", lambda key: 1)
    report = verify.suite_quotient(e1)
    assert not report.passed
    assert (report.cases, report.failures) == (66, [{"kernel": "XD(0,1;1)"}])


def test_span_filtration_reports_every_wrong_degree(e1, monkeypatch):
    monkeypatch.setattr(verify, "commutator_span_dims", lambda spec, max_degree: {0: (4, 4), 1: (6, 6), 2: (7, 8)})
    report = verify.suite_span_filtration(e1)
    assert not report.passed
    assert report.failures == [{"degree": 0, "span": 4, "expected": 3}, {"degree": 2, "span": 7, "expected": 8}]


def test_annihilation_reports_a_module_that_is_not_a_pullback(e1, monkeypatch):
    """Truncated polynomials: cutoff 2, a degree-one symbol acts, and the constants split off."""
    monkeypatch.setattr(verify, "preset_pullback", lambda spec: (None, truncated_polynomial_rep(spec, 2)))
    report = verify.suite_annihilation(e1)
    assert not report.passed
    assert report.failures == [{"annihilation_degree": 2, "expected": 1}, {"nonzero": "XD(0,2;1)"},
                               {"commutant": 2}]


def test_decompose_reports_the_recovered_dimensions(e1, monkeypatch):
    monkeypatch.setattr(verify, "decompose_tensor",
                        lambda spec, rep, probes, seed: (preset_pullback(spec, "trivial-regular")[0], None))
    report = verify.suite_decompose(e1)
    assert not report.passed
    assert report.failures == [{"dims": [1, 4], "expected": [2, 4]}]


def test_tensor_compare_reports_a_changed_tensor_field_table(e1, monkeypatch):
    """Every inner symbol acting twice over in the tensor-field module: the tables differ."""
    class_blocks = TensorFieldModule._class_blocks
    monkeypatch.setattr(TensorFieldModule, "_class_blocks",
                        lambda self, sym: class_blocks(self, sym).scale(2 if sym[0] == "inn" else 1))
    report = verify.suite_tensor_compare(e1)
    assert (report.cases, report.failures) == (1, [{"mismatch": "entrywise comparison failed"}])


def test_cuspidality_reports_uneven_multiplicities(e1, monkeypatch):
    def one_short(module, box):
        mults, bound = weight_multiplicities(module, box)
        first = next(iter(mults))
        return {**mults, first: mults[first] - 1}, bound

    monkeypatch.setattr(verify, "weight_multiplicities", one_short)
    report = verify.suite_cuspidality(e1)
    assert not report.passed
    assert (report.cases, report.failures) == (324, [{"bound": 2, "expected": 2, "distinct": [1, 2]}])
