import ast
import functools
import hashlib
import itertools
import json
import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qtlie import cuspidal
from qtlie.cuspidal import (
    CuspidalModule,
    OperatorFamily,
    TensorFieldModule,
    build_module,
    bracket_symbols,
    coefficients_to_representation,
    dump_module,
    extract_coefficients,
    modules_equal,
    standard_symbols,
    sym_central,
    sym_deg,
    sym_inner,
    verify_module_axioms,
    weight_multiplicities,
)
from qtlie.errors import (
    ConstantTermMismatch,
    DegreeBoundViolated,
    DimensionMismatch,
    InvalidModuleData,
    InvalidRepresentation,
    InvariantViolated,
    MalformedBasisKey,
    RelationViolated,
)
from qtlie.jetalg import JetElement, degree_basis, taylor_coefficient, xt
from qtlie.matrices import ExactMatrix
from qtlie.repn import (
    GLdGLNModule,
    GRepresentation,
    GradedOperator,
    GradedSpace,
    graded_regular_glN,
    natural_gld,
    preset_pullback,
    pullback,
    rep_to_dict,
    truncated_polynomial_rep,
    trivial_gld,
)
from qtlie.cyclo import CycloNum
from qtlie.derivations import inner_product
from qtlie.torus import canonical_rep, class_representatives, exp_add, exp_sub, in_R, load_torus, sigma_skew
from qtlie.verify import suite_roundtrip


@pytest.fixture(scope="module")
def setup_e1(e1):
    wmats, wclasses = graded_regular_glN(e1)
    vw = GLdGLNModule(e1, natural_gld(e1), wmats, wclasses)
    rep = pullback(e1, vw)
    module = build_module(e1, (0, 0), rep, box=3)
    return vw, rep, module


def _unit(spec, module, w, local, nprime=None):
    col = [spec.field.zero] * module.space.dims[w]
    col[local] = spec.field.one
    return {(w, nprime or (0,) * spec.d): col}


def test_degree_action_frozen(e1, setup_e1):
    """The weight scalar plus the matrix jet, applied to the second V slot."""
    _, _, module = setup_e1
    vec = _unit(e1, module, (1, 1), 1)
    res = module.act(sym_deg(e1, (1, 0), (2, 0)), vec)
    assert set(res) == {((1, 1), (2, 0))}
    assert [str(x) for x in res[((1, 1), (2, 0))]] == ["0", "1"]


def test_degree_action_hits_matrix_part(e1, setup_e1):
    _, _, module = setup_e1
    vec = _unit(e1, module, (1, 1), 0)  # first V slot feels E_11
    res = module.act(sym_deg(e1, (1, 0), (2, 0)), vec)
    assert [str(x) for x in res[((1, 1), (2, 0))]] == ["3", "0"]


def test_inner_action_frozen(e1, setup_e1):
    _, _, module = setup_e1
    vec = _unit(e1, module, (1, 1), 0)
    res = module.act(sym_inner(e1, (1, 0)), vec)
    assert set(res) == {((2, 1), (0, 0))}
    assert [str(x) for x in res[((2, 1), (0, 0))]] == ["1", "0"]


def test_central_action_is_label_shift(e1, setup_e1):
    _, _, module = setup_e1
    vec = _unit(e1, module, (1, 1), 0)
    res = module.act(sym_central(e1, (2, 0)), vec)
    assert res == {((1, 1), (2, 0)): vec[((1, 1), (0, 0))]}


def test_central_action_is_free_and_associative(e1, setup_e1):
    _, _, module = setup_e1
    vec = _unit(e1, module, (2, 1), 1)
    za = sym_central(e1, (2, -2))
    zb = sym_central(e1, (-4, 0))
    zc = sym_central(e1, (-2, -2))
    assert module.act(za, module.act(zb, vec)) == module.act(zc, vec)


def test_symbol_validation(e1):
    with pytest.raises(MalformedBasisKey):
        sym_deg(e1, (1, 0), (1, 0))
    with pytest.raises(MalformedBasisKey):
        sym_inner(e1, (2, 0))
    with pytest.raises(MalformedBasisKey):
        sym_central(e1, (1, 0))
    # u, m, e and n need d entries each
    for bad in (lambda: sym_deg(e1, (1,), (2, 0)), lambda: sym_deg(e1, (1, 0, 0), (2, 0)),
                lambda: sym_deg(e1, (1, 0), (2, 0, 0)), lambda: sym_inner(e1, (1,)),
                lambda: sym_central(e1, (2,)), lambda: sym_central(e1, (2, 0, 0))):
        with pytest.raises(MalformedBasisKey, match="does not have 2 entries"):
            bad()


def test_bracket_symbols_cover_the_semidirect_structure(e1):
    fld = e1.field
    terms = bracket_symbols(e1, sym_deg(e1, (1, 0), (0, 0)), sym_central(e1, (2, 0)))
    assert terms == [(fld.from_rational(2), ("z", (2, 0)))]
    assert bracket_symbols(e1, sym_inner(e1, (1, 0)), sym_central(e1, (2, 0))) == []
    flipped = bracket_symbols(e1, sym_central(e1, (2, 0)), sym_deg(e1, (1, 0), (0, 0)))
    assert flipped == [(fld.from_rational(-2), ("z", (2, 0)))]


def reference_bracket_symbols(spec, a, b) -> list:
    """The hand-written bracket that `bracket_symbols` replaced by `bracket_d`, unchanged."""
    fld = spec.field
    ta, tb = a[0], b[0]
    if ta == "deg" and tb == "deg":
        _, u, m = a
        _, v, n = b
        out = []
        c1 = inner_product(fld, u, n)
        if not c1.is_zero():
            out.append((c1, ("deg", v, exp_add(m, n))))
        c2 = inner_product(fld, v, m)
        if not c2.is_zero():
            out.append((-c2, ("deg", u, exp_add(m, n))))
        return out
    if ta == "deg" and tb == "inn":
        _, u, m = a
        e = b[1]
        c = inner_product(fld, u, e)
        return [] if c.is_zero() else [(c, ("inn", exp_add(m, e)))]
    if ta == "deg" and tb == "z":
        _, u, m = a
        n = b[1]
        c = inner_product(fld, u, n)
        return [] if c.is_zero() else [(c, ("z", exp_add(m, n)))]
    if ta == "inn" and tb == "inn":
        r, s = a[1], b[1]
        coeff = sigma_skew(spec, r, s)
        rs = exp_add(r, s)
        if in_R(spec, rs):
            if not coeff.is_zero():
                raise InvariantViolated(f"sigma skew at {r}, {s} is nonzero although r + s lies in R")
            return []
        return [] if coeff.is_zero() else [(coeff, ("inn", rs))]
    if (ta, tb) in (("inn", "z"), ("z", "z"), ("z", "inn"), ("z", "deg"), ("inn", "deg")):
        if ta in ("inn", "z") and tb == "deg":
            return [(-c, s) for c, s in reference_bracket_symbols(spec, b, a)]
        return []
    raise MalformedBasisKey(f"unknown symbols {a[0]}, {b[0]}")


def _as_basis_combination(spec, terms) -> dict:
    """[(c, symbol)] as a combination of ("d", i, m), ("t", s) and ("z", n), zeros dropped."""
    fld = spec.field
    out = {}
    for c, sym in terms:
        if sym[0] == "deg":
            parts = [(("d", i, sym[2]), ui) for i, ui in enumerate(sym[1], start=1)]
        else:
            parts = [(("t" if sym[0] == "inn" else "z", sym[1]), fld.one)]
        for key, x in parts:
            out[key] = out.get(key, fld.zero) + c * x
    return {key: c for key, c in out.items() if not c.is_zero()}


def _symbols_on_box(spec, radius: int) -> dict:
    """Degree symbols with unit and non-unit u, inner and central symbols, by kind."""
    fld = spec.field
    cvecs = list(itertools.product(range(-radius, radius + 1), repeat=spec.d))
    central = [tuple(c * b for c, b in zip(cv, spec.B)) for cv in cvecs]
    us = [(1,) + (0,) * (spec.d - 1), (2, -3, 5)[:spec.d], (Fraction(1, 2), fld.root(1), -1)[:spec.d]]
    return {
        "deg": [sym_deg(spec, u, m) for u in us for m in central],
        "inn": [sym_inner(spec, e) for e in cvecs if not in_R(spec, e)],
        "z": [sym_central(spec, n) for n in central],
    }


@pytest.mark.parametrize("fixture", ["e1", "e2", "e3"])
@pytest.mark.parametrize("kinds", list(itertools.product(("deg", "inn", "z"), repeat=2)))
def test_bracket_symbols_matches_the_hand_written_bracket(fixture, kinds, request):
    spec = request.getfixturevalue(fixture)
    symbols = _symbols_on_box(spec, 1)
    for a in symbols[kinds[0]]:
        for b in symbols[kinds[1]]:
            got = bracket_symbols(spec, a, b)
            assert _as_basis_combination(spec, got) == _as_basis_combination(
                spec, reference_bracket_symbols(spec, a, b)), (a, b)
            # one degree symbol at most, and no zero coefficients
            assert sum(sym[0] == "deg" for _, sym in got) <= 1, (a, b)
            assert all(not c.is_zero() for c, _ in got), (a, b)


def test_bracket_symbols_rejects_unknown_kinds(e1):
    with pytest.raises(MalformedBasisKey):
        bracket_symbols(e1, ("deg", (1, 0), (0, 0)), ("w", (1, 0)))
    with pytest.raises(MalformedBasisKey):
        bracket_symbols(e1, ("w", (1, 0)), ("z", (2, 0)))


@pytest.mark.parametrize("key", [("XD", (1, 0), 1), ("XD", (0, 1), 2), ("XT", (0, 0), (1, 2))])
def test_module_axioms_report_is_the_hand_written_brackets_report(e1, setup_e1, key, monkeypatch):
    """Same cases and the same first failing column through either bracket."""
    _, rep, _ = setup_e1
    action = {k: op.dense() for k, op in rep.action.items()}
    action[key] = action[key].scale(2)
    module = CuspidalModule(e1, (0, 0), GRepresentation(rep.space, action), box=1)

    def report():
        return verify_module_axioms(module, symbol_box=2, sample_count=40, seed=7)

    got = report()
    monkeypatch.setattr(cuspidal, "bracket_symbols", reference_bracket_symbols)
    want = report()
    assert not want.passed
    assert (got.passed, got.cases, got.first_failure) == (want.passed, want.cases, want.first_failure)


def test_module_axioms(e1, setup_e1):
    _, rep, _ = setup_e1
    module = build_module(e1, (0, 0), rep, box=2)
    report = verify_module_axioms(module, symbol_box=2, sample_count=40, seed=7)
    assert report.passed


def test_module_axioms_catch_corruption(e1, setup_e1):
    _, rep, _ = setup_e1
    action = {k: op.dense() for k, op in rep.action.items()}
    key = ("XD", (1, 0), 1)
    bad = action[key].copy()
    bad[0, 0] = bad[0, 0] + e1.field.one
    action[key] = bad
    broken = GRepresentation(rep.space, action)
    module = CuspidalModule(e1, (0, 0), broken, box=1)
    report = verify_module_axioms(module, symbol_box=2, sample_count=40, seed=7)
    assert not report.passed
    # the witness names a label inside the vector box and a column of its class
    match = re.fullmatch(r"\[.+\] at (\(\(.*\)\)) column (\d+)", report.first_failure)
    assert match, report.first_failure
    label = ast.literal_eval(match.group(1))
    assert label in module.labels(1)
    assert int(match.group(2)) < module.space.dims[label[0]]
    # one case per basis vector, counted up to the first one that differs
    assert report.cases == 74
    assert report.first_failure == "[deg[0,1](2,2), deg[1,0](-4,0)] at ((1,1),(-2,-2)) column 1"
    with pytest.raises(InvalidRepresentation):
        build_module(e1, (0, 0), broken)


class _DoubledCenterModule(CuspidalModule):
    """The central symbols act as twice the label shift, which breaks z^m z^n = z^{m+n}."""

    def block(self, symbol, label):
        res = super().block(symbol, label)
        if symbol[0] != "z" or res is None:
            return res
        target, mat = res
        return target, mat.scale(2)


def test_module_axioms_name_central_witness(e1, setup_e1):
    _, rep, _ = setup_e1
    module = _DoubledCenterModule(e1, (0, 0), rep, box=1)
    report = verify_module_axioms(module, symbol_box=1, sample_count=2, seed=7)
    assert not report.passed
    match = re.fullmatch(r"central associativity at Z\(.*\) at (\(\(.*\)\)) column (\d+)",
                         report.first_failure)
    assert match, report.first_failure
    assert ast.literal_eval(match.group(1)) in module.labels(1)


class _OneLabelPerturbedModule(CuspidalModule):
    """The stock, shared blocks everywhere but at one label, where every block is
    a fresh copy with its (0, 0) entry raised by one."""

    def __init__(self, spec, alpha, rep, box, label):
        super().__init__(spec, alpha, rep, box)
        self.perturbed = label

    def block(self, symbol, label):
        res = super().block(symbol, label)
        if res is None or label != self.perturbed:
            return res
        target, mat = res
        mat = mat.copy()
        mat[0, 0] = mat[0, 0] + self.spec.field.one
        return target, mat


class _FreshBlockModule(CuspidalModule):
    """The stock blocks, each returned as a new object on every call."""

    def block(self, symbol, label):
        res = super().block(symbol, label)
        return res if res is None else (res[0], res[1].copy())


# The reports are the ones the label-by-label loop gave before the check kept
# one defect per distinct configuration.  Both first pairs are checked on the
# labels of class (1, 1) before any other class, and with the stock blocks
# label (0, 0) of that class repeats the configuration of an earlier label:
# an inner pair has no weight scalar, and deg[0,1] has the same scalar at
# n' = (-4, 0), (-2, 0) and (0, 0).
@pytest.mark.parametrize("seed, pairs, witness", [
    (7, 20, "[T(-1,0), T(-2,1)] at ((1,1),(0,0)) column 0"),
    (0, 1, "[T(1,2), deg[0,1](0,0)] at ((1,1),(0,0)) column 0"),
])
def test_module_axioms_catch_one_perturbed_label(e1, seed, pairs, witness):
    rep = preset_pullback(e1)[1]
    alpha = (Fraction(1, 2), 0)
    label = ((1, 1), (0, 0))
    module = _OneLabelPerturbedModule(e1, alpha, rep, 2, label)
    assert module.labels().index(label) == 12
    report = verify_module_axioms(module, symbol_box=2, sample_count=pairs, seed=seed)
    assert (report.passed, report.cases, report.first_failure) == (False, 25, witness)


def test_module_axioms_pass_on_fresh_blocks_with_the_stock_cases(e1):
    rep = preset_pullback(e1)[1]
    alpha = (Fraction(1, 2), 0)
    stock = verify_module_axioms(CuspidalModule(e1, alpha, rep, box=2), symbol_box=2, sample_count=20, seed=7)
    fresh = verify_module_axioms(_FreshBlockModule(e1, alpha, rep, box=2), symbol_box=2, sample_count=20, seed=7)
    assert stock == fresh == (True, 4160, None)


def test_module_axioms_form_each_distinct_defect_once(e1, monkeypatch):
    """20 pairs on the 100 labels of box 2: the stock blocks repeat, so 512
    defects serve the 2,000 label checks; fresh blocks never repeat."""
    rep = preset_pullback(e1)[1]
    alpha = (Fraction(1, 2), 0)
    calls = []
    word_sum = cuspidal._word_sum
    monkeypatch.setattr(cuspidal, "_word_sum", lambda *args: calls.append(1) or word_sum(*args))
    formed = {}
    for name, cls in [("stock", CuspidalModule), ("fresh", _FreshBlockModule)]:
        calls.clear()
        assert verify_module_axioms(cls(e1, alpha, rep, box=2), symbol_box=2, sample_count=20, seed=7).passed
        formed[name] = len(calls)
    assert formed == {"stock": 512, "fresh": 2000}


@pytest.mark.parametrize("construction", ["cuspidal", "tensor-field"])
def test_equal_weight_scalars_give_one_block(construction, request):
    """Labels n' = B c of one class whose weight scalars <u, alpha + w + n'>
    are equal get one object; an unequal scalar gives another.  An integral u
    keys the block by <u, n'> in ints, any other u by the scalar itself."""
    cases = [
        ("e1", (0, 1), [(0, 0), (1, 0)], (0, 1)),  # reads only n'_2
        ("e1", (Fraction(1, 2), 1), [(2, 0), (0, 1)], (1, 0)),  # <u, n'> = n'_1 / 2 + n'_2
        ("e2", ("zeta", "zeta"), [(1, 0), (0, 1)], (1, 1)),  # zeta (n'_1 + n'_2)
    ]
    for fixture, u, equal, unequal in cases:
        spec = request.getfixturevalue(fixture)
        module = _both_constructions(spec, (Fraction(1, 2), 0), 2)[construction]
        sym = sym_deg(spec, [spec.field.root(1) if x == "zeta" else x for x in u], (0, 0))
        w = module.space.classes[-1]

        def block(c):
            return module.block(sym, (w, tuple(x * b for x, b in zip(c, spec.B))))[1]

        first = block(equal[0])
        assert all(block(c) is first for c in equal)
        other = block(unequal)
        assert other is not first and other != first


def test_a_kept_block_costs_no_field_arithmetic(e1, monkeypatch):
    """For an integral u a kept shifted block is found by <u, n'> in ints: a
    label with the same <u, n'> makes no CycloNum add or multiply."""
    module = _both_constructions(e1, (Fraction(1, 2), 0), 2)["cuspidal"]
    sym = sym_deg(e1, (1, 1), (0, 0))
    first = module.block(sym, ((1, 1), (2, 0)))[1]
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        method = getattr(CycloNum, name, None)
        if method is not None:
            monkeypatch.setattr(CycloNum, name, lambda x, y, method=method: calls.append(1) or method(x, y))
    assert module.block(sym, ((1, 1), (0, 2)))[1] is first and calls == []
    assert module.block(sym, ((1, 1), (2, 2)))[1] != first and calls  # a new scalar is formed in the field


def test_module_axioms_change_no_block(e1):
    """Every block a check reads, table or shifted, keeps its entries: the first
    check builds them, and a second one, which reads the same blocks, leaves
    each equal to a copy taken before it."""
    module = _both_constructions(e1, (Fraction(1, 2), 0), 2)["cuspidal"]

    def check():
        return verify_module_axioms(module, symbol_box=2, sample_count=20, seed=7)

    def snapshot():
        return {sym: ({w: (tw, mat.copy()) for w, (tw, mat) in table.blocks.items()},
                      {key: None if mat is None else mat.copy() for key, mat in (shifted or {}).items()})
                for sym, (table, _, shifted) in module._tables.items()}

    assert check().passed
    before = snapshot()
    assert any(shifted for _, shifted in before.values())
    assert check().passed
    assert snapshot() == before


def test_jet_module_axioms(e1):
    """Torus symbols act as zero here; only the central shift moves labels."""
    jet = truncated_polynomial_rep(e1, order=2)
    module = build_module(e1, (0, 0), jet, box=1)
    report = verify_module_axioms(module, symbol_box=2, sample_count=40, seed=3)
    assert report.passed


def test_tensor_field_action_frozen(e1, setup_e1):
    vw, _, _ = setup_e1
    tf = TensorFieldModule(e1, (0, 0), vw, box=3)
    vec = _unit(e1, tf, (1, 1), 0)
    res = tf.act(sym_deg(e1, (1, 0), (2, 0)), vec)
    assert [str(x) for x in res[((1, 1), (2, 0))]] == ["3", "0"]
    res = tf.act(sym_inner(e1, (1, 0)), vec)
    assert set(res) == {((2, 1), (0, 0))}
    assert [str(x) for x in res[((2, 1), (0, 0))]] == ["1", "0"]


def test_functor_image_equals_tensor_field(e1, setup_e1):
    vw, rep, module = setup_e1
    tf = TensorFieldModule(e1, (0, 0), vw, box=3)
    assert modules_equal(module, tf)


def test_modules_of_different_boxes_compare_equal(e1, setup_e1):
    """The box only chooses the labels that a dump or an axiom check visits; no action table reads it."""
    vw, rep, module = setup_e1
    assert modules_equal(module, TensorFieldModule(e1, (0, 0), vw, box=0))
    assert modules_equal(module, CuspidalModule(e1, (0, 0), rep, box=1))


def test_table_comparison_is_the_blockwise_comparison_on_every_box(e1, setup_e1):
    """Equal, a different alpha, one changed matrix entry: each verdict holds on box 0 and on box 2."""
    vw, rep, module = setup_e1
    action = {k: op.dense() for k, op in rep.action.items()}
    action[("XD", (1, 0), 1)][0, 0] += e1.field.one
    for other in (TensorFieldModule(e1, (0, 0), vw), TensorFieldModule(e1, (Fraction(1, 2), 0), vw),
                  CuspidalModule(e1, (0, 0), GRepresentation(rep.space, action))):
        verdict = modules_equal(module, other)
        for box in (0, 2):
            assert verdict == all(module.block(sym, label) == other.block(sym, label)
                                  for sym in standard_symbols(e1) for label in module.labels(box))


def _regular_twice(spec):
    """Natural V and W = two copies of the regular module: each class W_c holds two vectors, one per copy."""
    wmats, wspace = graded_regular_glN(spec)
    twice = GradedSpace(spec, {c: 2 * n for c, n in wspace.dims.items()})
    pair = ExactMatrix.identity(spec.field, 2)
    return GLdGLNModule(spec, natural_gld(spec), {
        w: GradedOperator(twice, w, {c: pair.kron(mat) for c, (_, mat) in op.blocks.items()})
        for w, op in wmats.items()}, twice)


def test_functor_image_equals_tensor_field_with_w_multiplicity_two(e1):
    vw = _regular_twice(e1)
    alpha = (Fraction(1, 3), 0)
    built = build_module(e1, alpha, pullback(e1, vw), box=1)
    assert modules_equal(built, TensorFieldModule(e1, alpha, vw, box=1))


# sha256 of json.dumps(..., sort_keys=True) of rep_to_dict(pullback(e1, vw)) and of
# dump_module(TensorFieldModule(e1, (1/3, 0), vw, box=1)), vw = _regular_twice(e1);
# these pin the basis order inside a class that holds two W vectors
W_TWICE_PULLBACK_SHA256 = "428a50fde2866f80b18aee05a0197012dc7c92b8b5dfd6109653f8aed2bca3e3"
W_TWICE_TENSOR_FIELD_SHA256 = "f16d0dc54728da4db2bdac4ee10c1f73bf67c91d42d0798c5834c0e7d6ddd607"


def test_multiplicity_two_w_is_pinned(e1):
    vw = _regular_twice(e1)
    rep_text = json.dumps(rep_to_dict(pullback(e1, vw)), sort_keys=True)
    assert hashlib.sha256(rep_text.encode()).hexdigest() == W_TWICE_PULLBACK_SHA256
    module = TensorFieldModule(e1, (Fraction(1, 3), 0), vw, box=1)
    dump_text = json.dumps(dump_module(module), sort_keys=True)
    assert hashlib.sha256(dump_text.encode()).hexdigest() == W_TWICE_TENSOR_FIELD_SHA256


# ---------------------------------------------------------------------------
# action tables against the per-label block computation they replaced
# ---------------------------------------------------------------------------


@functools.cache
def _reference_image(module, symbol):
    spec = module.spec
    if symbol[0] == "deg":
        _, u, m = symbol
        image = JetElement.from_terms(spec.field, (
            (("XD", p, j), spec.field.coerce(uj) * taylor_coefficient(m, p))
            for total in range(1, module.rep.cutoff + 1) for p in degree_basis(spec.d, total)
            for j, uj in enumerate(u, start=1)))
    else:
        image = xt(spec, (0,) * spec.d, symbol[1])
    return module.rep.rho_element(image)


@functools.cache
def _reference_closed_form(module, symbol, w):
    spec = module.spec
    fld = spec.field
    dV = module.vw.dim_V
    if symbol[0] == "deg":
        # I (x) E(u, m) with E(u, m) = sum over i, j of m_i u_j E_ij on V
        _, u, m = symbol
        emat = ExactMatrix.zeros(fld, dV)
        for i in range(spec.d):
            if m[i] == 0:
                continue
            for j in range(spec.d):
                if u[j] == 0:
                    continue
                emat = emat + module.vw.V_mats[(i + 1, j + 1)].scale(u[j] * m[i])
        return w, ExactMatrix.identity(fld, module.vw.W_space.dims[w]).kron(emat)
    # t^e acts as W_r (x) I_V, r the class of e
    r = canonical_rep(spec, symbol[1])
    tw = canonical_rep(spec, exp_add(w, r))
    if tw not in module.space.dims:
        return None
    return tw, module.vw.W[r].block(w).kron(ExactMatrix.identity(fld, dV))


def _reference_operator(module, symbol, w):
    if isinstance(module, TensorFieldModule):
        return _reference_closed_form(module, symbol, w)
    sp = module.space
    tw = w if symbol[0] == "deg" else sp.shifted_class(w, symbol[1])
    if tw not in sp.dims:
        return None
    return tw, sp.block(_reference_image(module, symbol).dense(), w, tw)


def reference_block(module, symbol, label):
    """The per-label block computation that the action tables replaced, unchanged.

    `_reference_operator` is the two constructions' former ``_operator``, with
    their memos (one rho image per symbol, one closed form per symbol and
    class) as caches; only the scalar memo is left out.
    """
    fld = module.spec.field
    w, np = label
    if symbol[0] == "z":
        return (w, exp_add(np, symbol[1])), ExactMatrix.identity(fld, module.space.dims[w])
    op = _reference_operator(module, symbol, w)
    if op is None:
        return None
    tw, mat = op
    if symbol[0] == "deg":
        _, u, e = symbol
        scalar = inner_product(fld, u, module.weight_of(label))
        if not scalar.is_zero():
            mat = mat.copy()
            for i, row in enumerate(mat.data):
                row[i] = row[i] + scalar
    else:
        e = symbol[1]
    shift = exp_add(exp_add(np, e), exp_sub(w, tw))
    return None if mat.is_zero() else ((tw, shift), mat)


def _both_constructions(spec, alpha, box):
    wmats, wclasses = graded_regular_glN(spec)
    vw = GLdGLNModule(spec, natural_gld(spec), wmats, wclasses)
    return {"cuspidal": build_module(spec, alpha, pullback(spec, vw), box=box),
            "tensor-field": TensorFieldModule(spec, alpha, vw, box=box)}


@pytest.mark.parametrize("construction", ["cuspidal", "tensor-field"])
@pytest.mark.parametrize("fixture", ["e1", "e2", "e3"])
def test_block_reads_the_per_label_reference_block(fixture, construction, request):
    spec = request.getfixturevalue(fixture)
    alpha = (Fraction(1, 2),) + (0,) * (spec.d - 1)
    module = _both_constructions(spec, alpha, 1)[construction]
    pool = cuspidal._symbol_pool(spec, 2, random.Random(7), 40)
    units = [tuple(map(spec.field.coerce, (int(i == j) for i in range(spec.d)))) for j in range(spec.d)]
    assert any(sym[0] == "deg" and sym[1] not in units for sym in pool)
    for sym in standard_symbols(spec) + pool:
        for label in module.labels(1):
            assert module.block(sym, label) == reference_block(module, sym, label), (sym, label)


class _GivenTableModule(cuspidal._WeightModuleBase):
    """A module whose shift-free class operators are given, one per symbol."""

    def __init__(self, spec, alpha, space, tables):
        super().__init__(spec, alpha, space, box=1)
        self.tables = tables

    def _class_blocks(self, symbol):
        return self.tables[symbol]


def test_block_drops_a_degree_block_that_its_weight_scalar_cancels(e1):
    """T_w = -s I at the label where <u, alpha + w + n'> = s: the block is None; one period on it is 2 I."""
    space = GradedSpace(e1, {c: 2 for c in class_representatives(e1)})
    sym = sym_deg(e1, (1, 0), (0, 0))
    w = (1, 1)
    ident = ExactMatrix.identity(e1.field, 2)
    cancel = ident.scale(Fraction(-3, 2))  # <(1, 0), (1/2, 0) + (1, 1)> = 3/2
    module = _GivenTableModule(e1, (Fraction(1, 2), 0), space, {sym: GradedOperator(space, (0, 0), {w: cancel})})
    assert module.block(sym, (w, (0, 0))) is None
    shift = (e1.B[0], 0)
    assert module.block(sym, (w, shift)) == ((w, shift), ident.scale(e1.B[0]))


def test_block_of_an_absent_table_block_is_the_weight_scalar(e1):
    """No table block at w: s I where <u, alpha + w + n'> = s is nonzero, None where it is zero."""
    fld = e1.field
    space = GradedSpace(e1, {c: 2 for c in class_representatives(e1)})
    sym = sym_deg(e1, (1, 0), (0, 0))
    for alpha in ((Fraction(1, 2), 0), (0, 0)):
        module = _GivenTableModule(e1, alpha, space, {sym: GradedOperator(space, (0, 0), {})})
        zero_labels = 0
        for label in module.labels(1):
            (w, np) = label
            s = fld.from_rational(alpha[0] + w[0] + np[0])
            zero_labels += s.is_zero()
            want = None if s.is_zero() else (label, ExactMatrix.identity(fld, 2).scale(s))
            assert module.block(sym, label) == want, label
        assert zero_labels == (0 if alpha[0] else 6)


@pytest.mark.parametrize("fixture", ["e1", "e2"])
def test_weight_scalar_is_the_inner_product_with_the_weight_on_every_label(fixture, request):
    """`block` adds <u, alpha + w> of the class plus <u, n'> of the shift: on every label of a box
    this is <u, weight>, for a non-integer alpha and a non-unit u from bracket_symbols."""
    spec = request.getfixturevalue(fixture)
    fld, B = spec.field, spec.B
    a = sym_deg(spec, (fld.root(1), Fraction(1, 3)), (B[0], 0))
    b = sym_deg(spec, (1, 0), (0, B[1]))
    ((_, sym),) = bracket_symbols(spec, a, b)
    u = sym[1]
    assert sym[0] == "deg" and all(x != 0 for x in u)
    assert any(not fld.coerce(x).is_rational() for x in u) == (fld.phi > 1)
    module = _both_constructions(spec, (Fraction(1, 3), Fraction(-5, 2)), 2)["cuspidal"]
    table = module._entry(sym)[0]
    for label in module.labels():
        dim = module.space.dims[label[0]]
        res = module.block(sym, label)
        got = ExactMatrix.zeros(fld, dim) if res is None else res[1]
        want = ExactMatrix.identity(fld, dim).scale(inner_product(fld, u, module.weight_of(label)))
        assert got - table.block(label[0]) == want, label


def test_rho_runs_once_per_noncentral_symbol(e1, monkeypatch):
    """Rho is read to build each noncentral symbol's table once, for every
    module of one representation whatever its alpha and box: the first round
    over two such modules calls rho, the second calls it no more, and both
    modules hold one table per noncentral symbol."""
    module = _both_constructions(e1, (0, 0), 2)["cuspidal"]
    other = CuspidalModule(e1, (Fraction(1, 2), 0), module.rep, box=1)
    calls = []
    rho = module.rep.rho
    monkeypatch.setattr(module.rep, "rho", lambda key: calls.append(key) or rho(key))
    symbols = standard_symbols(e1) + cuspidal._symbol_pool(e1, 2, random.Random(3), 30)
    for round_ in range(2):
        for each in (module, other):
            for sym in symbols:
                for label in each.labels(2):
                    each.block(sym, label)
        assert bool(calls) == (round_ == 0)
        calls.clear()
    for sym in symbols:
        if sym[0] != "z":
            assert other._entry(sym)[0] is module._entry(sym)[0] is module.rep._module_tables[sym]


def test_modules_differ_for_different_alpha(e1, setup_e1):
    vw, rep, module = setup_e1
    shifted = TensorFieldModule(e1, (Fraction(1, 2), 0), vw, box=3)
    assert not modules_equal(module, shifted)


def test_modules_differ_for_corrupted_action(e1, setup_e1):
    """Same labels, same alpha, one changed matrix entry: the blocks differ."""
    _, rep, module = setup_e1
    action = {k: op.dense() for k, op in rep.action.items()}
    key = ("XD", (1, 0), 1)
    action[key][0, 0] = action[key][0, 0] + e1.field.one
    broken = CuspidalModule(e1, (0, 0), GRepresentation(rep.space, action), box=3)
    assert not modules_equal(module, broken)


def test_modules_differ_for_regraded_w(e1, setup_e1):
    vw, rep, module = setup_e1
    rotate = {(1, 1): (1, 2), (1, 2): (2, 1), (2, 1): (2, 2), (2, 2): (1, 1)}
    # the same blocks, each moved to the rotated source class: not a valid module
    wmats2 = {w: GradedOperator(vw.W_space, w, {rotate[c]: mat for c, (_, mat) in op.blocks.items()})
              for w, op in vw.W.items()}
    with pytest.raises(InvalidModuleData, match=r"^W relations fail at \(1, 1\),\(2, 1\)$"):
        GLdGLNModule(e1, vw.V_mats, wmats2, vw.W_space)


def test_dimension_mismatch(e1, e2, setup_e1):
    vw, _, module = setup_e1
    wmats, wclasses = graded_regular_glN(e1)
    small = GLdGLNModule(e1, trivial_gld(e1), wmats, wclasses)
    other = TensorFieldModule(e1, (0, 0), small, box=2)
    with pytest.raises(DimensionMismatch):
        modules_equal(module, other)


def test_alpha_of_the_wrong_length_is_a_dimension_mismatch(e1, setup_e1):
    _, rep, _ = setup_e1
    with pytest.raises(DimensionMismatch, match="^alpha must have d entries$"):
        build_module(e1, (0, 0, 0), rep)


def test_weight_multiplicities(e1, e2, setup_e1):
    _, _, module = setup_e1
    mults, bound = weight_multiplicities(module, 4)
    assert bound == 2
    assert set(mults.values()) == {2}
    assert len(mults) == 4 * 9**2

    wmats, wclasses = graded_regular_glN(e2)
    vw2 = GLdGLNModule(e2, natural_gld(e2), wmats, wclasses)
    module2 = build_module(e2, (0, 0), pullback(e2, vw2), box=2)
    mults2, bound2 = weight_multiplicities(module2, 2)
    assert bound2 == 2 and set(mults2.values()) == {2}


def test_zero_module_multiplicities(e1):
    w0 = canonical_rep(e1, (0, 0))
    rep = GRepresentation(GradedSpace(e1, {w0: 1}), {})
    module = CuspidalModule(e1, (0, 0), rep, box=1)
    mults, bound = weight_multiplicities(module, 1)
    assert bound == 1  # one-dimensional space sits at every central label
    assert set(mults.values()) == {1}


# ---------------------------------------------------------------------------
# operator families and the extraction round trip
# ---------------------------------------------------------------------------


def test_family_constant_term(e1, setup_e1):
    _, _, module = setup_e1
    fam = OperatorFamily(module, degree_bound=3)
    zero = (0, 0)
    op = fam.matrix_D((1, 0), zero)
    sp = module.space
    for c in sp.classes:
        blk = op.block(c)
        want = ExactMatrix.identity(e1.field, sp.dims[c]).scale(c[0])
        assert blk == want, c


class _ClassShiftingModule:
    """Acts like `module`, but reports every image in the next class."""

    def __init__(self, module):
        self.module = module
        self.spec = module.spec
        self.space = module.space

    def block(self, symbol, label):
        classes = self.space.classes
        res = self.module.block(symbol, label)
        if res is None:
            return None
        (w, np), mat = res
        return (classes[(classes.index(w) + 1) % len(classes)], np), mat


def test_family_rejects_module_with_wrong_class(e1, setup_e1):
    _, _, module = setup_e1
    fam = OperatorFamily(_ClassShiftingModule(module), degree_bound=3)
    with pytest.raises(InvalidModuleData, match="degree family"):
        fam.matrix_D((1, 0), (2, 0))
    with pytest.raises(InvalidModuleData, match="inner family"):
        fam.matrix_L((0, 0), (1, 0))


def test_family_matrix_d_jet_coefficient(e1, setup_e1):
    _, rep, module = setup_e1
    fam = OperatorFamily(module, degree_bound=3)
    op = fam.matrix_D((1, 0), (2, 0))
    # D(e_1, (2,0)) = (e_1 | w) Id + 2 rho(x_1 d_1) blockwise
    expected = rep.rho(("XD", (1, 0), 1)).scale(2)
    sp = module.space
    for c in sp.classes:
        blk = op.block(c)
        want = expected.block(c) + ExactMatrix.identity(e1.field, sp.dims[c]).scale(c[0])
        assert blk == want


def test_family_matrix_l_is_class_shift(e1, setup_e1):
    _, rep, module = setup_e1
    fam = OperatorFamily(module, degree_bound=3)
    assert fam.matrix_L((0, 0), (1, 2)) == rep.rho(("XT", (0, 0), (1, 2)))
    # raw second argument: reduced through the central tail
    assert fam.matrix_L((0, 0), (3, 1)) == rep.rho(("XT", (0, 0), (1, 1)))
    # central argument: the identity label shift
    assert fam.matrix_L((2, 0), (2, 2)) == GradedOperator.identity(module.space)


def test_family_matrix_l_sums_the_jet_terms(e1, setup_e1):
    """L(m, r) = sum over l of m^l / l! rho(x^l t^r), on an action with l != 0 terms."""
    _, rep, _ = setup_e1
    r = (1, 2)
    a = rep.rho(("XT", (0, 0), r))
    b = a * rep.rho(("XD", (1, 0), 1))  # still of pure degree class(r)
    c = rep.rho(("XD", (0, 1), 2)) * a
    action = {("XT", (0, 0), r): a, ("XT", (1, 0), r): b, ("XT", (0, 2), r): c}
    module = CuspidalModule(e1, (0, 0), GRepresentation(rep.space, action), box=3)
    fam = OperatorFamily(module, degree_bound=3)
    assert fam.matrix_L((0, 0), r) == a
    assert fam.matrix_L((2, 0), r) == a + b.scale(2)
    assert fam.matrix_L((2, 4), r) == a + b.scale(2) + c.scale(8)


def test_extraction_values(e1, setup_e1):
    _, rep, module = setup_e1
    fam = OperatorFamily(module, degree_bound=3)
    coeffs = extract_coefficients(fam, e1, (0, 0))
    assert coeffs.rho(("XD", (1, 0), 1)) == rep.rho(("XD", (1, 0), 1))
    assert coeffs.rho(("XD", (0, 1), 2)) == rep.rho(("XD", (0, 1), 2))
    # the three inner families, and the identity on the central class (2, 2)
    assert {k for k in coeffs.action if k[0] == "XT"} == {("XT", (0, 0), r) for r in class_representatives(e1)}
    assert coeffs.action == rep.action


def test_roundtrip_exact(e1, setup_e1):
    _, rep, module = setup_e1
    fam = OperatorFamily(module, degree_bound=3)
    back = coefficients_to_representation(e1, extract_coefficients(fam, e1, (0, 0)))
    assert back == rep


def test_roundtrip_with_offset_weight(e1, setup_e1):
    vw, rep, _ = setup_e1
    alpha = (Fraction(1, 2), Fraction(-1, 3))
    module = build_module(e1, alpha, rep, box=3)
    fam = OperatorFamily(module, degree_bound=3)
    coeffs = extract_coefficients(fam, e1, alpha)
    assert coefficients_to_representation(e1, coeffs) == rep


def test_roundtrip_jet_module(e1):
    """Cutoff-two representation: the degree-one jets survive the round trip."""
    jet = truncated_polynomial_rep(e1, order=2)
    module = build_module(e1, (0, 0), jet, box=3)
    fam = OperatorFamily(module, degree_bound=3)
    coeffs = extract_coefficients(fam, e1, (0, 0))
    back = coefficients_to_representation(e1, coeffs)
    for key in jet.action:
        assert back.rho(key) == jet.rho(key)
    # the central class carries the hardwired identity shift after extraction
    w0 = canonical_rep(e1, (0, 0))
    assert back.rho(("XT", (0, 0), w0)).dense() == ExactMatrix.identity(e1.field, 6)


def test_extraction_wrong_alpha_fails(e1, setup_e1):
    _, _, module = setup_e1
    fam = OperatorFamily(module, degree_bound=3)
    with pytest.raises(ConstantTermMismatch):
        extract_coefficients(fam, e1, (1, 0))


def test_extraction_degree_bound_violated(e1):
    """A cutoff-two module is quadratic in the lattice variable; bound 1 fails."""
    jet = truncated_polynomial_rep(e1, order=2)
    module = build_module(e1, (0, 0), jet, box=3)
    fam = OperatorFamily(module, degree_bound=1)
    with pytest.raises(DegreeBoundViolated):
        extract_coefficients(fam, e1, (0, 0))


class _TotalDegreeTwoModule:
    """A stub whose degree family is m_1 m_2 I on every class: degree 1 in each
    variable of m, total degree 2."""

    def __init__(self, module):
        self.spec = module.spec
        self.space = module.space

    def block(self, symbol, label):
        w, np = label
        m = symbol[2]
        return (w, exp_add(np, m)), ExactMatrix.identity(self.spec.field, self.space.dims[w]).scale(m[0] * m[1])


def test_extraction_degree_bound_is_a_total_degree_bound(e1, setup_e1):
    """The bound is on total degree: a family of degree 1 per variable but total
    degree 2 is rejected under bound 1, and fits under bound 2."""
    _, _, module = setup_e1
    stub = _TotalDegreeTwoModule(module)
    with pytest.raises(DegreeBoundViolated, match="total degree <= 1"):
        extract_coefficients(OperatorFamily(stub, degree_bound=1), e1, (0, 0))
    with pytest.raises(ConstantTermMismatch):  # fitted, then the zero constant term is checked
        extract_coefficients(OperatorFamily(stub, degree_bound=2), e1, (0, 0))


class _DiagonalBlindModule:
    """A stub whose degree family is the wrapped module's plus (m_1 - m_2) m_1 m_2 I:
    total degree 3, with an excess that vanishes on the diagonal m_1 = m_2."""

    def __init__(self, module):
        self.spec, self.space, self.module = module.spec, module.space, module

    def block(self, symbol, label):
        res = self.module.block(symbol, label)
        if symbol[0] != "deg":
            return res
        w, np = label
        m = symbol[2]
        excess = ExactMatrix.identity(self.spec.field, self.space.dims[w]).scale((m[0] - m[1]) * m[0] * m[1])
        return ((w, exp_add(np, m)), excess) if res is None else (res[0], res[1] + excess)


def test_extraction_rejects_an_excess_that_vanishes_on_the_diagonal(e1, setup_e1):
    _, _, module = setup_e1
    with pytest.raises(DegreeBoundViolated):
        extract_coefficients(OperatorFamily(_DiagonalBlindModule(module), degree_bound=1), e1, (0, 0))


def test_corrupted_coefficients_rejected(e1, setup_e1):
    _, _, module = setup_e1
    fam = OperatorFamily(module, degree_bound=2)
    coeffs = extract_coefficients(fam, e1, (0, 0))
    key = ("XD", (1, 0), 1)
    op = coeffs.rho(key)
    blocks = {w: mat for w, (_tw, mat) in op.blocks.items()}
    w = min(blocks)
    mat = blocks[w] = blocks[w].copy()  # one entry of one block, not the module's own
    mat[0, 0] = mat[0, 0] + e1.field.one
    corrupted = GRepresentation(coeffs.space, {**coeffs.action, key: GradedOperator(op.space, op.shift, blocks)})
    with pytest.raises(RelationViolated):
        coefficients_to_representation(e1, corrupted)


def test_zero_coefficients_give_zero_representation(e1):
    """The one-class zero representation comes back as the identity on the center alone."""
    w0 = canonical_rep(e1, (0, 0))
    zero_rep = GRepresentation(GradedSpace(e1, {w0: 1}), {})
    module = build_module(e1, (0, 0), zero_rep, box=3)
    rep = coefficients_to_representation(e1, extract_coefficients(OperatorFamily(module, degree_bound=2), e1, (0, 0)))
    assert list(rep.action) == [("XT", (0, 0), w0)]
    assert rep.cutoff == 1


def _counting(method, calls: dict, name: str):
    def spy(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return method(*args, **kwargs)
    return spy


@pytest.mark.parametrize("spec_name", ["e1", "e3"])
def test_extraction_samples_each_family_on_the_simplex(spec_name, request, monkeypatch):
    """Each family is evaluated at the C(D + d, d) points of the total-degree
    simplex, plus once at the out-of-sample point: 11 times on E1 and 21 on E3 at D = 3."""
    spec = request.getfixturevalue(spec_name)
    alpha = (0,) * spec.d
    module = build_module(spec, alpha, _natural_regular_pullback(spec), box=1)
    calls = {}
    for name in ("matrix_D", "matrix_L"):
        monkeypatch.setattr(OperatorFamily, name, _counting(getattr(OperatorFamily, name), calls, name))
    extract_coefficients(OperatorFamily(module, degree_bound=3), spec, alpha)
    monkeypatch.undo()
    per_family = math.comb(3 + spec.d, spec.d) + 1
    inner_families = sum(not in_R(spec, r) for r in class_representatives(spec))
    assert calls == {"matrix_D": spec.d * per_family, "matrix_L": inner_families * per_family}


@pytest.mark.parametrize("spec_name", ["e1", "e2"])
def test_extraction_round_trip_builds_no_dense_matrix(spec_name, request, monkeypatch):
    """Families, coefficients and the reassembled representation stay graded
    operators: nothing is pasted into, cut out of or built as a dim U x dim U matrix."""
    spec = request.getfixturevalue(spec_name)
    alpha = (0,) * spec.d
    rep = _natural_regular_pullback(spec)
    module = build_module(spec, alpha, rep, box=4)
    calls = {}
    for owner, name in ((GradedSpace, "block"), (ExactMatrix, "paste"),
                        (GRepresentation, "_graded"), (GradedOperator, "dense")):
        monkeypatch.setattr(owner, name, _counting(getattr(owner, name), calls, f"{owner.__name__}.{name}"))
    back = coefficients_to_representation(spec, extract_coefficients(OperatorFamily(module, 3), spec, alpha))
    monkeypatch.undo()
    assert calls == {}
    assert back == rep


# seconds for the four round trips of one spec; E3, the slowest, takes about
# 2 s on a 2-core Xeon VM (about 3.5 s before the families were graded operators)
ROUND_TRIP_BUDGET_S = 30


@pytest.mark.parametrize("spec_name", ["e1", "e2", "e3"])
def test_extraction_round_trip_from_both_constructions(spec_name, request):
    """Both weight-module constructions, at alpha = 0 and at alpha = (1/2, zeta_L, 0, ...),
    give back exactly the standard pullback; E2 runs over a phi = 2 field."""
    spec = request.getfixturevalue(spec_name)
    fld = spec.field
    wmats, wclasses = graded_regular_glN(spec)
    vw = GLdGLNModule(spec, natural_gld(spec), wmats, wclasses)
    rep = pullback(spec, vw)
    start = time.perf_counter()
    for alpha in ((0,) * spec.d, (Fraction(1, 2), fld.root(1)) + (0,) * (spec.d - 2)):
        for module in (build_module(spec, alpha, rep, box=4), TensorFieldModule(spec, alpha, vw, box=4)):
            coeffs = extract_coefficients(OperatorFamily(module, 3), spec, alpha)
            assert coefficients_to_representation(spec, coeffs) == rep, (type(module).__name__, alpha)
    assert time.perf_counter() - start < ROUND_TRIP_BUDGET_S


# sha256 of the extracted coefficients of the natural-regular pullback, for both
# constructions, alpha = 0 and (1/2, zeta_L, 0, ...), and degree bounds 2, 3, 4
COEFFICIENT_DIGESTS = {
    "e1": "9faae780dd9d44dc1603b39ece9b901ba82d1b8666a02c6bdae4841fac88da6d",
    "e2": "90ba38905232c09fd27a8e921382d39e734b74e1b314eb7ee917bf31062fcfa4",
    "e3": "abc35f11577b58281edf2f6422427bba1a16140086ea759b4f6bf9698af07b82",
}


@pytest.mark.parametrize("spec_name", sorted(COEFFICIENT_DIGESTS))
def test_extracted_coefficients_are_pinned(spec_name, request):
    """Every extracted coefficient, sorted by key and serialized densely, is byte-identical
    to the pinned digest."""
    spec = request.getfixturevalue(spec_name)
    wmats, wclasses = graded_regular_glN(spec)
    vw = GLdGLNModule(spec, natural_gld(spec), wmats, wclasses)
    rep = pullback(spec, vw)
    cases = []
    for alpha in ((0,) * spec.d, (Fraction(1, 2), spec.field.root(1)) + (0,) * (spec.d - 2)):
        for module in (build_module(spec, alpha, rep, box=1), TensorFieldModule(spec, alpha, vw, box=1)):
            for degree in (2, 3, 4):
                coeffs = extract_coefficients(OperatorFamily(module, degree), spec, alpha)
                # ["f", j, p] for XD(p, j), then ["g", r, l] for XT(l, r), sorted; the identity is left out
                keys = sorted((k for k in coeffs.action if k != ("XT", (0,) * spec.d, coeffs.space.zero_class)),
                              key=lambda k: (k[0], k[2], k[1]))
                cases.append([[[{"XD": "f", "XT": "g"}[k[0]], k[2], k[1]], coeffs.action[k].dense().serialize()]
                              for k in keys])
    digest = hashlib.sha256(json.dumps(cases).encode()).hexdigest()
    assert digest == COEFFICIENT_DIGESTS[spec_name]


E5_ROUND_TRIP_BUDGET_S = 10


def test_e5_round_trip_within_budget():
    """The E5 round trip samples 19 families on 35 simplex points each; it takes
    about 2.5 s on a 2-core Xeon VM (19-27 s when the families were sampled on the box [0, 3]^4)."""
    spec = load_torus(Path(__file__).resolve().parents[1] / "specs" / "e5.json")
    start = time.perf_counter()
    assert suite_roundtrip(spec).passed
    assert time.perf_counter() - start < E5_ROUND_TRIP_BUDGET_S


def test_dump_is_deterministic(e1, setup_e1):
    _, _, module = setup_e1
    import json

    d1 = json.dumps(dump_module(module, 1), sort_keys=True)
    d2 = json.dumps(dump_module(module, 1), sort_keys=True)
    assert d1 == d2


def _natural_regular_pullback(spec):
    wmats, wclasses = graded_regular_glN(spec)
    return pullback(spec, GLdGLNModule(spec, natural_gld(spec), wmats, wclasses))


# sha256 of json.dumps(dump_module(module), sort_keys=True) for box-1 modules:
# a phi = 2 field with a nonzero weight offset, and a representation of
# annihilation degree 2, whose degree derivations reach |p| = 2 jet terms
@pytest.mark.parametrize("torus,alpha,make_rep,digest", [
    ("e2", (1, 0), _natural_regular_pullback,
     "ce598ffba558b683b1374e1ffbb675e85564dd18f047ab6f2e5f30711a59aa27"),
    ("e1", (0, 0), lambda spec: truncated_polynomial_rep(spec, order=2),
     "a4849dd1bcc183e699edd2cbbff481206cae33dc667bc05f077d1bc25c2de64a"),
], ids=["e2-natural-regular", "e1-truncated-order-2"])
def test_dump_module_is_pinned(request, torus, alpha, make_rep, digest):
    spec = request.getfixturevalue(torus)
    module = build_module(spec, alpha, make_rep(spec), box=1)
    text = json.dumps(dump_module(module), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# shifted-family commutators, checked through act-composition
# ---------------------------------------------------------------------------


def _apply_D(module, u, m, vec):
    spec = module.spec
    shifted = module.act(sym_deg(spec, u, m), vec)
    return module.act(sym_central(spec, tuple(-x for x in m)), shifted)


def _apply_L(module, m, e, vec):
    """z^{-m} after the action of t^{m+e}; e need not be a class representative."""
    spec = module.spec
    total = tuple(a + b for a, b in zip(m, e))
    from qtlie.torus import in_R

    if in_R(spec, total):
        moved = module.act(sym_central(spec, total), vec)
    else:
        moved = module.act(sym_inner(spec, total), vec)
    return module.act(sym_central(spec, tuple(-x for x in m)), moved)


def _combine(*scaled):
    """The linear combination sum c * vec of module vectors, all-zero columns dropped."""
    out = {}
    for coeff, vec in scaled:
        for label, col in vec.items():
            prev = out.get(label, [0] * len(col))
            out[label] = [a + coeff * x for a, x in zip(prev, col)]
    return {label: col for label, col in out.items() if any(not x.is_zero() for x in col)}


def test_shifted_family_relations(e1, setup_e1):
    """The three commutation relations of the shifted operator families."""
    from qtlie.derivations import inner_product
    from qtlie.torus import exp_add, sigma_skew

    _, _, module = setup_e1
    fld = e1.field
    minus = fld.from_rational(-1)
    vectors = [_unit(e1, module, w, local, np)
               for w, np in module.labels(1) for local in range(module.space.dims[w])]

    def commute(f, g, vec):
        return _combine((1, f(g(vec))), (minus, g(f(vec))))

    u, v = (1, 0), (0, 1)
    m, n = (2, 0), (0, -2)
    r, s = (1, 2), (2, 1)
    for vec in vectors[:: max(1, len(vectors) // 6)]:
        # [D(u,m), D(v,n)] = (u|n)(D(v,m+n) - D(v,n)) - (v|m)(D(u,m+n) - D(u,m))
        lhs = commute(lambda w: _apply_D(module, u, m, w),
                      lambda w: _apply_D(module, v, n, w), vec)
        rhs = _combine(
            (inner_product(fld, u, n), _apply_D(module, v, exp_add(m, n), vec)),
            (minus * inner_product(fld, u, n), _apply_D(module, v, n, vec)),
            (minus * inner_product(fld, v, m), _apply_D(module, u, exp_add(m, n), vec)),
            (inner_product(fld, v, m), _apply_D(module, u, m, vec)),
        )
        assert lhs == rhs
        # [D(u,m), L(n,s)] = (u|n+s) L(m+n, s) - (u|n) L(n, s)
        lhs = commute(lambda w: _apply_D(module, u, m, w),
                      lambda w: _apply_L(module, n, s, w), vec)
        rhs = _combine(
            (inner_product(fld, u, exp_add(n, s)), _apply_L(module, exp_add(m, n), s, vec)),
            (minus * inner_product(fld, u, n), _apply_L(module, n, s, vec)),
        )
        assert lhs == rhs
        # [L(m,r), L(n,s)] = (sig(r,s) - sig(s,r)) L(m+n, r+s), raw second index
        lhs = commute(lambda w: _apply_L(module, m, r, w),
                      lambda w: _apply_L(module, n, s, w), vec)
        rhs = _combine((sigma_skew(e1, r, s),
                        _apply_L(module, exp_add(m, n), exp_add(r, s), vec)))
        assert lhs == rhs


def test_commutative_torus_module(commutative):
    """Degenerate case: no inner derivations at all, only weights and shifts."""
    wmats, wclasses = graded_regular_glN(commutative)
    vw = GLdGLNModule(commutative, natural_gld(commutative), wmats, wclasses)
    module = build_module(commutative, (0, 0), pullback(commutative, vw), box=1)
    report = verify_module_axioms(module, symbol_box=1, sample_count=10, seed=1)
    assert report.passed


def test_rank_three_module(e3):
    wmats, wclasses = graded_regular_glN(e3)
    vw = GLdGLNModule(e3, natural_gld(e3), wmats, wclasses)
    rep = pullback(e3, vw)
    module = build_module(e3, (0, 0, 0), rep, box=1)
    tf = TensorFieldModule(e3, (0, 0, 0), vw, box=1)
    assert modules_equal(module, tf)
    report = verify_module_axioms(module, symbol_box=1, sample_count=20, seed=1)
    assert report.passed
