import ast
import functools
import hashlib
import itertools
import json
import random
import re
from fractions import Fraction

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
    modules_equal_on_box,
    standard_symbols,
    sym_central,
    sym_deg,
    sym_inner,
    tensor_field_module,
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
from qtlie.jetalg import JetElement, degree_basis, taylor_coefficient, xd_along, xt
from qtlie.matrices import ExactMatrix
from qtlie.repn import (
    GLdGLNModule,
    GRepresentation,
    graded_regular_glN,
    natural_gld,
    pullback,
    truncated_polynomial_rep,
    trivial_gld,
)
from qtlie.derivations import inner_product
from qtlie.torus import canonical_rep, exp_add, exp_sub, in_R, sigma_skew


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
    module = CuspidalModule(e1, (0, 0), GRepresentation(rep.space, action, 1), box=2)

    def report():
        return verify_module_axioms(module, symbol_box=2, sample_count=40, seed=7, vector_box=1)

    got = report()
    monkeypatch.setattr(cuspidal, "bracket_symbols", reference_bracket_symbols)
    want = report()
    assert not want.passed
    assert (got.passed, got.cases, got.first_failure) == (want.passed, want.cases, want.first_failure)


def test_module_axioms(e1, setup_e1):
    _, _, module = setup_e1
    report = verify_module_axioms(module, symbol_box=2, sample_count=40, seed=7,
                                  vector_box=2)
    assert report.passed


def test_module_axioms_catch_corruption(e1, setup_e1):
    _, rep, _ = setup_e1
    action = {k: op.dense() for k, op in rep.action.items()}
    key = ("XD", (1, 0), 1)
    bad = action[key].copy()
    bad[0, 0] = bad[0, 0] + e1.field.one
    action[key] = bad
    broken = GRepresentation(rep.space, action, 1)
    module = CuspidalModule(e1, (0, 0), broken, box=2)
    report = verify_module_axioms(module, symbol_box=2, sample_count=40, seed=7,
                                  vector_box=1)
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
    module = _DoubledCenterModule(e1, (0, 0), rep, box=2)
    report = verify_module_axioms(module, symbol_box=1, sample_count=2, seed=7, vector_box=1)
    assert not report.passed
    match = re.fullmatch(r"central associativity at Z\(.*\) at (\(\(.*\)\)) column (\d+)",
                         report.first_failure)
    assert match, report.first_failure
    assert ast.literal_eval(match.group(1)) in module.labels(1)


def test_jet_module_axioms(e1):
    """Torus symbols act as zero here; only the central shift moves labels."""
    jet = truncated_polynomial_rep(e1, order=2)
    module = build_module(e1, (0, 0), jet, box=2)
    report = verify_module_axioms(module, symbol_box=2, sample_count=40, seed=3,
                                  vector_box=1)
    assert report.passed


def test_tensor_field_action_frozen(e1, setup_e1):
    vw, _, _ = setup_e1
    tf = tensor_field_module(e1, (0, 0), vw, box=3)
    vec = _unit(e1, tf, (1, 1), 0)
    res = tf.act(sym_deg(e1, (1, 0), (2, 0)), vec)
    assert [str(x) for x in res[((1, 1), (2, 0))]] == ["3", "0"]
    res = tf.act(sym_inner(e1, (1, 0)), vec)
    assert set(res) == {((2, 1), (0, 0))}
    assert [str(x) for x in res[((2, 1), (0, 0))]] == ["1", "0"]


def test_functor_image_equals_tensor_field(e1, setup_e1):
    vw, rep, module = setup_e1
    tf = tensor_field_module(e1, (0, 0), vw, box=3)
    assert modules_equal_on_box(module, tf, 2)


def test_functor_image_equals_tensor_field_with_w_multiplicity_two(e1):
    """W is two copies of the regular module, so each class of V (x) W holds two W vectors."""
    wmats, wclasses = graded_regular_glN(e1)
    z = ExactMatrix.zeros(e1.field, len(wclasses))
    twice = {w: ExactMatrix(e1.field, [row + z.data[0] for row in m.data] + [z.data[0] + row for row in m.data])
             for w, m in wmats.items()}
    vw = GLdGLNModule(e1, natural_gld(e1), twice, wclasses + wclasses)
    alpha = (Fraction(1, 3), 0)
    built = build_module(e1, alpha, pullback(e1, vw), box=1)
    assert modules_equal_on_box(built, tensor_field_module(e1, alpha, vw, box=1), 1)


# ---------------------------------------------------------------------------
# action tables against the per-label block computation they replaced
# ---------------------------------------------------------------------------


@functools.cache
def _reference_image(module, symbol):
    spec = module.spec
    if symbol[0] == "deg":
        _, u, m = symbol
        image = sum((xd_along(spec, p, u).scale(taylor_coefficient(m, p))
                     for total in range(1, module.rep.cutoff + 1)
                     for p in degree_basis(spec.d, total)), JetElement(spec.field))
    else:
        image = xt(spec, (0,) * spec.d, symbol[1])
    return module.rep.rho_element(image)


@functools.cache
def _reference_closed_form(module, symbol, w):
    spec = module.spec
    fld = spec.field
    dV = module.vw.dim_V
    src = module._w_locals[w]
    if symbol[0] == "deg":
        # I (x) E(u, m) with E(u, m) = sum over i, j of m_i u_j E_ij on V
        _, u, m = symbol
        emat = ExactMatrix.zeros(fld, dV)
        for i in range(spec.d):
            if m[i] == 0:
                continue
            for j in range(spec.d):
                if u[j].is_zero():
                    continue
                emat = emat + module.vw.V_mats[(i + 1, j + 1)].scale(u[j] * m[i])
        return w, ExactMatrix.identity(fld, len(src)).kron(emat)
    # t^e acts as W_r (x) I_V, r the class of e
    r = canonical_rep(spec, symbol[1])
    tw = canonical_rep(spec, exp_add(w, r))
    if tw not in module.space.dims:
        return None
    wmat = module.vw.W_mats[r]
    w_block = ExactMatrix(fld, [[wmat[b2, b] for b in src] for b2 in module._w_locals[tw]])
    return tw, w_block.kron(ExactMatrix.identity(fld, dV))


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
            "tensor-field": tensor_field_module(spec, alpha, vw, box=box)}


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


def test_rho_runs_once_per_noncentral_symbol(e1, monkeypatch):
    module = _both_constructions(e1, (0, 0), 2)["cuspidal"]
    calls = []
    rho_element = module.rep.rho_element
    monkeypatch.setattr(module.rep, "rho_element", lambda image: calls.append(image) or rho_element(image))
    symbols = standard_symbols(e1) + cuspidal._symbol_pool(e1, 2, random.Random(3), 30)
    for _ in range(2):
        for sym in symbols:
            for label in module.labels(2):
                module.block(sym, label)
    assert len(calls) == len({sym for sym in symbols if sym[0] != "z"})


def test_modules_differ_for_different_alpha(e1, setup_e1):
    vw, rep, module = setup_e1
    shifted = tensor_field_module(e1, (Fraction(1, 2), 0), vw, box=3)
    assert not modules_equal_on_box(module, shifted, 1)


def test_modules_differ_for_corrupted_action(e1, setup_e1):
    """Same labels, same alpha, one changed matrix entry: the blocks differ."""
    _, rep, module = setup_e1
    action = {k: op.dense() for k, op in rep.action.items()}
    key = ("XD", (1, 0), 1)
    action[key][0, 0] = action[key][0, 0] + e1.field.one
    broken = CuspidalModule(e1, (0, 0), GRepresentation(rep.space, action, 1), box=3)
    assert not modules_equal_on_box(module, broken, 1)


def test_modules_differ_for_regraded_w(e1, setup_e1):
    vw, rep, module = setup_e1
    rotate = {(1, 1): (1, 2), (1, 2): (2, 1), (2, 1): (2, 2), (2, 2): (1, 1)}
    wclasses2 = [rotate[c] for c in vw.W_classes]
    wmats2 = {}
    for w, mat in vw.W_mats.items():
        wmats2[w] = mat  # same matrices, relabeled grading: not a valid module
    with pytest.raises(Exception):
        GLdGLNModule(e1, vw.V_mats, wmats2, wclasses2).validate()


def test_dimension_mismatch(e1, e2, setup_e1):
    vw, _, module = setup_e1
    wmats, wclasses = graded_regular_glN(e1)
    small = GLdGLNModule(e1, trivial_gld(e1), wmats, wclasses)
    other = tensor_field_module(e1, (0, 0), small, box=2)
    with pytest.raises(DimensionMismatch):
        modules_equal_on_box(module, other, 1)


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
    from qtlie.repn import GradedSpace

    rep = GRepresentation(GradedSpace(e1, {w0: 1}), {}, 1)
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
    mat = fam.matrix_D((1, 0), zero)
    sp = module.space
    for c in sp.classes:
        blk = sp.block(mat, c, c)
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
    mat = fam.matrix_D((1, 0), (2, 0))
    # D(e_1, (2,0)) = (e_1 | w) Id + 2 rho(x_1 d_1) blockwise
    expected = rep.rho(("XD", (1, 0), 1)).scale(2).dense()
    sp = module.space
    for c in sp.classes:
        blk = sp.block(mat, c, c)
        want = sp.block(expected, c, c) + ExactMatrix.identity(e1.field, sp.dims[c]).scale(c[0])
        assert blk == want


def test_family_matrix_l_is_class_shift(e1, setup_e1):
    _, rep, module = setup_e1
    fam = OperatorFamily(module, degree_bound=3)
    assert fam.matrix_L((0, 0), (1, 2)) == rep.rho(("XT", (0, 0), (1, 2))).dense()
    # raw second argument: reduced through the central tail
    assert fam.matrix_L((0, 0), (3, 1)) == rep.rho(("XT", (0, 0), (1, 1))).dense()
    # central argument: the identity label shift
    assert fam.matrix_L((2, 0), (2, 2)) == ExactMatrix.identity(e1.field, module.space.dim)


def test_family_matrix_l_sums_the_jet_terms(e1, setup_e1):
    """L(m, r) = sum over l of m^l / l! rho(x^l t^r), on an action with l != 0 terms."""
    _, rep, _ = setup_e1
    r = (1, 2)
    a = rep.rho(("XT", (0, 0), r))
    b = a * rep.rho(("XD", (1, 0), 1))  # still of pure degree class(r)
    c = rep.rho(("XD", (0, 1), 2)) * a
    action = {("XT", (0, 0), r): a, ("XT", (1, 0), r): b, ("XT", (0, 2), r): c}
    module = CuspidalModule(e1, (0, 0), GRepresentation(rep.space, action, 3), box=3)
    fam = OperatorFamily(module, degree_bound=3)
    assert fam.matrix_L((0, 0), r) == a.dense()
    assert fam.matrix_L((2, 0), r) == (a + b.scale(2)).dense()
    assert fam.matrix_L((2, 4), r) == (a + b.scale(2) + c.scale(8)).dense()


def test_extraction_values(e1, setup_e1):
    _, rep, module = setup_e1
    fam = OperatorFamily(module, degree_bound=3)
    coeffs = extract_coefficients(fam, e1, (0, 0))
    assert coeffs.f[(1, (1, 0))] == rep.rho(("XD", (1, 0), 1)).dense()
    assert coeffs.f[(2, (0, 1))] == rep.rho(("XD", (0, 1), 2)).dense()
    assert set(coeffs.g) == {((1, 1), (0, 0)), ((1, 2), (0, 0)), ((2, 1), (0, 0))}
    for (r, l), mat in coeffs.g.items():
        assert mat == rep.rho(("XT", l, r)).dense()


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


def test_corrupted_coefficients_rejected(e1, setup_e1):
    _, _, module = setup_e1
    fam = OperatorFamily(module, degree_bound=2)
    coeffs = extract_coefficients(fam, e1, (0, 0))
    mat = coeffs.f[(1, (1, 0))].copy()
    mat[0, 0] = mat[0, 0] + e1.field.one
    coeffs.f[(1, (1, 0))] = mat
    with pytest.raises(RelationViolated):
        coefficients_to_representation(e1, coeffs)


def test_zero_coefficients_give_zero_representation(e1, setup_e1):
    _, _, module = setup_e1
    fam = OperatorFamily(module, degree_bound=2)
    coeffs = extract_coefficients(fam, e1, (0, 0))
    coeffs.f.clear()
    coeffs.g.clear()
    rep = coefficients_to_representation(e1, coeffs)
    assert [k for k in rep.action if k[0] == "XD"] == []


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
    report = verify_module_axioms(module, symbol_box=1, sample_count=10, seed=1,
                                  vector_box=1)
    assert report.passed


def test_rank_three_module(e3):
    wmats, wclasses = graded_regular_glN(e3)
    vw = GLdGLNModule(e3, natural_gld(e3), wmats, wclasses)
    rep = pullback(e3, vw)
    module = build_module(e3, (0, 0, 0), rep, box=1)
    tf = tensor_field_module(e3, (0, 0, 0), vw, box=1)
    assert modules_equal_on_box(module, tf, 1)
    report = verify_module_axioms(module, symbol_box=1, sample_count=20, seed=1,
                                  vector_box=1)
    assert report.passed
