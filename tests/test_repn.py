import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import qtlie
from qtlie import repn
from qtlie.cuspidal import TensorFieldModule, build_module, standard_symbols
from qtlie.errors import (
    DimensionMismatch,
    InvalidModuleData,
    InvalidRepresentation,
    NotIrreducible,
    ParseError,
    SplittingNeedsFieldExtension,
)
from qtlie.jetalg import bracket_keys, gl_d_keys
from qtlie.matrices import ExactMatrix, RowSpace, basis_matrix
from qtlie.repn import (
    GLdGLNModule,
    GRepresentation,
    GradedOperator,
    GradedSpace,
    _try_split,
    commutant,
    decompose_tensor,
    graded_regular_glN,
    intertwiners,
    is_absolutely_irreducible,
    natural_gld,
    preset_pullback,
    pullback,
    rep_from_dict,
    rep_to_dict,
    scramble_representation,
    spin_up,
    trivial_gld,
    truncated_polynomial_rep,
    verify_representation,
)
from qtlie.torus import canonical_rep, class_representatives, exp_add, load_torus, make_torus, sigma_hat
from qtlie.cyclo import CycloNum, make_field, proper_factor_over_q
from test_matrices import reference_kernel


@pytest.fixture(scope="module")
def vw_e1(e1):
    wmats, wclasses = graded_regular_glN(e1)
    return GLdGLNModule(e1, natural_gld(e1), wmats, wclasses)


@pytest.fixture(scope="module")
def rep_e1(e1, vw_e1):
    return pullback(e1, vw_e1)


def test_natural_module_matrices(e1):
    V = natural_gld(e1)
    assert V[(1, 2)] == ExactMatrix(e1.field, [[0, 1], [0, 0]])


def test_regular_module_shape(e1):
    wmats, wspace = graded_regular_glN(e1)
    assert wspace.dims == {c: 1 for c in class_representatives(e1)}
    # X^{(1,2)} sends the basis vector of class (1,1) to the one of class (2,1)
    op = wmats[(1, 2)]
    assert op.shift == (1, 2)
    assert canonical_rep(e1, (2, 3)) == (2, 1)
    assert op.blocks[(1, 1)] == ((2, 1), ExactMatrix(e1.field, [[sigma_hat(e1, (1, 2), (1, 1))]]))


def test_regular_module_relations(e1, e2):
    for spec in (e1, e2):
        wmats, wclasses = graded_regular_glN(spec)
        GLdGLNModule(spec, natural_gld(spec), wmats, wclasses).validate()


def test_invalid_module_data(e1):
    wmats, wclasses = graded_regular_glN(e1)
    bad = dict(wmats)
    bad[(1, 1)] = bad[(1, 1)].scale(2)
    with pytest.raises(InvalidModuleData):
        GLdGLNModule(e1, natural_gld(e1), bad, wclasses).validate()


def test_non_square_generators_are_misshapen(e1):
    v_mats = natural_gld(e1)
    v_mats[(1, 1)] = ExactMatrix.zeros(e1.field, 2, 3)
    wmats, wspace = graded_regular_glN(e1)
    with pytest.raises(InvalidModuleData, match=r"misshapen V generator \(1,1\)"):
        GLdGLNModule(e1, v_mats, wmats, wspace)
    # X^(1,1) with the shift of X^(1,2), on a W twice as large, and left out
    doubled = GradedSpace(e1, {c: 2 for c in wspace.classes})
    other_space = GradedOperator(doubled, (1, 1), {c: ExactMatrix.identity(e1.field, 2) for c in doubled.classes})
    missing = {w: op for w, op in wmats.items() if w != (1, 1)}
    for bad in ({**wmats, (1, 1): wmats[(1, 2)]}, {**wmats, (1, 1): other_space}, missing):
        with pytest.raises(InvalidModuleData, match=r"^missing or misshapen W generator \(1, 1\)$"):
            GLdGLNModule(e1, natural_gld(e1), bad, wspace)


def test_module_without_v_generators_names_the_first_one(e1):
    wmats, wclasses = graded_regular_glN(e1)
    with pytest.raises(InvalidModuleData, match=r"^missing or misshapen V generator \(1,1\)$"):
        GLdGLNModule(e1, {}, wmats, wclasses)


def test_v_and_w_over_different_fields_are_invalid_module_data(e1, e1_wide):
    """V over Q (from E1) and W over Q(i) (from E1 over L = 4) name both fields."""
    with pytest.raises(InvalidModuleData,
                       match=r"^V generator \(1,1\) is over CycloField\(L=2\) but W is over CycloField\(L=4\)$"):
        GLdGLNModule(e1_wide, natural_gld(e1), *graded_regular_glN(e1_wide))


def test_pullback_dimensions(e1, rep_e1):
    assert rep_e1.space.dim == 8
    assert [rep_e1.space.dims[c] for c in rep_e1.space.classes] == [2, 2, 2, 2]
    assert rep_e1.cutoff == 1


def test_pullback_satisfies_brackets(e1, rep_e1):
    report = verify_representation(e1, rep_e1, 3)
    assert report.passed
    assert report.cases > 1000


def test_trivial_pullback(e1):
    wmats, wclasses = graded_regular_glN(e1)
    rep = pullback(e1, GLdGLNModule(e1, trivial_gld(e1), wmats, wclasses))
    assert rep.space.dim == 4
    assert verify_representation(e1, rep, 2).passed
    # only the torus side acts
    assert all(key[0] == "XT" for key in rep.action)


def test_corrupted_representation_fails_verification(e1, rep_e1):
    action = {k: op.dense() for k, op in rep_e1.action.items()}
    key = ("XT", (0, 0), (1, 1))
    bad = action[key].copy()
    bad[0, 0] = bad[0, 0] + e1.field.one
    action[key] = bad
    with pytest.raises(InvalidRepresentation):
        # the corruption breaks the grading block structure
        GRepresentation(rep_e1.space, action)
    # a grading-compatible corruption passes construction but fails the brackets
    mat = action[("XD", (1, 0), 1)].copy()
    mat[0, 0] = mat[0, 0] + e1.field.one
    action[key] = rep_e1.action[key]
    action[("XD", (1, 0), 1)] = mat
    rep = GRepresentation(rep_e1.space, action)
    report = verify_representation(e1, rep, 2)
    assert not report.passed
    assert report.first_failure is not None


def test_verification_witness_names_the_first_differing_entry(e1, rep_e1):
    """E_11 on V picks up an extra 1 at (0, 0), so [E_21, E_11] = E_21 fails first at (1, 0)."""
    action = {k: op.dense() for k, op in rep_e1.action.items()}
    key = ("XD", (1, 0), 1)
    action[key][0, 0] = action[key][0, 0] + e1.field.one
    report = verify_representation(e1, GRepresentation(rep_e1.space, action), 1)
    assert (report.passed, report.cases) == (False, 3)
    assert report.first_failure == "[XD(0,1;1), XD(1,0;1)] entry (1, 0)"


def test_dense_action_errors_keep_their_messages(e1, rep_e1):
    """A dense matrix is checked for size and grading when it is cut into blocks."""
    key = ("XT", (0, 0), (1, 1))
    action = {k: op.dense() for k, op in rep_e1.action.items()}
    action[key][0, 5] = 1  # both entries leave the grading; (3, 0) comes first column by column
    action[key][3, 0] = 1
    with pytest.raises(InvalidRepresentation, match=r"^matrix for XT\(0,0;1,1\) breaks the grading at \(3,0\)$"):
        GRepresentation(rep_e1.space, action)
    action[key] = ExactMatrix.identity(e1.field, 7)
    with pytest.raises(InvalidRepresentation, match=r"^matrix for XT\(0,0;1,1\) has wrong size$"):
        GRepresentation(rep_e1.space, action)


def test_graded_operator_algebra_matches_dense_matrices(e1, rep_e1):
    sc = scramble_representation(rep_e1, seed=3)
    a, b = sc.rho(("XT", (0, 0), (1, 1))), sc.rho(("XT", (0, 0), (1, 2)))
    e = sc.rho(("XD", (1, 0), 2))
    assert (a * b).dense() == a.dense() * b.dense() and (a * b).shift == (2, 1)
    assert a.commutator(b).dense() == a.dense().commutator(b.dense())
    assert (e + e.scale(3) - a * a).dense() == e.dense().scale(4) - a.dense() * a.dense()
    assert (a - a).is_zero() and a - a == b - b  # the zero operator has every shift
    for op in (a, e):
        for c in sc.space.classes:
            assert op.block(c) == sc.space.block(op.dense(), c, sc.space.shifted_class(c, op.shift))
    with pytest.raises(DimensionMismatch):
        a + b
    with pytest.raises(DimensionMismatch):
        GradedOperator(sc.space, (1, 1), {(1, 1): ExactMatrix.identity(e1.field, 3)})
    with pytest.raises(InvalidRepresentation, match="wrong space or shift"):
        GRepresentation(sc.space, {("XT", (0, 0), (1, 2)): a})


def test_scale_by_one_is_the_operator_itself(e1, rep_e1):
    op = rep_e1.action[("XT", (0, 0), (1, 1))]
    for one in (1, Fraction(1), e1.field.one):
        assert op.scale(one) is op
    assert op.scale(2) is not op and op.scale(2) == op + op


def test_identical_blocks_subtract_with_no_arithmetic(e1, rep_e1, monkeypatch):
    op = rep_e1.action[("XT", (0, 0), (1, 1))]
    twin = GradedOperator._of(op.space, op.shift, dict(op.blocks))  # another operator, the same blocks
    calls = []
    sub = CycloNum.__sub__
    monkeypatch.setattr(CycloNum, "__sub__", lambda x, y: calls.append(1) or sub(x, y))
    assert (op - twin).is_zero() and calls == []
    w = next(iter(op.blocks))
    copied = GradedOperator._of(op.space, op.shift, {**op.blocks, w: (op.blocks[w][0], op.blocks[w][1].copy())})
    assert (op - copied).is_zero() and len(calls) == op.blocks[w][1].rows * op.blocks[w][1].cols


def test_raw_index_reduction(e1, rep_e1):
    assert rep_e1.rho(("XT", (0, 0), (3, 3))) == rep_e1.rho(("XT", (0, 0), (1, 1)))
    assert rep_e1.rho(("XT", (0, 0), (-1, 0))) == rep_e1.rho(("XT", (0, 0), (1, 2)))
    assert not rep_e1.rho(("XT", (0, 0), (3, 3))).is_zero()


def test_raw_index_reduction_with_tail(e1):
    jet = truncated_polynomial_rep(e1, order=2)
    w0 = canonical_rep(e1, (0, 0))
    # with all torus symbols acting as zero the tail collapses to zero
    assert jet.rho(("XT", (0, 0), exp_add(w0, (2, 0)))).is_zero()


def test_action_keys_must_be_canonical(e1, rep_e1):
    action = dict(rep_e1.action)
    action[("XT", (0, 0), (3, 3))] = rep_e1.action[("XT", (0, 0), (1, 1))]
    with pytest.raises(InvalidRepresentation):
        GRepresentation(rep_e1.space, action)


def test_commutant_of_pullback_is_scalar(rep_e1):
    basis = commutant(rep_e1)
    assert len(basis) == 1
    assert is_absolutely_irreducible(rep_e1)


def test_commutant_of_double_copy(e1, rep_e1):
    sp = rep_e1.space
    dims2 = {c: 2 * sp.dims[c] for c in sp.classes}
    sp2 = GradedSpace(e1, dims2)
    action2 = {}
    for key, op in rep_e1.action.items():
        mat = op.dense()
        big = ExactMatrix.zeros(e1.field, sp2.dim)
        for c_from in sp.classes:
            for c_to in sp.classes:
                blk = sp.block(mat, c_from, c_to)
                if blk.is_zero():
                    continue
                for copy in range(2):
                    big.paste(
                        sp2.offset[c_to] + copy * sp.dims[c_to],
                        sp2.offset[c_from] + copy * sp.dims[c_from],
                        blk,
                    )
        action2[key] = big
    rep2 = GRepresentation(sp2, action2)
    assert len(commutant(rep2)) == 4
    assert not is_absolutely_irreducible(rep2)
    with pytest.raises(NotIrreducible):
        decompose_tensor(e1, rep2)


def _v_plus_s2v(spec):
    """truncated_polynomial_rep(spec, 2) without its constants: V + S^2 V, with S^2 V invariant.

    No vector field of degree >= 0 maps a monomial into the constants, so
    the span of the other monomials (index 1 on) is invariant.
    """
    jet = truncated_polynomial_rep(spec, order=2)
    n = jet.space.dim - 1
    space = GradedSpace(spec, {jet.space.classes[0]: n})
    return GRepresentation(space, {key: op.dense().submatrix(1, 1, n, n) for key, op in jet.action.items()})


def test_v_plus_s2v_is_reducible_with_scalar_endomorphisms(e1):
    rep = _v_plus_s2v(e1)
    assert verify_representation(e1, rep, 2).passed
    mats = [op.dense() for op in rep.action.values()]
    # the quadratic monomials (indices 2..4) span a proper invariant subspace ...
    assert all(m[i, j].is_zero() for m in mats for i in range(2) for j in range(2, 5))
    # ... and the degree-2 fields map V into it; V and S^2 V are not isomorphic and the
    # extension does not split, so the graded commutant is still the scalars
    assert any(not m[i, j].is_zero() for m in mats for i in range(2, 5) for j in range(2))
    assert len(commutant(rep)) == 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: a one-dimensional graded commutant shows that"
                                       " End is the scalars, which implies irreducibility only for"
                                       " semisimple representations")
def test_reducible_representation_is_not_absolutely_irreducible(e1):
    assert not is_absolutely_irreducible(_v_plus_s2v(e1))


def test_commutant_of_trivial_module(e1):
    w0 = canonical_rep(e1, (0, 0))
    rep = GRepresentation(GradedSpace(e1, {w0: 1}), {})
    assert len(commutant(rep)) == 1


def _kronecker_intertwiners(fld, pairs, keep=None):
    """Reference basis: kernel of the stacked B (x) I_n - I_m (x) A^T acting on row-major vec(X).

    `keep` lists the vec(X) positions that are unknowns; the others are fixed at zero.
    """
    rows = []
    for A, B in pairs:
        eq = B.kron(ExactMatrix.identity(fld, A.rows)) - ExactMatrix.identity(fld, B.rows).kron(A.transpose())
        rows.extend(eq.data)
    if keep is not None:
        rows = [[row[k] for k in keep] for row in rows]
    return ExactMatrix(fld, rows).kernel()


def _check_intertwiners(fld, pairs, basis, keep=None):
    for X in basis:
        assert all(B * X == X * A for A, B in pairs)
    flat = [X.flatten() for X in basis]
    if keep is not None:
        assert all(vec[k].is_zero() for vec in flat for k in set(range(len(vec))) - set(keep))
        flat = [[vec[k] for k in keep] for vec in flat]
    assert flat == _kronecker_intertwiners(fld, pairs, keep)


def test_intertwiners_rectangular_hom_matches_kronecker(e1, rep_e1):
    """Hom_{gl_d}(V, U) for the natural V (2-dim) and the scrambled E1 pullback U (8-dim)."""
    sc = scramble_representation(rep_e1, seed=5)
    V = natural_gld(e1)
    pairs = [(V[(i, j)], sc.rho(("XD", tuple(int(k == i - 1) for k in range(2)), j)).dense())
             for i in (1, 2) for j in (1, 2)]
    basis = intertwiners(e1.field, pairs)
    assert len(basis) == 4  # U is four copies of V
    assert all((X.rows, X.cols) == (8, 2) for X in basis)
    _check_intertwiners(e1.field, pairs, basis)


def _grading_preserving(sp, mat):
    """The GradedOperator of a dense block-diagonal matrix, cut with GradedSpace.block."""
    return GradedOperator(sp, sp.zero_class, {c: sp.block(mat, c, c) for c in sp.classes})


def _same_class_positions(sp):
    """vec(X) positions (i, j), row-major, with i and j in one class."""
    index_class = [c for c in sp.classes for _ in range(sp.dims[c])]
    return [i * sp.dim + j for i in range(sp.dim) for j in range(sp.dim)
            if index_class[i] == index_class[j]]


def test_intertwiners_graded_commutant_matches_kronecker(e1, rep_e1):
    sc = scramble_representation(rep_e1, seed=9)
    sp = sc.space
    basis = intertwiners(e1.field, [(op, op) for op in sc.action.values()])
    assert basis == commutant(sc)
    assert len(basis) == 1
    pairs = [(op.dense(), op.dense()) for op in sc.action.values()]
    _check_intertwiners(e1.field, pairs, [X.dense() for X in basis], _same_class_positions(sp))


def test_intertwiners_small_graded_cases(e1):
    """Every pair constrains the answer, and the basis is not symmetric."""
    fld = e1.field
    sp = GradedSpace(e1, {(1, 1): 2, (1, 2): 1})
    J = ExactMatrix(fld, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    D = ExactMatrix(fld, [[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    keep = [0, 1, 3, 4, 8]  # vec(X) positions inside the blocks of sizes 2 and 1
    assert keep == _same_class_positions(sp)
    Z = ExactMatrix.zeros(fld, 3)
    for pairs, dim in (([(Z, Z)], 5), ([(J, J)], 3), ([(J, J), (D, D)], 2), ([(D, D), (J, J)], 2)):
        basis = intertwiners(fld, [tuple(_grading_preserving(sp, m) for m in pair) for pair in pairs])
        assert len(basis) == dim
        _check_intertwiners(fld, pairs, [X.dense() for X in basis], keep)


def test_intertwiners_of_zero_pairs_is_everything(e1):
    fld = e1.field
    pairs = [(ExactMatrix.zeros(fld, 3), ExactMatrix.zeros(fld, 2))] * 2
    basis = intertwiners(fld, pairs)
    assert len(basis) == 6
    _check_intertwiners(fld, pairs, basis)


def test_intertwiners_stop_at_the_pair_that_leaves_only_zero(e1, rep_e1):
    """B X = X A with B = 2A and A invertible forces X = 0, so the pairs after it are never read."""
    fld = e1.field
    for one in (ExactMatrix.identity(fld, 2), GradedOperator.identity(rep_e1.space)):
        assert intertwiners(fld, [(one, one.scale(2)), (None, None)]) == []


def test_commutant_stops_at_rank_width_minus_one(e1, rep_e1, monkeypatch):
    """The identity commutes with every operator, so the rows of a commutant
    stop once the rank is width - 1; the same pairs as distinct objects take
    every row and give the same basis."""
    sc = scramble_representation(rep_e1, seed=9)
    width = sum(n * n for n in sc.space.dims.values())
    dims = []

    def counted(space, row, add=RowSpace.add):
        enlarged = add(space, row)
        dims.append(space.dim)
        return enlarged

    monkeypatch.setattr(RowSpace, "add", counted)
    twins = [(op, GradedOperator._of(op.space, op.shift, dict(op.blocks))) for op in sc.action.values()]
    every = intertwiners(e1.field, twins)
    rows = len(dims)
    dims.clear()
    basis = commutant(sc)
    assert basis == every and len(basis) == 1
    assert dims[-1] == width - 1 and dims.count(width - 1) == 1 and len(dims) < rows


def test_spin_up_returns_once_the_space_is_spanned(e1, monkeypatch):
    fld = e1.field
    shift = ExactMatrix(fld, [[0, 0], [1, 0]])
    applied = []
    apply = ExactMatrix.apply
    monkeypatch.setattr(ExactMatrix, "apply", lambda m, vec: applied.append(1) or apply(m, vec))
    basis = spin_up(fld, [shift, ExactMatrix.identity(fld, 2), shift], [fld.one, fld.zero])
    assert basis == [[fld.one, fld.zero], [fld.zero, fld.one]] and len(applied) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rowspace_kernel_matches_dense_kernel(seed):
    fld = make_field(3)
    rng = random.Random(seed)
    width = 7

    gens = [[fld.element([rng.randint(-3, 3), rng.randint(-3, 3)]) for _ in range(width)]
            for _ in range(4)]
    combo = [a - b * fld.root(1) for a, b in zip(gens[0], gens[1])]
    rows = gens + [combo] + gens[:2] + [[fld.zero] * width] * 2
    rng.shuffle(rows)
    space = RowSpace(fld, width)
    for row in rows:
        space.add(row)
    assert space.kernel() == reference_kernel(ExactMatrix(fld, rows))
    assert len(space.kernel()) == width - 4


SPECS = Path(__file__).resolve().parents[1] / "specs"
# sha256 of the JSON of the commutant basis (dense matrices) and of
# decompose_tensor's output (the rebuilt pullback and Phi as a dense matrix) for
# the seed-5 scrambled standard pullback.  The e2 and e3 digests were computed
# before RowSpace stored sparse pivot rows, the e4 and e5 digests (d = 4, where
# the twelve top-power probes are cut to eight) before decompose_tensor worked
# on class blocks.
SCRAMBLED_SOLVE_SHA256 = {
    "e2": ("77721bda47719a9f2df17284fd52dfe3787f9a93c7f703262596374b708343d7",
           "4c1fa4e2848d25fb48e5798e1964c7f51e83154ef492f20096abf15408e8a507"),
    "e3": ("d8c53c8137e9635f26a9d864413bdc226640a91a2ecf8ac0e7f464c32c39e3ce",
           "bc7ee9e1f65a7823d51bdae44395be02d3f5e0e823b159d9b85cc15cba85f510"),
    "e4": ("ead09ff63ca419f52202c0199b027aafdc5037e236fdd66b3de093ecf0271c6f",
           "903a3a63f6ac905aa8b5e3e4055e86ce0123c78caeede2d53d3529d08fb48735"),
    "e5": ("c03cdd1940731de7c2b339465dfafbe1dacdac91cfbcbf6fa55d3326b1c11492",
           "0a1a53c4b33eb3d1e397929dd89fa5228769209aa9028d727452d4e824fd8e94"),
}


@pytest.mark.parametrize("name", sorted(SCRAMBLED_SOLVE_SHA256))
def test_scrambled_commutant_and_decomposition_are_pinned(name):
    spec = load_torus(SPECS / f"{name}.json")
    scrambled = scramble_representation(preset_pullback(spec)[1], seed=5)
    vw, phi = decompose_tensor(spec, scrambled)
    texts = (json.dumps([op.dense().serialize() for op in commutant(scrambled)]),
             json.dumps({"rep": rep_to_dict(pullback(spec, vw)), "phi": phi.dense().serialize()}, sort_keys=True))
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == SCRAMBLED_SOLVE_SHA256[name]


@pytest.mark.parametrize("name", ["e2", "e3"])
def test_decompose_builds_no_dense_matrix(name, monkeypatch):
    """The spin-up, the restriction, Phi and the intertwining check all work on
    class blocks: no dim U x dim U matrix is built or pasted into."""
    spec = load_torus(SPECS / f"{name}.json")
    scrambled = scramble_representation(preset_pullback(spec)[1], seed=5)
    calls = []
    for owner, attr in ((GradedOperator, "dense"), (ExactMatrix, "paste")):
        def spy(*args, _method=getattr(owner, attr), _name=f"{owner.__name__}.{attr}"):
            calls.append(_name)
            return _method(*args)
        monkeypatch.setattr(owner, attr, spy)
    decompose_tensor(spec, scrambled)
    monkeypatch.undo()
    assert calls == []


E5_COMMUTANT_BUDGET_S = 2


def test_e5_scrambled_commutant_within_budget():
    """64 dimensions over 16 classes of 4: a system in 256 unknowns."""
    scrambled = scramble_representation(preset_pullback(load_torus(SPECS / "e5.json"))[1], seed=5)
    start = time.perf_counter()
    assert len(commutant(scrambled)) == 1
    assert time.perf_counter() - start < E5_COMMUTANT_BUDGET_S


def test_cutoff_is_derived_from_the_action(e1, rep_e1):
    """One more than the largest filtration degree of an acting symbol, 0 for no action."""
    assert rep_e1.cutoff == 1
    w0 = canonical_rep(e1, (0, 0))
    zero_rep = GRepresentation(GradedSpace(e1, {w0: 2}), {})
    assert zero_rep.cutoff == 0
    jet = truncated_polynomial_rep(e1, order=2)
    assert jet.cutoff == 2
    # zero operators do not act, so they do not raise the cutoff
    degree_zero = {key: op if sum(key[1]) == 1 else op.scale(0) for key, op in jet.action.items()}
    assert GRepresentation(jet.space, degree_zero).cutoff == 1


def test_truncated_polynomial_rep_is_valid(e1, e3):
    for spec in (e1, e3):
        jet = truncated_polynomial_rep(spec, order=2)
        assert verify_representation(spec, jet, 3).passed


def test_scramble_preserves_structure(e1, rep_e1):
    sc = scramble_representation(rep_e1, seed=42)
    assert verify_representation(e1, sc, 2).passed
    assert sc.space.dims == rep_e1.space.dims
    assert sc.action.keys() == rep_e1.action.keys()
    assert any(sc.action[k] != rep_e1.action[k] for k in sc.action)


@pytest.mark.parametrize("name", ["e2", "e3"])
def test_a_torus_spec_other_than_the_modules_own_is_rejected(name, request, vw_e1, rep_e1):
    """An E1 pullback offered with the spec of E2 or E3 is refused before any work."""
    spec = request.getfixturevalue(name)
    alpha = (0,) * spec.d
    calls = {
        "verify_representation": lambda: verify_representation(spec, rep_e1, 1),
        "build_module": lambda: build_module(spec, alpha, rep_e1, box=1),
        "TensorFieldModule": lambda: TensorFieldModule(spec, alpha, vw_e1, box=1),
        "decompose_tensor": lambda: decompose_tensor(spec, rep_e1),
    }
    for call in calls.values():
        with pytest.raises(DimensionMismatch, match="^different torus specs$"):
            call()


def test_decompose_scrambled_pullback(e1, rep_e1):
    sc = scramble_representation(rep_e1, seed=42)
    assert len(commutant(sc)) == 1
    vw, phi = decompose_tensor(e1, sc, probes=8, seed=42)
    assert (vw.dim_V, vw.dim_W) == (2, 4)
    assert phi.dense().rank() == 8
    rebuilt = pullback(e1, vw)
    for key in set(sc.nonzero_keys()) | set(rebuilt.nonzero_keys()):
        assert sc.rho(key).dense() * phi.dense() == phi.dense() * rebuilt.rho(key).dense()
        assert sc.rho(key) * phi == phi * rebuilt.rho(key)


def test_decompose_trivial_v(e1):
    wmats, wclasses = graded_regular_glN(e1)
    rep = pullback(e1, GLdGLNModule(e1, trivial_gld(e1), wmats, wclasses))
    vw, _ = decompose_tensor(e1, rep, seed=3)
    assert (vw.dim_V, vw.dim_W) == (1, 4)


def test_decompose_e2(e2):
    wmats, wclasses = graded_regular_glN(e2)
    rep = pullback(e2, GLdGLNModule(e2, natural_gld(e2), wmats, wclasses))
    sc = scramble_representation(rep, seed=9)
    vw, phi = decompose_tensor(e2, sc, seed=9)
    assert (vw.dim_V, vw.dim_W) == (2, 9)
    assert phi.dense().rank() == 18


def _one_class_vw(spec):
    """Natural V (x) a one-dimensional W on the zero class: X^0 acts as one, every other X^w as zero."""
    w0 = canonical_rep(spec, (0,) * spec.d)
    wspace = GradedSpace(spec, {w0: 1})
    wmats = {w: GradedOperator.identity(wspace) if w == w0 else GradedOperator(wspace, w, {})
             for w in class_representatives(spec)}
    return GLdGLNModule(spec, natural_gld(spec), wmats, wspace)


@pytest.mark.parametrize("spec", [make_torus(2, 1, [2]), make_torus(2, 1, [3], L=3)], ids=["q", "zeta3"])
def test_decompose_one_class_pullback(spec):
    """Every X^w with w != 0 moves the one class out of the space, so its blocks have no rows."""
    rep = pullback(spec, _one_class_vw(spec))
    vw, phi = decompose_tensor(spec, scramble_representation(rep, seed=5), seed=5)
    assert (vw.dim_V, vw.dim_W) == (2, 1)
    assert pullback(spec, vw) == rep
    assert phi.dense().rank() == 2


def test_decompose_module_with_no_action(e1):
    rep = GRepresentation(GradedSpace(e1, {canonical_rep(e1, (0, 0)): 1}), {})
    vw, _ = decompose_tensor(e1, rep)
    assert (vw.dim_V, vw.dim_W) == (1, 1)


def _minimal_polynomial_value(fld, m, coeffs):
    """mu(m) for mu = x^t - sum coeffs_i x^i, t = len(coeffs)."""
    n = m.rows
    powers = [ExactMatrix.identity(fld, n)]
    for _ in coeffs:
        powers.append(powers[-1] * m)
    return powers[-1] - sum((p.scale(c) for c, p in zip(coeffs, powers)), ExactMatrix.zeros(fld, n))


def test_minimal_polynomial_of_small_matrices():
    fld = make_field(1)
    c, lam = Fraction(5, 3), -2
    cases = [
        (ExactMatrix.identity(fld, 3).scale(c), [c]),  # x - c
        (ExactMatrix(fld, [[lam, 1], [0, lam]]), [-lam * lam, 2 * lam]),  # (x - lam)^2
        (ExactMatrix(fld, [[1, 0, 0], [0, 2, 0], [0, 0, 2]]), [-2, 3]),  # (x - 1)(x - 2)
        (ExactMatrix(fld, [[0, -1], [1, 0]]), [-1, 0]),  # x^2 + 1
    ]
    for m, want in cases:
        assert repn.matrix_minimal_polynomial(fld, m) == [fld.from_rational(x) for x in want]


def test_minimal_polynomial_over_q_zeta3():
    fld = make_field(3)
    zeta = fld.element([0, 1])
    # diag(zeta, zeta^2) has mu = (x - zeta)(x - zeta^2) = x^2 + x + 1
    m = ExactMatrix(fld, [[zeta, 0], [0, zeta * zeta]])
    assert repn.matrix_minimal_polynomial(fld, m) == [-fld.one, -fld.one]
    # the Jordan block J(zeta) has mu = (x - zeta)^2
    jordan = ExactMatrix(fld, [[zeta, 1], [0, zeta]])
    assert repn.matrix_minimal_polynomial(fld, jordan) == [-zeta * zeta, 2 * zeta]


@pytest.mark.parametrize("seed", range(4))
def test_minimal_polynomial_annihilates_and_is_minimal(seed):
    rng = random.Random(seed)
    for L in (1, 3):
        fld = make_field(L)
        for n in (1, 2, 3):
            m = ExactMatrix(fld, [[fld.element([rng.randint(-2, 2) for _ in range(fld.phi)])
                                   for _ in range(n)] for _ in range(n)])
            coeffs = repn.matrix_minimal_polynomial(fld, m)
            assert _minimal_polynomial_value(fld, m, coeffs).is_zero()
            # the lower powers I, m, ..., m^(t-1) are independent, so no polynomial of lower degree vanishes
            powers = [ExactMatrix.identity(fld, n)]
            while len(powers) < len(coeffs):
                powers.append(powers[-1] * m)
            assert ExactMatrix(fld, [p.flatten() for p in powers]).rank() == len(coeffs)


def test_decompose_rejects_a_torus_block_outside_the_intertwiner_spaces(e1, rep_e1):
    """One class block of one torus operator becomes a non-scalar on V, so it is not A (x) I_V."""
    key = ("XT", (0, 0), (1, 2))
    op = rep_e1.rho(key)
    c, (tc, block) = next(iter(op.blocks.items()))
    s = block[0, 0]
    blocks = {w: mat for w, (_, mat) in op.blocks.items()}
    blocks[c] = ExactMatrix(e1.field, [[s, 1], [0, s]])
    rep = GRepresentation(rep_e1.space, {**rep_e1.action, key: GradedOperator(rep_e1.space, key[2], blocks)})
    assert len(commutant(rep)) == 1
    with pytest.raises(NotIrreducible, match="torus action leaves the intertwiner spaces"):
        decompose_tensor(e1, rep)


def test_gld_submodule_of_a_non_invariant_basis_is_rejected(e1):
    fld = e1.field
    with pytest.raises(InvalidRepresentation, match="subspace is not invariant"):
        repn._irreducible_gld_submodule(fld, natural_gld(e1), [[fld.one, fld.zero]], random.Random(0))


def test_gld_submodule_respins_after_a_split(e1, monkeypatch):
    """natural + natural on the four unit vectors splits once; the re-spun piece is natural."""
    fld = e1.field
    spins = []
    monkeypatch.setattr(repn, "spin_up", lambda *args: spins.append(args) or spin_up(*args))
    blocks = {ij: ExactMatrix.identity(fld, 2).kron(m) for ij, m in natural_gld(e1).items()}
    v_mats = repn._irreducible_gld_submodule(fld, blocks, ExactMatrix.identity(fld, 4).data, random.Random(0))
    assert len(spins) == 1
    assert all((m.rows, m.cols) == (2, 2) for m in v_mats.values())
    GLdGLNModule(e1, v_mats, *graded_regular_glN(e1))  # checks the gl_d relations on V


def test_decompose_rejects_a_tensor_module_of_other_class_dimensions(e1):
    """V + S^2 V has a one-dimensional graded commutant, but it is no V (x) W."""
    rep = _v_plus_s2v(e1)
    assert len(commutant(rep)) == 1
    with pytest.raises(NotIrreducible, match="does not have the class dimensions of U"):
        decompose_tensor(e1, rep)


def test_splitting_needs_field_extension():
    """A commutant isomorphic to Q(i) cannot be split over the rationals."""
    fld = make_field(1)
    rotation = ExactMatrix(fld, [[0, -1], [1, 0]])
    with pytest.raises(SplittingNeedsFieldExtension):
        _try_split(fld, [rotation], 2, random.Random(0))


def _assert_proper_invariant(fld, mats, n, basis):
    assert 0 < len(basis) < n
    B = basis_matrix(fld, basis, n)
    assert B.rank() == len(basis)
    for m in mats:
        for vec in basis:
            assert B.solve(basis_matrix(fld, [m.apply(vec)], n)) is not None


def test_split_scrambled_natural_twice(e1):
    """The natural gl_2 module twice has commutant M_2(Q): it splits over Q,
    although a mix with an irreducible quadratic minimal polynomial comes first."""
    fld = e1.field
    z = fld.zero
    nat = natural_gld(e1)

    def twice(m):
        return ExactMatrix(fld, [row + [z, z] for row in m.data] + [[z, z] + row for row in m.data])

    w0 = class_representatives(e1)[0]
    rep = GRepresentation(GradedSpace(e1, {w0: 4}), {k: twice(nat[ij]) for k, ij in gl_d_keys(e1.d)})
    scrambled = scramble_representation(rep, 1)
    mats = [scrambled.rho(k).dense() for k, _ in gl_d_keys(e1.d)]
    _assert_proper_invariant(fld, mats, 4, _try_split(fld, mats, 4, random.Random(0)))


def _spy_factors(monkeypatch):
    seen = []

    def spy(poly):
        factor = proper_factor_over_q(poly)
        seen.append((list(poly), factor))
        return factor

    monkeypatch.setattr(repn, "proper_factor_over_q", spy)
    return seen


def test_split_jordan_block_takes_the_repeated_factor(monkeypatch):
    fld = make_field(1)
    jordan = ExactMatrix(fld, [[3, 1], [0, 3]])
    seen = _spy_factors(monkeypatch)
    basis = _try_split(fld, [jordan], 2, random.Random(0))
    _assert_proper_invariant(fld, [jordan], 2, basis)
    assert basis == [[fld.one, fld.zero]]
    mu, factor = seen[-1]
    # mu = x^2 + c1 x + c0 has a double root, and the factor is x minus that root
    assert mu[1] ** 2 == 4 * mu[0] and factor == [mu[1] / 2, 1]


def test_split_diagonal_takes_a_rational_root(monkeypatch):
    fld = make_field(1)
    diag = ExactMatrix(fld, [[1, 0], [0, 2]])
    seen = _spy_factors(monkeypatch)
    basis = _try_split(fld, [diag], 2, random.Random(0))
    _assert_proper_invariant(fld, [diag], 2, basis)
    mu, factor = seen[-1]
    assert mu[1] ** 2 != 4 * mu[0]  # square-free
    assert len(factor) == 2 and mu[0] + mu[1] * -factor[0] + factor[0] ** 2 == 0


def test_splitting_message_is_plain_text():
    fld = make_field(1)
    rotation = ExactMatrix(fld, [[0, -1], [1, 0]])
    with pytest.raises(SplittingNeedsFieldExtension) as info:
        _try_split(fld, [rotation], 2, random.Random(0))
    assert "\n" not in str(info.value) and "commutant" in str(info.value)


def test_decompose_and_split_do_not_import_sympy():
    src = str(Path(qtlie.__file__).resolve().parent.parent)
    code = """
import random, sys
from qtlie.matrices import ExactMatrix
from qtlie.repn import (GLdGLNModule, _try_split, decompose_tensor, graded_regular_glN,
                        natural_gld, pullback, scramble_representation)
from qtlie.torus import make_torus
spec = make_torus(2, 1, [2])
wmats, wclasses = graded_regular_glN(spec)
rep = scramble_representation(pullback(spec, GLdGLNModule(spec, natural_gld(spec), wmats, wclasses)), 5)
assert decompose_tensor(spec, rep, seed=5)[0].dim_V == 2
assert len(_try_split(spec.field, [ExactMatrix(spec.field, [[1, 0], [0, 2]])], 2, random.Random(0))) == 1
print("sympy" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_rep_from_dict_rejects_malformed_data(e1, rep_e1):
    data = rep_to_dict(rep_e1)
    for broken in ({k: v for k, v in data.items() if k != "cutoff"},
                   dict(data, classes=[{"w": [0, 0], "dim": "x"}]),
                   dict(data, action=[{"matrix": []}]),
                   [data]):
        with pytest.raises(ParseError):
            rep_from_dict(broken)


def test_rep_from_dict_rejects_a_cutoff_that_the_action_does_not_give(rep_e1):
    data = rep_to_dict(rep_e1)
    assert data["cutoff"] == 1
    for cutoff in (0, 2):
        with pytest.raises(ParseError, match=rf"^file cutoff {cutoff} differs from the cutoff 1 of its action$"):
            rep_from_dict(dict(data, cutoff=cutoff))


def test_rep_serialization_round_trip(e1, rep_e1):
    alpha = (e1.field.from_rational(1), e1.field.from_rational(-2))
    data = rep_to_dict(rep_e1, alpha)
    spec2, rep2, alpha2 = rep_from_dict(data)
    assert spec2 == e1
    assert rep2 == rep_e1
    assert alpha2 == alpha
    # deterministic dump
    assert rep_to_dict(rep2, alpha2) == data


# ---------------------------------------------------------------------------
# an immutable representation and the memos kept on it
# ---------------------------------------------------------------------------


def test_action_is_read_only(rep_e1):
    key = ("XT", (0, 0), (1, 1))
    with pytest.raises(TypeError):
        rep_e1.action[key] = rep_e1.action[key].scale(2)
    with pytest.raises(TypeError):
        del rep_e1.action[key]


def test_data_attributes_cannot_be_rebound(e1):
    """A kept report describes the data it was made from: on E1 a check
    passes, and rebinding `action` to one with a doubled XT(0,0;1,1), which
    would have left that passing report in place, raises instead."""
    rep = preset_pullback(e1)[1]
    report = verify_representation(e1, rep, 1)
    assert report.passed and report.cases == 484
    key = ("XT", (0, 0), (1, 1))
    doubled = {**rep.action, key: rep.action[key].scale(2)}
    for name, value in (("action", doubled), ("space", rep.space), ("cutoff", 2)):
        with pytest.raises(AttributeError, match=name):
            setattr(rep, name, value)
    assert rep.cutoff == 1 and verify_representation(e1, rep, 1) is report
    fresh = verify_representation(e1, GRepresentation(rep.space, doubled), 1)
    assert fresh.first_failure == "[XT(0,0;1,1), XT(0,0;1,2)] entry (0, 2)"
    rep._commutant = None  # the memo slots stay writable


def test_bracket_check_is_kept_per_value_and_degree_bound(e1, commutator_calls, monkeypatch):
    monkeypatch.setattr(repn, "_REPORTS", weakref.WeakKeyDictionary())  # no report of another test
    rep = preset_pullback(e1)[1]
    commutator_calls.clear()  # building the pullback checks its module data
    build_module(e1, (0, 0), rep)
    assert len(commutator_calls) == 8 * 7 // 2  # the 8 degree-zero symbols act
    build_module(e1, (1, 0), rep, box=2)
    assert len(commutator_calls) == 28  # the second build reads the kept report
    equal = preset_pullback(e1)[1]
    assert equal == rep and equal is not rep
    commutator_calls.clear()
    build_module(e1, (0, 0), equal)
    assert commutator_calls == []  # an equal representation reads the kept report
    assert verify_representation(e1, equal, 1) is verify_representation(e1, rep, 1)
    report = verify_representation(e1, rep, 2)
    assert report.passed and len(commutator_calls) == 28  # another degree bound is another check
    assert verify_representation(e1, rep, 2) is report and len(commutator_calls) == 28
    assert verify_representation(e1, equal, 2) is report and len(commutator_calls) == 28
    with pytest.raises(AttributeError):  # the kept report is shared, so it is frozen
        report.passed = False


def test_an_unequal_representation_is_checked_afresh(e1, commutator_calls, monkeypatch):
    """Doubling XT(0,0;1,1) of a checked pullback gives another value, whose
    check runs and fails; a representation equal to the failing one reads its
    failing report."""
    monkeypatch.setattr(repn, "_REPORTS", weakref.WeakKeyDictionary())
    rep = preset_pullback(e1)[1]
    assert verify_representation(e1, rep, 1).passed
    key = ("XT", (0, 0), (1, 1))
    doubled = {**rep.action, key: rep.action[key].scale(2)}
    commutator_calls.clear()
    bad = GRepresentation(rep.space, doubled)
    report = verify_representation(e1, bad, 1)
    assert commutator_calls and report.first_failure == "[XT(0,0;1,1), XT(0,0;1,2)] entry (0, 2)"
    commutator_calls.clear()
    again = GRepresentation(rep.space, {k: op.dense() for k, op in doubled.items()})
    assert verify_representation(e1, again, 1) is report and commutator_calls == []


def test_hash_agrees_with_equality(e1, rep_e1):
    """Equal values hash alike, through a file round trip, from dense or graded
    operators and in any key order; the hash is computed once."""
    _, loaded, _ = rep_from_dict(json.loads(json.dumps(rep_to_dict(rep_e1))))
    dense = GRepresentation(rep_e1.space, {k: op.dense() for k, op in reversed(list(rep_e1.action.items()))})
    for other in (loaded, dense):
        assert other == rep_e1 and hash(other) == hash(rep_e1)
    key = ("XT", (0, 0), (1, 1))
    doubled = GRepresentation(rep_e1.space, {**rep_e1.action, key: rep_e1.action[key].scale(2)})
    assert doubled != rep_e1 and hash(doubled) != hash(rep_e1)
    assert loaded._hash == hash(loaded)


def test_kept_reports_do_not_keep_a_representation_alive(e1, rep_e1, monkeypatch):
    monkeypatch.setattr(repn, "_REPORTS", weakref.WeakKeyDictionary())
    rep = scramble_representation(rep_e1, seed=11)
    assert verify_representation(e1, rep).passed
    assert [r() for r in repn._REPORTS.keyrefs()] == [rep]
    ref = weakref.ref(rep)
    del rep
    gc.collect()
    assert ref() is None and len(repn._REPORTS) == 0


def test_the_default_degree_bound_is_the_cutoff_and_at_least_one(e1):
    rep = preset_pullback(e1)[1]  # cutoff 1
    assert verify_representation(e1, rep) is verify_representation(e1, rep, 1)
    jets = truncated_polynomial_rep(e1, 3)
    assert jets.cutoff == 3 and verify_representation(e1, jets) is verify_representation(e1, jets, 3)
    zero = GRepresentation(GradedSpace(e1, {(0, 0): 1}), {})
    assert verify_representation(e1, zero) is verify_representation(e1, zero, 1)


def test_a_representation_keeps_only_its_hash_tables_and_commutant(e1):
    """Besides its data, a representation holds three memos: its hash, the
    weight-module tables and the commutant.  A bracket check, module blocks,
    the image of a jet element and the commutant add no other attribute, and
    the image of a jet element is not kept anywhere."""
    rep = preset_pullback(e1)[1]
    attributes = {"space", "cutoff", "action", "_hash", "_module_tables", "_commutant"}
    assert set(vars(rep)) == attributes
    assert verify_representation(e1, rep, 3).passed
    module = build_module(e1, (0, 0), rep, box=1)
    for sym in standard_symbols(e1):
        for label in module.labels():
            module.block(sym, label)
    element = bracket_keys(e1, ("XD", (1, 0), 1), ("XT", (0, 0), (1, 1))) + bracket_keys(
        e1, ("XD", (1, 0), 2), ("XT", (0, 0), (1, 2)))
    image = rep.rho_element(element)
    assert rep.rho_element(element) == image and rep.rho_element(element) is not image
    assert commutant(rep)
    assert set(vars(rep)) == attributes
    assert rep._hash is not None and rep._module_tables and rep._commutant is not None


def test_modules_of_one_representation_share_its_images(e1):
    rep = preset_pullback(e1)[1]
    first = build_module(e1, (0, 0), rep)
    second = build_module(e1, (Fraction(1, 2), 0), rep, box=2)
    for sym in standard_symbols(e1):
        if sym[0] != "z":
            assert second._entry(sym)[0] is first._entry(sym)[0]


def test_commutant_is_computed_once_and_returned_as_a_new_list(e1, rep_e1, monkeypatch):
    rep = scramble_representation(rep_e1, seed=3)
    graded_calls = []  # one entry per intertwiners call: whether it solves for graded operators

    def counted(field, pairs, intertwiners=repn.intertwiners):
        graded_calls.append(isinstance(pairs[0][0], GradedOperator))
        return intertwiners(field, pairs)

    monkeypatch.setattr(repn, "intertwiners", counted)
    first = commutant(rep)
    assert graded_calls == [True] and len(first) == 1
    first.append(first[0])
    second = commutant(rep)
    assert graded_calls == [True] and second == first[:1] and second is not first
    # decompose_tensor reads the kept commutant; its own solves are on dense class blocks
    assert decompose_tensor(e1, rep, seed=3)[0].dim_V == 2
    assert graded_calls.count(True) == 1 and len(graded_calls) > 1
    assert len(commutant(scramble_representation(rep_e1, seed=3))) == 1 and graded_calls.count(True) == 2
