import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import qtlie
from qtlie import repn
from qtlie.errors import (
    DimensionMismatch,
    InvalidModuleData,
    InvalidRepresentation,
    NotIrreducible,
    ParseError,
    SplittingNeedsFieldExtension,
)
from qtlie.jetalg import gl_d_keys
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
    min_annihilation_degree,
    natural_gld,
    pullback,
    rep_from_dict,
    rep_to_dict,
    scramble_representation,
    trivial_gld,
    truncated_polynomial_rep,
    verify_representation,
)
from qtlie.torus import canonical_rep, class_representatives, exp_add, sigma_hat
from qtlie.cyclo import make_field, proper_factor_over_q
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
    wmats, wclasses = graded_regular_glN(e1)
    assert len(wclasses) == 4
    assert sorted(set(wclasses)) == class_representatives(e1)
    # X^{(1,2)} sends the basis vector of class (1,1) to the one of class (2,1)
    idx = {w: i for i, w in enumerate(wclasses)}
    mat = wmats[(1, 2)]
    col = idx[(1, 1)]
    target = idx[canonical_rep(e1, (2, 3))]
    assert target == idx[(2, 1)]
    assert mat[target, col] == sigma_hat(e1, (1, 2), (1, 1))
    nonzero = [i for i in range(4) if not mat[i, col].is_zero()]
    assert nonzero == [target]


def test_regular_module_relations(e1, e2):
    for spec in (e1, e2):
        wmats, wclasses = graded_regular_glN(spec)
        GLdGLNModule(spec, natural_gld(spec), wmats, wclasses).validate()


def test_invalid_module_data(e1):
    wmats, wclasses = graded_regular_glN(e1)
    bad = {k: v.copy() for k, v in wmats.items()}
    bad[(1, 1)] = bad[(1, 1)].scale(2)
    with pytest.raises(InvalidModuleData):
        GLdGLNModule(e1, natural_gld(e1), bad, wclasses).validate()


def test_non_square_generators_are_misshapen(e1):
    v_mats = natural_gld(e1)
    v_mats[(1, 1)] = ExactMatrix.zeros(e1.field, 2, 3)
    wmats, wclasses = graded_regular_glN(e1)
    with pytest.raises(InvalidModuleData, match=r"misshapen V generator \(1,1\)"):
        GLdGLNModule(e1, v_mats, wmats, wclasses)
    wmats[(1, 1)] = ExactMatrix.zeros(e1.field, 4, 2)
    with pytest.raises(InvalidModuleData, match=r"misshapen W generator \(1, 1\)"):
        GLdGLNModule(e1, natural_gld(e1), wmats, wclasses)


def test_module_without_v_generators_names_the_first_one(e1):
    wmats, wclasses = graded_regular_glN(e1)
    with pytest.raises(InvalidModuleData, match=r"^missing or misshapen V generator \(1,1\)$"):
        GLdGLNModule(e1, {}, wmats, wclasses)


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
        GRepresentation(rep_e1.space, action, 1)
    # a grading-compatible corruption passes construction but fails the brackets
    mat = action[("XD", (1, 0), 1)].copy()
    mat[0, 0] = mat[0, 0] + e1.field.one
    action[key] = rep_e1.action[key]
    action[("XD", (1, 0), 1)] = mat
    rep = GRepresentation(rep_e1.space, action, 1)
    report = verify_representation(e1, rep, 2)
    assert not report.passed
    assert report.first_failure is not None


def test_verification_witness_names_the_first_differing_entry(e1, rep_e1):
    """E_11 on V picks up an extra 1 at (0, 0), so [E_21, E_11] = E_21 fails first at (1, 0)."""
    action = {k: op.dense() for k, op in rep_e1.action.items()}
    key = ("XD", (1, 0), 1)
    action[key][0, 0] = action[key][0, 0] + e1.field.one
    report = verify_representation(e1, GRepresentation(rep_e1.space, action, 1), 1)
    assert (report.passed, report.cases) == (False, 3)
    assert report.first_failure == "[XD(0,1;1), XD(1,0;1)] entry (1, 0)"


def test_dense_action_errors_keep_their_messages(e1, rep_e1):
    """A dense matrix is checked for size and grading when it is cut into blocks."""
    key = ("XT", (0, 0), (1, 1))
    action = {k: op.dense() for k, op in rep_e1.action.items()}
    action[key][0, 5] = 1  # both entries leave the grading; (3, 0) comes first column by column
    action[key][3, 0] = 1
    with pytest.raises(InvalidRepresentation, match=r"^matrix for XT\(0,0;1,1\) breaks the grading at \(3,0\)$"):
        GRepresentation(rep_e1.space, action, 1)
    action[key] = ExactMatrix.identity(e1.field, 7)
    with pytest.raises(InvalidRepresentation, match=r"^matrix for XT\(0,0;1,1\) has wrong size$"):
        GRepresentation(rep_e1.space, action, 1)


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
        GRepresentation(sc.space, {("XT", (0, 0), (1, 2)): a}, 1)


def test_raw_index_reduction(e1, rep_e1):
    assert rep_e1.rho_raw(("XT", (0, 0), (3, 3))) == rep_e1.rho(("XT", (0, 0), (1, 1)))
    assert rep_e1.rho_raw(("XT", (0, 0), (-1, 0))) == rep_e1.rho(("XT", (0, 0), (1, 2)))


def test_raw_index_reduction_with_tail(e1):
    jet = truncated_polynomial_rep(e1, order=2)
    w0 = canonical_rep(e1, (0, 0))
    # with all torus symbols acting as zero the tail collapses to zero
    assert jet.rho_raw(("XT", (0, 0), exp_add(w0, (2, 0)))).is_zero()


def test_action_keys_must_be_canonical(e1, rep_e1):
    action = dict(rep_e1.action)
    action[("XT", (0, 0), (3, 3))] = rep_e1.action[("XT", (0, 0), (1, 1))]
    with pytest.raises(InvalidRepresentation):
        GRepresentation(rep_e1.space, action, 1)


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
    rep2 = GRepresentation(sp2, action2, 1)
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
    return GRepresentation(space, {key: op.dense().submatrix(1, 1, n, n) for key, op in jet.action.items()},
                           jet.cutoff)


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
    rep = GRepresentation(GradedSpace(e1, {w0: 1}), {}, 1)
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


def test_min_annihilation_degree(e1, rep_e1):
    assert min_annihilation_degree(rep_e1) == 1
    w0 = canonical_rep(e1, (0, 0))
    zero_rep = GRepresentation(GradedSpace(e1, {w0: 2}), {}, 1)
    assert min_annihilation_degree(zero_rep) == 0
    jet = truncated_polynomial_rep(e1, order=2)
    assert min_annihilation_degree(jet) == 2


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


def test_decompose_scrambled_pullback(e1, rep_e1):
    sc = scramble_representation(rep_e1, seed=42)
    assert len(commutant(sc)) == 1
    vw, phi = decompose_tensor(e1, sc, probes=8, seed=42)
    assert (vw.dim_V, vw.dim_W) == (2, 4)
    assert phi.rank() == 8
    rebuilt = pullback(e1, vw)
    for key in set(sc.nonzero_keys()) | set(rebuilt.nonzero_keys()):
        assert sc.rho(key).dense() * phi == phi * rebuilt.rho(key).dense()


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
    assert phi.rank() == 18


def test_splitting_needs_field_extension():
    """A commutant isomorphic to Q(i) cannot be split over the rationals."""
    fld = make_field(1)
    rotation = ExactMatrix(fld, [[0, -1], [1, 0]])
    with pytest.raises(SplittingNeedsFieldExtension):
        _try_split(fld, [rotation], 2, random.Random(0))


def _assert_proper_invariant(fld, mats, n, basis):
    assert 0 < len(basis) < n
    B = basis_matrix(fld, basis)
    assert B.rank() == len(basis)
    for m in mats:
        for vec in basis:
            assert B.solve(m.apply(vec)) is not None


def test_split_scrambled_natural_twice(e1):
    """The natural gl_2 module twice has commutant M_2(Q): it splits over Q,
    although a mix with an irreducible quadratic minimal polynomial comes first."""
    fld = e1.field
    z = fld.zero
    nat = natural_gld(e1)

    def twice(m):
        return ExactMatrix(fld, [row + [z, z] for row in m.data] + [[z, z] + row for row in m.data])

    w0 = class_representatives(e1)[0]
    rep = GRepresentation(GradedSpace(e1, {w0: 4}), {k: twice(nat[ij]) for k, ij in gl_d_keys(e1.d)}, 1)
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


def test_rep_serialization_round_trip(e1, rep_e1):
    alpha = (e1.field.from_rational(1), e1.field.from_rational(-2))
    data = rep_to_dict(rep_e1, alpha)
    spec2, rep2, alpha2 = rep_from_dict(data)
    assert spec2 == e1
    assert rep2 == rep_e1
    assert alpha2 == alpha
    # deterministic dump
    assert rep_to_dict(rep2, alpha2) == data
