import itertools
import json
import pickle
import shutil
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qtlie.cyclo import CycloNum, make_field
from qtlie.errors import ParseError
from qtlie.repn import VerifyReport
from qtlie.torus import (
    TorusSpec,
    canonical_rep,
    class_representatives,
    decompose,
    dump_torus,
    exp_add,
    in_R,
    load_torus,
    make_torus,
    monomial,
    multiply_monomials,
    sigma_hat,
    sigma_skew,
)


# ---------------------------------------------------------------------------
# literal matrix oracle, independent of qtlie.xmatrix
# ---------------------------------------------------------------------------


def _matmul(fld, a, b):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), fld.zero) for j in range(n)]
        for i in range(n)
    ]


def _literal_realization(spec):
    """Clock and shift matrices written out by hand for one pair."""
    fld = spec.field
    k = spec.k[0]
    step = spec.L // k
    clock = [[fld.root(step * i) if i == j else fld.zero for j in range(k)] for i in range(k)]
    shift = [[fld.one if j == (i + 1) % k else fld.zero for j in range(k)] for i in range(k)]
    ident = [[fld.one if i == j else fld.zero for j in range(k)] for i in range(k)]

    def power(exp):
        out = ident
        for _ in range(exp[0] % k):
            out = _matmul(fld, out, clock)
        for _ in range(exp[1] % k):
            out = _matmul(fld, out, shift)
        return out

    return power


@pytest.mark.parametrize("kval", [2, 3])
def test_monomial_product_matches_matrix_oracle(kval):
    """t^m t^n = c t^{m+n} must hold with c read off actual matrix products."""
    spec = make_torus(2, 1, [kval])
    power = _literal_realization(spec)
    fld = spec.field
    for m in itertools.product(range(0, 2 * kval + 1), repeat=2):
        for n in itertools.product(range(0, 2 * kval + 1), repeat=2):
            c = multiply_monomials(spec, monomial(spec, m), monomial(spec, n)).coeff
            lhs = _matmul(fld, power(m), power(n))
            rhs = [[c * x for x in row] for row in power(exp_add(m, n))]
            assert lhs == rhs, (m, n)


# E1-E5 as in specs/, and rank 2 with k = 4 over L = 12, where phi = 4 < L
PERIOD_SPECS = [make_torus(2, 1, [2]), make_torus(2, 1, [3]), make_torus(3, 1, [2]), make_torus(2, 1, [4]),
                make_torus(4, 2, [2, 2]), make_torus(2, 1, [4], 12)]


@pytest.mark.parametrize("spec", PERIOD_SPECS, ids=["e1", "e2", "e3", "e4", "e5", "k4-L12"])
def test_sigma_skew_is_the_plain_difference_over_one_period(spec):
    """The shared skews equal sigma_hat(m, n) - sigma_hat(n, m) for m, n over
    one period of the pairing (each coordinate mod its B_i), and equal roots
    give the field's shared zero."""
    fld = spec.field
    period = list(itertools.product(*(range(b) for b in spec.B)))
    shared = 0
    for m in period:
        for n in period:
            mn, nm = sigma_hat(spec, m, n), sigma_hat(spec, n, m)
            got = sigma_skew(spec, m, n)
            assert type(got) is CycloNum and got == mn - nm, (m, n)
            assert got is sigma_skew(spec, m, n)  # one object per pair of roots
            if mn is nm:
                assert got is fld.zero
            else:
                shared += 1
    assert shared  # every spec here has a noncommuting pair


def test_sigma_values(e2):
    fld = e2.field
    assert sigma_hat(e2, (1, 0), (0, 1)) == fld.one
    assert sigma_hat(e2, (0, 1), (1, 0)) == fld.root(1)
    assert sigma_hat(e2, (0, 3), (1, 0)) == fld.one  # first argument central


def test_in_R(e2):
    assert in_R(e2, (3, 3))
    assert not in_R(e2, (1, 0))
    assert in_R(e2, (0, 0))


def test_in_R_via_pairing_symmetry(e1, e2):
    """Membership in R is symmetry of the pairing against all unit vectors."""
    for spec in (e1, e2):
        gens = [tuple(int(i == j) for j in range(spec.d)) for i in range(spec.d)]
        for m in itertools.product(range(-4, 5), repeat=spec.d):
            symmetric = all(
                sigma_hat(spec, m, g) == sigma_hat(spec, g, m) for g in gens
            )
            assert symmetric == in_R(spec, m), m


def test_canonical_rep_frozen(e1, e2):
    assert canonical_rep(e2, (0, 0)) == (3, 3)
    assert canonical_rep(e2, (4, -1)) == (1, 2)
    assert canonical_rep(e2, (3, 1)) == (3, 1)
    assert canonical_rep(e1, (1, 0)) == (1, 2)


def test_decompose_frozen(e1, e2):
    assert decompose(e2, (4, -1)) == ((3, -3), (1, 2))
    assert decompose(e1, (1, 0)) == ((0, -2), (1, 2))
    assert decompose(e2, (3, 3)) == ((0, 0), (3, 3))


def test_decompose_reassembles(e2):
    for m in itertools.product(range(-5, 6), repeat=2):
        n, w = decompose(e2, m)
        assert in_R(e2, n)
        assert w in class_representatives(e2)
        assert exp_add(n, w) == m


@pytest.mark.parametrize("kvals,n_sq", [([2], 4), ([3], 9), ([4, 2], 64)])
def test_class_count(kvals, n_sq):
    spec = make_torus(2 * len(kvals), len(kvals), kvals)
    reps = class_representatives(spec)
    assert len(reps) == n_sq == spec.N**2
    assert len(set(reps)) == len(reps)


def test_monomial_products_frozen(e1):
    fld = e1.field
    a = multiply_monomials(e1, monomial(e1, (0, 1)), monomial(e1, (1, 0)))
    assert a.exp == (1, 1) and a.coeff == fld.from_rational(-1)
    b = multiply_monomials(e1, monomial(e1, (1, 0)), monomial(e1, (0, 1)))
    assert b.exp == (1, 1) and b.coeff == fld.one


def test_central_monomial_is_transparent(e1, e2):
    for spec in (e1, e2):
        for m in itertools.product(range(-2, 3), repeat=2):
            if not in_R(spec, m):
                continue
            for n in itertools.product(range(-2, 3), repeat=2):
                res = multiply_monomials(spec, monomial(spec, m), monomial(spec, n))
                assert res.coeff == spec.field.one
                res = multiply_monomials(spec, monomial(spec, n), monomial(spec, m))
                assert res.coeff == spec.field.one


def test_monomial_associativity_exhaustive(e1):
    exps = list(itertools.product(range(-2, 3), repeat=2))
    for m in exps:
        for n in exps:
            mn = multiply_monomials(e1, monomial(e1, m), monomial(e1, n))
            for r in exps:
                left = multiply_monomials(e1, mn, monomial(e1, r))
                nr = multiply_monomials(e1, monomial(e1, n), monomial(e1, r))
                right = multiply_monomials(e1, monomial(e1, m), nr)
                assert left == right


def test_bimultiplicative_exhaustive_small(e1):
    box = range(-2 * e1.k[0], 2 * e1.k[0] + 1)
    vecs = list(itertools.product(box, repeat=2))
    for m in vecs:
        for m2 in vecs:
            for n in vecs:
                assert sigma_hat(e1, exp_add(m, m2), n) == sigma_hat(e1, m, n) * sigma_hat(
                    e1, m2, n
                )


@given(
    m=st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
    m2=st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
    n=st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
)
def test_bimultiplicative_wide(e2, m, m2, n):
    lhs = sigma_hat(e2, exp_add(m, m2), n)
    assert lhs == sigma_hat(e2, m, n) * sigma_hat(e2, m2, n)
    lhs = sigma_hat(e2, n, exp_add(m, m2))
    assert lhs == sigma_hat(e2, n, m) * sigma_hat(e2, n, m2)


def test_spec_json_round_trip(e2, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dump_torus(e2)))
    loaded = load_torus(str(path))
    assert loaded == e2
    assert load_torus(dump_torus(e2)) == e2


def test_spec_path_with_brace(tmp_path):
    """A file name holding `{` is still a path, as a str and as a Path."""
    folder = tmp_path / "a{b}"
    folder.mkdir()
    path = folder / "e1.json"
    shutil.copy(Path(__file__).resolve().parents[1] / "specs" / "e1.json", path)
    want = make_torus(2, 1, [2])
    assert load_torus(str(path)) == want
    assert load_torus(path) == want
    assert load_torus('  {"d": 2, "z": 1, "k": [2], "L": 2}') == want


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        make_torus(1, 0, [])  # rank too small
    with pytest.raises(ValueError):
        make_torus(2, 2, [2, 2])  # 2z > d
    with pytest.raises(ValueError):
        make_torus(4, 2, [2, 3])  # divisibility chain broken
    with pytest.raises(ValueError):
        make_torus(2, 1, [2], L=3)  # L not a multiple of k_1
    with pytest.raises(ParseError):
        load_torus({"z": 1})


@pytest.mark.parametrize("data", [
    {"d": 2.9, "z": 1, "k": [2], "L": 2},
    {"d": 2.0, "z": 1, "k": [2], "L": 2},
    {"d": 2, "z": 1.0, "k": [2], "L": 2},
    {"d": 2, "z": True, "k": [2], "L": 2},
    {"d": True, "z": 0, "k": [], "L": 1},
    {"d": "2", "z": 1, "k": [2], "L": 2},
    {"d": 2, "z": 1, "k": [2.5], "L": 2},
    {"d": 2, "z": 1, "k": ["2"], "L": 2},
    {"d": 2, "z": 1, "k": [True], "L": 2},
    {"d": 2, "z": 1, "k": 2, "L": 2},
    {"d": 2, "z": 1, "k": [2], "L": 2.0},
    {"d": 2, "z": 1, "k": [2], "L": "2"},
    {"d": 2, "z": 1, "k": [2], "L": None},
    {"d": 2, "z": 0, "k": [], "L": False},
])
def test_spec_sizes_must_be_json_integers(data, tmp_path):
    with pytest.raises(ParseError):
        load_torus(data)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError):
        load_torus(str(path))


@pytest.mark.parametrize("args,name", [
    ((2, 1, [2.5]), "k"),
    ((2.5, 1, [2]), "d"),
    ((2, 1.0, [2]), "z"),
    ((2, 1, [2], 2.0), "L"),
    ((True, 0, []), "d"),
    ((2, False, []), "z"),
    ((2, 1, [True]), "k"),
    ((2, 1, ["2"]), "k"),
    ((2, 0, [], True), "L"),
])
def test_make_torus_rejects_non_integer_sizes(args, name):
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        make_torus(*args)


def test_torus_spec_checks_its_sizes_itself():
    with pytest.raises(TypeError, match="^k must be an integer"):
        TorusSpec(2, 1, (2.5,), 2)
    spec = TorusSpec(2, 1, (2,), 2)
    assert spec == make_torus(2, 1, [2]) and spec.field.L == 2


def test_torus_spec_with_a_list_k_equals_and_hashes_as_make_torus():
    spec = TorusSpec(2, 1, [2], 2)
    assert spec.k == (2,)
    assert spec == make_torus(2, 1, [2])
    assert hash(spec) == hash(make_torus(2, 1, [2]))
    assert len({spec, make_torus(2, 1, (2,))}) == 1


def test_value_types_are_immutable_and_hash_by_value():
    spec, twin = TorusSpec(3, 1, [2], 4), make_torus(3, 1, (2,), L=4)
    assert spec == twin and hash(spec) == hash(twin) and spec.field is twin.field
    assert (spec.B, spec.N) == ((2, 2, 1), 2)
    assert pickle.loads(pickle.dumps(spec)) == spec
    for name in ("d", "k", "field", "B", "N"):
        with pytest.raises(AttributeError):
            setattr(spec, name, getattr(twin, name))
    report = VerifyReport(True, 4)
    with pytest.raises(AttributeError):
        report.passed = False
    mono = monomial(spec, (1, 0, 0), 3)
    with pytest.raises(AttributeError):
        mono.exp = (0, 0, 0)
    assert mono == monomial(twin, [1, 0, 0], 3) and hash(mono) == hash(monomial(twin, [1, 0, 0], 3))


@pytest.mark.parametrize("data,key", [
    ({"d": 2, "z": 1, "k": [2], "l": 4}, "l"),
    ({"d": 2, "z": 0, "K": []}, "K"),
    ({"d": 2, "z": 1, "k": [2], "L": 2, "field": 2}, "field"),
])
def test_spec_unknown_keys_are_rejected(data, key, tmp_path):
    with pytest.raises(ParseError, match=f"unknown key '{key}'"):
        load_torus(data)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match=f"unknown key '{key}'"):
        load_torus(str(path))


def test_spec_without_L_takes_the_default():
    assert load_torus({"d": 2, "z": 1, "k": [2]}) == make_torus(2, 1, [2], L=2)
    assert load_torus('{"d": 3, "z": 0}') == make_torus(3, 0, [], L=1)


def test_enlarged_field(e1_wide):
    assert e1_wide.field.L == 4
    # q_1 = sigma_hat(e_2, e_1) is still a primitive square root of unity
    assert sigma_hat(e1_wide, (0, 1), (1, 0)) == -1


def test_commutative_torus(commutative):
    assert commutative.N == 1
    assert class_representatives(commutative) == [(0, 0)]
    assert in_R(commutative, (5, -7))
    assert sigma_hat(commutative, (3, 1), (2, 9)) == make_field(1).one
