"""ExactMatrix elimination against a dense Gauss-Jordan reference.

``reference_rref`` is the dense elimination ExactMatrix.rref used before every
row reduction went through RowSpace, kept here unchanged as the oracle.  The
reference kernel, solve and inverse are the old bodies on top of it.
"""
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtlie.cyclo import make_field
from qtlie.errors import DimensionMismatch
from qtlie.matrices import ExactMatrix, RowSpace

FIELDS = [1, 2, 3, 4, 12]


def reference_rref(self):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = self.copy()
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot = None
        for i in range(r, m.rows):
            if not m.data[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        m.data[r], m.data[pivot] = m.data[pivot], m.data[r]
        inv = m.data[r][c].inverse()
        m.data[r] = [inv * a for a in m.data[r]]
        for i in range(m.rows):
            if i != r and not m.data[i][c].is_zero():
                f = m.data[i][c]
                m.data[i] = [a - f * b for a, b in zip(m.data[i], m.data[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return m, pivots


def reference_kernel(self):
    red, pivots = reference_rref(self)
    free = [c for c in range(self.cols) if c not in pivots]
    basis = []
    zero, one = self.field.zero, self.field.one
    for fc in free:
        vec = [zero] * self.cols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -red.data[r][fc]
        basis.append(vec)
    return basis


def reference_solve(self, rhs):
    aug = ExactMatrix(self.field, [row + [b] for row, b in zip(self.data, rhs)])
    red, pivots = reference_rref(aug)
    if self.cols in pivots:
        return None
    x = [self.field.zero] * self.cols
    for r, pc in enumerate(pivots):
        x[pc] = red.data[r][self.cols]
    return x


def reference_inverse(self):
    n = self.rows
    aug = ExactMatrix(
        self.field,
        [row + ExactMatrix.identity(self.field, n).data[i] for i, row in enumerate(self.data)],
    )
    red, pivots = reference_rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return red.submatrix(0, n, n, n)


def _entry(fld, rng, density=0.7):
    if rng.random() > density:
        return fld.zero
    return fld.element([rng.randint(-3, 3) for _ in range(fld.phi)])


def _low_rank(fld, rng, rows, cols, rank):
    """rows x cols with rank at most `rank`: combinations of `rank` seeded rows,
    with a zero row and a repeated row mixed in when there is room."""
    gens = [[_entry(fld, rng) for _ in range(cols)] for _ in range(rank)]
    out = []
    for _ in range(rows):
        row = [fld.zero] * cols
        for g in gens:
            c = _entry(fld, rng, density=0.5)
            row = [a + c * b for a, b in zip(row, g)]
        out.append(row)
    if rows >= 3:
        out[rng.randrange(rows)] = [fld.zero] * cols
        i, j = rng.sample(range(rows), 2)
        out[i] = list(out[j])
    return ExactMatrix(fld, out)


# (rows, cols, rank bound): square, wide, tall, rank-deficient and degenerate shapes
SHAPES = [(1, 1, 1), (1, 4, 1), (4, 1, 1), (3, 3, 3), (4, 4, 2), (3, 6, 3), (6, 3, 3),
          (5, 7, 3), (7, 5, 4), (5, 5, 5), (4, 4, 0)]


def _cases(L, seed):
    fld = make_field(L)
    rng = random.Random(f"{L}-{seed}")
    return fld, rng, [_low_rank(fld, rng, r, c, k) for r, c, k in SHAPES]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("L", FIELDS)
def test_rref_rank_kernel_match_reference(L, seed):
    _, _, mats = _cases(L, seed)
    for m in mats:
        red, pivots = m.rref()
        ref_red, ref_pivots = reference_rref(m)
        assert pivots == ref_pivots
        assert red == ref_red
        assert m.rank() == len(ref_pivots)
        assert m.kernel() == reference_kernel(m)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("L", FIELDS)
def test_solve_matches_reference(L, seed):
    fld, rng, mats = _cases(L, seed)
    inconsistent = 0
    for m in mats:
        x = [_entry(fld, rng) for _ in range(m.cols)]
        consistent = m.apply(x)
        got = m.solve(consistent)
        assert got == reference_solve(m, consistent)
        assert m.apply(got) == consistent
        rhs = [_entry(fld, rng, density=1.0) for _ in range(m.rows)]
        got = m.solve(rhs)
        assert got == reference_solve(m, rhs)
        inconsistent += got is None
    assert inconsistent >= 3  # the rank-deficient shapes give no solution


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("L", FIELDS)
def test_inverse_matches_reference(L, seed):
    fld, rng, _ = _cases(L, seed)
    dense = [ExactMatrix(fld, [[_entry(fld, rng, density=1.0) for _ in range(n)] for _ in range(n)])
             for n in (1, 2, 3, 4)]
    singular = [_low_rank(fld, rng, n, n, rank) for n, rank in ((4, 3), (3, 3), (3, 0))]
    outcomes = set()
    for m in dense + singular:
        n = m.rows
        try:
            expected = reference_inverse(m)
        except ZeroDivisionError:
            assert m.rank() < n
            with pytest.raises(ZeroDivisionError):
                m.inverse()
            outcomes.add("singular")
            continue
        assert m.inverse() == expected
        assert m * expected == ExactMatrix.identity(fld, n)
        outcomes.add("invertible")
    assert outcomes == {"singular", "invertible"}


def test_non_square_inverse_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        ExactMatrix.zeros(make_field(3), 2, 3).inverse()


def test_empty_and_columnless_matrices():
    fld = make_field(3)
    empty = ExactMatrix.zeros(fld, 0, 0)
    assert empty.rref() == reference_rref(empty) == (empty, [])
    assert empty.rank() == 0 and empty.kernel() == []
    assert empty.solve([]) == []
    assert empty.inverse() == empty
    columnless = ExactMatrix(fld, [[], []])
    red, pivots = columnless.rref()
    assert (red.rows, red.cols, pivots) == (2, 0, [])
    assert columnless.kernel() == reference_kernel(columnless) == []
    # a matrix with no rows keeps its column count through zeros, products and cuts
    rowless = ExactMatrix.zeros(fld, 0, 3)
    assert rowless.cols == 3 and (rowless * ExactMatrix.zeros(fld, 3, 2)).cols == 2
    assert (rowless.transpose().rows, rowless.transpose().cols) == (3, 0)
    assert ExactMatrix.identity(fld, 3).submatrix(3, 0, 0, 2).cols == 2
    assert rowless.kernel() == reference_kernel(rowless) and len(rowless.kernel()) == 3


@pytest.mark.parametrize("L", FIELDS)
def test_zero_and_repeated_rows(L):
    fld = make_field(L)
    rng = random.Random(L)
    row = [_entry(fld, rng, density=1.0) for _ in range(4)]
    zero = [fld.zero] * 4
    for rows in ([zero, zero, zero], [row, row, row], [zero, row, zero, row], [row]):
        m = ExactMatrix(fld, rows)
        assert m.rref() == reference_rref(m)
        assert m.kernel() == reference_kernel(m)


def _as_dict(row, rng):
    """The row as {column: entry}, keeping some of its zero entries explicitly."""
    return {j: x for j, x in enumerate(row) if not x.is_zero() or rng.random() < 0.3}


def _check_reduced(space):
    """Every pivot row: pivot entry one, no stored zero, no entry in another pivot column."""
    for piv, row in space.pivot_rows.items():
        assert row[piv].is_one()
        assert not any(x.is_zero() for x in row.values())
        assert not (row.keys() - {piv}) & space.pivot_rows.keys()


@given(L=st.sampled_from([1, 3, 4]), width=st.integers(1, 12), seed=st.integers(0, 2**32))
def test_sparse_rowspace_matches_reference(L, width, seed):
    """Sparse rows (about 15% nonzero) added as lists and as dicts with explicit
    zeros, shuffled and repeated, give the reference RREF and kernel."""
    fld = make_field(L)
    rng = random.Random(seed)
    gens = [[_entry(fld, rng, density=0.15) for _ in range(width)] for _ in range(rng.randint(1, 5))]
    rows = list(gens)
    for _ in range(rng.randint(0, 4)):  # sparse combinations of two generators
        a, b = rng.choice(gens), rng.choice(gens)
        ca, cb = (fld.element([rng.randint(1, 3)] * fld.phi) for _ in range(2))
        rows.append([ca * x + cb * y for x, y in zip(a, b)])
    rows += [rng.choice(rows) for _ in range(rng.randint(0, 3))] + [[fld.zero] * width]
    rng.shuffle(rows)
    space = RowSpace(fld, width)
    for row in rows:
        arg = _as_dict(row, rng) if rng.random() < 0.5 else list(row)
        given_arg = arg.copy()
        before = {piv: dict(r) for piv, r in space.pivot_rows.items()}
        inside = space.contains(arg)
        assert space.pivot_rows == before and space.dim == len(before)
        assert space.add(arg) is not inside
        assert arg == given_arg
        _check_reduced(space)
    m = ExactMatrix(fld, rows)
    ref_red, ref_pivots = reference_rref(m)
    assert sorted(space.pivot_rows) == ref_pivots
    assert [[space.pivot_rows[p].get(j, fld.zero) for j in range(width)] for p in ref_pivots] \
        == ref_red.data[:len(ref_pivots)]
    assert space.kernel() == reference_kernel(m)
    assert m.rref() == (ref_red, ref_pivots)


def test_results_share_no_rows_with_their_operands():
    fld = make_field(3)
    a = ExactMatrix(fld, [[1, 2], [3, 4]])
    b = ExactMatrix(fld, [[0, fld.root(1)], [5, 0]])
    rank_one = ExactMatrix(fld, [[1, 2], [2, 4], [3, 6]])
    results = [a + b, a - b, a.scale(2), -a, a * b, a.copy(), a.submatrix(0, 0, 2, 2),
               a.transpose(), a.kron(b), b.rref()[0], b.inverse()]
    operands = [m.serialize() for m in (a, b)]
    for result in results:
        result[0, 0] = 7
        result.paste(1, 1, ExactMatrix(fld, [[9]]))
        assert [m.serialize() for m in (a, b)] == operands
    # fresh rows inside one result too: zero rows of rref, zeros and identity
    for m in (rank_one.rref()[0], ExactMatrix.zeros(fld, 3, 2), ExactMatrix.identity(fld, 3)):
        m[1, 1] = 7
        assert m[2, 1] != 7 and m[0, 1] != 7


def test_public_constructor_coerces_and_checks():
    fld = make_field(3)
    assert ExactMatrix(fld, [[1, 0]])[0, 0] == fld.one
    with pytest.raises(DimensionMismatch):
        ExactMatrix(fld, [[1, 2], [3]])
    with pytest.raises(ValueError):
        ExactMatrix(fld, [[make_field(4).root(1)]])
