"""ExactMatrix elimination against a dense Gauss-Jordan reference.

``reference_rref`` is the dense elimination ExactMatrix.rref used before every
row reduction went through RowSpace, kept here unchanged as the oracle.  The
reference kernel, solve and inverse are the old bodies on top of it.
"""
import random

import pytest

from qtlie.cyclo import make_field
from qtlie.errors import DimensionMismatch
from qtlie.matrices import ExactMatrix

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
