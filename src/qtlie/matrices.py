"""Exact linear algebra over a cyclotomic field: dense matrices, sparse row reduction.

Small dimensions only; everything is computed with exact field arithmetic and
equality means entrywise equality of canonical forms.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .cyclo import CycloField, CycloNum
from .errors import DimensionMismatch

if TYPE_CHECKING:
    from .repn import GradedOperator


class ExactMatrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: CycloField, data):
        self.field = field
        self.data = [list(self._coerce_row(field, row)) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged matrix rows")

    @classmethod
    def _of(cls, field: CycloField, data: list, cols: int) -> ExactMatrix:
        """The matrix of `data`, fresh rows of `cols` entries of `field`, taken as they are.

        `cols` is passed, not read off the first row, so that a matrix with no
        rows keeps its column count.
        """
        m = cls.__new__(cls)
        m.field, m.data, m.rows, m.cols = field, data, len(data), cols
        return m

    @staticmethod
    def _coerce_row(field, row):
        for x in row:
            if isinstance(x, CycloNum):
                if x.field.L != field.L:
                    raise DimensionMismatch("mixed cyclotomic fields")
                yield x
            else:
                yield field.from_rational(x)

    @classmethod
    def zeros(cls, field, rows, cols=None):
        cols = rows if cols is None else cols
        z = field.zero
        return cls._of(field, [[z] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls._of(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    def copy(self):
        return ExactMatrix._of(self.field, [row[:] for row in self.data], self.cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __setitem__(self, ij, value):
        i, j = ij
        if not isinstance(value, CycloNum):
            value = self.field.from_rational(value)
        self.data[i][j] = value

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for ra, rb in zip(self.data, other.data) for a, b in zip(ra, rb))
        )

    def __add__(self, other):
        self._shape_check(other)
        return ExactMatrix._of(
            self.field, [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)], self.cols
        )

    def __sub__(self, other):
        self._shape_check(other)
        return ExactMatrix._of(
            self.field, [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)], self.cols
        )

    def _shape_check(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def scale(self, scalar):
        if not isinstance(scalar, CycloNum):
            scalar = self.field.from_rational(scalar)
        return ExactMatrix._of(self.field, [[a if a.is_zero() else scalar * a for a in row]
                                            for row in self.data], self.cols)

    def __neg__(self):
        znum = self.field.zero.num
        return ExactMatrix._of(self.field, [[a if a.num == znum else -a for a in row] for row in self.data],
                               self.cols)

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        zero = self.field.zero
        znum = zero.num  # an entry is zero when its numerators are: no method call per entry
        out = [[zero] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.data):
            out_i = out[i]
            for k, a in enumerate(row):
                if a.num == znum:
                    continue
                brow = other.data[k]
                for j, b in enumerate(brow):
                    if b.num != znum:
                        out_i[j] = out_i[j] + a * b
        return ExactMatrix._of(self.field, out, other.cols)

    def commutator(self, other):
        return self * other - other * self

    def apply(self, vec):
        """Matrix times column vector (list of CycloNum)."""
        if self.cols != len(vec):
            raise DimensionMismatch("matrix/vector size mismatch")
        zero = self.field.zero
        out = [zero] * self.rows
        for i, row in enumerate(self.data):
            acc = zero
            for a, v in zip(row, vec):
                if not a.is_zero() and not v.is_zero():
                    acc = acc + a * v
            out[i] = acc
        return out

    def transpose(self):
        return ExactMatrix._of(self.field, [[row[j] for row in self.data] for j in range(self.cols)], self.rows)

    def is_zero(self):
        znum = self.field.zero.num
        return all(a.num == znum for row in self.data for a in row)

    def kron(self, other):
        """Kronecker product self (x) other."""
        out = []
        for arow in self.data:
            for brow in other.data:
                out.append([a * b for a in arow for b in brow])
        return ExactMatrix._of(self.field, out, self.cols * other.cols)

    def flatten(self):
        return [a for row in self.data for a in row]

    def submatrix(self, row0, col0, nrows, ncols):
        return ExactMatrix._of(
            self.field, [row[col0 : col0 + ncols] for row in self.data[row0 : row0 + nrows]], ncols
        )

    def paste(self, row0, col0, block: "ExactMatrix"):
        for i in range(block.rows):
            for j in range(block.cols):
                self.data[row0 + i][col0 + j] = block.data[i][j]

    def row_space(self) -> "RowSpace":
        """The RowSpace of this matrix's rows."""
        space = RowSpace(self.field, self.cols)
        for row in self.data:
            space.add(row)
        return space

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list).

        The pivot rows of ``row_space()``, in pivot order and padded with zero
        rows, are the unique RREF.
        """
        space = self.row_space()
        pivots = sorted(space.pivot_rows)
        zero = self.field.zero
        rows = [[zero] * self.cols for _ in range(self.rows)]
        for row, c in zip(rows, pivots):
            for j, x in space.pivot_rows[c].items():
                row[j] = x
        return ExactMatrix._of(self.field, rows, self.cols), pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel(self):
        """Basis of the right null space, as a list of column vectors."""
        return self.row_space().kernel()

    def solve(self, rhs: ExactMatrix):
        """X with self * X = rhs and its free unknowns zero, or None if a column of rhs has no solution.

        One elimination of [self | rhs] serves every column of rhs.
        """
        if rhs.rows != self.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} solved against {rhs.rows}x{rhs.cols}")
        n = self.cols
        aug = ExactMatrix._of(self.field, [row + y for row, y in zip(self.data, rhs.data)], n + rhs.cols)
        red, pivots = aug.rref()
        if pivots and pivots[-1] >= n:
            return None
        x = ExactMatrix.zeros(self.field, n, rhs.cols)
        for r, pc in enumerate(pivots):
            x.data[pc] = red.data[r][n:]
        return x

    def inverse(self):
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        x = self.solve(ExactMatrix.identity(self.field, self.rows))
        if x is None:
            raise ZeroDivisionError("matrix is singular")
        return x

    def serialize(self):
        return [[a.serialize() for a in row] for row in self.data]

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"

    def __str__(self):
        return "\n".join("[" + ", ".join(str(a) for a in row) + "]" for row in self.data)


class RowSpace:
    """Incrementally maintained row space with exact membership tests.

    Each pivot row is stored sparse, as ``{column: nonzero entry}``, and kept in
    reduced echelon form: its pivot entry is one, and it has no entry in any
    other pivot column.  `add` and `contains` take a row either as a list or as
    such a dict (explicit zeros allowed), and never modify it.
    """

    def __init__(self, field: CycloField, width: int):
        self.field = field
        self.width = width
        self.pivot_rows: dict[int, dict[int, CycloNum]] = {}

    def _reduce(self, vec) -> dict:
        """A fresh sparse copy of vec with every pivot column cleared."""
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        vec = {j: c for j, c in items if not c.is_zero()}
        # pivot rows are fully reduced: clearing one pivot column touches no other
        for piv in [j for j in vec if j in self.pivot_rows]:
            self._eliminate(vec, piv, self.pivot_rows[piv])
        return vec

    def _eliminate(self, vec: dict, piv: int, row: dict):
        """vec -= vec[piv] * row, for the pivot row of column piv; cancelled entries are dropped."""
        zero = self.field.zero
        c = vec.pop(piv)
        for j, b in row.items():
            if j != piv:
                x = vec.get(j, zero) - c * b
                if x.is_zero():
                    del vec[j]
                else:
                    vec[j] = x

    def contains(self, vec) -> bool:
        return not self._reduce(vec)

    def add(self, vec) -> bool:
        """Insert vec; True if it enlarged the space."""
        red = self._reduce(vec)
        if not red:
            return False
        piv = min(red)
        inv = red[piv].inverse()
        red = {j: inv * c for j, c in red.items() if j != piv}
        red[piv] = self.field.one
        for row in self.pivot_rows.values():
            if piv in row:
                self._eliminate(row, piv, red)
        self.pivot_rows[piv] = red
        return True

    @property
    def dim(self) -> int:
        return len(self.pivot_rows)

    def kernel(self):
        """Basis of the right null space of the rows added so far.

        One vector per free column fc, in increasing order: 1 at fc and minus
        the fc entry of each pivot row at its pivot.  The pivot rows are the
        unique RREF of the row space, so the basis depends only on the space,
        not on the order or repeats of the added rows.
        """
        zero, one = self.field.zero, self.field.one
        basis = []
        for fc in range(self.width):
            if fc in self.pivot_rows:
                continue
            vec = [zero] * self.width
            vec[fc] = one
            for pc, row in self.pivot_rows.items():
                if fc in row:
                    vec[pc] = -row[fc]
            basis.append(vec)
        return basis


def linear_combination(terms, zero: ExactMatrix | GradedOperator) -> ExactMatrix | GradedOperator:
    """Sum of c * M over the (c, M) pairs in `terms`, or `zero` when every term vanishes.

    M may be an ExactMatrix or a GradedOperator, the same type as `zero`;
    terms with a zero coefficient or a zero M are skipped unscaled.
    """
    out = None
    for c, mat in terms:
        if c == 0 or mat.is_zero():
            continue
        term = mat.scale(c)
        out = term if out is None else out + term
    return zero if out is None else out


def vec_is_zero(a):
    return all(x.is_zero() for x in a)


def basis_matrix(field, columns, rows: int) -> ExactMatrix:
    """The rows x len(columns) matrix whose columns are the given vectors.

    `rows` is passed, not read off the first column, so that no columns give
    a rows x 0 matrix.
    """
    if any(len(col) != rows for col in columns):
        raise DimensionMismatch(f"a column of a {rows}-row matrix has another length")
    return ExactMatrix._of(field, [list(ExactMatrix._coerce_row(field, (col[i] for col in columns)))
                                   for i in range(rows)], len(columns))
