"""Finite-dimensional graded modules over the jet algebra and over gl_d + gl_N.

A representation is one exact matrix per acting canonical basis symbol; its
cutoff is one more than their largest filtration degree.  Raw torus-side
symbols (second index not a class representative) act through the tail rule

    rho(XT(l, w + n)) = sum_j (n^j / j!) rho(XT(l + j, w)),

which is a finite sum thanks to the cutoff and is exactly what compatibility
with the weight-module construction forces.
"""
from __future__ import annotations

import random
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from .cyclo import CycloNum, parse_cyclonum, proper_factor_over_q
from .errors import (
    DimensionMismatch,
    InvalidModuleData,
    InvalidRepresentation,
    NotIrreducible,
    ParseError,
    SplittingNeedsFieldExtension,
)
from .jetalg import (
    bracket_keys,
    canonical_keys,
    degree_basis,
    gl_d_keys,
    key_class,
    key_degree,
    key_from_string,
    key_to_string,
    taylor_coefficient,
)
from .matrices import ExactMatrix, RowSpace, basis_matrix, linear_combination, vec_is_zero
from .torus import (
    TorusSpec,
    canonical_rep,
    class_representatives,
    dump_torus,
    exp_add,
    exp_sub,
    load_torus,
    sigma_hat,
    sigma_skew,
)


class GradedSpace:
    """Finite-dimensional space graded by torus classes, with a fixed basis order."""

    def __init__(self, spec: TorusSpec, dims: dict[tuple, int]):
        self.spec = spec
        self.field = spec.field
        self.dims = {c: n for c, n in dims.items() if n > 0}
        self.classes = sorted(self.dims)
        self.zero_class = canonical_rep(spec, (0,) * spec.d)
        self.offset = {}
        total = 0
        for c in self.classes:
            self.offset[c] = total
            total += self.dims[c]
        self.dim = total

    def __eq__(self, other):
        return self is other or (isinstance(other, GradedSpace) and self.spec == other.spec
                                 and self.dims == other.dims)

    def block(self, mat: ExactMatrix, c_from: tuple, c_to: tuple) -> ExactMatrix:
        """The block U_c_from -> U_c_to of a dense dim x dim matrix."""
        return mat.submatrix(self.offset.get(c_to, 0), self.offset.get(c_from, 0),
                             self.dims.get(c_to, 0), self.dims.get(c_from, 0))

    def shifted_class(self, c: tuple, w: tuple) -> tuple:
        return canonical_rep(self.spec, exp_add(c, w))


class GradedOperator:
    """A homogeneous operator on a GradedSpace: one block U_w -> U_tw per class w.

    tw is w moved by the operator's class `shift`.  It is stored next to the
    block, as ``blocks[w] = (tw, matrix)``, so reading a block needs no class
    arithmetic.  Only nonzero blocks are kept, so the zero operator has no
    blocks and equals the zero operator of every shift.  Sums, products,
    commutators and equality work block by block; ``dense`` alone builds the
    dim x dim matrix, and only serialization calls it.
    """

    __slots__ = ("space", "shift", "blocks")

    def __init__(self, space: GradedSpace, shift: tuple, blocks: dict):
        """`blocks` maps a class w to its matrix U_w -> U_(w + shift)."""
        shift = canonical_rep(space.spec, shift)
        targets = {}
        for w, mat in blocks.items():
            tw = space.shifted_class(w, shift)
            if (mat.rows, mat.cols) != (space.dims.get(tw, 0), space.dims.get(w, 0)):
                raise DimensionMismatch(f"block {mat.rows}x{mat.cols} does not map U_{w} to U_{tw}")
            targets[w] = tw, mat
        self.space, self.shift, self.blocks = space, shift, _nonzero_blocks(targets)

    @classmethod
    def _of(cls, space, shift, blocks) -> GradedOperator:
        """The operator of nonzero blocks {w: (tw, matrix)} whose target classes are already known."""
        op = cls.__new__(cls)
        op.space, op.shift, op.blocks = space, shift, blocks
        return op

    @classmethod
    def identity(cls, space: GradedSpace) -> GradedOperator:
        return cls._of(space, space.zero_class,
                       {w: (w, ExactMatrix.identity(space.field, n)) for w, n in space.dims.items()})

    def __add__(self, other):
        return self._merge(other, ExactMatrix.__add__, lambda mat: mat)

    def __sub__(self, other):
        return self._merge(other, ExactMatrix.__sub__, ExactMatrix.__neg__)

    def _merge(self, other, both, alone) -> GradedOperator:
        """Blocks both(mine, theirs) where both operators have one, alone(theirs) where only `other` has."""
        if self.shift != other.shift or self.space != other.space:
            raise DimensionMismatch(f"operators differ in shift ({self.shift}, {other.shift}) or in space")
        blocks = dict(self.blocks)
        for w, (tw, mat) in other.blocks.items():
            mine = blocks.get(w)
            blocks[w] = tw, alone(mat) if mine is None else both(mine[1], mat)
        return GradedOperator._of(self.space, self.shift, _nonzero_blocks(blocks))

    def scale(self, c) -> GradedOperator:
        """c times the operator; a nonzero c leaves every block nonzero."""
        if c == 0:
            return GradedOperator._of(self.space, self.shift, {})
        return GradedOperator._of(self.space, self.shift,
                                  {w: (tw, mat.scale(c)) for w, (tw, mat) in self.blocks.items()})

    def __mul__(self, other):
        """The composite: `other` acts first."""
        if self.space != other.space:
            raise DimensionMismatch("graded operators on different spaces")
        blocks = {w: (self.blocks[tw][0], self.blocks[tw][1] * mat)
                  for w, (tw, mat) in other.blocks.items() if tw in self.blocks}
        return GradedOperator._of(self.space, self.space.shifted_class(self.shift, other.shift),
                                  _nonzero_blocks(blocks))

    def commutator(self, other) -> GradedOperator:
        return self * other - other * self

    def __eq__(self, other):
        if not isinstance(other, GradedOperator):
            return NotImplemented
        return self.space == other.space and self.blocks == other.blocks

    def is_zero(self) -> bool:
        return not self.blocks

    def block(self, w: tuple) -> ExactMatrix:
        """The block U_w -> U_(w + shift), zero when it is not stored."""
        entry = self.blocks.get(w)
        if entry is not None:
            return entry[1]
        sp = self.space
        return ExactMatrix.zeros(sp.field, sp.dims.get(sp.shifted_class(w, self.shift), 0), sp.dims[w])

    def dense(self) -> ExactMatrix:
        """The dim x dim matrix of the operator in the space's basis order."""
        sp = self.space
        out = ExactMatrix.zeros(sp.field, sp.dim)
        for w, (tw, mat) in self.blocks.items():
            out.paste(sp.offset[tw], sp.offset[w], mat)
        return out


def _nonzero_blocks(blocks: dict) -> dict:
    return {w: entry for w, entry in blocks.items() if not entry[1].is_zero()}


class GRepresentation:
    """Graded representation of the jet algebra, defined by its action alone.

    `action` gives one operator per acting symbol, and ``cutoff`` is derived
    from it, 0 for the zero action.  An operator may be a GradedOperator, as
    every library path gives it, or a dense dim x dim ExactMatrix, as files
    and user code do.  A dense matrix is checked for size and grading and cut
    into its blocks here, and nowhere else.

    A representation is immutable: `action` is a read-only mapping, and the
    operators it holds, like every operator derived from them, are never
    changed in place.  That lets it keep, on the object itself, what depends
    on it alone: the report of each bracket check (``verify_representation``),
    the image of each jet element (``rho_element``), the action table of each
    weight-module symbol (``cuspidal.CuspidalModule``) and the commutant basis
    (``commutant``).  These memos belong to the object, so an equal but
    distinct representation computes them again.  For the same reason
    `space`, `cutoff` and `action` cannot be rebound after construction:
    a rebinding would leave the memos describing the old data.
    """

    _FIXED = frozenset({"space", "cutoff", "action"})

    def __init__(self, space: GradedSpace, action: dict):
        fixed = vars(self)  # the fixed attributes are set here only, past __setattr__
        fixed["space"] = space
        ops = {}
        for key, op in action.items():
            if op.is_zero():
                continue
            name = key_to_string(key)
            if key[0] == "XT" and key[2] != canonical_rep(space.spec, key[2]):
                raise InvalidRepresentation(f"action key {name} must use the class representative")
            shift = key_class(space.spec, key)
            if not isinstance(op, GradedOperator):
                op = self._graded(name, shift, op)
            elif op.space != space or op.shift != shift:
                raise InvalidRepresentation(f"operator for {name} has the wrong space or shift")
            ops[key] = op
        fixed["action"] = MappingProxyType(ops)
        fixed["cutoff"] = 1 + max(map(key_degree, ops), default=-1)
        self._reports = {}  # degree bound -> VerifyReport
        self._images = {}  # JetElement -> GradedOperator
        self._module_tables = {}  # weight-module symbol -> GradedOperator
        self._commutant = None  # tuple of GradedOperators once computed

    def __setattr__(self, name, value):
        if name in self._FIXED:
            raise AttributeError(f"GRepresentation.{name} cannot be rebound; build a new representation")
        object.__setattr__(self, name, value)

    def _graded(self, name: str, shift: tuple, mat: ExactMatrix) -> GradedOperator:
        """The operator of a dense matrix, which must map each U_c into U_(c + shift)."""
        sp = self.space
        if mat.rows != sp.dim or mat.cols != sp.dim:
            raise InvalidRepresentation(f"matrix for {name} has wrong size")
        op = GradedOperator(sp, shift, {c: sp.block(mat, c, tc) for c in sp.classes
                                        if (tc := sp.shifted_class(c, shift)) in sp.dims})
        outside = _entries(mat).keys() - _entries(op).keys()
        if outside:  # the first offending entry in column-major order is named
            i, j = min(outside, key=lambda ij: (ij[1], ij[0]))
            raise InvalidRepresentation(f"matrix for {name} breaks the grading at ({i},{j})")
        return op

    def rho(self, key) -> GradedOperator:
        """The action of any basis symbol; a raw torus index goes through the tail rule."""
        op = self.action.get(key)
        if op is not None:
            return op
        spec = self.space.spec
        w = key_class(spec, key)
        zero = GradedOperator(self.space, w, {})
        if key[0] == "XD" or key[2] == w:
            return zero
        _, l, s = key
        shift = exp_sub(s, w)
        return linear_combination(
            ((taylor_coefficient(shift, j), self.rho(("XT", exp_add(l, j), w)))
             for total in range(self.cutoff - sum(l)) for j in degree_basis(spec.d, total)), zero)

    def rho_element(self, element) -> GradedOperator:
        """The action of a jet element, computed once per element and then kept."""
        image = self._images.get(element)
        if image is None:
            image = self._images[element] = self._image(element)
        return image

    def _image(self, element) -> GradedOperator:
        """The action of a jet element, computed afresh and not kept."""
        sp = self.space
        shift = next((key_class(sp.spec, key) for key in element.terms), sp.zero_class)
        return linear_combination(((c, self.rho(key)) for key, c in element.terms.items()),
                                  GradedOperator(sp, shift, {}))

    def nonzero_keys(self):
        return sorted(self.action, key=key_to_string)

    def __eq__(self, other):
        return isinstance(other, GRepresentation) and self.space == other.space and self.action == other.action


class VerifyReport(NamedTuple):
    passed: bool
    cases: int
    first_failure: str | None = None


def first_bracket_failure(keys, image, bracket_image, skip=None):
    """First pair (a, b) of `keys` with bracket_image(a, b) != [image(a), image(b)].

    Walks keys x keys in row-major order and counts every ordered pair as a
    case, the pairs that `skip(a, b)` excuses from matrix work included.
    Returns (cases, None) when every pair holds, otherwise the cases up to the
    failing pair and (a, b, i, j), with (i, j) the first entry, in row-major
    order, where the two sides differ.

    Only the pairs above the diagonal are computed.  Both sides are
    antisymmetric in (a, b) and vanish on the diagonal, so a pair on or below
    the diagonal holds exactly when its mirror does.  The mirror of a pair
    below the diagonal comes earlier in row-major order, so the first failing
    pair always lies above the diagonal, and those n(n - 1)/2 pairs prove the
    relation on all n^2.
    """
    keys = list(keys)
    n = len(keys)
    images = [image(k) for k in keys]
    for p, a in enumerate(keys):
        for q in range(p + 1, n):
            b = keys[q]
            if skip is not None and skip(a, b):
                continue
            expected = bracket_image(a, b)
            actual = images[p].commutator(images[q])
            if expected != actual:
                return p * n + q + 1, (a, b, *_first_difference(expected, actual))
    return n * n, None


def _entries(x) -> dict:
    """Nonzero entries {(i, j): value} of a matrix or a graded operator, in whole-space indices."""
    if isinstance(x, GradedOperator):
        off = x.space.offset
        return {(off[tw] + i, off[w] + j): v for w, (tw, mat) in x.blocks.items()
                for i, row in enumerate(mat.data) for j, v in enumerate(row) if not v.is_zero()}
    return {(i, j): v for i, row in enumerate(x.data) for j, v in enumerate(row) if not v.is_zero()}


def _first_difference(x, y) -> tuple[int, int]:
    """First entry (i, j), in row-major order, where two matrices or two graded operators differ."""
    a, b = _entries(x), _entries(y)
    return min(ij for ij in a.keys() | b.keys() if a.get(ij) != b.get(ij))


def verify_representation(spec: TorusSpec, rep: GRepresentation, degree_bound: int | None = None) -> VerifyReport:
    """Check rho([a,b]) = [rho(a), rho(b)] over canonical symbol pairs.

    The pairs run over symbols of filtration degree <= degree_bound, by
    default the cutoff (at least 1, so that degree 1 is always reached).

    A failure names the pair and the first entry, in row-major order, where
    the two sides differ.

    Pairs where either symbol has degree >= cutoff are counted but need no
    matrix work: both sides vanish identically because brackets never lower
    the filtration degree.

    The report is kept on `rep` for each degree_bound, so a repeated check of
    the same object is free.  The bracket images are one-off, so they are
    computed without filling the ``rho_element`` memo.
    """
    if rep.space.spec != spec:
        raise DimensionMismatch("different torus specs")
    if degree_bound is None:
        degree_bound = max(rep.cutoff, 1)
    report = rep._reports.get(degree_bound)
    if report is not None:
        return report
    cases, failure = first_bracket_failure(
        canonical_keys(spec, degree_bound), rep.rho,
        lambda a, b: rep._image(bracket_keys(spec, a, b)),
        skip=lambda a, b: max(key_degree(a), key_degree(b)) >= rep.cutoff)
    if failure is None:
        report = VerifyReport(True, cases)
    else:
        ka, kb, i, j = failure
        report = VerifyReport(False, cases, f"[{key_to_string(ka)}, {key_to_string(kb)}] entry ({i}, {j})")
    rep._reports[degree_bound] = report
    return report


# ---------------------------------------------------------------------------
# standard gl_d and gl_N module data
# ---------------------------------------------------------------------------


class GLdGLNModule:
    """Module data for the quotient pair: gl_d matrices on V, a graded gl_N-module W.

    W is a GradedSpace and one GradedOperator X^w of shift w per class
    representative w.  The relations are checked once, on construction.
    """

    def __init__(self, spec: TorusSpec, V_mats: dict[tuple[int, int], ExactMatrix],
                 W: dict[tuple, GradedOperator], W_space: GradedSpace):
        self.spec = spec
        self.V_mats = V_mats
        self.W = W
        self.W_space = W_space
        self.validate()

    @property
    def dim_V(self) -> int:
        return next(iter(self.V_mats.values())).rows

    @property
    def dim_W(self) -> int:
        return self.W_space.dim

    @cached_property
    def tensor_space(self) -> GradedSpace:
        """Graded space of V (x) W: U_c = W_c (x) V.

        Its basis vectors w_b (x) v_a run class-major, then in W_c order, then in V order.
        """
        return GradedSpace(self.spec, {c: n * self.dim_V for c, n in self.W_space.dims.items()})

    def tensor(self, w_op: GradedOperator, v_mat: ExactMatrix) -> GradedOperator:
        """The operator w_op (x) v_mat on ``tensor_space``: its block on U_c is w_op's block on W_c kron v_mat."""
        return GradedOperator(self.tensor_space, w_op.shift,
                              {c: mat.kron(v_mat) for c, (_, mat) in w_op.blocks.items()})

    def validate(self):
        spec = self.spec
        dV = next((mat.rows for mat in self.V_mats.values()), None)  # None when empty: (1,1) is then missing
        gl_d = [(i, j) for i in range(1, spec.d + 1) for j in range(1, spec.d + 1)]
        for i, j in gl_d:
            mat = self.V_mats.get((i, j))
            if mat is None or (mat.rows, mat.cols) != (dV, dV):
                raise InvalidModuleData(f"missing or misshapen V generator ({i},{j})")
            if mat.field != self.W_space.field:
                raise InvalidModuleData(f"V generator ({i},{j}) is over {mat.field} but W is over {self.W_space.field}")
        zero = ExactMatrix.zeros(spec.field, dV)

        def gl_d_bracket(a, b):  # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj
            (i, j), (k, l) = a, b
            want = zero
            if j == k:
                want = want + self.V_mats[(i, l)]
            if l == i:
                want = want - self.V_mats[(k, j)]
            return want

        _, failure = first_bracket_failure(gl_d, self.V_mats.__getitem__, gl_d_bracket)
        if failure is not None:
            (i, j), (k, l) = failure[:2]
            raise InvalidModuleData(f"V relations fail at ({i},{j}),({k},{l})")
        reps = class_representatives(spec)
        for w in reps:  # the operator type keeps each X^w inside the grading
            op = self.W.get(w)
            if not isinstance(op, GradedOperator) or op.space != self.W_space or op.shift != w:
                raise InvalidModuleData(f"missing or misshapen W generator {w}")

        def gl_n_bracket(r, s):  # [X^r, X^s] = sigma_skew(r, s) X^(r+s)
            return self.W[canonical_rep(spec, exp_add(r, s))].scale(sigma_skew(spec, r, s))

        _, failure = first_bracket_failure(reps, self.W.__getitem__, gl_n_bracket)
        if failure is not None:
            r, s = failure[:2]
            raise InvalidModuleData(f"W relations fail at {r},{s}")


def natural_gld(spec: TorusSpec) -> dict[tuple[int, int], ExactMatrix]:
    """The natural d-dimensional module: E_ij acts as the matrix unit."""
    d = spec.d
    out = {}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            m = ExactMatrix.zeros(spec.field, d)
            m[i - 1, j - 1] = spec.field.one
            out[(i, j)] = m
    return out


def trivial_gld(spec: TorusSpec) -> dict[tuple[int, int], ExactMatrix]:
    d = spec.d
    z = ExactMatrix.zeros(spec.field, 1)
    return {(i, j): z for i in range(1, d + 1) for j in range(1, d + 1)}


def graded_regular_glN(spec: TorusSpec) -> tuple[dict[tuple, GradedOperator], GradedSpace]:
    """Left multiplication of gl_N on itself: W_c is spanned by X^c, and X^w X^c = sigma_hat(w, c) X^(w+c)."""
    reps = class_representatives(spec)
    space = GradedSpace(spec, {c: 1 for c in reps})
    return {w: GradedOperator(space, w, {c: ExactMatrix(spec.field, [[sigma_hat(spec, w, c)]]) for c in reps})
            for w in reps}, space


def pullback(spec: TorusSpec, vw: GLdGLNModule) -> GRepresentation:
    """Inflate a gl_d + gl_N module to the jet algebra through its quotient.

    Degree-zero symbols act by I_W (x) E_ij and X^w (x) I_V; everything of
    positive filtration degree acts as zero (cutoff 1).
    """
    identity_w = GradedOperator.identity(vw.W_space)
    identity_v = ExactMatrix.identity(spec.field, vw.dim_V)
    action = {key: vw.tensor(identity_w, vw.V_mats[pair]) for key, pair in gl_d_keys(spec.d)}
    for w in class_representatives(spec):
        action[("XT", (0,) * spec.d, w)] = vw.tensor(vw.W[w], identity_v)
    return GRepresentation(vw.tensor_space, action)


# module preset name -> its gl_d-module V; W is always the graded regular gl_N-module
PRESETS = {"natural-regular": natural_gld, "trivial-regular": trivial_gld}


def preset_pullback(spec: TorusSpec, name: str = "natural-regular") -> tuple[GLdGLNModule, GRepresentation]:
    """The quotient pair (V, W) of a module preset and its pullback."""
    if name not in PRESETS:
        raise ParseError(f"unknown module preset {name!r} (use {' or '.join(PRESETS)})")
    vw = GLdGLNModule(spec, PRESETS[name](spec), *graded_regular_glN(spec))
    return vw, pullback(spec, vw)


# ---------------------------------------------------------------------------
# commutant and irreducibility
# ---------------------------------------------------------------------------


def intertwiners(field, pairs) -> list:
    """Basis of {X : B * X = X * A for every (A, B) in pairs}.

    For ExactMatrix pairs, X is B.rows x A.rows and every entry is unknown.
    For GradedOperator pairs on one space, X preserves the grading: the
    unknowns are the entries of its blocks X_c, class by class and row-major
    inside a block, and the basis comes back as GradedOperators.  Each
    equation row is reduced into a RowSpace as it is made, as the sparse
    {unknown: coefficient} dict ``_equations`` builds, and the basis is read
    from its echelon form.
    """
    A0, B0 = pairs[0]
    graded = isinstance(A0, GradedOperator)
    if graded:
        sp = A0.space
        start, width = {}, 0
        for c in sp.classes:
            start[c] = width
            width += sp.dims[c] ** 2
    else:
        width = B0.rows * A0.rows
    space = RowSpace(field, width)
    for A, B in pairs:
        # block (tc, c) of B * X - X * A is B_c X_c - X_tc A_c, taken in the row order of U
        systems = [(B.block(c), A.block(c), start[c], start[tc]) for tc, c in _sources(A, B)] if graded \
            else [(B, A, 0, 0)]
        for system in systems:
            for row in _equations(*system):
                space.add(row)
        if space.dim == space.width:
            return []
    if graded:
        return [GradedOperator(sp, sp.zero_class, {
            c: ExactMatrix(field, [vec[start[c] + i * n:start[c] + (i + 1) * n] for i in range(n)])
            for c, n in sp.dims.items()}) for vec in space.kernel()]
    n = A0.rows
    return [ExactMatrix(field, [vec[i * n:(i + 1) * n] for i in range(B0.rows)]) for vec in space.kernel()]


def _sources(A: GradedOperator, B: GradedOperator) -> list:
    """(tc, c) for each class c that A or B moves to a class tc, in the order of tc."""
    if A.shift != B.shift:
        raise DimensionMismatch(f"graded operators of shifts {A.shift} and {B.shift}")
    source = {tc: c for op in (A, B) for c, (tc, _) in op.blocks.items()}
    return [(tc, source[tc]) for tc in A.space.classes if tc in source]


def _equations(B: ExactMatrix, A: ExactMatrix, s0: int, t0: int):
    """The nonzero rows of B * Xs - Xt * A, entry by entry in row-major order.

    Xs[k, j] is unknown s0 + k * A.cols + j and Xt[i, k] is unknown
    t0 + i * A.rows + k; a row maps unknowns to coefficients.
    """
    zero = A.field.zero
    for i in range(B.rows):
        for j in range(A.cols):
            row = {}
            for k in range(B.cols):
                if not B.data[i][k].is_zero():
                    u = s0 + k * A.cols + j
                    row[u] = row.get(u, zero) + B.data[i][k]
            for k in range(A.rows):
                if not A.data[k][j].is_zero():
                    u = t0 + i * A.rows + k
                    row[u] = row.get(u, zero) - A.data[k][j]
            if row:
                yield row


def commutant(rep: GRepresentation) -> list[GradedOperator]:
    """Basis of grading-preserving operators commuting with the whole action.

    The basis is computed once per representation and kept on it; each call
    returns a new list of the kept operators.
    """
    if rep._commutant is None:
        zero = GradedOperator(rep.space, rep.space.zero_class, {})  # no action: every graded X commutes
        rep._commutant = tuple(intertwiners(rep.space.field,
                                            [(op, op) for op in rep.action.values()] or [(zero, zero)]))
    return list(rep._commutant)


def is_absolutely_irreducible(rep: GRepresentation) -> bool:
    """Whether the graded commutant is one-dimensional.

    A one-dimensional graded commutant shows that the grading-preserving
    endomorphisms are the scalars.  That implies irreducibility only for a
    semisimple representation, such as the pullbacks that ``decompose_tensor``
    takes: a non-split extension can have scalar endomorphisms too.
    """
    return len(commutant(rep)) == 1


def truncated_polynomial_rep(spec: TorusSpec, order: int = 2) -> GRepresentation:
    """Vector fields acting on polynomials truncated above total degree `order`.

    All torus-side symbols act as zero; positive-degree vector fields act
    non-trivially, which makes this the standard example with cutoff `order`
    (> 1, so it is not a quotient-pair pullback).
    """
    d = spec.d
    fld = spec.field
    monos = [m for total in range(order + 1) for m in degree_basis(d, total)]
    index = {m: i for i, m in enumerate(monos)}
    w0 = canonical_rep(spec, (0,) * d)
    space = GradedSpace(spec, {w0: len(monos)})
    action = {}
    for total in range(1, order + 1):
        for p in degree_basis(d, total):
            for j in range(1, d + 1):
                m = ExactMatrix.zeros(fld, len(monos))
                for alpha in monos:
                    if alpha[j - 1] == 0:
                        continue
                    target = tuple(x + y - (k == j - 1) for k, (x, y) in enumerate(zip(alpha, p)))
                    if sum(target) > order:
                        continue
                    m[index[target], index[alpha]] = fld.from_rational(alpha[j - 1])
                action[("XD", p, j)] = GradedOperator(space, w0, {w0: m})
    return GRepresentation(space, action)


def scramble_representation(rep: GRepresentation, seed: int) -> GRepresentation:
    """Conjugate by a random exact block change of basis (grading preserved)."""
    rng = random.Random(seed)
    sp = rep.space
    fld = sp.field
    P, Pinv = {}, {}
    for c in sp.classes:
        n = sp.dims[c]
        while True:  # redraw a singular block
            block = ExactMatrix(fld, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            inv = block.solve(ExactMatrix.identity(fld, n))
            if inv is not None:
                break
        P[c], Pinv[c] = block, inv
    return GRepresentation(sp, {key: GradedOperator(sp, op.shift, {w: Pinv[tw] * mat * P[w]
                                                             for w, (tw, mat) in op.blocks.items()})
                                for key, op in rep.action.items()})


# ---------------------------------------------------------------------------
# tensor decomposition (constructive splitting into V and W factors)
# ---------------------------------------------------------------------------


def spin_up(field, mats: list[ExactMatrix], start) -> list:
    """Closure of a vector under repeated application of the given matrices."""
    space = RowSpace(field, len(start))
    basis = []
    if space.add(start):
        basis.append(list(start))
    frontier = list(basis)
    while frontier:
        new_frontier = []
        for vec in frontier:
            for m in mats:
                img = m.apply(vec)
                if not vec_is_zero(img) and space.add(img):
                    basis.append(img)
                    new_frontier.append(img)
        frontier = new_frontier
    return basis


def matrix_minimal_polynomial(field, m: ExactMatrix) -> list[CycloNum]:
    """Monic minimal polynomial coefficients, low degree first (monic omitted).

    They are the coordinates of m^t in I, m, ..., m^(t-1), for the first
    power m^t that the lower powers span.
    """
    size = m.rows * m.rows
    powers = [ExactMatrix.identity(field, m.rows)]
    while True:
        top = powers[-1] * m
        coords = basis_matrix(field, [power.flatten() for power in powers], size).solve(
            basis_matrix(field, [top.flatten()], size))
        if coords is not None:
            return [row[0] for row in coords.data]
        powers.append(top)


def _try_split(field, mats: list[ExactMatrix], n: int, rng) -> list | None:
    """Find a proper invariant subspace via the commutant, or None if simple.

    Each non-scalar candidate k (the commutant basis, then four seeded mixes)
    with a rational minimal polynomial mu is tried in turn: ker f(k) is
    invariant and proper for the factor f that ``proper_factor_over_q`` picks (the
    square-free part of mu, or x - r for a rational root r).  Raises
    SplittingNeedsFieldExtension when no candidate has such a factor; this
    includes the one case missed over Q, a square-free mu without rational
    roots that factors into pieces of degree >= 2.
    """
    comm = intertwiners(field, [(g, g) for g in mats])
    if len(comm) <= 1:
        return None
    ident = ExactMatrix.identity(field, n)
    candidates = comm + [linear_combination(((rng.randint(-2, 2), c) for c in comm),
                                            ExactMatrix.zeros(field, n)) for _ in range(4)]
    for k in candidates:
        if (k - ident.scale(k[0, 0])).is_zero():
            continue  # scalar
        coeffs = matrix_minimal_polynomial(field, k)
        if not all(c.is_rational() for c in coeffs):
            continue
        factor = proper_factor_over_q([-c.as_rational() for c in coeffs] + [1])
        if factor is None:
            continue
        fk = ExactMatrix.zeros(field, n)
        for c in reversed(factor):
            fk = fk * k + ident.scale(c)
        kern = fk.kernel()
        if 0 < len(kern) < n:
            return kern
    raise SplittingNeedsFieldExtension(
        f"no element of the {len(comm)}-dimensional commutant has a rational minimal"
        " polynomial with a repeated factor or a rational root"
    )


def _irreducible_gld_submodule(field, gld_mats, basis, rng):
    """Shrink a submodule of one class U_c to an irreducible one and return its gl_d matrices.

    `basis` spans the submodule as columns of U_c, and `gld_mats` are the
    class-c blocks of the gl_d generators.
    """
    mats_list = list(gld_mats.values())
    while True:
        B = basis_matrix(field, basis, mats_list[0].rows)
        restricted = {key: B.solve(m * B) for key, m in gld_mats.items()}
        if None in restricted.values():
            raise InvalidRepresentation("subspace is not invariant")
        split = _try_split(field, list(restricted.values()), len(basis), rng)
        if split is None:
            return restricted
        # lift one vector of the invariant subspace to the ambient coordinates
        basis = spin_up(field, mats_list, B.apply(split[0]))


def _probe_vectors(sp: GradedSpace, gld_ops: dict, probes: int, rng) -> list:
    """Homogeneous probe vectors as (class c, column of U_c): top-power images of the
    nilpotent gl_d generators, then plain basis vectors, then seeded random vectors of one class."""
    fld = sp.field
    out = []
    for (i, j), op in gld_ops.items():
        if i == j or op.is_zero():
            continue
        power = prev = op
        for _ in range(sp.dim):  # off-diagonal unit images are nilpotent
            if power.is_zero():
                break
            prev = power
            power = power * op
        # the first nonzero column of prev, in the basis order of the space
        c = next(c for c in sp.classes if c in prev.blocks)
        out.append((c, next(col for col in prev.blocks[c][1].transpose().data if not vec_is_zero(col))))
    for c in sp.classes:
        out += [(c, unit) for unit in ExactMatrix.identity(fld, sp.dims[c]).data]
    for _ in range(4):
        c = sp.classes[rng.randrange(len(sp.classes))]
        vec = [fld.from_rational(rng.randint(-2, 2)) for _ in range(sp.dims[c])]
        if not vec_is_zero(vec):
            out.append((c, vec))
    return out[: max(probes, 1)]


def decompose_tensor(
    spec: TorusSpec, rep: GRepresentation, probes: int = 8, seed: int = 1
) -> tuple[GLdGLNModule, GradedOperator]:
    """Split an absolutely irreducible quotient-pair module into V and W factors.

    Returns the recovered module data and the exact isomorphism Phi, a
    grading-preserving operator from the rebuilt pullback's space (which
    equals rep.space) onto rep.space, with rho_original(key) * Phi =
    Phi * rho_rebuilt(key) for every generator.

    The gl_d generators preserve every class U_c, and every probe vector lies
    in one class, so V is found inside one U_c: the spin-up, its restriction
    and its splitting work on the class-c blocks of the gl_d operators, and no
    dim U x dim U matrix is built.
    """
    sp = rep.space
    fld = sp.field
    if sp.spec != spec:
        raise DimensionMismatch("different torus specs")
    if len(commutant(rep)) != 1:
        raise NotIrreducible("graded commutant has dimension != 1")
    rng = random.Random(seed)
    gld_ops = {pair: rep.rho(key) for key, pair in gl_d_keys(spec.d)}
    gld_blocks = {c: {pair: op.block(c) for pair, op in gld_ops.items()} for c in sp.classes}
    best = None
    for c, vec in _probe_vectors(sp, gld_ops, probes, rng):
        basis = spin_up(fld, list(gld_blocks[c].values()), vec)
        if basis and (best is None or len(basis) < len(best[1])):
            best = c, basis
        if best is not None and len(best[1]) == 1:
            break
    if best is None:
        raise NotIrreducible("no nonzero probe vector found")
    v_mats = _irreducible_gld_submodule(fld, gld_blocks[best[0]], best[1], rng)
    # intertwiner spaces Hom_{gl_d}(V, U_c), one per class
    w_basis_per_class = {
        c: intertwiners(fld, [(vm, gld_blocks[c][ij]) for ij, vm in v_mats.items()])
        for c in sp.classes
    }
    # X^w on W = the intertwiner spaces: its block on W_c holds, column by column, the
    # coordinates of X^w f in Hom(V, U_tc) for the f of class c
    W_space = GradedSpace(spec, {c: len(fs) for c, fs in w_basis_per_class.items()})
    dim_V = next(iter(v_mats.values())).rows
    W = {}
    for w in class_representatives(spec):
        torus = rep.rho(("XT", (0,) * spec.d, w))
        blocks = {}
        for c in W_space.classes:
            tc = sp.shifted_class(c, w)
            rows = sp.dims.get(tc, 0) * dim_V  # Hom(V, U_tc), flattened
            blocks[c] = basis_matrix(fld, [f.flatten() for f in w_basis_per_class.get(tc, [])], rows).solve(
                basis_matrix(fld, [(torus.block(c) * f).flatten() for f in w_basis_per_class[c]], rows))
            if blocks[c] is None:
                raise NotIrreducible("torus action leaves the intertwiner spaces")
        W[w] = GradedOperator(W_space, w, blocks)
    vw = GLdGLNModule(spec, v_mats, W, W_space)  # validates itself; nothing checked that rep is a representation
    rebuilt = pullback(spec, vw)
    if rebuilt.space != sp:
        raise NotIrreducible("rebuilt tensor module does not have the class dimensions of U")
    # isomorphism: the tensor basis vector w_b (x) v_a of class c maps to f_b(v_a), so
    # the block of Phi on U_c is the f_b of class c side by side
    phi = GradedOperator(sp, sp.zero_class, {
        c: ExactMatrix(fld, [[x for f in fs for x in f.data[i]] for i in range(sp.dims[c])])
        for c, fs in w_basis_per_class.items()})
    if any(phi.block(c).rank() != n for c, n in sp.dims.items()):
        raise NotIrreducible("tensor comparison map is singular")
    for key in set(rep.nonzero_keys()) | set(rebuilt.nonzero_keys()):
        if rep.rho(key) * phi != phi * rebuilt.rho(key):
            raise NotIrreducible(f"comparison map fails to intertwine {key_to_string(key)}")
    return vw, phi


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def rep_to_dict(rep: GRepresentation, alpha=None) -> dict:
    sp = rep.space
    data = {
        "format": "qtlie-representation",
        "torus": dump_torus(sp.spec),
        "cutoff": rep.cutoff,
        "classes": [{"w": list(c), "dim": sp.dims[c]} for c in sp.classes],
        "action": [
            {"key": key_to_string(k), "matrix": rep.action[k].dense().serialize()}
            for k in rep.nonzero_keys()
        ],
    }
    if alpha is not None:
        data["alpha"] = [a.serialize() for a in alpha]
    return data


def rep_from_dict(data: dict):
    """Inverse of ``rep_to_dict``; malformed data, or a cutoff that the action does not give, raises ParseError."""
    if not isinstance(data, dict) or data.get("format") != "qtlie-representation":
        raise ParseError("not a representation file")
    try:
        spec = load_torus(data["torus"])
        space = GradedSpace(spec, {tuple(entry["w"]): int(entry["dim"]) for entry in data["classes"]})
        action = {
            key_from_string(entry["key"]): ExactMatrix(
                spec.field, [[parse_cyclonum(s, spec.field) for s in row] for row in entry["matrix"]])
            for entry in data["action"]
        }
        cutoff = int(data["cutoff"])
        alpha = tuple(parse_cyclonum(s, spec.field) for s in data["alpha"]) if "alpha" in data else None
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        raise ParseError(f"invalid representation data: {exc!r}") from exc
    rep = GRepresentation(space, action)
    if rep.cutoff != cutoff:
        raise ParseError(f"file cutoff {cutoff} differs from the cutoff {rep.cutoff} of its action")
    return spec, rep, alpha
