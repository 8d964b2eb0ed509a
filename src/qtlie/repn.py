"""Finite-dimensional graded modules over the jet algebra and over gl_d + gl_N.

A representation stores one exact matrix per canonical basis symbol below its
cutoff; symbols of filtration degree >= cutoff act as zero.  Raw torus-side
symbols (second index not a class representative) act through the tail rule

    rho(XT(l, w + n)) = sum_j (n^j / j!) rho(XT(l + j, w)),

which is a finite sum thanks to the cutoff and is exactly what compatibility
with the weight-module construction forces.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .cyclo import CycloNum, parse_cyclonum, proper_factor_over_q
from .errors import (
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
        self.offset = {}
        total = 0
        for c in self.classes:
            self.offset[c] = total
            total += self.dims[c]
        self.dim = total

    def __eq__(self, other):
        return isinstance(other, GradedSpace) and self.spec == other.spec and self.dims == other.dims

    def class_of_index(self, i: int) -> tuple:
        for c in self.classes:
            if self.offset[c] <= i < self.offset[c] + self.dims[c]:
                return c
        raise IndexError(i)

    def block(self, mat: ExactMatrix, c_from: tuple, c_to: tuple) -> ExactMatrix:
        return mat.submatrix(
            self.offset.get(c_to, 0),
            self.offset.get(c_from, 0),
            self.dims.get(c_to, 0),
            self.dims.get(c_from, 0),
        )

    def shifted_class(self, c: tuple, w: tuple) -> tuple:
        return canonical_rep(self.spec, exp_add(c, w))


class GRepresentation:
    """Graded representation of the jet algebra by exact matrices."""

    def __init__(self, space: GradedSpace, action: dict, cutoff: int):
        self.space = space
        self.cutoff = cutoff
        self.action = {}
        for key, mat in action.items():
            if mat.is_zero():
                continue
            if key_degree(key) >= cutoff:
                raise InvalidRepresentation(
                    f"symbol {key_to_string(key)} has degree >= cutoff {cutoff} but acts non-trivially"
                )
            self.action[key] = mat
        self._zero = ExactMatrix.zeros(space.field, space.dim)
        self._check_block_structure()

    def _check_block_structure(self):
        sp = self.space
        for key, mat in self.action.items():
            if mat.rows != sp.dim or mat.cols != sp.dim:
                raise InvalidRepresentation(f"matrix for {key_to_string(key)} has wrong size")
            if key[0] == "XT" and key[2] != canonical_rep(sp.spec, key[2]):
                raise InvalidRepresentation(
                    f"action key {key_to_string(key)} must use the class representative"
                )
            w = key_class(sp.spec, key) if key[0] == "XT" else None
            for j in range(sp.dim):
                c_from = sp.class_of_index(j)
                c_to = sp.shifted_class(c_from, w) if w is not None else c_from
                for i in range(sp.dim):
                    if not mat[i, j].is_zero() and sp.class_of_index(i) != c_to:
                        raise InvalidRepresentation(
                            f"matrix for {key_to_string(key)} breaks the grading at ({i},{j})"
                        )

    def rho(self, key) -> ExactMatrix:
        if key_degree(key) >= self.cutoff:
            return self._zero
        return self.action.get(key, self._zero)

    def rho_raw(self, key) -> ExactMatrix:
        """Action of a symbol whose torus index need not be a class representative."""
        if key[0] == "XD":
            return self.rho(key)
        _, l, s = key
        spec = self.space.spec
        w = canonical_rep(spec, s)
        shift = tuple(a - b for a, b in zip(s, w))
        if all(x == 0 for x in shift):
            return self.rho(("XT", l, w))
        return linear_combination(
            ((taylor_coefficient(shift, j), self.rho(("XT", exp_add(l, j), w)))
             for total in range(self.cutoff - sum(l)) for j in degree_basis(spec.d, total)),
            self._zero)

    def rho_element(self, element) -> ExactMatrix:
        return linear_combination(((c, self.rho_raw(key)) for key, c in element.terms.items()),
                                  self._zero)

    def nonzero_keys(self):
        return sorted(self.action, key=key_to_string)

    def __eq__(self, other):
        return (
            isinstance(other, GRepresentation)
            and self.space == other.space
            and self.cutoff == other.cutoff
            and self.action.keys() == other.action.keys()
            and all(self.action[k] == other.action[k] for k in self.action)
        )


@dataclass
class VerifyReport:
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
                i, j = next((i, j) for i in range(expected.rows) for j in range(expected.cols)
                            if expected[i, j] != actual[i, j])
                return p * n + q + 1, (a, b, i, j)
    return n * n, None


def verify_representation(spec: TorusSpec, rep: GRepresentation, degree_bound: int) -> VerifyReport:
    """Check rho([a,b]) = [rho(a), rho(b)] over canonical symbol pairs.

    A failure names the pair and the first entry, in row-major order, where
    the two sides differ.

    Pairs where either symbol has degree >= cutoff are counted but need no
    matrix work: both sides vanish identically because brackets never lower
    the filtration degree.
    """
    cases, failure = first_bracket_failure(
        canonical_keys(spec, degree_bound), rep.rho,
        lambda a, b: rep.rho_element(bracket_keys(spec, a, b)),
        skip=lambda a, b: max(key_degree(a), key_degree(b)) >= rep.cutoff)
    if failure is None:
        return VerifyReport(True, cases)
    ka, kb, i, j = failure
    return VerifyReport(False, cases, f"[{key_to_string(ka)}, {key_to_string(kb)}] entry ({i}, {j})")


# ---------------------------------------------------------------------------
# standard gl_d and gl_N module data
# ---------------------------------------------------------------------------


@dataclass
class GLdGLNModule:
    """Module data for the quotient pair: gl_d matrices on V, graded gl_N data on W.

    The relations are checked once, on construction.
    """

    spec: TorusSpec
    V_mats: dict[tuple[int, int], ExactMatrix]
    W_mats: dict[tuple, ExactMatrix]
    W_classes: list[tuple]

    def __post_init__(self):
        self.validate()

    @property
    def dim_V(self) -> int:
        return next(iter(self.V_mats.values())).rows

    @property
    def dim_W(self) -> int:
        return len(self.W_classes)

    def tensor_layout(self) -> tuple[GradedSpace, dict[tuple[int, int], int]]:
        """Graded space of V (x) W and the position of basis vector (W index b, V index a).

        Positions run class-major, then in W order, then in V order.
        """
        dV = self.dim_V
        dims: dict[tuple, int] = {}
        for c in self.W_classes:
            dims[c] = dims.get(c, 0) + dV
        space = GradedSpace(self.spec, dims)
        position = {}
        base = dict(space.offset)
        for b, c in enumerate(self.W_classes):
            for a in range(dV):
                position[(b, a)] = base[c] + a
            base[c] += dV
        return space, position

    def validate(self):
        spec = self.spec
        dV = next((mat.rows for mat in self.V_mats.values()), None)  # None when empty: (1,1) is then missing
        gl_d = [(i, j) for i in range(1, spec.d + 1) for j in range(1, spec.d + 1)]
        for i, j in gl_d:
            mat = self.V_mats.get((i, j))
            if mat is None or (mat.rows, mat.cols) != (dV, dV):
                raise InvalidModuleData(f"missing or misshapen V generator ({i},{j})")
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
        dW = self.dim_W
        for w in reps:
            mat = self.W_mats.get(w)
            if mat is None or (mat.rows, mat.cols) != (dW, dW):
                raise InvalidModuleData(f"missing or misshapen W generator {w}")
            for b in range(dW):
                target = canonical_rep(spec, exp_add(self.W_classes[b], w))
                for a in range(dW):
                    if not mat[a, b].is_zero() and self.W_classes[a] != target:
                        raise InvalidModuleData(f"W generator {w} breaks the grading")

        def gl_n_bracket(r, s):  # [X^r, X^s] = sigma_skew(r, s) X^(r+s)
            return self.W_mats[canonical_rep(spec, exp_add(r, s))].scale(sigma_skew(spec, r, s))

        _, failure = first_bracket_failure(reps, self.W_mats.__getitem__, gl_n_bracket)
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


def graded_regular_glN(spec: TorusSpec) -> tuple[dict[tuple, ExactMatrix], list[tuple]]:
    """Left multiplication of gl_N on itself, graded by class representatives."""
    reps = class_representatives(spec)
    index = {w: i for i, w in enumerate(reps)}
    mats = {}
    for w in reps:
        m = ExactMatrix.zeros(spec.field, len(reps))
        for c in reps:
            target = canonical_rep(spec, exp_add(w, c))
            m[index[target], index[c]] = sigma_hat(spec, w, c)
        mats[w] = m
    return mats, list(reps)


def pullback(spec: TorusSpec, vw: GLdGLNModule) -> GRepresentation:
    """Inflate a gl_d + gl_N module to the jet algebra through its quotient.

    Degree-zero symbols act by E_ij (x) id and id (x) X^w; everything of
    positive filtration degree acts as zero (cutoff 1).
    """
    dV = vw.dim_V
    dW = vw.dim_W
    space, position = vw.tensor_layout()
    action = {}
    fld = spec.field
    for key, pair in gl_d_keys(spec.d):
        vmat = vw.V_mats[pair]
        m = ExactMatrix.zeros(fld, space.dim)
        for b in range(dW):
            for a2 in range(dV):
                for a in range(dV):
                    if not vmat[a2, a].is_zero():
                        m[position[(b, a2)], position[(b, a)]] = vmat[a2, a]
        action[key] = m
    for w in class_representatives(spec):
        wmat = vw.W_mats[w]
        m = ExactMatrix.zeros(fld, space.dim)
        for b in range(dW):
            for b2 in range(dW):
                if not wmat[b2, b].is_zero():
                    for a in range(dV):
                        m[position[(b2, a)], position[(b, a)]] = wmat[b2, b]
        action[("XT", (0,) * spec.d, w)] = m
    return GRepresentation(space, action, cutoff=1)


# ---------------------------------------------------------------------------
# commutant, irreducibility, annihilation degree
# ---------------------------------------------------------------------------


def intertwiners(field, pairs, blocks=None) -> list[ExactMatrix]:
    """Basis of {X : B * X = X * A for every (A, B) in pairs}.

    X is B.rows x A.rows, or, when `blocks` lists square block sizes, block
    diagonal with those blocks.  The unknowns are the free entries of X in
    row-major order, block by block; each equation row is reduced into a
    RowSpace as it is made, and the basis is read from its echelon form.
    """
    if blocks is None:
        A, B = pairs[0]
        shape = (B.rows, A.rows)
        cells = [(i, j) for i in range(B.rows) for j in range(A.rows)]
    else:
        shape = (sum(blocks), sum(blocks))
        cells, start = [], 0
        for n in blocks:
            cells += [(start + i, start + j) for i in range(n) for j in range(n)]
            start += n
    in_row = [[] for _ in range(shape[0])]  # (k, u): X[i, k] is unknown u
    in_col = [[] for _ in range(shape[1])]  # (k, u): X[k, j] is unknown u
    for u, (i, j) in enumerate(cells):
        in_row[i].append((j, u))
        in_col[j].append((i, u))
    zero = field.zero
    space = RowSpace(field, len(cells))
    for A, B in pairs:
        for i in range(shape[0]):
            for j in range(shape[1]):
                row = {}  # entry (i, j) of B * X - X * A
                for k, u in in_col[j]:
                    if not B.data[i][k].is_zero():
                        row[u] = row.get(u, zero) + B.data[i][k]
                for k, u in in_row[i]:
                    if not A.data[k][j].is_zero():
                        row[u] = row.get(u, zero) - A.data[k][j]
                if row:
                    space.add([row.get(u, zero) for u in range(space.width)])
        if space.dim == space.width:
            return []
    out = []
    for vec in space.kernel():
        X = ExactMatrix.zeros(field, *shape)
        for u, (i, j) in enumerate(cells):
            X.data[i][j] = vec[u]
        out.append(X)
    return out


def commutant(rep: GRepresentation) -> list[ExactMatrix]:
    """Basis of grading-preserving matrices commuting with the whole action."""
    sp = rep.space
    return intertwiners(sp.field, [(m, m) for m in rep.action.values()],
                        [sp.dims[c] for c in sp.classes])


def is_absolutely_irreducible(rep: GRepresentation) -> bool:
    return len(commutant(rep)) == 1


def min_annihilation_degree(rep: GRepresentation) -> int:
    """Least p such that every symbol of filtration degree >= p acts as zero."""
    degs = [key_degree(k) for k in rep.action]
    return max(degs) + 1 if degs else 0


def truncated_polynomial_rep(spec: TorusSpec, order: int = 2) -> GRepresentation:
    """Vector fields acting on polynomials truncated above total degree `order`.

    All torus-side symbols act as zero; positive-degree vector fields act
    non-trivially, which makes this the standard example with annihilation
    degree `order` (> 1, so it is not a quotient-pair pullback).
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
                nonzero = False
                for alpha in monos:
                    if alpha[j - 1] == 0:
                        continue
                    target = list(exp_add(alpha, p))
                    target[j - 1] -= 1
                    target = tuple(target)
                    if sum(target) > order:
                        continue
                    m[index[target], index[alpha]] = fld.from_rational(alpha[j - 1])
                    nonzero = True
                if nonzero:
                    action[("XD", p, j)] = m
    return GRepresentation(space, action, cutoff=order)


def scramble_representation(rep: GRepresentation, seed: int) -> GRepresentation:
    """Conjugate by a random exact block change of basis (grading preserved)."""
    rng = random.Random(seed)
    sp = rep.space
    fld = sp.field
    P = ExactMatrix.zeros(fld, sp.dim)
    for c in sp.classes:
        n = sp.dims[c]
        while True:
            block = ExactMatrix(
                fld, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            )
            if block.rank() == n:
                break
        P.paste(sp.offset[c], sp.offset[c], block)
    Pinv = P.inverse()
    action = {key: Pinv * mat * P for key, mat in rep.action.items()}
    return GRepresentation(sp, action, rep.cutoff)


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


def _restriction(field, mats: dict, basis: list) -> dict:
    """Matrices of the given action restricted to span(basis), in that basis."""
    B = basis_matrix(field, basis)
    out = {}
    for key, m in mats.items():
        cols = []
        for vec in basis:
            img = m.apply(vec)
            coords = B.solve(img)
            if coords is None:
                raise InvalidRepresentation("subspace is not invariant")
            cols.append(coords)
        out[key] = ExactMatrix(field, [[cols[j][i] for j in range(len(cols))] for i in range(len(basis))])
    return out


def matrix_minimal_polynomial(field, m: ExactMatrix) -> list[CycloNum]:
    """Monic minimal polynomial coefficients, low degree first (monic omitted)."""
    n = m.rows
    powers = [ExactMatrix.identity(field, n)]
    space = RowSpace(field, n * n)
    space.add(powers[0].flatten())
    cur = powers[0]
    while True:
        cur = cur * m
        flat = cur.flatten()
        if space.contains(flat):
            break
        space.add(flat)
        powers.append(cur)
    B = basis_matrix(field, [p.flatten() for p in powers])
    coords = B.solve(cur.flatten())
    return coords  # x^t = sum coords_i x^i, t = len(powers)


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
    comm = intertwiners(field, [(g, g) for g in mats], [n])
    if len(comm) <= 1:
        return None
    candidates = [c for c in comm]
    for _ in range(4):
        mix = ExactMatrix.zeros(field, n)
        for c in comm:
            mix = mix + c.scale(rng.randint(-2, 2))
        candidates.append(mix)
    ident = ExactMatrix.identity(field, n)
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
    """Shrink a submodule (given by a basis of columns) to an irreducible one."""
    mats_list = [m for m in gld_mats.values()]
    while True:
        restricted = _restriction(field, gld_mats, basis)
        n = len(basis)
        split = _try_split(field, list(restricted.values()), n, rng)
        if split is None:
            return basis, restricted
        # lift one vector of the invariant subspace to the ambient coordinates
        basis = spin_up(field, mats_list, basis_matrix(field, basis).apply(split[0]))


def _probe_vectors(rep: GRepresentation, probes: int, rng) -> list:
    """Homogeneous probe vectors: top-power images of nilpotent gl_d generators,
    then plain basis vectors, then seeded random homogeneous vectors."""
    sp = rep.space
    fld = sp.field
    out = []
    for key, _ in gl_d_keys(sp.spec.d):
        i, j = key[1].index(1) + 1, key[2]
        if i == j:
            continue
        mat = rep.rho(key)
        if mat.is_zero():
            continue
        power = mat
        prev = mat
        for _ in range(sp.dim):  # off-diagonal unit images are nilpotent
            if power.is_zero():
                break
            prev = power
            power = power * mat
        for col in range(sp.dim):
            vec = [prev[r, col] for r in range(sp.dim)]
            if not vec_is_zero(vec):
                out.append(vec)
                break
    for idx in range(sp.dim):
        vec = [fld.zero] * sp.dim
        vec[idx] = fld.one
        out.append(vec)
    for _ in range(4):
        c = sp.classes[rng.randrange(len(sp.classes))]
        vec = [fld.zero] * sp.dim
        for local in range(sp.dims[c]):
            vec[sp.offset[c] + local] = fld.from_rational(rng.randint(-2, 2))
        if not vec_is_zero(vec):
            out.append(vec)
    return out[: max(probes, 1)]


def decompose_tensor(
    spec: TorusSpec, rep: GRepresentation, probes: int = 8, seed: int = 1
) -> tuple[GLdGLNModule, ExactMatrix]:
    """Split an absolutely irreducible quotient-pair module into V and W factors.

    Returns the recovered module data and the exact isomorphism matrix Phi
    with rho_original(key) * Phi = Phi * rho_rebuilt(key) for every generator.
    """
    sp = rep.space
    fld = sp.field
    if len(commutant(rep)) != 1:
        raise NotIrreducible("graded commutant has dimension != 1")
    rng = random.Random(seed)
    gld_mats = {pair: rep.rho(key) for key, pair in gl_d_keys(spec.d)}
    mats_list = list(gld_mats.values())
    best = None
    for vec in _probe_vectors(rep, probes, rng):
        basis = spin_up(fld, mats_list, vec)
        if basis and (best is None or len(basis) < len(best)):
            best = basis
        if best is not None and len(best) == 1:
            break
    if best is None:
        raise NotIrreducible("no nonzero probe vector found")
    v_basis, v_mats = _irreducible_gld_submodule(fld, gld_mats, best, rng)
    dV = len(v_basis)
    # intertwiner spaces Hom_{gl_d}(V, U_c), one per class
    w_basis_per_class = {
        c: intertwiners(fld, [(vm, sp.block(gld_mats[ij], c, c)) for ij, vm in v_mats.items()])
        for c in sp.classes
    }
    dW = sum(len(v) for v in w_basis_per_class.values())
    if dV * dW != sp.dim:
        raise NotIrreducible(f"multiplicity count {dV}*{dW} != {sp.dim}")
    W_classes = []
    flat_w = []
    for c in sp.classes:
        for f in w_basis_per_class[c]:
            W_classes.append(c)
            flat_w.append((c, f))
    # action of the torus-side generators on the intertwiner spaces
    W_mats = {}
    for w in class_representatives(spec):
        big = rep.rho(("XT", (0,) * spec.d, w))
        m = ExactMatrix.zeros(fld, dW)
        for b, (c, f) in enumerate(flat_w):
            tc = sp.shifted_class(c, w)
            blk = sp.block(big, c, tc)
            img = blk * f  # Hom(V, U_tc)
            targets = w_basis_per_class.get(tc, [])
            if not targets:
                if not img.is_zero():
                    raise NotIrreducible("torus action leaves the intertwiner spaces")
                continue
            T = basis_matrix(fld, [t.flatten() for t in targets])
            coords = T.solve(img.flatten())
            if coords is None:
                raise NotIrreducible("torus action leaves the intertwiner spaces")
            base = W_classes.index(tc)
            for t_local, coeff in enumerate(coords):
                m[base + t_local, b] = coeff
        W_mats[w] = m
    vw = GLdGLNModule(spec, v_mats, W_mats, W_classes)  # validates itself
    rebuilt = pullback(spec, vw)
    if rebuilt.space.dim != sp.dim:
        raise NotIrreducible("rebuilt tensor module has wrong dimension")
    # isomorphism: tensor basis element (b, a) maps to f_b(v_a)
    _, position = vw.tensor_layout()
    phi = ExactMatrix.zeros(fld, sp.dim)
    for b, (c, f) in enumerate(flat_w):
        for a in range(dV):
            for r in range(sp.dims[c]):
                phi[sp.offset[c] + r, position[(b, a)]] = f[r, a]
    if phi.rank() != sp.dim:
        raise NotIrreducible("tensor comparison map is singular")
    for key in set(rep.nonzero_keys()) | set(rebuilt.nonzero_keys()):
        if rep.rho(key) * phi != phi * rebuilt.rho(key):
            raise NotIrreducible(f"comparison map fails to intertwine {key_to_string(key)}")
    return vw, phi


def probe_submodules_isomorphic(spec: TorusSpec, rep: GRepresentation, count: int, seed: int) -> bool:
    """Spin several probes to irreducible submodules; check pairwise intertwiners."""
    fld = rep.space.field
    rng = random.Random(seed)
    gld_mats = {pair: rep.rho(key) for key, pair in gl_d_keys(spec.d)}
    mats_list = list(gld_mats.values())
    found = []
    for vec in _probe_vectors(rep, count, rng):
        basis = spin_up(fld, mats_list, vec)
        if not basis:
            continue
        basis, restricted = _irreducible_gld_submodule(fld, gld_mats, basis, rng)
        found.append(restricted)
        if len(found) >= count:
            break
    return all(intertwiners(fld, [(found[0][pair], other[pair]) for pair in found[0]])
               for other in found[1:])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def rep_to_dict(rep: GRepresentation, alpha=None) -> dict:
    sp = rep.space
    data = {
        "format": "qtlie-representation",
        "torus": json.loads(dump_torus(sp.spec)),
        "cutoff": rep.cutoff,
        "classes": [{"w": list(c), "dim": sp.dims[c]} for c in sp.classes],
        "action": [
            {"key": key_to_string(k), "matrix": rep.action[k].serialize()}
            for k in rep.nonzero_keys()
        ],
    }
    if alpha is not None:
        data["alpha"] = [a.serialize() for a in alpha]
    return data


def rep_from_dict(data: dict):
    """Inverse of ``rep_to_dict``; malformed data raises ParseError."""
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
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid representation data: {exc!r}") from exc
    return spec, GRepresentation(space, action, cutoff), alpha
