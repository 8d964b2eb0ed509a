"""Bounded-multiplicity weight modules with a compatible central action.

A module lives on labels (w, n') with w a class representative and n' in the
central sublattice R; the underlying weight is alpha + w + n'.  Vectors are
finitely supported maps label -> column in the graded component U_w, and a
symbol acts on the component at a label by one block U_w -> U_tw (``block``).

Two constructions are provided and kept deliberately independent:

* ``CuspidalModule`` drives the action through a graded representation rho of
  the jet algebra: a symbol acts by rho of its jet image, the Taylor expansion
  sum over p of (m^p / p!) x^p d_u for t^m d_u and the raw torus-side symbol
  x^0 t-bar^e for t^e.
* ``TensorFieldModule`` uses the closed-form tensor-field action on
  V (x) W (x) t^s directly, with no polynomial machinery.

Agreement of the two on a box is an executable instance of the classification
of irreducible modules of this type.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field as dc_field

from .cyclo import CycloNum
from .derivations import bracket_d, deriv_along, inner, inner_product
from .errors import (
    ConstantTermMismatch,
    DegreeBoundViolated,
    DimensionMismatch,
    InvalidModuleData,
    InvalidRepresentation,
    MalformedBasisKey,
    RelationViolated,
)
from .jetalg import JetElement, degree_basis, taylor_coefficient, xd_along, xt
from .matrices import ExactMatrix, linear_combination
from .repn import (
    GLdGLNModule,
    GRepresentation,
    GradedOperator,
    GradedSpace,
    VerifyReport,
    verify_representation,
)
from .torus import (
    TorusSpec,
    canonical_rep,
    class_representatives,
    dump_torus,
    exp_add,
    exp_sub,
    in_R,
)

Label = tuple[tuple, tuple]  # (class representative w, central shift n')


def _coerce_alpha(spec: TorusSpec, alpha) -> tuple[CycloNum, ...]:
    out = tuple(map(spec.field.coerce, alpha))
    if len(out) != spec.d:
        raise ValueError("alpha must have d entries")
    return out


# ---------------------------------------------------------------------------
# symbols of the acting algebra (derivations semidirect the center)
# ---------------------------------------------------------------------------


def sym_deg(spec: TorusSpec, u, m) -> tuple:
    m = tuple(m)
    if not in_R(spec, m):
        raise MalformedBasisKey(f"exponent {m} not in R")
    return ("deg", tuple(map(spec.field.coerce, u)), m)


def sym_inner(spec: TorusSpec, e) -> tuple:
    e = tuple(e)
    if in_R(spec, e):
        raise MalformedBasisKey(f"exponent {e} is central")
    return ("inn", e)


def sym_central(spec: TorusSpec, n) -> tuple:
    n = tuple(n)
    if not in_R(spec, n):
        raise MalformedBasisKey(f"exponent {n} not in R")
    return ("z", n)


def symbol_to_string(sym) -> str:
    if sym[0] == "deg":
        u = ",".join(str(x) for x in sym[1])
        return f"deg[{u}]({','.join(map(str, sym[2]))})"
    if sym[0] == "inn":
        return f"T({','.join(map(str, sym[1]))})"
    return f"Z({','.join(map(str, sym[1]))})"


def _label_to_string(label: Label) -> str:
    return str(label).replace(" ", "")


def _derivation(spec: TorusSpec, sym):
    """The derivation-algebra element of a degree or inner symbol."""
    return deriv_along(spec, sym[1], sym[2]) if sym[0] == "deg" else inner(spec, sym[1])


def bracket_symbols(spec: TorusSpec, a, b) -> list:
    """Bracket in (derivations semidirect center), as [(coefficient, symbol)].

    Degree and inner symbols bracket through `bracket_d`; the degree terms of
    the result share one exponent and come back as a single degree symbol.
    Only the central extension [deg(u, m), z(n)] = <u, n> z(m + n) is written
    here.
    """
    kinds = (a[0], b[0])
    if not {"deg", "inn", "z"} >= set(kinds):
        raise MalformedBasisKey(f"unknown symbols {a[0]}, {b[0]}")
    if kinds == ("deg", "z"):
        c = inner_product(spec.field, a[1], b[1])
        return [] if c.is_zero() else [(c, ("z", exp_add(a[2], b[1])))]
    if kinds == ("z", "deg"):
        return [(-c, s) for c, s in bracket_symbols(spec, b, a)]
    if "z" in kinds:
        return []
    u, m, out = [spec.field.zero] * spec.d, None, []
    for key, c in bracket_d(spec, _derivation(spec, a), _derivation(spec, b)).terms.items():
        if key[0] == "d":
            _, i, m = key
            u[i - 1] = c
        else:
            out.append((c, ("inn", key[1])))
    return out if m is None else [(spec.field.one, ("deg", tuple(u), m))] + out


# ---------------------------------------------------------------------------
# the two module constructions
# ---------------------------------------------------------------------------


class _WeightModuleBase:
    """Shared part of the two constructions.

    A symbol acts on the component at a label (w, n') by one block
    U_w -> U_tw plus a label shift.  The block depends on the label only
    through its class w, except for the weight scalar of a degree derivation,
    so each symbol's blocks are built once, one per class, and kept in an
    action table.  The base class owns what the two constructions share by
    definition: the central action as an identity label shift, the weight
    scalar, and the target shift n'' = n' + e + w - tw that weight
    conservation forces for a symbol of degree e.  A subclass supplies only
    ``_class_blocks``.
    """

    def __init__(self, spec: TorusSpec, alpha, space: GradedSpace, box: int):
        self.spec = spec
        self.alpha = _coerce_alpha(spec, alpha)
        self.space = space
        self.box = box
        self._scalars = {}  # (u, label) -> inner_product(u, weight_of(label))
        # symbol -> GradedOperator; no caller mutates a returned block, so one
        # block serves every label of its class
        self._tables = {}

    def labels(self, box: int | None = None) -> list[Label]:
        box = self.box if box is None else box
        B = self.spec.B
        shifts = [
            tuple(c * bi for c, bi in zip(cvec, B))
            for cvec in itertools.product(range(-box, box + 1), repeat=self.spec.d)
        ]
        return [(w, np) for w in self.space.classes for np in sorted(shifts)]

    def weight_of(self, label: Label) -> tuple:
        w, np = label
        return tuple(
            a + self.spec.field.from_rational(x + y) for a, x, y in zip(self.alpha, w, np)
        )

    def _class_blocks(self, symbol) -> GradedOperator:
        """The shift-free operator of a degree or inner symbol on U.

        The weight scalar of a degree derivation is not part of it.
        """
        raise NotImplementedError

    def _table(self, symbol) -> GradedOperator:
        """The action table of `symbol`, built on first use; the center acts by identities."""
        table = self._tables.get(symbol)
        if table is None:
            table = GradedOperator.identity(self.space) if symbol[0] == "z" else self._class_blocks(symbol)
            self._tables[symbol] = table
        return table

    def block(self, symbol, label: Label) -> tuple[Label, ExactMatrix] | None:
        """The action of `symbol` on the component at `label`: (target label, matrix).

        None when the symbol kills the component.
        """
        fld = self.spec.field
        w, np = label
        tw, mat = self._table(symbol).blocks.get(w, (w, None))
        if symbol[0] == "deg":
            _, u, e = symbol
            scalar = self._scalars.get((u, label))
            if scalar is None:
                scalar = self._scalars[u, label] = inner_product(fld, u, self.weight_of(label))
            if not scalar.is_zero():
                mat = ExactMatrix.zeros(fld, self.space.dims[w]) if mat is None else mat.copy()
                for i, row in enumerate(mat.data):
                    row[i] = row[i] + scalar
        else:
            e = symbol[1]
        if mat is None or mat.is_zero():
            return None
        return (tw, exp_add(exp_add(np, e), exp_sub(w, tw))), mat

    def act(self, symbol, mvec: dict) -> dict:
        """Apply a symbol to a vector {label: column}; all-zero columns are dropped."""
        out = {}
        for label, col in mvec.items():
            res = self.block(symbol, label)
            if res is not None:
                _add_column(out, res[0], res[1].apply(col))
        return _nonzero(out)

    def act_terms(self, terms: list, mvec: dict) -> dict:
        """Apply the combination of c * symbol over the (c, symbol) pairs in `terms`."""
        out = {}
        for coeff, sym in terms:
            for label, col in self.act(sym, mvec).items():
                _add_column(out, label, [coeff * x for x in col])
        return _nonzero(out)


def _add_column(vec: dict, label: Label, col: list) -> None:
    prev = vec.get(label)
    vec[label] = col if prev is None else [a + b for a, b in zip(prev, col)]


def _nonzero(vec: dict) -> dict:
    return {label: col for label, col in vec.items() if any(not x.is_zero() for x in col)}


class CuspidalModule(_WeightModuleBase):
    """Functor image of a graded jet-algebra representation.

    A symbol acts through rho of its jet image: the degree derivation t^m d_u
    maps to the sum over 1 <= |p| <= cutoff of (m^p / p!) x^p d_u, the inner
    derivation t^e to the raw symbol x^0 t-bar^e, whose reduction to a class
    representative ``GRepresentation.rho_raw`` supplies.  Rho of the image,
    computed once per symbol, is the symbol's action table.
    """

    def __init__(self, spec: TorusSpec, alpha, rep: GRepresentation, box: int = 3):
        super().__init__(spec, alpha, rep.space, box)
        self.rep = rep

    def _class_blocks(self, symbol):
        spec = self.spec
        if symbol[0] == "deg":
            _, u, m = symbol
            image = sum((xd_along(spec, p, u).scale(taylor_coefficient(m, p))
                         for total in range(1, self.rep.cutoff + 1)
                         for p in degree_basis(spec.d, total)), JetElement(spec.field))
        else:
            image = xt(spec, (0,) * spec.d, symbol[1])
        return self.rep.rho_element(image)


def build_module(spec: TorusSpec, alpha, rep: GRepresentation, box: int = 3) -> CuspidalModule:
    """Turn a graded representation into the weight module it classifies."""
    report = verify_representation(spec, rep, max(rep.cutoff, 1))
    if not report.passed:
        raise InvalidRepresentation(f"bracket check failed at {report.first_failure}")
    return CuspidalModule(spec, alpha, rep, box)


class TensorFieldModule(_WeightModuleBase):
    """Closed-form module on V (x) W (x) t^s; the independent comparison route.

    Its class blocks are built from ``vw`` alone.
    """

    def __init__(self, spec: TorusSpec, alpha, vw: GLdGLNModule, box: int = 3):
        super().__init__(spec, alpha, vw.tensor_space(), box)
        self.vw = vw
        self._w_locals = {c: [] for c in self.space.classes}
        for b, c in enumerate(vw.W_classes):
            self._w_locals[c].append(b)

    def _class_blocks(self, symbol):
        spec = self.spec
        sp = self.space
        fld = spec.field
        dV = self.vw.dim_V
        if symbol[0] == "deg":
            # I (x) E(u, m) with E(u, m) = sum over i, j of m_i u_j E_ij on V
            _, u, m = symbol
            emat = linear_combination(((u[j] * m[i], self.vw.V_mats[(i + 1, j + 1)]) for i in range(spec.d)
                                       for j in range(spec.d)), ExactMatrix.zeros(fld, dV))
            return GradedOperator(sp, sp.zero_class, {w: ExactMatrix.identity(fld, len(src)).kron(emat)
                                                      for w, src in self._w_locals.items()})
        # t^e acts as W_r (x) I_V, r the class of e
        r = canonical_rep(spec, symbol[1])
        wmat = self.vw.W_mats[r]
        out = {}
        for w, src in self._w_locals.items():
            tw = sp.shifted_class(w, r)
            if tw in sp.dims:
                w_block = ExactMatrix(fld, [[wmat[b2, b] for b in src] for b2 in self._w_locals[tw]])
                out[w] = w_block.kron(ExactMatrix.identity(fld, dV))
        return GradedOperator(sp, r, out)


def tensor_field_module(spec: TorusSpec, alpha, vw: GLdGLNModule, box: int = 3) -> TensorFieldModule:
    return TensorFieldModule(spec, alpha, vw, box)


# ---------------------------------------------------------------------------
# axioms, equality, multiplicities
# ---------------------------------------------------------------------------


def _symbol_pool(spec: TorusSpec, radius: int, rng: random.Random, count: int) -> list:
    B = spec.B
    cvecs = list(itertools.product(range(-radius, radius + 1), repeat=spec.d))
    central = [tuple(c * b for c, b in zip(cv, B)) for cv in cvecs]
    noncentral = [e for e in cvecs if not in_R(spec, e)]
    units = []
    for i in range(spec.d):
        u = [0] * spec.d
        u[i] = 1
        units.append(tuple(u))
    pool = []
    for _ in range(count):
        kind = rng.choice(("deg", "deg", "inn", "inn", "z"))
        if kind == "inn" and not noncentral:
            kind = "deg"  # fully commutative torus: no inner derivations exist
        if kind == "deg":
            u = rng.choice(units + [tuple(rng.randint(-2, 2) for _ in range(spec.d))])
            if all(x == 0 for x in u):
                u = units[0]
            pool.append(sym_deg(spec, u, rng.choice(central)))
        elif kind == "inn":
            pool.append(sym_inner(spec, rng.choice(noncentral)))
        else:
            pool.append(sym_central(spec, rng.choice(central)))
    return pool


def _word_blocks(module, label: Label, words: list) -> dict:
    """Sum of c * s_1 s_2 ... s_k over the (c, (s_1, ..., s_k)) in `words`, on one label.

    Returned as {target label: block}; the rightmost symbol of a word acts first.
    """
    out = {}
    for coeff, word in words:
        target, mat = label, None
        for sym in reversed(word):
            res = module.block(sym, target)
            if res is None:
                break
            target, blk = res
            mat = blk if mat is None else blk * mat
        else:
            mat = mat if coeff == 1 else mat.scale(coeff)
            out[target] = out[target] + mat if target in out else mat
    return out


def _first_nonzero_column(blocks: dict, width: int) -> int | None:
    for j in range(width):
        if any(not blk[i, j].is_zero() for blk in blocks.values() for i in range(blk.rows)):
            return j
    return None


def verify_module_axioms(module, symbol_box: int, sample_count: int, seed: int = 7,
                         vector_box: int | None = None) -> VerifyReport:
    """Exact check of act([a,b]) = act(a)act(b) - act(b)act(a) on sampled pairs.

    Each basis vector inside the vector box is one case.  The cases of a label
    are checked together, a label block of sum c[s] - [a][b] + [b][a] at a
    time; a failure counts the cases up to the first basis vector (column)
    that differs and names its label and column.  Associativity of the central
    action is then checked through ``act`` on every few basis vectors.
    """
    spec = module.spec
    dims = module.space.dims
    rng = random.Random(seed)
    pool = _symbol_pool(spec, symbol_box, rng, 2 * sample_count)
    labels = module.labels(vector_box)
    cases = 0
    for idx in range(sample_count):
        a = pool[2 * idx]
        b = pool[2 * idx + 1]
        words = [(c, (s,)) for c, s in bracket_symbols(spec, a, b)] + [(-1, (a, b)), (1, (b, a))]
        for label in labels:
            j = _first_nonzero_column(_word_blocks(module, label, words), dims[label[0]])
            if j is not None:
                return VerifyReport(False, cases + j + 1,
                                    f"[{symbol_to_string(a)}, {symbol_to_string(b)}]"
                                    f" at {_label_to_string(label)} column {j}")
            cases += dims[label[0]]
    # central associativity on every few basis vectors: z^m z^n = z^{m+n}
    B = spec.B
    units = [(label, j) for label in labels for j in range(dims[label[0]])]
    for _ in range(min(sample_count, 25)):
        c1 = tuple(rng.randint(-symbol_box, symbol_box) * b for b in B)
        c2 = tuple(rng.randint(-symbol_box, symbol_box) * b for b in B)
        za, zb = sym_central(spec, c1), sym_central(spec, c2)
        zc = sym_central(spec, exp_add(c1, c2))
        for label, j in units[:: max(1, len(units) // 8)]:
            cases += 1
            col = [spec.field.zero] * dims[label[0]]
            col[j] = spec.field.one
            vec = {label: col}
            if module.act(za, module.act(zb, vec)) != module.act(zc, vec):
                return VerifyReport(False, cases,
                                    f"central associativity at {symbol_to_string(za)}"
                                    f" at {_label_to_string(label)} column {j}")
    return VerifyReport(True, cases)


def standard_symbols(spec: TorusSpec) -> list:
    """Deterministic generator set used by equality tests and module dumps."""
    syms = []
    units = []
    for i in range(spec.d):
        u = [0] * spec.d
        u[i] = 1
        units.append(tuple(u))
    B = spec.B
    central_small = [tuple(0 for _ in range(spec.d))]
    for i in range(spec.d):
        vec = [0] * spec.d
        vec[i] = B[i]
        central_small.append(tuple(vec))
        central_small.append(tuple(-x for x in vec))
    for u in units:
        for m in central_small:
            syms.append(sym_deg(spec, u, m))
    for e in itertools.product((-1, 0, 1), repeat=spec.d):
        if not in_R(spec, e) and any(e):
            syms.append(sym_inner(spec, e))
    for m in central_small[1:]:
        syms.append(sym_central(spec, m))
    return syms


def modules_equal_on_box(m1, m2, box: int) -> bool:
    """Entrywise agreement of all standard generator actions on the box."""
    if m1.spec != m2.spec:
        raise DimensionMismatch("different torus specs")
    if m1.space.dims != m2.space.dims:
        raise DimensionMismatch("different graded dimensions")
    if m1.alpha != m2.alpha:
        return False
    for sym in standard_symbols(m1.spec):
        for label in m1.labels(box):
            if m1.block(sym, label) != m2.block(sym, label):
                return False
    return True


def weight_multiplicities(module, box: int) -> tuple[dict, int]:
    """Dimensions of all materialized weight spaces, plus the uniform bound."""
    out = {}
    for w, np in module.labels(box):
        weight = module.weight_of((w, np))
        out[weight] = out.get(weight, 0) + module.space.dims[w]
    bound = max(out.values(), default=0)
    return out, bound


# ---------------------------------------------------------------------------
# operator families and coefficient extraction
# ---------------------------------------------------------------------------


class OperatorFamily:
    """Reference-label matrices of the shifted operator families of a module.

    D(u, m) strips the central shift off the degree-derivation action and is
    block diagonal; L(m, e) does the same for the inner action of t^{m+e} and
    has pure degree class(e).  For central e the family is the hardwired
    identity label shift.
    """

    def __init__(self, module, degree_bound: int = 3):
        self.module = module
        self.spec = module.spec
        self.space = module.space
        self.degree_bound = degree_bound

    def _reference_blocks(self, symbol):
        """(class c, target label, block) of `symbol` on each class at the zero shift."""
        zero_shift = (0,) * self.spec.d
        for c in self.space.classes:
            res = self.module.block(symbol, (c, zero_shift))
            if res is not None:
                yield c, res[0], res[1]

    def matrix_D(self, u, m) -> ExactMatrix:
        spec = self.spec
        sp = self.space
        out = ExactMatrix.zeros(spec.field, sp.dim)
        for c, (w, np), blk in self._reference_blocks(sym_deg(spec, u, m)):
            if w != c or np != tuple(m):
                raise InvalidModuleData(f"degree family sends class {c} to label {(w, np)}")
            out.paste(sp.offset[c], sp.offset[c], blk)
        return out

    def matrix_L(self, m, e) -> ExactMatrix:
        """Matrix of the shifted inner family; e may be any exponent not in R.

        The acting element is t^{m+e}; the central shift is stripped from the
        result, so the matrix has pure degree class(e).
        """
        spec = self.spec
        sp = self.space
        total = exp_add(m, e)
        if in_R(spec, total):
            # central element: the hardwired identity label shift
            return ExactMatrix.identity(spec.field, sp.dim)
        out = ExactMatrix.zeros(spec.field, sp.dim)
        for c, (w, _np), blk in self._reference_blocks(sym_inner(spec, total)):
            tc = canonical_rep(spec, exp_add(c, e))
            if w != tc:
                raise InvalidModuleData(f"inner family sends class {c} to class {w}, not {tc}")
            out.paste(sp.offset[tc], sp.offset[c], blk)
        return out


@dataclass
class PolynomialCoefficients:
    """Exact polynomial coefficients of the operator families."""

    spec: TorusSpec
    alpha: tuple
    dims: dict
    f: dict = dc_field(default_factory=dict)  # (j, p) -> matrix, |p| >= 1
    g: dict = dc_field(default_factory=dict)  # (r, l) -> matrix


def extract_coefficients(family: OperatorFamily, spec: TorusSpec, alpha) -> PolynomialCoefficients:
    """Recover the polynomial coefficients of D and L by exact interpolation.

    Each family F(m) = sum over p of (m^p / p!) F_p is sampled at m = B c for c
    on the grid [0, D]^d, D = ``family.degree_bound``, and interpolated one
    axis at a time, straight into the m^p / p! basis, with the inverse of
    [(B_i c)^j / j!] along axis i.  An out-of-grid consistency check guards the
    asserted degree bound, and the constant term of each D family is checked
    against its forced scalar blocks.
    """
    D = family.degree_bound
    alpha = _coerce_alpha(spec, alpha)
    sp = family.space
    fld = spec.field
    B = spec.B
    d = spec.d
    grid = list(itertools.product(range(D + 1), repeat=d))
    zero = ExactMatrix.zeros(fld, sp.dim)
    inverses = [ExactMatrix(fld, [[taylor_coefficient((b * c,), (j,)) for j in range(D + 1)]
                                  for c in range(D + 1)]).inverse() for b in B]

    def to_m(cvec):
        return tuple(c * b for c, b in zip(cvec, B))

    def fit(evaluate) -> dict:
        """{p: F_p} for the nonzero coefficients of the family m -> evaluate(m)."""
        table = {c: evaluate(to_m(c)) for c in grid}
        for axis, inv in enumerate(inverses):
            table = {
                pt[:axis] + (j,) + pt[axis + 1:]: linear_combination(
                    ((inv[j, c], table[pt[:axis] + (c,) + pt[axis + 1:]]) for c in range(D + 1)), zero)
                for pt in table if pt[axis] == 0 for j in range(D + 1)
            }
        coeffs = {p: mat for p, mat in table.items() if not mat.is_zero()}
        mstar = to_m((D + 1,) * d)
        predicted = linear_combination(
            ((taylor_coefficient(mstar, p), mat) for p, mat in coeffs.items()), zero)
        if predicted != evaluate(mstar):
            raise DegreeBoundViolated(
                f"family is not polynomial of total degree <= {D} per variable"
            )
        return coeffs

    out = PolynomialCoefficients(spec, alpha, dict(sp.dims))
    zero_p = (0,) * d
    for j in range(1, d + 1):
        u = tuple(int(i == j) for i in range(1, d + 1))
        f_table = fit(lambda m: family.matrix_D(u, m))
        const = f_table.pop(zero_p, zero)
        for c in sp.classes:
            scalar = inner_product(fld, u, [a + fld.from_rational(x) for a, x in zip(alpha, c)])
            if sp.block(const, c, c) != ExactMatrix.identity(fld, sp.dims[c]).scale(scalar):
                raise ConstantTermMismatch(f"constant term wrong on class {c}")
        out.f.update(((j, p), mat) for p, mat in f_table.items())
    for r in class_representatives(spec):
        if not in_R(spec, r):
            out.g.update(((r, l), mat) for l, mat in fit(lambda m: family.matrix_L(m, r)).items())
    return out


def coefficients_to_representation(spec: TorusSpec, coeffs: PolynomialCoefficients) -> GRepresentation:
    """Assemble a graded representation from extracted coefficients.

    Constant terms of the degree families are dropped (they are the hardwired
    weight scalars); the central class carries the identity at order zero,
    reflecting the identity label shift of the center.
    """
    space = GradedSpace(spec, coeffs.dims)
    action = {}
    max_deg = 0
    for (j, p), mat in coeffs.f.items():
        action[("XD", p, j)] = mat
        max_deg = max(max_deg, sum(p) - 1)
    for (r, l), mat in coeffs.g.items():
        action[("XT", l, r)] = mat
        max_deg = max(max_deg, sum(l))
    action.setdefault(("XT", (0,) * spec.d, space.zero_class), GradedOperator.identity(space))
    rep = GRepresentation(space, action, cutoff=max_deg + 1)
    report = verify_representation(spec, rep, rep.cutoff)
    if not report.passed:
        raise RelationViolated(f"coefficients violate the bracket at {report.first_failure}")
    return rep


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------


def dump_module(module, box: int | None = None) -> dict:
    """Deterministic JSON-ready dump: per-label blocks of generator actions."""
    box = module.box if box is None else box
    sp = module.space
    weights = [
        {"w": list(w), "nprime": list(np), "dim": sp.dims[w]}
        for w, np in module.labels(box)
    ]
    actions = []
    for sym in standard_symbols(module.spec):
        blocks = []
        for w, np in module.labels(box):
            res = module.block(sym, (w, np))
            if res is None:
                continue
            (tw, tnp), mat = res
            blocks.append(
                {
                    "from": {"w": list(w), "nprime": list(np)},
                    "to": {"w": list(tw), "nprime": list(tnp)},
                    "matrix": [[x.serialize() for x in row] for row in mat.data],
                }
            )
        actions.append({"symbol": symbol_to_string(sym), "blocks": blocks})
    return {
        "format": "qtlie-module-dump",
        "torus": json.loads(dump_torus(module.spec)),
        "alpha": [a.serialize() for a in module.alpha],
        "box": box,
        "weights": weights,
        "actions": actions,
    }
