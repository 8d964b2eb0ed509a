"""Bounded-multiplicity weight modules with a compatible central action.

A module lives on labels (w, n') with w a class representative and n' in the
central sublattice R; the underlying weight is alpha + w + n'.  Vectors are
finitely supported maps label -> column in the graded component U_w.

Two constructions are provided and kept deliberately independent:

* ``CuspidalModule`` drives the action through a graded representation of the
  jet algebra: degree derivations act by polynomial sums of the vector-field
  matrices, torus elements by polynomial sums of the torus-side matrices.
* ``TensorFieldModule`` uses the closed-form tensor-field action on
  V (x) W (x) t^s directly, with no polynomial machinery.

Agreement of the two on a box is an executable instance of the classification
of irreducible modules of this type.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .cyclo import CycloNum
from .derivations import inner_product
from .errors import (
    ConstantTermMismatch,
    DegreeBoundViolated,
    DimensionMismatch,
    InvalidModuleData,
    InvalidRepresentation,
    InvariantViolated,
    MalformedBasisKey,
    OutOfBox,
    RelationViolated,
)
from .matrices import ExactMatrix
from .repn import GLdGLNModule, GRepresentation, GradedSpace, verify_representation
from .torus import (
    TorusSpec,
    canonical_rep,
    class_representatives,
    decompose,
    dump_torus,
    exp_add,
    exp_sub,
    in_R,
    sigma_skew,
)

Label = tuple[tuple, tuple]  # (class representative w, central shift n')


def _coerce_alpha(spec: TorusSpec, alpha) -> tuple[CycloNum, ...]:
    out = tuple(map(spec.field.coerce, alpha))
    if len(out) != spec.d:
        raise ValueError("alpha must have d entries")
    return out


# ---------------------------------------------------------------------------
# module vectors
# ---------------------------------------------------------------------------


def mv_add(a: dict, b: dict) -> dict:
    out = {k: list(v) for k, v in a.items()}
    for k, col in b.items():
        if k in out:
            cur = out[k]
            for i, x in enumerate(col):
                cur[i] = cur[i] + x
        else:
            out[k] = list(col)
    return {k: v for k, v in out.items() if any(not x.is_zero() for x in v)}


def mv_scale(s: CycloNum, a: dict) -> dict:
    if s.is_zero():
        return {}
    return {k: [s * x for x in v] for k, v in a.items()}


def mv_eq(a: dict, b: dict) -> bool:
    return mv_sub_is_zero(a, b)


def mv_sub_is_zero(a: dict, b: dict) -> bool:
    keys = set(a) | set(b)
    for k in keys:
        va = a.get(k)
        vb = b.get(k)
        if va is None:
            if any(not x.is_zero() for x in vb):
                return False
        elif vb is None:
            if any(not x.is_zero() for x in va):
                return False
        else:
            if any(not (x - y).is_zero() for x, y in zip(va, vb)):
                return False
    return True


@dataclass(frozen=True)
class WeightVector:
    """One homogeneous module vector: component coordinates at a single label."""

    class_label: tuple
    central_shift: tuple
    coords: tuple

    def as_map(self) -> dict:
        return {(self.class_label, self.central_shift): list(self.coords)}


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


def bracket_symbols(spec: TorusSpec, a, b) -> list:
    """Bracket in (derivations semidirect center), as [(coefficient, symbol)]."""
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
            return [(-c, s) for c, s in bracket_symbols(spec, b, a)]
        return []
    raise MalformedBasisKey(f"unknown symbols {a[0]}, {b[0]}")


# ---------------------------------------------------------------------------
# the two module constructions
# ---------------------------------------------------------------------------


class _WeightModuleBase:
    spec: TorusSpec
    alpha: tuple
    space: GradedSpace
    box: int
    strict_box: bool = False

    def _check_box(self, nprime):
        if not self.strict_box:
            return
        B = self.spec.B
        for x, b in zip(nprime, B):
            if abs(x) > self.box * b:
                raise OutOfBox(f"label shift {nprime} outside box radius {self.box}")

    def labels(self, box: int | None = None) -> list[Label]:
        box = self.box if box is None else box
        B = self.spec.B
        shifts = [
            tuple(c * bi for c, bi in zip(cvec, B))
            for cvec in itertools.product(range(-box, box + 1), repeat=self.spec.d)
        ]
        return [(w, np) for w in self.space.classes for np in sorted(shifts)]

    def basis_vectors(self, box: int | None = None):
        for w, np in self.labels(box):
            n = self.space.dims[w]
            for local in range(n):
                col = [self.spec.field.zero] * n
                col[local] = self.spec.field.one
                yield WeightVector(w, np, tuple(col))

    def weight_of(self, label: Label) -> tuple:
        w, np = label
        return tuple(
            a + self.spec.field.from_rational(x + y) for a, x, y in zip(self.alpha, w, np)
        )

    def act(self, symbol, mvec: dict) -> dict:
        out = {}
        for label, col in mvec.items():
            part = self._act_on_component(symbol, label, col)
            out = mv_add(out, part)
        return out

    def act_terms(self, terms: list, mvec: dict) -> dict:
        out = {}
        for coeff, sym in terms:
            out = mv_add(out, mv_scale(coeff, self.act(sym, mvec)))
        return out

    def _act_on_component(self, symbol, label, col) -> dict:
        raise NotImplementedError


def _poly_coeff(m: tuple, p: tuple) -> Fraction:
    """m^p / p! as an exact rational."""
    num = 1
    den = 1
    for mi, pi in zip(m, p):
        num *= mi**pi
        den *= math.factorial(pi)
    return Fraction(num, den)


class CuspidalModule(_WeightModuleBase):
    """Functor image of a graded jet-algebra representation."""

    def __init__(self, spec: TorusSpec, alpha, rep: GRepresentation, box: int = 3,
                 strict_box: bool = False):
        self.spec = spec
        self.alpha = _coerce_alpha(spec, alpha)
        self.rep = rep
        self.space = rep.space
        self.box = box
        self.strict_box = strict_box

    def _act_on_component(self, symbol, label, col) -> dict:
        spec = self.spec
        fld = spec.field
        w, np = label
        kind = symbol[0]
        if kind == "z":
            n = symbol[1]
            self._check_box(exp_add(np, n))
            return {(w, exp_add(np, n)): list(col)}
        if kind == "deg":
            _, u, m = symbol
            scalar = inner_product(fld, u, [a + fld.from_rational(x + y)
                                            for a, x, y in zip(self.alpha, w, np)])
            out_col = [scalar * x for x in col]
            for key in self.rep.nonzero_keys():
                if key[0] != "XD":
                    continue
                _, p, j = key
                uj = u[j - 1]
                if uj.is_zero():
                    continue
                c = _poly_coeff(m, p)
                if c == 0:
                    continue
                block = self.space.block(self.rep.action[key], w, w)
                contrib = block.apply(col)
                coef = uj * fld.from_rational(c)
                for i, x in enumerate(contrib):
                    if not x.is_zero():
                        out_col[i] = out_col[i] + coef * x
            target = (w, exp_add(np, m))
            self._check_box(target[1])
            if any(not x.is_zero() for x in out_col):
                return {target: out_col}
            return {}
        # inner derivation t^e with e outside R
        e = symbol[1]
        m_part, r = decompose(spec, e)
        tw = canonical_rep(spec, exp_add(w, r))
        if tw not in self.space.dims:
            return {}
        out_col = [fld.zero] * self.space.dims[tw]
        for key in self.rep.nonzero_keys():
            if key[0] != "XT" or key[2] != r:
                continue
            _, l, _ = key
            c = _poly_coeff(m_part, l)
            if c == 0:
                continue
            block = self.space.block(self.rep.action[key], w, tw)
            contrib = block.apply(col)
            coef = fld.from_rational(c)
            for i, x in enumerate(contrib):
                if not x.is_zero():
                    out_col[i] = out_col[i] + coef * x
        if all(x.is_zero() for x in out_col):
            return {}
        new_shift = exp_add(exp_add(np, m_part), exp_sub(exp_add(w, r), tw))
        self._check_box(new_shift)
        return {(tw, new_shift): out_col}


def build_module(spec: TorusSpec, alpha, rep: GRepresentation, box: int = 3,
                 validate: bool = True) -> CuspidalModule:
    """Turn a graded representation into the weight module it classifies."""
    if validate:
        report = verify_representation(spec, rep, max(rep.cutoff, 1))
        if not report.passed:
            raise InvalidRepresentation(f"bracket check failed at {report.first_failure}")
    return CuspidalModule(spec, alpha, rep, box)


class TensorFieldModule(_WeightModuleBase):
    """Closed-form module on V (x) W (x) t^s; the independent comparison route."""

    def __init__(self, spec: TorusSpec, alpha, vw: GLdGLNModule, box: int = 3,
                 strict_box: bool = False):
        vw.validate()
        self.spec = spec
        self.alpha = _coerce_alpha(spec, alpha)
        self.vw = vw
        self.box = box
        self.strict_box = strict_box
        self.space, _ = vw.tensor_layout()
        self._w_locals = {c: [] for c in self.space.classes}
        for b, c in enumerate(vw.W_classes):
            self._w_locals[c].append(b)

    def _act_on_component(self, symbol, label, col) -> dict:
        spec = self.spec
        fld = spec.field
        w, np = label
        dV = self.vw.dim_V
        kind = symbol[0]
        if kind == "z":
            n = symbol[1]
            self._check_box(exp_add(np, n))
            return {(w, exp_add(np, n)): list(col)}
        if kind == "deg":
            _, u, m = symbol
            scalar = inner_product(fld, u, [a + fld.from_rational(x + y)
                                            for a, x, y in zip(self.alpha, w, np)])
            emat = ExactMatrix.zeros(fld, dV)
            for i in range(spec.d):
                if m[i] == 0:
                    continue
                for j in range(spec.d):
                    if u[j].is_zero():
                        continue
                    emat = emat + self.vw.V_mats[(i + 1, j + 1)].scale(u[j] * m[i])
            out_col = [scalar * x for x in col]
            for b_slot, b in enumerate(self._w_locals[w]):
                seg = col[b_slot * dV : (b_slot + 1) * dV]
                upd = emat.apply(seg)
                for a in range(dV):
                    if not upd[a].is_zero():
                        out_col[b_slot * dV + a] = out_col[b_slot * dV + a] + upd[a]
            target = (w, exp_add(np, m))
            self._check_box(target[1])
            if any(not x.is_zero() for x in out_col):
                return {target: out_col}
            return {}
        e = symbol[1]
        r = canonical_rep(spec, e)
        wmat = self.vw.W_mats[r]
        tw = canonical_rep(spec, exp_add(w, r))
        if tw not in self.space.dims:
            return {}
        out_col = [fld.zero] * self.space.dims[tw]
        src_locals = self._w_locals[w]
        dst_locals = self._w_locals[tw]
        for b_slot, b in enumerate(src_locals):
            seg = col[b_slot * dV : (b_slot + 1) * dV]
            if all(x.is_zero() for x in seg):
                continue
            for t_slot, b2 in enumerate(dst_locals):
                coeff = wmat[b2, b]
                if coeff.is_zero():
                    continue
                for a in range(dV):
                    if not seg[a].is_zero():
                        idx = t_slot * dV + a
                        out_col[idx] = out_col[idx] + coeff * seg[a]
        if all(x.is_zero() for x in out_col):
            return {}
        new_shift = exp_add(exp_sub(e, exp_sub(tw, w)), np)
        self._check_box(new_shift)
        return {(tw, new_shift): out_col}


def tensor_field_module(spec: TorusSpec, alpha, vw: GLdGLNModule, box: int = 3) -> TensorFieldModule:
    return TensorFieldModule(spec, alpha, vw, box)


# ---------------------------------------------------------------------------
# axioms, equality, multiplicities
# ---------------------------------------------------------------------------


@dataclass
class AxiomReport:
    passed: bool
    cases: int
    first_failure: str | None = None


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


def verify_module_axioms(module, symbol_box: int, sample_count: int, seed: int = 7,
                         vector_box: int | None = None) -> AxiomReport:
    """Exact check of act([a,b]) = act(a)act(b) - act(b)act(a) on sampled pairs.

    Also checks associativity of the central action.  All materialized basis
    vectors inside the vector box participate.
    """
    spec = module.spec
    rng = random.Random(seed)
    pool = _symbol_pool(spec, symbol_box, rng, 2 * sample_count)
    vectors = [wv.as_map() for wv in module.basis_vectors(vector_box)]
    cases = 0
    for idx in range(sample_count):
        a = pool[2 * idx]
        b = pool[2 * idx + 1]
        expected_terms = bracket_symbols(spec, a, b)
        for vec in vectors:
            cases += 1
            lhs = module.act_terms(expected_terms, vec)
            rhs_ab = module.act(a, module.act(b, vec))
            rhs_ba = module.act(b, module.act(a, vec))
            rhs = mv_add(rhs_ab, mv_scale(spec.field.from_rational(-1), rhs_ba))
            if not mv_eq(lhs, rhs):
                return AxiomReport(False, cases,
                                   f"[{symbol_to_string(a)}, {symbol_to_string(b)}]")
    # central associativity: z^m z^n = z^{m+n}
    B = spec.B
    for _ in range(min(sample_count, 25)):
        c1 = tuple(rng.randint(-symbol_box, symbol_box) * b for b in B)
        c2 = tuple(rng.randint(-symbol_box, symbol_box) * b for b in B)
        za, zb = sym_central(spec, c1), sym_central(spec, c2)
        zc = sym_central(spec, exp_add(c1, c2))
        for vec in vectors[:: max(1, len(vectors) // 8)]:
            cases += 1
            if not mv_eq(module.act(za, module.act(zb, vec)), module.act(zc, vec)):
                return AxiomReport(False, cases,
                                   f"central associativity at {symbol_to_string(za)}")
    return AxiomReport(True, cases)


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
        for wv in m1.basis_vectors(box):
            vec = wv.as_map()
            if not mv_eq(m1.act(sym, vec), m2.act(sym, vec)):
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

    def _columns(self, symbol, src_class) -> dict:
        """Apply a symbol to every reference basis vector of one class."""
        spec = self.spec
        n = self.space.dims[src_class]
        cols = []
        zero_shift = (0,) * spec.d
        for local in range(n):
            col = [spec.field.zero] * n
            col[local] = spec.field.one
            res = self.module.act(symbol, {(src_class, zero_shift): col})
            cols.append(res)
        return cols

    def matrix_D(self, u, m) -> ExactMatrix:
        spec = self.spec
        sp = self.space
        out = ExactMatrix.zeros(spec.field, sp.dim)
        sym = sym_deg(spec, u, m)
        for c in sp.classes:
            for local, res in enumerate(self._columns(sym, c)):
                for (w, np), col in res.items():
                    if w != c or np != tuple(m):
                        raise InvalidModuleData(f"degree family sends class {c} to label {(w, np)}")
                    for i, x in enumerate(col):
                        out[sp.offset[c] + i, sp.offset[c] + local] = x
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
        sym = sym_inner(spec, total)
        out = ExactMatrix.zeros(spec.field, sp.dim)
        for c in sp.classes:
            tc = canonical_rep(spec, exp_add(c, e))
            for local, res in enumerate(self._columns(sym, c)):
                for (w, _np), col in res.items():
                    if w != tc:
                        raise InvalidModuleData(f"inner family sends class {c} to class {w}, not {tc}")
                    for i, x in enumerate(col):
                        out[sp.offset[tc] + i, sp.offset[c] + local] = x
        return out


@dataclass
class PolynomialCoefficients:
    """Exact polynomial coefficients of the operator families."""

    spec: TorusSpec
    alpha: tuple
    dims: dict
    f: dict = dc_field(default_factory=dict)  # (j, p) -> matrix, |p| >= 1
    g: dict = dc_field(default_factory=dict)  # (r, l) -> matrix


def _interpolation_inverse(field, degree: int) -> ExactMatrix:
    V = ExactMatrix(field, [[Fraction(c**j) for j in range(degree + 1)]
                            for c in range(degree + 1)])
    return V.inverse()


def _tensor_interpolate(field, d: int, degree: int, values: dict) -> dict:
    """Monomial coefficients of a polynomial sampled on the grid [0, degree]^d.

    `values` maps grid points to matrices; returns {exponent: coefficient}.
    """
    inv = _interpolation_inverse(field, degree)
    table = dict(values)
    for axis in range(d):
        new_table = {}
        other = [pt for pt in table if pt[axis] == 0]
        for base in other:
            stack = []
            for c in range(degree + 1):
                pt = list(base)
                pt[axis] = c
                stack.append(table[tuple(pt)])
            for exp_i in range(degree + 1):
                acc = None
                for c in range(degree + 1):
                    coeff = inv[exp_i, c]
                    if coeff.is_zero():
                        continue
                    term = stack[c].scale(coeff)
                    acc = term if acc is None else acc + term
                pt = list(base)
                pt[axis] = exp_i
                new_table[tuple(pt)] = acc
        table = new_table
    return table


def extract_coefficients(family: OperatorFamily, spec: TorusSpec, alpha,
                         degree_bound: int | None = None) -> PolynomialCoefficients:
    """Recover the polynomial coefficients of D and L by exact interpolation.

    Sampling runs over m = B c with c on the grid [0, D]^d; an out-of-grid
    consistency check guards the asserted degree bound, and the constant term
    of each D family is checked against its forced scalar blocks.
    """
    D = family.degree_bound if degree_bound is None else degree_bound
    alpha = _coerce_alpha(spec, alpha)
    sp = family.space
    fld = spec.field
    B = spec.B
    d = spec.d
    grid = list(itertools.product(range(D + 1), repeat=d))

    def to_m(cvec):
        return tuple(c * b for c, b in zip(cvec, B))

    def check_out_of_grid(coeff_table, evaluate):
        cstar = tuple(D + 1 for _ in range(d))
        mstar = to_m(cstar)
        predicted = ExactMatrix.zeros(fld, sp.dim)
        for p, mat in coeff_table.items():
            scale = _poly_coeff(mstar, p)
            predicted = predicted + mat.scale(scale)
        if predicted != evaluate(mstar):
            raise DegreeBoundViolated(
                f"family is not polynomial of total degree <= {D} per variable"
            )

    out = PolynomialCoefficients(spec, alpha, dict(sp.dims))
    units = []
    for i in range(d):
        u = [0] * d
        u[i] = 1
        units.append(tuple(u))
    for j, u in enumerate(units, start=1):
        values = {c: family.matrix_D(u, to_m(c)) for c in grid}
        coeffs_c = _tensor_interpolate(fld, d, D, values)
        f_table = {}
        for p, mat in coeffs_c.items():
            scale = Fraction(math.prod(math.factorial(pi) for pi in p),
                             math.prod(b**pi for b, pi in zip(B, p)))
            mat = mat.scale(scale)
            if not mat.is_zero():
                f_table[p] = mat
        check_out_of_grid(f_table, lambda m: family.matrix_D(u, m))
        zero_p = (0,) * d
        const = f_table.get(zero_p, ExactMatrix.zeros(fld, sp.dim))
        for c in sp.classes:
            n = sp.dims[c]
            scalar = inner_product(fld, u, [a + fld.from_rational(x) for a, x in zip(alpha, c)])
            want = ExactMatrix.identity(fld, n).scale(scalar)
            if sp.block(const, c, c) != want:
                raise ConstantTermMismatch(f"constant term wrong on class {c}")
        for p, mat in f_table.items():
            if sum(p) >= 1:
                out.f[(j, p)] = mat
    for r in class_representatives(spec):
        if in_R(spec, r):
            continue
        values = {c: family.matrix_L(to_m(c), r) for c in grid}
        coeffs_c = _tensor_interpolate(fld, d, D, values)
        g_table = {}
        for l, mat in coeffs_c.items():
            scale = Fraction(math.prod(math.factorial(li) for li in l),
                             math.prod(b**li for b, li in zip(B, l)))
            mat = mat.scale(scale)
            if not mat.is_zero():
                g_table[l] = mat
        check_out_of_grid(g_table, lambda m: family.matrix_L(m, r))
        for l, mat in g_table.items():
            out.g[(r, l)] = mat
    return out


def coefficients_to_representation(spec: TorusSpec, coeffs: PolynomialCoefficients,
                                   validate: bool = True) -> GRepresentation:
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
    w0 = canonical_rep(spec, (0,) * spec.d)
    zero_l = (0,) * spec.d
    ident = ExactMatrix.identity(spec.field, space.dim)
    action.setdefault(("XT", zero_l, w0), ident)
    rep = GRepresentation(space, action, cutoff=max_deg + 1)
    if validate:
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
            n = sp.dims[w]
            cols = []
            for local in range(n):
                col = [module.spec.field.zero] * n
                col[local] = module.spec.field.one
                res = module.act(sym, {(w, np): col})
                cols.append(res)
            targets = sorted({label for res in cols for label in res})
            for target in targets:
                tn = sp.dims[target[0]]
                mat = [[module.spec.field.zero] * n for _ in range(tn)]
                for cidx, res in enumerate(cols):
                    if target in res:
                        for i, x in enumerate(res[target]):
                            mat[i][cidx] = x
                blocks.append(
                    {
                        "from": {"w": list(w), "nprime": list(np)},
                        "to": {"w": list(target[0]), "nprime": list(target[1])},
                        "matrix": [[x.serialize() for x in row] for row in mat],
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
