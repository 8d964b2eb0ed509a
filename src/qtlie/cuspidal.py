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

Agreement of the two (``modules_equal``) is an executable instance of the
classification of irreducible modules of this type.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .cyclo import CycloNum
from .derivations import _plain, bracket_d, deriv_along, inner, inner_product
from .errors import (
    ConstantTermMismatch,
    DegreeBoundViolated,
    DimensionMismatch,
    InvalidModuleData,
    InvalidRepresentation,
    MalformedBasisKey,
    RelationViolated,
)
from .jetalg import degree_basis, taylor_coefficient
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
    central_box,
    class_representatives,
    dump_torus,
    exp_add,
    in_R,
)

Label = tuple[tuple, tuple]  # (class representative w, central shift n')


def _coerce_alpha(spec: TorusSpec, alpha) -> tuple[CycloNum, ...]:
    out = tuple(map(spec.field.coerce, alpha))
    if len(out) != spec.d:
        raise DimensionMismatch("alpha must have d entries")
    return out


# ---------------------------------------------------------------------------
# symbols of the acting algebra (derivations semidirect the center)
# ---------------------------------------------------------------------------


def _vector(spec: TorusSpec, vec) -> tuple:
    """`vec` as a tuple; MalformedBasisKey unless it has d entries."""
    vec = tuple(vec)
    if len(vec) != spec.d:
        raise MalformedBasisKey(f"{vec} does not have {spec.d} entries")
    return vec


def sym_deg(spec: TorusSpec, u, m) -> tuple:
    """The degree symbol t^m d_u; each rational-integer entry of u is kept as an int."""
    m = _vector(spec, m)
    if not in_R(spec, m):
        raise MalformedBasisKey(f"exponent {m} not in R")
    return ("deg", tuple([_plain(spec.field.coerce(x)) for x in _vector(spec, u)]), m)


def sym_inner(spec: TorusSpec, e) -> tuple:
    e = _vector(spec, e)
    if in_R(spec, e):
        raise MalformedBasisKey(f"exponent {e} is central")
    return ("inn", e)


def sym_central(spec: TorusSpec, n) -> tuple:
    n = _vector(spec, n)
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
    the result share one exponent and come back as a single degree symbol,
    whose direction keeps its rational integers as ints, as in `sym_deg`.
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
    u, m, out = [0] * spec.d, None, []
    for key, c in bracket_d(spec, _derivation(spec, a), _derivation(spec, b)).terms.items():
        if key[0] == "d":
            _, i, m = key
            u[i - 1] = _plain(c)
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
        if space.spec != spec:
            raise DimensionMismatch("different torus specs")
        self.spec = spec
        self.alpha = _coerce_alpha(spec, alpha)
        self.space = space
        self.box = box
        # (u, class w) -> <u, alpha + w>, u with its rational integers as ints
        self._scalars = {}
        # symbol -> (GradedOperator, u as in _scalars and the blocks built
        # from a weight scalar; None and None for a symbol without one); no
        # caller mutates a returned block, so one block serves every label of
        # its class, and one shifted block every label of its class with the
        # same weight scalar
        self._tables = {}

    def labels(self, box: int | None = None) -> list[Label]:
        box = self.box if box is None else box
        shifts = sorted(central_box(self.spec, box))
        return [(w, np) for w in self.space.classes for np in shifts]

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

    def _entry(self, symbol) -> tuple[GradedOperator, tuple | None, dict | None]:
        """(action table, u, shifted blocks) of `symbol`, built on first use, so
        that a call hashes the symbol once.  For a degree symbol u is its
        direction, and the shifted blocks start as {}; an inner or central
        symbol has None for both.  The center acts by identities."""
        entry = self._tables.get(symbol)
        if entry is None:
            if symbol[0] == "deg":
                entry = (self._class_blocks(symbol), symbol[1], {})
            else:
                table = GradedOperator.identity(self.space) if symbol[0] == "z" else self._class_blocks(symbol)
                entry = (table, None, None)
            self._tables[symbol] = entry
        return entry

    def block(self, symbol, label: Label) -> tuple[Label, ExactMatrix] | None:
        """The action of `symbol` on the component at `label`: (target label, matrix).

        None when the symbol kills the component.  A table block is nonzero
        (``GradedOperator`` keeps no zero block), so only a block that a
        weight scalar was added to can come out zero.  The weight scalar
        <u, alpha + w + n'> is <u, alpha + w>, kept per u and class, plus
        <u, n'>, the sum of u_i n'_i over the nonzero n'_i.  The block it
        gives is keyed by (w, <u, n'>), which fixes the scalar, and built
        once per key, so labels with equal scalars get one object.  For an
        integral u the sum is a Python int, so a kept block costs no field
        arithmetic; for any other u it is a ``CycloNum``.
        """
        w, np = label
        table, u, shifted = self._entry(symbol)
        tw, mat = table.blocks.get(w, (w, None))
        if u is None:
            e = symbol[1]
        else:
            e = symbol[2]
            key = (w, sum([x * n for x, n in zip(u, np) if n]))
            if key in shifted:
                mat = shifted[key]
            else:
                scalar = self._scalars.get((u, w))
                if scalar is None:
                    scalar = self._scalars[u, w] = inner_product(
                        self.spec.field, u, [a + x for a, x in zip(self.alpha, w)])
                scalar = scalar + key[1]
                if not scalar.is_zero():
                    mat = ExactMatrix.zeros(self.spec.field, self.space.dims[w]) if mat is None else mat.copy()
                    for i, row in enumerate(mat.data):
                        row[i] = row[i] + scalar
                    if mat.is_zero():
                        mat = None
                shifted[key] = mat
        if mat is None:
            return None
        return (tw, tuple([n + x + y - z for n, x, y, z in zip(np, e, w, tw)])), mat

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

    A symbol acts through rho of its jet image, read through ``rho`` on basis
    symbols alone: the degree derivation t^m d_u has the action table
    sum over 1 <= |p| <= cutoff and j of (m^p / p!) u_j rho(x^p d_j), and the
    inner derivation t^e the table rho(x^0 t-bar^e) of the raw symbol, which
    the tail rule of ``GRepresentation.rho`` reduces to a class
    representative.  A table depends on neither alpha nor the box, so it is
    computed once per symbol and kept on the representation, where every
    module built from it reads it.
    """

    def __init__(self, spec: TorusSpec, alpha, rep: GRepresentation, box: int = 3):
        super().__init__(spec, alpha, rep.space, box)
        self.rep = rep

    def _class_blocks(self, symbol):
        rep = self.rep
        table = rep._module_tables.get(symbol)
        if table is None:
            sp = self.space
            if symbol[0] == "deg":
                _, u, m = symbol
                table = linear_combination(
                    ((taylor_coefficient(m, p) * uj, rep.rho(("XD", p, j)))
                     for total in range(1, rep.cutoff + 1) for p in degree_basis(sp.spec.d, total)
                     for j, uj in enumerate(u, start=1)), GradedOperator(sp, sp.zero_class, {}))
            else:
                table = rep.rho(("XT", (0,) * sp.spec.d, symbol[1]))
            rep._module_tables[symbol] = table
        return table


def build_module(spec: TorusSpec, alpha, rep: GRepresentation, box: int = 3) -> CuspidalModule:
    """Turn a graded representation into the weight module it classifies."""
    report = verify_representation(spec, rep)
    if not report.passed:
        raise InvalidRepresentation(f"bracket check failed at {report.first_failure}")
    return CuspidalModule(spec, alpha, rep, box)


class TensorFieldModule(_WeightModuleBase):
    """Closed-form module on V (x) W (x) t^s; the independent comparison route.

    Its class blocks are built from ``vw`` alone.
    """

    def __init__(self, spec: TorusSpec, alpha, vw: GLdGLNModule, box: int = 3):
        super().__init__(spec, alpha, vw.tensor_space, box)
        self.vw = vw

    def _class_blocks(self, symbol):
        spec = self.spec
        vw = self.vw
        if symbol[0] == "deg":
            # I_W (x) E(u, m) with E(u, m) = sum over i, j of m_i u_j E_ij on V
            _, u, m = symbol
            emat = linear_combination(((u[j] * m[i], vw.V_mats[(i + 1, j + 1)]) for i in range(spec.d)
                                       for j in range(spec.d)), ExactMatrix.zeros(spec.field, vw.dim_V))
            return vw.tensor(GradedOperator.identity(vw.W_space), emat)
        # t^e acts as W_r (x) I_V, r the class of e
        return vw.tensor(vw.W[canonical_rep(spec, symbol[1])], ExactMatrix.identity(spec.field, vw.dim_V))


# ---------------------------------------------------------------------------
# axioms, equality, multiplicities
# ---------------------------------------------------------------------------


def _symbol_pool(spec: TorusSpec, radius: int, rng: random.Random, count: int) -> list:
    central = central_box(spec, radius)
    noncentral = [e for e in itertools.product(range(-radius, radius + 1), repeat=spec.d) if not in_R(spec, e)]
    units = [tuple(int(i == j) for i in range(spec.d)) for j in range(spec.d)]
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


def _word_chains(module, label: Label, words: list) -> list:
    """(word index, target label, blocks) of each word of `words` that does not vanish on `label`.

    A word is (c, (s_1, ..., s_k)); its rightmost symbol acts first, and its
    block comes first.
    """
    out = []
    for i, (_, word) in enumerate(words):
        target, blocks = label, []
        for sym in reversed(word):
            res = module.block(sym, target)
            if res is None:
                break
            target, blk = res
            blocks.append(blk)
        else:
            out.append((i, target, blocks))
    return out


def _word_sum(words: list, chains: list) -> dict:
    """Sum of c * s_1 s_2 ... s_k over the words of `chains`, as {target label: block}.

    A word with coefficient 1 or -1 is added or subtracted unscaled.
    """
    out = {}
    for i, target, blocks in chains:
        mat = blocks[0]
        for blk in blocks[1:]:
            mat = blk * mat
        coeff = words[i][0]
        prev = out.get(target)
        if coeff == -1:
            out[target] = -mat if prev is None else prev - mat
        else:
            mat = mat if coeff == 1 else mat.scale(coeff)
            out[target] = mat if prev is None else prev + mat
    return out


def _first_nonzero_column(blocks: dict, width: int) -> int | None:
    """The least column that is nonzero in some block, None when every block is zero."""
    first = width
    for blk in blocks.values():
        for row in blk.data:
            first = next((j for j, x in enumerate(row[:first]) if not x.is_zero()), first)
    return None if first == width else first


def verify_module_axioms(module, symbol_box: int, sample_count: int, seed: int = 7) -> VerifyReport:
    """Exact check of act([a,b]) = act(a)act(b) - act(b)act(a) on sampled pairs.

    Each basis vector on the labels of the module's box is one case.  The
    cases of a label are checked together, a label block of sum c[s] - [a][b]
    + [b][a] at a time; a failure counts the cases up to the first basis
    vector (column) that differs and names its label and column.
    Associativity of the central action is then checked through ``act`` on
    every few basis vectors.

    ``module.block`` is called for every word on every label, but a defect is
    formed once per distinct configuration within a class: labels whose words
    reach the same target classes, at the same shifts relative to the label,
    through the identical block objects have the same defect.  The memo holds
    the blocks it keys on by identity, so no key outlives its objects; it is
    dropped when the labels move to the next class.
    """
    spec = module.spec
    dims = module.space.dims
    rng = random.Random(seed)
    pool = _symbol_pool(spec, symbol_box, rng, 2 * sample_count)
    labels = module.labels()
    cases = 0
    for idx in range(sample_count):
        a = pool[2 * idx]
        b = pool[2 * idx + 1]
        words = [(c, (s,)) for c, s in bracket_symbols(spec, a, b)] + [(-1, (a, b)), (1, (b, a))]
        for w, class_labels in itertools.groupby(labels, key=lambda label: label[0]):
            memo = {}  # key -> (first nonzero column, the chains that hold its blocks)
            for label in class_labels:
                np = label[1]
                chains = _word_chains(module, label, words)
                key = tuple((i, tw, tuple([x - y for x, y in zip(tnp, np)]), *map(id, blocks))
                            for i, (tw, tnp), blocks in chains)
                seen = memo.get(key)
                if seen is None:
                    seen = memo[key] = (_first_nonzero_column(_word_sum(words, chains), dims[w]), chains)
                j = seen[0]
                if j is not None:
                    return VerifyReport(False, cases + j + 1,
                                        f"[{symbol_to_string(a)}, {symbol_to_string(b)}]"
                                        f" at {_label_to_string(label)} column {j}")
                cases += dims[w]
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
    units = [tuple(int(i == j) for i in range(spec.d)) for j in range(spec.d)]
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


def modules_equal(m1, m2) -> bool:
    """Whether the two modules act alike on every label of every box.

    For one spec, one set of class dimensions and one alpha, ``block(sym,
    (w, n'))`` adds the same to both modules' action tables ``_entry(sym)[0]``
    at w: the label shift n'' = n' + e + w - tw, and the weight scalar
    <u, alpha + w + n'> times I of a degree symbol (an inner or central symbol
    has none); a block that comes out zero is dropped on both sides.  So the
    blocks at (w, n') differ exactly where the tables differ at w, whatever n'
    is, and as every box, box 0 included, has a label of each class, the
    blocks agree on every label of a box exactly when the tables of the
    standard symbols agree.
    """
    if m1.spec != m2.spec:
        raise DimensionMismatch("different torus specs")
    if m1.space.dims != m2.space.dims:
        raise DimensionMismatch("different graded dimensions")
    return m1.alpha == m2.alpha and all(
        m1._entry(sym)[0] == m2._entry(sym)[0] for sym in standard_symbols(m1.spec))


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
    """Reference-label operators of the shifted operator families of a module.

    D(u, m) strips the central shift off the degree-derivation action and has
    shift 0; L(m, e) does the same for the inner action of t^{m+e} and has
    shift class(e).  For central e the family is the hardwired identity label
    shift.
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

    def matrix_D(self, u, m) -> GradedOperator:
        blocks = {}
        for c, (w, np), blk in self._reference_blocks(sym_deg(self.spec, u, m)):
            if w != c or np != tuple(m):
                raise InvalidModuleData(f"degree family sends class {c} to label {(w, np)}")
            blocks[c] = blk
        return GradedOperator(self.space, self.space.zero_class, blocks)

    def matrix_L(self, m, e) -> GradedOperator:
        """Operator of the shifted inner family; e may be any exponent not in R.

        The acting element is t^{m+e}; the central shift is stripped from the
        result, so the operator has shift class(e).
        """
        spec = self.spec
        total = exp_add(m, e)
        if in_R(spec, total):
            # central element: the hardwired identity label shift
            return GradedOperator.identity(self.space)
        blocks = {}
        for c, (w, _np), blk in self._reference_blocks(sym_inner(spec, total)):
            tc = canonical_rep(spec, exp_add(c, e))
            if w != tc:
                raise InvalidModuleData(f"inner family sends class {c} to class {w}, not {tc}")
            blocks[c] = blk
        return GradedOperator(self.space, e, blocks)


def _binomial_to_taylor(b: int, D: int) -> list[list[Fraction]]:
    """T[q][j] for q, j <= D with C(c, q) = sum over j <= q of T[q][j] (b c)^j / j!.

    C(c, q) = (1 / q!) sum over j of s(q, j) c^j, s the signed Stirling numbers
    of the first kind, and c^j = (b c)^j / b^j, so T[q][j] = s(q, j) j! / (q! b^j).
    """
    s = [[1]]  # s[q][j] for j <= q, from s(q + 1, j) = s(q, j - 1) - q s(q, j)
    for q in range(D):
        s.append([(s[q][j - 1] if j else 0) - (q * s[q][j] if j <= q else 0) for j in range(q + 2)])
    return [[Fraction(s[q][j] * math.factorial(j), math.factorial(q) * b**j) for j in range(q + 1)]
            for q in range(D + 1)]


def extract_coefficients(family: OperatorFamily, spec: TorusSpec, alpha) -> GRepresentation:
    """Recover the graded representation behind D and L by exact interpolation.

    Each family F(m) = sum over |p| <= D of (m^p / p!) F_p, D =
    ``family.degree_bound`` a bound on the total degree, is sampled at m = B c
    for c on the simplex {c >= 0 : |c| <= D}, C(D + d, d) points, which fix a
    polynomial of total degree <= D.  Newton forward differences, taken in
    place one axis at a time, turn the samples into the coefficients
    Delta^q F(0) of the binomial basis prod over i of C(c_i, q_i); the simplex
    is closed under the difference step along each axis.  One triangular
    Stirling-number transform per axis then maps that basis to m^p / p!.  An
    out-of-sample check at m = B (D + 1, D + 2, ..., D + d) guards the asserted
    degree bound; its coordinates differ, so an excess that vanishes on the
    diagonal m_1 = ... = m_d is still caught.  The constant term of each D
    family is checked against its forced scalar blocks.  Each other nonzero
    coefficient of m^p / p! acts in the result under its jet key, XD(p, j) in
    D(e_j, m) and XT(p, r) in L(m, r); the center acts by the identity.
    """
    D = family.degree_bound
    alpha = _coerce_alpha(spec, alpha)
    sp = family.space
    fld = spec.field
    B = spec.B
    d = spec.d
    simplex = [c for c in itertools.product(range(D + 1), repeat=d) if sum(c) <= D]
    transforms = [_binomial_to_taylor(b, D) for b in B]

    def to_m(cvec):
        return tuple(c * b for c, b in zip(cvec, B))

    def fit(evaluate, zero: GradedOperator) -> dict:
        """{p: F_p} for the nonzero coefficients of the family m -> evaluate(m)."""
        table = {c: evaluate(to_m(c)) for c in simplex}
        for axis in range(d):
            # the k-th pass leaves Delta^k along the axis at every c with c[axis] >= k;
            # descending c[axis] reads each lower neighbour before it is overwritten
            line_order = sorted(simplex, key=lambda c: -c[axis])
            for k in range(1, D + 1):
                for c in line_order:
                    if c[axis] >= k:
                        table[c] = table[c] - table[c[:axis] + (c[axis] - 1,) + c[axis + 1:]]
        for axis, T in enumerate(transforms):
            table = {
                p: linear_combination(((T[q][p[axis]], table[p[:axis] + (q,) + p[axis + 1:]])
                                       for q in range(p[axis], D - sum(p) + p[axis] + 1)), zero)
                for p in simplex
            }
        coeffs = {p: op for p, op in table.items() if not op.is_zero()}
        mstar = to_m(tuple(range(D + 1, D + 1 + d)))
        predicted = linear_combination(
            ((taylor_coefficient(mstar, p), op) for p, op in coeffs.items()), zero)
        if predicted != evaluate(mstar):
            raise DegreeBoundViolated(f"family is not polynomial of total degree <= {D}")
        return coeffs

    action = {}
    zero = GradedOperator(sp, sp.zero_class, {})
    for j in range(1, d + 1):
        u = tuple(int(i == j) for i in range(1, d + 1))
        f_table = fit(lambda m: family.matrix_D(u, m), zero)
        const = f_table.pop((0,) * d, zero)
        for c in sp.classes:
            scalar = inner_product(fld, u, [a + fld.from_rational(x) for a, x in zip(alpha, c)])
            if const.block(c) != ExactMatrix.identity(fld, sp.dims[c]).scale(scalar):
                raise ConstantTermMismatch(f"constant term wrong on class {c}")
        action.update((("XD", p, j), op) for p, op in f_table.items())
    for r in class_representatives(spec):
        if not in_R(spec, r):
            fitted = fit(lambda m: family.matrix_L(m, r), GradedOperator(sp, r, {}))
            action.update((("XT", l, r), op) for l, op in fitted.items())
    action[("XT", (0,) * d, sp.zero_class)] = GradedOperator.identity(sp)
    return GRepresentation(sp, action)


def coefficients_to_representation(spec: TorusSpec, rep: GRepresentation) -> GRepresentation:
    """`rep` itself if it satisfies the bracket relations below its cutoff, else RelationViolated."""
    report = verify_representation(spec, rep, rep.cutoff)
    if not report.passed:
        raise RelationViolated(f"coefficients violate the bracket at {report.first_failure}")
    return rep


# ---------------------------------------------------------------------------
# the two checks of a quotient pair (V, W) and its pullback
# ---------------------------------------------------------------------------


def roundtrip_holds(spec: TorusSpec, alpha, pair, degree_bound: int | None = None) -> bool:
    """Extraction from the weight module of `pair`'s pullback, then reassembly,
    gives the pullback back exactly.

    `pair` is (vw, pullback(spec, vw)); `degree_bound` is the total-degree
    bound of the operator families, 3 by default.
    """
    degree_bound = 3 if degree_bound is None else degree_bound
    rep = pair[1]
    module = build_module(spec, alpha, rep, box=degree_bound + 1)
    coeffs = extract_coefficients(OperatorFamily(module, degree_bound=degree_bound), spec, alpha)
    return coefficients_to_representation(spec, coeffs) == rep


def constructions_agree(pair) -> bool:
    """The weight module built from `pair`'s pullback equals the tensor-field
    module of `pair`, for every alpha and on every label; `pair` is
    (vw, pullback(spec, vw)).  Neither action table reads alpha or the box
    (``modules_equal``), so both modules take alpha = 0."""
    vw, rep = pair
    alpha = (0,) * vw.spec.d
    return modules_equal(build_module(vw.spec, alpha, rep), TensorFieldModule(vw.spec, alpha, vw))


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
        "torus": dump_torus(module.spec),
        "alpha": [a.serialize() for a in module.alpha],
        "box": box,
        "weights": weights,
        "actions": actions,
    }
