"""Rational quantum torus in normal form.

A torus is specified by (d, z, k_1..k_z, L): d Laurent generators, z
noncommuting pairs with q_i a primitive k_i-th root of unity on pair i, and
coefficients taken in Q(zeta_L) with k_1 | L.  The pairing `sigma_hat` is
normalized so that t^m t^n = sigma_hat(m, n) t^{m+n} matches the matrix
realization (see `qtlie.xmatrix.verify_product_relation`, which is the oracle
fixing the argument order).
"""
from __future__ import annotations

import itertools
import json
import operator
from typing import NamedTuple

from .cyclo import CycloNum, make_field
from .errors import InvariantViolated, ParseError

ExpVec = tuple[int, ...]


class TorusSpec:
    """Normal-form torus data (d, z, k, L), immutable and hashable.

    Equality and hashing use (d, z, k, L) only.  Derived once, on
    construction: `field` is Q(zeta_L), `B` the diagonal of the
    lattice-rescaling matrix diag(k1, k1, ..., kz, kz, 1, ..., 1), and `N`
    the product of the k_i.
    """

    __slots__ = ("d", "z", "k", "L", "field", "B", "N")

    def __init__(self, d: int, z: int, k, L: int):
        k = tuple(k)  # a list would be unhashable and unequal to a tuple
        for name, value in [("d", d), ("z", z), *(("k", ki) for ki in k), ("L", L)]:
            if type(value) is not int:  # int() would truncate a float; a bool is no size
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if d < 2:
            raise ValueError("rank d must be >= 2")
        if z < 0 or 2 * z > d:
            raise ValueError("need 0 <= 2z <= d")
        if len(k) != z:
            raise ValueError("need one order k_i per noncommuting pair")
        for i, ki in enumerate(k):
            if ki < 2:
                raise ValueError("pair orders k_i must be >= 2")
            if i + 1 < len(k) and k[i + 1] > 0 and k[i] % k[i + 1] != 0:
                raise ValueError("orders must satisfy k_{i+1} | k_i")
        if z and L % k[0] != 0:
            raise ValueError("field order L must be a multiple of k_1")
        B = []
        N = 1
        for ki in k:
            B += (ki, ki)
            N *= ki
        B += [1] * (d - 2 * z)
        for name, value in zip(self.__slots__, (d, z, k, L, make_field(L), tuple(B), N)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"TorusSpec is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"TorusSpec is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not TorusSpec:
            return NotImplemented
        return (self.d, self.z, self.k, self.L) == (other.d, other.z, other.k, other.L)

    def __hash__(self):
        return hash((self.d, self.z, self.k, self.L))

    def __repr__(self):
        return f"TorusSpec(d={self.d}, z={self.z}, k={self.k}, L={self.L})"

    def __reduce__(self):
        return TorusSpec, (self.d, self.z, self.k, self.L)

    def q(self, i: int) -> CycloNum:
        """The root of unity q_i attached to pair i (0-based)."""
        return self.field.root(self.L // self.k[i])


def make_torus(d: int, z: int, k, L: int | None = None) -> TorusSpec:
    k = tuple(k)
    if L is None:
        L = k[0] if k else 1
    return TorusSpec(d=d, z=z, k=k, L=L)


def load_torus(source) -> TorusSpec:
    """Build a TorusSpec from a dict, JSON text, or a JSON file path.

    A ``str`` is JSON text when it starts with ``{`` after leading whitespace;
    any other ``str`` and every ``os.PathLike`` name a file.  The keys are
    ``d``, ``z``, ``k`` and ``L`` (optional); any other key, and every size
    that `TorusSpec` rejects, raises ParseError.
    """
    if isinstance(source, dict):
        data = source
    else:
        try:
            if isinstance(source, str) and source.lstrip().startswith("{"):
                text = source
            else:
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
            data = json.loads(text)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read torus spec from {source!r}: {exc}") from exc
    try:
        d, z, k = data["d"], data["z"], data.get("k", [])
        unknown = [key for key in data if key not in ("d", "z", "k", "L")]
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r}")
        if not isinstance(k, (list, tuple)):
            raise TypeError(f"k must be a list, got {k!r}")
        if "L" in data and data["L"] is None:  # make_torus reads None as "the default L"
            raise TypeError("L must be an integer, got None")
        return make_torus(d, z, k, data.get("L"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid torus spec {data!r}: {exc}") from exc


def dump_torus(spec: TorusSpec) -> dict:
    """The JSON-ready torus record of every report, dump and file; `load_torus` reads it back."""
    return {"d": spec.d, "z": spec.z, "k": list(spec.k), "L": spec.L}


def sigma_exponent(spec: TorusSpec, m: ExpVec, n: ExpVec) -> int:
    """Exponent e with sigma_hat(m, n) = zeta_L^e, reduced mod L."""
    e = 0
    for i in range(spec.z):
        e += (spec.L // spec.k[i]) * m[2 * i + 1] * n[2 * i]
    return e % spec.L


def sigma_hat(spec: TorusSpec, m: ExpVec, n: ExpVec) -> CycloNum:
    """Reordering factor: t^m t^n = sigma_hat(m, n) t^{m+n}."""
    return spec.field.root(sigma_exponent(spec, m, n))


def sigma_skew(spec: TorusSpec, m: ExpVec, n: ExpVec) -> CycloNum:
    """sigma_hat(m, n) - sigma_hat(n, m), the commutator coefficient.

    The normal form forces it to vanish when m + n lies in R; a nonzero skew
    there raises InvariantViolated, so no bracket special-cases that case.
    Equal factors are one shared root object and give the shared zero.  Two
    distinct roots z^a, z^b of the field give its one shared z^a - z^b, built
    from the power tables on first use; any other pair of values (a patched
    pairing, say) is subtracted.
    """
    mn, nm = sigma_hat(spec, m, n), sigma_hat(spec, n, m)
    field = spec.field
    if mn is nm:
        return field.zero
    exponent = field._exponent
    a, b = exponent.get(id(mn)), exponent.get(id(nm))
    if a is None or b is None:
        skew = mn - nm
        if skew.is_zero():
            return skew
    else:  # distinct roots: the skew is nonzero
        skews = field._skews
        skew = skews.get(a * field.L + b)
        if skew is None:
            skew = skews[a * field.L + b] = CycloNum(field, map(operator.sub, field._zpow[a], field._zpow[b]))
    if in_R(spec, exp_add(m, n)):
        raise InvariantViolated(f"sigma skew at {m}, {n} is nonzero although m + n lies in R")
    return skew


def in_R(spec: TorusSpec, m: ExpVec) -> bool:
    """True iff t^m is central, i.e. k_i divides both paired coordinates."""
    for i in range(spec.z):
        ki = spec.k[i]
        if m[2 * i] % ki or m[2 * i + 1] % ki:
            return False
    return True


def canonical_rep(spec: TorusSpec, m: ExpVec) -> ExpVec:
    """Representative of m + R with paired coordinates in (0, k_i], zeros beyond 2z."""
    w = [0] * spec.d
    for i in range(spec.z):
        ki = spec.k[i]
        w[2 * i] = (m[2 * i] - 1) % ki + 1
        w[2 * i + 1] = (m[2 * i + 1] - 1) % ki + 1
    return tuple(w)


def decompose(spec: TorusSpec, m: ExpVec) -> tuple[ExpVec, ExpVec]:
    """Split m = n + w with n in R and w the canonical representative."""
    w = canonical_rep(spec, m)
    n = tuple(a - b for a, b in zip(m, w))
    return n, w


def class_representatives(spec: TorusSpec) -> list[ExpVec]:
    """All canonical representatives, in lexicographic order (|Gamma_0| = N^2)."""
    ranges = []
    for i in range(spec.z):
        ranges.append(range(1, spec.k[i] + 1))
        ranges.append(range(1, spec.k[i] + 1))
    tail = (0,) * (spec.d - 2 * spec.z)
    reps = [tuple(head) + tail for head in itertools.product(*ranges)]
    reps.sort()
    return reps


def central_box(spec: TorusSpec, radius: int) -> list[ExpVec]:
    """The central exponents B c for c in [-radius, radius]^d, in itertools.product order of c."""
    return [tuple(c * b for c, b in zip(cvec, spec.B))
            for cvec in itertools.product(range(-radius, radius + 1), repeat=spec.d)]


def exp_add(m: ExpVec, n: ExpVec) -> ExpVec:
    return tuple(map(operator.add, m, n))


def exp_sub(m: ExpVec, n: ExpVec) -> ExpVec:
    return tuple(a - b for a, b in zip(m, n))


class Monomial(NamedTuple):
    coeff: CycloNum
    exp: ExpVec

    def is_zero(self):
        return self.coeff.is_zero()


def monomial(spec: TorusSpec, exp: ExpVec, coeff=1) -> Monomial:
    return Monomial(spec.field.coerce(coeff), tuple(exp))


def multiply_monomials(spec: TorusSpec, a: Monomial, b: Monomial) -> Monomial:
    coeff = a.coeff * b.coeff * sigma_hat(spec, a.exp, b.exp)
    return Monomial(coeff, exp_add(a.exp, b.exp))


def validate_q_matrix(spec: TorusSpec, q_grid) -> bool:
    """Check a raw d x d grid of CycloNum entries against the normal form."""
    d = spec.d
    if len(q_grid) != d or any(len(row) != d for row in q_grid):
        return False
    for i in range(d):
        for j in range(d):
            expected = spec.field.one
            if i != j:
                pair, lo = j // 2, 2 * (j // 2)
                if j < 2 * spec.z and {i, j} == {lo, lo + 1}:
                    step = spec.L // spec.k[pair]
                    expected = spec.field.root(step if i > j else -step)
            if q_grid[i][j] != expected:
                return False
    return True


def center_generator_names(spec: TorusSpec) -> list[str]:
    names = []
    for i in range(spec.z):
        names.append(f"t{2 * i + 1}^{spec.k[i]}")
        names.append(f"t{2 * i + 2}^{spec.k[i]}")
    for l in range(2 * spec.z, spec.d):
        names.append(f"t{l + 1}")
    return names
