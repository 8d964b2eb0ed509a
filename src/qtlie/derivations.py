"""Derivation Lie algebra of the quantum torus, and the Witt algebra.

Basis symbols of the derivation algebra:
  ("d", i, m) -- the degree derivation t^m d_i with m in R, 1 <= i <= d;
  ("t", s)    -- the inner derivation given by t^s with s not in R.
Inner symbols keep their raw exponent: the algebra is infinite dimensional and
t^s, t^{s+n} are distinct derivations.  Witt symbols are (i, m) for
x^m x_i d/dx_i with m in Z^d.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .cyclo import CycloField, CycloNum, parse_scalar
from .errors import ExponentNotInR, InvariantViolated, MalformedBasisKey, NotGeneric, ParseError
from .matrices import rational_rank
from .torus import TorusSpec, exp_add, exp_sub, in_R, sigma_skew


def _coerce_vector(field: CycloField, u) -> tuple[CycloNum, ...]:
    return tuple(x if isinstance(x, CycloNum) else field.from_rational(x) for x in u)


def inner_product(field: CycloField, u, v) -> CycloNum:
    """Sum of u_i * v_i; integer coordinates are coerced into the field."""
    acc = field.zero
    for a, b in zip(u, v):
        if not isinstance(a, CycloNum):
            a = field.from_rational(a)
        if not isinstance(b, CycloNum):
            b = field.from_rational(b)
        acc = acc + a * b
    return acc


class _Combo:
    """Finitely supported linear combination of basis keys."""

    __slots__ = ("field", "terms")

    def __init__(self, field: CycloField, terms: dict | None = None):
        self.field = field
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                if not coeff.is_zero():
                    self.terms[key] = coeff

    def _new(self, terms):
        return type(self)(self.field, terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key)
            acc = coeff if acc is None else acc + coeff
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
        return self._new(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def scale(self, scalar):
        if not isinstance(scalar, CycloNum):
            scalar = self.field.from_rational(scalar)
        if scalar.is_zero():
            return self._new({})
        return self._new({k: scalar * c for k, c in self.terms.items()})

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def coefficient(self, key) -> CycloNum:
        return self.terms.get(key, self.field.zero)

    def _fmt(self, key) -> str:
        raise NotImplementedError

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=repr):
            c = self.terms[key]
            cs = str(c)
            if cs == "1":
                parts.append(self._fmt(key))
            elif cs == "-1":
                parts.append("-" + self._fmt(key))
            else:
                wrapped = cs if ("+" not in cs and " - " not in cs) else f"({cs})"
                parts.append(f"{wrapped}*{self._fmt(key)}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


class DElement(_Combo):
    """Element of the derivation algebra of a quantum torus."""

    def _fmt(self, key):
        if key[0] == "d":
            return f"D({key[1]};{','.join(map(str, key[2]))})"
        return f"T({','.join(map(str, key[1]))})"


class WdElement(_Combo):
    """Element of the Witt algebra of the d-dimensional commutative torus."""

    def _fmt(self, key):
        return f"W({key[0]};{','.join(map(str, key[1]))})"


def deriv(spec: TorusSpec, i: int, m, coeff=1) -> DElement:
    """The degree derivation t^m d_i (requires m in R, 1 <= i <= d)."""
    m = tuple(m)
    if not 1 <= i <= spec.d:
        raise MalformedBasisKey(f"derivation index {i} out of range")
    if not in_R(spec, m):
        raise ExponentNotInR(f"exponent {m} is not in R")
    c = coeff if isinstance(coeff, CycloNum) else spec.field.from_rational(coeff)
    return DElement(spec.field, {("d", i, m): c})


def inner(spec: TorusSpec, s, coeff=1) -> DElement:
    """The inner derivation attached to t^s (requires s not in R)."""
    s = tuple(s)
    if in_R(spec, s):
        raise MalformedBasisKey(f"exponent {s} is central; not an inner derivation")
    c = coeff if isinstance(coeff, CycloNum) else spec.field.from_rational(coeff)
    return DElement(spec.field, {("t", s): c})


def deriv_along(spec: TorusSpec, u, m) -> DElement:
    """The derivation t^m sum_i u_i d_i for a coefficient vector u."""
    u = _coerce_vector(spec.field, u)
    out = DElement(spec.field)
    for i, ui in enumerate(u, start=1):
        if not ui.is_zero():
            out = out + deriv(spec, i, m, ui)
    return out


def witt(field: CycloField, i: int, m, coeff=1) -> WdElement:
    m = tuple(m)
    c = coeff if isinstance(coeff, CycloNum) else field.from_rational(coeff)
    return WdElement(field, {(i, m): c})


def witt_along(field: CycloField, mu, m) -> WdElement:
    mu = _coerce_vector(field, mu)
    out = WdElement(field)
    for i, ui in enumerate(mu, start=1):
        if not ui.is_zero():
            out = out + witt(field, i, m, ui)
    return out


def _bracket_d_keys(spec: TorusSpec, a, b) -> DElement:
    fld = spec.field
    if a[0] == "d" and b[0] == "d":
        _, i, m = a
        _, j, n = b
        out = DElement(fld)
        mn = exp_add(m, n)
        if n[i - 1]:
            out = out + deriv(spec, j, mn, n[i - 1])
        if m[j - 1]:
            out = out - deriv(spec, i, mn, m[j - 1])
        return out
    if a[0] == "d" and b[0] == "t":
        _, i, m = a
        s = b[1]
        if s[i - 1] == 0:
            return DElement(fld)
        return inner(spec, exp_add(m, s), s[i - 1])
    if a[0] == "t" and b[0] == "d":
        return -_bracket_d_keys(spec, b, a)
    # inner x inner
    r, s = a[1], b[1]
    coeff = sigma_skew(spec, r, s)
    rs = exp_add(r, s)
    if in_R(spec, rs):
        # forced by the normal form; checked rather than special-cased
        if not coeff.is_zero():
            raise InvariantViolated(f"sigma skew at {r}, {s} is nonzero although r + s lies in R")
        return DElement(fld)
    if coeff.is_zero():
        return DElement(fld)
    return DElement(fld, {("t", rs): coeff})


def bracket_d(spec: TorusSpec, a: DElement, b: DElement) -> DElement:
    """Lie bracket on the derivation algebra, extended bilinearly."""
    out = DElement(spec.field)
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            out = out + _bracket_d_keys(spec, ka, kb).scale(ca * cb)
    return out


def _bracket_witt_keys(field: CycloField, a, b) -> WdElement:
    i, m = a
    j, n = b
    out = WdElement(field)
    mn = exp_add(m, n)
    if n[i - 1]:
        out = out + witt(field, j, mn, n[i - 1])
    if m[j - 1]:
        out = out - witt(field, i, mn, m[j - 1])
    return out


def bracket_witt(a: WdElement, b: WdElement) -> WdElement:
    out = WdElement(a.field)
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            out = out + _bracket_witt_keys(a.field, ka, kb).scale(ca * cb)
    return out


def derivations_to_witt(spec: TorusSpec, a: DElement) -> WdElement:
    """Isomorphism from the central-exponent derivations onto the Witt algebra.

    t^m d_i (m = B n) maps to B_ii * x^n x_i d/dx_i; inner symbols are rejected.
    """
    B = spec.B
    out = WdElement(spec.field)
    for key, coeff in a.terms.items():
        if key[0] != "d":
            raise ExponentNotInR("element contains inner-derivation terms")
        _, i, m = key
        if any(mj % bj for mj, bj in zip(m, B)):
            raise ExponentNotInR(f"{m} is not in the rescaled lattice")
        n = tuple(mj // bj for mj, bj in zip(m, B))
        out = out + witt(spec.field, i, n, coeff * B[i - 1])
    return out


def is_generic(spec: TorusSpec, mu) -> bool:
    """True iff the entries of mu are linearly independent over Q."""
    mu = _coerce_vector(spec.field, mu)
    if len(mu) != spec.d:
        raise ValueError("mu must have d entries")
    rows = [list(x.coeffs) for x in mu]
    return rational_rank(rows) == spec.d


@dataclass
class ClosureReport:
    closed: bool
    cases: int
    counterexample: tuple | None


def solenoidal_span_check(spec: TorusSpec, mu, flavor: str, sample_box: int) -> ClosureReport:
    """Verify closure of the rank-one-direction subalgebra spanned by mu.

    flavor "commutative": span{x^m sum mu_i x_i d_i} inside the Witt algebra;
    flavor "quantum": span{t^m d_mu, t^s} inside the derivation algebra.
    """
    if not is_generic(spec, mu):
        raise NotGeneric(f"{mu} is not generic")
    mu = _coerce_vector(spec.field, mu)
    fld = spec.field
    cases = 0
    box = range(-sample_box, sample_box + 1)
    if flavor == "commutative":
        exps = list(itertools.product(box, repeat=spec.d))
        for m in exps:
            am = witt_along(fld, mu, m)
            for n in exps:
                cases += 1
                got = bracket_witt(am, witt_along(fld, mu, n))
                scalar = inner_product(fld, mu, exp_sub(n, m))
                want = witt_along(fld, mu, exp_add(m, n)).scale(scalar)
                if got != want:
                    return ClosureReport(False, cases, (m, n))
        return ClosureReport(True, cases, None)
    if flavor != "quantum":
        raise ValueError(f"unknown flavor {flavor!r}")
    B = spec.B
    central = [
        tuple(c * bi for c, bi in zip(cvec, B))
        for cvec in itertools.product(box, repeat=spec.d)
    ]
    noncentral = [s for s in itertools.product(box, repeat=spec.d) if not in_R(spec, s)]
    for m in central:
        am = deriv_along(spec, mu, m)
        for n in central:
            cases += 1
            got = bracket_d(spec, am, deriv_along(spec, mu, n))
            scalar = inner_product(fld, mu, exp_sub(n, m))
            if got != deriv_along(spec, mu, exp_add(m, n)).scale(scalar):
                return ClosureReport(False, cases, (m, n))
        for s in noncentral:
            cases += 1
            got = bracket_d(spec, am, inner(spec, s))
            if got != inner(spec, exp_add(m, s), inner_product(fld, mu, s)):
                return ClosureReport(False, cases, (m, s))
    for r in noncentral:
        ar = inner(spec, r)
        for s in noncentral:
            cases += 1
            got = bracket_d(spec, ar, inner(spec, s))
            rs = exp_add(r, s)
            want = DElement(fld)
            if not in_R(spec, rs):
                coeff = sigma_skew(spec, r, s)
                if not coeff.is_zero():
                    want = inner(spec, rs, coeff)
            if got != want:
                return ClosureReport(False, cases, (r, s))
    return ClosureReport(True, cases, None)


_ATOM = re.compile(r"^(D|T|W|XD|XT)\(([^)]*)\)$")


def _split_terms(text: str):
    terms = []
    depth = 0
    cur = ""
    sign = 1
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and ch in "+-" and cur.strip():
            terms.append((sign, cur.strip()))
            cur = ""
            sign = 1 if ch == "+" else -1
            continue
        if depth == 0 and ch == "-" and not cur.strip():
            sign = -sign
            continue
        if depth == 0 and ch == "+" and not cur.strip():
            continue
        cur += ch
    if cur.strip():
        terms.append((sign, cur.strip()))
    return terms


def _parse_atom(text: str):
    m = _ATOM.match(text.strip())
    if not m:
        raise ParseError(f"bad basis symbol {text!r}")
    tag, body = m.group(1), m.group(2)
    if tag in ("D", "W", "XD"):
        if tag == "XD":
            vec_part, _, idx_part = body.rpartition(";")
        else:
            idx_part, _, vec_part = body.partition(";")
        try:
            idx = int(idx_part)
            vec = tuple(int(x) for x in vec_part.split(",")) if vec_part.strip() else ()
        except ValueError as exc:
            raise ParseError(f"bad symbol body {body!r}") from exc
        return tag, idx, vec
    if tag == "T":
        try:
            vec = tuple(int(x) for x in body.split(","))
        except ValueError as exc:
            raise ParseError(f"bad symbol body {body!r}") from exc
        return tag, None, vec
    # XT(l1,...,ld;s1,...,sd)
    l_part, _, s_part = body.partition(";")
    try:
        lvec = tuple(int(x) for x in l_part.split(","))
        svec = tuple(int(x) for x in s_part.split(","))
    except ValueError as exc:
        raise ParseError(f"bad symbol body {body!r}") from exc
    return tag, lvec, svec


def parse_d_element(spec: TorusSpec, text: str) -> DElement:
    """Parse the `D(i;m...)` / `T(s...)` grammar with optional scalar prefixes."""
    out = DElement(spec.field)
    for sign, term in _split_terms(text):
        scalar = spec.field.from_rational(sign)
        atom = term
        if "*" in term:
            pre, _, atom = term.rpartition("*")
            scalar = scalar * parse_scalar(pre.strip().strip("()"), spec.field)
        tag, idx, vec = _parse_atom(atom)
        if tag == "D":
            out = out + deriv(spec, idx, vec, scalar)
        elif tag == "T":
            out = out + inner(spec, vec, scalar)
        else:
            raise ParseError(f"symbol {tag} is not a derivation-algebra symbol")
    return out


def parse_witt_element(field: CycloField, text: str) -> WdElement:
    out = WdElement(field)
    for sign, term in _split_terms(text):
        scalar = field.from_rational(sign)
        atom = term
        if "*" in term:
            pre, _, atom = term.rpartition("*")
            scalar = scalar * parse_scalar(pre.strip().strip("()"), field)
        tag, idx, vec = _parse_atom(atom)
        if tag != "W":
            raise ParseError(f"symbol {tag} is not a Witt-algebra symbol")
        out = out + witt(field, idx, vec, scalar)
    return out
