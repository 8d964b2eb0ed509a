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
from functools import partial
from typing import NamedTuple

from .cyclo import CycloField, CycloNum, _make, make_field, parse_scalar
from .errors import DimensionMismatch, ExponentNotInR, MalformedBasisKey, NotGeneric, ParseError
from .matrices import ExactMatrix
from .torus import TorusSpec, central_box, exp_add, exp_sub, in_R, sigma_skew


def inner_product(field: CycloField, u, v) -> CycloNum:
    """Sum of u_i * v_i; integer coordinates are coerced into the field."""
    acc = field.zero
    for a, b in zip(u, v):
        acc = acc + field.coerce(a) * field.coerce(b)
    return acc


def _plain(c: CycloNum):
    """c as a Python int when it is a rational integer, else c."""
    num = c.num
    if c.den == 1 and not any(num[1:]):
        return num[0]
    return c


class _Combo:
    """Finitely supported linear combination of basis keys.

    Each subclass declares its symbol grammar once, as two maps:
      _symbol(key) -> (tag, args), args being ints and int tuples;
      _SYMBOLS[tag] = (shape, make) with make(ctx, *args) -> validated key,
    where shape has one letter per `;`-separated group ("i" an int, "v" a
    vector) and ctx is whatever the key constructors need (spec, field, d).
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: CycloField, terms: dict | None = None):
        self.field = field
        self.terms = {key: c for key, c in terms.items() if not c.is_zero()} if terms else {}

    @classmethod
    def _of(cls, field: CycloField, terms: dict):
        """The combination of `terms`, a fresh dict of nonzero coefficients, taken as it is."""
        out = cls.__new__(cls)
        out.field, out.terms = field, terms
        return out

    @classmethod
    def _term(cls, field: CycloField, key, coeff):
        """The one-term combination coeff * key (zero when coeff is), coeff coerced into the field."""
        coeff = field.coerce(coeff)
        return cls._of(field, {} if coeff.is_zero() else {key: coeff})

    @classmethod
    def from_terms(cls, field: CycloField, pairs):
        """Sum of (key, CycloNum) pairs; zero coefficients are dropped at the end."""
        terms = {}
        for key, coeff in pairs:
            acc = terms.get(key)
            terms[key] = coeff if acc is None else acc + coeff
        for key in [key for key, c in terms.items() if c.is_zero()]:
            del terms[key]
        return cls._of(field, terms)

    def bracket(self, other, key_bracket):
        """[self, other], the bilinear extension of key_bracket(kx, ky), which
        yields (key, coeff) pairs with coeff an int or a CycloNum.

        Structure constants are mostly integers, so every coefficient that is
        a rational integer is carried as a Python int: the unit is taken as 1
        by identity, any other coefficient is read through _plain, and int
        products and sums stay ints.  Where a coefficient of self, the
        product of the two coefficients, or a key bracket's constant is the
        int 1 or -1, the other factor is passed through or negated, with no
        field multiplication.  Every product goes straight into one dict; at
        the end each nonzero int becomes `one` or one canonical CycloNum, and
        zeros are dropped, as in from_terms.
        """
        field = self.field
        one = field.one
        tail = field.zero.num[1:]
        terms = {}
        get = terms.get
        y_terms = other.terms.items()
        for kx, cx in self.terms.items():
            cx = 1 if cx is one else _plain(cx)
            x_sign = cx if type(cx) is int and (cx == 1 or cx == -1) else 0
            for ky, cy in y_terms:
                if cy is one:
                    c, sign = cx, x_sign
                else:
                    cy = _plain(cy)
                    c = cy if x_sign == 1 else -cy if x_sign else cx * cy
                    sign = c if type(c) is int and (c == 1 or c == -1) else 0
                for key, coeff in key_bracket(kx, ky):
                    if sign != 1:
                        if sign:
                            coeff = -coeff
                        elif type(coeff) is int and (coeff == 1 or coeff == -1):
                            coeff = c if coeff == 1 else -c
                        else:
                            coeff = c * coeff
                    acc = get(key)
                    terms[key] = coeff if acc is None else acc + coeff
        out = {}
        for key, c in terms.items():
            if type(c) is int:
                if c == 1:
                    out[key] = one
                elif c:
                    out[key] = _make(field, (c,) + tail, 1)
            elif not c.is_zero():
                out[key] = c
        return self._of(field, out)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.from_terms(self.field, itertools.chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._of(self.field, {k: -c for k, c in self.terms.items()})

    def scale(self, scalar):
        scalar = self.field.coerce(scalar)
        return type(self)(self.field, {k: scalar * c for k, c in self.terms.items()})

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    @classmethod
    def _fmt(cls, key) -> str:
        tag, args = cls._symbol(key)
        body = ";".join(str(a) if isinstance(a, int) else ",".join(map(str, a)) for a in args)
        return f"{tag}({body})"

    @classmethod
    def _key(cls, ctx, text: str):
        """The validated key named by one symbol such as `D(1;2,0)`."""
        m = _ATOM.match(text.strip())
        if not m or m.group(1) not in cls._SYMBOLS:
            raise ParseError(f"{text.strip()!r} is not a {cls.__name__} symbol")
        shape, make = cls._SYMBOLS[m.group(1)]
        groups = m.group(2).split(";")
        try:
            if len(groups) != len(shape):
                raise ValueError
            args = []
            for kind, group in zip(shape, groups):
                vec = tuple(int(x) for x in group.split(",")) if group.strip() else ()
                if kind == "i":
                    (vec,) = vec  # exactly one entry
                args.append(vec)
        except ValueError as exc:
            raise ParseError(f"bad symbol body {m.group(2)!r}") from exc
        return make(ctx, *args)

    @classmethod
    def _parse(cls, ctx, field: CycloField, text: str):
        """Parse a sum of optionally scaled symbols, e.g. `2*D(1;2,0) - T(1,0)`."""
        pairs = []
        for sign, term in _split_terms(text):
            pre, star, atom = term.rpartition("*")
            scalar = field.from_rational(sign)
            if star:
                scalar = scalar * parse_scalar(pre.strip().strip("()"), field)
            pairs.append((cls._key(ctx, atom), scalar))
        return cls.from_terms(field, pairs)

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


def _deriv_key(spec: TorusSpec, i: int, m) -> tuple:
    m = tuple(m)
    if len(m) != spec.d:
        raise MalformedBasisKey(f"exponent {m} does not have {spec.d} entries")
    if not 1 <= i <= spec.d:
        raise MalformedBasisKey(f"derivation index {i} out of range")
    if not in_R(spec, m):
        raise ExponentNotInR(f"exponent {m} is not in R")
    return ("d", i, m)


def _inner_key(spec: TorusSpec, s) -> tuple:
    s = tuple(s)
    if len(s) != spec.d:
        raise MalformedBasisKey(f"exponent {s} does not have {spec.d} entries")
    if in_R(spec, s):
        raise MalformedBasisKey(f"exponent {s} is central; not an inner derivation")
    return ("t", s)


def _witt_key(i: int, m) -> tuple:
    m = tuple(m)
    if not 1 <= i <= len(m):
        raise MalformedBasisKey(f"Witt index {i} out of range for exponent {m}")
    return (i, m)


class DElement(_Combo):
    """Element of the derivation algebra of a quantum torus."""

    _SYMBOLS = {"D": ("iv", _deriv_key), "T": ("v", _inner_key)}

    @staticmethod
    def _symbol(key):
        return ("D", key[1:]) if key[0] == "d" else ("T", key[1:])


class WdElement(_Combo):
    """Element of the Witt algebra of the d-dimensional commutative torus."""

    _SYMBOLS = {"W": ("iv", lambda _field, i, m: _witt_key(i, m))}

    @staticmethod
    def _symbol(key):
        return ("W", key)


def deriv(spec: TorusSpec, i: int, m, coeff=1) -> DElement:
    """The degree derivation t^m d_i (requires m in R, 1 <= i <= d)."""
    return DElement._term(spec.field, _deriv_key(spec, i, m), coeff)


def inner(spec: TorusSpec, s, coeff=1) -> DElement:
    """The inner derivation attached to t^s (requires s not in R)."""
    return DElement._term(spec.field, _inner_key(spec, s), coeff)


def deriv_along(spec: TorusSpec, u, m) -> DElement:
    """The derivation t^m sum_i u_i d_i for a coefficient vector u."""
    u = map(spec.field.coerce, u)
    return DElement.from_terms(
        spec.field, ((_deriv_key(spec, i, m), ui) for i, ui in enumerate(u, start=1) if not ui.is_zero()))


def witt(field: CycloField, i: int, m, coeff=1) -> WdElement:
    return WdElement._term(field, _witt_key(i, m), coeff)


def witt_along(field: CycloField, mu, m) -> WdElement:
    mu = map(field.coerce, mu)
    return WdElement.from_terms(
        field, ((_witt_key(i, m), ui) for i, ui in enumerate(mu, start=1) if not ui.is_zero()))


def _bracket_d_keys(spec: TorusSpec, a, b):
    """The (key, coefficient) terms of [a, b]; the keys are built as plain
    tuples, since a bracket of two valid keys is valid by construction."""
    if a[0] == "d" and b[0] == "d":
        _, i, m = a
        _, j, n = b
        mn = exp_add(m, n)
        if n[i - 1]:
            yield ("d", j, mn), n[i - 1]
        if m[j - 1]:
            yield ("d", i, mn), -m[j - 1]
    elif a[0] == "d" and b[0] == "t":
        _, i, m = a
        s = b[1]
        if s[i - 1]:
            yield ("t", exp_add(m, s)), s[i - 1]
    elif a[0] == "t" and b[0] == "d":
        for key, coeff in _bracket_d_keys(spec, b, a):
            yield key, -coeff
    else:
        coeff = sigma_skew(spec, a[1], b[1])
        if not coeff.is_zero():
            yield ("t", exp_add(a[1], b[1])), coeff


def bracket_d(spec: TorusSpec, a: DElement, b: DElement) -> DElement:
    """Lie bracket on the derivation algebra, extended bilinearly."""
    return a.bracket(b, partial(_bracket_d_keys, spec))


def _bracket_witt_keys(a, b):
    """The (key, coefficient) terms of [a, b].  Each key is valid alone, so
    only their lengths are checked; the keys built from them are then valid."""
    i, m = a
    j, n = b
    if len(m) != len(n):
        raise MalformedBasisKey(f"Witt exponents {m} and {n} differ in length")
    mn = exp_add(m, n)
    if n[i - 1]:
        yield (j, mn), n[i - 1]
    if m[j - 1]:
        yield (i, mn), -m[j - 1]


def bracket_witt(a: WdElement, b: WdElement) -> WdElement:
    return a.bracket(b, _bracket_witt_keys)


def derivations_to_witt(spec: TorusSpec, a: DElement) -> WdElement:
    """Isomorphism from the central-exponent derivations onto the Witt algebra.

    t^m d_i (m = B n) maps to B_ii * x^n x_i d/dx_i; inner symbols are rejected.
    Distinct symbols map to distinct Witt symbols, so no two terms add up; an
    integer coefficient is scaled as a Python int.
    """
    B = spec.B
    field = spec.field
    tail = field.zero.num[1:]
    terms = {}
    for key, coeff in a.terms.items():
        if key[0] != "d":
            raise ExponentNotInR("element contains inner-derivation terms")
        _, i, m = key
        if any(mj % bj for mj, bj in zip(m, B)):
            raise ExponentNotInR(f"{m} is not in the rescaled lattice")
        n = tuple(mj // bj for mj, bj in zip(m, B))
        b = B[i - 1]
        if b != 1:  # then b >= 2, and an integer product is never the unit
            c = _plain(coeff)
            coeff = _make(field, (c * b,) + tail, 1) if type(c) is int else c * b
        terms[_witt_key(i, n)] = coeff
    return WdElement._of(field, terms)


def is_generic(spec: TorusSpec, mu) -> bool:
    """True iff the entries of mu are linearly independent over Q."""
    mu = tuple(map(spec.field.coerce, mu))
    if len(mu) != spec.d:
        raise DimensionMismatch("mu must have d entries")
    return ExactMatrix(make_field(1), [list(x.coeffs) for x in mu]).rank() == spec.d


class ClosureReport(NamedTuple):
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
    mu = tuple(map(spec.field.coerce, mu))
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
        raise ParseError(f"unknown flavor {flavor!r}")
    central = central_box(spec, sample_box)
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
            coeff = sigma_skew(spec, r, s)
            want = DElement(fld) if coeff.is_zero() else inner(spec, exp_add(r, s), coeff)
            if got != want:
                return ClosureReport(False, cases, (r, s))
    return ClosureReport(True, cases, None)


_ATOM = re.compile(r"^([A-Z]+)\(([^)]*)\)$")


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


def parse_d_element(spec: TorusSpec, text: str) -> DElement:
    """Parse the `D(i;m...)` / `T(s...)` grammar with optional scalar prefixes."""
    return DElement._parse(spec, spec.field, text)


def parse_witt_element(field: CycloField, text: str) -> WdElement:
    return WdElement._parse(field, field, text)
