"""The auxiliary graded Lie algebra behind bounded weight modules.

Basis symbols:
  ("XD", p, j) -- x^p d_j with p in N^d, |p| >= 1, 1 <= j <= d;
  ("XT", l, s) -- x^l t-bar^s with l in N^d and s in Z^d.

The XT second index is kept raw (not reduced modulo the central sublattice R):
with reduced indices no choice of the scalar in the mixed bracket satisfies
the Jacobi identity.  With raw indices the algebra is the semidirect product
of polynomial vector fields acting on (polynomials tensor the twisted group
algebra), so Jacobi holds identically; representations reduce raw symbols to
class representatives through a cutoff-finite tail (see qtlie.repn).

Brackets of basis symbols:
  [x^m d_a, x^n d_b]   = n_a x^{m+n-e_a} d_b - m_b x^{m+n-e_b} d_a
  [x^m d_a, x^l tb^s]  = l_a x^{m+l-e_a} tb^s + s_a x^{m+l} tb^s
  [x^p tb^r, x^l tb^s] = (sig(r,s) - sig(s,r)) x^{p+l} tb^{r+s}
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import partial

from .derivations import _Combo
from .errors import MalformedBasisKey
from .matrices import ExactMatrix
from .torus import (
    TorusSpec,
    canonical_rep,
    class_representatives,
    exp_add,
    sigma_skew,
)
from .xmatrix import x_power


def _xd_key(d, p, j: int) -> tuple:
    """Validated ("XD", p, j); with d None the rank is taken from p."""
    p = tuple(p)
    d = len(p) if d is None else d
    if len(p) != d or any(c < 0 for c in p) or sum(p) < 1:
        raise MalformedBasisKey(f"bad vector-field exponent {p}")
    if not 1 <= j <= d:
        raise MalformedBasisKey(f"direction index {j} out of range")
    return ("XD", p, j)


def _xt_key(d, l, s) -> tuple:
    """Validated ("XT", l, s); with d None the rank is taken from l."""
    l = tuple(l)
    s = tuple(s)
    d = len(l) if d is None else d
    if len(l) != d or any(c < 0 for c in l):
        raise MalformedBasisKey(f"bad polynomial exponent {l}")
    if len(s) != d:
        raise MalformedBasisKey(f"bad torus exponent {s}")
    return ("XT", l, s)


class JetElement(_Combo):
    """Element of the jet algebra over a fixed torus."""

    _SYMBOLS = {"XD": ("vi", _xd_key), "XT": ("vv", _xt_key)}

    @staticmethod
    def _symbol(key):
        return key[0], key[1:]


def xd(spec: TorusSpec, p, j: int, coeff=1) -> JetElement:
    return JetElement._term(spec.field, _xd_key(spec.d, p, j), coeff)


def xt(spec: TorusSpec, l, s, coeff=1) -> JetElement:
    return JetElement._term(spec.field, _xt_key(spec.d, l, s), coeff)


def xd_along(spec: TorusSpec, p, u) -> JetElement:
    """x^p d_u for a coefficient vector u."""
    u = map(spec.field.coerce, u)
    return JetElement.from_terms(
        spec.field, ((_xd_key(spec.d, p, j), uj) for j, uj in enumerate(u, start=1) if not uj.is_zero()))


def gl_d_keys(d: int) -> list[tuple[tuple, tuple[int, int]]]:
    """The degree-zero symbols x_i d_j with their matrix units, as (key, (i, j)), i-major."""
    units = [tuple(int(k == i) for k in range(d)) for i in range(d)]
    return [(("XD", p, j), (i, j)) for i, p in enumerate(units, start=1) for j in range(1, d + 1)]


def taylor_coefficient(m, p) -> Fraction:
    """m^p / p! as an exact rational: the coefficient of x^p in the jet of t^m."""
    return Fraction(math.prod(mi**pi for mi, pi in zip(m, p)),
                    math.prod(math.factorial(pi) for pi in p))


def _minus_unit(vec, a):
    out = list(vec)
    out[a] -= 1
    return tuple(out)


def _bracket_jet_keys(spec: TorusSpec, ka, kb):
    """The (key, coefficient) terms of [ka, kb]; the keys are built as plain
    tuples, since a bracket of two valid keys is valid by construction."""
    if ka[0] == "XD" and kb[0] == "XD":
        _, m, a = ka
        _, n, b = kb
        if n[a - 1]:
            yield ("XD", _minus_unit(exp_add(m, n), a - 1), b), n[a - 1]
        if m[b - 1]:
            yield ("XD", _minus_unit(exp_add(m, n), b - 1), a), -m[b - 1]
    elif ka[0] == "XD" and kb[0] == "XT":
        _, m, a = ka
        _, l, s = kb
        ml = exp_add(m, l)
        if l[a - 1]:
            yield ("XT", _minus_unit(ml, a - 1), s), l[a - 1]
        if s[a - 1]:
            yield ("XT", ml, s), s[a - 1]
    elif ka[0] == "XT" and kb[0] == "XD":
        for key, coeff in _bracket_jet_keys(spec, kb, ka):
            yield key, -coeff
    else:
        _, p, r = ka
        _, l, s = kb
        coeff = sigma_skew(spec, r, s)
        if not coeff.is_zero():
            yield ("XT", exp_add(p, l), exp_add(r, s)), coeff


def bracket_jets(spec: TorusSpec, a: JetElement, b: JetElement) -> JetElement:
    return a.bracket(b, partial(_bracket_jet_keys, spec))


def bracket_keys(spec: TorusSpec, ka, kb) -> JetElement:
    """The bracket of two basis symbols."""
    fld = spec.field
    return JetElement.from_terms(fld, ((key, fld.coerce(c)) for key, c in _bracket_jet_keys(spec, ka, kb)))


def key_class(spec: TorusSpec, key) -> tuple:
    """Grading class (canonical representative) of a basis symbol."""
    if key[0] == "XD":
        return canonical_rep(spec, (0,) * spec.d)
    return canonical_rep(spec, key[2])


def gamma_class(spec: TorusSpec, a: JetElement):
    """Common grading class of all terms, None for zero, "mixed" otherwise."""
    classes = {key_class(spec, key) for key in a.terms}
    if not classes:
        return None
    if len(classes) > 1:
        return "mixed"
    return classes.pop()


def key_degree(key) -> int:
    """Filtration degree: |p| - 1 for vector-field symbols, |l| for the rest."""
    if key[0] == "XD":
        return sum(key[1]) - 1
    return sum(key[1])


def filtration_degree(a: JetElement):
    if not a.terms:
        return None
    return min(key_degree(key) for key in a.terms)


def in_plus_ideal(a: JetElement) -> bool:
    """Membership in the ideal of symbols of filtration degree >= 1."""
    deg = filtration_degree(a)
    return deg is None or deg >= 1


def project_quotient(spec: TorusSpec, a: JetElement) -> tuple[ExactMatrix, ExactMatrix]:
    """Image in gl_d + gl_N: x_i d_j -> E_ij, tb^s -> X^s, higher degrees -> 0."""
    fld = spec.field
    gld = ExactMatrix.zeros(fld, spec.d)
    gln = ExactMatrix.zeros(fld, spec.N)
    for key, coeff in a.terms.items():
        if key_degree(key) >= 1:
            continue
        if key[0] == "XD":
            i = key[1].index(1)
            j = key[2] - 1
            gld[i, j] = gld[i, j] + coeff
        else:
            gln = gln + x_power(spec, key[2]).scale(coeff)
    return gld, gln


def degree_basis(d: int, total: int) -> list[tuple[int, ...]]:
    """All exponent vectors in N^d of total degree `total`, lexicographic."""
    out = []
    for comb in itertools.combinations_with_replacement(range(d), total):
        vec = [0] * d
        for c in comb:
            vec[c] += 1
        out.append(tuple(vec))
    return sorted(out)


def commutator_span_dims(spec: TorusSpec, max_degree: int) -> dict[int, tuple[int, int]]:
    """Per filtration degree: (dim of the commutator span, dim of the whole layer).

    The vector-field part is graded, so the commutator decomposes by degree;
    degree 0 spans the traceless d x d matrices and degrees >= 1 fill their
    whole layer.
    """
    d = spec.d
    fld = spec.field
    out = {}
    for deg in range(max_degree + 1):
        layer = [("XD", p, j) for p in degree_basis(d, deg + 1) for j in range(1, d + 1)]
        index = {key: i for i, key in enumerate(layer)}
        rows = []
        for da in range(deg + 1):
            db = deg - da
            keys_a = [("XD", p, j) for p in degree_basis(d, da + 1) for j in range(1, d + 1)]
            keys_b = [("XD", p, j) for p in degree_basis(d, db + 1) for j in range(1, d + 1)]
            for ka in keys_a:
                for kb in keys_b:
                    res = bracket_keys(spec, ka, kb)
                    if res.is_zero():
                        continue
                    row = [fld.zero] * len(layer)
                    for key, coeff in res.terms.items():
                        row[index[key]] = coeff
                    rows.append(row)
        span = ExactMatrix(fld, rows).rank() if rows else 0
        out[deg] = (span, len(layer))
    return out


def canonical_keys(spec: TorusSpec, max_degree: int) -> list[tuple]:
    """All basis symbols of filtration degree <= max_degree with class-rep XT index."""
    keys = []
    for total in range(1, max_degree + 2):
        for p in degree_basis(spec.d, total):
            for j in range(1, spec.d + 1):
                keys.append(("XD", p, j))
    reps = class_representatives(spec)
    for total in range(0, max_degree + 1):
        for l in degree_basis(spec.d, total):
            for w in reps:
                keys.append(("XT", l, w))
    return keys


def key_to_string(key) -> str:
    return JetElement._fmt(key)


def key_from_string(text: str):
    return JetElement._key(None, text)


def parse_jet_element(spec: TorusSpec, text: str) -> JetElement:
    return JetElement._parse(spec.d, spec.field, text)
