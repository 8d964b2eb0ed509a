"""Matrix realization of the torus classes inside M_N.

Each noncommuting pair contributes a clock matrix (diagonal powers of q_i) and
a shift matrix; X^n is the Kronecker product of the per-pair factors
Clock^a * Shift^b, each written in closed form, and depends only on the class
of n.  Multiplying these matrices is the ground-truth oracle that fixes the
argument order of `sigma_hat`.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .matrices import ExactMatrix
from .torus import (
    ExpVec,
    TorusSpec,
    canonical_rep,
    class_representatives,
    exp_add,
    in_R,
    sigma_hat,
    sigma_skew,
    Monomial,
)


@lru_cache(maxsize=None)
def _pair_factor(spec: TorusSpec, i: int, a: int, b: int) -> ExactMatrix:
    """Clock^a * Shift^b on pair i, for any integers a and b.

    Clock = diag(1, q_i, ..., q_i^{k_i-1}) and Shift = E_{1,2} + ... + E_{k,1},
    which sends e_c to e_{c-1}; so row r of the product holds q_i^{a r} in
    column (r + b) mod k_i and zeros elsewhere.
    """
    ki = spec.k[i]
    step = spec.L // ki
    out = ExactMatrix.zeros(spec.field, ki)
    for r in range(ki):
        out[r, (r + b) % ki] = spec.field.root(step * a * r)
    return out


def x_power(spec: TorusSpec, n: ExpVec) -> ExactMatrix:
    """The N x N matrix X^n; equals the identity exactly when n lies in R."""
    out = ExactMatrix.identity(spec.field, 1)
    for i in range(spec.z):
        out = out.kron(_pair_factor(spec, i, n[2 * i], n[2 * i + 1]))
    return out


class RelationReport(NamedTuple):
    passed: bool
    cases: int
    counterexample: tuple | None

    def __str__(self):
        if self.passed:
            return f"pass ({self.cases} cases)"
        return f"fail at {self.counterexample} after {self.cases} cases"


def verify_product_relation(spec: TorusSpec, box: int, flip: bool = False) -> RelationReport:
    """Check X^m X^n = sigma_hat(m, n) X^{m+n} for all m, n in [0, box]^d.

    With flip=True the pairing arguments are swapped, which must fail for any
    genuinely noncommutative torus; the first counterexample is reported.
    """
    grid = list(itertools.product(range(box + 1), repeat=spec.d))
    cases = 0
    for m in grid:
        xm = x_power(spec, m)
        for n in grid:
            cases += 1
            factor = sigma_hat(spec, n, m) if flip else sigma_hat(spec, m, n)
            lhs = xm * x_power(spec, n)
            rhs = x_power(spec, exp_add(m, n)).scale(factor)
            if lhs != rhs:
                return RelationReport(False, cases, (m, n))
    return RelationReport(True, cases, None)


def verify_identity_on_R(spec: TorusSpec, box: int) -> RelationReport:
    """Check X^n is the identity for every n in R with coordinates in [0, box]."""
    ident = ExactMatrix.identity(spec.field, spec.N)
    cases = 0
    for n in itertools.product(range(box + 1), repeat=spec.d):
        if in_R(spec, n):
            cases += 1
            if x_power(spec, n) != ident:
                return RelationReport(False, cases, (n,))
    return RelationReport(True, cases, None)


def span_dimension(spec: TorusSpec) -> int:
    """Dimension of span{X^w : w a class representative} inside M_N."""
    rows = [x_power(spec, w).flatten() for w in class_representatives(spec)]
    return ExactMatrix(spec.field, rows).rank()


def glN_bracket(spec: TorusSpec, r: ExpVec, s: ExpVec) -> Monomial:
    """[X^r, X^s] as a coefficient times the class representative of r+s."""
    return Monomial(sigma_skew(spec, r, s), canonical_rep(spec, exp_add(r, s)))
