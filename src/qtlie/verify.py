"""Named verification suites: executable checks of every structural identity.

Each suite returns a VerificationReport whose serialized form is free of wall
time, so identical configurations and seeds produce byte-identical report
files; timing is carried separately for the human summary.
"""
from __future__ import annotations

import json
import random
import time
from contextvars import ContextVar
from functools import cache, partial

from . import derivations, jetalg
from .cuspidal import (
    build_module,
    constructions_agree,
    roundtrip_holds,
    verify_module_axioms,
    weight_multiplicities,
)
from .derivations import (
    DElement,
    WdElement,
    _plain,
    bracket_d,
    bracket_witt,
    deriv,
    deriv_along,
    derivations_to_witt,
)
from .errors import NotIrreducible, ParseError
from .jetalg import (
    JetElement,
    bracket_jets,
    canonical_keys,
    commutator_span_dims,
    gl_d_keys,
    key_degree,
    key_to_string,
    project_quotient,
    xd,
    xt,
)
from .matrices import ExactMatrix
from .repn import (
    commutant,
    decompose_tensor,
    first_bracket_failure,
    preset_pullback,
    scramble_representation,
)
from .torus import TorusSpec, class_representatives, dump_torus, in_R
from .xmatrix import span_dimension, verify_identity_on_R, verify_product_relation


class VerificationReport:
    def __init__(self, suite: str, cases: int, failures: list | None = None, wall_time: float = 0.0):
        self.suite = suite
        self.cases = cases
        self.failures = [] if failures is None else failures
        self.wall_time = wall_time  # set by run_suites; excluded from serialization on purpose

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": self.failures,
            "passed": self.passed,
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = "" if self.passed else f"; first failure: {self.failures[0]}"
        return f"{self.suite}: {status} ({self.cases} cases{extra}) [{self.wall_time:.2f}s]"


def _xmatrix_box(spec: TorusSpec, box: int | None) -> int:
    """`box`, or by default 2 k_1 (2 on the commutative torus), the box of both xmatrix suites."""
    return 2 * (spec.k[0] if spec.z else 1) if box is None else box


def suite_xmatrix(spec: TorusSpec, box: int | None = None, flip: bool = False) -> VerificationReport:
    """Product relation of the matrix realization, over [0, 2 k_1]^d by default."""
    rel = verify_product_relation(spec, _xmatrix_box(spec, box), flip=flip)
    failures = [] if rel.passed else [{"pair": [list(rel.counterexample[0]), list(rel.counterexample[1])]}]
    return VerificationReport("xmatrix-flip" if flip else "xmatrix", rel.cases, failures)


def suite_xmatrix_identity(spec: TorusSpec, box: int | None = None) -> VerificationReport:
    """X^n is the identity on the central lattice, and the classes span M_N."""
    rel = verify_identity_on_R(spec, _xmatrix_box(spec, box))
    failures = [] if rel.passed else [{"exponent": list(rel.counterexample[0])}]
    cases = rel.cases + 1
    dim = span_dimension(spec)
    if dim != spec.N**2:
        failures.append({"span_dimension": dim, "expected": spec.N**2})
    return VerificationReport("xmatrix-identity", cases, failures)


def _random_d_basis(spec: TorusSpec, rng: random.Random, box: int) -> tuple:
    """A random basis key of the derivation algebra, valid by construction."""
    B = spec.B
    if not spec.z or rng.random() < 0.5:  # a commutative torus has no inner derivations
        m = tuple(rng.randint(-max(box // b, 1), max(box // b, 1)) * b for b in B)
        return ("d", rng.randint(1, spec.d), m)
    while True:
        s = tuple(rng.randint(-box, box) for _ in range(spec.d))
        if not in_R(spec, s):
            return ("t", s)


def _jacobi_sum(key_bracket, inner, a, b, c) -> dict:
    """key -> coefficient of [[a,b],c] + [[b,c],a] + [[c,a],b] for basis keys
    a, b, c, zero coefficients kept.

    inner(x, y) yields the (key, coefficient) terms of [x, y]; each term is
    bracketed with the third key through key_bracket, and every product goes
    into one dict.  Coefficients are ints or CycloNums, and int products and
    sums stay ints, as in _Combo.bracket.
    """
    terms = {}
    get = terms.get
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        for k, c1 in inner(x, y):
            for key, c2 in key_bracket(k, z):
                acc = get(key)
                terms[key] = c1 * c2 if acc is None else acc + c1 * c2
    return terms


def _first_jacobi_failure(key_bracket, inner, triples):
    """(index, (a, b, c)) of the first triple of basis keys whose Jacobi sum
    (_jacobi_sum) is nonzero, or None.  The triples are drawn lazily, so a
    seeded generator stops at the failure."""
    for idx, (a, b, c) in enumerate(triples):
        for coeff in _jacobi_sum(key_bracket, inner, a, b, c).values():
            if coeff if type(coeff) is int else not coeff.is_zero():
                return idx, (a, b, c)
    return None


def suite_jacobi_derivations(spec: TorusSpec, triples: int = 200, seed: int = 11,
                             box: int = 4) -> VerificationReport:
    """Jacobi identity for the derivation-algebra bracket on random basis triples."""
    rng = random.Random(seed)
    key_bracket = partial(derivations._bracket_d_keys, spec)
    found = _first_jacobi_failure(key_bracket, key_bracket, (
        tuple(_random_d_basis(spec, rng, box) for _ in range(3)) for _ in range(triples)))
    failures = [] if found is None else [{"triple": list(map(DElement._fmt, found[1])), "index": found[0]}]
    return VerificationReport("jacobi-derivations", triples, failures)


def suite_jacobi_witt(spec: TorusSpec, triples: int = 200, seed: int = 13,
                      box: int = 4) -> VerificationReport:
    """Jacobi identity for the Witt-algebra bracket on random basis triples."""
    rng = random.Random(seed)

    def rand_key():
        return rng.randint(1, spec.d), tuple(rng.randint(-box, box) for _ in range(spec.d))

    key_bracket = derivations._bracket_witt_keys
    found = _first_jacobi_failure(key_bracket, key_bracket,
                                  ((rand_key(), rand_key(), rand_key()) for _ in range(triples)))
    failures = [] if found is None else [{"triple": list(map(WdElement._fmt, found[1])), "index": found[0]}]
    return VerificationReport("jacobi-witt", triples, failures)


def suite_jacobi_jets(spec: TorusSpec, max_total: int = 3, sample: int | None = None,
                      seed: int = 17) -> VerificationReport:
    """Jacobi identity for the jet-algebra bracket.

    Exhaustive over unordered triples of canonical basis symbols with
    polynomial exponents of total degree <= max_total when `sample` is None;
    otherwise a seeded random sample of that many triples (with random
    representative shifts exercising raw torus indices).  The inner brackets
    go through bracket_jets on one-term elements, the outer ones through the
    key bracket.
    """
    keys = [k for k in canonical_keys(spec, max_total) if sum(k[1]) <= max_total]
    fld = spec.field

    def inner(x, y):  # the terms of [x, y], rational-integer coefficients as ints
        xy = bracket_jets(spec, JetElement._of(fld, {x: fld.one}), JetElement._of(fld, {y: fld.one}))
        return [(key, _plain(c)) for key, c in xy.terms.items()]

    if sample is None:
        n = len(keys)
        total = n * (n - 1) * (n - 2) // 6
        inner = cache(inner)  # each ordered pair is bracketed once
        triples = ((keys[i], keys[j], keys[k]) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n))
    else:
        rng = random.Random(seed)
        B = spec.B

        def rand_key():
            key = keys[rng.randrange(len(keys))]
            if key[0] == "XT" and rng.random() < 0.5:
                shift = tuple(rng.randint(-1, 1) * b for b in B)
                return ("XT", key[1], tuple(a + b for a, b in zip(key[2], shift)))
            return key

        total = sample
        triples = ((rand_key(), rand_key(), rand_key()) for _ in range(sample))
    found = _first_jacobi_failure(partial(jetalg._bracket_jet_keys, spec), inner, triples)
    if found is None:
        return VerificationReport("jacobi-jets", total, [])
    return VerificationReport("jacobi-jets", found[0] + 1, [{"triple": list(map(key_to_string, found[1]))}])


def suite_witt_embedding(spec: TorusSpec, pairs: int = 100, seed: int = 19,
                         box: int = 3) -> VerificationReport:
    """The rescaling map into the Witt algebra is a Lie homomorphism."""
    rng = random.Random(seed)
    failures = []
    B = spec.B
    for idx in range(pairs):
        def rand_deriv():
            m = tuple(rng.randint(-box, box) * b for b in B)
            u = tuple(rng.randint(-2, 2) for _ in range(spec.d))
            elt = deriv_along(spec, u, m)
            return elt if not elt.is_zero() else deriv(spec, 1, m)

        a, b = rand_deriv(), rand_deriv()
        lhs = derivations_to_witt(spec, bracket_d(spec, a, b))
        rhs = bracket_witt(derivations_to_witt(spec, a), derivations_to_witt(spec, b))
        if lhs != rhs:
            failures.append({"pair": [str(a), str(b)], "index": idx})
            break
    return VerificationReport("witt-embedding", pairs, failures)


def suite_quotient(spec: TorusSpec) -> VerificationReport:
    """Quotient map onto gl_d + gl_N: bracket preservation and kernel checks."""
    failures = []
    degree_zero = [xd(spec, p, j) for (_, p, j), _ in gl_d_keys(spec.d)]
    degree_zero += [xt(spec, (0,) * spec.d, w) for w in class_representatives(spec)]

    def block_diagonal(a):  # gl_d + gl_N as block-diagonal (d + N) x (d + N) matrices
        out = ExactMatrix.zeros(spec.field, spec.d + spec.N)
        gl_d, gl_n = project_quotient(spec, a)
        out.paste(0, 0, gl_d)
        out.paste(spec.d, spec.d, gl_n)
        return out

    cases, failure = first_bracket_failure(degree_zero, block_diagonal,
                                           lambda a, b: block_diagonal(bracket_jets(spec, a, b)))
    if failure is not None:
        return VerificationReport("quotient", cases, [{"pair": [str(failure[0]), str(failure[1])]}])
    # surjectivity onto both summands; the off-diagonal blocks add only zero columns
    cases += 1
    rows = [block_diagonal(a).flatten() for a in degree_zero]
    if ExactMatrix(spec.field, rows).rank() != spec.d**2 + spec.N**2:
        failures.append({"surjectivity": "image does not span gl_d + gl_N"})
    # positive filtration degree lands in the kernel
    for key in canonical_keys(spec, 2):
        if key_degree(key) < 1:
            continue
        cases += 1
        g, n = project_quotient(spec, JetElement(spec.field, {key: spec.field.one}))
        if not (g.is_zero() and n.is_zero()):
            failures.append({"kernel": key_to_string(key)})
            break
    return VerificationReport("quotient", cases, failures)


def suite_span_filtration(spec: TorusSpec, max_degree: int = 3) -> VerificationReport:
    """Commutator span of the vector-field part: traceless at degree 0, full above."""
    dims = commutator_span_dims(spec, max_degree)
    failures = []
    d = spec.d
    for deg, (span, full) in dims.items():
        expected = d * d - 1 if deg == 0 else full
        if span != expected:
            failures.append({"degree": deg, "span": span, "expected": expected})
    return VerificationReport("span-filtration", len(dims), failures)


# spec -> the natural-regular (vw, pullback) pair, one dict per run_suites call
_RUN_PULLBACKS: ContextVar[dict | None] = ContextVar("_RUN_PULLBACKS", default=None)


def _pullback(spec: TorusSpec):
    """preset_pullback(spec); inside run_suites the pair is built once and
    shared by every suite of the call, so its checks are made once too."""
    shared = _RUN_PULLBACKS.get()
    if shared is None:
        return preset_pullback(spec)
    pair = shared.get(spec)
    if pair is None:
        pair = shared[spec] = preset_pullback(spec)
    return pair


def suite_annihilation(spec: TorusSpec) -> VerificationReport:
    """Quotient-pair pullbacks are killed by every positive-degree symbol."""
    failures = []
    _, rep = _pullback(spec)
    cases = 1
    if rep.cutoff != 1:
        failures.append({"annihilation_degree": rep.cutoff, "expected": 1})
    for key in canonical_keys(spec, 3):
        if key_degree(key) < 1:
            continue
        cases += 1
        if not rep.rho(key).is_zero():
            failures.append({"nonzero": key_to_string(key)})
            break
    cases += 1
    comm_dim = len(commutant(rep))
    if comm_dim != 1:
        failures.append({"commutant": comm_dim})
    return VerificationReport("annihilation", cases, failures)


def suite_functor(spec: TorusSpec, box: int = 3, pairs: int = 100,
                  seed: int = 23) -> VerificationReport:
    """The weight module built from a pullback satisfies the bracket axioms."""
    alpha = (0,) * spec.d
    _, rep = _pullback(spec)
    module = build_module(spec, alpha, rep, box=box)
    report = verify_module_axioms(module, symbol_box=box, sample_count=pairs, seed=seed)
    failures = [] if report.passed else [{"failure": report.first_failure}]
    return VerificationReport("functor-axioms", report.cases, failures)


def suite_tensor_compare(spec: TorusSpec) -> VerificationReport:
    """Functor image of a pullback equals the closed-form tensor-field module."""
    equal = constructions_agree(_pullback(spec))
    failures = [] if equal else [{"mismatch": "entrywise comparison failed"}]
    return VerificationReport("tensor-compare", 1, failures)


def suite_roundtrip(spec: TorusSpec, degree_bound: int | None = None) -> VerificationReport:
    """Extraction then reassembly reproduces the representation exactly."""
    ok = roundtrip_holds(spec, (0,) * spec.d, _pullback(spec), degree_bound)
    failures = [] if ok else [{"mismatch": "reassembled representation differs"}]
    return VerificationReport("roundtrip", 1, failures)


def suite_decompose(spec: TorusSpec, seed: int = 5) -> VerificationReport:
    """Recover tensor factors from a scrambled pullback, with an exact isomorphism."""
    vw, rep = _pullback(spec)
    scrambled = scramble_representation(rep, seed=seed)
    failures = []
    cases = 3
    try:  # decompose_tensor first checks that the graded commutant is one-dimensional
        recovered, _phi = decompose_tensor(spec, scrambled, probes=8, seed=seed)
    except NotIrreducible as exc:
        return VerificationReport("decompose", cases, [{"irreducible": str(exc)}])
    if recovered.dim_V != vw.dim_V or recovered.dim_W != vw.dim_W:
        failures.append({"dims": [recovered.dim_V, recovered.dim_W],
                         "expected": [vw.dim_V, vw.dim_W]})
    return VerificationReport("decompose", cases, failures)


def suite_cuspidality(spec: TorusSpec, box: int = 4) -> VerificationReport:
    """Weight multiplicities are uniform and equal dim V times the W class bound."""
    alpha = (0,) * spec.d
    vw, rep = _pullback(spec)
    module = build_module(spec, alpha, rep, box=box)
    mults, bound = weight_multiplicities(module, box)
    expected = vw.dim_V * max(vw.W_space.dims.values())
    failures = []
    if bound != expected or any(v != expected for v in mults.values()):
        failures.append({"bound": bound, "expected": expected,
                         "distinct": sorted(set(mults.values()))})
    return VerificationReport("cuspidality", len(mults), failures)


# suite name -> (suite, {config key: suite parameter}); the defaults live in
# the suite signatures, and a key absent from the config keeps its default
SUITES = {
    "xmatrix": (suite_xmatrix, {"box": "box", "flip": "flip"}),
    "xmatrix-identity": (suite_xmatrix_identity, {"box": "box"}),
    "jacobi-d": (suite_jacobi_derivations, {"samples": "triples", "seed": "seed", "box": "box"}),
    "jacobi-wd": (suite_jacobi_witt, {"samples": "triples", "seed": "seed", "box": "box"}),
    "jacobi-gtilde": (suite_jacobi_jets, {"degree": "max_total", "samples": "sample", "seed": "seed"}),
    "dr-wd": (suite_witt_embedding, {"samples": "pairs", "seed": "seed", "box": "box"}),
    "quotient": (suite_quotient, {}),
    "span-filtration": (suite_span_filtration, {"degree": "max_degree"}),
    "annihilation": (suite_annihilation, {}),
    "functor": (suite_functor, {"box": "box", "samples": "pairs", "seed": "seed"}),
    "tensor-compare": (suite_tensor_compare, {}),
    "roundtrip": (suite_roundtrip, {"degree": "degree_bound"}),
    "decompose": (suite_decompose, {"seed": "seed"}),
    "cuspidality": (suite_cuspidality, {"box": "box"}),
}


def run_suites(spec: TorusSpec, names: list[str], config: dict | None = None):
    """The reports of the named suites (or of "all") on `spec`, in order.

    Every name is checked before any suite runs.  The suites then run lazily:
    the iterator yields each report, timed into its wall_time, as soon as its
    suite returns.  The module suites of one call share one standard pullback
    (_pullback), built by the first of them.
    """
    if names == ["all"]:
        names = list(SUITES)
    elif "all" in names:
        raise ParseError("suite 'all' cannot be combined with other suite names")
    for name in names:
        if name not in SUITES:
            raise ParseError(f"unknown suite {name!r}")
    shared = {}
    return (_timed(spec, *SUITES[name], config or {}, shared) for name in names)


def _timed(spec: TorusSpec, suite, params: dict, config: dict, shared: dict) -> VerificationReport:
    token = _RUN_PULLBACKS.set(shared)
    try:
        start = time.perf_counter()
        report = suite(spec, **{param: config[key] for key, param in params.items() if key in config})
        report.wall_time = time.perf_counter() - start
    finally:
        _RUN_PULLBACKS.reset(token)
    return report


def reports_to_json(reports, spec: TorusSpec, seed: int | None) -> str:
    records = [r.to_dict() for r in reports]
    payload = {
        "torus": dump_torus(spec),
        "seed": seed,
        "reports": records,
        "passed": all(r["passed"] for r in records),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
