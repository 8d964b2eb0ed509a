"""Acceptance criteria, one test per criterion.

Every check is exact (no tolerances); each test asserts its stated wall-time
budget and prints one pass/fail line.  Instances used throughout:

  E1: d=2, z=1, k=(2)   E2: d=2, z=1, k=(3)   E3: d=3, z=1, k=(2)
"""
import time

from qtlie.cuspidal import OperatorFamily, build_module
from qtlie.jetalg import canonical_keys, key_degree
from qtlie.matrices import ExactMatrix
from qtlie.repn import (
    GLdGLNModule,
    graded_regular_glN,
    natural_gld,
    pullback,
    trivial_gld,
)
from qtlie.torus import make_torus
from qtlie.verify import (
    reports_to_json,
    run_suites,
    suite_annihilation,
    suite_cuspidality,
    suite_decompose,
    suite_functor,
    suite_jacobi_derivations,
    suite_jacobi_jets,
    suite_jacobi_witt,
    suite_quotient,
    suite_roundtrip,
    suite_span_filtration,
    suite_tensor_compare,
    suite_witt_embedding,
    suite_xmatrix,
    suite_xmatrix_identity,
)

E1 = make_torus(2, 1, [2])
E2 = make_torus(2, 1, [3])
E3 = make_torus(3, 1, [2])


def _finish(number, name, start, budget, ok, detail=""):
    elapsed = time.perf_counter() - start
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} "
          f"({elapsed:.2f}s / budget {budget:.0f}s){detail}")
    assert ok, f"criterion {number} failed{detail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_sigma_convention_oracle():
    start = time.perf_counter()
    ok = True
    for spec in (E1, E2):
        ok = ok and suite_xmatrix(spec, box=2 * spec.k[0]).passed
    flipped = suite_xmatrix(E1, box=2 * E1.k[0], flip=True)
    ok = ok and not flipped.passed
    ok = ok and flipped.failures[0]["pair"] == [[0, 1], [1, 0]]
    _finish(1, "sigma-convention-oracle", start, 5, ok)


def test_criterion_02_identity_and_span():
    start = time.perf_counter()
    ok = all(suite_xmatrix_identity(spec).passed for spec in (E1, E2))
    _finish(2, "central-identity-and-span", start, 5, ok)


def test_criterion_03_jacobi():
    start = time.perf_counter()
    ok = True
    for spec in (E1, E2, E3):
        ok = ok and suite_jacobi_derivations(spec, triples=200, box=4).passed
        ok = ok and suite_jacobi_witt(spec, triples=200, box=4).passed
    ok = ok and suite_jacobi_jets(E1, max_total=3).passed
    _finish(3, "jacobi-identities", start, 60, ok)


def test_criterion_04_witt_embedding():
    start = time.perf_counter()
    ok = all(suite_witt_embedding(spec, pairs=100).passed for spec in (E1, E3))
    _finish(4, "witt-embedding-homomorphism", start, 5, ok)


def test_criterion_05_quotient():
    start = time.perf_counter()
    ok = suite_quotient(E1).passed
    _finish(5, "quotient-onto-gld-gln", start, 10, ok)


def test_criterion_06_filtration_and_annihilation():
    start = time.perf_counter()
    ok = suite_span_filtration(E1, 3).passed and suite_span_filtration(E3, 2).passed
    ok = ok and suite_annihilation(E1).passed and suite_annihilation(E2).passed
    # every pullback of an irreducible pair is annihilated in degree one
    for spec in (E1, E2):
        wmats, wclasses = graded_regular_glN(spec)
        for vdata in (natural_gld(spec), trivial_gld(spec)):
            rep = pullback(spec, GLdGLNModule(spec, vdata, wmats, wclasses))
            ok = ok and rep.cutoff == 1
            ok = ok and all(
                rep.rho(key).is_zero()
                for key in canonical_keys(spec, 3)
                if key_degree(key) >= 1
            )
    _finish(6, "filtration-span-and-annihilation", start, 10, ok)


def test_criterion_07_functor_axioms():
    start = time.perf_counter()
    report = suite_functor(E1, box=3, pairs=100)
    _finish(7, "weight-module-axioms", start, 60, report.passed,
            detail=f" [{report.cases} checks]")


def test_criterion_08_tensor_field_comparison():
    start = time.perf_counter()
    ok = suite_tensor_compare(E1).passed
    ok = ok and suite_tensor_compare(E2).passed
    _finish(8, "tensor-field-comparison", start, 60, ok)


def test_criterion_09_roundtrip():
    start = time.perf_counter()
    ok = suite_roundtrip(E1, degree_bound=3).passed
    # constant terms carry the forced weight scalars
    wmats, wclasses = graded_regular_glN(E1)
    rep = pullback(E1, GLdGLNModule(E1, natural_gld(E1), wmats, wclasses))
    module = build_module(E1, (0, 0), rep, box=4)
    family = OperatorFamily(module, degree_bound=3)
    for j, u in ((1, (1, 0)), (2, (0, 1))):
        const = family.matrix_D(u, (0, 0))
        sp = module.space
        for c in sp.classes:
            want = ExactMatrix.identity(E1.field, sp.dims[c]).scale(c[j - 1])
            ok = ok and const.block(c) == want
    _finish(9, "extraction-roundtrip", start, 60, ok)


def test_criterion_10_tensor_decomposition():
    start = time.perf_counter()
    report = suite_decompose(E1, seed=5)
    _finish(10, "tensor-decomposition", start, 30, report.passed)


def test_criterion_11_cuspidality():
    start = time.perf_counter()
    ok = suite_cuspidality(E1, box=4).passed and suite_cuspidality(E2, box=4).passed
    _finish(11, "uniform-weight-multiplicities", start, 10, ok)


def test_criterion_12_determinism():
    start = time.perf_counter()
    blobs = []
    for _ in range(2):
        reports = run_suites(E1, ["all"], {"seed": 42})
        blobs.append(reports_to_json(reports, E1, 42).encode())
    ok = blobs[0] == blobs[1]
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 12 determinism: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok
