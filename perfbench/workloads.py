"""The benchmark workloads: seeded inputs and the jobs that consume them.

Every input is derived from (workload, seed, pass index) by a string-seeded
``random.Random``, which does not depend on PYTHONHASHSEED, so any pass can
be replayed from its seed alone.  The library only ever sees those inputs.

Jobs call qtlie through module attributes (``repn.commutant``, not a name
imported here) so that the tracer's patches of the qtlie namespaces apply.
Each job returns the ``VerificationReport`` list whose ``to_dict()`` output
is hashed into the job digest.
"""
from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from qtlie import cuspidal, repn, torus, verify

# Jobs per pass and per-job sizes.  A pass is one cold worker process; these
# sizes keep a pass near five seconds on a 2-core Xeon virtual machine.
JACOBI_JOBS = 40
JACOBI_JET_TRIPLES = 100
JACOBI_TRIPLES = 100
JACOBI_PAIRS = 50
FUNCTOR_JOBS = 9
FUNCTOR_BOX = 3
FUNCTOR_DEGREE = 3
SOLVE_JOBS = 2
SOLVE_SPECS = ("e2", "e3")  # jobs alternate between them
SOLVE_PROBES = 8

WORKLOADS = ("jacobi", "functor", "solve")

# Specs each workload loads, and which of them get a standard pullback.
SPECS = {"jacobi": ("e2",), "functor": ("e1",), "solve": SOLVE_SPECS}
PULLBACKS = {"jacobi": (), "functor": ("e1",), "solve": SOLVE_SPECS}


def derive_inputs(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The job inputs of one pass; identical for identical arguments."""
    rng = random.Random(f"qtlie-bench/{workload}/{seed}/{pass_index}")

    def draw() -> int:
        return rng.randrange(2**31)

    if workload == "jacobi":
        return [{"jets_seed": draw(), "d_seed": draw(), "witt_seed": draw(), "embed_seed": draw()}
                for _ in range(JACOBI_JOBS)]
    if workload == "functor":
        out = []
        for _ in range(FUNCTOR_JOBS):
            alpha = [[rng.randint(-9, 9), rng.randint(1, 9)] for _ in range(2)]
            out.append({"alpha": alpha, "pair_seed": draw()})
        return out
    if workload == "solve":
        return [{"spec": SOLVE_SPECS[i % len(SOLVE_SPECS)], "scramble_seed": draw(), "probe_seed": draw()}
                for i in range(SOLVE_JOBS)]
    raise ValueError(f"unknown workload {workload!r}")


def standard_pullback(spec):
    """The (V, W) = (natural gl_d, graded regular gl_N) pullback, built with repn's public functions."""
    wmats, wclasses = repn.graded_regular_glN(spec)
    vw = repn.GLdGLNModule(spec, repn.natural_gld(spec), wmats, wclasses)
    return vw, repn.pullback(spec, vw)


def setup(workload: str, root: Path) -> dict:
    """Load the workload's specs and build its shared pullbacks."""
    specs = {name: torus.load_torus(root / "specs" / f"{name}.json") for name in SPECS[workload]}
    pullbacks = {name: standard_pullback(specs[name]) for name in PULLBACKS[workload]}
    return {"specs": specs, "pullbacks": pullbacks}


def jacobi_job(ctx: dict, inp: dict) -> list:
    spec = ctx["specs"]["e2"]
    return [
        verify.suite_jacobi_jets(spec, 3, sample=JACOBI_JET_TRIPLES, seed=inp["jets_seed"]),
        verify.suite_jacobi_derivations(spec, JACOBI_TRIPLES, seed=inp["d_seed"]),
        verify.suite_jacobi_witt(spec, JACOBI_TRIPLES, seed=inp["witt_seed"]),
        verify.suite_witt_embedding(spec, JACOBI_PAIRS, seed=inp["embed_seed"]),
    ]


def functor_job(ctx: dict, inp: dict) -> list:
    spec = ctx["specs"]["e1"]
    _, rep = ctx["pullbacks"]["e1"]
    alpha = tuple(Fraction(n, d) for n, d in inp["alpha"])
    module = cuspidal.build_module(spec, alpha, rep, box=FUNCTOR_BOX)
    axioms = cuspidal.verify_module_axioms(module, symbol_box=FUNCTOR_BOX, sample_count=1,
                                           seed=inp["pair_seed"])
    module = cuspidal.build_module(spec, alpha, rep, box=FUNCTOR_DEGREE + 1)
    family = cuspidal.OperatorFamily(module, degree_bound=FUNCTOR_DEGREE)
    coeffs = cuspidal.extract_coefficients(family, spec, alpha)
    back = cuspidal.coefficients_to_representation(spec, coeffs)
    return [
        verify.VerificationReport("functor-axioms", axioms.cases,
                                  [] if axioms.passed else [{"failure": axioms.first_failure}]),
        verify.VerificationReport("roundtrip", 1,
                                  [] if back == rep else [{"mismatch": "reassembled representation differs"}]),
    ]


def solve_job(ctx: dict, inp: dict) -> list:
    name = inp["spec"]
    spec = ctx["specs"][name]
    vw, rep = ctx["pullbacks"][name]
    scrambled = repn.scramble_representation(rep, seed=inp["scramble_seed"])
    failures = []
    if len(repn.commutant(scrambled)) != 1:
        failures.append({"commutant": "scrambled module is not absolutely irreducible"})
    recovered, _phi = repn.decompose_tensor(spec, scrambled, probes=SOLVE_PROBES, seed=inp["probe_seed"])
    if (recovered.dim_V, recovered.dim_W) != (vw.dim_V, vw.dim_W):
        failures.append({"dims": [recovered.dim_V, recovered.dim_W], "expected": [vw.dim_V, vw.dim_W]})
    return [verify.VerificationReport(f"decompose-{name}", 3, failures)]


JOBS = {"jacobi": jacobi_job, "functor": functor_job, "solve": solve_job}
