"""Every qtlie function the benchmark tracer wraps still exists, and the benchmark's set-up still runs."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from qtlie.repn import preset_pullback

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _literal(name):
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {TRACER}")


@pytest.mark.parametrize("module,owner,attr,span", _literal("SPANS"))
def test_traced_span_resolves(module, owner, attr, span):
    target = importlib.import_module(f"qtlie.{module}")
    if owner is not None:
        target = getattr(target, owner)
    assert callable(getattr(target, attr)), span


@pytest.mark.parametrize("attr,counter", _literal("FIELD_OPS"))
def test_traced_field_op_resolves(attr, counter):
    from qtlie.cyclo import CycloNum

    assert callable(getattr(CycloNum, attr)), counter


@pytest.mark.parametrize("fixture", ["e1", "e2"])
def test_bench_standard_pullback_matches_the_library(fixture, request):
    """The benchmark builds its pullbacks with its own call of the public constructors."""
    spec = request.getfixturevalue(fixture)
    loader = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(workloads)
    bench_vw, bench_rep = workloads.standard_pullback(spec)
    vw, rep = preset_pullback(spec)
    assert (bench_vw.dim_V, bench_vw.dim_W) == (vw.dim_V, vw.dim_W)
    assert bench_rep == rep
