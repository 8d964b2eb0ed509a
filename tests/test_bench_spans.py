"""Every qtlie function the benchmark tracer wraps still exists."""
import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
