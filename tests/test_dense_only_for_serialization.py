"""The library works on graded operators, never on whole-space matrices.

`GradedOperator.dense()` builds the dim U x dim U matrix of an operator.  The
library keeps every operator as class blocks and calls it in one place only:
`rep_to_dict`, which writes a representation file.
"""
import ast
from pathlib import Path

import qtlie

SOURCES = sorted(Path(qtlie.__file__).resolve().parent.glob("*.py"))


def _dense_callers(tree: ast.AST) -> list:
    """The name of the function around each `.dense()` call, None at module level."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "dense":
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_dense_is_called_only_by_rep_to_dict():
    callers = [f"{path.name}:{func}"
               for path in SOURCES
               for func in _dense_callers(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))]
    assert callers == ["repn.py:rep_to_dict"]
