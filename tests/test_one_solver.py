"""The matrix layer has one exact solver, and elimination stays inside it.

`ExactMatrix.solve` answers every A * X = Y of the library, and `rref`
serves only the matrix layer itself.  A `RowSpace` is built by the matrix
layer and by the two routines that feed it rows one at a time as they make
them: `intertwiners`, which reduces each equation of X * A = B * X as it is
written, and `spin_up`, which stops at the first image already in the span.
"""
import ast
from pathlib import Path

import qtlie

SOURCES = sorted(Path(qtlie.__file__).resolve().parent.glob("*.py"))


def _callers(tree: ast.AST, wanted) -> list:
    """The name of the function around each call that `wanted` accepts, None at module level."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and wanted(node.func):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def _calls(wanted) -> list:
    return [(path.name, func)
            for path in SOURCES
            for func in _callers(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), wanted)]


def test_rref_is_called_only_by_the_matrix_layer():
    callers = _calls(lambda f: isinstance(f, ast.Attribute) and f.attr == "rref")
    assert callers and {name for name, _ in callers} == {"matrices.py"}


def test_rowspace_is_built_only_by_the_matrix_layer_intertwiners_and_spin_up():
    builders = _calls(lambda f: (isinstance(f, ast.Name) and f.id == "RowSpace")
                      or (isinstance(f, ast.Attribute) and f.attr == "RowSpace"))
    outside = sorted({(name, func) for name, func in builders if name != "matrices.py"})
    assert outside == [("repn.py", "intertwiners"), ("repn.py", "spin_up")]
