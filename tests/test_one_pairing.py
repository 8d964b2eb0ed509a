"""Every bracket reaches the pairing through `torus.sigma_hat`.

`sigma_exponent` is called only by `sigma_hat`, and a field's tables of
shared roots and skews are read only by the field itself and by
`sigma_skew`, which recognises the roots that `sigma_hat` returns.  So a
patched `sigma_hat` reaches every bracket, and the corrupted-pairing test in
`test_bracket_checks.py` covers all of them.
"""
import ast

from test_one_solver import SOURCES

TABLES = {"_roots", "_exponent", "_skews"}


def _sites(wanted) -> list:
    """(file name, enclosing function or None) of every AST node that `wanted` accepts."""
    found = []

    def visit(node, name, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if wanted(node):
            found.append((name, func))
        for child in ast.iter_child_nodes(node):
            visit(child, name, func)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.name, None)
    return found


def test_sigma_exponent_is_called_only_by_sigma_hat():
    callers = _sites(lambda n: isinstance(n, ast.Call)
                     and "sigma_exponent" in (getattr(n.func, "id", None), getattr(n.func, "attr", None)))
    assert set(callers) == {("torus.py", "sigma_hat")}


def test_root_and_skew_tables_are_read_only_by_the_field_and_sigma_skew():
    readers = _sites(lambda n: isinstance(n, ast.Attribute) and n.attr in TABLES)
    outside = {site for site in readers if site[0] != "cyclo.py"}
    assert outside == {("torus.py", "sigma_skew")}
    assert {func for name, func in readers if name == "cyclo.py"} == {"__init__", "root"}
