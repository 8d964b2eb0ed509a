"""The module layer reads a representation through `rho` alone.

A weight module's action table is a linear combination of `rho` on basis
symbols (``cuspidal.CuspidalModule``), so no library path but the bracket
check of ``repn.verify_representation`` takes the image of a jet element.
"""
import ast

from test_one_solver import _calls


def test_rho_element_is_called_only_by_the_bracket_check():
    callers = _calls(lambda f: isinstance(f, ast.Attribute) and f.attr == "rho_element")
    assert sorted(set(callers)) == [("repn.py", "verify_representation")]
