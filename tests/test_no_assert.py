"""The library raises typed errors for its invariants, never `assert`.

`python -O` strips assert statements, so a check written as one silently
disappears under optimisation.
"""
import ast
from pathlib import Path

import qtlie

SOURCES = sorted(Path(qtlie.__file__).resolve().parent.glob("*.py"))


def test_library_sources_are_found():
    assert {"matrices.py", "cli.py", "cuspidal.py"} <= {p.name for p in SOURCES}


def test_library_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
