"""Every name a library module or a demo imports is used in that file.

A name counts as used when it appears as a bare name anywhere in the module
(attribute chains such as `os.path.join` use `os`).  `__init__.py` is left out:
it imports names to re-export them.
"""
import ast
from pathlib import Path

import qtlie

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in Path(qtlie.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


def test_sources_are_found():
    names = {p.name for p in SOURCES}
    assert {"cuspidal.py", "torus.py", "04_derivation_algebras.py"} <= names
    assert "__init__.py" not in names


def test_checker_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(source) == [(2, "system"), (3, "pi")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in SOURCES
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []
