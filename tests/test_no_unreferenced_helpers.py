"""Every module-level function and class of the library is named outside its own definition.

A name counts when it appears as a bare name, an attribute, an imported name
or a string constant (the benchmark tracer names what it wraps in strings)
anywhere in the library, the tests, the demos or the benchmark.  A use inside
the definition itself, such as a recursive call, does not count.  Names are
matched as text, not resolved to their module.
"""
import ast
from pathlib import Path

import qtlie

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(Path(qtlie.__file__).resolve().parent.glob("*.py"))
SOURCES = LIBRARY + sorted(path for folder in ("tests", "demos", "perfbench")
                           for path in (ROOT / folder).rglob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.update(sub.name.split("."))
            if sub.asname:
                found.add(sub.asname)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def referenced(tree: ast.Module) -> set[str]:
    """The names `tree` uses; a top-level definition's use of its own name is left out."""
    found = set()
    for node in tree.body:
        names = _names(node)
        if isinstance(node, DEFINITIONS):
            names.discard(node.name)
        found |= names
    return found


def unreferenced(definers: dict[str, ast.Module], users: list[ast.Module]) -> list[str]:
    """`module:name` of each top-level function or class of `definers` that no tree of `users` names."""
    used = set().union(*map(referenced, users))
    return sorted(f"{module}:{node.name}" for module, tree in definers.items() for node in tree.body
                  if isinstance(node, DEFINITIONS) and node.name not in used)


def test_sources_are_found():
    names = {path.relative_to(ROOT).as_posix() for path in SOURCES}
    assert {"src/qtlie/cuspidal.py", "tests/test_cuspidal.py", "demos/08_extraction_roundtrip.py",
            "perfbench/tracer.py"} <= names


def test_checker_finds_an_unreferenced_helper():
    tree = ast.parse("def used():\n    pass\n\ndef recursive():\n    return recursive()\n\n"
                     "class Named:\n    pass\n\nclass Unused:\n    pass\n\nused()\nSPANS = ['Named']\n")
    other = ast.parse("from lib import recursive as alias\n")
    assert unreferenced({"lib": tree}, [tree]) == ["lib:Unused", "lib:recursive"]
    assert unreferenced({"lib": tree}, [tree, other]) == ["lib:Unused"]


def test_no_unreferenced_helpers():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    library = {path.stem: trees[path] for path in LIBRARY}
    assert unreferenced(library, list(trees.values())) == []
