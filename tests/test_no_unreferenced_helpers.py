"""Every module-level function and class of the library, and every method of
its classes that is not a dunder, is named outside its own definition.

A name counts when it appears as a bare name, an attribute, an imported name
or a string constant (the benchmark tracer names what it wraps in strings)
anywhere in the library, the tests, the demos or the benchmark.  A use inside
the definition itself, such as a recursive call, does not count.  Names are
matched as text, not resolved to their module or class.
"""
import ast
from pathlib import Path

import qtlie

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(Path(qtlie.__file__).resolve().parent.glob("*.py"))
SOURCES = LIBRARY + sorted(path for folder in ("tests", "demos", "perfbench")
                           for path in (ROOT / folder).rglob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def _own_names(sub: ast.AST) -> set[str]:
    """The names that one node, without its children, uses."""
    if isinstance(sub, ast.Name):
        return {sub.id}
    if isinstance(sub, ast.Attribute):
        return {sub.attr}
    if isinstance(sub, ast.alias):
        return set(sub.name.split(".")) | ({sub.asname} if sub.asname else set())
    if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
        return {sub.value}
    return set()


def referenced(node: ast.AST) -> set[str]:
    """The names `node` uses; a definition's use of its own name is left out, at any depth."""
    found = _own_names(node).union(*map(referenced, ast.iter_child_nodes(node)))
    if isinstance(node, DEFINITIONS):
        found.discard(node.name)
    return found


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced(definers: dict[str, ast.Module], users: list[ast.Module]) -> list[str]:
    """`module:name` of each top-level function or class of `definers` that no tree of `users`
    names, and `module:Class.method` of each such method that is not a dunder."""
    used = set().union(*map(referenced, users))
    found = []
    for module, tree in definers.items():
        for node in tree.body:
            if isinstance(node, DEFINITIONS) and node.name not in used:
                found.append(f"{module}:{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{module}:{node.name}.{item.name}" for item in node.body
                          if isinstance(item, FUNCTIONS) and not _is_dunder(item.name) and item.name not in used]
    return sorted(found)


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


def test_checker_finds_an_unreferenced_method():
    tree = ast.parse("class Kept:\n"
                     "    def __init__(self):\n        self.called()\n"
                     "    def called(self):\n        pass\n"
                     "    def recursive(self):\n        return self.recursive()\n"
                     "    def traced(self):\n        pass\n"
                     "    def unused(self):\n        pass\n\n"
                     "Kept()\nSPANS = ['traced']\n")
    other = ast.parse("def caller(k):\n    return k.recursive()\n")
    assert unreferenced({"lib": tree}, [tree]) == ["lib:Kept.recursive", "lib:Kept.unused"]
    assert unreferenced({"lib": tree}, [tree, other]) == ["lib:Kept.unused"]


def test_no_unreferenced_helpers():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    library = {path.stem: trees[path] for path in LIBRARY}
    assert unreferenced(library, list(trees.values())) == []
