"""Every module-level function and class of the library, and every method of
its classes that is not a dunder, is named outside its own definition.

A name counts when it appears as a bare name, an attribute, an imported name
or a string constant (the benchmark tracer names what it wraps in strings)
anywhere in the library, the tests, the demos or the benchmark; a method's
name counts only as an attribute or a string, so that a local variable of the
same name does not hide it.  A use inside the definition itself, such as a
recursive call, does not count.  Names are matched as text, not resolved to
their module or class.

A stricter check counts only the library (the CLI included) and the demos, so
a helper that only tests or the benchmark call fails it unless it is on an
exact allow-list that says why it stays.
"""
import ast
from pathlib import Path

import qtlie

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(Path(qtlie.__file__).resolve().parent.glob("*.py"))
DEMOS = sorted((ROOT / "demos").rglob("*.py"))
SOURCES = LIBRARY + DEMOS + sorted(path for folder in ("tests", "perfbench")
                                   for path in (ROOT / folder).rglob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def _attribute_names(sub: ast.AST) -> set[str]:
    """The names that one node, without its children, uses as an attribute or a string."""
    if isinstance(sub, ast.Attribute):
        return {sub.attr}
    if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
        return {sub.value}
    return set()


def _own_names(sub: ast.AST) -> set[str]:
    """The names that one node, without its children, uses."""
    if isinstance(sub, ast.Name):
        return {sub.id}
    if isinstance(sub, ast.alias):
        return set(sub.name.split(".")) | ({sub.asname} if sub.asname else set())
    return _attribute_names(sub)


def referenced(node: ast.AST, own=_own_names) -> set[str]:
    """The names `node` uses, as `own` reads them off each node; a definition's use of its
    own name is left out, at any depth."""
    found = own(node).union(*(referenced(child, own) for child in ast.iter_child_nodes(node)))
    if isinstance(node, DEFINITIONS):
        found.discard(node.name)
    return found


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced(definers: dict[str, ast.Module], users: list[ast.Module]) -> list[str]:
    """`module:name` of each top-level function or class of `definers` that no tree of `users`
    names, and `module:Class.method` of each method that is not a dunder and that no tree of
    `users` names as an attribute or a string (a local variable of the same name does not count)."""
    used = set().union(*map(referenced, users))
    used_as_attribute = set().union(*(referenced(tree, _attribute_names) for tree in users))
    found = []
    for module, tree in definers.items():
        for node in tree.body:
            if isinstance(node, DEFINITIONS) and node.name not in used:
                found.append(f"{module}:{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{module}:{node.name}.{item.name}" for item in node.body
                          if isinstance(item, FUNCTIONS) and not _is_dunder(item.name)
                          and item.name not in used_as_attribute]
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
                     "    def unused(self):\n        pass\n"
                     "    def shadowed(self):\n        pass\n\n"
                     "Kept()\nSPANS = ['traced']\nshadowed = 1\n")
    other = ast.parse("def caller(k):\n    return k.recursive()\n")
    assert unreferenced({"lib": tree}, [tree]) == ["lib:Kept.recursive", "lib:Kept.shadowed", "lib:Kept.unused"]
    assert unreferenced({"lib": tree}, [tree, other]) == ["lib:Kept.shadowed", "lib:Kept.unused"]


def test_no_unreferenced_helpers():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    library = {path.stem: trees[path] for path in LIBRARY}
    assert unreferenced(library, list(trees.values())) == []


# Helpers that neither the library nor the demos call, each with why it stays.
NAMED_ONLY_OUTSIDE = {
    "cuspidal:_WeightModuleBase.act_terms": "perfbench/tracer.py wraps it as a span; leaves with ROADMAP item 6",
    "matrices:RowSpace.contains": "perfbench/tracer.py wraps it as a span; leaves with ROADMAP item 6",
}


def test_no_helpers_that_only_tests_or_the_benchmark_call():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in LIBRARY + DEMOS}
    library = {path.stem: trees[path] for path in LIBRARY}
    assert unreferenced(library, list(trees.values())) == sorted(NAMED_ONLY_OUTSIDE)
