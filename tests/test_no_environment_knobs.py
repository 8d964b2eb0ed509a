"""The library reads its configuration from arguments and files, never from
environment variables.

A setting read from the environment changes what a command does without
showing up in its command line, so two runs of the same command can differ.
"""
import ast
from pathlib import Path

import qtlie

SOURCES = sorted(Path(qtlie.__file__).resolve().parent.glob("*.py"))
KNOBS = {"environ", "getenv"}


def environment_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) of each `os.environ` / `os.getenv` use or import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in KNOBS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"os.{a.name}") for a in node.names if a.name in KNOBS]
    return sorted(found)


def test_library_sources_are_found():
    assert {"cli.py", "jetalg.py", "verify.py"} <= {p.name for p in SOURCES}


def test_checker_finds_environment_reads():
    source = ("import os\nfrom os import getenv, path\n"
              "a = os.environ.get('X')\nb = os.getenv('Y')\nc = os.path.join('p', 'q')\n")
    assert environment_reads(source) == [(2, "os.getenv"), (3, "os.environ"), (4, "os.getenv")]


def test_library_reads_no_environment_variables():
    found = [f"{path.name}:{line} {name}"
             for path in SOURCES
             for line, name in environment_reads(path.read_text(encoding="utf-8"))]
    assert found == []
