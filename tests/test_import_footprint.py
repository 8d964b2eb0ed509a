"""Importing qtlie loads only the standard-library modules the library uses.

Every `qtlie verify` run and every benchmark pass starts a fresh interpreter,
so each module pulled in at import is paid again per process.  `dataclasses`
alone drags in `inspect`, `ast`, `dis` and `copy`, none of which the algebra
needs.  The child runs with -S so that site start-up imports stay out of the
count.
"""
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BANNED = ("dataclasses", "inspect")


def test_importing_qtlie_loads_neither_dataclasses_nor_inspect():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import qtlie, qtlie.verify, qtlie.cli; "
            f"print(' '.join(m for m in {BANNED!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
