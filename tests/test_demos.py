"""Every demo runs cleanly and prints exactly its pinned output."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout under PYTHONHASHSEED=0
DIGESTS = {
    "01_cyclotomic_arithmetic.py": "8e20bc85591bc9589dc558bc2374f1761a0d6d3afa2990c69ba1424a61046227",
    "02_quantum_torus.py": "f79266760555da7e9160e2231d12bf6fcaa0ab204ebc1f53c0ee3a83a200b4c2",
    "03_matrix_realization.py": "e9c130378254332ef044757835e7ea66a2a6c56020aa4c17d217ef08644c680b",
    "04_derivation_algebras.py": "340befdc60e3c1344d5e2284c8586f0ebd63b43e11fd3e68dfdf2127b970d4ff",
    "05_jet_algebra.py": "917c48ba10682a7289cadc0fac8c5097bf5405605b28b7f4ed841d9fc3c4d296",
    "06_graded_modules.py": "1ffda860a3f409d9bb2a57adb19fa9ade764c660f3c60818c8d88ff11bce0a5f",
    "07_weight_modules.py": "92c4bec7a13992e02d9c00636f170005b67357beadce19ec0f0371241d331a44",
    "08_extraction_roundtrip.py": "c1b3132f5156be718135df937a0708c0a5d192e4bf76b7f3b31ad4028a7e91e8",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_pinned(name):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]
