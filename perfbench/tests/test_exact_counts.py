"""Self-tests of the benchmark: exact counts, the digest gate, the bare-directory exit.

    python3 -m pytest perfbench/tests -q

The count test runs one traced job per workload three times, under
PYTHONHASHSEED 0, 0 and 1, and requires identical digests and identical
count metrics; only the time-based metrics may differ between runs.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

PINNED = json.loads((BENCH / "digests.json").read_text())
TIMED = ("busy_s", "self_frac")


def traced_job(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "0",
         "--jobs", "1", "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["jacobi", "functor", "solve"])
def test_counts_repeat_exactly(workload):
    runs = [traced_job(workload, seed) for seed in ("0", "0", "1")]
    for result in runs:
        assert result["failures"] == []
        assert result["digests"] == PINNED[workload][:1]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if not k.endswith(TIMED)} for r in runs]
    assert counts[0] == counts[1] == counts[2]
    # spans and counters reach the layer each workload is built to exercise,
    # including names that verify and cuspidal bound with `from .x import f`
    c = counts[0]
    if workload == "jacobi":
        assert c["jetalg.bracket_jets.calls"] > 0 and c["derivations.bracket_witt.calls"] > 0
        assert c["matrices.rref.calls"] == 0
    elif workload == "functor":
        assert c["cuspidal.act.calls"] > 0
        assert c["repn.verify_representation.calls"] == 3
    else:
        assert c["matrices.rref.calls"] > 0 and c["repn.commutant.calls"] > 0
        assert c["cyclo.inverse.calls"] > 0
        assert c["cuspidal.act.calls"] == 0
    fracs = [v["value"] for k, v in runs[0]["metrics"].items() if k.endswith("self_frac")]
    assert all(f >= 0 for f in fracs) and sum(fracs) <= 1


def test_digest_mismatch_and_crash_count_as_failures():
    pinned = ["a", "b", "c"]
    ok = {"digests": ["a", "b", "c"], "failures": []}
    assert run.count_failures(ok, pinned)[:2] == (3, 0)
    wrong = {"digests": ["a", "x", None], "failures": [{"job": 2, "error": "boom"}]}
    assert run.count_failures(wrong, pinned)[:2] == (3, 2)
    assert run.count_failures({"crash": "exited 1"}, pinned)[:2] == (3, 3)


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jacobi", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
