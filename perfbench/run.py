"""qtlie benchmark: run one workload, check every output, print its metrics.

    python3 perfbench/run.py --workload {jacobi,functor,solve} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  A pass is one fresh single-threaded worker
process (worker.py) that imports qtlie, sets up, and runs the workload's
fixed job list on inputs derived from (workload, seed, pass index).  With
--trace 0, passes run until --seconds have gone by (at least MIN_PASSES)
and the end-to-end metrics are taken over passes: the mean of wall_s, the
medians of setup_s and peak_rss_mb.  With --trace 1, pass 0
runs untraced, traced and untraced again; the per-layer metrics come from
the traced run.  A job fails if it raises, if one of its reports fails, or if
its digest differs from the pinned one; any failure makes the exit code 1.
The last line of standard output is the JSON result.  The derived inputs,
per-pass samples and metrics are also written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("jacobi", "functor", "solve")
MIN_PASSES = 3
WORKER_TIMEOUT_S = 150


def run_worker(workload: str, seed: int, pass_index: int, spans: Path | None = None) -> dict:
    """Run one pass in a fresh process; a crashed pass is returned as failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(pass_index)]
    if spans is not None:
        cmd += ["--trace", "--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crash": f"pass {pass_index} timed out after {WORKER_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"crash": f"pass {pass_index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def count_failures(result: dict, pinned: list[str]) -> tuple[int, int, list]:
    """(attempted, failed, details) for one pass, against the pinned job digests."""
    if "crash" in result:
        return len(pinned), len(pinned), [{"crash": result["crash"]}]
    failed = {f["job"] for f in result["failures"]}
    details = list(result["failures"])
    for index, (got, want) in enumerate(zip(result["digests"], pinned)):
        if got is not None and got != want:
            failed.add(index)
            details.append({"job": index, "digest": got, "pinned": want})
    if len(result["digests"]) != len(pinned):
        details.append({"jobs": len(result["digests"]), "pinned": len(pinned)})
        failed.update(range(len(result["digests"]), len(pinned)))
    return len(pinned), len(failed), details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/qtlie/__init__.py", "specs/e1.json", "specs/e2.json", "specs/e3.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a qtlie checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # Build: byte-compile once so that no pass pays for compiling qtlie.
    if not compileall.compile_dir(ROOT / "src" / "qtlie", quiet=1) or \
            not compileall.compile_dir(HERE, quiet=1):
        print("byte-compiling qtlie failed", file=sys.stderr)
        return 2
    pinned = json.loads((HERE / "digests.json").read_text())[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    passes = []
    if args.trace:
        # untraced, traced, untraced: the untraced mean brackets the traced pass in time
        passes.append(run_worker(args.workload, args.seed, 0))
        passes.append(run_worker(args.workload, args.seed, 0, spans=OUT / f"spans-{tag}.tsv.gz"))
        passes.append(run_worker(args.workload, args.seed, 0))
    else:
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            passes.append(run_worker(args.workload, args.seed, len(passes)))

    attempted = failed = 0
    details = []
    for index, result in enumerate(passes):
        a, f, d = count_failures(result, pinned)
        attempted += a
        failed += f
        details += [{"pass": index, **x} for x in d]
    correct = failed == 0
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes x {len(pinned)} jobs, "
          f"attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.4f}")
    for d in details[:5]:
        print(f"FAILURE {json.dumps(d)[:2000]}", file=sys.stderr)

    metrics = {}
    if correct and args.trace:
        before, traced, after = passes
        metrics = traced["metrics"]
        untraced_s = (before["wall_s"] + after["wall_s"]) / 2
        metrics["trace.overhead_frac"] = {"value": traced["wall_s"] / untraced_s - 1, "unit": "ratio"}
    elif correct:
        # wall_s is the mean over passes: on shared hardware CPU throughput can drift
        # by a quarter over tens of seconds, and a mean over the whole run averages
        # that drift better than a median of a few passes does.
        for name, unit, estimate in (("wall_s", "s", statistics.mean), ("setup_s", "s", statistics.median),
                                     ("peak_rss_mb", "MB", statistics.median)):
            samples = [p[name] for p in passes]
            metrics[name] = {"value": estimate(samples), "unit": unit}
            print(f"{name} {estimate(samples):.4f} {unit} ({estimate.__name__} of {len(samples)}: "
                  + ", ".join(f"{x:.4f}" for x in samples) + ")")

    (OUT / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": passes, "failures": details, "metrics": metrics,
    }, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
