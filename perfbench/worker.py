"""One pass of a workload in a fresh, single-threaded process.

Run by run.py; prints one JSON object as its last line of standard output:
set-up seconds (from this file's first statement to the first job), wall
seconds of the jobs, peak resident memory, the derived inputs, one digest
per job and the failures.  With --trace the per-layer metrics are added and
the spans are written to --spans.
"""
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qtlie  # noqa: E402

import workloads  # noqa: E402


def job_digest(reports) -> str:
    """Digest of a job's reports, in order; wall time is not part of to_dict()."""
    payload = json.dumps([r.to_dict() for r in reports], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=None, help="run only the first N jobs")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="gzip file for the spans of a traced pass")
    args = parser.parse_args()
    if Path(qtlie.__file__).resolve().parent != ROOT / "src" / "qtlie":
        print(f"qtlie imported from {qtlie.__file__}, not from this checkout", file=sys.stderr)
        return 2

    inputs = workloads.derive_inputs(args.workload, args.seed, args.pass_index)[: args.jobs]
    job = workloads.JOBS[args.workload]
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        ctx = tracer.run("setup", workloads.setup, args.workload, ROOT)
    else:
        ctx = workloads.setup(args.workload, ROOT)
    setup_s = time.perf_counter() - _START

    digests, failures = [], []
    start = time.perf_counter()
    for index, inp in enumerate(inputs):
        try:
            reports = tracer.run("verify.job", job, ctx, inp) if tracer else job(ctx, inp)
        except Exception:  # a job that raises is a failed job; the pass goes on
            digests.append(None)
            failures.append({"job": index, "error": traceback.format_exc(limit=-3)})
            continue
        digests.append(job_digest(reports))
        failed = [r.to_dict() for r in reports if not r.passed]
        if failed:
            failures.append({"job": index, "reports": failed})
    wall_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "inputs": inputs,
        "digests": digests,
        "failures": failures,
    }
    if tracer:
        result["metrics"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
