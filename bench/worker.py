"""One pass of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py --workload exact --seed 1 --spawned <monotonic> [--setup-only] [--trace]

``--spawned`` is the ``time.monotonic()`` reading the parent took just
before starting this process; ``setup_s`` runs from there until the first
task can run (the ``import flatpoly.cli`` floor plus seeded input
generation).  The pass then runs every task once, times it, checks its
output and prints one JSON line.  With ``--trace`` the tracer is
installed after set-up and the line carries the per-layer metrics; the
untraced pass never imports it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_tasks(tasks):
    """Run tasks one after another; a task fails if it raises or its check does."""
    durations, failures, report_bytes = {}, [], 0
    start = time.perf_counter()
    for task in tasks:
        t0 = time.perf_counter()
        try:
            out = task.run()
        except Exception:
            durations[task.name] = time.perf_counter() - t0
            failures.append(f"{task.name}: {traceback.format_exc(limit=-3)}")
            continue
        durations[task.name] = time.perf_counter() - t0
        report_bytes += len(getattr(out, "text", "").encode())
        try:
            task.check(out)
        except Exception as exc:
            failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
    return {
        "wall_s": time.perf_counter() - start,
        "task_s": durations,
        "attempted": len(tasks),
        "failed": len(failures),
        "failures": failures,
        "report_bytes": report_bytes,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import flatpoly.cli  # the import floor every user pays

    if not Path(flatpoly.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"flatpoly imported from {flatpoly.cli.__file__}, not from {ROOT / 'src'}")
    import workloads

    tasks = workloads.build(args.workload, args.seed)
    result = {"setup_s": time.monotonic() - args.spawned}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        result.update(run_tasks(tasks))
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["tracer_loaded"] = "tracer" in sys.modules
    print(json.dumps(result))


if __name__ == "__main__":
    main()
