"""flatpoly benchmark: times verified reports end to end, or layer by layer.

    python3 bench/run.py --workload exact --seed 1 --seconds 40 --trace 0

Run from the repository root.  Workloads are ``exact`` and ``grid`` (see
``workloads.py``).  Each pass runs the workload's whole task list in a
fresh interpreter (``worker.py``), one task after another, and checks
every output; passes repeat until ``--seconds`` have gone by.
Fresh interpreters keep import cost in ``setup_s`` and keep one pass's
caches from speeding up the next.

``--trace 0`` reports the end-to-end metrics as medians over the passes:
``setup_s`` (process start until the first task can run, with extra
set-up-only processes until there are MIN_SETUPS samples), ``wall_s``
(the whole task list, checks included), ``max_task_s`` (the slowest
task by its median time; the median of per-pass maxima would add the
noise of near-equal tasks) and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
of the traced ones, plus ``cli.report_bytes`` and
``trace_overhead_ratio`` (traced over untraced ``wall_s``, minus one).
Metric names and units come from BENCHMARK.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the environment fingerprint.  The exit code is 0 when every task
ran and every check passed, 1 otherwise, and 2 when the benchmark cannot
run at all (no flatpoly sources, unknown workload).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCES = ROOT / "src" / "flatpoly"

MIN_SETUPS = 5
DEADLINE_S = 170.0  # every process this run starts has ended by then


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _git(*args):
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    """What the numbers depend on besides the code: versions, cores, threads, sources."""
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    sources = hashlib.sha256()
    for path in sorted(SOURCES.rglob("*.py")):
        sources.update(path.relative_to(SOURCES).as_posix().encode() + b"\0" + path.read_bytes())
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "sympy": version("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "sources_sha256": sources.hexdigest(),
    }


class Runner:
    """Starts worker processes, one at a time, and keeps what they report."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.start = time.monotonic()
        self.errors = []

    def elapsed(self):
        return time.monotonic() - self.start

    def worker(self, *flags):
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), *flags]
        try:
            out = subprocess.run([*cmd, "--spawned", repr(time.monotonic())], cwd=ROOT, capture_output=True,
                                 text=True, timeout=max(1.0, DEADLINE_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            self.errors.append(f"worker {' '.join(flags)} timed out")
            return None
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            self.errors.append(f"worker {' '.join(flags)} exited {out.returncode}: {out.stderr[-2000:]}")
            return None
        return json.loads(lines[-1])


def measure(runner, seconds, trace):
    """Passes until `seconds` have gone by; returns (untraced, traced, setup samples)."""
    untraced, traced, setups = [], [], []
    kinds = [((), untraced)] + ([(("--trace",), traced)] if trace else [])
    last = 0.0
    while not untraced or (runner.elapsed() < seconds and runner.elapsed() + last < DEADLINE_S):
        t0 = runner.elapsed()
        for flags, passes in kinds:
            result = runner.worker(*flags)
            if result is None:
                return untraced, traced, setups
            passes.append(result)
            setups.append(result["setup_s"])
        last = runner.elapsed() - t0
    while not trace and len(setups) < MIN_SETUPS and runner.elapsed() + 10 < DEADLINE_S:
        result = runner.worker("--setup-only")
        if result is None:
            break
        setups.append(result["setup_s"])
    return untraced, traced, setups


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through subprocess.run, which kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SOURCES / "__init__.py").is_file():
        fail(f"no flatpoly sources under {SOURCES}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    runner = Runner(args.workload, args.seed)
    untraced, traced, setups = measure(runner, args.seconds, args.trace)
    if not untraced or (args.trace and not traced):
        fail("no pass completed:\n" + "\n".join(runner.errors))
    if any(p["tracer_loaded"] for p in untraced):
        fail("an untraced pass loaded the tracer")

    if args.trace:
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in traced[0]["layers"]}
        metrics["cli.report_bytes"] = median_of(traced, "report_bytes")
        metrics["trace_overhead_ratio"] = median_of(traced, "wall_s") / median_of(untraced, "wall_s") - 1
    else:
        metrics = {"setup_s": statistics.median(setups)}
        metrics.update({key: median_of(untraced, key) for key in ("wall_s", "peak_rss_mb")})
        metrics["max_task_s"] = max(statistics.median(p["task_s"][name] for p in untraced)
                                    for name in untraced[0]["task_s"])
    if set(metrics) != set(units):
        fail(f"metrics missing: {sorted(set(units) - set(metrics))}; "
             f"undeclared: {sorted(set(metrics) - set(units))}")

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes) + len(runner.errors)
    failed = sum(p["failed"] for p in passes) + len(runner.errors)
    print(f"flatpoly benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"{len(setups)} set-ups")
    for name in units:
        print(f"  {name:<28} {metrics[name]:>16.6f} {units[name]}")
    print(f"  {'fail_ratio':<28} {failed / attempted:>16.6f} 1 ({failed} of {attempted} tasks failed)")
    for message in runner.errors + [f for p in passes for f in p["failures"]]:
        print(f"  FAILED {message}")
    print(json.dumps({"env": environment()}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
