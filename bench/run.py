"""hierspec benchmark: three workloads, end to end and layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload free-walk --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --self-check

A run is one closed-loop client.  It builds the workload's job list from
the seed, then spawns fresh worker processes one after another, each of
which imports hierspec from ``src/`` and runs the whole list in order,
while another worker still fits in ``--seconds`` (and at least
``MIN_REPS`` times).  A fresh process per job list keeps the library's
``lru_cache``s from carrying warm state from one list to the next; inside
a list they fill as they would in a user's sweep.  Workers get
``HIERSPEC_THREADS=1`` whatever the caller's environment says.

End-to-end metrics (``--trace 0``), medians over the workers of a run:

* ``wall_s``: time to finish the job list, set-up excluded;
* ``setup_s``: spawn of a worker until ``hierspec`` and ``hierspec.cli``
  are imported (at least ``SETUP_SAMPLES`` spawns per run);
* ``peak_rss_mb``: the worker's peak resident memory.

Every job's output is checked against an oracle (``oracles.py``) after
the workers have ended.  ``failed`` counts job runs that raised or
missed their oracle; the summary prints ``failed_ratio = failed /
attempted``.  ``--trace 1`` alternates untraced and traced workers and
reports the per-layer metrics of BENCHMARK.json instead; it fails if a
span the workload must exercise saw no call.  ``--self-check`` runs each
workload once, then corrupts each job's output and shows that the
oracles count it as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it record the machine and environment and a readable summary.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]  # oracles import hierspec

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 165.0
IMPORT_LAYERS = ("scipy", "mpmath", "hierspec")


class BenchError(Exception):
    """The run cannot produce a result."""


def worker_env():
    """The caller's environment, with the settings that change what a run
    measures pinned: sources from this checkout, the thread pool off, and
    bytecode caches written and read, as an installed package has them."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["HIERSPEC_THREADS"] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Runner:
    """Spawns workers in a scratch directory inside the checkout."""

    def __init__(self, scratch: Path, started: float):
        self.scratch = scratch
        self.deadline = started + DEADLINE_S
        self.count = 0

    def _timeout(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        return left

    def spawn(self, jobs, trace=False):
        """Run one worker on ``jobs``; returns (setup_s, result dict)."""
        self.count += 1
        jobs_path = self.scratch / f"jobs-{self.count}.json"
        result_path = self.scratch / f"result-{self.count}.json"
        jobs_path.write_text(json.dumps(jobs))
        argv = [sys.executable, str(BENCH / "worker.py"), str(jobs_path),
                str(result_path), "1" if trace else "0"]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(argv, env=worker_env(), cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=self._timeout())
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker timed out after {exc.timeout:.0f} s")
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text())
        return result["ready"] - spawned, result

    def import_times(self):
        """Self import time per package from ``python -X importtime``."""
        argv = [sys.executable, "-X", "importtime", "-c",
                "import hierspec, hierspec.cli"]
        proc = subprocess.run(argv, env=worker_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=self._timeout())
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr[-2000:]}")
        totals = dict.fromkeys(IMPORT_LAYERS, 0.0)
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)",
                             line.strip())
            if not match:
                continue
            top = match.group(2).split(".")[0]
            if top in totals:
                totals[top] += int(match.group(1)) * 1e-6
        return totals


def environment():
    """Machine, interpreter, library versions and BLAS, for the record."""
    import mpmath
    import numpy
    import scipy

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            info = deps["blas"]
            return " ".join(str(info.get(k, "")) for k in
                            ("name", "version", "openblas configuration"))
        except Exception as exc:  # the record is informative only
            return f"unknown ({exc.__class__.__name__})"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    threads = {k: v for k, v in os.environ.items()
               if k.endswith("_NUM_THREADS") or k == "HIERSPEC_THREADS"}
    threads["HIERSPEC_THREADS (workers)"] = "1"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "thread_env": threads}


def digest(output):
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def judge(jobs, results):
    """(attempted, failed, reasons) over every job of every worker;
    each distinct output is checked once."""
    import oracles
    verdicts, reasons = {}, []
    attempted = failed = 0
    for result in results:
        for job, record in zip(jobs, result["jobs"]):
            attempted += 1
            if record["error"] is not None:
                failed += 1
                reasons.append(f"{job['name']}: raised\n{record['error']}")
                continue
            key = (job["name"], digest(record["output"]))
            if key not in verdicts:
                try:
                    verdicts[key] = oracles.check(job, record["output"])
                except Exception as exc:  # unparsable output fails the job
                    verdicts[key] = f"oracle could not read it: {exc!r}"
            if verdicts[key] is not None:
                failed += 1
                reasons.append(f"{job['name']}: {verdicts[key]}")
    return attempted, failed, reasons


def wall(result):
    return sum(r["seconds"] for r in result["jobs"] if r["seconds"] is not None)


def _room_for(started, seconds, last):
    """Another worker taking ``last`` seconds ends within the run's time."""
    return time.monotonic() - started + last <= seconds


def end_to_end(runner, jobs, seconds, started):
    results, setups = [], []
    runner.spawn([])  # untimed: bytecode and page caches, as a user has them
    last = 0.0
    while len(results) < MIN_REPS or _room_for(started, seconds, last):
        begun = time.monotonic()
        setup, result = runner.spawn(jobs)
        last = time.monotonic() - begun
        setups.append(setup)
        results.append(result)
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn([])[0])
    metrics = {
        "wall_s": (statistics.median(wall(r) for r in results), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results),
                        "MB"),
    }
    return metrics, results


def per_layer(runner, jobs, seconds, started, workload):
    plain, traced = [], []
    runner.spawn([])
    last = 0.0
    while not plain or _room_for(started, seconds, last):
        begun = time.monotonic()
        plain.append(runner.spawn(jobs)[1])
        traced.append(runner.spawn(jobs, trace=True)[1])
        last = time.monotonic() - begun
    reports = [r["trace"] for r in traced]
    missing = [name for name in workloads.EXPECTED_SPANS[workload]
               if reports[0]["spans"][name]["calls"] == 0]
    if missing:
        raise BenchError(f"spans with no calls on {workload}: "
                         + ", ".join(missing))
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = (
            statistics.median(t["spans"][name]["calls"] for t in reports),
            "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(t["spans"][name]["self_s"] for t in reports), "s")
    for module in tracing.MODULES:
        metrics[f"{module}.self_s"] = (statistics.median(
            sum(s["self_s"] for n, s in t["spans"].items()
                if n.split(".")[0] == module) for t in reports), "s")
    for name in tracing.CACHED:
        info = reports[0]["cache"][name]
        lookups = info["hits"] + info["misses"]
        metrics[f"{name}.cache_hit_ratio"] = (
            info["hits"] / lookups if lookups else 0.0, "ratio")
    metrics["hierops.apply_laplacian.bytes_computed"] = (statistics.median(
        t["spans"]["hierops.apply_laplacian"]["bytes"] for t in reports),
        "bytes")
    traced_wall = statistics.median(wall(r) for r in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (
        traced_wall - statistics.median(wall(r) for r in plain), "s")
    imports = [runner.import_times() for _ in range(IMPORTTIME_SAMPLES)]
    for layer in IMPORT_LAYERS:
        metrics[f"setup.{layer}_s"] = (
            statistics.median(i[layer] for i in imports), "s")
    return metrics, plain + traced


def print_summary(jobs, results, metrics, attempted, failed):
    print("worker wall_s:", " ".join(f"{wall(r):.4f}" for r in results))
    print("job medians over", len(results), "workers:")
    for i, job in enumerate(jobs):
        times = [r["jobs"][i]["seconds"] for r in results
                 if r["jobs"][i]["seconds"] is not None]
        shown = f"{statistics.median(times):.4f} s" if times else "failed"
        print(f"  {job['name']:<32} {shown}")
    traced = [r["trace"] for r in results if r["trace"]]
    if traced:
        print("spans of the first traced worker: calls, total s, self s, "
              "calls by enclosing span")
        for name, span in traced[0]["spans"].items():
            if span["calls"]:
                print(f"  {name:<40} {span['calls']:>7} {span['total_s']:9.4f}"
                      f" {span['self_s']:9.4f}  {span['callers']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {value:.6g} {unit}")
    print(f"{'failed_ratio':<52} {failed / attempted:.6g} ratio "
          f"({failed}/{attempted} job runs)")


def self_check(runner, seed):
    """Clean outputs pass; each corrupted output is counted as failed."""
    import oracles
    ok = True
    for workload in workloads.WORKLOADS:
        jobs = workloads.job_list(workload, seed)
        result = runner.spawn(jobs)[1]
        attempted, failed, reasons = judge(jobs, [result])
        caught = 0
        for job, record in zip(jobs, result["jobs"]):
            if record["error"] is None and oracles.check(
                    job, oracles.corrupt(job, record["output"])) is not None:
                caught += 1
        print(f"{workload}: failed_ratio {failed / attempted:.3g} as run, "
              f"{caught / len(jobs):.3g} with one value of each output "
              f"corrupted ({caught}/{len(jobs)} jobs caught)")
        for reason in reasons:
            print("  ", reason)
        ok = ok and failed == 0 and caught == len(jobs)
    print("self-check", "passed" if ok else "FAILED")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "hierspec" / "__init__.py").is_file():
        print(f"error: no hierspec sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = scratch_root / f"run-{os.getpid()}"
    scratch.mkdir()
    runner = Runner(scratch, started)
    try:
        if args.self_check:
            return 0 if self_check(runner, args.seed) else 1
        jobs = workloads.job_list(args.workload, args.seed)
        if args.trace:
            metrics, results = per_layer(runner, jobs, args.seconds, started,
                                         args.workload)
        else:
            metrics, results = end_to_end(runner, jobs, args.seconds, started)
        attempted, failed, reasons = judge(jobs, results)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it
    for reason in reasons[:10]:
        print("FAILED", reason, file=sys.stderr)
    print("env", json.dumps(environment(), sort_keys=True))
    print_summary(jobs, results, metrics, attempted, failed)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
