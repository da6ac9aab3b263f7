"""One benchmark worker: a fresh process that runs a job list in order.

Usage: python3 bench/worker.py JOBS.json RESULT.json TRACE

The first thing it does is import ``hierspec`` and ``hierspec.cli`` and
note the (system-wide) monotonic clock, so the caller can measure
set-up from the moment it spawned the process.  Each job is timed on
its own; reading output files and all bookkeeping stay outside the
timed regions.  With TRACE=1 the span wrappers of ``tracing`` are
installed before the first job.  An empty job list only measures
set-up.
"""

import time

import hierspec
import hierspec.cli

READY = time.monotonic()

import json  # noqa: E402  (after the set-up mark on purpose)
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402  (already loaded by hierspec)


def _params(job):
    return hierspec.LatticeParams(job["nu"], job["p"])


def _grid(job):
    return hierspec.hierops.VolumeGrid(_params(job), job["depth"])


def run_job(job, out_path):
    """Run one job; returns (seconds, output)."""
    if job["kind"] == "cli":
        start = perf_counter()
        code = hierspec.cli.main(job["argv"] + ["--output", out_path])
        elapsed = perf_counter() - start
        if code != 0:
            raise RuntimeError(f"hierspec exited with code {code}")
        with open(out_path, newline="") as handle:
            return elapsed, handle.read()
    if job["kind"] == "green_tail":
        params = _params(job)
        start = perf_counter()
        values = [hierspec.closedform.green_tail_integral(params, t,
                                                          job["gamma"])
                  for t in job["T"]]
        return perf_counter() - start, values
    if job["kind"] == "end_sites":
        params = _params(job)
        start = perf_counter()
        ends, ranks = hierspec.lattice.sample_end_sites(
            params, 0, job["horizon"], job["n"], job["seed"])
        elapsed = perf_counter() - start
        return elapsed, {"ends": [int(e) for e in ends],
                         "rank_counts": np.bincount(ranks).tolist()}
    if job["kind"] == "threshold":
        grid = _grid(job)
        start = perf_counter()
        value = hierspec.schrodinger.volume_coupling_threshold(grid)
        return perf_counter() - start, float(value)
    if job["kind"] == "secular":
        grid = _grid(job)
        start = perf_counter()
        value = hierspec.schrodinger.secular_eigenvalue(grid, job["site"],
                                                        job["coupling"])
        return perf_counter() - start, float(value)
    raise ValueError(f"unknown job kind {job['kind']!r}")


def main(jobs_path, result_path, trace):
    with open(jobs_path) as handle:
        jobs = json.load(handle)
    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    out_path = result_path + ".out"
    records = []
    for job in jobs:
        try:
            seconds, output = run_job(job, out_path)
            records.append({"seconds": seconds, "output": output,
                            "error": None})
        except Exception:  # a failing job is counted, the list goes on
            records.append({"seconds": None, "output": None,
                            "error": traceback.format_exc(limit=4)})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"ready": READY, "jobs": records, "peak_rss_mb": peak_kb / 1024.0,
              "trace": tracer.report() if tracer else None}
    with open(result_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1")
