"""The benchmark's span tracer installs against the current library.

``bench/tracing.py`` wraps each of its ``TARGETS`` by name and reads
``cache_info()`` from each ``CACHED`` function, so a renamed or deleted
target, or a cache that was removed, makes every traced benchmark
worker exit non-zero.  ``bench/run.py --trace 1`` also fails when a
span in ``workloads.EXPECTED_SPANS`` records no call.  These tests run
traced workers, one with an empty job list and one per workload on its
seed-1 job list, with bytecode caches off so that ``bench/`` is left
unchanged.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))


def run_traced_worker(tmp_path, job_list):
    """Result dict of one traced worker run on ``job_list``."""
    jobs, result = tmp_path / "jobs.json", tmp_path / "result.json"
    jobs.write_text(json.dumps(job_list))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(jobs), str(result),
         "1"], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


def test_traced_worker_installs_every_span(tmp_path):
    tracing = runpy.run_path(str(BENCH / "tracing.py"))
    trace = run_traced_worker(tmp_path, [])["trace"]
    assert set(trace["spans"]) == {name for name, _, _ in tracing["TARGETS"]}
    assert set(trace["cache"]) == set(tracing["CACHED"])


@pytest.mark.parametrize("workload", WORKLOADS["WORKLOADS"])
def test_expected_spans_are_reached(tmp_path, workload):
    result = run_traced_worker(tmp_path,
                               WORKLOADS["job_list"](workload, 1))
    assert [job["error"] for job in result["jobs"]
            if job["error"] is not None] == []
    spans = result["trace"]["spans"]
    missed = [name for name in WORKLOADS["EXPECTED_SPANS"][workload]
              if spans[name]["calls"] == 0]
    assert missed == []
