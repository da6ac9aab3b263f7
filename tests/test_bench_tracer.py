"""The benchmark's span tracer installs against the current library.

``bench/tracing.py`` wraps each of its ``TARGETS`` by name and reads
``cache_info()`` from each ``CACHED`` function, so a renamed or deleted
target, or a cache that was removed, makes every traced benchmark
worker exit non-zero.  This runs one traced worker with an empty job
list, with bytecode caches off so that ``bench/`` is left unchanged.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def test_traced_worker_installs_every_span(tmp_path):
    tracing = runpy.run_path(str(BENCH / "tracing.py"))
    jobs, result = tmp_path / "jobs.json", tmp_path / "result.json"
    jobs.write_text("[]")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(jobs), str(result),
         "1"], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(result.read_text())["trace"]
    assert set(trace["spans"]) == {name for name, _, _ in tracing["TARGETS"]}
    assert set(trace["cache"]) == set(tracing["CACHED"])
