"""The benchmark still runs against this tree.

``perfbench/`` imports and traces gpcal functions by name (its
``spans.FUNCTIONS`` and ``METHODS``, and the oracles' ``Checker``), so a
renamed or removed function breaks a traced run. One traced run of the demo
workload must finish correct, with no failed run and every per-layer metric
that ``BENCHMARK.json`` declares.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_demo_benchmark_run_is_correct_and_complete():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "demo", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr[-2000:]
    assert result["failed"] == 0, done.stderr[-2000:]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    assert not missing
