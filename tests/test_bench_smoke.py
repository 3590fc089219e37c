"""The benchmark runs end to end and its own output checks pass, untraced and traced.

A traced run also reconciles its spans with the report's timing and its
count of `EquivChecker.check` calls with the checks the report counts, so a
change to `validate`'s loop that the benchmark cannot measure fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", [0, 1], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", ["canonical", "full_range", "dot8"])
def test_bench_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, proc.stdout[-2000:]
