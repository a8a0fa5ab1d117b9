"""Check that the same seed gives the same work counters, run after run.

    python3 bench/check_repeat.py
    python3 -m pytest -q bench/check_repeat.py

Runs `bench/run.py --trace 1` twice per workload with one seed, in separate
interpreters, and compares every per-layer metric counted in `count` or
`bytes` (calls, terms, samples, Newton iterations, fallback seeds, errors,
warnings, grid points, output size); times are left out.  It also checks
that `deep` keeps the k >= 26 overflow failures visible.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEED = 3


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counters(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "bytes")}


def repeated(workload):
    first, second = traced_run(workload), traced_run(workload)
    assert first["correct"] and second["correct"], workload
    assert counters(first) == counters(second), (counters(first), counters(second))
    return first


def test_sweep_counters_repeat():
    assert counters(repeated("sweep"))["core.eval_theta.calls"] > 0


def test_deep_counters_repeat_and_overflow_stays_visible():
    result = repeated("deep")
    assert result["failed"] > 0
    assert counters(result)["zeros.errors.BudgetExceeded"] > 0


def test_battery_counters_repeat():
    assert counters(repeated("battery"))["lemmas.grid_points"] > 0


if __name__ == "__main__":
    for test in (test_sweep_counters_repeat, test_deep_counters_repeat_and_overflow_stays_visible,
                 test_battery_counters_repeat):
        test()
        print(f"ok {test.__name__}")
