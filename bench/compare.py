"""Compare a parent and a change on one workload in alternating pairs of runs.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR --workload deep

Both directories are checkouts that hold the same `bench/` and
`BENCHMARK.json` (copy them from the change into the parent first), so both
sides are measured by identical benchmark code; the script refuses to run
otherwise.  It runs PAIRS pairs; pair i runs both sides with seed i,
alternating which side runs first.  It prints each side's share of failed
ops and, for every end-to-end metric, each side's median and quartiles, the
pairs the change won, and a verdict:

    worse       the change fails a larger share of its ops than the parent,
                or its median is worse than the parent's by more than the
                metric's bound in BENCHMARK.json
    gain        the change wins at least 9/10 of the pairs and the medians
                differ by more than the parent's quartile spread
    unresolved  the parent's own spread is wider than the bound, and not
                every change run beats every parent run
    same        otherwise
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10  # seeds 1..PAIRS


def bench_files(root):
    files = sorted(p for p in (root / "bench").rglob("*") if p.is_file()
                   and "__pycache__" not in p.parts)
    return {str(p.relative_to(root)): p.read_bytes()
            for p in files + [root / "BENCHMARK.json"]}


def run(root, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=900, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.exit(f"{root}: run failed (exit {proc.returncode})\n{proc.stderr}")
    return result


def verdict(spec, parent, change, fails_more):
    better = (lambda a, b: a > b) if spec["better"] == "higher" else (lambda a, b: a < b)
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_med = statistics.median(change)
    wins = sum(better(c, p) for c, p in zip(change, parent))
    bound = spec["bound"] * p_med
    if fails_more or (better(p_med, c_med) and abs(c_med - p_med) > bound):
        word = "worse"
    elif wins >= 0.9 * len(parent) and abs(c_med - p_med) > p_q3 - p_q1 and better(c_med, p_med):
        word = "gain"
    elif p_q3 - p_q1 > bound and not all(better(c, p) for c in change for p in parent):
        word = "unresolved"
    else:
        word = "same"
    return wins, word


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if bench_files(parent) != bench_files(change):
        sys.exit("bench/ or BENCHMARK.json differ between the two checkouts")
    spec = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))

    values = {"parent": {}, "change": {}}
    ops = {"parent": [0, 0], "change": [0, 0]}  # failed, attempted
    for seed in range(1, PAIRS + 1):
        order = (("parent", parent), ("change", change))
        for side, root in (order if seed % 2 else order[::-1]):
            result = run(root, args.workload, seed, spec["run_seconds"])
            ops[side][0] += result["failed"]
            ops[side][1] += result["attempted"]
            for name, metric in result["metrics"].items():
                values[side].setdefault(name, []).append(metric["value"])
        print(f"pair {seed}/{PAIRS} done", file=sys.stderr)

    (p_failed, p_attempted), (c_failed, c_attempted) = ops["parent"], ops["change"]
    fails_more = c_failed * p_attempted > p_failed * c_attempted
    print(f"failed ops: parent {p_failed}/{p_attempted}, change {c_failed}/{c_attempted}"
          + ("  -- the change fails a larger share: no gain counts" if fails_more else ""))

    print(f"{'metric':14s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
          f"  wins  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        p, c = values["parent"][name], values["change"][name]
        cols = []
        for v in (p, c):
            q1, med, q3 = statistics.quantiles(v, n=4, method="inclusive")
            cols.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
        wins, word = verdict(metric, p, c, fails_more)
        print(f"{name:14s} {cols[0]:>34s} {cols[1]:>34s}  {wins:2d}/{len(p)}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
