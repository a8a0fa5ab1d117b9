"""Benchmark of the thetasep library: one workload, one seed, one run.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  It imports `thetasep` from that
checkout's `src/`, draws a fresh deck of ops from the seed's random stream
for every pass, and drives the library from one thread in a closed loop
(the next op starts when the last one has returned), checking every answer.  It prints a human-readable
summary and, as the last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 runs passes for --seconds seconds and reports the end-to-end
metrics of BENCHMARK.json from each deck position's median time, scaled
to nominal host speed by a yardstick timed around every pass.
--trace 1 alternates traced and untraced passes for --seconds seconds and
reports the per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 7       # timed fresh interpreters per run; their median is setup_s
MP_SAMPLES = 24      # located zeros re-checked with mpmath per run
P90_MIN_OPS = 100    # op_p90_ms needs at least ten samples beyond it


def import_tree():
    """Import thetasep from this checkout's src/, or exit without a result."""
    package = SRC / "thetasep"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no thetasep sources under {SRC}; run from a checkout of the repository")
    os.environ.pop("THETA_SEP_THREADS", None)
    sys.path.insert(0, str(SRC))
    import thetasep
    if Path(thetasep.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported thetasep from {thetasep.__file__}, not from {package}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "deep", "battery"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


class Tally:
    """Outcome of every op a run attempted."""

    def __init__(self):
        self.attempted = 0
        self.known_failures = 0  # ops that raised a known defect of the library
        self.wrong = []          # ops whose answer failed the check, or that raised otherwise
        self.runtime_warnings = 0
        self.located = []        # (q, z) zeros kept for the mpmath re-check

    def add(self, workload, op, result, error, n_warnings):
        self.attempted += 1
        self.runtime_warnings += n_warnings
        if error is not None:
            if workload.expected_failure(op, error):
                self.known_failures += 1
            else:
                self.wrong.append(op)
            return
        ok, zero = workload.check(op, result)
        if not ok:
            self.wrong.append(op)
        elif zero is not None and len(self.located) < MP_SAMPLES:
            self.located.append(zero)

    @property
    def failed(self):
        return self.known_failures + len(self.wrong)


def setup_source(workload):
    """A program for a fresh interpreter: import thetasep from src/ and run the set-up op."""
    return (f"import sys\nsys.path.insert(0, {str(SRC)!r})\nimport thetasep\n"
            + workload.setup_source())


def time_interpreter(source):
    """Wall time, in seconds, for a fresh interpreter to run `source`."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", source], cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=120, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"bench: set-up interpreter exited {proc.returncode}:\n"
                 + proc.stderr.decode(errors="replace"))
    return elapsed


def end_to_end(workload, rng, seconds, tally):
    """Passes over fresh decks until `seconds` have gone, each timed at nominal host speed.

    The host's speed drifts by up to 2x, in phases that last seconds to
    minutes (see bench/README.md).  The workload's yardstick is timed before
    and after every pass and every set-up interpreter, and each time is
    scaled to the speed at which the yardstick takes its nominal time
    (yardstick.py).  A deck position's time is its median over the passes,
    so it is the cost of a typical input of its stratum.  The set-up
    interpreters are spread over the run between passes; their median is
    setup_s.
    """
    source = setup_source(workload)
    time_interpreter(source)  # untimed: writes the bytecode cache
    gauge = yardstick.Gauge(workload.YARDSTICK)
    setups, passes, unscaled = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() < start + seconds:
        latencies = workload.run_pass(workload.deck(rng), tally)[0]
        scale = gauge.scale()
        passes.append([t * scale for t in latencies])
        unscaled.append(latencies)
        due = start + len(setups) * seconds / SETUP_REPS
        if len(setups) < SETUP_REPS and time.perf_counter() >= due:
            setups.append(time_interpreter(source) * gauge.scale())
    while len(setups) < SETUP_REPS:
        setups.append(time_interpreter(source) * gauge.scale())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_op = [statistics.median(times) for times in zip(*passes)]

    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(per_op) / (sum(per_op) / 1e9),
        "op_p50_ms": statistics.median(per_op) / 1e6,
        "peak_rss_mb": peak_rss_mb,
        "error_ratio": tally.failed / tally.attempted,
    }
    unscaled_p50 = statistics.median(statistics.median(times) for times in zip(*unscaled))
    notes = [f"deck={len(per_op)} ops, {len(passes)} passes of fresh decks; "
             "a position's time is its median pass",
             f"yardstick={workload.YARDSTICK}: median {statistics.median(gauge.readings) / 1e6:.4g} "
             f"ms against a nominal {gauge.nominal_ns / 1e6:.4g} ms; "
             f"unscaled op_p50_ms={unscaled_p50 / 1e6:.6g}"]
    if len(per_op) >= P90_MIN_OPS:
        metrics["op_p90_ms"] = statistics.quantiles(per_op, n=10)[8] / 1e6
    else:
        notes.append(f"op_p90_ms not reported: deck of {len(per_op)} < {P90_MIN_OPS} ops")
    notes.append(f"runtime_warnings={tally.runtime_warnings}")
    return metrics, notes


def traced(workload, rng, seconds, tally, spans_path):
    """Alternating traced and untraced passes over fresh decks until `seconds` have gone.

    Work counters come from the first traced pass, whose deck is the first
    the seed draws, so they repeat exactly for one seed; times are medians
    over the traced passes.
    """
    import tracer as tracing

    traced_ns, untraced_ns, tracers = [], [], []
    deadline = time.perf_counter() + seconds
    pair = 0
    while not tracers or time.perf_counter() < deadline:
        # alternate which half of the pair runs first, so drift cancels
        for kind in (("traced", "untraced") if pair % 2 == 0 else ("untraced", "traced")):
            deck = workload.deck(rng)
            if kind == "untraced":
                untraced_ns.append(sum(workload.run_pass(deck, tally)[0]))
                continue
            tracer = tracing.Tracer(keep_spans=not tracers)
            with tracing.installed(tracer):
                latencies, n_warnings = workload.run_pass(deck, tally, tracer)
            tracer.counts["zeros.runtime_warnings"] += n_warnings
            traced_ns.append(sum(latencies))
            tracers.append(tracer)
        pair += 1

    counts = tracers[0].counts
    tracers[0].write_spans(spans_path)

    metrics = {}
    for name, _, _, _ in tracing.targets():
        metrics[f"{name}.self_ms"] = statistics.median(t.self_ns[name] for t in tracers) / 1e6
        metrics[f"{name}.calls"] = counts[f"{name}.calls"]
    for key in ("core.eval_theta.terms", "core.eval_theta_dz.terms",
                "zeros.winding_number.samples", "zeros.winding_number.bisection_samples",
                "zeros.locate_zero.newton_iterations", "zeros.fallback_seeds",
                "zeros.runtime_warnings", "lemmas.grid_points", "cli.main.output_bytes"):
        metrics[key] = counts[key]
    for error in tracing.ERROR_TYPES:
        metrics[f"zeros.errors.{error}"] = counts[f"zeros.errors.{error}"]
    first_seed = counts["zeros.first_seed_calls"]
    metrics["zeros.first_seed_converged_ratio"] = (
        counts["zeros.first_seed_converged"] / first_seed if first_seed else 0.0)
    metrics["trace.traced_ms"] = statistics.median(traced_ns) / 1e6
    metrics["trace.untraced_ms"] = statistics.median(untraced_ns) / 1e6
    metrics["trace.overhead_ms"] = metrics["trace.traced_ms"] - metrics["trace.untraced_ms"]
    metrics["trace.span_coverage"] = statistics.median(
        t.top_ns / ns for t, ns in zip(tracers, traced_ns))

    notes = [f"deck={len(deck)} ops, {len(tracers)} traced and {len(untraced_ns)} untraced "
             f"passes of fresh decks; times are per pass, median over passes; "
             f"counters are those of the first traced pass",
             f"spans of the first traced pass: {spans_path.relative_to(ROOT)}",
             "lemmas.grid_points is computed from the grid sizes, not measured"]
    return metrics, notes


def main(argv=None):
    args = parse_args(argv)
    import_tree()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    battery_out = OUT / f"battery-{os.getpid()}.json"
    workload = {
        "sweep": workloads.Sweep,
        "deep": workloads.Deep,
        "battery": lambda: workloads.Battery(battery_out, Path(__file__).with_name(
            "battery_reference.json")),
    }[args.workload]()
    rng = np.random.default_rng(args.seed)

    print(f"# thetasep bench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} machine={platform.machine()}")
    tally = Tally()
    try:
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
            metrics, notes = traced(workload, rng, args.seconds, tally, spans_path)
            listed = spec["per_layer"]
        else:
            metrics, notes = end_to_end(workload, rng, args.seconds, tally)
            listed = spec["end_to_end"]
    finally:
        battery_out.unlink(missing_ok=True)

    mp_bad = workloads.mp_failures(tally.located)
    correct = not tally.wrong and not mp_bad
    notes.append(f"attempted={tally.attempted} known_failures={tally.known_failures} "
                 f"wrong={len(tally.wrong)} "
                 f"mpmath_rechecked={len(tally.located)} mpmath_bad={len(mp_bad)}")
    for op in tally.wrong[:5]:
        print(f"bench: wrong answer for op {op!r}", file=sys.stderr)
    for q, z, residual in mp_bad[:5]:
        print(f"bench: mpmath scaled residual {residual:.3e} at q={q!r}, z={z!r}", file=sys.stderr)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(error_ratio="ratio", op_p90_ms="ms")
    for note in notes:
        print(f"# {note}")
    for name, value in metrics.items():
        unit = units.get(name, "count" if name.endswith(".calls") else "")
        print(f"{name:42s} {value:>16.6g} {unit}")
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in listed}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
