"""In-memory span tracer, installed around the library's public functions.

`installed(tracer)` replaces the module attributes through which the layers
call each other (`zeros.eval_theta`, `zeros.winding_number`,
`lemmas.verify_lemma_k1_direct`, `cli.main`, ...) with wrappers, and puts
the originals back on exit; nothing inside `src/` changes.  Each call opens
a span with its name, start, end and parent.  A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter
from contextlib import contextmanager

from thetasep import ThetaError, cli, lemmas, zeros

LEMMA_CHECKS = ("verify_constants", "mu_properties_check", "verify_AB_monotone",
                "verify_lemma_Q", "verify_lemma_k5", "verify_lemma_k4",
                "verify_lemma_k1_cases", "verify_lemma_k1_direct", "verify_lemma_k2")
ERROR_TYPES = ("BudgetExceeded", "ContourTooClose", "NoConvergence")


class Tracer:
    """Self time and work counters per span name, plus the raw spans of one pass."""

    def __init__(self, keep_spans=False):
        self.keep_spans = keep_spans
        self.self_ns = Counter()
        self.counts = Counter()
        self.top_ns = 0          # time inside outermost spans
        self.spans = []          # (op, span_id, parent_id, name, start_ns, end_ns)
        self.op = 0
        self._stack = []         # [span_id, start_ns, child_ns] per open span
        self._next_id = 0
        self._op_errors = []     # exceptions already counted in this op

    def begin_op(self, index):
        self.op = index
        self._op_errors.clear()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0, 0]
            self._stack.append(frame)
            frame[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(name, frame, parent)
                if isinstance(exc, ThetaError):
                    self._count_error(exc)
                    if count is not None:
                        count(self.counts, args, kwargs, None, exc)
                raise
            self._close(name, frame, parent)
            if count is not None:
                count(self.counts, args, kwargs, result, None)
            return result
        return traced

    def _close(self, name, frame, parent):
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, start, child_ns = frame
        duration = end - start
        self.self_ns[name] += duration - child_ns
        self.counts[name + ".calls"] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_ns += duration
        if self.keep_spans:
            self.spans.append((self.op, span_id, parent, name, start, end))

    def _count_error(self, exc):
        # an error escaping nested spans is counted once, where it started
        if not any(seen is exc for seen in self._op_errors):
            self._op_errors.append(exc)
            self.counts["zeros.errors." + type(exc).__name__] += 1

    def write_spans(self, path):
        origin = self.spans[0][4] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(f"{op}\t{span_id}\t{parent}\t{name}\t{start - origin}\t{end - origin}\n")


def _param(fn, name):
    """Reader of argument `name` of fn from a call's (args, kwargs), default included."""
    params = inspect.signature(fn).parameters
    index = list(params).index(name)
    default = params[name].default

    def read(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[index] if index < len(args) else default
    return read


def _count_terms(name):
    def count(counts, args, kwargs, result, exc):
        if result is not None:
            counts[name + ".terms"] += result.terms_used
    return count


def _count_winding(fn):
    initial = _param(fn, "initial_samples")

    def count(counts, args, kwargs, result, exc):
        if result is not None:
            counts["zeros.winding_number.samples"] += result.samples_used
            counts["zeros.winding_number.bisection_samples"] += (
                result.samples_used - max(int(initial(args, kwargs)), 16))
    return count


def _count_locate(fn):
    seed = _param(fn, "seed")

    def count(counts, args, kwargs, result, exc):
        if seed(args, kwargs) is not None:
            counts["zeros.fallback_seeds"] += 1
        else:
            counts["zeros.first_seed_calls"] += 1
            counts["zeros.first_seed_converged"] += result is not None
        iterations = result.newton_iterations if result is not None \
            else getattr(exc, "iterations", None)
        counts["zeros.locate_zero.newton_iterations"] += iterations or 0
    return count


def _count_grid(fn, with_z):
    """Grid points a lemma scan evaluates, computed from its grid sizes."""
    grid = _param(fn, "grid")
    z_steps = _param(fn, "z_steps") if with_z else None

    def count(counts, args, kwargs, result, exc):
        g = grid(args, kwargs)
        if with_z:
            points = g.modulus_steps * g.argument_steps * z_steps(args, kwargs)
        else:
            points = g.modulus_steps + g.argument_steps  # segment plus arc
        counts["lemmas.grid_points"] += points
    return count


def _count_output(fn):
    argv = _param(fn, "argv")

    def count(counts, args, kwargs, result, exc):
        words = list(argv(args, kwargs) or ())
        if "--out" in words:
            counts["cli.main.output_bytes"] += os.path.getsize(words[words.index("--out") + 1])
    return count


def targets():
    """(span name, module, attribute, counter hook) for every wrapped function."""
    out = [
        ("core.eval_theta", zeros, "eval_theta", _count_terms("core.eval_theta")),
        ("core.eval_theta_dz", zeros, "eval_theta_dz", _count_terms("core.eval_theta_dz")),
        ("zeros.winding_number", zeros, "winding_number", _count_winding(zeros.winding_number)),
        ("zeros.locate_zero", zeros, "locate_zero", _count_locate(zeros.locate_zero)),
        ("zeros.count_zeros_in_annulus", zeros, "count_zeros_in_annulus", None),
        ("zeros.verify_separation", zeros, "verify_separation", None),
        ("cli.main", cli, "main", _count_output(cli.main)),
    ]
    grids = {"verify_lemma_Q": False, "verify_lemma_k1_direct": True, "verify_lemma_k2": True}
    for check in LEMMA_CHECKS:
        fn = getattr(lemmas, check)
        hook = _count_grid(fn, grids[check]) if check in grids else None
        out.append((f"lemmas.{check}", lemmas, check, hook))
    return out


@contextmanager
def installed(tracer):
    originals = []
    try:
        for name, module, attr, hook in targets():
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, hook))
        yield tracer
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)
