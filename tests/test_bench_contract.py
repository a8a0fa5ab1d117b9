"""The benchmark's contract with the library, checked in the test suite.

`bench/tracer.py` wraps module attributes by name (`zeros.eval_theta_dz`,
`lemmas.verify_lemma_k2`, `cli.main`, ...) and `bench/workloads.py` drives
the public functions and judges every answer.  One seed-1 deck of each
workload runs here under an installed tracer, so a change that drops a
wrapped attribute or breaks a workload's answer fails a test, not only a
benchmark run.  Files under `bench/` are read, never changed.
"""

from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("name", ["sweep", "deep", "battery"])
def test_a_seed_1_deck_of_each_workload_is_correct_under_the_tracer(name, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import tracer
    import workloads

    workload = {
        "sweep": workloads.Sweep,
        "deep": workloads.Deep,
        "battery": lambda: workloads.Battery(tmp_path / "battery.json",
                                             BENCH / "battery_reference.json"),
    }[name]()
    deck, tally = workload.deck(np.random.default_rng(1)), run.Tally()
    with tracer.installed(tracer.Tracer()) as traced:
        workload.run_pass(deck, tally, traced)
    assert tally.attempted == len(deck)
    assert tally.wrong == []
    assert workloads.mp_failures(tally.located) == []
