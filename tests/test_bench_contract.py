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


def test_the_seed_1_deep_deck_counts_every_annulus_in_closed_form(monkeypatch):
    # every `deep` cell (|q| 0.05-0.5, k 10-40) passes the Rouche test against theta*, so its
    # count sums, folds and transforms no circle
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    from thetasep import Annulus, QParameter, zeros

    folds, fold = [], zeros.fold_terms
    monkeypatch.setattr(zeros, "fold_terms", lambda *args: folds.append(1) or fold(*args))
    deck = workloads.Deep().deck(np.random.default_rng(1))
    counts = [zeros.count_zeros_in_annulus(QParameter(q), Annulus.for_index(k))
              for _, (q, k, _) in deck]
    assert len(deck) == 124 and counts == [1] * 124 and folds == []
