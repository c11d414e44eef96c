"""Fig. 8: micro-batch splitting vs round-robin stage replication."""

from repro.experiments import fig8, run_experiment


def test_fig8_replication(once):
    res = once(run_experiment, "fig8")
    # Splitting wins despite its split/concat overhead (paper §V-B2).
    assert res.split_advantage > 1.05


def test_fig8_split_wins_across_micro_batch_counts(once):
    def sweep():
        return {m: fig8.run(num_micro_batches=m).split_advantage for m in (3, 4, 5, 7, 8)}

    adv = once(sweep)
    # Splitting wins at every micro-batch count — the round-robin tail
    # effect (idle replica slots around the warm-up/drain edges) never
    # pays for skipping the split/concat.
    for m, a in adv.items():
        assert a > 1.05, f"M={m}: advantage {a:.3f}"
