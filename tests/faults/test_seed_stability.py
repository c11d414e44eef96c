"""Ensemble determinism: identical (graph, models, seeds) must yield an
identical :class:`EnsembleReport` on every rerun, and the batched ensemble
must match the per-seed oracle on either simulator engine.  Anything less
would make robust-plan selection depend on how the ensemble was run."""

from repro.check import per_seed_ensemble
from repro.faults import ComputeJitter, SlowDevice, run_ensemble

from tests.faults.test_inject import small_setup

SEEDS = tuple(range(6))
MODELS = (SlowDevice(factor=1.6, num_devices=1), ComputeJitter(sigma=0.08))


def _report():
    prof, cluster, plan = small_setup()
    return run_ensemble(prof, cluster, plan, MODELS, seeds=SEEDS)


class TestSeedStability:
    def test_rerun_is_identical(self):
        assert _report().identical(_report())

    def test_identical_across_sim_engines(self):
        prof, cluster, plan = small_setup()
        batched = _report()
        for engine in ("compiled", "reference"):
            per_seed = per_seed_ensemble(
                prof, cluster, plan, MODELS, SEEDS, sim_engine=engine
            )
            assert batched.identical(per_seed), (
                f"EnsembleReport differs between the batched pass and the "
                f"per-seed {engine} oracle"
            )

    def test_seed_change_actually_changes_outcomes(self):
        # Guard against identical() passing vacuously: a different seed set
        # must produce different makespans.
        prof, cluster, plan = small_setup()
        a = run_ensemble(prof, cluster, plan, MODELS, seeds=SEEDS)
        b = run_ensemble(prof, cluster, plan, MODELS, seeds=(100, 101, 102))
        assert not a.identical(b)

    def test_identical_is_order_sensitive(self):
        prof, cluster, plan = small_setup()
        a = run_ensemble(prof, cluster, plan, MODELS, seeds=(1, 2, 3))
        b = run_ensemble(prof, cluster, plan, MODELS, seeds=(3, 2, 1))
        assert not a.identical(b)
