"""Bit-identity suite for batched multi-scenario runs.

:func:`repro.sim.batched.run_batched` simulates S duration rows over one
compiled graph — sharing structure, dedup'ing identical rows, and
replaying from baseline snapshots when a scenario only perturbs late ops.
Every path must be **bit-identical** to the per-seed compiled engine run on
a graph rebuilt with that row's durations, which is itself bit-identical to
the reference oracle.  These tests enforce that over seeded random DAGs
(hypothesis-driven), executor-built model-zoo graphs, the fault-model
duration matrices of :func:`repro.faults.models.perturb_durations`, and the
ensemble analysis built on top.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import per_seed_ensemble
from repro.cluster import config_b
from repro.core import profile_model
from repro.core.plan import ParallelPlan, Stage
from repro.faults import (
    ComputeJitter,
    DegradedLink,
    SlowDevice,
    TransientFailure,
    perturb_durations,
    perturb_graph,
    run_ensemble,
)
from repro.models import uniform_model
from repro.runtime.executor import PipelineExecutor
from repro.sim import Op, Simulator, TaskGraph, run_batched
from repro.sim.compiled import compile_graph
from repro.sim.engine import ENGINES, MemEffect
from tests.sim.test_compiled_equivalence import assert_identical, random_graph


def rebuild_with_durations(seed, n, num_resources, row):
    """The same random DAG, rebuilt so op ``i`` has duration ``row[i]``.

    Ops are frozen (the graph reads each one once, at :meth:`TaskGraph.add`),
    so this re-adds fresh Ops.
    """
    g = random_graph(seed, n, num_resources)
    g2 = TaskGraph()
    for i, op in enumerate(g.ops()):
        g2.add(Op(
            op.name,
            float(row[i]),
            resources=op.resources,
            priority=op.priority,
            mem_effects=op.mem_effects,
        ))
    names = [op.name for op in g.ops()]
    for i, succs in enumerate(g.succ_ids):
        for j in succs:
            g2.add_dep(names[i], names[j])
    return g2


def perturbation_matrix(seed, base, num_rows):
    """Rows of multiplicative perturbations over ``base``, plus edge rows:
    an exact copy of the baseline (dedup) and an all-zeros row."""
    rng = np.random.default_rng(seed)
    rows = [np.asarray(base, dtype=np.float64)]
    for _ in range(num_rows):
        row = rows[0].copy()
        if row.size:
            hit = rng.random(row.size) < 0.3
            row[hit] = row[hit] * rng.uniform(0.5, 3.0, int(hit.sum()))
        rows.append(row)
    rows.append(rows[0].copy())  # bytewise duplicate of the baseline
    rows.append(np.zeros_like(rows[0]))
    return np.vstack(rows) if rows[0].size else np.empty((len(rows), 0))


def one_row(graph):
    """``graph`` simulated as a one-row ``run_batched`` call."""
    cg = compile_graph(graph)
    return run_batched(cg, cg.durations[None, :]).result(0)


class TestSingleScenario:
    """A one-row batch == compiled == reference."""

    def test_registered_engine(self):
        assert ENGINES == ("compiled", "reference")

    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        n=st.integers(min_value=1, max_value=100),
        num_resources=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_random_dags(self, seed, n, num_resources):
        compiled = Simulator(
            random_graph(seed, n, num_resources), engine="compiled"
        ).run()
        assert_identical(compiled, one_row(random_graph(seed, n, num_resources)))

    @pytest.mark.parametrize("seed", range(3))
    def test_large_random_dags(self, seed):
        reference = Simulator(random_graph(seed, 600, 4), engine="reference").run()
        assert_identical(reference, one_row(random_graph(seed, 600, 4)))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown sim engine"):
            Simulator(TaskGraph(), engine="vectorized")


class TestMultiScenario:
    """Every row of a batch == a compiled run on a rebuilt graph."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_match_per_row_compiled(self, seed):
        n, num_resources = 90, 4
        g = random_graph(seed, n, num_resources)
        base = [op.duration for op in g.ops()]
        matrix = perturbation_matrix(seed, base, num_rows=4)
        batch = run_batched(compile_graph(g), matrix)
        assert len(batch.scenario_kinds) == matrix.shape[0]
        for s in range(matrix.shape[0]):
            ref = Simulator(
                rebuild_with_durations(seed, n, num_resources, matrix[s]),
                engine="compiled",
            ).run()
            assert_identical(ref, batch.result(s))
            assert batch.makespan(s) == ref.makespan
            assert isinstance(batch.makespan(s), float)

    def test_duplicate_rows_are_reused(self):
        g = random_graph(7, 60, 3)
        base = np.array([op.duration for op in g.ops()])
        matrix = np.vstack([base, base * 1.5, base, base * 1.5])
        batch = run_batched(compile_graph(g), matrix)
        assert batch.scenario_kinds == ("full", "full", "reused", "reused")
        assert batch.makespan(0) == batch.makespan(2)
        assert batch.makespan(1) == batch.makespan(3)
        # Reused scenarios share the underlying columns, not copies.
        assert batch.result(0).trace._cols()[1] is batch.result(2).trace._cols()[1]

    def test_own_durations_row_matches_compiled(self):
        g = random_graph(3, 50, 3)
        cg = compile_graph(random_graph(3, 50, 3))
        batch = run_batched(cg, cg.durations[None, :])
        assert batch.durations.shape == (1, len(g.ops()))
        assert batch.makespan(0) == Simulator(g, engine="compiled").run().makespan


class TestIncrementalPath:
    """Snapshot replay triggers on late-only perturbations and is
    bit-identical to the full re-run of the same rows."""

    def _zoo_graph(self):
        model = uniform_model("inc", 8, 9e9, 1_000_000, 1e6, profile_batch=2)
        prof = profile_model(model)
        cluster = config_b(2)
        d = cluster.devices
        plan = ParallelPlan(
            prof.graph, [Stage(0, 4, (d[0],)), Stage(4, 8, (d[1],))], 512, 256
        )
        return PipelineExecutor(prof, cluster, plan).build_graph()

    def test_late_perturbation_replays_incrementally(self):
        g = self._zoo_graph()
        cg = compile_graph(g)
        assert cg.num_ops >= 512  # below this the incremental path is off
        base = np.asarray(cg.durations, dtype=np.float64)
        probe = run_batched(cg, base[None, :], snapshots=0)
        starts = probe.view(0).start_by_op
        late = int(np.argmax(starts))
        row = base.copy()
        row[late] *= 2.0
        matrix = np.vstack([base, row])
        fast = run_batched(cg, matrix)
        assert fast.scenario_kinds == ("full", "incremental")
        full = run_batched(cg, matrix, snapshots=0)
        assert full.scenario_kinds == ("full", "full")
        for s in range(2):
            assert_identical(full.result(s), fast.result(s))

    def test_early_perturbation_falls_back_to_full(self):
        g = self._zoo_graph()
        cg = compile_graph(g)
        base = np.asarray(cg.durations, dtype=np.float64)
        probe = run_batched(cg, base[None, :], snapshots=0)
        early = int(np.argmin(probe.view(0).start_by_op))
        row = base.copy()
        row[early] = row[early] * 2.0 + 1.0
        batch = run_batched(cg, np.vstack([base, row]))
        assert batch.scenario_kinds == ("full", "full")
        ref = Simulator(
            perturb_graph(g, (), 0), engine="compiled"
        ).run()  # structure sanity: clean graph returned as-is
        assert batch.makespan(0) == ref.makespan


class TestScenarioTraceAnalysis:
    """Each scenario's columnar busy times and resource order == the
    reference engine's event-list trace of a graph rebuilt with that row."""

    SEED, N, NUM_RESOURCES = 11, 80, 4

    def _batch(self):
        g = random_graph(self.SEED, self.N, self.NUM_RESOURCES)
        base = [op.duration for op in g.ops()]
        matrix = perturbation_matrix(self.SEED, base, num_rows=2)
        return compile_graph(g), run_batched(compile_graph(g), matrix)

    def _reference(self, batch, s):
        graph = rebuild_with_durations(
            self.SEED, self.N, self.NUM_RESOURCES, batch.durations[s]
        )
        return Simulator(graph, engine="reference").run().trace

    def test_busy_time_matches_trace(self):
        cg, batch = self._batch()
        for s in (0, 1, batch.durations.shape[0] - 1):
            view = batch.view(s)
            trace = self._reference(batch, s)
            for key in cg.resource_keys:
                assert view.busy_time(key) == trace.busy_time(key)

    def test_unknown_resource_is_zero(self):
        _, batch = self._batch()
        assert batch.view(0).busy_time("res:none-such") == 0.0

    def test_resource_sequence_matches_by_resource(self):
        cg, batch = self._batch()
        view = batch.view(1)
        trace = self._reference(batch, 1)
        for slot, key in enumerate(cg.resource_keys):
            names = [cg.ops()[int(i)].name for i in view.resource_sequence(slot)]
            assert names == [e.name for e in trace.by_resource(key)]
            index = view.resource_index(slot)
            assert [cg.ops()[i].name for i in sorted(index, key=index.get)] == names


class TestValidation:
    def test_negative_duration_rejected(self):
        g = random_graph(0, 10, 2)
        cg = compile_graph(g)
        row = np.asarray(cg.durations, dtype=np.float64).copy()
        row[3] = -0.5
        with pytest.raises(ValueError, match="is negative"):
            run_batched(cg, row[None, :])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_duration_rejected(self, bad):
        cg = compile_graph(random_graph(0, 10, 2))
        rows = np.vstack([cg.durations, cg.durations])
        rows[1, 4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            run_batched(cg, rows)

    def test_one_dimensional_matrix_rejected(self):
        cg = compile_graph(random_graph(0, 10, 2))
        with pytest.raises(ValueError, match="matrix"):
            run_batched(cg, np.asarray(cg.durations))

    def test_column_count_must_match_ops(self):
        cg = compile_graph(random_graph(0, 10, 2))
        with pytest.raises(ValueError, match="columns"):
            run_batched(cg, np.zeros((2, 4)))

    def test_empty_batch_rejected(self):
        cg = compile_graph(random_graph(0, 10, 2))
        with pytest.raises(ValueError, match="at least one"):
            run_batched(cg, np.empty((0, cg.num_ops)))


class TestFaultMatrixEquivalence:
    """perturb_durations rows == per-seed perturb_graph duration columns,
    and the ensemble built on them is identical across engines."""

    def _problem(self):
        model = uniform_model("fm", 6, 9e9, 1_000_000, 1e6, profile_batch=2)
        prof = profile_model(model)
        cluster = config_b(2)
        d = cluster.devices
        plan = ParallelPlan(
            prof.graph, [Stage(0, 3, (d[0],)), Stage(3, 6, (d[1],))], 16, 4
        )
        return prof, cluster, plan

    MODEL_SETS = [
        (ComputeJitter(sigma=0.1),),
        (SlowDevice(factor=2.0, num_devices=1),),
        (DegradedLink(factor=3.0, num_links=1),),
        (TransientFailure(stall=0.4),),
        (
            ComputeJitter(sigma=0.05),
            SlowDevice(factor=1.5, num_devices=1),
            TransientFailure(stall=0.2),
        ),
        (),
    ]

    @pytest.mark.parametrize("models", MODEL_SETS, ids=lambda ms: "+".join(
        type(m).__name__ for m in ms) or "empty")
    def test_matrix_rows_match_perturb_graph(self, models):
        prof, cluster, plan = self._problem()
        graph = PipelineExecutor(prof, cluster, plan).build_graph()
        seeds = [0, 1, 7, 12345]
        matrix = perturb_durations(graph, models, seeds)
        assert matrix.shape == (len(seeds), len(graph.ops()))
        for s, seed in enumerate(seeds):
            pg = perturb_graph(graph, models, seed)
            column = np.array([op.duration for op in pg.ops()])
            assert np.array_equal(matrix[s], column)

    def test_ensemble_batched_identical_to_per_seed(self):
        prof, cluster, plan = self._problem()
        models = (ComputeJitter(sigma=0.1), SlowDevice(factor=2.0))
        # Duplicate seeds exercise the dedup path inside the batch.
        seeds = [0, 1, 2, 1, 0]
        batched = run_ensemble(prof, cluster, plan, models, seeds)
        per_seed = per_seed_ensemble(prof, cluster, plan, models, seeds)
        assert batched.identical(per_seed)
