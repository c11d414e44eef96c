"""repro.perf.sweep: deterministic ordering and byte-identical reports."""

import math
import os
import threading
import time

import pytest

from repro.perf import ForkPool, default_jobs, sweep
from repro.perf.sweep import _run_serial


def _square(x):
    return x * x


def _pid(_x):
    return os.getpid()


_PARENT_PID = os.getpid()


def _square_or_die_in_worker(x):
    # Fork workers inherit _PARENT_PID, so only a pool worker takes the exit.
    if os.getpid() != _PARENT_PID:
        os._exit(1)
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


def _slow_identity(x):
    # Later tasks finish first if results were collected by completion.
    time.sleep(0.05 * (3 - x))
    return x


def _point_key(model, config, gbs):
    return f"{model}/{config}/{gbs}"


class TestSweep:
    def test_serial_matches_map(self):
        tasks = [(i,) for i in range(10)]
        assert sweep(_square, tasks, jobs=1) == [i * i for i in range(10)]

    def test_results_in_task_order_not_completion_order(self):
        tasks = [(i,) for i in range(3)]
        assert sweep(_slow_identity, tasks, jobs=3) == [0, 1, 2]

    def test_parallel_matches_serial(self):
        tasks = [(i,) for i in range(20)]
        assert sweep(_square, tasks, jobs=4) == sweep(_square, tasks, jobs=1)

    def test_mixed_arg_tuples(self):
        tasks = [("vgg19", "A", 1024), ("bert48", "C", 64)]
        assert sweep(_point_key, tasks, jobs=2) == ["vgg19/A/1024", "bert48/C/64"]

    def test_empty_grid(self):
        assert sweep(_square, [], jobs=8) == []

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_serial_helper(self):
        assert _run_serial(_square, [(3,)]) == [9]


class TestForkPool:
    def test_inline_mode_runs_in_process(self):
        pool = ForkPool(2, inline=True)
        assert pool.mode == "inline"
        assert pool.run(_pid, 0) == os.getpid()
        pool.shutdown()

    def test_run_and_map_ordered(self):
        pool = ForkPool(2)
        try:
            assert pool.run(_square, 7) == 49
            assert pool.map_ordered(_square, [(i,) for i in range(6)]) == [
                i * i for i in range(6)
            ]
        finally:
            pool.shutdown()

    def test_worker_exceptions_propagate_without_degrading(self):
        pool = ForkPool(2, inline=True)
        with pytest.raises(RuntimeError, match="boom 3"):
            pool.run(_boom, 3)
        # fn-level failures must not flip the pool's mode
        assert pool.run(_square, 2) == 4
        pool.shutdown()

    def test_pool_persists_across_submissions(self):
        """The serve-cache-warmth property: one long-lived pool keeps its
        worker processes (and their forked memory) across run() calls."""
        pool = ForkPool(1)
        try:
            first = pool.run(_pid, 0)
            if first == os.getpid():  # sandbox degraded to inline: vacuous
                pytest.skip("process pool unavailable in this environment")
            assert pool.run(_pid, 0) == first
        finally:
            pool.shutdown()

    def test_concurrent_submitters(self):
        pool = ForkPool(2, inline=True)
        results = {}

        def submit(i):
            results[i] = pool.run(_square, i)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {i: i * i for i in range(8)}
        pool.shutdown()

    def test_map_ordered_degrades_inline_when_a_worker_dies(self):
        """A killed worker (e.g. by the OOM killer) breaks the pool; the
        batch is rerun serially and later calls stay inline."""
        tasks = [(i,) for i in range(4)]
        expected = [i * i for i in range(4)]
        pool = ForkPool(2)
        try:
            assert pool.map_ordered(_square_or_die_in_worker, tasks) == expected
            assert pool.mode == "inline"
            assert pool.map_ordered(_square_or_die_in_worker, tasks) == expected
        finally:
            pool.shutdown()
        assert sweep(_square_or_die_in_worker, tasks, jobs=2) == expected

    def test_shutdown_idempotent(self):
        pool = ForkPool(1, inline=True)
        pool.shutdown()
        pool.shutdown()
        assert pool.run(_square, 3) == 9  # still usable inline after shutdown


class TestFig12ByteIdentity:
    def test_parallel_report_byte_identical_to_serial(self):
        """The acceptance contract: fig12 with jobs>1 produces byte-identical
        report output to the serial path (reduced grid for test budget)."""
        from repro.experiments import fig12

        sweeps = {"vgg19": [1024]}
        serial = fig12.run(models=["vgg19"], configs=["A", "C"], sweeps=sweeps, jobs=1)
        parallel = fig12.run(models=["vgg19"], configs=["A", "C"], sweeps=sweeps, jobs=2)
        assert fig12.format_results(parallel) == fig12.format_results(serial)
        for s, p in zip(serial, parallel):
            for field in ("model", "config", "gbs", "hybrid_plan"):
                assert getattr(s, field) == getattr(p, field)
            for field in ("dp_no_overlap", "dp_overlap", "best_hybrid"):
                a, b = getattr(s, field), getattr(p, field)
                assert (a == b) or (math.isnan(a) and math.isnan(b))
