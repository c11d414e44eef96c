"""Parallel fan-out of independent experiment grid points.

The Fig. 12/13/14 drivers evaluate a grid (model × config × GBS, or model ×
GPU count) whose points are fully independent: each runs a planner search
plus a handful of simulator replays and takes seconds.  :func:`sweep` fans
such a grid across a ``ProcessPoolExecutor`` with two guarantees:

* **Deterministic ordering.**  Results are collected in *submission* order,
  never completion order, so a parallel run produces byte-identical report
  output to the serial path (enforced by ``tests/perf/test_sweep.py``).
* **Graceful fallback.**  ``jobs <= 1``, single-point grids, platforms
  where forking workers fails (sandboxed CI), and a worker dying mid-sweep
  (e.g. OOM-killed) all run serially in-process — same results, no crash.

Workers must be *module-level* functions called with picklable positional
arguments (strings, ints), because each point re-derives profiles and
clusters inside the worker via the experiment layer's ``lru_cache``'d
helpers.  The ``fork`` start method is used where available so workers
inherit already-warm caches from the parent — including the process-default
content-addressed :class:`~repro.core.plancache.PlanCache` in-memory tier
that ``repro.experiments.common`` threads through every planner call, so a
grid point re-planning an already-seen (model, cluster, GBS, config) hits
instead of searching.  Spawn-based pools get the same reuse from the
cache's optional on-disk tier (``repro … --plan-cache DIR``).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, Sequence

import repro.obs as obs

__all__ = ["default_jobs", "sweep", "ForkPool"]


def default_jobs() -> int:
    """Worker count for ``jobs=None``: all cores but one (min 1)."""
    return max(1, (os.cpu_count() or 1) - 1)


def _run_serial(fn: Callable[..., Any], tasks: Sequence[tuple]) -> list[Any]:
    return [fn(*t) for t in tasks]


def _call_with_context(ctx_dict: dict, fn: Callable[..., Any], *args) -> Any:
    """Pool-worker shim: re-install a trace context, capture telemetry.

    Module-level (picklable) wrapper around
    :func:`repro.obs.context.run_captured`; the parent unwraps the payload
    with :func:`repro.obs.context.ingest_payload`.
    """
    from repro.obs.context import run_captured

    return run_captured(ctx_dict, fn, *args)


class ForkPool:
    """Persistent fork-preferred process pool with inline degradation.

    The machinery :func:`sweep` historically created per call, factored out
    so long-running consumers (the :mod:`repro.serve` worker pool) can hold
    one pool across many submissions: workers fork from the parent *once*
    and inherit its already-warm in-memory state — including the
    process-default :class:`~repro.core.plancache.PlanCache` tier — for the
    lifetime of the pool.

    Degradation is permanent and silent: if the platform cannot spawn
    processes (sandboxed CI) or the pool breaks, every subsequent call runs
    ``fn`` inline in the calling thread — same results, no crash.  Pass
    ``inline=True`` to skip processes entirely (deterministic single-process
    testing).
    """

    def __init__(self, jobs: int | None = None, *, inline: bool = False):
        import threading

        self.jobs = max(1, jobs if jobs is not None else default_jobs())
        self._inline = inline
        self._pool = None
        self._lock = threading.Lock()  # submit() may come from many threads

    @property
    def mode(self) -> str:
        """``"fork"`` while a process pool is live/possible, else ``"inline"``."""
        return "inline" if self._inline else "fork"

    def _ensure(self):
        with self._lock:
            if self._pool is None:
                import multiprocessing as mp
                from concurrent.futures import ProcessPoolExecutor

                try:
                    context = mp.get_context("fork")
                except ValueError:  # platform without fork (e.g. Windows)
                    context = mp.get_context()
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs, mp_context=context
                )
            return self._pool

    def _degrade(self) -> None:
        self.shutdown(wait=False)
        self._inline = True

    def run(self, fn: Callable[..., Any], *args) -> Any:
        """Execute ``fn(*args)`` on a pool worker (or inline) and return it.

        Exceptions raised *by fn* propagate unchanged in both modes; only
        pool-infrastructure failures trigger inline degradation.

        When the calling thread has a :mod:`repro.obs.context` trace
        context installed, the call is wrapped so the worker re-installs
        the context and ships its spans/metrics back for parent-side
        ingestion — cross-process calls stay on one connected trace.
        (Inline calls need nothing: the context is already on the thread.)
        """
        if self._inline:
            return fn(*args)
        from concurrent.futures.process import BrokenProcessPool

        from repro.obs import context as trace_context

        snap = trace_context.snapshot()
        try:
            if snap is not None:
                payload = self._ensure().submit(
                    _call_with_context, snap, fn, *args
                ).result()
                return trace_context.ingest_payload(payload)
            return self._ensure().submit(fn, *args).result()
        except (OSError, PermissionError, BrokenProcessPool):
            self._degrade()
            return fn(*args)

    def map_ordered(self, fn: Callable[..., Any], tasks: Sequence[tuple]) -> list[Any]:
        """Apply ``fn`` to every task, returning results in task order."""
        if self._inline:
            return _run_serial(fn, tasks)
        from concurrent.futures.process import BrokenProcessPool

        try:
            pool = self._ensure()
            futures = [pool.submit(fn, *t) for t in tasks]
            return [f.result() for f in futures]
        except (OSError, PermissionError, BrokenProcessPool):
            # Process spawn blocked (sandbox, fd limits) or a worker died
            # (e.g. OOM-killed): rerun the whole batch serially.
            self._degrade()
            return _run_serial(fn, tasks)

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=wait)
            except Exception:
                pass


def sweep(
    fn: Callable[..., Any],
    tasks: Iterable[tuple],
    jobs: int | None = 1,
) -> list[Any]:
    """Apply ``fn(*task)`` to every task, optionally across processes.

    Parameters
    ----------
    fn:
        Module-level worker function (must be picklable).
    tasks:
        Iterable of positional-argument tuples, one per grid point.
    jobs:
        Worker processes; ``None`` → :func:`default_jobs`, ``<= 1`` → serial.

    Returns results **in task order** regardless of completion order.
    """
    tasks = [tuple(t) for t in tasks]
    if jobs is None:
        jobs = default_jobs()
    jobs = min(jobs, len(tasks))
    with obs.span(
        "perf.sweep",
        fn=getattr(fn, "__name__", str(fn)),
        tasks=len(tasks),
        jobs=jobs,
    ):
        if jobs <= 1:
            return _run_serial(fn, tasks)

        pool = ForkPool(jobs)
        try:
            return pool.map_ordered(fn, tasks)
        finally:
            pool.shutdown()
