"""Shared pytest-benchmark configuration for the experiment harness.

Run everything with::

    pytest benchmarks/ --benchmark-only

Each benchmark of a registered experiment runs it through
``repro.experiments.run_experiment`` — the writer ``repro experiment``
uses — so it writes the same ``results/<experiment>.txt``.  Heavy experiments are
benchmarked pedantically (one round) — the artifact is the reproduced
table, not a timing distribution.
"""

import pytest


@pytest.fixture
def once(benchmark):
    """Run an expensive experiment exactly once under the benchmark timer."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run
