"""One module per table/figure of the paper's evaluation (§VI).

Each module exposes a ``run()`` returning structured rows plus a
``format_results`` rendering the paper-style table.  Experiment ``X`` is
the module ``repro.experiments.X`` and writes ``results/X.txt``, always
through :func:`run_experiment` — ``repro experiment`` and the
``benchmarks/`` harness both call it, so every artifact has one name and
one writer.  The ``examples/`` scripts reuse the modules interactively.
"""

from __future__ import annotations

import importlib
import inspect

from repro.experiments.reporting import format_table, write_result

#: Registered experiments, in the order ``repro experiment all`` runs them.
EXPERIMENTS = (
    "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8",
    "fig3", "fig4", "fig7", "fig8", "fig12", "fig14", "convergence",
    "bandwidth_sweep", "straggler_sweep", "schedule_bubbles",
)


def run_experiment(name: str, jobs: int | None = 1, seed: int = 0):
    """Run registered experiment ``name``, write ``results/<name>.txt`` and
    return its rows.

    Sweep-able drivers get ``jobs`` worker processes (``None`` = all cores
    but one) and seeded ones ``seed``; the rest are serial and
    deterministic.
    """
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENTS)}")
    mod = importlib.import_module(f"repro.experiments.{name}")
    params = inspect.signature(mod.run).parameters
    kwargs = {}
    if "jobs" in params:
        kwargs["jobs"] = jobs
    if "seed" in params:
        kwargs["seed"] = seed
    result = mod.run(**kwargs)
    write_result(name, mod.format_results(result))
    return result


__all__ = ["EXPERIMENTS", "format_table", "run_experiment", "write_result"]
