"""Public-API surface tests: every advertised export exists and resolves."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.cluster",
    "repro.models",
    "repro.core",
    "repro.runtime",
    "repro.baselines",
    "repro.training",
    "repro.viz",
    "repro.experiments",
    "repro.faults",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    for symbol in getattr(mod, "__all__", []):
        assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol!r}"


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_star_import_is_clean():
    ns: dict = {}
    exec("from repro import *", ns)
    assert "plan_and_run" in ns


@pytest.mark.parametrize(
    "name",
    ["table1", "table2", "table3", "table4", "table5", "table6", "table7",
     "table8", "fig3", "fig4", "fig7", "fig8", "fig12", "fig14",
     "convergence", "bandwidth_sweep", "straggler_sweep"],
)
def test_experiment_modules_expose_run_and_format(name):
    mod = importlib.import_module(f"repro.experiments.{name}")
    assert callable(mod.run)
    assert callable(mod.format_results)


def test_cli_experiment_registry_consistent():
    from repro.experiments import EXPERIMENTS

    for name in EXPERIMENTS:
        importlib.import_module(f"repro.experiments.{name}")
