"""``results/`` and the experiment registry agree.

Experiment ``X`` writes ``results/X.txt`` through one function,
:func:`repro.experiments.run_experiment`.  So every registered experiment
has exactly one committed file under its own name, no artifact is
committed twice under two names, and the drivers that finish in well under
a second regenerate their committed file byte for byte here.  The slower
drivers are compared the same way by the nightly CI job.
"""

from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS, run_experiment

RESULTS = Path(__file__).resolve().parents[2] / "results"

#: Artifacts only the ``benchmarks/`` ablation and extension tests write.
BENCHMARK_ONLY_PREFIXES = ("ablation_", "ext_")

#: Registered drivers that run in well under a second.
FAST_EXPERIMENTS = (
    "table1", "table2", "table3", "table4", "table6",
    "fig3", "fig4", "fig7", "fig8", "convergence",
)


def _committed() -> list[Path]:
    return sorted(RESULTS.glob("*.txt"))


def test_every_experiment_has_its_own_committed_file():
    stems = {p.stem for p in _committed()}
    missing = [name for name in EXPERIMENTS if name not in stems]
    assert not missing, f"registered experiments without results/<name>.txt: {missing}"
    stray = sorted(
        s for s in stems
        if s not in EXPERIMENTS and not s.startswith(BENCHMARK_ONLY_PREFIXES)
    )
    assert not stray, f"results/ files named after no registered experiment: {stray}"


def test_no_two_committed_results_are_identical():
    by_content: dict[bytes, list[str]] = {}
    for path in _committed():
        by_content.setdefault(path.read_bytes(), []).append(path.name)
    duplicates = [names for names in by_content.values() if len(names) > 1]
    assert not duplicates, f"byte-identical results files: {duplicates}"


@pytest.mark.parametrize("name", FAST_EXPERIMENTS)
def test_fast_experiment_regenerates_byte_for_byte(name, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    run_experiment(name)
    fresh = (tmp_path / f"{name}.txt").read_bytes()
    assert fresh == (RESULTS / f"{name}.txt").read_bytes(), (
        f"results/{name}.txt is stale — regenerate with `repro experiment {name}`"
    )


def test_unknown_experiment_is_refused(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    with pytest.raises(ValueError, match="unknown experiment 'fig13'"):
        run_experiment("fig13")
    assert not list(tmp_path.iterdir())
