"""Golden-result regression: deterministic experiment subsets must
reproduce their committed snapshots byte-for-byte.

Each golden file under ``tests/golden/`` is the exact ``format_results``
output of a small fixed grid slice (one model/config/GBS point).  A diff
here means simulated numbers, planner decisions, or table formatting
changed — any of which silently invalidates the committed ``results/``
tables, so it must be deliberate: regenerate the snapshot (run the subset
and overwrite the file) in the same change that alters the behaviour.

The consistency tests additionally assert the committed *full* results
files still contain the freshly-computed subset rows cell-for-cell, so a
code change that forgets to regenerate ``results/`` fails here too.
"""

from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent.parent / "golden"
RESULTS = Path(__file__).resolve().parent.parent.parent / "results"


def _cells(line: str) -> list[str]:
    return [c.strip() for c in line.split("|")]


def _find_row(text: str, key_cells: list[str]) -> list[str] | None:
    """First row of a formatted table whose leading cells equal ``key_cells``."""
    n = len(key_cells)
    for line in text.splitlines():
        if "|" in line and _cells(line)[:n] == key_cells:
            return _cells(line)
    return None


@pytest.fixture(scope="module")
def fig12_subset() -> str:
    from repro.experiments import fig12

    pts = fig12.run(models=["vgg19"], configs=["A"], sweeps={"vgg19": [1024]})
    return fig12.format_results(pts)


@pytest.fixture(scope="module")
def table7_subset() -> str:
    from repro.experiments import table7

    return table7.format_results([table7.row("vgg19", 1024, 2)])


@pytest.fixture(scope="module")
def straggler_subset() -> str:
    from repro.experiments import straggler_sweep

    p = straggler_sweep.point("bert48", "A", 1.25, num_seeds=8, base_seed=0)
    return straggler_sweep.format_results([p])


class TestGoldenSnapshots:
    def test_fig12_reproduces_byte_for_byte(self, fig12_subset):
        assert fig12_subset + "\n" == (GOLDEN / "fig12_vgg19_A_1024.txt").read_text()

    def test_table7_reproduces_byte_for_byte(self, table7_subset):
        assert table7_subset + "\n" == (GOLDEN / "table7_vgg19_2x8.txt").read_text()

    def test_straggler_reproduces_byte_for_byte(self, straggler_subset):
        assert straggler_subset + "\n" == (
            GOLDEN / "straggler_bert48_A_1.25.txt"
        ).read_text()

    def test_rerun_is_deterministic(self, straggler_subset):
        from repro.experiments import straggler_sweep

        again = straggler_sweep.format_results(
            [straggler_sweep.point("bert48", "A", 1.25, num_seeds=8, base_seed=0)]
        )
        assert again == straggler_subset


class TestCommittedResultsConsistency:
    """The full ``results/*.txt`` tables agree with a fresh subset run."""

    def test_fig12_results_row_matches(self, fig12_subset):
        committed = (RESULTS / "fig12.txt").read_text()
        fresh = _find_row(fig12_subset, ["vgg19", "A", "1024"])
        full = _find_row(committed, ["vgg19", "A", "1024"])
        assert fresh is not None and full is not None
        assert full == fresh, (
            "results/fig12.txt is stale for vgg19/A/1024 — "
            "regenerate with `repro experiment fig12`"
        )

    def test_table7_results_row_matches(self, table7_subset):
        committed = (RESULTS / "table7.txt").read_text()
        fresh = _find_row(table7_subset, ["VGG-19", "2x8"])
        full = _find_row(committed, ["VGG-19", "2x8"])
        assert fresh is not None and full is not None
        assert full == fresh, (
            "results/table7.txt is stale for VGG-19 2x8 — "
            "regenerate with `repro experiment table7`"
        )

    def test_straggler_results_rows_match(self, straggler_subset):
        committed = (RESULTS / "straggler_sweep.txt").read_text()
        for system in ("DAPPLE", "GPipe", "DP"):
            fresh = _find_row(
                straggler_subset, ["bert48", "A", "1.25", system]
            )
            full = _find_row(committed, ["bert48", "A", "1.25", system])
            assert fresh is not None and full is not None
            assert full == fresh, (
                f"results/straggler_sweep.txt is stale for bert48/A/1.25 "
                f"{system} — regenerate with `repro experiment straggler_sweep`"
            )

    def test_headers_match_formatters(self, fig12_subset, straggler_subset):
        for fname, subset in (
            ("fig12.txt", fig12_subset),
            ("straggler_sweep.txt", straggler_subset),
        ):
            committed = (RESULTS / fname).read_text()
            want = _cells(next(
                l for l in subset.splitlines() if l.startswith("Model")
            ))
            got = _cells(next(
                l for l in committed.splitlines() if l.startswith("Model")
            ))
            assert got == want, f"{fname} header drifted"
