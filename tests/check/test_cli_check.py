"""End-to-end ``repro check`` CLI behaviour."""

from repro.cli import main


ARGS = ["check", "--model", "vgg19", "--config", "B", "--devices", "4",
        "--gbs", "64"]


class TestCheckCommand:
    def test_single_model_passes(self, capsys):
        assert main(ARGS + ["--no-oracles", "--generated", "2"]) == 0
        out = capsys.readouterr().out
        assert "all conformance checks passed" in out
        for cell in ("DAPPLE", "GPipe", "DP", "compiled", "reference"):
            assert cell in out
        assert "gen seed=0" in out

    def test_oracles_row_present_by_default(self, capsys):
        assert main(ARGS) == 0
        assert "oracles" in capsys.readouterr().out

    def test_schedule_runs_engine_oracle(self, capsys):
        assert main(ARGS + ["--schedule", "zb2bp"]) == 0
        out = capsys.readouterr().out
        rows = [line.split("|") for line in out.splitlines() if "|" in line]
        cells = [[c.strip() for c in row] for row in rows]
        assert ["vgg19", "oracles", "engines", "1", "0", "ok"] in cells
        assert "all conformance checks passed" in out

    def test_engine_restriction(self, capsys):
        assert main(ARGS + ["--engine", "compiled", "--no-oracles"]) == 0
        out = capsys.readouterr().out
        assert "compiled" in out
        assert "reference" not in out

    def test_metrics_flag_reports_check_spans(self, capsys):
        assert main(ARGS + ["--no-oracles", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "check.suite" in out
        assert "check.invariants_run" in out

    def test_violations_exit_2_and_name_the_invariant(self, capsys, monkeypatch):
        import repro.check
        from repro.check.invariants import ConformanceReport, Violation

        def fake_verify(*a, **k):
            rep = ConformanceReport(subject="forced")
            rep.ran("warmup-count")
            rep.add(Violation(
                "warmup-count", "synthetic failure", op="F/s1/m2/r0", stage=1
            ))
            return rep

        monkeypatch.setattr(repro.check, "verify_execution", fake_verify)
        assert main(ARGS + ["--no-oracles"]) == 2
        captured = capsys.readouterr()
        assert "VIOLATED" in captured.out
        assert "warmup-count" in captured.err
        assert "F/s1/m2/r0" in captured.err

    def test_unknown_model_exits_2(self, capsys):
        assert main(["check", "--model", "frobnicate"]) == 2
        assert "error:" in capsys.readouterr().err
