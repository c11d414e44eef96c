"""End-to-end tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestExitCodes:
    def test_unknown_model_exits_2(self, capsys):
        assert main(["plan", "--model", "frobnicate"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_exits_2(self, capsys):
        assert main(["run", "--model", "gnmt16", "--devices", "3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_argparse_rejection_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--config", "Z"])
        assert exc.value.code == 2


class TestModels:
    def test_lists_zoo(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in ("bert48", "gnmt16", "vgg19", "amoebanet36"):
            assert name in out


class TestPlan:
    def test_plan_resnet_is_dp(self, capsys):
        assert main(["plan", "--model", "resnet50", "--config", "A", "--gbs", "2048"]) == 0
        out = capsys.readouterr().out
        assert "plan    : DP" in out

    def test_plan_save_and_run(self, capsys, tmp_path):
        plan_file = str(tmp_path / "plan.json")
        assert main([
            "plan", "--model", "gnmt16", "--config", "A", "--gbs", "1024",
            "--save", plan_file,
        ]) == 0
        data = json.loads(open(plan_file).read())
        assert data["model"] == "GNMT-16"
        capsys.readouterr()
        assert main([
            "run", "--model", "gnmt16", "--config", "A", "--gbs", "1024",
            "--plan", plan_file,
        ]) == 0
        out = capsys.readouterr().out
        assert "iteration" in out
        assert "samples/s" in out

    def test_pipeline_only_flag(self, capsys):
        assert main([
            "plan", "--model", "resnet50", "--config", "A", "--gbs", "2048",
            "--pipeline-only", "--max-stages", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "plan    : DP" not in out


class TestRun:
    def test_run_with_gantt_and_trace(self, capsys, tmp_path):
        trace_file = str(tmp_path / "trace.json")
        assert main([
            "run", "--model", "gnmt16", "--config", "B", "--gbs", "512",
            "--gantt", "--trace", trace_file, "--recompute", "sqrt",
            "--warmup", "PB",
        ]) == 0
        out = capsys.readouterr().out
        assert "gpu:" in out  # gantt rows
        payload = json.loads(open(trace_file).read())
        assert payload["traceEvents"]

    def test_gpipe_schedule_option(self, capsys):
        assert main([
            "run", "--model", "gnmt16", "--config", "B", "--gbs", "256",
            "--schedule", "gpipe",
        ]) == 0


class TestObservability:
    ARGS = ["--model", "gnmt16", "--config", "B", "--gbs", "256"]

    def test_plan_explain_prints_decomposition(self, capsys):
        assert main(["plan", *self.ARGS, "--explain"]) == 0
        out = capsys.readouterr().out
        assert "L = Tw + Ts + Te" in out
        assert "per-extended-stage decomposition" in out

    def test_plan_metrics_prints_summary_tables(self, capsys):
        assert main(["plan", *self.ARGS, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "Instrumentation spans" in out
        assert "planner.search" in out
        assert "planner.plans_evaluated" in out

    def test_plan_trace_jsonl_validates(self, capsys, tmp_path):
        from repro.obs.schema import validate_jsonl

        log = tmp_path / "plan.jsonl"
        assert main(["plan", *self.ARGS, "--trace", str(log)]) == 0
        assert validate_jsonl(log) > 1

    def test_run_trace_unifies_sim_and_spans(self, capsys, tmp_path):
        from repro.obs.sinks import OBS_PID, SIM_PID

        trace = tmp_path / "run.json"
        assert main(["run", *self.ARGS, "--trace", str(trace)]) == 0
        payload = json.loads(trace.read_text())
        xs = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in xs} == {SIM_PID, OBS_PID}
        span_names = {e["name"] for e in xs if e["pid"] == OBS_PID}
        assert "sim.run" in span_names

    def test_run_metrics_includes_sim_counters(self, capsys):
        assert main(["run", *self.ARGS, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "sim.events" in out
        assert "sim.occupancy" in out

    def test_faults_metrics_includes_ensemble_series(self, capsys):
        assert main([
            "faults", "--model", "vgg19", "--config", "B", "--devices", "4",
            "--gbs", "64", "--ensemble", "2", "--metrics",
        ]) == 0
        out = capsys.readouterr().out
        assert "faults.seeds_evaluated" in out
        assert "faults.ensemble_seconds" in out


class TestCompare:
    def test_compare_table(self, capsys):
        assert main(["compare", "--model", "vgg19", "--config", "C", "--gbs", "512"]) == 0
        out = capsys.readouterr().out
        assert "DAPPLE" in out
        assert "DP + overlap" in out
        assert "PipeDream" in out


class TestExperiment:
    def test_single_experiment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["experiment", "fig8"]) == 0
        assert (tmp_path / "fig8.txt").exists()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])

    def test_seed_flag_reaches_seeded_experiments(self):
        import inspect

        from repro.experiments import EXPERIMENTS

        args = build_parser().parse_args(["experiment", "convergence", "--seed", "7"])
        assert args.seed == 7
        # Every seeded experiment driver accepts the plumbed kwarg.
        import importlib

        for name in ("convergence", "straggler_sweep"):
            assert name in EXPERIMENTS
            mod = importlib.import_module(f"repro.experiments.{name}")
            assert "seed" in inspect.signature(mod.run).parameters


class TestFaults:
    def test_faults_table_for_three_systems(self, capsys):
        assert main([
            "faults", "--model", "vgg19", "--config", "B", "--devices", "4",
            "--gbs", "64", "--ensemble", "3",
        ]) == 0
        out = capsys.readouterr().out
        for label in ("DAPPLE", "GPipe", "DP", "clean", "p95"):
            assert label in out

    def test_faults_seed_changes_header_not_determinism(self, capsys):
        argv = ["faults", "--model", "vgg19", "--config", "B", "--devices", "4",
                "--gbs", "64", "--ensemble", "3", "--jitter", "0.2",
                "--straggler", "1.0"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert main(argv + ["--seed", "9"]) == 0
        assert "seed base 9" in capsys.readouterr().out

    def test_faults_robust_k_prints_candidates(self, capsys):
        assert main([
            "faults", "--model", "vgg19", "--config", "B", "--devices", "4",
            "--gbs", "64", "--ensemble", "3", "--robust-k", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Robust selection" in out
        assert "clean-opt" in out

    def test_faults_without_models_errors(self, capsys):
        assert main([
            "faults", "--model", "vgg19", "--config", "B", "--devices", "4",
            "--straggler", "1.0", "--jitter", "0.0",
        ]) == 1
        assert "no perturbation" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--straggler", "--jitter",
                                      "--link-factor", "--fail-stall"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_faults_non_finite_flag_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["faults", "--model", "vgg19", "--config", "B",
                  "--devices", "4", flag, value])
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err


class TestServeCLI:
    """`repro submit` / `repro cache` against an in-process service."""

    @pytest.fixture()
    def server(self, tmp_path):
        from repro.serve import PlanServer

        srv = PlanServer(
            workers=1, exec_mode="inline", queue_depth=8,
            data_dir=tmp_path / "serve",
        ).start()
        try:
            yield srv
        finally:
            srv.close()

    def test_submit_prints_served_plan(self, capsys, server):
        argv = ["submit", "--url", server.url, "--model", "vgg19",
                "--config", "C", "--devices", "16"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "plan     :" in out
        assert "latency  :" in out
        assert "fresh search" in out
        # identical request: served from the content-addressed cache
        assert main(argv) == 0
        assert "plan-cache hit" in capsys.readouterr().out

    def test_submit_json_output(self, capsys, server):
        assert main(["submit", "--url", server.url, "--model", "vgg19",
                     "--config", "C", "--devices", "16", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["schema"] == "plan-response-v1"
        assert result["plan"]["stages"]

    def test_submit_no_wait_prints_status_url(self, capsys, server):
        assert main(["submit", "--url", server.url, "--model", "vgg19",
                     "--config", "C", "--devices", "16", "--no-wait"]) == 0
        out = capsys.readouterr().out
        assert "/v1/jobs/job-" in out

    def test_submit_bad_request_exits_2(self, capsys, server):
        # config A needs a multiple of 8 devices; the service 400s
        assert main(["submit", "--url", server.url, "--model", "vgg19",
                     "--config", "A", "--devices", "12"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_submit_unreachable_service_exits_1(self, capsys):
        assert main(["submit", "--url", "http://127.0.0.1:9",
                     "--model", "vgg19", "--timeout", "2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_cache_stats_and_clear(self, capsys, server):
        assert main(["submit", "--url", server.url, "--model", "vgg19",
                     "--config", "C", "--devices", "16"]) == 0
        capsys.readouterr()
        cache_dir = str(server.cache.directory)
        assert main(["cache", "stats", "--plan-cache", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "disk entries" in out
        assert main(["cache", "clear", "--plan-cache", cache_dir]) == 0
        assert "cleared 1 entry" in capsys.readouterr().out
        assert main(["cache", "stats", "--plan-cache", cache_dir]) == 0
        assert "| 0" in capsys.readouterr().out.replace("  ", " ")

    def test_cache_clear_missing_dir_exits_2(self, capsys, tmp_path):
        assert main(["cache", "clear", "--plan-cache",
                     str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err
