"""Tests of the benchmark itself.  Run with ``PYTHONPATH=src pytest bench``."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import workloads
from tracing import NullTracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECL = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in DECL["end_to_end"]]
LAYERS = [m["name"] for m in DECL["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run_bench(*args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_declaration_within_limits():
    assert set(DECL) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(DECL["workloads"]) <= 8
    assert 1 <= len(DECL["end_to_end"]) <= 16
    assert 1 <= len(DECL["per_layer"]) <= 128
    names = [w["name"] for w in DECL["workloads"]] + E2E + LAYERS
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert [w["name"] for w in DECL["workloads"]] == list(workloads.NAMES)
    for w in DECL["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in DECL["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 <= m["bound"] <= 0.25
    for m in DECL["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in DECL["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECL["end_to_end"])
    assert DECL["paths"] == ["bench"]
    assert isinstance(DECL["run_seconds"], int) and 1 <= DECL["run_seconds"] <= 60
    assert len(DECL["command"]) <= 32
    for arg in DECL["command"]:
        assert len(arg) <= 200 and not arg.startswith("/") and ".." not in arg
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.fixture(scope="module")
def traced_smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    proc = run_bench("--workload", "all", "--smoke", "--trace", "1", "--seed", "3",
                     "--out", str(out))
    return proc, out


def test_smoke_emits_every_metric(traced_smoke):
    proc, out = traced_smoke
    assert proc.returncode == 0, proc.stderr
    line = last_json(proc.stdout)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    records = [json.loads(p.read_text()) for p in out.glob("*.json")]
    assert sorted(r["workload"] for r in records) == sorted(workloads.NAMES)
    seen = set()
    for rec in records:
        assert list(rec["metrics"]) == E2E
        assert all(m["value"] > 0 for m in rec["metrics"].values()), rec["workload"]
        assert list(rec["layers"]) == LAYERS
        for name, m in rec["layers"].items():
            assert math.isfinite(m["value"])
            if m["measured"]:
                seen.add(name)
        assert rec["machine"]["nproc"] >= 1
        assert Path(rec["spans"]).stat().st_size > 0
    # Every declared per-layer metric is measured by some workload.
    assert sorted(set(LAYERS) - seen) == []
    assert set(line["metrics"]) == {f"{w}.{n}" for w in workloads.NAMES for n in LAYERS}


def test_untraced_last_line_holds_end_to_end_metrics(tmp_path):
    proc = run_bench("--workload", "run", "--smoke", "--trace", "0", "--seed", "2",
                     "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    line = last_json(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == E2E
    for name, m in line["metrics"].items():
        assert set(m) == {"value", "unit"} and m["value"] > 0, name


def test_corrupted_fixture_raises_fail_frac(tmp_path):
    from workloads.fixtures import DIRECTORY
    from workloads.run import RunWorkload

    shutil.copytree(DIRECTORY, tmp_path, dirs_exist_ok=True)
    (tmp_path / "bert48.B16.json").write_text('{"model": "BERT-48", "num_layers": 49}')
    workload = RunWorkload(seed=1, smoke=True, fixture_dir=tmp_path)
    workload.setup()
    out = workload.measure(1, NullTracer())
    assert 0 < out["failed"] < out["attempted"]


def test_wrong_cached_plan_raises_fail_frac(monkeypatch, tmp_path):
    import workloads.plan as plan
    from repro.core.plancache import PlanCache

    monkeypatch.setattr(plan, "PROBLEMS", (("gnmt16", "C", 16, 64), ("vgg19", "C", 16, 2048)))
    encode = PlanCache._encode

    def wrong(result):
        payload = encode(result)
        payload["plan"]["num_micro_batches"] //= 2
        return payload

    monkeypatch.setattr(PlanCache, "_encode", staticmethod(wrong))
    workload = plan.PlanWorkload(seed=1, smoke=True, workdir=tmp_path)
    workload.setup()
    try:
        out = workload.measure(1, NullTracer())
    finally:
        workload.close()
    assert out["failed"] == out["attempted"] == 2


def test_serve_requests_are_seeded():
    from workloads.serve import PROBLEMS, RATE, request_sequence

    a = request_sequence(7, 300)
    assert a == request_sequence(7, 300)
    assert a != request_sequence(8, 300)
    dues = [due for due, _ in a]
    assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] <= 300 / RATE
    assert all(0 <= p < len(PROBLEMS) for _, p in a)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "plan", "--seed", "1",
                     "--seconds", str(DECL["run_seconds"]), "--trace", "0",
                     cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_length_is_fixed_by_the_declaration():
    proc = run_bench("--workload", "plan", "--seconds", str(DECL["run_seconds"] + 1),
                     timeout=60)
    assert proc.returncode == 2 and "run_seconds" in proc.stderr
    assert '"correct"' not in proc.stdout


def _record(workload, value, failed=0):
    return {
        "schema": compare.SCHEMA, "workload": workload, "trace": 0, "smoke": False,
        "machine": {"nproc": 2}, "attempted": 10, "failed": failed,
        "metrics": {"ops_per_s": {"value": value, "better": "higher", "bound": 0.1}},
    }


def test_compare_verdicts_and_exit_code(tmp_path, capsys):
    same = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert compare.verdict(same, same, "higher", 0.1) == "within bound"
    assert compare.verdict(same, [v * 0.7 for v in same], "higher", 0.1) == "worse"
    assert compare.verdict(same, [v * 1.3 for v in same], "higher", 0.1) == "better"
    assert compare.verdict(same, [v * 1.3 for v in same], "lower", 0.1) == "worse"
    noisy = [5.0, 15.0, 10.0, 8.0, 12.0]
    assert compare.verdict(noisy, same, "higher", 0.1) == "unresolved"

    def write(directory, values, failed=0):
        directory.mkdir()
        for i, v in enumerate(values):
            (directory / f"r{i}.json").write_text(json.dumps(_record("plan", v, failed)))

    write(tmp_path / "a", same)
    write(tmp_path / "b", same)
    write(tmp_path / "c", same, failed=1)
    write(tmp_path / "d", [v * 0.5 for v in same])
    assert compare.compare(tmp_path / "a", tmp_path / "b") == 0
    assert compare.compare(tmp_path / "a", tmp_path / "c") == 1
    assert compare.compare(tmp_path / "a", tmp_path / "d") == 1
    assert "worse" in capsys.readouterr().out
