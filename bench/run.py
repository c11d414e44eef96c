"""Run the benchmark and print its metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]
                         [--smoke] [--out DIR]

Each workload runs in fresh worker processes (``bench/worker.py``): it is
set up ``SETUPS`` times, each time in a new process, and ``setup_s`` is the
median; the last process then measures.  The run prints every end-to-end
metric with its unit, writes one JSON record per workload to ``--out``
(default ``bench/out``), and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics, or with ``--trace 1`` the per-layer ones.
Metric names, units and bounds are declared in ``BENCHMARK.json``, and so
is the run length: ``run_seconds``, which fixes each workload's round or
request count.  ``--seconds`` is accepted only with that value.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DECLARATION = ROOT / "BENCHMARK.json"
SETUPS = 5
#: Wall-clock cap on one workload, set-ups included.
DEADLINE_S = 170.0
RECORD_SCHEMA = "bench-record-v1"

#: Per-layer metric prefix -> (layer, end-to-end metric it should move,
#: workloads where it should move it, workloads where no change is predicted;
#: None where there is nothing to predict).
LAYERS = (
    ("profiler.", "core.profiler", "setup_s", "all", None),
    ("planner.", "core.planner (+ fast_scan, placement, cluster.transfer)",
     "ops_per_s; serve.cold_p50_ms", "plan; serve (16-GPU searches)",
     "run, ensemble"),
    ("plancache.", "core.plancache (disk-tier round trip, measured in plan only)",
     "latency_ms", "serve (warm requests read this tier)",
     "plan (the probe is outside ops_per_s)"),
    ("runtime.executor_init", "schedules + runtime.executor init", "ops_per_s",
     "run (mostly gnmt16)", "plan"),
    ("runtime.build", "runtime.executor lowering", "ops_per_s", "run, ensemble",
     "plan, serve"),
    ("runtime.ops", "runtime.executor lowering", "ops_per_s", "run, ensemble",
     "plan, serve"),
    ("sim.batched", "sim.batched", "ops_per_s", "ensemble", "run"),
    ("sim.", "sim (compiled)", "ops_per_s", "run", "ensemble"),
    ("runtime.analyze", "runtime.analysis + faults.analysis", "ops_per_s", "run",
     "ensemble (uses scenario views)"),
    ("faults.critical_path", "runtime.analysis + faults.analysis", "ops_per_s",
     "run", "ensemble (uses scenario views)"),
    ("faults.bubbles", "runtime.analysis + faults.analysis", "ops_per_s", "run",
     "ensemble (uses scenario views)"),
    ("faults.", "faults", "ops_per_s", "ensemble", "run"),
    ("serve.", "serve", "latency_ms, tail_latency_ms, ops_per_s", "serve",
     "plan, run, ensemble"),
    ("loadgen.", "load generator (diagnostic: did the client fall behind?)", None,
     "serve", None),
    ("bench.", "benchmark (diagnostic: tracing cost, glue)", None, "all", None),
)


def layer_of(metric: str) -> tuple:
    return next(row for row in LAYERS if metric.startswith(row[0]))[1:]


def revision() -> str:
    """Git revision of the checkout, or ``unknown`` outside a git repository."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


# --------------------------------------------------------------------------- #
# Worker processes
# --------------------------------------------------------------------------- #
def _pump(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


def _stop_group(pgid: int) -> None:
    """Kill whatever the worker left in its session and wait for it to go."""
    for _ in range(100):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_worker(cmd: list, deadline: float):
    """Run one worker; returns ``(setup seconds, ready payload, result)``.

    ``result`` is the worker's last JSON line, or None for a set-up-only
    worker.  Raises RuntimeError if the worker fails or passes the deadline.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True, env=env, cwd=ROOT, start_new_session=True)
    lines: queue.Queue = queue.Queue()
    reader = threading.Thread(target=_pump, args=(proc.stdout, lines), daemon=True)
    reader.start()
    setup = ready = last = None
    try:
        while True:
            line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            if line is None:
                break
            if ready is None and line.startswith("READY "):
                setup = time.perf_counter() - t0
                ready = json.loads(line[len("READY "):])
            elif line.strip():
                last = line
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except (queue.Empty, subprocess.TimeoutExpired):
        raise RuntimeError("worker passed the deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        _stop_group(proc.pid)
        reader.join(timeout=5)
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker exited with code {code}")
    return setup, ready, (json.loads(last) if "--setup-only" not in cmd else None)


def run_workload(name: str, args, decl: dict) -> dict:
    """Set up ``name`` several times, measure it once; returns its record."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    spans = out / f"{tag}.spans.jsonl"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--trace", str(args.trace), "--workdir", str(out / "tmp")]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--spans", str(spans)]
    setups = 1 if args.smoke else SETUPS
    deadline = time.monotonic() + DEADLINE_S
    setup_s = []
    for i in range(setups):
        last = i == setups - 1
        setup, ready, res = run_worker(cmd if last else cmd + ["--setup-only"], deadline)
        setup_s.append(setup)

    metrics = {}
    for m in decl["end_to_end"]:
        samples = setup_s if m["name"] == "setup_s" else res["samples"].get(m["name"], [])
        value = stats.quartiles(samples)[1] if samples else 0.0
        metrics[m["name"]] = {
            "value": value, "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            **(stats.summary(samples) if samples else {"n": 0}),
        }
    layers = {}
    if args.trace:
        produced = res.get("layers", {})
        for m in decl["per_layer"]:
            layers[m["name"]] = {"value": produced.get(m["name"], 0.0), "unit": m["unit"],
                                 "measured": m["name"] in produced}
        undeclared = sorted(set(produced) - set(layers))
        if undeclared:
            raise RuntimeError(f"undeclared per-layer metrics: {undeclared}")
    record = {
        "schema": RECORD_SCHEMA,
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "run_seconds": decl["run_seconds"],
        "rounds": res["rounds"],
        "setups": setups,
        "revision": revision(),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": ready["numpy"],
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "correct": res["failed"] == 0,
        "digest": res["digest"],
        "metrics": metrics,
        "layers": layers,
        "spans": str(spans) if args.trace else None,
        "raw": res.get("raw", {}),
    }
    (out / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


# --------------------------------------------------------------------------- #
# Printing
# --------------------------------------------------------------------------- #
def print_record(rec: dict) -> None:
    ok = rec["attempted"] - rec["failed"]
    print(f"{rec['workload']}: {rec['rounds']} round(s), {ok}/{rec['attempted']} ops ok, "
          f"{'correct' if rec['correct'] else 'INCORRECT'}, outputs {rec['digest']}, "
          f"revision {rec['revision'][:12]}")
    for name, m in rec["metrics"].items():
        spread = (f"q1 {m['q1']:.4g}  q3 {m['q3']:.4g}  n={m['n']}" if m["n"] else "n=0")
        print(f"  {name:<18} {m['value']:12.4f} {m['unit']:<4} ({spread})  "
              f"bound {m['bound']:.0%}")
    if not rec["layers"]:
        return
    print(f"  per-layer metrics of the traced rounds (layers this workload "
          f"does not touch omitted); spans in {rec['spans']}")
    current = None
    for name, m in rec["layers"].items():
        if not m["measured"]:
            continue
        layer, moves, on, unchanged = layer_of(name)
        if layer != current:
            current = layer
            line = f"  {layer}"
            if moves:
                line += f": should move {moves} on {on}"
            if unchanged:
                line += f"; no change predicted on {unchanged}"
            print(line)
        print(f"    {name:<44} {m['value']:14.4f} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run the benchmark.")
    ap.add_argument("--workload", default="all", help="workload name or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="must equal run_seconds of BENCHMARK.json, which "
                         "fixes the run length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: alternate traced rounds, print per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="1 round (2 traced), 30 requests, 1 set-up: checks the wiring")
    ap.add_argument("--out", default=str(BENCH / "out"), help="record directory")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    decl = json.loads(DECLARATION.read_text())
    names = [w["name"] for w in decl["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(n not in names for n in chosen):
        print(f"error: unknown workload {args.workload!r} (one of {names})", file=sys.stderr)
        return 2
    if args.seconds not in (None, decl["run_seconds"]):
        print(f"error: --seconds must be run_seconds of {DECLARATION.name} "
              f"({decl['run_seconds']}): both sides of a comparison do the same work",
              file=sys.stderr)
        return 2

    records = []
    for name in chosen:
        try:
            rec = run_workload(name, args, decl)
        except RuntimeError as e:
            print(f"error: workload {name}: {e}", file=sys.stderr)
            return 1
        print_record(rec)
        records.append(rec)

    kind = "layers" if args.trace else "metrics"
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else f"{rec['workload']}."
        for name, m in rec[kind].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
