"""One workload in a fresh process; started by ``bench/run.py``.

The worker sets the workload up (imports, profiling, fixture loading, server
start, one untimed warm-up op) and prints ``READY <json>``.  The parent
times set-up from process start to that line.  With ``--setup-only`` the
worker then exits; otherwise it measures and prints the result as one JSON
line.  The run length is ``run_seconds`` of ``BENCHMARK.json``.
``PYTHONPATH`` must hold the program's ``src`` directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads
from tracing import NullTracer, Tracer

DECLARATION = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
RUN_SECONDS = json.loads(DECLARATION.read_text())["run_seconds"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True,
                    help="directory for scratch files (the serve data dir)")
    ap.add_argument("--spans", help="JSONL file for the traced run's spans")
    args = ap.parse_args(argv)

    workload = workloads.load(args.workload)(args.seed, args.smoke, args.workdir)
    try:
        workload.setup()
        import numpy

        print("READY " + json.dumps({"numpy": numpy.__version__}), flush=True)
        if args.setup_only:
            return 0
        tracer = Tracer() if args.trace else NullTracer()
        out = workload.measure(RUN_SECONDS, tracer)
        if args.trace and args.spans:
            tracer.write_jsonl(args.spans)
        print(json.dumps(out), flush=True)
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
