"""Machinery shared by the workloads.

The plan, run and ensemble workloads repeat a fixed round of operations
(ops).  An op is one user-visible call: a plan search, a clean evaluation,
a 32-seed ensemble.  Its ``kind`` names the problem, case or ensemble it
ran.  Each round yields one sample of every end-to-end metric, and a run
reports the median over its rounds:

* ``ops_per_s``: geometric mean over kinds of work done per second, so a
  slowdown on a small problem shows even when a large one dominates wall
  time;
* ``latency_ms``: arithmetic mean over kinds of one op's latency, which
  weights the large problems;
* ``tail_latency_ms``: latency of the slowest kind.

A traced run alternates untraced and traced rounds.  End-to-end metrics
come from the untraced rounds, per-layer metrics from the traced ones, and
the gap between the two is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import stats
from tracing import NullTracer

NULL = NullTracer()
#: Fewest rounds a measured run makes, so a median exists.
MIN_ROUNDS = 3
#: On a machine this much slower than the nominal round times, a run stops
#: starting rounds that would end past ``OVERRUN`` times the run length
#: (after ``MIN_ROUNDS``), so the whole benchmark keeps to its time budget.
#: The record says how many rounds ran.
OVERRUN = 1.2
E2E = ("ops_per_s", "latency_ms", "tail_latency_ms")


@dataclass
class Op:
    """One timed operation; ``seconds`` is None when it failed."""

    kind: str
    seconds: float | None
    #: Units of work the op completed (scenarios for an ensemble).
    work: int = 1

    @property
    def ok(self) -> bool:
        return self.seconds is not None


def failed_op(kind: str, why: str) -> Op:
    """Report a failed op on stderr and return it."""
    print(f"[{kind}] FAILED: {why}", file=sys.stderr, flush=True)
    return Op(kind, None)


def crashed_op(kind: str) -> Op:
    """An op that raised: print the traceback, count it as failed."""
    traceback.print_exc(file=sys.stderr)
    return failed_op(kind, "exception")


def digest(outputs) -> str:
    """Short SHA-256 of a JSON-safe description of a run's outputs."""
    blob = json.dumps(outputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def round_metrics(ops) -> dict | None:
    """One round's end-to-end sample (None if no op succeeded)."""
    secs: dict[str, float] = {}
    work: dict[str, int] = {}
    count: dict[str, int] = {}
    for op in ops:
        if op.ok:
            secs[op.kind] = secs.get(op.kind, 0.0) + op.seconds
            work[op.kind] = work.get(op.kind, 0) + op.work
            count[op.kind] = count.get(op.kind, 0) + 1
    if not secs:
        return None
    latency = [secs[k] / count[k] for k in secs]
    return {
        "ops_per_s": stats.geomean(work[k] / secs[k] for k in secs),
        "latency_ms": statistics.fmean(latency) * 1e3,
        "tail_latency_ms": max(latency) * 1e3,
    }


def overhead_pct(plain_ops, traced_ops) -> float:
    """Per-kind median latency, traced over untraced, geometric mean, in %."""
    def medians(ops):
        by_kind: dict[str, list] = {}
        for op in ops:
            if op.ok:
                by_kind.setdefault(op.kind, []).append(op.seconds)
        return {k: statistics.median(v) for k, v in by_kind.items()}

    plain, traced = medians(plain_ops), medians(traced_ops)
    kinds = sorted(set(plain) & set(traced))
    if not kinds:
        return 0.0
    return (stats.geomean(traced[k] / plain[k] for k in kinds) - 1.0) * 100.0


def span_metrics(tracer, stems: dict) -> dict:
    """Median self time in ms of each (span, key), for spans named in ``stems``.

    The metric is ``<stem>_ms`` for unkeyed spans and ``<stem>_ms.<key>``
    otherwise.
    """
    groups: dict[str, list] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        stem = stems.get(span["name"])
        if stem is None:
            continue
        name = f"{stem}_ms" + (f".{span['key']}" if span["key"] else "")
        groups.setdefault(name, []).append(own)
    return {name: statistics.median(v) * 1e3 for name, v in groups.items()}


def unattributed_pct(tracer) -> float:
    """Share of op time that no layer span covers (the benchmark's own glue)."""
    total = own_total = 0.0
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span["name"] == "op":
            total += span["end"] - span["start"]
            own_total += own
    return 100.0 * own_total / total if total else 0.0


def result(rounds, attempted, failed, samples, outputs) -> dict:
    """The measurement a workload hands back to the worker process."""
    return {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
        "metrics": {
            name: statistics.median(v) if v else 0.0 for name, v in samples.items()
        },
        "digest": digest(outputs),
    }


class RoundWorkload:
    """A workload that repeats a fixed round of ops."""

    name = ""
    #: Wall seconds of one round at the revision that defined the benchmark,
    #: on a 2-core machine.  The round count is ``run_seconds`` of
    #: ``BENCHMARK.json`` divided by this, so a parent and a child commit
    #: always do the same work.
    nominal_round_s = 1.0
    #: Span name -> per-layer metric stem, for spans whose self time is a
    #: per-layer metric.
    span_stems: dict = {}

    def __init__(self, seed: int, smoke: bool = False, workdir=None):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    # Hooks ----------------------------------------------------------------
    def setup(self) -> None:
        """Profiling, fixture loading and one untimed warm-up op."""

    def close(self) -> None:
        """Release what :meth:`setup` started."""

    def patches(self) -> list:
        """Public functions the program calls internally, timed when traced."""
        return []

    def round(self, tracer) -> list:
        raise NotImplementedError

    def finish(self) -> list:
        """Output checks after the last round, as ops."""
        return []

    def outputs(self):
        """JSON-safe outputs, digested into the run record."""
        return {}

    def layer_metrics(self, tracer) -> dict:
        """Per-layer metrics that are not a span's self time."""
        return {}

    # Measurement ------------------------------------------------------------
    def rounds_for(self, seconds: float, traced: bool) -> int:
        n = 1 if self.smoke else max(MIN_ROUNDS, round(seconds / self.nominal_round_s))
        return max(n, 2) if traced else n

    def measure(self, seconds: float, tracer) -> dict:
        plain, traced = [], []
        start = time.perf_counter()
        overdue = start + OVERRUN * seconds
        for r in range(self.rounds_for(seconds, tracer.enabled)):
            now = time.perf_counter()
            if r >= MIN_ROUNDS and now + (now - start) / r > overdue:
                break
            if tracer.enabled and r % 2 == 1:
                with tracer.wrapped(self.patches()):
                    traced.append(self.round(tracer))
            else:
                plain.append(self.round(NULL))
        plain_ops = [op for rnd in plain for op in rnd]
        traced_ops = [op for rnd in traced for op in rnd]
        ops = plain_ops + traced_ops + self.finish()
        per_round = [m for m in map(round_metrics, plain) if m is not None]
        samples = {name: [m[name] for m in per_round] for name in E2E}
        out = result(len(plain) + len(traced), len(ops),
                     sum(not op.ok for op in ops), samples, self.outputs())
        out["raw"] = {}
        for op in plain_ops:
            if op.ok:
                out["raw"].setdefault(op.kind, []).append(op.seconds)
        if tracer.enabled:
            layers = self.layer_metrics(tracer)
            layers.update(span_metrics(tracer, self.span_stems))
            layers["bench.unattributed_pct"] = unattributed_pct(tracer)
            layers["bench.trace_overhead_pct"] = overhead_pct(plain_ops, traced_ops)
            out["layers"] = layers
        return out
