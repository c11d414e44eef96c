"""``serve``: an open loop of plan requests against ``repro serve``.

Set-up starts ``python -m repro serve --port 0`` with a fresh data
directory (default workers, fork mode) and reads its URL from the first
line it prints.  One client thread then sends requests on a schedule drawn
from the seed, whether or not earlier ones have finished: Poisson arrivals
at ``RATE`` requests/s over 48 problems (four models, configs A/B/C, GBS 64
to 512, 16 GPUs).  A problem's first request searches and stores a plan
(cold); later ones read the plan cache (warm).  Each request is submitted,
polled and its result fetched.  Latency runs from the moment the request
was due, so a stalled client charges its delay to the requests it held
back.

Cold and warm requests are reported apart (the server's ``cache_hit``
decides which is which): with about 6% cold, a pooled tail percentile
would sit on the boundary between the two and flap.  The warm tail is the
75th percentile.  The 48 cold searches, about 80 ms each, keep a CPU busy
for about 15% of the send window, and warm requests that arrive meanwhile
wait for a CPU; the higher percentiles fall among those.  Over one set of
ten seeds, the interquartile spread of the warm latency was 0.09 at the
median, 0.14 at the 75th, 0.18 at the 90th and 0.31 at the 95th
percentile.

While set up and measured, the workload holds every CPU out of idle with a
spinner at the lowest scheduling class (``SCHED_IDLE``: it runs only when
nothing else can), the user-space form of a no-idle-states latency
profile.  A served request crosses four processes, and on a virtual machine
waking a halted CPU goes through the host's scheduler: without spinners,
warm p50 moved by 20-40% between runs with the host's load; with them, by
2-8%.  On the 2-core machine the benchmark was defined on, the spinner
shares a physical core with the work, so latencies read 1.5-1.8x those of
an idle machine.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.cluster import config_by_name
from repro.core import profile_model
from repro.core.planner import plan_best
from repro.core.serialization import plan_to_dict
from repro.models import get_model
from repro.serve import PlanClient
from repro.serve.client import ServiceError

import stats
from workloads.base import result

SRC = Path(__file__).resolve().parents[2] / "src"
MODELS = ("vgg19", "bert48", "gnmt16", "resnet50")
PROBLEMS = tuple(
    {"model": m, "config": c, "devices": 16, "gbs": g}
    for m in MODELS for c in "ABC" for g in (64, 128, 256, 512)
)
#: Untimed warm-up request, outside the measured set.
WARMUP = {"model": "gnmt16", "config": "A", "devices": 8, "gbs": 32}
RATE = 30.0
SMOKE_REQUESTS = 30
#: Poll every 2 ms for the first 20 ms, which covers a warm request, then
#: every 10 ms.  Polling a 100 ms cold search every 2 ms would spend most of
#: a core of a 2-core machine on polls and slow every other request.  Each
#: interval is jittered by +-50% (seeded): with a fixed interval, latencies
#: bunch at whole numbers of polls, and the median jumps between bunches.
POLL_S = 0.002
POLL_FAST_FOR_S = 0.020
POLL_SLOW_S = 0.010
#: A request done later than this after it was due misses the goodput limit.
LIMIT_S = 1.0
JOB_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0
#: Problems re-planned in the client after the timed phase.
DIRECT_CHECKS = 4
#: Holds one CPU busy at the lowest scheduling class; exits with its parent.
SPINNER = (
    "import os\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "parent = os.getppid()\n"
    "while os.getppid() == parent:\n"
    "    pass\n"
)


def request_sequence(seed: int, n: int, rate: float = RATE) -> list:
    """``n`` ``(due seconds, problem index)`` pairs, sorted by due time.

    Arrivals are Poisson, conditioned on ``n`` requests in ``n / rate``
    seconds (sorted uniform times), so every seed offers the same load over
    the same window.  New problems appear at evenly spaced requests (at
    most one in ten), in an order drawn from the seed; every other request
    repeats a problem already seen, with Zipf(1) popularity over a
    seed-drawn ranking.  Spacing the first requests evenly keeps the overlap
    of cold searches with warm traffic the same for every seed.
    """
    rng = random.Random(f"serve:{seed}")
    debut = rng.sample(range(len(PROBLEMS)), len(PROBLEMS))
    ranking = rng.sample(range(len(PROBLEMS)), len(PROBLEMS))
    weight = {p: 1.0 / (k + 1) for k, p in enumerate(ranking)}
    m = min(len(PROBLEMS), max(1, n // 10))
    new_at = {k * n // m: debut[k] for k in range(m)}
    window = n / rate
    dues = sorted(rng.uniform(0.0, window) for _ in range(n))
    seen: list[int] = []
    out = []
    for i, due in enumerate(dues):
        if i in new_at:
            seen.append(new_at[i])
            p = new_at[i]
        else:
            p = rng.choices(seen, weights=[weight[q] for q in seen])[0]
        out.append((due, p))
    return out


def served_signature(response: dict) -> list:
    return [json.dumps(response["plan"], sort_keys=True),
            response["estimate"]["latency"]]


class ServeWorkload:
    name = "serve"

    def __init__(self, seed: int, smoke: bool = False, workdir=None):
        self.seed = seed
        self.smoke = smoke
        self.workdir = Path(workdir) if workdir is not None else None
        self.server = None
        self.data_dir = None
        self.spinners: list = []

    # ------------------------------------------------------------- lifetime
    def setup(self) -> None:
        for cpu in sorted(os.sched_getaffinity(0)):
            spinner = subprocess.Popen([sys.executable, "-c", SPINNER],
                                       stdin=subprocess.DEVNULL)
            self.spinners.append(spinner)
            os.sched_setaffinity(spinner.pid, {cpu})
        if self.workdir is not None:
            self.workdir.mkdir(parents=True, exist_ok=True)
        self.data_dir = tempfile.mkdtemp(prefix="serve-", dir=self.workdir)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--data-dir", self.data_dir],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True, env=env,
        )
        line = self.server.stdout.readline()
        if not line.startswith("serving"):
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.client = PlanClient(line.split()[-1], timeout=JOB_TIMEOUT_S)
        job = self.client.wait(self.client.submit(WARMUP)["job_id"],
                               timeout=START_TIMEOUT_S, poll_interval=POLL_S)
        self.client.result(job)

    def close(self) -> None:
        if self.server is not None:
            if self.server.poll() is None:
                self.server.send_signal(signal.SIGTERM)
                try:
                    self.server.communicate(timeout=30)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.communicate()
            else:
                self.server.communicate()
            self.server = None
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None
        for spinner in self.spinners:
            spinner.kill()
            spinner.wait()
        self.spinners = []

    # ---------------------------------------------------------- measurement
    def measure(self, seconds: float, tracer) -> dict:
        n = SMOKE_REQUESTS if self.smoke else round(RATE * seconds)
        self.jitter = random.Random(f"serve-poll:{self.seed}")
        reqs = self._drive(request_sequence(self.seed, n))
        checks, check_failures = self._check(reqs)
        ops = [r for r in reqs if "error" not in r]
        # Requests alternate between untraced (even) and traced (odd).
        plain = [r for r in ops if r["i"] % 2 == 0] if tracer.enabled else ops
        samples = self._e2e(reqs, plain)
        outputs = {str(p): sig for p, sig in self.reference.items()}
        out = result(1, len(reqs) + checks,
                     len(reqs) - len(ops) + check_failures, samples, outputs)
        out["raw"] = {
            "warm": [r["latency"] for r in plain if r["cache_hit"]],
            "cold": [r["latency"] for r in plain if not r["cache_hit"]],
        }
        if tracer.enabled:
            traced = [r for r in ops if r["i"] % 2 == 1]
            for r in traced:
                self._spans(tracer, r)
            out["layers"] = self._layers(reqs, ops, tracer)
            warm = [r["latency"] for r in plain if r["cache_hit"]]
            warm_traced = [r["latency"] for r in traced if r["cache_hit"]]
            out["layers"]["bench.trace_overhead_pct"] = (
                (statistics.median(warm_traced) / statistics.median(warm) - 1) * 100
                if warm and warm_traced else 0.0
            )
        return out

    def _drive(self, sequence) -> list:
        """Send every request on time from one thread; poll the rest between."""
        client = self.client
        t0 = time.perf_counter() + 0.05
        reqs = [{"i": i, "due": t0 + due, "problem": p, "polls": []}
                for i, (due, p) in enumerate(sequence)]
        sent = 0
        active: list[dict] = []
        while sent < len(reqs) or active:
            now = time.perf_counter()
            if sent < len(reqs) and reqs[sent]["due"] <= now:
                self._submit(client, reqs[sent], active)
                sent += 1
                continue
            ready = [r for r in active if r["next_poll"] <= now]
            if ready:
                r = min(ready, key=lambda r: r["next_poll"])
                if self._poll(client, r):
                    active.remove(r)
                continue
            wake = min([r["next_poll"] for r in active]
                       + ([reqs[sent]["due"]] if sent < len(reqs) else []))
            if wake > now:
                time.sleep(wake - now)
        return reqs

    def _interval(self, mean: float) -> float:
        return mean * self.jitter.uniform(0.5, 1.5)

    def _submit(self, client, r, active) -> None:
        r["t_submit"] = time.perf_counter()
        try:
            r["job_id"] = client.submit(PROBLEMS[r["problem"]])["job_id"]
        except ServiceError as e:
            r["error"] = str(e)
            r["status"] = e.status
            return
        r["t_submitted"] = time.perf_counter()
        r["next_poll"] = r["t_submitted"] + self._interval(POLL_S)
        active.append(r)

    def _poll(self, client, r) -> bool:
        """One poll of ``r``'s job; True once the request has settled."""
        t = time.perf_counter()
        try:
            job = client.job(r["job_id"])
            r["polls"].append((t, time.perf_counter()))
            if job["state"] == "done":
                r["t_fetch"] = time.perf_counter()
                response = client.result(job)
                r["t_done"] = time.perf_counter()
                r["latency"] = r["t_done"] - r["due"]
                r["timing"] = job["summary"]["timing"]
                r["cache_hit"] = job["summary"]["cache_hit"]
                r["signature"] = served_signature(response)
                return True
            if job["state"] == "failed":
                r["error"] = job.get("error", "job failed")
                return True
        except ServiceError as e:
            r["error"] = str(e)
            r["status"] = e.status
            return True
        if t - r["t_submit"] > JOB_TIMEOUT_S:
            r["error"] = "timed out"
            return True
        now = time.perf_counter()
        fast = now - r["t_submitted"] < POLL_FAST_FOR_S
        r["next_poll"] = now + self._interval(POLL_S if fast else POLL_SLOW_S)
        return False

    def _check(self, reqs) -> tuple[int, int]:
        """Check outputs after the timed phase.

        A request whose plan differs from its problem's first response is
        marked failed.  Then up to ``DIRECT_CHECKS`` served problems, drawn
        from the seed, are planned again with ``plan_best`` in this process.
        Returns how many direct checks were made and how many failed.
        """
        self.reference: dict[int, list] = {}
        for r in reqs:
            if "error" not in r:
                ref = self.reference.setdefault(r["problem"], r["signature"])
                if r["signature"] != ref:
                    r["error"] = "served plan differs from the problem's first response"
            if "error" in r:
                print(f"[serve] request {r['i']} FAILED: {r['error']}",
                      file=sys.stderr, flush=True)
        served = sorted(self.reference)
        picks = random.Random(f"serve-check:{self.seed}").sample(
            served, min(DIRECT_CHECKS, len(served)))
        failures = 0
        for p in picks:
            spec = PROBLEMS[p]
            res = plan_best(profile_model(get_model(spec["model"])),
                            config_by_name(spec["config"], spec["devices"]),
                            spec["gbs"])
            direct = [json.dumps(plan_to_dict(res.plan), sort_keys=True),
                      res.estimate.latency]
            if direct != self.reference[p]:
                print(f"[serve] problem {p}: served plan differs from plan_best",
                      file=sys.stderr, flush=True)
                failures += 1
        return len(picks), failures

    @staticmethod
    def _e2e(reqs, plain) -> dict:
        """Goodput over the measured span, and warm latency percentiles."""
        done = [r for r in reqs if "error" not in r]
        if not done or not any(r["cache_hit"] for r in plain):
            return {"ops_per_s": [], "latency_ms": [], "tail_latency_ms": []}
        # From the first request's due time to the last result fetched.
        span = max(r["t_done"] for r in done) - reqs[0]["due"]
        on_time = sum(1 for r in done if r["latency"] <= LIMIT_S)
        # A failed request misses every latency limit.
        warm = [r["latency"] for r in plain if r["cache_hit"]]
        warm += [float("inf")] * (len(reqs) - len(done))
        return {
            "ops_per_s": [on_time / span],
            "latency_ms": [stats.percentile(warm, 50) * 1e3],
            "tail_latency_ms": [stats.percentile(warm, 75) * 1e3],
        }

    @staticmethod
    def _spans(tracer, r) -> None:
        kind = "cold" if not r["cache_hit"] else "warm"
        op = tracer.add("op", r["due"], r["t_done"], key=kind, kind="serve")
        tracer.add("loadgen.late", r["due"], r["t_submit"], op)
        tracer.add("serve.submit", r["t_submit"], r["t_submitted"], op)
        tracer.add("serve.wait", r["t_submitted"], r["t_fetch"], op,
                   polls=len(r["polls"]))
        tracer.add("serve.fetch", r["t_fetch"], r["t_done"], op)

    @staticmethod
    def _layers(reqs, ops, tracer) -> dict:
        def p50(xs):
            return statistics.median(xs) if xs else 0.0

        def timing(key, hit=None):
            return [r["timing"][key] for r in ops
                    if key in r["timing"] and (hit is None or r["cache_hit"] == hit)]

        queue_wait = timing("queue_wait_ms")
        own = dict(zip(range(len(tracer.spans)), tracer.self_times()))
        op_total = sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == "op")
        op_own = sum(own[i] for i, s in enumerate(tracer.spans) if s["name"] == "op")
        return {
            "serve.submit_ms": p50([(r["t_submitted"] - r["t_submit"]) * 1e3 for r in ops]),
            "serve.poll_ms": p50([(b - a) * 1e3 for r in ops for a, b in r["polls"]]),
            "serve.fetch_ms": p50([(r["t_done"] - r["t_fetch"]) * 1e3 for r in ops]),
            "serve.queue_wait_ms": p50(queue_wait),
            "serve.queue_wait_ms_p90": stats.percentile(queue_wait, 90) if queue_wait else 0.0,
            "serve.dispatch_ms": p50(timing("dispatch_ms")),
            "serve.exec_ms.warm": p50(timing("exec_ms", True)),
            "serve.exec_ms.cold": p50(timing("exec_ms", False)),
            "serve.serialize_ms": p50(timing("serialize_ms")),
            "serve.polls_per_req": statistics.fmean(len(r["polls"]) for r in ops) if ops else 0.0,
            "serve.cache_hit_ratio": sum(r["cache_hit"] for r in ops) / len(ops) if ops else 0.0,
            "serve.rejected": sum(r.get("status") == 429 for r in reqs),
            "serve.cold_p50_ms": p50([r["latency"] * 1e3 for r in ops if not r["cache_hit"]]),
            "loadgen.late_p95_ms": stats.percentile(
                [(r["t_submit"] - r["due"]) * 1e3 for r in reqs], 95),
            "bench.unattributed_pct": 100.0 * op_own / op_total if op_total else 0.0,
        }


WORKLOAD = ServeWorkload
