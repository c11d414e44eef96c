"""Fig. 8 reproduction: how to replicate a stage — split vs round-robin.

The paper's example: a 2-stage pipeline whose first stage costs twice the
second per micro-batch, so stage 0 is replicated on two devices.  Two ways
to feed the replicas:

* **(a) split** — each micro-batch is sliced in half across the replicas
  (DAPPLE's choice; costs a split/concat but keeps both replicas busy);
* **(b) round-robin** — alternate whole micro-batches between replicas
  (PipeDream's choice; no reshaping, but the pipeline's downstream stage
  sees bursty arrivals and the tail effect wastes the last odd micro-batch
  slots).

DAPPLE's split approach should win despite its split/concat overhead
(paper §V-B2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.transfer import split_concat_overhead
from repro.sim import Op, Simulator, TaskGraph


@dataclass(frozen=True)
class Fig8Result:
    split_makespan: float
    round_robin_makespan: float

    @property
    def split_advantage(self) -> float:
        return self.round_robin_makespan / self.split_makespan


def _build(round_robin: bool, num_micro_batches: int, t1: float, comm: float,
           act_bytes: float) -> TaskGraph:
    """Stage0 = 2·t1 per micro-batch on 2 replicas; stage1 = t1 on 1 device."""
    g = TaskGraph()
    t0 = 2.0 * t1
    for mb in range(num_micro_batches):
        if round_robin:
            dev = f"gpu:{mb % 2}"
            g.add(Op(f"F0/{mb}", t0, resources=(dev,), priority=mb,
                     tags={"kind": "F", "stage": 0, "mb": mb}))
            g.add(Op(f"B0/{mb}", 2 * t0, resources=(dev,), priority=mb,
                     tags={"kind": "B", "stage": 0, "mb": mb}))
        else:
            over = split_concat_overhead(act_bytes, 2)
            for r in range(2):
                g.add(Op(f"F0/{mb}/r{r}", t0 / 2 + over, resources=(f"gpu:{r}",),
                         priority=mb, tags={"kind": "F", "stage": 0, "mb": mb}))
                g.add(Op(f"B0/{mb}/r{r}", t0 + over, resources=(f"gpu:{r}",),
                         priority=mb, tags={"kind": "B", "stage": 0, "mb": mb}))
        g.add(Op(f"send/{mb}", comm, priority=mb, tags={"kind": "send", "mb": mb}))
        g.add(Op(f"F1/{mb}", t1, resources=("gpu:2",), priority=mb,
                 tags={"kind": "F", "stage": 1, "mb": mb}))
        g.add(Op(f"B1/{mb}", 2 * t1, resources=("gpu:2",), priority=mb,
                 tags={"kind": "B", "stage": 1, "mb": mb}))
        g.add(Op(f"sendback/{mb}", comm, priority=mb, tags={"kind": "sendback", "mb": mb}))

        f0s = [f"F0/{mb}"] if round_robin else [f"F0/{mb}/r0", f"F0/{mb}/r1"]
        b0s = [f"B0/{mb}"] if round_robin else [f"B0/{mb}/r0", f"B0/{mb}/r1"]
        for f in f0s:
            g.add_dep(f, f"send/{mb}")
        g.add_dep(f"send/{mb}", f"F1/{mb}")
        g.add_dep(f"F1/{mb}", f"B1/{mb}")
        g.add_dep(f"B1/{mb}", f"sendback/{mb}")
        for b in b0s:
            g.add_dep(f"sendback/{mb}", b)
    return g


def run(num_micro_batches: int = 5, t1: float = 10e-3, comm: float = 0.2e-3,
        act_bytes: float = 32 * 2**20, sim_engine: str = "compiled") -> Fig8Result:
    split = Simulator(
        _build(False, num_micro_batches, t1, comm, act_bytes), engine=sim_engine
    ).run()
    rr = Simulator(
        _build(True, num_micro_batches, t1, comm, act_bytes), engine=sim_engine
    ).run()
    return Fig8Result(split_makespan=split.makespan, round_robin_makespan=rr.makespan)


def format_results(res: Fig8Result) -> str:
    return "\n".join(
        [
            "Fig. 8: stage replication — micro-batch splitting vs round-robin",
            f"(a) split each micro-batch across replicas : {res.split_makespan * 1e3:.2f} ms",
            f"(b) round-robin whole micro-batches        : {res.round_robin_makespan * 1e3:.2f} ms",
            f"splitting wins by {100 * (res.split_advantage - 1):.1f}% "
            "(tail effect outweighs split/concat overhead, paper §V-B2)",
        ]
    )
