"""Deterministic fault injection and robustness analysis.

DAPPLE's synchronous latency model assumes perfectly uniform devices and
links; this subsystem measures what happens when they are not:

* :mod:`repro.faults.models` — seeded perturbation models (compute jitter,
  persistent stragglers, degraded/flaky links, transient stall-and-recover
  failures), each a pure duration transform over a built task graph;
* :mod:`repro.faults.inject` — composes models into the executor pipeline
  without touching the bit-identical clean path;
* :mod:`repro.faults.analysis` — Monte-Carlo ensembles: makespan quantiles,
  per-stage bubble-inflation attribution, critical-path shift detection;
* :mod:`repro.faults.robust` — re-scores the planner's top-K plans under an
  ensemble and selects by quantile makespan instead of the clean score.

CLI: ``repro faults --model bert48 --config A`` compares DAPPLE, GPipe, and
DP robustness on one model; the ``straggler_sweep`` experiment sweeps
straggler severity across hardware configs.
"""

from repro.faults.analysis import (
    EnsembleReport,
    SeedOutcome,
    critical_path,
    critical_path_stages,
    run_ensemble,
    run_ensembles,
    stage_bubble_fractions,
)
from repro.faults.inject import (
    FaultedExecution,
    execute_plan_faulted,
    perturb_graph,
    rebuild_with_durations,
)
from repro.faults.models import (
    ComputeJitter,
    DegradedLink,
    PerturbationModel,
    SlowDevice,
    TransientFailure,
    perturb_durations,
)
from repro.faults.robust import CandidateRobustness, RobustPlanResult, robust_plan

__all__ = [
    "PerturbationModel",
    "ComputeJitter",
    "SlowDevice",
    "DegradedLink",
    "TransientFailure",
    "perturb_graph",
    "perturb_durations",
    "rebuild_with_durations",
    "execute_plan_faulted",
    "FaultedExecution",
    "run_ensemble",
    "run_ensembles",
    "EnsembleReport",
    "SeedOutcome",
    "critical_path",
    "critical_path_stages",
    "stage_bubble_fractions",
    "robust_plan",
    "RobustPlanResult",
    "CandidateRobustness",
]
