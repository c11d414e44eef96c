"""Schedule conformance checking and differential testing (`repro.check`).

Three pillars, one report type:

* :mod:`repro.check.invariants` — static verification of a built task
  graph + executed trace against DAPPLE's semantics (1F1B interleave,
  warm-up counts, Ki memory bound, resource exclusivity, synchronous
  weight sync, analytical makespan lower bound);
* :mod:`repro.check.oracles` — differential oracles over the repo's
  redundant implementations (compiled vs reference engine, batched vs
  per-seed ensemble, folded vs per-replica task graph, level-batched vs
  scalar planner, evaluate vs explain, clean fault path), with the slow
  reference sides in
  :mod:`repro.check.reference`;
* :mod:`repro.check.generators` — seeded random instances so both run
  beyond the model zoo.

Entry points: ``repro check`` in the CLI, ``Simulator.run(validate=True)``
for opportunistic in-line checking, and the suite in ``tests/check/``.
"""

from repro.check.invariants import (
    ConformanceError,
    ConformanceReport,
    Violation,
    check_execution,
    check_simulation,
    verify_execution,
)
from repro.check.oracles import (
    ScalarPlanner,
    oracle_batched_ensemble,
    oracle_clean_faults,
    oracle_engines,
    oracle_explain,
    oracle_fold,
    oracle_memory_m_independence,
    oracle_plan_cache,
    oracle_planner,
    oracle_served_plan,
    planner_diffs,
    run_oracles,
)
from repro.check.generators import GeneratedCase, generate_cases, random_case
from repro.check.reference import evaluate_seed, per_seed_ensemble, run_reference

__all__ = [
    "ConformanceError",
    "ConformanceReport",
    "Violation",
    "check_execution",
    "check_simulation",
    "verify_execution",
    "oracle_batched_ensemble",
    "oracle_clean_faults",
    "oracle_engines",
    "oracle_explain",
    "oracle_fold",
    "oracle_memory_m_independence",
    "oracle_plan_cache",
    "oracle_planner",
    "oracle_served_plan",
    "run_oracles",
    "ScalarPlanner",
    "planner_diffs",
    "evaluate_seed",
    "per_seed_ensemble",
    "run_reference",
    "GeneratedCase",
    "generate_cases",
    "random_case",
]
