"""Discrete-event simulation substrate.

This package provides the execution engine underneath the DAPPLE runtime:
a deterministic list-scheduling simulator over a static task graph stored
as indexed columns (:mod:`repro.sim.engine`), the columnar trace every production run returns (:mod:`repro.sim.compiled`),
the event loop itself, which runs one duration row or a whole fault
ensemble in one pass (:mod:`repro.sim.batched`), and the reference
engine's event-list trace with per-device memory timelines
(:mod:`repro.sim.trace`).

The simulator plays the role that the TensorFlow graph executor plays in the
paper: it runs operations as soon as their data/control dependencies are
satisfied and their resources (GPU streams, network links) are free.
"""

from repro.sim.batched import BatchedSimulation, run_batched
from repro.sim.chrome_trace import export_chrome_trace, trace_to_events
from repro.sim.compiled import (
    ColumnarMemoryTimeline,
    ColumnarTrace,
    compile_graph,
    run_compiled,
)
from repro.sim.engine import ENGINES, Op, TaskGraph, Simulator, SimulationResult
from repro.sim.trace import Trace, TraceEvent, MemoryTimeline

__all__ = [
    "Op",
    "TaskGraph",
    "Simulator",
    "SimulationResult",
    "ENGINES",
    "ColumnarTrace",
    "ColumnarMemoryTimeline",
    "compile_graph",
    "run_compiled",
    "BatchedSimulation",
    "run_batched",
    "Trace",
    "TraceEvent",
    "MemoryTimeline",
    "export_chrome_trace",
    "trace_to_events",
]
