"""Performance plumbing: parallel experiment sweeps.

The planner itself is vectorized in :mod:`repro.core.fast_scan`; this
package covers the layer above it — fanning independent experiment grid
points across worker processes with deterministic result ordering.
"""

from repro.perf.sweep import ForkPool, default_jobs, sweep

__all__ = ["ForkPool", "default_jobs", "sweep"]
