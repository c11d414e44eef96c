"""The benchmark's workloads, one module each.

A workload module is imported only by the process that runs it, so its
imports count towards that workload's set-up time and no other's.
"""

from __future__ import annotations

import importlib

NAMES = ("plan", "run", "ensemble", "serve")


def load(name: str):
    """The workload class registered under ``name``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r} (one of {', '.join(NAMES)})")
    return importlib.import_module(f"workloads.{name}").WORKLOAD
