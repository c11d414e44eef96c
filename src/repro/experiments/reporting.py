"""Result formatting and persistence for experiment reproductions.

Artifacts go to ``results/<id>.txt`` at the repository root (or
``$REPRO_RESULTS_DIR``).  Registered experiments reach :func:`write_result`
only through :func:`repro.experiments.run_experiment`; the benchmark-only
ablations and extensions call it directly.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Sequence


def results_dir() -> Path:
    """Directory where reproduced tables/figures are written."""
    env = os.environ.get("REPRO_RESULTS_DIR")
    if env:
        path = Path(env)
    else:
        # repo root = parents[3] of this file (src/repro/experiments/..).
        path = Path(__file__).resolve().parents[3] / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Render an aligned ASCII table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for r in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def write_result(experiment_id: str, text: str, echo: bool = True) -> Path:
    """Persist ``text`` under ``results/<experiment_id>.txt`` and echo it."""
    path = results_dir() / f"{experiment_id}.txt"
    path.write_text(text + "\n")
    if echo:
        print(f"\n=== {experiment_id} ===\n{text}\n(written to {path})")
    return path
