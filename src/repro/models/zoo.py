"""Benchmark-model registry with paper-reported reference figures.

``get_model(name)`` builds the layer graph; ``PAPER_FIGURES`` carries the
numbers from the paper's Tables I/II/V used by calibration tests and the
table-reproduction benchmarks (parameter count, gradient size, profile batch
size, default global batch size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.models.amoebanet import amoebanet36
from repro.models.bert import bert48, bert_large
from repro.models.gnmt import gnmt16
from repro.models.gpt import gpt2_medium, gpt2_xl
from repro.models.graph import LayerGraph
from repro.models.resnet import resnet50
from repro.models.vgg import vgg19
from repro.models.xlnet import xlnet36

# Traffic volumes in the paper (Table I) read as decimal units; device
# memory (Table II) as binary.
MB = 1e6
GB = 1024**3


@dataclass(frozen=True)
class PaperFigures:
    """Reference values from the paper for one benchmark model."""

    params: float  # Table II "# of Params"
    profile_batch: int  # Table II profiling batch size
    profile_memory_bytes: float  # Table II memory cost at that batch
    global_batch_size: int  # Table V GBS column
    gradient_bytes: float | None = None  # Table I
    boundary_activation_bytes: float | None = None  # Table I (round trip)


_BUILDERS: dict[str, Callable[[], LayerGraph]] = {
    "gnmt16": gnmt16,
    "bert48": bert48,
    "bert-large": bert_large,
    "xlnet36": xlnet36,
    "gpt2-medium": gpt2_medium,
    "gpt2-xl": gpt2_xl,
    "resnet50": resnet50,
    "vgg19": vgg19,
    "amoebanet36": amoebanet36,
}

PAPER_FIGURES: dict[str, PaperFigures] = {
    "gnmt16": PaperFigures(
        params=291e6,
        profile_batch=64,
        profile_memory_bytes=3.9 * GB,
        global_batch_size=1024,
        gradient_bytes=1.1e9,
        boundary_activation_bytes=26 * MB,
    ),
    "bert48": PaperFigures(
        params=640e6,
        profile_batch=2,
        profile_memory_bytes=11.4 * GB,
        global_batch_size=64,
        gradient_bytes=2.8e9,
        boundary_activation_bytes=8.8 * MB,
    ),
    "xlnet36": PaperFigures(
        params=500e6,
        profile_batch=1,
        profile_memory_bytes=12 * GB,
        global_batch_size=128,
        gradient_bytes=2.1e9,
        boundary_activation_bytes=4.2 * MB,
    ),
    "resnet50": PaperFigures(
        params=24.5e6,
        profile_batch=128,
        profile_memory_bytes=1 * GB,
        global_batch_size=2048,
    ),
    "vgg19": PaperFigures(
        params=137e6,
        profile_batch=32,
        profile_memory_bytes=5.6 * GB,
        global_batch_size=2048,
        gradient_bytes=550e6,
        boundary_activation_bytes=6 * MB,
    ),
    "amoebanet36": PaperFigures(
        params=933e6,
        profile_batch=1,
        profile_memory_bytes=20 * GB,
        global_batch_size=128,
        gradient_bytes=3.7e9,
        boundary_activation_bytes=11.2 * MB,
    ),
}

#: Models evaluated in the paper's main tables (Table V order).
BENCHMARK_MODELS = ["resnet50", "vgg19", "gnmt16", "bert48", "xlnet36", "amoebanet36"]


def model_names() -> list[str]:
    """All registered model names."""
    return sorted(_BUILDERS)


def get_model(name: str) -> LayerGraph:
    """Build a benchmark model by registry name (case-insensitive)."""
    key = name.strip().lower()
    if key not in _BUILDERS:
        raise KeyError(f"unknown model {name!r}; available: {model_names()}")
    return _BUILDERS[key]()


def paper_gbs(name: str) -> int:
    """The paper's global batch size for zoo model ``name``, or 64 if none."""
    ref = PAPER_FIGURES.get(name.strip().lower())
    return ref.global_batch_size if ref else 64
