"""Benchmark model zoo: layer graphs calibrated to the paper's Tables I & II."""

from repro.models.graph import (
    FP32,
    GRAD_BYTES_PER_PARAM,
    OPTIMIZER_STATE_BYTES,
    LayerGraph,
    LayerSpec,
    uniform_model,
)
from repro.models.amoebanet import amoebanet36, amoebanet_layers
from repro.models.bert import bert48, bert_large, bert_layers
from repro.models.gnmt import gnmt16, gnmt_layers
from repro.models.gpt import gpt2_medium, gpt2_xl, gpt_layers
from repro.models.resnet import resnet50
from repro.models.vgg import vgg19
from repro.models.xlnet import xlnet36, xlnet_layers
from repro.models.zoo import (
    BENCHMARK_MODELS,
    PAPER_FIGURES,
    PaperFigures,
    get_model,
    model_names,
    paper_gbs,
)

__all__ = [
    "FP32",
    "GRAD_BYTES_PER_PARAM",
    "OPTIMIZER_STATE_BYTES",
    "LayerGraph",
    "LayerSpec",
    "uniform_model",
    "amoebanet36",
    "amoebanet_layers",
    "bert48",
    "bert_large",
    "bert_layers",
    "gnmt16",
    "gnmt_layers",
    "gpt2_medium",
    "gpt2_xl",
    "gpt_layers",
    "resnet50",
    "vgg19",
    "xlnet36",
    "xlnet_layers",
    "BENCHMARK_MODELS",
    "PAPER_FIGURES",
    "PaperFigures",
    "get_model",
    "model_names",
    "paper_gbs",
]
