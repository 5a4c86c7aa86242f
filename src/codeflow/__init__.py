"""Data-flow-aware code encoder: a mini-language frontend, variable data-flow
graphs, graph-guided attention masking, a small trainable transformer,
masked-token pre-training plus edge prediction and node alignment (one pair
scorer for both), and retrieval/clone-detection heads."""

__version__ = "0.1.0"

from .dfg import DataFlowGraph, VariableNode, build_dfg, extract_dfg
from .encoding import (
    EncodedExample,
    Limits,
    Vocabulary,
    additive_mask,
    build_attention_mask,
    build_vocab,
    encode_example,
)
from .model import Activations, ModelConfig, ModelParams, compute_gradients, forward, init_params

__all__ = [
    "DataFlowGraph",
    "VariableNode",
    "build_dfg",
    "extract_dfg",
    "EncodedExample",
    "Limits",
    "Vocabulary",
    "additive_mask",
    "build_attention_mask",
    "build_vocab",
    "encode_example",
    "Activations",
    "ModelConfig",
    "ModelParams",
    "compute_gradients",
    "forward",
    "init_params",
    "__version__",
]
