"""Data-flow-aware code encoder: a mini-language frontend, variable data-flow
graphs, graph-guided attention masking, a small trainable transformer,
masked-token pre-training plus edge prediction and node alignment (one pair
scorer for both), and retrieval/clone-detection heads."""

__version__ = "0.1.0"
