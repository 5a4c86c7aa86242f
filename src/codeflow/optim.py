"""Adam with standard bias correction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def init_adam(params: ModelParams) -> AdamState:
    state = AdamState()
    for name, t in params.tensors.items():
        state.m[name] = np.zeros_like(t.data)
        state.v[name] = np.zeros_like(t.data)
    return state


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """Updates the moments in place and rebinds each parameter's `data` to a
    new array; returns the advanced state.

    The textbook expressions run op for op in their usual order, but into
    two scratch arrays per parameter (one in the gradient's dtype, reused
    for the update when the moments share it), so the result is bit-identical
    to evaluating each expression into a fresh array."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, tensor in params.tensors.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        scratch = np.multiply(g, 1.0 - beta1)
        m *= beta1
        m += scratch
        np.multiply(g, 1.0 - beta2, out=scratch)
        scratch *= g
        v *= beta2
        v += scratch
        denom = np.divide(v, bc2)
        np.sqrt(denom, out=denom)
        denom += eps
        update = np.divide(m, bc1, out=scratch if scratch.dtype == m.dtype else None)
        update /= denom
        update *= lr
        tensor.data = tensor.data - update.astype(tensor.data.dtype, copy=False)
    return state
