"""Adam with standard bias correction over a model's flat parameter store."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """The moments, flat arrays in the layout of `ModelParams.flat`."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_adam(params: ModelParams) -> AdamState:
    return AdamState(np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_step(params: ModelParams, state: AdamState, lr: float) -> AdamState:
    """Updates the moments and `params.flat` in place from `params.grad`;
    returns the advanced state. Raises ValueError, before any change, for
    moments of another store's size or a tensor of `params` rebound away from
    its store, which the update would miss.

    The textbook expressions run op for op in their usual order over the
    whole store, into two scratch arrays, so the result is bit-identical to
    evaluating each expression per tensor into a fresh array."""
    tensors = params.tensors.values()
    if state.m.shape != params.flat.shape or not all(np.may_share_memory(t.data, params.flat) for t in tensors):
        raise ValueError("adam_step needs moments of params' store and every tensor in it, none rebound since")
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    g, m, v = params.grad, state.m, state.v
    scratch = np.multiply(g, 1.0 - BETA1)
    m *= BETA1
    m += scratch
    np.multiply(g, 1.0 - BETA2, out=scratch)
    scratch *= g
    v *= BETA2
    v += scratch
    denom = np.divide(v, bc2)
    np.sqrt(denom, out=denom)
    denom += EPS
    update = np.divide(m, bc1, out=scratch)
    update /= denom
    update *= lr
    params.flat -= update
    return state
