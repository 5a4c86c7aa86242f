"""Adam with standard bias correction over one flat parameter store."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams


@dataclass
class AdamState:
    """`flat` holds the parameters end to end in `params.tensors` order, and
    `views` the reshaped view of it that `init_adam` bound to each tensor's
    `data`. `m` and `v` are flat arrays of the same layout."""

    flat: np.ndarray
    views: tuple[np.ndarray, ...]
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_adam(params: ModelParams) -> AdamState:
    """Moves the parameters into one flat array and rebinds each tensor's
    `data` to its view of it. The parameters must share one dtype."""
    tensors = list(params.tensors.values())
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) != 1:
        raise ValueError(f"parameters of one dtype expected, got {sorted(map(str, dtypes))}")
    flat = np.concatenate([t.data for t in tensors], axis=None)
    parts = np.split(flat, np.cumsum([t.data.size for t in tensors])[:-1])
    for t, part in zip(tensors, parts):
        t.data = part.reshape(t.data.shape)
    return AdamState(flat, tuple(t.data for t in tensors), np.zeros_like(flat), np.zeros_like(flat))


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """Updates the moments and the parameters in place; returns the advanced
    state. Raises ValueError unless each tensor of `params` still holds the
    view `init_adam` bound to it, since the update would otherwise land in a
    store nobody reads.

    The gradients are gathered into one flat array of their common dtype, and
    the textbook expressions run op for op in their usual order over the
    whole store, into that array (reused for the denominator when it shares
    the moments' dtype) and one scratch array (reused for the update on the
    same condition). So the result is bit-identical to evaluating each
    expression per tensor into a fresh array."""
    tensors = params.tensors.values()
    if len(tensors) != len(state.views) or any(x.data is not view for x, view in zip(tensors, state.views)):
        raise ValueError("adam_step needs the parameters this state's init_adam packed, none of them rebound since")
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    g = np.concatenate([grads[name] for name in params.tensors], axis=None)
    m, v = state.m, state.v
    scratch = np.multiply(g, 1.0 - beta1)
    m *= beta1
    m += scratch
    np.multiply(g, 1.0 - beta2, out=scratch)
    scratch *= g
    v *= beta2
    v += scratch
    denom = np.divide(v, bc2, out=g if g.dtype == v.dtype else None)
    np.sqrt(denom, out=denom)
    denom += eps
    update = np.divide(m, bc1, out=scratch if scratch.dtype == m.dtype else None)
    update /= denom
    update *= lr
    state.flat -= update
    return state
