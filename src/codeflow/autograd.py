"""Minimal reverse-mode autodiff over numpy arrays.

Desk-scale engine: an op with an input that requires a gradient records a
vector-Jacobian closure and its parents; `backward` replays them in reverse
topological order. An op on inputs that require none records nothing, so its
inputs can be freed as soon as the caller drops them. Arrays keep whatever
dtype they were built with, so the same model code runs in float32 for
training and float64 for the finite-difference harness.

Gradient arrays may share memory: `add` hands the same upstream gradient to
both parents, and `backward` stores the first gradient an interior node
receives as is. So no VJP writes into an array it did not allocate in that
call; the fused kernels below write in place only into their own buffers.
A backward step writes only into a leaf's own `grad`, summing in place: the
array the leaf holds (`model.ModelParams` gives each parameter its view of
one gradient store), else a copy of the first gradient it receives.
"""

from __future__ import annotations

import math

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _vjp=None, grad=None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = grad
        self.requires_grad = requires_grad
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    # backward -----------------------------------------------------------

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar loss")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        # Interior nodes are freed as soon as their gradient has been passed
        # on, so the graph is released while backward runs; leaves keep theirs.
        while order:
            node = order.pop()
            if node._vjp is None:
                continue
            if node.grad is not None:
                for parent, g in zip(node._parents, node._vjp(node.grad)):
                    if g is None or not parent.requires_grad:
                        continue
                    if parent._vjp is not None:  # an interior node
                        parent.grad = g if parent.grad is None else parent.grad + g
                    elif parent.grad is None:
                        parent.grad = g.copy()
                    else:
                        parent.grad += g
            node.grad = None
            node._vjp = None
            node._parents = ()


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (reverses numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _make(data, parents, vjp) -> Tensor:
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, _parents=parents if req else (), _vjp=vjp if req else None)


def _pair(a, b) -> tuple[Tensor, Tensor]:
    # Cast plain-number operands to the tensor's dtype so float32 graphs
    # are not silently promoted to float64 by numpy's scalar rules.
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    elif isinstance(b, Tensor) and not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.data.dtype))
    return as_tensor(a), as_tensor(b)


# elementwise ------------------------------------------------------------


# `add` and `mul` skip the gradient of an operand that needs none (a mask, a
# scale, a constant probe): their VJP returns None for it, which `backward`
# skips.
def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    return _make(
        a.data + b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        ),
    )


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    return _make(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        ),
    )


def log_sigmoid(a) -> Tensor:
    """log(sigmoid(x)), computed as -softplus(-x) for stability."""
    a = as_tensor(a)
    x = a.data
    out = np.where(x > 0, -np.log1p(np.exp(-x)), x - np.log1p(np.exp(-np.abs(x))))
    sig_neg = 1.0 / (1.0 + np.exp(x))  # sigmoid(-x) = 1 - sigmoid(x)
    return _make(out, (a,), lambda g: (g * sig_neg,))


# shape / indexing -------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Batched matmul over the last two axes; leading axes broadcast, so a
    (B, L, d) operand can meet a shared (d, d) weight."""
    a, b = as_tensor(a), as_tensor(b)
    return _make(
        a.data @ b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape),
            _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape),
        ),
    )


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = as_tensor(a)
    return _make(np.swapaxes(a.data, -1, -2), (a,), lambda g: (np.swapaxes(g, -1, -2),))


def take_rows(a, indices) -> Tensor:
    """Row gather: out[i] = a[indices[i]]. Backward scatter-adds."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)

    def vjp(g):
        out = np.zeros_like(a.data)
        scatter_add_rows(out, idx, g)
        return (out,)

    return _make(a.data[idx], (a,), vjp)


def scatter_add_rows(out: np.ndarray, idx, rows: np.ndarray) -> None:
    """``out[idx[i]] += rows[i]`` for every ``i`` of a C-contiguous `out`,
    repeated indices included. One scatter-add over flat element indices:
    numpy's fast 1-D `add.at` path, and each element still sums its rows in
    the order of `idx`."""
    width = math.prod(out.shape[1:])
    flat = (np.asarray(idx, dtype=np.intp).reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    np.add.at(out.reshape(-1), flat, rows.reshape(-1))


def gather_cols(a, col_indices) -> Tensor:
    """Per-row element gather: out[r] = a[r, col_indices[r]]."""
    a = as_tensor(a)
    cols = np.asarray(col_indices, dtype=np.intp)
    rows = np.arange(a.data.shape[0])

    def vjp(g):
        out = np.zeros_like(a.data)
        np.add.at(out, (rows, cols), g)
        return (out,)

    return _make(a.data[rows, cols], (a,), vjp)


# reductions -------------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _make(out, (a,), vjp)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.data.size
    else:
        count = a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = z - lse

    def vjp(g):
        soft = np.exp(out)
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return _make(out, (a,), vjp)


# kernels of the fused encoder layer -------------------------------------
# Plain numpy, no nodes: `model.encoder_layer` runs them inside its one node.
# Each VJP allocates what it returns and never writes into `g`.


def softmax_kernel(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along `axis`, computed in place in `x`, a buffer the caller owns."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def softmax_vjp(g: np.ndarray, out: np.ndarray, axis: int = -1) -> np.ndarray:
    r = g * out
    np.subtract(g, r.sum(axis=axis, keepdims=True), out=r)
    r *= out
    return r


def gelu_kernel(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-approximation GELU, 0.5 x (1 + tanh(c (x + 0.044715 x^3))), and
    the tanh its VJP needs: the textbook expression op for op, in few buffers."""
    c = float(np.sqrt(2.0 / np.pi))
    # x*x*x, not x**3: float32 `**` takes numpy's slow general pow path.
    t = x * x
    t *= x
    t *= 0.044715
    np.add(x, t, out=t)
    t *= c
    np.tanh(t, out=t)
    out = 1.0 + t
    out *= 0.5 * x
    return out, t


def gelu_slope(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The derivative of `gelu_kernel` at `x`, from `x` and the tanh it kept,
    0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 * 0.044715 x^2); the VJP is
    ``g * slope``. The textbook VJP's ops in its order, so ``g * slope`` has
    its bits; it overwrites `x` and `t`, and the slope takes `t`'s buffer."""
    c = float(np.sqrt(2.0 / np.pi))
    half_x = 0.5 * x
    np.multiply(x, x, out=x)
    x *= 3.0 * 0.044715
    x += 1.0
    x *= c
    s = t * t
    np.subtract(1.0, s, out=s)
    s *= half_x
    s *= x
    np.add(1.0, t, out=t)
    t *= 0.5
    t += s
    return t


def layer_norm_kernel(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """Row-wise layer norm over the last axis: the output and the statistics
    `layer_norm_vjp` takes.

    Forward and VJP replay op for op the primitive chain mean, centre, mean
    of squares, + eps, ** -0.5, * gain, + bias (one `tmean`, `mul`, `add` or
    power node per op), so values and gradients are bit-identical to that
    composition."""
    k = np.asarray(1.0 / x.shape[-1], dtype=x.dtype)
    centered = x - x.sum(axis=-1, keepdims=True) * k
    var_eps = (centered * centered).sum(axis=-1, keepdims=True) * k + np.asarray(eps, dtype=x.dtype)
    inv = var_eps**-0.5
    normed = centered * inv
    out = normed * gain
    out += bias
    return out, (centered, var_eps, inv, normed)


def layer_norm_vjp(g: np.ndarray, gain: np.ndarray, stats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the input, the gain and a bias of the gain's shape."""
    centered, var_eps, inv, normed = stats
    k = np.asarray(1.0 / centered.shape[-1], dtype=centered.dtype)
    gx = g * gain
    # d(mean of squares), through the ** -0.5 node's rule, then the mean's 1/n
    d_var = ((_unbroadcast(gx * centered, inv.shape) * -0.5) * var_eps**-1.5) * k
    t = d_var * centered  # each of the two factors of centered * centered
    dc = gx * inv
    dc += t
    dc += t
    dc += (-dc.sum(axis=-1, keepdims=True)) * k  # the centring's mean
    return dc, _unbroadcast(g * normed, gain.shape), _unbroadcast(g, gain.shape)
