"""Bidirectional transformer encoder over masked attention.

Residual order is post-norm: the layer output is LN(sublayer(H) + H) for both
the multi-head attention and the feed-forward block. Input states are the sum
of token and position embeddings, with no extra norm before layer 0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor


class ShapeMismatch(ValueError):
    pass


class NonFiniteLoss(ArithmeticError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = 2
    hidden_dim: int = 64
    num_heads: int = 4
    ffn_dim: int = 256
    vocab_size: int = 512
    max_positions: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.num_layers < 0:
            raise ValueError("num_layers must be >= 0")
        for name in ("hidden_dim", "num_heads", "ffn_dim", "vocab_size", "max_positions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError("hidden_dim must be divisible by num_heads")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**{k: int(v) for k, v in d.items()})


@dataclass
class ModelParams:
    config: ModelConfig
    tensors: dict[str, Tensor]

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(
            self.config,
            {k: Tensor(t.data.astype(dtype)) for k, t in self.tensors.items()},
        )


@dataclass
class Activations:
    """Hidden states and attention weights of one forward.

    Hidden states are flat: row ``b * L + pos`` holds position ``pos`` of
    sequence ``b``, so a single example gives ``|X| x d_h`` and a padded
    ``(B, L)`` batch gives ``B*L x d_h``. ``attention[layer][head]`` is
    ``|X| x |X|`` for a single example and ``B x L x L`` for a batch; these
    are read-only views, gradients flow through the hidden states only.
    """

    hidden: list[Tensor] = field(default_factory=list)  # H^0 .. H^N
    attention: list[list[Tensor]] = field(default_factory=list)  # [layer][head]

    @property
    def final(self) -> Tensor:
        return self.hidden[-1]


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical name -> shape table; single source of truth for init and checkpoint checks."""
    d_h, d_k = config.hidden_dim, config.head_dim
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (config.vocab_size, d_h),
        "pos_emb": (config.max_positions, d_h),
        "mlm.w": (d_h, config.vocab_size),
        "mlm.b": (config.vocab_size,),
    }
    for n in range(config.num_layers):
        for i in range(config.num_heads):
            shapes[f"layer{n}.head{i}.wq"] = (d_h, d_k)
            shapes[f"layer{n}.head{i}.wk"] = (d_h, d_k)
            shapes[f"layer{n}.head{i}.wv"] = (d_h, d_k)
        shapes[f"layer{n}.wo"] = (d_h, d_h)
        shapes[f"layer{n}.attn_ln.gain"] = (d_h,)
        shapes[f"layer{n}.attn_ln.bias"] = (d_h,)
        shapes[f"layer{n}.ffn.w1"] = (d_h, config.ffn_dim)
        shapes[f"layer{n}.ffn.b1"] = (config.ffn_dim,)
        shapes[f"layer{n}.ffn.w2"] = (config.ffn_dim, d_h)
        shapes[f"layer{n}.ffn.b2"] = (d_h,)
        shapes[f"layer{n}.ffn_ln.gain"] = (d_h,)
        shapes[f"layer{n}.ffn_ln.bias"] = (d_h,)
    return shapes


def _trunc_normal(rng: np.random.Generator, shape: tuple[int, ...], std: float, dtype) -> np.ndarray:
    # Resample out-of-range entries so the distribution is truly truncated at 2 sigma.
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out.astype(dtype)


def init_params(config: ModelConfig, dtype=np.float32) -> ModelParams:
    rng = np.random.default_rng(config.seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("gain",):
            data = np.ones(shape, dtype=dtype)
        elif leaf in ("bias", "b", "b1", "b2"):
            data = np.zeros(shape, dtype=dtype)
        else:
            data = _trunc_normal(rng, shape, 0.02, dtype)
        tensors[name] = Tensor(data)
    return ModelParams(config, tensors)


def parameter_count(config: ModelConfig) -> int:
    return sum(int(np.prod(s)) for s in param_shapes(config).values())


def _fused(params: ModelParams, layer: int, kind: str) -> Tensor:
    """The per-head ``d_h x d_k`` projections of one kind side by side: ``d_h x d_h``."""
    heads = range(params.config.num_heads)
    return ag.concat([params.tensors[f"layer{layer}.head{i}.{kind}"] for i in heads], axis=1)


def _split_heads(x: Tensor, batch: int, length: int, cfg: ModelConfig) -> Tensor:
    """``B*L x d_h`` -> ``B x H x L x d_k``."""
    return ag.transpose(ag.reshape(x, (batch, length, cfg.num_heads, cfg.head_dim)), (0, 2, 1, 3))


def _attention_weights(h: Tensor, params: ModelParams, layer: int, mask: np.ndarray) -> Tensor:
    """Softmax attention of every head at once: ``B x H x L x L`` from flat
    ``B*L x d_h`` states and a ``B x L x L`` additive mask."""
    cfg = params.config
    batch, length = mask.shape[0], mask.shape[1]
    # The 1/sqrt(d_k) score scale is applied to the query weights, the smallest operand.
    wq = ag.mul(_fused(params, layer, "wq"), 1.0 / math.sqrt(cfg.head_dim))
    q = _split_heads(ag.matmul(h, wq), batch, length, cfg)
    k = _split_heads(ag.matmul(h, _fused(params, layer, "wk")), batch, length, cfg)
    scores = ag.add(ag.matmul(q, ag.transpose(k)), Tensor(mask[:, None].astype(h.dtype, copy=False)))
    return ag.softmax(scores, axis=-1)


def _attention_block(h: Tensor, params: ModelParams, layer: int, mask: np.ndarray) -> tuple[Tensor, Tensor]:
    cfg = params.config
    batch, length = mask.shape[0], mask.shape[1]
    weights = _attention_weights(h, params, layer, mask)
    v = _split_heads(ag.matmul(h, _fused(params, layer, "wv")), batch, length, cfg)
    merged = ag.reshape(ag.transpose(ag.matmul(weights, v), (0, 2, 1, 3)), (batch * length, cfg.hidden_dim))
    return weights, ag.matmul(merged, params.tensors[f"layer{layer}.wo"])


def forward(params: ModelParams, ids, position_ids, additive_mask: np.ndarray) -> Activations:
    """Encode one example (``ids`` of shape ``(L,)``, mask ``(L, L)``) or a
    padded batch (``ids`` of shape ``(B, L)``, mask ``(B, L, L)``) in a single
    pass. A single example is the ``B = 1`` case; see `Activations` for shapes."""
    cfg = params.config
    ids = np.asarray(ids, dtype=np.intp)
    position_ids = np.asarray(position_ids, dtype=np.intp)
    additive_mask = np.asarray(additive_mask)
    if ids.shape != position_ids.shape:
        raise ShapeMismatch("ids and position_ids must have equal length")
    if ids.ndim not in (1, 2):
        raise ShapeMismatch(f"ids must be (L,) or (B, L), got shape {ids.shape}")
    if additive_mask.shape != ids.shape + ids.shape[-1:]:
        raise ShapeMismatch(f"mask shape {additive_mask.shape} does not match ids shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise ShapeMismatch("token id out of vocabulary range")
    if position_ids.size and (position_ids.min() < 0 or position_ids.max() >= cfg.max_positions):
        raise ShapeMismatch("position id out of range")
    single = ids.ndim == 1
    mask = additive_mask[None] if single else additive_mask

    h = ag.add(
        ag.take_rows(params.tensors["tok_emb"], ids.reshape(-1)),
        ag.take_rows(params.tensors["pos_emb"], position_ids.reshape(-1)),
    )
    acts = Activations(hidden=[h])
    for n in range(cfg.num_layers):
        weights, ctx = _attention_block(h, params, n, mask)
        g = ag.layer_norm(
            ag.add(ctx, h),
            params.tensors[f"layer{n}.attn_ln.gain"],
            params.tensors[f"layer{n}.attn_ln.bias"],
        )
        ffn_hidden = ag.gelu(ag.add(ag.matmul(g, params.tensors[f"layer{n}.ffn.w1"]), params.tensors[f"layer{n}.ffn.b1"]))
        ffn_out = ag.add(ag.matmul(ffn_hidden, params.tensors[f"layer{n}.ffn.w2"]), params.tensors[f"layer{n}.ffn.b2"])
        h = ag.layer_norm(
            ag.add(ffn_out, g),
            params.tensors[f"layer{n}.ffn_ln.gain"],
            params.tensors[f"layer{n}.ffn_ln.bias"],
        )
        heads = weights.data[0] if single else np.swapaxes(weights.data, 0, 1)
        acts.attention.append([Tensor(w) for w in heads])
        acts.hidden.append(h)
    return acts


def mlm_logits(params: ModelParams, final_hidden: Tensor) -> Tensor:
    return ag.add(ag.matmul(final_hidden, params.tensors["mlm.w"]), params.tensors["mlm.b"])


def pair_dots(final: Tensor, candidates) -> Tensor:
    """h_i . h_j per candidate row pair ``(i, j)`` of the final states."""
    left = ag.take_rows(final, [i for i, _ in candidates])
    right = ag.take_rows(final, [j for _, j in candidates])
    return ag.tsum(ag.mul(left, right), axis=1)


def pair_log_likelihoods(final: Tensor, candidates, labels, scale: float = 1.0) -> Tensor:
    """log sigmoid(+-scale * h_i . h_j) per candidate row pair: + for label 1,
    - for label 0. Pre-training uses scale 1, clone detection 1/sqrt(d)."""
    signs = np.where(np.asarray(labels) == 1, scale, -scale).astype(final.dtype)
    return ag.log_sigmoid(ag.mul(pair_dots(final, candidates), signs))


def compute_gradients(loss_fn, params: ModelParams) -> tuple[float, dict[str, np.ndarray]]:
    """Run loss_fn(params), backprop, and return (loss value, grads by name).

    Tensors with no influence on the loss get zero gradients. Parameters
    require gradients only during this call, so every other forward records
    no graph and frees its intermediates as it goes.
    """
    for t in params.tensors.values():
        t.requires_grad = True
        t.grad = None
    try:
        loss = loss_fn(params)
        value = float(loss.data)
        if not np.isfinite(value):
            raise NonFiniteLoss(f"loss is {value}")
        loss.backward()
    finally:
        for t in params.tensors.values():
            t.requires_grad = False
    return value, {
        name: (t.grad if t.grad is not None else np.zeros_like(t.data)) for name, t in params.tensors.items()
    }
