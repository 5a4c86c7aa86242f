"""Bidirectional transformer encoder over masked attention.

Residual order is post-norm: the layer output is LN(sublayer(H) + H) for both
the multi-head attention and the feed-forward block. Input states are the sum
of token and position embeddings, with no extra norm before layer 0.
"""

from __future__ import annotations

import functools
import itertools
import math
import mmap
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autograd as ag
from .autograd import Tensor


class NonFiniteLoss(ArithmeticError):
    """A loss or state that is not finite; a training loop's message names
    where it happened, and the command line exits with code 3."""


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
        """Raises TypeError for a value that is not an int (a bool is not)."""
        for k, v in d.items():
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"{k} must be an integer, not {type(v).__name__} {v!r}")
        return cls(**d)


@dataclass(eq=False)
class ModelParams:
    """Every parameter end to end in one array, `flat`, and its gradient at
    the same place in `grad`; this constructor, which `init_params` and
    `load_checkpoint` go through, decides the layout. The tensors of
    `tensors`, named and ordered as in `param_shapes`, view both."""

    config: ModelConfig
    flat: np.ndarray
    grad: np.ndarray = field(init=False, repr=False)
    tensors: dict[str, Tensor] = field(init=False, repr=False)

    def __post_init__(self):
        if self.flat.shape != (parameter_count(self.config),):
            raise ValueError(f"a flat store of shape {self.flat.shape} does not fit the config")
        # The zero pages of an anonymous mapping take no memory until written,
        # so a model that never trains does not pay for its gradient store.
        self.grad = np.frombuffer(mmap.mmap(-1, self.flat.nbytes), dtype=self.flat.dtype)
        shapes = param_shapes(self.config)
        self.tensors = {
            name: Tensor(self.flat[span].reshape(shape), grad=self.grad[span].reshape(shape))
            for (name, shape), span in zip(shapes.items(), row_spans([math.prod(s) for s in shapes.values()]))
        }


@dataclass
class Activations:
    """Hidden states and attention weights of one forward.

    Hidden states are flat: the forward's blocks lie end to end, and row
    ``b * L + pos`` of a block holds position ``pos`` of its sequence ``b``,
    so a single example gives ``|X| x d_h``. ``rows[s]`` lists the rows of
    `final` that hold sequence ``s`` (sequences counted block after block):
    its reads in order, or every position of it when the forward has no
    `reads`. ``maps[s][layer]`` is its ``H x W x L`` attention, one map per
    head with a query row for each of its ``W`` rows in that layer. Maps are
    read-only views: gradients flow through the hidden states only. A single
    example also gets them as ``attention[layer][head]``.

    A forward given `reads` runs its last layer for the read rows only, when
    that is fewer rows than a block has: the block then keeps ``W`` rows per
    sequence, ``W = max(MIN_READ_WIDTH, longest read)``, and its last maps
    hold those ``W`` query rows. Two rows or more, not one, keep the bits of
    the full forward: see `MIN_READ_WIDTH`.
    """

    hidden: list[Tensor] = field(default_factory=list)  # H^0 .. H^N
    attention: list[list[Tensor]] = field(default_factory=list)  # [layer][head], of a single example
    rows: list[np.ndarray] = field(default_factory=list)  # [sequence]
    maps: list[list[np.ndarray]] = field(default_factory=list)  # [sequence][layer]

    @property
    def final(self) -> Tensor:
        return self.hidden[-1]


# Weights of a layer in store and init order. ``qkv`` is its Q/K/V projection,
# ``d x 3d``: thirds for Q, K and V, head ``i`` at columns ``i*d_k`` of each.
LAYER_WEIGHTS = (
    "qkv", "wo", "attn_ln.gain", "attn_ln.bias", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2", "ffn_ln.gain", "ffn_ln.bias"
)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical name -> shape table in store order, from which `ModelParams` lays out the flat store."""
    d_h, f = config.hidden_dim, config.ffn_dim
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (config.vocab_size, d_h),
        "pos_emb": (config.max_positions, d_h),
        "mlm.w": (d_h, config.vocab_size),
        "mlm.b": (config.vocab_size,),
    }
    layer = ((d_h, 3 * d_h), (d_h, d_h), (d_h,), (d_h,), (d_h, f), (f,), (f, d_h), (d_h,), (d_h,), (d_h,))
    for n in range(config.num_layers):
        shapes.update({f"layer{n}.{name}": shape for name, shape in zip(LAYER_WEIGHTS, layer)})
    return shapes


def parameter_count(config: ModelConfig) -> int:
    """Parameters of `config`, from `param_shapes` of its first layer; every
    layer has the same count."""
    shapes = param_shapes(replace(config, num_layers=min(config.num_layers, 1)))
    per_layer = sum(math.prod(shape) for name, shape in shapes.items() if name.startswith("layer0."))
    embeddings = sum(math.prod(shape) for name, shape in shapes.items() if not name.startswith("layer"))
    return embeddings + config.num_layers * per_layer


def _trunc_normal(rng: np.random.Generator, shape: tuple[int, ...], std: float) -> np.ndarray:
    # Resample out-of-range entries so the distribution is truly truncated at 2 sigma.
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def init_params(config: ModelConfig, dtype=np.float32) -> ModelParams:
    """Unit gains, zero biases, and every other tensor drawn in `param_shapes`
    order from a truncated normal seeded by the config. A Q/K/V block draws
    one ``d x d_k`` matrix per head and projection: head 0's Q, K and V
    columns, then head 1's, and so on."""
    rng = np.random.default_rng(config.seed)
    params = ModelParams(config, np.zeros(parameter_count(config), dtype=dtype))
    d, d_k = config.hidden_dim, config.head_dim
    for name, t in params.tensors.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gain":
            t.data[...] = 1.0
        elif leaf == "qkv":
            for i, j in itertools.product(range(config.num_heads), range(3)):
                t.data[:, j * d + i * d_k : j * d + (i + 1) * d_k] = _trunc_normal(rng, (d, d_k), 0.02)
        elif leaf not in ("bias", "b", "b1", "b2"):
            t.data[...] = _trunc_normal(rng, t.shape, 0.02)
    return params


def row_spans(sizes) -> list[slice]:
    """Consecutive row ranges of the given sizes, from row 0."""
    ends = list(itertools.accumulate(sizes))
    return [slice(end - size, end) for size, end in zip(sizes, ends)]


def encoder_layer(
    h: Tensor, params: ModelParams, n: int, masks: list[np.ndarray], keep: list | None = None
) -> tuple[Tensor, list[np.ndarray]]:
    """Post-norm layer `n`, ``LN(FFN(g) + g)`` with ``g = LN(MHA(h) + h)``, as
    one node over flat states; also returns each block's ``B x H x L x L``
    attention. The states hold the blocks of `masks`, one ``(B, L, L)`` mask
    each, end to end: block ``g`` takes ``B*L`` rows, row ``b*L + pos``
    within them holding position ``pos`` of its sequence ``b``. Position-wise
    ops run once over the rows of every block, attention per block. The
    forward runs the composed graph's ops in order (same bits); the VJP is
    written out. A layer that records a graph keeps the GELU slope
    (`autograd.gelu_slope`) for its VJP, not the FFN input. The Q/K/V
    projections are one ``d x 3d`` tensor, the layer's ``qkv`` weight: the
    layer scales a copy's query columns by ``1/sqrt(d_k)``, and the VJP
    returns the block's gradient as one array with those columns scaled alike.

    `keep`, one ``(B, W)`` array of positions per block, runs the layer for
    those query positions of each sequence only: K and V still come from
    every row, but queries, attention rows, `wo`, both norms and the FFN run
    for the kept positions, so block ``g`` takes ``B*W`` output rows (row
    ``b*W + j`` holds position ``keep[g][b, j]``) and its attention is
    ``B x H x W x L``. A position may be kept twice. Kept rows equal the full
    layer's bit for bit when every matmul that shrinks keeps two rows or more
    (see `MIN_READ_WIDTH`)."""
    cfg = params.config
    heads, d_k, d = cfg.num_heads, cfg.head_dim, cfg.hidden_dim
    weights = [params.tensors[f"layer{n}.{name}"] for name in LAYER_WEIGHTS]
    projections, wo, gain1, bias1, w1, b1, w2, b2, gain2, bias2 = weights
    parents = (h, *weights)
    x = h.data
    # The 1/sqrt(d_k) score scale is applied to the query weights, the smallest operand.
    scale = np.asarray(1.0 / math.sqrt(d_k), dtype=x.dtype)
    wqkv = projections.data.copy()
    wqkv[:, :d] *= scale
    shapes = [m.shape[:2] for m in masks]
    spans = row_spans([batch * length for batch, length in shapes])  # of each block in `h`
    if keep is None:
        widths, slots, query_masks = [length for _, length in shapes], None, masks
        qkv = x @ wqkv
        xq, q, kv = x, qkv[:, :d], qkv[:, d:]
    else:
        widths = [k.shape[1] for k in keep]
        slots = np.concatenate(  # the kept rows of `h`
            [
                (k + np.arange(batch)[:, None] * length + span.start).reshape(-1)
                for k, (batch, length), span in zip(keep, shapes, spans)
            ]
        )
        query_masks = [m[np.arange(batch)[:, None], k] for m, k, (batch, _) in zip(masks, keep, shapes)]
        kv = x @ wqkv[:, d:]
        xq = x[slots]
        q = xq @ wqkv[:, :d]
    out_spans = row_spans([batch * width for (batch, _), width in zip(shapes, widths)])
    blocks = list(zip(shapes, widths, spans, out_spans))

    def attention_operands(block):
        """A block's Q (``B x H x W x d_k``), K and V (each ``B x H x L x d_k``)."""
        (batch, length), width, span, out_span = block
        k, v = kv[span].reshape(batch, length, 2, heads, d_k).transpose(2, 0, 3, 1, 4)
        return q[out_span].reshape(batch, width, heads, d_k).transpose(0, 2, 1, 3), k, v

    def by_head(a: np.ndarray, block) -> np.ndarray:
        """A block's output rows of `a` as ``B x H x W x d_k``."""
        (batch, _), width, _, out_span = block
        return a[out_span].reshape(batch, width, heads, d_k).transpose(0, 2, 1, 3)

    ctx = np.empty((out_spans[-1].stop, d), dtype=x.dtype)
    probs = []
    for block, query_mask in zip(blocks, query_masks):
        bq, k, v = attention_operands(block)
        scores = bq @ np.swapaxes(k, -1, -2)
        scores += query_mask[:, None].astype(x.dtype, copy=False)
        probs.append(ag.softmax_kernel(scores))
        np.matmul(scores, v, out=by_head(ctx, block))
    s1 = ctx @ wo.data
    s1 += xq
    g, ln1 = ag.layer_norm_kernel(s1, gain1.data, bias1.data)
    u = g @ w1.data
    u += b1.data
    act, tanh = ag.gelu_kernel(u)
    slope = ag.gelu_slope(u, tanh) if any(p.requires_grad for p in parents) else None
    s2 = act @ w2.data
    s2 += b2.data
    s2 += g
    y, ln2 = ag.layer_norm_kernel(s2, gain2.data, bias2.data)

    def vjp(grad):
        ds2, dgain2, dbias2 = ag.layer_norm_vjp(grad, gain2.data, ln2)
        du = ds2 @ w2.data.T
        du *= slope
        dg = du @ w1.data.T
        dg += ds2
        ds1, dgain1, dbias1 = ag.layer_norm_vjp(dg, gain1.data, ln1)
        dctx_rows = ds1 @ wo.data.T
        dqkv = np.empty((len(x), 3 * d), dtype=grad.dtype)
        dq_kept = None if keep is None else np.empty((len(ctx), d), dtype=grad.dtype)
        for block, p in zip(blocks, probs):
            (batch, length), width, span, out_span = block
            bq, k, v = attention_operands(block)
            dctx = by_head(dctx_rows, block)
            dscores = ag.softmax_vjp(dctx @ np.swapaxes(v, -1, -2), p)
            dq, dk, dv = dqkv[span].reshape(batch, length, 3, heads, d_k).transpose(2, 0, 3, 1, 4)
            if keep is None:
                np.matmul(dscores, k, out=dq)
            else:
                dq_kept[out_span] = (dscores @ k).transpose(0, 2, 1, 3).reshape(batch * width, d)
            np.matmul(np.swapaxes(dscores, -1, -2), bq, out=dk)
            np.matmul(np.swapaxes(p, -1, -2), dctx, out=dv)
        if keep is not None:  # the kept rows' query gradients in the layout of `h`; a position kept twice sums both
            dq_rows = np.zeros((len(x), d), dtype=grad.dtype)
            ag.scatter_add_rows(dq_rows, slots, dq_kept)
            dqkv[:, :d] = dq_rows
        dwqkv = x.T @ dqkv
        dwqkv[:, :d] *= scale
        dh = dqkv @ wqkv.T
        if keep is None:
            dh += ds1
        else:
            ag.scatter_add_rows(dh, slots, ds1)
        dlayer = (ctx.T @ ds1, dgain1, dbias1, g.T @ du, du.sum(axis=0), act.T @ ds2, ds2.sum(axis=0), dgain2, dbias2)
        return (dh, dwqkv, *dlayer)

    return ag._make(y, parents, vjp), probs


# Fewest rows a read keeps per sequence. One would do for [CLS] alone, but a
# one-row matmul takes numpy's BLAS gemv path, whose float32 bits differ from
# the gemm rows of the full layer; with two rows or more every shrunken matmul
# stays on gemm and each kept row keeps its bits.
MIN_READ_WIDTH = 2


def read_layout(reads, lengths) -> np.ndarray:
    """The ``(B, W)`` positions a forward given `reads` keeps: row ``b`` is
    ``reads[b]`` padded by repeating its last position, and
    ``W = max(MIN_READ_WIDTH, longest reads[b])``. Raises ValueError unless
    there is one non-empty list per sequence, each within its length."""
    if len(reads) != len(lengths) or not all(len(r) for r in reads):
        raise ValueError(f"reads need one non-empty position list per sequence, got {len(reads)} for {len(lengths)}")
    keep = np.empty((len(reads), max(MIN_READ_WIDTH, *map(len, reads))), dtype=np.intp)
    for b, (positions, n) in enumerate(zip(reads, lengths)):
        if min(positions) < 0 or max(positions) >= n:
            raise ValueError(f"read positions of sequence {b} fall outside its length {n}")
        keep[b, : len(positions)] = positions
        keep[b, len(positions) :] = positions[-1]
    return keep


@functools.cache
def _keep_freed_heap() -> None:
    """Stop glibc from handing freed heap back to the kernel between forwards.

    Its default trim threshold trails twice the largest array freed so far,
    and a forward frees a working set above that when it ends (about 9 MB for
    a packed inference forward of 1024 rows), so the next one page-faulted
    its buffers back in: 50k minor faults to encode 256 search candidates
    against 2k with one forward per length, and 440-610 per pre-training
    step at the benchmark config against about 0. Fixed thresholds keep up
    to 64 MB of freed heap mapped and serve arrays under 16 MB from it. A
    no-op without glibc's `mallopt`; `forward` calls it, so it takes effect
    at the first forward of the process."""
    import ctypes  # here, not at module level: only a forward needs it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD


def forward(params: ModelParams, ids, position_ids, additive_mask, reads=None) -> Activations:
    """Encode one example (``ids`` of shape ``(L,)``, mask ``(L, L)``) or
    several blocks in a single pass; see `Activations` for what it returns.
    Every position is real: nothing is padded. The first forward keeps freed
    heap mapped for the rest of the process (`_keep_freed_heap`).

    Several blocks, each an unpadded batch of ``B_g`` sequences of one length
    ``L_g``: `additive_mask` is a list of their ``(B_g, L_g, L_g)`` masks,
    and `ids` and `position_ids` are flat, every block's sequences laid end
    to end. Position-wise work runs once over the rows of every block,
    attention block by block, so each sequence's rows and maps equal those of
    a forward of it alone, bit for bit, while each matmul keeps two rows or
    more (see `MIN_READ_WIDTH`): alone, a sequence of length 1 has one-row
    matmuls, whose float64 bits differ.

    `reads`, one non-empty list of positions per sequence (block after
    block), asks for those rows of the final states only. A block then runs
    its last layer for the ``(B, W)`` positions of `read_layout` (K and V
    still for every row), and `rows` says where each read landed. A block
    whose ``W`` reaches its length ``L``, or a model with no layers, runs
    the full last layer and reports the read rows of its full states."""
    cfg = params.config
    ids = np.asarray(ids, dtype=np.intp)
    position_ids = np.asarray(position_ids, dtype=np.intp)
    if ids.ndim != 1 or ids.shape != position_ids.shape:
        raise ValueError(f"ids {ids.shape} and position_ids {position_ids.shape} must be flat and of equal length")
    single = not isinstance(additive_mask, list)
    masks = [np.asarray(additive_mask)[None]] if single else [np.asarray(m) for m in additive_mask]
    if not masks or any(m.ndim != 3 or m.shape[1] != m.shape[2] for m in masks):
        raise ValueError("one example needs an (L, L) mask, and blocks a list of (B, L, L) masks")
    if ids.size != sum(m.shape[0] * m.shape[1] for m in masks):
        raise ValueError(f"ids of shape {ids.shape} do not fit masks of shapes {[m.shape for m in masks]}")
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise ValueError("token id out of vocabulary range")
    if position_ids.size and (position_ids.min() < 0 or position_ids.max() >= cfg.max_positions):
        raise ValueError("position id out of range")
    shapes = [m.shape[:2] for m in masks]
    keep = None
    if reads is not None:
        sequences = row_spans([batch for batch, _ in shapes])  # of each block in `reads`
        if len(reads) != sequences[-1].stop:
            raise ValueError(f"reads need one position list per sequence, got {len(reads)} for {sequences[-1].stop}")
        keep = [read_layout(reads[seqs], [length] * batch) for seqs, (batch, length) in zip(sequences, shapes)]
    # The last layer shrinks if some block keeps fewer positions than its
    # length. A block that keeps as many runs the full layer and reports the
    # read rows of it: through the kept-row layer, a one-row sequence read at
    # W = 2 > L = 1 changes float64 bits (float32 keeps them).
    last = None
    if cfg.num_layers and keep is not None and any(k.shape[1] < length for k, (_, length) in zip(keep, shapes)):
        last = [
            k if k.shape[1] < length else np.tile(np.arange(length), (batch, 1))
            for k, (batch, length) in zip(keep, shapes)
        ]

    _keep_freed_heap()
    tok, pos = params.tensors["tok_emb"], params.tensors["pos_emb"]
    h = ag.add(ag.take_rows(tok, ids), ag.take_rows(pos, position_ids))
    hidden, maps = [h], []
    for n in range(cfg.num_layers):
        h, probs = encoder_layer(h, params, n, masks, last if n == cfg.num_layers - 1 else None)
        hidden.append(h)
        maps.append(probs)
    # Each block's rows per sequence in the last states, and where they lie.
    widths = [length for _, length in shapes] if last is None else [k.shape[1] for k in last]
    final_spans = row_spans([batch * width for (batch, _), width in zip(shapes, widths)])
    acts = Activations(hidden=hidden)
    for g, ((batch, length), width, span) in enumerate(zip(shapes, widths, final_spans)):
        for b in range(batch):
            if reads is None:
                positions = np.arange(length)
            else:  # a shrunken block holds its sequences' reads in order, a full one every position
                read = np.asarray(reads[len(acts.rows)], dtype=np.intp)
                positions = np.arange(len(read)) if width < length else read
            acts.rows.append(span.start + b * width + positions)
            acts.maps.append([probs[g][b] for probs in maps])
    if single:
        acts.attention = [[Tensor(w) for w in layer] for layer in acts.maps[0]]
    return acts


def mlm_logits(params: ModelParams, final_hidden: Tensor) -> Tensor:
    return ag.add(ag.matmul(final_hidden, params.tensors["mlm.w"]), params.tensors["mlm.b"])


def pair_log_likelihoods(final: Tensor, candidates, labels, scale: float = 1.0) -> Tensor:
    """log sigmoid(+-scale * h_i . h_j) per candidate row pair ``(i, j)`` of
    the final states: + for label 1, - for label 0. Pre-training uses scale 1,
    clone detection 1/sqrt(d)."""
    signs = np.where(np.asarray(labels) == 1, scale, -scale).astype(final.dtype)
    left = ag.take_rows(final, [i for i, _ in candidates])
    right = ag.take_rows(final, [j for _, j in candidates])
    return ag.log_sigmoid(ag.mul(ag.tsum(ag.mul(left, right), axis=1), signs))


def compute_gradients(loss_fn, params: ModelParams) -> tuple[float, dict[str, np.ndarray]]:
    """Run loss_fn(params) and backprop into `params.grad`, zeroed first, so
    each tensor's gradient lands in its view of it; returns the loss value and
    those views by name, which the next call overwrites.

    Tensors with no influence on the loss keep zero gradients. Parameters
    require gradients only during this call, so every other forward records
    no graph and frees its intermediates as it goes.
    """
    leaves = params.tensors.values()
    params.grad.fill(0)
    for t in leaves:
        t.requires_grad = True
    try:
        loss = loss_fn(params)
        value = float(loss.data)
        if not np.isfinite(value):
            raise NonFiniteLoss(f"loss is {value}")
        loss.backward()
    finally:
        for t in leaves:
            t.requires_grad = False
    return value, {name: t.grad for name, t in params.tensors.items()}
