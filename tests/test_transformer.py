"""Autograd ops, encoder forward/backward, Adam, and checkpoints."""

import hashlib
import json
import weakref

import numpy as np
import pytest

import codeflow.autograd as ag
import codeflow.downstream as downstream
import codeflow.pretrain as pretrain
from codeflow.autograd import Tensor
from codeflow.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from codeflow.downstream import length_groups
from codeflow.encoding import Limits, Vocabulary, additive_mask, build_attention_mask, build_vocab, encode_example
from codeflow.model import (
    LAYER_WEIGHTS,
    MIN_READ_WIDTH,
    Activations,
    ModelConfig,
    ModelParams,
    NonFiniteLoss,
    ShapeMismatch,
    compute_gradients,
    encoder_layer,
    forward,
    init_params,
    mlm_logits,
    param_shapes,
    parameter_count,
    read_layout,
)
from codeflow.optim import adam_step, init_adam
from codeflow.pretrain import pretrain_run
from helpers import (
    checkpoint_file,
    composed_forward,
    composed_layer_norm,
    composed_reads,
    concat,
    gelu,
    gradient_copies,
    layer_norm,
    overfit_corpus,
    power,
    random_program,
    reference_adam_step,
    reference_init_adam,
    reshape,
    softmax,
    transpose,
    with_dtype,
)

COMMENT = "sum of values"
CODE = "a = 1\nb = a\n"


def encoded(max_positions=64):
    vocab = build_vocab([(COMMENT, CODE)], size=32)
    return encode_example(COMMENT, CODE, vocab, max_positions=max_positions)


def small_config(**kw):
    base = dict(
        num_layers=2, hidden_dim=16, num_heads=2, ffn_dim=32,
        vocab_size=32, max_positions=64, seed=3,
    )
    base.update(kw)
    return ModelConfig(**base)


# -- autograd -------------------------------------------------------------


def check_grads(build, *arrays, tol=5e-6, eps=1e-6):
    """Compare backward() gradients against float64 central differences."""
    leaves = [Tensor(np.asarray(a, dtype=np.float64).copy(), requires_grad=True) for a in arrays]
    build(*leaves).backward()
    for leaf in leaves:
        assert leaf.grad is not None
        numeric = np.zeros_like(leaf.data)
        it = np.nditer(leaf.data, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = leaf.data[idx]
            leaf.data[idx] = orig + eps
            hi = float(build(*leaves).data)
            leaf.data[idx] = orig - eps
            lo = float(build(*leaves).data)
            leaf.data[idx] = orig
            numeric[idx] = (hi - lo) / (2.0 * eps)
        err = np.abs(numeric - leaf.grad) / np.maximum(np.abs(numeric), 1.0)
        assert err.max() < tol


class TestAutogradOps:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.x = rng.normal(size=(3, 4))
        self.y = rng.normal(size=(3, 4))
        self.w = rng.normal(size=(3, 4))

    def test_add_broadcast(self):
        row = np.array([0.3, -0.2, 0.5, 1.0])
        check_grads(lambda a, b: ag.tsum(ag.mul(ag.add(a, b), Tensor(self.w))), self.x, row)

    def test_mul_broadcast(self):
        col = np.array([[0.7], [-1.2], [0.4]])
        check_grads(lambda a, b: ag.tsum(ag.mul(ag.mul(a, b), Tensor(self.w))), self.x, col)

    def test_add_and_mul_skip_a_constant_operand(self):
        x = Tensor(self.x, requires_grad=True)
        const = Tensor(self.y)
        g = self.w
        for op in (ag.add, ag.mul):
            grad_x, grad_c = op(x, const)._vjp(g)
            assert grad_x is not None and grad_c is None
            grad_c, grad_x = op(const, x)._vjp(g)
            assert grad_c is None and grad_x is not None
            assert np.array_equal(grad_x, g if op is ag.add else g * self.y)

    def test_power(self):
        check_grads(lambda a: ag.tsum(ag.mul(power(a, 3.0), Tensor(self.w))), self.x)

    def test_power_negative_exponent(self):
        check_grads(lambda a: ag.tsum(ag.mul(power(a, -2.0), Tensor(self.w))), np.abs(self.x) + 1.0)

    def test_log_sigmoid(self):
        check_grads(lambda a: ag.tsum(ag.mul(ag.log_sigmoid(a), Tensor(self.w))), 3.0 * self.x)

    def test_log_sigmoid_stable_far_from_zero(self):
        with np.errstate(over="ignore"):
            out = ag.log_sigmoid(Tensor(np.array([-800.0, 0.0, 800.0])))
        assert np.isfinite(out.data).all()
        assert out.data[0] == -800.0
        assert np.isclose(out.data[1], -np.log(2.0))
        assert -1e-15 < out.data[2] <= 0.0

    def test_matmul(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        w = Tensor(rng.normal(size=(3, 2)))
        check_grads(lambda p, q: ag.tsum(ag.mul(ag.matmul(p, q), w)), a, b)

    def test_matmul_batched_against_shared_weight(self):
        rng = np.random.default_rng(9)
        b = rng.normal(size=(4, 2))
        for lead in [(2,), (2, 3)]:
            a = rng.normal(size=lead + (3, 4))
            w = Tensor(rng.normal(size=lead + (3, 2)))
            check_grads(lambda p, q: ag.tsum(ag.mul(ag.matmul(p, q), w)), a, b)
        a4, c4 = rng.normal(size=(2, 2, 3, 4)), rng.normal(size=(2, 2, 4, 3))
        w4 = Tensor(rng.normal(size=(2, 2, 3, 3)))
        check_grads(lambda p, q: ag.tsum(ag.mul(ag.matmul(p, q), w4)), a4, c4)

    def test_transpose_axes(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3, 4))
        w = Tensor(rng.normal(size=(4, 2, 3)))
        check_grads(lambda a: ag.tsum(ag.mul(transpose(a, (2, 0, 1)), w)), x)
        assert np.array_equal(transpose(Tensor(x), (2, 0, 1)).data, np.transpose(x, (2, 0, 1)))
        w_last = Tensor(rng.normal(size=(2, 4, 3)))
        check_grads(lambda a: ag.tsum(ag.mul(ag.transpose(a), w_last)), x)  # default swaps the last two axes
        assert np.array_equal(ag.transpose(Tensor(x)).data, np.swapaxes(x, -1, -2))

    def test_backward_frees_interior_nodes_and_keeps_leaf_grads(self):
        interior = []

        def build(a, b):
            h = gelu(ag.matmul(a, b))
            out = ag.tsum(ag.mul(layer_norm(h, Tensor(np.ones(3)), Tensor(np.zeros(3))), h))
            if not interior:  # the graph check_grads runs backward on
                interior.extend([h, out])
            return out

        check_grads(build, self.x, self.y.T)  # leaf grads against finite differences
        assert interior
        for t in interior:
            assert t.grad is None and t._vjp is None and t._parents == ()

    def test_transpose_reshape(self):
        w = Tensor(np.arange(12, dtype=np.float64).reshape(4, 3) / 7.0)
        check_grads(lambda a: ag.tsum(ag.mul(ag.transpose(a), w)), self.x)
        w2 = Tensor(np.arange(12, dtype=np.float64).reshape(2, 6) / 5.0)
        check_grads(lambda a: ag.tsum(ag.mul(reshape(a, (2, 6)), w2)), self.x)

    def test_concat(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
        w = Tensor(rng.normal(size=(2, 5)))
        check_grads(lambda p, q: ag.tsum(ag.mul(concat([p, q], axis=1), w)), a, b)
        w0 = Tensor(rng.normal(size=(4, 3)))
        c = rng.normal(size=(2, 3))
        check_grads(lambda p, q: ag.tsum(ag.mul(concat([p, q], axis=0), w0)), a, c)

    def test_take_rows_accumulates_repeats(self):
        w = Tensor(np.arange(1.0, 13.0).reshape(3, 4) / 3.0)
        check_grads(lambda a: ag.tsum(ag.mul(ag.take_rows(a, np.array([0, 1, 1])), w)), self.x)
        # explicit scatter-add check
        a = Tensor(self.x.copy(), requires_grad=True)
        ag.tsum(ag.take_rows(a, np.array([1, 1, 1]))).backward()
        assert np.array_equal(a.grad[1], np.full(4, 3.0))
        assert np.array_equal(a.grad[0], np.zeros(4))

    def test_gather_cols(self):
        cols = np.array([2, 0, 3])
        w = Tensor(np.array([0.5, -1.0, 2.0]))
        check_grads(lambda a: ag.tsum(ag.mul(ag.gather_cols(a, cols), w)), self.x)
        out = ag.gather_cols(Tensor(self.x), cols)
        assert np.array_equal(out.data, self.x[np.arange(3), cols])

    def test_sum_mean(self):
        check_grads(lambda a: ag.tsum(a), self.x)
        check_grads(lambda a: ag.tsum(ag.mul(ag.tsum(a, axis=0), Tensor(self.w[0]))), self.x)
        check_grads(lambda a: ag.tsum(ag.mul(ag.tmean(a, axis=-1, keepdims=True), Tensor(self.w[:, :1]))), self.x)
        check_grads(lambda a: ag.tmean(a), self.x)

    def test_softmax_and_log_softmax(self):
        check_grads(lambda a: ag.tsum(ag.mul(softmax(a, axis=-1), Tensor(self.w))), self.x)
        check_grads(lambda a: ag.tsum(ag.mul(ag.log_softmax(a, axis=-1), Tensor(self.w))), self.x)
        rows = softmax(Tensor(self.x), axis=-1).data.sum(axis=-1)
        assert np.allclose(rows, 1.0, atol=1e-12)

    def test_gelu(self):
        check_grads(lambda a: ag.tsum(ag.mul(gelu(a), Tensor(self.w))), self.x)
        # sanity at a few fixed points of the tanh approximation
        vals = gelu(Tensor(np.array([0.0, 1.0, -1.0]))).data
        assert vals[0] == 0.0
        assert np.isclose(vals[1], 0.841192, atol=1e-5)
        assert np.isclose(vals[2], -0.158808, atol=1e-5)

    def test_layer_norm(self):
        rng = np.random.default_rng(8)
        gain, bias = rng.normal(size=4) + 1.5, rng.normal(size=4)
        check_grads(
            lambda a, g, b: ag.tsum(ag.mul(layer_norm(a, g, b), Tensor(self.w))),
            self.x, gain, bias,
        )
        out = layer_norm(Tensor(self.x), Tensor(np.ones(4)), Tensor(np.zeros(4))).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-4)  # eps shifts it slightly

    def test_compositions_of_add_mul_power(self):
        check_grads(lambda a, b: ag.tsum(ag.mul(ag.add(a, ag.mul(b, -1.0)), Tensor(self.w))), self.x, self.y)
        check_grads(lambda a: ag.tsum(ag.mul(ag.mul(a, 1.0 / 2.5), Tensor(self.w))), self.x)
        check_grads(lambda a, b: ag.tsum(ag.mul(ag.mul(a, power(b, -1.0)), Tensor(self.w))), self.x, np.abs(self.y) + 1.0)
        check_grads(lambda a: ag.tsum(ag.mul(ag.add(ag.mul(a, -1.0), 2.0), Tensor(self.w))), self.x)
        check_grads(lambda a: ag.tsum(ag.mul(ag.mul(a, -1.0), Tensor(self.w))), self.x)
        check_grads(lambda a: ag.tsum(ag.mul(ag.add(a, 0.5), Tensor(self.w))), self.x)

    def test_float32_stays_float32(self):
        t = Tensor(np.ones((2, 3), dtype=np.float32))
        for out in (
            ag.add(t, 1.0), ag.mul(t, 0.5), ag.mul(t, -1.0), gelu(t), softmax(t),
            layer_norm(t, Tensor(np.ones(3, dtype=np.float32)), Tensor(np.zeros(3, dtype=np.float32))),
            ag.log_sigmoid(t), power(t, 2.0), ag.tmean(t),
        ):
            assert out.dtype == np.float32

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            ag.mul(t, 2.0).backward()

    def test_gradient_accumulates_over_reuse(self):
        t = Tensor(np.array(1.5), requires_grad=True)
        ag.add(ag.mul(t, t), ag.mul(t, 3.0)).backward()
        assert np.isclose(t.grad, 2 * 1.5 + 3.0)


# Odd widths reach the vector kernels' tail loops.
KERNEL_SHAPES = [(3, 4), (5, 37), (2, 3, 4, 9)]


def gelu_reference(x, g):
    """The tanh-approximation GELU and its VJP as plain expressions."""
    c = float(np.sqrt(2.0 / np.pi))
    t = np.tanh(c * (x + 0.044715 * (x * x * x)))
    du = c * (1.0 + 3.0 * 0.044715 * (x * x))
    return 0.5 * x * (1.0 + t), g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def softmax_reference(x, g):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)
    return out, out * (g - (g * out).sum(axis=-1, keepdims=True))


def read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


class TestFusedKernels:
    """The fused kernels against their definitions, bit for bit, and gradient
    accumulation when gradient arrays are shared."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_equals_composed_ops(self, dtype):
        rng = np.random.default_rng(31)
        for shape in KERNEL_SHAPES:
            arrays = [rng.normal(size=shape), rng.normal(size=shape[-1:]) + 1.0, rng.normal(size=shape[-1:])]
            w = rng.normal(size=shape).astype(dtype)
            leaves = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
            composed = composed_layer_norm(*leaves)
            ag.tsum(ag.mul(composed, Tensor(w))).backward()  # the norm's output gets a gradient equal to `w`
            fused = layer_norm(*(Tensor(a.astype(dtype), requires_grad=True) for a in arrays))
            grads = fused._vjp(read_only(w))  # a write into the upstream gradient raises
            for got, want in zip([fused.data, *grads], [composed.data] + [leaf.grad for leaf in leaves]):
                assert got.dtype == dtype
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_and_softmax_equal_their_expressions(self, dtype):
        rng = np.random.default_rng(32)
        for shape in KERNEL_SHAPES:
            x = (3.0 * rng.normal(size=shape)).astype(dtype)
            g = rng.normal(size=shape).astype(dtype)
            for op, reference in ((gelu, gelu_reference), (softmax, softmax_reference)):
                out = op(Tensor(x, requires_grad=True))
                (grad,) = out._vjp(read_only(g))  # a write into the upstream gradient raises
                want_out, want_grad = reference(x, g)
                assert out.data.dtype == grad.dtype == dtype
                assert np.array_equal(out.data, want_out)
                assert np.array_equal(grad, want_grad)

    def test_take_rows_scatter_equals_row_add_at(self):
        # Repeated rows are summed in index order, exactly as np.add.at over rows does.
        rng = np.random.default_rng(35)
        table = Tensor(rng.normal(size=(7, 5)).astype(np.float32), requires_grad=True)
        idx = rng.integers(0, 7, size=60)
        g = rng.normal(size=(60, 5)).astype(np.float32)
        (grad,) = ag.take_rows(table, idx)._vjp(read_only(g))
        want = np.zeros_like(table.data)
        np.add.at(want, idx, g)
        assert grad.dtype == np.float32 and np.array_equal(grad, want)

    def test_fan_out_through_add_matches_finite_differences(self):
        # `add` hands one gradient array to both parents: the layer norm and
        # `h`, which also feeds the softmax. Writing into that array, in a VJP
        # or when `h` accumulates its second gradient, would corrupt the other.
        rng = np.random.default_rng(34)
        w = Tensor(rng.normal(size=(3, 4)))

        def build(a, gain, bias):
            h = gelu(a)
            both = ag.add(layer_norm(a, gain, bias), h)
            return ag.tsum(ag.mul(ag.add(both, softmax(ag.mul(h, 2.0))), w))

        check_grads(build, rng.normal(size=(3, 4)), rng.normal(size=4) + 1.0, rng.normal(size=4))

    def test_backward_never_writes_into_a_shared_gradient(self):
        # Both parents of `y` get the very same gradient array; `a` then
        # accumulates a second term, which must not land in `b.grad`. Either
        # argument order of the outer add is tried, since the order in which
        # backward reaches `y` and `c` decides whether the hazard arises.
        w = np.array([0.5, -1.0, 2.0])
        for swap in (False, True):
            a, b = Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
            y, c = ag.add(a, b), ag.mul(a, 2.0)
            ag.tsum(ag.mul(ag.add(c, y) if swap else ag.add(y, c), Tensor(w))).backward()
            assert np.array_equal(a.grad, 3.0 * w)
            assert np.array_equal(b.grad, w)

    def test_float32_leaves_get_float32_grads(self):
        params = init_params(small_config(), dtype=np.float32)
        ex = encoded(max_positions=params.config.max_positions)

        def loss_fn(p):
            acts = forward(p, ex.ids, ex.position_ids, additive_mask(build_attention_mask(ex)))
            return ag.mul(ag.tsum(ag.log_softmax(mlm_logits(p, acts.final), axis=-1)), -1.0)

        _, grads = compute_gradients(loss_fn, params)
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
        assert all(g.shape == params.tensors[name].shape for name, g in grads.items())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_slope_times_g_equals_the_vjp(self, dtype):
        # the layer keeps the slope from its forward; the VJP only multiplies
        rng = np.random.default_rng(35)
        for shape in KERNEL_SHAPES:
            x = (3.0 * rng.normal(size=shape)).astype(dtype)
            g = rng.normal(size=shape).astype(dtype)
            _, t = ag.gelu_kernel(x)
            slope = ag.gelu_slope(x.copy(), t)
            assert slope.dtype == dtype and (slope * g).tobytes() == gelu_reference(x, g)[1].tobytes()

    def test_layer_norm_is_one_node(self):
        a, gain, bias = (Tensor(np.ones(s), requires_grad=True) for s in ((2, 4), (4,), (4,)))
        out = layer_norm(a, gain, bias)
        assert out._parents == (a, gain, bias)

    def test_pretrain_loss_log_equals_composed_layer_norm(self, monkeypatch):
        # The composed encoder trains bit for bit alike with the layer-norm
        # node over the fused layer's kernels and with the norm built op by op.
        config = ModelConfig(num_layers=2, hidden_dim=16, num_heads=2, ffn_dim=32, vocab_size=128, max_positions=128)
        corpus = overfit_corpus(8)
        runs = []
        for norm in (layer_norm, composed_layer_norm):

            def encoder(p, ids, positions, masks, reads=None, norm=norm):
                return composed_reads(p, ids, positions, masks, reads, layer_norm=norm)

            monkeypatch.setattr(downstream, "forward", encoder)
            runs.append(pretrain_run(corpus, config, steps=6, rng=2, batch_size=4))
        fused, composed = runs
        assert [(s, o, float.hex(v)) for s, o, v in fused.loss_log] == [
            (s, o, float.hex(v)) for s, o, v in composed.loss_log
        ]
        for name, t in fused.params.tensors.items():
            assert np.array_equal(t.data, composed.params.tensors[name].data)


def program_rows(rng, count):
    """`count` random programs as ``(ids, position_ids, allow)`` rows, of more than one length."""
    vocab = Vocabulary({t: i for t, i in zip("abcdefgh", range(5, 13))})
    while True:
        examples = [encode_example("find the value", random_program(rng), vocab, max_positions=512) for _ in range(count)]
        if len({len(ex) for ex in examples}) > 1:
            return [(ex.ids, ex.position_ids, build_attention_mask(ex)) for ex in examples]


def random_rows(rng, lengths, vocab_size):
    """Random ids, position ids and allow-matrices of the given `lengths`."""
    rows = []
    for n in lengths:
        allow = rng.random((n, n)) < 0.6
        np.fill_diagonal(allow, True)
        rows.append((rng.integers(5, vocab_size, n), rng.permutation(n), allow))
    return rows


def stacked(rows, dtype):
    """Equal-length rows as one ``(B, L)`` block: ids, position ids and mask."""
    ids, positions, allow = (np.stack(column) for column in zip(*rows))
    return ids, positions, additive_mask(allow, dtype=dtype)


def exact_blocks(rows, dtype):
    """`rows` grouped by exact length (`downstream.length_groups`): the groups
    and, per group, its `stacked` block."""
    groups = length_groups([ids for ids, _, _ in rows])
    return groups, [stacked([rows[i] for i in group], dtype) for group in groups]


def packed(blocks):
    """The flat ids and positions and the masks of one forward over `blocks`."""
    ids, positions, masks = zip(*blocks)
    return np.concatenate([a.ravel() for a in ids]), np.concatenate([a.ravel() for a in positions]), list(masks)


def seats(blocks):
    """``(s, g, b)`` for each sequence of a forward over `blocks`: sequence
    ``s`` of the forward is row ``b`` of block ``g``."""
    pairs = [(g, b) for g, (ids, _, _) in enumerate(blocks) for b in range(len(ids))]
    return [(s, g, b) for s, (g, b) in enumerate(pairs)]


def layer_finite_difference_check(keep, blocks=((2, 4), (1, 7), (1, 1))):
    """`encoder_layer` with the ``(S, W)`` query positions `keep` (None: all
    positions), one row per sequence, against float64 central differences of
    the layer input and every weight, for each layer of a two-layer model.
    The Q/K/V block is checked entry by entry, so each head's scaled query,
    key and value columns are. Each block is a ``(B, L)`` shape; the default
    holds sequences of lengths 4, 4, 7 and 1."""
    cfg = ModelConfig(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16, vocab_size=32, max_positions=64, seed=9)
    params = with_dtype(init_params(cfg), np.float64)
    rng = np.random.default_rng(41)
    for t in params.tensors.values():  # off the init's zero biases and unit gains
        t.data += rng.normal(scale=0.3, size=t.shape)
    for t in params.tensors.values():
        t.requires_grad = True
    masks = []
    for batch, length in blocks:
        allow = rng.random((batch, length, length)) < 0.6
        allow[:, np.arange(length), np.arange(length)] = True
        masks.append(additive_mask(allow, dtype=np.float64))
    total = sum(batch * length for batch, length in blocks)
    h = Tensor(rng.normal(size=(total, cfg.hidden_dim)), requires_grad=True)
    probe = Tensor(rng.normal(size=(total if keep is None else keep.size, cfg.hidden_dim)))
    block_keep = None if keep is None else np.split(keep, np.cumsum([batch for batch, _ in blocks])[:-1])
    eps = 1e-6
    for n in range(cfg.num_layers):

        def loss():
            return ag.tsum(ag.mul(encoder_layer(h, params, n, masks, block_keep)[0], probe))

        h.grad = None
        params.grad.fill(0)
        loss().backward()
        leaves = [h] + [params.tensors[f"layer{n}.{name}"] for name in LAYER_WEIGHTS]
        assert leaves[1].shape == (cfg.hidden_dim, 3 * cfg.hidden_dim)
        for leaf in leaves:
            numeric = np.zeros_like(leaf.data)
            for idx in np.ndindex(leaf.shape):
                saved = leaf.data[idx]
                leaf.data[idx] = saved + eps
                hi = float(loss().data)
                leaf.data[idx] = saved - eps
                lo = float(loss().data)
                leaf.data[idx] = saved
                numeric[idx] = (hi - lo) / (2 * eps)
            err = np.abs(numeric - leaf.grad) / np.maximum(np.abs(numeric), 1.0)
            assert err.max() < 1e-6


class TestFusedLayer:
    """`model.encoder_layer`, one node per layer, against the composed graph
    of `helpers.composed_forward` and against finite differences."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("num_layers", [0, 1, 2])
    def test_forward_equals_composed_bit_for_bit(self, dtype, num_layers):
        params = init_params(small_config(num_layers=num_layers, max_positions=512), dtype=dtype)
        rng = np.random.default_rng(40 + num_layers)
        for _ in range(4):
            _, blocks = exact_blocks(program_rows(rng, 5), dtype)
            got = forward(params, *packed(blocks))
            wants = [composed_forward(params, *block) for block in blocks]
            for s, g, b in seats(blocks):  # each sequence's rows of every state, and its maps
                length = blocks[g][0].shape[1]
                for got_h, want_h in zip(got.hidden, wants[g].hidden, strict=True):
                    assert got_h.dtype == dtype
                    assert np.array_equal(got_h.data[got.rows[s]], want_h.data[b * length : (b + 1) * length])
                for got_layer, want_layer in zip(got.maps[s], wants[g].attention, strict=True):
                    for got_w, want_w in zip(got_layer, want_layer, strict=True):
                        assert np.array_equal(got_w, want_w.data[b])
            ex_ids, ex_pos, allow = program_rows(rng, 2)[0]
            one = additive_mask(allow, dtype=dtype)
            got = forward(params, ex_ids, ex_pos, one)
            want = composed_forward(params, ex_ids, ex_pos, one)
            for g, w in zip(got.hidden, want.hidden):
                assert np.array_equal(g.data, w.data)
            for g, w in zip(sum(got.attention, []), sum(want.attention, [])):
                assert np.array_equal(g.data, w.data)

    def test_encoder_layer_against_finite_differences(self):
        layer_finite_difference_check(keep=None)

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_batch_loss_gradients_match_composed(self, monkeypatch, dtype, tol):
        config = ModelConfig(num_layers=2, hidden_dim=16, num_heads=2, ffn_dim=32, vocab_size=128, max_positions=128)
        corpus = overfit_corpus(8)
        vocab = build_vocab([(it.docstring, it.code) for it in corpus], config.vocab_size)
        encoded_corpus = pretrain.encode_corpus(corpus, vocab, max_positions=config.max_positions)
        rng = np.random.default_rng(42)
        params = init_params(config, dtype=dtype)
        for structure, picks in (("edgepred", [0, 1, 2, 5]), ("nodealign", [3, 4, 6, 7, 1])):
            prepared = [
                (ex, pretrain.select_mlm_targets(ex, rng, len(vocab)), pretrain.structure_targets(ex, structure, rng))
                for ex in (encoded_corpus[i] for i in picks)
            ]
            assert len({len(ex) for ex, _, _ in prepared}) > 1  # the forward has several blocks
            got_value, got = gradient_copies(lambda p: pretrain.batch_loss(p, prepared, structure)[0], params)
            with monkeypatch.context() as m:
                m.setattr(downstream, "forward", composed_reads)
                want_value, want = gradient_copies(lambda p: pretrain.batch_loss(p, prepared, structure)[0], params)
            assert got_value == want_value
            for name in want:
                assert got[name].dtype == dtype
                assert np.abs(got[name] - want[name]).max() <= tol * np.abs(want[name]).max(), name


class TestClsOnly:
    """The [CLS] read, `forward(..., reads=[[0]] * B)`, runs the last layer
    for position 0 only, kept `MIN_READ_WIDTH` times; its [CLS] rows must
    equal the full forward's bit for bit, and its gradients the full
    forward's."""

    LENGTHS = [[1], [2], [3], [1, 2, 3], [3, 1], [2, 2], [1, 1], [5, 40, 3, 17], [40]]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("num_layers", [0, 1, 2])
    def test_cls_rows_equal_the_full_forward(self, dtype, num_layers):
        params = init_params(small_config(num_layers=num_layers, max_positions=512), dtype=dtype)
        rng = np.random.default_rng(60 + num_layers)
        batches = [random_rows(rng, lengths, params.config.vocab_size) for lengths in self.LENGTHS]
        batches += [program_rows(rng, 5) for _ in range(3)]  # encoded programs
        for rows in batches:
            _, blocks = exact_blocks(rows, dtype)
            full = forward(params, *packed(blocks))
            cls = forward(params, *packed(blocks), reads=[[0]] * len(rows))
            assert cls.final.dtype == dtype and len(cls.rows) == len(rows)
            for s, g, _ in seats(blocks):
                assert np.array_equal(cls.final.data[cls.rows[s]], full.final.data[full.rows[s][:1]])
                shrink = MIN_READ_WIDTH < blocks[g][0].shape[1]
                for n, (g_layer, w_layer) in enumerate(zip(cls.maps[s], full.maps[s])):
                    # a shrunken last layer repeats query row 0
                    want = w_layer[:, [0] * MIN_READ_WIDTH] if shrink and n == num_layers - 1 else w_layer
                    assert np.array_equal(g_layer, want)
            for ex_ids, ex_pos, allow in rows:  # each example alone, unbatched
                one = additive_mask(allow, dtype=dtype)
                alone = forward(params, ex_ids, ex_pos, one, reads=[[0]])
                got = alone.final.data[alone.rows[0]]
                assert got.shape == (1, params.config.hidden_dim)
                assert np.array_equal(got[0], forward(params, ex_ids, ex_pos, one).final.data[0])

    def test_query_prefix_against_finite_differences(self):
        # the [CLS] read: position 0 of every sequence, kept twice
        layer_finite_difference_check(keep=read_layout([[0]] * 4, [4, 4, 7, 1]))

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_gradients_match_the_full_final_layer(self, dtype, tol):
        params = init_params(small_config(max_positions=512), dtype=dtype)
        rng = np.random.default_rng(64)
        for lengths in ([3, 1, 2, 9], [7, 7], [2, 30, 5]):
            _, blocks = exact_blocks(random_rows(rng, lengths, params.config.vocab_size), dtype)
            probe = Tensor(rng.normal(size=(len(lengths), params.config.hidden_dim)).astype(dtype))
            starts = np.cumsum([0] + [ids.size for ids, _, _ in blocks])  # of each block in the states
            firsts = np.concatenate([start + np.arange(ids.shape[0]) * ids.shape[1] for start, (ids, _, _) in zip(starts, blocks)])

            def loss_fn(p, read_cls):
                if read_cls:
                    acts = forward(p, *packed(blocks), reads=[[0]] * len(lengths))
                    cls = ag.take_rows(acts.final, [rows[0] for rows in acts.rows])
                else:
                    cls = ag.take_rows(forward(p, *packed(blocks)).final, firsts)
                return ag.tsum(ag.mul(ag.mul(cls, cls), probe))

            got_value, got = gradient_copies(lambda p: loss_fn(p, True), params)
            want_value, want = gradient_copies(lambda p: loss_fn(p, False), params)
            assert got_value == want_value
            for name in want:
                assert got[name].dtype == dtype
                assert np.abs(got[name] - want[name]).max() <= tol * np.abs(want[name]).max(), name


class TestReadRows:
    """`forward(..., reads=...)` runs the last layer for the read positions of
    each sequence only; every kept row, and its attention rows, must equal
    the full forward's bit for bit."""

    LENGTHS = [[1], [2], [3], [1, 2, 3], [3, 1], [2, 2], [1, 1], [5, 40, 3, 17], [40], [9, 12]]

    @staticmethod
    def random_reads(rng, lengths):
        """Ragged reads: one position for the first sequence, any number of
        distinct positions, in any order, for the others."""
        return [
            rng.choice(n, size=1 if b == 0 else int(rng.integers(1, n + 1)), replace=False).tolist()
            for b, n in enumerate(lengths)
        ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("num_layers", [0, 1, 2])
    def test_read_rows_equal_the_full_forward(self, dtype, num_layers):
        params = init_params(small_config(num_layers=num_layers, max_positions=512), dtype=dtype)
        rng = np.random.default_rng(70 + num_layers)
        batches = [random_rows(rng, lengths, params.config.vocab_size) for lengths in self.LENGTHS]
        batches += [program_rows(rng, 5) for _ in range(3)]  # encoded programs
        shrunk = 0
        for rows in batches:
            groups, blocks = exact_blocks(rows, dtype)
            order = [i for group in groups for i in group]  # the sequences in block order
            lengths = [len(ids) for ids, _, _ in rows]
            full = forward(params, *packed(blocks))
            for reads in [self.random_reads(rng, lengths) for _ in range(3)] + [[[0]] * len(rows)]:
                got = forward(params, *packed(blocks), reads=[reads[i] for i in order])
                assert got.final.dtype == dtype and len(got.rows) == len(rows)
                for s, g, b in seats(blocks):
                    read, width = reads[order[s]], blocks[g][0].shape[1]
                    keep = read_layout([reads[i] for i in groups[g]], [width] * len(groups[g]))
                    assert np.array_equal(got.final.data[got.rows[s]], full.final.data[full.rows[s][read]])
                    shrink = keep.shape[1] < width
                    shrunk += shrink and num_layers > 0
                    for n, (g_layer, w_layer) in enumerate(zip(got.maps[s], full.maps[s])):
                        kept_rows = shrink and n == num_layers - 1  # a shrunken last layer keeps the read query rows
                        assert np.array_equal(g_layer, w_layer[:, keep[b]] if kept_rows else w_layer)
                for (ex_ids, ex_pos, allow), kept in zip(rows, reads):  # each example alone, unbatched
                    one = additive_mask(allow, dtype=dtype)
                    acts = forward(params, ex_ids, ex_pos, one, reads=[kept])
                    alone = acts.final.data[acts.rows[0]]
                    assert np.array_equal(alone, forward(params, ex_ids, ex_pos, one).final.data[kept])
        assert shrunk > 10 or num_layers == 0

    def test_ragged_selection_against_finite_differences(self):
        # repeated positions, as the pads of `read_layout` repeat a kept one
        layer_finite_difference_check(keep=np.array([[3, 0, 0], [1, 2, 2], [6, 2, 4], [0, 0, 0]]))

    def test_bad_reads_raise(self):
        params = init_params(small_config(max_positions=512))
        ids, positions, masks = packed([stacked(random_rows(np.random.default_rng(71), [5] * 3, 32), np.float32)])
        good = [[0]] * 3
        forward(params, ids, positions, masks, reads=good)
        for bad in (good[:-1], good + [[0]], [[0], [], [0]], [[0], [5], [0]], [[0], [-1], [0]]):
            with pytest.raises(ShapeMismatch):
                forward(params, ids, positions, masks, reads=bad)


class TestBlocks:
    """`forward` over several blocks, each a ``(B, L)`` batch with its own
    mask, laid end to end: position-wise work runs once over every row,
    attention block by block. Each block's states and maps must equal the
    forward of that block alone bit for bit, and the gradients the sum of the
    per-block gradients."""

    MODES = ["full", "cls", "reads"]

    @staticmethod
    def fuzzed_blocks(rng, params, dtype, use_dataflow, count=4):
        """`count` random blocks, each of one length: encoded programs, each
        repeated one to three times, distinct random rows of one length, and
        short random rows whose kept width reaches their length."""
        vocab = Vocabulary({t: i for t, i in zip("abcdefgh", range(5, 13))})
        limits = Limits() if use_dataflow else Limits(max_nodes=0)
        blocks = []
        for g in range(count):
            if g == count - 1:
                rows = random_rows(rng, [int(rng.integers(1, 3))] * 2, params.config.vocab_size)
            elif g == count - 2:
                rows = random_rows(rng, [int(rng.integers(3, 30))] * int(rng.integers(1, 4)), params.config.vocab_size)
            else:
                ex = encode_example("find the value", random_program(rng), vocab, limits=limits, max_positions=512)
                rows = [(ex.ids, ex.position_ids, build_attention_mask(ex))] * int(rng.integers(1, 4))
            blocks.append(stacked(rows, dtype))
        return blocks

    @staticmethod
    def kept(rng, blocks, mode):
        """`forward` keywords for `mode`, over all `blocks` and block by block:
        no reads, the [CLS] read or random reads."""
        if mode == "full":
            return {}, [{}] * len(blocks)
        if mode == "cls":
            per_block = [[[0]] * len(ids) for ids, _, _ in blocks]
        else:
            per_block = [TestReadRows.random_reads(rng, [ids.shape[1]] * len(ids)) for ids, _, _ in blocks]
        return {"reads": sum(per_block, [])}, [{"reads": reads} for reads in per_block]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("use_dataflow", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("num_layers", [0, 2])
    def test_blocks_equal_their_own_forwards(self, num_layers, dtype, use_dataflow, mode):
        params = init_params(small_config(num_layers=num_layers, max_positions=512), dtype=dtype)
        rng = np.random.default_rng(80 + num_layers)
        for _ in range(3):
            blocks = self.fuzzed_blocks(rng, params, dtype, use_dataflow)
            together, alone = self.kept(rng, blocks, mode)
            acts = forward(params, *packed(blocks), **together)
            wants = [forward(params, *packed([block]), **kwargs) for block, kwargs in zip(blocks, alone)]
            assert acts.attention == [] and len(acts.rows) == len(acts.maps) == sum(len(ids) for ids, _, _ in blocks)
            start = 0
            for (ids, _, _), want in zip(blocks, wants):  # each block's rows of the states below the last
                for g, w in zip(acts.hidden[:-1], want.hidden[:-1], strict=True):
                    assert g.dtype == dtype and np.array_equal(g.data[start : start + ids.size], w.data)
                start += ids.size
            for s, g, b in seats(blocks):  # each sequence's read rows and maps
                want = wants[g]
                assert np.array_equal(acts.final.data[acts.rows[s]], want.final.data[want.rows[b]])
                assert len(acts.maps[s]) == num_layers
                for got_w, want_w in zip(acts.maps[s], want.maps[b], strict=True):
                    assert got_w.shape == want_w.shape and np.array_equal(got_w, want_w)
            assert np.array_equal(acts.final.data, np.concatenate([want.final.data for want in wants]))

    @pytest.mark.parametrize("keep", [None, np.array([[3, 0], [1, 1], [0, 0], [5, 1], [2, 4]])])
    def test_two_blocks_against_finite_differences(self, keep):
        layer_finite_difference_check(keep, blocks=((2, 4), (3, 6)))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_match_the_sum_of_per_block_gradients(self, dtype, mode):
        # Weight gradients sum over the rows of every block at once, not block
        # by block, so they agree to rounding: a few hundred ulps of the largest.
        tol = 256 * np.finfo(dtype).eps
        params = init_params(small_config(max_positions=512), dtype=dtype)
        rng = np.random.default_rng(90)
        blocks = self.fuzzed_blocks(rng, params, dtype, True)
        together, alone = self.kept(rng, blocks, mode)
        finals = [forward(params, *packed([block]), **kwargs).final.shape[0] for block, kwargs in zip(blocks, alone)]
        probe = rng.normal(size=(sum(finals), params.config.hidden_dim)).astype(dtype)
        probes = np.split(probe, np.cumsum(finals)[:-1])

        def loss(final, weights):
            return ag.tsum(ag.mul(ag.mul(final, final), Tensor(weights)))

        got_value, got = gradient_copies(lambda p: loss(forward(p, *packed(blocks), **together).final, probe), params)
        want_value, want = 0.0, {}
        for block, kwargs, weights in zip(blocks, alone, probes):
            value, grads = gradient_copies(lambda p: loss(forward(p, *packed([block]), **kwargs).final, weights), params)
            want_value += value
            want = {name: want.get(name, 0) + grad for name, grad in grads.items()}
        assert abs(got_value - want_value) <= tol * abs(want_value) * len(blocks)
        for name in want:
            assert got[name].dtype == dtype
            assert np.abs(got[name] - want[name]).max() <= tol * np.abs(want[name]).max(), name

    def test_bad_blocks_raise(self):
        params = init_params(small_config(max_positions=512))
        blocks = self.fuzzed_blocks(np.random.default_rng(91), params, np.float32, True, count=2)
        ids, positions, masks = packed(blocks)
        for bad in (
            (ids[:-1], positions[:-1], masks),  # ids do not fill the blocks
            (ids.reshape(1, -1), positions.reshape(1, -1), masks),  # not flat
            (ids, positions, [masks[0], masks[1][0]]),  # a 2-D mask
            (ids, positions, []),  # no block
        ):
            with pytest.raises(ShapeMismatch):
                forward(params, *bad)
        reads = [[0]] * sum(len(m) for m in masks)
        forward(params, ids, positions, masks, reads=reads)
        for bad in (reads[:-1], reads + [[0]]):
            with pytest.raises(ShapeMismatch):
                forward(params, ids, positions, masks, reads=bad)


class TestGraphSize:
    @staticmethod
    def count_nodes(monkeypatch):
        """Nodes with parents recorded from now on, by wrapping `ag._make`."""
        recorded = []
        make = ag._make

        def counting(*args, **kwargs):
            out = make(*args, **kwargs)
            recorded.append(bool(out._parents))
            return out

        monkeypatch.setattr(ag, "_make", counting)
        return recorded

    def test_pretrain_step_records_at_most_25_nodes(self, monkeypatch):
        config = ModelConfig(num_layers=2, hidden_dim=16, num_heads=2, ffn_dim=32, vocab_size=128, max_positions=128)
        corpus = overfit_corpus(8)
        per_step = []
        for steps in (1, 2):
            with monkeypatch.context() as m:
                recorded = self.count_nodes(m)
                pretrain_run(corpus, config, steps=steps, rng=0, batch_size=4)
            per_step.append(sum(recorded))
        assert 0 < per_step[0] <= 25 and 0 < per_step[1] - per_step[0] <= 25, per_step

    def test_inference_forward_records_no_node(self, monkeypatch):
        params = init_params(small_config(max_positions=512))
        _, blocks = exact_blocks(program_rows(np.random.default_rng(46), 3), np.float32)
        recorded = self.count_nodes(monkeypatch)
        forward(params, *packed(blocks))
        assert recorded and not any(recorded)

    def test_backward_releases_the_saved_buffers(self):
        params = init_params(small_config(max_positions=512))
        _, blocks = exact_blocks(program_rows(np.random.default_rng(47), 3), np.float32)
        for t in params.tensors.values():
            t.requires_grad = True
        acts = forward(params, *packed(blocks))
        node = acts.hidden[1]
        saved = [c.cell_contents for c in node._vjp.__closure__]
        saved += [a for c in saved if isinstance(c, tuple) for a in c]
        refs = [weakref.ref(a) for a in saved if isinstance(a, np.ndarray)]
        assert len(refs) >= 10
        loss = ag.tsum(acts.final)
        del acts, saved
        loss.backward()
        assert node._vjp is None and all(r() is None for r in refs)


# -- parameters and init ---------------------------------------------------


class TestConfigAndInit:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(hidden_dim=15)  # not divisible by heads
        with pytest.raises(ValueError):
            small_config(num_layers=-1)
        with pytest.raises(ValueError):
            small_config(hidden_dim=0)

    def test_config_round_trip(self):
        cfg = small_config()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg
        assert cfg.head_dim == 8

    def test_param_shapes_one_layer(self):
        cfg = ModelConfig(
            num_layers=1, hidden_dim=8, num_heads=2, ffn_dim=16,
            vocab_size=11, max_positions=13, seed=0,
        )
        assert param_shapes(cfg) == {
            "tok_emb": (11, 8),
            "pos_emb": (13, 8),
            "mlm.w": (8, 11),
            "mlm.b": (11,),
            "layer0.qkv": (8, 24),
            "layer0.wo": (8, 8),
            "layer0.attn_ln.gain": (8,),
            "layer0.attn_ln.bias": (8,),
            "layer0.ffn.w1": (8, 16),
            "layer0.ffn.b1": (16,),
            "layer0.ffn.w2": (16, 8),
            "layer0.ffn.b2": (8,),
            "layer0.ffn_ln.gain": (8,),
            "layer0.ffn_ln.bias": (8,),
        }

    def test_parameter_count_closed_form(self):
        cfg = ModelConfig(
            num_layers=1, hidden_dim=8, num_heads=2, ffn_dim=16,
            vocab_size=11, max_positions=13, seed=0,
        )
        # embeddings 88+104, head 88+11, one layer 192+64+16+128+16+128+8+16
        assert sum(int(np.prod(shape)) for shape in param_shapes(cfg).values()) == 859
        params = init_params(cfg)
        assert sum(t.data.size for t in params.tensors.values()) == 859

    def test_init_deterministic_and_bounded(self):
        cfg = small_config()
        a = init_params(cfg)
        b = init_params(cfg)
        assert set(a.tensors) == set(param_shapes(cfg))
        for name in a.tensors:
            t = a.tensors[name].data
            assert t.dtype == np.float32
            assert np.array_equal(t, b.tensors[name].data)
            assert np.abs(t).max() <= 0.04 + 1e-7 or name.endswith(("gain", "bias")) or name == "mlm.b"

    def test_init_seed_changes_weights(self):
        a = init_params(small_config(seed=3))
        b = init_params(small_config(seed=4))
        assert not np.array_equal(a.tensors["tok_emb"].data, b.tensors["tok_emb"].data)

    def test_gains_ones_biases_zeros(self):
        params = init_params(small_config())
        for name, t in params.tensors.items():
            if name.endswith(".gain"):
                assert np.array_equal(t.data, np.ones_like(t.data))
            if name.endswith((".bias", ".b", ".b1", ".b2")):
                assert np.array_equal(t.data, np.zeros_like(t.data))

    def test_init_checkpoint_bytes_are_pinned(self, tmp_path):
        # The weights' sha256 has held since the per-head projections moved
        # into one QKV block per layer; the file's is that of the GCB2 format,
        # which writes the store in its own order.
        cfg = ModelConfig(num_layers=2, hidden_dim=16, num_heads=4, ffn_dim=32, vocab_size=40, max_positions=24, seed=7)
        save_checkpoint(tmp_path / "init.gcb", init_params(cfg))
        digest = hashlib.sha256((tmp_path / "init.gcb").read_bytes()).hexdigest()
        assert digest == "fa7ab4abb02efa23f3ebdce1e2221e91d7ebb979fd96474dfc76e53fa2ad7f6b"
        flat = hashlib.sha256(load_checkpoint(tmp_path / "init.gcb").flat.tobytes()).hexdigest()
        assert flat == "3d7393bcbab1d9bd94a0f5c16e5eda0a7446fa01c9b1e0698ca311832aed4cf8"

    @pytest.mark.parametrize("build", ["init_params", "load_checkpoint", "float64"])
    def test_every_tensor_is_a_view_of_the_store(self, tmp_path, build):
        params = init_params(small_config(num_heads=4), dtype=np.float64 if build == "float64" else np.float32)
        if build == "load_checkpoint":
            save_checkpoint(tmp_path / "m.gcb", params)
            params = load_checkpoint(tmp_path / "m.gcb")
        for t in params.tensors.values():
            assert np.shares_memory(t.data, params.flat) and np.shares_memory(t.grad, params.grad)
            assert t.data.dtype == t.grad.dtype == params.flat.dtype
        assert sum(t.data.size for t in params.tensors.values()) == params.flat.size == params.grad.size

    def test_every_tensor_feeds_the_training_graph(self, monkeypatch):
        # A named tensor that no graph node reads is a second copy of some
        # weights, not a parameter. Two steps run both structure objectives.
        read, make = set(), ag._make

        def recording_make(data, parents, vjp):
            read.update(id(p) for p in parents)
            return make(data, parents, vjp)

        monkeypatch.setattr(ag, "_make", recording_make)
        cfg = small_config(num_layers=2, num_heads=2)
        params = pretrain_run(overfit_corpus(8), cfg, steps=2, rng=0, batch_size=4).params
        assert [name for name, t in params.tensors.items() if id(t) not in read] == []


# -- forward pass ----------------------------------------------------------


class TestForward:
    def test_shapes(self):
        cfg = small_config()
        params = init_params(cfg)
        ex = encoded()
        mask = additive_mask(build_attention_mask(ex))
        acts = forward(params, ex.ids, ex.position_ids, mask)
        n = len(ex)
        assert len(acts.hidden) == cfg.num_layers + 1
        assert all(h.data.shape == (n, cfg.hidden_dim) for h in acts.hidden)
        assert len(acts.attention) == cfg.num_layers
        for layer in acts.attention:
            assert len(layer) == cfg.num_heads
            assert all(w.data.shape == (n, n) for w in layer)
        assert acts.final is acts.hidden[-1]
        logits = mlm_logits(params, acts.final)
        assert logits.data.shape == (n, cfg.vocab_size)

    def test_zero_layers_is_embedding_sum(self):
        cfg = small_config(num_layers=0)
        params = init_params(cfg)
        ex = encoded()
        acts = forward(params, ex.ids, ex.position_ids, additive_mask(build_attention_mask(ex)))
        want = (
            params.tensors["tok_emb"].data[list(ex.ids)]
            + params.tensors["pos_emb"].data[list(ex.position_ids)]
        )
        assert np.array_equal(acts.final.data, want)
        assert acts.attention == []

    def test_deterministic(self):
        params = init_params(small_config())
        ex = encoded()
        mask = additive_mask(build_attention_mask(ex))
        a = forward(params, ex.ids, ex.position_ids, mask)
        b = forward(params, ex.ids, ex.position_ids, mask)
        assert np.array_equal(a.final.data, b.final.data)

    def test_validation(self):
        params = init_params(small_config())
        ex = encoded()
        mask = additive_mask(build_attention_mask(ex))
        with pytest.raises(ShapeMismatch):
            forward(params, ex.ids, ex.position_ids[:-1], mask)
        with pytest.raises(ShapeMismatch):
            forward(params, (9999,) + ex.ids[1:], ex.position_ids, mask)
        with pytest.raises(ShapeMismatch):
            forward(params, ex.ids, (9999,) + ex.position_ids[1:], mask)

    def test_attention_rows_and_blocking(self):
        params = init_params(small_config())
        ex = encoded()
        allow = build_attention_mask(ex)
        acts = forward(params, ex.ids, ex.position_ids, additive_mask(allow))
        for layer in acts.attention:
            for head in layer:
                w = head.data
                assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-6)
                assert w[~allow].max(initial=0.0) == 0.0  # exp underflow, exactly zero

    def test_blocked_key_cannot_influence_query(self):
        # One layer; node query 14 attends only {5, 14}.  Changing the token
        # at blocked position 9 must leave that query's output bit-identical.
        cfg = small_config(num_layers=1)
        params = init_params(cfg)
        ex = encoded()
        mask = additive_mask(build_attention_mask(ex))
        ids_b = list(ex.ids)
        assert not build_attention_mask(ex)[14, 9]
        ids_b[9] = (ids_b[9] + 1) % cfg.vocab_size
        row_a = forward(params, ex.ids, ex.position_ids, mask).final.data[14]
        row_b = forward(params, tuple(ids_b), ex.position_ids, mask).final.data[14]
        assert np.array_equal(row_a, row_b)


class TestBatchedForward:
    def batch(self, rng, count):
        vocab = Vocabulary({t: i for t, i in zip("abcdefgh", range(5, 13))})
        codes = [random_program(rng) for _ in range(count)]
        return [encode_example("find the value", c, vocab, max_positions=512) for c in codes]

    def test_real_rows_match_per_example_forward(self):
        cfg = small_config(max_positions=512)
        params = init_params(cfg)
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(5):
            examples = self.batch(rng, 6)
            assert len({len(ex) for ex in examples}) > 1  # examples of several lengths
            rows = [(ex.ids, ex.position_ids, build_attention_mask(ex)) for ex in examples]
            acts = downstream.batch_forward(params, rows, [list(range(len(ex))) for ex in examples])
            for i, ex in enumerate(examples):
                one = forward(params, ex.ids, ex.position_ids, additive_mask(build_attention_mask(ex)))
                for got, want in zip(acts.hidden, one.hidden, strict=True):  # all rows read: no layer shrinks
                    worst = max(worst, float(np.abs(got.data[acts.rows[i]] - want.data).max()))
                for got_layer, want_layer in zip(acts.maps[i], one.attention, strict=True):
                    for got, want in zip(got_layer, want_layer, strict=True):
                        assert got.shape == (len(ex), len(ex))
                        worst = max(worst, float(np.abs(got - want.data).max()))
        assert worst <= 1e-6, worst

    def test_batched_gradients_match_per_example(self):
        cfg = small_config(num_layers=1, max_positions=512)
        params = with_dtype(init_params(cfg), np.float64)
        examples = self.batch(np.random.default_rng(32), 3)
        groups, blocks = exact_blocks([(ex.ids, ex.position_ids, build_attention_mask(ex)) for ex in examples], np.float64)
        assert len(blocks) > 1
        order = [examples[i] for group in groups for i in group]  # in the rows of the forward
        probe = np.random.default_rng(33).normal(size=(sum(len(ex) for ex in examples), cfg.hidden_dim))

        def batched(p):
            return ag.tsum(ag.mul(forward(p, *packed(blocks)).final, Tensor(probe)))

        def per_example(p):
            total, start = Tensor(np.zeros(())), 0
            for ex in order:
                mask_one = additive_mask(build_attention_mask(ex), dtype=np.float64)
                final = forward(p, ex.ids, ex.position_ids, mask_one).final
                total = ag.add(total, ag.tsum(ag.mul(final, Tensor(probe[start : start + len(ex)]))))
                start += len(ex)
            return total

        got_value, got = gradient_copies(batched, params)
        want_value, want = gradient_copies(per_example, params)
        assert abs(got_value - want_value) <= 1e-10
        for name in want:
            assert np.abs(got[name] - want[name]).max() <= 1e-10, name

    def test_validation(self):
        params = init_params(small_config())
        ex = encoded()
        ids, positions, mask = stacked([(ex.ids, ex.position_ids, build_attention_mask(ex))] * 2, np.float32)
        forward(params, ids.ravel(), positions.ravel(), [mask])
        for bad in (
            (ids, positions, mask),  # a (B, L) batch is one block of a blocked forward, not a form of its own
            (ids.ravel(), positions.ravel(), mask),  # flat ids of two sequences and one unlisted mask
            (ids[0], positions[0], mask[0][None]),  # one example with a (1, L, L) mask
        ):
            with pytest.raises(ShapeMismatch):
                forward(params, *bad)


# -- gradients through the full model ---------------------------------------


class TestModelGradients:
    def test_spot_check_against_central_differences(self):
        cfg = ModelConfig(
            num_layers=1, hidden_dim=8, num_heads=2, ffn_dim=16,
            vocab_size=32, max_positions=64, seed=11,
        )
        params = with_dtype(init_params(cfg), np.float64)
        ex = encoded()
        mask = additive_mask(build_attention_mask(ex), dtype=np.float64)
        targets = np.array([1, 5, 7])
        target_ids = np.array([ex.ids[i] for i in targets])

        def loss_fn(p):
            acts = forward(p, ex.ids, ex.position_ids, mask)
            logp = ag.log_softmax(mlm_logits(p, acts.final), axis=-1)
            picked = ag.gather_cols(ag.take_rows(logp, targets), target_ids)
            return ag.mul(ag.tmean(picked), -1.0)

        value, grads = gradient_copies(loss_fn, params)
        rng = np.random.default_rng(2)
        eps = 1e-5
        for name in ["tok_emb", "layer0.qkv", "layer0.wo", "layer0.ffn.w1", "layer0.attn_ln.gain", "mlm.w"]:
            arr = params.tensors[name].data
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + eps
            hi, _ = compute_gradients(loss_fn, params)
            arr[idx] = orig - eps
            lo, _ = compute_gradients(loss_fn, params)
            arr[idx] = orig
            numeric = (hi - lo) / (2 * eps)
            # floor the denominator at the central-difference noise scale
            rel = abs(numeric - grads[name][idx]) / max(abs(numeric), abs(grads[name][idx]), 1e-6)
            assert rel < 1e-4, (name, idx, numeric, grads[name][idx])

    def test_uninfluenced_tensors_get_zero_gradients(self):
        params = init_params(small_config())
        value, grads = compute_gradients(
            lambda p: ag.tsum(ag.mul(p.tensors["mlm.b"], p.tensors["mlm.b"])), params
        )
        assert value == pytest.approx(0.0)
        assert np.array_equal(grads["tok_emb"], np.zeros_like(grads["tok_emb"]))
        assert grads["mlm.b"].shape == params.tensors["mlm.b"].data.shape

    def test_consecutive_calls_do_not_accumulate(self):
        params = init_params(small_config())
        ex = encoded()
        mask = additive_mask(build_attention_mask(ex))

        def loss_fn(p):
            return ag.tsum(ag.mul(mlm_logits(p, forward(p, ex.ids, ex.position_ids, mask).final), 0.01))

        _, first = gradient_copies(loss_fn, params)
        _, second = compute_gradients(loss_fn, params)
        assert np.abs(params.grad).max() > 0
        for name, grad in second.items():
            assert np.shares_memory(grad, params.grad)
            assert np.array_equal(grad, first[name]), name

    def test_non_finite_loss_raises(self):
        params = init_params(small_config())
        with pytest.raises(NonFiniteLoss):
            compute_gradients(lambda p: Tensor(np.array(np.inf)), params)


class TestGraphFreeInference:
    """Parameters require gradients only inside `compute_gradients`, so every
    other forward records no graph."""

    @staticmethod
    def assert_graph_free(params):
        assert not any(t.requires_grad for t in params.tensors.values())
        ex = encoded()
        acts = forward(params, ex.ids, ex.position_ids, additive_mask(build_attention_mask(ex)))
        for h in acts.hidden:
            assert not h.requires_grad and h._parents == () and h._vjp is None

    def test_after_init_params(self):
        self.assert_graph_free(init_params(small_config()))
        self.assert_graph_free(with_dtype(init_params(small_config()), np.float64))

    def test_after_load_checkpoint(self, tmp_path):
        save_checkpoint(tmp_path / "m.gcb", init_params(small_config()))
        self.assert_graph_free(load_checkpoint(tmp_path / "m.gcb"))

    def test_after_compute_gradients(self):
        params = init_params(small_config())
        ex = encoded()
        mask = additive_mask(build_attention_mask(ex))
        recorded = []

        def loss_fn(p):
            final = forward(p, ex.ids, ex.position_ids, mask).final
            recorded.append(final.requires_grad and final._parents != ())
            return ag.tsum(final)

        _, grads = compute_gradients(loss_fn, params)
        assert recorded == [True]
        assert np.abs(grads["tok_emb"]).sum() > 0
        self.assert_graph_free(params)

    @pytest.mark.parametrize("failure", [NonFiniteLoss, KeyError])
    def test_after_a_failed_compute_gradients(self, failure):
        params = init_params(small_config())

        def loss_fn(p):
            if failure is KeyError:
                return p.tensors["no such tensor"]
            return ag.add(ag.tsum(p.tensors["mlm.b"]), np.inf)

        with pytest.raises(failure):
            compute_gradients(loss_fn, params)
        self.assert_graph_free(params)


# -- optimizer ---------------------------------------------------------------


class TestAdam:
    def test_first_step_formula(self):
        params = init_params(small_config())
        before = {k: t.data.copy() for k, t in params.tensors.items()}
        params.grad[:] = np.random.default_rng(1).normal(size=params.grad.shape)
        grads = {k: t.grad.copy() for k, t in params.tensors.items()}
        state = adam_step(params, init_adam(params), lr=0.01)
        assert state.step == 1
        for k, t in params.tensors.items():
            want = before[k] - 0.01 * grads[k] / (np.abs(grads[k]) + 1e-8)
            assert np.allclose(t.data, want, atol=1e-7)
            assert t.data.dtype == np.float32

    def test_zero_gradient_leaves_params(self):
        params = init_params(small_config())
        before = params.flat.copy()
        adam_step(params, init_adam(params), lr=0.5)
        assert np.array_equal(params.flat, before)

    def test_minimizes_quadratic(self):
        params = init_params(small_config())
        params.tensors["mlm.b"].data[:] = 1.0
        state = init_adam(params)
        for _ in range(100):
            compute_gradients(lambda p: ag.tsum(ag.mul(p.tensors["mlm.b"], p.tensors["mlm.b"])), params)
            state = adam_step(params, state, lr=0.05)
        assert state.step == 100
        assert np.abs(params.tensors["mlm.b"].data).max() < 0.1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_equals_reference_bit_for_bit(self, dtype):
        params, reference = init_params(small_config(), dtype=dtype), init_params(small_config(), dtype=dtype)
        state, reference_state = init_adam(params), reference_init_adam(reference)
        views = [t.data for t in params.tensors.values()]
        rng = np.random.default_rng(48)
        for _ in range(50):
            params.grad[:] = rng.normal(size=params.grad.shape)
            adam_step(params, state, lr=3e-3)
            reference_adam_step(reference, {k: t.grad for k, t in params.tensors.items()}, reference_state, lr=3e-3)
            for t, view in zip(params.tensors.values(), views, strict=True):  # `data` is written in place, not rebound
                assert t.data is view and np.shares_memory(view, params.flat)
        assert state.step == reference_state.step == 50
        for k, t in params.tensors.items():
            assert t.data.dtype == dtype
            assert np.array_equal(t.data, reference.tensors[k].data)
        for flat, moments in ((state.m, reference_state.m), (state.v, reference_state.v)):
            assert flat.dtype == dtype
            by_name = ModelParams(params.config, flat).tensors  # the moments in the store's layout
            assert all(np.array_equal(by_name[k].data, moments[k]) for k in params.tensors)

    @pytest.mark.parametrize("case", ["other-params", "rebound-tensor", "rebound-block"])
    def test_rejects_params_it_did_not_pack(self, case):
        # moments of another model's size, or an update the rebound tensor would miss
        params = init_params(small_config())
        state = init_adam(params)
        if case == "other-params":
            params = init_params(small_config(num_layers=1))
        else:
            name = "mlm.b" if case == "rebound-tensor" else "layer1.qkv"
            params.tensors[name].data = params.tensors[name].data + 1.0
        params.grad[:] = 1.0
        before = params.flat.copy()
        with pytest.raises(ValueError, match="rebound"):
            adam_step(params, state, lr=0.1)
        assert state.step == 0 and np.array_equal(params.flat, before) and not state.m.any() and not state.v.any()

    def test_init_adam_rebinds_nothing(self):
        params = init_params(small_config())
        views = [t.data for t in params.tensors.values()]
        state = init_adam(params)
        assert all(t.data is view for t, view in zip(params.tensors.values(), views, strict=True))
        assert state.m.shape == state.v.shape == params.flat.shape and not state.m.any() and not state.v.any()


# -- checkpoints --------------------------------------------------------------


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(small_config())
        path = tmp_path / "model.gcb"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        assert set(loaded.tensors) == set(params.tensors)
        assert loaded.flat.dtype == np.float32
        assert loaded.flat.tobytes() == params.flat.tobytes()
        for k in params.tensors:
            assert np.array_equal(loaded.tensors[k].data, params.tensors[k].data)

    def test_bytes_deterministic(self, tmp_path):
        params = init_params(small_config())
        save_checkpoint(tmp_path / "a.gcb", params)
        save_checkpoint(tmp_path / "b.gcb", params)
        assert (tmp_path / "a.gcb").read_bytes() == (tmp_path / "b.gcb").read_bytes()

    def test_packed_params_write_the_bytes_of_an_unpacked_copy(self, tmp_path):
        params = init_params(small_config())
        state = init_adam(params)
        rng = np.random.default_rng(5)
        for _ in range(3):
            params.grad[:] = rng.normal(size=params.grad.shape)
            adam_step(params, state, lr=1e-2)
        unpacked = with_dtype(params, np.float32)
        assert all(np.shares_memory(t.data, params.flat) for t in params.tensors.values())
        assert not any(np.shares_memory(t.data, params.flat) for t in unpacked.tensors.values())
        save_checkpoint(tmp_path / "packed.gcb", params)
        save_checkpoint(tmp_path / "unpacked.gcb", unpacked)
        assert (tmp_path / "packed.gcb").read_bytes() == (tmp_path / "unpacked.gcb").read_bytes()

    def test_bad_magic(self, tmp_path):
        params = init_params(small_config())
        path = tmp_path / "model.gcb"
        save_checkpoint(path, params)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        params = init_params(small_config())
        path = tmp_path / "model.gcb"
        save_checkpoint(path, params)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("floats", [-1, 1])
    def test_store_of_the_wrong_size(self, tmp_path, floats):
        # one float short or one long, under a valid digest
        params = init_params(small_config())
        store = params.flat.astype("<f4").tobytes()
        store = store[:-4] if floats < 0 else store + store[:4]
        path = tmp_path / "model.gcb"
        path.write_bytes(checkpoint_file(json.dumps(params.config.to_dict()).encode("utf-8"), store))
        expected = f"^config needs {params.flat.size} parameters, but the file holds {len(store)} bytes of them$"
        with pytest.raises(CheckpointError, match=expected):
            load_checkpoint(path)

    def test_header_claiming_more_parameters_than_the_file_holds(self, tmp_path, monkeypatch):
        # a million layers and no store: rejected before a store of the
        # config's size is allocated
        import codeflow.checkpoint as checkpoint

        config = ModelConfig(num_layers=10**6, hidden_dim=8, num_heads=4, ffn_dim=16, vocab_size=32, max_positions=16)
        path = tmp_path / "huge.gcb"
        path.write_bytes(checkpoint_file(json.dumps(config.to_dict()).encode("utf-8"), b""))
        monkeypatch.setattr(checkpoint, "ModelParams", lambda *args: pytest.fail("built the config's parameters"))
        with pytest.raises(CheckpointError, match=f"config needs {parameter_count(config)} parameters"):
            load_checkpoint(path)

    def test_deeply_nested_config_is_refused(self, tmp_path):
        # json raises RecursionError, not ValueError, for nesting this deep
        path = tmp_path / "deep.gcb"
        path.write_bytes(checkpoint_file(b"[" * 100_000 + b"]" * 100_000, b""))
        with pytest.raises(CheckpointError, match="^bad model config: maximum recursion depth"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_names_the_first_tensor(self, tmp_path, value):
        params = init_params(small_config())
        params.tensors["layer0.ffn.w1"].data[3, 5] = value
        params.tensors["tok_emb"].data[1, 2] = value  # first in `params.tensors` order, though not by name
        save_checkpoint(tmp_path / "model.gcb", params)
        with pytest.raises(CheckpointError, match=r"^tensor 'tok_emb' holds a non-finite value$"):
            load_checkpoint(tmp_path / "model.gcb")
