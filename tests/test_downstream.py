"""Retrieval, clone detection, attention analysis, and corpus filtering."""

import weakref

import numpy as np
import pytest

import codeflow.autograd as ag
import codeflow.downstream as downstream
from codeflow.autograd import Tensor
from codeflow.downstream import (
    CloneExample,
    clone_metrics,
    clone_probabilities,
    clone_probability,
    cls_attention_split,
    encode_code,
    encode_code_example,
    encode_query_example,
    encode_text,
    evaluate_search,
    filter_search_corpus,
    finetune_clone,
    finetune_search,
    gold_ranks,
    prepare_search_examples,
)
from codeflow.encoding import CLS, PAD, Limits, additive_mask, build_attention_mask, build_vocab, encode_example
from codeflow.errors import DataError
from codeflow.frontend.errors import FrontendError
from codeflow.frontend.parser import parse_source
from codeflow.model import ModelConfig, compute_gradients, forward, init_params
from codeflow.pretrain import CorpusItem
from helpers import clone_corpus, gradient_copies, random_program, search_pairs, with_dtype

MAX_POSITIONS = 128


def tiny_config(**kw):
    base = dict(
        num_layers=1, hidden_dim=16, num_heads=2, ffn_dim=32,
        vocab_size=128, max_positions=MAX_POSITIONS, seed=13,
    )
    base.update(kw)
    return ModelConfig(**base)


def search_fixture(n=8, **cfg_kw):
    pairs = search_pairs(n)
    cfg = tiny_config(**cfg_kw)
    vocab = build_vocab([(q, c) for q, c in pairs], cfg.vocab_size)
    params = init_params(cfg)
    examples = prepare_search_examples(pairs, vocab, max_positions=MAX_POSITIONS)
    return pairs, cfg, vocab, params, examples


# -- ranking -------------------------------------------------------------------


def loop_rank(q, cands, gold):
    """The reference rank: 1-based place of `gold` when the candidates are
    sorted by score, best first, ties by ascending index."""
    scores = [float(q @ c) for c in cands]
    return sorted(range(len(cands)), key=lambda i: (-scores[i], i)).index(gold) + 1


def ranks_of(q, cands):
    """`gold_ranks` of every candidate for the one query `q`: row ``g`` of
    the score matrix is `q` against every candidate, with candidate ``g`` as
    its gold."""
    cands = np.asarray(cands, dtype=np.float64)
    return list(gold_ranks(np.tile(q, (len(cands), 1)) @ cands.T))


class TestRanking:
    def test_hand_example(self):
        cands = [np.array([0.0, 1.0]), np.array([2.0, 0.0]), np.array([1.0, 0.0])]
        assert ranks_of(np.array([1.0, 0.0]), cands) == [3, 1, 2]

    def test_ties_break_by_ascending_id(self):
        q = np.array([1.0, 0.0])
        cands = [np.array([1.0, 9.0]), np.array([1.0, -4.0]), np.array([1.0, 0.0])]
        assert ranks_of(q, cands) == [1, 2, 3]

    def test_ordering_properties_fuzz(self):
        # without ties, the candidates' ranks are 1..n in descending score order
        rng = np.random.default_rng(19)
        for _ in range(50):
            q = rng.normal(size=8)
            cands = [rng.normal(size=8) for _ in range(12)]
            ranks = ranks_of(q, cands)
            assert ranks == [loop_rank(q, cands, g) for g in range(12)]
            assert sorted(ranks) == list(range(1, 13))

    def test_query_scaling_keeps_ordering(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            q = rng.integers(-2, 3, size=4).astype(np.float64)
            cands = rng.integers(-2, 3, size=(8, 4)).astype(np.float64)
            for scale in (3.0, 0.5):
                assert ranks_of(scale * q, cands) == ranks_of(q, cands) == [loop_rank(q, cands, g) for g in range(8)]

    def test_matches_loop_reference(self):
        # Small integer vectors make every score exact and ties frequent, so
        # every candidate's rank must agree with the sorted loop's.
        rng = np.random.default_rng(23)
        ties = 0
        for _ in range(50):
            q = rng.integers(-2, 3, size=5).astype(np.float64)
            cands = rng.integers(-2, 3, size=(16, 5)).astype(np.float64)
            ties += len(cands) - len({float(q @ c) for c in cands})
            assert ranks_of(q, cands) == [loop_rank(q, cands, g) for g in range(len(cands))]
        assert ties > 100

    def test_duplicate_codes_tie_exactly(self):
        # Codes with equal vectors score equally against any query, so the
        # lower-indexed duplicate ranks first; each query is scored against
        # every code, as `evaluate_search` scores them.
        rng = np.random.default_rng(29)
        codes = rng.normal(size=(40, 16))
        codes[[17, 38]] = codes[1]
        queries = rng.normal(size=(40, 16))
        ranks = gold_ranks(queries @ codes.T)
        assert list(ranks) == [loop_rank(q, codes, g) for g, q in enumerate(queries)]
        for g in (17, 38):
            assert ranks[g] > loop_rank(queries[g], codes, 1)


# -- encoding vectors -----------------------------------------------------------


class TestVectorEncoders:
    def test_query_encoding_layout(self):
        _, _, vocab, _, _ = search_fixture()
        ex = encode_query_example("find the maximum value", vocab, max_positions=MAX_POSITIONS)
        assert ex.code_positions == ()
        assert ex.node_positions == ()
        assert ex.segments.count("comment") == 4

    def test_code_encoding_layout(self):
        _, _, vocab, _, _ = search_fixture()
        ex = encode_code_example("a = 1\nb = a\n", vocab, max_positions=MAX_POSITIONS)
        assert "comment" not in ex.segments
        assert len(ex.node_positions) == 3
        nodeless = encode_code_example("a = 1\nb = a\n", vocab, Limits(max_nodes=0), max_positions=MAX_POSITIONS)
        assert nodeless.node_positions == ()

    def test_vector_shapes_and_determinism(self):
        _, cfg, vocab, params, _ = search_fixture()
        v = encode_text("find the maximum", params, vocab)
        w = encode_code("a = 1\nb = a\n", params, vocab)
        assert v.shape == w.shape == (cfg.hidden_dim,)
        assert v.dtype == np.float32
        assert np.array_equal(v, encode_text("find the maximum", params, vocab))
        assert np.array_equal(w, encode_code("a = 1\nb = a\n", params, vocab))

    def test_dataflow_changes_code_vector(self):
        _, _, vocab, params, _ = search_fixture()
        with_flow = encode_code("a = 1\nb = a\n", params, vocab)
        ablated = encode_code_example("a = 1\nb = a\n", vocab, Limits(max_nodes=0), params.config.max_positions)
        without = downstream._cls_vectors(params, [ablated])[0]
        assert not np.array_equal(with_flow, without)

    def test_empty_query(self):
        _, _, vocab, params, _ = search_fixture()
        with pytest.raises(DataError, match="^query has no tokens$"):
            encode_text("   ", params, vocab)

    def test_unparseable_code(self):
        _, _, vocab, params, _ = search_fixture()
        with pytest.raises(FrontendError):
            encode_code("def f(:\n", params, vocab)


def single_forward_cls(params, ex):
    """The [CLS] vector of one example from its own unbatched forward."""
    mask = additive_mask(build_attention_mask(ex), dtype=params.tensors["tok_emb"].data.dtype)
    return forward(params, ex.ids, ex.position_ids, mask).final.data[0]


class TestGroupedVectors:
    """`_cls_vectors` packs exact-length groups, unpadded, as the blocks of
    shared forwards; each vector must equal the example's own single forward
    bit for bit."""

    CAP = 128  # real rows per forward: packs several groups, splits some, and is below the longest examples

    def fuzzed_corpus(self, seed, use_dataflow):
        rng = np.random.default_rng(seed)
        pairs = search_pairs(24)  # four code templates, so many equal lengths
        pairs += [(pairs[i][0], random_program(rng)) for i in range(12)]
        order = rng.permutation(len(pairs))
        pairs = [pairs[int(i)] for i in order]
        vocab = build_vocab(pairs, 96)
        params = init_params(tiny_config(seed=seed, max_positions=512))
        limits = Limits() if use_dataflow else Limits(max_nodes=0)
        examples = prepare_search_examples(pairs, vocab, limits, max_positions=512)
        return params, examples

    def spy_forwards(self, monkeypatch):
        """Each forward's blocks, as ``(B, L)`` shapes, from now on."""
        forwards = []

        def spy(params, ids, positions, masks, reads):
            forwards.append([np.shape(m)[:2] for m in masks])
            assert np.all(np.asarray(ids) != PAD), "a grouped forward must not pad"
            assert reads == [[0]] * sum(len(m) for m in masks), "[CLS] vectors read the [CLS] rows only"
            return forward(params, ids, positions, masks, reads=reads)

        monkeypatch.setattr(downstream, "forward", spy)
        monkeypatch.setattr(downstream, "MAX_FORWARD_POSITIONS", self.CAP)
        return forwards

    @staticmethod
    def greedy_forwards(lengths, cap):
        """Forwards that packing the examples, in order, into at most `cap`
        rows makes: a new forward starts where the next example would not fit."""
        count, used = 0, cap
        for n in lengths:
            if used + n > cap:
                count, used = count + 1, 0
            used += n
        return count

    @pytest.mark.parametrize("use_dataflow", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_to_single_forwards(self, monkeypatch, seed, use_dataflow):
        params, examples = self.fuzzed_corpus(seed, use_dataflow)
        most_blocks = most_rows = 0
        for side in ("code_encoded", "query_encoded"):
            encoded = [getattr(ex, side) for ex in examples]
            forwards = self.spy_forwards(monkeypatch)
            got = downstream._cls_vectors(params, encoded)
            monkeypatch.undo()
            want = np.stack([single_forward_cls(params, ex) for ex in encoded])
            assert got.dtype == np.float32 and np.array_equal(got, want), side
            lengths = [len(ex) for ex in encoded]
            grouped = [n for n in dict.fromkeys(lengths) for _ in range(lengths.count(n))]  # groups in first-seen order
            assert len(forwards) == self.greedy_forwards(grouped, self.CAP)
            blocks = [shape for packed in forwards for shape in packed]
            assert [n for b, n in blocks for _ in range(b)] == grouped  # blocks are the groups, split at most
            for packed in forwards:
                assert len({n for _, n in packed}) == len(packed)  # one block per length
                assert sum(b * n for b, n in packed) <= self.CAP or packed == [(1, packed[0][1])]
            assert len(blocks) > len(set(lengths))  # some group was split
            most_blocks = max(most_blocks, *map(len, forwards))
            most_rows = max(most_rows, *(sum(b * n for b, n in packed) for packed in forwards))
        assert most_blocks > 1  # some forward packs several groups
        assert most_rows > self.CAP  # and some example is longer than the cap

    def test_one_forward_alive_at_a_time(self, monkeypatch):
        # a forward's activations and final states are freed before the next forward runs
        params, examples = self.fuzzed_corpus(0, True)
        alive = []

        def spy(params, ids, positions, masks, reads):
            assert all(ref() is None for ref in alive), "a previous forward's activations are still alive"
            acts = forward(params, ids, positions, masks, reads=reads)
            alive.extend([weakref.ref(acts), weakref.ref(acts.final.data)])
            return acts

        monkeypatch.setattr(downstream, "forward", spy)
        monkeypatch.setattr(downstream, "MAX_FORWARD_POSITIONS", self.CAP)
        codes = [ex.code_encoded for ex in examples]
        downstream.grouped_forwards(params, codes, lambda rows, maps, i: None, [[0]] * len(codes))
        assert len(alive) > 2

    def test_public_encoders_and_clone_probability_agree(self):
        pairs, cfg, vocab, params, examples = search_fixture()
        for (query, code), ex in zip(pairs, examples):
            assert np.array_equal(encode_text(query, params, vocab), single_forward_cls(params, ex.query_encoded))
            assert np.array_equal(encode_code(code, params, vocab), single_forward_cls(params, ex.code_encoded))
        a, b = single_forward_cls(params, examples[0].code_encoded), single_forward_cls(params, examples[1].code_encoded)
        want = 1.0 / (1.0 + np.exp(-float(a @ b) / np.sqrt(cfg.hidden_dim)))
        assert clone_probability(pairs[0][1], pairs[1][1], params, vocab) == want

    @pytest.mark.parametrize("use_dataflow", [True, False])
    def test_evaluate_search_equals_per_example_reference(self, use_dataflow):
        params, examples = self.fuzzed_corpus(3, use_dataflow)
        codes = np.stack([single_forward_cls(params, ex.code_encoded) for ex in examples])
        codes = codes.astype(np.float64)
        ranks = []
        for gold, ex in enumerate(examples):
            scores = codes @ single_forward_cls(params, ex.query_encoded).astype(np.float64)
            ranks.append(1 + int(np.sum(scores > scores[gold])) + int(np.sum(scores[:gold] == scores[gold])))
        assert evaluate_search(params, examples) == float(np.mean([1.0 / r for r in ranks]))


class TestBatchForward:
    """`downstream.batch_forward`, the one entry of every batched forward:
    sequences in any order, each with its own reads."""

    def test_stacks_equal_length_sequences(self, monkeypatch):
        _, _, _, params, examples = search_fixture()
        encoded = [ex.code_encoded for ex in examples] + [ex.query_encoded for ex in examples]
        groups = downstream.length_groups(encoded)
        assert len(groups) > 1 and any(len(g) > 1 for g in groups)
        calls = []

        def spy(params, ids, positions, masks, reads):
            calls.append((ids, positions, masks, reads))
            return forward(params, ids, positions, masks, reads=reads)

        monkeypatch.setattr(downstream, "forward", spy)
        rows = [(ex.ids, ex.position_ids, build_attention_mask(ex)) for ex in encoded]
        reads = [[i % len(ex), 0, i % len(ex)] for i, ex in enumerate(encoded)]  # unordered, with repeats
        acts = downstream.batch_forward(with_dtype(params, np.float64), rows, reads)
        [(ids, positions, masks, got_reads)] = calls
        order = [i for g in groups for i in g]
        assert ids.tolist() == [t for i in order for t in encoded[i].ids]
        assert positions.tolist() == [p for i in order for p in encoded[i].position_ids]
        assert got_reads == [sorted(set(reads[i])) for i in order]  # each sequence's distinct reads, ascending
        for read, landed in zip(reads, acts.rows):  # one row per read, a repeated position's row repeated
            assert len(landed) == 3 and landed[0] == landed[2] and (landed[0] == landed[1]) == (read[0] == 0)
        assert [m.shape for m in masks] == [(len(g), len(encoded[g[0]]), len(encoded[g[0]])) for g in groups]
        for g, mask in zip(groups, masks):
            for b, i in enumerate(g):
                assert mask.dtype == np.float64
                assert np.array_equal(mask[b], additive_mask(build_attention_mask(encoded[i]), dtype=np.float64))

    @pytest.mark.parametrize("num_layers", [0, 1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_read_rows_equal_single_forwards_in_any_order(self, monkeypatch, dtype, num_layers):
        # Lengths include 1, read at W = 2 > L = 1 (its block runs the full
        # last layer), and blocks whose sequences read unequal numbers of rows.
        # Reads come unordered and with repeats. Every read row equals the
        # full forward of the same batch. It equals the forward of its
        # sequence alone too, but for a float64 sequence of length 1: alone,
        # every matmul of it has one row and takes BLAS's gemv path, whose
        # float64 bits differ from the gemm rows of a batch.
        forwarded = []

        def spy(params, ids, positions, masks, reads=None):
            forwarded.append(reads)
            return forward(params, ids, positions, masks, reads=reads)

        monkeypatch.setattr(downstream, "forward", spy)
        params = init_params(tiny_config(num_layers=num_layers, max_positions=64), dtype=dtype)
        rng = np.random.default_rng(11 + num_layers)
        for _ in range(4):
            lengths = [1, 1, 2, 5, 5, 5, 9, 9, 30] + rng.integers(1, 30, size=4).tolist()
            rows = []
            for n in lengths:
                allow = rng.random((n, n)) < 0.6
                np.fill_diagonal(allow, True)
                rows.append((rng.integers(5, params.config.vocab_size, n), rng.permutation(n), allow))
            reads = [rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False).tolist() for n in lengths]
            reads[-2:] = [rng.choice(n, size=6).tolist() for n in lengths[-2:]]  # drawn with replacement
            reads[0] = [0, 0]  # a read wider than its one-row sequence
            reads[3], reads[4], reads[5] = [4], [0, 3, 1], [4, 1, 4, 0, 1]  # fewer rows than a block-mate
            order = rng.permutation(len(rows))
            rows, reads = [rows[i] for i in order], [reads[i] for i in order]
            forwarded.clear()
            acts = downstream.batch_forward(params, rows, reads)
            [distinct] = forwarded  # each sequence's distinct reads, ascending, block after block
            blocks = downstream.length_groups([ids for ids, _, _ in rows])
            assert distinct == [sorted(set(reads[i])) for group in blocks for i in group]
            full = downstream.batch_forward(params, rows, [list(range(len(ids))) for ids, _, _ in rows])
            assert len(acts.rows) == len(rows)
            assert [len(landed) for landed in acts.rows] == [len(read) for read in reads]
            for s, ((ids, positions, allow), read) in enumerate(zip(rows, reads)):
                got = acts.final.data[acts.rows[s]]
                assert got.dtype == dtype
                assert got.tobytes() == full.final.data[full.rows[s][read]].tobytes()
                if dtype == np.float32 or len(ids) > 1:
                    alone = forward(params, ids, positions, additive_mask(allow, dtype=dtype)).final.data[read]
                    assert got.tobytes() == alone.tobytes()


class TestClsOnlyForwards:
    """Inference and `_cls_rows` read position 0 of each sequence, so the last
    layer runs for that row only, kept `model.MIN_READ_WIDTH` times, and keeps
    the full forward's [CLS] bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cls_rows_equal_single_forwards(self, dtype):
        _, _, _, params, examples = search_fixture(12, num_layers=2)
        params = with_dtype(params, dtype)
        encoded = [ex.query_encoded for ex in examples] + [ex.code_encoded for ex in examples]
        order = [i for group in downstream.length_groups(encoded) for i in group]
        assert len(set(map(len, encoded))) > 2 and order != sorted(order)  # several blocks, out of example order
        got = downstream._cls_rows(params, encoded).data
        assert got.dtype == dtype and np.array_equal(got, np.stack([single_forward_cls(params, ex) for ex in encoded]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cls_rows_train_as_the_two_position_layout(self, dtype):
        # `_cls_rows` keeps position 0 twice; the layout it replaced kept
        # positions 0 and 1. The second row of either gets a zero gradient, so
        # the loss and every gradient keep their bits.
        _, _, _, params, examples = search_fixture(12, num_layers=2)
        params = with_dtype(params, dtype)
        encoded = [ex.query_encoded for ex in examples] + [ex.code_encoded for ex in examples]
        lengths = [len(ex) for ex in encoded]
        assert min(lengths) >= 2 and len(set(lengths)) > 2
        probe = Tensor(np.random.default_rng(5).normal(size=(len(encoded), params.config.hidden_dim)).astype(dtype))

        def loss(cls):
            return ag.tsum(ag.mul(ag.mul(cls, cls), probe))

        def two_positions(p):
            rows = [(ex.ids, ex.position_ids, build_attention_mask(ex)) for ex in encoded]
            acts = downstream.batch_forward(p, rows, [[0, 1]] * len(encoded))
            return ag.take_rows(acts.final, [landed[0] for landed in acts.rows])

        got_value, got = gradient_copies(lambda p: loss(downstream._cls_rows(p, encoded)), params)
        want_value, want = gradient_copies(lambda p: loss(two_positions(p)), params)
        assert got_value == want_value and got.keys() == want.keys()
        for name in want:
            assert got[name].dtype == dtype and np.array_equal(got[name], want[name]), name

    def test_clone_pair_loss_against_finite_differences(self, monkeypatch):
        # `finetune_clone`'s loss over a batch of several lengths, through the
        # blocked `_cls_rows`, against float64 central differences
        tuples, vocab, _ = clone_fixture()
        params = with_dtype(init_params(tiny_config(num_layers=2)), np.float64)  # layer 0 in full, layer 1 for [CLS] only
        rng = np.random.default_rng(7)
        for t in params.tensors.values():  # off the init's zero biases and unit gains
            t.data += rng.normal(scale=0.3, size=t.shape)
        assert len({len(encode_code_example(code, vocab)) for a, b, _ in tuples for code in (a, b)}) > 1
        losses = []
        real = downstream.compute_gradients

        def spy(loss_fn, p):
            losses.append(loss_fn)
            return real(loss_fn, p)

        monkeypatch.setattr(downstream, "compute_gradients", spy)
        pairs = [CloneExample(a, b, y) for a, b, y in tuples]
        finetune_clone(pairs, with_dtype(params, np.float64), vocab, rng=0, batch_size=len(pairs), epochs=1)
        [loss_fn] = losses
        _, grads = compute_gradients(loss_fn, params)
        eps = 1e-6
        coords = [("tok_emb", (CLS, 3)), ("pos_emb", (0, 5))]  # the [CLS] rows' own embeddings
        for name in [n for n in params.tensors if not n.startswith("mlm.")]:
            coords += [(name, tuple(rng.integers(0, s) for s in params.tensors[name].shape)) for _ in range(2)]
        for name, idx in coords:
            arr = params.tensors[name].data
            saved = arr[idx]
            arr[idx] = saved + eps
            hi = float(loss_fn(params).data)
            arr[idx] = saved - eps
            lo = float(loss_fn(params).data)
            arr[idx] = saved
            numeric = (hi - lo) / (2 * eps)
            assert abs(numeric - grads[name][idx]) <= 1e-6 * max(abs(numeric), 1.0), (name, idx)

    def test_fine_tuning_forwards_are_exact_length_blocks(self, monkeypatch):
        # every fine-tuning forward runs the batch as unpadded blocks, one per
        # length, in the order the lengths first appear
        calls = []
        real_rows, real_forward = downstream._cls_rows, downstream.forward

        def spy_rows(params, examples):
            calls.append([examples])
            return real_rows(params, examples)

        def spy_forward(params, ids, positions, masks, reads=None):
            calls[-1].append((np.asarray(ids), masks, reads))
            return real_forward(params, ids, positions, masks, reads=reads)

        monkeypatch.setattr(downstream, "_cls_rows", spy_rows)
        monkeypatch.setattr(downstream, "forward", spy_forward)
        _, _, _, params, examples = search_fixture(8)
        finetune_search(examples, params, rng=0, batch_size=4, epochs=1)
        tuples, vocab, params = clone_fixture()
        finetune_clone([CloneExample(a, b, y) for a, b, y in tuples], params, vocab, rng=0, batch_size=4, epochs=1)
        assert len(calls) == 4 and any(len(masks) > 1 for _, (_, masks, _) in calls)
        for batch, (ids, masks, reads) in calls:
            lengths = [len(ex) for ex in batch]
            firsts = list(dict.fromkeys(lengths))  # lengths in first-seen order
            assert isinstance(masks, list) and ids.ndim == 1 and not np.any(ids == PAD)
            assert [m.shape for m in masks] == [(lengths.count(n), n, n) for n in firsts]
            assert ids.tolist() == [t for n in firsts for ex in batch if len(ex) == n for t in ex.ids]
            assert reads == [[0]] * len(batch)

    @staticmethod
    def ffn_rows(monkeypatch):
        """Rows of every GELU input from now on, one call per layer per forward."""
        rows = []
        gelu = ag.gelu_kernel

        def counting(u):
            rows.append(u.shape[0])
            return gelu(u)

        monkeypatch.setattr(ag, "gelu_kernel", counting)
        return rows

    def test_last_layer_ffn_sees_two_rows_per_sequence(self, monkeypatch):
        num_layers = 2
        pairs, _, vocab, params, examples = search_fixture(12, num_layers=num_layers)
        snippets = [code for _, code in pairs]
        ring = [(snippets[i], snippets[(i + 1) % len(snippets)]) for i in range(len(snippets))]
        encoded = [ex.code_encoded for ex in examples] + [ex.query_encoded for ex in examples]
        assert min(len(ex) for ex in encoded) > 2
        for run, sequences in (
            (lambda: evaluate_search(params, examples), encoded),
            (lambda: clone_probabilities(ring, params, vocab), [ex.code_encoded for ex in examples]),
        ):
            with monkeypatch.context() as m:
                rows = self.ffn_rows(m)
                run()
            last = rows[num_layers - 1 :: num_layers]
            assert len(rows) % num_layers == 0 and len(last) < len(sequences)  # some forwards are batched
            assert sum(last) == 2 * len(sequences)
            assert sum(rows) - sum(last) == (num_layers - 1) * sum(len(ex) for ex in sequences)


# -- search ----------------------------------------------------------------------


class TestSearch:
    def test_prepare_and_evaluate(self):
        _, _, _, params, examples = search_fixture()
        score = evaluate_search(params, examples)
        assert 1.0 / len(examples) <= score <= 1.0
        assert score == evaluate_search(params, examples)

    def test_evaluate_empty(self):
        _, _, _, params, _ = search_fixture()
        with pytest.raises(DataError, match="^no search examples$"):
            evaluate_search(params, [])

    def test_finetune_overfits_small_set(self):
        _, _, _, params, examples = search_fixture(n=4)
        before = evaluate_search(params, examples)
        finetune_search(examples, params, rng=0, lr=3e-3, batch_size=4, epochs=12)
        after = evaluate_search(params, examples)
        assert after >= before
        assert after >= 0.75

    def test_finetune_needs_two_pairs(self):
        _, _, _, params, examples = search_fixture(n=4)
        with pytest.raises(DataError, match="^need at least two pairs for in-batch contrast$"):
            finetune_search(examples[:1], params, rng=0)

    def test_finetune_needs_a_batch_of_two(self):
        # a batch of one has no negative to contrast with, so it would train nothing
        _, _, _, params, examples = search_fixture(n=4)
        before = {name: t.data.copy() for name, t in params.tensors.items()}
        with pytest.raises(ValueError, match="batch size of at least 2"):
            finetune_search(examples, params, rng=0, batch_size=1)
        assert all(np.array_equal(t.data, before[name]) for name, t in params.tensors.items())

    def test_finetune_skips_a_trailing_batch_of_one(self, monkeypatch):
        # 5 pairs in batches of 2 end each epoch with one pair, which has no
        # negative; `finetune_clone`, through the same loop, trains on one
        _, _, _, params, examples = search_fixture(n=5)
        steps = []
        adam_step = downstream.adam_step
        monkeypatch.setattr(downstream, "adam_step", lambda *args: steps.append(args) or adam_step(*args))
        finetune_search(examples, params, rng=0, batch_size=2, epochs=2)
        assert len(steps) == 4

    def test_no_dataflow_variant(self):
        pairs = search_pairs(4)
        cfg = tiny_config()
        vocab = build_vocab([(q, c) for q, c in pairs], cfg.vocab_size)
        params = init_params(cfg)
        examples = prepare_search_examples(pairs, vocab, Limits(max_nodes=0), max_positions=MAX_POSITIONS)
        assert all(ex.code_encoded.node_positions == () for ex in examples)
        score = evaluate_search(params, examples)
        assert 0.0 < score <= 1.0


# -- clone detection --------------------------------------------------------------


def clone_fixture():
    tuples = clone_corpus()
    cfg = tiny_config()
    corpus = [(f"pair {i}", a + b) for i, (a, b, _) in enumerate(tuples)]
    vocab = build_vocab(corpus, cfg.vocab_size)
    params = init_params(cfg)
    return tuples, vocab, params


class TestCloneDetection:
    def test_probability_symmetric_and_bounded(self):
        tuples, vocab, params = clone_fixture()
        for a, b, _ in tuples[:3]:
            p = clone_probability(a, b, params, vocab)
            q = clone_probability(b, a, params, vocab)
            assert 0.0 < p < 1.0
            assert p == pytest.approx(q, abs=1e-12)

    @pytest.mark.parametrize("use_dataflow", [True, False])
    def test_clone_probabilities_encode_each_snippet_once(self, monkeypatch, use_dataflow):
        tuples, vocab, params = clone_fixture()
        snippets = list(dict.fromkeys([a for a, _, _ in tuples] + [b for _, b, _ in tuples]))
        ring = [(snippets[i], snippets[(i + 1) % len(snippets)]) for i in range(len(snippets))]
        limits = Limits() if use_dataflow else Limits(max_nodes=0)
        want = [clone_probabilities([(a, b)], params, vocab, limits)[0] for a, b in ring]
        encoded = []
        real = downstream.encode_code_example

        def spy(code, *args):
            encoded.append(code)
            return real(code, *args)

        monkeypatch.setattr(downstream, "encode_code_example", spy)
        assert clone_probabilities(ring, params, vocab, limits) == want
        assert sorted(encoded) == sorted(snippets)

    def test_self_pair_at_least_half(self):
        tuples, vocab, params = clone_fixture()
        code = tuples[0][0]
        assert clone_probability(code, code, params, vocab) >= 0.5

    def test_finetune_separates_labels(self):
        tuples, vocab, params = clone_fixture()
        pairs = [CloneExample(a, b, y) for a, b, y in tuples]
        finetune_clone(pairs, params, vocab, rng=0, lr=3e-3, batch_size=4, epochs=10)
        probs = [clone_probability(p.code_a, p.code_b, params, vocab) for p in pairs]
        pos = [p for p, ex in zip(probs, pairs) if ex.label == 1]
        neg = [p for p, ex in zip(probs, pairs) if ex.label == 0]
        assert min(pos) > max(neg)

    def test_finetune_empty(self):
        _, vocab, params = clone_fixture()
        with pytest.raises(DataError, match="^no clone pairs$"):
            finetune_clone([], params, vocab, rng=0)


class TestCloneMetrics:
    def test_hand_example(self):
        p, r, f1 = clone_metrics([0.9, 0.2, 0.8, 0.4], [1, 0, 0, 1])
        assert (p, r, f1) == (0.5, 0.5, 0.5)

    def test_perfect(self):
        assert clone_metrics([0.9, 0.1], [1, 0]) == (1.0, 1.0, 1.0)

    def test_zero_denominators(self):
        assert clone_metrics([0.1, 0.2], [0, 0]) == (0.0, 0.0, 0.0)
        assert clone_metrics([0.1, 0.2], [1, 1]) == (0.0, 0.0, 0.0)

    def test_threshold_is_strict(self):
        # a prediction exactly at the 0.5 threshold counts as negative
        p, r, f1 = clone_metrics([0.5], [1])
        assert (p, r, f1) == (0.0, 0.0, 0.0)
        p, r, f1 = clone_metrics([np.nextafter(0.5, 1.0)], [1])
        assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_against_confusion_matrix_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            preds = rng.random(n)
            labels = rng.integers(0, 2, size=n)
            p, r, f1 = clone_metrics(preds, labels)
            tp = int(np.sum((preds > 0.5) & (labels == 1)))
            fp = int(np.sum((preds > 0.5) & (labels == 0)))
            fn = int(np.sum((preds <= 0.5) & (labels == 1)))
            want_p = tp / (tp + fp) if tp + fp else 0.0
            want_r = tp / (tp + fn) if tp + fn else 0.0
            want_f = 2 * want_p * want_r / (want_p + want_r) if want_p + want_r else 0.0
            assert (p, r, f1) == (want_p, want_r, want_f)


# -- attention analysis ------------------------------------------------------------


class TestAttentionSplit:
    def forward_example(self, code="a = 1\nb = a\n", use_dataflow=True):
        cfg = tiny_config(num_layers=2)
        params = init_params(cfg)
        vocab = build_vocab([("query words here", code)], cfg.vocab_size)
        limits = Limits() if use_dataflow else Limits(max_nodes=0)
        ex = encode_example("query words here", code, vocab, limits, max_positions=MAX_POSITIONS)
        acts = forward(params, ex.ids, ex.position_ids, additive_mask(build_attention_mask(ex)))
        return acts, ex

    def test_split_sums_to_one(self):
        acts, ex = self.forward_example()
        code_frac, node_frac = cls_attention_split(acts, ex)
        assert code_frac + node_frac == pytest.approx(1.0, abs=1e-6)
        assert 0.0 < node_frac < 1.0

    def test_zero_nodes(self):
        acts, ex = self.forward_example(use_dataflow=False)
        assert cls_attention_split(acts, ex) == (1.0, 0.0)

    def test_zero_layers_with_nodes_rejected(self):
        cfg = tiny_config(num_layers=0)
        params = init_params(cfg)
        code = "a = 1\nb = a\n"
        vocab = build_vocab([("query words here", code)], cfg.vocab_size)
        ex = encode_example("query words here", code, vocab, max_positions=MAX_POSITIONS)
        acts = forward(params, ex.ids, ex.position_ids, additive_mask(build_attention_mask(ex)))
        with pytest.raises(ValueError):
            cls_attention_split(acts, ex)

    def test_batched_splits_equal_single_forwards(self, monkeypatch):
        # `attention_splits` reads [CLS] only, from packed forwards, and a
        # length group is split; each split equals, float for float, the one
        # of the example's own full single-example forward
        shapes = []

        def spy(params, ids, positions, masks, reads):
            shapes.extend(np.shape(m)[:2] for m in masks)  # each block's (B, L)
            return forward(params, ids, positions, masks, reads=reads)

        monkeypatch.setattr(downstream, "forward", spy)
        monkeypatch.setattr(downstream, "MAX_FORWARD_POSITIONS", 100)
        rng = np.random.default_rng(5)
        pairs = search_pairs(12) + [("find the value", random_program(rng)) for _ in range(6)]
        params = init_params(tiny_config(num_layers=2, max_positions=512))
        vocab = build_vocab(pairs, params.config.vocab_size)
        examples = [
            encode_example(query, code, vocab, limits, max_positions=512)
            for query, code in pairs
            for limits in (Limits(), Limits(max_nodes=0))
        ]
        assert {bool(ex.node_positions) for ex in examples} == {True, False}
        assert len({len(ex) for ex in examples}) > 5
        want = [
            cls_attention_split(forward(params, ex.ids, ex.position_ids, additive_mask(build_attention_mask(ex))), ex)
            for ex in examples
        ]
        assert downstream.attention_splits(params, examples) == want
        assert len(shapes) > len({n for _, n in shapes})  # a length group was split
        assert any(0.0 < node < 1.0 for _, node in want)


# -- corpus filtering ----------------------------------------------------------------


def item(code="a = 1\n", docstring="set the value a"):
    return CorpusItem(code=code, docstring=docstring, lang="python")


class TestFilterSearchCorpus:
    def test_keeps_clean_item(self):
        assert filter_search_corpus([item()]) == [item()]

    def test_drops_unparseable_code(self):
        assert filter_search_corpus([item(code="def f(:\n")]) == []

    def test_drops_short_and_long_queries(self):
        assert filter_search_corpus([item(docstring="too short")]) == []
        assert filter_search_corpus([item(docstring=" ".join(["w"] * 257))]) == []
        assert filter_search_corpus([item(docstring=" ".join(["w"] * 256))]) != []
        assert filter_search_corpus([item(docstring="")]) == []

    def test_drops_urls(self):
        assert filter_search_corpus([item(docstring="see http://x.test for details")]) == []

    def test_drops_mostly_non_ascii(self):
        assert filter_search_corpus([item(docstring="укр мов тест")]) == []
        assert filter_search_corpus([item(docstring="abc où def")]) != []
        assert filter_search_corpus([item(docstring="ab ü ñéöäßçøåæ")]) == []
        # Half ASCII is kept, one character short of half is not; a lone
        # surrogate counts as one non-ASCII character.
        assert filter_search_corpus([item(docstring="a b éééé")]) != []
        assert filter_search_corpus([item(docstring="a b ééééé")]) == []
        assert filter_search_corpus([item(docstring="one two \ud800")]) != []
        assert filter_search_corpus([item(docstring="a b \ud800\ud800\ud800\ud800\ud800")]) == []

    def test_order_preserving_and_idempotent(self):
        items = [
            item(docstring="first clean entry"),
            item(code="def f(:\n"),
            item(docstring="second clean entry"),
        ]
        kept = filter_search_corpus(items)
        assert kept == [items[0], items[2]]
        assert filter_search_corpus(kept) == kept

    def test_rejected_docstring_skips_the_parse(self, monkeypatch):
        parsed = []

        def spy(code):
            parsed.append(code)
            return parse_source(code)

        monkeypatch.setattr(downstream, "parse_source", spy)
        rejected = ["too short", " ".join(["w"] * 257), "", "see http://x.test for details", "укр мов тест"]
        items = [item(code=f"x{i} = 1\n", docstring=d) for i, d in enumerate(rejected)]
        items.append(item(code="kept = 1\n"))
        assert filter_search_corpus(items) == [items[-1]]
        assert parsed == ["kept = 1\n"]
