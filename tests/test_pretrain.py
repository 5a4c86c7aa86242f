"""Objectives, target sampling, the language sampler, and the training loop."""

import csv
import json
import math
from collections import Counter

import numpy as np
import pytest

import codeflow.autograd as ag
import codeflow.downstream as downstream
from codeflow.dfg import extract_dfg
from codeflow.encoding import (
    MASK,
    PAD,
    Limits,
    Vocabulary,
    additive_mask,
    build_attention_mask,
    build_vocab,
    encode_example,
)
from codeflow.errors import DataError
from codeflow.model import ModelConfig, NonFiniteLoss, forward, init_params
from codeflow.pretrain import (
    CorpusItem,
    MlmBatchTarget,
    Objectives,
    batch_loss,
    encode_corpus,
    language_sampler,
    load_corpus,
    mlm_loss,
    pair_loss,
    pretrain_run,
    sample_align_targets,
    sample_edge_targets,
    sampling_arrays,
    select_mlm_targets,
    structure_accuracy,
    structure_targets,
    write_loss_log,
)
from helpers import (
    gradient_copies,
    overfit_corpus,
    random_program,
    reference_sample_align_targets,
    reference_sample_edge_targets,
    reference_select_mlm_targets,
    with_dtype,
)

CODE = "a = 1\nb = a\nc = a + b\n"


def encoded_example(comment="add two numbers", code=CODE, vocab_size=64, max_positions=128, **kw):
    vocab = build_vocab([(comment, code)], size=vocab_size)
    return encode_example(comment, code, vocab, max_positions=max_positions, **kw), vocab


def tiny_config(**kw):
    base = dict(
        num_layers=1, hidden_dim=16, num_heads=2, ffn_dim=32,
        vocab_size=64, max_positions=128, seed=9,
    )
    base.update(kw)
    return ModelConfig(**base)


def items_from(pairs):
    return [CorpusItem(code=c, docstring=d, lang=lang) for d, c, lang in pairs]


# -- masked-token objective ---------------------------------------------------


class TestMlmTargets:
    def test_count_rule(self):
        # round-half-up of 15%, floored at one
        for n, want in [(3, 1), (4, 1), (10, 2), (17, 3), (100, 15)]:
            comment = " ".join(f"w{i}" for i in range(n))
            e, _ = encoded_example(comment=comment, code="")
            assert len(sampling_arrays(e).maskable) == n
            t = select_mlm_targets(e, np.random.default_rng(0), 64)
            assert len(t.positions) == want

    def test_positions_are_maskable_sorted_unique(self):
        ex, _ = encoded_example()
        for seed in range(20):
            t = select_mlm_targets(ex, np.random.default_rng(seed), 64)
            assert list(t.positions) == sorted(set(t.positions))
            assert set(t.positions) <= set(sampling_arrays(ex).maskable.tolist())

    def test_originals_and_untouched_positions(self):
        ex, _ = encoded_example()
        t = select_mlm_targets(ex, np.random.default_rng(3), 64)
        assert t.original_ids == tuple(ex.ids[p] for p in t.positions)
        for p in range(len(ex)):
            if p not in t.positions:
                assert t.masked_ids[p] == ex.ids[p]

    def test_corruption_mixture(self):
        # 80/10/10 mask/random/keep over many draws
        ex, _ = encoded_example(vocab_size=512)
        masked = randomized = kept = total = 0
        for seed in range(4000):
            t = select_mlm_targets(ex, np.random.default_rng(seed), 512)
            for p, orig in zip(t.positions, t.original_ids):
                got = t.masked_ids[p]
                if got == MASK:
                    masked += 1
                elif got == orig:
                    kept += 1
                else:
                    randomized += 1
                total += 1
        assert abs(masked / total - 0.8) < 0.02
        assert abs(randomized / total - 0.1) < 0.02
        assert abs(kept / total - 0.1) < 0.02

    def test_random_replacement_never_reserved(self):
        ex, _ = encoded_example(vocab_size=512)
        for seed in range(300):
            t = select_mlm_targets(ex, np.random.default_rng(seed), 512)
            for p in t.positions:
                assert t.masked_ids[p] >= 5 or t.masked_ids[p] == MASK or t.masked_ids[p] == ex.ids[p]

    def test_deterministic(self):
        ex, _ = encoded_example()
        a = select_mlm_targets(ex, np.random.default_rng(11), 64)
        b = select_mlm_targets(ex, np.random.default_rng(11), 64)
        assert a == b

    def test_no_maskable_positions(self):
        ex, _ = encoded_example(comment="", code="")
        with pytest.raises(DataError, match="^example has no comment or code tokens$"):
            select_mlm_targets(ex, np.random.default_rng(0), 64)


class TestMlmLoss:
    def test_uniform_logits_give_log_vocab(self):
        cfg = tiny_config()
        params = init_params(cfg)
        params.tensors["mlm.w"].data[:] = 0.0
        ex, _ = encoded_example()
        t = select_mlm_targets(ex, np.random.default_rng(0), cfg.vocab_size)
        acts = forward(params, t.masked_ids, ex.position_ids, additive_mask(build_attention_mask(ex)))
        loss = mlm_loss(acts, t, params)
        assert abs(float(loss.data) - math.log(cfg.vocab_size)) < 1e-6

    def test_matches_direct_evaluation(self):
        cfg = tiny_config()
        params = with_dtype(init_params(cfg), np.float64)
        ex, _ = encoded_example()
        t = select_mlm_targets(ex, np.random.default_rng(1), cfg.vocab_size)
        acts = forward(params, t.masked_ids, ex.position_ids, additive_mask(build_attention_mask(ex), dtype=np.float64))
        loss = float(mlm_loss(acts, t, params).data)

        h = acts.final.data
        logits = h @ params.tensors["mlm.w"].data + params.tensors["mlm.b"].data
        direct = 0.0
        for p, orig in zip(t.positions, t.original_ids):
            row = logits[p]
            direct -= row[orig] - (np.log(np.sum(np.exp(row - row.max()))) + row.max())
        direct /= len(t.positions)
        assert abs(loss - direct) < 1e-9

    def test_empty_positions_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg)
        ex, _ = encoded_example()
        t = select_mlm_targets(ex, np.random.default_rng(0), cfg.vocab_size)
        empty = type(t)(masked_ids=t.masked_ids, positions=(), original_ids=())
        acts = forward(params, t.masked_ids, ex.position_ids, additive_mask(build_attention_mask(ex)))
        with pytest.raises(ValueError):
            mlm_loss(acts, empty, params)


# -- structure target sampling ------------------------------------------------


def edgeful_examples(count=25, seed=17):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary({t: i for i, t in enumerate("abcdefgh", start=5)})
    out = []
    while len(out) < count:
        code = random_program(rng)
        dfg = extract_dfg(code)
        if not dfg.edges:
            continue
        try:
            out.append(encode_example("query words", code, vocab, max_positions=128))
        except DataError as e:
            if not str(e).startswith("sequence needs"):
                raise
    return out


class TestEdgeTargets:
    def test_invariants(self):
        rng = np.random.default_rng(23)
        for ex in edgeful_examples():
            tset = sample_edge_targets(ex, rng)
            nodes = set(ex.node_positions)
            sampled = set(tset.sampled_positions)
            assert len(tset.sampled_positions) == math.ceil(0.2 * len(nodes))
            assert sampled <= nodes
            # positives: exactly the edges touching the sample
            want_pos = [e for e in sorted(ex.node_edges) if e[0] in sampled or e[1] in sampled]
            assert list(tset.masked) == want_pos
            npos = len(want_pos)
            assert list(tset.labels) == [1] * npos + [0] * (len(tset.candidates) - npos)
            # negatives: node pairs touching the sample that are not edges in
            # either direction (the dot scorer cannot tell an edge from its
            # mirror) and not self pairs
            edges = set(ex.node_edges)
            pool = (
                {(a, b) for a in sampled for b in nodes}
                | {(a, b) for a in nodes for b in sampled}
            ) - edges - {(b, a) for a, b in edges} - {(a, a) for a in sampled}
            negatives = list(tset.candidates[npos:])
            assert len(negatives) == min(npos, len(pool))
            assert len(set(negatives)) == len(negatives)
            assert set(negatives) <= pool

    def test_mask_blocks_exactly_the_masked_edges(self):
        rng = np.random.default_rng(29)
        for ex in edgeful_examples(count=10):
            tset = sample_edge_targets(ex, rng)
            want = np.array(build_attention_mask(ex))
            for src, dst in tset.masked:
                assert want[dst, src]
                want[dst, src] = False
            assert np.array_equal(tset.mask, want)
            assert tset.mask[tset.masked[0][1], tset.masked[0][1]]  # dst keeps self
            assert not tset.mask.flags.writeable

    def test_deterministic(self):
        ex = edgeful_examples(count=1)[0]
        a = sample_edge_targets(ex, np.random.default_rng(5))
        b = sample_edge_targets(ex, np.random.default_rng(5))
        assert a.candidates == b.candidates and a.labels == b.labels
        assert np.array_equal(a.mask, b.mask)

    def test_no_nodes(self):
        ex, _ = encoded_example(code="probe(1)\n")
        assert ex.node_positions == ()
        assert sample_edge_targets(ex, np.random.default_rng(0)) is None

    def test_no_edges(self):
        ex, _ = encoded_example(code="a = 1\nb = 2\n")
        assert ex.node_positions != () and ex.node_edges == frozenset()
        assert sample_edge_targets(ex, np.random.default_rng(0)) is None


class TestAlignTargets:
    def test_invariants(self):
        rng = np.random.default_rng(31)
        for ex in edgeful_examples():
            tset = sample_align_targets(ex, rng)
            sampled = set(tset.sampled_positions)
            want_pos = [l for l in sorted(ex.node_token_links) if l[0] in sampled]
            assert list(tset.masked) == want_pos
            npos = len(want_pos)
            assert list(tset.labels) == [1] * npos + [0] * (len(tset.candidates) - npos)
            pool = {(v, c) for v in sampled for c in ex.code_positions} - set(ex.node_token_links)
            negatives = list(tset.candidates[npos:])
            assert len(negatives) == min(npos, len(pool))
            assert set(negatives) <= pool

    def test_mask_blocks_both_directions(self):
        rng = np.random.default_rng(37)
        for ex in edgeful_examples(count=10):
            tset = sample_align_targets(ex, rng)
            want = np.array(build_attention_mask(ex))
            for npos, cpos in tset.masked:
                assert want[npos, cpos] and want[cpos, npos]
                want[npos, cpos] = False
                want[cpos, npos] = False
            assert np.array_equal(tset.mask, want)

    def test_no_nodes(self):
        ex, _ = encoded_example(code="probe(1)\n")
        assert sample_align_targets(ex, np.random.default_rng(0)) is None


# -- pair scoring loss --------------------------------------------------------


class TestStructureLosses:
    def test_all_half_probabilities_give_log_two(self):
        # zero embeddings and no layers make every representation zero, so
        # every candidate pair scores sigmoid(0) = 0.5
        cfg = tiny_config(num_layers=0)
        params = with_dtype(init_params(cfg), np.float64)
        params.tensors["tok_emb"].data[:] = 0.0
        params.tensors["pos_emb"].data[:] = 0.0
        ex = edgeful_examples(count=1)[0]
        tset = next(
            t
            for t in (sample_edge_targets(ex, np.random.default_rng(s)) for s in range(50))
            if t.candidates
        )
        acts = forward(params, ex.ids, ex.position_ids, additive_mask(tset.mask, dtype=np.float64))
        loss = float(pair_loss(acts, tset).data)
        assert abs(loss - math.log(2.0)) < 1e-9

    @pytest.mark.parametrize("which", ["edge", "align"])
    def test_matches_direct_evaluation(self, which):
        cfg = tiny_config()
        params = with_dtype(init_params(cfg), np.float64)
        ex = edgeful_examples(count=1)[0]
        rng = np.random.default_rng(3)
        tset = (sample_edge_targets if which == "edge" else sample_align_targets)(ex, rng)
        acts = forward(params, ex.ids, ex.position_ids, additive_mask(tset.mask, dtype=np.float64))
        loss = float(pair_loss(acts, tset).data)

        h = acts.final.data
        direct = 0.0
        for (i, j), y in zip(tset.candidates, tset.labels):
            p = 1.0 / (1.0 + np.exp(-float(h[i] @ h[j])))
            direct -= y * np.log(p) + (1 - y) * np.log(1.0 - p)
        direct /= len(tset.candidates)
        assert abs(loss - direct) < 1e-9

    # What the separate edge_pred_loss and node_align_loss gave for this setup
    # before both became pair_loss (float64, tiny_config(num_layers=2), the
    # first rng seed whose targets have candidates).
    OLD_LOSSES = {
        "edgepred": (7.999821910199831, 7.999862403753878, 7.9998753718466205),
        "nodealign": (3.326050478371908, 2.1078775214118224, 2.2860518342887817),
    }

    @pytest.mark.parametrize("objective", ["edgepred", "nodealign"])
    def test_gives_the_per_objective_losses_it_replaced(self, objective):
        params = with_dtype(init_params(tiny_config(num_layers=2)), np.float64)
        for ex, old in zip(edgeful_examples(count=3, seed=41), self.OLD_LOSSES[objective]):
            tset = next(
                t for t in (structure_targets(ex, objective, np.random.default_rng(s)) for s in range(50)) if t
            )
            acts = forward(params, ex.ids, ex.position_ids, additive_mask(tset.mask, dtype=np.float64))
            assert abs(float(pair_loss(acts, tset).data) - old) <= 1e-12

    def test_masked_relation_is_invisible_in_attention(self):
        cfg = tiny_config(num_layers=2)
        params = init_params(cfg)
        ex = edgeful_examples(count=1)[0]
        tset = sample_edge_targets(ex, np.random.default_rng(4))
        acts = forward(params, ex.ids, ex.position_ids, additive_mask(tset.mask))
        for layer in acts.attention:
            for head in layer:
                for src, dst in tset.masked:
                    assert head.data[dst, src] <= 1e-12

    def test_empty_candidates_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg)
        ex = edgeful_examples(count=1)[0]
        tset = sample_edge_targets(ex, np.random.default_rng(2))
        empty = type(tset)(
            sampled_positions=tset.sampled_positions,
            masked=tset.masked,
            candidates=(),
            labels=(),
            mask=tset.mask,
        )
        acts = forward(params, ex.ids, ex.position_ids, additive_mask(tset.mask))
        with pytest.raises(ValueError):
            pair_loss(acts, empty)


class TestStructureTargets:
    """`structure_targets` is the one objective dispatch of `pretrain_run`
    and `structure_accuracy`."""

    SAMPLERS = {"edgepred": sample_edge_targets, "nodealign": sample_align_targets}

    @pytest.mark.parametrize("objective", ["edgepred", "nodealign"])
    def test_same_targets_and_draws_as_the_sampler(self, objective):
        for ex in edgeful_examples(count=8, seed=43):
            rng_got, rng_want = np.random.default_rng(8), np.random.default_rng(8)
            got = structure_targets(ex, objective, rng_got)
            want = self.SAMPLERS[objective](ex, rng_want)
            if not want.candidates:
                assert got is None
            else:
                assert (got.sampled_positions, got.masked, got.candidates, got.labels) == (
                    want.sampled_positions, want.masked, want.candidates, want.labels
                )
                assert np.array_equal(got.mask, want.mask)
            assert rng_got.random() == rng_want.random()  # the same draws were made

    def test_none_without_nodes_or_edges(self):
        nodeless, _ = encoded_example(code="probe(1)\n")
        edgeless, _ = encoded_example(code="a = 1\nb = 2\n")
        for objective in ("edgepred", "nodealign"):
            assert structure_targets(nodeless, objective, np.random.default_rng(0)) is None
        assert structure_targets(edgeless, "edgepred", np.random.default_rng(0)) is None
        assert structure_targets(edgeless, "nodealign", np.random.default_rng(0)) is not None

    def test_unknown_objective(self):
        ex, _ = encoded_example()
        with pytest.raises(ValueError, match="unknown objective"):
            structure_targets(ex, "bogus", np.random.default_rng(0))


def corner_examples():
    """Examples at the edges of the samplers: no nodes, one node and no
    edges, nodes without edges, and every code token linked to a node (an
    empty alignment pool, so no negative is drawn)."""
    vocab = build_vocab([("x", "a = b\nb = a\n")], size=64)
    return {
        "no nodes": encode_example("call it", "probe(1)\n", vocab),
        "one node": encode_example("one", "a = 1\n", vocab),
        "no edges": encode_example("two", "a = 1\nb = 2\n", vocab),
        "all linked": encode_example("only names", "a = b\nb = a\n", vocab, Limits(max_code=1)),
    }


def assert_same_targets(got, want):
    if want is None:
        assert got is None
    elif isinstance(want, MlmBatchTarget):
        assert got == want
    else:
        assert (got.sampled_positions, got.masked, got.candidates, got.labels) == (
            want.sampled_positions, want.masked, want.candidates, want.labels
        )
        assert got.mask.dtype == want.mask.dtype and got.mask.shape == want.mask.shape
        assert got.mask.tobytes() == want.mask.tobytes()
        assert not got.mask.flags.writeable


class TestSamplersMatchTheSetBasedReference:
    """The array samplers against `helpers.reference_*`, the set-based
    samplers they replaced: every target field, the mask bytes, and the
    generator state after each call."""

    def examples(self):
        cfg = tiny_config()
        corpus = overfit_corpus(8)
        vocab = build_vocab([(it.docstring, it.code) for it in corpus], cfg.vocab_size)
        return (
            edgeful_examples(count=12, seed=53)
            + encode_corpus(corpus, vocab, max_positions=cfg.max_positions)
            + list(corner_examples().values())
        )

    def test_corner_cases_are_reached(self):
        corners = corner_examples()
        assert corners["no nodes"].node_positions == ()
        assert len(corners["one node"].node_positions) == 1 and not corners["one node"].node_edges
        assert len(corners["no edges"].node_positions) > 1 and not corners["no edges"].node_edges
        linked = corners["all linked"]
        assert {c for _, c in linked.node_token_links} == set(linked.code_positions)
        tset = sample_align_targets(linked, np.random.default_rng(0))
        assert tset.candidates == tset.masked != ()  # take == 0: no negatives

    @pytest.mark.parametrize("prepared", [False, True], ids=["example", "arrays"])
    @pytest.mark.parametrize("vocab_size", [5, 64])
    def test_same_targets_and_draws(self, prepared, vocab_size):
        examples = self.examples()
        for seed in range(40):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for ex in examples:
                arg = sampling_arrays(ex) if prepared else ex
                for got, want in (
                    (
                        lambda: select_mlm_targets(arg, rng, vocab_size),
                        lambda: reference_select_mlm_targets(ex, ref_rng, vocab_size),
                    ),
                    (lambda: sample_edge_targets(arg, rng), lambda: reference_sample_edge_targets(ex, ref_rng)),
                    (lambda: sample_align_targets(arg, rng), lambda: reference_sample_align_targets(ex, ref_rng)),
                ):
                    assert_same_targets(got(), want())
                    assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_nothing_to_mask_raises_in_both(self):
        ex, _ = encoded_example(comment="", code="")
        for sampler in (select_mlm_targets, reference_select_mlm_targets):
            with pytest.raises(DataError, match="^example has no comment or code tokens$"):
                sampler(ex, np.random.default_rng(0), 64)

    def test_arrays_restate_the_example(self):
        for ex in self.examples():
            a = sampling_arrays(ex)
            assert a.maskable.tolist() == [i for i, s in enumerate(ex.segments) if s in ("comment", "code")]
            assert a.nodes.tolist() == list(ex.node_positions)
            assert a.code.tolist() == list(ex.code_positions)
            nodes, code = a.nodes.tolist(), a.code.tolist()
            assert {(nodes[i], nodes[j]) for i, j in zip(*np.nonzero(a.edge))} == ex.node_edges
            assert {(nodes[i], code[j]) for i, j in zip(*np.nonzero(a.link))} == ex.node_token_links
            mirrored = {(b, c) for c, b in ex.node_edges}
            negatives = {(b, c) for b in nodes for c in nodes if b != c} - ex.node_edges - mirrored
            assert {(nodes[i], nodes[j]) for i, j in zip(*np.nonzero(a.negative_edge))} == negatives
            assert a.allow.tobytes() == build_attention_mask(ex).tobytes() and not a.allow.flags.writeable
            assert len(a) == len(ex)
            # prepared ones pass through; nothing is cached on the example
            assert sampling_arrays(a) is a and sampling_arrays(ex) is not a

    def test_pretrain_run_gives_the_reference_run(self, monkeypatch):
        # compared within one process: the loss bits depend on the BLAS thread count
        import codeflow.pretrain as pretrain

        def run():
            return pretrain_run(overfit_corpus(16), tiny_config(num_layers=2), steps=8, rng=4, batch_size=6)

        got = run()
        with monkeypatch.context() as m:
            m.setattr(pretrain, "select_mlm_targets", lambda a, rng, v: reference_select_mlm_targets(a.example, rng, v))
            m.setattr(pretrain, "sample_edge_targets", lambda a, rng: reference_sample_edge_targets(a.example, rng))
            m.setattr(pretrain, "sample_align_targets", lambda a, rng: reference_sample_align_targets(a.example, rng))
            want = run()
        assert {o for _, o, _ in got.loss_log} == {"mlm", "edgepred", "nodealign"}
        assert [(s, o, float.hex(v)) for s, o, v in got.loss_log] == [
            (s, o, float.hex(v)) for s, o, v in want.loss_log
        ]
        for name, tensor in want.params.tensors.items():
            assert got.params.tensors[name].data.tobytes() == tensor.data.tobytes(), name


class TestBatchLoss:
    """The one-forward batch loss against a forward per example through the
    single-example loss heads, in float64."""

    @pytest.mark.parametrize("structure", ["edgepred", "nodealign", None])
    def test_matches_per_example_losses(self, structure):
        cfg = tiny_config(num_layers=2)
        params = with_dtype(init_params(cfg), np.float64)
        rng = np.random.default_rng(23)
        prepared = []
        for i, ex in enumerate(edgeful_examples(count=6, seed=29)):
            mlm_t = select_mlm_targets(ex, rng, cfg.vocab_size)
            tset = structure_targets(ex, structure, rng) if structure is not None and i % 3 else None  # some have none
            prepared.append((ex, mlm_t, tset))
        assert len({len(ex) for ex, _, _ in prepared}) > 1  # some rows are padded
        assert any(t is not None for _, _, t in prepared) == (structure is not None)

        def mean(terms):
            total = terms[0]
            for t in terms[1:]:
                total = ag.add(total, t)
            return ag.mul(total, 1.0 / len(terms))

        got_parts, want_parts = {}, {}

        def per_example(p):
            mlm, struct = [], []
            for ex, mlm_t, tset in prepared:
                allow = build_attention_mask(ex) if tset is None else tset.mask
                acts = forward(p, mlm_t.masked_ids, ex.position_ids, additive_mask(allow, dtype=np.float64))
                mlm.append(mlm_loss(acts, mlm_t, p))
                if tset is not None:
                    struct.append(pair_loss(acts, tset))
            total = mean(mlm)
            want_parts["mlm"] = float(total.data)
            if struct:
                want_parts[structure] = float(mean(struct).data)
                total = ag.add(total, mean(struct))
            return total

        def batched(p):
            total, parts = batch_loss(p, prepared, structure)
            got_parts.update(parts)
            return total

        got_value, got = gradient_copies(batched, params)
        want_value, want = gradient_copies(per_example, params)
        assert abs(got_value - want_value) <= 1e-6
        assert got_parts.keys() == want_parts.keys()
        for k in want_parts:
            assert abs(got_parts[k] - want_parts[k]) <= 1e-6
        for name in want:
            assert np.abs(got[name] - want[name]).max() <= 1e-6, name


# -- language sampler ---------------------------------------------------------

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("structure", ["edgepred", "nodealign", None])
    def test_loss_and_parts_equal_the_full_final_layer(self, monkeypatch, dtype, structure):
        # at fixed parameters the read rows keep every bit of the loss
        cfg = tiny_config(num_layers=2)
        params = init_params(cfg, dtype=dtype)
        rng = np.random.default_rng(31)
        prepared = []
        for ex in edgeful_examples(count=6, seed=37):
            mlm_t = select_mlm_targets(ex, rng, cfg.vocab_size)
            prepared.append((ex, mlm_t, None if structure is None else structure_targets(ex, structure, rng)))
        assert len({len(ex) for ex, _, _ in prepared}) > 1  # the forward has several blocks

        def full_forward(p, ids, positions, masks, reads=None):
            acts = forward(p, ids, positions, masks)  # every row of the last layer
            acts.rows = [rows[read] for rows, read in zip(acts.rows, reads)]
            return acts

        got, got_parts = batch_loss(params, prepared, structure)
        with monkeypatch.context() as m:
            m.setattr(downstream, "forward", full_forward)
            want, want_parts = batch_loss(params, prepared, structure)
        assert got.dtype == dtype and got.data.tobytes() == want.data.tobytes()
        assert {k: float.hex(v) for k, v in got_parts.items()} == {k: float.hex(v) for k, v in want_parts.items()}


def first_seen_length_order(examples) -> list[int]:
    """Indices of `examples` by length, lengths in the order they first appear."""
    lengths = [len(ex) for ex in examples]
    return [i for length in dict.fromkeys(lengths) for i, n in enumerate(lengths) if n == length]


class TestBlockedBatchForward:
    """`batch_loss`'s one forward over unpadded exact-length blocks."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("structure", ["edgepred", "nodealign", None])
    @pytest.mark.parametrize("several", [False, True], ids=["one-length", "several-lengths"])
    def test_read_rows_equal_single_example_forwards(self, monkeypatch, dtype, structure, several):
        import codeflow.pretrain as pretrain

        cfg = tiny_config(num_layers=2)
        params = init_params(cfg, dtype=dtype)
        rng = np.random.default_rng(47)
        examples = edgeful_examples(count=6, seed=53)
        if not several:  # one example four times, each copy with targets of its own
            examples = [examples[0]] * 4
        prepared = []
        for ex in examples:
            mlm_t = select_mlm_targets(ex, rng, cfg.vocab_size)
            prepared.append((ex, mlm_t, None if structure is None else structure_targets(ex, structure, rng)))
        assert (len({len(ex) for ex in examples}) > 1) == several
        seen = []
        real = pretrain.batch_forward

        def spy(p, sequences, reads):
            acts = real(p, sequences, reads)
            seen.append((sequences, reads, acts))
            return acts

        monkeypatch.setattr(pretrain, "batch_forward", spy)
        batch_loss(params, prepared, structure)
        [(sequences, reads, acts)] = seen
        assert len(sequences) == len(reads) == len(acts.rows) == len(prepared)
        for (ex, mlm_t, tset), (ids, positions, allow), read, rows in zip(prepared, sequences, reads, acts.rows):
            # the masked positions, then each candidate's two ends, repeats and all
            assert read == [*mlm_t.positions, *(p for pair in (tset.candidates if tset else ()) for p in pair)]
            assert ids == mlm_t.masked_ids and positions == ex.position_ids
            assert np.array_equal(allow, build_attention_mask(ex) if tset is None else tset.mask)
            alone = forward(params, ids, positions, additive_mask(allow, dtype=dtype)).final.data[read]
            got = acts.final.data[rows]
            assert got.dtype == dtype and got.tobytes() == alone.tobytes()
        assert (structure is not None) == any(len(set(read)) < len(read) for read in reads)
        landed = {}  # row -> the one (sequence, position) it holds
        for s, (read, rows) in enumerate(zip(reads, acts.rows)):
            for position, row in zip(read, rows.tolist()):
                assert landed.setdefault(row, (s, position)) == (s, position)
        assert max(landed) < len(acts.final.data)

    def test_blocks_are_the_batch_in_first_seen_length_order(self, monkeypatch):
        import codeflow.pretrain as pretrain

        calls, batches = [], []
        real_forward, real_loss = downstream.forward, pretrain.batch_loss

        def spy_forward(params, ids, positions, masks, reads=None):
            calls.append((np.asarray(ids), np.asarray(positions), masks))
            return real_forward(params, ids, positions, masks, reads=reads)

        def spy_loss(params, prepared, structure):
            batches.append(prepared)
            return real_loss(params, prepared, structure)

        monkeypatch.setattr(downstream, "forward", spy_forward)
        monkeypatch.setattr(pretrain, "batch_loss", spy_loss)
        pretrain_run(overfit_corpus(12), tiny_config(num_layers=2), steps=6, rng=4, batch_size=6)
        assert len(calls) == len(batches) == 6  # one forward per step
        assert any(len(masks) > 1 for _, _, masks in calls)
        for (ids, positions, masks), prepared in zip(calls, batches):
            assert isinstance(masks, list) and ids.ndim == 1 and not np.any(ids == PAD)
            order = first_seen_length_order([ex for ex, _, _ in prepared])
            assert [mask.shape[0] for mask in masks] == list(Counter(len(ex) for ex, _, _ in prepared).values())
            start, k = 0, 0
            for mask in masks:  # each block is an unpadded batch of one length
                batch, length = mask.shape[:2]
                assert all(len(prepared[i][0]) == length for i in order[k : k + batch])
                start, k = start + batch * length, k + batch
            assert start == len(ids)
            assert ids.tolist() == [t for i in order for t in prepared[i][1].masked_ids]
            assert positions.tolist() == [p for i in order for p in prepared[i][0].example.position_ids]


class TestLanguageSampler:
    def test_equal_counts_uniform(self):
        s = language_sampler({"python": 50, "java": 50})
        assert s.probabilities == (0.5, 0.5)

    def test_smoothing_lifts_the_rare_language(self):
        s = language_sampler({"big": 900, "small": 100}, alpha=0.7)
        want_big = 900**0.7 / (900**0.7 + 100**0.7)
        assert abs(s.probabilities[0] - want_big) < 1e-6
        assert abs(s.probabilities[1] - (1.0 - want_big)) < 1e-6
        assert abs(s.probabilities[0] - 0.82318) < 1e-5
        assert 0.1 < 1.0 - want_big < 0.5  # smoothed above the raw 10%

    def test_alpha_one_is_exactly_proportional(self):
        s = language_sampler({"big": 900, "small": 100}, alpha=1.0)
        assert s.probabilities == (0.9, 0.1)

    def test_sequence_counts(self):
        s = language_sampler([10, 30])
        assert s.languages == ("0", "1")
        assert abs(sum(s.probabilities) - 1.0) < 1e-12

    def test_sample_follows_distribution(self):
        s = language_sampler({"a": 900, "b": 100})
        rng = np.random.default_rng(41)
        draws = [s.sample(rng) for _ in range(10000)]
        freq = draws.count("a") / len(draws)
        assert abs(freq - s.probabilities[0]) < 0.02

    def test_validation(self):
        with pytest.raises(ValueError, match="^no language counts given$"):
            language_sampler({})
        with pytest.raises(ValueError):
            language_sampler({"a": 0})


# -- corpus io ----------------------------------------------------------------


class TestCorpusIo:
    def test_load_corpus(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rows = [
            {"code": "a = 1\n", "docstring": "set a", "lang": "python"},
            {"code": "b = 2\n", "docstring": "set b", "lang": "java"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n\n", encoding="utf-8")
        items = load_corpus(path)
        assert [it.lang for it in items] == ["python", "java"]
        assert items[0].code == "a = 1\n"

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"code": "a = 1\\n", "docstring": "x", "lang": "python"}\n{"code": "b = 2\\n"}\n')
        with pytest.raises(DataError, match="^line 2: 'docstring'$"):
            load_corpus(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("not json\n")
        with pytest.raises(DataError, match="^line 1: Expecting value"):
            load_corpus(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n\n")
        with pytest.raises(DataError, match="^no corpus entries in "):
            load_corpus(path)

    def test_encode_corpus(self):
        items = items_from([("set both", "a = 1\nb = a\n", "python")])
        vocab = build_vocab([(it.docstring, it.code) for it in items], 64)
        with_flow = encode_corpus(items, vocab)
        without = encode_corpus(items, vocab, Limits(max_nodes=0))
        assert with_flow[0].node_positions != ()
        assert without[0].node_positions == ()


# -- training loop ------------------------------------------------------------


class TestPretrainRun:
    def corpus(self, n=8):
        return overfit_corpus(n)

    def test_alternation_and_log_shape(self):
        result = pretrain_run(self.corpus(), tiny_config(), steps=4, rng=1, batch_size=2)
        objs = [(step, obj) for step, obj, _ in result.loss_log]
        assert objs == [
            (0, "mlm"), (0, "edgepred"),
            (1, "mlm"), (1, "nodealign"),
            (2, "mlm"), (2, "edgepred"),
            (3, "mlm"), (3, "nodealign"),
        ]
        assert all(np.isfinite(v) for _, _, v in result.loss_log)
        assert result.adam.step == 4

    def test_item_with_nothing_to_mask_is_rejected_before_step_0(self):
        corpus = self.corpus(2) + items_from([("", "", "python")])
        with pytest.raises(DataError, match="^corpus item 2 has no comment or code tokens to mask$"):
            pretrain_run(corpus, tiny_config(), steps=0)

    def test_one_forward_per_step(self, monkeypatch):
        calls = []
        real = downstream.forward

        def counting(params, ids, positions, masks, *args, **kwargs):
            calls.append((np.shape(ids), [mask.shape for mask in masks]))
            return real(params, ids, positions, masks, *args, **kwargs)

        monkeypatch.setattr(downstream, "forward", counting)
        pretrain_run(self.corpus(), tiny_config(), steps=3, rng=1, batch_size=4)
        assert len(calls) == 3
        for ids_shape, mask_shapes in calls:  # one forward holds all four examples
            assert sum(batch for batch, _, _ in mask_shapes) == 4
            assert ids_shape == (sum(batch * length for batch, length, _ in mask_shapes),)

    def test_batches_follow_the_smoothed_language_sampler(self, monkeypatch):
        # 900 python and 100 java items, told apart by their encoded length;
        # alpha 0.7 smooths (0.9, 0.1) to q = (0.823, 0.177) over 2000 steps
        import codeflow.pretrain as pretrain

        corpus = items_from([("sum", "a = 1\n", "python")] * 900 + [("sum", "a = 1\nb = a\n", "java")] * 100)
        batch_lengths = []

        def stub_loss(params, prepared, structure):
            batch_lengths.append({len(ex) for ex, _, _ in prepared})
            return ag.mul(ag.tsum(params.tensors["mlm.b"]), 0.0), {"mlm": 0.0}

        monkeypatch.setattr(pretrain, "batch_loss", stub_loss)
        steps = 2000
        pretrain_run(corpus, tiny_config(), Objectives(edge_pred=False, node_align=False), steps=steps, rng=11, batch_size=4)
        assert len(batch_lengths) == steps
        assert all(len(lengths) == 1 for lengths in batch_lengths)  # every batch from one language
        java_length = max(length for lengths in batch_lengths for length in lengths)
        java = sum(lengths == {java_length} for lengths in batch_lengths)
        q = 0.1**0.7 / (0.9**0.7 + 0.1**0.7)
        assert abs(q - 0.176818) < 1e-6
        assert abs(java - steps * q) <= 5 * math.sqrt(steps * q * (1 - q))  # about 85 batches either side of 354

    def test_last_layer_runs_for_the_read_rows_only(self, monkeypatch):
        # the losses read each example's masked positions and candidate
        # endpoints; the last layer's FFN must see no more rows than those,
        # padded to two or more per example, and the first layer every real row
        import codeflow.pretrain as pretrain

        gelu_rows, batches = [], []
        gelu, loss = ag.gelu_kernel, pretrain.batch_loss

        def counting_gelu(u):
            gelu_rows.append(u.shape[0])
            return gelu(u)

        def recording_loss(params, prepared, structure):
            batches.append(prepared)
            return loss(params, prepared, structure)

        monkeypatch.setattr(ag, "gelu_kernel", counting_gelu)
        monkeypatch.setattr(pretrain, "batch_loss", recording_loss)
        pretrain_run(self.corpus(), tiny_config(num_layers=2), steps=2, rng=1, batch_size=4)
        assert len(gelu_rows) == 2 * len(batches) == 4
        for (first, last), prepared in zip(zip(gelu_rows[::2], gelu_rows[1::2]), batches):
            reads = [
                len({*mlm_t.positions, *(p for pair in (tset.candidates if tset else ()) for p in pair)})
                for _, mlm_t, tset in prepared
            ]
            assert first == sum(len(ex) for ex, _, _ in prepared)
            assert last <= len(prepared) * max(2, *reads) < first

    def test_zero_layers_reads_the_embeddings(self):
        # no layer to shrink: the read rows come from the embeddings, and the
        # loss log is the one of the full embedding states (float.hex pinned)
        result = pretrain_run(self.corpus(), tiny_config(num_layers=0), steps=6, rng=3, batch_size=4)
        assert [(s, o, float.hex(v)) for s, o, v in result.loss_log] == [
            (0, "mlm", "0x1.0a1f240000000p+2"), (0, "edgepred", "0x1.62b2b40000000p-1"),
            (1, "mlm", "0x1.0a2a280000000p+2"), (1, "nodealign", "0x1.6231c60000000p-1"),
            (2, "mlm", "0x1.0a1be00000000p+2"), (2, "edgepred", "0x1.6273ca0000000p-1"),
            (3, "mlm", "0x1.0a02340000000p+2"), (3, "nodealign", "0x1.6244300000000p-1"),
            (4, "mlm", "0x1.09ffd40000000p+2"), (4, "edgepred", "0x1.628d300000000p-1"),
            (5, "mlm", "0x1.09f2ec0000000p+2"), (5, "nodealign", "0x1.6246c60000000p-1"),
        ]

    def test_mlm_only(self):
        objectives = Objectives(edge_pred=False, node_align=False)
        result = pretrain_run(self.corpus(), tiny_config(), objectives, steps=3, rng=1, batch_size=2)
        assert [obj for _, obj, _ in result.loss_log] == ["mlm", "mlm", "mlm"]

    def test_empty_corpus(self):
        with pytest.raises(DataError, match="^pretraining corpus is empty$"):
            pretrain_run([], tiny_config(), steps=1)

    def test_no_dataflow_ablation_runs_mlm_only(self):
        result = pretrain_run(
            self.corpus(), tiny_config(), steps=2, rng=1, batch_size=2, limits=Limits(max_nodes=0)
        )
        assert [obj for _, obj, _ in result.loss_log] == ["mlm", "mlm"]

    def test_deterministic(self):
        a = pretrain_run(self.corpus(), tiny_config(), steps=3, rng=7, batch_size=2)
        b = pretrain_run(self.corpus(), tiny_config(), steps=3, rng=7, batch_size=2)
        assert a.loss_log == b.loss_log
        for k in a.params.tensors:
            assert np.array_equal(a.params.tensors[k].data, b.params.tensors[k].data)

    def test_loss_decreases_on_overfit(self):
        result = pretrain_run(self.corpus(), tiny_config(), steps=40, rng=0, batch_size=4, lr=3e-3)
        mlm = [v for _, obj, v in result.loss_log if obj == "mlm"]
        assert np.mean(mlm[-5:]) < np.mean(mlm[:5])

    def test_diverges_with_absurd_learning_rate(self):
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss, match=r"^step \d+: "):
            pretrain_run(self.corpus(), tiny_config(), steps=50, rng=0, batch_size=2, lr=1e9)

    def test_supplied_vocab_and_params_are_used(self):
        cfg = tiny_config()
        params = init_params(cfg)
        vocab = build_vocab([(it.docstring, it.code) for it in self.corpus()], cfg.vocab_size)
        result = pretrain_run(
            self.corpus(), cfg, steps=1, rng=0, batch_size=2, vocab=vocab, params=params
        )
        assert result.params is params
        assert result.vocab is vocab


class TestLossLogAndAccuracy:
    def test_write_loss_log(self, tmp_path):
        rows = [(0, "mlm", 3.25), (0, "edgepred", 0.6931471805599453)]
        path = tmp_path / "losses.csv"
        write_loss_log(path, rows)
        with open(path, newline="") as f:
            got = list(csv.reader(f))
        assert got[0] == ["step", "objective", "loss"]
        assert got[1] == ["0", "mlm", "3.25"]
        assert float(got[2][2]) == rows[1][2]  # repr round-trips exactly

    def test_structure_accuracy_range_and_determinism(self):
        cfg = tiny_config()
        params = init_params(cfg)
        corpus = overfit_corpus(8)
        vocab = build_vocab([(it.docstring, it.code) for it in corpus], cfg.vocab_size)
        encoded = encode_corpus(corpus, vocab, max_positions=cfg.max_positions)
        a = structure_accuracy(params, encoded, "edgepred", np.random.default_rng(5))
        b = structure_accuracy(params, encoded, "edgepred", np.random.default_rng(5))
        assert 0.0 <= a <= 1.0
        assert a == b
        c = structure_accuracy(params, encoded, "nodealign", np.random.default_rng(5))
        assert 0.0 <= c <= 1.0

    @pytest.mark.parametrize("objective", ["edgepred", "nodealign"])
    def test_structure_accuracy_equals_per_pair_scoring(self, monkeypatch, objective):
        # the grouped forwards and the numpy dots of consecutive read rows give
        # the accuracy of scoring each candidate by its own h_i . h_j, also
        # when a length group is split
        shapes = []

        def spy(params, ids, positions, masks, **kwargs):
            shapes.extend(np.shape(m)[:2] for m in masks)  # each block's (B, L)
            return forward(params, ids, positions, masks, **kwargs)

        monkeypatch.setattr(downstream, "forward", spy)
        monkeypatch.setattr(downstream, "MAX_FORWARD_POSITIONS", 100)  # two 41-position examples per forward
        cfg = tiny_config(num_layers=2)
        params = init_params(cfg)
        corpus = overfit_corpus(8)
        vocab = build_vocab([(it.docstring, it.code) for it in corpus], cfg.vocab_size)
        encoded = encode_corpus(corpus, vocab, max_positions=cfg.max_positions)
        rng = np.random.default_rng(11)
        correct = total = 0
        for ex in encoded:
            tset = structure_targets(ex, objective, rng)
            if tset is None:
                continue
            h = forward(params, ex.ids, ex.position_ids, additive_mask(tset.mask)).final.data
            for (i, j), y in zip(tset.candidates, tset.labels):
                correct += int((1.0 / (1.0 + np.exp(-float(h[i] @ h[j]))) > 0.5) == bool(y))
                total += 1
        assert total > 0
        assert structure_accuracy(params, encoded, objective, np.random.default_rng(11)) == correct / total
        assert max(b for b, _ in shapes) == 2 and len(shapes) > len({n for _, n in shapes})  # a group was split

    def test_structure_accuracy_validation(self):
        cfg = tiny_config()
        params = init_params(cfg)
        corpus = [CorpusItem(code="probe(1)\n", docstring="call", lang="python")]
        vocab = build_vocab([(it.docstring, it.code) for it in corpus], cfg.vocab_size)
        encoded = encode_corpus(corpus, vocab, max_positions=cfg.max_positions)
        with pytest.raises(ValueError):
            structure_accuracy(params, encoded, "edgepred", np.random.default_rng(0))
        with pytest.raises(ValueError):
            structure_accuracy(params, encoded, "bogus", np.random.default_rng(0))
