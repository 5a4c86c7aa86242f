"""Acceptance gate: ten behavioral criteria, one test (and one verdict line) each.

Each test emits a single `[NN] PASS/FAIL ...` line with the measured numbers,
echoed in the terminal summary after the run; pytest -v adds the authoritative
per-criterion status. Runtime-bound criteria assert their own wall-clock
budgets.
"""

import json
import time

import numpy as np

import codeflow.autograd as ag
from codeflow.cli import main
from codeflow.dfg import extract_dfg
from codeflow.downstream import (
    cls_attention_split,
    evaluate_search,
    finetune_search,
    prepare_search_examples,
)
from codeflow.encoding import (
    Limits,
    Vocabulary,
    additive_mask,
    build_attention_mask,
    build_vocab,
    encode_example,
)
from codeflow.model import ModelConfig, compute_gradients, forward, init_params
from conftest import record_verdict
from codeflow.pretrain import (
    encode_corpus,
    language_sampler,
    mlm_loss,
    pair_loss,
    pretrain_run,
    sample_align_targets,
    sample_edge_targets,
    select_mlm_targets,
    structure_accuracy,
)
from helpers import DFG_TRACES, mask_oracle, overfit_corpus, random_program, search_pairs


def verdict(num, ok, detail):
    line = f"[{num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    record_verdict(line)
    print(line)
    assert ok, detail


def encode_random(code, vocab, max_positions=128):
    return encode_example("find the value", code, vocab, max_positions=max_positions)


FUZZ_VOCAB = Vocabulary({t: i for t, i in zip("abcdefgh", range(5, 13))})


def test_01_hand_traced_dataflow_graphs():
    t0 = time.perf_counter()
    for source, nodes, edges in DFG_TRACES:
        g = extract_dfg(source)
        assert [(n.name, n.token_index, n.role) for n in g.nodes] == nodes, source
        assert g.edges == frozenset(edges), source
    elapsed = time.perf_counter() - t0
    verdict(1, len(DFG_TRACES) == 20 and elapsed < 1.0,
            f"dataflow oracle suite: {len(DFG_TRACES)}/20 graphs exact in {elapsed:.3f}s (< 1s)")


def test_02_mask_matches_independent_predicate():
    rng = np.random.default_rng(1234)
    t0 = time.perf_counter()
    for _ in range(1000):
        ex = encode_random(random_program(rng), FUZZ_VOCAB, max_positions=512)
        assert np.array_equal(build_attention_mask(ex), mask_oracle(ex))
    elapsed = time.perf_counter() - t0
    verdict(2, elapsed < 30.0,
            f"attention mask equals entry-wise predicate on 1000 random programs in {elapsed:.1f}s (< 30s)")


def test_03_attention_rows_normalized_blocked_entries_tiny():
    rng = np.random.default_rng(5)
    cfg = ModelConfig(num_layers=2, hidden_dim=16, num_heads=2, ffn_dim=32,
                      vocab_size=64, max_positions=512, seed=11)
    params = init_params(cfg)
    worst_row_err = 0.0
    worst_blocked = 0.0
    for _ in range(100):
        ex = encode_random(random_program(rng), FUZZ_VOCAB, max_positions=512)
        allow = build_attention_mask(ex)
        ids = rng.integers(0, cfg.vocab_size, size=len(ex.ids))
        acts = forward(params, ids, ex.position_ids, additive_mask(allow))
        for layer in acts.attention:
            for head in layer:
                w = head.data
                worst_row_err = max(worst_row_err, float(np.abs(w.sum(axis=1) - 1.0).max()))
                if (~allow).any():
                    worst_blocked = max(worst_blocked, float(np.abs(w[~allow]).max()))
    verdict(3, worst_row_err <= 1e-6 and worst_blocked <= 1e-12,
            f"100 forwards: max |row sum - 1| {worst_row_err:.2e} (<= 1e-6), "
            f"max blocked weight {worst_blocked:.2e} (<= 1e-12)")


def test_04_gradient_check_combined_loss():
    t0 = time.perf_counter()
    code = "a = 1\nb = a + 2\nc = a + b\nc += a\n"
    comment = "combine two values into one"
    vocab = build_vocab([(comment, code)], 64)
    cfg = ModelConfig(num_layers=2, hidden_dim=16, num_heads=2, ffn_dim=32,
                      vocab_size=64, max_positions=128, seed=21)
    ex = encode_example(comment, code, vocab, max_positions=cfg.max_positions)
    rng = np.random.default_rng(2)
    mlm_t = select_mlm_targets(ex, rng, len(vocab))
    edge_t = next(t for t in (sample_edge_targets(ex, np.random.default_rng(s)) for s in range(50))
                  if t.candidates)
    align_t = next(t for t in (sample_align_targets(ex, np.random.default_rng(s)) for s in range(50))
                   if t.candidates)
    params = init_params(cfg, dtype=np.float64)
    base_mask = additive_mask(build_attention_mask(ex), dtype=np.float64)
    edge_mask = additive_mask(edge_t.mask, dtype=np.float64)
    align_mask = additive_mask(align_t.mask, dtype=np.float64)

    def loss_fn(p):
        acts_m = forward(p, mlm_t.masked_ids, ex.position_ids, base_mask)
        acts_e = forward(p, ex.ids, ex.position_ids, edge_mask)
        acts_a = forward(p, ex.ids, ex.position_ids, align_mask)
        return ag.add(ag.add(mlm_loss(acts_m, mlm_t, p),
                             pair_loss(acts_e, edge_t)),
                      pair_loss(acts_a, align_t))

    _, grads = compute_gradients(loss_fn, params)

    names = sorted(params.tensors)
    sizes = np.array([params.tensors[n].data.size for n in names])
    cum = np.cumsum(sizes)
    coord_rng = np.random.default_rng(77)
    flat_picks = sorted(int(i) for i in coord_rng.choice(int(cum[-1]), size=200, replace=False))
    eps = 1e-5
    bad = 0
    for flat in flat_picks:
        t_i = int(np.searchsorted(cum, flat, side="right"))
        off = flat - (0 if t_i == 0 else int(cum[t_i - 1]))
        data = params.tensors[names[t_i]].data
        keep = data.flat[off]
        data.flat[off] = keep + eps
        up = float(loss_fn(params).data)
        data.flat[off] = keep - eps
        down = float(loss_fn(params).data)
        data.flat[off] = keep
        numeric = (up - down) / (2 * eps)
        analytic = float(grads[names[t_i]].flat[off])
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)
        bad += rel > 1e-4
    elapsed = time.perf_counter() - t0
    verdict(4, bad <= 2 and elapsed < 120.0,
            f"combined-loss gradient check: {200 - bad}/200 coords within 1e-4 "
            f"(>= 198 required) in {elapsed:.1f}s (< 2min)")


def test_05_pair_loss_formulas():
    code = "a = 1\nb = a + 2\nc = a + b\n"
    comment = "combine two values"
    vocab = build_vocab([(comment, code)], 64)
    ex = encode_example(comment, code, vocab, max_positions=128)
    edge_t = next(t for t in (sample_edge_targets(ex, np.random.default_rng(s)) for s in range(50))
                  if t.candidates)
    align_t = next(t for t in (sample_align_targets(ex, np.random.default_rng(s)) for s in range(50))
                   if t.candidates)

    def direct(h, candidates, labels):
        def logsig(x):
            return np.where(x >= 0, -np.log1p(np.exp(-x)), x - np.log1p(np.exp(x)))
        total = 0.0
        for (i, j), y in zip(candidates, labels):
            d = float(h[i] @ h[j])
            total += y * logsig(d) + (1 - y) * logsig(-d)
        return -total / len(candidates)

    edge_err = align_err = 0.0
    for seed in range(5):
        p = init_params(ModelConfig(num_layers=1, hidden_dim=16, num_heads=2, ffn_dim=32,
                                    vocab_size=64, max_positions=128, seed=seed),
                        dtype=np.float64)
        acts_e = forward(p, ex.ids, ex.position_ids, additive_mask(edge_t.mask, dtype=np.float64))
        acts_a = forward(p, ex.ids, ex.position_ids, additive_mask(align_t.mask, dtype=np.float64))
        edge_err = max(edge_err, abs(float(pair_loss(acts_e, edge_t).data)
                                     - direct(acts_e.final.data, edge_t.candidates, edge_t.labels)))
        align_err = max(align_err, abs(float(pair_loss(acts_a, align_t).data)
                                       - direct(acts_a.final.data, align_t.candidates, align_t.labels)))

    zero_cfg = ModelConfig(num_layers=0, hidden_dim=16, num_heads=2, ffn_dim=32,
                           vocab_size=64, max_positions=128, seed=0)
    zp = init_params(zero_cfg, dtype=np.float64)
    zp.tensors["tok_emb"].data[:] = 0.0
    zp.tensors["pos_emb"].data[:] = 0.0
    acts0 = forward(zp, ex.ids, ex.position_ids, additive_mask(edge_t.mask, dtype=np.float64))
    ln2_edge = abs(float(pair_loss(acts0, edge_t).data) - np.log(2.0))
    acts0a = forward(zp, ex.ids, ex.position_ids, additive_mask(align_t.mask, dtype=np.float64))
    ln2_align = abs(float(pair_loss(acts0a, align_t).data) - np.log(2.0))
    verdict(5, max(edge_err, align_err) <= 1e-6 and max(ln2_edge, ln2_align) <= 1e-9,
            f"pair losses match direct evaluation (max err {max(edge_err, align_err):.2e} <= 1e-6); "
            f"p=0.5 gives ln 2 (max err {max(ln2_edge, ln2_align):.2e} <= 1e-9)")


def test_06_language_sampler_values():
    s = language_sampler((900, 100), alpha=0.7)
    p = np.array([0.9, 0.1])
    w = p**0.7
    expect = w / w.sum()
    err = float(np.abs(np.asarray(s.probabilities) - expect).max())
    exact = language_sampler((900, 100), alpha=1.0).probabilities == (0.9, 0.1)
    verdict(6, err <= 1e-6 and exact,
            f"smoothed sampler (900,100) alpha=0.7 -> ({s.probabilities[0]:.6f}, "
            f"{s.probabilities[1]:.6f}), err {err:.2e} <= 1e-6; alpha=1 exact: {exact}")


def test_07_overfit_pretraining():
    corpus = overfit_corpus(64)
    cfg = ModelConfig(num_layers=2, hidden_dim=64, num_heads=4, ffn_dim=256,
                      vocab_size=512, max_positions=512, seed=0)
    t0 = time.perf_counter()
    result = pretrain_run(corpus, cfg, steps=2000, rng=0, batch_size=16, lr=2e-3)
    mlm = [v for _, obj, v in result.loss_log if obj == "mlm"]
    encoded = encode_corpus(corpus, result.vocab, max_positions=cfg.max_positions)
    acc_edge = structure_accuracy(result.params, encoded, "edgepred", np.random.default_rng(1))
    acc_align = structure_accuracy(result.params, encoded, "nodealign", np.random.default_rng(2))
    elapsed = time.perf_counter() - t0
    ok = mlm[-1] < 0.1 * mlm[0] and acc_edge >= 0.95 and acc_align >= 0.95 and elapsed <= 600.0
    verdict(7, ok,
            f"64-function overfit, 2000 steps: mlm {mlm[0]:.3f} -> {mlm[-1]:.3f} "
            f"(ratio {mlm[-1]/mlm[0]:.3f} < 0.1; last-50 mean {np.mean(mlm[-50:]):.3f}, info only), "
            f"edge acc {acc_edge:.3f}, "
            f"align acc {acc_align:.3f} (>= 0.95), {elapsed:.0f}s (<= 600s)")


def test_08_search_overfit_and_ablation():
    pairs = search_pairs(16)
    vocab = build_vocab(pairs, 256)
    cfg = ModelConfig(num_layers=1, hidden_dim=64, num_heads=4, ffn_dim=128,
                      vocab_size=256, max_positions=256, seed=3)
    expect = sum(1.0 / k for k in range(1, 17)) / 16

    examples = prepare_search_examples(pairs, vocab, max_positions=cfg.max_positions)
    base = evaluate_search(init_params(cfg), examples)
    tuned = finetune_search(examples, init_params(cfg), rng=0, lr=5e-3, batch_size=16, epochs=120)
    mrr_tuned = evaluate_search(tuned, examples)

    nodeless = prepare_search_examples(pairs, vocab, Limits(max_nodes=0), max_positions=cfg.max_positions)
    assert all("node" not in ex.code_encoded.segments for ex in nodeless)
    tuned_nd = finetune_search(nodeless, init_params(cfg), rng=0, lr=5e-3, batch_size=16,
                               epochs=120)
    mrr_nd = evaluate_search(tuned_nd, nodeless)

    ok = mrr_tuned == 1.0 and abs(base - expect) <= 0.1 and mrr_nd == 1.0
    verdict(8, ok,
            f"16-pair search: untrained mrr {base:.4f} (within 0.1 of {expect:.4f}), "
            f"fine-tuned mrr {mrr_tuned} (= 1.0), no-dataflow fine-tuned mrr {mrr_nd} (= 1.0)")


def test_09_attention_split_instrumentation():
    cfg = ModelConfig(num_layers=2, hidden_dim=16, num_heads=2, ffn_dim=32,
                      vocab_size=64, max_positions=512, seed=41)
    params = init_params(cfg)
    rng = np.random.default_rng(17)
    worst = 0.0
    checked = 0
    for _ in range(200):
        if checked >= 20:
            break
        ex = encode_random(random_program(rng), FUZZ_VOCAB, max_positions=512)
        if not ex.node_positions:
            continue
        acts = forward(params, ex.ids, ex.position_ids, additive_mask(build_attention_mask(ex)))
        code_f, node_f = cls_attention_split(acts, ex)
        worst = max(worst, abs(code_f + node_f - 1.0))
        assert code_f >= 0.0 and node_f > 0.0
        checked += 1

    plain = "probe(1)\n"
    ex0 = encode_random(plain, FUZZ_VOCAB, max_positions=512)
    assert not ex0.node_positions
    acts0 = forward(params, ex0.ids, ex0.position_ids,
                    additive_mask(build_attention_mask(ex0)))
    zero_split = cls_attention_split(acts0, ex0)
    verdict(9, worst <= 1e-6 and zero_split == (1.0, 0.0),
            f"attention split: |code+node - 1| max {worst:.2e} <= 1e-6 over 20 graphs; "
            f"zero-node input -> {zero_split} (= (1.0, 0.0))")


def test_10_cli_determinism(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    rows = [json.dumps({"code": it.code, "docstring": it.docstring, "lang": it.lang})
            for it in overfit_corpus(8)]
    corpus.write_text("\n".join(rows) + "\n", encoding="utf-8")
    model_flags = ["--num-layers", "1", "--hidden-dim", "16", "--num-heads", "2",
                   "--ffn-dim", "32", "--max-positions", "128", "--seed", "7"]
    metric_bytes = {"pretrain": [], "eval-search": []}
    for rep in ("a", "b"):
        out = tmp_path / f"pre-{rep}"
        assert main(["pretrain", "--corpus", str(corpus), "--out", str(out),
                     "--steps", "3", "--batch-size", "2", *model_flags]) == 0
        metric_bytes["pretrain"].append((out / "metrics.json").read_bytes())
        out2 = tmp_path / f"search-{rep}"
        assert main(["eval-search", "--corpus", str(corpus), "--out", str(out2),
                     *model_flags]) == 0
        metric_bytes["eval-search"].append((out2 / "metrics.json").read_bytes())
    capsys.readouterr()
    same = all(a == b for a, b in metric_bytes.values())
    verdict(10, same,
            "repeated pretrain and eval-search runs with one config and seed "
            "produce byte-identical metrics JSON")
