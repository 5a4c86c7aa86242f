"""Retrieval and clone-detection heads over the shared encoder.

Both tasks are bi-encoder: queries and code fragments are encoded
independently and compared in vector space. Search scores are raw inner
products; clone probability is a sigmoid of the dot product scaled by
1/sqrt(hidden_dim).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .encoding import (
    EncodedExample,
    Limits,
    Vocabulary,
    additive_mask,
    build_attention_mask,
    comment_tokens,
    encode_example,
)
from .errors import DataError
from .frontend.errors import FrontendError
from .frontend.parser import parse_source
from .model import Activations, ModelParams, NonFiniteLoss, compute_gradients, forward, pair_log_likelihoods
from .optim import adam_step, init_adam


@dataclass
class SearchExample:
    query_encoded: EncodedExample
    code_encoded: EncodedExample


@dataclass(frozen=True)
class CloneExample:
    code_a: str
    code_b: str
    label: int


# encoding helpers -----------------------------------------------------------


def encode_query_example(query: str, vocab: Vocabulary, limits: Limits = Limits(), max_positions: int = 512) -> EncodedExample:
    if not comment_tokens(query):
        raise DataError("query has no tokens")
    return encode_example(query, None, vocab, limits=limits, max_positions=max_positions)


def encode_code_example(
    code: str,
    vocab: Vocabulary,
    limits: Limits = Limits(),
    max_positions: int = 512,
) -> EncodedExample:
    return encode_example(None, code, vocab, limits=limits, max_positions=max_positions)


# Most real rows one inference forward of `grouped_forwards` takes; a single
# longer example still gets a forward of its own. Memory sets the cap: with
# search and clone scoring in one process, peak RSS was 50.7 MB with one
# forward per exact-length group, and 70.6, 58.0 and 50.6 MB with packed
# forwards of at most 4096, 2048 and 1024 rows.
MAX_FORWARD_POSITIONS = 1024


def _cls_rows(params: ModelParams, examples: list[EncodedExample]) -> Tensor:
    """Final-layer [CLS] rows of `examples`, in order, from one
    `batch_forward` that reads position 0 of each, as `pretrain.batch_loss`
    runs. Each row is the one a forward of its example alone gives, bit for
    bit."""
    sequences = [(ex.ids, ex.position_ids, build_attention_mask(ex)) for ex in examples]
    acts = batch_forward(params, sequences, [[0]] * len(examples))
    return ag.take_rows(acts.final, [rows[0] for rows in acts.rows])


def length_groups(sequences) -> list[list[int]]:
    """Indices of `sequences` grouped by exact length: groups in the order
    their length first appears, each group's indices in order."""
    groups: dict[int, list[int]] = {}
    for i, seq in enumerate(sequences):
        groups.setdefault(len(seq), []).append(i)
    return list(groups.values())


def batch_forward(params: ModelParams, sequences, reads) -> Activations:
    """One `forward` over `sequences`, ``(ids, position_ids, allow)`` each,
    in any order, that reads the positions `reads[i]` of sequence ``i``, in
    any order and with repeats: the forward reads each distinct position
    once, in ascending order. The sequences are grouped by exact length
    (`length_groups`), and each group is an unpadded block whose
    allow-matrices are stacked into one additive mask, so every read row
    equals the one a forward of its sequence alone gives, bit for bit (see
    `model.forward`). ``rows[i]`` and ``maps[i]`` of the result belong to
    sequence ``i``: ``rows[i][k]`` is the row of ``final`` holding
    ``reads[i][k]``."""
    groups = length_groups([ids for ids, _, _ in sequences])
    order = [i for group in groups for i in group]
    distinct = [sorted(set(reads[i])) for i in order]
    dtype = params.flat.dtype
    acts = forward(
        params,
        np.concatenate([sequences[i][0] for i in order]),
        np.concatenate([sequences[i][1] for i in order]),
        [additive_mask(np.stack([sequences[i][2] for i in group]), dtype=dtype) for group in groups],
        reads=distinct,
    )
    slots = np.argsort(order)  # each sequence's place in the forward
    acts.rows = [acts.rows[s][np.searchsorted(distinct[s], read)] for s, read in zip(slots, reads)]
    acts.maps = [acts.maps[s] for s in slots]
    return acts


def grouped_forwards(params: ModelParams, examples: list[EncodedExample], read, reads, masks=None) -> list:
    """``read(rows, maps, i)`` for each example ``i``, in order: ``rows``
    holds a final-layer row per entry of `reads[i]`, in order, and ``maps``
    its per-layer ``H x W x L`` attention arrays, whose last layer holds its
    distinct reads' query rows when it ran for them alone.

    Examples are grouped by exact length (`length_groups`), and consecutive
    groups are packed into `batch_forward`s of at most
    `MAX_FORWARD_POSITIONS` real rows (a group that does not fit is split),
    so nothing is padded. `masks`, one allow-matrix per example, replaces
    `build_attention_mask`. A forward's activations are freed before the
    next one runs: ``rows`` is the example's own copy, and `read` copies
    whatever it keeps of ``maps``. A non-finite read row raises
    `NonFiniteLoss`, so that no NaN score is ranked or averaged."""
    packed: list[list[int]] = []  # forwards, each a list of examples
    room = 0  # rows the last forward has left
    for i in (i for group in length_groups(examples) for i in group):
        length = len(examples[i])
        if room < length:
            packed.append([])
            room = max(MAX_FORWARD_POSITIONS, length)
        packed[-1].append(i)
        room -= length

    def sequence(i: int):
        allow = build_attention_mask(examples[i]) if masks is None else masks[i]
        return examples[i].ids, examples[i].position_ids, allow

    out = [None] * len(examples)
    for members in packed:
        acts = batch_forward(params, [sequence(i) for i in members], [reads[i] for i in members])
        if not np.isfinite(acts.final.data[np.concatenate(acts.rows)]).all():
            raise NonFiniteLoss("the encoder's final states are not finite")
        for s, i in enumerate(members):
            out[i] = read(acts.final.data[acts.rows[s]], acts.maps[s], i)
        del acts
    return out


def _cls_vectors(params: ModelParams, examples: list[EncodedExample]) -> np.ndarray:
    """``(N, d)`` final-layer [CLS] vectors of `examples`, in order, from
    forwards that read position 0 of each sequence, so the last layer runs
    attention, `wo`, both norms and the FFN for that row only. Each vector
    equals the full forward's bit for bit."""
    out = np.empty((len(examples), params.config.hidden_dim), dtype=params.flat.dtype)

    def read(rows: np.ndarray, maps, i: int) -> None:
        out[i] = rows[0]

    grouped_forwards(params, examples, read, [[0]] * len(examples))
    return out


def encode_text(query: str, params: ModelParams, vocab: Vocabulary) -> np.ndarray:
    """Final-layer [CLS] vector of the comment-only encoding of `query`."""
    ex = encode_query_example(query, vocab, max_positions=params.config.max_positions)
    return _cls_vectors(params, [ex])[0]


def encode_code(code: str, params: ModelParams, vocab: Vocabulary) -> np.ndarray:
    """Final-layer [CLS] vector of the code(+nodes) encoding, no comment segment."""
    ex = encode_code_example(code, vocab, max_positions=params.config.max_positions)
    return _cls_vectors(params, [ex])[0]


# ranking --------------------------------------------------------------------


def gold_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based rank of each query's own code, ``scores[i, i]``, in row ``i``
    of a square query x code score matrix: one plus the codes that score
    higher and the lower-indexed ones that tie, the stable-sort rank."""
    gold = np.diagonal(scores)[:, None]
    ties_before = (scores == gold) & np.tri(*scores.shape, k=-1, dtype=bool)
    return 1 + np.count_nonzero(scores > gold, axis=1) + np.count_nonzero(ties_before, axis=1)


def evaluate_search(params: ModelParams, examples: list[SearchExample]) -> float:
    """Whole-corpus protocol: every example's code is a candidate for every
    query, scored by inner product in float64, and the MRR is the mean of
    the reciprocal `gold_ranks`. The examples' encodings decide whether data
    flow is used."""
    if not examples:
        raise DataError("no search examples")
    code_vecs = _cls_vectors(params, [ex.code_encoded for ex in examples]).astype(np.float64)
    query_vecs = _cls_vectors(params, [ex.query_encoded for ex in examples]).astype(np.float64)
    return float(np.mean(1.0 / gold_ranks(query_vecs @ code_vecs.T)))


def prepare_search_examples(
    pairs,
    vocab: Vocabulary,
    limits: Limits = Limits(),
    max_positions: int = 512,
) -> list[SearchExample]:
    return [
        SearchExample(
            query_encoded=encode_query_example(query, vocab, limits, max_positions),
            code_encoded=encode_code_example(code, vocab, limits, max_positions),
        )
        for query, code in pairs
    ]


# fine-tuning ----------------------------------------------------------------


def _finetune(
    pairs: list, loss, params: ModelParams, rng, lr: float, batch_size: int, epochs: int, min_batch: int = 1
) -> ModelParams:
    """Adam on `loss(cls, batch)` over shuffled batches of `pairs`, each
    a tuple whose first two entries are encoded examples: ``cls`` holds the
    batch's `_cls_rows`, its first examples in order, then its second ones.
    Each epoch draws one permutation from `rng`; a batch of fewer than
    `min_batch` pairs is skipped. A non-finite loss, or a weight that the
    last update left non-finite, raises `NonFiniteLoss` naming the epoch and
    the step (the batch within it), both from 0."""
    rng = np.random.default_rng(0 if rng is None else rng)
    state = init_adam(params)
    where = None  # of the last step taken
    for epoch in range(epochs):
        order = rng.permutation(len(pairs))
        for step, lo in enumerate(range(0, len(order), batch_size)):
            batch = [pairs[int(i)] for i in order[lo : lo + batch_size]]
            if len(batch) < min_batch:
                continue

            def loss_fn(p: ModelParams) -> Tensor:
                return loss(_cls_rows(p, [pair[0] for pair in batch] + [pair[1] for pair in batch]), batch)

            try:
                compute_gradients(loss_fn, params)
            except NonFiniteLoss as e:
                raise NonFiniteLoss(f"epoch {epoch}, step {step}: {e}") from e
            adam_step(params, state, lr)
            where = f"epoch {epoch}, step {step}"
    if where and not np.isfinite(params.flat).all():  # no later loss shows an overflow in the last update
        raise NonFiniteLoss(f"{where}: a weight is not finite after the update")
    return params


def finetune_search(
    examples: list[SearchExample],
    params: ModelParams,
    rng,
    lr: float = 1e-3,
    batch_size: int = 8,
    epochs: int = 20,
) -> ModelParams:
    """In-batch contrastive fine-tuning: each query's own code is the positive,
    the other codes in the batch are negatives, softmax cross-entropy on inner
    products. A trailing batch of one pair has no negative and is skipped."""
    if len(examples) < 2:
        raise DataError("need at least two pairs for in-batch contrast")
    if batch_size < 2:
        raise ValueError(f"in-batch contrast needs a batch size of at least 2, not {batch_size}")

    def contrast(cls: Tensor, batch) -> Tensor:
        n = len(batch)
        q_rows, c_rows = ag.take_rows(cls, range(n)), ag.take_rows(cls, range(n, 2 * n))
        scores = ag.matmul(q_rows, ag.transpose(c_rows))
        log_probs = ag.log_softmax(scores, axis=-1)
        diag = ag.gather_cols(log_probs, list(range(n)))
        return ag.mul(ag.tmean(diag), -1.0)

    pairs = [(ex.query_encoded, ex.code_encoded) for ex in examples]
    return _finetune(pairs, contrast, params, rng, lr, batch_size, epochs, min_batch=2)


# clone detection ------------------------------------------------------------


def clone_probabilities(
    pairs: list[tuple[str, str]],
    params: ModelParams,
    vocab: Vocabulary,
    limits: Limits = Limits(),
) -> list[float]:
    """Clone probability of each ``(code_a, code_b)`` pair. Each distinct
    snippet is encoded once, and all of them in one grouped pass."""
    index = {code: k for k, code in enumerate(dict.fromkeys(code for pair in pairs for code in pair))}
    max_positions = params.config.max_positions
    vecs = _cls_vectors(params, [encode_code_example(code, vocab, limits, max_positions) for code in index])
    scaled = [float(vecs[index[a]] @ vecs[index[b]]) / math.sqrt(params.config.hidden_dim) for a, b in pairs]
    return [float(1.0 / (1.0 + np.exp(-x))) for x in scaled]


def clone_probability(code_a: str, code_b: str, params: ModelParams, vocab: Vocabulary) -> float:
    return clone_probabilities([(code_a, code_b)], params, vocab)[0]


def finetune_clone(
    pairs: list[CloneExample],
    params: ModelParams,
    vocab: Vocabulary,
    rng,
    lr: float = 1e-3,
    batch_size: int = 8,
    epochs: int = 20,
    limits: Limits = Limits(),
) -> ModelParams:
    """Binary cross-entropy on the scaled-dot clone probability."""
    if not pairs:
        raise DataError("no clone pairs")
    max_positions = params.config.max_positions
    encoded = [
        (
            encode_code_example(p.code_a, vocab, limits, max_positions),
            encode_code_example(p.code_b, vocab, limits, max_positions),
            p.label,
        )
        for p in pairs
    ]
    scale = 1.0 / math.sqrt(params.config.hidden_dim)

    def cross_entropy(cls: Tensor, batch) -> Tensor:
        n = len(batch)
        pair_ll = pair_log_likelihoods(cls, [(k, n + k) for k in range(n)], [y for _, _, y in batch], scale)
        return ag.mul(ag.tmean(pair_ll), -1.0)

    return _finetune(encoded, cross_entropy, params, rng, lr, batch_size, epochs)


def clone_metrics(predictions, labels) -> tuple[float, float, float]:
    preds = [float(p) for p in predictions]
    golds = [int(l) for l in labels]
    tp = sum(1 for p, y in zip(preds, golds) if p > 0.5 and y == 1)
    fp = sum(1 for p, y in zip(preds, golds) if p > 0.5 and y == 0)
    fn = sum(1 for p, y in zip(preds, golds) if p <= 0.5 and y == 1)
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return precision, recall, f1


# attention analysis ---------------------------------------------------------


def _cls_split(maps, example: EncodedExample) -> tuple[float, float]:
    """Fraction of [CLS] attention mass on code vs node keys, averaged over
    all heads of the per-layer ``H x W x L`` arrays `maps`, renormalized over
    the two classes. Only query row 0 of each map is read, so the maps of a
    forward that reads [CLS] do."""
    node_pos = example.node_positions
    if not node_pos:
        return (1.0, 0.0)
    if not maps:
        raise ValueError("no attention maps to split: the model has no layers")
    mean_row = np.mean(np.concatenate([layer[:, 0] for layer in maps]), axis=0)
    code_mass = float(mean_row[list(example.code_positions)].sum())
    node_mass = float(mean_row[list(node_pos)].sum())
    total = code_mass + node_mass
    if total == 0.0:
        raise ValueError("[CLS] row carries no mass on code or node keys")
    return (code_mass / total, node_mass / total)


def cls_attention_split(activations: Activations, example: EncodedExample) -> tuple[float, float]:
    """[CLS] attention split (code fraction, node fraction) of a
    single-example forward's activations: see `_cls_split`."""
    return _cls_split(activations.maps[0], example)


def attention_splits(params: ModelParams, examples: list[EncodedExample]) -> list[tuple[float, float]]:
    """`cls_attention_split` of each example, in order, from `grouped_forwards`
    that read [CLS] only."""
    return grouped_forwards(
        params, examples, lambda rows, maps, i: _cls_split(maps, examples[i]), [[0]] * len(examples)
    )


# query filtering ------------------------------------------------------------


def filter_search_corpus(items) -> list:
    """Appendix-style data cleaning for retrieval corpora. Pure and idempotent:
    drops items whose code does not parse, whose query is shorter than 3 or
    longer than 256 tokens, mentions "http", or is empty / mostly non-ASCII."""
    kept = []
    for item in items:
        words = comment_tokens(item.docstring)
        if len(words) < 3 or len(words) > 256:
            continue
        if "http" in item.docstring:
            continue
        text = item.docstring.strip()
        if len(text.encode("ascii", "ignore")) * 2 < len(text):  # the encoding keeps only ASCII
            continue
        # Parse last: a rejected docstring then costs no lex and no parse.
        try:
            parse_source(item.code)
        except FrontendError:
            continue
        kept.append(item)
    return kept
