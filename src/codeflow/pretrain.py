"""Pre-training objectives and the alternating training loop.

Three objectives over one shared encoder: masked-token prediction over the
comment/code block, masked-edge prediction over variable nodes, and
node-to-code alignment. Structure tasks hide their target relations in the
attention mask and score candidate pairs by a sigmoid dot product of the
final-layer representations (no extra head).
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .downstream import batch_forward, grouped_forwards
from .encoding import (
    MASK,
    RESERVED,
    SEG_CODE,
    SEG_COMMENT,
    SEG_NODE,
    EncodedExample,
    Limits,
    Vocabulary,
    build_attention_mask,
    build_vocab,
    encode_example,
)
from .errors import DataError
from .model import (
    Activations,
    ModelConfig,
    ModelParams,
    NonFiniteLoss,
    compute_gradients,
    init_params,
    mlm_logits,
    pair_log_likelihoods,
)
from .optim import AdamState, adam_step, init_adam

MASK_FRACTION = 0.15
NODE_SAMPLE_FRACTION = 0.2


# corpus -------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusItem:
    code: str
    docstring: str
    lang: str


def str_fields(obj, names: tuple[str, ...]) -> list[str]:
    """The `names` fields of one parsed JSONL row. Raises KeyError for a
    missing field, TypeError when the row is not an object or a field is not
    a string, and UnicodeEncodeError for a string that is not valid UTF-8
    (a lone surrogate such as the JSON escape ``"\\ud800"``)."""
    values = []
    for name in names:
        value = obj[name]
        if not isinstance(value, str):
            raise TypeError(f"field {name!r} must be a string, not {type(value).__name__}")
        if not value.isascii():
            value.encode("utf-8")  # raises on a lone surrogate
        values.append(value)
    return values


def read_text(path) -> str:
    """The UTF-8 file at `path` with no newline translation, so a lone ``\\r``
    stays a character and does not end a line."""
    with open(path, encoding="utf-8", newline="") as f:
        return f.read()


def read_jsonl(path, row, empty: str) -> list:
    """`row(obj)` for the object parsed from each non-blank line of the JSONL
    file at `path`. Lines end at ``\n`` only: a raw U+2028, U+2029 or U+0085
    is legal inside a JSON string, and a ``\r`` before the ``\n`` is JSON
    whitespace. A line that is not JSON, nests too deep to parse, or on which
    `row` raises KeyError, TypeError or ValueError, raises DataError naming
    the line; a file with no rows raises DataError(`empty`)."""
    rows = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rows.append(row(json.loads(line)))
        except (KeyError, TypeError, ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
            raise DataError(f"line {lineno}: {e}") from e
    if not rows:
        raise DataError(empty)
    return rows


def load_corpus(path) -> list[CorpusItem]:
    return read_jsonl(
        path, lambda obj: CorpusItem(*str_fields(obj, ("code", "docstring", "lang"))), f"no corpus entries in {path}"
    )


def encode_corpus(
    items: list[CorpusItem],
    vocab: Vocabulary,
    limits: Limits = Limits(),
    max_positions: int = 512,
) -> list[EncodedExample]:
    return [encode_example(it.docstring, it.code, vocab, limits, max_positions) for it in items]


# per-example sampling arrays ------------------------------------------------


@dataclass(frozen=True, eq=False)
class SamplingArrays:
    """One encoded example as the target samplers and `batch_loss` read it.
    `pretrain_run` prepares these once per example before its first step, so
    a step builds its targets by array operations, not by rescanning
    segments, sorting sets and rebuilding masks.

    Positions are ascending ``intp`` arrays. ``edge[i, j]`` is True when
    ``nodes[i] -> nodes[j]`` is a data-flow edge, ``negative_edge[i, j]`` when
    that pair is neither an edge in either direction nor a self pair, so it
    may serve as a negative; ``link[i, j]`` is True when ``nodes[i]`` was
    identified from ``code[j]``. `allow` is the read-only
    `build_attention_mask` of the example."""

    example: EncodedExample
    maskable: np.ndarray
    nodes: np.ndarray
    code: np.ndarray
    edge: np.ndarray
    negative_edge: np.ndarray
    link: np.ndarray
    allow: np.ndarray

    def __len__(self) -> int:
        return len(self.example)


def sampling_arrays(example: EncodedExample | SamplingArrays) -> SamplingArrays:
    """The `SamplingArrays` of `example`; one already prepared is returned as is."""
    if isinstance(example, SamplingArrays):
        return example
    segments = np.array(example.segments)
    nodes = np.flatnonzero(segments == SEG_NODE)
    code = np.flatnonzero(segments == SEG_CODE)
    index = np.zeros(len(example), dtype=np.intp)  # of a node in `nodes`, or of a code token in `code`
    index[nodes] = np.arange(len(nodes))
    index[code] = np.arange(len(code))

    def matrix(pairs, cols: int) -> np.ndarray:
        out = np.zeros((len(nodes), cols), dtype=bool)
        ends = index[np.array(list(pairs), dtype=np.intp).reshape(-1, 2)]
        out[ends[:, 0], ends[:, 1]] = True
        return out

    edge = matrix(example.node_edges, len(nodes))
    link = matrix(example.node_token_links, len(code))
    return SamplingArrays(
        example=example,
        maskable=np.flatnonzero((segments == SEG_COMMENT) | (segments == SEG_CODE)),
        nodes=nodes,
        code=code,
        edge=edge,
        negative_edge=~(edge | edge.T | np.eye(len(nodes), dtype=bool)),
        link=link,
        allow=build_attention_mask(example),
    )


# masked-token objective -----------------------------------------------------


@dataclass(frozen=True)
class MlmBatchTarget:
    masked_ids: tuple[int, ...]
    positions: tuple[int, ...]
    original_ids: tuple[int, ...]


def select_mlm_targets(
    example: EncodedExample | SamplingArrays, rng: np.random.Generator, vocab_size: int
) -> MlmBatchTarget:
    """Pick round(15%) of comment/code positions (min 1) and corrupt them:
    80% mask token, 10% random non-reserved token, 10% unchanged."""
    arrays = sampling_arrays(example)
    maskable = arrays.maskable
    if not len(maskable):
        raise DataError("example has no comment or code tokens")
    count = max(1, int(MASK_FRACTION * len(maskable) + 0.5))
    chosen = rng.choice(len(maskable), size=count, replace=False)
    chosen.sort()
    positions = maskable[chosen].tolist()
    ids = list(arrays.example.ids)
    originals = tuple(ids[p] for p in positions)
    reserved_count = len(RESERVED)
    for p in positions:
        u = rng.random()
        if u < 0.8:
            ids[p] = MASK
        elif u < 0.9 and vocab_size > reserved_count:
            ids[p] = int(rng.integers(reserved_count, vocab_size))
    return MlmBatchTarget(masked_ids=tuple(ids), positions=tuple(positions), original_ids=originals)


def _token_log_likelihoods(final: Tensor, rows, original_ids, params: ModelParams) -> Tensor:
    """log p(original token) at each given row of the final states."""
    log_probs = ag.log_softmax(mlm_logits(params, ag.take_rows(final, rows)), axis=-1)
    return ag.gather_cols(log_probs, original_ids)


def mlm_loss(activations: Activations, targets: MlmBatchTarget, params: ModelParams) -> Tensor:
    if not targets.positions:
        raise ValueError("no masked positions to score")
    picked = _token_log_likelihoods(activations.final, targets.positions, targets.original_ids, params)
    return ag.mul(ag.tmean(picked), -1.0)


# structure objectives -------------------------------------------------------


@dataclass(frozen=True)
class StructureTargets:
    """Candidate pairs of one structure objective for one example.

    `masked` holds the relations hidden from attention: <src_pos, dst_pos>
    data-flow edges for edge prediction, <node_pos, code_pos> links for node
    alignment. The candidates are those positives followed by the sampled
    negatives, labelled 1 and 0; `mask` is the boolean allow-matrix with the
    masked relations blocked."""

    sampled_positions: tuple[int, ...]
    masked: tuple[tuple[int, int], ...]
    candidates: tuple[tuple[int, int], ...]
    labels: tuple[int, ...]
    mask: np.ndarray


def _sample_node_subset(arrays: SamplingArrays, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw ceil(20%) of the variable nodes: (which of `arrays.nodes` were
    drawn, their positions in ascending order)."""
    count = math.ceil(NODE_SAMPLE_FRACTION * len(arrays.nodes))
    picked = np.zeros(len(arrays.nodes), dtype=bool)
    picked[rng.choice(len(arrays.nodes), size=count, replace=False)] = True
    return picked, arrays.nodes[picked]


def _pairs(matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(rows[i], cols[j])`` position pairs of the True entries of
    `matrix`, as two arrays. `np.nonzero` walks the entries in row-major
    order, and both position arrays ascend, so the pairs come sorted."""
    i, j = matrix.nonzero()
    return rows[i], cols[j]


def _build_targets(
    arrays: SamplingArrays,
    rng: np.random.Generator,
    sampled: np.ndarray,
    positives: tuple[tuple[int, int], ...],
    pool: tuple[np.ndarray, np.ndarray],
    hidden: Iterable[tuple[int, int]],
) -> StructureTargets:
    """The tail both samplers share: draw up to one negative per positive
    from the sorted pairs `pool`, and block the ``(query, key)`` entries in
    `hidden` in a copy of the example's mask (a few entries: a Python loop
    beats fancy indexing)."""
    negatives = ()
    if take := min(len(positives), len(pool[0])):
        chosen = rng.choice(len(pool[0]), size=take, replace=False)
        chosen.sort()
        negatives = tuple(zip(pool[0][chosen].tolist(), pool[1][chosen].tolist()))
    allow = arrays.allow.copy()
    for query, key in hidden:
        allow[query, key] = False
    allow.flags.writeable = False
    return StructureTargets(
        sampled_positions=tuple(sampled.tolist()),
        masked=positives,
        candidates=positives + negatives,
        labels=(1,) * len(positives) + (0,) * len(negatives),
        mask=allow,
    )


def sample_edge_targets(example: EncodedExample | SamplingArrays, rng: np.random.Generator) -> StructureTargets | None:
    """Edge-prediction targets, or None when the example has no data-flow edges."""
    arrays = sampling_arrays(example)
    if not arrays.example.node_edges:
        return None
    picked, sampled = _sample_node_subset(arrays, rng)
    touching = picked[:, None] | picked  # node pairs with an end in the sample
    first, second = _pairs(arrays.edge & touching, arrays.nodes, arrays.nodes)
    positives = tuple(zip(first.tolist(), second.tolist()))
    # Negative pool: pairs touching the sample that are not edges. Self pairs
    # are excluded (a dot-product score of a vector with itself cannot fall
    # below 0.5) and so are mirrors of true edges: the pair scorer is
    # symmetric, so a reversed edge would carry a contradictory label.
    pool = _pairs(arrays.negative_edge & touching, arrays.nodes, arrays.nodes)
    return _build_targets(arrays, rng, sampled, positives, pool, [(dst, src) for src, dst in positives])


def sample_align_targets(example: EncodedExample | SamplingArrays, rng: np.random.Generator) -> StructureTargets | None:
    """Node-alignment targets, or None when the example has no variable nodes."""
    arrays = sampling_arrays(example)
    if not len(arrays.nodes):
        return None
    picked, sampled = _sample_node_subset(arrays, rng)
    in_sample = picked[:, None]
    first, second = _pairs(arrays.link & in_sample, arrays.nodes, arrays.code)
    positives = tuple(zip(first.tolist(), second.tolist()))
    pool = _pairs(~arrays.link & in_sample, arrays.nodes, arrays.code)
    hidden = positives + tuple((c, v) for v, c in positives)
    return _build_targets(arrays, rng, sampled, positives, pool, hidden)


def structure_targets(
    example: EncodedExample | SamplingArrays, objective: str, rng: np.random.Generator
) -> StructureTargets | None:
    """Targets of `objective` ("edgepred" or "nodealign") for one example, or
    None when it has no nodes, no edges to predict or no candidates."""
    if objective == "edgepred":
        targets = sample_edge_targets(example, rng)
    elif objective == "nodealign":
        targets = sample_align_targets(example, rng)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return targets if targets is not None and targets.candidates else None


def pair_loss(activations: Activations, targets: StructureTargets) -> Tensor:
    """Mean negative log-likelihood of the candidate labels under the
    sigmoid dot-product scorer; one loss for both structure objectives."""
    if not targets.candidates:
        raise ValueError("empty structure candidate set")
    return ag.mul(ag.tmean(pair_log_likelihoods(activations.final, targets.candidates, targets.labels)), -1.0)


def batch_loss(params: ModelParams, prepared, structure: str | None) -> tuple[Tensor, dict[str, float]]:
    """Pre-training loss of a batch from one forward over unpadded blocks.

    `prepared` holds ``(example or its SamplingArrays, mlm targets, structure
    targets or None)`` per example. The loss is the mean over examples of
    `mlm_loss`, plus the mean over examples with structure targets of their
    `pair_loss`, exactly as if every example ran through its own forward:
    each row is weighted by one over (examples counted) x (that example's
    rows). Returns the loss and its parts by objective name.

    The forward is one `downstream.batch_forward`, unpadded, that `reads`
    only the rows the losses score, each example's masked positions followed
    by its candidate endpoints, so its last layer runs for those rows alone.
    Each read row equals the one a forward of its example alone gives, bit
    for bit; the losses sum their terms in example order.
    """
    dtype = params.flat.dtype
    arrays = [sampling_arrays(ex) for ex, _, _ in prepared]
    reads = [
        [*mlm_t.positions, *(() if tset is None else (p for pair in tset.candidates for p in pair))]
        for _, mlm_t, tset in prepared
    ]
    sequences = [
        (mlm_t.masked_ids, a.example.position_ids, a.allow if tset is None else tset.mask)
        for a, (_, mlm_t, tset) in zip(arrays, prepared)
    ]
    acts = batch_forward(params, sequences, reads)
    final = acts.final

    rows, originals, weights = [], [], []
    for b, (_, mlm_t, _) in enumerate(prepared):
        rows += acts.rows[b][: len(mlm_t.positions)].tolist()
        originals += mlm_t.original_ids
        weights += [1.0 / (len(prepared) * len(mlm_t.positions))] * len(mlm_t.positions)
    picked = _token_log_likelihoods(final, rows, originals, params)
    total = ag.mul(ag.tsum(ag.mul(picked, np.asarray(weights, dtype=dtype))), -1.0)
    parts = {"mlm": float(total.data)}

    scored = [(b, tset) for b, (_, _, tset) in enumerate(prepared) if tset is not None]
    if scored:
        pairs, labels, weights = [], [], []
        for b, tset in scored:
            pairs += acts.rows[b][-2 * len(tset.candidates) :].reshape(-1, 2).tolist()  # after the mlm reads
            labels += tset.labels
            weights += [1.0 / (len(scored) * len(tset.candidates))] * len(tset.candidates)
        pair_ll = pair_log_likelihoods(final, pairs, labels)
        struct = ag.mul(ag.tsum(ag.mul(pair_ll, np.asarray(weights, dtype=dtype))), -1.0)
        parts[structure] = float(struct.data)
        total = ag.add(total, struct)
    return total, parts


# language sampling ----------------------------------------------------------


@dataclass(frozen=True)
class LanguageSampler:
    languages: tuple[str, ...]
    probabilities: tuple[float, ...]

    def sample(self, rng: np.random.Generator) -> str:
        i = int(rng.choice(len(self.languages), p=np.asarray(self.probabilities)))
        return self.languages[i]


def language_sampler(counts, alpha: float = 0.7) -> LanguageSampler:
    """Smoothed multinomial over languages: q_i proportional to p_i^alpha."""
    if isinstance(counts, Mapping):
        items = list(counts.items())
    else:
        items = [(str(i), int(c)) for i, c in enumerate(counts)]
    if not items:
        raise ValueError("no language counts given")
    if any(c <= 0 for _, c in items):
        raise ValueError("language counts must be positive")
    raw = np.array([c for _, c in items], dtype=np.float64)
    p = raw / raw.sum()
    if alpha == 1.0:
        q = p
    else:
        w = p**alpha
        q = w / w.sum()
    return LanguageSampler(
        languages=tuple(name for name, _ in items),
        probabilities=tuple(float(x) for x in q),
    )


# training loop --------------------------------------------------------------


@dataclass(frozen=True)
class Objectives:
    edge_pred: bool = True
    node_align: bool = True


@dataclass
class PretrainResult:
    params: ModelParams
    vocab: Vocabulary
    loss_log: list[tuple[int, str, float]] = field(default_factory=list)
    adam: AdamState | None = None


def pretrain_run(
    corpus: list[CorpusItem],
    config: ModelConfig,
    objectives: Objectives = Objectives(),
    steps: int = 100,
    rng=None,
    *,
    vocab: Vocabulary | None = None,
    limits: Limits = Limits(),
    batch_size: int = 8,
    lr: float = 1e-3,
    params: ModelParams | None = None,
) -> PretrainResult:
    """Alternating loop: even steps pair MLM with edge prediction, odd steps
    with node alignment (each only when enabled). Every batch is drawn from a
    single language chosen by the smoothed multinomial sampler. Raises
    DataError before the first step for an item with neither comment nor code
    tokens, and NonFiniteLoss naming the step for a non-finite loss or a
    weight that the last update left non-finite."""
    if not corpus:
        raise DataError("pretraining corpus is empty")
    rng = np.random.default_rng(0 if rng is None else rng)
    if vocab is None:
        vocab = build_vocab([(it.docstring, it.code) for it in corpus], config.vocab_size)
    encoded = encode_corpus(corpus, vocab, limits=limits, max_positions=config.max_positions)
    encoded = [sampling_arrays(ex) for ex in encoded]  # once per run; every step samples from these
    for i, ex in enumerate(encoded):
        if not len(ex.maskable):
            raise DataError(f"corpus item {i} has no comment or code tokens to mask")
    by_lang: dict[str, list[int]] = {}
    for i, item in enumerate(corpus):
        by_lang.setdefault(item.lang, []).append(i)
    sampler = language_sampler({lang: len(by_lang[lang]) for lang in sorted(by_lang)})
    if params is None:
        params = init_params(config)
    state = init_adam(params)
    log: list[tuple[int, str, float]] = []

    for step in range(steps):
        lang_pool = by_lang[sampler.sample(rng)]
        picks = rng.choice(len(lang_pool), size=batch_size, replace=len(lang_pool) < batch_size)
        batch = [encoded[lang_pool[int(i)]] for i in picks]
        if step % 2 == 0:
            structure = "edgepred" if objectives.edge_pred else None
        else:
            structure = "nodealign" if objectives.node_align else None

        prepared = []
        for ex in batch:
            mlm_t = select_mlm_targets(ex, rng, len(vocab))
            prepared.append((ex, mlm_t, None if structure is None else structure_targets(ex, structure, rng)))

        parts: dict[str, float] = {}

        def loss_fn(p: ModelParams) -> Tensor:
            total, found = batch_loss(p, prepared, structure)
            parts.update(found)
            return total

        try:
            compute_gradients(loss_fn, params)
        except NonFiniteLoss as e:
            raise NonFiniteLoss(f"step {step}: {e}") from e
        adam_step(params, state, lr)
        log.append((step, "mlm", parts["mlm"]))
        if structure in parts:
            log.append((step, structure, parts[structure]))
    if steps and not np.isfinite(params.flat).all():  # no later loss shows an overflow in the last update
        raise NonFiniteLoss(f"step {steps - 1}: a weight is not finite after the update")

    return PretrainResult(params=params, vocab=vocab, loss_log=log, adam=state)


def write_loss_log(path, rows: list[tuple[int, str, float]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "objective", "loss"])
        for step, objective, loss in rows:
            writer.writerow([step, objective, repr(float(loss))])


def structure_accuracy(
    params: ModelParams,
    encoded: list[EncodedExample],
    objective: str,
    rng: np.random.Generator,
) -> float:
    """Binary accuracy of the pair scorer over freshly sampled target sets.
    The forwards read the candidate endpoints only (see `batch_loss`)."""
    scored = [(ex, tset) for ex in encoded if (tset := structure_targets(ex, objective, rng)) is not None]
    if not scored:
        raise ValueError("no structure candidates in the given examples")
    reads = [[p for pair in tset.candidates for p in pair] for _, tset in scored]

    def correct(rows: np.ndarray, maps, i: int) -> int:
        _, tset = scored[i]
        dots = (rows[0::2] * rows[1::2]).sum(axis=1).astype(np.float64)  # h_i . h_j of each candidate's row pair
        p = 1.0 / (1.0 + np.exp(-dots))
        return int(np.count_nonzero((p > 0.5) == (np.asarray(tset.labels) == 1)))

    hits = grouped_forwards(params, [ex for ex, _ in scored], correct, reads, [tset.mask for _, tset in scored])
    return sum(hits) / sum(len(tset.candidates) for _, tset in scored)
