"""The three benchmark workloads: inputs, set-up, timed closed loop, output checks.

Each workload is one process and one client: the next operation starts
only after the previous one returned. Operations go through the public
library API of ``codeflow``; the checks recompute results independently.

Timing. The machine this was written on is shared: its speed swings by a
third to a half, in episodes of seconds to minutes, for code that does not
change at all. So every operation is timed against a reference: a fixed
kernel (`reference_kernel`) runs between consecutive operations, and inside
long ones, and an operation's time is rescaled by the
reference kernel's nominal time over the median kernel time measured from
REFERENCE_WINDOW_S before the operation started to as long after it ended.
The result reads as seconds on a machine where the kernel takes REFERENCE_S.
The kernel mixes interpreter work and small-matrix numpy work in the
proportion of the workload (`reference_mix`): slow episodes slow the two
kinds of work by different amounts. A run repeats the same operations (the
same training step of a `pretrain_run` call, the same search, clone pair
or ingest shard) several times; each distinct operation counts with the
median of its rescaled repetitions, and a rate is the work of one pass over
all of them divided by the sum of those medians. Raw times are kept too,
printed and written to the `--out` record.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import generate

MODEL = dict(num_layers=2, hidden_dim=64, num_heads=4, ffn_dim=256, vocab_size=512, max_positions=512)
BATCH, LR = 16, 2e-3
MASK_SAMPLE = 2  # masks per ingest shard checked against the independent predicate

# Recorded outputs for seed 0, keyed by tiny. They change only when the
# program's numerics or its DFG/encoding output change.
EXPECTED_MLM_LOSS = {False: 4.837543392181397, True: 5.935225582122802}  # mean of the last five MLM losses
MLM_LOSS_TOLERANCE = 0.02  # relative
EXPECTED_INGEST_DIGEST = {  # sha256 of serialized DFGs and encoded ids
    False: "f0f93dafbd8079f1391e707ff4d8646fd54dff00d6174379f4b967465a8e3175",
    True: "826a58ba77f3b7ad63ff51371614bd055d4777d0655696d6afbec403e3a13bc7",
}

REFERENCE_S = 1e-3  # nominal time of one reference_kernel call
REFERENCE_WINDOW_S = 0.5
_TEXT = "def f(a, b):\n    c = a + b * 3\n    return c\n" * 4
_IDENT = frozenset("abcdefghijklmnopqrstuvwxyz_")
_MATRIX = np.random.default_rng(0).standard_normal((96, 64)).astype(np.float32)


def reference_kernel(mix: tuple[int, int]) -> float:
    """Fixed work shaped like the program's: `mix[0]` rounds of a character loop
    with dict updates, as in lexing, then `mix[1]` attention-sized float32
    matmuls and softmaxes. A round of either takes about 14 and 95 us here."""
    n = 0
    for _ in range(mix[0]):
        newlines = []
        for i, ch in enumerate(_TEXT):
            if ch in _IDENT:
                n += 1
            elif ch == "\n":
                newlines.append(i)
        counts: dict[int, int] = {}
        for i in newlines:
            counts[i % 7] = counts.get(i % 7, 0) + 1
    for _ in range(mix[1]):
        scores = _MATRIX @ _MATRIX.T
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        n += float(weights.sum() > 0.0)
    return n


def time_reference_kernel(mix: tuple[int, int]) -> tuple[float, float]:
    """(middle, seconds) of one reference_kernel call."""
    t0 = time.perf_counter()
    reference_kernel(mix)
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


class Reference:
    """Kernel runs sorted by time, to rescale operations by the kernel times around them."""

    def __init__(self, kernels: list[tuple[float, float]]):
        ordered = sorted(kernels)
        self.middles = np.array([m for m, _ in ordered])
        self.seconds = np.array([s for _, s in ordered])

    def rescale(self, seconds: float, start: float, end: float) -> float:
        """`seconds` spent in [start, end], in reference seconds."""
        lo = np.searchsorted(self.middles, start - REFERENCE_WINDOW_S, "left")
        hi = np.searchsorted(self.middles, end + REFERENCE_WINDOW_S, "right")
        if hi == lo:  # no kernel in the window: take the nearest one
            lo = min(lo, len(self.middles) - 1)
            lo = lo - 1 if lo and start - self.middles[lo - 1] < self.middles[lo] - end else lo
            hi = lo + 1
        return seconds * REFERENCE_S / float(np.median(self.seconds[lo:hi]))


class Lib:
    """A fresh import of the program's modules; set-up time includes it."""

    NAMES = ("autograd", "checkpoint", "cli", "dfg", "downstream", "encoding", "frontend", "model", "optim", "pretrain")

    def __init__(self, src: Path):
        for name in [m for m in sys.modules if m == "codeflow" or m.startswith("codeflow.")]:
            del sys.modules[name]
        for name in self.NAMES:
            setattr(self, name, importlib.import_module(f"codeflow.{name}"))
        where = Path(sys.modules["codeflow"].__file__).resolve()
        if src.resolve() not in where.parents:
            raise ImportError(f"codeflow imported from {where}, not from {src}")

    @staticmethod
    def module(path: str):
        return importlib.import_module(f"codeflow.{path}")


@dataclass
class Timed:
    """What a timed phase did: operations, failures, every timed repetition of
    each distinct operation, and the reference kernel runs between them."""

    mix: tuple[int, int]  # of the reference kernel
    ops: int = 0
    failed: int = 0
    programs: int = 0
    steps: int = 0
    timings: list[tuple[str, float, float, float]] = field(default_factory=list)  # (operation, start, end, seconds)
    kernels: list[tuple[float, float]] = field(default_factory=list)  # (middle, seconds)
    outputs: list = field(default_factory=list)

    def time(self, key: str, start: float, end: float, spent: float = 0.0) -> None:
        """Record one repetition of operation `key`, less `spent` seconds of reference kernel inside it."""
        self.timings.append((key, start, end, end - start - spent))

    def reference(self) -> float:
        middle, seconds = time_reference_kernel(self.mix)
        self.kernels.append((middle, seconds))
        return seconds

    @contextlib.contextmanager
    def references_inside(self, module, attr: str, every: int):
        """Run the reference kernel after every `every`-th call of `module.attr`,
        so a long operation is rescaled by the machine's speed during it. Yields
        a one-item list holding the kernel seconds to take off the operation."""
        fn = getattr(module, attr)
        spent, calls = [0.0], [0]

        def probe(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[0] += 1
            if calls[0] % every == 0:
                spent[0] += self.reference()
            return out

        setattr(module, attr, probe)
        try:
            yield spent
        finally:
            setattr(module, attr, fn)

    def samples(self, raw: bool = False) -> dict[str, list[float]]:
        """Seconds of each repetition by operation, in reference seconds unless `raw`."""
        out: dict[str, list[float]] = {}
        ref = Reference(self.kernels)
        for key, start, end, seconds in self.timings:
            out.setdefault(key, []).append(seconds if raw else ref.rescale(seconds, start, end))
        return out

    def merge(self, other: "Timed") -> "Timed":
        self.timings += other.timings
        self.kernels += other.kernels
        self.outputs += other.outputs
        self.ops += other.ops
        self.failed += other.failed
        self.programs += other.programs
        self.steps += other.steps
        return self

    def total(self, prefix: str, raw: bool = False) -> tuple[int, float]:
        """(distinct operations, sum of their median seconds) over keys starting with `prefix`."""
        samples = {k: v for k, v in self.samples(raw).items() if k.startswith(prefix)}
        return len(samples), sum(statistics.median(v) for v in samples.values())

    def repeats(self, prefix: str) -> str:
        counts = [len(v) for k, v in self.samples(raw=True).items() if k.startswith(prefix)]
        return f"median of {min(counts)}-{max(counts)} repeats" if counts else "no samples"


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def _failed_op(what: str) -> None:
    sys.stderr.write(f"perfbench: {what} raised\n{traceback.format_exc()}")


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in rows:
            f.write(json.dumps({"code": r.code, "docstring": r.docstring, "lang": r.lang}) + "\n")


def _line(name: str, value: float, unit: str, note: str) -> str:
    return f"{name:<26} {value:12.4f} {unit:<5} ({note})"


def _input_stats(lengths: list[int], nodes: int, edges: int, programs: int) -> dict:
    return {
        "programs": programs,
        "seq_len_median": statistics.median(lengths),
        "seq_len_max": max(lengths),
        "dfg_nodes": nodes,
        "dfg_edges": edges,
    }


# pretrain -------------------------------------------------------------------


class Pretrain:
    """`pretrain_run` at the acceptance-test-07 config. Every call starts from
    the same initial parameters and seed, so step i of every call does the
    same work and every call's loss log must be identical."""

    setup_repeats = 5
    reference_mix = (12, 10)

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.tiny = tiny
        self.rows = generate.pretrain_corpus(seed, 16 if tiny else 64)
        self.steps = 6 if tiny else 20

    def prepare(self, lib: Lib) -> None:
        pass

    def setup(self, lib: Lib) -> dict:
        items = [lib.pretrain.CorpusItem(r.code, r.docstring, r.lang) for r in self.rows]
        config = lib.model.ModelConfig(**MODEL, seed=self.seed)
        vocab = lib.encoding.build_vocab([(it.docstring, it.code) for it in items], config.vocab_size)
        encoded = lib.pretrain.encode_corpus(items, vocab, max_positions=config.max_positions)
        lib.model.init_params(config)
        return {"items": items, "config": config, "vocab": vocab, "encoded": encoded}

    def positions_per_step(self, lib: Lib, st: dict) -> float:
        """Expected real positions in one batch: the language sampler's
        probabilities times the mean length in each language."""
        pools: dict[str, list[int]] = {}
        for it, ex in zip(st["items"], st["encoded"]):
            pools.setdefault(it.lang, []).append(len(ex))
        sampler = lib.pretrain.language_sampler({lang: len(pools[lang]) for lang in sorted(pools)})
        return BATCH * sum(q * statistics.fmean(pools[lang]) for lang, q in zip(sampler.languages, sampler.probabilities))

    def input_stats(self, st: dict) -> dict:
        enc = st["encoded"]
        return _input_stats(
            [len(e) for e in enc], sum(len(e.node_positions) for e in enc), sum(len(e.node_edges) for e in enc), len(enc)
        )

    def run(self, lib: Lib, st: dict, seconds: float, span=None) -> Timed:
        """Times each step through `adam_step`; untraced, the reference kernel runs between steps."""
        t = Timed(self.reference_mix)
        t.reference()
        traced, span = span is not None, span or contextlib.nullcontext
        step = [0, 0.0]  # steps taken in this call, time the current step started

        def step_probe(*args, **kwargs):
            out = adam(*args, **kwargs)
            end = time.perf_counter()
            if step[0]:  # step 0 also encodes the corpus and has no earlier step end; it is left out
                t.time(f"step{step[0]:03d}", step[1], end)
            if not traced:
                t.reference()
            step[0] += 1
            step[1] = time.perf_counter()
            return out

        adam = lib.pretrain.adam_step
        lib.pretrain.adam_step = step_probe
        try:
            start = time.perf_counter()
            calls = 0
            while calls == 0 or time.perf_counter() - start < seconds:
                calls += 1
                params = lib.model.init_params(st["config"])
                step[0] = 0
                t.ops += self.steps
                try:
                    with span():
                        result = lib.pretrain.pretrain_run(
                            st["items"], st["config"], steps=self.steps, rng=self.seed, vocab=st["vocab"],
                            batch_size=BATCH, lr=LR, params=params,
                        )
                except Exception:
                    _failed_op("pretrain_run")
                    t.failed += self.steps
                    continue
                t.steps += self.steps
                t.programs += len(st["items"])
                t.outputs.append(result.loss_log)
        finally:
            lib.pretrain.adam_step = adam
        return t

    @staticmethod
    def final_mlm_loss(log) -> float:
        mlm = [v for _, objective, v in log if objective == "mlm"]
        return statistics.fmean(mlm[-5:])

    def log_problems(self, log) -> list[str]:
        problems = []
        if not all(math.isfinite(v) for _, _, v in log):
            problems.append("non-finite loss")
        mlm = [(s, v) for s, objective, v in log if objective == "mlm"]
        if [s for s, _ in mlm] != list(range(self.steps)):
            problems.append(f"expected one mlm row per step for {self.steps} steps, got {len(mlm)}")
        structure = [(s, objective) for s, objective, _ in log if objective != "mlm"]
        if any(objective != ("edgepred" if s % 2 == 0 else "nodealign") for s, objective in structure):
            problems.append("structure row with the wrong objective for its step")
        if len({s for s, _ in structure}) != len(structure):
            problems.append("more than one structure row in a step")
        if mlm and not self.final_mlm_loss(log) < mlm[0][1]:
            problems.append("final mlm mean is not below the first step's loss")
        return problems

    def check(self, lib: Lib, st: dict, t: Timed) -> list[str]:
        failures = []
        for i, log in enumerate(t.outputs):
            problems = self.log_problems(log)
            if log != t.outputs[0]:
                problems.append("loss log differs from the first call's with identical inputs")
            if problems:
                t.failed += self.steps
                failures.append(f"pretrain_run call {i}: " + "; ".join(problems))
        expected = EXPECTED_MLM_LOSS[self.tiny]
        if self.seed == 0 and t.outputs:
            got = self.final_mlm_loss(t.outputs[0])
            if abs(got - expected) > MLM_LOSS_TOLERANCE * expected:
                t.failed += 1
                failures.append(f"seed 0 final mlm loss {got:.6f}, recorded {expected:.6f}")
        return failures

    def report(self, lib: Lib, st: dict, t: Timed, raw: bool = False) -> tuple[dict, list[str]]:
        steps, seconds = t.total("step", raw)
        steps_per_s = _rate(steps, seconds)
        per_step = self.positions_per_step(lib, st)
        lines = [
            _line("pretrain_steps_per_s", steps_per_s, "1/s", f"steps 1-{steps} of a call, each {t.repeats('step')}"),
            _line("  raw", _rate(*t.total("step", raw=True)), "1/s", "without the reference rescaling"),
            _line("pretrain_tokens_per_s", steps_per_s * per_step, "1/s",
                  f"{per_step:.1f} real positions per step of {BATCH}, expected over the language sampler"),
        ]
        if t.outputs:
            loss = self.final_mlm_loss(t.outputs[0])
            lines.append(_line("pretrain_mlm_loss", loss, "nats", f"mean of the last 5 of {self.steps} steps"))
        return {"ops_per_s": steps_per_s, "tokens_per_s": steps_per_s * per_step}, lines


# retrieval ------------------------------------------------------------------


class Retrieval:
    """A checkpoint is loaded, `evaluate_search` ranks every query against the
    whole corpus, then `clone_probability` scores the clone pairs."""

    setup_repeats = 5
    reference_mix = (12, 10)

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.inputs = generate.retrieval_inputs(seed, 24 if tiny else 256, 12 if tiny else 128)
        self.corpus = workdir / "retrieval.jsonl"
        self.checkpoint = workdir / "model.gcb"
        self.vocab = workdir / "vocab.txt"
        self.cli_out = workdir / "cli-eval-search"

    def prepare(self, lib: Lib) -> None:
        rows = self.inputs.rows
        _write_jsonl(self.corpus, rows)
        config = lib.model.ModelConfig(**MODEL, seed=self.seed)
        vocab = lib.encoding.build_vocab([(r.docstring, r.code) for r in rows], config.vocab_size)
        self.vocab.write_text(vocab.serialize(), encoding="utf-8")
        lib.checkpoint.save_checkpoint(self.checkpoint, lib.model.init_params(config))

    def setup(self, lib: Lib) -> dict:
        items = lib.pretrain.load_corpus(self.corpus)
        params = lib.checkpoint.load_checkpoint(self.checkpoint)
        vocab = lib.encoding.Vocabulary.deserialize(self.vocab.read_text(encoding="utf-8"))
        examples = lib.downstream.prepare_search_examples(
            [(it.docstring, it.code) for it in items], vocab, lib.encoding.Limits(), params.config.max_positions
        )
        pairs = [(items[a].code, items[b].code) for a, b in self.inputs.pairs]
        return {"items": items, "params": params, "vocab": vocab, "examples": examples, "pairs": pairs}

    def input_stats(self, st: dict) -> dict:
        codes = [ex.code_encoded for ex in st["examples"]]
        return _input_stats(
            [len(e) for e in codes], sum(len(e.node_positions) for e in codes), sum(len(e.node_edges) for e in codes),
            len(codes),
        ) | {"clone_pairs": len(st["pairs"])}

    def run(self, lib: Lib, st: dict, seconds: float, span=None) -> Timed:
        """Untraced, the reference kernel also runs inside the long search, after
        every fourth encoder forward, and its time is taken off the search's."""
        t = Timed(self.reference_mix)
        t.reference()
        traced, span = span is not None, span or contextlib.nullcontext
        params, vocab, examples = st["params"], st["vocab"], st["examples"]
        start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            t.ops += len(examples)
            try:
                inside = contextlib.nullcontext([0.0]) if traced else t.references_inside(lib.downstream, "forward", 4)
                with span(), inside as spent:
                    mrr = lib.downstream.evaluate_search(params, examples)
                t1 = time.perf_counter()
                t.time("search", t0, t1, spent[0])
                t.reference()
                t.outputs.append(("search", mrr))
            except Exception:
                _failed_op("evaluate_search")
                t.failed += len(examples)
            for j, (a, b) in enumerate(st["pairs"]):
                if passes and time.perf_counter() - start >= seconds:
                    break
                t0 = time.perf_counter()
                t.ops += 1
                try:
                    with span():
                        p = lib.downstream.clone_probability(a, b, params, vocab)
                    t1 = time.perf_counter()
                    t.time(f"pair{j:04d}", t0, t1)
                    t.reference()
                    t.outputs.append(("clone", j, p))
                    t.programs += 1
                except Exception:
                    _failed_op("clone_probability")
                    t.failed += 1
            passes += 1
        return t

    def check(self, lib: Lib, st: dict, t: Timed) -> list[str]:
        failures = []
        params, vocab, items = st["params"], st["vocab"], st["items"]
        q = np.stack([lib.downstream.encode_text(it.docstring, params, vocab) for it in items]).astype(np.float64)
        c = np.stack([lib.downstream.encode_code(it.code, params, vocab) for it in items]).astype(np.float64)
        scores = q @ c.T
        ranks = []
        for gold, row in enumerate(scores):  # ties go to the lower candidate index
            ranks.append(1 + int(np.sum(row > row[gold])) + int(np.sum(row[:gold] == row[gold])))
        mrr_ref = float(np.mean([1.0 / r for r in ranks]))
        index = {it.code: i for i, it in enumerate(items)}
        scale = 1.0 / math.sqrt(params.config.hidden_dim)
        mrrs = []
        for out in t.outputs:
            if out[0] == "search":
                mrrs.append(out[1])
                if abs(out[1] - mrr_ref) > 1e-12:
                    t.failed += len(items)
                    failures.append(f"evaluate_search MRR {out[1]!r}, independent recomputation {mrr_ref!r}")
                continue
            _, j, p = out
            a, b = (index[code] for code in st["pairs"][j])
            p_ref = 1.0 / (1.0 + math.exp(-float(c[a] @ c[b]) * scale))
            if not abs(p - p_ref) <= 1e-6:
                t.failed += 1
                failures.append(f"clone pair {j}: probability {p!r}, recomputed {p_ref!r}")
        failures += self._check_cli(lib, mrrs[0] if mrrs else None, t)
        return failures

    def _check_cli(self, lib: Lib, mrr: float | None, t: Timed) -> list[str]:
        argv = ["eval-search", "--corpus", str(self.corpus), "--checkpoint", str(self.checkpoint),
                "--vocab", str(self.vocab), "--out", str(self.cli_out)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = lib.cli.main(argv)
        if code != 0:
            t.failed += 1
            return [f"codeflow eval-search exited {code}: {sink.getvalue().strip()}"]
        got = json.loads((self.cli_out / "metrics.json").read_text(encoding="utf-8"))["mrr"]
        if mrr is None or abs(got - mrr) > 1e-12:
            t.failed += 1
            return [f"codeflow eval-search MRR {got!r}, library {mrr!r}"]
        return []

    def report(self, lib: Lib, st: dict, t: Timed, raw: bool = False) -> tuple[dict, list[str]]:
        n = len(st["examples"])
        _, search = t.total("search", raw)
        m, pairs = t.total("pair", raw)
        codes = [len(ex.code_encoded) for ex in st["examples"]]
        index = {it.code: i for i, it in enumerate(st["items"])}
        positions = (
            sum(len(ex.query_encoded) for ex in st["examples"])
            + sum(codes)
            + sum(codes[index[a]] + codes[index[b]] for a, b in st["pairs"][:m])
        )
        per_pass = search + pairs
        lines = [
            _line("search_queries_per_s", _rate(n, search), "1/s",
                  f"{n} queries over {n} candidates, {t.repeats('search')}"),
            _line("clone_pairs_per_s", _rate(m, pairs), "1/s", f"{m} pairs, each {t.repeats('pair')}"),
            _line("  raw", _rate(n + m, t.total("search", raw=True)[1] + t.total("pair", raw=True)[1]), "1/s",
                  "requests per second without the reference rescaling"),
            f"{'':<26} (a pass is {n} queries and {m} clone pairs over {positions} positions)",
        ]
        return {"ops_per_s": _rate(n + m, per_pass), "tokens_per_s": _rate(positions, per_pass)}, lines


# ingest ---------------------------------------------------------------------


def mask_allows(example, i: int, j: int) -> bool:
    """The attention predicate restated entry by entry, independent of
    `build_attention_mask`: may query `i` attend key `j`?"""
    seg = example.segments
    if seg[i] == "special":
        return True
    if seg[i] != "node" and seg[j] != "node":
        return True
    if seg[i] == "node" and i == j:
        return True
    if (j, i) in example.node_edges:  # edge source j feeds destination i
        return True
    return (i, j) in example.node_token_links or (j, i) in example.node_token_links


class Ingest:
    """Shards of generated rows through `filter_search_corpus`, `build_vocab`,
    `encode_corpus` and a mask build per kept example."""

    setup_repeats = 5
    reference_mix = (64, 1)  # lexing, parsing and DFG walks are interpreter work

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.tiny = tiny
        self.rows = generate.ingest_rows(seed, 120 if tiny else 2400)
        self.shard = 40 if tiny else 100
        self.corpus = workdir / "ingest.jsonl"
        self.first_pass: dict[int, dict] = {}  # shard -> what its first pass produced

    def prepare(self, lib: Lib) -> None:
        _write_jsonl(self.corpus, self.rows)

    def setup(self, lib: Lib) -> dict:
        items = lib.pretrain.load_corpus(self.corpus)
        return {"shards": [items[i : i + self.shard] for i in range(0, len(items), self.shard)]}

    def ingest(self, lib: Lib, shard) -> tuple:
        kept = lib.downstream.filter_search_corpus(shard)
        vocab = lib.encoding.build_vocab([(it.docstring, it.code) for it in kept], MODEL["vocab_size"])
        encoded = lib.pretrain.encode_corpus(kept, vocab, max_positions=MODEL["max_positions"])
        masks = [lib.encoding.additive_mask(lib.encoding.build_attention_mask(ex)) for ex in encoded]
        return kept, encoded, masks

    def run(self, lib: Lib, st: dict, seconds: float, span=None) -> Timed:
        """At least one pass over every shard, then more until time is up.
        Untraced, the reference kernel also runs after every 40th tokenize."""
        t = Timed(self.reference_mix)
        t.reference()
        traced, span = span is not None, span or contextlib.nullcontext
        lexer = lib.module("frontend.lexer")
        shards = st["shards"]
        start = time.perf_counter()
        k = 0
        while k < len(shards) or time.perf_counter() - start < seconds:
            index = k % len(shards)
            shard = shards[index]
            k += 1
            t0 = time.perf_counter()
            t.ops += len(shard)
            try:
                inside = contextlib.nullcontext([0.0]) if traced else t.references_inside(lexer, "tokenize", 40)
                with span(), inside as spent:
                    kept, encoded, masks = self.ingest(lib, shard)
            except Exception:
                _failed_op("ingest shard")
                t.failed += len(shard)
                continue
            t.time(f"shard{index:03d}", t0, time.perf_counter(), spent[0])
            t.reference()
            t.programs += len(shard)
            ids = hashlib.sha256(json.dumps([ex.ids for ex in encoded]).encode("utf-8")).hexdigest()
            t.outputs.append((index, [it.code for it in kept], ids))
            if index not in self.first_pass:  # keep only small summaries, so memory does not grow
                self.first_pass[index] = {
                    "ids": ids,
                    "lengths": [len(ex) for ex in encoded],
                    "nodes": sum(len(ex.node_positions) for ex in encoded),
                    "edges": sum(len(ex.node_edges) for ex in encoded),
                    "mask_ok": all(self.mask_ok(ex, m) for ex, m in zip(encoded[:MASK_SAMPLE], masks)),
                }
        return t

    @staticmethod
    def mask_ok(example, additive: np.ndarray) -> bool:
        n = len(example)
        allow = np.array([[mask_allows(example, i, j) for j in range(n)] for i in range(n)])
        return additive.shape == (n, n) and np.array_equal(additive, np.where(allow, 0.0, -1e9).astype(np.float32))

    def input_stats(self, st: dict) -> dict:
        firsts = self.first_pass.values()
        lengths = [n for f in firsts for n in f["lengths"]]
        return _input_stats(lengths, sum(f["nodes"] for f in firsts), sum(f["edges"] for f in firsts), len(self.rows)) | {
            "planted_rejects": sum(r.planted is not None for r in self.rows),
            "shards": len(st["shards"]),
        }

    def check(self, lib: Lib, st: dict, t: Timed) -> list[str]:
        failures = []
        for index, codes, ids in t.outputs:
            rows = self.rows[index * self.shard : (index + 1) * self.shard]
            problems = []
            clean = [r.code for r in rows if r.planted is None]
            if codes != clean:
                problems.append(f"kept {len(codes)} rows, the generator planted {len(clean)} clean rows")
            if ids != self.first_pass[index]["ids"]:
                problems.append("encoded ids differ from the first pass over this shard")
            if problems:
                t.failed += len(rows)
                failures.append(f"ingest shard {index}: " + "; ".join(problems))
        for index, first in sorted(self.first_pass.items()):
            if not first["mask_ok"]:
                t.failed += 1
                failures.append(f"ingest shard {index}: attention mask disagrees with the independent predicate")
        expected_digest = EXPECTED_INGEST_DIGEST[self.tiny]
        if self.seed == 0:
            got = self.digest(lib, {index: f["ids"] for index, f in self.first_pass.items()})
            if got != expected_digest:
                t.failed += 1
                failures.append(f"seed 0 digest of DFGs and ids {got}, recorded {expected_digest}")
        return failures

    def digest(self, lib: Lib, ids_by_shard: dict[int, str]) -> str:
        """sha256 over every kept row's serialized DFG and the sha256 of every shard's encoded ids."""
        h = hashlib.sha256()
        for index in sorted(ids_by_shard):
            for r in self.rows[index * self.shard : (index + 1) * self.shard]:
                if r.planted is None:
                    h.update(lib.dfg.serialize_dfg(lib.dfg.extract_dfg(r.code)).encode("utf-8"))
            h.update(ids_by_shard[index].encode("utf-8"))
        return h.hexdigest()

    def report(self, lib: Lib, st: dict, t: Timed, raw: bool = False) -> tuple[dict, list[str]]:
        timed_shards = {int(k[len("shard"):]) for k in t.samples(raw=True)}
        programs = sum(len(st["shards"][i]) for i in timed_shards)
        positions = sum(sum(self.first_pass[i]["lengths"]) for i in timed_shards)
        _, seconds = t.total("shard", raw)
        lines = [
            _line("ingest_programs_per_s", _rate(programs, seconds), "1/s",
                  f"{programs} programs in {len(timed_shards)} shards, each {t.repeats('shard')}"),
            _line("  raw", _rate(programs, t.total("shard", raw=True)[1]), "1/s", "without the reference rescaling"),
        ]
        return {"ops_per_s": _rate(programs, seconds), "tokens_per_s": _rate(positions, seconds)}, lines


WORKLOADS = {"pretrain": Pretrain, "retrieval": Retrieval, "ingest": Ingest}
