"""Traced runs: wrap the program's public functions in place and record spans.

The tracer replaces each wrapped function under every name that refers to
it in any loaded ``codeflow`` module, so a ``from .model import forward`` in
``pretrain``, ``downstream`` and ``cli`` is traced too. ``Tensor.backward`` is
wrapped on the class and ``autograd._make`` is counted to give graph nodes.

Spans are kept in memory as ``[name, start, end, parent]`` and reduced when
a phase ends: a span's self time is its duration minus the durations of its
child spans. Autograd op spans never nest: an op called inside another op
(``tmean`` inside ``layer_norm``) is charged to the outer op.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module under codeflow, attribute, span name)
LAYER_FUNCTIONS = (
    ("frontend.lexer", "tokenize", "frontend.tokenize"),
    ("frontend.parser", "parse", "frontend.parse"),
    ("dfg", "extract_dfg", "dfg.extract"),
    ("encoding", "build_vocab", "encoding.vocab"),
    ("encoding", "encode_example", "encoding.encode"),
    ("encoding", "build_attention_mask", "encoding.mask"),
    ("encoding", "additive_mask", "encoding.mask"),
    ("model", "forward", "model.forward"),
    ("model", "attention_scores", "model.attention"),
    ("model", "compute_gradients", "model.compute_gradients"),
    ("optim", "adam_step", "optim.adam"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("pretrain", "select_mlm_targets", "pretrain.targets"),
    ("pretrain", "sample_edge_targets", "pretrain.targets"),
    ("pretrain", "sample_align_targets", "pretrain.targets"),
    ("pretrain", "mlm_loss", "pretrain.loss"),
    ("pretrain", "edge_pred_loss", "pretrain.loss"),
    ("pretrain", "node_align_loss", "pretrain.loss"),
    ("downstream", "rank_candidates", "downstream.rank"),
    ("downstream", "filter_search_corpus", "downstream.filter"),
    ("downstream", "evaluate_search", "downstream.evaluate_search"),
    ("downstream", "encode_code_example", "downstream.encode_code"),
)

# autograd op -> reported group
OP_GROUPS = {
    "gelu": "gelu",
    "matmul": "matmul",
    "softmax": "softmax",
    "log_softmax": "softmax",
    "layer_norm": "layer_norm",
    "take_rows": "gather",
    "gather_cols": "gather",
    "transpose": "shape",
    "reshape": "shape",
    "concat": "shape",
    **{name: "elementwise" for name in (
        "add", "mul", "power", "exp", "log", "tanh", "sigmoid", "log_sigmoid", "tsum", "tmean",
    )},
}

OP_SPAN = "bench.op"


def forward_flops(config, length: int) -> int:
    """Multiply-add FLOPs of one encoder forward over `length` positions,
    computed from the tensor shapes (elementwise work left out)."""
    d, f = config.hidden_dim, config.ffn_dim
    per_layer = 2 * length * d * d * 4 + 2 * 2 * length * length * d + 2 * 2 * length * d * f
    return config.num_layers * per_layer


class Tracer:
    """Span recorder and in-place function wrapper for one traced phase."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._op_depth = 0
        self._forward_depth = 0

    # span bookkeeping ----------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        i = len(self.spans) - 1
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self.stack.pop()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    # wrapping ------------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Point every codeflow-module name bound to `original` at `wrapper`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "codeflow" or mod_name.startswith("codeflow.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _layer_wrapper(self, span_name: str, fn, before=None, after=None):
        tracer = self
        frontend_error = self.lib.frontend.FrontendError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = tracer.open(span_name)
            try:
                out = fn(*args, **kwargs)
            except frontend_error:
                if span_name.startswith("frontend."):
                    tracer.counts["frontend.rejected"] += 1
                raise
            finally:
                tracer.close(i)
                if span_name == "model.forward":
                    tracer._forward_depth -= 1
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _op_wrapper(self, span_name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op_depth:
                return fn(*args, **kwargs)
            tracer._op_depth += 1
            i = tracer.open(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)
                tracer._op_depth -= 1

        return wrapper

    def install(self) -> None:
        lib = self.lib
        counts = self.counts
        self.missing.clear()
        for mod_path, attr, span_name in LAYER_FUNCTIONS:
            mod = lib.module(mod_path)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_path}.{attr}")
                continue
            before, after = self._hooks(attr)
            self._replace(fn, self._layer_wrapper(span_name, fn, before, after))
        for op, group in OP_GROUPS.items():
            fn = getattr(lib.autograd, op, None)
            if fn is None:
                self.missing.append(f"autograd.{op}")
                continue
            self._replace(fn, self._op_wrapper(f"autograd.{group}", fn))

        make = lib.autograd._make
        tracer = self

        def counting_make(*args, **kwargs):
            counts["autograd.nodes"] += 1
            if tracer._forward_depth:
                counts["autograd.nodes_in_forward"] += 1
            return make(*args, **kwargs)

        self._replace(make, counting_make)
        tensor = lib.autograd.Tensor
        backward = tensor.backward
        self._undo.append((tensor, "backward", backward))
        tensor.backward = self._layer_wrapper("autograd.backward", backward)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _hooks(self, attr: str):
        """Counters read at the call boundary of `attr`: (before, after) callbacks."""
        counts = self.counts
        tracer = self

        def forward_before(args, kwargs):
            tracer._forward_depth += 1
            params = args[0] if args else kwargs["params"]
            ids = np.asarray(args[1] if len(args) > 1 else kwargs["ids"])
            length = ids.shape[-1] if ids.ndim else 0
            sequences = ids.size // length if length else 0
            counts["model.forward.calls"] += 1
            counts["model.forward.positions"] += int(ids.size)
            counts["model.forward.real_positions"] += int(np.count_nonzero(ids != 0))
            counts["model.forward.flops"] += sequences * forward_flops(params.config, length)

        def file_bytes(key):
            def after(args, kwargs, out):
                path = args[0] if args else kwargs["path"]
                counts[key] += os.path.getsize(path)
                counts[key + ".calls"] += 1
            return after

        def dfg_after(args, kwargs, out):
            counts["dfg.graphs"] += 1
            counts["dfg.nodes"] += len(out.nodes)
            counts["dfg.edges"] += len(out.edges)

        def targets_after(args, kwargs, out):
            if out.candidates:
                counts["pretrain.struct_targets"] += 1
                counts["pretrain.candidates"] += len(out.candidates)

        def count(key):
            return lambda args, kwargs, out: counts.update((key,))

        table = {
            "extract_dfg": (None, dfg_after),
            "encode_example": (None, lambda a, k, out: counts.update({"encoding.tokens": len(out)})),
            "build_attention_mask": (None, count("encoding.mask.builds")),
            "forward": (forward_before, None),
            "adam_step": (
                None,
                lambda a, k, out: counts.update(
                    {"optim.bytes_updated": sum(t.data.nbytes for t in (a[0] if a else k["params"]).tensors.values())}
                ),
            ),
            "load_checkpoint": (None, file_bytes("checkpoint.load.bytes")),
            "save_checkpoint": (None, file_bytes("checkpoint.save.bytes")),
            "select_mlm_targets": (None, count("pretrain.examples")),
            "sample_edge_targets": (None, targets_after),
            "sample_align_targets": (None, targets_after),
        }
        return table.get(attr, (None, None))

    # reduction -----------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive ms, self ms) over spans inside op spans."""
        child = [0.0] * len(self.spans)
        inside = [False] * len(self.spans)
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += t1 - t0
                inside[i] = inside[parent] or self.spans[parent][0] == OP_SPAN
        calls: Counter = Counter()
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            if not (inside[i] or name == OP_SPAN):
                continue
            calls[name] += 1
            incl[name] += (t1 - t0) * 1e3
            own[name] += (t1 - t0 - child[i]) * 1e3
        return {name: (calls[name], incl[name], own[name]) for name in calls}

    def setup_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, inclusive ms) over every recorded span."""
        calls: Counter = Counter()
        incl: dict[str, float] = defaultdict(float)
        for name, t0, t1, _ in self.spans:
            calls[name] += 1
            incl[name] += (t1 - t0) * 1e3
        return {name: (calls[name], incl[name]) for name in calls}


def per_layer_metrics(
    totals: dict,
    counts: Counter,
    setup: dict,
    setup_counts: Counter,
    ops: int,
    programs: int,
    steps: int,
    overhead: float,
) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced timed phase.

    `ops` is the workload's unit of work (a training step, a retrieval
    request, an ingested program), `programs` the distinct program inputs
    the timed phase handled (on retrieval, the snippets of the clone pairs
    scored: the pairs form a ring, so a pass scores each snippet in two
    pairs) and `steps` the optimizer steps it took.
    """

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_ms(name):
        return totals.get(name, (0, 0.0, 0.0))[2] / ops

    def incl_ms(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / ops

    def per_call(name):
        calls, ms = setup.get(name, (0, 0.0))
        return ms / calls if calls else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    fwd_calls, fwd_incl, _ = totals.get("model.forward", (0, 0.0, 0.0))
    graphs = counts["dfg.graphs"]
    ckpt_calls = setup_counts["checkpoint.save.bytes.calls"] + setup_counts["checkpoint.load.bytes.calls"]
    ckpt_bytes = setup_counts["checkpoint.save.bytes"] + setup_counts["checkpoint.load.bytes"]
    return {
        "frontend.tokenize.ms": self_ms("frontend.tokenize"),
        "frontend.parse.ms": self_ms("frontend.parse"),
        "frontend.tokenize.calls_per_program": ratio(calls("frontend.tokenize"), programs),
        "frontend.parse.calls_per_program": ratio(calls("frontend.parse"), programs),
        "frontend.rejected": ratio(counts["frontend.rejected"], programs),
        "dfg.extract.ms": self_ms("dfg.extract"),
        "dfg.extract.calls_per_program": ratio(calls("dfg.extract"), programs),
        "dfg.nodes": ratio(counts["dfg.nodes"], graphs),
        "dfg.edges": ratio(counts["dfg.edges"], graphs),
        "encoding.encode.ms": self_ms("encoding.encode"),
        "encoding.vocab.ms": self_ms("encoding.vocab"),
        "encoding.mask.ms": self_ms("encoding.mask"),
        "encoding.mask.builds_per_step": ratio(counts["encoding.mask.builds"], ops),
        "encoding.tokens": ratio(counts["encoding.tokens"], ops),
        "autograd.nodes_per_step": ratio(counts["autograd.nodes"], ops),
        "autograd.nodes_per_forward": ratio(counts["autograd.nodes_in_forward"], counts["model.forward.calls"]),
        "autograd.backward.ms": self_ms("autograd.backward"),
        "autograd.gelu.ms": self_ms("autograd.gelu"),
        "autograd.matmul.ms": self_ms("autograd.matmul"),
        "autograd.softmax.ms": self_ms("autograd.softmax"),
        "autograd.layer_norm.ms": self_ms("autograd.layer_norm"),
        "autograd.elementwise.ms": self_ms("autograd.elementwise"),
        "autograd.gather.ms": self_ms("autograd.gather"),
        "autograd.shape.ms": self_ms("autograd.shape"),
        "model.forward.ms_per_call": ratio(fwd_incl, fwd_calls),
        "model.attention.ms": incl_ms("model.attention"),
        "model.compute_gradients.self_ms": self_ms("model.compute_gradients"),
        "model.forward.gflops_per_s": ratio(counts["model.forward.flops"] / 1e9, fwd_incl / 1e3),
        "model.real_token_ratio": ratio(counts["model.forward.real_positions"], counts["model.forward.positions"]),
        "optim.adam.ms": self_ms("optim.adam"),
        "optim.bytes_updated": ratio(counts["optim.bytes_updated"], ops),
        "checkpoint.load.ms": per_call("checkpoint.load"),
        "checkpoint.save.ms": per_call("checkpoint.save"),
        "checkpoint.bytes": ratio(ckpt_bytes, ckpt_calls),
        "pretrain.targets.ms": self_ms("pretrain.targets"),
        "pretrain.loss.ms": incl_ms("pretrain.loss"),
        "pretrain.struct_target_ratio": ratio(counts["pretrain.struct_targets"], counts["pretrain.examples"]),
        "pretrain.candidates_per_step": ratio(counts["pretrain.candidates"], steps),
        "downstream.rank.ms": self_ms("downstream.rank"),
        "downstream.filter.ms": self_ms("downstream.filter"),
        "downstream.evaluate_search.self_ms": self_ms("downstream.evaluate_search"),
        "downstream.clone.unique_snippet_ratio": ratio(programs, calls("downstream.encode_code")),
        "trace.op.ms": incl_ms(OP_SPAN),
        "trace.overhead_ratio": overhead,
    }
