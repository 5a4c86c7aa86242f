"""Command-line surface.

Exit codes: 0 success, 1 bad flags or configuration, 2 data errors
(`DataError`, and OSError or UnicodeError from reading a file), 3 numerical
divergence (`NonFiniteLoss`), 130 interrupted (Ctrl-C).
Every run that writes artifacts drops the merged RunConfig JSON beside them,
and all randomness descends from the single configured seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .dfg import extract_dfg, serialize_dfg
from .downstream import (
    CloneExample,
    attention_splits,
    clone_metrics,
    clone_probabilities,
    evaluate_search,
    filter_search_corpus,
    finetune_clone,
    finetune_search,
    prepare_search_examples,
)
from .encoding import (
    RESERVED,
    Limits,
    Vocabulary,
    build_attention_mask,
    build_vocab,
    encode_example,
    mask_density,
)
from .errors import DataError
from .model import ModelConfig, ModelParams, NonFiniteLoss, init_params, parameter_count
from .pretrain import (
    Objectives,
    encode_corpus,
    load_corpus,
    pretrain_run,
    read_jsonl,
    read_text,
    str_fields,
    write_loss_log,
)

class BadFlags(Exception):
    pass


# Most examples one training batch may hold (`--batch-size`). The bound makes
# an absurd value a flag error, not an attempt to allocate that many rows or,
# past the range of a C long, an OverflowError in the sampler.
MAX_BATCH_SIZE = 4096

# Most parameters a model the flags describe may have: 200 MB of float32
# weights. The bound makes an absurd size (`--vocab-size 100000000`) a flag
# error, not a numpy allocation failure.
MAX_PARAMETERS = 50_000_000


# A field's default type -> the value types it accepts; a bool is not a number.
_VALUE_TYPES = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    type(None): ((str, type(None)), "a string or null"),
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int = 0
    num_layers: int = 2
    hidden_dim: int = 64
    num_heads: int = 4
    ffn_dim: int = 256
    vocab_size: int = 512
    max_positions: int = 512
    max_comment: int = 128
    max_code: int = 256
    max_nodes: int = 64
    edge_pred: bool = True
    node_align: bool = True
    use_dataflow: bool = True
    steps: int = 100
    epochs: int = 20
    lr: float = 1e-3
    batch_size: int = 8
    corpus: str | None = None
    checkpoint: str | None = None
    vocab: str | None = None
    out: str | None = None
    file: str | None = None
    comment: str | None = None

    def _pick(self, cls):
        """A `cls` built from this config's fields of the same names."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    def model_config(self) -> ModelConfig:
        return self._pick(ModelConfig)

    def limits(self) -> Limits:
        """Truncation limits; `use_dataflow` false is the no-data-flow ablation, no node segment."""
        return self._pick(Limits) if self.use_dataflow else replace(self._pick(Limits), max_nodes=0)

    def objectives(self) -> Objectives:
        return self._pick(Objectives)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, command: str, overrides: dict) -> "RunConfig":
        defaults = {f.name: f.default for f in fields(cls) if f.name != "command"}
        unknown = sorted(set(overrides) - set(defaults))
        if unknown:
            raise BadFlags(f"unknown config keys: {', '.join(unknown)}")
        for key, value in overrides.items():
            accepted, what = _VALUE_TYPES[type(defaults[key])]
            if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in accepted):
                raise BadFlags(f"config key {key} must be {what}, not {json.dumps(value)}")
            if isinstance(value, str) and "\0" in value:  # JSON can carry one, argv cannot; open() rejects it
                raise BadFlags(f"config key {key} holds a NUL byte")
        return cls(command=command, **overrides)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise BadFlags(message)


# The irregular flags: each switches a RunConfig field off. Every other field
# is `--name-with-dashes`, typed by its default (None: a string).
_SWITCHES = {"use_dataflow": "--no-dataflow", "edge_pred": "--no-edgepred", "node_align": "--no-nodealign"}
_MODEL = tuple(f.name for f in fields(ModelConfig) if f.name not in ("vocab_size", "seed"))
_LIMITS = tuple(f.name for f in fields(Limits))
_INPUTS = ("config", "seed", "corpus", "checkpoint", "vocab", "out")
_ENCODER = ("vocab_size", "use_dataflow", *_MODEL, *_LIMITS)


def build_parser() -> _Parser:
    parser = _Parser(prog="codeflow", description="Data-flow-aware code encoder toolkit")
    subs = parser.add_subparsers(dest="command")
    defaults = {f.name: f.default for f in fields(RunConfig)}
    for command, (help_line, names, _) in _COMMANDS.items():
        # An absent flag stays out of the namespace, so --config can set it.
        sub = subs.add_parser(command, argument_default=argparse.SUPPRESS, help=help_line)
        for name in names:
            if name == "file":
                sub.add_argument("file", default=None)
            elif name == "config":
                sub.add_argument("--config", help="JSON file with RunConfig defaults")
            elif name in _SWITCHES:
                sub.add_argument(_SWITCHES[name], dest=name, action="store_false")
            else:
                default = defaults[name]
                sub.add_argument("--" + name.replace("_", "-"), type=None if default is None else type(default))
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    ns = dict(vars(args))
    command = ns.pop("command", None)
    if not command:
        raise BadFlags("a subcommand is required")
    overrides: dict = {}
    config_path = ns.pop("config", None)
    if config_path is not None:
        try:
            loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as e:  # also a JSON decode error, an integer past the digit limit
            raise BadFlags(f"cannot read --config {config_path}: {e}") from e
        if not isinstance(loaded, dict):
            raise BadFlags("--config must hold a JSON object")
        loaded.pop("command", None)
        overrides.update(loaded)
    overrides.update(ns)
    try:
        rc = RunConfig.from_dict(command, overrides)
        count = parameter_count(rc.model_config())
        if count > MAX_PARAMETERS:
            raise ValueError(f"the model would have {count:,} parameters, more than {MAX_PARAMETERS:,}")
        if min(rc.max_comment, rc.max_code, rc.max_nodes) < 1:
            raise ValueError("limits must be positive")
        if rc.steps < 0 or rc.epochs < 0 or rc.batch_size < 1:
            raise ValueError("steps/epochs must be >= 0 and batch size >= 1")
        if rc.batch_size > MAX_BATCH_SIZE:
            raise ValueError(f"batch size must be at most {MAX_BATCH_SIZE}, not {rc.batch_size}")
        if command == "finetune-search" and rc.batch_size < 2:
            raise ValueError(
                f"finetune-search needs a batch size of at least 2 for in-batch contrast, not {rc.batch_size}"
            )
        if rc.seed < 0:
            raise ValueError(f"seed must be >= 0, not {rc.seed}")
        if rc.vocab is not None and rc.checkpoint is None:  # the vocabulary is built from the corpus
            raise ValueError("--vocab needs --checkpoint")
        if rc.vocab_size < len(RESERVED):
            raise ValueError(f"vocab size must be at least {len(RESERVED)}, not {rc.vocab_size}")
        if not (math.isfinite(rc.lr) and rc.lr > 0):
            raise ValueError(f"learning rate must be finite and positive, not {rc.lr}")
    except (TypeError, ValueError) as e:
        raise BadFlags(str(e)) from e
    return rc


def _require(rc: RunConfig, *names: str) -> None:
    missing = [n for n in names if getattr(rc, n) is None]
    if missing:
        raise BadFlags(f"{rc.command} requires --{missing[0].replace('_', '-')}")


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _write_artifacts(
    rc: RunConfig, metrics: dict, params: ModelParams | None = None, vocab: Vocabulary | None = None
) -> None:
    """Make `--out` and write the run config, the metrics and, when given,
    the model as ``model.gcb`` and its vocabulary as ``vocab.txt``."""
    out = Path(rc.out)
    out.mkdir(parents=True, exist_ok=True)
    if params is not None:
        save_checkpoint(out / "model.gcb", params)
    if vocab is not None:
        (out / "vocab.txt").write_text(vocab.serialize(), encoding="utf-8")
    (out / "run_config.json").write_text(rc.to_json(), encoding="utf-8")
    (out / "metrics.json").write_text(json.dumps(metrics, sort_keys=True) + "\n", encoding="utf-8")


def _load_model(rc: RunConfig, texts: list[tuple[str, str]]):
    """Either load checkpoint + vocab from disk or build both fresh from the
    corpus's ``(comment, code)`` pairs `texts`, so evaluation commands also
    work on untrained weights."""
    if rc.checkpoint is not None:
        params = load_checkpoint(rc.checkpoint)
        vocab_path = Path(rc.vocab) if rc.vocab else Path(rc.checkpoint).parent / "vocab.txt"
        try:
            vocab = Vocabulary.deserialize(vocab_path.read_text(encoding="utf-8"))
        except DataError as e:
            raise DataError(f"{vocab_path} {e}") from e
        missing = [f"{token} at id {i}" for token, i in RESERVED if vocab.token_to_id.get(token) != i]
        if missing:
            raise DataError(f"{vocab_path} lacks the reserved token {missing[0]}")
        size, top = params.config.vocab_size, max(vocab.token_to_id.values(), default=0)
        if len(vocab) > size or top >= size:
            raise DataError(
                f"{vocab_path} has {len(vocab)} tokens with ids up to {top}, "
                f"more than the checkpoint's vocab_size {size}"
            )
        return params, vocab
    return init_params(rc.model_config()), build_vocab(texts, rc.vocab_size)


# command handlers -----------------------------------------------------------


def _cmd_extract_dfg(rc: RunConfig) -> int:
    source = read_text(rc.file)
    sys.stdout.write(serialize_dfg(extract_dfg(source)) + "\n")
    return 0


def _cmd_encode(rc: RunConfig) -> int:
    source = read_text(rc.file)
    comment = rc.comment or None
    vocab = build_vocab([(comment or "", source)], rc.vocab_size)
    example = encode_example(comment, source, vocab, limits=rc.limits(), max_positions=rc.max_positions)
    allow = build_attention_mask(example)
    _print_json(
        {
            "ids": list(example.ids),
            "segments": list(example.segments),
            "position_ids": list(example.position_ids),
            "num_nodes": len(example.node_positions),
            "num_edges": len(example.node_edges),
            "mask_density": mask_density(allow),
        }
    )
    return 0


def _cmd_pretrain(rc: RunConfig) -> int:
    _require(rc, "corpus", "out")
    corpus = load_corpus(rc.corpus)
    result = pretrain_run(
        corpus,
        rc.model_config(),
        rc.objectives(),
        steps=rc.steps,
        rng=np.random.default_rng(rc.seed),
        limits=rc.limits(),
        batch_size=rc.batch_size,
        lr=rc.lr,
    )
    mlm_rows = [loss for _, objective, loss in result.loss_log if objective == "mlm"]
    metrics = {
        "steps": rc.steps,
        "initial_mlm_loss": mlm_rows[0] if mlm_rows else None,
        "final_mlm_loss": mlm_rows[-1] if mlm_rows else None,
    }
    _write_artifacts(rc, metrics, result.params, result.vocab)
    write_loss_log(Path(rc.out) / "losses.csv", result.loss_log)
    _print_json(metrics)
    return 0


def _cmd_search(rc: RunConfig) -> int:
    _require(rc, "corpus", "out")
    tune = rc.command == "finetune-search"
    raw_items = filter_search_corpus(load_corpus(rc.corpus))
    if not raw_items:
        raise DataError("no usable search examples after filtering")
    texts = [(it.docstring, it.code) for it in raw_items]
    params, vocab = _load_model(rc, texts)
    examples = prepare_search_examples(texts, vocab, rc.limits(), params.config.max_positions)
    if tune:
        params = finetune_search(
            examples,
            params,
            np.random.default_rng(rc.seed),
            lr=rc.lr,
            batch_size=rc.batch_size,
            epochs=rc.epochs,
        )
    metrics = {"mrr": evaluate_search(params, examples)}
    _write_artifacts(rc, metrics, params if tune else None, vocab if tune else None)
    _print_json(metrics)
    return 0


def _clone_pair(obj) -> CloneExample:
    code_a, code_b = str_fields(obj, ("code_a", "code_b"))
    label = obj["label"]
    if type(label) is not int or label not in (0, 1):
        raise ValueError(f"label must be the integer 0 or 1, not {json.dumps(label)}")
    return CloneExample(code_a=code_a, code_b=code_b, label=label)


def _cmd_clone(rc: RunConfig) -> int:
    _require(rc, "corpus", "out")
    tune = rc.command == "finetune-clone"
    pairs = read_jsonl(rc.corpus, _clone_pair, f"no clone pairs in {rc.corpus}")
    params, vocab = _load_model(rc, [("", p.code_a) for p in pairs] + [("", p.code_b) for p in pairs])
    if tune:
        params = finetune_clone(
            pairs,
            params,
            vocab,
            np.random.default_rng(rc.seed),
            lr=rc.lr,
            batch_size=rc.batch_size,
            epochs=rc.epochs,
            limits=rc.limits(),
        )
    predictions = clone_probabilities([(p.code_a, p.code_b) for p in pairs], params, vocab, rc.limits())
    precision, recall, f1 = clone_metrics(predictions, [p.label for p in pairs])
    metrics = {"precision": precision, "recall": recall, "f1": f1}
    _write_artifacts(rc, metrics, params if tune else None, vocab if tune else None)
    _print_json(metrics)
    return 0


def _cmd_attention_split(rc: RunConfig) -> int:
    _require(rc, "corpus")
    if rc.checkpoint is None and rc.num_layers == 0:
        raise BadFlags("attention-split needs --num-layers of at least 1")
    items = load_corpus(rc.corpus)
    params, vocab = _load_model(rc, [(it.docstring, it.code) for it in items])
    if params.config.num_layers == 0:
        raise DataError(f"{rc.checkpoint} has no encoder layers, so no attention to split")
    encoded = encode_corpus(items, vocab, rc.limits(), params.config.max_positions)
    splits = attention_splits(params, encoded)
    per_lang: dict[str, list[tuple[float, float]]] = {}
    for item, split in zip(items, splits):
        per_lang.setdefault(item.lang, []).append(split)
    groups = sorted(per_lang.items()) + [("overall", [f for fractions in per_lang.values() for f in fractions])]
    report = {
        name: {"code_fraction": float(np.mean([c for c, _ in fs])), "node_fraction": float(np.mean([n for _, n in fs]))}
        for name, fs in groups
    }
    if rc.out:
        _write_artifacts(rc, report)
    _print_json(report)
    return 0


# subcommand -> (help line, its arguments in order: RunConfig field names,
# plus the `file` positional and `--config`, its handler)
_TUNE = (*_INPUTS, "epochs", "lr", "batch_size", *_ENCODER)
_COMMANDS = {
    "extract-dfg": ("print the variable data-flow graph of a source file", ("file", "config"), _cmd_extract_dfg),
    "encode": (
        "print the encoded layout and attention-mask density",
        ("file", "comment", "config", "seed", "vocab_size", "use_dataflow", *_LIMITS, *_MODEL),
        _cmd_encode,
    ),
    "pretrain": (
        "run the alternating pre-training loop",
        ("config", "seed", "corpus", "out", "steps", "lr", "batch_size", "vocab_size",
         "use_dataflow", "edge_pred", "node_align", *_MODEL, *_LIMITS),
        _cmd_pretrain,
    ),
    "finetune-search": ("fine-tune on code search pairs, then report MRR", _TUNE, _cmd_search),
    "eval-search": ("report the code search MRR of a model", _TUNE, _cmd_search),
    "finetune-clone": ("fine-tune on clone pairs, then report precision/recall/F1", _TUNE, _cmd_clone),
    "eval-clone": ("report the clone precision, recall and F1 of a model", _TUNE, _cmd_clone),
    "attention-split": ("report [CLS] attention mass on code vs nodes", (*_INPUTS, *_ENCODER), _cmd_attention_split),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        rc = _merge_config(args)
        with np.errstate(all="ignore"):  # a diverged run reports itself once, through NonFiniteLoss
            return _COMMANDS[rc.command][2](rc)
    except BadFlags as e:
        message, code = f"error: {e}", 1
    except MemoryError as e:  # legal flags can still ask for more memory than the machine has
        message, code = f"error: out of memory: {e}; lower --batch-size", 1
    except (DataError, OSError, UnicodeError) as e:
        message, code = f"data error: {e}", 2
    except NonFiniteLoss as e:
        message, code = f"numerical divergence: {e}", 3
    except KeyboardInterrupt:  # Ctrl-C: one line and the shell's 128 + SIGINT, not a traceback
        message, code = "interrupted", 130
    # one line, even when the message holds a path with a line break in it
    sys.stderr.write(message.replace("\n", "\\n").replace("\r", "\\r") + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
