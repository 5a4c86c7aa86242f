"""End-to-end command-line behavior: exit codes, artifacts, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import codeflow
import codeflow.cli as cli
import codeflow.downstream as downstream
from codeflow.checkpoint import load_checkpoint, save_checkpoint
from codeflow.dfg import extract_dfg, serialize_dfg
from codeflow.cli import MAX_BATCH_SIZE, MAX_PARAMETERS, build_parser, main
from codeflow.downstream import cls_attention_split
from codeflow.encoding import Vocabulary, additive_mask, build_attention_mask, build_vocab
from codeflow.model import ModelConfig, forward, init_params, param_shapes, parameter_count
from codeflow.pretrain import encode_corpus, load_corpus
from helpers import checkpoint_file, clone_corpus, overfit_corpus, search_pairs

SMALL_MODEL = [
    "--num-layers", "1", "--hidden-dim", "16", "--num-heads", "2",
    "--ffn-dim", "32", "--max-positions", "128",
]


def write_corpus(tmp_path, items, name="corpus.jsonl"):
    path = tmp_path / name
    rows = [
        json.dumps({"code": it.code, "docstring": it.docstring, "lang": it.lang})
        for it in items
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def write_search_corpus(tmp_path, n=4):
    path = tmp_path / "search.jsonl"
    rows = [
        json.dumps({"code": code, "docstring": query, "lang": "python"})
        for query, code in search_pairs(n)
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def write_clone_corpus(tmp_path):
    path = tmp_path / "clones.jsonl"
    rows = [
        json.dumps({"code_a": a, "code_b": b, "label": y})
        for a, b, y in clone_corpus()
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    if code:  # every error exit writes one newline-terminated line
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), captured.err
    return code, captured.out, captured.err


# -- inspection commands -------------------------------------------------------


class TestExtractDfg:
    def test_prints_graph(self, tmp_path, capsys):
        f = tmp_path / "snippet.txt"
        f.write_text("v = max_value - min_value\n")
        code, out, _ = run(capsys, "extract-dfg", str(f))
        assert code == 0
        payload = json.loads(out)
        assert [n["name"] for n in payload["nodes"]] == ["v", "max_value", "min_value"]
        assert payload["edges"] == [[1, 0], [2, 0]]

    def test_integer_literal_past_the_digit_limit(self, tmp_path, capsys):
        # the parser keeps a literal's text and converts none, so a number
        # too long for int() is still a literal
        source = "x = " + "9" * 5000 + "\ny = x\n"
        f = tmp_path / "long.txt"
        f.write_text(source)
        code, out, err = run(capsys, "extract-dfg", str(f))
        assert (code, err) == (0, "")
        assert [n["name"] for n in json.loads(out)["nodes"]] == ["x", "y", "x"]

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "extract-dfg", str(tmp_path / "nope.txt"))
        assert code == 2
        assert "data error" in err

    def test_syntax_error_is_data_error(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("def f(:\n")
        code, _, _ = run(capsys, "extract-dfg", str(f))
        assert code == 2

    @pytest.mark.parametrize("command", ["extract-dfg", "encode"])
    def test_lone_carriage_return_stays_in_the_source(self, tmp_path, capsys, command):
        # a "\r" inside a string literal is a character of it; a reader that
        # translated it into a line end would cut the string
        source = 's = "a\rb"\nt = s\n'
        f = tmp_path / "snippet.txt"
        f.write_bytes(source.encode())
        code, out, err = run(capsys, command, str(f))
        assert (code, err) == (0, "")
        if command == "extract-dfg":
            assert out == serialize_dfg(extract_dfg(source)) + "\n"
        else:
            assert json.loads(out)["num_nodes"] == 3


class TestEncode:
    def test_layout_report(self, tmp_path, capsys):
        f = tmp_path / "snippet.txt"
        f.write_text("a = 1\nb = a\n")
        code, out, _ = run(capsys, "encode", str(f), "--comment", "sum of values")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["ids"]) == 17
        assert payload["num_nodes"] == 3
        assert payload["num_edges"] == 2
        assert payload["position_ids"][-1] == 511
        assert 0.0 < payload["mask_density"] < 1.0
        assert payload["segments"][0] == "special"

    def test_no_dataflow(self, tmp_path, capsys):
        f = tmp_path / "snippet.txt"
        f.write_text("a = 1\nb = a\n")
        code, out, _ = run(capsys, "encode", str(f), "--no-dataflow")
        assert code == 0
        payload = json.loads(out)
        assert payload["num_nodes"] == 0
        assert payload["mask_density"] == 1.0

    @pytest.mark.parametrize("max_positions, available", [(2, 1), (1, 0)])
    def test_too_long_reports_the_positions_needed(self, tmp_path, capsys, max_positions, available):
        # [CLS], 12 code tokens and [SEP] take 14 sequential positions
        f = tmp_path / "snippet.txt"
        f.write_text("def f(a):\n    return a\n")
        code, _, err = run(capsys, "encode", str(f), "--max-positions", str(max_positions))
        assert code == 2
        assert err == f"data error: sequence needs 14 sequential positions, only {available} available\n"


# -- the parser ------------------------------------------------------------------

# Every subcommand's actions as (option strings, dest, type, action class,
# default, help), taken from the hand-written parser the table-driven one
# replaced; "S" stands for argparse.SUPPRESS.
S = argparse.SUPPRESS


def _flag(option, dest, type_=None, action="_StoreAction"):
    return ((option,), dest, type_, action, S, None)


_HELP = (("-h", "--help"), "help", None, "_HelpAction", S, "show this help message and exit")
_FILE = ((), "file", None, "_StoreAction", None, None)
_CONFIG = (("--config",), "config", None, "_StoreAction", S, "JSON file with RunConfig defaults")
_NO_DATAFLOW = _flag("--no-dataflow", "use_dataflow", action="_StoreFalseAction")
_MODEL = [
    _flag("--num-layers", "num_layers", int),
    _flag("--hidden-dim", "hidden_dim", int),
    _flag("--num-heads", "num_heads", int),
    _flag("--ffn-dim", "ffn_dim", int),
    _flag("--max-positions", "max_positions", int),
]
_LIMITS = [
    _flag("--max-comment", "max_comment", int), _flag("--max-code", "max_code", int), _flag("--max-nodes", "max_nodes", int),
]
_EVAL = [
    _HELP, _CONFIG, _flag("--seed", "seed", int), _flag("--corpus", "corpus"),
    _flag("--checkpoint", "checkpoint"), _flag("--vocab", "vocab"), _flag("--out", "out"),
]
_TUNE = [
    *_EVAL, _flag("--epochs", "epochs", int), _flag("--lr", "lr", float), _flag("--batch-size", "batch_size", int),
    _flag("--vocab-size", "vocab_size", int), _NO_DATAFLOW, *_MODEL, *_LIMITS,
]
PARSER_TABLE = {
    "extract-dfg": [_HELP, _FILE, _CONFIG],
    "encode": [
        _HELP, _FILE, _flag("--comment", "comment"), _CONFIG, _flag("--seed", "seed", int),
        _flag("--vocab-size", "vocab_size", int), _NO_DATAFLOW, *_LIMITS, *_MODEL,
    ],
    "pretrain": [
        _HELP, _CONFIG, _flag("--seed", "seed", int), _flag("--corpus", "corpus"), _flag("--out", "out"),
        _flag("--steps", "steps", int), _flag("--lr", "lr", float), _flag("--batch-size", "batch_size", int),
        _flag("--vocab-size", "vocab_size", int), _NO_DATAFLOW,
        _flag("--no-edgepred", "edge_pred", action="_StoreFalseAction"),
        _flag("--no-nodealign", "node_align", action="_StoreFalseAction"), *_MODEL, *_LIMITS,
    ],
    "finetune-search": _TUNE,
    "eval-search": _TUNE,
    "finetune-clone": _TUNE,
    "eval-clone": _TUNE,
    "attention-split": [*_EVAL, _flag("--vocab-size", "vocab_size", int), _NO_DATAFLOW, *_MODEL, *_LIMITS],
}
SUBCOMMAND_HELP = [
    ("extract-dfg", "print the variable data-flow graph of a source file"),
    ("encode", "print the encoded layout and attention-mask density"),
    ("pretrain", "run the alternating pre-training loop"),
    ("finetune-search", "fine-tune on code search pairs, then report MRR"),
    ("eval-search", "report the code search MRR of a model"),
    ("finetune-clone", "fine-tune on clone pairs, then report precision/recall/F1"),
    ("eval-clone", "report the clone precision, recall and F1 of a model"),
    ("attention-split", "report [CLS] attention mass on code vs nodes"),
]


class TestParser:
    def test_flags_match_the_pinned_table(self):
        (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: [(tuple(a.option_strings), a.dest, a.type, type(a).__name__, a.default, a.help) for a in p._actions]
            for name, p in subs.choices.items()
        }
        assert list(got) == list(PARSER_TABLE)
        for name, rows in PARSER_TABLE.items():
            assert got[name] == rows, name
        assert [(a.dest, a.help) for a in subs._choices_actions] == SUBCOMMAND_HELP

    def test_help_lists_every_subcommand_with_its_line(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        listing = " ".join(capsys.readouterr().out.split())  # argparse wraps long lines
        assert [name for name, _ in SUBCOMMAND_HELP] == list(PARSER_TABLE)
        for name, line in SUBCOMMAND_HELP:
            assert f" {name} {line} " in listing, name


# -- flag handling ---------------------------------------------------------------


class TestBadFlags:
    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_unknown_flag(self, tmp_path, capsys):
        f = tmp_path / "s.txt"
        f.write_text("a = 1\n")
        assert run(capsys, "extract-dfg", str(f), "--bogus")[0] == 1

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "pretrain", "--steps", "1")
        assert code == 1
        assert "--corpus" in err or "--out" in err

    def test_invalid_model_dimensions(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, overfit_corpus(4))
        code, _, _ = run(
            capsys, "pretrain", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
            "--hidden-dim", "15", "--num-heads", "4",
        )
        assert code == 1

    def test_config_with_unknown_keys(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus_key": 1}')
        f = tmp_path / "s.txt"
        f.write_text("a = 1\n")
        assert run(capsys, "extract-dfg", str(f), "--config", str(cfg))[0] == 1

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(None, id="missing"),
            pytest.param(b"{", id="not-json"),
            pytest.param(b'{"seed": "\xff"}', id="not-utf8"),
            pytest.param(b'{"seed": ' + b"9" * 5000 + b"}", id="past-the-digit-limit"),
        ],
    )
    def test_unreadable_config(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_bytes(content)
        f = tmp_path / "s.txt"
        f.write_text("a = 1\n")
        code, stdout, err = run(capsys, "extract-dfg", str(f), "--config", str(cfg))
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: cannot read --config {cfg}: ")

    @pytest.mark.parametrize(
        "command,flag,want",
        [("pretrain", "--config", 1), ("pretrain", "--corpus", 2), ("eval-clone", "--corpus", 2)],
    )
    def test_deeply_nested_json_is_one_line(self, tmp_path, capsys, command, flag, want):
        # Past the interpreter's recursion limit the JSON decoder raises RecursionError, not a ValueError.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        corpus = write_corpus(tmp_path, overfit_corpus(4)) if command == "pretrain" else write_clone_corpus(tmp_path)
        args = {"--corpus": corpus, "--config": None, flag: deep}
        argv = [f"{k}={v}" for k, v in args.items() if v is not None]
        code, stdout, err = run(capsys, command, *argv, "--out", str(tmp_path / "o"), *SMALL_MODEL)
        assert (code, stdout) == (want, "")
        assert err.startswith(f"error: cannot read --config {deep}: " if want == 1 else "data error: line 1: ")
        assert "recursion" in err

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        f = tmp_path / "s.txt"
        f.write_text("a = 1\n")
        assert run(capsys, "extract-dfg", str(f), "--config", str(cfg))[0] == 1

    @pytest.mark.parametrize(
        "overrides,key",
        [
            ({"lr": "fast"}, "lr"),
            ({"seed": "7"}, "seed"),
            ({"batch_size": True}, "batch_size"),
            ({"max_code": 3.5}, "max_code"),
            ({"use_dataflow": "no"}, "use_dataflow"),
            ({"checkpoint": "model\x00.gcb"}, "checkpoint"),
        ],
    )
    def test_config_value_of_wrong_type(self, tmp_path, capsys, overrides, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        corpus = write_corpus(tmp_path, overfit_corpus(4))
        out = tmp_path / "run"
        code, _, err = run(
            capsys, "pretrain", "--config", str(cfg), "--corpus", str(corpus),
            "--out", str(out), "--steps", "1", *SMALL_MODEL,
        )
        assert code == 1
        assert err.count("\n") == 1 and f"config key {key} " in err
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize(
        "key,value,message",
        [
            pytest.param("seed", -1, "seed must be >= 0", id="negative-seed"),
            pytest.param("vocab_size", 4, "vocab size must be at least 5", id="vocab-below-reserved"),
            pytest.param("lr", -1.0, "learning rate must be finite and positive", id="negative-lr"),
            pytest.param("lr", 0.0, "learning rate must be finite and positive", id="zero-lr"),
            pytest.param("lr", float("nan"), "learning rate must be finite and positive", id="nan-lr"),
            pytest.param("lr", float("inf"), "learning rate must be finite and positive", id="inf-lr"),
            pytest.param("batch_size", 10**20, "batch size must be at most", id="huge-batch"),
            pytest.param("batch_size", MAX_BATCH_SIZE + 1, "batch size must be at most", id="batch-above-bound"),
        ],
    )
    def test_config_value_out_of_range(self, tmp_path, capsys, via, key, value, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value} if via == "config" else {}))  # json writes NaN as NaN
        flags = [f"--{key.replace('_', '-')}", str(value)] if via == "flag" else []
        corpus = write_corpus(tmp_path, overfit_corpus(4))
        out = tmp_path / "run"
        code, _, err = run(
            capsys, "pretrain", "--config", str(cfg), "--corpus", str(corpus),
            "--out", str(out), "--steps", "1", *SMALL_MODEL, *flags,
        )
        assert code == 1
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_batch_size_at_the_bound_is_accepted(self, tmp_path, capsys):
        corpus = write_search_corpus(tmp_path)
        code, _, err = run(
            capsys, "eval-search", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
            "--batch-size", str(MAX_BATCH_SIZE), *SMALL_MODEL,
        )
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "flags, vocab, hidden",
        [(["--vocab-size", "100000000"], 100_000_000, 64), (["--hidden-dim", "100000", "--num-heads", "1"], 512, 100_000)],
        ids=["vocab", "hidden"],
    )
    def test_model_above_the_parameter_bound(self, tmp_path, capsys, flags, vocab, hidden):
        # embeddings V*d + P*d, MLM head d*V + V, two layers of 4d^2 + 2df + f + 5d (P = 512, f = 256)
        count = 2 * vocab * hidden + 512 * hidden + vocab + 2 * (4 * hidden**2 + 2 * hidden * 256 + 256 + 5 * hidden)
        corpus = write_search_corpus(tmp_path)
        out = tmp_path / "o"
        code, stdout, err = run(capsys, "eval-search", "--corpus", str(corpus), "--out", str(out), *flags)
        assert (code, stdout) == (1, "")
        assert err == f"error: the model would have {count:,} parameters, more than {MAX_PARAMETERS:,}\n"
        assert not out.exists()

    def test_parameter_count_matches_the_shapes(self):
        for cfg in (
            ModelConfig(),
            ModelConfig(num_layers=0),
            ModelConfig(num_layers=3, hidden_dim=48, num_heads=6, ffn_dim=100, vocab_size=77, max_positions=9),
        ):
            assert parameter_count(cfg) == sum(int(np.prod(shape)) for shape in param_shapes(cfg).values())

    def test_finetune_search_rejects_a_batch_of_one(self, tmp_path, capsys):
        corpus = write_search_corpus(tmp_path)
        out = tmp_path / "tuned"
        code, stdout, err = run(
            capsys, "finetune-search", "--corpus", str(corpus), "--out", str(out), "--batch-size", "1", *SMALL_MODEL,
        )
        assert (code, stdout) == (1, "")
        assert err == "error: finetune-search needs a batch size of at least 2 for in-batch contrast, not 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["finetune-search", "eval-search", "finetune-clone", "eval-clone", "attention-split"])
    def test_vocab_needs_a_checkpoint(self, tmp_path, capsys, command):
        # rejected before any file is read: neither the corpus nor the vocabulary exists
        out = tmp_path / "o"
        code, stdout, err = run(
            capsys, command, "--corpus", str(tmp_path / "pairs.jsonl"), "--vocab", str(tmp_path / "missing.txt"),
            "--out", str(out),
        )
        assert (code, stdout, err) == (1, "", "error: --vocab needs --checkpoint\n")
        assert not out.exists()

    def test_config_merge_priority(self, tmp_path, capsys):
        # dataclass defaults < --config JSON < explicit flags
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "steps": 3, "lr": 0.002, "num_layers": 1, "hidden_dim": 16,
            "num_heads": 2, "ffn_dim": 32, "max_positions": 128,
        }))
        corpus = write_corpus(tmp_path, overfit_corpus(4))
        out = tmp_path / "run"
        code, _, _ = run(
            capsys, "pretrain", "--config", str(cfg), "--corpus", str(corpus),
            "--out", str(out), "--steps", "2", "--batch-size", "2",
        )
        assert code == 0
        saved = json.loads((out / "run_config.json").read_text())
        assert saved["steps"] == 2  # flag beat the config file
        assert saved["lr"] == 0.002  # config file beat the default
        assert saved["hidden_dim"] == 16
        assert saved["batch_size"] == 2


# -- pretraining -------------------------------------------------------------------


class TestPretrainCommand:
    def test_artifacts(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, overfit_corpus(8))
        out = tmp_path / "run"
        code, stdout, _ = run(
            capsys, "pretrain", "--corpus", str(corpus), "--out", str(out),
            "--steps", "4", "--batch-size", "2", *SMALL_MODEL,
        )
        assert code == 0
        for name in ("model.gcb", "vocab.txt", "losses.csv", "metrics.json", "run_config.json"):
            assert (out / name).exists()
        metrics = json.loads(stdout)
        assert metrics == json.loads((out / "metrics.json").read_text())
        assert metrics["steps"] == 4
        assert np.isfinite(metrics["initial_mlm_loss"])
        assert np.isfinite(metrics["final_mlm_loss"])
        lines = (out / "losses.csv").read_text().strip().splitlines()
        assert lines[0] == "step,objective,loss"
        assert len(lines) == 1 + 8  # mlm + structure rows for 4 steps

    def test_raw_line_separators_inside_strings(self, tmp_path, capsys, monkeypatch):
        # U+2028, U+2029 and U+0085 are legal unescaped in a JSON string, and
        # `ensure_ascii=False` writes them so; a row ends at "\n" (after an
        # optional "\r") only
        odd = "\u2028\u2029\x85"
        rows = [
            {"code": f's = "x{odd}y"\nt = s\n', "docstring": f"keep{odd}these values", "lang": "python"},
            {"code": "a = 1\nb = a\n", "docstring": f"copy{odd}", "lang": "python"},
        ]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\r\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n", encoding="utf-8")
        assert odd in corpus.read_text(encoding="utf-8")
        seen = []
        monkeypatch.setattr(cli, "load_corpus", lambda path: seen.extend(load_corpus(path)) or seen)
        out = tmp_path / "run"
        code, _, err = run(
            capsys, "pretrain", "--corpus", str(corpus), "--out", str(out), "--steps", "2", "--batch-size", "2",
            *SMALL_MODEL,
        )
        assert code == 0, err
        assert [(it.code, it.docstring, it.lang) for it in seen] == [(r["code"], r["docstring"], r["lang"]) for r in rows]
        vocab = Vocabulary.deserialize((out / "vocab.txt").read_text(encoding="utf-8"))
        assert f'"x{odd}y"' in vocab.token_to_id

    def test_zero_steps_checkpoint_equals_fresh_init(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, overfit_corpus(4))
        out = tmp_path / "run"
        code, _, _ = run(
            capsys, "pretrain", "--corpus", str(corpus), "--out", str(out),
            "--steps", "0", "--seed", "5", *SMALL_MODEL,
        )
        assert code == 0
        loaded = load_checkpoint(out / "model.gcb")
        fresh = init_params(ModelConfig(
            num_layers=1, hidden_dim=16, num_heads=2, ffn_dim=32,
            vocab_size=512, max_positions=128, seed=5,
        ))
        assert loaded.config == fresh.config
        for k in fresh.tensors:
            assert np.array_equal(loaded.tensors[k].data, fresh.tensors[k].data)

    def test_deterministic_across_runs(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, overfit_corpus(8))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, stdout, _ = run(
                capsys, "pretrain", "--corpus", str(corpus), "--out", str(out),
                "--steps", "3", "--batch-size", "2", "--seed", "1", *SMALL_MODEL,
            )
            assert code == 0
            outs.append((out, stdout))
        (out_a, stdout_a), (out_b, stdout_b) = outs
        assert stdout_a == stdout_b
        for name in ("model.gcb", "vocab.txt", "losses.csv", "metrics.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_diverged_loss_exit_code(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, overfit_corpus(4))
        with np.errstate(all="ignore"):
            code, _, err = run(
                capsys, "pretrain", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
                "--steps", "50", "--batch-size", "2", "--lr", "1e9", *SMALL_MODEL,
            )
        assert code == 3
        assert "divergence" in err

    @pytest.mark.parametrize("command", ["finetune-search", "finetune-clone"])
    def test_fine_tuning_divergence_names_epoch_and_step(self, tmp_path, capsys, command):
        corpus = write_search_corpus(tmp_path) if command == "finetune-search" else write_clone_corpus(tmp_path)
        # clone training reaches nan near epoch 19 of the default 20, at a
        # point that moves with the BLAS thread count
        code, stdout, err = run(
            capsys, command, "--corpus", str(corpus), "--out", str(tmp_path / "o"), "--lr", "1e4", "--epochs", "100"
        )
        assert (code, stdout) == (3, "")
        assert re.fullmatch(r"numerical divergence: epoch \d+, step \d+: loss is nan\n", err), err

    @pytest.mark.parametrize("command", ["pretrain", "finetune-search", "finetune-clone"])
    def test_overflow_in_the_last_update_exits_3(self, tmp_path, capsys, command):
        # One step at an absurd rate: its loss is finite, and the update
        # that follows leaves infinite weights, which no later loss sees
        if command == "pretrain":
            corpus, length, where = write_corpus(tmp_path, overfit_corpus(4)), ["--steps", "1"], "step 0"
        elif command == "finetune-search":
            corpus, length, where = write_search_corpus(tmp_path, n=3), ["--epochs", "1"], "epoch 0, step 0"
        else:
            corpus = tmp_path / "clones.jsonl"
            a, b, y = clone_corpus()[0]
            corpus.write_text(json.dumps({"code_a": a, "code_b": b, "label": y}) + "\n", encoding="utf-8")
            length, where = ["--epochs", "1"], "epoch 0, step 0"
        out = tmp_path / "o"
        code, stdout, err = run(
            capsys, command, "--corpus", str(corpus), "--out", str(out), *length, "--batch-size", "4",
            "--lr", "1e300", *SMALL_MODEL,
        )
        assert (code, stdout) == (3, "")
        assert err == f"numerical divergence: {where}: a weight is not finite after the update\n"
        assert not out.exists()

    def test_interrupt_writes_one_line(self, tmp_path, capsys, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "pretrain_run", interrupted)
        corpus = write_corpus(tmp_path, overfit_corpus(4))
        code, stdout, err = run(capsys, "pretrain", "--corpus", str(corpus), "--out", str(tmp_path / "o"), *SMALL_MODEL)
        assert (code, stdout, err) == (130, "", "interrupted\n")

    @pytest.mark.parametrize("command", ["pretrain", "finetune-search"])
    def test_out_of_memory_writes_one_line(self, tmp_path, capsys, monkeypatch, command):
        # a legal --batch-size can still ask for more memory than the machine has
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.64 GiB for an array with shape (1024, 4, 328, 328)")

        monkeypatch.setattr(downstream, "forward", exhausted)  # every batched forward goes through it
        if command == "pretrain":
            corpus, length = write_corpus(tmp_path, overfit_corpus(4)), ["--steps", "1"]
        else:
            corpus, length = write_search_corpus(tmp_path), ["--epochs", "1"]
        code, stdout, err = run(
            capsys, command, "--corpus", str(corpus), "--out", str(tmp_path / "o"), *length, "--batch-size", "2", *SMALL_MODEL
        )
        assert (code, stdout) == (1, "")
        assert err == "error: out of memory: Unable to allocate 1.64 GiB for an array with shape (1024, 4, 328, 328); lower --batch-size\n"
        assert "Traceback" not in err

    def test_divergence_writes_one_line_from_a_fresh_process(self, tmp_path):
        # numpy's overflow warnings would print to stderr ahead of the report;
        # pytest captures warnings in-process, so only a subprocess sees them
        corpus = write_corpus(tmp_path, overfit_corpus(48))
        env = {**os.environ, "PYTHONPATH": str(Path(codeflow.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "codeflow.cli", "pretrain", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
             "--steps", "3", "--lr", "1e30", *SMALL_MODEL],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 3
        assert done.stderr.startswith("numerical divergence: ") and done.stderr.count("\n") == 1, done.stderr

    @pytest.mark.parametrize("with_normal_row", [False, True])
    def test_row_with_nothing_to_mask_is_rejected_before_training(self, tmp_path, capsys, with_normal_row):
        # Whether a step drew such a row used to depend on the seed; now no seed trains.
        rows = [{"code": "", "docstring": "", "lang": "x"}]
        if with_normal_row:
            rows.append({"code": "a = 1\nb = a\n", "docstring": "copy a value", "lang": "x"})
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows))
        for seed in range(4):
            out = tmp_path / f"run{seed}"
            code, stdout, err = run(
                capsys, "pretrain", "--corpus", str(corpus), "--out", str(out),
                "--batch-size", "1", "--steps", "3", "--seed", str(seed), *SMALL_MODEL,
            )
            assert (code, stdout) == (2, "")
            assert err == "data error: corpus item 0 has no comment or code tokens to mask\n"
            assert not out.exists()

    def test_bad_corpus_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"code": "a = 1\\n"}\n')  # missing fields
        code, _, _ = run(
            capsys, "pretrain", "--corpus", str(bad), "--out", str(tmp_path / "o"),
            "--steps", "1", *SMALL_MODEL,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "rows",
        [
            [{"code": 5, "docstring": "adds two numbers together", "lang": "python"}],
            [
                {"code": "a = 1\n", "docstring": "sets a value here", "lang": "python"},
                {"code": "b = 2\n", "docstring": "sets another value here", "lang": None},
            ],
        ],
        ids=["int-code", "null-lang"],
    )
    def test_non_string_field_is_data_error(self, tmp_path, capsys, rows):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code, _, err = run(
            capsys, "pretrain", "--corpus", str(bad), "--out", str(tmp_path / "o"),
            "--steps", "1", *SMALL_MODEL,
        )
        assert code == 2
        assert err.startswith("data error: line ") and err.count("\n") == 1
        assert "must be a string" in err and "Traceback" not in err

    @pytest.mark.parametrize("field", ["code", "docstring", "lang"])
    def test_lone_surrogate_is_rejected_before_training(self, tmp_path, capsys, field):
        row = {"code": "a = 1\nb = a\n", "docstring": "sets a value here", "lang": "python"}
        row[field] += "\ud800"  # valid JSON, but not encodable as UTF-8
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(row) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        code, _, err = run(
            capsys, "pretrain", "--corpus", str(bad), "--out", str(out), "--steps", "1", *SMALL_MODEL,
        )
        assert code == 2
        assert err.startswith("data error: line 1: ") and err.count("\n") == 1
        assert "surrogates not allowed" in err and "Traceback" not in err
        assert not (out / "model.gcb").exists() and not (out / "vocab.txt").exists()


# -- retrieval and clones -------------------------------------------------------------


class TestSearchCommands:
    def test_eval_search_fresh_model(self, tmp_path, capsys):
        corpus = write_search_corpus(tmp_path)
        out = tmp_path / "eval"
        code, stdout, _ = run(
            capsys, "eval-search", "--corpus", str(corpus), "--out", str(out), *SMALL_MODEL,
        )
        assert code == 0
        metrics = json.loads(stdout)
        assert 0.0 < metrics["mrr"] <= 1.0
        assert json.loads((out / "metrics.json").read_text()) == metrics
        assert not (out / "model.gcb").exists()  # eval never writes weights

    def test_carriage_return_between_json_tokens(self, tmp_path, capsys):
        # "\r" is JSON whitespace, so a row may hold one between its tokens;
        # a reader that translated it into a line end would split the row
        plain = write_search_corpus(tmp_path)
        rows = plain.read_text(encoding="utf-8").splitlines()
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_bytes("".join(r.replace(', "docstring"', ',\r"docstring"') + "\n" for r in rows).encode())
        assert spaced.read_bytes().count(b"\r") == len(rows)
        outputs = []
        for corpus in (plain, spaced):
            code, stdout, err = run(
                capsys, "eval-search", "--corpus", str(corpus), "--out", str(tmp_path / corpus.stem), *SMALL_MODEL,
            )
            assert (code, err) == (0, "")
            outputs.append(stdout)
        assert outputs[0] == outputs[1]

    def test_eval_search_deterministic(self, tmp_path, capsys):
        corpus = write_search_corpus(tmp_path)
        results = []
        for name in ("a", "b"):
            code, stdout, _ = run(
                capsys, "eval-search", "--corpus", str(corpus),
                "--out", str(tmp_path / name), *SMALL_MODEL,
            )
            assert code == 0
            results.append(stdout)
        assert results[0] == results[1]
        assert (tmp_path / "a" / "metrics.json").read_bytes() == (tmp_path / "b" / "metrics.json").read_bytes()

    def test_finetune_search_writes_model(self, tmp_path, capsys):
        corpus = write_search_corpus(tmp_path)
        out = tmp_path / "tuned"
        code, stdout, _ = run(
            capsys, "finetune-search", "--corpus", str(corpus), "--out", str(out),
            "--epochs", "2", "--batch-size", "4", *SMALL_MODEL,
        )
        assert code == 0
        assert (out / "model.gcb").exists()
        assert (out / "vocab.txt").exists()
        assert "mrr" in json.loads(stdout)

    def test_eval_search_with_checkpoint(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, overfit_corpus(8))
        trained = tmp_path / "trained"
        assert run(
            capsys, "pretrain", "--corpus", str(corpus), "--out", str(trained),
            "--steps", "2", "--batch-size", "2", *SMALL_MODEL,
        )[0] == 0
        search = write_search_corpus(tmp_path)
        code, stdout, _ = run(
            capsys, "eval-search", "--corpus", str(search),
            "--checkpoint", str(trained / "model.gcb"),
            "--out", str(tmp_path / "eval"), *SMALL_MODEL,
        )
        assert code == 0
        assert 0.0 < json.loads(stdout)["mrr"] <= 1.0

    def test_missing_checkpoint_is_data_error(self, tmp_path, capsys):
        corpus = write_search_corpus(tmp_path)
        code, _, _ = run(
            capsys, "eval-search", "--corpus", str(corpus),
            "--checkpoint", str(tmp_path / "missing.gcb"),
            "--out", str(tmp_path / "o"), *SMALL_MODEL,
        )
        assert code == 2

    def test_unusable_corpus_is_data_error(self, tmp_path, capsys):
        # queries shorter than three words are filtered away, leaving nothing
        bad = tmp_path / "thin.jsonl"
        bad.write_text(json.dumps({"code": "a = 1\n", "docstring": "hi", "lang": "python"}) + "\n")
        code, _, _ = run(
            capsys, "eval-search", "--corpus", str(bad), "--out", str(tmp_path / "o"), *SMALL_MODEL,
        )
        assert code == 2


class TestCloneCommands:
    def test_eval_clone_fresh_model(self, tmp_path, capsys):
        corpus = write_clone_corpus(tmp_path)
        code, stdout, _ = run(
            capsys, "eval-clone", "--corpus", str(corpus), "--out", str(tmp_path / "o"), *SMALL_MODEL,
        )
        assert code == 0
        metrics = json.loads(stdout)
        assert set(metrics) == {"precision", "recall", "f1"}

    def test_raw_line_separators_inside_strings(self, tmp_path, capsys, monkeypatch):
        odd = "\u2028\u2029\x85"
        pairs = [(f'a = "{odd}"\n', f'b = "{odd}"\n', 1), ("a = 1\n", f'b = "x{odd}"\n', 0)]
        corpus = tmp_path / "clones.jsonl"
        rows = [json.dumps({"code_a": a, "code_b": b, "label": y}, ensure_ascii=False) for a, b, y in pairs]
        corpus.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert odd in corpus.read_text(encoding="utf-8")
        seen, score = [], cli.clone_probabilities
        monkeypatch.setattr(cli, "clone_probabilities", lambda snippets, *a: seen.extend(snippets) or score(snippets, *a))
        code, stdout, err = run(capsys, "eval-clone", "--corpus", str(corpus), "--out", str(tmp_path / "o"), *SMALL_MODEL)
        assert code == 0, err
        assert set(json.loads(stdout)) == {"precision", "recall", "f1"}
        assert seen == [(a, b) for a, b, _ in pairs]

    def test_non_string_snippet_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "clones.jsonl"
        bad.write_text(json.dumps({"code_a": 5, "code_b": "a = 1\n", "label": 1}) + "\n")
        code, _, err = run(
            capsys, "eval-clone", "--corpus", str(bad), "--out", str(tmp_path / "o"), *SMALL_MODEL,
        )
        assert code == 2
        assert err.startswith("data error: line 1: ") and err.count("\n") == 1
        assert "'code_a' must be a string" in err and "Traceback" not in err

    def test_lone_surrogate_snippet_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "clones.jsonl"
        bad.write_text(json.dumps({"code_a": "a = 1\n", "code_b": "b = '\udfff'\n", "label": 1}) + "\n")
        out = tmp_path / "o"
        code, _, err = run(capsys, "finetune-clone", "--corpus", str(bad), "--out", str(out), *SMALL_MODEL)
        assert code == 2
        assert err.startswith("data error: line 1: ") and err.count("\n") == 1
        assert "surrogates not allowed" in err and not out.exists()

    @pytest.mark.parametrize("label", ["2", "-1", "0.7", "1.0", "true", '"1"', "null"])
    def test_label_other_than_zero_or_one_is_data_error(self, tmp_path, capsys, label):
        bad = tmp_path / "clones.jsonl"
        good = json.dumps({"code_a": "a = 1\n", "code_b": "b = 2\n", "label": 1})
        bad.write_text(good + "\n" + good.replace('"label": 1', f'"label": {label}') + "\n")
        for command in ("eval-clone", "finetune-clone"):
            out = tmp_path / command
            code, _, err = run(capsys, command, "--corpus", str(bad), "--out", str(out), *SMALL_MODEL)
            assert code == 2
            assert err == f"data error: line 2: label must be the integer 0 or 1, not {label}\n"
            assert not out.exists()

    @pytest.mark.parametrize("command", ["eval-clone", "finetune-clone"])
    def test_unparseable_snippet_without_dataflow_is_data_error(self, tmp_path, capsys, command):
        # Encoded code is always parsed, so the ablation rejects it as the default does.
        corpus = write_clone_corpus(tmp_path)
        with corpus.open("a", encoding="utf-8") as f:
            f.write(json.dumps({"code_a": "a = 1\n", "code_b": "def (:\n", "label": 0}) + "\n")
        out = tmp_path / "o"
        code, _, err = run(
            capsys, command, "--corpus", str(corpus), "--out", str(out), "--no-dataflow",
            "--epochs", "1", *SMALL_MODEL,
        )
        assert code == 2
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_finetune_clone(self, tmp_path, capsys):
        corpus = write_clone_corpus(tmp_path)
        out = tmp_path / "tuned"
        code, stdout, _ = run(
            capsys, "finetune-clone", "--corpus", str(corpus), "--out", str(out),
            "--epochs", "2", "--batch-size", "4", *SMALL_MODEL,
        )
        assert code == 0
        assert (out / "model.gcb").exists()
        assert set(json.loads(stdout)) == {"precision", "recall", "f1"}


class TestAttentionSplit:
    def test_report_shape(self, tmp_path, capsys, monkeypatch):
        # the grouped forwards, with a length group split, give the report of per-example forwards
        shapes = []

        def spy(params, ids, positions, masks, **kwargs):
            shapes.extend(np.shape(m)[:2] for m in masks)  # each block's (B, L)
            return forward(params, ids, positions, masks, **kwargs)

        monkeypatch.setattr(downstream, "forward", spy)
        monkeypatch.setattr(downstream, "MAX_FORWARD_POSITIONS", 100)  # two 41-position examples per forward
        items = overfit_corpus(6)
        corpus = write_corpus(tmp_path, items)
        code, stdout, _ = run(
            capsys, "attention-split", "--corpus", str(corpus), *SMALL_MODEL,
        )
        assert code == 0
        report = json.loads(stdout)
        assert set(report) == {"python", "java", "overall"}
        overall = report["overall"]
        assert overall["code_fraction"] + overall["node_fraction"] == pytest.approx(1.0, abs=1e-6)
        assert max(b for b, _ in shapes) == 2 and len(shapes) > len({n for _, n in shapes})  # a group was split

        params = init_params(ModelConfig(num_layers=1, hidden_dim=16, num_heads=2, ffn_dim=32, max_positions=128))
        vocab = build_vocab([(it.docstring, it.code) for it in items], 512)
        per_lang = {}
        for item, ex in zip(items, encode_corpus(items, vocab, max_positions=128)):
            acts = forward(params, ex.ids, ex.position_ids, additive_mask(build_attention_mask(ex)))
            per_lang.setdefault(item.lang, []).append(cls_attention_split(acts, ex))
        per_lang["overall"] = [f for fractions in per_lang.values() for f in fractions]
        assert report == {
            lang: {"code_fraction": float(np.mean([c for c, _ in fs])), "node_fraction": float(np.mean([n for _, n in fs]))}
            for lang, fs in per_lang.items()
        }

    def test_out_writes_metrics(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, overfit_corpus(4))
        out = tmp_path / "split"
        code, stdout, _ = run(
            capsys, "attention-split", "--corpus", str(corpus), "--out", str(out), *SMALL_MODEL,
        )
        assert code == 0
        assert json.loads((out / "metrics.json").read_text()) == json.loads(stdout)

    def test_no_dataflow_split_is_all_code(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, overfit_corpus(4))
        code, stdout, _ = run(
            capsys, "attention-split", "--corpus", str(corpus), "--no-dataflow", *SMALL_MODEL,
        )
        assert code == 0
        assert json.loads(stdout)["overall"] == {"code_fraction": 1.0, "node_fraction": 0.0}


    def test_zero_layer_model_is_rejected(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, overfit_corpus(4))
        code, stdout, err = run(capsys, "attention-split", "--corpus", str(corpus), *SMALL_MODEL, "--num-layers", "0")
        assert (code, stdout) == (1, "")
        assert err == "error: attention-split needs --num-layers of at least 1\n"

        out = tmp_path / "run"
        code, _, _ = run(
            capsys, "pretrain", "--corpus", str(corpus), "--out", str(out), "--steps", "0",
            *SMALL_MODEL, "--num-layers", "0",
        )
        assert code == 0
        checkpoint = out / "model.gcb"
        code, stdout, err = run(capsys, "attention-split", "--corpus", str(corpus), "--checkpoint", str(checkpoint))
        assert (code, stdout) == (2, "")
        assert err == f"data error: {checkpoint} has no encoder layers, so no attention to split\n"

class TestNonFiniteStates:
    @pytest.mark.parametrize("command", ["eval-search", "eval-clone", "attention-split"])
    def test_overflowing_encoder_exits_3(self, tmp_path, capsys, command):
        # Finite weights that load, but whose embeddings overflow the first
        # layer: a NaN score would rank every gold first and print an MRR of 1
        if command == "eval-search":
            corpus = write_search_corpus(tmp_path)
        elif command == "eval-clone":
            corpus = write_clone_corpus(tmp_path)
        else:
            corpus = write_corpus(tmp_path, overfit_corpus(4))
        texts = [(q, c) for q, c in search_pairs(4)] + [("", code) for a, b, _ in clone_corpus() for code in (a, b)]
        texts += [(it.docstring, it.code) for it in overfit_corpus(4)]
        params = init_params(ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, ffn_dim=16, max_positions=128))
        params.tensors["tok_emb"].data *= 1e37
        save_checkpoint(tmp_path / "model.gcb", params)
        (tmp_path / "vocab.txt").write_text(build_vocab(texts, 512).serialize(), encoding="utf-8")
        out = tmp_path / "o"
        code, stdout, err = run(
            capsys, command, "--corpus", str(corpus), "--checkpoint", str(tmp_path / "model.gcb"), "--out", str(out)
        )
        assert (code, stdout) == (3, "")
        assert err == "numerical divergence: the encoder's final states are not finite\n"
        assert not out.exists()


class TestPinnedInference:
    """The inference commands' outputs on a fixed corpus and seed, as
    `float.hex`, so a faster inference path must reproduce them bit for bit.
    Forward matmuls give the same bits at one and two BLAS threads."""

    MODEL = [*SMALL_MODEL, "--num-layers", "2", "--seed", "5"]
    SEARCH_MRR = "0x1.1393583d45c4dp-2"
    SEARCH_MRR_NO_DATAFLOW = "0x1.1e1a8c536fe1bp-2"
    CLONE = {"precision": "0x1.0000000000000p-1", "recall": "0x1.0000000000000p+0", "f1": "0x1.5555555555555p-1"}
    SPLIT = {
        "java": {"code_fraction": "0x1.8790d0687734ep-1", "node_fraction": "0x1.e1bcbe5e232c9p-3"},
        "python": {"code_fraction": "0x1.92f336735d0f7p-1", "node_fraction": "0x1.b43326328bc25p-3"},
        "overall": {"code_fraction": "0x1.901a9cf0a398cp-1", "node_fraction": "0x1.bf958c3d719cfp-3"},
    }

    @staticmethod
    def hexed(report):
        return {k: TestPinnedInference.hexed(v) if isinstance(v, dict) else float.hex(v) for k, v in report.items()}

    def test_outputs_are_pinned(self, tmp_path, capsys):
        search = write_search_corpus(tmp_path, n=12)
        clones = write_clone_corpus(tmp_path)
        items = write_corpus(tmp_path, overfit_corpus(8))
        outputs = []
        for argv in (
            ["eval-search", "--corpus", str(search), "--out", str(tmp_path / "s")],
            ["eval-search", "--corpus", str(search), "--out", str(tmp_path / "n"), "--no-dataflow"],
            ["eval-clone", "--corpus", str(clones), "--out", str(tmp_path / "c")],
            ["attention-split", "--corpus", str(items)],
        ):
            code, stdout, err = run(capsys, *argv, *self.MODEL)
            assert (code, err) == (0, ""), argv
            outputs.append(self.hexed(json.loads(stdout)))
        assert outputs == [
            {"mrr": self.SEARCH_MRR}, {"mrr": self.SEARCH_MRR_NO_DATAFLOW}, self.CLONE, self.SPLIT,
        ]


class TestPinnedTraining:
    """The loss log of a short seeded `pretrain` run at one BLAS thread, as
    `float.hex`, so a change to the training path that claims to keep its
    bits must reproduce it. With two threads the weight-gradient sums of
    OpenBLAS can split differently, so the run pins one."""

    LOSSES = [
        (0, "mlm", "0x1.8f749a0000000p+2"),
        (0, "edgepred", "0x1.326af20000000p+2"),
        (1, "mlm", "0x1.8fbd660000000p+2"),
        (1, "nodealign", "0x1.d9ab980000000p-1"),
        (2, "mlm", "0x1.8e451c0000000p+2"),
        (2, "edgepred", "0x1.3e533c0000000p+2"),
        (3, "mlm", "0x1.8cd83c0000000p+2"),
        (3, "nodealign", "0x1.099bb40000000p+0"),
        (4, "mlm", "0x1.8d229c0000000p+2"),
        (4, "edgepred", "0x1.e6fbd20000000p+1"),
        (5, "mlm", "0x1.8d59720000000p+2"),
        (5, "nodealign", "0x1.4d58d40000000p-1"),
    ]

    def test_loss_log_is_pinned(self, tmp_path):
        corpus = write_corpus(tmp_path, overfit_corpus(8))
        env = {**os.environ, "PYTHONPATH": str(Path(codeflow.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "codeflow.cli", "pretrain", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
             "--steps", "6", "--batch-size", "4", *SMALL_MODEL, "--num-layers", "2", "--seed", "1"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert (done.returncode, done.stderr) == (0, "")
        rows = (tmp_path / "o" / "losses.csv").read_text().splitlines()[1:]
        logged = [(int(step), objective, float.hex(float(loss))) for step, objective, loss in (r.split(",") for r in rows)]
        assert logged == self.LOSSES


class TestPinnedFineTuning:
    """The sha256 of `model.gcb` after a short seeded `finetune-search` at one
    BLAS thread, as `TestPinnedTraining` pins pre-training's loss log: a
    change to the fine-tuning path or to Adam that claims to keep its bits
    must reproduce the checkpoint byte for byte. `FLAT_SHA256` pins the
    weights alone, so that they stay pinned through a change of file format."""

    MODEL_SHA256 = "bb69e2fb7f4a5af499c155464b3dfbd00606540e09ac7a4ee116c7db493da985"
    FLAT_SHA256 = "6cd434eb3d27886b4186cda811644c9241d8adbf618fee1269807a48f3848a69"

    def test_model_bytes_are_pinned(self, tmp_path):
        corpus = write_search_corpus(tmp_path, n=8)
        env = {**os.environ, "PYTHONPATH": str(Path(codeflow.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "codeflow.cli", "finetune-search", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
             "--epochs", "3", "--batch-size", "4", *SMALL_MODEL, "--num-layers", "2", "--seed", "1"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert (done.returncode, done.stderr) == (0, "")
        model = tmp_path / "o" / "model.gcb"
        assert hashlib.sha256(model.read_bytes()).hexdigest() == self.MODEL_SHA256
        assert hashlib.sha256(load_checkpoint(model).flat.tobytes()).hexdigest() == self.FLAT_SHA256


class TestPinnedCloneFineTuning:
    """`TestPinnedFineTuning` for `finetune-clone`, whose pairs run through
    the same fine-tuning loop. 8 pairs in batches of 7 end each epoch with a
    batch of one pair, which clone training keeps and search skips."""

    MODEL_SHA256 = "9bff3a5d5c47e9be1bf3b076df654f606b7a64f2593648509e68f5b403a62167"
    FLAT_SHA256 = "01adbc0cf146986711112de9734c27e61c752d0d25eb66ba51937c5742503ad1"

    def test_model_bytes_are_pinned(self, tmp_path):
        corpus = write_clone_corpus(tmp_path)
        env = {**os.environ, "PYTHONPATH": str(Path(codeflow.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "codeflow.cli", "finetune-clone", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
             "--epochs", "3", "--batch-size", "7", *SMALL_MODEL, "--num-layers", "2", "--seed", "1"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert (done.returncode, done.stderr) == (0, "")
        model = tmp_path / "o" / "model.gcb"
        assert hashlib.sha256(model.read_bytes()).hexdigest() == self.MODEL_SHA256
        assert hashlib.sha256(load_checkpoint(model).flat.tobytes()).hexdigest() == self.FLAT_SHA256


class TestCheckpointBoundaries:
    def test_vocab_of_escaped_and_line_breaking_strings_reads_back(self, tmp_path, capsys):
        """String literals holding backslash escapes, or a character
        `str.splitlines` breaks a line at, keep their ids through vocab.txt."""
        literals = ['"a\\nb"', '"\r"', '"\x0c"', '"\x85"', '"\u2028"', '"t\\\\n"', "'\\t'", '"\r\\r"']
        pairs = [
            (query, code.replace("\n", f"\n    s = {literal}\n", 1))
            for (query, code), literal in zip(search_pairs(8), literals)
        ]
        corpus = tmp_path / "search.jsonl"
        rows = [json.dumps({"code": code, "docstring": query, "lang": "python"}) for query, code in pairs]
        corpus.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "run"
        code, _, err = run(
            capsys, "pretrain", "--corpus", str(corpus), "--out", str(out),
            "--steps", "1", "--batch-size", "2", *SMALL_MODEL,
        )
        assert (code, err) == (0, "")
        written = Vocabulary.deserialize((out / "vocab.txt").read_text(encoding="utf-8"))
        assert written.token_to_id == build_vocab(pairs, 512).token_to_id
        assert set(literals) <= written.token_to_id.keys()
        code, stdout, err = run(
            capsys, "eval-search", "--corpus", str(corpus),
            "--checkpoint", str(out / "model.gcb"), "--out", str(tmp_path / "s"),
        )
        assert (code, err) == (0, "")
        assert "mrr" in json.loads(stdout)

    def test_vocab_larger_than_checkpoint_is_data_error(self, tmp_path, capsys):
        config = ModelConfig(num_layers=1, hidden_dim=16, num_heads=2, ffn_dim=32, vocab_size=16, max_positions=128)
        save_checkpoint(tmp_path / "model.gcb", init_params(config))
        corpus = write_corpus(tmp_path, overfit_corpus(4))
        vocab = build_vocab([(it.docstring, it.code) for it in overfit_corpus(4)], 64)
        assert len(vocab) > 16
        (tmp_path / "vocab.txt").write_text(vocab.serialize(), encoding="utf-8")
        code, _, err = run(capsys, "attention-split", "--corpus", str(corpus), "--checkpoint", str(tmp_path / "model.gcb"))
        assert code == 2
        assert err.count("\n") == 1 and "vocab_size 16" in err

    @pytest.mark.parametrize(
        "text, missing",
        [
            pytest.param("", "[PAD] at id 0", id="empty"),
            pytest.param("[PAD]\t0\n[CLS]\t1\n[SEP]\t2\n[MASK]\t3\n", "[UNK] at id 4", id="no-unk"),
            pytest.param("[CLS]\t0\n[PAD]\t1\n[SEP]\t2\n[MASK]\t3\n[UNK]\t4\n", "[PAD] at id 0", id="swapped"),
        ],
    )
    def test_vocab_without_reserved_tokens_is_data_error(self, tmp_path, capsys, text, missing):
        config = ModelConfig(num_layers=1, hidden_dim=16, num_heads=2, ffn_dim=32, vocab_size=512, max_positions=128)
        save_checkpoint(tmp_path / "model.gcb", init_params(config))
        vocab = tmp_path / "empty.txt"
        vocab.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        code, stdout, err = run(
            capsys, "eval-search", "--corpus", str(write_search_corpus(tmp_path)),
            "--checkpoint", str(tmp_path / "model.gcb"), "--vocab", str(vocab), "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert err == f"data error: {vocab} lacks the reserved token {missing}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, problem",
        [
            pytest.param("merge\t1\n", "token 'merge' is listed twice", id="token-twice"),
            pytest.param("unseen\t1\n", "id 1 of 'unseen' is already held by '[CLS]'", id="id-twice"),
            pytest.param("unseen\t٣\n", "expected token<TAB>id, got 'unseen\\t٣'", id="non-ascii-id"),
            pytest.param(
                "unseen\t" + "9" * 5000 + "\n", "expected token<TAB>id, got 'unseen\\t" + "9" * 33 + "'", id="huge-id"
            ),
        ],
    )
    def test_vocab_with_a_duplicate_is_data_error(self, tmp_path, capsys, extra, problem):
        config = ModelConfig(num_layers=1, hidden_dim=16, num_heads=2, ffn_dim=32, vocab_size=512, max_positions=128)
        save_checkpoint(tmp_path / "model.gcb", init_params(config))
        built = build_vocab([(q, c) for q, c in search_pairs(4)], 512)
        assert "merge" in built.token_to_id and "unseen" not in built.token_to_id
        vocab = tmp_path / "vocab.txt"
        vocab.write_text(built.serialize() + extra, encoding="utf-8")
        out = tmp_path / "o"
        code, stdout, err = run(
            capsys, "eval-search", "--corpus", str(write_search_corpus(tmp_path)),
            "--checkpoint", str(tmp_path / "model.gcb"), "--vocab", str(vocab), "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert err == f"data error: {vocab} line {len(built) + 1}: {problem}\n"
        assert not out.exists()

    @staticmethod
    def eval_with(capsys, tmp_path, blob):
        """`eval-search` over a checkpoint file holding `blob`."""
        path = tmp_path / "edited.gcb"
        path.write_bytes(blob)
        return run(
            capsys, "eval-search", "--corpus", str(write_search_corpus(tmp_path)), "--checkpoint", str(path),
            "--out", str(tmp_path / "o"),
        )

    def test_gcb1_file_is_data_error(self, tmp_path, capsys):
        code, stdout, err = self.eval_with(capsys, tmp_path, b"GCB1" + bytes(64))
        assert (code, stdout) == (2, "")
        problem = "is a GCB1 checkpoint, a format this version no longer reads"
        assert err == f"data error: {tmp_path / 'edited.gcb'} {problem}\n"

    @pytest.mark.parametrize("where, problem", [
        pytest.param(3, "bad magic bytes", id="magic"),
        pytest.param(10, "fails its sha256 check", id="config"),
        pytest.param(-5000, "fails its sha256 check", id="store"),
        pytest.param(-1, "fails its sha256 check", id="digest"),
    ])
    def test_one_flipped_byte_is_data_error(self, tmp_path, capsys, where, problem):
        config = ModelConfig(num_layers=1, hidden_dim=16, num_heads=1, ffn_dim=32, vocab_size=512, max_positions=128)
        save_checkpoint(tmp_path / "model.gcb", init_params(config))
        blob = bytearray((tmp_path / "model.gcb").read_bytes())
        blob[where] ^= 0x10
        code, stdout, err = self.eval_with(capsys, tmp_path, bytes(blob))
        assert (code, stdout) == (2, "")
        assert err.startswith("data error: ") and problem in err

    def test_trailing_bytes_are_data_error(self, tmp_path, capsys):
        # bytes past the store the config needs, under a valid digest
        config = ModelConfig(num_layers=1, hidden_dim=16, num_heads=1, ffn_dim=32, vocab_size=512, max_positions=128)
        header, store = json.dumps(config.to_dict()).encode("utf-8"), init_params(config).flat.tobytes()
        code, stdout, err = self.eval_with(capsys, tmp_path, checkpoint_file(header, store + bytes(7)))
        assert (code, stdout) == (2, "")
        size = len(store) + 7
        assert err == f"data error: config needs {len(store) // 4} parameters, but the file holds {size} bytes of them\n"

    def test_header_claiming_more_parameters_than_the_file_holds_is_data_error(self, tmp_path, capsys):
        config = ModelConfig(num_layers=10**6, hidden_dim=8, num_heads=4, ffn_dim=16, vocab_size=32, max_positions=16)
        header = json.dumps(config.to_dict()).encode("utf-8")
        code, stdout, err = self.eval_with(capsys, tmp_path, checkpoint_file(header, bytes(4)))
        assert (code, stdout) == (2, "")
        needed = parameter_count(config)
        assert err == f"data error: config needs {needed} parameters, but the file holds 4 bytes of them\n"

    def test_non_finite_weight_is_data_error(self, tmp_path, capsys):
        # one NaN used to load silently and give a meaningless MRR
        config = ModelConfig(num_layers=1, hidden_dim=16, num_heads=1, ffn_dim=32, vocab_size=512, max_positions=128)
        params = init_params(config)
        params.tensors["layer0.ffn.w1"].data[3, 5] = np.nan
        save_checkpoint(tmp_path / "model.gcb", params)
        code, stdout, err = self.eval_with(capsys, tmp_path, (tmp_path / "model.gcb").read_bytes())
        assert (code, stdout) == (2, "")
        assert err == "data error: tensor 'layer0.ffn.w1' holds a non-finite value\n"

    def test_model_limits_come_from_the_checkpoint(self, tmp_path, capsys):
        # the checkpoint's 128 positions, not the 512 of the flags' defaults
        config = ModelConfig(num_layers=1, hidden_dim=16, num_heads=2, ffn_dim=32, vocab_size=512, max_positions=128)
        save_checkpoint(tmp_path / "model.gcb", init_params(config))
        search = write_search_corpus(tmp_path)
        vocab = build_vocab([(q, c) for q, c in search_pairs(4)], 512)
        (tmp_path / "vocab.txt").write_text(vocab.serialize(), encoding="utf-8")
        for command in ("eval-search", "attention-split"):
            code, _, err = run(
                capsys, command, "--corpus", str(search), "--checkpoint", str(tmp_path / "model.gcb"),
                "--out", str(tmp_path / command),
            )
            assert (command, code, err) == (command, 0, "")

    @pytest.mark.parametrize("field, value", [("num_layers", 1.9), ("num_heads", True), ("ffn_dim", "32")])
    def test_non_integer_config_value_is_data_error(self, tmp_path, capsys, field, value):
        # Each value would coerce by int() to the checkpoint's own config, so
        # only the type check stops it.
        config = ModelConfig(num_layers=1, hidden_dim=16, num_heads=1, ffn_dim=32, vocab_size=512, max_positions=128)
        header = json.dumps({**config.to_dict(), field: value}).encode("utf-8")
        path = tmp_path / "model.gcb"
        path.write_bytes(checkpoint_file(header, init_params(config).flat.tobytes()))
        code, _, err = run(
            capsys, "eval-search", "--corpus", str(write_search_corpus(tmp_path)), "--checkpoint", str(path),
            "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert err.count("\n") == 1 and field in err

    def test_deeply_nested_file_is_data_error(self, tmp_path, capsys):
        f = tmp_path / "deep.txt"
        f.write_text("x = " + "(" * 3000 + "a" + ")" * 3000 + "\n")
        code, _, err = run(capsys, "extract-dfg", str(f))
        assert code == 2 and err.count("\n") == 1 and "nesting deeper than" in err

    @pytest.mark.parametrize("command", ["extract-dfg", "encode"])
    def test_non_ascii_identifier_is_data_error(self, tmp_path, capsys, command):
        f = tmp_path / "accent.txt"
        f.write_text("café = 1\n", encoding="utf-8")
        code, _, err = run(capsys, command, str(f))
        assert code == 2 and err.count("\n") == 1 and "unexpected character 'é'" in err

    def test_error_offset_counts_characters(self, tmp_path, capsys):
        # '٣' is character 13 of the line but starts at byte 14 of the UTF-8 file
        f = tmp_path / "digit.txt"
        f.write_text("s = 'café' + ٣\n", encoding="utf-8")
        code, _, err = run(capsys, "extract-dfg", str(f))
        assert code == 2 and err.count("\n") == 1
        assert "unexpected character '٣' (character offset 13)" in err


# -- seeded fuzzing of the input boundaries -----------------------------------

FUZZ_CASES = 30  # per input kind; fixed so the suite's run time stays put

HOSTILE_VALUES = [5, None, [], {}, True, 1e400, "", "\x00", "\ud800", "(" * 300 + "a" + ")" * 300]
HOSTILE_ROWS = ["[1, 2]", "5", "null", '"code"', "{}", "{", '{"code": "a = 1\\n"}', "NaN"]


def _corrupt(rng, data: bytes) -> bytes:
    """Truncate `data`, overwrite a few bytes, or insert random bytes."""
    kind = int(rng.integers(3))
    at = int(rng.integers(len(data) + 1))
    if kind == 0:
        return data[:at]
    if kind == 1:
        buf = bytearray(data)
        for _ in range(int(rng.integers(1, 8))):
            buf[int(rng.integers(len(buf)))] = int(rng.integers(256))
        return bytes(buf)
    return data[:at] + rng.bytes(int(rng.integers(1, 16))) + data[at:]


def _corrupt_rows(rng, case: int, rows: list[dict]) -> bytes:
    """By `case`, corrupt the bytes of the JSONL, give a random field of a
    random row the next hostile value, or insert the next hostile line."""
    kind, pick = case % 3, case // 3
    lines = [json.dumps(r) for r in rows]
    if kind == 0:
        return _corrupt(rng, ("\n".join(lines) + "\n").encode("utf-8"))
    at = int(rng.integers(len(rows)))
    if kind == 1:
        row = dict(rows[at])
        row[sorted(row)[int(rng.integers(len(row)))]] = HOSTILE_VALUES[pick % len(HOSTILE_VALUES)]
        lines[at] = json.dumps(row)
    else:
        lines.insert(at, HOSTILE_ROWS[pick % len(HOSTILE_ROWS)])
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")


def fuzz_main(argv) -> int:
    """Run `main` with redirected streams and check the error contract: an
    exit code in {0, 1, 2, 3}, at most one stderr line, no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except BaseException as e:  # anything escaping main would print a traceback
            pytest.fail(f"{argv[0]} raised {type(e).__name__}: {e}")
    message = err.getvalue()
    assert code in (0, 1, 2, 3), (argv[0], code, message)
    assert "Traceback" not in message
    assert message.count("\n") <= 1 and (not message or message.endswith("\n")), message
    return code


class TestCliFuzz:
    @pytest.fixture
    def model_dir(self, tmp_path):
        """A small checkpoint with a 16-token vocabulary and its vocab file."""
        config = ModelConfig(num_layers=1, hidden_dim=16, num_heads=2, ffn_dim=32, vocab_size=16, max_positions=128)
        save_checkpoint(tmp_path / "model.gcb", init_params(config))
        vocab = build_vocab([(q, c) for q, c in search_pairs(4)], 16)
        (tmp_path / "vocab.txt").write_text(vocab.serialize(), encoding="utf-8")
        return tmp_path

    def test_malformed_jsonl(self, tmp_path):
        rng = np.random.default_rng(0)
        search = [{"code": c, "docstring": q, "lang": "python"} for q, c in search_pairs(4)]
        clones = [{"code_a": a, "code_b": b, "label": y} for a, b, y in clone_corpus()]
        corpus = tmp_path / "corpus.jsonl"
        codes = set()
        for case in range(FUZZ_CASES):
            command = ("eval-search", "pretrain", "attention-split", "eval-clone")[case % 4]
            corpus.write_bytes(_corrupt_rows(rng, case, clones if command == "eval-clone" else search))
            extra = ["--steps", "1", "--batch-size", "2"] if command == "pretrain" else []
            codes.add(fuzz_main([command, "--corpus", str(corpus), "--out", str(tmp_path / "o"), *extra, *SMALL_MODEL]))
        assert 2 in codes

    def test_malformed_vocab(self, tmp_path, model_dir):
        rng = np.random.default_rng(1)
        corpus = write_search_corpus(tmp_path)
        good = (model_dir / "vocab.txt").read_bytes()
        hostile = [b"orphan\n", b"tok\tseven\n", b"tok\t-3\n", b"tok\t99999\n", b"\n".join(b"w%d\t%d" % (i, i) for i in range(40))]
        vocab = tmp_path / "fuzzed_vocab.txt"
        codes = set()
        for case in range(FUZZ_CASES):
            if case % 2:
                vocab.write_bytes(_corrupt(rng, good))
            else:
                vocab.write_bytes(good + hostile[int(rng.integers(len(hostile)))])
            command = ("eval-search", "attention-split")[(case // 2) % 2]
            codes.add(fuzz_main([
                command, "--corpus", str(corpus), "--checkpoint", str(model_dir / "model.gcb"),
                "--vocab", str(vocab), "--out", str(tmp_path / "o"),
            ]))
        assert 2 in codes

    def test_every_corrupted_checkpoint_is_data_error(self, tmp_path, model_dir, capsys):
        # 150 seeded corruptions of a one-layer model: 1-4 bytes each changed
        # to another value, and 30% of the files also truncated. Without a
        # digest, most of them loaded with silently changed weights.
        rng = np.random.default_rng(3)
        corpus = write_search_corpus(tmp_path)
        good = (model_dir / "model.gcb").read_bytes()
        checkpoint = tmp_path / "corrupted.gcb"
        outcomes = Counter()
        for _ in range(150):
            blob = bytearray(good)
            for at in rng.choice(len(blob), size=int(rng.integers(1, 5)), replace=False):
                blob[at] ^= int(rng.integers(1, 256))
            checkpoint.write_bytes(blob[: int(rng.integers(len(blob)))] if rng.random() < 0.3 else blob)
            code = main([
                "eval-search", "--corpus", str(corpus), "--checkpoint", str(checkpoint),
                "--vocab", str(model_dir / "vocab.txt"), "--out", str(tmp_path / "o"),
            ])
            outcomes[code, capsys.readouterr().err.count("\n")] += 1
        assert outcomes == {(2, 1): 150}

    def test_malformed_checkpoint(self, tmp_path, model_dir):
        rng = np.random.default_rng(2)
        corpus = write_search_corpus(tmp_path)
        good = (model_dir / "model.gcb").read_bytes()
        (config_len,) = struct.unpack("<I", good[4:8])
        hostile_configs = [b"[]", b'{"num_heads": 3}', b'{"hidden_dim": "x"}', b"\xff\xfe", b'{"num_layers": -1}']
        checkpoint = tmp_path / "fuzzed.gcb"
        codes = set()
        for case in range(FUZZ_CASES):
            if case % 2:
                checkpoint.write_bytes(_corrupt(rng, good))
            else:
                config = hostile_configs[int(rng.integers(len(hostile_configs)))]
                checkpoint.write_bytes(checkpoint_file(config, good[8 + config_len : -32]))  # under a valid digest
            codes.add(fuzz_main([
                "eval-search", "--corpus", str(corpus), "--checkpoint", str(checkpoint),
                "--vocab", str(model_dir / "vocab.txt"), "--out", str(tmp_path / "o"),
            ]))
        assert 2 in codes
