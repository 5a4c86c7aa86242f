"""End-to-end command-line behavior: exit codes, artifacts, determinism."""

import json

import numpy as np
import pytest

from codeflow.checkpoint import load_checkpoint
from codeflow.cli import main
from codeflow.model import ModelConfig, init_params
from helpers import clone_corpus, overfit_corpus, search_pairs

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

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "extract-dfg", str(tmp_path / "nope.txt"))
        assert code == 2
        assert "data error" in err

    def test_syntax_error_is_data_error(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("def f(:\n")
        code, _, _ = run(capsys, "extract-dfg", str(f))
        assert code == 2


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

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        f = tmp_path / "s.txt"
        f.write_text("a = 1\n")
        assert run(capsys, "extract-dfg", str(f), "--config", str(cfg))[0] == 1

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

    def test_non_string_snippet_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "clones.jsonl"
        bad.write_text(json.dumps({"code_a": 5, "code_b": "a = 1\n", "label": 1}) + "\n")
        code, _, err = run(
            capsys, "eval-clone", "--corpus", str(bad), "--out", str(tmp_path / "o"), *SMALL_MODEL,
        )
        assert code == 2
        assert err.startswith("data error: line 1: ") and err.count("\n") == 1
        assert "'code_a' must be a string" in err and "Traceback" not in err

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
    def test_report_shape(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, overfit_corpus(6))
        code, stdout, _ = run(
            capsys, "attention-split", "--corpus", str(corpus), *SMALL_MODEL,
        )
        assert code == 0
        report = json.loads(stdout)
        assert set(report) == {"python", "java", "overall"}
        overall = report["overall"]
        assert overall["code_fraction"] + overall["node_fraction"] == pytest.approx(1.0, abs=1e-6)

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
