"""Each benchmark workload runs end to end on tiny inputs and passes its own
output checks, so a change to `src/` that breaks a call the benchmark makes
fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def run_tiny(workload, *flags):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--tiny", "--seconds", "1", *flags],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", ["pretrain", "retrieval", "ingest"])
def test_tiny_workload_runs_clean(workload):
    run_tiny(workload)


def test_traced_ingest_sees_the_frontend():
    """The tracer patches `lexer.tokenize` and `parser.parse` as module
    attributes, so these counts read 0 once the pipeline stops calling the
    frontend through them."""
    metrics = run_tiny("ingest", "--trace", "1")["metrics"]
    assert metrics["frontend.tokenize.calls_per_program"]["value"] > 0
    assert metrics["frontend.parse.calls_per_program"]["value"] > 0


def test_traced_retrieval_sees_the_forwards():
    """The tracer patches `model.forward` under every name that refers to it,
    `downstream.forward` included, and reads the flat ids of each call."""
    metrics = run_tiny("retrieval", "--trace", "1")["metrics"]
    assert metrics["model.forward.ms_per_call"]["value"] > 0
    assert metrics["model.forward.gflops_per_s"]["value"] > 0


# perfbench/workloads.py's tiny `Pretrain`: 16 functions, 6 steps per `pretrain_run` call
TINY_PRETRAIN_CORPUS, TINY_PRETRAIN_STEPS = 16, 6


def test_traced_pretrain_sees_the_targets():
    """The tracer patches `pretrain.select_mlm_targets`, `sample_edge_targets`
    and `sample_align_targets` as module attributes and reads the candidates
    of the `StructureTargets` they return; `pretrain_run` builds each
    example's mask once per run, not once per step."""
    metrics = run_tiny("pretrain", "--trace", "1")["metrics"]
    assert metrics["pretrain.targets.ms"]["value"] > 0
    assert metrics["pretrain.candidates_per_step"]["value"] > 0
    assert metrics["encoding.mask.builds_per_step"]["value"] <= TINY_PRETRAIN_CORPUS / TINY_PRETRAIN_STEPS


def test_pretrain_run_steps_through_the_module_adam_step(monkeypatch):
    """The benchmark clocks a training step by patching `pretrain.adam_step`."""
    import codeflow.pretrain as pretrain
    from codeflow.model import ModelConfig
    from helpers import overfit_corpus

    calls = []
    adam_step = pretrain.adam_step
    monkeypatch.setattr(pretrain, "adam_step", lambda *args, **kwargs: calls.append(1) or adam_step(*args, **kwargs))
    config = ModelConfig(num_layers=1, hidden_dim=16, num_heads=2, ffn_dim=32, vocab_size=64, max_positions=128)
    pretrain.pretrain_run(overfit_corpus(4), config, steps=3, rng=0, batch_size=2)
    assert len(calls) == 3


def test_evaluate_search_forwards_through_the_module_forward(monkeypatch):
    """The retrieval benchmark runs its reference kernel inside a search by
    patching `downstream.forward`, so every encoder forward of the search
    must be a call through that name: each forward runs layer 0 once."""
    import codeflow.downstream as downstream
    import codeflow.model as model
    from codeflow.encoding import build_vocab
    from codeflow.model import ModelConfig, init_params
    from helpers import search_pairs

    through, layers = [], []
    forward, encoder_layer = downstream.forward, model.encoder_layer
    monkeypatch.setattr(downstream, "forward", lambda *args, **kwargs: through.append(1) or forward(*args, **kwargs))
    monkeypatch.setattr(
        model, "encoder_layer", lambda h, params, n, *rest: layers.append(n) or encoder_layer(h, params, n, *rest)
    )
    pairs = search_pairs(8)
    vocab = build_vocab(pairs, 96)
    config = ModelConfig(num_layers=2, hidden_dim=16, num_heads=2, ffn_dim=32, vocab_size=96, max_positions=128)
    examples = downstream.prepare_search_examples(pairs, vocab, max_positions=128)
    downstream.evaluate_search(init_params(config), examples)
    assert len(through) == layers.count(0) > 0
