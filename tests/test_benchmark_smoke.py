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
