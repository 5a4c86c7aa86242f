"""Each benchmark workload runs end to end on tiny inputs and passes its own
output checks, so a change to `src/` that breaks a call the benchmark makes
fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["pretrain", "retrieval", "ingest"])
def test_tiny_workload_runs_clean(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--tiny", "--seconds", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
