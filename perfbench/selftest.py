"""Self-test of the benchmark: every workload at tiny size, untraced and traced.

    python3 perfbench/selftest.py

For each run it checks the exit code, that the last line of output holds
exactly the keys correct/attempted/failed/metrics, that every metric
BENCHMARK.json names is there with its unit (end-to-end untraced, per-layer
traced) as a finite number, and that no output check failed (error rate 0).
It also checks that the generator is deterministic in the seed, and that
run.py refuses, without printing a result, in a directory holding only the
benchmark. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import generate

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(workload: str, trace: int) -> list[str]:
    proc = run([str(RUN), "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"])
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"{where}: correct {result.get('correct')}, failed {result.get('failed')}, "
                        f"attempted {result.get('attempted')}; {proc.stdout.strip().splitlines()[-2]}")
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{where}: metrics missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{where}: metric {name} is {got}, expected a finite value in {unit}")
        elif not trace and got["value"] <= 0:
            problems.append(f"{where}: end-to-end metric {name} is {got['value']}, expected > 0")
    return problems


def check_generator() -> list[str]:
    problems = []
    for make in (generate.pretrain_corpus, generate.retrieval_inputs, generate.ingest_rows):
        if make(5) != make(5):
            problems.append(f"{make.__name__}: the same seed gave different inputs")
        if make(5) == make(6):
            problems.append(f"{make.__name__}: two seeds gave the same inputs")
    return problems


def check_refuses_without_program() -> list[str]:
    """In a directory with only BENCHMARK.json and perfbench/, run.py must fail without a result."""
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_work-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results"))
        proc = run(["perfbench/run.py", "--workload", "pretrain", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"without the program, run.py exited {proc.returncode} with output {lines[-1:]}"]
    return []


def main() -> int:
    problems = check_generator() + check_refuses_without_program()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            problems += check_run(workload, trace)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
