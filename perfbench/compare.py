"""Compare two sets of saved benchmark records (written by run.py --out).

    python3 perfbench/compare.py --base base/*.json --new new/*.json

For each workload and end-to-end metric: the median and quartiles of the
run medians on each side, the change, and a verdict against the metric's
bound in BENCHMARK.json. Where the base's own spread (quartile distance over
median) exceeds the bound, the verdict is "unresolved" unless every new run
beats every base run; "better" needs a change larger than that spread.
Records from different machines are flagged: compare runs made on the same
machine only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from machine import same_machine

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric: dict, base: list[float], new: list[float]) -> str:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    q1, med, q3 = spread(base)
    change = sign * (statistics.median(new) - med) / med if med else 0.0
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    if len(base) > 1 and (q3 - q1) / med > metric["bound"] and not all_better:
        return "unresolved"
    if change < -metric["bound"]:
        return "worse beyond bound"
    return "better" if len(base) > 1 and change > (q3 - q1) / med else "within bound"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    base, new = load(args.base), load(args.new)
    machines = [r["machine"] for r in base + new]
    if not all(same_machine(machines[0], m) for m in machines[1:]):
        print("WARNING: these records come from different machines; the comparison does not hold")
    commits = sorted({r["machine"]["commit"] for r in base}), sorted({r["machine"]["commit"] for r in new})
    print(f"base commit(s) {', '.join(commits[0])}; new commit(s) {', '.join(commits[1])}")
    worse = False
    for workload in sorted({r["workload"] for r in base + new}):
        b = [r for r in base if r["workload"] == workload and not r["trace"]]
        n = [r for r in new if r["workload"] == workload and not r["trace"]]
        if not b or not n:
            print(f"{workload}: runs on one side only")
            continue
        print(f"{workload}: {len(b)} base runs, {len(n)} new runs")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            bv = [r["metrics"][name]["value"] for r in b]
            nv = [r["metrics"][name]["value"] for r in n]
            (bq1, bmed, bq3), (nq1, nmed, nq3) = spread(bv), spread(nv)
            v = verdict(metric, bv, nv)
            worse |= v == "worse beyond bound"
            print(f"  {name:<14} base {bmed:12.4f} [{bq1:.4f}, {bq3:.4f}]  new {nmed:12.4f} [{nq1:.4f}, {nq3:.4f}]  "
                  f"{(nmed - bmed) / bmed:+7.1%}  bound {metric['bound']:.0%}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
