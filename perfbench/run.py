"""Benchmark for codeflow: three seeded workloads against the public library API.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 20 --trace 0

`--trace 0` times the workload with nothing wrapped and reports the
end-to-end metrics; `--trace 1` first runs half the time untraced, then
wraps the public function of every layer and runs the other half, and
reports per-layer counts and self times and the tracing overhead. Both
check the program's outputs. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. `--out FILE` also
writes the full record (machine, inputs, samples, metrics) for compare.py.

Run it from a full checkout: the program is imported from ../src.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
TRACE_ROUNDS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("pretrain", "retrieval", "ingest"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    p.add_argument("--out", help="also write the full result record to this JSON file")
    return p.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, workdir: Path) -> dict:
    """Set up and time the workload; in a traced run, time it again traced."""
    import workloads
    from tracing import OP_SPAN, Tracer, per_layer_metrics

    w = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    w.prepare(workloads.Lib(SRC))
    setup_s: list[float] = []  # in reference seconds, as every timing; see workloads
    setup_raw_s: list[float] = []

    def untraced(seconds: float, segments: int):
        """Set up, then time; `segments` times, so set-ups are spread over the run."""
        total = workloads.Timed(w.reference_mix)
        for k in range(w.setup_repeats):
            kernels = [workloads.time_reference_kernel(w.reference_mix) for _ in range(3)]
            t0 = time.perf_counter()
            lib = workloads.Lib(SRC)
            st = w.setup(lib)
            t1 = time.perf_counter()
            kernels += [workloads.time_reference_kernel(w.reference_mix) for _ in range(3)]
            setup_s.append(workloads.Reference(kernels).rescale(t1 - t0, t0, t1))
            setup_raw_s.append(t1 - t0)
            if segments and k >= w.setup_repeats - segments:
                total.merge(w.run(lib, st, seconds / segments))
        return lib, st, total

    if not args.trace:
        lib, st, timed = untraced(args.seconds, w.setup_repeats)
        rss = peak_rss_mb()
        e2e, lines = w.report(lib, st, timed)
        metrics = {"setup_s": (statistics.median(setup_s), "s"), "ops_per_s": (e2e["ops_per_s"], "1/s"),
                   "tokens_per_s": (e2e["tokens_per_s"], "1/s"), "peak_rss_mb": (rss, "MB")}
        record: dict = {}
    else:
        # Traced and untraced rounds alternate, so the overhead ratio compares like periods.
        # Neither runs the reference kernel inside an operation (a no-op span is passed).
        lib, st, _ = untraced(0.0, 0)
        tracer = Tracer(lib)
        base, timed = workloads.Timed(w.reference_mix), workloads.Timed(w.reference_mix)
        for round_ in range(TRACE_ROUNDS):
            base.merge(w.run(lib, st, args.seconds / (2 * TRACE_ROUNDS), contextlib.nullcontext))
            tracer.install()
            try:
                if round_ == 0:
                    w.prepare(lib)
                    st = w.setup(lib)
                    setup_totals, setup_counts = tracer.setup_totals(), Counter(tracer.counts)
                    tracer.reset()
                timed.merge(w.run(lib, st, args.seconds / (2 * TRACE_ROUNDS), lambda: tracer.span(OP_SPAN)))
            finally:
                tracer.uninstall()
        _, lines = w.report(lib, st, base)
        untraced_raw, _ = w.report(lib, st, base, raw=True)
        traced_raw, _ = w.report(lib, st, timed, raw=True)
        overhead = untraced_raw["ops_per_s"] / traced_raw["ops_per_s"] if traced_raw["ops_per_s"] else 0.0
        totals = tracer.totals()
        layer = per_layer_metrics(totals, tracer.counts, setup_totals, setup_counts,
                                  max(timed.ops, 1), timed.programs, timed.steps, overhead)
        units = {m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text())["per_layer"]}
        metrics = {name: (value, units.get(name, "?")) for name, value in layer.items()}
        lines += breakdown(totals, timed.ops, overhead, tracer.missing)
        record = {"spans": {name: {"calls": c, "incl_ms": i, "self_ms": s} for name, (c, i, s) in totals.items()}}
        timed = base.merge(timed)  # check the outputs of both
    failures = w.check(lib, st, timed)
    return record | {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "inputs": w.input_stats(st),
        "samples": timed.samples(raw=True),
        "ref_samples": timed.samples(),
        "failures": failures,
        "attempted": max(timed.ops, 1),
        "failed": timed.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "lines": lines,
    }


def breakdown(totals: dict, ops: int, overhead: float, missing: list[str]) -> list[str]:
    """Self time per span name, per operation, largest first."""
    from tracing import OP_SPAN

    op_ms = totals.get(OP_SPAN, (0, 0.0, 0.0))[1] / max(ops, 1)
    lines = [f"traced: {op_ms:.3f} ms per op (mean), tracing overhead x{overhead:.3f} (untraced / traced raw rate)"]
    for name, (calls, incl, own) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
        share = own / ops / op_ms if op_ms else 0.0
        lines.append(f"  {name:<30} self {own / ops:10.4f} ms/op {share:7.1%}  incl {incl / ops:10.4f}  calls {calls}")
    fwd = totals.get("model.forward", (0, 0.0, 0.0))[1] / max(ops, 1)
    bwd = totals.get("autograd.backward", (0, 0.0, 0.0))[2] / max(ops, 1)
    if op_ms:
        lines.append(f"  forward (incl.) {fwd / op_ms:.1%} + backward {bwd / op_ms:.1%} of traced op time")
    lines.append("  model.forward.gflops_per_s and optim.bytes_updated are computed from tensor shapes, not measured")
    if missing:
        lines.append("  not found, so not traced: " + ", ".join(missing))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "codeflow" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC / 'codeflow'}; run from a full checkout\n")
        return 2
    from machine import BLAS_THREAD_VARS

    for var in BLAS_THREAD_VARS:  # one CPU core; must precede the first numpy import
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import machine

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        record = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "machine": machine.describe(ROOT)} | record

    m = record["machine"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {m['cpu']}, nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"{m['blas']}, BLAS threads 1, commit {m['commit']}")
    print("inputs: " + ", ".join(f"{k} {v}" for k, v in record["inputs"].items()))
    q1, _, q3 = statistics.quantiles(record["setup_s"], n=4)
    med = statistics.median(record["setup_s"])
    print(f"{'setup_s':<26} {med:12.4f} s     (median of {len(record['setup_s'])} set-ups; q1 {q1:.4f}, q3 {q3:.4f}; "
          f"raw median {statistics.median(record['setup_raw_s']):.4f})")
    for line in record["lines"]:
        print(line)
    for name, mv in record["metrics"].items():
        print(f"{name:<38} {mv['value']:14.4f} {mv['unit']}")
    print(f"{'error_rate':<26} {record['failed'] / record['attempted']:12.4f}       "
          f"({record['failed']} failed / {record['attempted']} attempted)")
    for failure in record["failures"]:
        print(f"check failed: {failure}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    result = {
        "correct": not record["failures"] and record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
