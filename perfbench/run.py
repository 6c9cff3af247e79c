"""The bgcert benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; the program is imported and started from
`src/` there. With --trace 0 it prints the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run. Every output is checked against values
derived apart from the program (see checks.py). The last line of stdout is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the same
object, with details, goes to perfbench-result-NAME.json or
perfbench-trace-NAME.json in the working directory.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import sys
from json import dumps  # bound before a traced pass wraps json.dumps

import tracing
import workloads

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(w, seconds: float) -> tuple[dict, workloads.Pass, dict]:
    run = workloads.Pass(w, seconds, setups=workloads.SETUP_REPEATS).run()
    # Read before the statistics below allocate.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if w.in_process else w.ctx.child_peak_kib
    peak_rss_mb = peak_kib / 1024
    ms = [s * 1000 for s in run.samples]
    metrics = {
        "setup_s": metric(statistics.median(run.setups), "s"),
        "p50_ms": metric(statistics.median(ms), "ms"),
        "p90_ms": metric(statistics.quantiles(ms, n=10)[8], "ms"),
        "ops_per_s": metric(run.ops_per_s, "1/s"),
        "candidates_per_s": metric(run.candidates / run.busy_s, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    details = {"setup_samples_s": list(run.setups), "operations_timed": len(ms), "rounds": run.rounds,
               "ops_per_round": len(w.cases), "busy_s": run.busy_s}
    return metrics, run, details


def traced(w, ctx, seconds: float) -> tuple[dict, list, dict]:
    """An untraced and a traced in-process pass of equal length, a memory pass, and import probes."""
    bg = ctx.bgcert()
    if not w.in_process:
        w.setup_once()  # writes the config files the command lines read
    call = w.run if w.in_process else w.run_in_process
    plain = workloads.Pass(w, seconds / 2, call).run()

    timing = tracing.Tracer(bg)
    output_bytes = 0
    traced_call = timing.around(call)

    def counted_call(op):
        nonlocal output_bytes
        out = traced_call(op)
        if not w.in_process:
            output_bytes += len(out[1].encode())
        return out

    with timing:
        traced_pass = workloads.Pass(w, seconds / 2, counted_call, reference=plain).run()

    memory = tracing.Tracer(bg, memory=True)
    with memory:  # exactly one round
        memory_pass = workloads.Pass(w, 0, memory.around(call), reference=plain).run()

    metrics = tracing.per_layer(timing, len(traced_pass.samples), memory,
                                tracing.import_times(ctx), output_bytes)
    overhead = 1 - traced_pass.ops_per_s / plain.ops_per_s
    details = {
        "untraced_ops_per_s": plain.ops_per_s,
        "traced_ops_per_s": traced_pass.ops_per_s,
        "tracing_overhead": overhead,
        "operations_traced": len(traced_pass.samples),
    }
    print(f"tracing overhead: {overhead:.1%} of in-process ops_per_s "
          f"({plain.ops_per_s:.2f} untraced, {traced_pass.ops_per_s:.2f} traced)", file=sys.stderr)
    return metrics, [plain, traced_pass, memory_pass], details


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bgcert", "__init__.py")):
        print(f"error: no src/bgcert in {root}; run from the root of a bgcert checkout", file=sys.stderr)
        return 2
    ctx = workloads.Context(root)
    w = workloads.WORKLOADS[args.workload](ctx, args.seed)
    try:
        if args.trace:
            metrics, passes, details = traced(w, ctx, args.seconds)
        else:
            metrics, run, details = end_to_end(w, args.seconds)
            passes = [run]
    finally:
        ctx.close()
    errors = [e for p in passes for e in p.errors]
    result = {
        "correct": not any(e.startswith("wrong") for e in errors),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    for error in errors[:10]:
        print(error, file=sys.stderr)
    kind = "trace" if args.trace else "result"
    with open(os.path.join(root, f"perfbench-{kind}-{args.workload}.json"), "w") as fh:
        fh.write(dumps({**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                        "errors": errors[:100], **details}, indent=1))
    print(dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
