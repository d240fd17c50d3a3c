"""One workload in one process: set up, then run a timed loop or a traced
pass, and print the result as one JSON line.

Started by ``run.py``; not meant to be run by hand.  Protocol on stdout:
a line ``READY`` once the inputs are ready, then one JSON line with the
result.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "emot", "__init__.py")):
    sys.exit(f"no emot package under {SRC}: the benchmark runs the checkout's own source")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_op(op):
    """(verdict, detail, wall seconds, cpu seconds) of one operation."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # an operation that raises is a failed operation
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return "error", f"{type(exc).__name__}: {exc}", wall, cpu
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    try:
        verdict, detail = op.check(out)
    except Exception:  # a check that cannot read the output rejects it
        verdict, detail = "wrong", traceback.format_exc(limit=3)
    return verdict, detail, wall, cpu


def report_failure(op, verdict, detail):
    if verdict != "ok":
        sys.stderr.write(f"[{op.name}] {verdict}: {detail}\n")


def timed_loop(wl, seconds: float) -> dict:
    """Whole passes over the workload's distinct ops, after one untimed
    warm-up op.  The number of passes is fixed by ``seconds`` and the
    workload's nominal pass time, so a seed always runs the same ops."""
    run_op(wl.ops[0])
    walls, cpus, verdicts = [], [], []
    start = time.perf_counter()
    for _ in range(max(1, round(seconds / wl.pass_s))):
        for op in wl.ops:
            verdict, detail, wall, cpu = run_op(op)
            report_failure(op, verdict, detail)
            walls.append(wall)
            cpus.append(cpu)
            verdicts.append(verdict)
    return {
        "walls": walls,
        "cpus": cpus,
        "verdicts": verdicts,
        "loop_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace_pass(wl, spans_path: str) -> dict:
    """The workload's fixed pass untraced, then traced; per-layer metrics."""
    run_op(wl.trace_ops[0])
    untraced = sum(run_op(op)[2] for op in wl.trace_ops)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    wl.tracer = tracer
    verdicts = []
    traced = 0.0
    for k, op in enumerate(wl.trace_ops):
        tracer.op = f"{k}:{op.name}"
        verdict, detail, wall, _ = run_op(op)
        report_failure(op, verdict, detail)
        verdicts.append(verdict)
        traced += wall
    tracer.op = None
    tracer.write(spans_path)
    return {
        "verdicts": verdicts,
        "metrics": tracing.layer_metrics(tracer, untraced, traced, len(wl.trace_ops)),
        "absent": tracer.absent,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.MAKERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--heldout", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--phase", choices=["setup", "timed", "trace"], required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    wl = workloads.build(args.workload, args.seed, bool(args.heldout), args.run_dir)
    print("READY", flush=True)
    if args.phase == "setup":
        return 0
    if args.phase == "timed":
        result = timed_loop(wl, args.seconds)
    else:
        result = trace_pass(wl, args.spans)
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
