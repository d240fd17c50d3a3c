"""The emot benchmark: seeded closed-loop workloads, end-to-end metrics from
untimed-warm-up, untraced runs, and per-module metrics from a traced run.

One workload, in the form of the command in BENCHMARK.json::

    python3 benchmarks/run.py --workload lp_large --seed 3 --seconds 30 --trace 0

Every workload, with a table of every metric::

    python3 benchmarks/run.py --all [--trace 1] [--seed N] [--heldout]

Each workload runs in its own worker process (one client, each call
waiting for the previous one), so one workload's peak RSS cannot hide
another's.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of two traced passes, whose exact counts must agree.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--heldout``
draws the inputs from a stream disjoint from the one used while the
benchmark was tuned.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RUN_ROOT = os.path.join(ROOT, ".bench_run")

GATED = ["lp_large", "stability_approx"]
WORKLOADS = GATED + ["fw_convex"]
SETUP_SAMPLES = 3  # process start to inputs ready, measured this many times per run
TRACE_RUNS = 2  # traced passes per run, in separate processes; their counts must agree
DEADLINE_S = 170.0
TAIL_BEYOND = 10
EXACT_UNITS = ("count", "bytes", "ratio")  # per-layer metrics two traced runs must repeat exactly

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
]
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """A worker failed, timed out or broke the protocol."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    """The environment with every BLAS thread count capped at nproc."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        val = env.get(var, "")
        env[var] = str(min(int(val), nproc())) if val.isdigit() and int(val) > 0 else str(nproc())
    return env


def machine_record() -> dict:
    env = worker_env()
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "blas_env": {var: env[var] for var in BLAS_VARS},
    }


class Worker:
    """One worker process, its stdout read line by line on a thread."""

    def __init__(self, args: list, deadline: float):
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER] + args, stdout=subprocess.PIPE, text=True,
            env=worker_env(), cwd=ROOT,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def next_line(self) -> str:
        try:
            line = self.lines.get(timeout=max(self.deadline - time.monotonic(), 0.0))
        except queue.Empty:
            raise BenchError("worker timed out") from None
        if line is None:
            raise BenchError(f"worker exited early with code {self.proc.wait()}")
        return line

    def ready(self) -> float:
        """Seconds from process start until the worker's inputs were ready."""
        if self.next_line() != "READY":
            raise BenchError("worker protocol: expected READY")
        return time.perf_counter() - self.started

    def finish(self):
        try:
            code = self.proc.wait(timeout=max(self.deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            code = None
        if code != 0:
            self.stop()
            raise BenchError(f"worker ended with code {code}")
        self.reader.join()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.reader.join()


def run_worker(common: list, phase: str, deadline: float, extra=()) -> tuple:
    """(setup seconds, result dict or None) of one worker process."""
    w = Worker(common + ["--phase", phase] + list(extra), deadline)
    try:
        setup = w.ready()
        result = None if phase == "setup" else json.loads(w.next_line())
        w.finish()
    finally:
        w.stop()
    return setup, result


def tail(walls: list) -> tuple:
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, or the maximum when there are fewer samples."""
    s = sorted(walls)
    rank = len(s) - TAIL_BEYOND if len(s) > TAIL_BEYOND else len(s)
    return s[rank - 1], 100.0 * rank / len(s)


def end_to_end(setups: list, r: dict) -> tuple:
    walls, verdicts = r["walls"], r["verdicts"]
    n = len(walls)
    passed = verdicts.count("ok")
    value, pct = tail(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": passed / sum(walls),
        "op_s_p50": statistics.median(walls),
        "op_s_tail": value,
        "cpu_s_per_op": sum(r["cpus"]) / n,
        "peak_rss_mb": r["peak_rss_mb"],
        "ok_ratio": passed / n,
    }
    detail = {
        "samples": {"setup_s": len(setups), "op_s": n},
        "op_s_tail_percentile": pct,
        "fail_ratio": 1.0 - passed / n,
        "verdicts": {v: verdicts.count(v) for v in sorted(set(verdicts))},
        "loop_s": r["loop_s"],
        "versions": r["versions"],
    }
    return {k: {"value": metrics[k], "unit": unit} for k, unit in END_TO_END}, detail


def run_workload(name: str, seed: int, heldout: bool, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    run_dir = os.path.join(RUN_ROOT, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--heldout", str(int(heldout)),
              "--seconds", str(seconds), "--run-dir", run_dir]
    try:
        if trace:
            return run_traced(name, seed, heldout, common, deadline)
        setups = [run_worker(common, "setup", deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        setup, r = run_worker(common, "timed", deadline)
        setups.append(setup)
        metrics, detail = end_to_end(setups, r)
        verdicts = r["verdicts"]
        return {
            "correct": "wrong" not in verdicts,
            "attempted": len(verdicts),
            "failed": len(verdicts) - verdicts.count("ok"),
            "metrics": metrics,
            "detail": detail,
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_traced(name, seed, heldout, common, deadline) -> dict:
    spans_dir = os.path.join(RUN_ROOT, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    tag = f"{name}-{'heldout-' if heldout else ''}seed{seed}"
    spans = [os.path.join(spans_dir, f"{tag}-{k}.jsonl") for k in range(TRACE_RUNS)]
    runs = [run_worker(common, "trace", deadline, ["--spans", path])[1] for path in spans]
    first = runs[0]["metrics"]
    mismatched = sorted(
        k for k, v in first.items()
        if v["unit"] in EXACT_UNITS
        and any(r["metrics"].get(k, {}).get("value") != v["value"] for r in runs[1:])
    )
    verdicts = [v for r in runs for v in r["verdicts"]]
    return {
        "correct": "wrong" not in verdicts and not mismatched,
        "attempted": len(verdicts),
        "failed": len(verdicts) - verdicts.count("ok"),
        "metrics": first,
        "detail": {
            "count_mismatches": mismatched,
            "absent": runs[0]["absent"],
            "overhead_s": [r["metrics"]["trace.overhead_s"]["value"] for r in runs],
            "versions": runs[0]["versions"],
            "spans_files": [os.path.relpath(path, ROOT) for path in spans],
        },
    }


def print_table(results: dict, trace: bool):
    names = list(results)
    rows = list(dict.fromkeys(k for r in results.values() for k in r["metrics"]))
    width = max(len(k) for k in rows) + 2
    print("metric".ljust(width) + "unit".ljust(8) + "".join(n.rjust(18) for n in names))
    for k in rows:
        unit = next(r["metrics"][k]["unit"] for r in results.values() if k in r["metrics"])
        cells = []
        for n in names:
            m = results[n]["metrics"].get(k)
            cells.append(("absent" if m is None else f"{m['value']:.6g}").rjust(18))
        print(k.ljust(width) + unit.ljust(8) + "".join(cells))
    for n in names:
        r, d = results[n], results[n]["detail"]
        line = f"{n}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}"
        if not trace:
            line += (f" samples={d['samples']} op_s_tail=p{d['op_s_tail_percentile']:.1f}"
                     f" fail_ratio={d['fail_ratio']:.4g} verdicts={d['verdicts']}")
        else:
            line += f" overhead_s={d['overhead_s']} count_mismatches={d['count_mismatches']}"
            if d["absent"]:
                line += f" absent={d['absent']}"
        print(line)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload and print a table")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--heldout", action="store_true", help="draw inputs from the held-out seed stream")
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")

    machine = machine_record()
    names = WORKLOADS if args.all else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.heldout, args.seconds, bool(args.trace))
            if args.all:
                sys.stderr.write(f"{name}: done\n")
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print("machine " + json.dumps(machine))
    for name in names:
        print(f"workload {name}: {json.dumps(results[name]['detail'], sort_keys=True)}")
    print_table(results, bool(args.trace))
    if args.all:
        print(json.dumps({n: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
                          for n, r in results.items()}))
    else:
        r = results[args.workload]
        print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
