"""Spans around the calls into each ``emot`` module, recorded from outside
the package.

``install`` wraps every function in ``TARGETS`` in every ``emot.*`` module
namespace that binds it (the package imports with ``from .x import f``, so
patching only the defining module would miss most calls).  It also wraps
the call into HiGHS (``emot.lp_core.linprog``) for its time, iteration
count and matrix sizes, and the ``DiscreteMeasure`` / ``LiftedMeasure``
initialisers for construction counts.

A span is ``[name, start, end, parent index, op id]``.  Spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time

import numpy as np
from scipy import sparse

BOOKKEEPING = "trace.bookkeeping"

# (module, function) pairs; the layer metric names are "<module>.<function>.calls|self_s"
TARGETS = [
    ("lp_core", "solve_lp"),
    ("lp_core", "transport_plan"),
    ("couplings", "martingale_polytope_lp"),
    ("couplings", "adapted_wasserstein"),
    ("couplings", "coupling_from_plan"),
    ("couplings", "disintegrate"),
    ("measures", "wasserstein_line"),
    ("measures", "check_convex_order"),
    ("convex_order", "convex_min"),
    ("convex_order", "convex_order_projection"),
    ("convex_order", "irreducible_decomposition"),
    ("solvers", "solve_extended_mot"),
    ("solvers", "solve_wmot_fw"),
    ("solvers", "price_american"),
    ("solvers", "vix_dual_lp"),
    ("solvers", "vix_primal_lp"),
    ("solvers", "copula_lift"),
    ("approximation", "approximate_coupling"),
    ("approximation", "approximate_pairs"),
    ("approximation", "split_marginals"),
    ("approximation", "min_cost_martingale_rearrangement"),
    ("stability", "run_stability"),
    ("stability", "perturb_marginals"),
    ("stability", "emit"),
    ("cli", "main"),
]
HIGHS = "lp_core.highs"

# metrics derived from results and counters, beyond "<target>.calls|self_s"
EXTRA_METRICS = [
    ("lp_core.highs.calls", "count"),
    ("lp_core.highs.self_s", "s"),
    ("lp_core.highs.iterations", "count"),
    ("lp_core.lp.rows", "count"),
    ("lp_core.lp.cols", "count"),
    ("lp_core.lp.nnz", "count"),
    ("lp_core.lp.matrix_bytes_max", "bytes"),
    ("measures.constructions", "count"),
    ("solvers.solve_wmot_fw.iterations", "count"),
    ("solvers.fw.kernel_cost_calls", "count"),
    ("solvers.fw.kernel_grad_calls", "count"),
    ("solvers.fw.certified", "count"),
    ("solvers.fw.certified_ratio", "ratio"),
    ("solvers.fw.capped", "count"),
    ("approximation.stages", "count"),
    ("approximation.retries", "count"),
    ("approximation.window_useful_ratio", "ratio"),
    ("stability.rows", "count"),
    ("stability.error_rows", "count"),
    ("stability.error_row_ratio", "ratio"),
    ("cli.out_bytes", "bytes"),
    ("trace.ops", "count"),
    ("trace.spans", "count"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
]

PER_LAYER = [
    (f"{mod}.{fn}.{kind}", unit)
    for mod, fn in TARGETS
    for kind, unit in (("calls", "count"), ("self_s", "s"))
] + EXTRA_METRICS


class Tracer:
    """In-memory span recorder for one traced pass (one thread)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts = collections.Counter()
        self.op = None
        self.absent: list = []

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` inside a span; ``before(args, kwargs)`` runs in a bookkeeping
        span (excluded from the parent's self time), ``after(result)`` after."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                tracer.enter(BOOKKEEPING)
                try:
                    before(args, kwargs)
                finally:
                    tracer.leave()
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if after is not None:
                after(out)
            return out

        return wrapper

    def enter(self, name: str):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self.op])

    def leave(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def self_times(self) -> tuple:
        """(calls, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = collections.Counter()
        self_s = collections.defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[k]
        return calls, self_s

    def write(self, path: str):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _matrix_stats(A) -> tuple:
    """(rows, nnz, bytes) of a constraint matrix as passed to the solver."""
    if A is None:
        return 0, 0, 0
    if sparse.issparse(A):
        A = A.tocsr()
        return A.shape[0], A.nnz, A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    A = np.asarray(A)
    return A.shape[0], int(np.count_nonzero(A)), A.nbytes


def _emot_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "emot" or name.startswith("emot."))]


def _rebind(orig, new):
    """Replace ``orig`` by ``new`` wherever an emot module binds it."""
    for mod in _emot_modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def install(tracer: Tracer):
    """Wrap the targets, HiGHS and the measure initialisers; missing targets
    (renamed or removed functions) are recorded in ``tracer.absent``."""
    counts = tracer.counts
    after = {
        "solvers.solve_wmot_fw": _fw_after(counts),
        "approximation.approximate_pairs": _pairs_after(counts),
        "stability.run_stability": _stability_after(counts),
    }
    for mod_name, fn_name in TARGETS:
        mod = sys.modules.get(f"emot.{mod_name}")
        orig = getattr(mod, fn_name, None)
        name = f"{mod_name}.{fn_name}"
        if not callable(orig):
            tracer.absent.append(name)
            continue
        _rebind(orig, tracer.wrap(name, orig, after=after.get(name)))

    lp_core = sys.modules.get("emot.lp_core")
    orig = getattr(lp_core, "linprog", None)
    if callable(orig):
        _rebind(orig, tracer.wrap(HIGHS, orig, before=_lp_before(counts), after=_lp_after(counts)))
    else:
        tracer.absent.append(HIGHS)

    from emot import measures

    for cls in (measures.DiscreteMeasure, measures.LiftedMeasure):
        cls.__init__ = _counted_init(cls.__init__, counts)


def _counted_init(init, counts):
    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        counts["measures.constructions"] += 1
        init(self, *args, **kwargs)

    return wrapper


def _lp_before(counts):
    def before(args, kwargs):
        c = args[0] if args else kwargs["c"]
        rows_eq, nnz_eq, bytes_eq = _matrix_stats(kwargs.get("A_eq"))
        rows_ub, nnz_ub, bytes_ub = _matrix_stats(kwargs.get("A_ub"))
        counts["lp_core.lp.rows"] += rows_eq + rows_ub
        counts["lp_core.lp.cols"] += int(np.size(c))
        counts["lp_core.lp.nnz"] += nnz_eq + nnz_ub
        counts["lp_core.lp.matrix_bytes_max"] = max(
            counts["lp_core.lp.matrix_bytes_max"], bytes_eq + bytes_ub
        )

    return before


def _lp_after(counts):
    def after(res):
        counts["lp_core.highs.iterations"] += int(getattr(res, "nit", 0) or 0)

    return after


def _fw_after(counts):
    cap = getattr(sys.modules["emot.solvers"], "MAX_FW_ITER", 500)  # 500 when this file was written

    def after(r):
        counts["solvers.solve_wmot_fw.iterations"] += int(r["iterations"])
        counts["solvers.fw.certified"] += int(r["fw_gap"] <= 1e-6)
        counts["solvers.fw.capped"] += int(r["iterations"] >= cap)

    return after


def _pairs_after(counts):
    def after(out):
        counts["approximation.stages"] += 1
        counts["approximation.retries"] += int(out[1]["retries"])

    return after


def _stability_after(counts):
    def after(report):
        counts["stability.rows"] += len(report.rows)
        counts["stability.error_rows"] += sum(r["status"] != "ok" for r in report.rows)

    return after


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float, ops: int) -> dict:
    """Every per-layer metric as ``{name: {"value", "unit"}}``; metrics of
    absent targets are left out."""
    calls, self_s = tracer.self_times()
    counts = tracer.counts
    values = {}
    for mod, fn in TARGETS:
        name = f"{mod}.{fn}"
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = self_s[name]
    values["lp_core.highs.calls"] = calls[HIGHS]
    values["lp_core.highs.self_s"] = self_s[HIGHS]
    for name, _ in EXTRA_METRICS:
        if name in counts:
            values[name] = counts[name]
    values["solvers.fw.certified_ratio"] = _ratio(
        counts["solvers.fw.certified"], calls["solvers.solve_wmot_fw"])
    values["approximation.window_useful_ratio"] = _ratio(
        counts["approximation.stages"], counts["approximation.stages"] + counts["approximation.retries"])
    values["stability.error_row_ratio"] = _ratio(counts["stability.error_rows"], counts["stability.rows"])
    values["trace.ops"] = ops
    values["trace.spans"] = len(tracer.spans)
    values["trace.untraced_s"] = untraced_s
    values["trace.traced_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    gone = set(tracer.absent)
    out = {}
    for name, unit in PER_LAYER:
        if any(name.startswith(g + ".") for g in gone):
            continue
        out[name] = {"value": values.get(name, 0), "unit": unit}
    return out
