"""Every name the benchmark's tracer wraps exists in the package.

``benchmarks/tracing.py`` wraps each ``(module, function)`` of its
``TARGETS`` and the call into HiGHS, ``emot.lp_core.linprog``.  That hook is
emot's one call into HiGHS's binding: it returns the ``LPSolution`` or
raises ``LPError``, and keeps ``scipy.optimize.linprog``'s name and keywords
for the tracer, which reads ``c``, ``A_eq`` and ``A_ub`` from its arguments
and ``nit`` from its result.  A name that is gone is only recorded as
absent, and the traced run then lacks that layer's metrics; these checks
make such a rename, or a change of the hook's arguments, fail here instead.
The tracer also reads ``retries`` from the diagnostics that
``emot.approximation.approximate_pairs`` returns, so a change of that
result fails here too.
The tracer is loaded by path, since ``benchmarks`` is not a package.
"""

import collections
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from emot import approximation, lp_core
from emot.measures import DiscreteMeasure, LiftedMeasure
from emot.solvers import CostSpec, solve_mot

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_callable():
    targets = load_tracing().TARGETS
    assert targets
    missing = [
        f"emot.{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"emot.{module}"), name, None))
    ]
    assert missing == []


def test_highs_hook_is_callable():
    assert callable(getattr(lp_core, "linprog", None))


def test_highs_hook_takes_the_tracers_arguments(monkeypatch):
    """``c`` positional, the matrices by keyword and an int ``nit``: what the
    tracer's ``_lp_before``/``_lp_after`` read, which then count the LP."""
    calls, hook = [], lp_core.linprog

    def spy(*args, **kwargs):
        res = hook(*args, **kwargs)
        calls.append((args, kwargs, res))
        return res

    monkeypatch.setattr(lp_core, "linprog", spy)
    lp_core.solve_lp(lp_core.LinearProgram(c=[1.0, 2.0, 3.0], A_eq=[[1.0, 1.0, 2.0]], b_eq=[1.0]))
    lp_core.solve_lp(lp_core.LinearProgram(c=[-1.0, -2.0, 0.0], A_ub=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], b_ub=[1.0, 1.0]))
    tracing, counts = load_tracing(), collections.Counter()
    assert [sorted(k for k in ("A_eq", "A_ub") if kwargs.get(k) is not None) for _, kwargs, _ in calls] == [
        ["A_eq"], ["A_ub"]
    ]
    for args, kwargs, res in calls:
        assert len(args) == 1 and np.shape(args[0]) == (3,) and "c" not in kwargs
        assert all(sparse.issparse(kwargs[k]) for k in ("A_eq", "A_ub") if kwargs.get(k) is not None)
        assert type(res.nit) is int and res.nit >= 0
        tracing._lp_before(counts)(args, kwargs)
        tracing._lp_after(counts)(res)
    assert (counts["lp_core.lp.rows"], counts["lp_core.lp.cols"], counts["lp_core.lp.nnz"]) == (3, 6, 7)
    assert counts["lp_core.highs.iterations"] == sum(res.nit for _, _, res in calls)
    with pytest.raises(lp_core.LPError) as err:
        lp_core.solve_lp(lp_core.LinearProgram(c=[1.0], A_eq=[[1.0]], b_eq=[-1.0]))
    assert err.value.status == "infeasible"


def test_stage_two_result_feeds_the_tracer(monkeypatch):
    """``_pairs_after`` counts one stage per ``approximate_pairs`` call and
    adds the ``retries`` of its diagnostics."""
    results, pairs = [], approximation.approximate_pairs

    def spy(*args):
        out = pairs(*args)
        results.append(out)
        return out

    monkeypatch.setattr(approximation, "approximate_pairs", spy)
    cost = CostSpec(fn=lambda x, u, ys: np.abs(np.asarray(ys) - x))
    pi = solve_mot(DiscreteMeasure([-1, 1], [0.5, 0.5]), DiscreteMeasure([-2, 2], [0.5, 0.5]), cost)["coupling"]
    mu_p = LiftedMeasure.from_measure(DiscreteMeasure([-1.2, 1.1], [0.5, 0.5]))
    nu_p = DiscreteMeasure([-1.9, 1.8], [0.5, 0.5])
    approximation.approximate_coupling(pi, mu_p, nu_p, 0.2)
    [out] = results
    counts = collections.Counter()
    load_tracing()._pairs_after(counts)(out)
    assert counts["approximation.stages"] == 1
    assert counts["approximation.retries"] == out[1]["retries"] > 0
