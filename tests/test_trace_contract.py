"""Every name the benchmark's tracer wraps exists in the package.

``benchmarks/tracing.py`` wraps each ``(module, function)`` of its
``TARGETS`` and the call into HiGHS, ``emot.lp_core.linprog``.  A name that
is gone is only recorded as absent, and the traced run then lacks that
layer's metrics; these checks make such a rename fail here instead.  The
tracer is loaded by path, since ``benchmarks`` is not a package.
"""

import importlib
import importlib.util
from pathlib import Path

from emot import lp_core

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
