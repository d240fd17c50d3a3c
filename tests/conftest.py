import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from emot import stability

# Property tests draw the same examples on every run, and no example fails
# for running slowly on a loaded host.
settings.register_profile("emot", derandomize=True, deadline=None)
settings.load_profile("emot")


@pytest.fixture(autouse=True)
def fresh_base_solves():
    """Each test starts with no stability base solve kept, so a test that
    counts solves counts the same whatever ran before it."""
    stability._BASES.clear()


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's input generators, loaded by path, as ``benchmarks`` is
    not a package; its dataclasses need the module in ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module
