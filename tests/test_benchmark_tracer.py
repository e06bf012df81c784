"""The benchmark's tracer against the package it traces.

perfbench/worker.py wraps package functions by module and name and calls
two more as probes; a function removed or renamed here breaks only traced
benchmark runs, which the perfbench smoke test covers but this suite does
not run.  So the tracer is installed and uninstalled here, on the worker
as it is.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import inclined.cli
import inclined.family
import inclined.tensor_index
import inclined.tensor_projection

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def worker(monkeypatch):
    # worker.py imports its siblings inputs and spans as top-level modules
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("worker", BENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "worker", module)
    spec.loader.exec_module(module)
    yield module
    for name in set(sys.modules) - before - {"worker"}:
        del sys.modules[name]


def test_the_benchmark_tracer_installs_and_uninstalls(worker):
    bindings = [(inclined.tensor_projection, "apply_axis"), (inclined.family, "apply_axis"),
                (inclined.family, "branch_intersection"), (inclined.cli, "json")]
    originals = [getattr(module, name) for module, name in bindings]
    tracer = worker.Tracer()
    worker.install_wrappers(tracer)
    try:
        wrapped = [getattr(module, name) for module, name in bindings]
    finally:
        tracer.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [getattr(module, name) for module, name in bindings] == originals
    # the probes call these at run time, so installing does not look them up
    assert callable(inclined.family.level_leakage_sets)
    assert callable(inclined.tensor_index.blocks_matrix)
