"""Package-wide contracts: every exported name exists, and every function
the benchmark in ``perfbench/`` wraps by name is still there to wrap."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import excisionlab
from excisionlab import flow1d, null_fields, symflow, trees

MODULES = ["excisionlab"] + sorted(
    f"excisionlab.{info.name}" for info in pkgutil.iter_modules(excisionlab.__path__))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_benchmark_wraps_every_name_it_traces(monkeypatch):
    # instrument() looks each traced function and method up by name, so a
    # deleted name fails here rather than only in a traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import instrument
    from tracer import Tracer

    originals = (flow1d.flow_map, symflow.integrate_batch)
    tracer = Tracer()
    try:
        instrument(tracer)
        # names imported into other modules are wrapped there too
        assert null_fields.flow_map is flow1d.flow_map is not originals[0]
        assert trees.integrate_batch is symflow.integrate_batch is not originals[1]
    finally:
        tracer.restore()
    assert (flow1d.flow_map, symflow.integrate_batch) == originals
