"""Package-wide contracts: every exported name exists, every function the
benchmark in ``perfbench/`` wraps by name is still there to wrap, and the
scenarios module stays small enough to compile cheaply."""

import importlib
import pkgutil
import tokenize
from pathlib import Path

import numpy as np
import pytest

import excisionlab
from excisionlab import flow1d, lsc_fields, null_fields, scenarios, symflow, trees

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
    field = lsc_fields.build_lsc_field(
        lsc_fields.LscSpec(base_lo=(0.5,), base_hi=(0.5,), pieces=()), depth=2)
    tracer = Tracer()
    try:
        instrument(tracer)
        # names imported into other modules are wrapped there too
        assert null_fields.flow_map is flow1d.flow_map is not originals[0]
        assert trees.integrate_batch is symflow.integrate_batch is not originals[1]
        # the wrappers that read a cache attribute around each call run
        field.fiber_data(np.array([0.5]))
        field.baire.raw_values(np.array([[0.25]]))
    finally:
        tracer.restore()
    assert (flow1d.flow_map, symflow.integrate_batch) == originals


def test_scenarios_module_stays_below_8192_parser_tokens():
    # every benchmark worker compiles scenarios.py from source, and past
    # 8,192 tokens the parser's token array doubles: about 0.3 to 0.6 MB
    # more peak RSS per worker.  Comments and non-logical newlines are not
    # parser tokens.
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with open(scenarios.__file__, "rb") as fh:
        count = sum(tok.type not in skipped for tok in tokenize.tokenize(fh.readline))
    assert count < 8192, f"scenarios.py has {count} parser tokens"
