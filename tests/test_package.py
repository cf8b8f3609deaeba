"""Package-wide contracts: every exported name exists, every function the
benchmark in ``perfbench/`` wraps by name is still there to wrap, and every
module stays small enough to compile cheaply."""

import importlib
import os
import pkgutil
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

import excisionlab
from excisionlab import flow1d, lsc_fields, null_fields, symflow, trees

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


@pytest.mark.parametrize("name", MODULES)
def test_module_stays_below_8192_parser_tokens(name):
    # every benchmark worker compiles the package from source, and past
    # 8,192 tokens in one module the parser's token array doubles: about
    # 0.3 to 0.6 MB more peak RSS per worker.  Comments and non-logical
    # newlines are not parser tokens.
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with open(importlib.import_module(name).__file__, "rb") as fh:
        count = sum(tok.type not in skipped for tok in tokenize.tokenize(fh.readline))
    assert count < 8192, f"{name} has {count} parser tokens"


def test_importing_the_scenarios_leaves_the_thread_pool_unloaded():
    # lsc_fields imports concurrent.futures only when it first runs a batch
    # of several blocks, so importing the scenarios costs no more
    code = "import sys, excisionlab.scenarios; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(excisionlab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"
