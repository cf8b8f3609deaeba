"""Which excisionlab functions the traced run wraps, and how the per-layer
metrics listed in ``layer_map.json`` are derived from the spans.

Span names are metric prefixes: ``<span>.calls``, ``<span>.rows``,
``<span>.s`` (inclusive time), ``<span>.self_s``, ``<span>.ns_per_row``
(self time per row) and ``<span>.rows_per_call`` follow from the span
totals; the few other metrics are derived in :func:`layer_metrics`.
"""

from __future__ import annotations

import itertools
import json
import weakref
from pathlib import Path
from typing import Optional

import numpy as np

from tracer import NameTotals, Tracer

LAYER_MAP_PATH = Path(__file__).resolve().parent / "layer_map.json"

OVERHEAD = "trace.overhead_s"

# each Dormand-Prince step evaluates the vector field seven times per row
_DP_STAGES = 7


def load_layer_map() -> dict:
    with open(LAYER_MAP_PATH) as fh:
        return json.load(fh)


def _n_rows(value) -> int:
    """Points in a batch argument: leading length of a 2-D array, else 1."""
    return int(np.shape(value)[0]) if np.ndim(value) == 2 else 1


def _batch_rows(pos: int, key: str):
    """Rows of the batch passed as positional ``pos`` or keyword ``key``."""
    def rows(args, kwargs):
        return _n_rows(args[pos] if len(args) > pos else kwargs[key])
    return rows


def _scalar_rows(args, kwargs) -> int:
    """Elements of the broadcast of the leading four arguments of a
    ``(lo, hi, delay, x)`` or ``(a, b, c, x)`` scalar-kit evaluator."""
    return max(int(np.size(a)) for a in args[:4])


def _size_rows(args, kwargs) -> int:
    return int(np.size(args[0] if args else kwargs["t"]))


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


def _cache_size(tracer: Tracer, cache_attr: str, counter: Optional[str] = None):
    """Bookkeeping around a cached method: remember the latest size of the
    instance's cache, and count its growth under ``counter`` if given.

    Sizes are kept per instance for every instance the pass built, freed
    or not, under a serial number of their own (an ``id`` may be reused).
    """
    serials: "weakref.WeakKeyDictionary[object, int]" = weakref.WeakKeyDictionary()
    next_serial = itertools.count()

    def around(method):
        def counted(self, *args, **kwargs):
            before = len(getattr(self, cache_attr))
            try:
                return method(self, *args, **kwargs)
            finally:
                size = len(getattr(self, cache_attr))
                if counter is not None:
                    tracer.count(counter, size - before)
                if self not in serials:
                    serials[self] = next(next_serial)
                tracer.gauge((cache_attr, serials[self]), size)
        return counted
    return around


def instrument(tracer: Tracer) -> None:
    """Wrap every traced function and method; undo with ``tracer.restore()``."""
    from excisionlab import (flow1d, ham_extension, lsc_fields, null_fields,
                             scalar_kit, symflow, trees)

    fn = tracer.patch_function
    fn(symflow, "integrate_batch", "symflow.integrate_batch", _batch_rows(1, "z0"))
    fn(symflow, "_dp_step", "symflow.dp_step", _batch_rows(1, "z"))
    fn(symflow, "_bracket_escapes_batch", "symflow.bracket", _batch_rows(1, "z_prev"))
    fn(symflow, "integrate", "symflow.integrate")
    fn(symflow, "numerical_jacobian", "symflow.numerical_jacobian")
    fn(symflow, "time1_jacobian_batch", "symflow.time1_jacobian_batch",
       _batch_rows(1, "points"))
    fn(symflow, "classify_escape", "symflow.classify_escape", _batch_rows(2, "points"))

    fn(scalar_kit, "bump_mass", "scalar_kit.bump_mass", _size_rows)
    fn(scalar_kit, "bridge_velocity", "scalar_kit.bridge_velocity", _scalar_rows)
    fn(scalar_kit, "ramp_velocity", "scalar_kit.ramp_velocity", _scalar_rows)
    for meth in ("value", "value_and_grad", "grad"):
        tracer.patch_method(scalar_kit.DefiningFunction, meth,
                            "scalar_kit.defining_function", _batch_rows(1, "points"))

    # every HamiltonianField subclass, including both reversed wrappers;
    # vector_field is inherited from the base class by most of them
    for cls in _subclasses(ham_extension.HamiltonianField):
        for meth in ("value", "grad", "vector_field"):
            if meth in vars(cls):
                tracer.patch_method(cls, meth, f"ham_extension.{meth}",
                                    _batch_rows(1, "z"))

    for name in ("flow_map", "adaptive_quad", "forward_time", "backward_time"):
        fn(flow1d, name, f"flow1d.{name}")
    fn(flow1d, "_gk15", "flow1d.gk15")

    fn(null_fields, "classify_epigraph", "null_fields.classify_epigraph")
    fn(null_fields, "presympl_flow", "null_fields.presympl_flow")

    fn(lsc_fields, "build_lsc_field", "lsc_fields.build_lsc_field")
    tracer.patch_method(
        lsc_fields.GluedField, "fiber_data", "lsc_fields.fiber_data",
        around=_cache_size(tracer, "_fiber_cache", "lsc_fields.fiber_data.misses"))
    tracer.patch_method(
        lsc_fields.BaireSequence, "raw_values", "lsc_fields.raw_values",
        _batch_rows(1, "points"), around=_cache_size(tracer, "_cache"))
    tracer.patch_method(lsc_fields._NeighborIndex, "pairs", "lsc_fields.neighbor_pairs")

    tracer.patch_method(trees.StagedExcision, "forward_batch", "trees.forward_batch",
                        _batch_rows(1, "pts"))
    tracer.patch_method(trees.StagedExcision, "forward_point", "trees.forward_point")
    tracer.patch_method(trees.StagedExcision, "inverse_batch", "trees.inverse_batch",
                        _batch_rows(1, "pts"))


_SUFFIXES = {
    "calls": lambda t: t.calls,
    "rows": lambda t: t.rows,
    "s": lambda t: t.incl_s,
    "self_s": lambda t: t.self_s,
    "ns_per_row": lambda t: 1e9 * t.self_s / t.rows if t.rows else 0.0,
    "rows_per_call": lambda t: t.rows / t.calls if t.calls else 0.0,
}


def layer_metrics(tracer: Tracer, points: int) -> dict:
    """Every per-layer metric of ``layer_map.json`` for one traced pass,
    except ``trace.overhead_s``, which needs an untraced pass to compare.

    ``points`` is the sum of the ``points`` of every check of the pass.
    """
    totals = tracer.totals()
    fiber = totals.get("lsc_fields.fiber_data", NameTotals())
    misses = tracer.counters.get("lsc_fields.fiber_data.misses", 0)
    flow_maps = totals.get("flow1d.flow_map", NameTotals()).calls
    special = {
        "scenarios.points": points,
        "symflow.rhs_rows": _DP_STAGES * totals.get("symflow.dp_step", NameTotals()).rows,
        "symflow.bracket.rhs_rows":
            _DP_STAGES * tracer.within("symflow.dp_step", "symflow.bracket").rows,
        "flow1d.gk15_per_flow_map":
            tracer.within("flow1d.gk15", "flow1d.flow_map").calls / flow_maps
            if flow_maps else 0.0,
        "lsc_fields.fiber_data.misses": misses,
        "lsc_fields.fiber_data.hit_ratio":
            (fiber.calls - misses) / fiber.calls if fiber.calls else 0.0,
        "lsc_fields.cache_entries": sum(tracer.gauges.values()),
    }
    out = {}
    for name in load_layer_map()["metrics"]:
        if name == OVERHEAD:
            continue
        if name in special:
            out[name] = special[name]
            continue
        span, suffix = name.rsplit(".", 1)
        out[name] = _SUFFIXES[suffix](totals.get(span, NameTotals()))
    return out
