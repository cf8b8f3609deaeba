"""In-memory span tracer that instruments a package from outside it.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it began (its parent) and how many rows it was given.
Spans are appended to flat arrays, so millions of calls stay cheap to
record, and are only aggregated and written out after the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

RowsFn = Callable[[tuple, dict], int]


@dataclass
class NameTotals:
    """Aggregates of every span with one name.

    ``calls``, ``rows`` and ``incl_s`` count only outermost spans (no
    ancestor of the same name), so a wrapper that forwards to a wrapped
    base method is not counted twice; ``self_s`` sums every span's
    duration minus the time its direct child spans cover.
    """

    calls: int = 0
    rows: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records spans of wrapped functions and can undo every patch."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.counters: dict[str, int] = {}
        self.gauges: dict[object, int] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, key, value: int) -> None:
        """Remember the latest ``value`` seen under ``key``."""
        self.gauges[key] = value

    @contextmanager
    def span(self, name: str):
        """Record one span around the body of a ``with`` block."""
        i = len(self.name_id)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.rows.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, rows: Optional[RowsFn] = None) -> Callable:
        """``fn`` with one span recorded per call."""
        nid = self._id(name)
        name_id, parent, rows_arr, start, end = (
            self.name_id, self.parent, self.rows, self.start, self.end)
        stack = self._stack
        clock = time.perf_counter

        # the body of span() inlined: this runs on every traced call
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            rows_arr.append(rows(args, kwargs) if rows is not None else 0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    # -- patching ----------------------------------------------------------

    def patch_function(self, module, attr: str, name: str,
                       rows: Optional[RowsFn] = None) -> None:
        """Wrap ``module.attr`` in every loaded module of the same package
        that binds the same object, so ``from m import f`` callers are
        traced too."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, rows)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != package:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, traced)

    def patch_method(self, cls: type, attr: str, name: str,
                     rows: Optional[RowsFn] = None,
                     around: Optional[Callable[[Callable], Callable]] = None) -> None:
        """Wrap a method defined on ``cls`` itself; ``around`` may first
        wrap the original with extra bookkeeping."""
        original = vars(cls)[attr]
        inner = around(original) if around is not None else original
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, inner, rows))

    def restore(self) -> None:
        """Put back every original binding, newest patch first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.intc).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "rows": np.frombuffer(self.rows, dtype=np.int64).copy(),
        }

    def totals(self) -> dict[str, NameTotals]:
        """Per-name aggregates of every span recorded so far."""
        a = self.arrays()
        nid, par = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = par >= 0
        covered = np.bincount(par[has_parent], weights=dur[has_parent],
                              minlength=nid.size)
        own = dur - covered
        outer = ~self._has_ancestor(nid, par, same_name=True)
        out = {}
        for k, name in enumerate(self.names):
            mine = nid == k
            top = mine & outer
            out[name] = NameTotals(
                calls=int(top.sum()),
                rows=int(a["rows"][top].sum()),
                incl_s=float(dur[top].sum()),
                self_s=float(own[mine].sum()),
            )
        return out

    def within(self, name: str, ancestor: str) -> NameTotals:
        """Calls and rows of spans named ``name`` that ran inside a span
        named ``ancestor``."""
        if name not in self._ids or ancestor not in self._ids:
            return NameTotals()
        a = self.arrays()
        nid, par = a["name_id"], a["parent"]
        inside = self._has_ancestor(nid, par, ancestor=self._ids[ancestor])
        mine = inside & (nid == self._ids[name])
        return NameTotals(calls=int(mine.sum()), rows=int(a["rows"][mine].sum()))

    @staticmethod
    def _has_ancestor(nid: np.ndarray, par: np.ndarray, same_name: bool = False,
                      ancestor: int = -1) -> np.ndarray:
        """Per span, whether some ancestor has the span's own name
        (``same_name``) or the name id ``ancestor``."""
        flag = np.zeros(nid.size, dtype=bool)
        anc = par.copy()
        live = np.nonzero(anc >= 0)[0]
        while live.size:
            want = nid[live] if same_name else ancestor
            flag[live] |= nid[anc[live]] == want
            anc[live] = par[anc[live]]
            live = live[anc[live] >= 0]
        return flag

    def save(self, path: str) -> None:
        """Write every span, with the name table, to a compressed ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
