"""Staged excision of piecewise-linear trees in the plane.

A finite tree is given by nodes and straight edges.  Removing one node (the
root) leaves an open-rooted tree; its branches are excised leaf first, each
through its own area-preserving strip chart:

* rotate/translate the branch onto the positive axis (a proper rotation is
  symplectic in the plane),
* rescale by the cotangent lift of the affine map sending the branch onto
  the model interval, leaf to 0, node end to 1,
* pull back the planar ray Hamiltonian whose cutoff tube pinches at the
  node: the strip half-width decays linearly toward the node, so sibling
  strips at a junction stay disjoint inside their angular sectors.

The composed time-1 maps excise the whole tree into its special node while
fixing everything outside the union of strips bitwise (every stage field
vanishes there identically).  The special node itself is not excised: an
open-rooted tree is a tree minus its root, and a tree retracted onto a kept
point splits there into open-rooted components, each excised into that
point, so both are the same staged construction.

One :class:`WorldBranchField` holds every stage's chart as a table and
evaluates rows of any stage in one row-wise kernel call; the support test
:meth:`StagedExcision.in_support` reads the same table.  So each of the
composed maps, forward and backward, is one staged
:func:`~excisionlab.symflow.integrate_batch` call, in which a row starts
its next stage as soon as it completes the last one, and a row's image is
bitwise that of its chain of one-stage flows, whatever its batch.  The
forward map returns that call's :class:`~excisionlab.symflow.FlowOutcome`
as it is: callers read ``completed``, ``status`` and ``stage`` (the stage a
row escaped or failed in) and slice it as they slice any other flow.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ExcisedPointError, InputError
from .ham_extension import (HamiltonianField, _as_batch, _ray_grad,
                            _ray_value)
from .symflow import DEFAULT_TOL, FlowOutcome, integrate_batch

__all__ = [
    "TreeSpec",
    "BranchChart",
    "WorldBranchField",
    "strip_chart",
    "StagedExcision",
    "excise_tree",
]


def _is_index(i) -> bool:
    """Whether ``i`` is an integer that can index a node (not a bool)."""
    return isinstance(i, numbers.Integral) and not isinstance(i, bool)


@dataclass(frozen=True)
class TreeSpec:
    """Piecewise-linear tree in the plane.

    ``special`` is the node the tree is excised into and the one node that
    stays: the root of an open-rooted tree, or the kept point a tree is
    retracted onto.
    ``w0`` caps strip half-widths; ``eps`` is the model-chart tail fraction
    behind each leaf.
    """

    nodes: tuple
    edges: tuple
    special: int = 0
    w0: float = 0.05
    eps: float = 0.4

    def __post_init__(self):
        n = len(self.nodes)
        if not all(np.shape(node) == (2,) for node in self.nodes):
            raise InputError("tree nodes must be points of the plane")
        # written to fail closed: NaN is in no open interval
        if not all(-math.inf < c < math.inf for node in self.nodes for c in node):
            raise InputError("tree nodes must be finite")
        if len(set(map(tuple, self.nodes))) != n:
            raise InputError("tree nodes must be distinct points")
        if isinstance(self.w0, bool) or not 0.0 < self.w0 < math.inf:
            raise InputError(f"w0 must be positive and finite, got {self.w0!r}")
        if not 0.0 < self.eps < 1.0:
            raise InputError(f"eps must lie in (0, 1), got {self.eps!r}")
        if not _is_index(self.special):
            raise InputError(
                f"special must be an integer node index, got {self.special!r}")
        if not (0 <= self.special < n):
            raise InputError("special node index out of range")
        if len(self.edges) != n - 1:
            raise InputError("a tree on n nodes has n-1 edges")
        for a, b in self.edges:
            if (not (_is_index(a) and _is_index(b)) or a == b
                    or not (0 <= a < n and 0 <= b < n)):
                raise InputError("bad edge")
        # connectivity check (depth-first)
        adj = self.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != n:
            raise InputError("edge graph is not connected")

    def adjacency(self) -> dict:
        adj = {i: [] for i in range(len(self.nodes))}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def node_array(self, i: int) -> np.ndarray:
        return np.asarray(self.nodes[i], dtype=float)


# the entries of BranchChart.columns() past the chart map that the field
# reads: the world-to-model Jacobian, h_coef and eps
_JAC = slice(7, 11)
_H_COEF, _EPS = 11, 12


def _to_model(pts, cols):
    """Model coordinates ``(s/L, r*L)`` of the rows of ``pts``, where
    ``cols`` is :meth:`BranchChart.columns` (one value per column) or its
    transposed gather (one entry per row).  The rotation is written out
    row-wise: a 2x2 matrix product would round differently on one row
    (BLAS gemv) and on many (gemm)."""
    lx, ly, r00, r01, r10, r11, length = cols[:7]
    dx = pts[:, 0] - lx
    dy = pts[:, 1] - ly
    out = np.empty_like(pts)
    out[:, 0] = (dx * r00 + dy * r01) / length
    out[:, 1] = (dx * r10 + dy * r11) * length
    return out


def _tube_coordinate(model, h_coef, eps):
    """Model coordinate ``x1`` inside the tube ``{x1 > -eps, y1^2 <
    h_coef (1 - x1)^2}``, minus infinity outside it."""
    x1, y1 = model[:, 0], model[:, 1]
    h = h_coef * np.maximum(1.0 - x1, 0.0) ** 2
    return np.where((x1 > -eps) & (y1 * y1 < h), x1, -np.inf)


@dataclass(frozen=True)
class BranchChart:
    """Area-preserving chart of a tapered strip around one branch.

    World to model: ``(x1, y1) = (s/L, r*L)`` where ``(s, r)`` are the
    rotated frame coordinates with the leaf at the origin and the node at
    ``s = L``.  The map is a rotation composed with the cotangent lift of
    ``s -> s/L``, hence has Jacobian determinant 1 everywhere.
    """

    leaf: tuple
    node: tuple
    length: float
    rot: tuple              # row-major 2x2 world->frame rotation
    h_coef: float           # model tube: y1^2 < h_coef (1 - x1)^2
    eps: float

    def columns(self) -> np.ndarray:
        """The chart as one row of numbers: the leaf, the rotation, the
        length, the row-major world-to-model Jacobian ``diag(1/L, L) @
        rot``, ``h_coef`` and ``eps``."""
        inv = 1.0 / self.length
        r00, r01, r10, r11 = self.rot
        return np.array([*self.leaf, *self.rot, self.length,
                         inv * r00, inv * r01, self.length * r10,
                         self.length * r11, self.h_coef, self.eps])

    def from_model(self, mpts: np.ndarray) -> np.ndarray:
        mpts = np.asarray(mpts, dtype=float)
        frame = np.empty_like(mpts)
        frame[:, 0] = mpts[:, 0] * self.length
        frame[:, 1] = mpts[:, 1] / self.length
        return frame @ np.reshape(self.rot, (2, 2)) + np.asarray(self.leaf)

    def max_half_width(self) -> float:
        """World-space half-width of the full cutoff tube at its widest,
        the tail end ``x1 = -eps``."""
        return math.sqrt(self.h_coef) * (1.0 + self.eps) / self.length


def strip_chart(leaf, node, sibling_dirs: Sequence, w0: float,
                eps: float) -> BranchChart:
    """Build the tapered strip chart of the branch ``leaf -> node``.

    ``sibling_dirs`` are unit vectors at the node toward its other
    neighbours; the taper slope is capped at a fraction of their smallest
    separation half-angle so sibling strips cannot meet.
    """
    leaf = np.asarray(leaf, dtype=float)
    node = np.asarray(node, dtype=float)
    length = float(np.linalg.norm(node - leaf))
    if length <= 0.0:
        raise InputError("degenerate branch")
    e = (node - leaf) / length
    rot = np.array([[e[0], e[1]], [-e[1], e[0]]])

    inbound = -e   # direction from the node back along this branch
    theta_min = math.pi
    for d in sibling_dirs:
        d = np.asarray(d, dtype=float)
        cosang = float(np.clip(np.dot(inbound, d), -1.0, 1.0))
        theta_min = min(theta_min, math.acos(cosang))
    if theta_min <= 0.0:
        raise InputError("coincident sibling directions at the node")
    slope_cap = 0.45 * math.tan(min(0.5 * theta_min, 1.4))

    root_w = 0.9 * min(w0 * length / (1.0 + eps), slope_cap * length * length)
    h_coef = root_w * root_w
    return BranchChart(
        leaf=tuple(leaf), node=tuple(node), length=length,
        rot=tuple(rot.ravel()), h_coef=h_coef, eps=eps,
    )


class WorldBranchField(HamiltonianField):
    """The planar ray Hamiltonian pulled back through branch charts, one
    stage per chart.

    ``F = F_model o psi`` with ``psi`` symplectic, so each stage's
    Hamiltonian field is the pullback of the model field; its support is
    the stage's tapered strip (the tube where the model cutoff lives), and
    its escape monitor is the model coordinate toward the node.  The model
    tube ``y1^2 < h_coef (1-x1)^2`` pinches linearly at the node, so the
    strip half-width is linear in world space.

    The charts are one table with a row per stage, and :meth:`at` gathers
    a table row per point, so one kernel call evaluates rows of any stage:
    the chart map and the chain rule are row-wise 2x2 products, and the
    model gradient is the planar ray gradient with each row's own tube.
    Every operation is elementwise, so a row's result is bitwise
    independent of its batch.  A one-stage field evaluates any batch; a
    field of more stages evaluates only through :meth:`at`.
    """

    def __init__(self, charts: Sequence[BranchChart]):
        self.charts = tuple(charts)
        if not self.charts:
            raise InputError("a branch field needs at least one chart")
        self.stages = len(self.charts)
        self.dim = 2
        self._table = np.array([c.columns() for c in self.charts])
        # the chart columns the evaluators read, one entry per row, or one
        # for every row
        self._cols = self._table.T if self.stages == 1 else None

    def at(self, stage):
        if self.stages == 1:
            return self
        rows = copy.copy(self)
        rows._cols = self._table[stage].T
        return rows

    def _model(self, z):
        """The model coordinates of the batch ``z`` and the chart columns
        of its rows."""
        pts = _as_batch(z, 2)
        cols = self._cols
        if cols is None or cols.shape[1] not in (1, pts.shape[0]):
            raise InputError(f"a field of {self.stages} stages evaluates a "
                             f"batch through at(stage)")
        return _to_model(pts, cols), cols

    def value(self, z):
        model, cols = self._model(z)
        return _ray_value(model, cols[_EPS], cols[_H_COEF], 2)

    def grad(self, z):
        model, cols = self._model(z)
        g = _ray_grad(model, cols[_EPS], cols[_H_COEF], 2)
        j00, j01, j10, j11 = cols[_JAC]
        out = np.empty_like(g)
        out[:, 0] = g[:, 0] * j00 + g[:, 1] * j10
        out[:, 1] = g[:, 0] * j01 + g[:, 1] * j11
        return out

    def escape_value(self, z):
        model, cols = self._model(z)
        return _tube_coordinate(model, cols[_H_COEF], cols[_EPS])


def _check_strip_disjoint(charts: Sequence[BranchChart],
                          branches: Sequence[tuple]) -> None:
    """Conservative pairwise separation check between strips that do not
    share a node (shared-node pairs are separated by the angular taper).
    ``branches[i]`` is the ``(leaf, node)`` index pair of ``charts[i]``;
    strips meeting only at a location, not at a node, are checked."""
    def seg_dist(a0, a1, b0, b1):
        # minimal distance between two segments in the plane
        def pt_seg(p, s0, s1):
            d = s1 - s0
            denom = float(d @ d)
            t = 0.0 if denom == 0.0 else float(np.clip((p - s0) @ d / denom, 0, 1))
            return float(np.linalg.norm(p - (s0 + t * d)))
        cands = [pt_seg(a0, b0, b1), pt_seg(a1, b0, b1),
                 pt_seg(b0, a0, a1), pt_seg(b1, a0, a1)]
        return min(cands)

    for i in range(len(charts)):
        for j in range(i + 1, len(charts)):
            if set(branches[i]) & set(branches[j]):
                continue
            ci, cj = charts[i], charts[j]
            a0 = np.asarray(ci.leaf) - ci.eps * (np.asarray(ci.node) - np.asarray(ci.leaf))
            b0 = np.asarray(cj.leaf) - cj.eps * (np.asarray(cj.node) - np.asarray(cj.leaf))
            dist = seg_dist(a0, np.asarray(ci.node), b0, np.asarray(cj.node))
            if dist <= ci.max_half_width() + cj.max_half_width():
                raise InputError(
                    f"strips of branches {i} and {j} are not separated"
                )


class StagedExcision:
    """The stage charts of a tree in excision order, the staged field
    holding them all, and their composed forward and backward maps."""

    def __init__(self, charts: Sequence[BranchChart], spec: TreeSpec):
        self.field = WorldBranchField(charts)
        self.spec = spec

    @property
    def charts(self) -> tuple:
        return self.field.charts

    def in_support(self, pts: np.ndarray) -> np.ndarray:
        """Union of the stage tubes (the neighbourhood the excision owns),
        one row of the field's stage table at a time."""
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[0], dtype=bool)
        for cols in self.field._table:
            out |= _tube_coordinate(_to_model(pts, cols), cols[_H_COEF],
                                    cols[_EPS]) > -np.inf
        return out

    def forward_batch(self, pts: np.ndarray,
                      tol: float = DEFAULT_TOL) -> FlowOutcome:
        """Composed forward time-1 maps of an ``(m, 2)`` batch: the
        :class:`FlowOutcome` of one staged :func:`integrate_batch` call,
        whose ``stage`` is the stage a row escaped or failed in.

        A row starts its next stage as soon as it completes the last one,
        so the pass takes as many DP5 steps as the row whose stages take
        the most in total.  Each row's outcome is bitwise its chain of
        one-stage flows, so callers pass every start through one call.
        """
        return integrate_batch(self.field, _as_batch(pts, 2), 1.0, tol=tol)

    def forward_point(self, z, tol: float = DEFAULT_TOL) -> np.ndarray:
        out = self.forward_batch(np.asarray(z, dtype=float)[None, :], tol=tol)
        if not out.completed[0]:
            raise ExcisedPointError(
                f"point left during stage {out.stage[0]}: {out.status[0]}")
        return out.endpoint[0]

    def inverse_batch(self, pts: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Composed backward time-1 maps of an ``(m, 2)`` batch, last stage
        first, as one staged :func:`integrate_batch` call.  A row that does
        not complete a stage raises :class:`ExcisedPointError` naming the
        first stage in backward order where a row failed, the first such
        row and its status."""
        out = integrate_batch(self.field, _as_batch(pts, 2), -1.0, tol=tol)
        left = np.nonzero(~out.completed)[0]
        if left.size:
            row = left[np.argmax(out.stage[left])]
            raise ExcisedPointError(
                f"backward stage {out.stage[row]} failed at row {row}: "
                f"{out.status[row]}")
        return out.endpoint


def excise_tree(spec: TreeSpec) -> StagedExcision:
    """Excise a tree into its special node: one branch field per edge,
    leaf first, each pushing its branch into its node, the last ones into
    the special node."""
    adj = {i: set(ns) for i, ns in spec.adjacency().items()}
    original_adj = spec.adjacency()
    charts = []
    branches = []
    while any(adj[i] for i in adj):
        leaves = sorted(
            i for i in adj
            if len(adj[i]) == 1 and i != spec.special
        )
        if not leaves:
            raise InputError("no excisable leaf found (is the root correct?)")
        leaf = leaves[0]
        (node,) = adj[leaf]
        # taper against every sibling direction present in the original tree
        sib_dirs = []
        qpt = spec.node_array(node)
        for other in original_adj[node]:
            if other == leaf:
                continue
            d = spec.node_array(other) - qpt
            sib_dirs.append(d / np.linalg.norm(d))
        charts.append(strip_chart(
            spec.node_array(leaf), qpt, sib_dirs, w0=spec.w0, eps=spec.eps,
        ))
        branches.append((leaf, node))
        adj[leaf].remove(node)
        adj[node].remove(leaf)
    _check_strip_disjoint(charts, branches)
    return StagedExcision(charts, spec)
