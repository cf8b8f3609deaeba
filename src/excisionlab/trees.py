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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ExcisedPointError, InputError
from .ham_extension import HamiltonianField, RayHamiltonian
from .symflow import DEFAULT_TOL, ESCAPED, integrate_batch

__all__ = [
    "TreeSpec",
    "BranchChart",
    "WorldBranchField",
    "strip_chart",
    "StagedExcision",
    "excise_tree",
]


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
        # written to fail closed: NaN is in no open interval
        if not all(-math.inf < c < math.inf for node in self.nodes for c in node):
            raise InputError("tree nodes must be finite")
        if len(set(map(tuple, self.nodes))) != n:
            raise InputError("tree nodes must be distinct points")
        if not self.w0 > 0.0:
            raise InputError(f"w0 must be positive, got {self.w0!r}")
        if not 0.0 < self.eps < 1.0:
            raise InputError(f"eps must lie in (0, 1), got {self.eps!r}")
        if not (0 <= self.special < n):
            raise InputError("special node index out of range")
        if len(self.edges) != n - 1:
            raise InputError("a tree on n nodes has n-1 edges")
        for a, b in self.edges:
            if a == b or not (0 <= a < n and 0 <= b < n):
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

    @property
    def rot_matrix(self) -> np.ndarray:
        return np.asarray(self.rot, dtype=float).reshape(2, 2)

    def to_model(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        frame = (pts - np.asarray(self.leaf)) @ self.rot_matrix.T
        out = np.empty_like(frame)
        out[:, 0] = frame[:, 0] / self.length
        out[:, 1] = frame[:, 1] * self.length
        return out

    def from_model(self, mpts: np.ndarray) -> np.ndarray:
        mpts = np.asarray(mpts, dtype=float)
        frame = np.empty_like(mpts)
        frame[:, 0] = mpts[:, 0] * self.length
        frame[:, 1] = mpts[:, 1] / self.length
        return frame @ self.rot_matrix + np.asarray(self.leaf)

    def half_width(self, x1) -> np.ndarray:
        """World-space strip half-width at model coordinate ``x1`` (the
        width of the full cutoff tube, not just its plateau)."""
        x1 = np.asarray(x1, dtype=float)
        return np.sqrt(self.h_coef) * np.maximum(1.0 - x1, 0.0) / self.length

    def max_half_width(self) -> float:
        return float(self.half_width(-self.eps))

    def tube_coordinate(self, pts: np.ndarray) -> np.ndarray:
        """Model coordinate ``x1`` toward the node inside the tube
        ``{x1 > -eps, y1^2 < h_coef (1 - x1)^2}``, minus infinity
        outside it."""
        m = self.to_model(pts)
        x1, y1 = m[:, 0], m[:, 1]
        h = self.h_coef * np.maximum(1.0 - x1, 0.0) ** 2
        return np.where((x1 > -self.eps) & (y1 * y1 < h), x1, -np.inf)


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
    """The planar ray Hamiltonian pulled back through a branch chart.

    ``F = F_model o psi`` with ``psi`` symplectic, so the Hamiltonian field
    is the pullback of the model field; the support is the tapered strip
    (the tube where the model cutoff lives), and the escape monitor is the
    model coordinate toward the node.
    """

    def __init__(self, chart: BranchChart):
        self.chart = chart
        self.dim = 2
        # the model tube y1^2 < h(x1) with h = h_coef (1-x1)^2 pinches
        # linearly at the node; quadratic-profile heights keep the strip
        # half-width linear in world space
        self.model = RayHamiltonian(
            n=1, eps=chart.eps, h_coef=chart.h_coef, h_power=2,
        )
        mat = self.chart.rot_matrix
        scale = np.array([[1.0 / chart.length, 0.0], [0.0, chart.length]])
        self._dpsi_t = (scale @ mat).T

    def value(self, z):
        return self.model.value(self.chart.to_model(z))

    def grad(self, z):
        return self.model.grad(self.chart.to_model(z)) @ self._dpsi_t.T

    def escape_value(self, z):
        return self.chart.tube_coordinate(z)


def _check_strip_disjoint(fields: Sequence[WorldBranchField],
                          branches: Sequence[tuple]) -> None:
    """Conservative pairwise separation check between strips that do not
    share a node (shared-node pairs are separated by the angular taper).
    ``branches[i]`` is the ``(leaf, node)`` index pair of ``fields[i]``;
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

    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            if set(branches[i]) & set(branches[j]):
                continue
            ci, cj = fields[i].chart, fields[j].chart
            a0 = np.asarray(ci.leaf) - ci.eps * (np.asarray(ci.node) - np.asarray(ci.leaf))
            b0 = np.asarray(cj.leaf) - cj.eps * (np.asarray(cj.node) - np.asarray(cj.leaf))
            dist = seg_dist(a0, np.asarray(ci.node), b0, np.asarray(cj.node))
            if dist <= ci.max_half_width() + cj.max_half_width():
                raise InputError(
                    f"strips of branches {i} and {j} are not separated"
                )


@dataclass
class StagedExcision:
    """Ordered stage fields and their composed forward/backward maps."""

    fields: list
    spec: TreeSpec

    def in_support(self, pts: np.ndarray) -> np.ndarray:
        """Union of the stage tubes (the neighbourhood the excision owns)."""
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[0], dtype=bool)
        for f in self.fields:
            out |= f.chart.tube_coordinate(pts) > -np.inf
        return out

    def forward_batch(self, pts: np.ndarray, tol: float = DEFAULT_TOL):
        """Composed forward time-1 maps.

        Returns ``(endpoints, stage_escaped)`` where ``stage_escaped[i]``
        is the index of the stage during which point ``i`` left the chart
        (-1 when it survived all stages; -2 on tolerance failure).

        Each stage is one :func:`integrate_batch` call over the rows still
        alive, and a call takes as many DP5 steps as its slowest row, so
        callers pass every start through one call rather than one call
        per block.
        """
        zs = np.array(pts, dtype=float)
        stage_escaped = np.full(zs.shape[0], -1, dtype=int)
        alive = np.ones(zs.shape[0], dtype=bool)
        for k, f in enumerate(self.fields):
            idx = np.nonzero(alive)[0]
            if idx.size == 0:
                break
            out = integrate_batch(f, zs[idx], 1.0, tol=tol)
            done = out.completed
            zs[idx[done]] = out.endpoint[done]
            stage_escaped[idx[~done]] = np.where(out.status[~done] == ESCAPED, k, -2)
            alive[idx[~done]] = False
        return zs, stage_escaped

    def forward_point(self, z, tol: float = DEFAULT_TOL) -> np.ndarray:
        ends, esc = self.forward_batch(np.asarray(z, dtype=float)[None, :], tol=tol)
        if esc[0] != -1:
            raise ExcisedPointError(f"point escaped during stage {esc[0]}")
        return ends[0]

    def inverse_batch(self, pts: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Composed backward time-1 maps, last stage first.  A row that
        does not complete a stage raises :class:`ExcisedPointError` naming
        the stage, the first such row and its status."""
        zs = np.array(pts, dtype=float)
        for k in reversed(range(len(self.fields))):
            out = integrate_batch(self.fields[k], zs, -1.0, tol=tol)
            left = np.nonzero(~out.completed)[0]
            if left.size:
                raise ExcisedPointError(
                    f"backward stage {k} failed at row {left[0]}: "
                    f"{out.status[left[0]]}")
            zs = out.endpoint
        return zs


def excise_tree(spec: TreeSpec) -> StagedExcision:
    """Excise a tree into its special node: one branch field per edge,
    leaf first, each pushing its branch into its node, the last ones into
    the special node."""
    adj = {i: set(ns) for i, ns in spec.adjacency().items()}
    original_adj = spec.adjacency()
    fields = []
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
        chart = strip_chart(
            spec.node_array(leaf), qpt, sib_dirs, w0=spec.w0, eps=spec.eps,
        )
        fields.append(WorldBranchField(chart))
        branches.append((leaf, node))
        adj[leaf].remove(node)
        adj[node].remove(leaf)
    _check_strip_disjoint(fields, branches)
    return StagedExcision(fields=fields, spec=spec)
