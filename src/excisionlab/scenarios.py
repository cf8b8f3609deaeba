"""Shipped scenarios and the certification driver.

Each scenario builds its excising field(s), draws its samples, runs the
certification suite of :mod:`excisionlab.certify` on them (escape
classification against exact membership, symplecticity residuals of the
time-1 map, inverse consistency, energy conservation, cutoff flatness,
locality) with the checks only it makes, and emits a deterministic report:
same config and seed, byte identical ``report.json``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import flow1d, lsc_fields, null_fields, scalar_kit, symflow, trees
from .certify import (_bounded, _check, _flatness_check, _flow_checks,
                      _grad_check, _tree_checks, _worst)
from .errors import InputError
from .ham_extension import RayHamiltonian, extend_null_field

__all__ = ["ScenarioConfig", "run_scenario", "SCENARIOS"]

MARGIN = 1e-3
# least value of each integer ScenarioConfig field
_INT_MINIMUMS = {"n": 1, "grid": 0, "seed": 0, "depth": 2,
                 "sympl_samples": 2, "roundtrip_samples": 4}


@dataclass
class ScenarioConfig:
    """Reproducible description of one laboratory run."""

    scenario: str
    n: int = 2
    tol: float = symflow.DEFAULT_TOL
    fd_step: float = 1e-5
    grid: int = 0            # 0 = scenario default resolution
    seed: int = 0
    out_dir: Optional[str] = None
    margin: float = MARGIN
    u_scale: float = 1.0     # scale of the ray field's own tube (ray scenarios)
    depth: int = 14          # tower depth (lsc scenario)
    sympl_samples: int = 100
    roundtrip_samples: int = 200

    def __post_init__(self):
        # written to fail closed: NaN is not in (0, inf)
        for name in ("tol", "fd_step", "margin", "u_scale"):
            value = getattr(self, name)
            if isinstance(value, bool) or not 0 < value < math.inf:
                raise InputError(f"{name} must be positive and finite, got {value!r}")
        if self.u_scale != 1.0 and self.scenario not in ("ray", "ray-n1"):
            raise InputError("u_scale scales the ray field's tube; scenario "
                             f"{self.scenario!r} must run at u_scale 1")
        for name, least in _INT_MINIMUMS.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise InputError(f"{name} must be an integer >= {least}, got {value!r}")

    @staticmethod
    def from_file(path: str, scenario: str) -> "ScenarioConfig":
        """The config of the JSON object in ``path``, run as ``scenario``."""
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:   # malformed JSON or not UTF-8
                raise InputError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise InputError("config file must hold a JSON object, got "
                             f"{type(raw).__name__}")
        raw["scenario"] = scenario
        unknown = sorted(set(raw) - {f.name for f in fields(ScenarioConfig)})
        if unknown:
            raise InputError(f"unknown config key {', '.join(map(repr, unknown))}")
        return ScenarioConfig(**raw)


# ---------------------------------------------------------------------------
# ray scenarios
# ---------------------------------------------------------------------------

def _ray_grid(n: int, resolution: int, margin: float) -> np.ndarray:
    """Product grid with the axis plane included exactly.

    Margin rule: points exactly on the invariant axis keep an ``|x|``
    margin around the decision flip at 0; off-axis points keep a transverse
    margin so the cutoff standoff dominates the chart-exit threshold.
    """
    if n == 1:
        m = resolution or 100
        xs = np.linspace(-0.8, 0.8, m)
        ys = np.linspace(-0.8, 0.8, m + 1)   # odd count includes y = 0
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        grid = np.stack([X.ravel(), Y.ravel()], axis=1)
        on_axis = grid[:, 1] == 0.0
        keep = (~on_axis & (np.abs(grid[:, 1]) > margin)) | \
               (on_axis & (np.abs(grid[:, 0]) > margin))
        return grid[keep]
    ps = np.array([0.0, -0.7, -0.35, 0.35, 0.7])
    xs = np.linspace(-0.8, 0.8, (resolution or 25))
    ys = np.array([0.0, -0.6, -0.25, 0.25, 0.6])
    axes = [ps] * (2 * n - 2) + [xs, ys]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([mm.ravel() for mm in mesh], axis=1)
    trans = np.sqrt(np.sum(grid[:, : 2 * n - 2] ** 2, axis=1) + grid[:, -1] ** 2)
    on_axis = trans == 0.0
    keep = (~on_axis & (trans > margin)) | (on_axis & (np.abs(grid[:, -2]) > margin))
    return grid[keep]


def _ray_sympl_samples(field: RayHamiltonian, count: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Surviving points where the time-1 map of ``field`` is FD-conditioned:
    inside its cutoff plateau near the axis (with the whole trajectory
    staying in the plateau: the tube pinches, so the radius ratio grows
    along the flow), or outside its tube with margin.  The plateau window
    ``[x_lo, x_hi)`` must stay non-empty, which bounds the tube's ``eps``
    from below."""
    dim = field.dim
    out = []
    x_hi = -0.15
    x_lo = -min(0.45, 0.9 * field.eps)
    if not x_lo < x_hi:
        raise InputError(
            f"eps {field.eps:g} leaves no plateau window for the "
            f"symplecticity samples; eps must exceed {-x_hi / 0.9:.6g}")
    while len(out) < count // 2:
        x = rng.uniform(x_lo, x_hi)
        # bound the squared radius by the tube height at the time-1
        # endpoint x + 1, where the ratio is largest
        h_end = field.h_coef * abs(x) ** field.h_power
        vec = rng.normal(size=dim - 1)
        vec /= np.linalg.norm(vec)
        q = rng.uniform(0.0, 0.12 * h_end)
        z = np.zeros(dim)
        z[-2] = x
        z[: dim - 2] = vec[: dim - 2] * math.sqrt(q)
        z[-1] = vec[-1] * math.sqrt(q)
        out.append(z)
    while len(out) < count:
        z = rng.uniform(-0.8, 0.8, size=dim)
        h = field.h_coef * (1.0 - z[-2]) ** field.h_power
        q = np.sum(z[: dim - 2] ** 2) + z[-1] ** 2
        if q > 0.6 * h:
            out.append(z)
    return np.asarray(out)


def _run_ray(cfg: ScenarioConfig) -> dict:
    n = cfg.n if cfg.scenario == "ray" else 1
    if cfg.scenario == "ray" and n < 2:
        raise InputError("the 'ray' scenario needs n >= 2; use 'ray-n1'")
    # u_scale scales the field's own tube, the neighbourhood outside which
    # the time-1 map is the identity
    field = RayHamiltonian(n)
    if cfg.u_scale != 1.0:
        field = RayHamiltonian(n, eps=field.eps * cfg.u_scale,
                               h_coef=field.h_coef * cfg.u_scale)

    rng = np.random.default_rng(cfg.seed)
    # every flow sample is drawn first, sympl first so that a bad u_scale
    # fails before any flow; the grid draws nothing from rng
    sympl = _ray_sympl_samples(field, cfg.sympl_samples, rng)
    m = cfg.roundtrip_samples
    survivors = sympl[rng.integers(0, sympl.shape[0], size=m // 2)]
    targets = sympl[rng.integers(0, sympl.shape[0], size=m - m // 2)]
    axis_pts = np.zeros((3, field.dim))
    axis_pts[:, -2] = (-0.4, -0.2, -0.1)
    cons = np.concatenate([sympl[rng.integers(0, sympl.shape[0], size=10)],
                           axis_pts])
    starts = np.zeros((3, field.dim))
    starts[:, -2] = (-0.3, 0.25, -0.2)
    starts[2, -1] = 0.1
    checks = _flow_checks(field, field.membership,
                          _ray_grid(n, cfg.grid, cfg.margin), sympl,
                          survivors, targets, cons, starts, cfg)

    # zeros of F off the hypersurface: outside the tube with y != 0
    off = rng.uniform(-0.9, 0.9, size=(4000, field.dim))
    off = off[np.abs(off[:, -1]) > 0.05]
    hvals = field.h_coef * (1.0 - off[:, -2]) ** field.h_power
    qvals = np.sum(off[:, : field.dim - 2] ** 2, axis=1) + off[:, -1] ** 2
    off = off[qvals > 0.55 * hvals]
    checks["flatness_off_hypersurface"] = _flatness_check(field, off)

    # properness: |F| >= c only inside the predicted compact box
    prop_pass, prop_vals = True, []
    for c in (0.05, 0.1, 0.2):
        x_hi = 1.0 - c * c / field.h_coef
        r2 = field.h_coef * (1.0 + field.eps)
        pts = rng.uniform(-0.98, 0.98, size=(20000, field.dim))
        pts[:, -1] = rng.uniform(-3.0, 3.0, size=20000)
        inside = (pts[:, -2] >= -field.eps) & (pts[:, -2] <= x_hi)
        inside &= (np.sum(pts[:, : field.dim - 2] ** 2, axis=1) + pts[:, -1] ** 2) <= r2
        vals = np.abs(field.value(pts[~inside]))
        prop_vals.append(vals)
        prop_pass &= bool(np.all(vals < c))
    # the points are the rows outside the predicted box, the only ones tested
    checks["properness_away_from_zero"] = _check(
        prop_pass, sum(v.size for v in prop_vals), _worst(prop_vals))

    if cfg.u_scale != 1.0:
        outside = rng.uniform(-0.9, 0.9, size=(500, field.dim))
        hood_mask = ~field.in_tube(outside)
        worst = _worst([np.abs(field.vector_field(outside[hood_mask]))])
        checks["locality_outside_U"] = _check(
            worst == 0.0, int(hood_mask.sum()), worst)
    return checks


# ---------------------------------------------------------------------------
# epigraph / brush scenarios
# ---------------------------------------------------------------------------

def _brush_setup():
    C = scalar_kit.ClosedSetSpec(
        dim=2,
        pieces=((scalar_kit.axis_point(0.0), scalar_kit.cantor_axis(0.0, 1.0, 6)),),
    )
    spec = null_fields.EpigraphSpec(
        C=C, lam=null_fields.constant_map(0.0),
        validation_box=((-1.0, -1.0), (2.0, 2.0)), sharpness=0.002,
    )
    vfield = null_fields.EpigraphField(spec)
    ham = extend_null_field(vfield)
    return C, spec, vfield, ham


def _brush_grid(C, resolution: int, margin: float) -> np.ndarray:
    """(p2, x) grid in the invariant plane, plus the interval midpoints and
    endpoints of the depth-6 set so the member side is exercised.

    Margin rule: non-member points keep ``margin`` from the interval
    endpoints (the defining function must be large enough there for the
    standoff); member fibres carry exactly vanishing ``c`` at any distance
    from the endpoints, so they only need the ``|x|`` margin.
    """
    cantor = C.pieces[0][1]
    m = resolution or 72
    p_ambient = np.linspace(-0.2, 1.2, m)
    mids = np.array([0.5 * (a + b) for a, b in cantor.intervals])
    ends = np.array([e for iv in cantor.intervals[:8] for e in iv])
    p2 = np.unique(np.concatenate([p_ambient, mids, ends]))
    member_p = cantor.contains(p2)
    clear_p = cantor.boundary_distance(p2) > margin
    p2 = p2[member_p | clear_p]
    xs = np.linspace(-0.8, 0.85, m + 1)
    xs = xs[np.abs(xs) > margin]
    P, X = np.meshgrid(p2, xs, indexing="ij")
    out = np.stack([
        np.zeros(P.size), P.ravel(), X.ravel(), np.zeros(P.size),
    ], axis=1)
    return out


def _brush_sympl_samples(C, vfield, count: int, rng: np.random.Generator) -> np.ndarray:
    """FD-conditioned survivors: moving points on interval midlines (the
    defining function vanishes across the whole stencil), frozen points
    with large ``|y|``, and far fibres where the wall slowdown dominates."""
    cantor = C.pieces[0][1]
    mids = np.array([0.5 * (a + b) for a, b in cantor.intervals])
    out = []
    k = count // 2
    for i in range(k):
        p2 = mids[rng.integers(0, mids.size)]
        out.append([0.0, p2, rng.uniform(-0.45, -0.05), 0.0])
    frozen = 0
    while frozen < count // 4:
        z = rng.uniform(-0.4, 1.2, size=4)
        z[2] = rng.uniform(-0.8, 0.85)
        z[3] = rng.uniform(0.8, 1.5) * (1 if rng.uniform() < 0.5 else -1)
        # keep only points frozen with margin: the scaled energy must sit
        # beyond the witness so the cutoff vanishes on the whole stencil
        v = float(vfield.velocity(z[None, :2], z[2:3])[0])
        if abs(z[3] * v) * (1.0 + float(z @ z)) >= 1.3:
            out.append(list(z))
            frozen += 1
    while len(out) < count:
        # fibres far from the brush: the defining function is smooth at
        # order-one scale there (no sub-stencil gap microstructure)
        p2 = rng.uniform(1.4, 1.9) * (1 if rng.uniform() < 0.5 else -1)
        out.append([rng.uniform(-0.3, 0.3), p2, rng.uniform(-0.5, 0.5), 0.0])
    return np.asarray(out)


def _run_cantor_brush(cfg: ScenarioConfig) -> dict:
    C, spec, vfield, ham = _brush_setup()
    rng = np.random.default_rng(cfg.seed)
    grid = _brush_grid(C, cfg.grid, cfg.margin)

    def member(z):
        return C.contains(z[:, :2]) & (z[:, 2] >= 0.0) & (z[:, 3] == 0.0)

    # every flow sample is drawn first; the grid draws nothing from rng
    sympl = _brush_sympl_samples(C, vfield, cfg.sympl_samples, rng)
    moving = sympl[: cfg.sympl_samples // 2]
    m = cfg.roundtrip_samples
    survivors = moving[rng.integers(0, moving.shape[0], size=m // 2)]
    targets = moving[rng.integers(0, moving.shape[0], size=m - m // 2)].copy()
    targets[:, 2] += 0.5   # generic chart targets for the backward map
    cons = sympl[rng.integers(0, sympl.shape[0], size=10)]
    starts = np.array([[0.0, 0.5, -0.3, 0.0],
                       [0.0, 1.0 / 3.0, -0.3, 0.0],
                       [0.0, 0.5, 0.2, 0.1]])
    checks = _flow_checks(ham, member, grid, sympl, survivors, targets, cons,
                          starts, cfg)

    off = rng.uniform(-0.5, 1.5, size=(4000, 4))
    off[:, 3] = rng.uniform(0.8, 2.0, size=4000) * np.sign(rng.uniform(-1, 1, 4000))
    checks["flatness_off_hypersurface"] = _flatness_check(ham, off)

    # closed-form fibre classification against raw membership
    pgrid = grid[::7, :2]
    xgrid = grid[::7, 2]
    excised = null_fields.classify_epigraph(vfield, pgrid, xgrid)
    mism = int(np.sum(excised != (C.contains(pgrid) & (xgrid >= 0.0))))
    checks["fibre_classification"] = _check(mism == 0, pgrid.shape[0], mism)
    return checks


def _run_epigraph(cfg: ScenarioConfig) -> dict:
    """Generic smooth-over-closed-set target: a box with affine height."""
    C = scalar_kit.ClosedSetSpec(
        dim=2,
        pieces=((scalar_kit.axis_interval(-0.5, 0.5),
                 scalar_kit.axis_interval(-0.5, 0.5)),),
    )
    lam = null_fields.affine_map((0.1, 0.0), 0.2)
    spec = null_fields.EpigraphSpec(
        C=C, lam=lam, validation_box=((-1.5, -1.5), (1.5, 1.5)),
    )
    vfield = null_fields.EpigraphField(spec)
    ham = extend_null_field(vfield)
    rng = np.random.default_rng(cfg.seed)
    checks = {}

    # fibre classification on a transect grid: fibres and heights that
    # keep the margin from the set's faces and from the graph of lam
    m = cfg.grid or 100
    ts = np.linspace(-1.2, 1.2, m)
    xs = np.linspace(-0.9, 0.9, m)
    ps = np.stack([ts, np.full(m, 0.1)], axis=1)
    ps = ps[~(C.boundary_distance(ps) < cfg.margin)]
    p_q = np.repeat(ps, m, axis=0)
    x_q = np.tile(xs, ps.shape[0])
    clear = ~(np.abs(x_q - np.repeat(lam(ps), m)) < cfg.margin)
    p_q, x_q = p_q[clear], x_q[clear]
    excised = null_fields.classify_epigraph(vfield, p_q, x_q)
    mism = int(np.sum(excised != spec.membership(p_q, x_q)))
    checks["fibre_classification"] = _check(mism == 0, x_q.size, mism)

    # every fibre-flow sample is drawn first, in the order the checks use
    # them; the flows then run as three batches
    n = cfg.roundtrip_samples
    draws = rng.uniform([-1.2, -1.2, -0.9], [1.2, 1.2, 0.9], size=(n, 3))
    p_rt, x_target = np.ascontiguousarray(draws[:, :2]), draws[:, 2]
    zp = C.sample(200, rng)
    lam_zp = lam(zp)
    x_inv = rng.uniform(lam_zp, 0.97)

    # fibre bijectivity: backward then forward is the identity
    _, x_back = null_fields.presympl_flow(vfield, p_rt, x_target, -1.0)
    _, x_fwd = null_fields.presympl_flow(vfield, p_rt, x_back, 1.0)
    checks["fibre_bijectivity"] = _bounded([np.abs(x_fwd - x_target)], n, 1e-8)

    # forward invariance of the epigraph (flow for less than the exit time)
    exit_t = np.array([tof.value for tof in
                       flow1d.forward_time_batch(vfield.fibres(zp), x_inv)])
    _, x1 = null_fields.presympl_flow(vfield, zp, x_inv, 0.5 * exit_t)
    ok = bool(np.all((x1 >= x_inv - 1e-12) & (x1 >= lam_zp)))
    checks["forward_invariance"] = _check(ok, 200, 0.0)

    # extension certificates
    pts = rng.uniform(-1.0, 1.0, size=(1000, 4))
    pts[:, 2] = rng.uniform(-0.9, 0.9, size=1000)
    clear = C.boundary_distance(pts[:, :2]) > 0.02
    checks["gradient_oracle"] = _grad_check(ham, pts[clear], cfg.fd_step, 1e-5)

    onN = pts.copy()
    onN[:, 3] = 0.0
    vec = ham.vector_field(onN)
    v_exp = vfield.velocity(onN[:, :2], onN[:, 2])
    chi = ham.cutoff(onN)
    checks["hypersurface_restriction"] = _bounded(
        [np.abs(vec[:, [0, 1, 3]]), np.abs(vec[:, 2] - chi * v_exp)],
        onN.shape[0], 1e-10)
    f_on_n = np.abs(ham.value(onN)).max()
    wit = scalar_kit.decay_witness(pts)
    below = np.all(np.abs(ham.value(pts)) < wit)
    checks["dominated_by_witness"] = _check(bool(below) and f_on_n == 0.0,
                                            pts.shape[0], float(f_on_n))
    return checks


# ---------------------------------------------------------------------------
# lower semi-continuous scenario (box with a tail)
# ---------------------------------------------------------------------------

def _box_tail_spec() -> lsc_fields.LscSpec:
    return lsc_fields.LscSpec(
        base_lo=(-2.0, -2.0), base_hi=(2.0, 2.0),
        pieces=(((-1.0, -1.0), (1.0, 1.0), 0.5),
                ((0.0, 0.0), (0.0, 0.0), 0.25)),
    )


def _run_box_tail(cfg: ScenarioConfig) -> dict:
    spec = _box_tail_spec()
    m = cfg.grid or 50
    transect = np.stack([np.linspace(-1.95, 1.95, m),
                         np.full(m, 0.12)], axis=1)
    field = lsc_fields.build_lsc_field(spec, depth=cfg.depth)
    rng = np.random.default_rng(cfg.seed)
    checks = {}

    # strictly increasing minorants with the over-ball lower bound, and the
    # 0.05 gap reached within depth 12, on a full 2D grid
    g1 = np.linspace(-1.95, 1.95, m)
    G = np.stack(np.meshgrid(g1, g1, indexing="ij"), axis=-1).reshape(-1, 2)
    vals = field.baire.raw_values(G)
    lam = spec.lam(G)
    increasing = bool(np.all(np.diff(vals, axis=1) > 0.0))
    below = bool(np.all(vals < lam[:, None]))
    gap_depth = np.argmax((lam[:, None] - vals) <= 0.05, axis=1) + 1
    gap_ok = bool(np.all((lam[:, None] - vals)[:, -1] <= 0.05))
    depth_needed = int(gap_depth.max()) if gap_ok else 99
    checks["minorant_sequence"] = _check(
        increasing and below and gap_ok and depth_needed <= 12,
        G.shape[0], float(depth_needed), depth_for_gap=depth_needed)

    # each piece's box distance, read at every level's ball radius
    dists = []
    for lo, hi, value in spec.pieces:
        lo_a, hi_a = np.asarray(lo), np.asarray(hi)
        d = np.linalg.norm(np.maximum(np.maximum(lo_a - G, G - hi_a), 0.0), axis=1)
        dists.append((d, value))
    prop_ok = True
    deficits = []
    for lvl in range(2, field.baire.depth + 1):
        r = 1.0 / lvl
        inf_ball = np.ones(G.shape[0])
        for d, value in dists:
            inf_ball = np.where(d < r, np.minimum(inf_ball, value), inf_ball)
        slack = vals[:, lvl - 1] - (1.0 - 1.0 / lvl) * inf_ball
        deficits.append(-slack)
        prop_ok &= bool(np.all(slack >= -1e-12))
    checks["minorant_lower_bound"] = _check(prop_ok, G.shape[0],
                                            _worst(deficits))

    # level-resolved exit times: threshold exactness and monotone nesting,
    # on the transect fibres clear of the piece faces
    xs = np.linspace(0.05, 0.9, m)
    xs = xs[(xs > 0.0) & (xs < 0.9)]
    clear = ~(spec.boundary_distance(transect) < cfg.margin)
    fibres = transect[clear]
    mism, tested, nested = field.level_checks(fibres, xs)
    checks["level_thresholds"] = _check(mism == 0, tested, mism)
    checks["monotone_nesting"] = _check(nested, fibres.shape[0] * 40, 0.0)

    # limit classification against direct lookup: each point the tower
    # leaves undecided is one mismatch
    lam = spec.lam(fibres)[:, None]
    kept = ~(np.abs(xs - lam) < cfg.margin)
    excised, undecided = field.classify(fibres, xs)
    mism = int(np.count_nonzero((undecided | (excised != (xs >= lam))) & kept))
    checks["limit_classification"] = _check(mism == 0, np.count_nonzero(kept), mism)

    # backward totality and fibre bijectivity through the final cutoff: the
    # draws first, then the tests and the round trips on the drawn fibres
    f1 = field.fibre_table(fibres)[0][:, 0]
    slot = np.cumsum(clear) - 1      # each clear fibre's row in the table
    rows, x_t = [], []
    for _ in range(60):
        i = rng.integers(0, transect.shape[0])
        if clear[i]:
            rows.append(slot[i])
            x_t.append(rng.uniform(float(f1[slot[i]]), 0.9))
    drawn = field.fibres(fibres[rows])
    blocked = all(flow1d.backward_time(drawn.take([j]), x).value == -math.inf
                  for j, x in enumerate(x_t))
    blocked &= bool(np.all(drawn.velocity(np.arange(len(rows)),
                                          0.25 * f1[rows, None]) == 0.0))
    x_b = flow1d.flow_map_batch(drawn, -1.0, x_t)
    checks["backward_totality"] = _bounded(
        [np.abs(flow1d.flow_map_batch(drawn, 1.0, x_b) - x_t)], len(rows), 1e-8,
        holds=blocked)
    return checks


# ---------------------------------------------------------------------------
# tree scenarios
# ---------------------------------------------------------------------------

def _horned_ray_spec() -> trees.TreeSpec:
    return trees.TreeSpec(
        nodes=((0.0, 0.0), (1.2, 0.0), (-1.0, 1.0), (-1.0, -1.0)),
        edges=((0, 1), (0, 2), (0, 3)),
        special=1,
    )


def _double_y_spec() -> trees.TreeSpec:
    return trees.TreeSpec(
        nodes=((0.0, 0.0), (1.0, 0.0), (-1.0, 0.0),
               (2.0, 1.0), (2.0, -1.0), (-2.0, 1.0), (-2.0, -1.0)),
        edges=((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)),
        special=0,
    )


def _run_tree(cfg: ScenarioConfig) -> dict:
    staged = trees.excise_tree(_horned_ray_spec())
    rng = np.random.default_rng(cfg.seed)
    checks, _ = _tree_checks(staged, cfg, rng, np.zeros((0, 2)))
    checks["stage_count"] = _check(staged.field.stages == 3, 3,
                                   float(staged.field.stages))
    return checks


def _run_retract(cfg: ScenarioConfig) -> dict:
    staged = trees.excise_tree(_double_y_spec())
    rng = np.random.default_rng(cfg.seed)
    # a near-tree survivor lands away from the kept point
    z0 = np.asarray(staged.spec.nodes[staged.spec.special])
    z = np.array([[0.5, 0.035]])
    checks, out = _tree_checks(staged, cfg, rng, z)
    dist = np.linalg.norm(out.endpoint[0] - z0)
    checks["near_tree_survivor"] = _check(out.completed[0] and dist > 1e-3, 1,
                                          float(dist))
    return checks


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

SCENARIOS = {
    "ray": _run_ray,
    "ray-n1": _run_ray,
    "epigraph": _run_epigraph,
    "cantor-brush": _run_cantor_brush,
    "box-tail": _run_box_tail,
    "tree": _run_tree,
    "retract": _run_retract,
}


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Build the scenario, run its certification suite, optionally write
    ``report.json`` and trajectory CSVs, and return the report."""
    if cfg.scenario == "verify-all":
        sub = {}
        overall = True
        for name in SCENARIOS:
            sub_cfg = ScenarioConfig(**{**asdict(cfg), "scenario": name,
                                        "out_dir": None})
            rep = run_scenario(sub_cfg)
            sub[name] = rep
            overall &= rep["pass"]
        report = {"scenario": "verify-all", "pass": overall, "reports": sub}
    else:
        runner = SCENARIOS.get(cfg.scenario)
        if runner is None:
            raise InputError(f"unknown scenario {cfg.scenario!r}")
        if cfg.out_dir:
            os.makedirs(os.path.join(cfg.out_dir, "trajectories"), exist_ok=True)
        checks = runner(cfg)
        report = {
            "scenario": cfg.scenario,
            "config": asdict(cfg),
            "checks": checks,
            "pass": all(c["pass"] for c in checks.values()),
        }

    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        with open(os.path.join(cfg.out_dir, "report.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
