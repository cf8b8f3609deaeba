"""Shipped scenarios and the certification driver.

Each scenario builds its excising field(s), runs the certification suite
(escape classification against exact membership, symplecticity residuals of
the time-1 map, inverse consistency, energy conservation, cutoff flatness,
locality), and emits a deterministic report: same config and seed, byte
identical ``report.json``.

Symplecticity is certified by finite differences, which requires the map to
be FD-conditioned at the sample: near the cutoff transition bands the flow
has genuinely large higher derivatives and central differences at step 1e-5
cannot see 1e-5 residuals there.  Samples are therefore drawn from the
cutoff plateau and from frozen regions (both honest surviving points), and
the conditioning rule is part of each scenario's sampler.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from . import flow1d, lsc_fields, null_fields, scalar_kit, symflow, trees
from .errors import DepthExhausted, ExcisedPointError, InputError
from .ham_extension import (
    RayHamiltonian,
    TubeNeighbourhood,
    build_ray_hamiltonian,
    build_ray_hamiltonian_n1,
    epigraph_target,
    extend_null_field,
    localize,
)

__all__ = ["ScenarioConfig", "run_scenario", "SCENARIOS"]

MARGIN = 1e-3


@dataclass
class ScenarioConfig:
    """Reproducible description of one laboratory run."""

    scenario: str
    n: int = 2
    tol: float = 1e-10
    fd_step: float = 1e-5
    grid: int = 0            # 0 = scenario default resolution
    seed: int = 0
    out_dir: Optional[str] = None
    margin: float = MARGIN
    u_scale: float = 1.0     # neighbourhood shrink factor (ray scenarios)
    depth: int = 14          # tower depth (lsc scenario)
    sympl_samples: int = 100
    roundtrip_samples: int = 200

    def __post_init__(self):
        if self.tol <= 0 or self.fd_step <= 0 or self.margin <= 0:
            raise InputError("tolerances must be positive")

    @staticmethod
    def from_file(path: str, scenario: Optional[str] = None) -> "ScenarioConfig":
        with open(path) as fh:
            raw = json.load(fh)
        if scenario is not None:
            raw["scenario"] = scenario
        return ScenarioConfig(**raw)


def _worst(values) -> float:
    """Largest of the residuals in ``values`` (floats or arrays), failing
    closed: ``inf`` when any of them is NaN or infinite, ``0.0`` when there
    are none.  Python's ``max`` would let a NaN residual through."""
    flat = np.concatenate([np.zeros(0)] + [np.ravel(v) for v in values])
    if flat.size == 0:
        return 0.0
    if not np.all(np.isfinite(flat)):
        return math.inf
    return float(flat.max())


def _check(passed: bool, points: int, max_residual: float, **extra) -> dict:
    out = {"pass": bool(passed), "points": int(points),
           "max_residual": float(max_residual)}
    out.update(extra)
    return out


def _grad_check(field, pts: np.ndarray, fd_step: float, rel_tol: float) -> dict:
    """Closed-form gradient against the Richardson-extrapolated O(h^4)
    central difference ``(8 (f(z+h) - f(z-h)) - (f(z+2h) - f(z-2h))) / 12h``.
    The plain O(h^2) stencil is truncation-limited in the cutoff bands."""
    g = np.atleast_2d(field.grad(pts))
    resid = []
    for i in range(pts.shape[1]):
        def f(shift):
            z = pts.copy()
            z[:, i] += shift
            return np.atleast_1d(field.value(z))
        fd = (8.0 * (f(fd_step) - f(-fd_step))
              - (f(2.0 * fd_step) - f(-2.0 * fd_step))) / (12.0 * fd_step)
        resid.append(np.abs(fd - g[:, i]) / (1.0 + np.abs(g[:, i])))
    worst = _worst(resid)
    return _check(worst <= rel_tol, pts.shape[0], worst, bound=rel_tol)


def _symplecticity_check(field, samples: np.ndarray, bound: float,
                         fd_step: float, tol: float) -> dict:
    jacs = symflow.time1_jacobian_batch(field, samples, fd_step=fd_step,
                                        tol=tol)
    worst = _worst(symflow.symplecticity_residual(j) for j in jacs)
    return _check(worst <= bound, samples.shape[0], worst, bound=bound)


def _batch_endpoints(field, pts: np.ndarray, tol: float, backward: bool) -> np.ndarray:
    outs = symflow.integrate_batch(field, pts, -1.0 if backward else 1.0, tol=tol)
    ends = np.empty_like(np.atleast_2d(pts))
    for i, out in enumerate(outs):
        if out.status != symflow.COMPLETED:
            raise InputError(f"round-trip sample left the chart: {out.status}")
        ends[i] = out.endpoint
    return ends


def _roundtrip_check(field, survivors: np.ndarray, targets: np.ndarray,
                     bound: float, tol: float) -> dict:
    fw = _batch_endpoints(field, survivors, tol, backward=False)
    bk = _batch_endpoints(field, fw, tol, backward=True)
    bk_t = _batch_endpoints(field, targets, tol, backward=True)
    fw_t = _batch_endpoints(field, bk_t, tol, backward=False)
    worst = _worst([np.abs(bk - survivors), np.abs(fw_t - targets)])
    return _check(worst <= bound, survivors.shape[0] + targets.shape[0],
                  worst, bound=bound)


def _conservation_check(field, samples: np.ndarray, tol: float,
                        bound: float = 1e-7, horizon: float = 2.0) -> dict:
    drift = []
    for out in symflow.integrate_batch(field, samples, horizon, tol=tol,
                                       record=True):
        vals = np.atleast_1d(field.value(out.trajectory[:, 1:]))
        drift.append(np.abs(vals - vals[0]))
    worst = _worst(drift)
    return _check(worst <= bound, samples.shape[0], worst, bound=bound)


def _flatness_check(field, pts: np.ndarray, bound: float = 1e-10) -> dict:
    """grad F must vanish on sampled zeros of F off the hypersurface."""
    vals = np.abs(np.atleast_1d(field.value(pts)))
    zero = pts[vals == 0.0]
    if zero.shape[0] == 0:
        return _check(False, 0, math.inf, note="no zero samples found")
    worst = float(np.abs(np.atleast_2d(field.grad(zero))).max())
    return _check(worst <= bound, zero.shape[0], worst, bound=bound)


def _classification_check(field, membership: Callable, grid: np.ndarray,
                          tol: float) -> dict:
    rep = symflow.classify_escape(field, membership, grid, tol=tol)
    return _check(rep["pass"], rep["n_points"], float(rep["n_mismatches"]),
                  mismatches=rep["mismatches"][:10])


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
                       rng: np.random.Generator,
                       u_scale: float = 1.0) -> np.ndarray:
    """Surviving points where the time-1 map is FD-conditioned: inside the
    cutoff plateau near the axis (with the whole trajectory staying in the
    plateau: the tube pinches, so the radius ratio grows along the flow),
    or outside the tube with margin.  ``u_scale`` shrinks the tube as
    :func:`localize` does; the plateau window ``[x_lo, x_hi)`` must stay
    non-empty, which bounds ``u_scale`` from below."""
    dim = field.dim
    eps_eff = field.eps * u_scale
    h_eff = field.h_coef * u_scale
    out = []
    x_hi = -0.15
    x_lo = -min(0.45, 0.9 * eps_eff)
    if not x_lo < x_hi:
        raise InputError(
            f"u_scale {u_scale:g} leaves no plateau window for the "
            f"symplecticity samples; u_scale must exceed "
            f"{-x_hi / (0.9 * field.eps):.6g}")
    while len(out) < count // 2:
        x = rng.uniform(x_lo, x_hi)
        # bound the squared radius by the tube height at the time-1
        # endpoint x + 1, where the ratio is largest
        h_end = h_eff * abs(x) ** field.h_power
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
        h = h_eff * (1.0 - z[-2]) ** field.h_power
        q = np.sum(z[: dim - 2] ** 2) + z[-1] ** 2
        if q > 0.6 * h:
            out.append(z)
    return np.asarray(out)


def _run_ray(cfg: ScenarioConfig) -> dict:
    n = cfg.n if cfg.scenario == "ray" else 1
    if cfg.scenario == "ray" and n < 2:
        raise InputError("the 'ray' scenario needs n >= 2; use 'ray-n1'")
    base = (build_ray_hamiltonian(n) if n >= 2 else build_ray_hamiltonian_n1())
    field = base
    if cfg.u_scale != 1.0:
        hood = TubeNeighbourhood(eps=base.eps * cfg.u_scale,
                                 h_coef=base.h_coef * cfg.u_scale)
        rng0 = np.random.default_rng(cfg.seed + 99)
        field = localize(base, hood, target_samples=base.sample_target(200, rng0))

    rng = np.random.default_rng(cfg.seed)
    # drawn first so that a bad u_scale fails before the sweep; the sweep
    # draws nothing from rng
    sympl = _ray_sympl_samples(base, cfg.sympl_samples, rng, cfg.u_scale)

    checks = {}
    grid = _ray_grid(n, cfg.grid, cfg.margin)
    checks["escape_classification"] = _classification_check(
        field, base.membership, grid, cfg.tol)

    checks["symplecticity"] = _symplecticity_check(
        field, sympl, bound=1e-5, fd_step=cfg.fd_step, tol=cfg.tol)

    m = cfg.roundtrip_samples
    survivors = sympl[rng.integers(0, sympl.shape[0], size=m // 2)]
    targets = sympl[rng.integers(0, sympl.shape[0], size=m - m // 2)]
    checks["inverse_consistency"] = _roundtrip_check(
        field, survivors, targets, bound=1e-7, tol=cfg.tol)

    cons = sympl[rng.integers(0, sympl.shape[0], size=10)]
    axis_pts = np.zeros((3, base.dim))
    axis_pts[:, -2] = (-0.4, -0.2, -0.1)
    checks["conservation"] = _conservation_check(
        field, np.concatenate([cons, axis_pts]), cfg.tol)

    # zeros of F off the hypersurface: outside the tube with y != 0
    off = rng.uniform(-0.9, 0.9, size=(4000, base.dim))
    off = off[np.abs(off[:, -1]) > 0.05]
    hvals = base.h_coef * (1.0 - off[:, -2]) ** base.h_power
    qvals = np.sum(off[:, : base.dim - 2] ** 2, axis=1) + off[:, -1] ** 2
    off = off[qvals > 0.55 * hvals]
    checks["flatness_off_hypersurface"] = _flatness_check(field, off)

    # properness: |F| >= c only inside the predicted compact box
    prop_pass, prop_vals = True, []
    for c in (0.05, 0.1, 0.2):
        x_hi = 1.0 - c * c / base.h_coef
        r2 = base.h_coef * (1.0 + base.eps)
        pts = rng.uniform(-0.98, 0.98, size=(20000, base.dim))
        pts[:, -1] = rng.uniform(-3.0, 3.0, size=20000)
        inside = (pts[:, -2] >= -base.eps) & (pts[:, -2] <= x_hi)
        inside &= (np.sum(pts[:, : base.dim - 2] ** 2, axis=1) + pts[:, -1] ** 2) <= r2
        vals = np.abs(np.atleast_1d(field.value(pts[~inside])))
        prop_vals.append(vals)
        prop_pass &= bool(np.all(vals < c))
    checks["properness_away_from_zero"] = _check(prop_pass, 60000,
                                                 _worst(prop_vals))

    if cfg.u_scale != 1.0:
        outside = rng.uniform(-0.9, 0.9, size=(500, base.dim))
        hood_mask = ~field.hood.contains(outside)
        vecs = np.atleast_2d(field.vector_field(outside[hood_mask]))
        worst = float(np.abs(vecs).max()) if vecs.size else 0.0
        checks["locality_outside_U"] = _check(
            worst == 0.0, int(hood_mask.sum()), worst)

    return checks


# ---------------------------------------------------------------------------
# epigraph / brush scenarios
# ---------------------------------------------------------------------------

def _brush_setup(sharpness: float = 0.002):
    C = scalar_kit.ClosedSetSpec(
        dim=2,
        pieces=((scalar_kit.axis_point(0.0), scalar_kit.cantor_axis(0.0, 1.0, 6)),),
    )
    spec = null_fields.EpigraphSpec(
        C=C, lam=null_fields.constant_map(0.0),
        validation_box=((-1.0, -1.0), (2.0, 2.0)), sharpness=sharpness,
    )
    vfield = null_fields.build_epigraph_field(spec)
    ham = extend_null_field(vfield, epigraph_target(spec))
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
        v = float(np.atleast_1d(vfield.velocity(z[:2], z[2]))[0])
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
    checks = {}

    grid = _brush_grid(C, cfg.grid, cfg.margin)

    def member(z):
        z = np.atleast_2d(z)
        return C.contains(z[:, :2]) & (z[:, 2] >= 0.0) & (z[:, 3] == 0.0)

    checks["escape_classification"] = _classification_check(
        ham, member, grid, cfg.tol)

    sympl = _brush_sympl_samples(C, vfield, cfg.sympl_samples, rng)
    checks["symplecticity"] = _symplecticity_check(
        ham, sympl, bound=1e-5, fd_step=cfg.fd_step, tol=cfg.tol)

    moving = sympl[: cfg.sympl_samples // 2]
    m = cfg.roundtrip_samples
    survivors = moving[rng.integers(0, moving.shape[0], size=m // 2)]
    targets = moving[rng.integers(0, moving.shape[0], size=m - m // 2)].copy()
    targets[:, 2] += 0.5   # generic chart targets for the backward map
    checks["inverse_consistency"] = _roundtrip_check(
        ham, survivors, targets, bound=1e-7, tol=cfg.tol)

    checks["conservation"] = _conservation_check(
        ham, sympl[rng.integers(0, sympl.shape[0], size=10)], cfg.tol)

    off = rng.uniform(-0.5, 1.5, size=(4000, 4))
    off[:, 3] = rng.uniform(0.8, 2.0, size=4000) * np.sign(rng.uniform(-1, 1, 4000))
    checks["flatness_off_hypersurface"] = _flatness_check(ham, off)

    # closed-form fibre classification against raw membership
    pgrid = grid[::7, :2]
    xgrid = grid[::7, 2]
    mism = 0
    for p, x in zip(pgrid, xgrid):
        verdict = null_fields.classify_epigraph(vfield, p, float(x))
        want = (null_fields.EXCISED if (C.contains(p) and x >= 0.0)
                else null_fields.SURVIVES)
        mism += int(verdict != want)
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
    vfield = null_fields.build_epigraph_field(spec)
    ham = extend_null_field(vfield, epigraph_target(spec))
    rng = np.random.default_rng(cfg.seed)
    checks = {}

    # fibre classification on a transect grid
    m = cfg.grid or 100
    ts = np.linspace(-1.2, 1.2, m)
    xs = np.linspace(-0.9, 0.9, m)
    mism = tested = 0
    for t in ts:
        p = np.array([t, 0.1])
        if C.boundary_distance(p) < cfg.margin and not C.contains(p):
            continue
        lam_p = lam(p)
        for x in xs:
            if abs(x - lam_p) < cfg.margin:
                continue
            if C.contains(p) and C.boundary_distance(p) < cfg.margin:
                continue
            tested += 1
            verdict = null_fields.classify_epigraph(vfield, p, float(x))
            want = (null_fields.EXCISED if (C.contains(p) and x >= lam_p)
                    else null_fields.SURVIVES)
            mism += int(verdict != want)
    checks["fibre_classification"] = _check(mism == 0, tested, mism)

    # fibre bijectivity: backward then forward is the identity
    errs = []
    for _ in range(cfg.roundtrip_samples):
        p = rng.uniform(-1.2, 1.2, size=2)
        x_target = rng.uniform(-0.9, 0.9)
        _, x_back = null_fields.presympl_flow(vfield, p, x_target, -1.0)
        _, x_fwd = null_fields.presympl_flow(vfield, p, x_back, 1.0)
        errs.append(abs(x_fwd - x_target))
    worst = _worst(errs)
    checks["fibre_bijectivity"] = _check(worst <= 1e-8,
                                         cfg.roundtrip_samples, worst,
                                         bound=1e-8)

    # forward invariance of the epigraph (flow for less than the exit time)
    ok = True
    zp = C.sample(200, rng)
    for p in zp:
        lam_p = lam(p)
        x = rng.uniform(lam_p, 0.97)
        exit_t = flow1d.forward_time(vfield.fiber(p), float(x))
        _, x1 = null_fields.presympl_flow(vfield, p, x, 0.5 * exit_t.value)
        ok &= (x1 >= x - 1e-12) and (x1 >= lam_p)
    checks["forward_invariance"] = _check(ok, 200, 0.0)

    # extension certificates
    pts = rng.uniform(-1.0, 1.0, size=(1000, 4))
    pts[:, 2] = rng.uniform(-0.9, 0.9, size=1000)
    clear = C.boundary_distance(pts[:, :2]) > 0.02
    checks["gradient_oracle"] = _grad_check(ham, pts[clear], cfg.fd_step, 1e-5)

    onN = pts.copy()
    onN[:, 3] = 0.0
    vec = np.atleast_2d(ham.vector_field(onN))
    v_exp = np.atleast_1d(vfield.velocity(onN[:, :2], onN[:, 2]))
    chi = ham.cutoff(onN)
    resid = _worst([np.abs(vec[:, [0, 1, 3]]), np.abs(vec[:, 2] - chi * v_exp)])
    checks["hypersurface_restriction"] = _check(resid <= 1e-10, onN.shape[0], resid,
                                                bound=1e-10)
    f_on_n = np.abs(np.atleast_1d(ham.value(onN))).max()
    wit = scalar_kit.decay_witness(pts)
    below = np.all(np.abs(np.atleast_1d(ham.value(pts))) < wit)
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
    field = lsc_fields.build_lsc_field(spec, depth=cfg.depth, grid=transect)
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

    prop_ok = True
    worst_slack = math.inf
    for lvl in range(2, field.baire.depth + 1):
        r = 1.0 / lvl
        inf_ball = np.ones(G.shape[0])
        for lo, hi, value in spec.pieces:
            lo_a, hi_a = np.asarray(lo), np.asarray(hi)
            d = np.linalg.norm(
                np.maximum(np.maximum(lo_a - G, G - hi_a), 0.0), axis=1)
            inf_ball = np.where(d < r, np.minimum(inf_ball, value), inf_ball)
        slack = vals[:, lvl - 1] - (1.0 - 1.0 / lvl) * inf_ball
        worst_slack = min(worst_slack, float(slack.min()))
        prop_ok &= bool(np.all(slack >= -1e-12))
    checks["minorant_lower_bound"] = _check(prop_ok, G.shape[0], -worst_slack)

    # level-resolved exit times: threshold exactness and monotone nesting
    xs = np.linspace(0.05, 0.9, m)
    xs = xs[(xs > 0.0) & (xs < 0.9)]
    mism = tested = 0
    nest_ok = True
    coincide_ok = True
    for p in transect:
        if spec.boundary_distance(p) < cfg.margin:
            continue
        data = field.fiber_data(p)
        for x in xs:
            for lvl in (1, max(2, cfg.depth // 2), cfg.depth):
                fn = data.f[lvl - 1]
                if abs(x - fn) < 1e-6:
                    continue
                tested += 1
                t_exit = field.level_exit_time(p, float(x), lvl)
                mism += int((t_exit <= 1.0) != (x >= fn))
        # nesting and coincidence on this fibre
        xs_f = np.linspace(0.05, float(data.g[-1]) - 1e-3, 40)
        prev = None
        for lvl in range(1, field.depth + 1):
            v = lsc_fields.band_velocity(data.g, data.tau, lvl, xs_f)
            if prev is not None:
                nest_ok &= bool(np.all(v <= prev + 1e-14)) and bool(np.all(v > 0))
                low = xs_f <= data.g[lvl - 1]
                coincide_ok &= bool(np.all(v[low] == prev[low]))
                high = xs_f >= data.g[lvl]
                coincide_ok &= bool(np.all(v[high] == 1.0))
            prev = v
    checks["level_thresholds"] = _check(mism == 0, tested, mism)
    checks["monotone_nesting"] = _check(nest_ok and coincide_ok,
                                        transect.shape[0] * 40, 0.0)

    # limit classification against direct lookup
    mism = tested = 0
    for p in transect:
        if spec.boundary_distance(p) < cfg.margin:
            continue
        lam_p = spec.lam(p)
        for x in xs:
            if abs(x - lam_p) < cfg.margin:
                continue
            tested += 1
            try:
                verdict = field.classify(p, float(x))
            except DepthExhausted:
                mism += 1
                continue
            want = "excised" if x >= lam_p else "survives"
            mism += int(verdict != want)
    checks["limit_classification"] = _check(mism == 0, tested, mism)

    # backward totality and fibre bijectivity through the final cutoff
    errs = []
    blocked = True
    for _ in range(60):
        p = transect[rng.integers(0, transect.shape[0])]
        if spec.boundary_distance(p) < cfg.margin:
            continue
        data = field.fiber_data(p)
        fiber = field.fiber(p)
        x_t = rng.uniform(float(data.f[0]), 0.9)
        back = flow1d.backward_time(fiber, float(x_t))
        blocked &= (back.value == -math.inf)
        x_b = flow1d.flow_map(fiber, -1.0, float(x_t))
        x_f = flow1d.flow_map(fiber, 1.0, x_b)
        errs.append(abs(x_f - x_t))
        z_lo = 0.25 * float(data.f[0])
        blocked &= (field.velocity(p, z_lo) == 0.0)
    worst = _worst(errs)
    checks["backward_totality"] = _check(blocked and worst <= 1e-8, 60, worst,
                                         bound=1e-8)
    return checks


# ---------------------------------------------------------------------------
# tree scenarios
# ---------------------------------------------------------------------------

def _horned_ray_spec() -> trees.TreeSpec:
    return trees.TreeSpec(
        nodes=((0.0, 0.0), (1.2, 0.0), (-1.0, 1.0), (-1.0, -1.0)),
        edges=((0, 1), (0, 2), (0, 3)),
        mode=trees.OPEN_ROOTED,
        special=1,
    )


def _double_y_spec() -> trees.TreeSpec:
    return trees.TreeSpec(
        nodes=((0.0, 0.0), (1.0, 0.0), (-1.0, 0.0),
               (2.0, 1.0), (2.0, -1.0), (-2.0, 1.0), (-2.0, -1.0)),
        edges=((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)),
        mode=trees.RETRACT,
        special=0,
    )


def _tree_checks(staged: trees.StagedExcision, cfg: ScenarioConfig,
                 rng: np.random.Generator) -> dict:
    checks = {}
    spec = staged.spec

    # locality samples: points outside the union of strips
    box_lo, box_hi = np.array([-2.5, -2.5]), np.array([2.5, 2.5])
    pool = rng.uniform(box_lo, box_hi, size=(3000, 2))
    outside = pool[~staged.in_support(pool)][:200]

    # on-tree samples of each branch; margin bands are carved around both
    # branch ends (junctions of other stages)
    on_tree = []
    for f in staged.fields:
        chart = f.chart
        margin_t = 2.0 * spec.w0 / chart.length
        ts = np.linspace(margin_t, 1.0 - margin_t, 12)
        leaf = np.asarray(chart.leaf)
        node = np.asarray(chart.node)
        on_tree.append(leaf[None, :] + ts[:, None] * (node - leaf)[None, :])
    on_tree = np.concatenate(on_tree)
    own_stage = np.repeat(np.arange(len(staged.fields)), ts.size)

    # conditioned survivors: behind-the-leaf plateau points and frozen
    # outside points
    samples = []
    per_branch = max(1, cfg.sympl_samples // (2 * len(staged.fields)))
    for f in staged.fields:
        chart = f.chart
        for _ in range(per_branch):
            x1 = rng.uniform(-0.35 * chart.eps / 0.4, -0.05)
            z = chart.from_model(np.array([[x1, 0.0]]))[0]
            samples.append(z)
    extra = outside[: max(cfg.sympl_samples - len(samples), 0)]
    samples = np.concatenate([np.asarray(samples), extra], axis=0)
    inv_samples = samples[: cfg.roundtrip_samples // 4]

    # one composed forward pass serves the locality, containment, on-tree
    # and inverse checks
    cuts = np.cumsum([outside.shape[0], on_tree.shape[0]])
    ends, esc = staged.forward_batch(
        np.concatenate([outside, on_tree, inv_samples]), tol=cfg.tol)
    out_ends, _, inv_ends = np.split(ends, cuts)
    out_esc, tree_esc, inv_esc = np.split(esc, cuts)

    # locality: points outside the union of strips are fixed bitwise
    moved = np.abs(out_ends - outside).max() if outside.size else 0.0
    fixed = bool(np.all(out_ends == outside)) and bool(np.all(out_esc == -1))
    checks["locality_outside_U"] = _check(fixed, outside.shape[0], float(moved))

    # containment: nothing outside U maps into U
    into = staged.in_support(out_ends)
    checks["containment"] = _check(not np.any(into), outside.shape[0],
                                   float(np.sum(into)))

    # every on-tree sample escapes during its own branch's stage
    mism = int(np.sum(tree_esc != own_stage))
    checks["on_tree_escape"] = _check(mism == 0, on_tree.shape[0], float(mism))

    # composed symplecticity at the conditioned survivors
    def composed(stencil):
        images, stage = staged.forward_batch(stencil, tol=cfg.tol)
        return images, stage == -1

    jacs = symflow.numerical_jacobian(composed, samples, fd_step=cfg.fd_step)
    worst = _worst(symflow.symplecticity_residual(j) for j in jacs)
    checks["composed_symplecticity"] = _check(worst <= 2e-5, samples.shape[0],
                                              worst, bound=2e-5)

    # composed inverse consistency
    if np.any(inv_esc != -1):
        raise ExcisedPointError("an inverse sample escaped the forward map")
    worst = _worst([np.abs(staged.inverse_batch(inv_ends, tol=cfg.tol)
                           - inv_samples)])
    checks["composed_inverse"] = _check(worst <= 1e-7, inv_samples.shape[0],
                                        worst, bound=1e-7)
    return checks


def _run_tree(cfg: ScenarioConfig) -> dict:
    staged = trees.excise_tree(_horned_ray_spec())
    rng = np.random.default_rng(cfg.seed)
    checks = _tree_checks(staged, cfg, rng)
    checks["stage_count"] = _check(len(staged.fields) == 3, 3,
                                   float(len(staged.fields)))
    return checks


def _run_retract(cfg: ScenarioConfig) -> dict:
    staged = trees.retract_tree(_double_y_spec())
    rng = np.random.default_rng(cfg.seed)
    checks = _tree_checks(staged, cfg, rng)

    # a near-tree survivor lands away from the kept point
    z0 = np.asarray(staged.spec.nodes[staged.spec.special])
    z = np.array([0.5, 0.035])
    end, esc = staged.forward_batch(z[None, :], tol=cfg.tol)
    ok = esc[0] == -1 and np.linalg.norm(end[0] - z0) > 1e-3
    checks["near_tree_survivor"] = _check(bool(ok), 1,
                                          float(np.linalg.norm(end[0] - z0)))
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


def _write_trajectories(cfg: ScenarioConfig, out_dir: str) -> None:
    """A few representative trajectories per scenario, one CSV each."""
    os.makedirs(os.path.join(out_dir, "trajectories"), exist_ok=True)
    if cfg.scenario in ("ray", "ray-n1"):
        n = cfg.n if cfg.scenario == "ray" else 1
        field = build_ray_hamiltonian(n) if n >= 2 else build_ray_hamiltonian_n1()
        starts = [np.zeros(field.dim) for _ in range(3)]
        starts[0][-2] = -0.3
        starts[1][-2] = 0.25
        starts[2][-2] = -0.2
        starts[2][-1] = 0.1
    elif cfg.scenario == "cantor-brush":
        _, _, _, field = _brush_setup()
        starts = [np.array([0.0, 0.5, -0.3, 0.0]),
                  np.array([0.0, 1.0 / 3.0, -0.3, 0.0]),
                  np.array([0.0, 0.5, 0.2, 0.1])]
    else:
        return
    outs = symflow.integrate_batch(field, np.stack(starts),
                                   1.0 + symflow.DELTA_PROBE, tol=cfg.tol,
                                   record=True)
    for i, out in enumerate(outs):
        rows = out.trajectory
        path = os.path.join(out_dir, "trajectories", f"traj_{i}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            n_pairs = (rows.shape[1] - 1) // 2
            header = ["t"]
            for k in range(1, n_pairs + 1):
                header += [f"x{k}", f"y{k}"]
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(float(v)) for v in row])


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Build the scenario, run its certification suite, optionally write
    ``report.json`` and trajectory CSVs, and return the report."""
    if cfg.scenario == "verify-all":
        sub = {}
        overall = True
        for name in ("ray", "ray-n1", "epigraph", "cantor-brush",
                     "box-tail", "tree", "retract"):
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
        if cfg.scenario != "verify-all":
            _write_trajectories(cfg, cfg.out_dir)
    return report
