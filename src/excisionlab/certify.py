"""Check kernels of the certification suite.

This module owns the checks the scenarios share: the fail-closed residual
reduction, the report entry of one check and of one bounded residual, the
gradient oracle, symplecticity of a time-1 map, the batched flow pass of
the ray and brush scenarios (which also writes their trajectory CSVs),
cutoff flatness, and the composed pass of the tree scenarios.  The
scenarios module builds the fields, draws the samples and calls in here;
this module never imports it.  The two passes take the run's config as a
plain object and read only ``tol``, ``fd_step``, ``out_dir``,
``sympl_samples`` and ``roundtrip_samples`` of it.  Every flow and Jacobian
routine is called through its module (``symflow.integrate_batch``), so a
wrapper installed on the module sees each call.

Symplecticity is certified by finite differences, which requires the map to
be FD-conditioned at the sample: near the cutoff transition bands the flow
has genuinely large higher derivatives and central differences at step 1e-5
cannot see 1e-5 residuals there.  Samples are therefore drawn from the
cutoff plateau and from frozen regions (both honest surviving points), and
the conditioning rule is part of each scenario's sampler.
"""

from __future__ import annotations

import csv
import math
import os
from typing import Callable

import numpy as np

from . import symflow
from .errors import ExcisedPointError, InputError
from .ham_extension import coordinate_stencil


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
    """One check's report entry; a check that tested no point fails
    closed, whatever its verdict."""
    out = {"pass": bool(passed) and int(points) > 0, "points": int(points),
           "max_residual": float(max_residual)}
    out.update(extra)
    return out


def _bounded(values, points: int, bound: float, holds: bool = True) -> dict:
    """The check that the :func:`_worst` of the residuals ``values`` over
    ``points`` points is at most ``bound``, and that ``holds``; the report
    entry states the bound it was judged against."""
    worst = _worst(values)
    return _check(holds and worst <= bound, points, worst, bound=bound)


def _grad_check(field, pts: np.ndarray, fd_step: float, rel_tol: float) -> dict:
    """Closed-form gradient against the Richardson-extrapolated O(h^4)
    central difference ``(8 (f(z+h) - f(z-h)) - (f(z+2h) - f(z-2h))) / 12h``.
    The plain O(h^2) stencil is truncation-limited in the cutoff bands.
    The shifts by ``h`` and ``2h`` are the rows of two coordinate stencils,
    each evaluated in one ``value`` call."""
    m, d = pts.shape
    g = field.grad(pts)
    # (m, d, 2): the +step and -step values along each axis
    near = field.value(coordinate_stencil(pts, fd_step)).reshape(m, d, 2)
    far = field.value(coordinate_stencil(pts, 2.0 * fd_step)).reshape(m, d, 2)
    fd = (8.0 * (near[..., 0] - near[..., 1])
          - (far[..., 0] - far[..., 1])) / (12.0 * fd_step)
    return _bounded([np.abs(fd - g) / (1.0 + np.abs(g))], m, rel_tol)


def _symplecticity_check(stencil, points: np.ndarray, fd_step: float,
                         bound: float) -> dict:
    """The symplecticity residual at each of ``points`` against ``bound``,
    read from ``stencil``, the :class:`symflow.FlowOutcome` of their
    coordinate stencil at ``fd_step``."""
    jacs = symflow.time1_jacobian_batch(stencil, points, fd_step)
    return _bounded([symflow.symplecticity_residual(jacs)], jacs.shape[0], bound)


def _integrate_plan(field, plan: dict, tol: float) -> dict:
    """Integrate every block of ``plan`` in one :func:`symflow.integrate_batch`
    call and return each block's :class:`symflow.FlowOutcome` by name.

    ``plan`` maps a name to ``(starts, t_final, record)``.  Each row
    carries its own signed time and step, and the scenario fields are
    row-independent, so a block's outcome is bitwise the one a call of its
    own would give; the call takes as many DP5 steps as its slowest row
    instead of the sum over the blocks.
    """
    starts, times, record = zip(*plan.values())
    sizes = [z.shape[0] for z in starts]
    out = symflow.integrate_batch(field, np.concatenate(starts),
                                  np.repeat(times, sizes), tol=tol,
                                  record=np.repeat(record, sizes))
    return _split(out, dict(zip(plan, starts)))


def _split(outcome, blocks: dict) -> dict:
    """Each named block's :class:`symflow.FlowOutcome`, sliced from
    ``outcome``, the flow of the blocks' ``(k, d)`` starts concatenated in
    order."""
    cuts = np.cumsum([0] + [z.shape[0] for z in blocks.values()])
    return {name: outcome.take(slice(a, b))
            for name, a, b in zip(blocks, cuts[:-1], cuts[1:])}


def _completed_endpoints(out) -> np.ndarray:
    left = np.nonzero(~out.completed)[0]
    if left.size:
        raise InputError(f"round-trip sample left the chart: {out.status[left[0]]}")
    return out.endpoint


def _flow_checks(field, membership: Callable, grid: np.ndarray,
                 sympl: np.ndarray, survivors: np.ndarray, targets: np.ndarray,
                 cons: np.ndarray, starts: np.ndarray, cfg) -> dict:
    """Escape classification of ``grid``, symplecticity at ``sympl``, the
    round trips of ``survivors`` (forward first) and ``targets`` (backward
    first) and conservation along ``cons``, from two integrate_batch calls:
    every first leg, then the return legs.  With an ``out_dir`` the first
    call also records the trajectories from ``starts``, and they are
    written there.

    A stencil row that leaves the chart raises :class:`StencilError`
    before a first leg that leaves it raises :class:`InputError`.
    """
    probe = 1.0 + symflow.DELTA_PROBE
    plan = {
        "grid": (grid, probe, False),
        "stencil": (coordinate_stencil(sympl, cfg.fd_step), 1.0, False),
        "survivors": (survivors, 1.0, False),
        "targets": (targets, -1.0, False),
        "conservation": (cons, 2.0, True),
    }
    if cfg.out_dir:
        plan["trajectories"] = (starts, probe, True)
    flows = _integrate_plan(field, plan, cfg.tol)

    checks = {}
    rep = symflow.classify_escape(flows["grid"], membership, grid)
    checks["escape_classification"] = _check(
        rep["pass"], rep["n_points"], float(rep["n_mismatches"]),
        mismatches=rep["mismatches"][:10])

    checks["symplecticity"] = _symplecticity_check(flows["stencil"], sympl,
                                                   cfg.fd_step, 1e-5)

    legs = _integrate_plan(field, {
        "survivors": (_completed_endpoints(flows["survivors"]), -1.0, False),
        "targets": (_completed_endpoints(flows["targets"]), 1.0, False),
    }, cfg.tol)
    checks["inverse_consistency"] = _bounded(
        [np.abs(_completed_endpoints(legs["survivors"]) - survivors),
         np.abs(_completed_endpoints(legs["targets"]) - targets)],
        survivors.shape[0] + targets.shape[0], 1e-7)

    # energy drift along each recorded trajectory to t = 2
    energies = [field.value(traj[:, 1:])
                for traj in flows["conservation"].trajectories]
    checks["conservation"] = _bounded([np.abs(e - e[0]) for e in energies],
                                      cons.shape[0], 1e-7)

    if cfg.out_dir:
        _write_trajectories(flows["trajectories"].trajectories, cfg.out_dir)
    return checks


def _write_trajectories(trajectories: list, out_dir: str) -> None:
    """One CSV per recorded trajectory, in ``out_dir/trajectories``."""
    for i, rows in enumerate(trajectories):
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


def _flatness_check(field, pts: np.ndarray) -> dict:
    """grad F must vanish, to 1e-10, on sampled zeros of F off the
    hypersurface."""
    vals = np.abs(field.value(pts))
    zero = pts[vals == 0.0]
    if zero.shape[0] == 0:
        return _check(False, 0, math.inf, note="no zero samples found")
    return _bounded([np.abs(field.grad(zero))], zero.shape[0], 1e-10)


def _tree_checks(staged, cfg, rng: np.random.Generator,
                 extra: np.ndarray) -> tuple:
    """Locality, containment, on-tree escape, composed symplecticity and
    composed inverse checks of the :class:`trees.StagedExcision` ``staged``,
    all read from one composed forward pass; returns ``(checks, outcome)``
    with the :class:`symflow.FlowOutcome` of the ``(k, 2)`` starts
    ``extra``, which ride along in the same pass.

    A stencil row that leaves the chart raises :class:`StencilError`
    before an inverse sample that escapes raises
    :class:`ExcisedPointError`.
    """
    checks = {}
    spec = staged.spec

    # locality samples: points outside the union of strips
    box_lo, box_hi = np.array([-2.5, -2.5]), np.array([2.5, 2.5])
    pool = rng.uniform(box_lo, box_hi, size=(3000, 2))
    outside = pool[~staged.in_support(pool)][:200]

    # on-tree samples of each branch; margin bands are carved around both
    # branch ends (junctions of other stages)
    on_tree = []
    for chart in staged.charts:
        margin_t = 2.0 * spec.w0 / chart.length
        ts = np.linspace(margin_t, 1.0 - margin_t, 12)
        leaf = np.asarray(chart.leaf)
        node = np.asarray(chart.node)
        on_tree.append(leaf[None, :] + ts[:, None] * (node - leaf)[None, :])
    on_tree = np.concatenate(on_tree)
    own_stage = np.repeat(np.arange(staged.field.stages), ts.size)

    # conditioned survivors: behind-the-leaf plateau points and frozen
    # outside points
    samples = []
    per_branch = max(1, cfg.sympl_samples // (2 * staged.field.stages))
    for chart in staged.charts:
        for _ in range(per_branch):
            x1 = rng.uniform(-0.35 * chart.eps / 0.4, -0.05)
            z = chart.from_model(np.array([[x1, 0.0]]))[0]
            samples.append(z)
    frozen = outside[: max(cfg.sympl_samples - len(samples), 0)]
    samples = np.concatenate([np.asarray(samples), frozen], axis=0)
    inv_samples = samples[: cfg.roundtrip_samples // 4]

    # one composed forward pass serves the locality, containment, on-tree
    # and inverse checks, the symplecticity stencil and the caller's extra
    # starts (retract's near-tree survivor): each row carries its own
    # adaptive step and stage, so the pass takes as many DP5 steps as its
    # slowest row instead of the sum over the blocks
    blocks = {"outside": outside, "on_tree": on_tree, "inverse": inv_samples,
              "stencil": coordinate_stencil(samples, cfg.fd_step),
              "extra": extra}
    flows = _split(staged.forward_batch(np.concatenate(list(blocks.values())),
                                        tol=cfg.tol), blocks)

    # locality: points outside the union of strips are fixed bitwise
    out = flows["outside"]
    fixed = bool(np.all(out.endpoint == outside) and np.all(out.completed))
    checks["locality_outside_U"] = _check(
        fixed, outside.shape[0], _worst([np.abs(out.endpoint - outside)]))

    # containment: nothing outside U maps into U
    into = staged.in_support(out.endpoint)
    checks["containment"] = _check(not np.any(into), outside.shape[0],
                                   float(np.sum(into)))

    # every on-tree sample escapes during its own branch's stage
    tree = flows["on_tree"]
    mism = int(np.sum((tree.status != symflow.ESCAPED)
                      | (tree.stage != own_stage)))
    checks["on_tree_escape"] = _check(mism == 0, on_tree.shape[0], float(mism))

    # composed symplecticity at the conditioned survivors, read from the
    # pass's stencil images
    checks["composed_symplecticity"] = _symplecticity_check(
        flows["stencil"], samples, cfg.fd_step, 2e-5)

    # composed inverse consistency
    inv = flows["inverse"]
    if not np.all(inv.completed):
        raise ExcisedPointError("an inverse sample escaped the forward map")
    checks["composed_inverse"] = _bounded(
        [np.abs(staged.inverse_batch(inv.endpoint, tol=cfg.tol) - inv_samples)],
        inv_samples.shape[0], 1e-7)
    return checks, flows["extra"]
