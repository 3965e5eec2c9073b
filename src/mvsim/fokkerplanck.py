"""Finite-difference solver for the forward (Fokker-Planck) equation.

The density equation is always derived from the SDE coefficients,

    dp/dt = - sum_i d_i(b_i p) + 1/2 sum_ij d_i d_j(A_ij p),   A = sigma sigma^T,

with the statistic vector s recomputed from the evolving density each step, so
the nonlocal coupling is carried through the drift/diffusion fields.

Scheme: explicit Euler in time, stepped by one loop over the axes for 1D and
2D alike.  The density p and the products A_kk p live inside a frame of ghost
nodes that stays zero, the Dirichlet boundary outside the box.  Along each
axis the step takes a conservative flux on the n+1 cell faces, upwinded by
the sign of the face velocity (the mean drift of the two nodes beside the
face; a boundary face uses the drift of its one node), the difference of that
flux, and the centered second difference of A_kk p across the frame.  In 2D the cross term
adds centered mixed differences of A_12 p.  Every operator telescopes over
the grid, so the mass lost per step equals the flux through the boundary
faces plus the frame terms of the differences; that is tracked as cumulative
boundary flux, and mass plus flux staying at 1 is a live consistency check of
the implementation.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coefficients import CoefficientModel
from .errors import ConservationError, NumericError, PositivityError, StabilityError
from .measures import GridAxis, GridDensity, grid_statistics, trapezoid_weights
from .particle import InitialLaw

# tolerances of the stepping loop
_POSITIVITY_FLOOR = -1e-3
_CONSERVATION_TOL = 1e-4
_SNAPSHOT_MASS_TOL = 1e-2
_MAX_STEPS = 50_000_000


@dataclass(frozen=True)
class FPProblem:
    """A density evolution problem on a fixed box.

    ``dt`` is either the string ``"auto"`` (step size from the stability
    bound each step, with a 0.9 safety factor) or a fixed positive float that
    is checked against the bound before every step.
    """

    model: CoefficientModel
    axes: tuple[GridAxis, ...]
    p0: GridDensity
    horizon: float
    dt: float | str = "auto"
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.axes) not in (1, 2):
            raise ValueError("only 1D and 2D problems are supported")
        if len(self.axes) != self.model.d:
            raise ValueError(
                f"grid dimension {len(self.axes)} does not match model dimension {self.model.d}")
        if self.p0.axes != tuple(self.axes):
            raise ValueError("initial density lives on a different grid")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if isinstance(self.dt, str):
            if self.dt != "auto":
                raise ValueError(f"dt policy must be 'auto' or a float, got {self.dt!r}")
        elif not self.dt > 0:
            raise ValueError(f"fixed dt must be positive, got {self.dt}")
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.horizon + 1e-12:
                raise ValueError(f"snapshot time {t} outside [0, {self.horizon}]")


@dataclass
class FPSolution:
    """Solver output: snapshots plus per-step accounting curves."""

    snapshots: list[GridDensity]
    snapshot_times: tuple[float, ...]
    times: np.ndarray
    mass_curve: np.ndarray
    min_value_curve: np.ndarray
    boundary_flux_curve: np.ndarray
    stat_curve: np.ndarray
    n_steps: int


def gaussian_on_grid(law: InitialLaw, axes: tuple[GridAxis, ...]) -> GridDensity:
    """Discretize a Gaussian initial law, normalized to unit trapezoid mass.

    The box must contain at least six standard deviations around the mean in
    every coordinate; point laws have no density and are rejected.
    """
    if law.kind != "gaussian":
        raise ValueError(
            "density evolution needs a Gaussian initial law (a point mass has no grid density)")
    d = len(axes)
    if law.d != d:
        raise ValueError(f"initial law dimension {law.d} does not match grid dimension {d}")
    cov = np.atleast_2d(law.cov)
    for i, ax in enumerate(axes):
        sd = math.sqrt(float(cov[i, i]))
        if law.mean[i] - 6 * sd < ax.lo or law.mean[i] + 6 * sd > ax.hi:
            raise ValueError(
                f"axis {i} box [{ax.lo}, {ax.hi}] does not cover six standard "
                f"deviations around the initial mean {law.mean[i]}")
    if d == 1:
        x = axes[0].nodes()
        var = float(cov[0, 0])
        vals = np.exp(-0.5 * (x - law.mean[0]) ** 2 / var) / math.sqrt(2 * math.pi * var)
        weights = trapezoid_weights(axes[0])
    else:
        xx, yy = np.meshgrid(axes[0].nodes(), axes[1].nodes(), indexing="ij")
        diff = np.stack([xx - law.mean[0], yy - law.mean[1]], axis=-1)
        prec = np.linalg.inv(cov)
        quad = np.einsum("...i,ij,...j->...", diff, prec, diff)
        vals = np.exp(-0.5 * quad) / (2 * math.pi * math.sqrt(np.linalg.det(cov)))
        weights = np.outer(trapezoid_weights(axes[0]), trapezoid_weights(axes[1]))
    vals = vals / float((weights * vals).sum())
    return GridDensity(tuple(axes), vals, time=0.0, mass_tol=1e-9)


def build_fp_problem(model: CoefficientModel, law: InitialLaw,
                     domain: tuple[tuple[float, float], ...],
                     nodes: tuple[int, ...], horizon: float,
                     snapshot_times: tuple[float, ...] = (),
                     dt: float | str = "auto") -> FPProblem:
    """Convenience constructor: box + node counts + Gaussian initial law."""
    if len(domain) != len(nodes):
        raise ValueError("domain and nodes describe different dimensions")
    axes = tuple(GridAxis(float(lo), float(hi), int(n))
                 for (lo, hi), n in zip(domain, nodes))
    p0 = gaussian_on_grid(law, axes)
    if not snapshot_times:
        snapshot_times = (float(horizon),)
    return FPProblem(model=model, axes=axes, p0=p0, horizon=float(horizon),
                     dt=dt, snapshot_times=tuple(sorted(set(float(t) for t in snapshot_times))))


def _drift(model: CoefficientModel, t: float, coords: np.ndarray,
           grid_shape: tuple[int, ...], s: np.ndarray) -> np.ndarray:
    """Drift field (grid..., d) on flattened node coordinates."""
    return np.asarray(model.b(t, coords, s), dtype=float).reshape(grid_shape + (model.d,))


def _diffusion(model: CoefficientModel, t: float, coords: np.ndarray,
               grid_shape: tuple[int, ...], s: np.ndarray) -> np.ndarray:
    """Diffusion-matrix field A = sigma sigma^T (grid..., d, d), symmetrized."""
    d = model.d
    sig = np.asarray(model.sigma(t, coords, s), dtype=float)
    a = np.einsum("...ik,...jk->...ij", sig, sig).reshape(grid_shape + (d, d))
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def derive_fp_coefficients(model: CoefficientModel, t: float,
                           axes: tuple[GridAxis, ...],
                           p: GridDensity) -> tuple[np.ndarray, np.ndarray]:
    """Drift field (grid..., d) and diffusion-matrix field (grid..., d, d)
    entering the derived forward equation at time t, with s taken from p."""
    if p.axes != tuple(axes):
        raise ValueError("density lives on a different grid than the requested axes")
    s = grid_statistics(p, model.functionals)
    shape = tuple(ax.n for ax in axes)
    coords = p.node_coords()
    return _drift(model, t, coords, shape, s), _diffusion(model, t, coords, shape, s)


def _plan_events(problem: FPProblem) -> list[float]:
    events = sorted(set(float(t) for t in problem.snapshot_times if t > 0.0))
    if not events or events[-1] < problem.horizon:
        events.append(float(problem.horizon))
    return events


def _statistic_rows(model: CoefficientModel, dens: GridDensity) -> np.ndarray:
    """Rows r_k with s_k = r_k . p.ravel(): trapezoid weights times phi."""
    w = dens.node_weights().ravel()
    coords = dens.node_coords()
    return np.array([w * np.asarray(f.phi(coords), dtype=float)
                     for f in model.functionals]).reshape(model.q, w.size)


def _along(d: int, k: int, s, rest=slice(None)) -> tuple:
    """Index of a d-axis array taking ``s`` on axis k and ``rest`` on the others."""
    return tuple(s if j == k else rest for j in range(d))


class _Cuts(NamedTuple):
    """Index tuples that cut one axis of an array and keep the others whole."""

    head: tuple   # all but the last entry
    tail: tuple   # all but the first entry
    inner: tuple  # all but both end entries
    first: tuple  # the first entry
    last: tuple   # the last entry


def _cuts(d: int, k: int) -> _Cuts:
    return _Cuts(*(_along(d, k, s) for s in
                   (slice(None, -1), slice(1, None), slice(1, -1), 0, -1)))


def _upwind_parts(bk: np.ndarray, k: int, cut: _Cuts) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative parts of drift component ``bk`` on the n+1 faces
    of axis k: inner faces average their two nodes, a boundary face takes the
    drift of its one node."""
    shape = list(bk.shape)
    shape[k] += 1
    bf = np.empty(shape)
    bf[cut.first], bf[cut.last] = bk[cut.first], bk[cut.last]
    inner = bf[cut.inner]
    np.add(bk[cut.head], bk[cut.tail], out=inner)
    inner *= 0.5
    return np.maximum(bf, 0.0), np.minimum(bf, 0.0)


def solve_fp(problem: FPProblem) -> FPSolution:
    """March the density to the horizon, recording snapshots and accounting.

    Raises
    ------
    StabilityError
        if a fixed dt exceeds the stability limit (checked before stepping),
        or the automatic step size collapses.
    PositivityError
        if the density undershoots below -1e-3 (values are never clamped).
    ConservationError
        if mass drifts from 1 by more than 1e-4 net of boundary flux.
    NumericError
        if the density stops being finite.
    """
    model = problem.model
    axes = problem.axes
    d = len(axes)
    shape = tuple(ax.n for ax in axes)
    hs = [ax.spacing for ax in axes]
    cell = math.prod(hs)
    # area of a face across axis k, and the centered second-difference weight
    face_area = [math.prod(h for j, h in enumerate(hs) if j != k) for k in range(d)]
    half_h2 = [0.5 / h ** 2 for h in hs]
    coords = problem.p0.node_coords()
    phi_rows = _statistic_rows(model, problem.p0)
    fixed_dt = None if problem.dt == "auto" else float(problem.dt)

    # p and w (A_kk p, then A_12 p) sit inside a frame of ghost nodes that
    # stays zero: the Dirichlet boundary outside the box
    mid = slice(1, -1)
    P = np.zeros(tuple(n + 2 for n in shape))
    W = np.zeros_like(P)
    p, w = P[(mid,) * d], W[(mid,) * d]
    p[...] = problem.p0.values
    upd = np.empty(shape)
    cuts = [_cuts(d, k) for k in range(d)]
    # frame neighbours along axis k: of each of the n+1 faces, and of each node
    below = [P[_along(d, k, slice(None, -1), mid)] for k in range(d)]
    above = [P[_along(d, k, slice(1, None), mid)] for k in range(d)]
    w_below = [W[_along(d, k, slice(None, -2), mid)] for k in range(d)]
    w_above = [W[_along(d, k, slice(2, None), mid)] for k in range(d)]

    events = _plan_events(problem)
    snapshots: list[GridDensity] = []
    snap_times: list[float] = []
    if any(t == 0.0 for t in problem.snapshot_times):
        snapshots.append(GridDensity(axes, p.copy(), time=0.0,
                                     mass_tol=_SNAPSHOT_MASS_TOL))
        snap_times.append(0.0)
    snap_set = set(float(t) for t in problem.snapshot_times)

    s = phi_rows @ p.ravel()
    curves = [array("d") for _ in range(4)]  # t, mass, min value, boundary flux
    stats = array("d", s)
    for c, v in zip(curves, (0.0, float(p.sum() * cell), float(p.min()), 0.0)):
        c.append(v)

    t = 0.0
    flux_cum = 0.0
    ev_i = 0
    steps = 0
    b = a = None
    while ev_i < len(events):
        target = events[ev_i]
        if b is None or not model.b_static:
            b = _drift(model, t, coords, shape, s)
            upwind = [_upwind_parts(b[..., k], k, cuts[k]) for k in range(d)]
            b_bound = [float(np.abs(b[..., k]).max()) / h for k, h in enumerate(hs)]
        if a is None or not model.sigma_static:
            a = _diffusion(model, t, coords, shape, s)
            a_bound = ([2.0 * float(a[..., k, k].max()) / h ** 2 for k, h in enumerate(hs)]
                       + [2.0 * float(np.abs(a[..., j, k]).max()) / (hs[j] * hs[k])
                          for j in range(d) for k in range(j + 1, d)])

        # summed in one fixed order (diagonal diffusion, cross, drift) so dt keeps its bits
        denom = sum(a_bound + b_bound)
        if denom <= 0:
            dt = target - t
        else:
            limit = 1.0 / denom
            if fixed_dt is not None:
                if fixed_dt > limit * (1 + 1e-12):
                    raise StabilityError(
                        f"fixed dt {fixed_dt} exceeds stability limit {limit:.3e} at t={t:.6g}")
                dt = fixed_dt
            else:
                dt = 0.9 * limit
        if dt <= 1e-15:
            raise StabilityError(f"step size collapsed to {dt} at t={t:.6g}")
        hit = False
        if t + dt >= target - 1e-15:
            dt = target - t
            hit = True

        upd[...] = 0.0
        outflux = 0.0
        for k, h in enumerate(hs):
            cut = cuts[k]
            pos, neg = upwind[k]
            F = pos * below[k] + neg * above[k]
            upd += (F[cut.head] - F[cut.tail]) / h
            np.multiply(a[..., k, k], p, out=w)
            upd += half_h2[k] * (w_above[k] - 2.0 * w + w_below[k])
            outflux += float((F[cut.last] - F[cut.first]).sum() * face_area[k])
            outflux += float((w[cut.first] + w[cut.last]).sum() * face_area[k] / (2.0 * h))
        if d == 2:
            # mixed term d_1 d_2 (A_12 p), both off-diagonal halves combined
            np.multiply(a[..., 0, 1], p, out=w)
            upd += (W[2:, 2:] - W[2:, :-2] - W[:-2, 2:] + W[:-2, :-2]) / (4.0 * hs[0] * hs[1])
            outflux -= (w[0, 0] - w[0, -1] - w[-1, 0] + w[-1, -1]) / 4.0

        p += dt * upd
        flux_cum += dt * outflux
        t = target if hit else t + dt
        steps += 1

        if not np.all(np.isfinite(p)):
            raise NumericError(f"density became non-finite at t={t:.6g} (step {steps})")
        mass = float(p.sum() * cell)
        pmin = float(p.min())
        if pmin < _POSITIVITY_FLOOR:
            raise PositivityError(
                f"density undershot to {pmin:.3e} at t={t:.6g} (step {steps})")
        if abs(mass + flux_cum - 1.0) > _CONSERVATION_TOL:
            raise ConservationError(
                f"mass {mass:.8f} plus boundary flux {flux_cum:.8f} drifted from 1 "
                f"at t={t:.6g} (step {steps})")
        s = phi_rows @ p.ravel()
        for c, v in zip(curves, (t, mass, pmin, flux_cum)):
            c.append(v)
        stats.extend(s)
        if steps > _MAX_STEPS:
            raise StabilityError(f"exceeded {_MAX_STEPS} steps before the horizon")

        if hit:
            if target in snap_set:
                snapshots.append(GridDensity(axes, p.copy(), time=target,
                                             mass_tol=_SNAPSHOT_MASS_TOL))
                snap_times.append(target)
            ev_i += 1

    times, mass_curve, min_curve, flux_curve = (np.array(c) for c in curves)
    return FPSolution(snapshots=snapshots, snapshot_times=tuple(snap_times),
                      times=times, mass_curve=mass_curve, min_value_curve=min_curve,
                      boundary_flux_curve=flux_curve,
                      stat_curve=np.array(stats).reshape(steps + 1, model.q),
                      n_steps=steps)


def fp_statistics_curve(solution: FPSolution, functionals) -> np.ndarray:
    """Statistic vectors of each snapshot, shape (n_snapshots, q)."""
    return np.array([grid_statistics(p, functionals) for p in solution.snapshots]
                    ).reshape(len(solution.snapshots), len(functionals))
