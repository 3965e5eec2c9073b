"""Finite-difference solver for the forward (Fokker-Planck) equation.

The density equation is always derived from the SDE coefficients,

    dp/dt = - sum_i d_i(b_i p) + 1/2 sum_ij d_i d_j(A_ij p),   A = sigma sigma^T,

with the statistic vector s recomputed from the evolving density each step, so
the nonlocal coupling is carried through the drift/diffusion fields.  s is
``measures.grid_statistics``'s reduction, its rows built once per solve, so
the readers of a solve's densities give the solver's own bits.

Scheme: Runge-Kutta-Legendre super-steps (RKL1; Meyer, Balsara & Aslam
2014, J. Comput. Phys. 257:594-626), stepped by one loop for 1D and 2D alike.
The density p lives inside a frame of ghost nodes that stays zero, the
Dirichlet boundary outside the box.  The frame is stored flat in rows of width
W = n_last + 2 (1D is one row), and the operator L is a stencil on the one
contiguous range from the first node to the last: each offset (0, +-1 along
the last axis, +-W along the first and, in 2D, +-W+-1 at the four corners of
the mixed term) has an array of coefficients, and an application adds up each
array times the frame shifted by its offset.  The ghost ends of the rows
inside the range have coefficients 0 and stay 0.  The coefficients are those
of a conservative flux on the n+1 cell faces of each axis, upwinded by the
sign of the face velocity (the mean drift of the two nodes beside the face; a
boundary face uses the drift of its one node), and its difference; of the
centered second difference of A_kk p; and in 2D of the centered mixed
differences of A_12 p.  A field is computed once per solve if the model
declares it static (``b_static``, ``sigma_static``), once per step otherwise,
so a nonlocal field and its statistic are read at the start of each step; the
diffusion part is cached, and one drift pass writes the coefficients from it.

A step of length tau runs s stages, Y_0 = p and

    Y_j = mu_j Y_{j-1} + nu_j Y_{j-2} + mut_j tau L Y_{j-1}
        = mu_j (I + wL) Y_{j-1} + nu_j Y_{j-2},
    mu_j = (2j-1)/j,  nu_j = (1-j)/j,  mut_j tau = mu_j w,  w = tau/((s^2+s)/2);

Y_s is the new density.  It is stable for tau up to (s^2+s)/2 times the Euler
limit 1/(sum of the CFL terms), and s = 1 is the explicit Euler step
p += tau L p, whose arithmetic keeps its bits.  A stretched step folds w into
the rows of I + wL once, and each stage applies them once, scales the result
by mu_j and adds nu_j Y_{j-2} into the zero ghost frame that held Y_{j-2}: two
frames trade roles every stage, so a stage is one stencil application and a
two-term update.

A step is stretched only where the drift terms are positive and the diffusion
terms exceed them by the factor ``_STRETCH_RATIO``: tau is then 0.9 times the
smaller of 1 over the drift terms and the limit of ``_MAX_STAGES`` stages (or
the time to the next event, if sooner), and s the fewest stages whose limit
covers tau.  RKL1 is first order in time, and the drift cap keeps the
advective time error of a stretched step on the scale of the first-order space
error of the upwind drift.  A driftless problem has only the second-order
space error of the diffusion, which a stretched step would swamp, so it keeps
Euler steps.  Wherever s = 1, dt is the Euler step, bit for bit.

Every operator telescopes over the grid, so the mass L takes out of the box is
g . p for a weight array g on the nodes next to the frame (the flux through
the boundary faces plus the frame terms of the differences).  The cumulative
boundary flux follows the stage recurrence, and mass plus flux staying at 1 is
a live consistency check of the implementation.  Every stage is checked
against the positivity floor.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientModel, _sigma_sigma_t
from .errors import ConservationError, NumericError, PositivityError, StabilityError
from .measures import (GridAxis, GridDensity, _node_weights, _statistic_rows, _weighted_sum,
                       grid_statistics)
from .particle import InitialLaw

# tolerances of the stepping loop
_POSITIVITY_FLOOR = -1e-3
_CONSERVATION_TOL = 1e-4
_SNAPSHOT_MASS_TOL = 1e-2
_MAX_STEPS = 50_000_000
# a step is stretched only where the diffusion terms of the CFL sum exceed the
# (positive) drift terms by this factor, and to at most this many stages:
# (s^2+s)/2 = 136 Euler limits
_STRETCH_RATIO = 10.0
_MAX_STAGES = 16


@dataclass(frozen=True)
class FPProblem:
    """A density evolution problem on the grid of its initial density ``p0``
    (``axes``), with its snapshot times in [0, horizon] stored sorted, each once.

    ``dt`` is either the string ``"auto"`` (step size from the stability
    bound each step, with a 0.9 safety factor) or a fixed positive finite
    float that is checked against the bound before every step, the stretched
    bound where the step is an RKL1 super-step (see the module docstring).
    """

    model: CoefficientModel
    p0: GridDensity
    horizon: float
    dt: float | str = "auto"
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if self.p0.dim != self.model.d:
            raise ValueError(
                f"grid dimension {self.p0.dim} does not match model dimension {self.model.d}")
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if isinstance(self.dt, str):
            if self.dt != "auto":
                raise ValueError(f"dt policy must be 'auto' or a float, got {self.dt!r}")
        elif not 0 < self.dt < math.inf:
            raise ValueError(f"fixed dt must be positive and finite, got {self.dt}")
        times = tuple(sorted(set(float(t) for t in self.snapshot_times)))
        for t in times:
            if not 0.0 <= t <= self.horizon + 1e-12:
                raise ValueError(f"snapshot time {t} outside [0, {self.horizon}]")
        object.__setattr__(self, "snapshot_times", times)

    @property
    def axes(self) -> tuple[GridAxis, ...]:
        return self.p0.axes


@dataclass
class FPSolution:
    """Solver output: snapshots plus per-step accounting curves.

    ``n_steps`` counts steps (super-steps when stretched) and
    ``n_applications`` the stencil applications, one per stage.
    """

    snapshots: list[GridDensity]
    snapshot_times: tuple[float, ...]
    times: np.ndarray
    mass_curve: np.ndarray
    min_value_curve: np.ndarray
    boundary_flux_curve: np.ndarray
    stat_curve: np.ndarray
    n_steps: int
    n_applications: int


def gaussian_on_grid(law: InitialLaw, axes: tuple[GridAxis, ...]) -> GridDensity:
    """Discretize a Gaussian initial law, normalized to unit trapezoid mass, by
    one formula for any number of axes.  The box must contain at least six
    standard deviations around the mean in every coordinate; point laws have no
    density and are rejected."""
    if law.kind != "gaussian":
        raise ValueError(
            "density evolution needs a Gaussian initial law (a point mass has no grid density)")
    d = len(axes)
    if law.d != d:
        raise ValueError(f"initial law dimension {law.d} does not match grid dimension {d}")
    for i, ax in enumerate(axes):
        sd = math.sqrt(float(law.cov[i, i]))
        if law.mean[i] - 6 * sd < ax.lo or law.mean[i] + 6 * sd > ax.hi:
            raise ValueError(
                f"axis {i} box [{ax.lo}, {ax.hi}] does not cover six standard "
                f"deviations around the initial mean {law.mean[i]}")
    diff = np.stack(np.meshgrid(*(ax.nodes() for ax in axes), indexing="ij"), axis=-1) - law.mean
    quad = np.einsum("...i,ij,...j->...", diff, np.linalg.inv(law.cov), diff)
    vals = np.exp(-0.5 * quad) / ((2 * math.pi) ** (d / 2) * math.sqrt(np.linalg.det(law.cov)))
    vals = vals / float((_node_weights(axes) * vals).sum())
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
    return FPProblem(model=model, p0=gaussian_on_grid(law, axes), horizon=float(horizon),
                     dt=dt, snapshot_times=tuple(snapshot_times) or (float(horizon),))


def _drift(model: CoefficientModel, t: float, coords: np.ndarray,
           grid_shape: tuple[int, ...], s: np.ndarray) -> np.ndarray:
    """Drift field (grid..., d) on flattened node coordinates."""
    return np.asarray(model.b(t, coords, s), dtype=float).reshape(grid_shape + (model.d,))


def _diffusion(model: CoefficientModel, t: float, coords: np.ndarray,
               grid_shape: tuple[int, ...], s: np.ndarray) -> np.ndarray:
    """Diffusion-matrix field A = sigma sigma^T (grid..., d, d), symmetrized."""
    sig = np.asarray(model.sigma(t, coords, s), dtype=float)
    return _sigma_sigma_t(sig).reshape(grid_shape + (model.d, model.d))


def derive_fp_coefficients(model: CoefficientModel, t: float,
                           p: GridDensity) -> tuple[np.ndarray, np.ndarray]:
    """Drift field (grid..., d) and diffusion-matrix field (grid..., d, d)
    entering the derived forward equation at time t on p's grid, with s from p:
    at a density ``solve_fp`` steps from, its fields bit for bit."""
    s = grid_statistics(p, model.functionals)
    shape = p.values.shape
    coords = p.node_coords()
    return _drift(model, t, coords, shape, s), _diffusion(model, t, coords, shape, s)


def _offsets(steps: list[int]) -> list[int]:
    """Flat offsets, for neighbours ``steps[k]`` entries apart on axis k: the node,
    -1 and +1 on each axis, then in 2D the corners (+,+), (+,-), (-,+), (-,-)."""
    offs = [0] + [sign * o for o in steps for sign in (-1, 1)]
    if len(steps) == 2:
        offs += [i * steps[0] + j * steps[1] for i, j in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    return offs


class _Stencil:
    """The explicit operator as coefficients on the zero ghost frame it
    allocates, stored flat: ``upd = sum_off C[off] * frame[r + off]`` over the
    range r of ``flat`` (the first node to the last) and ``outflux = g . p``.
    The in-range ghosts keep zero coefficients, so ``apply`` leaves them 0.
    ``p`` is the density at the nodes; ``nodes`` gives that view of any
    range-sized array.

    ``C`` and ``g`` sum a drift part and a diffusion part: ``set_diffusion``
    caches the latter and writes the 2D corners, which carry no drift, and
    ``set_drift`` then writes the rest of ``C`` and ``g`` in one pass.

    A stretched step folds its length w into the rows ``R`` of ``I + wL``
    (``fold``, which keeps them while w and ``C`` stay the same), and each of
    its stages writes into a second zero ghost frame, which then becomes the
    current one (``stage``): ``frame``, ``flat``, ``p`` and ``views`` always
    read the current frame.  Both are made at the
    first ``fold``, so a solve of Euler steps only never allocates them.
    """

    def __init__(self, shape: tuple[int, ...], hs: list[float]):
        d, n = len(shape), shape[-1]
        W = n + 2  # the frame's row width; 1D is one row
        L = math.prod(shape[:-1]) * W - 2
        self.shape, self.hs, self.cell = shape, hs, math.prod(hs)
        self.steps = [W] * (d - 1) + [1]
        self.offsets = _offsets(self.steps)
        self.start, self.flat_size = sum(self.steps), L
        self.current = self._framed(np.zeros(math.prod(m + 2 for m in shape)))
        self.frame, self.flat, self.p, self.views = self.current
        # the frame that holds the stage before last, the folded rows and the
        # w they were folded for (None once C has changed since)
        self.back = self.R = self.folded = None
        # the nodes at the low and the high end of each axis: the first and the
        # last row of a 2D grid, and the first and the last entry of every row
        # (the one row's two end nodes in 1D)
        self.ends = ([(slice(0, n), slice(L - n, L))] * (d - 1)
                     + [(slice(0, L, W), slice(n - 1, L, W))])
        # the in-range ghosts: the right and the left frame entry between rows (none in 1D)
        self.ghosts = [s for s in (slice(n, L, W), slice(n + 1, L, W)) if s.start < L]
        self.C, self.g = np.zeros((len(self.offsets), L)), np.zeros(L)
        # the rows as a list, so that apply makes no view of C per call
        self.C_rows = list(self.C)
        # the positive and negative parts of the drift over h on the faces of
        # one axis at a time; entry r is the face between range entries r - o
        # and r, so ``[:L]`` are the faces below the range, ``[o:]`` above
        self.up, self.down = np.empty(L + W), np.empty(L + W)
        # diffusion part at the node and its axis neighbours; the corners of
        # the mixed term carry no drift and are written to C directly
        self.diffusion_C, self.diffusion_g = np.zeros((1 + 2 * d, L)), np.zeros(L)
        # a field on a zero ghost frame of its own, read at every offset
        self.field, _, self.field_nodes, self.field_at = self._framed(np.zeros_like(self.frame))
        # g vanishes off the nodes next to the frame; outflux reads only those
        edge = np.zeros(L, dtype=bool)
        for first, last in self.ends:
            edge[first] = edge[last] = True
        self.edge = np.flatnonzero(edge)
        self.tmp = np.empty(L)

    def nodes(self, x: np.ndarray) -> np.ndarray:
        """The grid-shaped view of a range-sized array at the nodes."""
        return np.lib.stride_tricks.as_strided(
            x, self.shape, tuple(x.itemsize * o for o in self.steps))

    def _framed(self, frame: np.ndarray) -> tuple:
        """``frame`` with its range, the nodes of that range and the range
        shifted by each offset."""
        s, L = self.start, self.flat_size
        flat = frame[s:s + L]
        return frame, flat, self.nodes(flat), [frame[s + o:s + o + L] for o in self.offsets]

    def set_drift(self, b: np.ndarray) -> None:
        """Write ``C`` and ``g``: the cached diffusion part plus the upwind
        fluxes of the drift ``b`` (grid..., d), where an inner face takes the
        mean drift of its two nodes and a boundary face that of its one node."""
        C, dc, g, s, bk = self.C, self.diffusion_C, self.g, self.start, self.field_at[0]
        L = bk.size
        self.folded = None
        # g is zero off the edge, so only its edge entries are reset
        g[self.edge] = self.diffusion_g[self.edge]
        for k, (h, o, (first, last)) in enumerate(zip(self.hs, self.steps, self.ends)):
            self.field_nodes[...] = b[..., k]
            up, down = self.up[:L + o], self.down[:L + o]
            # the face velocities over h, in ``down`` until split into parts
            np.add(self.field[s - o:s + L], self.field[s:s + L + o], out=down)
            down *= 0.5 / h
            down[first], down[o:][last] = bk[first] / h, bk[last] / h
            np.maximum(down, 0.0, out=up)
            np.minimum(down, 0.0, out=down)
            # inflow from the node below and from the node above, outflow from the node
            np.add(dc[1 + 2 * k], up[:L], out=C[1 + 2 * k])
            np.subtract(dc[2 + 2 * k], down[o:], out=C[2 + 2 * k])
            # the first axis starts the node's outflow from its diffusion part
            np.add(dc[0] if k == 0 else C[0], down[:L], out=C[0])
            C[0] -= up[o:]
            g[first] -= down[first] * self.cell
            g[last] += up[o:][last] * self.cell
        for ghost in self.ghosts:
            C[:, ghost] = 0.0
        self.g_edge = g.take(self.edge)

    def set_diffusion(self, a: np.ndarray) -> None:
        """Centered second differences of A_kk p and, in 2D, mixed differences
        of A_12 p, for the diffusion matrix ``a`` (grid..., d, d); they enter
        ``C`` and ``g`` at the next ``set_drift``."""
        C, g, at = self.diffusion_C, self.diffusion_g, self.field_at
        self.folded = None  # in 2D the corners below are written to C itself
        C[0] = 0.0
        g[...] = 0.0
        for k, (h, (first, last)) in enumerate(zip(self.hs, self.ends)):
            self.field_nodes[...] = a[..., k, k]
            akk = at[0]
            C[0] -= akk / h ** 2
            np.multiply(at[1 + 2 * k], 0.5 / h ** 2, out=C[1 + 2 * k])
            np.multiply(at[2 + 2 * k], 0.5 / h ** 2, out=C[2 + 2 * k])
            g[first] += akk[first] * (self.cell / (2.0 * h ** 2))
            g[last] += akk[last] * (self.cell / (2.0 * h ** 2))
        if len(self.hs) == 2:
            self.field_nodes[...] = a[..., 0, 1]
            a12 = at[0]
            scale = 1.0 / (4.0 * self.hs[0] * self.hs[1])
            # corners (+,+), (+,-), (-,+), (-,-): the product of the offsets
            signs = (1.0, -1.0, -1.0, 1.0)
            for i, sign in zip(range(5, 9), signs):
                np.multiply(at[i], sign * scale, out=self.C[i])
            n, L = self.shape[-1], a12.size
            for corner, sign in zip((0, n - 1, L - n, L - 1), signs):
                g[corner] -= sign * a12[corner] / 4.0

    def apply(self, upd: np.ndarray, rows: list[np.ndarray] | None = None) -> None:
        """Write the operator applied to the framed density into ``upd``: L
        with the rows of ``C``, or ``I + wL`` with the folded rows ``R_rows``."""
        rows = self.C_rows if rows is None else rows
        np.multiply(rows[0], self.views[0], out=upd)
        for c, v in zip(rows[1:], self.views[1:]):
            np.multiply(c, v, out=self.tmp)
            upd += self.tmp

    def fold(self, w: float) -> None:
        """Write ``R``, the rows of ``I + wL`` that a stretched step's stages
        apply, unless they are folded for this w and ``C`` is unchanged since;
        the first call makes ``R`` and the second frame."""
        if w == self.folded:
            return
        if self.R is None:
            self.R = np.empty_like(self.C)
            self.R_rows = list(self.R)
            self.back = self._framed(np.zeros_like(self.frame))
        np.multiply(self.C, w, out=self.R)
        self.R[0] += 1.0
        for ghost in self.ghosts:
            self.R[0, ghost] = 0.0
        self.folded = w

    def stage(self, mu: float, nu: float, upd: np.ndarray) -> None:
        """One RKL1 stage of a folded step, ``Y_j = mu R Y_{j-1} + nu Y_{j-2}``,
        written into the frame that holds Y_{j-2}, which then becomes the
        current one.  The first stage (mu = 1, nu = 0) writes ``R Y_0`` there."""
        back = self.back[1]
        if nu == 0.0:
            self.apply(back, self.R_rows)
        else:
            self.apply(upd, self.R_rows)
            upd *= mu
            back *= nu
            back += upd
        self.back, self.current = self.current, self.back
        self.frame, self.flat, self.p, self.views = self.current

    def outflux(self) -> float:
        """Mass leaving the box per unit time: the flux through the boundary
        faces plus the frame terms of the differences."""
        return float(_weighted_sum(self.flat.take(self.edge), self.g_edge))


def _span(s: int) -> float:
    """How many Euler limits an RKL1 step of s stages is stable for."""
    return (s * s + s) / 2


def _rkl1_stages(tau: float, limit: float) -> int:
    """The fewest RKL1 stages whose stability limit covers a step of tau."""
    s = max(1, math.ceil((math.sqrt(1.0 + 8.0 * tau / limit) - 1.0) / 2.0))
    while _span(s) * limit < tau:
        s += 1
    return s


def _check_floor(pmin: float, t: float, step: int, stage: int, n_stages: int) -> None:
    """Raise on an undershoot; t is the step's end after its last stage and
    the step's start before it, since an inner stage lives at no time."""
    if pmin < _POSITIVITY_FLOOR:
        at = f"at t={t:.6g}" if stage == n_stages else f"in the step from t={t:.6g}"
        raise PositivityError(f"density undershot to {pmin:.3e} {at} "
                              f"(step {step}, stage {stage} of {n_stages})")


def solve_fp(problem: FPProblem) -> FPSolution:
    """March the density to the horizon, recording snapshots and accounting.

    Raises
    ------
    StabilityError
        if a fixed dt exceeds the stability limit (checked before stepping),
        or the automatic step size collapses.
    PositivityError
        if any stage of a step undershoots below -1e-3 (values are never
        clamped); the message names the step and the stage.
    ConservationError
        if mass drifts from 1 by more than 1e-4 net of boundary flux.
    NumericError
        if a statistic functional is non-finite at a node (before stepping),
        the density stops being finite, or a NaN in the drift or diffusion
        field makes the stability limit NaN (checked before the step).
    """
    model = problem.model
    axes = problem.axes
    d = len(axes)
    shape = tuple(ax.n for ax in axes)
    hs = [ax.spacing for ax in axes]
    cell = math.prod(hs)
    coords = problem.p0.node_coords()
    phi_rows = _statistic_rows(problem.p0, model.functionals)
    fixed_dt = None if problem.dt == "auto" else float(problem.dt)

    # p sits inside a frame of ghost nodes that stays zero: the Dirichlet
    # boundary outside the box; the stages run on the frame's flat range
    op = _Stencil(shape, hs)
    p = op.p
    p[...] = problem.p0.values
    upd = np.empty_like(op.flat)

    # steps end on the positive snapshot times, each recording a density, and on the horizon
    events = [t for t in problem.snapshot_times if t > 0.0]
    n_snaps = len(events)
    if not events or events[-1] < problem.horizon:
        events.append(float(problem.horizon))
    snapshots: list[GridDensity] = []
    if 0.0 in problem.snapshot_times:
        snapshots.append(GridDensity(axes, p.copy(), time=0.0,
                                     mass_tol=_SNAPSHOT_MASS_TOL))

    s = _weighted_sum(phi_rows, p.ravel())
    curves = [array("d") for _ in range(4)]  # t, mass, min value, boundary flux
    stats = array("d", s)
    for c, v in zip(curves, (0.0, float(p.sum() * cell), float(p.min()), 0.0)):
        c.append(v)

    t = 0.0
    flux_cum = 0.0
    ev_i = 0
    steps = 0
    applications = 0
    b = a = None
    while ev_i < len(events):
        target = events[ev_i]
        if b is None or not model.b_static:
            b = _drift(model, t, coords, shape, s)
            b_bound = [float(max(b[..., k].max(), -b[..., k].min())) / h
                       for k, h in enumerate(hs)]
        if a is None or not model.sigma_static:
            a = _diffusion(model, t, coords, shape, s)
            op.set_diffusion(a)
            a_bound = ([2.0 * float(a[..., k, k].max()) / h ** 2 for k, h in enumerate(hs)]
                       + [2.0 * float(np.abs(a[..., j, k]).max()) / (hs[j] * hs[k])
                          for j in range(d) for k in range(j + 1, d)])
        if steps == 0 or not (model.b_static and model.sigma_static):
            # the drift pass completes the operator, after any diffusion rebuild
            op.set_drift(b)

        # summed in one fixed order (diagonal diffusion, cross, drift) so dt keeps its bits
        denom = sum(a_bound + b_bound)
        if math.isnan(denom):
            field = "drift" if math.isnan(sum(b_bound)) else "diffusion"
            raise NumericError(
                f"non-finite {field} field at t={t:.6g} (step {steps + 1})")
        stretch = False
        if denom <= 0:
            dt = target - t
        else:
            limit = bound = 1.0 / denom
            drift = sum(b_bound)
            stretch = 0.0 < _STRETCH_RATIO * drift < sum(a_bound)
            if stretch:
                # the drift terms bound a stretched step as they bound an Euler step
                bound = min(limit * _span(_MAX_STAGES), 1.0 / drift)
            if fixed_dt is not None:
                if fixed_dt > bound * (1 + 1e-12):
                    raise StabilityError(
                        f"fixed dt {fixed_dt} exceeds stability limit {bound:.3e} at t={t:.6g}")
                dt = fixed_dt
            else:
                dt = 0.9 * bound
        if dt <= 1e-15:
            raise StabilityError(f"step size collapsed to {dt} at t={t:.6g}")
        hit = False
        if t + dt >= target - 1e-15:
            dt = target - t
            hit = True
        n_stages = _rkl1_stages(dt, limit) if stretch else 1
        steps += 1

        if n_stages == 1:
            # the Euler step p += dt L p
            op.apply(upd)
            flux_cum += dt * op.outflux()
            upd *= dt
            op.flat += upd
        else:
            # RKL1 stages on the rows of I + wL, keeping the edge entries of
            # each Y_{j-1}; the flux follows the unfolded recurrence,
            # mut_j dt = mu_j w times g . Y_{j-1} for L Y_{j-1}, with every
            # g . Y_{j-1} of the step summed in one call
            w = dt / _span(n_stages)
            op.fold(w)
            edge_rows = np.empty((n_stages, op.edge.size))
            for j in range(1, n_stages + 1):
                op.flat.take(op.edge, out=edge_rows[j - 1])
                op.stage((2 * j - 1) / j, (1 - j) / j, upd)
                if j < n_stages:
                    _check_floor(float(op.p.min()), t, steps, j, n_stages)
            p = op.p
            flux_prev = flux_cum
            for j, g_y in enumerate(_weighted_sum(edge_rows, op.g_edge).tolist(), 1):
                mu, nu = (2 * j - 1) / j, (1 - j) / j
                flux_cum, flux_prev = mu * flux_cum + nu * flux_prev + w * mu * g_y, flux_cum
        applications += n_stages
        t = target if hit else t + dt

        # any non-finite node makes the sum non-finite, so only then scan
        mass = float(p.sum() * cell)
        if not math.isfinite(mass) and not np.all(np.isfinite(p)):
            raise NumericError(f"density became non-finite at t={t:.6g} (step {steps})")
        # the contiguous copy the statistic reads (in 2D p is a strided view);
        # the sum above stays on p, where its order gives the mass its bits
        values = p.ravel()
        pmin = float(values.min())
        _check_floor(pmin, t, steps, n_stages, n_stages)
        if abs(mass + flux_cum - 1.0) > _CONSERVATION_TOL:
            raise ConservationError(
                f"mass {mass:.8f} plus boundary flux {flux_cum:.8f} drifted from 1 "
                f"at t={t:.6g} (step {steps})")
        s = _weighted_sum(phi_rows, values)
        for c, v in zip(curves, (t, mass, pmin, flux_cum)):
            c.append(v)
        stats.extend(s)
        if steps > _MAX_STEPS:
            raise StabilityError(f"exceeded {_MAX_STEPS} steps before the horizon")

        if hit:
            if ev_i < n_snaps:
                snapshots.append(GridDensity(axes, p.copy(), time=target,
                                             mass_tol=_SNAPSHOT_MASS_TOL))
            ev_i += 1

    times, mass_curve, min_curve, flux_curve = (np.array(c) for c in curves)
    return FPSolution(snapshots=snapshots, snapshot_times=tuple(g.time for g in snapshots),
                      times=times, mass_curve=mass_curve, min_value_curve=min_curve,
                      boundary_flux_curve=flux_curve,
                      stat_curve=np.array(stats).reshape(steps + 1, model.q),
                      n_steps=steps, n_applications=applications)


def fp_statistics_curve(solution: FPSolution, functionals) -> np.ndarray:
    """Statistic vectors of each snapshot, shape (n_snapshots, q); for the
    model's functionals, ``stat_curve`` at the snapshot times bit for bit."""
    return np.array([grid_statistics(p, functionals) for p in solution.snapshots]
                    ).reshape(len(solution.snapshots), len(functionals))
