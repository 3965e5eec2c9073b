"""Interacting particle systems driven by Euler-Maruyama.

Noise is generated from counter-based streams, one per particle: particle
``i`` under master seed ``seed`` always sees the stream keyed ``(seed, i)``,
so output is bitwise reproducible for identical ``(seed, n, m, grid)``, and
any ``n`` particles under one seed see the first ``n`` streams of a larger
draw.  The initial-condition stream uses a key outside the particle range.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SimulationError
from .measures import EmpiricalMeasure, StatisticFlow, _radial_moment, _weighted_statistics

# stream id for initial-condition sampling; particle ids stay below 2**63
_INIT_STREAM = np.uint64(1) << np.uint64(63)
_MAX_SEED = (1 << 63) - 1
# particles whose noise generate_brownian draws before scaling them into place
_NOISE_BLOCK = 64


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with ``steps`` Euler steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"need at least one step, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def index_of(self, time: float) -> int:
        """Grid index of a time that must coincide with a node."""
        k = int(round(time / self.dt))
        if k < 0 or k > self.steps or abs(k * self.dt - time) > 1e-9 * max(1.0, self.horizon):
            raise ValueError(f"time {time} is not a node of {self}")
        return k


@dataclass(frozen=True)
class InitialLaw:
    """Initial condition: a point mass or a Gaussian."""

    kind: str
    mean: np.ndarray
    cov: np.ndarray | None = None

    @classmethod
    def point(cls, x0) -> "InitialLaw":
        return cls("point", np.atleast_1d(np.asarray(x0, dtype=float)))

    @classmethod
    def gaussian(cls, mean, cov) -> "InitialLaw":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match dimension {mean.size}")
        if not np.allclose(cov, cov.T):
            raise ValueError("covariance must be symmetric")
        return cls("gaussian", mean, cov)

    @property
    def d(self) -> int:
        return self.mean.size


def _check_seed(seed: int) -> np.uint64:
    if not 0 <= int(seed) <= _MAX_SEED:
        raise ValueError(f"seed must lie in [0, 2**63), got {seed}")
    return np.uint64(seed)


def particle_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for one particle's noise."""
    key = np.array([_check_seed(seed), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def generate_brownian(seed: int, n_particles: int, m: int, grid: TimeGrid) -> np.ndarray:
    """Brownian increments, shape (steps, n_particles, m), each N(0, dt)."""
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if m < 1:
        raise ValueError("noise dimension must be >= 1")
    # one generator, rewound to stream (seed, i) for each particle: the
    # state a fresh particle_stream(seed, i) starts from, held as plain ints,
    # which the state setter reads faster than numpy arrays
    bitgen = np.random.Philox(key=np.array([_check_seed(seed), 0], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    fresh["state"] = {k: v.tolist() for k, v in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    key = fresh["state"]["key"]
    out = np.empty((grid.steps, n_particles, m))
    # a block of particles is drawn contiguously, one row each, then scaled
    # into its columns of ``out`` in one pass
    buf = np.empty((min(_NOISE_BLOCK, n_particles), grid.steps, m))
    scale = math.sqrt(grid.dt)
    for a in range(0, n_particles, _NOISE_BLOCK):
        b = min(a + _NOISE_BLOCK, n_particles)
        for i in range(a, b):
            key[1] = i
            bitgen.state = fresh
            gen.standard_normal(out=buf[i - a])
        np.multiply(buf[:b - a].transpose(1, 0, 2), scale, out=out[:, a:b, :])
    return out


def coarsen_increments(increments: np.ndarray) -> np.ndarray:
    """Sum adjacent step pairs: the same Brownian path on a grid half as fine."""
    M = increments.shape[0]
    if M % 2 != 0:
        raise ValueError("refinement pairing needs an even number of steps")
    return increments[0::2] + increments[1::2]


def initial_states(law: InitialLaw, n: int, seed: int) -> np.ndarray:
    """Sample the initial cloud, shape (n, d), from a dedicated stream."""
    if n < 1:
        raise ValueError("need at least one particle")
    if law.kind == "point":
        return np.tile(law.mean, (n, 1))
    key = np.array([_check_seed(seed), _INIT_STREAM], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    z = rng.standard_normal((n, law.d))
    try:
        chol = np.linalg.cholesky(law.cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("initial covariance is not positive definite") from exc
    return law.mean + z @ chol.T


def draw_noise(model, law: InitialLaw, grid: TimeGrid, n: int,
               seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The noise of one run: initial cloud (n, d) and increments (steps, n, m).

    Every route that simulates ``n`` particles under ``seed`` starts from this
    draw, so routes run on the same draw see common random numbers.
    """
    if law.d != model.d:
        raise ValueError(f"initial law dimension {law.d}, model expects {model.d}")
    return initial_states(law, n, seed), generate_brownian(seed, n, model.m, grid)


@dataclass
class ParticlePath:
    """One trajectory with its own increments, extracted from a bundle."""

    grid: TimeGrid
    states: np.ndarray      # (steps + 1, d)
    increments: np.ndarray  # (steps, m)
    index: int


@dataclass
class PathBundle:
    """Simulated ensemble: states (steps+1, n, d), increments (steps, n, m).

    ``realized_flow`` holds the statistics of the simulated cloud at every
    grid time (the reduction of ``empirical_statistics``), and ``flow`` the
    flow the coefficients read: ``frozen_flow``, or the realized one if None.
    A bundle made with ``euler_paths(..., keep=...)`` holds only the grid
    indices ``kept``, in ascending order, as states (len(kept), n, d); it
    has no whole paths to give.
    """

    grid: TimeGrid
    states: np.ndarray
    increments: np.ndarray
    realized_flow: StatisticFlow
    kept: tuple[int, ...] | None = None  # None: every grid index
    frozen_flow: StatisticFlow | None = None

    @property
    def flow(self) -> StatisticFlow:
        return self.realized_flow if self.frozen_flow is None else self.frozen_flow

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def snapshot(self, time_index: int) -> EmpiricalMeasure:
        """The equal-weight cloud at one grid index; it owns a copy of the
        states, so it does not keep the path array alive."""
        if self.kept is not None:
            if time_index not in self.kept:
                raise ValueError(f"grid index {time_index} was not kept; "
                                 f"this bundle holds {list(self.kept)}")
            time_index = self.kept.index(time_index)
        return EmpiricalMeasure.from_samples(self.states[time_index])

    def _whole(self, what: str) -> np.ndarray:
        """The (steps+1, n, d) states, which ``what`` reads; a bundle that
        kept only some time slices raises ValueError."""
        if self.kept is not None:
            raise ValueError(f"{what} needs every time slice; this bundle "
                             f"holds only grid indices {list(self.kept)}")
        return self.states

    def path(self, i: int) -> ParticlePath:
        states = self._whole("path()")
        return ParticlePath(self.grid, states[:, i, :].copy(),
                            self.increments[:, i, :].copy(), i)


def _check_flow(model, grid: TimeGrid, flow: StatisticFlow) -> None:
    """A statistic flow must hold the model's q statistics at every grid time."""
    if flow.stats.shape != (grid.steps + 1, model.q):
        raise ValueError(
            f"flow shape {flow.stats.shape} does not match grid/model "
            f"{(grid.steps + 1, model.q)}")
    if not np.allclose(flow.times, grid.times(), rtol=0.0, atol=1e-12):
        raise ValueError("flow is defined on a different time grid")


def euler_paths(model, x0: np.ndarray, grid: TimeGrid, increments: np.ndarray,
                flow: StatisticFlow | None = None,
                keep: Sequence[int] | None = None) -> PathBundle:
    """Core Euler-Maruyama sweep over a particle block.

    With ``flow=None`` the statistic vector is read off the live cloud each
    step (interacting system); otherwise it is read from ``flow`` at matching
    time indices (frozen-flow system).  Both modes share this code path, so
    for models with no statistic dependence they produce bitwise identical
    states.

    ``keep=None`` stores the states at every grid index.  Given grid indices,
    the sweep stores only those time slices (sorted, duplicates once), so a
    caller that reads a few clouds holds O(n * len(keep)) states, not
    O(n * steps); the realized flow still covers every grid time, and every
    state has the same bits as in the full run.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    n, d = x0.shape
    if d != model.d:
        raise ValueError(f"initial states have dimension {d}, model expects {model.d}")
    if increments.shape != (grid.steps, n, model.m):
        raise ValueError(
            f"increments shape {increments.shape}, expected {(grid.steps, n, model.m)}")
    if flow is not None:
        _check_flow(model, grid, flow)
    held = range(grid.steps + 1) if keep is None else sorted({operator.index(k) for k in keep})
    if held and not 0 <= held[0] <= held[-1] <= grid.steps:
        raise ValueError(f"keep indices must lie in [0, {grid.steps}], got {list(held)}")
    slot = {k: j for j, k in enumerate(held)}
    times = grid.times()

    dt = grid.dt
    uw = np.full(n, 1.0 / n)
    states = np.empty((len(held), n, d))
    realized = np.empty((grid.steps + 1, model.q))
    x = x0.copy()
    if 0 in slot:
        states[slot[0]] = x
    for k in range(grid.steps):
        realized[k] = _weighted_statistics(x, uw, model.functionals)
        s = flow.stats[k] if flow is not None else realized[k]
        t = float(times[k])
        drift = model.b(t, x, s)
        sig = model.sigma(t, x, s)
        # sigma dW one noise column at a time, summed in column order: the
        # bits of einsum("ndm,nm->nd"), without its per-step set-up
        dw = increments[k]
        noise = sig[..., 0] * dw[:, None, 0]
        for j in range(1, model.m):
            noise += sig[..., j] * dw[:, None, j]
        # x is this loop's own array, so it is advanced in place
        x += drift * dt
        x += noise
        # a non-finite entry makes the sum non-finite; only then is x
        # scanned, and a finite x whose sum overflows goes on
        if not math.isfinite(float(x.sum())):
            bad = ~np.isfinite(x).all(axis=1)
            if bad.any():
                i = int(np.argmax(bad))
                raise SimulationError(
                    f"state became non-finite at step {k + 1}, particle {i}",
                    step=k + 1, particle=i)
        if k + 1 in slot:
            states[slot[k + 1]] = x
    realized[grid.steps] = _weighted_statistics(x, uw, model.functionals)
    return PathBundle(grid=grid, states=states, increments=increments,
                      realized_flow=StatisticFlow(times, realized),
                      kept=None if keep is None else tuple(held), frozen_flow=flow)


def simulate_interacting(model, law: InitialLaw, grid: TimeGrid,
                         n: int, seed: int) -> PathBundle:
    """Interacting particle system: statistics read off the live cloud."""
    return simulate_frozen_flow(model, law, grid, n, seed, flow=None)


def simulate_frozen_flow(model, law: InitialLaw, grid: TimeGrid, n: int,
                         seed: int, flow: StatisticFlow | None) -> PathBundle:
    """Particle system against a prescribed statistic flow (no interaction);
    ``flow=None`` is the interacting system."""
    x0, dw = draw_noise(model, law, grid, n, seed)
    return euler_paths(model, x0, grid, dw, flow=flow)


def moment_curve(bundle: PathBundle, p: float) -> np.ndarray:
    """Mean of ||X_t||^p over the ensemble at every grid time."""
    if p <= 0:
        raise ValueError(f"moment order must be positive, got {p}")
    states = bundle._whole("moment_curve")
    uw = np.full(bundle.n, 1.0 / bundle.n)
    return np.array([_radial_moment(x, uw, p) for x in states])
