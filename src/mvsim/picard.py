"""Fixed-point (frozen-flow) iteration for the interacting particle system.

Iteration n simulates the particle system against the statistic flow realized
by iteration n-1, starting from the flow of the initial cloud held constant in
time.  All iterations share one initial cloud and one set of Brownian
increments (common random numbers), so successive iterates differ only through
the frozen flow and the gap between them is a clean contraction signal.

That noise is one ``particle.draw_noise`` call, made by ``picard_run`` before
``iterate_frozen_flow``; ``picard_vs_direct`` and the harness run the
iteration and the interacting system on one such draw.

Every gap, between two solves or between the iterate and the interacting
system, is ``measures.w2_sliced`` at its default directions and seed (exact W2
in 1D), the metric of the harness's particle-to-Picard comparison too.

No solve holds a ``(steps + 1, N, d)`` path array: each one stores only its
checkpoint time slices (``euler_paths(..., keep=...)``) beside its realized
flow.  The iteration keeps two solves at a time, the one before and the
current one, since a gap reads only those; the run returns the last solve's
checkpoint clouds and realized flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import EmpiricalMeasure, StatisticFlow, empirical_statistics, w2_sliced
from .particle import InitialLaw, TimeGrid, draw_noise, euler_paths


@dataclass
class PicardRun:
    """Outcome of a frozen-flow iteration: its last solve and its gaps.

    ``final_clouds`` are the last solve's empirical snapshots at the
    checkpoint times and ``flow`` its realized statistic flow.  ``gaps`` has
    one entry per consecutive pair of the ``n_iters`` solves.
    """

    final_clouds: list[EmpiricalMeasure]
    flow: StatisticFlow
    checkpoint_times: tuple[float, ...]
    gaps: list[float]
    converged: bool
    n_iters: int


def convergence_gap(a: list[EmpiricalMeasure], b: list[EmpiricalMeasure]) -> float:
    """Max over matching checkpoints of ``w2_sliced`` (exact W2 in 1D)."""
    if len(a) != len(b) or not a:
        raise ValueError("checkpoint lists must be non-empty and equally long")
    return max(w2_sliced(ma, mb) for ma, mb in zip(a, b))


def picard_run(model, law: InitialLaw, grid: TimeGrid, n: int, seed: int,
               tol: float, max_iters: int,
               checkpoints: tuple[float, ...]) -> PicardRun:
    """Draw the noise of ``n`` particles under ``seed``, then iterate on it."""
    x0, dw = draw_noise(model, law, grid, n, seed)
    return iterate_frozen_flow(model, x0, dw, grid, tol, max_iters, checkpoints)


def iterate_frozen_flow(model, x0: np.ndarray, increments: np.ndarray,
                        grid: TimeGrid, tol: float, max_iters: int,
                        checkpoints: tuple[float, ...]) -> PicardRun:
    """Iterate frozen-flow solves until the checkpoint W2 gap drops below tol.

    Every solve starts from ``x0`` and is driven by ``increments``.  Stops
    after the first pair of consecutive solves whose gap is <= ``tol``
    (``converged=True``) or after ``max_iters`` solves (``converged=False``).
    The gap is ``convergence_gap``.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iters < 2:
        raise ValueError("need at least two inner solves to measure a gap")
    if not checkpoints:
        raise ValueError("need at least one checkpoint time")
    ck_idx = [grid.index_of(t) for t in checkpoints]

    s0 = empirical_statistics(EmpiricalMeasure.from_samples(x0), model.functionals)
    frozen = StatisticFlow(grid.times(), np.tile(s0, (grid.steps + 1, 1)))

    gaps: list[float] = []
    converged = False
    prev: list[EmpiricalMeasure] | None = None
    for n_iters in range(1, max_iters + 1):
        bundle = euler_paths(model, x0, grid, increments, flow=frozen, keep=ck_idx)
        clouds = [bundle.snapshot(k) for k in ck_idx]
        frozen = bundle.realized_flow
        del bundle  # the clouds own their points: the kept slices go now
        if prev is not None:
            gaps.append(convergence_gap(prev, clouds))
            if gaps[-1] <= tol:
                converged = True
                break
        prev = clouds
    return PicardRun(final_clouds=clouds, flow=frozen,
                     checkpoint_times=tuple(float(t) for t in checkpoints),
                     gaps=gaps, converged=converged, n_iters=n_iters)


def picard_vs_direct(model, law: InitialLaw, grid: TimeGrid, n: int, seed: int,
                     tol: float, max_iters: int,
                     checkpoints: tuple[float, ...]) -> float:
    """Sup-over-checkpoints W2 between the converged iterate and the
    interacting system, both run on one draw of the noise; the gap is
    ``convergence_gap``, as the iteration's own are.
    """
    x0, dw = draw_noise(model, law, grid, n, seed)
    run = iterate_frozen_flow(model, x0, dw, grid, tol, max_iters, checkpoints)
    ck_idx = [grid.index_of(t) for t in checkpoints]
    direct = euler_paths(model, x0, grid, dw, flow=None, keep=ck_idx)
    direct_clouds = [direct.snapshot(k) for k in ck_idx]
    return convergence_gap(run.final_clouds, direct_clouds)
