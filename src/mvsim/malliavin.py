"""First-variation processes and Malliavin covariance over stacks of paths.

For each simulated trajectory X the pair (Y, Z) solves, discretized along the
increments that drove X,

    dY = Db Y dt + sum_j Dsig_j Y dW_j,                    Y(0) = I
    dZ = (-Z Db + sum_j Z Dsig_j Dsig_j) dt - sum_j Z Dsig_j dW_j,   Z(0) = I

so Z tracks Y^-1 and ||Z Y - I|| is a scheme-consistency diagnostic.

Y takes the plain Euler step Y_{k+1} = (I + B dt + N) Y_k, with B = Db and
N = sum_j dW_j Dsig_j, so Y stays the exact derivative of the Euler map for X.
Z is driven by the same increments, but its Ito correction uses the realized
products dW_i dW_j in place of dt delta_ij:

    Z_{k+1} = Z_k (I - B dt - N + N N),   N N = sum_ij dW_i dW_j Dsig_i Dsig_j.

The one-step product (I - B dt - N + N N)(I + B dt + N) is then
I + N^3 - (B N + N B - N N B) dt - B^2 dt^2: every term left is either
mean-zero of size dt^(3/2) or of size dt^2, so summed over a path the defect
||Z Y - I|| is O(dt) strongly.  With the Euler correction dt delta_ij the
mean-zero term sum_ij Dsig_i Dsig_j (dt delta_ij - dW_i dW_j) of size dt would
remain, and the defect would decay only like sqrt(dt) whenever the
deterministic dt^2 part cancels.  The defect is not identically zero, so it
stays a real diagnostic.  This is an Ito-Taylor-consistent variant of the Euler
step (Kloeden & Platen 1992, Numerical Solution of SDEs, ch. 10).

The Malliavin covariance at time t is assembled as

    Q(t) = Y(t) [ integral_0^t Y(r)^-1 A(r) Y(r)^-T dr ] Y(t)^T,

with A = sigma sigma^T, and its smallest eigenvalue is compared against the
spectral floor t * lambda / gamma^4, where gamma is the realized sup of the
operator norms of Y and Y^-1 up to t.  One core runs all of this on
``(paths, d, d)`` stacks; the per-path functions are batches of one, each
reading the model, path and flow its ``FirstVariationPath`` was swept from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import operator_norm, singular_extremes, sym_eigvals
from .coefficients import CoefficientModel, diffusion_matrix
from .errors import ConditioningError, NumericError
from .measures import StatisticFlow
from .particle import ParticlePath, PathBundle, TimeGrid, _check_flow

_COND_FLOOR = 1e-12
# the ellipticity floor's slack, in units of dt * ||Q||: the quadrature error
_SLACK_FACTOR = 10.0


@dataclass
class FirstVariationPath:
    """Y and Z, both (steps + 1, d, d), swept along ``path`` under ``model`` and ``flow``."""

    model: CoefficientModel
    path: ParticlePath
    flow: StatisticFlow
    Y: np.ndarray
    Z: np.ndarray


@dataclass
class MalliavinCovariance:
    """Covariance snapshot at one time with its spectral diagnostics."""

    t: float
    Q: np.ndarray
    lambda_min: float
    gamma: float
    dt: float


@dataclass
class EllipticityBoundReport:
    holds: bool
    margin: float
    bound: float
    slack: float
    lambda_degenerate: bool


def _sweep(model: CoefficientModel, grid: TimeGrid, states: np.ndarray,
           increments: np.ndarray, flow: StatisticFlow, paths) -> tuple:
    """(Y, Z), each (steps + 1, P, d, d), along states (steps + 1, P, d) and
    increments (steps, P, m); ``paths`` names the P paths in errors."""
    if model.db_dx is None or model.dsigma_dx is None:
        raise ValueError("model does not provide state Jacobians")
    _check_flow(model, grid, flow)
    M, P, d = grid.steps, states.shape[1], model.d
    dt = grid.dt
    times = grid.times()
    Y = np.empty((M + 1, P, d, d))
    Z = np.empty((M + 1, P, d, d))
    Y[0] = Z[0] = np.eye(d)
    for k in range(M):
        x, s, t = states[k], flow.stats[k], float(times[k])
        B = np.asarray(model.db_dx(t, x, s), dtype=float).reshape(P, d, d)
        S = np.asarray(model.dsigma_dx(t, x, s), dtype=float).reshape(P, model.m, d, d)
        noise = np.einsum("pj,pjab->pab", increments[k], S)
        Y[k + 1] = Y[k] + (B @ Y[k]) * dt + noise @ Y[k]
        zn = Z[k] @ noise
        Z[k + 1] = Z[k] - (Z[k] @ B) * dt - zn + zn @ noise
        bad = ~(np.isfinite(Y[k + 1]) & np.isfinite(Z[k + 1])).all(axis=(1, 2))
        if bad.any():
            raise NumericError(f"first-variation pair became non-finite at step "
                               f"{k + 1}, path {paths[np.argmax(bad)]}")
    return Y, Z


def _invertible(Y: np.ndarray, paths, first: int = 0) -> tuple:
    """Singular extremes of Y (times, P, d, d); ConditioningError names the
    first path singular to tolerance and its first such index from ``first``."""
    smin, smax = singular_extremes(Y)
    bad = smin <= smax * _COND_FLOOR
    if bad.any():
        p = int(np.argmax(bad.any(axis=0)))
        k = int(np.argmax(bad[:, p]))
        cond = float(np.inf if smin[k, p] == 0.0 else smax[k, p] / smin[k, p])
        raise ConditioningError(
            f"first-variation matrix of path {paths[p]} at index {first + k} is "
            f"singular to tolerance (condition estimate {cond:.3e})",
            cond_estimate=cond)
    return smin, smax


def _covariance(model: CoefficientModel, grid: TimeGrid, states: np.ndarray,
                flow: StatisticFlow, Y: np.ndarray, paths) -> tuple:
    """Q (K, P, d, d), with lambda_min(Q) and gamma (K, P), at the first K grid
    times, which states (K, P, d), Y (K, P, d, d) and the swept flow cover."""
    A = np.stack([diffusion_matrix(model, float(t), x, s)
                  for t, x, s in zip(grid.times(), states, flow.stats)])
    smin, smax = _invertible(Y, paths)
    gamma = np.maximum.accumulate(np.maximum(smax, 1.0 / smin), axis=0)
    G = np.linalg.solve(Y, np.linalg.solve(Y, A).swapaxes(-1, -2))
    G = 0.5 * (G + G.swapaxes(-1, -2))
    trapezoids = 0.5 * grid.dt * (G[:-1] + G[1:])
    P = np.cumsum(np.concatenate([np.zeros_like(G[:1]), trapezoids]), axis=0)
    Q = Y @ P @ Y.swapaxes(-1, -2)
    Q = 0.5 * (Q + Q.swapaxes(-1, -2))
    return Q, sym_eigvals(Q)[..., 0], gamma


def _zy(Z: np.ndarray, Y: np.ndarray) -> np.ndarray:
    prod = np.einsum("...ab,...bc->...ac", Z, Y) - np.eye(Y.shape[-1])
    return np.sqrt(np.sum(prod ** 2, axis=(-2, -1)))


def _bound(t, lam, gamma, lambda_min, Q, dt, slack_factor) -> tuple:
    """(floor, margin, slack, holds); the floor t lam / gamma^4 is 0 unless gamma > 0."""
    gamma = np.asarray(gamma, dtype=float)
    # libm's pow, as for a scalar ``gamma ** 4``
    bound = np.divide(t * lam, np.float_power(gamma, 4), out=np.zeros(gamma.shape),
                      where=gamma > 0)
    slack = slack_factor * dt * operator_norm(Q)
    return bound, lambda_min - bound, slack, lambda_min >= bound - slack


def simulate_first_variation(model: CoefficientModel, path: ParticlePath,
                             flow: StatisticFlow) -> FirstVariationPath:
    """Sweep of the (Y, Z) pair along a stored trajectory.

    Y takes the Euler step; Z uses the realized dW_i dW_j in its Ito
    correction (see the module docstring).
    """
    Y, Z = _sweep(model, path.grid, path.states[:, None], path.increments[:, None],
                  flow, (path.index,))
    return FirstVariationPath(model=model, path=path, flow=flow, Y=Y[:, 0], Z=Z[:, 0])


def zy_residual(fv: FirstVariationPath) -> np.ndarray:
    """Frobenius norm of Z_k Y_k - I at every grid time."""
    return _zy(fv.Z, fv.Y)


def malliavin_derivative(fv: FirstVariationPath, r_index: int, j: int,
                         t_index: int) -> np.ndarray:
    """D_r^j X(t) = Y(t) Y(r)^-1 sigma_j(r) on the grid; zero for r > t.

    ``Y(r)`` is applied through a linear solve, never an explicit inverse.
    """
    model, path = fv.model, fv.path
    M = path.grid.steps
    if not (0 <= r_index <= M and 0 <= t_index <= M):
        raise ValueError(f"time indices must lie in [0, {M}]")
    if not 0 <= j < model.m:
        raise ValueError(f"noise index {j} outside [0, {model.m})")
    if r_index > t_index:
        return np.zeros(model.d)
    t_r = float(path.grid.times()[r_index])
    sig = np.asarray(model.sigma(t_r, path.states[r_index], fv.flow.stats[r_index]),
                     dtype=float).reshape(model.d, model.m)
    _invertible(fv.Y[r_index][None, None], (path.index,), first=r_index)
    return fv.Y[t_index] @ np.linalg.solve(fv.Y[r_index], sig[:, j])


def covariance_curve(fv: FirstVariationPath) -> list[MalliavinCovariance]:
    """Malliavin covariance at every grid time by cumulative trapezoid.

    One pass computes the whole curve: the reduced integrand
    G(r) = Y(r)^-1 A(r) Y(r)^-T is accumulated once and conjugated by Y(t)
    at each output time.  ``gamma`` at time t is the realized sup over r <= t
    of max(||Y(r)||, ||Y(r)^-1||) in operator norm.
    """
    grid = fv.path.grid
    Q, lambda_min, gamma = _covariance(fv.model, grid, fv.path.states[:, None], fv.flow,
                                       fv.Y[:, None], (fv.path.index,))
    return [MalliavinCovariance(float(t), q, float(lm), float(g), grid.dt)
            for t, q, lm, g in zip(grid.times(), Q[:, 0], lambda_min[:, 0], gamma[:, 0])]


def malliavin_covariance(fv: FirstVariationPath, t_index: int) -> MalliavinCovariance:
    """Covariance at one grid time: the ``t_index`` entry of ``covariance_curve``,
    so a Y singular anywhere on the path fails it as it fails the curve."""
    M = fv.path.grid.steps
    if not 1 <= t_index <= M:
        raise ValueError(f"time index must lie in [1, {M}]")
    return covariance_curve(fv)[t_index]


def ellipticity_bound_check(cov: MalliavinCovariance, lam: float,
                            slack_factor: float = _SLACK_FACTOR) -> EllipticityBoundReport:
    """Check lambda_min(Q(t)) >= t lambda / gamma^4 - slack.

    The slack absorbs quadrature error: ``slack_factor * dt * ||Q||``.  A
    nonpositive lambda makes the floor trivial and is flagged.  A lambda that is
    not finite, or a slack factor that is negative or not finite, is refused.
    """
    if not (np.isfinite(lam) and 0.0 <= slack_factor < np.inf):
        raise ValueError(f"floor lambda {lam} must be finite and slack factor "
                         f"{slack_factor} finite and nonnegative")
    bound, margin, slack, holds = _bound(cov.t, lam, cov.gamma, cov.lambda_min,
                                         cov.Q, cov.dt, slack_factor)
    return EllipticityBoundReport(
        holds=bool(holds), margin=float(margin), bound=float(bound),
        slack=float(slack), lambda_degenerate=bool(lam <= 0.0))


def bundle_diagnostics(model: CoefficientModel, bundle: PathBundle,
                       lam: float = 0.0) -> dict:
    """Horizon diagnostics of every path of a bundle under ``bundle.flow``.

    Returns arrays over the paths: ``lambda_min`` and ``gamma`` of Q; the
    ``bound``, ``margin`` and ``holds`` of ``ellipticity_bound_check`` at its
    default slack; and ``zy_max``, the largest ZY residual along the path.
    """
    if not np.isfinite(lam):
        raise ValueError(f"floor lambda must be finite, got {lam}")
    grid, flow, states = bundle.grid, bundle.flow, bundle._whole("bundle_diagnostics")
    paths = np.arange(bundle.n)
    Y, Z = _sweep(model, grid, states, bundle.increments, flow, paths)
    Q, lambda_min, gamma = _covariance(model, grid, states, flow, Y, paths)
    bound, margin, _, holds = _bound(float(grid.times()[-1]), float(lam), gamma[-1],
                                     lambda_min[-1], Q[-1], grid.dt, _SLACK_FACTOR)
    return {"lambda_min": lambda_min[-1], "gamma": gamma[-1], "bound": bound,
            "margin": margin, "holds": holds, "zy_max": _zy(Z, Y).max(axis=0)}
