"""Coefficient models for mean-field SDEs.

A model describes

    dX = b(t, X, s) dt + sigma(t, X, s) dW,      s = (E[phi_1(X)], ..., E[phi_q(X)])

where the law of X enters only through the statistic vector ``s``.  Drift and
diffusion callables are vectorized over a leading batch axis: ``b`` maps
``(t, x, s)`` with ``x`` of shape ``(..., d)`` to shape ``(..., d)``,
``sigma`` to ``(..., d, m)``.  Jacobians in the state variable follow the same
convention, ``db_dx -> (..., d, d)`` and ``dsigma_dx -> (..., m, d, d)`` with
one ``(d, d)`` block per noise column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._linalg import sym_eigvals
from .errors import NumericError


@dataclass(frozen=True)
class StatisticFunctional:
    """A scalar statistic x -> phi(x) defining one component of s.

    ``phi`` is vectorized: it maps an ``(N, d)`` array of states to an
    ``(N,)`` array of values.
    """

    id: str
    phi: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CoefficientModel:
    """Drift/diffusion pair with state Jacobians and statistic functionals.

    ``b_static`` / ``sigma_static`` declare that the respective callable
    ignores both ``t`` and ``s`` (pure functions of x); solvers may then cache
    evaluated fields.  They are hints only and never change results.

    ``b``, ``sigma`` and the Jacobians may return read-only or broadcast
    arrays (``np.broadcast_to`` views): no consumer writes into them.
    """

    d: int
    m: int
    functionals: tuple[StatisticFunctional, ...]
    b: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    sigma: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    db_dx: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None
    dsigma_dx: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None
    b_static: bool = False
    sigma_static: bool = False

    @property
    def q(self) -> int:
        return len(self.functionals)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"state dimension must be >= 1, got {self.d}")
        if self.m < 1:
            raise ValueError(f"noise dimension must be >= 1, got {self.m}")


def _check_args(model: CoefficientModel, x: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    if x.shape[-1] != model.d:
        raise ValueError(
            f"state has dimension {x.shape[-1]}, model expects {model.d}")
    if s.shape != (model.q,):
        raise ValueError(
            f"statistic vector has shape {s.shape}, model expects ({model.q},)")
    return x, s


def _check_finite(value: np.ndarray, what: str, t: float, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``value`` unless it holds a non-finite entry; for a stack of states
    (..., d) the error names the first row, in C order, whose value is not
    finite, and that row's state alone."""
    if not np.all(np.isfinite(value)):
        where = f"x={x.tolist()}"
        if x.ndim > 1:
            rows = x.reshape(-1, x.shape[-1])
            i = int(np.argmin(np.isfinite(value).reshape(len(rows), -1).all(axis=1)))
            where = f"row {i} of {len(rows)}, x={rows[i].tolist()}"
        raise NumericError(
            f"{what} evaluated to a non-finite value at t={t}, {where}, "
            f"s={np.asarray(s).tolist()}")
    return value


def eval_drift(model: CoefficientModel, t: float, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Validated drift at one state (d,) or a stack of states (..., d); the
    result has the shape of ``x``."""
    x, s = _check_args(model, x, s)
    out = np.asarray(model.b(t, x, s), dtype=float)
    if out.shape != x.shape:
        raise ValueError(f"drift returned shape {out.shape}, expected {x.shape}")
    return _check_finite(out, "drift", t, x, s)


def eval_diffusion(model: CoefficientModel, t: float, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Validated diffusion at one state (d,) or a stack of states (..., d);
    the result has shape (..., d, m)."""
    x, s = _check_args(model, x, s)
    out = np.asarray(model.sigma(t, x, s), dtype=float)
    want = x.shape[:-1] + (model.d, model.m)
    if out.shape != want:
        raise ValueError(f"diffusion returned shape {out.shape}, expected {want}")
    return _check_finite(out, "diffusion", t, x, s)


def _sigma_sigma_t(sig: np.ndarray) -> np.ndarray:
    """A = sigma sigma^T of stacked (..., d, m) matrices, symmetrized against rounding."""
    a = np.einsum("...ik,...jk->...ij", sig, sig)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def diffusion_matrix(model: CoefficientModel, t: float, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """A = sigma sigma^T, symmetrized against rounding, at one state (d,) or a
    stack of states (..., d); the result has shape (..., d, d)."""
    return _sigma_sigma_t(eval_diffusion(model, t, x, s))


@dataclass(frozen=True)
class EllipticityReport:
    """Sampled lower bound on the diffusion spectrum over a region."""

    lambda_min_estimate: float
    argmin_t: float
    argmin_x: np.ndarray
    n_samples: int


def check_ellipticity(model: CoefficientModel,
                      t_range: tuple[float, float],
                      x_box: tuple[np.ndarray, np.ndarray],
                      n: int,
                      seed: int) -> EllipticityReport:
    """Estimate min over (t, x) of the smallest eigenvalue of sigma sigma^T,
    scanned at the zero statistic s = 0.

    Points in (t, x) are drawn from a scrambled low-discrepancy sequence, so
    runs with the same seed and growing ``n`` evaluate nested point sets and
    the estimate is monotone nonincreasing in ``n``.
    """
    if n < 1:
        raise ValueError("need at least one sample point")
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    x_lo = np.asarray(x_box[0], dtype=float).reshape(model.d)
    x_hi = np.asarray(x_box[1], dtype=float).reshape(model.d)
    if np.any(x_hi < x_lo) or t_hi < t_lo:
        raise ValueError("region bounds are inverted")

    # scipy.stats takes about a second to import; only this function needs it
    from scipy.stats import qmc

    sampler = qmc.Halton(d=1 + model.d, scramble=True, seed=seed)
    unit = sampler.random(n)
    ts = t_lo + unit[:, 0] * (t_hi - t_lo)
    xs = x_lo + unit[:, 1:] * (x_hi - x_lo)

    s = np.zeros(model.q)
    best = np.inf
    arg = (t_lo, x_lo)
    for t, x in zip(ts, xs):
        lam = float(sym_eigvals(diffusion_matrix(model, float(t), x, s))[0])
        if lam < best:
            best = lam
            arg = (float(t), x.copy())
    return EllipticityReport(lambda_min_estimate=best, argmin_t=arg[0],
                             argmin_x=arg[1], n_samples=n)


def jacobian_consistency_probe(model: CoefficientModel,
                               points: list[tuple[float, np.ndarray, np.ndarray]],
                               h: float = 1e-5) -> float:
    """Max relative gap between analytic state Jacobians and central differences.

    Returns ``max |analytic - fd| / (1 + |analytic|)`` over all probe points
    and matrix entries, covering both ``db_dx`` and every noise column of
    ``dsigma_dx``.  A non-finite difference quotient raises ``NumericError``.
    """
    if model.db_dx is None or model.dsigma_dx is None:
        raise ValueError("model does not provide state Jacobians")
    if not 0 < h < np.inf:
        raise ValueError(f"step h must be finite and positive, got {h}")
    worst = 0.0
    for t, x, s in points:
        x, s = _check_args(model, x, s)
        jb = np.asarray(model.db_dx(t, x, s), dtype=float)
        js = np.asarray(model.dsigma_dx(t, x, s), dtype=float)
        _check_finite(jb, "drift Jacobian", t, x, s)
        _check_finite(js, "diffusion Jacobian", t, x, s)
        fd_b = np.empty_like(jb)
        fd_s = np.empty_like(js)
        for j in range(model.d):
            e = np.zeros(model.d)
            e[j] = h
            fd_b[:, j] = (model.b(t, x + e, s) - model.b(t, x - e, s)) / (2 * h)
            dsig = (model.sigma(t, x + e, s) - model.sigma(t, x - e, s)) / (2 * h)
            fd_s[:, :, j] = dsig.T
        _check_finite(fd_b, "drift difference quotient", t, x, s)
        _check_finite(fd_s, "diffusion difference quotient", t, x, s)
        worst = max(worst, float(np.max(np.abs(jb - fd_b) / (1.0 + np.abs(jb)))))
        worst = max(worst, float(np.max(np.abs(js - fd_s) / (1.0 + np.abs(js)))))
    return worst
