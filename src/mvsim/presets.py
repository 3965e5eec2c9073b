"""Named coefficient presets with overridable numeric parameters.

Each preset bundles a coefficient model, an initial law, a horizon, and
default density-grid settings.  The paper's two examples ship twice:
``example5-1`` and ``example5-2`` are the forms all shipped guarantees refer
to, and ``example5-1-printed`` and ``example5-2-printed`` read the
coefficients as literally printed (in 5.1 a sign-flipped drift, the noise
factor sqrt(0.4) and the initial law N(0, 0.5); in 5.2 a drift scaled by 0.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import CoefficientModel, StatisticFunctional
from .particle import InitialLaw

_SQRT10 = math.sqrt(10.0)


@dataclass(frozen=True)
class PresetInstance:
    """A preset resolved against parameter overrides."""

    name: str
    summary: str
    params: dict
    model: CoefficientModel
    law: InitialLaw
    horizon: float
    fp_domain: tuple[tuple[float, float], ...]
    fp_nodes: tuple[int, ...]
    ellipticity_lambda: float | None


def _const_sigma_fields(d: int, m: int, matrix: np.ndarray):
    matrix = np.asarray(matrix, dtype=float).reshape(d, m)

    def sigma(t, x, s):
        return np.broadcast_to(matrix, x.shape[:-1] + (d, m))

    def dsigma(t, x, s):
        return np.zeros(x.shape[:-1] + (m, d, d))

    return sigma, dsigma


def _law_from(x0: np.ndarray, sigma0: float) -> InitialLaw:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if sigma0 == 0.0:
        return InitialLaw.point(x0)
    return InitialLaw.gaussian(x0, sigma0 * sigma0 * np.eye(x0.size))


def _build_ou(p: dict) -> PresetInstance:
    theta = float(p["theta"])
    sv = float(p["sigma"])
    sigma, dsigma = _const_sigma_fields(1, 1, np.array([[sv]]))
    model = CoefficientModel(
        d=1, m=1, functionals=(),
        b=lambda t, x, s: -theta * x,
        sigma=sigma,
        db_dx=lambda t, x, s: np.broadcast_to(-theta, x.shape[:-1] + (1, 1)),
        dsigma_dx=dsigma,
        b_static=True, sigma_static=True)
    return PresetInstance(
        name="ou", summary="linear mean-reverting diffusion",
        params=p, model=model, law=_law_from(p["x0"], float(p["sigma0"])),
        horizon=1.0, fp_domain=((-6.0, 6.0),), fp_nodes=(2001,),
        ellipticity_lambda=sv * sv)


def _build_bm(p: dict) -> PresetInstance:
    # ou at theta = 0: its drift -0.0 * x adds nothing to a step or a stencil
    return replace(_build_ou({"theta": 0.0, **p}), name="bm",
                   summary="driftless constant-volatility diffusion", params=p,
                   fp_domain=((-10.0, 10.0),))


def _build_gbm(p: dict) -> PresetInstance:
    mu = float(p["mu"])
    s = float(p["s"])

    def sigma(t, x, sv):
        return x[..., :, None] * s

    model = CoefficientModel(
        d=1, m=1, functionals=(),
        b=lambda t, x, sv: mu * x,
        sigma=sigma,
        db_dx=lambda t, x, sv: np.broadcast_to(mu, x.shape[:-1] + (1, 1)),
        dsigma_dx=lambda t, x, sv: np.broadcast_to(s, x.shape[:-1] + (1, 1, 1)),
        b_static=True, sigma_static=True)
    return PresetInstance(
        name="gbm", summary="linear multiplicative-noise growth model",
        params=p, model=model, law=_law_from(p["x0"], float(p["sigma0"])),
        horizon=1.0, fp_domain=((0.0, 8.0),), fp_nodes=(1601,),
        ellipticity_lambda=None)


def _build_meanfield_ou(p: dict) -> PresetInstance:
    a = float(p["a"])
    c = float(p["c"])
    sv = float(p["sigma"])
    mean_fn = StatisticFunctional("mean", lambda pts: pts[..., 0])
    sigma, dsigma = _const_sigma_fields(1, 1, np.array([[sv]]))
    model = CoefficientModel(
        d=1, m=1, functionals=(mean_fn,),
        b=lambda t, x, s: a * x + c * s[0],
        sigma=sigma,
        db_dx=lambda t, x, s: np.broadcast_to(a, x.shape[:-1] + (1, 1)),
        dsigma_dx=dsigma,
        b_static=False, sigma_static=True)
    return PresetInstance(
        name="meanfield-ou",
        summary="mean-reverting diffusion pulled toward the ensemble mean",
        params=p, model=model, law=_law_from(p["x0"], float(p["sigma0"])),
        horizon=1.0, fp_domain=((-2.0, 4.0),), fp_nodes=(1201,),
        ellipticity_lambda=sv * sv)


def _sin_kernel(y: np.ndarray) -> np.ndarray:
    return np.sin(y) / (1.0 + y * y)


def _build_example51(p: dict) -> PresetInstance:
    k = float(p["k"])
    kint = float(p["kint"])
    vol = float(p["vol"])
    fn = StatisticFunctional("sin-kernel", lambda pts: _sin_kernel(pts[..., 0]))

    def b(t, x, s):
        return k * (x + math.sin(t)) + kint * s[0]

    def sigma(t, x, s):
        return x[..., :, None] * vol

    model = CoefficientModel(
        d=1, m=1, functionals=(fn,),
        b=b, sigma=sigma,
        db_dx=lambda t, x, s: np.broadcast_to(k, x.shape[:-1] + (1, 1)),
        dsigma_dx=lambda t, x, s: np.broadcast_to(vol, x.shape[:-1] + (1, 1, 1)),
        b_static=False, sigma_static=True)

    return PresetInstance(
        name="example5-1",
        summary="1D model with sinusoidal interaction kernel and linear multiplicative noise",
        params=p, model=model, law=InitialLaw.gaussian([0.0], [[1.0]]),
        horizon=1.0, fp_domain=((-8.0, 8.0),), fp_nodes=(801,),
        ellipticity_lambda=0.0)


def _build_example51_printed(p: dict) -> PresetInstance:
    # negative k and kint flip the drift's sign, vol = sqrt(0.4) gives the
    # diffusion factor x^2/5, and the initial profile exp(-x^2) normalized is
    # N(0, 0.5)
    return replace(_build_example51(p), name="example5-1-printed",
                   summary="example5-1 as printed: sign-flipped drift, law N(0, 0.5)",
                   law=InitialLaw.gaussian([0.0], [[0.5]]))


def _build_example52(p: dict) -> PresetInstance:
    offset = float(p["offset"])
    fn = StatisticFunctional(
        "sin-kernel-product",
        lambda pts: _sin_kernel(pts[..., 0]) * _sin_kernel(pts[..., 1]))
    sig_matrix = np.array([[2.0, 1.0], [1.0, 2.0]]) / _SQRT10
    sigma, dsigma = _const_sigma_fields(2, 2, sig_matrix)

    def radius(x):
        return np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2 + offset)

    def b(t, x, s):
        return np.broadcast_to((radius(x) + s[0])[..., None], x.shape)

    def db(t, x, s):
        jac_row = x / radius(x)[..., None]
        return np.broadcast_to(jac_row[..., None, :], x.shape[:-1] + (2, 2))

    model = CoefficientModel(
        d=2, m=2, functionals=(fn,),
        b=b, sigma=sigma, db_dx=db, dsigma_dx=dsigma,
        b_static=False, sigma_static=True)

    return PresetInstance(
        name="example5-2",
        summary="2D model with product interaction kernel and constant correlated noise",
        params=p, model=model, law=InitialLaw.gaussian([0.0, 0.0], 0.04 * np.eye(2)),
        horizon=1.0, fp_domain=((-4.0, 6.0), (-4.0, 6.0)), fp_nodes=(201, 201),
        ellipticity_lambda=0.1)


def _build_example52_printed(p: dict) -> PresetInstance:
    inst = _build_example52(p)
    b, db = inst.model.b, inst.model.db_dx
    model = replace(inst.model, b=lambda t, x, s: 0.1 * b(t, x, s),
                    db_dx=lambda t, x, s: 0.1 * db(t, x, s))
    return replace(inst, name="example5-2-printed",
                   summary="example5-2 as printed: drift scaled by 0.1", model=model)


_REGISTRY = {
    "bm": (_build_bm, {"sigma": 1.0, "x0": 0.0, "sigma0": 1.0}),
    "ou": (_build_ou, {"theta": 1.0, "sigma": math.sqrt(2.0), "x0": 0.0, "sigma0": 1.0}),
    "gbm": (_build_gbm, {"mu": 1.0, "s": 0.05, "x0": 1.0, "sigma0": 0.0}),
    "meanfield-ou": (_build_meanfield_ou,
                     {"a": -1.0, "c": 0.5, "sigma": 0.3, "x0": 1.0, "sigma0": 0.3}),
    "example5-1": (_build_example51,
                   {"k": 0.1, "kint": 0.1, "vol": 1.0 / _SQRT10}),
    "example5-1-printed": (_build_example51_printed,
                           {"k": -0.1, "kint": -0.1, "vol": math.sqrt(0.4)}),
    "example5-2": (_build_example52, {"offset": 0.4}),
    "example5-2-printed": (_build_example52_printed, {"offset": 0.4}),
}


def preset_names() -> list[str]:
    return sorted(_REGISTRY)


def preset_defaults(name: str) -> dict:
    if name not in _REGISTRY:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(preset_names())}")
    return dict(_REGISTRY[name][1])


def get_preset(name: str, overrides: dict | None = None) -> PresetInstance:
    """Resolve a preset by name, applying numeric parameter overrides."""
    params = preset_defaults(name)
    for key, val in (overrides or {}).items():
        if key not in params:
            raise ValueError(
                f"preset {name!r} has no parameter {key!r}; known: {', '.join(sorted(params))}")
        params[key] = float(val)
    return _REGISTRY[name][0](params)
