"""Coefficient model evaluation, ellipticity probing, Jacobian audits."""

import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvsim
from mvsim import (
    CoefficientModel,
    InitialLaw,
    NumericError,
    StatisticFunctional,
    TimeGrid,
    build_fp_problem,
    check_ellipticity,
    diffusion_matrix,
    eval_diffusion,
    eval_drift,
    get_preset,
    jacobian_consistency_probe,
    preset_names,
    solve_fp,
)
from mvsim.particle import draw_noise, euler_paths


def _identity_sigma_model(d=2):
    def sigma(t, x, s):
        return np.broadcast_to(np.eye(d), x.shape[:-1] + (d, d))

    return CoefficientModel(
        d=d, m=d, functionals=(),
        b=lambda t, x, s: np.zeros_like(x),
        sigma=sigma,
        db_dx=lambda t, x, s: np.zeros(x.shape[:-1] + (d, d)),
        dsigma_dx=lambda t, x, s: np.zeros(x.shape[:-1] + (d, d, d)),
        b_static=True, sigma_static=True)


def test_diffusion_matrix_correlated_2d_preset():
    inst = get_preset("example5-2")
    x = np.array([[0.7, -0.3]])
    A = diffusion_matrix(inst.model, 0.0, x, np.zeros(1))[0]
    expected = np.array([[0.5, 0.4], [0.4, 0.5]])
    np.testing.assert_allclose(A, expected, rtol=1e-12)


def test_diffusion_matrix_zero_sigma():
    model = CoefficientModel(
        d=1, m=1, functionals=(),
        b=lambda t, x, s: np.zeros_like(x),
        sigma=lambda t, x, s: np.zeros(x.shape[:-1] + (1, 1)),
        b_static=True, sigma_static=True)
    A = diffusion_matrix(model, 0.0, np.array([[2.0]]), np.zeros(0))
    assert np.all(A == 0.0)


def test_diffusion_matrix_scalar_multiplicative_preset():
    inst = get_preset("example5-1")
    for xv in (0.5, -1.3, 2.0):
        x = np.array([[xv]])
        A = diffusion_matrix(inst.model, 0.0, x, np.zeros(1))[0, 0, 0]
        assert A == pytest.approx(xv * xv / 10.0, rel=1e-12)


def test_diffusion_matrix_is_sigma_sigma_t_for_every_preset():
    rng = np.random.default_rng(0)
    for name in preset_names():
        inst = get_preset(name)
        x = rng.normal(size=(5, inst.model.d))
        s = np.zeros(len(inst.model.functionals))
        sig = eval_diffusion(inst.model, 0.3, x, s)
        A = diffusion_matrix(inst.model, 0.3, x, s)
        np.testing.assert_allclose(
            A, np.einsum("nij,nkj->nik", sig, sig), rtol=1e-12, atol=1e-15)


def test_diffusion_matrix_symmetric_psd():
    rng = np.random.default_rng(1)
    inst = get_preset("example5-2")
    x = rng.normal(size=(20, 2))
    A = diffusion_matrix(inst.model, 0.0, x, np.zeros(1))
    np.testing.assert_allclose(A, np.swapaxes(A, -1, -2), atol=1e-14)
    for Ai in A:
        assert np.linalg.eigvalsh(Ai).min() >= -1e-14


def test_ellipticity_correlated_preset():
    # eigenvalues of [[0.5, 0.4], [0.4, 0.5]] are 0.9 and 0.1
    inst = get_preset("example5-2")
    rep = check_ellipticity(
        inst.model, (0.0, 1.0),
        (np.array([-3.0, -3.0]), np.array([3.0, 3.0])),
        n=512, seed=0)
    assert rep.lambda_min_estimate == pytest.approx(0.1, rel=1e-10)


def test_ellipticity_degenerate_at_origin():
    inst = get_preset("example5-1")
    rep = check_ellipticity(
        inst.model, (0.0, 1.0),
        (np.array([-2.0]), np.array([2.0])),
        n=4096, seed=0)
    # A(x) = x^2/10 vanishes at 0; a quasi-uniform scan lands close
    assert 0.0 <= rep.lambda_min_estimate < 1e-4
    assert abs(rep.argmin_x[0]) < 0.05


def test_ellipticity_identity_sigma():
    rep = check_ellipticity(
        _identity_sigma_model(), (0.0, 1.0),
        (np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        n=64, seed=3)
    assert rep.lambda_min_estimate == pytest.approx(1.0, abs=1e-12)


def test_ellipticity_estimate_monotone_in_sample_count():
    # low-discrepancy samples are a prefix sequence for a fixed seed
    inst = get_preset("example5-1")
    box = (np.array([-2.0]), np.array([2.0]))
    vals = [check_ellipticity(inst.model, (0.0, 1.0), box, n, seed=7)
            .lambda_min_estimate for n in (128, 256, 512, 1024)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a


def test_ellipticity_nonfinite_diffusion_reports_location():
    def sigma(t, x, s):
        with np.errstate(divide="ignore"):
            return (1.0 / x)[..., :, None]

    model = CoefficientModel(
        d=1, m=1, functionals=(),
        b=lambda t, x, s: np.zeros_like(x),
        sigma=sigma, b_static=True, sigma_static=True)
    with pytest.raises(NumericError, match="non-finite"):
        check_ellipticity(model, (0.0, 1.0),
                          (np.array([0.0]), np.array([0.0])),
                          n=8, seed=0)


def test_drift_nonfinite_raises():
    model = CoefficientModel(
        d=1, m=1, functionals=(),
        b=lambda t, x, s: np.full_like(x, np.inf),
        sigma=lambda t, x, s: np.ones(x.shape[:-1] + (1, 1)),
        b_static=True, sigma_static=True)
    with pytest.raises(NumericError, match="non-finite"):
        eval_drift(model, 0.0, np.array([[1.0]]), np.zeros(0))


def test_stacked_nonfinite_diffusion_names_its_row():
    model = CoefficientModel(
        d=1, m=1, functionals=(),
        b=lambda t, x, s: np.zeros_like(x),
        sigma=lambda t, x, s: np.where(x > 0.5, np.nan, 1.0)[..., None],
        b_static=True, sigma_static=True)
    x = np.array([[0.1], [0.7], [0.2], [0.3]])
    with pytest.raises(NumericError) as ei:
        diffusion_matrix(model, 0.0, x, np.zeros(0))
    assert str(ei.value) == ("diffusion evaluated to a non-finite value at t=0.0, "
                             "row 1 of 4, x=[0.7], s=[]")
    # one state keeps the single-point message
    with pytest.raises(NumericError) as ei:
        diffusion_matrix(model, 0.0, x[1], np.zeros(0))
    assert str(ei.value) == "diffusion evaluated to a non-finite value at t=0.0, x=[0.7], s=[]"


def test_jacobian_probe_exact_for_linear_drift():
    B = np.array([[0.2, -1.1], [0.7, 0.4]])

    def b(t, x, s):
        return x @ B.T

    model = CoefficientModel(
        d=2, m=2, functionals=(),
        b=b,
        sigma=lambda t, x, s: np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)),
        db_dx=lambda t, x, s: np.broadcast_to(B, x.shape[:-1] + (2, 2)),
        dsigma_dx=lambda t, x, s: np.zeros(x.shape[:-1] + (2, 2, 2)),
        b_static=True, sigma_static=True)
    pts = [(0.0, np.array([0.4, -2.0]), np.zeros(0)),
           (0.5, np.array([-1.0, 3.0]), np.zeros(0))]
    assert jacobian_consistency_probe(model, pts, h=0.1) < 1e-12


def test_jacobian_probe_multiplicative_noise():
    inst = get_preset("gbm")
    pts = [(0.0, np.array([1.0]), np.zeros(0)),
           (0.7, np.array([2.5]), np.zeros(0))]
    assert jacobian_consistency_probe(inst.model, pts, h=1e-5) < 1e-8


def test_jacobian_probe_flags_wrong_jacobian():
    def b(t, x, s):
        return np.sin(x)

    model = CoefficientModel(
        d=1, m=1, functionals=(),
        b=b,
        sigma=lambda t, x, s: np.ones(x.shape[:-1] + (1, 1)),
        # deliberately wrong: claims the derivative is 2 everywhere
        db_dx=lambda t, x, s: np.full(x.shape[:-1] + (1, 1), 2.0),
        dsigma_dx=lambda t, x, s: np.zeros(x.shape[:-1] + (1, 1, 1)),
        b_static=True, sigma_static=True)
    pts = [(0.0, np.array([0.3]), np.zeros(0))]
    assert jacobian_consistency_probe(model, pts, h=1e-5) > 1e-2


def test_jacobian_probe_does_not_pass_on_nan():
    # a zero step divides 0 by 0, and a drift undefined at x + h makes the
    # quotient NaN; neither may read as perfect agreement
    model = CoefficientModel(
        d=1, m=1, functionals=(),
        b=lambda t, x, s: np.where(x < 0.4, np.sin(x), math.nan),
        sigma=lambda t, x, s: np.ones(x.shape[:-1] + (1, 1)),
        db_dx=lambda t, x, s: np.cos(x)[..., None],
        dsigma_dx=lambda t, x, s: np.zeros(x.shape[:-1] + (1, 1, 1)),
        b_static=True, sigma_static=True)
    pts = [(0.0, np.array([0.25]), np.zeros(0))]
    assert 0.0 < jacobian_consistency_probe(model, pts, h=1e-5) < 1e-8
    for h in (0.0, -1e-5, math.nan):
        with pytest.raises(ValueError, match="step h"):
            jacobian_consistency_probe(model, pts, h=h)
    with pytest.raises(NumericError, match=r"drift difference quotient .* x=\[0.25\]"):
        jacobian_consistency_probe(model, pts, h=0.25)


def test_jacobian_probe_all_presets_consistent():
    rng = np.random.default_rng(5)
    for name in preset_names():
        inst = get_preset(name)
        q = len(inst.model.functionals)
        pts = []
        for _ in range(4):
            x = rng.normal(size=inst.model.d)
            if name == "gbm":
                x = np.abs(x) + 0.5  # keep away from the degenerate origin
            pts.append((float(rng.uniform(0.0, 1.0)), x, 0.2 * np.ones(q)))
        assert jacobian_consistency_probe(inst.model, pts, h=1e-5) < 1e-6, name


def test_statistic_functionals_carry_ids():
    inst = get_preset("meanfield-ou")
    assert [f.id for f in inst.model.functionals] == ["mean"]


def test_preset_registry_roundtrip():
    assert preset_names() == sorted(preset_names())
    with pytest.raises(ValueError, match="unknown preset"):
        get_preset("nope")
    with pytest.raises(ValueError, match="no parameter"):
        get_preset("bm", {"bogus": 1.0})
    inst = get_preset("ou", {"theta": 2.0})
    x = np.array([[1.0]])
    assert eval_drift(inst.model, 0.0, x, np.zeros(0))[0, 0] == -2.0


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second; only check_ellipticity imports it
    src = str(Path(mvsim.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import mvsim; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def _nonlocal_2d(copy):
    """example5-2's shape: a 2D drift read off a statistic, returned as a
    read-only broadcast view, or as its copy when ``copy``."""
    fn = StatisticFunctional("sin-product", lambda x: np.sin(x[..., 0]) * np.sin(x[..., 1]))

    def b(t, x, s):
        v = np.broadcast_to((np.sqrt((x ** 2).sum(axis=-1) + 0.4) + s[0])[..., None], x.shape)
        return v.copy() if copy else v

    def sigma(t, x, s):
        return np.broadcast_to(np.array([[2.0, 1.0], [1.0, 2.0]]) / np.sqrt(10.0),
                               x.shape[:-1] + (2, 2))

    return CoefficientModel(d=2, m=2, functionals=(fn,), b=b, sigma=sigma,
                            sigma_static=True)


def test_read_only_broadcast_fields_give_the_bits_of_their_copies():
    # no consumer writes into what b or sigma returns, so a read-only view
    # runs, and runs as its copy does
    law = InitialLaw.gaussian([0.0, 0.0], 0.04 * np.eye(2))
    grid = TimeGrid(0.1, 10)
    fp, paths = [], []
    for copy in (False, True):
        model = _nonlocal_2d(copy)
        problem = build_fp_problem(model, law, ((-2.0, 3.0), (-2.0, 3.0)), (51, 51),
                                   horizon=0.1, snapshot_times=(0.05, 0.1))
        fp.append(solve_fp(problem))
        x0, dw = draw_noise(model, law, grid, 200, seed=3)
        paths.append(euler_paths(model, x0, grid, dw))
    view, copied = fp
    assert view.n_steps == copied.n_steps
    for a, b in zip(view.snapshots, copied.snapshots):
        assert np.array_equal(a.values, b.values)
    for name in ("times", "mass_curve", "min_value_curve", "boundary_flux_curve", "stat_curve"):
        assert np.array_equal(getattr(view, name), getattr(copied, name)), name
    assert np.array_equal(paths[0].states, paths[1].states)
    assert np.array_equal(paths[0].realized_flow.stats, paths[1].realized_flow.stats)


def _fields(model, t, x, s):
    return [np.asarray(f(t, x, s)) for f in (model.b, model.sigma, model.db_dx,
                                             model.dsigma_dx)]


@pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
def test_example51_printed_is_the_printed_formula(t):
    # b = -(k (x + sin t) + kint s) with k = kint = 0.1, sigma = x sqrt(0.4),
    # initial law N(0, 0.5)
    inst = get_preset("example5-1-printed")
    x = np.linspace(-3.0, 3.0, 7)[:, None]
    s = np.array([0.37])
    want = [-(0.1 * (x + np.sin(t)) + 0.1 * s[0]),
            x[..., None] * np.sqrt(0.4),
            np.full((7, 1, 1), -0.1),
            np.full((7, 1, 1, 1), np.sqrt(0.4))]
    for got, expected in zip(_fields(inst.model, t, x, s), want):
        assert got.shape == expected.shape and np.array_equal(got, expected)
    assert inst.law.kind == "gaussian"
    assert np.array_equal(inst.law.mean, [0.0]) and np.array_equal(inst.law.cov, [[0.5]])


@pytest.mark.parametrize("t", [0.0, 1.0])
def test_example52_printed_is_the_printed_formula(t):
    # b = 0.1 (sqrt(x1^2 + x2^2 + 0.4) + s) in both coordinates, its Jacobian
    # rows 0.1 x / r; the noise is example5-2's
    inst, plain = get_preset("example5-2-printed"), get_preset("example5-2")
    x = np.random.default_rng(2).normal(size=(6, 2))
    s = np.array([-0.21])
    r = np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2 + 0.4)
    want = [np.repeat((0.1 * (r + s[0]))[:, None], 2, axis=1),
            np.broadcast_to(np.array([[2.0, 1.0], [1.0, 2.0]]) / np.sqrt(10.0), (6, 2, 2)),
            np.repeat((0.1 * (x / r[:, None]))[:, None, :], 2, axis=1),
            np.zeros((6, 2, 2, 2))]
    for got, expected in zip(_fields(inst.model, t, x, s), want):
        assert got.shape == expected.shape and np.array_equal(got, expected)
    assert np.array_equal(inst.law.mean, plain.law.mean)
    assert np.array_equal(inst.law.cov, plain.law.cov)


def _no_jacobians():
    return dataclasses.replace(_identity_sigma_model(), db_dx=None, dsigma_dx=None)


def _wrong_shapes():
    return dataclasses.replace(_identity_sigma_model(), b=lambda t, x, s: x[..., :1],
                               sigma=lambda t, x, s: np.ones(x.shape[:-1] + (2, 1)))


_X2 = np.zeros((3, 2))


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: dataclasses.replace(_identity_sigma_model(), d=0),
                 "state dimension must be >= 1, got 0", id="model-d"),
    pytest.param(lambda: dataclasses.replace(_identity_sigma_model(), m=0),
                 "noise dimension must be >= 1, got 0", id="model-m"),
    pytest.param(lambda: eval_drift(_identity_sigma_model(), 0.0, np.zeros((3, 3)), np.zeros(0)),
                 "state has dimension 3, model expects 2", id="state-dimension"),
    pytest.param(lambda: eval_diffusion(_identity_sigma_model(), 0.0, _X2, np.zeros(1)),
                 r"statistic vector has shape \(1,\), model expects \(0,\)", id="statistic-shape"),
    pytest.param(lambda: eval_drift(_wrong_shapes(), 0.0, _X2, np.zeros(0)),
                 r"drift returned shape \(3, 1\), expected \(3, 2\)", id="drift-shape"),
    pytest.param(lambda: eval_diffusion(_wrong_shapes(), 0.0, _X2, np.zeros(0)),
                 r"diffusion returned shape \(3, 2, 1\), expected \(3, 2, 2\)",
                 id="diffusion-shape"),
    pytest.param(lambda: check_ellipticity(_identity_sigma_model(), (0.0, 1.0),
                                           (np.zeros(2), np.ones(2)), n=0, seed=0),
                 "need at least one sample point", id="ellipticity-no-samples"),
    pytest.param(lambda: check_ellipticity(_identity_sigma_model(), (0.0, 1.0),
                                           (np.ones(2), np.zeros(2)), n=4, seed=0),
                 "region bounds are inverted", id="ellipticity-inverted-box"),
    pytest.param(lambda: check_ellipticity(_identity_sigma_model(), (1.0, 0.0),
                                           (np.zeros(2), np.ones(2)), n=4, seed=0),
                 "region bounds are inverted", id="ellipticity-inverted-times"),
    pytest.param(lambda: jacobian_consistency_probe(_no_jacobians(),
                                                    [(0.0, np.zeros(2), np.zeros(0))]),
                 "does not provide state Jacobians", id="probe-without-jacobians"),
])
def test_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
