"""First-variation flows, Malliavin derivatives, and covariance bounds."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from mvsim import (
    CoefficientModel,
    ConditioningError,
    InitialLaw,
    NumericError,
    PathBundle,
    StatisticFlow,
    StatisticFunctional,
    TimeGrid,
    bundle_diagnostics,
    covariance_curve,
    diffusion_matrix,
    ellipticity_bound_check,
    get_preset,
    malliavin_covariance,
    malliavin_derivative,
    simulate_first_variation,
    simulate_interacting,
    zy_residual,
)
from mvsim._linalg import sym_eigvals
from mvsim.malliavin import _covariance, _sweep
from mvsim.particle import coarsen_increments, draw_noise, euler_paths

SIGMA_2D = np.array([[2.0, 1.0], [1.0, 2.0]]) / math.sqrt(10.0)


def _run(name, steps=100, n=4, seed=0, horizon=1.0):
    inst = get_preset(name)
    bundle = simulate_interacting(inst.model, inst.law,
                                  TimeGrid(horizon, steps), n, seed=seed)
    return inst, bundle


def _fv(name, **kw):
    inst, bundle = _run(name, **kw)
    path = bundle.path(0)
    fv = simulate_first_variation(inst.model, path, bundle.realized_flow)
    return inst, bundle, path, fv


def _linear_model(B):
    B = np.asarray(B, dtype=float)
    d = B.shape[0]

    def b(t, x, s):
        return x @ B.T

    return CoefficientModel(
        d=d, m=d, functionals=(),
        b=b,
        sigma=lambda t, x, s: np.broadcast_to(np.eye(d), x.shape[:-1] + (d, d)),
        db_dx=lambda t, x, s: np.broadcast_to(B, x.shape[:-1] + (d, d)),
        dsigma_dx=lambda t, x, s: np.zeros(x.shape[:-1] + (d, d, d)),
        b_static=True, sigma_static=True)


def _driftless(inst):
    d = inst.model.d
    return CoefficientModel(
        d=d, m=inst.model.m, functionals=inst.model.functionals,
        b=lambda t, x, s: np.zeros_like(x),
        sigma=inst.model.sigma,
        db_dx=lambda t, x, s: np.zeros(x.shape[:-1] + (d, d)),
        dsigma_dx=inst.model.dsigma_dx,
        b_static=True, sigma_static=inst.model.sigma_static)


class TestFirstVariation:
    def test_identity_at_time_zero(self):
        _, _, _, fv = _fv("example5-2", steps=20)
        np.testing.assert_array_equal(fv.Y[0], np.eye(2))
        np.testing.assert_array_equal(fv.Z[0], np.eye(2))

    def test_translation_invariant_dynamics_keep_identity(self):
        _, _, _, fv = _fv("bm", steps=50)
        np.testing.assert_array_equal(fv.Y, np.broadcast_to(np.eye(1), (51, 1, 1)))
        np.testing.assert_array_equal(fv.Z, np.broadcast_to(np.eye(1), (51, 1, 1)))

    def test_linear_drift_matches_matrix_exponential(self):
        B = np.array([[0.0, -1.0], [0.5, 0.0]])
        model = _linear_model(B)
        law = InitialLaw.point([1.0, 0.0])
        errs = []
        for steps in (200, 400):
            grid = TimeGrid(1.0, steps)
            bundle = simulate_interacting(model, law, grid, 2, seed=1)
            fv = simulate_first_variation(model, bundle.path(0),
                                          bundle.realized_flow)
            worst = max(
                np.abs(fv.Y[k] - expm(B * grid.times()[k])).max()
                for k in range(0, steps + 1, steps // 10))
            errs.append(worst)
        assert errs[0] < 2e-3
        assert 1.8 < errs[0] / errs[1] < 2.2

    def test_approximate_inverse_tracks_flow(self):
        # Z takes its own step, with the realized dW_i dW_j in the Ito
        # correction, so Z Y - I carries an O(dt) defect rather than zero
        _, _, _, fv = _fv("example5-2", steps=100)
        prod = np.einsum("kab,kbc->kac", fv.Z, fv.Y) - np.eye(2)
        assert np.abs(prod[0]).max() == 0.0
        assert np.abs(prod).max() < 0.01

    def test_scalar_multiplicative_flow_is_state_ratio(self):
        # for linear scalar coefficients each Euler factor is shared by X and Y
        inst, bundle, path, fv = _fv("gbm", steps=200, seed=2)
        ratio = path.states[:, 0] / path.states[0, 0]
        np.testing.assert_allclose(fv.Y[:, 0, 0], ratio, rtol=1e-12)

    def test_exact_jacobian_of_euler_map(self):
        # bump the start point: finite differences see pure O(h^2) error
        inst = get_preset("example5-2")
        grid = TimeGrid(1.0, 100)
        x0 = np.array([0.3, -0.2])
        bundle = simulate_interacting(inst.model, InitialLaw.point(x0),
                                      grid, 1, seed=5)
        flow = bundle.realized_flow
        fv = simulate_first_variation(inst.model, bundle.path(0), flow)
        h = 1e-4
        J = np.empty((2, 2))
        for j in range(2):
            ends = []
            for sign in (1.0, -1.0):
                e = np.zeros(2)
                e[j] = sign * h
                shifted = euler_paths(inst.model, (x0 + e)[None, :], grid,
                                      bundle.increments, flow=flow)
                ends.append(shifted.states[-1, 0])
            J[:, j] = (ends[0] - ends[1]) / (2 * h)
        assert np.abs(J - fv.Y[-1]).max() / np.abs(fv.Y[-1]).max() < 1e-6

    def test_exact_jacobian_scalar_case(self):
        inst, bundle, path, fv = _fv("gbm", steps=200, seed=9)
        grid = TimeGrid(1.0, 200)
        h = 1e-5
        x0 = path.states[0]
        vals = []
        for e in (h, -h):
            shifted = euler_paths(inst.model, (x0 + e)[None, :], grid,
                                  bundle.increments[:, :1, :],
                                  flow=bundle.realized_flow)
            vals.append(shifted.states[-1, 0, 0])
        fd = (vals[0] - vals[1]) / (2 * h)
        assert abs(fd - fv.Y[-1, 0, 0]) / abs(fv.Y[-1, 0, 0]) < 1e-8

    def test_flow_grid_checked(self):
        from mvsim.measures import StatisticFlow

        inst, bundle = _run("meanfield-ou", steps=20)
        bad = StatisticFlow(TimeGrid(1.0, 10).times(), np.zeros((11, 1)))
        with pytest.raises(ValueError, match="does not match grid"):
            simulate_first_variation(inst.model, bundle.path(0), bad)

    @pytest.mark.parametrize("call", ["first_variation", "bundle"])
    def test_flow_on_another_time_grid_rejected(self, call):
        # the right shape on [0, 2] against paths on [0, 1]
        inst, bundle = _run("meanfield-ou", steps=20)
        flow = bundle.realized_flow
        moved = StatisticFlow(2.0 * flow.times, flow.stats)
        run = {
            "first_variation": lambda: simulate_first_variation(inst.model, bundle.path(0),
                                                                moved),
            "bundle": lambda: bundle_diagnostics(
                inst.model, dataclasses.replace(bundle, realized_flow=moved)),
        }[call]
        with pytest.raises(ValueError, match="different time grid"):
            run()

    def test_each_input_given_once(self, monkeypatch):
        # the per-path calls read the sweep's own model, path and flow, and
        # a bundle's flow is checked once, by the sweep
        from mvsim import malliavin

        inst, bundle, path, fv = _fv("example5-2", steps=20)
        assert fv.model is inst.model and fv.path is path
        assert fv.flow is bundle.realized_flow
        calls = []
        check = malliavin._check_flow
        monkeypatch.setattr(malliavin, "_check_flow",
                            lambda *a: calls.append(a) or check(*a))
        bundle_diagnostics(inst.model, bundle, lam=0.1)
        assert len(calls) == 1


class TestZyResidual:
    def test_constant_coefficients_give_zero(self):
        _, _, _, fv = _fv("bm", steps=50)
        assert np.abs(zy_residual(fv)).max() == 0.0

    def test_state_independent_sigma_halving(self):
        # deterministic Y here, so the defect is pure dt^2 per step
        _, _, _, fv_c = _fv("ou", steps=500, seed=1)
        _, _, _, fv_f = _fv("ou", steps=1000, seed=1)
        r_c = np.abs(zy_residual(fv_c)).max()
        r_f = np.abs(zy_residual(fv_f)).max()
        assert 1.8 < r_c / r_f < 2.2

    def test_multiplicative_noise_magnitude_and_halving(self):
        inst = get_preset("gbm")
        grid_f = TimeGrid(1.0, 2000)
        bundle = simulate_interacting(inst.model, inst.law, grid_f, 1, seed=3)
        fv_f = simulate_first_variation(inst.model, bundle.path(0),
                                        bundle.realized_flow)
        pb = euler_paths(inst.model, bundle.states[0], TimeGrid(1.0, 1000),
                         coarsen_increments(bundle.increments))
        fv_c = simulate_first_variation(inst.model, pb.path(0),
                                        pb.realized_flow)
        r_c = np.abs(zy_residual(fv_c)).max()
        r_f = np.abs(zy_residual(fv_f)).max()
        assert r_c < 0.1
        assert 1.5 < r_c / r_f < 2.5

    def test_shared_noise_halving_across_presets(self):
        # presets whose per-step defect has a nonzero deterministic term;
        # example5-1 stays out: its O(dt) defect is mean-zero and dominated
        # by the martingale part, so one seed's ratio spreads widely
        # (1.5-4.3 over seeds 1-8 at 1000/500 steps); the 15-seed median of
        # acceptance criterion 4 covers it
        from mvsim.measures import StatisticFlow

        for name in ("ou", "gbm", "meanfield-ou", "example5-2"):
            inst = get_preset(name)
            grid_f = TimeGrid(1.0, 1000)
            bundle = simulate_interacting(inst.model, inst.law, grid_f, 1,
                                          seed=1)
            fv_f = simulate_first_variation(inst.model, bundle.path(0),
                                            bundle.realized_flow)
            flow_c = StatisticFlow(grid_f.times()[0::2],
                                   bundle.realized_flow.stats[0::2])
            pb = euler_paths(inst.model, bundle.states[0], TimeGrid(1.0, 500),
                             coarsen_increments(bundle.increments), flow=flow_c)
            fv_c = simulate_first_variation(inst.model, pb.path(0), flow_c)
            ratio = (np.abs(zy_residual(fv_c)).max()
                     / np.abs(zy_residual(fv_f)).max())
            assert 1.8 < ratio < 2.2, name


class TestMalliavinDerivative:
    def test_driftless_constant_sigma_returns_column(self):
        inst = get_preset("example5-2")
        quiet = _driftless(inst)
        bundle = simulate_interacting(quiet, inst.law, TimeGrid(1.0, 50), 1,
                                      seed=0)
        path = bundle.path(0)
        fv = simulate_first_variation(quiet, path, bundle.realized_flow)
        for j in range(2):
            for r in (0, 20, 50):
                d = malliavin_derivative(fv, r_index=r, j=j, t_index=50)
                np.testing.assert_allclose(d, SIGMA_2D[:, j], rtol=1e-12)

    def test_future_perturbation_is_zero(self):
        _, _, _, fv = _fv("example5-2", steps=50)
        d = malliavin_derivative(fv, r_index=40, j=0, t_index=20)
        np.testing.assert_array_equal(d, np.zeros(2))

    def test_multiplicative_case_scales_with_state(self):
        inst, bundle, path, fv = _fv("gbm", steps=200, seed=2)
        s = 0.05
        for r, t in ((1, 200), (50, 200), (120, 150)):
            d = malliavin_derivative(fv, r_index=r, j=0, t_index=t)
            np.testing.assert_allclose(d, s * path.states[t], rtol=1e-10)

    def test_index_validation(self):
        _, _, _, fv = _fv("bm", steps=10)
        with pytest.raises(ValueError, match="time indices"):
            malliavin_derivative(fv, r_index=-1, j=0, t_index=5)
        with pytest.raises(ValueError, match="time indices"):
            malliavin_derivative(fv, r_index=1, j=0, t_index=11)
        with pytest.raises(ValueError, match="noise index"):
            malliavin_derivative(fv, r_index=1, j=5, t_index=5)

    def test_singular_flow_matrix_raises(self):
        # drift slope -1/dt zeroes the Euler factor, so Y(r) loses rank
        steps = 10
        model = _linear_model(np.array([[-float(steps)]]))
        bundle = simulate_interacting(model, InitialLaw.point([1.0]),
                                      TimeGrid(1.0, steps), 1, seed=0)
        fv = simulate_first_variation(model, bundle.path(0), bundle.realized_flow)
        assert fv.Y[1, 0, 0] == 0.0
        with pytest.raises(ConditioningError, match="singular to tolerance"):
            malliavin_derivative(fv, r_index=1, j=0, t_index=5)


class TestCovariance:
    def test_additive_noise_gives_t_times_identity(self):
        _, _, _, fv = _fv("bm", steps=100)
        for k in (20, 100):
            cov = malliavin_covariance(fv, t_index=k)
            t = k / 100
            np.testing.assert_allclose(cov.Q, [[t]], rtol=1e-10)
            assert cov.lambda_min == pytest.approx(t, rel=1e-10)
            assert cov.gamma == 1.0

    def test_driftless_constant_sigma_gives_t_sigma_sigma_t(self):
        inst = get_preset("example5-2")
        quiet = _driftless(inst)
        bundle = simulate_interacting(quiet, inst.law, TimeGrid(1.0, 50), 1,
                                      seed=0)
        fv = simulate_first_variation(quiet, bundle.path(0),
                                      bundle.realized_flow)
        cov = malliavin_covariance(fv, t_index=50)
        np.testing.assert_allclose(cov.Q, SIGMA_2D @ SIGMA_2D.T, rtol=1e-10)
        assert cov.lambda_min == pytest.approx(0.1, rel=1e-9)

    def test_time_zero_rejected(self):
        _, _, _, fv = _fv("bm", steps=10)
        with pytest.raises(ValueError, match="time index must lie"):
            malliavin_covariance(fv, t_index=0)

    def test_curve_is_psd_and_nondecreasing(self):
        _, _, _, fv = _fv("example5-2", steps=50, seed=4)
        curve = covariance_curve(fv)
        assert len(curve) == 51
        assert np.all(curve[0].Q == 0.0)
        prev = np.zeros((2, 2))
        for cov in curve[1:]:
            w = np.linalg.eigvalsh(cov.Q)
            assert w.min() >= -1e-12
            gap = np.linalg.eigvalsh(cov.Q - prev).min()
            assert gap >= -1e-10
            prev = cov.Q

    def test_singular_step_fails_the_curve(self):
        steps = 10
        model = _linear_model(np.array([[-float(steps)]]))
        bundle = simulate_interacting(model, InitialLaw.point([1.0]),
                                      TimeGrid(1.0, steps), 1, seed=0)
        fv = simulate_first_variation(model, bundle.path(0),
                                      bundle.realized_flow)
        with pytest.raises(ConditioningError, match="singular to tolerance"):
            covariance_curve(fv)

    @pytest.mark.parametrize("name", ["example5-2", "gbm"])
    def test_snapshot_is_the_curve_entry(self, name):
        # the snapshot is the curve's entry at its time, with the curve's bits
        _, _, _, fv = _fv(name, steps=60, seed=3)
        curve = covariance_curve(fv)
        for k in (1, 2, 17, 59, 60):
            cov = malliavin_covariance(fv, t_index=k)
            assert np.array_equal(cov.Q, curve[k].Q)
            assert np.array_equal(cov.lambda_min, curve[k].lambda_min)
            assert np.array_equal(cov.gamma, curve[k].gamma)
            assert (cov.t, cov.dt) == (curve[k].t, curve[k].dt)

    def test_singular_step_after_the_snapshot_still_fails_it(self):
        model = _kinked_model(-10.0)
        bundle = _bundle_with_one_kink()
        fv = simulate_first_variation(model, bundle.path(2), bundle.realized_flow)
        with pytest.raises(ConditioningError, match="path 2 at index 4"):
            malliavin_covariance(fv, t_index=2)


class TestBoundCheck:
    def test_identity_flow_bound_is_tight(self):
        _, _, _, fv = _fv("bm", steps=100)
        cov = malliavin_covariance(fv, t_index=100)
        rep = ellipticity_bound_check(cov, 1.0, slack_factor=0.0)
        # gamma = 1 and lambda = 1 here, so the unslacked bound is exact
        assert rep.holds
        assert rep.bound == pytest.approx(1.0, rel=1e-12)
        assert rep.margin == pytest.approx(0.0, abs=1e-12)
        assert not rep.lambda_degenerate

    def test_degenerate_lambda_is_flagged(self):
        _, _, _, fv = _fv("example5-1", steps=50, seed=2)
        cov = malliavin_covariance(fv, t_index=50)
        rep = ellipticity_bound_check(cov, 0.0)
        assert rep.lambda_degenerate
        assert rep.bound == 0.0
        assert rep.holds

    def test_uniformly_elliptic_paths_obey_bound(self):
        inst = get_preset("example5-2")
        bundle = simulate_interacting(inst.model, inst.law, TimeGrid(1.0, 100),
                                      20, seed=12)
        for i in range(20):
            fv = simulate_first_variation(inst.model, bundle.path(i),
                                          bundle.realized_flow)
            cov = malliavin_covariance(fv, t_index=100)
            rep = ellipticity_bound_check(cov, 0.1)
            assert rep.holds, f"path {i}"
            assert rep.margin > 0.0

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda_refused(self, lam):
        # a NaN floor would read as a violated floor on every path
        inst, bundle, _, fv = _fv("example5-2", steps=20)
        cov = covariance_curve(fv)[-1]
        with pytest.raises(ValueError, match="floor lambda"):
            ellipticity_bound_check(cov, lam)
        with pytest.raises(ValueError, match="floor lambda"):
            bundle_diagnostics(inst.model, bundle, lam)

    @pytest.mark.parametrize("slack_factor", [-1e9, -1.0, math.nan, math.inf])
    def test_negative_or_non_finite_slack_refused(self, slack_factor):
        # a slack factor of -1e9 would fail a floor that holds with margin
        _, _, _, fv = _fv("example5-2", steps=20)
        cov = covariance_curve(fv)[-1]
        with pytest.raises(ValueError, match="slack factor"):
            ellipticity_bound_check(cov, 0.1, slack_factor=slack_factor)


def _kinked_model(slope):
    # 1D, unit noise; the drift Jacobian is ``slope`` above x = 0.5, else 0
    return CoefficientModel(
        d=1, m=1, functionals=(),
        b=lambda t, x, s: np.zeros_like(x),
        sigma=lambda t, x, s: np.ones(x.shape[:-1] + (1, 1)),
        db_dx=lambda t, x, s: np.where(x > 0.5, slope, 0.0)[..., None],
        dsigma_dx=lambda t, x, s: np.zeros(x.shape[:-1] + (1, 1, 1)))


def _bundle_with_one_kink(steps=10, n=4, path=2, step=3):
    # every path rests at 0 except ``path``, which sits at 1 at ``step``
    grid = TimeGrid(1.0, steps)
    states = np.zeros((steps + 1, n, 1))
    states[step, path, 0] = 1.0
    return PathBundle(grid=grid, states=states,
                      increments=np.zeros((steps, n, 1)),
                      realized_flow=StatisticFlow(grid.times(),
                                                  np.zeros((steps + 1, 0))))


def _scalar_eigvals(a):
    """Closed-form 2x2 (or 1x1) symmetric eigenvalues in scalar arithmetic."""
    if a.shape[-1] == 1:
        return [float(a[0, 0])]
    half_tr = 0.5 * (a[0, 0] + a[1, 1])
    disc = 0.25 * (a[0, 0] - a[1, 1]) ** 2 + a[0, 1] * a[1, 0]
    root = math.sqrt(max(float(disc), 0.0))
    return [half_tr - root, half_tr + root]


def _per_path_loops(model, path, flow):
    """Y, Z, Q, lambda_min and gamma from one path's step loops in scalar
    arithmetic: the reference the batched core must match bit for bit."""
    d, M, dt = model.d, path.grid.steps, path.grid.dt
    times = path.grid.times()
    Y, Z = [np.eye(d)], [np.eye(d)]
    for k in range(M):
        x, s, t = path.states[k], flow.stats[k], float(times[k])
        B = np.asarray(model.db_dx(t, x, s), dtype=float).reshape(d, d)
        S = np.asarray(model.dsigma_dx(t, x, s), dtype=float).reshape(model.m, d, d)
        noise = np.einsum("j,jab->ab", path.increments[k], S)
        Y.append(Y[k] + (B @ Y[k]) * dt + noise @ Y[k])
        zn = Z[k] @ noise
        Z.append(Z[k] - (Z[k] @ B) * dt - zn + zn @ noise)

    P, G_prev, gamma, Q, lam_min, gammas = np.zeros((d, d)), None, 0.0, [], [], []
    for k in range(M + 1):
        A = diffusion_matrix(model, float(times[k]), path.states[k], flow.stats[k])
        vals = _scalar_eigvals(Y[k].T @ Y[k])
        smin, smax = (math.sqrt(max(float(v), 0.0)) for v in (vals[0], vals[-1]))
        gamma = max(gamma, smax, 1.0 / smin)
        G = np.linalg.solve(Y[k], np.linalg.solve(Y[k], A).T)
        G = 0.5 * (G + G.T)
        if G_prev is not None:
            P = P + 0.5 * dt * (G_prev + G)
        G_prev = G
        q = Y[k] @ P @ Y[k].T
        Q.append(0.5 * (q + q.T))
        lam_min.append(_scalar_eigvals(Q[-1])[0])
        gammas.append(gamma)
    return tuple(np.array(v) for v in (Y, Z, Q, lam_min, gammas))


class TestBundleDiagnostics:
    def test_stacked_eigenvalues_match_scalar_arithmetic(self):
        # a stack must give each matrix the bits of its scalar closed form;
        # numpy's array square differs from the scalar ``** 2`` in rare cases
        a = np.random.default_rng(0).standard_normal((20000, 2, 2))
        a = a.swapaxes(-1, -2) @ a
        assert np.array_equal(sym_eigvals(a), [_scalar_eigvals(m) for m in a])

    @pytest.mark.parametrize("name,lam", [("example5-2", 0.1), ("gbm", 0.0)])
    def test_batch_equals_per_path_bit_for_bit(self, name, lam):
        inst = get_preset(name)
        bundle = simulate_interacting(inst.model, inst.law, TimeGrid(1.0, 40),
                                      40, seed=7)
        flow = bundle.realized_flow
        paths = np.arange(bundle.n)
        Y, Z = _sweep(inst.model, bundle.grid, bundle.states,
                      bundle.increments, flow, paths)
        Q, lam_min, gamma = _covariance(inst.model, bundle.grid, bundle.states,
                                        flow, Y, paths)
        diag = bundle_diagnostics(inst.model, bundle, lam=lam)
        for i in paths:
            path = bundle.path(i)
            fv = simulate_first_variation(inst.model, path, flow)
            curve = covariance_curve(fv)
            rep = ellipticity_bound_check(curve[-1], lam)
            ref = _per_path_loops(inst.model, path, flow)
            for got, want in zip((Y, Z, Q, lam_min, gamma), ref):
                assert np.array_equal(got[:, i], want)
            assert diag["bound"][i] == 1.0 * lam / ref[-1][-1] ** 4
            assert np.array_equal(Y[:, i], fv.Y) and np.array_equal(Z[:, i], fv.Z)
            assert np.array_equal(Q[:, i], np.stack([c.Q for c in curve]))
            assert np.array_equal(lam_min[:, i], [c.lambda_min for c in curve])
            assert np.array_equal(gamma[:, i], [c.gamma for c in curve])
            assert diag["lambda_min"][i] == curve[-1].lambda_min
            assert diag["gamma"][i] == curve[-1].gamma
            assert diag["zy_max"][i] == zy_residual(fv).max()
            assert (diag["bound"][i], diag["margin"][i], diag["holds"][i]) \
                == (rep.bound, rep.margin, rep.holds)

    def test_frozen_flow_bundle_reads_the_flow_it_was_swept_under(self):
        # b = -(1 + s^2) x frozen at s = 2: the Euler map's derivative is
        # Y = (1 - 5 dt)^steps, whatever statistics the paths themselves realize
        model = CoefficientModel(
            d=1, m=1, functionals=(StatisticFunctional("mean", lambda x: x[..., 0]),),
            b=lambda t, x, s: -(1.0 + s[0] ** 2) * x,
            sigma=lambda t, x, s: np.ones(x.shape[:-1] + (1, 1)),
            db_dx=lambda t, x, s: np.full(x.shape[:-1] + (1, 1), -(1.0 + s[0] ** 2)),
            dsigma_dx=lambda t, x, s: np.zeros(x.shape[:-1] + (1, 1, 1)))
        grid = TimeGrid(1.0, 50)
        x0, dw = draw_noise(model, InitialLaw.gaussian([1.0], [[0.01]]), grid, 8, seed=0)
        frozen = StatisticFlow(grid.times(), np.full((51, 1), 2.0))
        bundle = euler_paths(model, x0, grid, dw, flow=frozen)
        diag = bundle_diagnostics(model, bundle)
        np.testing.assert_allclose(diag["gamma"], 0.9 ** -50, rtol=1e-12)
        assert bundle.flow is frozen
        # an interacting bundle's coefficients read its realized flow
        interacting = euler_paths(model, x0, grid, dw)
        assert interacting.flow is interacting.realized_flow

    def test_singular_path_is_named_with_its_index(self):
        # the drift slope -1/dt zeroes path 2's Euler factor at step 3
        model = _kinked_model(-10.0)
        bundle = _bundle_with_one_kink()
        flow = bundle.realized_flow
        with pytest.raises(ConditioningError, match="path 2 at index 4 is singular"):
            bundle_diagnostics(model, bundle, lam=1.0)
        covariance_curve(simulate_first_variation(model, bundle.path(1), flow))
        with pytest.raises(ConditioningError, match="path 2 at index 4"):
            covariance_curve(simulate_first_variation(model, bundle.path(2), flow))

    def test_non_finite_diffusion_is_named_with_its_path(self):
        # sigma is NaN above x = 0.5, where only path 2 sits, at step 3
        model = dataclasses.replace(
            _kinked_model(0.0), sigma=lambda t, x, s: np.where(x > 0.5, np.nan, 1.0)[..., None])
        with pytest.raises(NumericError) as ei:
            bundle_diagnostics(model, _bundle_with_one_kink())
        msg = str(ei.value)
        assert "diffusion evaluated to a non-finite value" in msg
        assert "row 2 of 4, x=[1.0]," in msg and "0.0]" not in msg

    def test_non_finite_path_is_named_with_its_step(self):
        bundle = _bundle_with_one_kink(path=1, step=5)
        with pytest.raises(NumericError, match="non-finite at step 6, path 1"):
            bundle_diagnostics(_kinked_model(np.inf), bundle)
        fv = simulate_first_variation(_kinked_model(np.inf), bundle.path(0),
                                      bundle.realized_flow)
        assert np.all(fv.Y == 1.0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda model, b: simulate_first_variation(model, b.path(0), b.realized_flow),
                 id="first-variation"),
    pytest.param(lambda model, b: bundle_diagnostics(model, b), id="bundle"),
])
def test_refusals(call):
    # the sweep refuses a model that has no state Jacobians
    model = dataclasses.replace(_kinked_model(0.0), db_dx=None, dsigma_dx=None)
    with pytest.raises(ValueError, match="model does not provide state Jacobians"):
        call(model, _bundle_with_one_kink())
