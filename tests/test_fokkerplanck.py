"""Density evolution: grid setup, derived coefficients, and the FTCS march."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import mvsim.fokkerplanck
from mvsim import (
    CoefficientModel,
    ConservationError,
    InitialLaw,
    NumericError,
    PositivityError,
    StabilityError,
    StatisticFunctional,
    build_fp_problem,
    derive_fp_coefficients,
    fp_statistics_curve,
    gaussian_on_grid,
    get_preset,
    grid_statistics,
    l1_grid_distance,
    solve_fp,
)
from mvsim.fokkerplanck import FPProblem, _Stencil
from mvsim.measures import GridAxis, GridDensity

STD_LAW = InitialLaw.gaussian([0.0], [[1.0]])


def _const_model(a=2.0, d=1, drift=None):
    s = math.sqrt(a)

    def b(t, x, st):
        return np.zeros_like(x) if drift is None else drift(t, x, st)

    return CoefficientModel(
        d=d, m=d, functionals=(),
        b=b,
        sigma=lambda t, x, st: np.broadcast_to(s * np.eye(d),
                                               x.shape[:-1] + (d, d)),
        b_static=True, sigma_static=True)


def _gauss_exact(axis, var, mean=0.0):
    x = axis.nodes()
    v = np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)
    return GridDensity((axis,), v, time=0.0)


def _flux_form(p, b, a, hs):
    """The explicit operator in flux form, the reference for the stencil:
    along each axis the difference of the upwind flux on the n+1 faces (an
    inner face takes the mean drift of its two nodes, a boundary face that of
    its one node) and the centered second difference of A_kk p; in 2D the
    centered mixed difference of A_12 p.  The density is zero outside the box.
    Returns dp/dt and the mass leaving the box per unit time."""
    cell = math.prod(hs)
    upd = np.zeros_like(p)
    outflux = 0.0
    for k, h in enumerate(hs):
        q = np.moveaxis(p, k, 0)
        bk = np.moveaxis(b[..., k], k, 0)
        zero = np.zeros_like(q[:1])
        faces = np.concatenate([bk[:1], 0.5 * (bk[:-1] + bk[1:]), bk[-1:]])
        qf = np.concatenate([zero, q, zero])
        flux = np.maximum(faces, 0.0) * qf[:-1] + np.minimum(faces, 0.0) * qf[1:]
        w = np.moveaxis(a[..., k, k], k, 0) * q
        wf = np.concatenate([zero, w, zero])
        du = (flux[:-1] - flux[1:]) / h + (wf[2:] - 2.0 * wf[1:-1] + wf[:-2]) / (2 * h ** 2)
        upd += np.moveaxis(du, 0, k)
        outflux += (flux[-1].sum() - flux[0].sum()) * cell / h
        outflux += (w[0].sum() + w[-1].sum()) * cell / (2 * h ** 2)
    if p.ndim == 2:
        w = a[..., 0, 1] * p
        W = np.pad(w, 1)
        upd += (W[2:, 2:] - W[2:, :-2] - W[:-2, 2:] + W[:-2, :-2]) / (4 * hs[0] * hs[1])
        outflux -= (w[0, 0] - w[0, -1] - w[-1, 0] + w[-1, -1]) / 4
    return upd, outflux


class TestStencil:
    @pytest.mark.parametrize("shape,hs", [((57,), [0.05]), ((23, 31), [0.1, 0.07])])
    def test_one_step_matches_the_flux_form(self, shape, hs):
        rng = np.random.default_rng(5)
        d = len(shape)
        p = rng.uniform(0.1, 1.0, shape)
        b = rng.standard_normal(shape + (d,))
        sig = rng.standard_normal(shape + (d, d))
        a = sig @ np.swapaxes(sig, -1, -2)
        assert d == 1 or np.abs(a[..., 0, 1]).min() > 0
        op = _Stencil(shape, hs)
        op.p[...] = p
        op.set_diffusion(a)
        op.set_drift(b)
        upd = np.empty_like(op.flat)
        op.apply(upd)
        want, want_out = _flux_form(p, b, a, hs)
        np.testing.assert_allclose(op.nodes(upd), want, rtol=1e-13)
        assert op.outflux() == pytest.approx(want_out, rel=1e-13)
        # every operator telescopes: the outflux is the mass the step loses
        assert op.outflux() == pytest.approx(-op.nodes(upd).sum() * math.prod(hs), rel=1e-12)

    @pytest.mark.parametrize("shape", [(57,), (23, 31), (31, 23)])
    def test_in_range_ghosts_keep_zero_coefficients(self, shape):
        rng = np.random.default_rng(7)
        d = len(shape)
        op = _Stencil(shape, [0.1, 0.07][:d])
        op.p[...] = rng.uniform(0.1, 1.0, shape)
        sig = rng.standard_normal(shape + (d, d))
        op.set_diffusion(sig @ np.swapaxes(sig, -1, -2))
        op.set_drift(rng.standard_normal(shape + (d,)))
        # a drift rebuilt alone, as in a nonlocal run with a static diffusion
        op.set_drift(rng.standard_normal(shape + (d,)))
        # the nodes are positive, so the zeros of the range are its ghosts: the
        # right and the left frame entry between each pair of rows
        ghost = op.flat == 0
        assert ghost.sum() == 2 * (math.prod(shape[:-1]) - 1)
        assert np.all(op.C[:, ghost] == 0) and np.all(op.g[ghost] == 0)
        upd = np.empty_like(op.flat)
        op.apply(upd)
        assert np.all(upd[ghost] == 0)
        # so do the rows folded for a stretched step, and the entries off the
        # nodes of both frames through stages that trade their roles
        op.fold(1e-4)
        assert np.all(op.R[:, ghost] == 0)
        op.apply(upd, op.R_rows)
        assert np.all(upd[ghost] == 0)
        frames = (op.frame, op.back[0])
        off_node = np.ones(op.frame.size, dtype=bool)
        op.nodes(off_node[op.start:op.start + op.flat_size])[...] = False
        for j in range(1, 6):
            op.stage((2 * j - 1) / j, (1 - j) / j, upd)
            assert op.frame is frames[j % 2]
            for frame in frames:
                assert np.all(frame[off_node] == 0)

    @pytest.mark.parametrize("shape,hs", [((57,), [0.05]), ((23, 31), [0.1, 0.07])])
    def test_drift_rebuilt_on_a_used_stencil_is_a_fresh_one(self, shape, hs):
        # set_drift resets only the edge entries of g, so a second drift must
        # leave nothing of the first in C or g
        rng = np.random.default_rng(11)
        d = len(shape)
        sig = rng.standard_normal(shape + (d, d))
        a = sig @ np.swapaxes(sig, -1, -2)
        b1, b2 = (rng.standard_normal(shape + (d,)) for _ in range(2))
        used, fresh = _Stencil(shape, hs), _Stencil(shape, hs)
        used.set_diffusion(a)
        used.set_drift(b1)
        used.set_drift(b2)
        fresh.set_diffusion(a)
        fresh.set_drift(b2)
        assert np.array_equal(used.C, fresh.C)
        assert np.array_equal(used.g, fresh.g)
        assert np.array_equal(used.g_edge, fresh.g_edge)


class TestGaussianOnGrid:
    def test_point_mass_rejects(self):
        with pytest.raises(ValueError, match="point mass has no grid density"):
            gaussian_on_grid(InitialLaw.point([0.0]), (GridAxis(-1, 1, 11),))

    def test_six_sigma_coverage_enforced(self):
        with pytest.raises(ValueError, match="six standard deviations"):
            gaussian_on_grid(STD_LAW, (GridAxis(-5.0, 5.0, 101),))

    def test_unit_mass(self):
        g = gaussian_on_grid(STD_LAW, (GridAxis(-8.0, 8.0, 401),))
        assert g.mass() == pytest.approx(1.0, abs=1e-12)

    def test_matches_reference_density_1d(self):
        # the one formula of every dimension gives the 1D density too
        axis = GridAxis(-4.0, 5.0, 301)
        g = gaussian_on_grid(InitialLaw.gaussian([0.5], [[0.25]]), (axis,))
        ref = sps.norm(loc=0.5, scale=0.5).pdf(axis.nodes())
        np.testing.assert_allclose(g.values, ref, rtol=1e-12)

    def test_matches_reference_density_2d(self):
        axes = (GridAxis(-4.0, 6.0, 201), GridAxis(-4.0, 6.0, 201))
        law = InitialLaw.gaussian([0.5, 1.0], [[0.2, 0.05], [0.05, 0.3]])
        g = gaussian_on_grid(law, axes)
        xx, yy = np.meshgrid(axes[0].nodes(), axes[1].nodes(), indexing="ij")
        ref = sps.multivariate_normal(
            mean=[0.5, 1.0], cov=[[0.2, 0.05], [0.05, 0.3]]
        ).pdf(np.stack([xx, yy], axis=-1))
        np.testing.assert_allclose(g.values, ref, rtol=1e-12)


class TestProblemSetup:
    def test_default_snapshot_is_horizon(self):
        pr = build_fp_problem(_const_model(), STD_LAW, ((-10.0, 10.0),),
                              (201,), 0.5)
        assert pr.snapshot_times == (0.5,)

    def test_snapshots_sorted_and_deduped(self):
        pr = build_fp_problem(_const_model(), STD_LAW, ((-10.0, 10.0),),
                              (201,), 1.0, snapshot_times=(0.5, 0.25, 0.5))
        assert pr.snapshot_times == (0.25, 0.5)

    def test_dimension_mismatches(self):
        with pytest.raises(ValueError, match="different dimensions"):
            build_fp_problem(_const_model(), STD_LAW,
                             ((-1.0, 1.0), (-1.0, 1.0)), (11,), 1.0)
        with pytest.raises(ValueError, match="does not match model dimension"):
            build_fp_problem(_const_model(d=2), STD_LAW, ((-8.0, 8.0),),
                             (101,), 1.0)

    def test_horizon_and_dt_policy(self):
        axes = (GridAxis(-8.0, 8.0, 101),)
        p0 = gaussian_on_grid(STD_LAW, axes)
        with pytest.raises(ValueError, match="horizon"):
            FPProblem(_const_model(), p0, horizon=0.0)
        with pytest.raises(ValueError, match="dt policy"):
            FPProblem(_const_model(), p0, horizon=1.0, dt="fast")
        with pytest.raises(ValueError, match="dt must be positive"):
            FPProblem(_const_model(), p0, horizon=1.0, dt=-0.1)

    def test_infinite_fixed_dt_refused_where_it_enters(self):
        # refused by the problem, not at the solver's first step
        p0 = gaussian_on_grid(STD_LAW, (GridAxis(-8.0, 8.0, 101),))
        with pytest.raises(ValueError, match="fixed dt must be positive and finite, got inf"):
            FPProblem(_const_model(), p0, horizon=1.0, dt=math.inf)

    def test_direct_problem_keeps_each_snapshot_time_once_in_order(self):
        p0 = gaussian_on_grid(STD_LAW, (GridAxis(-10.0, 10.0, 201),))
        pr = FPProblem(_const_model(), p0, 0.5, snapshot_times=(0.5, 0.0, 0.25, 0.5))
        assert [f.name for f in dataclasses.fields(pr)] == [
            "model", "p0", "horizon", "dt", "snapshot_times"]
        assert pr.axes is pr.p0.axes
        assert pr.snapshot_times == (0.0, 0.25, 0.5)
        sol = solve_fp(pr)
        assert sol.snapshot_times == (0.0, 0.25, 0.5)
        assert [g.time for g in sol.snapshots] == [0.0, 0.25, 0.5]

    def test_non_finite_horizon_refused(self):
        inst = get_preset("ou")
        with pytest.raises(ValueError, match="horizon must be finite"):
            build_fp_problem(inst.model, inst.law, inst.fp_domain, (201,), math.inf)
        p0 = gaussian_on_grid(inst.law, (GridAxis(*inst.fp_domain[0], 201),))
        with pytest.raises(ValueError, match="horizon must be finite"):
            FPProblem(inst.model, p0, math.nan)

    def test_snapshot_range_checked(self):
        with pytest.raises(ValueError, match="outside"):
            build_fp_problem(_const_model(), STD_LAW, ((-10.0, 10.0),),
                             (201,), 1.0, snapshot_times=(1.5,))


class TestDerivedCoefficients:
    def test_constant_diffusion_field(self):
        axes = (GridAxis(-10.0, 10.0, 201),)
        p = gaussian_on_grid(STD_LAW, axes)
        b, A = derive_fp_coefficients(_const_model(a=2.0), 0.0, p)
        assert b.shape == (201, 1) and A.shape == (201, 1, 1)
        np.testing.assert_array_equal(b, 0.0)
        np.testing.assert_allclose(A, 2.0, rtol=1e-12)

    def test_two_dimensional_entries(self):
        inst = get_preset("example5-2")
        axes = tuple(GridAxis(lo, hi, 41) for lo, hi in inst.fp_domain)
        p = gaussian_on_grid(inst.law, axes)
        _, A = derive_fp_coefficients(inst.model, 0.0, p)
        np.testing.assert_allclose(A[3, 7], [[0.5, 0.4], [0.4, 0.5]],
                                   rtol=1e-12)

    def test_statistic_read_off_the_density(self):
        # drift must see the same s the model sees on the particle side
        inst = get_preset("example5-1")
        axes = (GridAxis(-8.0, 8.0, 401),)
        law = InitialLaw.gaussian([0.5], [[0.25]])
        p = gaussian_on_grid(law, axes)
        s = grid_statistics(p, inst.model.functionals)
        b, _ = derive_fp_coefficients(inst.model, 0.3, p)
        direct = inst.model.b(0.3, p.node_coords(), s)
        np.testing.assert_allclose(b, direct.reshape(401, 1), rtol=1e-12)


class TestSolve1D:
    def test_pure_diffusion_spreads_a_gaussian(self):
        pr = build_fp_problem(_const_model(a=2.0), STD_LAW, ((-10.0, 10.0),),
                              (2001,), 0.5)
        sol = solve_fp(pr)
        err = l1_grid_distance(sol.snapshots[-1], _gauss_exact(pr.axes[0], 2.0))
        assert err < 1e-5
        assert np.abs(sol.mass_curve - 1.0).max() < 1e-8
        assert sol.min_value_curve.min() >= 0.0

    def test_auto_dt_step_count(self):
        # dt = 0.9 / (2 A / dx^2) with A = 1, dx = 0.01
        inst = get_preset("bm")
        pr = build_fp_problem(inst.model, inst.law, inst.fp_domain,
                              inst.fp_nodes, 1.0)
        sol = solve_fp(pr)
        assert sol.n_steps == 22223

    def test_fixed_dt_step_count(self):
        pr = build_fp_problem(_const_model(a=2.0), STD_LAW, ((-10.0, 10.0),),
                              (201,), 0.5, dt=1e-3)
        assert solve_fp(pr).n_steps == 500

    def test_spatial_refinement_is_second_order(self):
        errs = []
        for n in (201, 401, 801):
            pr = build_fp_problem(_const_model(a=2.0), STD_LAW,
                                  ((-10.0, 10.0),), (n,), 0.5)
            errs.append(l1_grid_distance(solve_fp(pr).snapshots[-1],
                                         _gauss_exact(GridAxis(-10.0, 10.0, n),
                                                      2.0)))
        assert errs[0] < 2e-4
        assert errs[0] / errs[1] > 1.8
        assert errs[1] / errs[2] > 1.8

    def test_stationary_law_stays_put(self):
        inst = get_preset("ou")
        pr = build_fp_problem(inst.model, inst.law, inst.fp_domain, (1001,),
                              0.25)
        sol = solve_fp(pr)
        err = l1_grid_distance(sol.snapshots[-1], _gauss_exact(pr.axes[0], 1.0))
        assert err < 5e-3

    def test_max_principle_without_drift(self):
        pr = build_fp_problem(_const_model(a=2.0), STD_LAW, ((-10.0, 10.0),),
                              (401,), 0.4,
                              snapshot_times=(0.0, 0.1, 0.2, 0.3, 0.4))
        sol = solve_fp(pr)
        assert sol.snapshots[0].time == 0.0
        assert len(sol.snapshots) == 5
        maxes = [s.values.max() for s in sol.snapshots]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(maxes, maxes[1:]))

    def test_coupled_mean_tracks_its_ode(self):
        inst = get_preset("meanfield-ou")
        marks = (0.25, 0.5, 0.75, 1.0)
        pr = build_fp_problem(inst.model, inst.law, inst.fp_domain, (2401,),
                              1.0, snapshot_times=marks)
        sol = solve_fp(pr)
        stats = fp_statistics_curve(sol, inst.model.functionals)[:, 0]
        np.testing.assert_allclose(stats, np.exp(-0.5 * np.asarray(marks)),
                                   atol=1e-3)

    def test_degenerate_preset_conserves_and_stays_positive(self):
        inst = get_preset("example5-1")
        pr = build_fp_problem(inst.model, inst.law, inst.fp_domain,
                              inst.fp_nodes, 1.0, snapshot_times=(0.5, 1.0))
        sol = solve_fp(pr)
        assert 0.999 <= sol.mass_curve[-1] <= 1.0 + 1e-12
        leak = np.abs(sol.mass_curve - 1.0 + sol.boundary_flux_curve)
        assert leak.max() < 1e-10
        assert sol.min_value_curve.min() >= -1e-3
        stats = fp_statistics_curve(sol, inst.model.functionals)
        assert np.abs(stats).max() <= 1.0


class TestSolve2D:
    def test_constant_coefficients_smoke(self):
        inst = get_preset("example5-2")
        pr = build_fp_problem(inst.model, inst.law, inst.fp_domain, (81, 81),
                              0.5, snapshot_times=(0.25, 0.5))
        sol = solve_fp(pr)
        leak = np.abs(sol.mass_curve - 1.0 + sol.boundary_flux_curve)
        assert leak.max() < 1e-10
        assert sol.min_value_curve.min() >= -1e-3
        stats = fp_statistics_curve(sol, inst.model.functionals)
        assert stats.shape == (2, 1)
        assert np.all(np.isfinite(stats))

    def test_strong_cross_diffusion_on_coarse_grid_undershoots(self):
        rho = 0.999
        L = np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]]))
        model = CoefficientModel(
            d=2, m=2, functionals=(),
            b=lambda t, x, s: np.zeros_like(x),
            sigma=lambda t, x, s: np.broadcast_to(L, x.shape[:-1] + (2, 2)),
            b_static=True, sigma_static=True)
        law = InitialLaw.gaussian([0.0, 0.0], (0.0225 * np.eye(2)).tolist())
        pr = build_fp_problem(model, law, ((-3.0, 3.0), (-3.0, 3.0)),
                              (41, 41), 0.5)
        with pytest.raises(PositivityError, match="undershot"):
            solve_fp(pr)

    @pytest.mark.parametrize("live", [0, 1])
    def test_inert_axis_reproduces_the_1d_solve(self, live):
        # b_2 = A_22 = A_12 = 0 on the inert axis and a product initial
        # density: every grid line along the live axis evolves as the 1D
        # problem does, scaled by its inert-axis factor
        def model(d, k):
            def b(t, x, s):
                out = np.zeros_like(x)
                out[..., k] = 0.5 + 0.1 * x[..., k]  # outflow at both ends
                return out

            def sigma(t, x, s):
                out = np.zeros(x.shape + (1,))
                out[..., k, 0] = 0.8 + 0.2 * np.tanh(x[..., k])
                return out

            mean = StatisticFunctional("mean", lambda x: x[:, k])
            return CoefficientModel(d=d, m=1, functionals=(mean,), b=b, sigma=sigma,
                                    sigma_static=True)

        line, inert = GridAxis(-4.5, 5.5, 101), GridAxis(-10.0, 10.0, 41)
        q = gaussian_on_grid(InitialLaw.gaussian([0.5], [[0.5]]), (line,))
        r = np.exp(-0.5 * inert.nodes() ** 2)
        r /= r.sum() * inert.spacing
        axes = (line, inert) if live == 0 else (inert, line)
        vals = np.outer(q.values, r) if live == 0 else np.outer(r, q.values)
        marks = (0.15, 0.3)
        one = solve_fp(FPProblem(model(1, 0), q, 0.3, snapshot_times=marks))
        two = solve_fp(FPProblem(model(2, live), GridDensity(axes, vals), 0.3,
                                 snapshot_times=marks))

        assert two.n_steps == one.n_steps
        np.testing.assert_array_equal(two.times, one.times)
        for s1, s2 in zip(one.snapshots, two.snapshots):
            got = s2.values if live == 0 else s2.values.T
            np.testing.assert_allclose(got, np.outer(s1.values, r), rtol=1e-10)
        for curve in ("mass_curve", "boundary_flux_curve", "stat_curve"):
            np.testing.assert_allclose(getattr(two, curve), getattr(one, curve),
                                       rtol=1e-10)


@pytest.mark.parametrize("name,nodes,horizon", [("ou", (401,), 0.2),
                                                ("example5-2", (81, 81), 0.1)])
def test_static_flags_are_only_hints(name, nodes, horizon):
    # a stale or half-rebuilt stencil would part the two runs
    inst = get_preset(name)
    live = dataclasses.replace(inst.model, b_static=False, sigma_static=False)
    runs = [solve_fp(build_fp_problem(model, inst.law, inst.fp_domain, nodes, horizon,
                                      snapshot_times=(horizon / 2, horizon)))
            for model in (inst.model, live)]
    assert runs[0].n_steps == runs[1].n_steps
    for s1, s2 in zip(runs[0].snapshots, runs[1].snapshots):
        assert np.array_equal(s1.values, s2.values)
    for curve in ("times", "mass_curve", "boundary_flux_curve"):
        assert np.array_equal(getattr(runs[0], curve), getattr(runs[1], curve))


def test_diffusion_rebuilt_under_a_static_drift_reaches_the_operator():
    # sigma^2 = 1 + t changes every step while the drift is static: unless the
    # drift pass follows each diffusion rebuild, the operator keeps A at t = 0
    def model(b_static):
        return CoefficientModel(
            d=1, m=1, functionals=(), b=lambda t, x, s: -x,
            sigma=lambda t, x, s: np.full(x.shape[:-1] + (1, 1), math.sqrt(1.0 + t)),
            b_static=b_static, sigma_static=False)
    _curves_equal(*(solve_fp(build_fp_problem(model(flag), STD_LAW, ((-8.0, 8.0),), (201,),
                                              0.5, snapshot_times=(0.25, 0.5)))
                    for flag in (True, False)))


class TestFailureModes:
    def test_oversized_fixed_dt(self):
        pr = build_fp_problem(_const_model(a=2.0), STD_LAW, ((-10.0, 10.0),),
                              (201,), 0.5, dt=0.01)
        with pytest.raises(StabilityError, match="exceeds stability limit"):
            solve_fp(pr)

    def test_nan_drift_detected(self):
        model = CoefficientModel(
            d=1, m=1, functionals=(),
            b=lambda t, x, s: np.sqrt(x),
            sigma=lambda t, x, s: np.ones(x.shape[:-1] + (1, 1)),
            b_static=True, sigma_static=True)
        pr = build_fp_problem(model, STD_LAW, ((-8.0, 8.0),), (201,), 0.5)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="non-finite"):
                solve_fp(pr)

    def test_nan_sigma_at_one_node_detected(self):
        # the fixed dt keeps the NaN to the node and its neighbours
        def sigma(t, x, s):
            return np.where(np.abs(x) < 0.04, np.nan, 1.0)[..., None]

        model = CoefficientModel(d=1, m=1, functionals=(),
                                 b=lambda t, x, s: np.zeros_like(x), sigma=sigma,
                                 b_static=True, sigma_static=True)
        pr = build_fp_problem(model, STD_LAW, ((-8.0, 8.0),), (201,), 0.5, dt=1e-4)
        with pytest.raises(NumericError, match=r"non-finite .*\(step 1\)"):
            solve_fp(pr)

    @pytest.mark.parametrize("field", ["drift", "diffusion"])
    def test_nan_field_at_one_node_is_named(self, field):
        # the fixed dt would step on; the NaN stability limit stops it first
        def at_origin(x, other):
            return np.where(np.abs(x) < 0.04, np.nan, other)

        def b(t, x, s):
            return at_origin(x, 0.0) if field == "drift" else np.zeros_like(x)

        def sigma(t, x, s):
            return (at_origin(x, 1.0) if field == "diffusion" else np.ones_like(x))[..., None]

        model = CoefficientModel(d=1, m=1, functionals=(), b=b, sigma=sigma,
                                 b_static=True, sigma_static=True)
        pr = build_fp_problem(model, STD_LAW, ((-8.0, 8.0),), (201,), 0.5, dt=1e-4)
        with pytest.raises(NumericError, match=rf"non-finite {field} field at t=0 \(step 1\)"):
            solve_fp(pr)

    def test_overflow_at_one_node_detected(self):
        axes = (GridAxis(-8.0, 8.0, 201),)
        vals = gaussian_on_grid(STD_LAW, axes).values
        vals[60] = 1e308
        pr = FPProblem(_const_model(a=2.0), GridDensity(axes, vals, mass_tol=math.inf),
                       horizon=0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=r"non-finite .*\(step 1\)"):
                solve_fp(pr)

    def test_finite_density_whose_sum_overflows_fails_conservation(self):
        # no drift, no noise: one step to the horizon leaves p as it was
        model = CoefficientModel(
            d=1, m=1, functionals=(), b=lambda t, x, s: np.zeros_like(x),
            sigma=lambda t, x, s: np.zeros(x.shape[:-1] + (1, 1)),
            b_static=True, sigma_static=True)
        axes = (GridAxis(-8.0, 8.0, 201),)
        vals = np.zeros(201)
        vals[[60, 140]] = 1e308
        pr = FPProblem(model, GridDensity(axes, vals, mass_tol=math.inf), horizon=0.5)
        with np.errstate(over="ignore"):
            with pytest.raises(ConservationError, match=r"\(step 1\)"):
                solve_fp(pr)

    def test_unbounded_drift_collapses_the_step(self):
        model = CoefficientModel(
            d=1, m=1, functionals=(),
            b=lambda t, x, s: 1.0 / x,
            sigma=lambda t, x, s: np.ones(x.shape[:-1] + (1, 1)),
            b_static=True, sigma_static=True)
        pr = build_fp_problem(model, STD_LAW, ((-8.0, 8.0),), (201,), 0.5)
        with np.errstate(divide="ignore"):
            with pytest.raises(StabilityError, match="step size collapsed"):
                solve_fp(pr)


def test_statistics_curve_shape_and_parity():
    # an odd statistic of an even density must vanish
    inst = get_preset("example5-1")
    pr = build_fp_problem(inst.model, inst.law, ((-8.0, 8.0),), (801,), 0.2,
                          snapshot_times=(0.0, 0.1, 0.2))
    sol = solve_fp(pr)
    stats = fp_statistics_curve(sol, inst.model.functionals)
    assert stats.shape == (3, 1)
    assert abs(stats[0, 0]) < 1e-12


@pytest.mark.parametrize("config", ["example5-1", "example5-2", "meanfield-ou"])
def test_readers_of_a_solve_give_its_own_bits(config):
    # grid_statistics, fp_statistics_curve and derive_fp_coefficients reduce a
    # density as the solver does, so they read its statistic and drift bit for
    # bit, on the config's grid at t = 0 and every quarter
    cfg = json.loads(Path(f"configs/{config}.json").read_text())
    inst = get_preset(cfg["preset"])
    problem = build_fp_problem(inst.model, inst.law, cfg["fp"]["domain"], cfg["fp"]["nodes"],
                               inst.horizon, snapshot_times=(0.0, 0.25, 0.5, 0.75, 1.0))
    sol, p0, fns = solve_fp(problem), problem.p0, inst.model.functionals
    assert len(fns) == 1 and len(sol.snapshots) == 5
    assert np.array_equal(grid_statistics(p0, fns), sol.stat_curve[0])
    rows = [int(np.flatnonzero(sol.times == t)[0]) for t in sol.snapshot_times]
    assert np.array_equal(fp_statistics_curve(sol, fns), sol.stat_curve[rows])
    b, _ = derive_fp_coefficients(inst.model, 0.0, p0)
    assert np.array_equal(b, inst.model.b(0.0, p0.node_coords(),
                                          sol.stat_curve[0]).reshape(b.shape))


@pytest.mark.parametrize("call", ["grid_statistics", "solve_fp"])
def test_nan_functional_names_its_node(call):
    # phi is NaN at x = 5, node 150 of the grid, and finite everywhere else
    phi = StatisticFunctional("holed", lambda x: np.where(x[..., 0] == 5.0, np.nan, x[..., 0]))
    model = dataclasses.replace(_const_model(drift=lambda t, x, s: -s[0] * x),
                                functionals=(phi,), b_static=False)
    problem = build_fp_problem(model, STD_LAW, ((-10.0, 10.0),), (201,), 0.1)
    run = {"grid_statistics": lambda: grid_statistics(problem.p0, (phi,)),
           "solve_fp": lambda: solve_fp(problem)}[call]
    with pytest.raises(NumericError, match="functional 'holed' is non-finite at node 150$"):
        run()


def _curves_equal(one, two):
    assert one.n_steps == two.n_steps
    assert one.n_applications == two.n_applications
    assert len(one.snapshots) == len(two.snapshots)
    for s1, s2 in zip(one.snapshots, two.snapshots):
        assert np.array_equal(s1.values, s2.values)
    for curve in ("times", "mass_curve", "min_value_curve", "boundary_flux_curve",
                  "stat_curve"):
        assert np.array_equal(getattr(one, curve), getattr(two, curve))


@pytest.fixture
def solve_euler(monkeypatch):
    """``solve_fp`` with every step an Euler step: the reference for the
    super-steps, since no ratio of the CFL terms reaches an infinite one."""
    def solve(problem):
        with monkeypatch.context() as m:
            m.setattr(mvsim.fokkerplanck, "_STRETCH_RATIO", math.inf)
            return solve_fp(problem)
    return solve


class TestSuperSteps:
    def test_drift_limited_run_keeps_euler_under_auto(self, solve_euler):
        # example5-2 at 121^2: the diffusion terms are about 1.4x the drift terms
        inst = get_preset("example5-2")
        pr = build_fp_problem(inst.model, inst.law, ((-4.0, 6.0), (-4.0, 6.0)), (121, 121),
                              0.25, snapshot_times=(0.1, 0.25))
        runs = [solve_euler(pr), solve_fp(pr)]
        _curves_equal(*runs)
        assert runs[1].n_applications == runs[1].n_steps

    def test_diffusion_limited_run_keeps_euler_accuracy(self, solve_euler):
        # ou from its stationary law: the diffusion terms are ~111x the drift terms
        inst = get_preset("ou")
        marks = (0.25, 0.5)
        problem = build_fp_problem(inst.model, inst.law, inst.fp_domain, (2001,), 0.5,
                                   snapshot_times=marks)
        euler, rkl = solve_euler(problem), solve_fp(problem)
        exact = _gauss_exact(GridAxis(-6.0, 6.0, 2001), 1.0)
        for pe, pr in zip(euler.snapshots, rkl.snapshots):
            assert l1_grid_distance(pr, exact) <= 1.01 * l1_grid_distance(pe, exact)
        assert np.abs(rkl.mass_curve + rkl.boundary_flux_curve - 1.0).max() < 1e-10
        assert rkl.min_value_curve.min() >= 0.0
        assert rkl.n_applications <= euler.n_steps / 5
        assert rkl.n_applications > rkl.n_steps
        assert rkl.times[-1] == 0.5 and rkl.snapshot_times == marks

    def test_nonlocal_run_stays_close_to_euler(self, solve_euler):
        # example5-1 at 801 nodes: a tenth of the 0.025-0.054 route distance
        # between the particle KDE and the density
        inst = get_preset("example5-1")
        pr = build_fp_problem(inst.model, inst.law, ((-8.0, 8.0),), (801,), 1.0,
                              snapshot_times=(0.25, 0.5, 0.75, 1.0))
        euler, rkl = solve_euler(pr), solve_fp(pr)
        assert rkl.n_applications < euler.n_steps / 5
        for pe, pr in zip(euler.snapshots, rkl.snapshots):
            assert l1_grid_distance(pr, pe) <= 2.5e-3
        assert np.abs(rkl.mass_curve + rkl.boundary_flux_curve - 1.0).max() < 1e-10

    @pytest.mark.parametrize("drift,horizon,tau,stages", [
        # drift terms 20, diffusion terms 400: tau = 0.9 / 20 takes six stages
        # ((s^2+s)/2 = 21 >= 0.045 * 420); the last 0.03 takes five
        (2.0, 0.3, 0.045, [6] * 6 + [5]),
        # drift terms 0.5: 1 / 0.5 is beyond sixteen stages, so tau =
        # 0.9 * 136 / 400.5; the last 0.194 takes twelve
        (0.05, 0.5, 0.9 * 136 / 400.5, [16, 12])])
    def test_auto_step_is_capped_by_the_drift_and_sixteen_stages(self, drift, horizon,
                                                                 tau, stages):
        model = _const_model(a=2.0, drift=lambda t, x, st: np.full_like(x, drift))
        sol = solve_fp(build_fp_problem(model, STD_LAW, ((-10.0, 10.0),), (201,), horizon))
        dts = np.diff(sol.times)
        np.testing.assert_allclose(dts[:-1], tau, rtol=1e-12)
        assert sol.n_steps == len(stages)
        assert sol.n_applications == sum(stages)

    def test_driftless_run_keeps_euler_under_auto(self, solve_euler):
        # no drift bound caps a stretched step, and RKL1's first-order time
        # error would swamp the second-order space error of the diffusion
        pr = build_fp_problem(_const_model(a=2.0), STD_LAW, ((-10.0, 10.0),), (2001,), 0.5)
        euler, auto = solve_euler(pr), solve_fp(pr)
        _curves_equal(euler, auto)
        assert auto.n_applications == auto.n_steps
        assert l1_grid_distance(auto.snapshots[-1],
                                _gauss_exact(GridAxis(-10.0, 10.0, 2001), 2.0)) < 1e-5

    def test_flux_follows_the_stage_recurrence(self):
        # outflow through both ends under stretched steps (drift terms 60,
        # diffusion terms 800): mass plus flux stays 1 at every super-step only
        # if the flux is carried through the stages
        model = _const_model(a=1.0, drift=lambda t, x, st: 0.5 * x)
        sol = solve_fp(build_fp_problem(model, STD_LAW, ((-6.0, 6.0),), (241,), 1.0))
        assert sol.n_applications >= 4 * sol.n_steps
        assert sol.boundary_flux_curve[-1] > 1e-3
        np.testing.assert_allclose(sol.mass_curve + sol.boundary_flux_curve,
                                   sol.mass_curve[0], rtol=0, atol=1e-13)

    def test_folded_stage_matches_the_three_term_recurrence(self):
        # one step of six stages (drift terms 20, diffusion terms 400, tau =
        # 0.045), against Y_j = mu_j Y_{j-1} + nu_j Y_{j-2} + mu_j w L Y_{j-1}
        # and the same recurrence of the flux, with L the stencil of one frame
        model = _const_model(a=2.0, drift=lambda t, x, st: np.full_like(x, 2.0))
        pr = build_fp_problem(model, STD_LAW, ((-10.0, 10.0),), (201,), 0.045)
        sol = solve_fp(pr)
        assert (sol.n_steps, sol.n_applications) == (1, 6)
        b, a = derive_fp_coefficients(model, 0.0, pr.p0)
        op = _Stencil((201,), [pr.axes[0].spacing])
        op.set_diffusion(a)
        op.set_drift(b)
        w = 0.045 / 21
        y = y_prev = pr.p0.values
        flux = flux_prev = 0.0
        upd = np.empty_like(op.flat)
        for j in range(1, 7):
            mu, nu = (2 * j - 1) / j, (1 - j) / j
            op.p[...] = y
            op.apply(upd)
            y, y_prev = mu * y + nu * y_prev + mu * w * op.nodes(upd), y
            flux, flux_prev = mu * flux + nu * flux_prev + mu * w * op.outflux(), flux
        np.testing.assert_allclose(sol.snapshots[-1].values, y, rtol=1e-13, atol=0)
        assert sol.boundary_flux_curve[-1] == pytest.approx(flux, rel=1e-13, abs=0)

    def test_rotating_frames_do_not_alias(self, monkeypatch):
        # ou at 401 nodes is stretched; its steps take odd and even stage
        # counts, so a step can end in either frame of the stencil
        made, counts = [], []
        rkl1_stages = mvsim.fokkerplanck._rkl1_stages

        class Recorded(_Stencil):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        def recorded_stages(tau, limit):
            counts.append(rkl1_stages(tau, limit))
            return counts[-1]

        monkeypatch.setattr(mvsim.fokkerplanck, "_Stencil", Recorded)
        monkeypatch.setattr(mvsim.fokkerplanck, "_rkl1_stages", recorded_stages)
        inst = get_preset("ou")
        marks = (0.1, 0.2, 0.3)
        pr = build_fp_problem(inst.model, inst.law, inst.fp_domain, (401,), 0.3,
                              snapshot_times=marks)
        one, two = solve_fp(pr), solve_fp(pr)
        assert {s % 2 for s in counts if s > 1} == {0, 1}
        frames = [frame for op in made for frame in (op.current[0], op.back[0])]
        snaps = [snap.values for snap in one.snapshots]
        assert one.snapshot_times == marks
        for i, values in enumerate(snaps):
            assert not any(np.shares_memory(values, other)
                           for other in frames + snaps[:i] + snaps[i + 1:])
        cell = pr.axes[0].spacing
        for t, mine, again in zip(marks, one.snapshots, two.snapshots):
            assert np.array_equal(mine.values, again.values)
            # in 1D the mass curve sums the nodes as a snapshot's copy holds them
            assert float(mine.values.sum() * cell) == one.mass_curve[one.times == t][0]

    @pytest.mark.parametrize("name,dt", [("ou", "auto"), ("example5-1", "auto"),
                                         ("example5-1", 0.01)])
    def test_kept_fold_changes_no_bit(self, monkeypatch, name, dt):
        # R is kept while w and C stay the same; a solve that refolds it every
        # stretched step gives the same bits.  At a fixed dt example5-1 repeats
        # w while its drift rewrites C, so set_drift must drop the kept rows
        inst = get_preset(name)
        pr = build_fp_problem(inst.model, inst.law, inst.fp_domain, (401,), 1.0,
                              snapshot_times=(0.25, 0.5, 1.0), dt=dt)
        kept = solve_fp(pr)
        fold = _Stencil.fold

        def refold(self, w):
            self.folded = None
            fold(self, w)

        monkeypatch.setattr(_Stencil, "fold", refold)
        every = solve_fp(pr)
        assert every.snapshot_times == kept.snapshot_times == (0.25, 0.5, 1.0)
        assert (every.n_steps, every.n_applications) == (kept.n_steps, kept.n_applications)
        for mine, theirs in zip(kept.snapshots, every.snapshots):
            assert np.array_equal(mine.values, theirs.values)
        for curve in ("times", "mass_curve", "boundary_flux_curve"):
            assert np.array_equal(getattr(kept, curve), getattr(every, curve))

    def test_fold_rebuilds_r_only_when_w_changes(self, monkeypatch):
        # ou's coefficients are static, so C is written once: R is rebuilt at
        # the first stretched step and wherever w differs from the step before,
        # that is around the steps that end on a snapshot time
        fold, ws, rebuilt = _Stencil.fold, [], []

        class Counting:  # numpy, recording each product fold writes into R
            def __getattr__(self, name):
                return getattr(np, name)

            def multiply(self, x, y, out=None):
                rebuilt.append(ws[-1])
                return np.multiply(x, y, out=out)

        def counted(self, w):
            ws.append(w)
            mvsim.fokkerplanck.np = Counting()
            try:
                fold(self, w)
            finally:
                mvsim.fokkerplanck.np = np

        monkeypatch.setattr(_Stencil, "fold", counted)
        inst = get_preset("ou")
        solve_fp(build_fp_problem(inst.model, inst.law, inst.fp_domain, (401,), 1.0,
                                  snapshot_times=(0.25, 0.5, 1.0)))
        assert rebuilt == [w for i, w in enumerate(ws) if i == 0 or w != ws[i - 1]]
        assert len(rebuilt) <= 2 * len(set(ws))
        assert 10 * len(rebuilt) < len(ws)

    def test_stretched_2d_solve_with_a_cross_term_conserves_mass(self):
        # constant coefficients on a 49x41 grid, h = 0.125 on both axes: drift
        # terms 10.4, diffusion terms 320 (64 of them the cross term), so every
        # step is stretched, and mass leaves the box
        model = CoefficientModel(
            d=2, m=2, functionals=(),
            b=lambda t, x, st: np.broadcast_to([1.0, 0.3], x.shape),
            sigma=lambda t, x, st: np.broadcast_to(
                np.linalg.cholesky([[1.0, 0.5], [0.5, 1.0]]), x.shape[:-1] + (2, 2)),
            b_static=True, sigma_static=True)
        law = InitialLaw.gaussian([0.5, 0.0], [[0.09, 0.02], [0.02, 0.09]])
        sol = solve_fp(build_fp_problem(model, law, ((-3.0, 3.0), (-2.5, 2.5)), (49, 41),
                                        0.5, snapshot_times=(0.25, 0.5)))
        assert sol.n_applications > sol.n_steps
        assert sol.boundary_flux_curve[-1] > 1e-3
        assert np.abs(sol.mass_curve + sol.boundary_flux_curve - 1.0).max() < 1e-12

    def test_fixed_dt_is_checked_against_the_stretched_bound(self, solve_euler):
        # drift terms 20, diffusion terms 400: the Euler bound is 1/420, the
        # stretched one 1/20, and a step of 0.04 takes six stages
        model = _const_model(a=2.0, drift=lambda t, x, st: np.full_like(x, 2.0))
        make = lambda dt: build_fp_problem(  # noqa: E731
            model, STD_LAW, ((-10.0, 10.0),), (201,), 0.32, dt=dt)
        with pytest.raises(StabilityError, match="exceeds stability limit"):
            solve_euler(make(0.04))
        sol = solve_fp(make(0.04))
        assert (sol.n_steps, sol.n_applications) == (8, 48)
        with pytest.raises(StabilityError, match="exceeds stability limit"):
            solve_fp(make(0.051))

    def test_every_stage_is_checked_for_undershoot(self, solve_euler):
        # a one-node spike under a nine-stage step (drift terms 40, diffusion
        # terms 1600): the upwind drift dips an inner stage to -2.3e-2, though
        # the finished step is nonnegative; the error names the step's start
        ax = GridAxis(-5.0, 5.0, 201)
        spike = np.zeros(201)
        spike[100] = 1.0 / ax.spacing
        model = _const_model(a=2.0, drift=lambda t, x, st: np.full_like(x, 2.0))
        pr = FPProblem(model=model, p0=GridDensity((ax,), spike, time=0.0),
                       horizon=0.2)
        assert solve_euler(pr).min_value_curve.min() >= 0.0
        with pytest.raises(PositivityError, match=r"undershot to -\S+ in the step from t=0 "
                                                  r"\(step 1, stage [1-8] of 9\)"):
            solve_fp(pr)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: gaussian_on_grid(STD_LAW, (GridAxis(-8.0, 8.0, 11),) * 2),
                 "initial law dimension 1 does not match grid dimension 2", id="law-vs-grid"),
])
def test_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
