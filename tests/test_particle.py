"""Time grids, noise streams, and the interacting/frozen-flow simulators."""

import math
import tracemalloc

import numpy as np
import pytest

from mvsim import (
    CoefficientModel,
    EmpiricalMeasure,
    InitialLaw,
    SimulationError,
    StatisticFlow,
    TimeGrid,
    draw_noise,
    empirical_statistics,
    generate_brownian,
    get_preset,
    initial_states,
    moment_curve,
    particle_stream,
    simulate_frozen_flow,
    simulate_interacting,
)
from mvsim.malliavin import bundle_diagnostics
from mvsim.particle import coarsen_increments, euler_paths


def _const_model(d=1, drift=0.0, vol=1.0):
    def sigma(t, x, s):
        return np.broadcast_to(vol * np.eye(d), x.shape[:-1] + (d, d))

    return CoefficientModel(
        d=d, m=d, functionals=(),
        b=lambda t, x, s: np.full_like(x, drift),
        sigma=sigma,
        db_dx=lambda t, x, s: np.zeros(x.shape[:-1] + (d, d)),
        dsigma_dx=lambda t, x, s: np.zeros(x.shape[:-1] + (d, d, d)),
        b_static=True, sigma_static=True)


class TestTimeGrid:
    def test_basic_layout(self):
        g = TimeGrid(2.0, 4)
        assert g.dt == 0.5
        np.testing.assert_allclose(g.times(), [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.index_of(1.5) == 3

    def test_index_of_rejects_off_grid(self):
        with pytest.raises(ValueError, match="not a node"):
            TimeGrid(1.0, 3).index_of(0.5)

    def test_non_finite_horizon_refused(self):
        for horizon in (math.nan, math.inf):
            with pytest.raises(ValueError, match="horizon must be finite"):
                TimeGrid(horizon, 10)

    def test_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            TimeGrid(0.0, 5)
        with pytest.raises(ValueError, match="step"):
            TimeGrid(1.0, 0)


class TestBrownianStreams:
    def test_bitwise_repeatable(self):
        g = TimeGrid(1.0, 20)
        a = generate_brownian(11, 50, 2, g)
        b = generate_brownian(11, 50, 2, g)
        assert a.shape == (20, 50, 2)
        assert np.array_equal(a, b)

    def test_adjacent_seeds_differ(self):
        g = TimeGrid(1.0, 20)
        a = generate_brownian(11, 50, 1, g)
        b = generate_brownian(12, 50, 1, g)
        assert np.any(a != b)

    def test_per_particle_streams_stable_under_count(self):
        # growing the cloud must not reshuffle earlier particles' noise
        g = TimeGrid(1.0, 16)
        small = generate_brownian(3, 3, 1, g)
        big = generate_brownian(3, 5, 1, g)
        assert np.array_equal(small, big[:, :3, :])

    @pytest.mark.parametrize("seed,n,m,steps", [(7, 300, 1, 20), (3, 500, 2, 12),
                                                (0, 1, 3, 5), ((1 << 63) - 1, 17, 2, 9),
                                                (5, 64, 1, 7), (5, 64, 2, 7),
                                                (9, 65, 1, 6), (9, 65, 2, 6),
                                                (2, 129, 1, 4), (2, 129, 2, 4)])
    def test_matches_per_particle_streams(self, seed, n, m, steps):
        # particle i's increments are the first draws of particle_stream(seed, i),
        # also for counts that end on, or one past, an edge of the draw blocks
        g = TimeGrid(1.0, steps)
        ref = np.stack([particle_stream(seed, i).standard_normal((steps, m))
                        for i in range(n)], axis=1) * math.sqrt(g.dt)
        assert np.array_equal(generate_brownian(seed, n, m, g), ref)

    def test_stream_objects_are_independent(self):
        a = particle_stream(5, 0).standard_normal(8)
        b = particle_stream(5, 1).standard_normal(8)
        assert np.any(a != b)
        again = particle_stream(5, 0).standard_normal(8)
        np.testing.assert_array_equal(a, again)

    def test_increment_moments(self):
        g = TimeGrid(1.0, 100)
        inc = generate_brownian(1, 10_000, 1, g)
        dt = g.dt
        var = inc.var(axis=(1, 2))
        assert np.all(var > 0.8 * dt) and np.all(var < 1.2 * dt)
        assert abs(inc.mean()) < 5.0 / math.sqrt(10_000 * 100) * math.sqrt(dt)

    def test_coarsen_pairs_steps(self):
        g = TimeGrid(1.0, 8)
        inc = generate_brownian(2, 4, 1, g)
        c = coarsen_increments(inc)
        assert c.shape == (4, 4, 1)
        np.testing.assert_allclose(c[0], inc[0] + inc[1])
        with pytest.raises(ValueError, match="even"):
            coarsen_increments(inc[:5])


class TestInitialStates:
    def test_point_law(self):
        x = initial_states(InitialLaw.point([1.5, -2.0]), 7, seed=0)
        assert x.shape == (7, 2)
        assert np.all(x == np.array([1.5, -2.0]))

    def test_gaussian_law_moments(self):
        law = InitialLaw.gaussian([1.0], [[4.0]])
        x = initial_states(law, 50_000, seed=1)
        assert x.mean() == pytest.approx(1.0, abs=4 * 2.0 / math.sqrt(50_000))
        assert x.var() == pytest.approx(4.0, rel=0.05)

    def test_covariance_must_be_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            InitialLaw.gaussian([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_covariance_must_be_psd(self):
        law = InitialLaw.gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            initial_states(law, 3, seed=0)


class TestDrawNoise:
    @pytest.mark.parametrize("law", [
        InitialLaw.point([0.5]),
        InitialLaw.gaussian([1.0], [[0.25]]),
        InitialLaw.gaussian([0.5, -1.0], [[1.0, 0.6], [0.6, 2.0]]),
    ], ids=["point", "gauss1d", "gauss2d"])
    @pytest.mark.parametrize("n", [1, 25, 100])
    def test_fewer_particles_draw_a_prefix(self, law, n):
        # n particles under a seed are the first n of any larger draw, byte
        # for byte, so each route of a run reads its first n particles from
        # one draw as wide as its widest reader
        model = _const_model(d=law.d)
        grid = TimeGrid(1.0, 16)
        x_few, dw_few = draw_noise(model, law, grid, n, seed=9)
        x_all, dw_all = draw_noise(model, law, grid, 2000, seed=9)
        assert x_few.tobytes() == x_all[:n].tobytes()
        assert dw_few.tobytes() == dw_all[:, :n].tobytes()


class TestInteracting:
    def test_driftless_unit_noise_is_brownian(self):
        bundle = simulate_interacting(
            _const_model(), InitialLaw.point([0.0]), TimeGrid(1.0, 50),
            100_000, seed=2)
        x = bundle.states[-1, :, 0]
        assert abs(x.mean()) < 4.0 / math.sqrt(100_000)
        assert x.var() == pytest.approx(1.0, rel=0.10)

    def test_ensemble_mean_follows_its_ode(self):
        # d/dt E[X] = (a + c) E[X] when the drift couples to the mean
        inst = get_preset("meanfield-ou")
        grid = TimeGrid(1.0, 200)
        bundle = simulate_interacting(inst.model, inst.law, grid, 20_000, seed=7)
        mean = empirical_statistics(bundle.snapshot(200), inst.model.functionals)[0]
        assert mean == pytest.approx(math.exp(-0.5), abs=0.01)

    def test_interaction_kernel_run_is_stable(self):
        inst = get_preset("example5-1")
        tops = []
        for M in (200, 400):
            bundle = simulate_interacting(inst.model, inst.law,
                                          TimeGrid(1.0, M), 10_000, seed=4)
            tops.append(float(moment_curve(bundle, 2).max()))
        assert np.isfinite(tops).all()
        assert abs(tops[1] - tops[0]) < 0.05 * tops[0]

    def test_blowup_reports_step_and_particle(self):
        def b(t, x, s):
            return x ** 3

        model = CoefficientModel(
            d=1, m=1, functionals=(),
            b=b, sigma=lambda t, x, s: np.ones(x.shape[:-1] + (1, 1)),
            b_static=True, sigma_static=True)
        law = InitialLaw.point([1e160])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationError, match=r"step 1, particle 0"):
                simulate_interacting(model, law, TimeGrid(1.0, 10), 2, seed=0)

    def test_bundle_accessors(self):
        bundle = simulate_interacting(
            _const_model(), InitialLaw.point([0.0]), TimeGrid(1.0, 5), 4, seed=3)
        np.testing.assert_array_equal(bundle.snapshot(2).points,
                                      bundle.states[2])
        np.testing.assert_array_equal(bundle.path(1).states,
                                      bundle.states[:, 1, :])
        np.testing.assert_array_equal(bundle.path(1).increments,
                                      bundle.increments[:, 1, :])

    def test_snapshot_owns_its_points(self):
        # a snapshot that viewed the states would keep the whole path array
        bundle = simulate_interacting(
            _const_model(), InitialLaw.point([0.0]), TimeGrid(1.0, 5), 4, seed=3)
        mu = bundle.snapshot(2)
        assert not np.shares_memory(mu.points, bundle.states)
        with pytest.raises(ValueError, match="read-only"):
            mu.points[0, 0] = 1.0

    def test_determinism(self):
        inst = get_preset("example5-2")
        a = simulate_interacting(inst.model, inst.law, TimeGrid(1.0, 20), 64, seed=8)
        b = simulate_interacting(inst.model, inst.law, TimeGrid(1.0, 20), 64, seed=8)
        assert np.array_equal(a.states, b.states)


def _noise_model(d, m, full):
    """A model with no statistic; its sigma is a constant (d, m) matrix,
    broadcast, or ``full``: scaled per particle and row by the state."""
    c = np.random.default_rng(10 * d + m).standard_normal((d, m))

    def sigma(t, x, s):
        if full:
            return c * (1.0 + 0.5 * np.sin(x))[..., :, None]
        return np.broadcast_to(c, x.shape[:-1] + (d, m))

    return CoefficientModel(d=d, m=m, functionals=(),
                            b=lambda t, x, s: np.cos(x) - x, sigma=sigma)


def _einsum_sweep(model, x0, grid, increments):
    """The Euler sweep with its noise term as einsum("ndm,nm->nd"): the
    reference for euler_paths, which sums the noise columns in order."""
    x, out, s = x0.copy(), [x0], np.empty(0)
    for k in range(grid.steps):
        t = float(grid.times()[k])
        sig = model.sigma(t, x, s)
        x = x + model.b(t, x, s) * grid.dt + np.einsum("ndm,nm->nd", sig, increments[k])
        out.append(x)
    return np.array(out)


class TestNoiseTerm:
    @pytest.mark.parametrize("full", [False, True], ids=["broadcast", "full"])
    @pytest.mark.parametrize("d,m", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_matches_einsum_bit_for_bit(self, d, m, full):
        model = _noise_model(d, m, full)
        grid = TimeGrid(1.0, 20)
        law = InitialLaw.gaussian(np.zeros(d), np.eye(d))
        x0, dw = draw_noise(model, law, grid, 300, seed=4)
        bundle = euler_paths(model, x0, grid, dw)
        assert np.array_equal(bundle.states, _einsum_sweep(model, x0, grid, dw))

    @pytest.mark.parametrize("full", [False, True], ids=["broadcast", "full"])
    def test_three_columns_agree_to_rounding(self, full):
        # past two columns einsum may sum in another order, so only rounding
        # is pinned: a few ulps per step over 20 steps
        model = _noise_model(2, 3, full)
        grid = TimeGrid(1.0, 20)
        x0, dw = draw_noise(model, InitialLaw.gaussian([0.0, 0.0], np.eye(2)), grid, 300, seed=4)
        np.testing.assert_allclose(euler_paths(model, x0, grid, dw).states,
                                   _einsum_sweep(model, x0, grid, dw),
                                   rtol=1e3 * np.finfo(float).eps, atol=1e3 * np.finfo(float).eps)

    def test_blowup_names_step_and_particle(self):
        model = CoefficientModel(
            d=2, m=2, functionals=(), b=lambda t, x, s: x ** 3,
            sigma=lambda t, x, s: np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)))
        x0 = np.full((5, 2), 0.5)
        x0[3, 1] = 1e80  # finite after one step (about 1e239), infinite after two
        grid = TimeGrid(1.0, 10)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationError, match=r"step 2, particle 3") as err:
                euler_paths(model, x0, grid, np.zeros((10, 5, 2)))
        assert (err.value.step, err.value.particle) == (2, 3)


class TestFinitenessProbe:
    def test_finite_state_whose_sum_overflows_goes_on(self):
        x0 = np.array([[1.5e308], [1.5e308], [0.0]])
        with np.errstate(over="ignore"):
            bundle = euler_paths(_const_model(), x0, TimeGrid(1.0, 3), np.zeros((3, 3, 1)))
        assert np.array_equal(bundle.states[-1], x0)

    def test_opposite_infinities_name_step_and_particle(self):
        # +inf and -inf in one step sum to NaN, which the probe still catches
        model = CoefficientModel(
            d=1, m=1, functionals=(), b=lambda t, x, s: x ** 3,
            sigma=lambda t, x, s: np.ones(x.shape[:-1] + (1, 1)))
        x0 = np.array([[0.5], [0.5], [1e80], [-1e80]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationError, match=r"step 2, particle 2") as err:
                euler_paths(model, x0, TimeGrid(1.0, 10), np.zeros((10, 4, 1)))
        assert (err.value.step, err.value.particle) == (2, 2)


class TestFrozenFlow:
    def test_no_coupling_means_identical_runs(self):
        # with q = 0 the frozen solve coincides bitwise with the live one
        inst = get_preset("ou")
        grid = TimeGrid(1.0, 40)
        live = simulate_interacting(inst.model, inst.law, grid, 256, seed=5)
        flow = StatisticFlow(grid.times(), np.zeros((41, 0)))
        frozen = simulate_frozen_flow(inst.model, inst.law, grid, 256, seed=5,
                                      flow=flow)
        assert np.array_equal(live.states, frozen.states)

    def test_exact_mean_curve_is_a_fixed_point(self):
        inst = get_preset("meanfield-ou")
        grid = TimeGrid(1.0, 200)
        curve = np.exp(-0.5 * grid.times())[:, None]
        frozen = simulate_frozen_flow(inst.model, inst.law, grid, 20_000, seed=7,
                                      flow=StatisticFlow(grid.times(), curve))
        mean = empirical_statistics(frozen.snapshot(200),
                                    inst.model.functionals)[0]
        assert mean == pytest.approx(math.exp(-0.5), abs=0.01)

    def test_flow_grid_mismatch(self):
        inst = get_preset("meanfield-ou")
        grid = TimeGrid(1.0, 10)
        flow = StatisticFlow(TimeGrid(1.0, 20).times(), np.zeros((21, 1)))
        with pytest.raises(ValueError, match="does not match grid"):
            simulate_frozen_flow(inst.model, inst.law, grid, 8, seed=0, flow=flow)

    def test_realized_flow_matches_cloud_statistics(self):
        inst = get_preset("meanfield-ou")
        grid = TimeGrid(1.0, 30)
        bundle = simulate_interacting(inst.model, inst.law, grid, 500, seed=6)
        for k in (0, 15, 30):
            s = empirical_statistics(bundle.snapshot(k), inst.model.functionals)
            np.testing.assert_allclose(bundle.realized_flow.stats[k], s)


class TestKeptSlices:
    """``euler_paths(..., keep=...)`` stores only the given time slices."""

    @staticmethod
    def _run(name, frozen, steps=20, n=64):
        inst = get_preset(name)
        grid = TimeGrid(1.0, steps)
        x0, dw = draw_noise(inst.model, inst.law, grid, n, seed=4)
        flow = None
        if frozen:  # the constant flow of the initial cloud, as Picard starts
            s0 = empirical_statistics(EmpiricalMeasure.from_samples(x0),
                                      inst.model.functionals)
            flow = StatisticFlow(grid.times(), np.tile(s0, (steps + 1, 1)))
        return inst, (inst.model, x0, grid, dw, flow)

    @pytest.mark.parametrize("frozen", [False, True], ids=["interacting", "frozen"])
    @pytest.mark.parametrize("name", ["meanfield-ou", "example5-2"])
    def test_kept_slices_are_the_full_runs(self, name, frozen):
        inst, args = self._run(name, frozen)
        full = euler_paths(*args)
        kept = euler_paths(*args, keep=[0, 7, 20])
        assert full.kept is None and kept.kept == (0, 7, 20)
        assert kept.states.shape == (3, 64, inst.model.d)
        assert np.array_equal(kept.states, full.states[[0, 7, 20]])
        assert np.array_equal(kept.realized_flow.stats, full.realized_flow.stats)
        assert np.array_equal(kept.realized_flow.times, full.realized_flow.times)
        for k in (0, 7, 20):
            assert np.array_equal(kept.snapshot(k).points, full.snapshot(k).points)

    @pytest.mark.parametrize("keep", [[20, 5, 20, 0, 5], np.array([5, 0, 20, 20]), (20, 5, 0)])
    def test_duplicate_and_unsorted_indices(self, keep):
        _, args = self._run("meanfield-ou", frozen=False)
        full, kept = euler_paths(*args), euler_paths(*args, keep=keep)
        assert kept.kept == (0, 5, 20) and kept.states.shape == (3, 64, 1)
        assert np.array_equal(kept.states, full.states[[0, 5, 20]])
        assert np.array_equal(kept.snapshot(5).points, full.snapshot(5).points)

    @pytest.mark.parametrize("keep", [[21], [-1], [0, 10, 21]])
    def test_out_of_range_index_raises(self, keep):
        _, args = self._run("meanfield-ou", frozen=False)
        with pytest.raises(ValueError, match=r"keep indices must lie in \[0, 20\]"):
            euler_paths(*args, keep=keep)

    def test_kept_bundle_refuses_what_it_lacks(self):
        inst, args = self._run("meanfield-ou", frozen=False)
        kept = euler_paths(*args, keep=[0, 10])
        with pytest.raises(ValueError, match="grid index 5 was not kept"):
            kept.snapshot(5)
        with pytest.raises(ValueError, match=r"path\(\) needs every time slice"):
            kept.path(0)
        with pytest.raises(ValueError, match="moment_curve needs every time slice"):
            moment_curve(kept, 2)
        with pytest.raises(ValueError, match="bundle_diagnostics needs every time slice"):
            bundle_diagnostics(inst.model, kept)

    def test_kept_solve_allocates_no_path_array(self):
        # one frozen-flow solve of 20,000 particles over 200 steps in 1D; the
        # noise is drawn before tracing starts.  A full (steps + 1, N, d)
        # states array alone would be 32 MB.
        inst, args = self._run("meanfield-ou", frozen=True, steps=200, n=20_000)
        full_bytes = 201 * 20_000 * 1 * 8
        tracemalloc.start()
        try:
            bundle = euler_paths(*args, keep=[0, 100, 200])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bundle.states.shape == (3, 20_000, 1)
        assert peak < full_bytes / 4, peak


class TestMomentCurve:
    def test_frozen_zero_dynamics(self):
        model = _const_model(vol=0.0)
        bundle = simulate_interacting(model, InitialLaw.point([0.0]),
                                      TimeGrid(1.0, 10), 16, seed=0)
        np.testing.assert_array_equal(moment_curve(bundle, 2), np.zeros(11))

    def test_brownian_second_moment_grows_linearly(self):
        bundle = simulate_interacting(_const_model(), InitialLaw.point([0.0]),
                                      TimeGrid(1.0, 50), 20_000, seed=1)
        curve = moment_curve(bundle, 2)
        np.testing.assert_allclose(curve, TimeGrid(1.0, 50).times(), atol=0.05)

    def test_multiplicative_noise_second_moment(self):
        # E[X^2] solves m' = (2 mu + s^2) m for linear coefficient fields
        inst = get_preset("gbm")
        grid = TimeGrid(1.0, 200)
        bundle = simulate_interacting(inst.model, inst.law, grid, 10_000, seed=2)
        expect = np.exp((2.0 * 1.0 + 0.05 ** 2) * grid.times())
        np.testing.assert_allclose(moment_curve(bundle, 2), expect, rtol=0.02)

    def test_order_validation(self):
        bundle = simulate_interacting(_const_model(), InitialLaw.point([0.0]),
                                      TimeGrid(1.0, 4), 4, seed=0)
        with pytest.raises(ValueError, match="order"):
            moment_curve(bundle, 0.0)


def test_error_shrinks_with_joint_refinement():
    # halving dt while quadrupling N should win in most seeds
    inst = get_preset("meanfield-ou")
    target = math.exp(-0.5)
    wins = 0
    for seed in range(10):
        errs = []
        for n, steps in ((2000, 50), (8000, 100)):
            b = simulate_interacting(inst.model, inst.law,
                                     TimeGrid(1.0, steps), n, seed)
            m = empirical_statistics(b.snapshot(steps),
                                     inst.model.functionals)[0]
            errs.append(abs(m - target))
        wins += errs[1] < errs[0]
    assert wins >= 8


def test_second_moment_bounded_across_presets():
    # sup_t E|X|^2 <= C (1 + E|xi|^2) with a stable C under refinement
    for name in ("bm", "ou", "gbm", "meanfield-ou", "example5-1", "example5-2"):
        inst = get_preset(name)
        law = inst.law
        if law.kind == "point":
            init2 = float(np.sum(law.mean ** 2))
        else:
            init2 = float(np.sum(law.mean ** 2) + np.trace(law.cov))
        cs = []
        for n, steps in ((2000, 100), (4000, 200)):
            bundle = simulate_interacting(inst.model, law,
                                          TimeGrid(1.0, steps), n, seed=3)
            cs.append(float(moment_curve(bundle, 2).max()) / (1.0 + init2))
        assert cs[1] < 2.0 * cs[0], name
        assert cs[0] < 2.0 * cs[1], name


_GRID = TimeGrid(1.0, 4)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: InitialLaw.gaussian([0.0, 0.0], np.eye(3)),
                 r"cov shape \(3, 3\) does not match dimension 2", id="gaussian-cov-shape"),
    pytest.param(lambda: particle_stream(-1, 0), r"seed must lie in \[0, 2\*\*63\), got -1",
                 id="seed-negative"),
    pytest.param(lambda: generate_brownian(1 << 63, 2, 1, _GRID), "seed must lie in",
                 id="seed-too-wide"),
    pytest.param(lambda: generate_brownian(0, 0, 1, _GRID), "need at least one particle",
                 id="brownian-no-particles"),
    pytest.param(lambda: generate_brownian(0, 2, 0, _GRID), "noise dimension must be >= 1",
                 id="brownian-no-noise"),
    pytest.param(lambda: initial_states(InitialLaw.point([0.0]), 0, 0),
                 "need at least one particle", id="initial-no-particles"),
    pytest.param(lambda: draw_noise(_const_model(d=2), InitialLaw.point([0.0]), _GRID, 2, 0),
                 "initial law dimension 1, model expects 2", id="noise-dimension"),
    pytest.param(lambda: euler_paths(_const_model(d=2), np.zeros((2, 1)), _GRID,
                                     np.zeros((4, 2, 2))),
                 "initial states have dimension 1, model expects 2", id="euler-x0-dimension"),
    pytest.param(lambda: euler_paths(_const_model(), np.zeros((2, 1)), _GRID,
                                     np.zeros((4, 3, 1))),
                 r"increments shape \(4, 3, 1\), expected \(4, 2, 1\)", id="euler-increments"),
])
def test_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
