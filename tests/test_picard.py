"""Fixed-point iteration on the statistic flow and its gap metric."""

import math
import weakref

import numpy as np
import pytest

import mvsim.picard
from mvsim import (
    EmpiricalMeasure,
    InitialLaw,
    StatisticFlow,
    TimeGrid,
    convergence_gap,
    draw_noise,
    empirical_statistics,
    get_preset,
    picard_run,
    picard_vs_direct,
    simulate_frozen_flow,
    simulate_interacting,
    w2_sliced,
)


def _atoms(*points):
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    return EmpiricalMeasure(pts, np.full(len(points), 1.0 / len(points)))


class TestConvergenceGap:
    def test_identical_clouds(self):
        a = _atoms(0.0, 1.0, 2.0)
        assert convergence_gap([a, a], [a, a]) == 0.0

    def test_translation(self):
        a = _atoms(0.0, 1.0)
        b = _atoms(0.7, 1.7)
        assert convergence_gap([a], [b]) == pytest.approx(0.7, abs=1e-12)

    def test_two_atom_transport(self):
        a = _atoms(0.0, 0.0)
        b = _atoms(1.0, -1.0)
        assert convergence_gap([a], [b]) == pytest.approx(1.0, abs=1e-12)

    def test_max_over_checkpoints(self):
        a = _atoms(0.0)
        near = _atoms(0.1)
        far = _atoms(2.0)
        assert convergence_gap([a, a], [near, far]) == pytest.approx(2.0, abs=1e-12)

    def test_checkpoint_count_mismatch(self):
        a = _atoms(0.0)
        with pytest.raises(ValueError, match="checkpoint"):
            convergence_gap([a, a], [a])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 2))
        perm = rng.permutation(40)
        a = EmpiricalMeasure(pts, np.full(40, 1 / 40))
        b = EmpiricalMeasure(pts[perm], np.full(40, 1 / 40))
        shifted = EmpiricalMeasure(pts + 0.3, np.full(40, 1 / 40))
        g1 = convergence_gap([a], [shifted])
        g2 = convergence_gap([b], [shifted])
        assert g1 == pytest.approx(g2, rel=1e-12)


class TestPicardRun:
    def test_uncoupled_model_converges_in_two_solves(self):
        # no statistics feed back into b or sigma, so the first corrected
        # iterate already reproduces itself
        inst = get_preset("ou")
        run = picard_run(inst.model, inst.law, TimeGrid(1.0, 50), 500,
                         seed=0, tol=1e-8, max_iters=6, checkpoints=(0.5, 1.0))
        assert run.converged
        assert run.n_iters == 2
        assert run.gaps == [0.0]

    def test_mean_coupled_fixed_point_hits_ode_value(self):
        inst = get_preset("meanfield-ou")
        run = picard_run(inst.model, inst.law, TimeGrid(1.0, 200), 20_000,
                         seed=7, tol=1e-3, max_iters=8, checkpoints=(1.0,))
        assert run.converged
        mean = empirical_statistics(run.final_clouds[-1],
                                    inst.model.functionals)[0]
        assert mean == pytest.approx(math.exp(-0.5), abs=2e-2)

    def test_contraction_produces_monotone_gaps(self):
        inst = get_preset("example5-1")
        run = picard_run(inst.model, inst.law, TimeGrid(1.0, 100), 10_000,
                         seed=0, tol=1e-10, max_iters=6, checkpoints=(0.5, 1.0))
        gaps = np.asarray(run.gaps)
        assert np.all(np.diff(gaps) < 0)
        assert gaps[0] < 1e-3
        assert gaps[-1] < 1e-9

    def test_monotone_gaps_drive_stopping(self):
        inst = get_preset("meanfield-ou")
        kw = dict(n=5000, seed=9, checkpoints=(1.0,))
        loose = picard_run(inst.model, inst.law, TimeGrid(1.0, 100),
                           tol=1e-2, max_iters=8, **kw)
        tight = picard_run(inst.model, inst.law, TimeGrid(1.0, 100),
                           tol=1e-3, max_iters=8, **kw)
        assert loose.converged and tight.converged
        assert tight.n_iters >= loose.n_iters
        assert loose.gaps[-1] <= 1e-2
        assert tight.gaps[-1] <= 1e-3

    def test_nonconvergence_is_reported_not_raised(self):
        inst = get_preset("meanfield-ou")
        run = picard_run(inst.model, inst.law, TimeGrid(1.0, 50), 200,
                         seed=2, tol=1e-14, max_iters=3, checkpoints=(1.0,))
        assert not run.converged
        assert run.n_iters == 3
        assert len(run.gaps) == 2

    def test_nan_tolerance_refused(self):
        inst = get_preset("meanfield-ou")
        with pytest.raises(ValueError, match="tolerance must be positive"):
            picard_run(inst.model, inst.law, TimeGrid(1.0, 10), 20,
                       seed=0, tol=math.nan, max_iters=3, checkpoints=(1.0,))

    def test_one_path_array_alive_at_a_time(self, monkeypatch):
        # every earlier solve's states are gone when the next solve starts
        real, states = mvsim.picard.euler_paths, []

        def tracked(*args, **kwargs):
            assert [r() for r in states] == [None] * len(states)
            bundle = real(*args, **kwargs)
            states.append(weakref.ref(bundle.states))
            return bundle

        monkeypatch.setattr(mvsim.picard, "euler_paths", tracked)
        inst = get_preset("meanfield-ou")
        run = picard_run(inst.model, inst.law, TimeGrid(1.0, 20), 100,
                         seed=2, tol=1e-14, max_iters=4, checkpoints=(0.5, 1.0))
        assert run.n_iters == len(states) == 4
        assert [r() for r in states] == [None] * 4

    def test_two_solves_of_clouds_alive_at_a_time(self, monkeypatch):
        # when a gap is taken, every solve before its two is freed, and the
        # run returns holding the last solve's clouds alone
        real, seen = mvsim.picard.convergence_gap, []

        def tracked(a, b, **kwargs):
            if not seen:
                seen.append([weakref.ref(mu) for mu in a])
            seen.append([weakref.ref(mu) for mu in b])
            # this gap reads the last two solves; every earlier one is freed
            assert all(r() is None for solve in seen[:-2] for r in solve)
            return real(a, b, **kwargs)

        monkeypatch.setattr(mvsim.picard, "convergence_gap", tracked)
        inst = get_preset("meanfield-ou")
        run = picard_run(inst.model, inst.law, TimeGrid(1.0, 20), 100,
                         seed=2, tol=1e-14, max_iters=4, checkpoints=(0.5, 1.0))
        assert run.n_iters == len(seen) == 4
        assert all(r() is None for solve in seen[:-1] for r in solve)
        assert [r() for r in seen[-1]] == run.final_clouds

    def test_every_solve_keeps_only_the_checkpoint_slices(self, monkeypatch):
        # each Picard solve and the direct run of picard_vs_direct store the
        # checkpoint slices alone, in grid order, whatever order they come in
        real, held = mvsim.picard.euler_paths, []

        def tracked(*args, **kwargs):
            bundle = real(*args, **kwargs)
            held.append((bundle.kept, bundle.states.shape))
            return bundle

        monkeypatch.setattr(mvsim.picard, "euler_paths", tracked)
        inst = get_preset("example5-2")
        picard_vs_direct(inst.model, inst.law, TimeGrid(1.0, 20), 50, seed=2,
                         tol=1e-14, max_iters=3, checkpoints=(1.0, 0.25))
        assert held == [((5, 20), (2, 50, 2))] * 4

    def test_bookkeeping_shapes(self):
        inst = get_preset("meanfield-ou")
        run = picard_run(inst.model, inst.law, TimeGrid(1.0, 40), 500,
                         seed=1, tol=1e-4, max_iters=8,
                         checkpoints=(0.25, 0.75, 1.0))
        assert run.checkpoint_times == (0.25, 0.75, 1.0)
        assert run.flow.stats.shape == (41, inst.model.q)
        np.testing.assert_array_equal(run.flow.times, TimeGrid(1.0, 40).times())
        assert len(run.final_clouds) == 3
        assert len(run.gaps) == run.n_iters - 1

    def test_first_iterate_definition(self):
        # solve 1 runs against the initial statistic held constant, solve 2
        # against the flow solve 1 realized; a run that stops after two
        # solves, spent or converged, returns solve 2
        inst = get_preset("meanfield-ou")
        grid = TimeGrid(1.0, 40)
        x0, _ = draw_noise(inst.model, inst.law, grid, 300, 5)
        s0 = empirical_statistics(EmpiricalMeasure.from_samples(x0),
                                  inst.model.functionals)
        seed_flow = StatisticFlow(grid.times(), np.tile(s0, (41, 1)))
        first = simulate_frozen_flow(inst.model, inst.law, grid, 300, seed=5,
                                     flow=seed_flow)
        second = simulate_frozen_flow(inst.model, inst.law, grid, 300, seed=5,
                                      flow=first.realized_flow)
        for tol, max_iters, converged in ((1e-300, 2, False), (1.0, 4, True)):
            run = picard_run(inst.model, inst.law, grid, 300, seed=5,
                             tol=tol, max_iters=max_iters, checkpoints=(1.0,))
            assert run.converged is converged and run.n_iters == 2
            np.testing.assert_array_equal(run.final_clouds[-1].points,
                                          second.snapshot(40).points)
            np.testing.assert_array_equal(run.flow.stats,
                                          second.realized_flow.stats)

    def test_same_seed_same_run(self):
        inst = get_preset("example5-1")
        kw = dict(n=500, seed=3, tol=1e-6, max_iters=5, checkpoints=(1.0,))
        a = picard_run(inst.model, inst.law, TimeGrid(1.0, 50), **kw)
        b = picard_run(inst.model, inst.law, TimeGrid(1.0, 50), **kw)
        assert a.gaps == b.gaps
        np.testing.assert_array_equal(a.final_clouds[-1].points,
                                      b.final_clouds[-1].points)

    def test_checkpoints_must_lie_on_grid(self):
        inst = get_preset("meanfield-ou")
        with pytest.raises(ValueError, match="not a node"):
            picard_run(inst.model, inst.law, TimeGrid(1.0, 10), 100,
                       seed=0, tol=1e-3, max_iters=4, checkpoints=(0.33,))


class TestPicardVsDirect:
    def test_uncoupled_routes_coincide(self):
        inst = get_preset("ou")
        d = picard_vs_direct(inst.model, inst.law, TimeGrid(1.0, 50), 500,
                             seed=0, tol=1e-8, max_iters=6, checkpoints=(1.0,))
        assert d == 0.0

    def test_coupled_routes_agree_at_scale(self):
        inst = get_preset("meanfield-ou")
        d = picard_vs_direct(inst.model, inst.law, TimeGrid(1.0, 100), 5000,
                             seed=1, tol=1e-4, max_iters=8, checkpoints=(1.0,))
        assert d < 3e-3

    def test_tightening_tolerance_never_hurts(self):
        # contraction here is so fast that one corrected sweep can land
        # inside both tolerances, so equality is allowed
        inst = get_preset("example5-1")
        kw = dict(n=5000, seed=2, max_iters=8, checkpoints=(1.0,))
        loose = picard_vs_direct(inst.model, inst.law, TimeGrid(1.0, 100),
                                 tol=1e-2, **kw)
        tight = picard_vs_direct(inst.model, inst.law, TimeGrid(1.0, 100),
                                 tol=1e-3, **kw)
        assert np.isfinite(loose) and np.isfinite(tight)
        assert tight <= loose + 1e-12

    def test_gaps_use_the_given_slices_in_2d(self):
        # above 1D the final gap is sliced W2 over w2_sliced's default
        # directions; another slice count gives a different number
        inst = get_preset("example5-2")
        grid = TimeGrid(1.0, 10)
        kw = dict(n=200, seed=3, tol=1e-12, max_iters=3, checkpoints=(1.0,))
        d = picard_vs_direct(inst.model, inst.law, grid, **kw)
        run = picard_run(inst.model, inst.law, grid, **kw)
        direct = simulate_interacting(inst.model, inst.law, grid, 200, 3)
        final, snap = run.final_clouds[0], direct.snapshot(10)
        assert d == w2_sliced(final, snap)
        assert d != w2_sliced(final, snap, n_slices=4)

    @pytest.mark.parametrize("preset, grid", [
        ("example5-1", TimeGrid(1.0, 20)),
        ("example5-2", TimeGrid(1.0, 10)),
    ])
    def test_draws_once_and_matches_the_two_routes(self, brownian_calls, preset, grid):
        # the iterate and the interacting system run on one draw of the
        # noise, the same draw each makes on its own under this seed; the
        # gap is w2_sliced at its defaults (exact W2 in 1D)
        inst = get_preset(preset)
        kw = dict(n=300, seed=6, tol=1e-12, max_iters=3, checkpoints=(0.5, 1.0))
        d = picard_vs_direct(inst.model, inst.law, grid, **kw)
        assert len(brownian_calls) == 1
        run = picard_run(inst.model, inst.law, grid, **kw)
        direct = simulate_interacting(inst.model, inst.law, grid, 300, 6)
        clouds = [direct.snapshot(grid.index_of(t)) for t in (0.5, 1.0)]
        assert d == convergence_gap(run.final_clouds, clouds)
        assert d == max(w2_sliced(a, b) for a, b in zip(run.final_clouds, clouds))


@pytest.mark.parametrize("kw, match", [
    pytest.param({"max_iters": 1}, "need at least two inner solves", id="one-solve"),
    pytest.param({"checkpoints": ()}, "need at least one checkpoint time", id="no-checkpoints"),
])
def test_refusals(kw, match):
    inst, grid = get_preset("meanfield-ou"), TimeGrid(1.0, 10)
    x0, dw = draw_noise(inst.model, inst.law, grid, 20, 0)
    args = {"tol": 1e-3, "max_iters": 4, "checkpoints": (1.0,), **kw}
    with pytest.raises(ValueError, match=match):
        mvsim.picard.iterate_frozen_flow(inst.model, x0, dw, grid, **args)
