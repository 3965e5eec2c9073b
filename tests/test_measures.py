"""Measure containers, density estimation, and the transport metrics.

Expected values marked with a derivation comment were computed from the
closed form stated there; the rest are direct consequences of definitions.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from mvsim import (
    EmpiricalMeasure,
    GridAxis,
    GridDensity,
    StatisticFlow,
    StatisticFunctional,
    empirical_statistics,
    grid_statistics,
    kde_1d,
    l1_grid_distance,
    silverman_bandwidth,
    w2_empirical_1d,
    w2_sliced,
    w2_to_dirac0,
)
import mvsim.measures
from mvsim.measures import (
    empirical_to_csv,
    grid_density_from_csv,
    grid_density_to_csv,
    grid_marginal,
    sliced_directions,
    trapezoid_weights,
    w2_cloud_vs_density_1d,
    write_csv,
)

SIN_KERNEL = StatisticFunctional(
    "sin-kernel", lambda pts: np.sin(pts[..., 0]) / (1.0 + pts[..., 0] ** 2))


def _cloud(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return EmpiricalMeasure(pts, np.full(len(pts), 1.0 / len(pts)))


def _gaussian_grid(axis, mean=0.0, sd=1.0):
    vals = norm.pdf(axis.nodes(), loc=mean, scale=sd)
    return GridDensity((axis,), vals, mass_tol=1e-4)


def _dense_kde(mu, axis, h):
    """Every point against every node, renormalized to unit trapezoid mass."""
    z = (axis.nodes()[None, :] - mu.points[:, :1]) / h
    vals = mu.weights @ np.exp(-0.5 * z * z) / (h * math.sqrt(2.0 * math.pi))
    return vals / np.trapezoid(vals, axis.nodes())


def _sliced_loop(a, b, n_slices, seed):
    """Sliced W2 as the quantile coupling of each projection in turn."""
    acc = 0.0
    for u in sliced_directions(a.d, n_slices, seed):
        pa = EmpiricalMeasure((a.points @ u)[:, None], a.weights)
        pb = EmpiricalMeasure((b.points @ u)[:, None], b.weights)
        acc += w2_empirical_1d(pa, pb) ** 2
    return math.sqrt(acc / n_slices)


def _merged_w2(a, b):
    """Exact 1D W2 on the merged partition of both cumulative weights, its
    cost summed by the package's one weighted sum."""
    def pieces(mu):
        order = np.argsort(mu.points[:, 0], kind="stable")
        return mu.points[order, 0], np.cumsum(mu.weights[order])
    xa, ca = pieces(a)
    xb, cb = pieces(b)
    cuts = np.union1d(ca, cb)
    cuts = cuts[cuts > 0.0]
    lo = np.concatenate(([0.0], cuts[:-1]))
    lens = cuts - lo
    mids = lo + 0.5 * lens
    ia = np.minimum(np.searchsorted(ca, mids, side="left"), len(xa) - 1)
    ib = np.minimum(np.searchsorted(cb, mids, side="left"), len(xb) - 1)
    cost = float(mvsim.measures._weighted_sum((xa[ia] - xb[ib]) ** 2, lens))
    return math.sqrt(max(cost, 0.0))


def _tied_points(rng, n):
    """Normal draws with about half the points on five shared values."""
    return np.where(rng.random(n) < 0.5, rng.normal(size=n),
                    rng.integers(-2, 3, size=n) * 0.5)


def _weighted_cloud(points, rng):
    w = rng.uniform(0.1, 1.0, size=len(points))
    return EmpiricalMeasure(np.atleast_2d(points).reshape(len(points), -1), w / w.sum())


def _two_atom_w2(a0, a1, b0, b1):
    # brute-force both couplings of two equal-weight atoms
    c1 = ((a0 - b0) ** 2 + (a1 - b1) ** 2) / 2.0
    c2 = ((a0 - b1) ** 2 + (a1 - b0) ** 2) / 2.0
    return math.sqrt(min(c1, c2))


class TestEmpiricalStatistics:
    def test_zero_at_origin(self):
        mu = _cloud([0.0, 0.0, 0.0])
        assert empirical_statistics(mu, (SIN_KERNEL,))[0] == 0.0

    def test_symmetric_pair_second_moment(self):
        mu = _cloud([1.0, -1.0])
        phi = StatisticFunctional("sq", lambda p: p[..., 0] ** 2)
        assert empirical_statistics(mu, (phi,))[0] == pytest.approx(1.0)

    def test_sin_kernel_two_points(self):
        # 0.5*(sin 0/(1+0) + sin(pi/2)/(1+pi^2/4)) = 0.5/(1+pi^2/4) ~ 0.14420
        mu = _cloud([0.0, math.pi / 2.0])
        expected = 0.5 / (1.0 + math.pi ** 2 / 4.0)
        got = empirical_statistics(mu, (SIN_KERNEL,))[0]
        assert got == pytest.approx(expected, abs=1e-15)

    def test_nonfinite_value_names_particle(self):
        from mvsim import NumericError
        phi = StatisticFunctional("inv", lambda p: 1.0 / p[..., 0])
        with np.errstate(divide="ignore"):
            with pytest.raises(NumericError, match="particle 1"):
                empirical_statistics(_cloud([1.0, 0.0, 2.0]), (phi,))

    def test_nan_at_zero_weight_names_particle(self):
        from mvsim import NumericError
        phi = StatisticFunctional("sqrt", lambda p: np.sqrt(p[..., 0]))
        mu = EmpiricalMeasure(np.array([[1.0], [-1.0], [4.0]]), np.array([0.5, 0.0, 0.5]))
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="'sqrt' is non-finite at particle 1"):
                empirical_statistics(mu, (phi,))

    def test_finite_values_whose_weighted_sum_overflows_give_inf(self):
        # weights that do not sum to 1
        phi = StatisticFunctional("id", lambda p: p[..., 0])
        with np.errstate(over="ignore"):
            s = mvsim.measures._weighted_statistics(
                np.array([[1e308], [1e308]]), np.array([1.0, 1.0]), (phi,))
        assert s[0] == math.inf

    def test_empty_functionals(self):
        assert empirical_statistics(_cloud([1.0]), ()).shape == (0,)


class TestGridStatistics:
    def test_odd_functional_on_symmetric_density(self):
        p = _gaussian_grid(GridAxis(-8.0, 8.0, 801))
        assert abs(grid_statistics(p, (SIN_KERNEL,))[0]) < 1e-9

    def test_uniform_mean(self):
        ax = GridAxis(0.0, 1.0, 101)
        p = GridDensity((ax,), np.ones(101), mass_tol=1e-12)
        phi = StatisticFunctional("id", lambda q: q[..., 0])
        assert grid_statistics(p, (phi,))[0] == pytest.approx(0.5, abs=1e-6)

    def test_gaussian_second_moment(self):
        p = _gaussian_grid(GridAxis(-8.0, 8.0, 1601))
        phi = StatisticFunctional("sq", lambda q: q[..., 0] ** 2)
        assert grid_statistics(p, (phi,))[0] == pytest.approx(1.0, abs=1e-4)


class TestKde:
    def test_single_particle_is_kernel(self):
        ax = GridAxis(-6.0, 6.0, 1201)
        h = 0.5
        kde = kde_1d(_cloud([0.0]), ax, h)
        expect = norm.pdf(ax.nodes(), scale=h)
        expect /= np.trapezoid(expect, ax.nodes())
        np.testing.assert_allclose(kde.values, expect, atol=1e-12)

    def test_large_sample_recovers_standard_normal(self):
        rng = np.random.default_rng(42)
        mu = _cloud(rng.standard_normal(100_000))
        ax = GridAxis(-8.0, 8.0, 1601)
        kde = kde_1d(mu, ax, "auto")
        exact = _gaussian_grid(ax)
        assert l1_grid_distance(kde, exact) < 0.02

    def test_two_particles_bimodal(self):
        ax = GridAxis(-3.0, 3.0, 601)
        kde = kde_1d(_cloud([-1.0, 1.0]), ax, 0.1)
        nodes = ax.nodes()
        left = kde.values[nodes < 0.0]
        right = kde.values[nodes >= 0.0]
        assert abs(nodes[nodes < 0.0][np.argmax(left)] + 1.0) <= ax.spacing
        assert abs(nodes[nodes >= 0.0][np.argmax(right)] - 1.0) <= ax.spacing

    def test_unit_mass_after_renormalization(self):
        rng = np.random.default_rng(3)
        ax = GridAxis(-10.0, 10.0, 501)
        for _ in range(10):
            mu = _cloud(rng.normal(size=rng.integers(2, 40)))
            kde = kde_1d(mu, ax, float(rng.uniform(0.05, 1.0)))
            assert abs(kde.mass() - 1.0) < 1e-10

    def test_silverman_rule(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=500)
        mu = _cloud(pts)
        expected = 1.06 * pts.std(ddof=1) * 500 ** (-0.2)
        assert silverman_bandwidth(mu) == pytest.approx(expected, rel=1e-12)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            kde_1d(_cloud([0.0]), GridAxis(-1.0, 1.0, 11), -0.1)

    @pytest.mark.parametrize("case", [
        "weighted", "unsorted", "beyond_grid", "narrow", "wide", "empty_blocks"])
    def test_windowed_matches_dense(self, case):
        rng = np.random.default_rng(31)
        ax = GridAxis(-2.0, 2.0, 401)
        if case == "weighted":
            # weights must follow the sort: large weights on the right tail
            x = np.sort(rng.normal(size=300))
            w = np.exp(x)
            mu, h = EmpiricalMeasure(x[:, None], w / w.sum()), 0.2
        elif case == "unsorted":
            mu, h = _weighted_cloud(rng.normal(size=500), rng), 0.1
        elif case == "beyond_grid":
            mu, h = _cloud(rng.uniform(-4.0, 4.0, size=400)), 0.15
        elif case == "narrow":
            # h below the node spacing of 0.01
            mu, h = _cloud(rng.normal(scale=0.5, size=200)), 0.004
        elif case == "wide":
            mu, h = _cloud(rng.normal(size=200)), 10.0
        else:
            # every node past x = -1 is farther than 8.5 h from every point
            ax = GridAxis(-2.0, 2.0, 801)
            mu, h = _weighted_cloud(rng.normal(-1.7, 0.05, size=100), rng), 0.05
        got = kde_1d(mu, ax, h).values
        want = _dense_kde(mu, ax, h)
        assert np.max(np.abs(got - want)) <= 1e-13 * want.max()

    def test_windowed_matches_dense_across_point_chunks(self, monkeypatch):
        # windows longer than one chunk of points are summed chunk by chunk
        monkeypatch.setattr(mvsim.measures, "_CHUNK_ELEMENTS", 32 * 7)
        rng = np.random.default_rng(8)
        mu = _weighted_cloud(rng.normal(size=250), rng)
        ax = GridAxis(-3.0, 3.0, 101)
        want = _dense_kde(mu, ax, 0.3)
        got = kde_1d(mu, ax, 0.3).values
        assert np.max(np.abs(got - want)) <= 1e-13 * want.max()

    def test_cloud_out_of_reach_of_every_node(self):
        # the dense kernel renormalized exp(-36)-sized tails here; the
        # windowed one sees no point within 8.5 h of any node
        mu = _cloud([1.0 + 8.6 * 0.1, 1.0 + 9.0 * 0.1])
        with pytest.raises(ValueError, match="all kernel mass fell outside the grid"):
            kde_1d(mu, GridAxis(-1.0, 1.0, 41), 0.1)
        near = kde_1d(_cloud([1.0 + 8.4 * 0.1]), GridAxis(-1.0, 1.0, 41), 0.1)
        assert near.values[-1] > 0.0

    def test_statistics_gap_shrinks_under_refinement(self):
        # gap between grid and empirical statistics is O(h^2) for smooth phi,
        # so refining the grid and halving the bandwidth cuts it by >= 2
        rng = np.random.default_rng(17)
        mu = _cloud(rng.standard_normal(500))
        phi = StatisticFunctional("sq", lambda p: p[..., 0] ** 2)
        target = empirical_statistics(mu, (phi,))[0]
        gaps = []
        for nodes, h in ((801, 0.2), (1601, 0.1)):
            kde = kde_1d(mu, GridAxis(-8.0, 8.0, nodes), h)
            gaps.append(abs(grid_statistics(kde, (phi,))[0] - target))
        assert gaps[1] <= 0.6 * gaps[0]


class TestW2:
    def test_identical_clouds(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=30)
        assert w2_empirical_1d(_cloud(pts), _cloud(pts)) == 0.0

    def test_singleton_translation(self):
        assert w2_empirical_1d(_cloud([0.0]), _cloud([2.5])) == pytest.approx(2.5)

    def test_two_atoms_versus_enumeration(self):
        # {0,1} vs {0,3}: costs (0+4)/2 = 2 and (9+1)/2 = 5, so W2 = sqrt(2)
        got = w2_empirical_1d(_cloud([0.0, 1.0]), _cloud([0.0, 3.0]))
        assert got == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert got == pytest.approx(_two_atom_w2(0.0, 1.0, 0.0, 3.0), abs=1e-12)

    def test_random_pairs_match_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a = rng.normal(size=2)
            b = rng.normal(size=2)
            got = w2_empirical_1d(_cloud(a), _cloud(b))
            assert got == pytest.approx(_two_atom_w2(*a, *b), abs=1e-10)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            a, b, c = (_cloud(rng.normal(size=n) * rng.uniform(0.5, 2.0))
                       for _ in range(3))
            assert w2_empirical_1d(a, b) == w2_empirical_1d(b, a)
            assert (w2_empirical_1d(a, c)
                    <= w2_empirical_1d(a, b) + w2_empirical_1d(b, c) + 1e-10)

    def test_coupling_upper_bound(self):
        # transporting along the pairing can never beat the optimal coupling
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = rng.normal(size=n) * rng.uniform(0.2, 3.0)
            y = x + rng.normal(size=n) * rng.uniform(0.0, 2.0)
            rms = math.sqrt(float(np.mean((x - y) ** 2)))
            assert w2_empirical_1d(_cloud(x), _cloud(y)) <= rms + 1e-10

    def test_weighted_quantile_coupling(self):
        # unequal weights: {0 w=3/4, 1 w=1/4} vs {0 w=1/4, 1 w=3/4}
        # quantile functions differ on u in (1/4, 3/4), squared gap 1 there
        a = EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.75, 0.25]))
        b = EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
        assert w2_empirical_1d(a, b) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_dimension_mismatch(self):
        a = _cloud([0.0])
        b = EmpiricalMeasure(np.zeros((1, 2)), np.ones(1))
        with pytest.raises(ValueError, match="1D"):
            w2_empirical_1d(a, b)

    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 20000])
    def test_equal_weights_pair_by_rank_as_the_merge(self, n):
        # equal weights share one partition: rank pairing has the merge's bits
        rng = np.random.default_rng(n)
        a = _cloud(_tied_points(rng, n))
        for b in (_cloud(_tied_points(rng, n)), _cloud(a.points[::-1] + 0.25), a):
            assert w2_empirical_1d(a, b) == _merged_w2(a, b)
            assert w2_empirical_1d(b, a) == _merged_w2(b, a)

    def test_equal_weights_skip_the_merge(self, monkeypatch):
        rng = np.random.default_rng(5)
        a, b = _cloud(_tied_points(rng, 500)), _cloud(_tied_points(rng, 500))
        want = _merged_w2(a, b)

        def no_merge(*args, **kwargs):
            raise AssertionError("equal partitions were merged")

        monkeypatch.setattr(np, "union1d", no_merge)
        assert w2_empirical_1d(a, b) == want

    def test_other_weights_take_the_merge(self):
        rng = np.random.default_rng(12)
        a = _weighted_cloud(_tied_points(rng, 300), rng)
        same_w = EmpiricalMeasure(_tied_points(rng, 300)[:, None], a.weights)
        for b in (_weighted_cloud(_tied_points(rng, 300), rng), same_w,
                  _cloud(_tied_points(rng, 300)), _cloud(_tied_points(rng, 77))):
            assert w2_empirical_1d(a, b) == _merged_w2(a, b)
        # a zero weight leaves the partition's first piece empty
        z = EmpiricalMeasure([[0.0], [1.0], [3.0]], [0.0, 0.5, 0.5])
        y = EmpiricalMeasure([[-1.0], [2.0], [2.5]], [0.0, 0.5, 0.5])
        assert w2_empirical_1d(z, y) == _merged_w2(z, y)
        assert w2_empirical_1d(z, y) == pytest.approx(math.sqrt(0.625), abs=1e-15)


class TestSortOnce:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_sorted_once_read_only(self, weighted):
        rng = np.random.default_rng(3)
        pts = _tied_points(rng, 50)
        if weighted:
            mu = _weighted_cloud(pts, rng)
        else:
            # signed zeros among the ties: an equal-weight sort may order
            # them either way, and only the values are pinned
            pts[::7] = -0.0
            pts[3::7] = 0.0
            mu = _cloud(pts)
        x, w, c = mu.sorted_1d
        assert mu.sorted_1d[0] is x
        order = np.argsort(mu.points[:, 0], kind="stable")
        assert np.all(x == mu.points[order, 0])
        assert np.array_equal(w, mu.weights[order])
        assert np.array_equal(c, np.cumsum(mu.weights[order]))
        for arr in (x, w, c):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_multivariate_cloud_has_no_sort(self):
        with pytest.raises(ValueError, match="1D"):
            _cloud(np.zeros((3, 2))).sorted_1d

    @pytest.mark.parametrize("weighted", [False, True])
    def test_warm_sort_gives_the_fresh_results(self, weighted):
        rng = np.random.default_rng(6)
        make = (lambda pts: _weighted_cloud(pts, rng)) if weighted else _cloud
        mu, nu = make(_tied_points(rng, 2000)), make(_tied_points(rng, 2000) + 0.1)
        ax = GridAxis(-5.0, 5.0, 301)
        p = _gaussian_grid(ax)
        warm = [kde_1d(mu, ax).values, w2_empirical_1d(mu, nu),
                w2_cloud_vs_density_1d(mu, p)]
        again = [kde_1d(mu, ax).values, w2_empirical_1d(mu, nu),
                 w2_cloud_vs_density_1d(mu, p)]
        mu2, nu2 = (EmpiricalMeasure(m.points, m.weights) for m in (mu, nu))
        fresh = [kde_1d(mu2, ax).values, w2_empirical_1d(mu2, nu2),
                 w2_cloud_vs_density_1d(mu2, p)]
        for got in (again, fresh):
            assert np.array_equal(got[0], warm[0])
            assert got[1:] == warm[1:]


class TestSlicedW2:
    def test_identical(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(20, 3))
        mu = EmpiricalMeasure(pts, np.full(20, 0.05))
        assert w2_sliced(mu, mu, 64, seed=0) == 0.0

    @pytest.mark.parametrize("n,d,n_slices,seed", [(2000, 2, 64, 0), (37, 3, 5, 4),
                                                   (1, 2, 16, 1), (500, 2, 128, 7)])
    def test_equal_weights_match_the_coupling_loop(self, n, d, n_slices, seed):
        rng = np.random.default_rng(n + seed)
        a = EmpiricalMeasure.from_samples(rng.normal(size=(n, d)))
        b = EmpiricalMeasure.from_samples(rng.normal(0.3, 1.5, size=(n, d)))
        want = _sliced_loop(a, b, n_slices, seed)
        assert w2_sliced(a, b, n_slices, seed) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_equal_weights_across_slice_chunks(self, monkeypatch):
        # 3 slices per projection when the chunk holds 3 * 100 elements
        monkeypatch.setattr(mvsim.measures, "_CHUNK_ELEMENTS", 300)
        rng = np.random.default_rng(15)
        a = EmpiricalMeasure.from_samples(rng.normal(size=(100, 2)))
        b = EmpiricalMeasure.from_samples(rng.normal(size=(100, 2)) + 0.5)
        want = _sliced_loop(a, b, 10, 2)
        assert w2_sliced(a, b, 10, 2) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_unequal_sizes_take_the_coupling_loop(self):
        rng = np.random.default_rng(23)
        a = EmpiricalMeasure.from_samples(rng.normal(size=(40, 2)))
        b = EmpiricalMeasure.from_samples(rng.normal(size=(55, 2)))
        assert w2_sliced(a, b, 32, seed=3) == _sliced_loop(a, b, 32, 3)

    def test_unequal_weights_take_the_coupling_loop(self):
        rng = np.random.default_rng(24)
        pts = rng.normal(size=(40, 2))
        a = _weighted_cloud(pts, rng)
        b = EmpiricalMeasure.from_samples(pts + 0.2)
        assert w2_sliced(a, b, 32, seed=3) == _sliced_loop(a, b, 32, 3)
        assert w2_sliced(a, a, 32, seed=3) == _sliced_loop(a, a, 32, 3)

    def test_translation_norm_over_sqrt_d(self):
        # E[(theta . v)^2] = |v|^2/d for uniform unit directions
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(64, 3))
        v = np.array([1.0, -2.0, 2.0])
        a = EmpiricalMeasure(pts, np.full(64, 1 / 64))
        b = EmpiricalMeasure(pts + v, np.full(64, 1 / 64))
        got = w2_sliced(a, b, 256, seed=0)
        assert got == pytest.approx(np.linalg.norm(v) / math.sqrt(3), rel=0.05)

    def test_singletons_match_direct_average(self):
        p = np.array([0.3, -1.2])
        q = np.array([1.1, 0.4])
        a = EmpiricalMeasure(p[None, :], np.ones(1))
        b = EmpiricalMeasure(q[None, :], np.ones(1))
        theta = sliced_directions(2, 128, seed=5)
        direct = math.sqrt(float(np.mean((theta @ (p - q)) ** 2)))
        assert w2_sliced(a, b, 128, seed=5) == pytest.approx(direct, abs=1e-12)

    def test_seed_determinism(self):
        rng = np.random.default_rng(6)
        a = EmpiricalMeasure(rng.normal(size=(10, 2)), np.full(10, 0.1))
        b = EmpiricalMeasure(rng.normal(size=(10, 2)), np.full(10, 0.1))
        assert w2_sliced(a, b, 32, seed=9) == w2_sliced(a, b, 32, seed=9)

    def test_bad_slice_count(self):
        rng = np.random.default_rng(6)
        a = EmpiricalMeasure(rng.normal(size=(4, 2)), np.full(4, 0.25))
        with pytest.raises(ValueError):
            w2_sliced(a, a, 0, seed=0)


class TestDiracDistance:
    def test_at_origin(self):
        assert w2_to_dirac0(_cloud([0.0, 0.0])) == 0.0

    def test_pythagorean_point(self):
        mu = EmpiricalMeasure(np.array([[3.0, 4.0]]), np.ones(1))
        assert w2_to_dirac0(mu) == pytest.approx(5.0)

    def test_symmetric_pair(self):
        assert w2_to_dirac0(_cloud([1.0, -1.0])) == pytest.approx(1.0)


class TestL1Distance:
    def test_identical(self):
        p = _gaussian_grid(GridAxis(-8.0, 8.0, 401))
        assert l1_grid_distance(p, p) == 0.0

    def test_disjoint_boxes(self):
        ax = GridAxis(0.0, 2.0, 2001)
        nodes = ax.nodes()
        left = np.where(nodes <= 1.0, 1.0, 0.0)
        right = np.where(nodes >= 1.0, 1.0, 0.0)
        left /= np.trapezoid(left, nodes)
        right /= np.trapezoid(right, nodes)
        p = GridDensity((ax,), left, mass_tol=1e-9)
        r = GridDensity((ax,), right, mass_tol=1e-9)
        assert l1_grid_distance(p, r) == pytest.approx(2.0, abs=0.01)

    def test_shifted_gaussians(self):
        # exact L1 between N(0,1) and N(0.1,1): densities cross at the
        # midpoint 0.05, giving 2*(Phi(0.05) - Phi(-0.05))
        ax = GridAxis(-8.0, 8.0, 3201)
        p = _gaussian_grid(ax, mean=0.0)
        r = _gaussian_grid(ax, mean=0.1)
        expected = 2.0 * (norm.cdf(0.05) - norm.cdf(-0.05))
        assert l1_grid_distance(p, r) == pytest.approx(expected, abs=1e-4)

    def test_grid_mismatch(self):
        p = _gaussian_grid(GridAxis(-8.0, 8.0, 401))
        r = _gaussian_grid(GridAxis(-8.0, 8.0, 801))
        with pytest.raises(ValueError, match="grids differ"):
            l1_grid_distance(p, r)


class TestContainers:
    def test_weights_must_normalize(self):
        with pytest.raises(ValueError, match="sum to"):
            EmpiricalMeasure(np.zeros((2, 1)), np.array([0.5, 0.4]))

    def test_weights_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            EmpiricalMeasure(np.zeros((2, 1)), np.array([1.5, -0.5]))

    def test_points_finite(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.array([[np.nan]]), np.ones(1))

    def test_cloud_owns_read_only_arrays(self):
        pts, w = np.array([[0.0], [1.0]]), np.array([0.5, 0.5])
        mu = EmpiricalMeasure(pts, w)
        assert not np.shares_memory(mu.points, pts)
        assert not np.shares_memory(mu.weights, w)
        pts[0, 0], w[:] = 5.0, (0.9, 0.1)
        assert mu.points[0, 0] == 0.0 and mu.weights[0] == 0.5
        for arr in (mu.points, mu.weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            mu.points = pts

    def test_from_samples_uniform_weights(self):
        mu = EmpiricalMeasure.from_samples(np.arange(4.0)[:, None])
        np.testing.assert_allclose(mu.weights, 0.25)

    def test_grid_density_mass_window(self):
        ax = GridAxis(-1.0, 1.0, 21)
        with pytest.raises(ValueError, match="trapezoid mass"):
            GridDensity((ax,), np.ones(21), mass_tol=1e-6)

    def test_nan_density_refused(self):
        # a NaN mass is outside every window, the widest included
        ax = GridAxis(-1.0, 1.0, 21)
        for tol in (1e-6, math.inf):
            with pytest.raises(ValueError, match="trapezoid mass nan"):
                GridDensity((ax,), np.full(21, math.nan), mass_tol=tol)
        for h in (math.nan, math.inf):
            with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
                kde_1d(_cloud([0.0, 1.0]), ax, bandwidth=h)

    def test_infinite_density_refused_under_an_infinite_window(self):
        # abs(inf - 1) <= inf holds, so the window alone would let it through
        ax = GridAxis(-1.0, 1.0, 21)
        with pytest.raises(ValueError, match="trapezoid mass inf"):
            GridDensity((ax,), np.full(21, math.inf), mass_tol=math.inf)

    def test_nan_weight_refused(self):
        with pytest.raises(ValueError, match="weights"):
            EmpiricalMeasure(np.zeros((2, 1)), np.array([math.nan, 1.0]))

    def test_statistic_flow_refuses_a_nan_time(self):
        for times in ([0.0, math.nan, 1.0], [math.nan]):
            with pytest.raises(ValueError, match="times must be finite"):
                StatisticFlow(times, np.zeros((len(times), 1)))

    def test_grid_rules_2d_are_the_outer_product_and_meshgrid(self):
        axes = (GridAxis(-1.5, 2.0, 7), GridAxis(0.25, 3.0, 5))
        p = GridDensity(axes, np.random.default_rng(4).random((7, 5)), mass_tol=math.inf)
        assert np.array_equal(p.node_weights(),
                              np.outer(trapezoid_weights(axes[0]), trapezoid_weights(axes[1])))
        xx, yy = np.meshgrid(axes[0].nodes(), axes[1].nodes(), indexing="ij")
        assert np.array_equal(p.node_coords(), np.column_stack([xx.ravel(), yy.ravel()]))

    def test_grid_rules_1d_are_the_axis_own(self):
        axis = GridAxis(-3.0, 4.5, 31)
        p = GridDensity((axis,), np.random.default_rng(4).random(31), mass_tol=math.inf)
        assert np.array_equal(p.node_weights(), trapezoid_weights(axis))
        assert p.node_coords().shape == (31, 1)
        assert np.array_equal(p.node_coords(), axis.nodes()[:, None])

    def test_grid_axis_validation(self):
        with pytest.raises(ValueError, match="inverted"):
            GridAxis(1.0, -1.0, 11)
        with pytest.raises(ValueError, match="at least 2"):
            GridAxis(0.0, 1.0, 1)

    def test_grid_axis_refuses_non_finite_bounds(self):
        for lo, hi in ((0.0, math.inf), (-math.inf, 0.0)):
            with pytest.raises(ValueError, match="not finite"):
                GridAxis(lo, hi, 5)

    def test_spacing_uniform(self):
        ax = GridAxis(-2.0, 2.0, 5)
        assert ax.spacing == 1.0
        np.testing.assert_allclose(np.diff(ax.nodes()), 1.0)


def _row_csv(header, rows):
    """Reference serialization, one row at a time: a float cell (numpy
    floats included) as ``repr(float(v))``, any other cell as ``str(v)``."""
    return "".join([header + "\n"] + [
        ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in rows])


class TestSerialization:
    def test_density_csv_bytes_1d(self, tmp_path):
        p = _gaussian_grid(GridAxis(-5.0, 5.0, 201))
        path = tmp_path / "p.csv"
        grid_density_to_csv(p, path)
        want = _row_csv("x,p", zip(p.axes[0].nodes(), p.values))
        assert path.read_bytes() == want.encode()

    def test_density_csv_bytes_2d_non_square(self, tmp_path):
        # 7 x 5 nodes on different ranges: a swapped axis changes the bytes
        axes = (GridAxis(-1.5, 2.0, 7), GridAxis(0.25, 3.0, 5))
        vals = np.random.default_rng(4).random((7, 5))
        p = GridDensity(axes, vals, mass_tol=math.inf)
        path = tmp_path / "p2.csv"
        grid_density_to_csv(p, path)
        want = _row_csv("x,y,p", [(x, y, vals[i, j])
                                  for i, x in enumerate(axes[0].nodes())
                                  for j, y in enumerate(axes[1].nodes())])
        assert path.read_bytes() == want.encode()

    def test_empirical_csv_bytes_three_columns(self, tmp_path):
        mu = EmpiricalMeasure.from_samples(np.random.default_rng(5).normal(size=(11, 3)))
        path = tmp_path / "mu.csv"
        empirical_to_csv(mu, path)
        want = _row_csv("w,x1,x2,x3", [(w, *row) for w, row in zip(mu.weights, mu.points)])
        assert path.read_bytes() == want.encode()

    def test_mixed_table_bytes(self, tmp_path):
        a = np.array([0.1, -0.0, 1 / 3, 5e-324, 1e300, np.nan, -np.inf])
        b = np.linspace(-1.0, 1.0, a.size, dtype=np.float32)
        flag = a > 0.2
        path = tmp_path / "t.csv"
        write_csv(path, "i,a,flag,b", [range(a.size), a, flag.astype(int), b])
        want = _row_csv("i,a,flag,b", [(i, float(x), int(h), float(y))
                                       for i, (x, h, y) in enumerate(zip(a, flag, b))])
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("columns", [
        [np.full(6, 0.05), np.arange(6.0)],                    # constant column
        [np.array([0.0, -0.0, 0.0]), np.full(3, -0.0)],        # signed zeros
        [np.full(4, 0.0), np.array([-0.0, -0.0, -0.0, 0.0])],
        [range(5), np.full(5, 7), np.array([3, 3, 3, 3, -1])],  # int columns
        [np.full(3, np.nan), np.array([np.inf, np.inf, np.inf])],
        [np.array([1.5]), range(1), np.array([-0.0])],         # one row
        [np.full((3, 2), 0.25).T[0], np.arange(6.0)[::2]],     # strided views
    ])
    def test_table_bytes_match_repr_per_value(self, tmp_path, columns):
        path = tmp_path / "t.csv"
        write_csv(path, "a,b,c"[:2 * len(columns) - 1], columns)
        rows = zip(*(np.asarray(c).tolist() for c in columns))
        assert path.read_bytes() == _row_csv("a,b,c"[:2 * len(columns) - 1],
                                             rows).encode()

    @pytest.mark.parametrize("vals", ["random", "constant"])
    def test_density_csv_bytes_2d_match_repr_per_value(self, tmp_path, vals):
        axes = (GridAxis(-1.0, 1.0, 5), GridAxis(-0.3, 0.9, 4))
        values = np.random.default_rng(2).random((5, 4)) if vals == "random" \
            else np.full((5, 4), 0.125)
        p = GridDensity(axes, values, mass_tol=math.inf)
        path = tmp_path / "g.csv"
        grid_density_to_csv(p, path)
        rows = [(*xy, v) for xy, v in zip(p.node_coords().tolist(),
                                          p.values.ravel().tolist())]
        assert path.read_bytes() == _row_csv("x,y,p", rows).encode()

    def test_empty_table_is_the_header(self, tmp_path):
        path = tmp_path / "e.csv"
        write_csv(path, "iter,gap", [range(0), np.empty(0)])
        assert path.read_bytes() == b"iter,gap\n"

    @pytest.mark.parametrize("n", [0, mvsim.measures._ROWS_PER_WRITE - 1,
                                   mvsim.measures._ROWS_PER_WRITE])
    def test_rows_stream_in_chunks_with_the_joined_bytes(self, tmp_path, monkeypatch, n):
        # zero rows, exactly one chunk (the header is its first line), and one
        # row past a chunk boundary
        cells = [[str(i) for i in range(n)], [repr(i / 7) for i in range(n)]]
        rows = [",".join(row) for row in zip(*cells)]
        widest = []

        def tracked_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            write = fh.write
            fh.write = lambda text: (widest.append(text.count("\n")), write(text))[1]
            return fh

        monkeypatch.setattr(mvsim.measures, "open", tracked_open, raising=False)
        path = tmp_path / "rows.csv"
        mvsim.measures._write_rows(path, "i,v", cells)
        assert path.read_bytes() == ("\n".join(["i,v", *rows]) + "\n").encode()
        assert max(widest) <= mvsim.measures._ROWS_PER_WRITE

    def test_density_csv_roundtrip_1d(self, tmp_path):
        p = _gaussian_grid(GridAxis(-5.0, 5.0, 201))
        path = tmp_path / "p.csv"
        grid_density_to_csv(p, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,p"
        assert len(lines) == 202
        back = grid_density_from_csv(path)
        np.testing.assert_allclose(back.values, p.values)

    def test_density_csv_roundtrip_2d_non_square(self, tmp_path):
        axes = (GridAxis(-1.5, 2.0, 7), GridAxis(0.25, 3.0, 5))
        vals = np.random.default_rng(4).random((7, 5))
        path = tmp_path / "p2.csv"
        grid_density_to_csv(GridDensity(axes, vals, mass_tol=math.inf), path)
        back = grid_density_from_csv(path, mass_tol=math.inf)
        assert back.axes == axes
        assert np.array_equal(back.values, vals)

    def test_density_csv_2d_header_and_rowmajor(self, tmp_path):
        ax = GridAxis(-4.0, 4.0, 41)
        g = norm.pdf(ax.nodes())
        vals = np.outer(g, g)
        p = GridDensity((ax, ax), vals, mass_tol=1e-2)
        path = tmp_path / "p2.csv"
        grid_density_to_csv(p, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,p"
        assert len(lines) == 1 + 41 * 41
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert float(first[0]) == float(second[0])  # x varies slowest

    def test_empirical_csv(self, tmp_path):
        mu = EmpiricalMeasure(np.array([[1.0, 2.0], [3.0, 4.0]]),
                              np.array([0.5, 0.5]))
        path = tmp_path / "mu.csv"
        empirical_to_csv(mu, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "w,x1,x2"
        assert len(lines) == 3


class TestMarginalsAndQuantiles:
    def test_product_gaussian_marginal(self):
        ax = GridAxis(-6.0, 6.0, 301)
        g = norm.pdf(ax.nodes())
        p = GridDensity((ax, ax), np.outer(g, g), mass_tol=1e-3)
        m = grid_marginal(p, 0)
        expect = _gaussian_grid(ax)
        assert l1_grid_distance(m, expect) < 1e-3

    def test_marginal_of_1d_density_is_its_values(self):
        p = _gaussian_grid(GridAxis(-5.0, 5.0, 101), mean=0.3)
        m = grid_marginal(p, 0)
        assert m.axes == p.axes
        assert np.array_equal(m.values, p.values)
        with pytest.raises(ValueError, match="axis_index"):
            grid_marginal(p, 1)

    @pytest.mark.parametrize("axis_index", [0, 1])
    def test_marginal_2d_integrates_out_the_other_axis(self, axis_index):
        axes = (GridAxis(-1.5, 2.0, 7), GridAxis(0.25, 3.0, 5))
        vals = np.random.default_rng(6).random((7, 5))
        m = grid_marginal(GridDensity(axes, vals, mass_tol=math.inf), axis_index)
        other = 1 - axis_index
        # the trapezoid rule along the other axis, summed in einsum's one fixed order
        want = np.einsum("ij,j->i" if other else "ij,i->j", vals, trapezoid_weights(axes[other]))
        assert m.axes == (axes[axis_index],)
        assert np.array_equal(m.values, want)

    def test_kde_and_marginal_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS splits a matrix-vector product over its long axis when the
        # output is short: a KDE node block of one column over 40,000 points,
        # and an 801^2 grid integrated over its first axis, each gave other
        # bits at two threads than at one when they went through BLAS
        script = tmp_path / "probe.py"
        script.write_text(
            "import hashlib, numpy as np\n"
            "from mvsim.measures import EmpiricalMeasure, GridAxis, GridDensity, grid_marginal, kde_1d\n"
            "rng = np.random.default_rng(0)\n"
            "mu = EmpiricalMeasure.from_samples(rng.standard_normal((40000, 1)))\n"
            "kde = kde_1d(mu, GridAxis(-1.0, 1.0, 33), bandwidth=1.0)\n"
            "ax = GridAxis(-1.0, 1.0, 801)\n"
            "p = GridDensity((ax, ax), rng.random((801, 801)), mass_tol=np.inf)\n"
            "print(hashlib.sha256(kde.values.tobytes() + grid_marginal(p, 1).values.tobytes()).hexdigest())\n")
        src = str(Path(mvsim.measures.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2", "4"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, (src, os.environ.get("PYTHONPATH")))))
            digests.add(subprocess.run([sys.executable, str(script)], env=env, check=True,
                                       capture_output=True, text=True).stdout)
        assert len(digests) == 1

    def test_cloud_versus_density_quantile_metric(self):
        # singleton at c against N(0,1): W2^2 = c^2 + 1
        p = _gaussian_grid(GridAxis(-10.0, 10.0, 4001))
        mu = _cloud([2.0])
        got = w2_cloud_vs_density_1d(mu, p, n_quantiles=8192)
        assert got == pytest.approx(math.sqrt(5.0), rel=1e-3)

    def test_cloud_versus_density_needs_a_quantile(self):
        p = _gaussian_grid(GridAxis(-10.0, 10.0, 401))
        with pytest.raises(ValueError, match="at least one quantile"):
            w2_cloud_vs_density_1d(_cloud([2.0]), p, n_quantiles=0)


_AX = GridAxis(-1.0, 1.0, 5)
_FLAT = GridDensity((_AX,), np.full(5, 0.5), mass_tol=1e-12)
_PLANE = EmpiricalMeasure.from_samples(np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]))


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: EmpiricalMeasure(np.zeros((3, 1)), np.full(2, 0.5)),
                 "3 points but 2 weights", id="cloud-count-mismatch"),
    pytest.param(lambda: GridDensity((_AX,) * 3, np.full((5, 5, 5), 0.25)),
                 "only 1D and 2D grids are supported", id="grid-three-axes"),
    pytest.param(lambda: GridDensity((_AX,), np.full(4, 0.5)),
                 r"values shape \(4,\), grid wants \(5,\)", id="grid-shape"),
    pytest.param(lambda: StatisticFlow(np.arange(3.0), np.zeros(3)),
                 r"stats shape \(3,\) incompatible with 3 times", id="flow-shape"),
    pytest.param(lambda: StatisticFlow(np.arange(3.0), np.array([[0.0], [np.inf], [0.0]])),
                 "statistic flow contains non-finite entries", id="flow-non-finite"),
    pytest.param(lambda: silverman_bandwidth(_PLANE), "bandwidth rule applies to 1D clouds",
                 id="bandwidth-2d"),
    pytest.param(lambda: silverman_bandwidth(_cloud([1.0, 1.0, 1.0])),
                 "degenerate cloud", id="bandwidth-degenerate"),
    pytest.param(lambda: kde_1d(_PLANE, _AX), "kde_1d expects a 1D cloud", id="kde-2d"),
    pytest.param(lambda: w2_sliced(_PLANE, _cloud([0.0, 1.0])), "dimension mismatch: 2 vs 1",
                 id="sliced-dimension-mismatch"),
    pytest.param(lambda: mvsim.measures.grid_cdf_quantiles(
        GridDensity((_AX, _AX), np.full((5, 5), 0.25)), np.array([0.5])),
                 "quantiles require a 1D density", id="quantiles-2d"),
    pytest.param(lambda: w2_cloud_vs_density_1d(_PLANE, _FLAT),
                 "both arguments must be one-dimensional", id="cloud-vs-density-2d-cloud"),
    pytest.param(lambda: w2_cloud_vs_density_1d(
        _cloud([0.0, 1.0]), GridDensity((_AX, _AX), np.full((5, 5), 0.25))),
                 "both arguments must be one-dimensional", id="cloud-vs-density-2d-grid"),
])
def test_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
