"""Probability-measure containers and distances.

Two representations are used throughout: weighted particle clouds
(``EmpiricalMeasure``) and densities sampled on uniform grids
(``GridDensity``, one or two axes).  Distances follow the quadratic
Wasserstein metric: exact quantile coupling in one dimension, a sliced
reduction above it, and L1 for same-grid densities.

Every CSV value the package writes is formatted by one formatter, ``_reprs``,
as Python's ``repr`` of the plain int or float, so the round trip through
text is exact, and written by one row writer, ``_write_rows``, which streams
the rows in bounded chunks: ``write_csv`` formats each column once,
``grid_density_to_csv`` each axis node once.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import NumericError

SQRT2PI = math.sqrt(2.0 * math.pi)
# kde_1d drops points beyond this many bandwidths from a node, where the
# kernel is below exp(-0.5 * 8.5**2) = 2.1e-16 of its peak
_KDE_CUTOFF = 8.5
_KDE_BLOCK = 32
# largest temporary a kernel builds at once, in float64 elements (32 MB)
_CHUNK_ELEMENTS = 4_000_000
# CSV lines joined into one write
_ROWS_PER_WRITE = 4096


class _OffGrid(ValueError):
    """``kde_1d``'s refusal of a cloud whose every kernel fell outside the grid."""


def _owned(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a``: nothing else can write to it or pin its base."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted particle cloud: ``points`` (N, d), ``weights`` (N,) summing to 1.

    The cloud owns its arrays and they are read-only, so a snapshot of a path
    array does not keep that array alive, and ``sorted_1d`` can be computed
    once per cloud.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = np.atleast_2d(_owned(self.points))
        weights = _owned(self.weights).reshape(-1)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if points.shape[0] != weights.shape[0]:
            raise ValueError(f"{points.shape[0]} points but {weights.shape[0]} weights")
        if not np.all(np.isfinite(points)):
            raise ValueError("cloud contains non-finite points")
        if not np.all(weights >= 0):
            raise ValueError("weights must be nonnegative numbers")
        total = float(weights.sum())
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {total}, expected 1 within 1e-12")

    @classmethod
    def from_samples(cls, points: np.ndarray) -> "EmpiricalMeasure":
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = points.shape[0]
        return cls(points, np.full(n, 1.0 / n))

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @cached_property
    def sorted_1d(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A 1D cloud in ascending order, made on first use: the sorted
        points, their weights and the cumulative sum of those weights.

        An equal-weight cloud sorts its values alone and keeps its weights,
        which no permutation changes.  Tied values are then interchangeable:
        the only ties a sort can tell apart are ``-0.0`` and ``0.0``, and
        every reader subtracts a node or another point before squaring.
        Unequal weights take a stable sort, which fixes the order of the
        weights of tied points and so the bits of the cumulative sum.
        """
        if self.d != 1:
            raise ValueError("sorting applies to 1D clouds")
        v, w = self.points[:, 0], self.weights
        if np.all(w == w[0]):
            x = np.sort(v)
        else:
            order = np.argsort(v, kind="stable")
            x, w = v[order], w[order]
        c = np.cumsum(w)
        for a in (x, w, c):
            a.flags.writeable = False
        return x, w, c


@dataclass(frozen=True)
class GridAxis:
    """Uniform 1D axis with ``n`` nodes spanning [lo, hi]."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("axis needs at least 2 nodes")
        if not (self.hi > self.lo and math.isfinite(self.hi - self.lo)):
            raise ValueError(f"axis bounds inverted or not finite: [{self.lo}, {self.hi}]")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)


def trapezoid_weights(axis: GridAxis) -> np.ndarray:
    w = np.full(axis.n, axis.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _node_weights(axes: tuple[GridAxis, ...]) -> np.ndarray:
    """Trapezoid weights of every node of a grid: the outer product of its
    axes' weights (in 1D, the axis's own)."""
    return reduce(np.multiply.outer, map(trapezoid_weights, axes))


@dataclass
class GridDensity:
    """Density values on the nodes of a uniform grid of one or two axes.

    Every grid rule below is written for any number of axes, so a 1D grid is
    the one-axis case.  Values may dip slightly negative (explicit schemes
    undershoot); the trapezoid mass must be finite and within ``mass_tol`` of 1.
    """

    axes: tuple[GridAxis, ...]
    values: np.ndarray
    time: float = 0.0
    mass_tol: float = 1e-6

    def __post_init__(self):
        self.axes = tuple(self.axes)
        if len(self.axes) not in (1, 2):
            raise ValueError("only 1D and 2D grids are supported")
        self.values = np.asarray(self.values, dtype=float)
        want = tuple(ax.n for ax in self.axes)
        if self.values.shape != want:
            raise ValueError(f"values shape {self.values.shape}, grid wants {want}")
        m = self.mass()
        if not (math.isfinite(m) and abs(m - 1.0) <= self.mass_tol):
            raise ValueError(
                f"trapezoid mass {m} outside 1 +- {self.mass_tol}")

    @property
    def dim(self) -> int:
        return len(self.axes)

    def node_weights(self) -> np.ndarray:
        return _node_weights(self.axes)

    def mass(self) -> float:
        return float(np.sum(self.node_weights() * self.values))

    def node_coords(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes_total, dim), row-major."""
        grids = np.meshgrid(*(ax.nodes() for ax in self.axes), indexing="ij")
        return np.column_stack([g.ravel() for g in grids])


@dataclass
class StatisticFlow:
    """Statistic vector s as a function of time on a fixed grid: (len(times), q)."""

    times: np.ndarray
    stats: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.stats = np.asarray(self.stats, dtype=float)
        if self.stats.ndim != 2 or self.stats.shape[0] != self.times.shape[0]:
            raise ValueError(
                f"stats shape {self.stats.shape} incompatible with {self.times.shape[0]} times")
        if not (np.all(np.isfinite(self.times)) and np.all(np.diff(self.times) > 0)):
            raise ValueError("times must be finite and strictly increasing")
        if not np.all(np.isfinite(self.stats)):
            raise ValueError("statistic flow contains non-finite entries")


def _weighted_sum(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_n rows[..., n] weights[n], shape ``rows.shape[:-1]``: every sum
    over a cloud or a grid, one or many rows at a time.  ``einsum`` at its
    default ``optimize=False`` runs on one thread in an order set by the shapes,
    so unlike a BLAS dot or matrix-vector product, which splits a long sum
    across threads, its bits do not depend on the BLAS thread count."""
    return np.einsum("...n,n->...", rows, weights)


def _weighted_statistics(points: np.ndarray, weights: np.ndarray, functionals) -> np.ndarray:
    """s_k = sum_i w_i phi_k(x_i) over a cloud by ``_weighted_sum``, shape (q,);
    a non-finite phi_k(x_i) is an error naming the functional and the particle i.

    A non-finite phi_k(x_i) makes s_k non-finite, even at a zero weight, so
    only a non-finite s_k is scanned for its cause; finite values whose
    weighted sum overflows give an infinite s_k and no error."""
    out = np.empty(len(functionals))
    for k, f in enumerate(functionals):
        vals = np.asarray(f.phi(points), dtype=float)
        out[k] = _weighted_sum(vals, weights)
        if not math.isfinite(out[k]):
            bad = ~np.isfinite(vals)
            if bad.any():
                raise NumericError(
                    f"functional {f.id!r} is non-finite at particle {int(np.argmax(bad))}")
    return out


def _statistic_rows(p: GridDensity, functionals) -> np.ndarray:
    """Rows r_k with s_k = r_k . p.values.ravel(), shape (q, n_nodes): trapezoid
    weights times phi_k at the nodes; a non-finite phi_k is an error naming
    the functional and the node."""
    w, coords = p.node_weights().ravel(), p.node_coords()
    rows = np.empty((len(functionals), w.size))
    for k, f in enumerate(functionals):
        rows[k] = np.asarray(f.phi(coords), dtype=float)
        bad = ~np.isfinite(rows[k])
        if bad.any():
            raise NumericError(f"functional {f.id!r} is non-finite at node {int(np.argmax(bad))}")
        rows[k] *= w
    return rows


def empirical_statistics(mu: EmpiricalMeasure, functionals) -> np.ndarray:
    """s_k = sum_i w_i phi_k(x_i), shape (q,)."""
    return _weighted_statistics(mu.points, mu.weights, functionals)


def grid_statistics(p: GridDensity, functionals) -> np.ndarray:
    """s_k = trapezoid integral of phi_k(x) p(x), shape (q,), by the reduction
    ``solve_fp`` steps with: the rows of ``_statistic_rows`` summed against the
    values by ``_weighted_sum``."""
    return _weighted_sum(_statistic_rows(p, functionals), p.values.ravel())


def silverman_bandwidth(mu: EmpiricalMeasure) -> float:
    """1.06 sigma_hat n^(-1/5); sigma_hat from the weighted cloud."""
    if mu.d != 1:
        raise ValueError("bandwidth rule applies to 1D clouds")
    x = mu.points[:, 0]
    mean = float(_weighted_sum(x, mu.weights))
    var = float(_weighted_sum((x - mean) ** 2, mu.weights))
    if mu.n > 1 and np.allclose(mu.weights, 1.0 / mu.n):
        var *= mu.n / (mu.n - 1)
    sd = math.sqrt(var)
    if sd <= 0:
        raise ValueError("degenerate cloud: automatic bandwidth undefined")
    return 1.06 * sd * mu.n ** (-0.2)


def kde_1d(mu: EmpiricalMeasure, axis: GridAxis,
           bandwidth: float | str = "auto", time: float = 0.0) -> GridDensity:
    """Gaussian kernel density of a 1D cloud on grid nodes.

    Each node sums only the points within 8.5 bandwidths of it: the kernel
    beyond is below exp(-36) of its peak, so the result differs from the
    dense sum at rounding level.  Nodes go in blocks of ``_KDE_BLOCK``, each
    over the union of its nodes' windows in the sorted cloud.  The result is
    renormalized to unit trapezoid mass, so tail mass beyond the grid is
    folded back in.
    """
    if mu.d != 1:
        raise ValueError("kde_1d expects a 1D cloud")
    h = silverman_bandwidth(mu) if bandwidth == "auto" else float(bandwidth)
    if not 0 < h < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    nodes = axis.nodes()
    x, w, _ = mu.sorted_1d
    first = np.searchsorted(x, nodes - _KDE_CUTOFF * h, side="left")
    stop = np.searchsorted(x, nodes + _KDE_CUTOFF * h, side="right")
    vals = np.zeros(axis.n)
    chunk = _CHUNK_ELEMENTS // _KDE_BLOCK
    for j in range(0, axis.n, _KDE_BLOCK):
        k = min(j + _KDE_BLOCK, axis.n)
        for a in range(first[j], stop[k - 1], chunk):
            b = min(a + chunk, stop[k - 1])
            z = np.subtract.outer(nodes[j:k], x[a:b])
            z /= h
            z *= z
            z *= -0.5
            np.exp(z, out=z)
            vals[j:k] += _weighted_sum(z, w[a:b])
    vals /= h * SQRT2PI
    total = float(_weighted_sum(vals, trapezoid_weights(axis)))
    if total <= 0:
        raise _OffGrid("all kernel mass fell outside the grid")
    vals /= total
    return GridDensity((axis,), vals, time=time, mass_tol=1e-10)


def w2_empirical_1d(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Exact quadratic Wasserstein distance between 1D clouds.

    Uses the quantile coupling: both quantile functions are piecewise
    constant on the merged partition of cumulative weights, so the integral
    of their squared difference is a finite sum.  When both clouds have the
    same strictly increasing cumulative weights (equal-size, equal-weight
    clouds) that partition is their own and the coupling pairs points by rank.
    """
    if a.d != 1 or b.d != 1:
        raise ValueError("exact coupling requires 1D clouds")
    xa, _, ca = a.sorted_1d
    xb, _, cb = b.sorted_1d
    lens = np.diff(ca, prepend=0.0)
    if np.array_equal(ca, cb) and np.all(lens > 0.0):
        gaps = xa - xb
    else:
        cuts = np.union1d(ca, cb)
        cuts = cuts[cuts > 0.0]
        lo = np.concatenate(([0.0], cuts[:-1]))
        lens = cuts - lo
        mids = lo + 0.5 * lens
        ia = np.minimum(np.searchsorted(ca, mids, side="left"), len(xa) - 1)
        ib = np.minimum(np.searchsorted(cb, mids, side="left"), len(xb) - 1)
        gaps = xa[ia] - xb[ib]
    cost = float(_weighted_sum(gaps ** 2, lens))
    return math.sqrt(max(cost, 0.0))


def sliced_directions(d: int, n_slices: int, seed: int) -> np.ndarray:
    """Seeded unit directions on the sphere, shape (n_slices, d)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n_slices, d))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    # resample the (measure-zero) degenerate rows deterministically
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        v[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
    return v / norms


def _project(mu: EmpiricalMeasure, direction: np.ndarray) -> EmpiricalMeasure:
    return EmpiricalMeasure((mu.points @ direction)[:, None], mu.weights)


def w2_sliced(a: EmpiricalMeasure, b: EmpiricalMeasure,
              n_slices: int = 64, seed: int = 0) -> float:
    """Sliced quadratic Wasserstein: RMS over random directions of 1D distances.

    Two clouds of one size and equal weights are projected on all slices at
    once, one row per slice, and paired by rank after one sort per row
    (Bonneel et al. 2015); any other pair takes the quantile coupling slice by
    slice.
    """
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")
    if n_slices < 1:
        raise ValueError(f"need at least one slice, got {n_slices}")
    if a.d == 1:
        return w2_empirical_1d(a, b)
    dirs = sliced_directions(a.d, n_slices, seed)
    if a.n == b.n and np.all(a.weights == a.weights[0]) \
            and np.array_equal(a.weights, b.weights):
        # equal weights: the quantile coupling pairs same-rank points over
        # the pieces between consecutive cumulative weights, so every slice
        # is one row of two sorted projections
        lens = np.diff(np.cumsum(a.weights), prepend=0.0)
        costs = np.empty(n_slices)
        step = max(1, _CHUNK_ELEMENTS // a.n)
        for s in range(0, n_slices, step):
            pa = dirs[s:s + step] @ a.points.T
            pb = dirs[s:s + step] @ b.points.T
            pa.sort()
            pb.sort()
            pa -= pb
            pa *= pa
            costs[s:s + step] = _weighted_sum(pa, lens)
    else:
        costs = [w2_empirical_1d(_project(a, u), _project(b, u)) ** 2 for u in dirs]
    acc = 0.0
    for c in costs:
        acc += float(c)
    return math.sqrt(acc / n_slices)


def w2_to_dirac0(mu: EmpiricalMeasure) -> float:
    """W2 distance to the point mass at the origin: sqrt(sum w ||x||^2)."""
    return math.sqrt(_radial_moment(mu.points, mu.weights, 2))


def l1_grid_distance(p: GridDensity, r: GridDensity) -> float:
    """Trapezoid integral of |p - r| on a shared grid."""
    if p.axes != r.axes:
        raise ValueError("grids differ; L1 distance needs identical axes")
    return float(np.sum(p.node_weights() * np.abs(p.values - r.values)))


def grid_marginal(p: GridDensity, axis_index: int) -> GridDensity:
    """Integrate a density down to the marginal along one axis: every other
    axis is integrated out by the trapezoid rule, so a 1D density is its own."""
    if axis_index not in range(p.dim):
        raise ValueError(f"axis_index must be in range({p.dim}), got {axis_index}")
    vals = p.values
    for other in reversed(range(p.dim)):
        if other != axis_index:
            vals = _weighted_sum(np.moveaxis(vals, other, -1), trapezoid_weights(p.axes[other]))
    return GridDensity((p.axes[axis_index],), vals, time=p.time, mass_tol=max(p.mass_tol, 1e-9))


def grid_cdf_quantiles(p: GridDensity, levels: np.ndarray) -> np.ndarray:
    """Inverse CDF of a 1D grid density at the given levels in (0, 1)."""
    if p.dim != 1:
        raise ValueError("quantiles require a 1D density")
    nodes = p.axes[0].nodes()
    dx = p.axes[0].spacing
    seg = 0.5 * dx * (p.values[:-1] + p.values[1:])
    cdf = np.concatenate(([0.0], np.cumsum(seg)))
    cdf /= cdf[-1]
    return np.interp(levels, cdf, nodes)


def w2_cloud_vs_density_1d(mu: EmpiricalMeasure, p: GridDensity,
                           n_quantiles: int = 4096) -> float:
    """Quadratic Wasserstein between a 1D cloud and a 1D grid density.

    Quantile functions are compared at ``n_quantiles`` midpoint levels; the
    density side is interpolated from its trapezoid CDF.
    """
    if mu.d != 1 or p.dim != 1:
        raise ValueError("both arguments must be one-dimensional")
    if n_quantiles < 1:
        raise ValueError(f"need at least one quantile, got {n_quantiles}")
    u = (np.arange(n_quantiles) + 0.5) / n_quantiles
    xa, _, ca = mu.sorted_1d
    ia = np.minimum(np.searchsorted(ca, u, side="left"), len(xa) - 1)
    qa = xa[ia]
    qb = grid_cdf_quantiles(p, u)
    return math.sqrt(float(np.mean((qa - qb) ** 2)))


def _radial_moment(points: np.ndarray, weights: np.ndarray, order: float) -> float:
    """sum_i w_i ||x_i||^order over points (n, d) and weights (n,)."""
    r = np.sqrt(np.sum(points ** 2, axis=1))
    return float(_weighted_sum(r ** order, weights))


def empirical_radial_moment(mu: EmpiricalMeasure, order: float) -> float:
    """E ||X||^order under the cloud."""
    return _radial_moment(mu.points, mu.weights, order)


def grid_radial_moment(p: GridDensity, order: float) -> float:
    """Integral of ||x||^order p(x) by the trapezoid rule."""
    return _radial_moment(p.node_coords(), (p.node_weights() * p.values).ravel(), order)


def _reprs(values) -> Iterator[str]:
    """``repr`` of every entry as a plain int or float, made as the rows are
    joined, and once when all entries have the same bits (so ``-0.0`` and
    ``0.0`` stay apart)."""
    arr = np.asarray(values)
    if arr.size > 1 and arr.dtype.kind in "iuf":
        bits = arr.view(f"u{arr.dtype.itemsize}")
        if np.all(bits == bits[0]):
            return itertools.repeat(repr(arr[0].item()), arr.size)
    return map(repr, arr.tolist())


def _write_rows(path, header: str, cells) -> None:
    """Write ``header`` and then the rows joining entry i of every cell column,
    ``_ROWS_PER_WRITE`` lines per write, so no file's whole text is built."""
    lines = itertools.chain([header], map(",".join, zip(*cells)))
    with open(path, "w", newline="\n") as fh:
        # each write joins a line and the ones after it, and join drops its
        # list before the last newline is added: one chunk peaks as one join
        for first in lines:
            fh.write("\n".join(itertools.chain(
                [first], itertools.islice(lines, _ROWS_PER_WRITE - 1))) + "\n")


def write_csv(path, header: str, columns) -> None:
    """Write ``header`` and then line i joining entry i of every column.

    Each column is formatted once, every value as Python's ``repr`` of the
    plain int or float (``.tolist()`` drops the numpy scalar type), so the
    bytes depend only on the values; a column whose entries all share one bit
    pattern is formatted from its first.  Boolean columns must be cast to int.
    """
    _write_rows(path, header, [_reprs(col) for col in columns])


def grid_density_to_csv(p: GridDensity, path) -> None:
    """Write ``x,p`` (1D) or ``x,y,p`` (2D) rows in row-major node order.

    Each axis node is formatted once and repeated over its rows; the
    coordinates are those of ``node_coords``.
    """
    names = ("x", "y")[:p.dim]
    nodes = [list(_reprs(ax.nodes())) for ax in p.axes]
    _write_rows(path, ",".join([*names, "p"]),
                [map(",".join, itertools.product(*nodes)), _reprs(p.values.ravel())])


def empirical_to_csv(mu: EmpiricalMeasure, path) -> None:
    """Write ``w,x1[,x2,...]`` rows."""
    write_csv(path, ",".join(["w"] + [f"x{i + 1}" for i in range(mu.d)]),
              [mu.weights, *mu.points.T])


def grid_density_from_csv(path, time: float = 0.0, mass_tol: float = 1e-6) -> GridDensity:
    """Rebuild a GridDensity from its CSV serialization: one axis per
    coordinate column the header names, spanning that column's values."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    axes = []
    for name in data.dtype.names[:-1]:
        x = np.unique(data[name])
        axes.append(GridAxis(float(x[0]), float(x[-1]), len(x)))
    vals = data["p"].reshape([ax.n for ax in axes])
    return GridDensity(tuple(axes), vals, time=time, mass_tol=mass_tol)
