"""Experiment orchestration: config files, method dispatch, reports.

An experiment is described by a single JSON document naming a preset, a
method subset, and the discretization knobs.  However a config is built, each
key is checked by the ``ExperimentConfig`` field that declares it and then
across fields, save its snapshot times, which a run checks on its time grid.
``run_experiment`` executes the requested methods, writes plot-ready CSVs
under ``<outdir>/<preset>/<method>/`` and a ``report.json`` beside them whose
``config`` block is the resolved config, and returns the report as a dict.
A method failure is recorded in the report and does not abort the others.

Everything written is a pure function of the config, for a given numpy
build: no wall-clock content or host data, sorted JSON keys, and every CSV
value formatted by ``measures._reprs`` as Python's ``repr`` and written by
``measures._write_rows``.  The BLAS thread count does not reach the bytes:
every sum over a cloud or a grid (statistics, moments, the bandwidth, KDE
blocks and mass, W2 costs, marginals, the FP statistic and boundary flux) is
``measures._weighted_sum``, one thread in one fixed order, where OpenBLAS
would split a long dot product or matrix-vector product across its threads
and so change their rounding.  The products left on BLAS sum over at most d
terms per output: the sliced W2 projections, the initial law's Cholesky
factor and the d x d matrices of the Malliavin sweep.

Every method that simulates particles reads one draw of the initial cloud
and Brownian increments, as wide as its widest reader: the particle and
Picard methods read its first ``n_particles`` particles, the Malliavin paths
its first ``n_paths``.  Under one seed, n particles are the first n of any
wider draw, so no method's files depend on which others run.  The methods
run in the order of ``_METHODS``: Picard, Malliavin, particles, FP.  No
method reads another's results, so the order changes no byte; it is chosen
for memory.  The draw is made on first use and released by the last method
that reads it, and each runner drops its own references when its sweep or
iteration ends, so the particle route, whose KDEs and cloud CSVs are the
heaviest post-processing, holds the draw last and runs them after it is freed.

The particle, Picard and FP methods file their results through
``_Experiment._file``: each result at a snapshot time goes to
``at[t][route]``, where the comparisons read it, and to its snapshot file,
named by ``emit_plotdata``'s one rule (KDE files included); every result's
radial moments go to ``moments.csv`` and the report, and a statistic flow to
``statistics.csv``.  Every other file a method writes (Picard's gap log,
``accounting.csv``, ``paths.csv``) goes through ``_write_csv``.
The config is the only input that chooses what a run computes; the output
directory only chooses where it is written.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .coefficients import CoefficientModel
from .errors import ConfigError
from .fokkerplanck import FPProblem, gaussian_on_grid, solve_fp
from .malliavin import bundle_diagnostics
from .measures import (EmpiricalMeasure, GridAxis, GridDensity, _OffGrid,
                       empirical_to_csv, grid_density_to_csv, grid_marginal,
                       grid_radial_moment, empirical_radial_moment, kde_1d,
                       l1_grid_distance, w2_cloud_vs_density_1d, w2_sliced,
                       write_csv)
from .particle import InitialLaw, TimeGrid, draw_noise, euler_paths
from .picard import iterate_frozen_flow
from .presets import PresetInstance, get_preset, preset_defaults, preset_names

# the run order; the particle route reads the shared draw last, so it is
# freed before its KDEs and cloud CSVs and before FP
_METHODS = ("picard", "malliavin", "particles", "fp")


def _fail(value, at: str, what: str):
    raise ConfigError(f"{value!r} {what}", field_path=at)


def _rule(test, what: str):
    """A check that returns a value ``test`` admits and refuses others as ``what``."""
    return lambda value, at: value if test(value) else _fail(value, at, what)


def _real(value) -> bool:
    """A number that is neither NaN nor infinite; a bool is not a number."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or math.isfinite(value)))


_string = _rule(lambda v: isinstance(v, str), "is not of type 'string'")
_object = _rule(lambda v: isinstance(v, dict), "is not of type 'object'")
_list = _rule(lambda v: isinstance(v, (list, tuple)), "is not of type 'array'")
_finite = _rule(_real, "is not of type 'number'")
_whole = _rule(lambda v: _real(v) and (isinstance(v, numbers.Integral)
                                       or float(v).is_integer()), "is not of type 'integer'")


def _number(least=None, strict: bool = False, kind=_finite):
    """A ``kind`` (a finite number) above ``least`` if ``strict``, at least it if not."""
    def number(value, at):
        value = kind(value, at)
        if least is not None and (value <= least if strict else value < least):
            _fail(value, at, f"is {'less than or equal to' if strict else 'less than'} "
                             f"the minimum of {least!r}")
        return value
    return number


def _integer(least: int, bits: int | None = None):
    """An integer >= ``least`` (and < ``2**bits``) as an int; 1.0 counts, a bool does not."""
    at_least = _number(least, kind=_whole)

    def integer(value, at):
        value = int(at_least(value, at))
        if bits is not None and value >= 1 << bits:
            raise ConfigError(f"{at} must be below 2**{bits}", field_path=at)
        return value
    return integer


class _ReadOnlyDict(dict):
    """A dict whose mutators raise TypeError; it pickles and copies as a dict."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a checked config's overrides are read-only; "
                        "change them with dataclasses.replace")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


def _numbers(value, at):
    """An object of finite numbers (the preset overrides), returned as a read-only
    copy, so a checked config's overrides cannot change after the check."""
    return _ReadOnlyDict({k: _finite(v, f"{at}.{k}") for k, v in _object(value, at).items()})


def _array(item, least: int = 1, most: int | None = None, unique: bool = False):
    """A list of ``least`` to ``most`` entries, each checked by ``item``,
    returned as a tuple."""
    def array(value, at):
        n = len(_list(value, at))
        if n < least:
            _fail(value, at, "should be non-empty" if least == 1 else "is too short")
        if most is not None and n > most:
            _fail(value, at, "is too long")
        out = tuple(item(v, f"{at}.{i}") for i, v in enumerate(value))
        if unique and len(set(out)) < n:
            _fail(value, at, "has non-unique elements")
        return out
    return array


def _enum(choices: tuple):
    return _rule(lambda v: v in choices, f"is not one of {list(choices)!r}")


def _auto_or(check):
    """``"auto"`` or a value that ``check`` admits."""
    auto = _rule(lambda v: v == "auto", "is neither 'auto' nor a number")
    return lambda value, at: (auto if isinstance(value, str) else check)(value, at)


def _key(path: str, check, default=MISSING, factory=MISSING):
    """A config field: its key path in the document, its check and its default."""
    return field(default=default, default_factory=factory,
                 metadata={"key": tuple(path.split(".")), "check": check})


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment description with defaults resolved, checked wherever it is
    built (from a document, directly, or by ``replace``); see ``_resolve``.
    It is frozen: ``dataclasses.replace`` is the one way to change it."""

    preset: str = _key("preset", _string)
    methods: tuple[str, ...] = _key("methods", _array(_enum(_METHODS), unique=True))
    n_particles: int = _key("n_particles", _integer(1))
    steps: int = _key("steps", _integer(1))
    seed: int = _key("seed", _integer(0, bits=63))
    overrides: dict = _key("overrides", _numbers, factory=dict)
    horizon: float | None = _key("horizon", _number(0, strict=True), None)
    snapshot_times: tuple[float, ...] | None = _key("snapshot_times", _array(_number(0)),
                                                    None)
    picard_tol: float = _key("picard.tol", _number(0, strict=True), 1e-3)
    picard_max_iters: int = _key("picard.max_iters", _integer(2), 8)
    fp_domain: tuple[tuple[float, float], ...] | None = _key(
        "fp.domain", _array(_array(_finite, least=2, most=2), most=2), None)
    fp_nodes: tuple[int, ...] | None = _key("fp.nodes", _array(_integer(2), most=2), None)
    fp_dt: float | str = _key("fp.dt", _auto_or(_number(0, strict=True)), "auto")
    malliavin_paths: int = _key("malliavin.n_paths", _integer(1), 100)

    def __post_init__(self):
        for f in fields(self):  # an optional field left at None stays None
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                object.__setattr__(self, f.name,
                                   f.metadata["check"](value, ".".join(f.metadata["key"])))
        if self.preset not in preset_names():
            raise ConfigError(
                f"unknown preset {self.preset!r}; known: {', '.join(preset_names())}",
                field_path="preset")
        _resolve(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return cls(**_read(data))

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_config(path))

    def echo(self) -> dict:
        """The config document of the checked fields, less optional fields left
        unset: a valid config that reruns the same tree."""
        doc: dict = {}
        for f in fields(self):
            value, keys = getattr(self, f.name), f.metadata["key"]
            if value is not None:
                (doc.setdefault(keys[0], {}) if len(keys) > 1 else doc)[keys[-1]] = _echo(value)
        return doc


_FIELDS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}
_SECTIONS = {keys[0] for keys in _FIELDS if len(keys) > 1}


def _echo(value):
    """A checked value as a JSON document holds it: tuples as lists, objects copied."""
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    return dict(value) if isinstance(value, dict) else value


def _read(data) -> dict:
    """The values of a config document by field name: unknown keys are
    refused first, then missing ones."""
    entries = []  # (key path, value) of each key the document holds
    for key, value in _object(data, "").items():
        if key in _SECTIONS:
            entries += [((key, k), v) for k, v in _object(value, key).items()]
        else:
            entries.append(((key,), value))
    for keys, _ in entries:
        if keys not in _FIELDS:
            raise ConfigError(f"unknown key {keys[-1]!r}",
                              field_path=".".join(map(str, keys)))
    given = dict(entries)
    for keys, f in _FIELDS.items():
        if keys not in given and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{keys[0]!r} is a required property", field_path=keys[0])
    return {_FIELDS[keys].name: value for keys, value in given.items()}


def _resolve(cfg: ExperimentConfig) -> tuple:
    """What a run of ``cfg`` uses apart from its times: preset instance and FP
    axes.  Each mistake across these fields is a ConfigError here."""
    unknown = [k for k in cfg.overrides if k not in preset_defaults(cfg.preset)]
    if unknown:
        raise ConfigError(f"preset {cfg.preset!r} has no parameter {unknown[0]!r}",
                          field_path=f"overrides.{unknown[0]}")
    try:  # overrides whose initial law is refused, such as sigma0 whose square is 0
        preset = get_preset(cfg.preset, cfg.overrides)
    except ValueError as e:
        raise ConfigError(str(e), field_path="overrides") from None
    domain = cfg.fp_domain if cfg.fp_domain is not None else preset.fp_domain
    nodes = cfg.fp_nodes if cfg.fp_nodes is not None else preset.fp_nodes
    if len(domain) != preset.model.d or len(nodes) != preset.model.d:
        raise ConfigError("fp domain/nodes dimension does not match the preset",
                          field_path="fp")
    try:
        axes = tuple(GridAxis(float(lo), float(hi), int(n))
                     for (lo, hi), n in zip(domain, nodes))
    except ValueError as e:
        raise ConfigError(str(e), field_path="fp.domain") from None
    return preset, axes


def _snapshots(cfg: ExperimentConfig,
               preset: PresetInstance) -> tuple[TimeGrid, tuple[float, ...]]:
    """The time grid of ``cfg`` and its sorted snapshot times, equal times merged;
    a run (or ``validate_config``) checks them here, not where the config is built,
    and refuses any other mistake of theirs as a ConfigError."""
    horizon = cfg.horizon if cfg.horizon is not None else preset.horizon
    grid = TimeGrid(float(horizon), cfg.steps)
    snaps = cfg.snapshot_times if cfg.snapshot_times is not None else (float(horizon),)
    node_time: dict[int, float] = {}  # equal times merge, near ones are refused
    key_time: dict[str, float] = {}  # and so are times whose files and keys would clash
    for t in snaps:
        t = float(t) + 0.0  # -0.0 is stored as 0.0, so it has the one label t=0
        if not 0.0 <= t <= horizon + 1e-12:
            raise ConfigError(f"snapshot time {t} outside [0, {horizon}]",
                              field_path="snapshot_times")
        try:
            k = grid.index_of(t)
        except ValueError:
            raise ConfigError(f"snapshot time {t} is not a grid node",
                              field_path="snapshot_times") from None
        if node_time.setdefault(k, t) != t:
            raise ConfigError(f"snapshot times {node_time[k]!r} and {t!r} fall on "
                              f"one grid node", field_path="snapshot_times")
        if key_time.setdefault(_tkey(t), t) != t:
            raise ConfigError(f"snapshot times {key_time[_tkey(t)]!r} and {t!r} share "
                              f"the label {_tkey(t)}", field_path="snapshot_times")
    return grid, tuple(sorted(node_time.values()))


def validate_config(data: dict) -> None:
    """Check a config dict as ``run_experiment`` does before it computes, snapshot
    times included; ConfigError carries the field path."""
    cfg = ExperimentConfig.from_dict(data)
    _snapshots(cfg, _resolve(cfg)[0])


def _unique(pairs: list, path) -> dict:
    """A JSON object's pairs as a dict; a repeated key is a ConfigError."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"{path}: duplicate key {key!r}")
        data[key] = value
    return data


def read_config(path) -> dict:
    """The JSON object in the UTF-8 file at ``path``; a file that cannot be
    read or parsed, or repeats a key in an object, is a ConfigError whose
    message names it."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"),
                          object_pairs_hook=lambda pairs: _unique(pairs, path))
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from None
    except ValueError as e:  # not UTF-8, or not JSON
        raise ConfigError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    return data


def list_presets() -> list[dict]:
    """Stable sorted table of shipped presets and their default parameters."""
    rows = []
    for name in preset_names():
        inst = get_preset(name)
        rows.append({
            "name": name,
            "summary": inst.summary,
            "dimension": inst.model.d,
            "horizon": inst.horizon,
            "defaults": dict(sorted(preset_defaults(name).items())),
        })
    return rows


def _publish(path: Path, writer) -> None:
    """Write through a temp file so the final name never holds partial data;
    a failed write leaves neither name behind."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException as e:
        with contextlib.suppress(OSError):
            tmp.unlink()
        if isinstance(e, OSError):
            raise OSError(f"failed writing {path}: {e}") from e
        raise


def _write_csv(path: Path, header: str, columns) -> None:
    _publish(path, lambda p: write_csv(p, header, columns))


def _tkey(t: float) -> str:
    return f"t={t:g}"


def emit_plotdata(t: float, result, outdir, preset: str, method: str) -> Path:
    """Write ``{preset}_{method}_t{t:g}.csv``, the snapshot file of a
    GridDensity or an EmpiricalMeasure filed at time ``t``, and return its path.
    """
    if not isinstance(result, (GridDensity, EmpiricalMeasure)):
        raise TypeError(f"no plot-data writer for {type(result).__name__}")
    writer = grid_density_to_csv if isinstance(result, GridDensity) else empirical_to_csv
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    dest = out / f"{preset}_{method}_t{float(t):g}.csv"
    _publish(dest, lambda p: writer(result, p))
    return dest


def _downsample(n: int, cap: int = 4097) -> np.ndarray:
    if n <= cap:
        return np.arange(n)
    return np.unique(np.round(np.linspace(0, n - 1, cap)).astype(int))


def _marginal_tag(i: int, d: int) -> str:
    """The name of marginal ``i`` in KDE file names and comparison keys; a 1D
    law is its own marginal and has none."""
    return f"_x{i + 1}" if d > 1 else ""


def _marginal_cloud(mu: EmpiricalMeasure, axis_index: int) -> EmpiricalMeasure:
    """The cloud of one coordinate; a 1D cloud is its own, sort and all."""
    if mu.d == 1:
        return mu
    return EmpiricalMeasure(mu.points[:, axis_index:axis_index + 1], mu.weights)


class _Experiment:
    """One run_experiment invocation; holds resolved objects between methods."""

    def __init__(self, cfg: ExperimentConfig, outdir: Path):
        self.cfg = cfg
        preset, self.axes = _resolve(cfg)
        self.preset = preset
        self.model: CoefficientModel = preset.model
        self.law: InitialLaw = preset.law
        self.grid, self.snapshot_times = _snapshots(cfg, preset)
        self.base = outdir / preset.name
        # route results by snapshot time: at[t][route]
        self.at: dict[float, dict] = {t: {} for t in self.snapshot_times}
        self.noise_users = [m for m in _METHODS if m in cfg.methods and m != "fp"]
        self.noise_width = max((cfg.malliavin_paths if m == "malliavin" else cfg.n_particles
                                for m in self.noise_users), default=0)
        self.noise: tuple[np.ndarray, np.ndarray] | None = None

    def _dir(self, method: str) -> Path:
        d = self.base / method
        d.mkdir(parents=True, exist_ok=True)
        return d

    def _take_noise(self, method: str, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The first ``n`` particles of the run's one ``(x0, increments)`` draw, made
        on first use as wide as its widest reader and released to its last reader."""
        noise = self.noise or draw_noise(self.model, self.law, self.grid,
                                         self.noise_width, self.cfg.seed)
        self.noise = None if method == self.noise_users[-1] else noise
        return noise[0][:n], noise[1][:, :n]

    def _file(self, method: str, times, results, flow=None) -> tuple[Path, dict]:
        """File each result at a snapshot time in ``at[t][method]`` and write its
        CSV, table the radial moments of orders 1, 2 and 4 of every result, and
        write them to ``moments.csv``, whose ``t`` column is ``times``: a sequence
        of floats, one per result.  A flow ``(times, stats)`` is written to
        ``statistics.csv`` when the model has statistics.  Returns the method's
        directory and its moment table."""
        d = self._dir(method)
        table = {}
        for t, obj in zip(times, results):
            on_grid = isinstance(obj, GridDensity)
            if t in self.at:
                self.at[t][method] = obj
                emit_plotdata(t, obj, d, self.preset.name, method)
            moment = grid_radial_moment if on_grid else empirical_radial_moment
            table[_tkey(t)] = {f"order{k}": moment(obj, k) for k in (1, 2, 4)}
        orders = ("order1", "order2", "order4")
        _write_csv(d / "moments.csv", "t," + ",".join(orders),
                   [np.asarray(times, dtype=float)]
                   + [[row[k] for row in table.values()] for k in orders])
        if flow is not None and self.model.q:
            head = "t," + ",".join(f"s{k + 1}" for k in range(self.model.q))
            _write_csv(d / "statistics.csv", head, [flow[0], *flow[1].T])
        return d, table

    # method runners: each returns a report fragment

    def run_particles(self) -> dict:
        x0, dw = self._take_noise("particles", self.cfg.n_particles)
        # the clouds and the moment table read t=0 and the snapshot times only
        mom_times = sorted({0.0} | set(self.snapshot_times))
        bundle = euler_paths(self.model, x0, self.grid, dw,
                             keep=[self.grid.index_of(t) for t in mom_times])
        flow = bundle.realized_flow
        clouds = [bundle.snapshot(self.grid.index_of(t)) for t in mom_times]
        del bundle, x0, dw  # the bundle's increments pin the draw
        d, table = self._file("particles", mom_times, clouds,
                              flow=(flow.times, flow.stats))
        for t, got in self.at.items():
            mu = got["particles"]
            if not np.ptp(mu.points, axis=0).all():  # a marginal with no spread has no KDE
                continue
            try:
                got["kde"] = [kde_1d(_marginal_cloud(mu, i), ax, time=t)
                              for i, ax in enumerate(self.axes)]
            except _OffGrid:  # nor has a cloud whose kernels all miss the grid
                continue
            for i, den in enumerate(got["kde"]):
                emit_plotdata(t, den, d, self.preset.name,
                              "particles_kde" + _marginal_tag(i, self.model.d))
        return {"n_particles": self.cfg.n_particles, "moments": table}

    def run_picard(self) -> dict:
        cfg = self.cfg
        x0, dw = self._take_noise("picard", cfg.n_particles)
        run = iterate_frozen_flow(self.model, x0, dw, self.grid, tol=cfg.picard_tol,
                                  max_iters=cfg.picard_max_iters,
                                  checkpoints=self.snapshot_times)
        del x0, dw
        d, table = self._file("picard", run.checkpoint_times, run.final_clouds)
        # the gap log: one row per consecutive pair of solves, from solves 1 and 2
        _write_csv(d / f"{self.preset.name}_picard_gaps.csv", "iter,gap",
                   [range(2, len(run.gaps) + 2), run.gaps])
        return {"n_iters": run.n_iters, "converged": run.converged,
                "gaps": [float(g) for g in run.gaps], "moments": table}

    def run_fp(self) -> dict:
        problem = FPProblem(self.model, gaussian_on_grid(self.law, self.axes),
                            self.grid.horizon, dt=self.cfg.fp_dt,
                            snapshot_times=self.snapshot_times)
        sol = solve_fp(problem)
        idx = _downsample(sol.times.size)
        d, table = self._file("fp", sol.snapshot_times, sol.snapshots,
                              flow=(sol.times[idx], sol.stat_curve[idx]))
        _write_csv(d / "accounting.csv", "t,mass,min_value,boundary_flux",
                   [c[idx] for c in (sol.times, sol.mass_curve, sol.min_value_curve,
                                     sol.boundary_flux_curve)])
        defect = np.abs(sol.mass_curve + sol.boundary_flux_curve - 1.0)
        return {"n_steps": sol.n_steps,
                "operator_applications": sol.n_applications,
                "final_mass": float(sol.mass_curve[-1]),
                "final_boundary_flux": float(sol.boundary_flux_curve[-1]),
                "max_conservation_defect": float(defect.max()),
                "min_value": float(sol.min_value_curve.min()),
                "moments": table}

    def run_malliavin(self) -> dict:
        lam = self.preset.ellipticity_lambda or 0.0
        n_paths = self.cfg.malliavin_paths
        x0, dw = self._take_noise("malliavin", n_paths)
        bundle = euler_paths(self.model, x0, self.grid, dw)
        diag = bundle_diagnostics(self.model, bundle, lam)
        d = self._dir("malliavin")
        _write_csv(d / "paths.csv", "path,lambda_min,gamma,bound,margin,holds,zy_max",
                   [range(n_paths), diag["lambda_min"], diag["gamma"], diag["bound"],
                    diag["margin"], diag["holds"].astype(int), diag["zy_max"]])
        frag = {"n_paths": n_paths, "lambda": float(lam),
                "lambda_degenerate": lam <= 0.0,
                "min_lambda_min": float(diag["lambda_min"].min()),
                "min_margin": float(diag["margin"].min()),
                "max_zy_residual": float(diag["zy_max"].max()),
                "all_bounds_hold": bool(diag["holds"].all())}
        if lam > 0 and not frag["all_bounds_hold"]:
            frag.update(status="failed", error="ellipticity bound violated on at least one path")
        return frag

    def comparisons(self) -> dict:
        out: dict = {}
        for t, got in self.at.items():
            entry: dict = {}
            cloud, kdes, fp = got.get("particles"), got.get("kde"), got.get("fp")
            if kdes is not None and fp is not None:
                for i, kde in enumerate(kdes):
                    tag = _marginal_tag(i, self.model.d)
                    entry[f"l1_kde_vs_fp{tag}"] = l1_grid_distance(kde, grid_marginal(fp, i))
                if self.model.d == 1:
                    entry["w2_particles_vs_fp"] = w2_cloud_vs_density_1d(cloud, fp)
            if cloud is not None and "picard" in got:
                entry["w2_particles_vs_picard"] = w2_sliced(cloud, got["picard"])
            if entry:
                out[_tkey(t)] = entry
        return out


def run_experiment(config, outdir="mvsim-out") -> dict:
    """Run the configured methods, write artifacts under ``outdir``, and
    return the report.

    ``config`` is an ExperimentConfig, which is used as given (it was checked
    where it was built), a config dict, or a path to a JSON file.  The run
    reads nothing else, the environment included.  Every config mistake, an
    output directory that cannot be created included, is a ConfigError raised
    before any method runs.  A method failure is recorded under
    ``methods.<name>.status`` and does not stop the remaining methods.
    """
    if isinstance(config, (str, Path)):
        config = ExperimentConfig.from_file(config)
    elif isinstance(config, dict):
        config = ExperimentConfig.from_dict(config)
    exp = _Experiment(config, Path(outdir))
    try:
        exp.base.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"{exp.base}: {e.strerror or e}", field_path="outdir") from None
    methods: dict = {}
    # no method reads another's results: the order only sets what is alive at
    # each method's peak (see _METHODS)
    for name in _METHODS:
        if name not in config.methods:
            continue
        try:
            methods[name] = {"status": "ok", **getattr(exp, f"run_{name}")()}
        except Exception as e:  # recorded, not fatal to the rest
            methods[name] = {"status": "failed",
                             "error": f"{type(e).__name__}: {e}"}

    report = {
        "config": config.echo(),
        "preset": {"name": exp.preset.name, "summary": exp.preset.summary,
                   "params": {k: exp.preset.params[k]
                              for k in sorted(exp.preset.params)}},
        "snapshot_times": [float(t) for t in exp.snapshot_times],
        "methods": methods,
        "comparisons": exp.comparisons(),
    }
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    _publish(exp.base / "report.json", lambda p: Path(p).write_text(text))
    return report
