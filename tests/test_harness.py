"""Config validation, experiment orchestration, artifact layout, CLI."""

import copy
import dataclasses
import hashlib
import json
import math
import os
import pickle
import platform
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import mvsim.harness
import mvsim.picard
from mvsim import (ConfigError, build_fp_problem, get_preset, run_experiment, solve_fp,
                   validate_config)
from mvsim.cli import main as cli_main
from mvsim.harness import ExperimentConfig, emit_plotdata, list_presets
from mvsim.measures import (GridAxis, GridDensity, EmpiricalMeasure, grid_density_from_csv,
                            l1_grid_distance, w2_cloud_vs_density_1d, w2_empirical_1d,
                            w2_sliced)
from mvsim.picard import picard_run
from mvsim.particle import InitialLaw, TimeGrid


def _base_config(**kw):
    cfg = {"preset": "bm", "methods": ["particles"], "n_particles": 100,
           "steps": 20, "seed": 1}
    cfg.update(kw)
    return cfg


def _fields(doc: dict) -> dict:
    """A config document's values by ``ExperimentConfig`` field name, unchecked."""
    names = {f.metadata["key"]: f.name for f in dataclasses.fields(ExperimentConfig)}
    out = {}
    for key, value in doc.items():
        if key in ("picard", "fp", "malliavin"):
            out.update({names[(key, k)]: v for k, v in value.items()})
        else:
            out[names[(key,)]] = value
    return out


def _tree_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestValidateConfig:
    def test_accepts_minimal(self):
        validate_config(_base_config())

    def test_empty_methods(self):
        with pytest.raises(ConfigError) as ei:
            validate_config(_base_config(methods=[]))
        assert ei.value.field_path == "methods"

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset") as ei:
            validate_config(_base_config(preset="nope"))
        assert ei.value.field_path == "preset"

    def test_nested_field_path(self):
        with pytest.raises(ConfigError) as ei:
            validate_config(_base_config(picard={"tol": 0.0}))
        assert ei.value.field_path == "picard.tol"

    def test_seed_width(self):
        with pytest.raises(ConfigError, match="below 2\\*\\*63"):
            validate_config(_base_config(seed=1 << 63))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(_base_config(particles=5))

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(_base_config(methods=["particles", "magic"]))

    @pytest.mark.parametrize("mistake,where", [
        ({"picard": {"tol": math.nan}}, "picard.tol"),
        ({"fp": {"domain": [[-math.inf, 8.0]]}}, "fp.domain.0.0"),
        ({"horizon": math.inf}, "horizon"),
        ({"snapshot_times": [0.5, math.inf]}, "snapshot_times.1"),
        ({"overrides": {"sigma": math.nan}}, "overrides.sigma"),
    ])
    def test_non_finite_number_rejected(self, mistake, where):
        # json reads NaN and Infinity as floats; a config number must be finite
        with pytest.raises(ConfigError, match="nan|inf") as ei:
            validate_config(_base_config(**mistake))
        assert ei.value.field_path == where

    @pytest.mark.parametrize("doc,where,message", [
        ({k: v for k, v in _base_config().items() if k != "seed"}, "seed",
         "'seed' is a required property"),
        (_base_config(particles=5), "particles", "unknown key 'particles'"),
        (_base_config(picard={"x": 1}), "picard.x", "unknown key 'x'"),
        (_base_config(methods=[]), "methods", "should be non-empty"),
        (_base_config(methods=["fp", "fp"]), "methods", "has non-unique elements"),
        (_base_config(methods=["fp", "magic"]), "methods.1", "'magic' is not one of"),
        (_base_config(n_particles=0), "n_particles", "0 is less than the minimum of 1"),
        (_base_config(picard={"tol": 0.0}), "picard.tol",
         "0.0 is less than or equal to the minimum of 0"),
        (_base_config(fp={"domain": [[0, 1]] * 3}), "fp.domain", "is too long"),
        (_base_config(fp={"domain": [[0, 1, 2]]}), "fp.domain.0", "is too long"),
        (_base_config(fp={"nodes": [1]}), "fp.nodes.0", "1 is less than the minimum of 2"),
        (_base_config(preset=5), "preset", "5 is not of type 'string'"),
        (_base_config(as_printed=True), "as_printed", "unknown key 'as_printed'"),
        (_base_config(overrides=[]), "overrides", "[] is not of type 'object'"),
        (_base_config(steps=1.5), "steps", "1.5 is not of type 'integer'"),
        (_base_config(steps=True), "steps", "True is not of type 'integer'"),
        (_base_config(steps="5"), "steps", "'5' is not of type 'integer'"),
        (_base_config(horizon=math.nan), "horizon", "nan is not of type 'number'"),
        (_base_config(seed=1 << 63), "seed", "below 2**63"),
        (_base_config(fp={"dt": 0}), "fp.dt", "0 is less than or equal to the minimum of 0"),
        (_base_config(fp={"dt": "fast"}), "fp.dt", "'fast' is neither 'auto' nor a number"),
        (_base_config(picard=5), "picard", "5 is not of type 'object'"),
        (_base_config(threads=1), "threads", "unknown key 'threads'"),
        (_base_config(malliavin={"lambda": 0.5}), "malliavin.lambda", "unknown key 'lambda'"),
        (_base_config(picard={"n_slices": 4}), "picard.n_slices", "unknown key 'n_slices'"),
        (_base_config(malliavin={"slack_factor": 2.0}), "malliavin.slack_factor",
         "unknown key 'slack_factor'"),
        (_base_config(outdir="out"), "outdir", "unknown key 'outdir'"),
    ])
    def test_each_rule_names_its_field(self, doc, where, message):
        with pytest.raises(ConfigError) as ei:
            validate_config(doc)
        assert ei.value.field_path == where
        assert message in str(ei.value)

    @pytest.mark.parametrize("mistake,where,message", [
        ({"overrides": {"nope": 1.0}}, "overrides.nope", "no parameter 'nope'"),
        ({"fp": {"nodes": [101, 101]}}, "fp", "dimension does not match"),
        ({"steps": 10, "snapshot_times": [0.33]}, "snapshot_times", "not a grid node"),
        ({"fp": {"domain": [[1, 0]]}}, "fp.domain", "inverted"),
        ({"snapshot_times": [0.5, 0.5000000000001]}, "snapshot_times",
         "fall on one grid node"),
        ({"preset": "ou", "methods": ["fp"], "steps": 10_000_000,
          "snapshot_times": [0.1000001, 0.1000002]}, "snapshot_times",
         "0.1000001 and 0.1000002 share the label t=0.1")])
    def test_refuses_what_the_run_refuses(self, tmp_path, mistake, where, message):
        # a mistake across fields is refused wherever the config is built; one
        # of its snapshot times only where they are placed on the time grid
        doc = _base_config(**mistake)
        valid = ExperimentConfig.from_dict(_base_config())
        builders = {
            "direct": lambda: ExperimentConfig(**_fields(doc)),
            "replace": lambda: dataclasses.replace(valid, **_fields(mistake)),
            "from_dict": lambda: ExperimentConfig.from_dict(doc)}
        checks = {
            "validate_config": lambda: validate_config(doc),
            "run_experiment": lambda: run_experiment(doc, outdir=tmp_path)}
        if where == "snapshot_times":
            direct, replaced, read = (build() for build in builders.values())
            assert direct == replaced == read
        else:
            checks.update(builders)
        refusals = set()
        for name, check in checks.items():
            with pytest.raises(ConfigError, match=message) as ei:
                check()
            assert ei.value.field_path == where, name
            refusals.add((ei.value.field_path, str(ei.value)))
        assert len(refusals) == 1
        assert not tmp_path.exists() or not any(tmp_path.iterdir())

    def test_first_error_in_document_order_is_reported(self):
        with pytest.raises(ConfigError) as ei:
            validate_config(_base_config(n_particles=0, steps=0))
        assert ei.value.field_path == "n_particles"


class TestExperimentConfig:
    def test_defaults_resolved(self):
        cfg = ExperimentConfig.from_dict(_base_config())
        assert cfg.picard_tol == 1e-3
        assert cfg.picard_max_iters == 8
        assert cfg.malliavin_paths == 100
        assert cfg.fp_dt == "auto"
        assert cfg.snapshot_times is cfg.fp_domain is None

    def test_every_key_reaches_its_field(self):
        doc = _base_config(
            overrides={"sigma": 2.0}, horizon=2.0, snapshot_times=[1.0, 2.0],
            picard={"tol": 0.1, "max_iters": 3},
            fp={"domain": [[-9.0, 9.0]], "nodes": [33], "dt": 0.01},
            malliavin={"n_paths": 7})
        cfg = ExperimentConfig.from_dict(doc)
        assert dataclasses.asdict(cfg) == {
            "preset": "bm", "methods": ("particles",), "n_particles": 100,
            "steps": 20, "seed": 1, "overrides": {"sigma": 2.0}, "horizon": 2.0,
            "snapshot_times": (1.0, 2.0), "picard_tol": 0.1, "picard_max_iters": 3,
            "fp_domain": ((-9.0, 9.0),), "fp_nodes": (33,), "fp_dt": 0.01,
            "malliavin_paths": 7}
        echo = cfg.echo()
        assert echo == doc
        # the document holds every key path that a field declares, and no other
        paths = set()
        for key, value in doc.items():
            if key in ("picard", "fp", "malliavin"):
                paths |= {(key, k) for k in value}
            else:
                paths.add((key,))
        declared = {f.metadata["key"] for f in dataclasses.fields(ExperimentConfig)}
        assert paths == declared
        # the echo shares no object with the fields
        echo["overrides"]["sigma"] = 9.0
        assert cfg.overrides == {"sigma": 2.0}

    @pytest.mark.parametrize("mistake,where", [
        ({"methods": ("particles", "magic"), "n_particles": 0, "seed": -3}, "methods.1"),
        ({"n_particles": 0}, "n_particles"), ({"seed": -3}, "seed")])
    def test_direct_construction_runs_the_checks(self, tmp_path, mistake, where):
        good = {"preset": "bm", "methods": ("particles",), "n_particles": 10,
                "steps": 5, "seed": 0}
        with pytest.raises(ConfigError) as ei:
            run_experiment(ExperimentConfig(**dict(good, **mistake)), outdir=tmp_path)
        assert ei.value.field_path == where
        # a built config is frozen: replace, which checks again, is how it changes
        cfg = ExperimentConfig(**good)
        for name, value in mistake.items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, value)
        with pytest.raises(ConfigError) as ei:
            dataclasses.replace(cfg, **mistake)
        assert ei.value.field_path == where
        assert not tmp_path.exists() or not any(tmp_path.iterdir())

    def test_a_checked_config_stays_a_plain_value(self):
        # the cross-field check caches nothing on the config: the snapshot
        # times stay as given (unsorted, unmerged), replace and pickle keep it
        doc = _base_config(preset="meanfield-ou", overrides={"a": -2.0},
                           snapshot_times=[1.0, 0.5, 0.5], fp={"nodes": [51]})
        cfg = ExperimentConfig.from_dict(doc)
        echo = cfg.echo()
        assert echo["snapshot_times"] == [1.0, 0.5, 0.5]
        assert ExperimentConfig.from_dict(echo) == cfg
        assert len(dataclasses.fields(cfg)) == len(vars(cfg)) == 14
        assert dataclasses.replace(cfg) == cfg
        back = pickle.loads(pickle.dumps(cfg))
        assert back == cfg and back.echo() == echo == cfg.echo()

    def test_from_file_round_trip(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(_base_config(seed=99)))
        cfg = ExperimentConfig.from_file(p)
        assert cfg.seed == 99 and cfg.preset == "bm"

    def test_from_file_bad_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.from_file(p)

    def test_from_file_non_object(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            ExperimentConfig.from_file(p)


class TestListPresets:
    def test_contents_and_order(self):
        rows = list_presets()
        names = [r["name"] for r in rows]
        assert names == sorted(names)
        assert "example5-1" in names and "example5-2" in names

    def test_defaults_echoed(self):
        row = next(r for r in list_presets() if r["name"] == "gbm")
        assert row["dimension"] == 1
        assert row["defaults"]["s"] == pytest.approx(0.05)

    def test_repeatable(self):
        assert list_presets() == list_presets()


class TestEmitPlotdata:
    def test_grid_density_filename(self, tmp_path):
        ax = GridAxis(-1.0, 1.0, 21)
        dens = GridDensity((ax,), np.full(21, 0.5), time=0.5)
        path = emit_plotdata(0.5, dens, tmp_path, "demo", "fp")
        assert path == tmp_path / "demo_fp_t0.5.csv"
        assert path.read_text().splitlines()[0] == "x,p"

    def test_cloud_pair(self, tmp_path):
        mu = EmpiricalMeasure(np.zeros((3, 1)), np.full(3, 1 / 3))
        path = emit_plotdata(0.25, mu, tmp_path, "demo", "particles")
        assert path == tmp_path / "demo_particles_t0.25.csv"
        assert path.read_text().splitlines()[0] == "w,x1"

    def test_picard_gap_log(self, tmp_path):
        # the harness writes the gap log beside the snapshot files
        cfg = {"preset": "meanfield-ou", "methods": ["picard"], "n_particles": 200,
               "steps": 20, "seed": 0, "picard": {"tol": 1e-4, "max_iters": 6}}
        frag = run_experiment(cfg, outdir=tmp_path)["methods"]["picard"]
        lines = (tmp_path / "meanfield-ou" / "picard" / "meanfield-ou_picard_gaps.csv"
                 ).read_text().splitlines()
        assert lines[0] == "iter,gap"
        assert len(lines) - 1 == frag["n_iters"] - 1
        # the first recorded gap compares solves one and two
        assert lines[1].startswith("2,")
        assert [float(line.split(",")[1]) for line in lines[1:]] == frag["gaps"]

    def test_unknown_artifact(self, tmp_path):
        # only a GridDensity or an EmpiricalMeasure has a snapshot file
        mu = EmpiricalMeasure(np.zeros((3, 1)), np.full(3, 1 / 3))
        for result in (42, None, [mu], (0.25, mu)):
            with pytest.raises(TypeError, match="no plot-data writer"):
                emit_plotdata(0.0, result, tmp_path, "demo", "fp")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("error,match", [(ValueError("bad row"), "^bad row$"),
                                             (OSError("disk full"), "failed writing .*x.csv")])
    def test_failed_writer_leaves_no_file(self, tmp_path, error, match):
        # the writer gets as far as the temp file: an OSError is named by the
        # final path, any other error passes through as it is
        def writer(p):
            Path(p).write_text("partial")
            raise error
        with pytest.raises(type(error), match=match) as info:
            mvsim.harness._publish(tmp_path / "x.csv", writer)
        assert isinstance(error, OSError) or info.value is error
        assert list(tmp_path.iterdir()) == []


class TestRunExperiment:
    def test_single_preset_report(self, tmp_path):
        cfg = {"preset": "bm", "methods": ["particles", "fp"],
               "n_particles": 20_000, "steps": 50, "seed": 101,
               "fp": {"nodes": [401]}}
        report = run_experiment(cfg, outdir=tmp_path)
        assert report["methods"]["particles"]["status"] == "ok"
        assert report["methods"]["fp"]["status"] == "ok"
        entry = report["comparisons"]["t=1"]
        assert entry["l1_kde_vs_fp"] < 0.06
        assert entry["w2_particles_vs_fp"] < 0.06
        mom0 = report["methods"]["particles"]["moments"]["t=0"]
        assert mom0["order2"] == pytest.approx(1.0, abs=4 * math.sqrt(2 / 20_000))
        assert (tmp_path / "bm" / "report.json").is_file()
        assert (tmp_path / "bm" / "particles" / "bm_particles_t1.csv").is_file()
        assert (tmp_path / "bm" / "fp" / "bm_fp_t1.csv").is_file()
        on_disk = json.loads((tmp_path / "bm" / "report.json").read_text())
        assert on_disk["comparisons"]["t=1"] == pytest.approx(entry)

    # Picard on each shipped config as computed by the dense measures kernels
    # (the per-slice sliced W2 loop): (n_iters, converged, gaps)
    SHIPPED_PICARD = {
        "bm": (2, True, [0.0]),
        "example5-1": (2, True, [0.00037850406731830115]),
        "example5-2": (4, True, [0.09742431813447805, 0.0013710696306886796,
                                 1.8294496604159912e-05]),
        "meanfield-ou": (5, True, [0.06464570521129717, 0.009701160730562498,
                                   0.0011217194980980435, 0.00010466685548948916]),
    }

    @pytest.mark.parametrize("name", sorted(SHIPPED_PICARD))
    def test_shipped_picard_iterations_keep_their_gaps(self, tmp_path, name):
        # a gap near picard.tol could cross it, so the gaps are pinned too
        cfg = json.loads((Path("configs") / f"{name}.json").read_text())
        cfg["methods"] = ["picard"]
        frag = run_experiment(cfg, outdir=tmp_path)["methods"]["picard"]
        n_iters, converged, gaps = self.SHIPPED_PICARD[name]
        assert (frag["n_iters"], frag["converged"]) == (n_iters, converged)
        np.testing.assert_allclose(frag["gaps"], gaps, rtol=0.0, atol=1e-12)

    def test_shipped_configs_are_all_pinned(self):
        assert sorted(p.stem for p in Path("configs").glob("*.json")) \
            == sorted(self.SHIPPED_PICARD)

    @pytest.mark.parametrize("cfg", [
        {"preset": "meanfield-ou", "methods": ["particles", "picard", "fp", "malliavin"],
         "n_particles": 200.0, "steps": 20, "seed": 5, "snapshot_times": [1, 0.5],
         "overrides": {"sigma": 0.8}, "picard": {"max_iters": 3}, "fp": {"nodes": [101]},
         "malliavin": {"n_paths": 4}},
        {"preset": "example5-2", "methods": ["particles", "picard", "fp", "malliavin"],
         "n_particles": 100, "steps": 10, "seed": 2, "horizon": 0.2,
         "picard": {"max_iters": 2},
         "fp": {"domain": [[-4.0, 6.0], [-4.0, 6.0]], "nodes": [81, 81]},
         "malliavin": {"n_paths": 3}}])
    def test_config_echo_reruns_the_tree(self, tmp_path, cfg):
        # the echo is the resolved config: run again, it writes the same
        # bytes, its report.json included
        report = run_experiment(cfg, outdir=tmp_path / "first")
        assert all(m["status"] == "ok" for m in report["methods"].values())
        assert report["config"]["picard"]["tol"] == 1e-3
        run_experiment(report["config"], outdir=tmp_path / "again")
        first = _tree_digest(tmp_path / "first")
        assert first and _tree_digest(tmp_path / "again") == first

    @pytest.mark.parametrize("cfg", [
        {"preset": "meanfield-ou", "methods": ["particles", "picard"],
         "n_particles": 20000, "steps": 20, "seed": 0},
        {"preset": "example5-2", "methods": ["fp"], "n_particles": 10, "steps": 10,
         "seed": 0, "horizon": 0.1,
         "fp": {"domain": [[-4.0, 6.0], [-4.0, 6.0]], "nodes": [121, 121]}}],
        ids=["cloud-20000", "grid-121x121"])
    def test_tree_does_not_depend_on_the_blas_thread_count(self, tmp_path, cfg):
        # OpenBLAS splits a dot product above 10,000 elements, and a
        # matrix-vector product, across its threads; every weighted sum over a
        # cloud or a grid is measures._weighted_sum instead, so a 20,000-particle
        # cloud and a 121^2 FP grid write the same bytes at one, two and four
        # threads (four oversubscribes a 2-core host, which OpenBLAS allows)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        src = str(Path(mvsim.harness.__file__).resolve().parents[1])
        trees = []
        for threads in ("1", "2", "4"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, (src, os.environ.get("PYTHONPATH")))))
            subprocess.run([sys.executable, "-m", "mvsim.cli", "run", str(path),
                            "--outdir", str(tmp_path / threads)],
                           env=env, check=True, capture_output=True)
            trees.append(_tree_digest(tmp_path / threads))
        assert trees[0] and trees[1:] == [trees[0]] * 2

    def test_method_failure_is_partial(self, tmp_path):
        # box too small for the initial law: fp fails, particles still run
        cfg = {"preset": "bm", "methods": ["particles", "fp"],
               "n_particles": 50, "steps": 10, "seed": 0,
               "fp": {"domain": [[-2.0, 2.0]], "nodes": [101]}}
        report = run_experiment(cfg, outdir=tmp_path)
        assert report["methods"]["particles"]["status"] == "ok"
        frag = report["methods"]["fp"]
        assert frag["status"] == "failed"
        assert "six standard deviations" in frag["error"]

    def test_snapshot_off_grid_rejected(self, tmp_path):
        cfg = _base_config(snapshot_times=[0.33])
        with pytest.raises(ConfigError, match="not a grid node") as ei:
            run_experiment(cfg, outdir=tmp_path)
        assert ei.value.field_path == "snapshot_times"

    def test_snapshot_times_on_one_node_rejected(self, tmp_path):
        # two times rounding to one node would add a tiny FP step and write
        # that node's rows and CSVs twice
        cfg = {"preset": "meanfield-ou", "methods": ["particles", "picard", "fp"],
               "n_particles": 50, "steps": 10, "seed": 0,
               "snapshot_times": [0.5, 0.5000000000001, 1.0]}
        with pytest.raises(ConfigError, match="0.5 and 0.5000000000001 fall on one "
                                              "grid node") as ei:
            run_experiment(cfg, outdir=tmp_path)
        assert ei.value.field_path == "snapshot_times"
        assert not tmp_path.exists() or not any(tmp_path.iterdir())

    def test_negative_zero_snapshot_has_one_label(self, tmp_path):
        # -0.0 is the snapshot time 0.0: every route files and names it t0
        cfg = {"preset": "meanfield-ou", "methods": ["particles", "fp"],
               "n_particles": 200, "steps": 10, "seed": 0,
               "snapshot_times": [-0.0, 1.0], "fp": {"nodes": [121]}}
        report = run_experiment(cfg, outdir=tmp_path)
        assert [m["status"] for m in report["methods"].values()] == ["ok", "ok"]
        names = {p.name for p in tmp_path.rglob("*.csv")}
        assert {"meanfield-ou_particles_t0.csv", "meanfield-ou_particles_kde_t0.csv",
                "meanfield-ou_fp_t0.csv"} <= names
        assert not [n for n in names if "t-0" in n]
        assert report["snapshot_times"] == [0.0, 1.0]
        assert math.copysign(1.0, report["snapshot_times"][0]) == 1.0
        assert list(report["comparisons"]) == ["t=0", "t=1"]
        for method in ("particles", "fp"):
            assert list(report["methods"][method]["moments"]) == ["t=0", "t=1"]
        assert "t=-0" not in (tmp_path / "meanfield-ou" / "report.json").read_text()

    @pytest.mark.parametrize("preset,fp,tags", [
        ("meanfield-ou", {"nodes": [121]}, [""]),
        ("example5-2", {"domain": [[-4.0, 6.0], [-4.0, 6.0]], "nodes": [81, 81]},
         ["_x1", "_x2"])])
    def test_every_route_writes_the_listed_files(self, tmp_path, preset, fp, tags):
        # the output layout README lists, and nothing else: every snapshot file
        # is named by one rule, and Picard writes no statistics.csv
        cfg = {"preset": preset, "methods": ["particles", "picard", "fp", "malliavin"],
               "n_particles": 200, "steps": 10, "seed": 0, "snapshot_times": [0.5, 1.0],
               "fp": fp, "malliavin": {"n_paths": 5}}
        report = run_experiment(cfg, outdir=tmp_path)
        assert {m["status"] for m in report["methods"].values()} == {"ok"}
        listed = {"report.json", "particles/moments.csv", "particles/statistics.csv",
                  f"picard/{preset}_picard_gaps.csv", "picard/moments.csv",
                  "fp/accounting.csv", "fp/moments.csv", "fp/statistics.csv",
                  "malliavin/paths.csv"}
        for t in ("0.5", "1"):
            listed |= {f"particles/{preset}_particles_t{t}.csv",
                       f"picard/{preset}_picard_t{t}.csv", f"fp/{preset}_fp_t{t}.csv"}
            listed |= {f"particles/{preset}_particles_kde{tag}_t{t}.csv" for tag in tags}
        root = tmp_path / preset
        assert {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()} == listed

    def test_equal_snapshot_times_merge(self, tmp_path):
        cfg = _base_config(snapshot_times=[1, 0.5, 1.0, 0.5])
        report = run_experiment(cfg, outdir=tmp_path)
        assert report["snapshot_times"] == [0.5, 1.0]
        assert list(report["methods"]["particles"]["moments"]) == ["t=0", "t=0.5", "t=1"]

    @pytest.mark.parametrize("name,contents,message", [
        ("missing.json", None, "No such file"), ("dir.json", "dir", "Is a directory"),
        ("utf16.json", b"\xff\xfe{\x00}\x00", "can.t decode")])
    def test_unreadable_config_file_is_config_error(self, tmp_path, name, contents,
                                                    message):
        path = tmp_path / name
        if contents == "dir":
            path.mkdir()
        elif contents is not None:
            path.write_bytes(contents)
        with pytest.raises(ConfigError, match=message) as ei:
            run_experiment(path, outdir=tmp_path / "out")
        assert str(path) in str(ei.value)
        assert not (tmp_path / "out").exists()

    def test_seed_override_wins(self, tmp_path):
        # --seed replaces the document's seed
        p = tmp_path / "c.json"
        p.write_text(json.dumps(_base_config(seed=1)))
        assert cli_main(["run", str(p), "--outdir", str(tmp_path / "a"), "--seed", "77"]) == 0
        report = json.loads((tmp_path / "a" / "bm" / "report.json").read_text())
        assert report["config"]["seed"] == 77

    @pytest.mark.parametrize("seed,message", [
        (1.5, "not of type 'integer'"), (True, "not of type 'integer'"),
        (np.float64(2.5), "not of type 'integer'"), (-1, "less than the minimum"),
        (1 << 63, "below 2\\*\\*63")])
    def test_seed_override_is_checked_as_the_config_seed(self, tmp_path, seed, message,
                                                         capsys):
        # a replaced seed goes through the config's own seed check
        cfg = ExperimentConfig.from_dict(_base_config(seed=1))
        with pytest.raises(ConfigError, match=message) as ei:
            dataclasses.replace(cfg, seed=seed)
        assert ei.value.field_path == "seed"
        if type(seed) is int:  # so does --seed, before any method runs
            p = tmp_path / "c.json"
            p.write_text(json.dumps(_base_config(seed=1)))
            out = tmp_path / "out"
            assert cli_main(["run", str(p), "--outdir", str(out), "--seed", str(seed)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error at seed: ")
            assert re.search(message, err) and not out.exists()

    @pytest.mark.parametrize("seed", [7, np.int64(7), 7.0])
    def test_integral_seed_override_runs(self, tmp_path, seed):
        cfg = dataclasses.replace(ExperimentConfig.from_dict(_base_config(seed=1)), seed=seed)
        report = run_experiment(cfg, outdir=tmp_path)
        assert report["config"]["seed"] == 7 and type(report["config"]["seed"]) is int

    def test_env_var_does_not_supply_outdir(self, tmp_path, monkeypatch):
        # a run reads no environment: the default output directory is ./mvsim-out
        dest = tmp_path / "from-env"
        monkeypatch.setenv("MVSIM_OUTDIR", str(dest))
        monkeypatch.chdir(tmp_path)
        run_experiment(_base_config())
        assert (tmp_path / "mvsim-out" / "bm" / "report.json").is_file()
        assert not dest.exists()

    def test_as_printed_variant_runs(self, tmp_path):
        # the printed reading of example 5.1 is a preset of its own: it runs
        # into its own directory, reports the coefficients it ran, and a
        # vol override takes effect
        cfg = {"preset": "example5-1", "methods": ["particles"],
               "n_particles": 500, "steps": 20, "seed": 5}
        plain = run_experiment(cfg, outdir=tmp_path)
        printed = run_experiment(dict(cfg, preset="example5-1-printed"), outdir=tmp_path)
        assert printed["preset"]["params"] == {"k": -0.1, "kint": -0.1,
                                               "vol": math.sqrt(0.4)}
        m1 = plain["methods"]["particles"]["moments"]["t=1"]["order2"]
        m2 = printed["methods"]["particles"]["moments"]["t=1"]["order2"]
        assert m1 != m2
        base = tmp_path / "example5-1-printed" / "particles"
        assert (base / "example5-1-printed_particles_t1.csv").is_file()
        trees = {}
        for vol in (0.5, 0.9):
            out = tmp_path / f"vol{vol}"
            report = run_experiment(dict(cfg, preset="example5-1-printed",
                                         overrides={"vol": vol}), outdir=out)
            assert report["preset"]["params"]["vol"] == vol
            trees[vol] = _tree_digest(out / "example5-1-printed" / "particles")
        assert trees[0.5] and trees[0.5] != trees[0.9]

    def test_point_mass_snapshot_has_no_kde(self, tmp_path):
        # gbm starts at the point 1.0: no bandwidth exists at t=0, so that
        # snapshot writes its cloud but no KDE, and the run goes on
        cfg = {"preset": "gbm", "methods": ["particles"], "n_particles": 100,
               "steps": 10, "seed": 0, "snapshot_times": [0, 1]}
        frag = run_experiment(cfg, outdir=tmp_path)["methods"]["particles"]
        assert frag["status"] == "ok"
        # 100 weights of 1/100 summed by the package's one weighted sum: 0.01 is
        # not a binary fraction, so the bits are that sum's, not those of 1.0
        unit_mass = float(mvsim.measures._weighted_sum(np.ones(100), np.full(100, 1.0 / 100)))
        assert frag["moments"]["t=0"]["order2"] == unit_mass
        d = tmp_path / "gbm" / "particles"
        assert (d / "gbm_particles_t0.csv").is_file()
        assert sorted(p.name for p in d.glob("*_kde_*")) == ["gbm_particles_kde_t1.csv"]

    def test_csv_fields_are_plain_numbers(self, tmp_path):
        cfg = {"preset": "meanfield-ou",
               "methods": ["particles", "picard", "fp", "malliavin"],
               "n_particles": 200, "steps": 20, "seed": 3,
               "snapshot_times": [0.5, 1.0],
               "picard": {"tol": 1e-3, "max_iters": 3},
               "fp": {"nodes": [101]},
               "malliavin": {"n_paths": 5}}
        report = run_experiment(cfg, outdir=tmp_path)
        assert all(m["status"] == "ok" for m in report["methods"].values())
        base = tmp_path / "meanfield-ou"
        csvs = sorted(base.rglob("*.csv"))
        assert len(csvs) > 10
        for path in csvs:
            for line in path.read_text().splitlines()[1:]:
                assert not any(f.startswith("np.") for f in line.split(",")), path

        def is_int(f):
            return f == str(int(f))

        def is_float(f):
            return f == repr(float(f))

        kinds = (is_int,) + (is_float,) * 4 + (is_int, is_float)
        rows = (base / "malliavin" / "paths.csv").read_text().splitlines()[1:]
        assert len(rows) == 5
        for i, line in enumerate(rows):
            fields = line.split(",")
            assert len(fields) == len(kinds) and int(fields[0]) == i
            assert all(ok(f) for ok, f in zip(kinds, fields)), line

    def test_report_holds_no_host_data(self, tmp_path):
        report = run_experiment(_base_config(), outdir=tmp_path)
        assert set(report) == {"config", "preset", "snapshot_times", "methods",
                               "comparisons"}

        def strings(node):
            if isinstance(node, dict):
                for k, v in node.items():
                    yield k
                    yield from strings(v)
            elif isinstance(node, list):
                for v in node:
                    yield from strings(v)
            elif isinstance(node, str):
                yield node

        on_disk = json.loads((tmp_path / "bm" / "report.json").read_text())
        assert on_disk == report
        host = {platform.python_version(), np.__version__, "environment"}
        assert not host & set(strings(on_disk))

    def test_unknown_override_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="no parameter 'nope'") as ei:
            run_experiment(_base_config(overrides={"nope": 1.0}), outdir=tmp_path)
        assert ei.value.field_path == "overrides.nope"

    def test_inverted_fp_domain_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="inverted") as ei:
            run_experiment(_base_config(fp={"domain": [[2.0, -2.0]]}), outdir=tmp_path)
        assert ei.value.field_path == "fp.domain"

    def test_particles_and_picard_draw_their_noise_once(self, tmp_path, brownian_calls):
        # the Malliavin paths read the same draw as well
        cfg = {"preset": "meanfield-ou", "n_particles": 300, "steps": 20,
               "seed": 4, "snapshot_times": [0.5, 1.0],
               "picard": {"tol": 1e-3, "max_iters": 4}, "malliavin": {"n_paths": 25}}
        run_experiment(dict(cfg, methods=["particles", "picard", "malliavin"]),
                       outdir=tmp_path / "both")
        assert [args[1] for args, _ in brownian_calls] == [300]
        for method in ("particles", "picard", "malliavin"):
            run_experiment(dict(cfg, methods=[method]), outdir=tmp_path / method)
            sub = Path("meanfield-ou") / method
            alone = _tree_digest(tmp_path / method / sub)
            assert alone and alone == _tree_digest(tmp_path / "both" / sub)

    def test_a_wider_malliavin_draw_leaves_the_particles_alone(self, tmp_path,
                                                                brownian_calls):
        # 25 paths widen the one draw past the 10 particles, which read its
        # first 10: the particle and Picard trees are those of a run without paths
        cfg = {"preset": "meanfield-ou", "n_particles": 10, "steps": 20, "seed": 4,
               "snapshot_times": [0.5, 1.0], "picard": {"max_iters": 3},
               "malliavin": {"n_paths": 25}}
        run_experiment(dict(cfg, methods=["particles", "picard", "malliavin"]),
                       outdir=tmp_path / "wide")
        assert [args[1] for args, _ in brownian_calls] == [25]
        run_experiment(dict(cfg, methods=["particles", "picard"]), outdir=tmp_path / "narrow")
        for method in ("particles", "picard"):
            sub = Path("meanfield-ou") / method
            narrow = _tree_digest(tmp_path / "narrow" / sub)
            assert narrow and narrow == _tree_digest(tmp_path / "wide" / sub)

    def test_kde_off_the_grid_is_skipped(self, tmp_path):
        # every kernel of the cloud misses [3, 5]: the particle route keeps its
        # clouds and moments and writes no KDE, and FP fails on its own
        cfg = {"preset": "meanfield-ou", "methods": ["particles", "fp"],
               "n_particles": 500, "steps": 20, "seed": 0, "snapshot_times": [0.5, 1.0],
               "fp": {"domain": [[3.0, 5.0]], "nodes": [101]}}
        report = run_experiment(cfg, outdir=tmp_path)
        methods = report["methods"]
        assert methods["particles"]["status"] == "ok"
        assert methods["fp"] == {"status": "failed", "error": "ValueError: axis 0 box "
                                 "[3.0, 5.0] does not cover six standard deviations "
                                 "around the initial mean 1.0"}
        d = tmp_path / "meanfield-ou" / "particles"
        assert (d / "moments.csv").is_file()
        assert (d / "meanfield-ou_particles_t1.csv").is_file()
        assert not list(d.glob("*_kde*"))
        assert report["comparisons"] == {}

    def test_comparisons_pair_the_routes_at_each_time(self, tmp_path):
        # every reported distance is recomputed from the two routes' files
        # written for that snapshot time
        cfg = {"preset": "meanfield-ou", "methods": ["particles", "picard", "fp"],
               "n_particles": 300, "steps": 20, "seed": 4, "snapshot_times": [0.5, 1.0],
               "picard": {"tol": 1e-3, "max_iters": 4}, "fp": {"nodes": [301]}}
        report = run_experiment(cfg, outdir=tmp_path)
        base = tmp_path / "meanfield-ou"

        def cloud(method, t):
            rows = np.loadtxt(base / method / f"meanfield-ou_{method}_t{t:g}.csv",
                              delimiter=",", skiprows=1)
            return EmpiricalMeasure(rows[:, 1:], rows[:, 0])

        for t in (0.5, 1.0):
            entry = report["comparisons"][f"t={t:g}"]
            kde = grid_density_from_csv(base / "particles" / f"meanfield-ou_particles_kde_t{t:g}.csv")
            fp = grid_density_from_csv(base / "fp" / f"meanfield-ou_fp_t{t:g}.csv")
            assert entry == pytest.approx({
                "w2_particles_vs_picard": w2_empirical_1d(cloud("particles", t),
                                                          cloud("picard", t)),
                "w2_particles_vs_fp": w2_cloud_vs_density_1d(cloud("particles", t), fp),
                "l1_kde_vs_fp": l1_grid_distance(kde, fp)}, rel=1e-12, abs=0)

    def test_2d_comparisons_and_gaps_are_sliced_w2_at_its_defaults(self, tmp_path):
        # in 2D the particle-to-Picard distance is recomputed from the two
        # routes' cloud files by w2_sliced at its defaults, and the reported
        # gaps are picard_run's, whose gaps are w2_sliced at its defaults too
        cfg = {"preset": "example5-2", "methods": ["particles", "picard"],
               "n_particles": 200, "steps": 10, "seed": 3, "snapshot_times": [0.5, 1.0],
               "picard": {"tol": 1e-12, "max_iters": 3}}
        report = run_experiment(cfg, outdir=tmp_path)
        base = tmp_path / "example5-2"

        def cloud(method, t):
            rows = np.loadtxt(base / method / f"example5-2_{method}_t{t:g}.csv",
                              delimiter=",", skiprows=1)
            return EmpiricalMeasure(rows[:, 1:], rows[:, 0])

        for t in (0.5, 1.0):
            a, b = cloud("particles", t), cloud("picard", t)
            assert a.d == 2
            assert report["comparisons"][f"t={t:g}"]["w2_particles_vs_picard"] \
                == w2_sliced(a, b)
        inst = get_preset("example5-2")
        run = picard_run(inst.model, inst.law, TimeGrid(1.0, 10), n=200, seed=3,
                         tol=1e-12, max_iters=3, checkpoints=(0.5, 1.0))
        gaps = report["methods"]["picard"]["gaps"]
        assert len(gaps) == 2 and gaps == [float(g) for g in run.gaps]

    @pytest.mark.parametrize("name,n_particles", [("example5-1", 60), ("example5-2", 40),
                                                  ("example5-2", 10)])
    def test_malliavin_paths_reuse_the_particle_draw(self, tmp_path, brownian_calls,
                                                     name, n_particles):
        # the run draws once, as wide as its widest reader, and the 25 paths
        # read its first 25 particles, which are the 25 a run of them alone draws
        cfg = {"preset": name, "n_particles": n_particles, "steps": 16, "seed": 9,
               "malliavin": {"n_paths": 25}}
        run_experiment(dict(cfg, methods=["particles", "malliavin"]), outdir=tmp_path / "both")
        assert [args[1] for args, _ in brownian_calls] == [max(n_particles, 25)]
        run_experiment(dict(cfg, methods=["malliavin"]), outdir=tmp_path / "alone")
        assert [args[1] for args, _ in brownian_calls[1:]] == [25]
        sub = Path(name) / "malliavin"
        alone = _tree_digest(tmp_path / "alone" / sub)
        assert alone and alone == _tree_digest(tmp_path / "both" / sub)

    def test_particle_solves_keep_only_the_slices_they_read(self, tmp_path, monkeypatch):
        # the particle run keeps t=0 and the snapshot times, every Picard
        # solve its checkpoints; only the Malliavin paths keep every slice
        held = []
        for module in (mvsim.harness, mvsim.picard):
            def tracked(*args, _real=module.euler_paths, _where=module.__name__, **kwargs):
                bundle = _real(*args, **kwargs)
                held.append((_where, bundle.kept, bundle.states.shape))
                return bundle

            monkeypatch.setattr(module, "euler_paths", tracked)
        cfg = {"preset": "meanfield-ou", "methods": ["particles", "picard", "malliavin"],
               "n_particles": 60, "steps": 20, "seed": 4, "snapshot_times": [1.0, 0.5],
               "picard": {"tol": 1e-14, "max_iters": 3}, "malliavin": {"n_paths": 3}}
        report = run_experiment(cfg, outdir=tmp_path)
        assert all(m["status"] == "ok" for m in report["methods"].values())
        assert held == [("mvsim.picard", (10, 20), (2, 60, 1))] * 3 \
            + [("mvsim.harness", None, (21, 3, 1))] \
            + [("mvsim.harness", (0, 10, 20), (3, 60, 1))]

    def _watch_draw(self, monkeypatch) -> list:
        """Weak references to the increments of every ``draw_noise`` call."""
        draws = []

        def draw(*args, _real=mvsim.harness.draw_noise, **kwargs):
            x0, dw = _real(*args, **kwargs)
            draws.append(weakref.ref(dw))
            return x0, dw

        monkeypatch.setattr(mvsim.harness, "draw_noise", draw)
        return draws

    def test_shared_draw_is_freed_before_the_particle_kdes(self, tmp_path, monkeypatch):
        # the particle route holds the draw last and drops it after its
        # sweep, so no KDE runs while the increments are alive
        draws, alive = self._watch_draw(monkeypatch), []

        def kde(*args, _real=mvsim.harness.kde_1d, **kwargs):
            alive.append(draws[0]() is not None)
            return _real(*args, **kwargs)

        monkeypatch.setattr(mvsim.harness, "kde_1d", kde)
        cfg = {"preset": "meanfield-ou", "methods": ["particles", "picard"],
               "n_particles": 60, "steps": 20, "seed": 4, "snapshot_times": [0.5, 1.0],
               "picard": {"max_iters": 3}}
        report = run_experiment(cfg, outdir=tmp_path)
        assert [m["status"] for m in report["methods"].values()] == ["ok", "ok"]
        assert len(draws) == 1 and alive == [False, False]

    def test_picard_frees_the_draw_before_it_writes(self, tmp_path, monkeypatch):
        draws, alive = self._watch_draw(monkeypatch), []

        def publish(*args, _real=mvsim.harness._publish, **kwargs):
            alive.append(draws[0]() is not None)
            return _real(*args, **kwargs)

        monkeypatch.setattr(mvsim.harness, "_publish", publish)
        cfg = {"preset": "meanfield-ou", "methods": ["picard"], "n_particles": 60,
               "steps": 20, "seed": 4, "snapshot_times": [0.5, 1.0],
               "picard": {"max_iters": 3}}
        assert run_experiment(cfg, outdir=tmp_path)["methods"]["picard"]["status"] == "ok"
        # every write: one CSV per snapshot cloud, moments.csv, the gap log, report.json
        assert len(draws) == 1 and alive == [False] * 5

    @pytest.mark.parametrize("section, key, value", [
        (None, "seed", 4.0), (None, "n_particles", 60.0), (None, "steps", 20.0),
        ("picard", "max_iters", 3.0), ("malliavin", "n_paths", 3.0),
        ("fp", "nodes", [101.0])])
    def test_integral_float_counts_run_as_ints(self, tmp_path, section, key, value):
        # an integer field admits an integral float such as 1.0: each count runs
        # as its int, and the tree, the report's config echo included, is the
        # int config's
        cfg = {"preset": "meanfield-ou", "methods": ["particles", "picard", "fp", "malliavin"],
               "n_particles": 60, "steps": 20, "seed": 4, "snapshot_times": [0.5, 1.0],
               "picard": {"max_iters": 3}, "fp": {"nodes": [101]},
               "malliavin": {"n_paths": 3}}
        floats = copy.deepcopy(cfg)
        (floats[section] if section else floats)[key] = value
        report = run_experiment(floats, outdir=tmp_path / "float")
        assert [m["status"] for m in report["methods"].values()] == ["ok"] * 4
        run_experiment(cfg, outdir=tmp_path / "int")
        ints = _tree_digest(tmp_path / "int")
        assert ints and _tree_digest(tmp_path / "float") == ints

    def test_fp_report_counts_operator_applications(self, tmp_path):
        # ou at 401 nodes is diffusion-limited, so its steps are stretched
        frag = run_experiment(_base_config(preset="ou", methods=["fp"], fp={"nodes": [401]}),
                              outdir=tmp_path)["methods"]["fp"]
        assert frag["operator_applications"] > 4 * frag["n_steps"]

    def test_library_solve_is_the_harness_solve(self, tmp_path):
        # one step policy: the library's defaults take the harness's
        # stretched steps on configs/example5-1.json, byte for byte
        cfg = json.loads(Path("configs/example5-1.json").read_text())
        frag = run_experiment(dict(cfg, methods=["fp"]), outdir=tmp_path / "run")["methods"]["fp"]
        assert frag["operator_applications"] > frag["n_steps"]
        inst = get_preset(cfg["preset"])
        sol = solve_fp(build_fp_problem(inst.model, inst.law, cfg["fp"]["domain"],
                                        cfg["fp"]["nodes"], inst.horizon,
                                        snapshot_times=cfg["snapshot_times"]))
        mine = [emit_plotdata(p.time, p, tmp_path / "lib", inst.name, "fp")
                for p in sol.snapshots]
        theirs = sorted((tmp_path / "run" / inst.name / "fp").glob("*_t*.csv"))
        assert [p.name for p in theirs] == sorted(p.name for p in mine) and len(theirs) == 4
        for p in theirs:
            assert p.read_bytes() == (tmp_path / "lib" / p.name).read_bytes()

    def test_driftless_fp_snapshots_match_the_exact_law(self, tmp_path):
        # configs/bm.json has no drift to cap a stretched step, so it keeps
        # Euler steps and their accuracy: the law at t is N(0, 1 + t)
        cfg = json.loads(Path("configs/bm.json").read_text())
        frag = run_experiment(dict(cfg, methods=["fp"]), outdir=tmp_path)["methods"]["fp"]
        assert frag["operator_applications"] == frag["n_steps"]
        axis = GridAxis(-10.0, 10.0, 1001)
        for t in cfg["snapshot_times"]:
            x, p = np.loadtxt(tmp_path / "bm" / "fp" / f"bm_fp_t{t:g}.csv", delimiter=",",
                              skiprows=1).T
            exact = np.exp(-0.5 * x ** 2 / (1 + t)) / math.sqrt(2 * math.pi * (1 + t))
            assert np.array_equal(x, axis.nodes())
            assert l1_grid_distance(GridDensity((axis,), p, time=t),
                                    GridDensity((axis,), exact, time=t)) < 1e-5


class TestCli:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli_main(["run", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{")
        assert cli_main(["run", str(p)]) == 2

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_bytes(b"\xff\xfe" + json.dumps(_base_config()).encode("utf-16-le"))
        assert cli_main(["run", str(p), "--outdir", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_key_is_usage_error_at_its_key(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(_base_config(particles=5)))
        assert cli_main(["run", str(p), "--outdir", str(tmp_path / "out")]) == 2
        assert "config error at particles: " in capsys.readouterr().err

    def test_unknown_preset_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(_base_config(preset="nope")))
        assert cli_main(["run", str(p)]) == 2
        assert "unknown preset" in capsys.readouterr().err

    @pytest.mark.parametrize("mistake", [{"overrides": {"nope": 1.0}},
                                         {"fp": {"domain": [[2.0, -2.0]]}}])
    def test_config_mistake_found_while_resolving_is_usage_error(
            self, tmp_path, capsys, mistake):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(_base_config(**mistake)))
        assert cli_main(["run", str(p), "--outdir", str(tmp_path / "out")]) == 2
        (top, inner), = mistake.items()
        assert f"config error at {top}.{next(iter(inner))}: " in capsys.readouterr().err

    @pytest.mark.parametrize("mistake,where", [
        ({"picard": {"tol": math.nan}}, "picard.tol"),
        ({"fp": {"domain": [[-math.inf, 8.0]]}}, "fp.domain.0.0"),
    ])
    def test_non_finite_number_is_usage_error(self, tmp_path, capsys, mistake, where):
        # json reads NaN and -Infinity; the run must stop before any method
        p = tmp_path / "c.json"
        p.write_text(json.dumps(_base_config(methods=["particles", "picard", "fp"],
                                             **mistake)))
        assert cli_main(["run", str(p), "--outdir", str(tmp_path / "out")]) == 2
        assert f"config error at {where}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_error_names_its_field(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(_base_config(fp={"dt": 0})))
        assert cli_main(["run", str(p), "--outdir", str(tmp_path / "out")]) == 2
        assert "config error at fp.dt: " in capsys.readouterr().err

    def test_outdir_that_cannot_be_made_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(_base_config()))
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert cli_main(["run", str(p), "--outdir", str(blocker)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("config error at outdir: ") and "Not a directory" in err
        assert out == "" and blocker.read_text() == "x"

    @pytest.mark.parametrize("text,key", [
        ('{"preset": "bm", "methods": ["particles"], "n_particles": 10, "steps": 5, '
         '"seed": 1, "seed": 2}', "seed"),
        ('{"preset": "bm", "methods": ["particles"], "n_particles": 10, "steps": 5, '
         '"seed": 1, "picard": {"tol": 0.1, "tol": 0.2}}', "tol")])
    def test_duplicate_key_is_usage_error(self, tmp_path, capsys, text, key):
        p = tmp_path / "c.json"
        p.write_text(text)
        assert cli_main(["run", str(p), "--outdir", str(tmp_path / "out")]) == 2
        assert f"config error: {p}: duplicate key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_success(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(_base_config(n_particles=500)))
        rc = cli_main(["run", str(p), "--outdir", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bm/particles: ok" in out
        assert (tmp_path / "out" / "bm" / "report.json").is_file()

    def test_run_reports_method_failure(self, tmp_path, capsys):
        cfg = _base_config(methods=["particles", "fp"],
                           fp={"domain": [[-2.0, 2.0]], "nodes": [51]})
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        rc = cli_main(["run", str(p), "--outdir", str(tmp_path / "out")])
        assert rc == 1
        assert "bm/fp: failed" in capsys.readouterr().out

    def test_violated_ellipticity_bound_fails_the_malliavin_route(self, tmp_path, capsys,
                                                                  monkeypatch):
        # bm's sigma is 1, so a preset lambda of 100 misses the bound on every
        # path by 99
        def preset(*args, _real=mvsim.harness.get_preset, **kwargs):
            return dataclasses.replace(_real(*args, **kwargs), ellipticity_lambda=100.0)

        monkeypatch.setattr(mvsim.harness, "get_preset", preset)
        cfg = _base_config(methods=["malliavin"], malliavin={"n_paths": 5})
        frag = run_experiment(cfg, outdir=tmp_path / "lib")["methods"]["malliavin"]
        assert frag == {"status": "failed",
                        "error": "ellipticity bound violated on at least one path",
                        "n_paths": 5, "lambda": 100.0, "lambda_degenerate": False,
                        "min_lambda_min": pytest.approx(1.0), "min_margin": -99.0,
                        "max_zy_residual": pytest.approx(0.0, abs=1e-12),
                        "all_bounds_hold": False}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert cli_main(["run", str(p), "--outdir", str(tmp_path / "cli")]) == 1
        assert "bm/malliavin: failed" in capsys.readouterr().out

    def test_single_method_subcommand(self, tmp_path, capsys):
        cfg = _base_config(methods=["particles", "fp"],
                           fp={"nodes": [201]})
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        rc = cli_main(["fp", str(p), "--outdir", str(tmp_path / "out")])
        assert rc == 0
        base = tmp_path / "out" / "bm"
        assert (base / "fp").is_dir()
        assert not (base / "particles").exists()

    def test_malliavin_subcommand(self, tmp_path, capsys):
        cfg = _base_config(methods=["particles", "fp"], malliavin={"n_paths": 6})
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert cli_main(["malliavin", str(p), "--outdir", str(tmp_path / "out")]) == 0
        base = tmp_path / "out" / "bm"
        report = json.loads((base / "report.json").read_text())
        assert set(report["methods"]) == {"malliavin"}
        assert len((base / "malliavin" / "paths.csv").read_text().splitlines()) == 6 + 1

    def test_presets_listing(self, capsys):
        assert cli_main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "example5-1" in out and "example5-2" in out
        assert "example5-1-printed" in out and "example5-2-printed" in out

    def test_check_ellipticity(self, capsys):
        rc = cli_main(["check-ellipticity", "example5-2", "--samples", "256"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sampled lambda_min" in out

    def test_check_ellipticity_unknown_preset(self, capsys):
        assert cli_main(["check-ellipticity", "nope"]) == 2

    @pytest.mark.parametrize("flag,value", [("--samples", "0"), ("--seed", "-1")])
    def test_check_ellipticity_bad_flag_is_usage_error(self, capsys, flag, value):
        assert cli_main(["check-ellipticity", "bm", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be at least ") and err.count("\n") == 1


@pytest.mark.parametrize("doc, match", [
    pytest.param(_base_config(snapshot_times=[1.5]), r"snapshot time 1\.5 outside \[0, 1\.0\]",
                 id="past-the-preset-horizon"),
    pytest.param(_base_config(horizon=0.5, snapshot_times=[0.75]),
                 r"snapshot time 0\.75 outside \[0, 0\.5\]", id="past-the-config-horizon"),
])
def test_refusals(doc, match):
    with pytest.raises(ConfigError, match=match) as ei:
        validate_config(doc)
    assert ei.value.field_path == "snapshot_times"
