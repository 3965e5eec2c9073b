"""Self-test of the benchmark.

    python3 -m pytest bench/test_bench.py

Shrunken workloads run through the command line's ``main`` in seconds; the
rest checks the failure accounting and the tracer's clean-up and clock.
"""

import copy
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# Sizes for the self-test: every code path of the full workload, in seconds.
SHRINK = {
    "mfou-particles": {"n_particles": 400, "steps": 20},
    "ex51-pipeline": {"n_particles": 300, "steps": 20,
                      "fp": {"domain": [[-8.0, 8.0]], "nodes": [161]},
                      "malliavin": {"n_paths": 3}},
    "ex52-pipeline": {"n_particles": 200, "steps": 20, "horizon": 0.25,
                      "snapshot_times": [0.125, 0.25],
                      "malliavin": {"n_paths": 3}},
    "ou-fp-static": {"fp": {"nodes": [201]}},
}


def small_config(name: str, seed: int) -> dict:
    cfg = workloads.workload_config(name, seed)
    cfg.update(copy.deepcopy(SHRINK[name]))
    return cfg


@pytest.fixture
def cli(monkeypatch, capsys):
    """Run ``run.main`` on the shrunken workloads; returns (exit code, stdout)."""
    monkeypatch.setattr(run, "workload_config", small_config)

    def call(name: str, trace: int):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
        return code, capsys.readouterr().out
    return call


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_shrunken_workload_prints_every_metric(cli, name):
    code, out = cli(name, trace=1)
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3          # two untraced repetitions + traced
    e2e, layers = run.metric_specs()
    assert {k: v["unit"] for k, v in result["metrics"].items()} == layers
    for metric, unit in {**e2e, **layers}.items():
        assert any(line.startswith(f"  {metric} = ") and line.endswith(f" {unit}")
                   for line in out.splitlines()), metric
    assert "  failed_share = 0 ratio" in out
    assert 0 < result["metrics"]["trace.coverage"]["value"] < 1


def test_untraced_result_holds_the_end_to_end_metrics(cli):
    code, out = cli("ou-fp-static", trace=0)
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    e2e, _ = run.metric_specs()
    assert {k: v["unit"] for k, v in result["metrics"].items()} == e2e
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_unstable_fixed_dt_counts_every_repetition_as_failed(tmp_path):
    cfg = small_config("ou-fp-static", 5)
    cfg["fp"]["dt"] = 1.0
    rec = run.bench(cfg, seconds=0, trace=False, workdir=tmp_path,
                    log=lambda line: None)
    assert rec["attempted"] == 2 and rec["failed"] == 2
    assert rec["failed_share"] > 0
    assert all(any(f.startswith("fp: status failed (StabilityError") for f in fs)
               for fs in rec["failures"])


def test_exception_escaping_run_experiment_is_a_failed_repetition(tmp_path):
    cfg = small_config("ou-fp-static", 5)
    cfg["snapshot_times"] = [0.15]           # not a grid node: ConfigError
    rec = run.bench(cfg, seconds=0, trace=True, workdir=tmp_path,
                    log=lambda line: None)
    assert rec["attempted"] == 3 and rec["failed"] == 3
    assert all(any(f.startswith("raised mvsim.errors.ConfigError") for f in fs)
               for fs in rec["failures"]), rec["failures"]


def test_tracer_bookkeeping_is_charged_to_no_span(monkeypatch):
    def slow_count(arguments, result):
        time.sleep(0.05)
        return {}
    monkeypatch.setitem(spans.COUNTERS, "measures.slow", slow_count)
    tracer = spans.Tracer("clock")
    wrapped = tracer._wrap(lambda: None, "measures.slow")
    with tracer.span(spans.ROOT):
        wrapped()
        wrapped()
    root = next(s for s in tracer.spans if s[2] == spans.ROOT)
    assert root[4] - root[3] < 0.01
    assert tracer.lost_s >= 0.1


def test_tracer_restores_every_name_even_when_the_run_raises(tmp_path):
    import mvsim
    before = {(n, a): v for n, m in list(sys.modules.items())
              if n.startswith("mvsim") for a, v in vars(m).items()}
    cfg = small_config("ou-fp-static", 1)
    cfg["snapshot_times"] = [0.15]           # not a grid node: ConfigError
    tracer = spans.Tracer("raises")
    tracer.install()
    try:
        assert hasattr(mvsim.harness.solve_fp, "__bench_original__")
        assert hasattr(mvsim.particle.generate_brownian, "__bench_original__")
        with pytest.raises(mvsim.ConfigError):
            mvsim.run_experiment(cfg, outdir=tmp_path)
    finally:
        restored = tracer.uninstall()
    assert restored
    assert all(vars(sys.modules[n])[a] is v for (n, a), v in before.items())


def test_count_of_a_vanished_function_is_missing_not_zero():
    tracer = spans.Tracer("empty")
    tracer.names = {"particle.euler_paths"}
    values, missing = spans.layer_metrics(tracer, wall_s=1.0)
    assert "particle.normals_drawn" in missing
    assert "fokkerplanck.steps" in missing
    assert "particle.normals_drawn" not in values
    assert values["picard.iterations"] == 0
    assert "picard.iterations" not in missing
