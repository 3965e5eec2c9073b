"""mvsim benchmark: end-to-end and per-layer metrics of ``run_experiment``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the named workload (see ``workloads.py``; ``all`` runs each in turn)
again and again for ``--seconds``, every repetition in a fresh interpreter
(``worker.py``), one at a time.  Every repetition's output is checked:

- every method reports ``status == "ok"``;
- FP keeps ``max_conservation_defect <= 1e-4`` and ``min_value >= -1e-3``;
- Malliavin has ``all_bounds_hold`` wherever ``lambda > 0``;
- the artifact tree is byte-identical to the first repetition's;
- ``run_experiment`` returns rather than raises.

A repetition that fails a check is counted as failed, never retried or
dropped.  A worker that hangs past ``WORKER_TIMEOUT_S`` or crashes outside
the measured run is a fault of the benchmark itself: the command then exits 1
without a result.  With ``--trace 0`` the result holds the end-to-end metrics: the
upper quartile of the repetitions' wall times, and the medians of set-up time
(more set-up-only interpreters fill the end of the run) and of peak resident
set.  With ``--trace 1`` one more repetition runs with
``spans.Tracer`` installed; its tree must hash equal to the untraced ones and
every wrapped name must be restored afterwards.  The result then holds the
per-layer metrics; layers that do no work on a workload, and route metrics a
workload does not compute, read 0.  Metric names and units come from
``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with host details and the tree's sha256, goes to
``.bench_out/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, workload_config  # noqa: E402

WORKER_TIMEOUT_S = 170
MIN_REPS = 2


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed mvsim run)."""


def metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def host_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((ROOT / "src" / "mvsim").rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "src_mvsim_lines": src_lines}


def worker_env(nproc: int) -> dict:
    env = dict(os.environ)
    # OpenBLAS defaults to every online CPU, which can exceed the cores this
    # process may use; hold it to nproc.
    want = min(int(env.get("OPENBLAS_NUM_THREADS", nproc) or nproc), nproc)
    env["OPENBLAS_NUM_THREADS"] = str(max(want, 1))
    return env


def run_worker(config: dict, workdir: Path, env: dict, trace: Path | None = None,
               setup_only: bool = False) -> dict:
    """One fresh-interpreter repetition; its tree goes to ``workdir/tree``."""
    tree = workdir / "tree"
    if tree.exists():
        shutil.rmtree(tree)
    cfg_path, res_path = workdir / "config.json", workdir / "result.json"
    cfg_path.write_text(json.dumps(config))
    res_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--config", str(cfg_path),
           "--outdir", str(tree), "--result", str(res_path)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(res_path.read_text())
    if not setup_only:
        out["tree_sha256"], out["files"], out["bytes"] = tree_digest(tree)
    return out


def tree_digest(root: Path) -> tuple[str, int, int]:
    """sha256 over every file's relative path and bytes, plus counts."""
    h = hashlib.sha256()
    files = nbytes = 0
    for p in sorted(root.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            h.update(str(p.relative_to(root)).encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
            files += 1
            nbytes += len(data)
    return h.hexdigest(), files, nbytes


def output_failures(rep: dict, first: dict) -> list[str]:
    """Reasons a repetition fails the output checks (empty when it passes)."""
    why = []
    if "error" in rep:
        why.append(f"raised {rep['error'].strip().splitlines()[-1]}")
    if rep["tree_sha256"] != first["tree_sha256"]:
        why.append("artifact tree differs from the first repetition's")
    report = rep["report"]
    if report is None:
        return why
    for name, frag in sorted(report["methods"].items()):
        if frag.get("status") != "ok":
            why.append(f"{name}: status {frag.get('status')} "
                       f"({frag.get('error', '')})")
    fp = report["methods"].get("fp")
    if fp and fp.get("status") == "ok":
        if not fp["max_conservation_defect"] <= 1e-4:
            why.append(f"fp: conservation defect {fp['max_conservation_defect']:.3e}")
        if not fp["min_value"] >= -1e-3:
            why.append(f"fp: min value {fp['min_value']:.3e}")
    mal = report["methods"].get("malliavin")
    if mal and mal.get("status") == "ok" and mal["lambda"] > 0 \
            and not mal["all_bounds_hold"]:
        why.append("malliavin: ellipticity bound violated")
    return why


def route_metrics(report: dict | None) -> dict:
    """Largest cross-route distances in ``comparisons`` (0 when absent)."""
    comparisons = report["comparisons"] if report is not None else {}
    entries = [(k, v) for e in comparisons.values() for k, v in e.items()]
    return {
        "route_w2_max": max((v for k, v in entries if k in
                             ("w2_particles_vs_picard", "w2_particles_vs_fp")),
                            default=0.0),
        "route_l1_max": max((v for k, v in entries if k.startswith("l1_kde_vs_fp")),
                            default=0.0),
    }


def bench(config: dict, seconds: float, trace: bool, workdir: Path,
          log=print) -> dict:
    """Measure one workload config; returns the full result record."""
    host = host_info()
    env = worker_env(host["nproc"])
    workdir.mkdir(parents=True, exist_ok=True)
    run_worker(config, workdir, env, setup_only=True)  # warm caches, write .pyc

    reps: list[dict] = []
    start = time.monotonic()
    # Stop before a repetition would overrun ``seconds``, once MIN_REPS ran.
    while len(reps) < MIN_REPS or \
            (time.monotonic() - start) * (len(reps) + 1) / len(reps) <= seconds:
        r = run_worker(config, workdir, env)
        r["failures"] = output_failures(r, reps[0] if reps else r)
        reps.append(r)
        log(f"  rep {len(reps)}: wall {r['wall_s']:.3f} s, setup {r['setup_s']:.3f} s, "
            f"rss {r['peak_rss_mb']:.1f} MB"
            + (f", FAILED: {'; '.join(r['failures'])}" if r["failures"] else ""))

    # Spend what is left of ``seconds`` on more set-up samples.
    setups = [{k: r[k] for k in ("setup_s", "import_s", "config_s")} for r in reps]
    while (time.monotonic() - start) + 1.5 * max(s["setup_s"] for s in setups) \
            <= seconds:
        setups.append(run_worker(config, workdir, env, setup_only=True))

    first = reps[0]
    walls = [r["wall_s"] for r in reps]
    med = {"wall_s": statistics.median(walls),
           "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps)}
    med.update({k: statistics.median(s[k] for s in setups)
                for k in ("setup_s", "import_s", "config_s")})
    # wall_s is the upper quartile of the repetitions.  The shared host runs
    # in a contended state broken by short uncontended spells that speed
    # everything up by a third; the upper quartile follows the contended
    # state, where a median flips with how much of the run such a spell
    # covers, and is steadier from run to run (see BASELINE.md).
    end_to_end = {"wall_s": statistics.quantiles(walls, n=4, method="inclusive")[2],
                  "setup_s": med["setup_s"], "peak_rss_mb": med["peak_rss_mb"]}
    attempts = [r["failures"] for r in reps]

    per_layer = None
    traced = None
    if trace:
        spans_path = workdir / "spans.jsonl"
        traced = run_worker(config, workdir, env, trace=spans_path)
        fail = output_failures(traced, first)
        if not traced["restored"]:
            fail.append("tracer left a wrapped name behind")
        attempts.append(fail)
        log(f"  traced: wall {traced['wall_s']:.3f} s, {len(traced['layers'])} "
            f"layer metrics" + (f", FAILED: {'; '.join(fail)}" if fail else ""))
        per_layer = dict(traced["layers"])
        per_layer.update({
            "setup.import_s": med["import_s"],
            "setup.config_s": med["config_s"],
            "harness.bytes_written": first["bytes"],
            "harness.files_written": first["files"],
            "trace.overhead_s": traced["wall_s"] - med["wall_s"],
            "fp_l1_exact_max": first.get("fp_l1_exact_max", 0.0),
            **route_metrics(first["report"]),
        })

    wh = first["host"]
    if wh["blas"]["threads"] is not None and wh["blas"]["threads"] > host["nproc"]:
        raise BenchError(f"BLAS runs {wh['blas']['threads']} threads on "
                         f"{host['nproc']} cores")
    failed = sum(1 for f in attempts if f)
    return {
        "config": config,
        "seed": config["seed"],
        "host": {**host, **wh},
        "repetitions": len(reps),
        "attempted": len(attempts),
        "failed": failed,
        "failed_share": failed / len(attempts),
        "failures": [f for f in attempts if f],
        "tree_sha256": first["tree_sha256"],
        "samples": {"wall_s": walls,
                    "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
                    "setup_s": [s["setup_s"] for s in setups]},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "missing": traced["missing"] if traced else [],
    }


def _metric_block(values: dict, units: dict, missing=()) -> dict:
    extra = set(values) - set(units)
    if extra:
        raise BenchError(f"metrics not declared in BENCHMARK.json: {sorted(extra)}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name not in missing}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    e2e_units, layer_units = metric_specs()
    print(f"workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}", flush=True)
    workdir = OUT / name
    rec = bench(workload_config(name, seed), seconds, trace, workdir,
                log=lambda s: print(s, flush=True))
    rec["workload"] = name
    h = rec["host"]
    print(f"  host: nproc {h['nproc']}, {h['cpu_model']}; python {h['python']}, "
          f"numpy {h['numpy']}, scipy {h['scipy']}; BLAS {h['blas']['name']} "
          f"{h['blas']['version']} x{h['blas']['threads']}; "
          f"src/mvsim {h['src_mvsim_lines']} lines")
    print(f"  tree sha256 {rec['tree_sha256']}")
    print(f"  failed_share = {rec['failed_share']:g} ratio "
          f"({rec['failed']} of {rec['attempted']})")
    for k, v in _metric_block(rec["end_to_end"], e2e_units).items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    if rec["per_layer"] is not None:
        for k, v in _metric_block(rec["per_layer"], layer_units, rec["missing"]).items():
            print(f"  {k} = {v['value']:.6g} {v['unit']}")
        for k in rec["missing"]:
            print(f"  {k} = MISSING (its function no longer exists)")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(rec, indent=1, sort_keys=True))
    metrics = (_metric_block(rec["per_layer"], layer_units, rec["missing"])
               if trace else _metric_block(rec["end_to_end"], e2e_units))
    return {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mvsim benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mvsim" / "__init__.py").is_file():
        print(f"no mvsim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names}
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    final = results[names[0]] if len(names) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
