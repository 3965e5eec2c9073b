"""One measured mvsim run in a fresh interpreter.

    python3 bench/worker.py --config CFG.json --outdir DIR --result OUT.json
                            [--trace SPANS.jsonl] [--setup-only]

Times set-up (``import mvsim`` plus config validation), then
``run_experiment`` until ``report.json`` is published, and writes those
times, the process's peak resident set and the host's library details to
``--result``.  With ``--trace`` the run is wrapped by ``spans.Tracer``, the
spans go to the given file and the per-layer metrics into the result.

An exception raised by the measured run is the program's failure, not the
worker's: it is written to the result as ``error`` and the worker still
exits 0, so ``run.py`` counts the repetition as failed.
"""

import argparse
import ctypes
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"


def _blas() -> dict:
    """Name, version and thread count of the BLAS numpy loaded."""
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def _ou_exact_l1(report: dict, base: Path) -> float:
    """Largest trapezoid L1 distance from an FP snapshot of the ``ou`` preset
    to the exact Gaussian law at its time, read back from the CSVs."""
    from mvsim.measures import grid_density_from_csv, trapezoid_weights
    import numpy as np
    p = report["preset"]["params"]
    theta, sig, x0, s0 = p["theta"], p["sigma"], p["x0"], p["sigma0"]
    worst = 0.0
    for t in report["snapshot_times"]:
        dens = grid_density_from_csv(base / "fp" / f"ou_fp_t{t:g}.csv", time=t)
        decay = math.exp(-theta * t)
        mean = x0 * decay
        var = s0 ** 2 * decay ** 2 + sig ** 2 / (2 * theta) * (1 - decay ** 2)
        x = dens.axes[0].nodes()
        exact = np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)
        w = trapezoid_weights(dens.axes[0])
        worst = max(worst, float(np.dot(w, np.abs(dens.values - exact))))
    return worst


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    raw = json.loads(Path(args.config).read_text())
    sys.path.insert(0, str(_SRC))

    t0 = time.perf_counter()
    import mvsim
    t1 = time.perf_counter()
    cfg = mvsim.ExperimentConfig.from_dict(raw)
    t2 = time.perf_counter()
    out = {"import_s": t1 - t0, "config_s": t2 - t1, "setup_s": t2 - t0}

    if not args.setup_only:
        tracer = None
        if args.trace:
            from spans import ROOT, Tracer, layer_metrics
            tracer = Tracer(run_id=Path(args.trace).stem)
            tracer.install()
        report = None
        t3 = time.perf_counter()
        try:
            if tracer is None:
                report = mvsim.run_experiment(cfg, outdir=args.outdir)
            else:
                with tracer.span(ROOT):
                    report = mvsim.run_experiment(cfg, outdir=args.outdir)
        except Exception:
            out["error"] = traceback.format_exc(limit=-3)
        finally:
            t4 = time.perf_counter()
            if tracer is not None:
                out["restored"] = tracer.uninstall()
        out["wall_s"] = t4 - t3
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["report"] = report
        if report is not None and cfg.preset == "ou" \
                and report["methods"].get("fp", {}).get("status") == "ok":
            try:
                out["fp_l1_exact_max"] = _ou_exact_l1(report, Path(args.outdir) / "ou")
            except Exception:
                out["error"] = traceback.format_exc(limit=-3)
        if tracer is not None:
            tracer.write_spans(args.trace)
            out["layers"], out["missing"] = layer_metrics(tracer, out["wall_s"])

    import numpy
    import scipy
    out["host"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                   "scipy": scipy.__version__, "blas": _blas()}
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
