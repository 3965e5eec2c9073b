"""Outside-in tracing of mvsim: spans around calls into each module's
public functions, recorded without editing the package.

``Tracer.install`` finds every public function of the traced modules by
introspection, so a function that is added or renamed later is still timed,
and replaces each one in every ``mvsim.*`` namespace that holds a reference
to it.  ``Tracer.uninstall`` puts the original objects back.  Each call
records a span (id, parent id, name, start, end); for a few known functions
it also records work counts read from the arguments and the return value.
Spans stay in memory until ``write_spans``.

Span times are read from a clock that stops while the tracer does its own
bookkeeping (opening and closing spans, binding arguments, taking counts),
so that work is charged to no span and ``harness.self_s`` holds only the
program's own orchestration.  The tracer's cost shows instead as
``trace.overhead_s``, against the untraced runs.

``layer_metrics`` reduces the spans to the per-layer numbers the benchmark
reports.  A layer's busy time is the time some function of that layer was on
the stack; its self time excludes the child spans.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import itertools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("particle", "picard", "fokkerplanck", "malliavin", "measures")
ROOT = "harness.run_experiment"


def _brownian(a, result):
    grid = a["grid"]
    n, m = int(a["n_particles"]), int(a["m"])
    return {"normals": n * m * grid.steps, "stream_key": [int(a["seed"]), m],
            "streams": n}


def _euler(a, result):
    steps, n = a["increments"].shape[:2]
    return {"particle_steps": int(steps) * int(n)}


def _solve_fp(a, result):
    nodes = 1
    for ax in a["problem"].axes:
        nodes *= ax.n
    dts = np.diff(np.asarray(result.times, dtype=float))
    return {"steps": int(result.n_steps), "node_steps": int(result.n_steps) * nodes,
            "dt_min": float(dts.min()), "dt_max": float(dts.max())}


def _kde(a, result):
    mu, axis = a["mu"], a["axis"]
    h = hashlib.sha256(mu.points.tobytes())
    h.update(mu.weights.tobytes())
    h.update(repr((axis.lo, axis.hi, axis.n, a.get("bandwidth", "auto"))).encode())
    return {"point_nodes": int(mu.n) * int(axis.n), "key": h.hexdigest()}


def _first_variation(a, result):
    return {"path_steps": int(a["path"].grid.steps)}


def _csv_bytes(a, result):
    return {"bytes": os.path.getsize(a["path"])}


# Work counts taken from the arguments and return values of known functions.
COUNTERS = {
    "particle.generate_brownian": _brownian,
    "particle.euler_paths": _euler,
    "fokkerplanck.solve_fp": _solve_fp,
    "measures.kde_1d": _kde,
    "malliavin.simulate_first_variation": _first_variation,
}


def _counter_for(name: str):
    if name in COUNTERS:
        return COUNTERS[name]
    if name.startswith("measures.") and name.endswith("_to_csv"):
        return _csv_bytes
    return None


def public_functions(module) -> dict:
    """Public functions defined in ``module``, by name."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    """Span recorder that wraps mvsim's public functions while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []      # (id, parent, name, start, end)
        self.work: dict[int, dict] = {}   # span id -> counts
        self.names: set[str] = set()      # every traced function name
        # One stack of open spans: the workloads run with threads=1.
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple] = []   # (namespace, attribute, original)
        self.lost_s = 0.0                 # bookkeeping time kept off the clock

    def _clock(self) -> float:
        """Program time: wall time less the tracer's own bookkeeping."""
        return time.perf_counter() - self.lost_s

    def _open(self) -> tuple[int, int | None]:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, t1) -> None:
        self._stack.pop()
        self.spans.append((sid, parent, name, t0, t1))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block, for calls made from outside."""
        sid, parent = self._open()
        t0 = self._clock()
        try:
            yield
        finally:
            self._close(sid, parent, name, t0, self._clock())

    def _wrap(self, fn, name: str):
        counter = _counter_for(name)
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = time.perf_counter()
            sid, parent = tracer._open()
            start = time.perf_counter()
            tracer.lost_s += start - enter
            t0 = start - tracer.lost_s
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                stop = time.perf_counter()
                tracer._close(sid, parent, name, t0, stop - tracer.lost_s)
                if counter is not None and returned:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    tracer.work[sid] = counter(bound.arguments, result)
                tracer.lost_s += time.perf_counter() - stop

        wrapper.__bench_original__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every public function of LAYERS in every mvsim namespace."""
        import mvsim  # noqa: F401  (loads every submodule)
        wrappers: dict[int, object] = {}
        originals: dict[int, object] = {}
        for layer in LAYERS:
            for fname, fn in public_functions(sys.modules[f"mvsim.{layer}"]).items():
                name = f"{layer}.{fname}"
                self.names.add(name)
                wrappers[id(fn)] = self._wrap(fn, name)
                originals[id(fn)] = fn
        try:
            for ns in _mvsim_modules():
                for attr, value in list(vars(ns).items()):
                    if id(value) in wrappers and value is originals[id(value)]:
                        setattr(ns, attr, wrappers[id(value)])
                        self._patched.append((ns, attr, value))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> bool:
        """Restore every wrapped name; True when no wrapper is left anywhere."""
        while self._patched:
            ns, attr, original = self._patched.pop()
            setattr(ns, attr, original)
        return not any(hasattr(v, "__bench_original__")
                       for ns in _mvsim_modules() for v in vars(ns).values())

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid,
                                     "parent": parent, "name": name,
                                     "start": t0, "end": t1,
                                     **({"work": self.work[sid]}
                                        if sid in self.work else {})}) + "\n")


def _mvsim_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "mvsim" or n.startswith("mvsim."))]


def layer_metrics(tracer: Tracer, wall_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from a finished trace.

    Returns ``(values, missing)``: ``values`` maps metric name to number, and
    ``missing`` names the metrics whose source function no longer exists.
    A layer that did no work on the workload reports 0.
    """
    spans = {s[0]: s for s in tracer.spans}
    child = defaultdict(float)
    for _, parent, _, t0, t1 in tracer.spans:
        if parent is not None:
            child[parent] += t1 - t0

    def ancestors(sid):
        parent = spans[sid][1]
        while parent is not None:
            yield spans[parent][2]
            parent = spans[parent][1]

    def busy(pred) -> float:
        return sum(t1 - t0 for sid, _, name, t0, t1 in tracer.spans
                   if pred(name) and not any(pred(a) for a in ancestors(sid)))

    def in_layer(layer):
        return lambda name: name.startswith(layer + ".")

    def is_(fname):
        return lambda name: name == fname

    def self_time(pred) -> float:
        return sum(t1 - t0 - child[sid] for sid, _, name, t0, t1 in tracer.spans
                   if pred(name))

    def work(fname) -> list[dict]:
        return [w for sid, w in tracer.work.items() if spans[sid][2] == fname]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    out: dict = {}
    missing: list[str] = []

    def need(metric_names, *fnames):
        if all(f in tracer.names for f in fnames):
            return True
        missing.extend(metric_names)
        return False

    for layer in LAYERS:
        out[f"{layer}.busy_s"] = busy(in_layer(layer))
    out["picard.self_s"] = self_time(in_layer("picard"))

    if need(["particle.normals_drawn", "particle.normals_unique_share",
             "particle.noise_ns_per_normal"], "particle.generate_brownian"):
        calls = work("particle.generate_brownian")
        normals = sum(w["normals"] for w in calls)
        # Streams are keyed by (seed, particle index): a call drawing n
        # streams repeats any stream 0..n-1 drawn before under that seed.
        widest = defaultdict(int)
        for w in calls:
            key = tuple(w["stream_key"])
            widest[key] = max(widest[key], w["streams"])
        out["particle.normals_drawn"] = normals
        out["particle.normals_unique_share"] = ratio(
            sum(widest.values()), sum(w["streams"] for w in calls))
        out["particle.noise_ns_per_normal"] = ratio(
            busy(is_("particle.generate_brownian")), normals, 1e9)
    if need(["particle.euler_ns_per_particle_step", "picard.iterations"],
            "particle.euler_paths"):
        out["particle.euler_ns_per_particle_step"] = ratio(
            busy(is_("particle.euler_paths")),
            sum(w["particle_steps"] for w in work("particle.euler_paths")), 1e9)
        out["picard.iterations"] = sum(
            1 for sid, _, name, _, _ in tracer.spans
            if name == "particle.euler_paths"
            and any(a.startswith("picard.") for a in ancestors(sid)))

    if need(["fokkerplanck.steps", "fokkerplanck.us_per_step",
             "fokkerplanck.ns_per_node_step", "fokkerplanck.dt_min",
             "fokkerplanck.dt_max"], "fokkerplanck.solve_fp"):
        calls = work("fokkerplanck.solve_fp")
        steps = sum(w["steps"] for w in calls)
        fp_busy = busy(is_("fokkerplanck.solve_fp"))
        out["fokkerplanck.steps"] = steps
        out["fokkerplanck.us_per_step"] = ratio(fp_busy, steps, 1e6)
        out["fokkerplanck.ns_per_node_step"] = ratio(
            fp_busy, sum(w["node_steps"] for w in calls), 1e9)
        out["fokkerplanck.dt_min"] = min((w["dt_min"] for w in calls), default=0.0)
        out["fokkerplanck.dt_max"] = max((w["dt_max"] for w in calls), default=0.0)

    fv = "malliavin.simulate_first_variation"
    path_steps = sum(w["path_steps"] for w in work(fv))
    if need(["malliavin.paths", "malliavin.fv_us_per_path_step"], fv):
        out["malliavin.paths"] = len(work(fv))
        out["malliavin.fv_us_per_path_step"] = ratio(busy(is_(fv)), path_steps, 1e6)
    if need(["malliavin.cov_us_per_path_step"], fv, "malliavin.covariance_curve"):
        out["malliavin.cov_us_per_path_step"] = ratio(
            busy(is_("malliavin.covariance_curve")), path_steps, 1e6)

    if need(["measures.kde_busy_s", "measures.kde_calls",
             "measures.kde_unique_share", "measures.kde_ns_per_point_node"],
            "measures.kde_1d"):
        calls = work("measures.kde_1d")
        keys = [w["key"] for w in calls]
        out["measures.kde_busy_s"] = busy(is_("measures.kde_1d"))
        out["measures.kde_calls"] = len(keys)
        out["measures.kde_unique_share"] = ratio(len(set(keys)), len(keys))
        out["measures.kde_ns_per_point_node"] = ratio(
            out["measures.kde_busy_s"],
            sum(w["point_nodes"] for w in calls), 1e9)
    out["measures.w2_busy_s"] = busy(lambda n: n.startswith("measures.w2_"))
    if need(["measures.w2_sliced_busy_s"], "measures.w2_sliced"):
        out["measures.w2_sliced_busy_s"] = busy(is_("measures.w2_sliced"))
    csv_bytes = sum(w.get("bytes", 0) for w in tracer.work.values())
    out["measures.csv_busy_s"] = busy(
        lambda n: n.startswith("measures.") and "csv" in n)
    out["measures.csv_mb_per_s"] = ratio(
        csv_bytes, busy(lambda n: n.startswith("measures.") and n.endswith("_to_csv")),
        1e-6)

    out["harness.self_s"] = self_time(is_(ROOT))
    # Share of the traced wall time spent inside some traced module function.
    # The root span's self time is untraced work, and wall_s also holds the
    # bookkeeping kept off the span clock, so this is below 1 by both.
    out["trace.coverage"] = ratio(busy(lambda n: n != ROOT), wall_s)
    return out, missing
