"""The benchmark's workloads: fixed mvsim experiment configs keyed by name.

Each config is frozen here rather than read from ``configs/`` so that an edit
to a shipped config cannot silently change what the benchmark measures.  The
bench seed replaces each config's ``seed``; ``threads`` stays at its default
of 1.
"""

from __future__ import annotations

import copy

_SNAP4 = [0.25, 0.5, 0.75, 1.0]

WORKLOADS: dict[str, dict] = {
    # The particle route alone: noise, Euler, Picard's frozen-flow solves,
    # KDE, exact 1D W2 and 20,000-point cloud CSVs.  FP and Malliavin do no
    # work, so changes to them must leave this workload unchanged.
    "mfou-particles": {
        "preset": "meanfield-ou", "methods": ["particles", "picard"],
        "n_particles": 20000, "steps": 200, "seed": 0,
        "snapshot_times": _SNAP4,
        "picard": {"tol": 0.001, "max_iters": 8},
    },
    # configs/example5-1.json as shipped: the 1D interaction example, where
    # the nonlocal FP re-evaluates drift and statistic every step.
    "ex51-pipeline": {
        "preset": "example5-1",
        "methods": ["particles", "picard", "fp", "malliavin"],
        "n_particles": 5000, "steps": 100, "seed": 0,
        "snapshot_times": _SNAP4,
        "picard": {"tol": 0.001, "max_iters": 8},
        "fp": {"domain": [[-8.0, 8.0]], "nodes": [801]},
        "malliavin": {"n_paths": 20},
    },
    # configs/example5-2.json with 100 Malliavin paths: the only 2D workload
    # (2D FP, sliced W2, per-path 2x2 first variation, marginal KDE).
    "ex52-pipeline": {
        "preset": "example5-2",
        "methods": ["particles", "picard", "fp", "malliavin"],
        "n_particles": 2000, "steps": 80, "seed": 0,
        "snapshot_times": _SNAP4,
        "picard": {"tol": 0.001, "max_iters": 8},
        "fp": {"domain": [[-4.0, 6.0], [-4.0, 6.0]], "nodes": [121, 121]},
        "malliavin": {"n_paths": 100},
    },
    # The static-coefficient FP branch, criterion 2's shape at half its 4001
    # nodes: FP is nearly the whole run, so particle and measures changes
    # must leave it unchanged.
    "ou-fp-static": {
        "preset": "ou", "methods": ["fp"], "n_particles": 1, "steps": 10,
        "seed": 0,
        "snapshot_times": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        "fp": {"nodes": [2001]},
    },
}

def workload_config(name: str, seed: int) -> dict:
    """The experiment config of workload ``name`` with ``seed`` in place."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    cfg = copy.deepcopy(WORKLOADS[name])
    cfg["seed"] = int(seed)
    return cfg
