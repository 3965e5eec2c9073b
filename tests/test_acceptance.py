"""Acceptance checks for the shipped guarantees, one test per criterion.

Each test prints exactly one ``[PASS]``/``[FAIL]`` line with its measured
numbers.  These runs are heavier than the unit suite but the whole module
stays within a few minutes on one core.
"""

import hashlib
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import mvsim
from mvsim import (
    CoefficientModel,
    TimeGrid,
    covariance_curve,
    ellipticity_bound_check,
    empirical_statistics,
    fp_statistics_curve,
    get_preset,
    kde_1d,
    l1_grid_distance,
    malliavin_covariance,
    picard_run,
    run_experiment,
    simulate_first_variation,
    simulate_interacting,
    solve_fp,
    build_fp_problem,
    w2_empirical_1d,
    zy_residual,
)
from mvsim.measures import EmpiricalMeasure, GridDensity, StatisticFlow
from mvsim.particle import coarsen_increments, euler_paths

MEAN_TARGET = math.exp(-0.5)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def _gauss_on(axis, var):
    x = axis.nodes()
    v = np.exp(-0.5 * x ** 2 / var) / math.sqrt(2 * math.pi * var)
    return GridDensity((axis,), v, time=0.0)


def _tree_digest(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _zy_halving_ratio(inst, seed: int):
    """Max ZY defect at 250 steps over the same at 500, shared noise."""
    grid_f = TimeGrid(1.0, 500)
    bundle = simulate_interacting(inst.model, inst.law, grid_f, 1, seed=seed)
    fv_f = simulate_first_variation(inst.model, bundle.path(0),
                                    bundle.realized_flow)
    r_f = float(zy_residual(fv_f).max())
    flow_c = StatisticFlow(grid_f.times()[0::2],
                           bundle.realized_flow.stats[0::2])
    pb = euler_paths(inst.model, bundle.states[0], TimeGrid(1.0, 250),
                     coarsen_increments(bundle.increments), flow=flow_c)
    fv_c = simulate_first_variation(inst.model, pb.path(0), flow_c)
    r_c = float(zy_residual(fv_c).max())
    return r_c, r_f


def test_criterion_1_free_diffusion_both_routes_match_the_law():
    t0 = time.monotonic()
    inst = get_preset("bm")
    axis_exact = None

    pr = build_fp_problem(inst.model, inst.law, inst.fp_domain, inst.fp_nodes,
                          1.0)
    sol = solve_fp(pr)
    axis_exact = _gauss_on(pr.axes[0], 2.0)
    fp_l1 = l1_grid_distance(sol.snapshots[-1], axis_exact)

    bundle = simulate_interacting(inst.model, inst.law, TimeGrid(1.0, 100),
                                  100_000, seed=20240601)
    kde = kde_1d(bundle.snapshot(100), pr.axes[0], time=1.0)
    kde_l1 = l1_grid_distance(kde, axis_exact)

    elapsed = time.monotonic() - t0
    ok = fp_l1 <= 0.03 and kde_l1 <= 0.03 and elapsed < 60.0
    _verdict(1, ok, f"fp L1 {fp_l1:.2e}, kde L1 {kde_l1:.4f} (both <= 0.03), "
                    f"{elapsed:.1f}s")
    assert ok


def test_criterion_2_stationary_law_is_preserved_on_the_grid():
    t0 = time.monotonic()
    inst = get_preset("ou")
    marks = tuple(round(0.1 * k, 10) for k in range(1, 11))
    pr = build_fp_problem(inst.model, inst.law, inst.fp_domain, (4001,), 1.0,
                          snapshot_times=marks)
    sol = solve_fp(pr)
    exact = _gauss_on(pr.axes[0], 1.0)
    errs = [l1_grid_distance(p, exact) for p in sol.snapshots]
    elapsed = time.monotonic() - t0
    ok = max(errs) <= 1e-3 and elapsed < 60.0
    _verdict(2, ok, f"max L1 drift {max(errs):.2e} over ten times "
                    f"(<= 1e-3), {elapsed:.1f}s")
    assert ok


def test_criterion_3_three_routes_agree_on_the_coupled_mean():
    inst = get_preset("meanfield-ou")
    grid = TimeGrid(1.0, 200)

    bundle = simulate_interacting(inst.model, inst.law, grid, 20_000, seed=7)
    m_part = empirical_statistics(bundle.snapshot(200),
                                  inst.model.functionals)[0]

    run = picard_run(inst.model, inst.law, grid, 20_000, seed=7, tol=1e-3,
                     max_iters=8, checkpoints=(1.0,))
    m_pic = empirical_statistics(run.final_clouds[-1],
                                 inst.model.functionals)[0]

    pr = build_fp_problem(inst.model, inst.law, inst.fp_domain,
                          inst.fp_nodes, 1.0)
    m_fp = fp_statistics_curve(solve_fp(pr), inst.model.functionals)[-1, 0]

    errs = [abs(m - MEAN_TARGET) for m in (m_part, m_pic, m_fp)]
    gaps = np.asarray(run.gaps)
    mono = bool(np.all(np.diff(gaps) < 0))
    ok = (max(errs) <= 2e-2 and run.converged and run.n_iters <= 8
          and mono and gaps[-1] < 1e-3)
    _verdict(3, ok,
             f"mean errors particle {errs[0]:.2e} picard {errs[1]:.2e} "
             f"fp {errs[2]:.2e} (<= 2e-2); gaps "
             + "->".join(f"{g:.1e}" for g in gaps)
             + f" strictly decreasing={mono} in {run.n_iters} iters")
    assert ok


def test_criterion_4_covariance_identities_and_defect_order():
    # (a) constant sigma: Q(t) = t sigma sigma^T to rounding
    rel_a = 0.0
    inst = get_preset("bm")
    bundle = simulate_interacting(inst.model, inst.law, TimeGrid(1.0, 100),
                                  1, seed=0)
    fv = simulate_first_variation(inst.model, bundle.path(0),
                                  bundle.realized_flow)
    for k in (50, 100):
        cov = malliavin_covariance(fv, t_index=k)
        rel_a = max(rel_a, abs(cov.Q[0, 0] - k / 100) / (k / 100))

    two = get_preset("example5-2")
    flat = CoefficientModel(
        d=2, m=2, functionals=two.model.functionals,
        b=lambda t, x, s: np.zeros_like(x),
        sigma=two.model.sigma,
        db_dx=lambda t, x, s: np.zeros(x.shape[:-1] + (2, 2)),
        dsigma_dx=two.model.dsigma_dx,
        b_static=True, sigma_static=True)
    b2 = simulate_interacting(flat, two.law, TimeGrid(1.0, 100), 1, seed=0)
    fv2 = simulate_first_variation(flat, b2.path(0), b2.realized_flow)
    cov2 = malliavin_covariance(fv2, t_index=100)
    A = np.array([[0.5, 0.4], [0.4, 0.5]])
    rel_a = max(rel_a, float(np.abs(cov2.Q - A).max() / np.abs(A).max()))
    ok_a = rel_a < 1e-10

    # (b) multiplicative noise: defect of Q against the closed-form value on
    # the exactly simulated driving path halves with the step
    gbm = get_preset("gbm")
    mu_, s_ = 1.0, 0.05
    ratios_b = []
    for seed in range(10):
        errs = []
        for M in (250, 500):
            gb = simulate_interacting(gbm.model, gbm.law, TimeGrid(1.0, M),
                                      1, seed=seed)
            gfv = simulate_first_variation(gbm.model, gb.path(0),
                                           gb.realized_flow)
            q = malliavin_covariance(gfv, t_index=M).Q[0, 0]
            w_t = float(gb.increments.sum())
            x_exact = math.exp((mu_ - 0.5 * s_ ** 2) + s_ * w_t)
            errs.append(abs(q - s_ ** 2 * x_exact ** 2))
        ratios_b.append(errs[0] / errs[1])
    med_b = statistics.median(ratios_b)
    ok_b = 1.6 <= med_b <= 2.4

    # (c) the inverse-flow defect halves with the step on every preset
    parts_c = []
    ok_c = True
    for name in ("bm", "ou", "gbm", "meanfield-ou", "example5-1",
                 "example5-2"):
        inst_c = get_preset(name)
        ratios = []
        exact_zero = True
        for seed in range(15):
            r_c, r_f = _zy_halving_ratio(inst_c, seed)
            if r_c != 0.0 or r_f != 0.0:
                exact_zero = False
                ratios.append(r_c / r_f)
        if exact_zero:
            parts_c.append(f"{name}=exact-zero")
            continue
        med = statistics.median(ratios)
        good = 1.6 <= med <= 2.4
        ok_c = ok_c and good
        parts_c.append(f"{name}={med:.2f}" + ("" if good else "(out of band)"))

    ok = ok_a and ok_b and ok_c
    _verdict(4, ok,
             f"a: const-sigma rel {rel_a:.1e}; b: gbm median ratio "
             f"{med_b:.2f}; c: " + " ".join(parts_c)
             + "; band [1.6, 2.4]")
    assert ok, (
        "a covariance identity or a defect order is out of band: (a) the "
        "constant-sigma covariance must equal t sigma sigma^T, (b) the gbm "
        "covariance defect and (c) the max ZY defect must halve when the step "
        "count doubles; the Z step with the realized dW_i dW_j in its Ito "
        "correction makes the ZY defect O(dt) on every preset")


def test_criterion_5_spectral_floor_holds_on_every_path():
    t0 = time.monotonic()
    inst = get_preset("example5-2")
    grid = TimeGrid(1.0, 100)
    bundle = simulate_interacting(inst.model, inst.law, grid, 100,
                                  seed=20240604)
    flow = bundle.realized_flow
    margins = []
    holds = []
    for i in range(100):
        fv = simulate_first_variation(inst.model, bundle.path(i), flow)
        cov = covariance_curve(fv)[-1]
        rep = ellipticity_bound_check(cov, 0.1)
        holds.append(rep.holds)
        margins.append(rep.margin)
    elapsed = time.monotonic() - t0
    ok = all(holds) and elapsed < 120.0
    _verdict(5, ok, f"{sum(holds)}/100 paths satisfy the floor, margin in "
                    f"[{min(margins):.4f}, {max(margins):.4f}], {elapsed:.1f}s")
    assert ok


def test_criterion_6_transport_cost_never_beats_the_pairing():
    rng = np.random.default_rng(20240606)
    violations = 0
    worst = -np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 41))
        a = rng.normal(scale=rng.uniform(0.5, 2.0), size=(n, 1))
        b = a + rng.normal(scale=rng.uniform(0.1, 1.0), size=(n, 1))
        w = np.full(n, 1.0 / n)
        d = w2_empirical_1d(EmpiricalMeasure(a, w), EmpiricalMeasure(b, w))
        rms = math.sqrt(float(np.mean((a - b) ** 2)))
        worst = max(worst, d - rms)
        if d > rms + 1e-10:
            violations += 1
    ok = violations == 0
    _verdict(6, ok, f"{violations}/1000 pairs violate W2 <= RMS "
                    f"(worst slack {worst:.2e})")
    assert ok


def test_criterion_7_shipped_configs_run_end_to_end(tmp_path):
    baselines = {
        "example5-1": {"l1_kde_vs_fp": 0.030769},
        "example5-2": {"l1_kde_vs_fp_x1": 0.084574,
                       "l1_kde_vs_fp_x2": 0.090491},
    }
    marks = ("0.25", "0.5", "0.75", "1")
    ok = True
    parts = []
    for name, bands in baselines.items():
        report = run_experiment(Path("configs") / f"{name}.json",
                                outdir=tmp_path)
        ok &= all(report["methods"][m]["status"] == "ok"
                  for m in report["methods"])
        fp = report["methods"]["fp"]
        ok &= fp["max_conservation_defect"] <= 1e-4
        ok &= fp["min_value"] >= -1e-3
        for t in marks:
            ok &= (tmp_path / name / "fp" / f"{name}_fp_t{t}.csv").is_file()
        for key, frozen in bands.items():
            got = report["comparisons"]["t=1"][key]
            ok &= abs(got - frozen) <= 0.3 * frozen
            parts.append(f"{name} {key}={got:.6f} (frozen {frozen:.6f})")
    _verdict(7, ok, "; ".join(parts) + "; rel band 0.3")
    assert ok


def test_criterion_8_reruns_are_byte_identical(tmp_path):
    # the second run is the CLI in a fresh interpreter: no state is shared
    cfg = Path("configs") / "meanfield-ou.json"
    run_experiment(cfg, outdir=tmp_path / "one")
    src = str(Path(mvsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-m", "mvsim.cli", "run", str(cfg),
                    "--outdir", str(tmp_path / "two")], env=env, check=True,
                   capture_output=True)
    d1 = _tree_digest(tmp_path / "one")
    d2 = _tree_digest(tmp_path / "two")
    ok = bool(d1) and d1 == d2
    _verdict(8, ok, f"{len(d1)} files identical across a rerun in a fresh "
                    f"interpreter")
    assert ok
