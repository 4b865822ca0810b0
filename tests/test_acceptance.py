"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from stochpe import DomainSpec, Grid
from stochpe.diagnostics import detect_stopping
from stochpe.experiments import (
    apriori_sweep,
    convergence_study,
    divergence_slope,
    run_ensemble,
    uniqueness_experiment,
)
from stochpe.noise import additive_single_mode_noise, example1_noise, estimate_growth_constants, hypothesis_thresholds, zero_noise
from stochpe.operators import PhysicsParams
from stochpe.solver import InitSpec, SolverConfig, run_trajectory
from stochpe.verify import (
    advection_residuals,
    leray_residuals,
    linear_flow_residuals,
    projection_violations,
    recombination_residual,
    split_exact,
)

GRID_888 = Grid(DomainSpec(N1=8, N2=8, M=8))
WORKERS = 2


def _report(num, label, passed, elapsed, budget, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num:2d} ({label}): {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert passed, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget ({elapsed:.1f}s)"


def test_criterion_01_operator_identities():
    t0 = time.time()
    worst_cancel, worst_anti = advection_residuals(GRID_888, np.random.default_rng(1), 100)
    elapsed = time.time() - t0
    ok = worst_cancel <= 1e-10 and worst_anti <= 1e-10
    _report(1, "operator identities", ok, elapsed, 60.0,
            f"cancellation {worst_cancel:.2e}, antisymmetry {worst_anti:.2e}")


def test_criterion_02_decomposition_exactness():
    t0 = time.time()
    g = GRID_888
    rng = np.random.default_rng(2)
    exact_ok = split_exact(g, rng, 100)
    worst_div, _ = leray_residuals(g, rng, 100)
    worst_rec = recombination_residual(g, rng, 25, PhysicsParams(f=0.7, beta_T=0.2))
    elapsed = time.time() - t0
    ok = exact_ok and worst_div < 1e-12 and worst_rec < 1e-9
    _report(2, "decomposition exactness", ok, elapsed, 60.0,
            f"divergence {worst_div:.2e}, recombination {worst_rec:.2e}")


def test_criterion_03_projection_inequalities():
    t0 = time.time()
    violations = projection_violations(GRID_888, np.random.default_rng(3), 100)
    elapsed = time.time() - t0
    _report(3, "projection inequalities", violations == 0, elapsed, 30.0, f"{violations} violations")


def test_criterion_04_linear_flow_exactness():
    t0 = time.time()
    g = Grid(DomainSpec(N1=4, N2=4, M=4, mu=0.05, nu=0.05))
    cfg = SolverConfig(
        grid=g,
        noise=zero_noise(g),
        init=InitSpec(kind="random", seed=4),
        physics=PhysicsParams(f=0.0, beta_T=0.0),
        dt=0.02,
        t_end=1.0,
        advection=False,
        store_stride=10,
    )
    _, per_mode_rel, energy_rel = linear_flow_residuals(cfg)
    elapsed = time.time() - t0
    ok = per_mode_rel <= 1e-12 and energy_rel <= 1e-6
    _report(4, "linear flow exactness", ok, elapsed, 30.0,
            f"mode error {per_mode_rel:.2e}, energy identity {energy_rel:.2e}")


def test_criterion_05_ou_moments_and_isometry():
    t0 = time.time()
    g = Grid(DomainSpec(N1=1, N2=1, M=0))
    lam = 1.0
    chi_sq = 0.5 * g.volume  # unit-amplitude cos(x) mode
    noise = additive_single_mode_noise(g, "v2", 1, 0, 0, amplitude=1.0)
    cfg = SolverConfig(
        grid=g,
        noise=noise,
        init=InitSpec(kind="zero"),
        physics=PhysicsParams(f=0.0, beta_T=0.0),
        dt=1.0 / 128,
        t_end=1.0,
        advection=False,
        store_stride=128,
        seed=7,
        track_ito=True,
    )
    n_paths = 10_000
    summaries = run_ensemble(cfg, n_paths, workers=WORKERS)
    finals = np.array([s["final_H_sq"] for s in summaries])
    mean, se = finals.mean(), finals.std(ddof=1) / math.sqrt(n_paths)
    expected = chi_sq * (1.0 - math.exp(-2.0 * lam)) / (2.0 * lam)
    z = (mean - expected) / se

    lhs = float(np.mean([s["ito_lhs"] for s in summaries]))
    rhs = float(np.mean([s["ito_quad"] for s in summaries]))
    iso_rel = abs(lhs - rhs) / rhs
    elapsed = time.time() - t0
    ok = abs(z) <= 3.0 and iso_rel < 0.05
    _report(5, "OU moments + isometry", ok, elapsed, 300.0,
            f"|z| = {abs(z):.2f}, isometry rel err {iso_rel:.3f} at {n_paths} paths")


def test_criterion_06_strong_convergence():
    t0 = time.time()
    g = GRID_888
    noise = example1_noise(g, K=4, amp_phi=0.02, amp_psi=0.02, amp_chi=0.05, osc=1)
    cfg = SolverConfig(
        grid=g,
        noise=noise,
        init=InitSpec(kind="random", seed=8, amplitude=0.5),
        n_galerkin=200,
        dt=1.0 / 16,
        t_end=0.25,
        seed=6,
    )
    res = convergence_study(cfg, (1.0 / 16, 1.0 / 32, 1.0 / 64), n_paths=4)
    elapsed = time.time() - t0
    _report(6, "strong convergence", res["order"] >= 0.45, elapsed, 600.0,
            f"fitted temporal order {res['order']:.2f}")


def test_criterion_07_hypothesis_checker():
    t0 = time.time()
    g = Grid(DomainSpec(N1=3, N2=3, M=3, mu=1.0, nu=1.0))
    small = example1_noise(g, K=4, amp_phi=0.015, amp_psi=0.015, amp_chi=0.01, amp_alpha=0.01, osc=0)
    rep_small = estimate_growth_constants(small, sample_count=150, p=4.0, c_bdg=2.0)
    large = example1_noise(g, K=4, amp_phi=1.5, amp_psi=1.5, osc=2)
    rep_large = estimate_growth_constants(large, sample_count=150, p=4.0, c_bdg=2.0)
    threshold = hypothesis_thresholds(4.0, 2.0, 1.0, 1.0)["eta1"]
    elapsed = time.time() - t0
    ok = rep_small.eta1 <= 1e-3 and rep_small.h_p_pass and not rep_large.h_p_pass
    _report(7, "hypothesis checker", ok, elapsed, 120.0,
            f"flat eta1 {rep_small.eta1:.2e} (H4 {'ok' if rep_small.h_p_pass else 'fail'}), "
            f"oscillatory eta1 {rep_large.eta1:.2e} vs threshold {threshold:.3f} "
            f"(H4 {'ok' if rep_large.h_p_pass else 'fails as designed'})")


def test_criterion_08_pathwise_uniqueness():
    t0 = time.time()
    g = Grid(DomainSpec(N1=2, N2=2, M=2))
    noise = example1_noise(g, K=2, amp_phi=0.02, amp_chi=0.05, osc=1)
    cfg = SolverConfig(
        grid=g,
        noise=noise,
        init=InitSpec(kind="random", seed=31, amplitude=0.3),
        dt=0.01,
        t_end=0.2,
        seed=4,
    )
    base = uniqueness_experiment(cfg, 0.0)
    slope_res = divergence_slope(cfg, (1e-8, 1e-6, 1e-4))
    elapsed = time.time() - t0
    ok = base["bit_identical"] and abs(slope_res["slope"] - 1.0) <= 0.2
    _report(8, "pathwise uniqueness", ok, elapsed, 300.0,
            f"identical replay {base['bit_identical']}, log-log slope {slope_res['slope']:.3f}")


def test_criterion_09_stopping_instrumentation():
    t0 = time.time()
    g = Grid(DomainSpec(N1=2, N2=2, M=1))
    noise = example1_noise(g, K=2, amp_phi=0.05, amp_psi=0.05, amp_chi=0.4, osc=1)

    # hitting-time monotonicity in the level on 100 noisy paths
    violations = 0
    rng = np.random.default_rng(9)
    for tid in range(100):
        cfg = SolverConfig(
            grid=g,
            noise=noise,
            init=InitSpec(kind="random", seed=9, amplitude=0.5),
            dt=1.0 / 64,
            t_end=0.25,
            store_stride=1,
            seed=90,
            trajectory_id=tid,
        )
        traj = run_trajectory(cfg)
        times, vals = traj.series("weak")
        K = float(rng.uniform(0.1, 0.9) * vals[-1])
        t1 = detect_stopping(times, vals, K)
        t2 = detect_stopping(times, vals, 2.0 * K)
        if t1 is not None and t2 is not None and t2 < t1 - 1e-12:
            violations += 1

    # tiny cutoff radius: the distance functional fires within five steps
    hits_fast = 0
    for tid in range(100):
        cfg = SolverConfig(
            grid=g,
            noise=noise,
            init=InitSpec(kind="random", seed=9, amplitude=0.5),
            equation="modified",
            kappa_cutoff=1e-6,
            dt=1.0 / 64,
            t_end=10.0 / 64,
            store_stride=10,
            seed=91,
            trajectory_id=tid,
        )
        traj = run_trajectory(cfg)
        t_hit = traj.hits["tau_cutoff"]
        if t_hit is not None and t_hit <= 5 * cfg.dt:
            hits_fast += 1
    elapsed = time.time() - t0
    ok = violations == 0 and hits_fast >= 95
    _report(9, "stopping instrumentation", ok, elapsed, 300.0,
            f"{violations} monotonicity violations, fast cutoff hits {hits_fast}/100")


def test_criterion_10_apriori_stability():
    t0 = time.time()
    g = GRID_888
    noise = example1_noise(g, K=4, amp_phi=0.02, amp_psi=0.02, amp_chi=0.05, osc=1)
    cfg = SolverConfig(
        grid=g,
        noise=noise,
        init=InitSpec(kind="random", seed=8, amplitude=0.5),
        dt=1.0 / 64,
        t_end=0.25,
        store_stride=8,
        seed=17,
        apriori_p=4.0,
    )
    res = apriori_sweep(cfg, n_values=(100, 200), n_paths=100, workers=WORKERS)
    elapsed = time.time() - t0
    _report(10, "a-priori stability", res["pass"], elapsed, 900.0,
            f"estimates {res['estimates']}, ratio {res['ratios'][0]:.3f}")
