"""Machine-checkable verification suites driven by the command line front end.

Each suite re-runs the structural identities of one subsystem on freshly
generated random states and returns a machine-readable verdict.  A check on
the pathological noise preset passes exactly when the hypothesis test fails
there, i.e. designed failures are asserted as failures.

The residual functions below are shared with the acceptance gate; each
caller brings its own grid, random generator, sample count and tolerance.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .diagnostics import detect_stopping, record
from .noise import (
    apply_sigma,
    estimate_growth_constants,
    example1_noise,
    example2_noise,
    hs_norm_sq,
)
from .operators import (
    PhysicsParams,
    average_A3,
    baroclinic_rhs_terms,
    barotropic_divergence,
    bilinear_B,
    fluctuation_R,
    leray_project,
    recombine_split_rhs,
    trilinear_b,
    velocity_rhs_unsplit,
)
from .solver import InitSpec, SolverConfig, run_trajectory, solve_linear_Ustar
from .spectral import (
    DomainSpec,
    Grid,
    SpectralState,
    complement_q,
    da_norm_sq,
    h_norm_sq,
    project_n,
    random_state,
    to_physical,
    to_spectral,
    v_norm_sq,
)

__all__ = [
    "SUITES",
    "run_suite",
    "leray_residuals",
    "split_exact",
    "advection_residuals",
    "recombination_residual",
    "projection_violations",
    "linear_flow_residuals",
]


def _check(name, passed, **info):
    entry = {"name": name, "passed": bool(passed)}
    entry.update({k: (float(v) if isinstance(v, (int, float, np.floating)) else v) for k, v in info.items()})
    return entry


def _h2(st):
    return math.sqrt(h_norm_sq(st) + da_norm_sq(st))


def leray_residuals(g: Grid, rng, n: int) -> tuple:
    """Worst barotropic divergence and idempotence defect of the projection."""
    max_div = 0.0
    max_idem = 0.0
    for _ in range(n):
        st = leray_project(random_state(g, rng))
        max_div = max(max_div, float(np.abs(barotropic_divergence(st)).sum()))
        max_idem = max(max_idem, float(np.abs(leray_project(st).coeffs - st.coeffs).max()))
    return max_div, max_idem


def split_exact(g: Grid, rng, n: int) -> bool:
    """A3 U + R U == U bitwise, and R U has no depth mean, on n random states."""
    ok = True
    for _ in range(n):
        st = random_state(g, rng)
        rst = fluctuation_R(st)
        ok &= np.array_equal(average_A3(st).coeffs + rst.coeffs, st.coeffs)
        ok &= not rst.coeffs[:, :, :, 0].any()
    return bool(ok)


def advection_residuals(g: Grid, rng, n: int) -> tuple:
    """Worst relative |b(U, V, V)| and |b(U, V, W) + b(U, W, V)| over n
    divergence-free triples, scaled by ||U|| |V|_H2 |W|_H2."""
    worst_cancel = 0.0
    worst_anti = 0.0
    for _ in range(n):
        U = leray_project(random_state(g, rng))
        Us = leray_project(random_state(g, rng))
        Ub = leray_project(random_state(g, rng))
        nU = math.sqrt(v_norm_sq(U))
        c = abs(trilinear_b(U, Us, Us)) / max(nU * _h2(Us) ** 2, 1e-30)
        a = abs(trilinear_b(U, Us, Ub) + trilinear_b(U, Ub, Us)) / max(nU * _h2(Us) * _h2(Ub), 1e-30)
        worst_cancel = max(worst_cancel, c)
        worst_anti = max(worst_anti, a)
    return worst_cancel, worst_anti


def recombination_residual(g: Grid, rng, n: int, phys: PhysicsParams) -> float:
    """Worst gap between the recombined depth-split and the unsplit velocity
    right-hand side, relative to the largest unsplit coefficient."""
    worst = 0.0
    for _ in range(n):
        st = leray_project(random_state(g, rng))
        combined = recombine_split_rhs(g, baroclinic_rhs_terms(st, phys))
        unsplit = velocity_rhs_unsplit(st, phys)
        worst = max(worst, float(np.abs(combined - unsplit).max()) / max(float(np.abs(unsplit).max()), 1e-300))
    return worst


def projection_violations(g: Grid, rng, n: int) -> int:
    """Violations of the inverse/direct inequalities of P_n and Q_n between
    H, V and D(A), on n random states with random cut-offs."""
    lam_sorted = g.lam_sorted
    violations = 0
    for _ in range(n):
        st = random_state(g, rng, zero_mean=False)
        n_cut = int(rng.integers(1, g.n_modes_total + 1))
        lam_n = lam_sorted[n_cut - 1]
        qn = complement_q(st, n_cut)
        pn = project_n(st, n_cut)
        for s1, s2, lo_f, hi_f in ((0.0, 0.5, h_norm_sq, v_norm_sq), (0.5, 1.0, v_norm_sq, da_norm_sq)):
            if lam_n > 0 and math.sqrt(lo_f(qn)) > lam_n ** (-(s2 - s1)) * math.sqrt(hi_f(qn)) * (1 + 1e-12):
                violations += 1
            if math.sqrt(hi_f(pn)) > lam_n ** (s2 - s1) * math.sqrt(lo_f(pn)) * (1 + 1e-12) + 1e-300:
                violations += 1
    return violations


def linear_flow_residuals(cfg: SolverConfig) -> tuple:
    """Largest absolute and relative modewise error of the stepped linear flow
    at t_end against the exact decay, and the relative defect of the energy
    identity of the stepped states U_0, .., U_N,

        |U_N|^2 + sum_n sum_modes w |c_n|^2 (1 - exp(-2 lam dt)) = |U_0|^2,

    which holds exactly when every step is the free decay of its start."""
    traj = run_trajectory(replace(cfg, store_stride=1, store_states=True))
    g = cfg.grid
    U0 = SpectralState(g, traj.states[0], traj.times[0])
    exact = solve_linear_Ustar(U0, [cfg.t_end])[0]
    err = float(np.abs(traj.final_state.coeffs - exact.coeffs).max())
    lost = (1.0 - np.exp(-2.0 * g.lam * cfg.dt))[None] * g.weight_m
    decayed = sum(float(np.sum(np.abs(s) ** 2 * lost)) for s in traj.states[:-1])
    lhs = h_norm_sq(SpectralState(g, traj.states[-1])) + decayed
    rhs = h_norm_sq(U0)
    return err, err / float(np.abs(exact.coeffs).max()), abs(lhs - rhs) / rhs


def suite_operators(grid: Grid | None = None) -> list:
    g = grid or Grid(DomainSpec(N1=4, N2=4, M=4))
    rng = np.random.default_rng(2024)
    checks = []

    max_div, max_idem = leray_residuals(g, rng, 100)
    checks.append(_check("leray_divergence", max_div < 1e-12, max_divergence=max_div))
    checks.append(_check("leray_idempotence", max_idem < 1e-14, max_change=max_idem))
    checks.append(_check("split_exactness", split_exact(g, rng, 50)))

    worst_cancel, worst_anti = advection_residuals(g, rng, 100)
    checks.append(_check("advection_cancellation", worst_cancel <= 1e-10, worst=worst_cancel))
    checks.append(_check("advection_antisymmetry", worst_anti <= 1e-10, worst=worst_anti))

    w = g.weight_m[None, None, None, :]
    worst_dual = 0.0
    for _ in range(25):
        U = leray_project(random_state(g, rng))
        Us = random_state(g, rng)
        Ub = random_state(g, rng)
        lhs = float(np.sum(bilinear_B(U, Us).coeffs * np.conj(Ub.coeffs) * w).real)
        rhs = trilinear_b(U, Us, Ub)
        worst_dual = max(worst_dual, abs(lhs - rhs) / max(abs(rhs), 1.0))
    checks.append(_check("advection_duality", worst_dual <= 1e-10, worst=worst_dual))

    worst_rec = recombination_residual(g, rng, 20, PhysicsParams(f=0.7, beta_T=0.2))
    checks.append(_check("split_recombination", worst_rec <= 1e-9, worst=worst_rec))

    violations = projection_violations(g, rng, 100)
    checks.append(_check("projection_inequalities", violations == 0, violations=violations))

    worst_rt = 0.0
    worst_pv = 0.0
    for _ in range(50):
        st = random_state(g, rng)
        back = to_spectral(to_physical(st, dealias=True))
        worst_rt = max(worst_rt, float(np.abs(back.coeffs - st.coeffs).max()))
        ph = to_physical(st, dealias=True)
        quad = sum(float(np.sum(f**2)) * g.quad_weight(padded=True) for f in (ph.v1, ph.v2, ph.T))
        worst_pv = max(worst_pv, abs(quad - h_norm_sq(st)) / h_norm_sq(st))
    checks.append(_check("transform_round_trip", worst_rt < 1e-12, worst=worst_rt))
    checks.append(_check("parseval", worst_pv < 1e-10, worst=worst_pv))
    return checks


def suite_noise(grid: Grid | None = None) -> list:
    g = grid or Grid(DomainSpec(N1=3, N2=3, M=3))
    rng = np.random.default_rng(77)
    checks = []

    spec2 = example2_noise(g, K=4, amp_phi=0.8, amp_chi=0.3, amp_alpha=0.4, osc=1)
    worst = 0.0
    for _ in range(10):
        v = leray_project(random_state(g, rng))
        rv = fluctuation_R(v)
        for k, col in enumerate(apply_sigma(spec2, v)):
            chi_state = SpectralState(g, np.concatenate([spec2.chi[k], np.zeros_like(spec2.chi[k][:1])]))
            expected = spec2.alpha[k] * rv.coeffs[:2] + fluctuation_R(chi_state).coeffs[:2]
            worst = max(worst, float(np.abs(fluctuation_R(col).coeffs[:2] - expected).max()))
    checks.append(_check("family2_fluctuation_identity", worst < 1e-10, worst=worst))

    spec_flat = example1_noise(g, K=1, amp_phi=0.9, osc=0)
    ok = True
    for _ in range(25):
        v = leray_project(random_state(g, rng))
        lhs = hs_norm_sq(apply_sigma(spec_flat, v), "H")
        ok &= lhs <= (spec_flat.theta0_sq / g.spec.mu) * v_norm_sq(v) * (1 + 1e-10)
    checks.append(_check("transport_H_bound", ok))

    small = example1_noise(g, K=4, amp_phi=0.015, amp_psi=0.015, amp_chi=0.01, amp_alpha=0.01, osc=0)
    rep = estimate_growth_constants(small, sample_count=150, p=4.0, c_bdg=2.0)
    checks.append(_check("small_family_h4_passes", rep.h_p_pass and rep.eta1 <= 1e-3, eta1=rep.eta1))

    large = example1_noise(g, K=4, amp_phi=1.5, amp_psi=1.5, osc=2)
    rep_l = estimate_growth_constants(large, sample_count=150, p=4.0, c_bdg=2.0)
    checks.append(
        _check("pathological_family_h4_fails_as_designed", not rep_l.h_p_pass, eta1=rep_l.eta1)
    )
    return checks


def suite_solver(grid: Grid | None = None) -> list:
    g = grid or Grid(DomainSpec(N1=2, N2=2, M=2))
    checks = []
    from .noise import zero_noise

    cfg = SolverConfig(
        grid=g,
        noise=zero_noise(g),
        init=InitSpec(kind="random", seed=5),
        physics=PhysicsParams(f=0.0, beta_T=0.0),
        dt=0.02,
        t_end=1.0,
        advection=False,
        store_stride=5,
    )
    err, _, energy_rel = linear_flow_residuals(cfg)
    checks.append(_check("linear_flow_exactness", err <= 1e-12, max_error=err))
    checks.append(_check("linear_energy_identity", energy_rel <= 1e-6, rel=energy_rel))

    spec = example1_noise(g, K=3, amp_phi=0.1, amp_chi=0.3, osc=1)
    cfg2 = SolverConfig(
        grid=g, noise=spec, init=InitSpec(kind="random", seed=11), dt=0.01, t_end=0.2, seed=3
    )
    a = run_trajectory(cfg2)
    b = run_trajectory(cfg2)
    checks.append(
        _check("trajectory_determinism", np.array_equal(a.final_state.coeffs, b.final_state.coeffs))
    )

    n = g.snap_mode_count(40)
    cfg3 = SolverConfig(
        grid=g, noise=spec, init=InitSpec(kind="random", seed=11), n_galerkin=n, dt=0.01, t_end=0.1
    )
    t3 = run_trajectory(cfg3)
    leak = float(np.abs(complement_q(t3.final_state, n).coeffs).max())
    checks.append(_check("galerkin_invariance", leak == 0.0, leak=leak))

    weak = example1_noise(g, K=2, amp_phi=0.02, amp_chi=0.05, osc=1)
    base = dict(
        grid=g, noise=weak, init=InitSpec(kind="random", seed=21, amplitude=0.1), dt=0.01, t_end=0.2, seed=3
    )
    tm = run_trajectory(SolverConfig(equation="modified", kappa_cutoff=50.0, **base))
    to_ = run_trajectory(SolverConfig(equation="original", **base))
    checks.append(
        _check(
            "modified_original_plateau",
            np.array_equal(tm.final_state.coeffs, to_.final_state.coeffs),
        )
    )
    return checks


def suite_diagnostics(grid: Grid | None = None) -> list:
    g = grid or Grid(DomainSpec(N1=2, N2=2, M=2))
    rng = np.random.default_rng(5)
    checks = []

    from .spectral import single_mode_state

    st = single_mode_state(g, "v1", 1, 0, 1, amplitude=0.8)
    rec = record(st)
    spec = g.spec
    exact_l6 = 0.8**6 * (spec.L1 * 5 / 16) * spec.L2 * (spec.h * 5 / 16)
    checks.append(
        _check(
            "record_l6_oracle",
            abs(rec.L6_vtilde_6 - exact_l6) <= 1e-6 * exact_l6,
            value=rec.L6_vtilde_6,
            oracle=exact_l6,
        )
    )

    violations = 0
    for _ in range(100):
        n = int(rng.integers(5, 60))
        values = np.concatenate([[0.0], np.cumsum(rng.random(n))])
        times = np.linspace(0, 1, n + 1)
        K = float(rng.random() * values[-1])
        t1 = detect_stopping(times, values, K)
        t2 = detect_stopping(times, values, 2.0 * K)
        if t1 is not None and t2 is not None and t2 < t1 - 1e-12:
            violations += 1
    checks.append(_check("stopping_monotone_in_level", violations == 0, violations=violations))

    st2 = leray_project(random_state(g, rng))
    r1 = fluctuation_R(st2)
    r2 = SpectralState(g, st2.coeffs - average_A3(st2).coeffs)
    d = abs(record(r1).L6_vtilde_6 - record(r2).L6_vtilde_6)
    checks.append(_check("fluctuation_two_routes", d <= 1e-12 * max(record(r1).L6_vtilde_6, 1e-30), diff=d))
    return checks


SUITES = {
    "operators": suite_operators,
    "noise": suite_noise,
    "solver": suite_solver,
    "diagnostics": suite_diagnostics,
}


def run_suite(name: str, grid: Grid | None = None) -> dict:
    """Run one named suite (or 'all'); returns a verdict document."""
    if name == "all":
        checks = []
        for key in ("operators", "noise", "solver", "diagnostics"):
            for c in SUITES[key](grid):
                c = dict(c)
                c["name"] = f"{key}.{c['name']}"
                checks.append(c)
    elif name in SUITES:
        checks = SUITES[name](grid)
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return {"suite": name, "checks": checks, "passed": all(c["passed"] for c in checks)}
