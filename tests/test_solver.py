"""Time stepping: cutoff, linear flow, drifts, trajectories, reproducibility."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from stochpe import DomainSpec, Grid, complement_q, random_state
from stochpe.diagnostics import CSV_COLUMNS
from stochpe.noise import WienerStream, example1_noise, zero_noise
from stochpe.operators import PhysicsParams, bilinear_B, forcing_F, leray_project
from stochpe.solver import (
    InitSpec,
    SolverConfig,
    Stepper,
    cutoff_theta,
    initial_state,
    run_trajectory,
    solve_linear_Ustar,
)
from stochpe.spectral import SpectralState, h_norm_sq, v_norm_sq
from stochpe.verify import linear_flow_residuals

PHYS0 = PhysicsParams(f=0.0, beta_T=0.0)


def small_cfg(g, **kw):
    defaults = dict(
        grid=g,
        noise=zero_noise(g),
        init=InitSpec(kind="random", seed=11),
        dt=0.01,
        t_end=0.2,
        physics=PhysicsParams(f=0.5, beta_T=0.1),
        seed=3,
    )
    defaults.update(kw)
    return SolverConfig(**defaults)


class TestConfigChecks:
    @pytest.mark.parametrize("equation", ["original", "modified"])
    @pytest.mark.parametrize("kappa", [0.0, -0.5])
    def test_nonpositive_kappa_cutoff_rejected(self, grid_small, equation, kappa):
        # tau_cutoff is the first time ||U - U*|| reaches kappa, under either equation
        with pytest.raises(ValueError, match="kappa_cutoff"):
            small_cfg(grid_small, equation=equation, kappa_cutoff=kappa)

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_apriori_p_below_two_rejected(self, grid_small, p):
        # the weight |AU|^2 ||U||^(p-2) is singular at U = 0 for p < 2
        with pytest.raises(ValueError, match="apriori_p"):
            small_cfg(grid_small, apriori_p=p)
        assert small_cfg(grid_small, apriori_p=2.0).apriori_p == 2.0

    @pytest.mark.parametrize("field", ["dt", "t_end"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_nonfinite_time_rejected(self, grid_small, field, value):
        # an infinite t_end must stop here, before round(t_end / dt) in n_steps overflows
        with pytest.raises(ValueError, match=field):
            small_cfg(grid_small, **{field: value}).n_steps

    @pytest.mark.parametrize("field", ["L1", "L2", "h", "mu", "nu"])
    def test_infinite_domain_rejected(self, field):
        # nan already fails the positivity checks
        with pytest.raises(ValueError, match=field):
            DomainSpec(N1=2, N2=2, M=1, **{field: np.inf})

    @pytest.mark.parametrize("field", ["f", "beta_T", "g"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_nonfinite_physics_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            PhysicsParams(**{field: value})


class TestCutoff:
    def test_plateau_and_support(self):
        assert cutoff_theta(0.0, 1.0) == 1.0
        assert cutoff_theta(2.0, 1.0) == 0.0
        assert cutoff_theta(0.75, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_monotone_decreasing_on_grid(self):
        kappa = 0.8
        r = np.linspace(0, 1.2 * kappa, 1000)
        th = np.array([cutoff_theta(x, kappa) for x in r])
        assert np.all(np.diff(th) <= 1e-15)
        assert np.all((0.0 <= th) & (th <= 1.0))
        inside = r <= kappa / 2
        outside = r >= kappa
        assert np.all(th[inside] == 1.0)
        assert np.all(th[outside] == 0.0)

    @given(st.floats(-5, 5), st.floats(0.05, 10))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_range(self, r, kappa):
        val = cutoff_theta(r, kappa)
        assert 0.0 <= val <= 1.0
        assert val == cutoff_theta(-r, kappa)

    def test_array_equals_scalar_calls(self):
        kappa = 0.8
        edges = [kappa / 2, np.nextafter(kappa / 2, 1.0), np.nextafter(kappa, 0.0), kappa]
        r = np.concatenate([np.linspace(-1.2 * kappa, 1.2 * kappa, 101), edges])
        th = cutoff_theta(r, kappa)
        assert isinstance(th, np.ndarray) and th.shape == r.shape
        assert th.tolist() == [cutoff_theta(x, kappa) for x in r]
        # the bump leaves 1 at kappa/2 and reaches 0 at kappa continuously
        assert cutoff_theta(np.array(edges), kappa).tolist() == [1.0, 1.0, 0.0, 0.0]
        assert type(cutoff_theta(0.7, kappa)) is float

    def test_requires_positive_radius(self):
        with pytest.raises(ValueError):
            cutoff_theta(0.1, 0.0)


class TestLinearFlow:
    def test_constant_modes_frozen(self, grid_small):
        st0 = grid_small.zero_state()
        st0.coeffs[2, 0, 0, 0] = 2.5
        out = solve_linear_Ustar(st0, [0.0, 1.0, 10.0])
        for o in out:
            assert o.coeffs[2, 0, 0, 0] == 2.5

    def test_single_mode_decay_factor(self):
        g = Grid(DomainSpec(L1=2 * np.pi, N1=1, N2=1, M=1, mu=1.0))
        from stochpe import single_mode_state

        st0 = single_mode_state(g, "v2", 1, 0, 0)  # eigenvalue 1
        out = solve_linear_Ustar(st0, [1.0])[0]
        np.testing.assert_allclose(out.coeffs, st0.coeffs * np.exp(-1.0), rtol=1e-14)

    def test_energy_identity(self, rng):
        # |U*(t)|_H^2 + 2 int_0^t ||U*||_V^2 = |U0|_H^2 via time quadrature
        g = Grid(DomainSpec(N1=4, N2=4, M=4, mu=0.05, nu=0.05))
        U0 = random_state(g, rng)
        times = np.linspace(0.0, 1.0, 2001)
        flow = solve_linear_Ustar(U0, times)
        v_sq = np.array([v_norm_sq(s) for s in flow])
        lhs = h_norm_sq(flow[-1]) + 2.0 * simpson(v_sq, x=times)
        rhs = h_norm_sq(U0)
        assert abs(lhs - rhs) <= 1e-6 * rhs

    def test_v_norm_nonincreasing(self, grid_small, rng):
        U0 = random_state(grid_small, rng)
        flow = solve_linear_Ustar(U0, np.linspace(0, 2, 50))
        vals = [v_norm_sq(s) for s in flow]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def full_drift(stepper: Stepper, state: SpectralState) -> np.ndarray:
    """Galerkin drift -lam U - theta B(U) - F(U), theta at the state's cutoff
    distance, formed on the step grid and returned in the state's layout."""
    g = stepper.grid
    c = state.grid.extract(g, state.coeffs)[None]
    theta = stepper.theta(stepper.distance(c, state.time))
    expl, carries = stepper.explicit_drift(c, theta)
    assert carries.all()
    return state.grid.embed(g, -g.lam[None] * c[0] + expl[0])


class TestDrifts:
    def test_cutoff_kills_advection(self, grid_small, rng):
        cfg = small_cfg(grid_small, equation="modified", kappa_cutoff=1e-6)
        U = leray_project(random_state(grid_small, rng))
        far = SpectralState(grid_small, U.coeffs * 2.0)  # far from U* = U
        d = full_drift(Stepper(cfg, U), far)
        g = grid_small
        expected = -g.lam[None] * far.coeffs - forcing_F(far, cfg.physics).coeffs
        np.testing.assert_allclose(d, expected, atol=1e-14)

    def test_full_drift_at_ustar(self, grid_small, rng):
        cfg = small_cfg(grid_small, equation="modified", kappa_cutoff=0.5)
        U = leray_project(random_state(grid_small, rng))
        dmod = full_drift(Stepper(cfg, U), U)
        dorig = full_drift(Stepper(small_cfg(grid_small), U), U)
        scale = np.abs(dorig).max()
        assert np.abs(dmod - dorig).max() <= 1e-12 * scale

    def test_original_drift_composition(self, grid_small, rng):
        cfg = small_cfg(grid_small)
        U = leray_project(random_state(grid_small, rng))
        d = full_drift(Stepper(cfg, U), U)
        g = grid_small
        expected = (
            -g.lam[None] * U.coeffs
            - bilinear_B(U).coeffs
            - forcing_F(U, cfg.physics).coeffs
        )
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(d - expected).max() <= 1e-12 * scale

    def test_zero_state_zero_drift(self, grid_small):
        cfg = small_cfg(grid_small)
        zero = grid_small.zero_state()
        assert not full_drift(Stepper(cfg, zero), zero).any()

    def test_advection_energy_neutral(self, grid_small, rng):
        # the advection part of the drift does not feed the H-energy
        cfg = small_cfg(grid_small)
        U = leray_project(random_state(grid_small, rng))
        w = grid_small.weight_m[None, None, None, :]
        badv = bilinear_B(U).coeffs
        pairing = float(np.sum(badv * np.conj(U.coeffs) * w).real)
        assert abs(pairing) <= 1e-10 * max(1.0, v_norm_sq(U))


class TestLinearFlowCheck:
    """``verify.linear_flow_residuals`` on acceptance criterion 4's configuration."""

    @staticmethod
    def cfg(scheme):
        g = Grid(DomainSpec(N1=4, N2=4, M=4, mu=0.05, nu=0.05))
        return SolverConfig(
            grid=g,
            noise=zero_noise(g),
            init=InitSpec(kind="random", seed=4),
            physics=PHYS0,
            dt=0.02,
            t_end=1.0,
            advection=False,
            store_stride=10,
            scheme=scheme,
        )

    def test_exponential_scheme_conserves_stepped_energy(self):
        _, per_mode_rel, energy_rel = linear_flow_residuals(self.cfg("exponential"))
        assert per_mode_rel <= 1e-12
        assert energy_rel <= 1e-12

    def test_semi_implicit_scheme_fails_energy_identity(self):
        # the resolvent 1/(1 + lam dt) is not the free decay between steps
        _, _, energy_rel = linear_flow_residuals(self.cfg("semi-implicit"))
        assert energy_rel > 1e-6


class TestStepping:
    def test_linear_only_matches_exact_flow(self, grid_small, rng):
        cfg = small_cfg(grid_small, advection=False, physics=PHYS0, dt=0.02, t_end=1.0)
        traj = run_trajectory(cfg)
        U0 = Stepper(cfg, initial_state(cfg)).initial()
        exact = solve_linear_Ustar(U0, [1.0])[0]
        scale = np.abs(exact.coeffs).max()
        assert np.abs(traj.final_state.coeffs - exact.coeffs).max() <= 1e-12 * max(scale, 1e-6)

    def test_semi_implicit_stable_and_first_order(self, grid_small, rng):
        cfg = small_cfg(
            grid_small, advection=False, physics=PHYS0, scheme="semi-implicit", dt=0.02, t_end=1.0
        )
        traj = run_trajectory(cfg)
        U0 = Stepper(cfg, initial_state(cfg)).initial()
        exact = solve_linear_Ustar(U0, [1.0])[0]
        err_coarse = np.abs(traj.final_state.coeffs - exact.coeffs).max()
        cfg2 = dataclasses.replace(cfg, dt=0.01)
        err_fine = np.abs(run_trajectory(cfg2).final_state.coeffs - exact.coeffs).max()
        assert err_fine < err_coarse
        assert err_coarse / err_fine == pytest.approx(2.0, rel=0.35)

    def test_galerkin_invariance(self, grid_small, rng):
        n = grid_small.snap_mode_count(40)
        spec = example1_noise(grid_small, K=3, amp_phi=0.1, amp_psi=0.1, amp_chi=0.3, osc=1)
        cfg = small_cfg(grid_small, noise=spec, n_galerkin=n, t_end=0.1)
        traj = run_trajectory(cfg)
        for st_ in (traj.final_state,):
            assert np.abs(complement_q(st_, n).coeffs).max() == 0.0

    def test_increment_is_weighted_column_sum(self, grid_small, rng):
        spec = example1_noise(grid_small, K=3, amp_phi=0.3, amp_psi=0.2, amp_chi=0.3, amp_alpha=0.1, osc=1)
        U = leray_project(random_state(grid_small, rng))
        dW = rng.standard_normal(3) * 0.1
        stepper = Stepper(small_cfg(grid_small, noise=spec, track_ito=True), U)
        c = grid_small.extract(stepper.grid, U.coeffs)[None]
        _, incr, cols = stepper.advance(c, np.ones(1), dW[None])
        incr, cols = incr[0], cols[0]
        # the columns hold the velocity rows, the increment all three with a +0 temperature row
        assert cols.shape == (3, 2) + c.shape[2:] and incr.shape == c.shape[1:]
        assert not incr[2].any() and not np.signbit(incr[2].view(np.float64)).any()
        expected = sum(w * col for w, col in zip(dW, cols))
        assert np.abs(incr[:2] - expected).max() <= 1e-13 * np.abs(expected).max()
        # without track_ito the same increment comes without columns
        plain = Stepper(small_cfg(grid_small, noise=spec), U)
        out, incr2, cols2 = plain.advance(c, np.ones(1), dW[None])
        assert cols2 is None
        assert np.abs(incr2[0] - incr).max() <= 1e-14 * np.abs(incr).max()

    def test_reality_preserved(self, grid_small):
        spec = example1_noise(grid_small, K=2, amp_phi=0.2, amp_chi=0.4, osc=1)
        cfg = small_cfg(grid_small, noise=spec, t_end=0.1)
        traj = run_trajectory(cfg)
        g = grid_small
        c = traj.final_state.coeffs
        flipped = np.conj(c[..., g.negx, :, :][..., :, g.negy, :])
        assert np.abs(c - flipped).max() < 1e-14


class TestTrajectory:
    def test_deterministic_replay(self, grid_small):
        spec = example1_noise(grid_small, K=3, amp_phi=0.1, amp_chi=0.3, osc=1)
        cfg = small_cfg(grid_small, noise=spec, equation="modified", t_end=0.2)
        a = run_trajectory(cfg)
        b = run_trajectory(cfg)
        assert np.array_equal(a.final_state.coeffs, b.final_state.coeffs)
        assert a.hits == b.hits
        for ra, rb in zip(a.records, b.records):
            assert [ra[c] for c in CSV_COLUMNS] == [rb[c] for c in CSV_COLUMNS]

    def test_decay_without_noise_no_tau_hit(self, grid_small):
        cfg = small_cfg(grid_small, equation="modified", kappa_cutoff=100.0, t_end=0.5)
        traj = run_trajectory(cfg)
        assert traj.hits["tau_cutoff"] is None
        assert traj.records["V_sq"][-1] <= traj.records["V_sq"][0]

    def test_tiny_cutoff_hits_fast_with_noise(self, grid_small):
        spec = example1_noise(grid_small, K=3, amp_phi=0.05, amp_chi=0.5, osc=1)
        hit_quickly = 0
        for tid in range(20):
            cfg = small_cfg(
                grid_small,
                noise=spec,
                equation="modified",
                kappa_cutoff=1e-6,
                t_end=0.05,
                trajectory_id=tid,
            )
            traj = run_trajectory(cfg)
            t_hit = traj.hits["tau_cutoff"]
            if t_hit is not None and t_hit <= 5 * cfg.dt:
                hit_quickly += 1
        assert hit_quickly >= 19

    def test_injected_stream_increments_match_default(self, grid_small):
        spec = example1_noise(grid_small, K=3, amp_phi=0.1, amp_chi=0.3, osc=1)
        levels = {"weak": 1.5, "vtilde_l6": 1e-4, "grad_vbar": 0.2, "dz_v": 3.0, "temperature": 0.4}
        cfg = small_cfg(
            grid_small,
            noise=spec,
            equation="modified",
            kappa_cutoff=0.1,
            stopping_levels=levels,
            blowup_levels=(7.0, 100.0),
            store_stride=3,
            t_end=0.2,
        )
        ref = run_trajectory(cfg)
        fed = run_trajectory(cfg, increments=WienerStream(cfg.seed, cfg.trajectory_id, spec.K).sample(cfg.n_steps, cfg.dt))
        assert ref.hits["tau_cutoff"] is not None and ref.hits["weak"] is not None
        assert np.array_equal(fed.final_state.coeffs, ref.final_state.coeffs)
        assert fed.records[list(CSV_COLUMNS)].tolist() == ref.records[list(CSV_COLUMNS)].tolist()
        assert fed.hits == ref.hits
        for name in levels:
            assert np.array_equal(fed.series(name)[1], ref.series(name)[1])

    def test_series_of_an_unknown_name(self, grid_small):
        traj = run_trajectory(small_cfg(grid_small, t_end=0.05))
        t, weak = traj.series("weak")
        assert np.array_equal(t, traj.times) and weak.shape == t.shape
        with pytest.raises(ValueError):
            traj.series("no_such_column")

    def test_increments_shape_checked(self, grid_small):
        cfg = small_cfg(grid_small, t_end=0.05)
        with pytest.raises(ValueError):
            run_trajectory(cfg, increments=np.zeros((cfg.n_steps + 1, cfg.noise.K)))

    def test_modified_original_plateau_agreement(self, grid_small):
        spec = example1_noise(grid_small, K=2, amp_phi=0.02, amp_chi=0.05, osc=1)
        base = dict(noise=spec, t_end=0.2, init=InitSpec(kind="random", seed=21, amplitude=0.1))
        cfg_m = small_cfg(grid_small, equation="modified", kappa_cutoff=50.0, **base)
        cfg_o = small_cfg(grid_small, equation="original", **base)
        tm = run_trajectory(cfg_m)
        to = run_trajectory(cfg_o)
        # far inside the plateau the cutoff is exactly one: identical stepping
        assert tm.records["dist_to_Ustar"].max() < 25.0
        assert np.array_equal(tm.final_state.coeffs, to.final_state.coeffs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_flagged_on_huge_noise(self, grid_small):
        spec = example1_noise(grid_small, K=2, amp_phi=0.0, amp_chi=0.0, amp_alpha=4e3, osc=0)
        cfg = small_cfg(
            grid_small,
            noise=spec,
            dt=0.05,
            t_end=40.0,
            blowup_levels=(10.0,),
            init=InitSpec(kind="random", seed=2),
            store_stride=10,
        )
        traj = run_trajectory(cfg)
        assert traj.blowup
        assert traj.blowup_time is not None
        from stochpe.diagnostics import blowup_functional

        value, flag, consistent = blowup_functional(traj)
        assert flag and consistent and value >= 10.0

    def test_config_validation(self, grid_small):
        with pytest.raises(ValueError):
            SolverConfig(grid=grid_small, dt=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(grid=grid_small, dt=0.01, t_end=1.0, scheme="euler-forward")
        with pytest.raises(ValueError):
            SolverConfig(grid=grid_small, dt=0.01, t_end=1.0, n_galerkin=10**9)
        with pytest.raises(ValueError):
            SolverConfig(
                grid=grid_small, dt=0.01, t_end=1.0, stopping_levels={"nonsense": 1.0}
            )
