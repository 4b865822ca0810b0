"""Noise families, Hilbert-Schmidt norms, Wiener sampling, hypothesis fits."""

import numpy as np
import pytest
from scipy.stats import chi2

from stochpe import DomainSpec, Grid, random_state
from stochpe import noise
from stochpe.noise import (
    NoiseSpec,
    WienerStream,
    additive_single_mode_noise,
    apply_sigma,
    estimate_growth_constants,
    example1_noise,
    example2_noise,
    hs_norm,
    hs_norm_sq,
    hypothesis_thresholds,
    sigma_coeffs,
    zero_noise,
    _envelope_fit,
)
from stochpe.operators import fluctuation_R, leray_project
from stochpe.spectral import SpectralState, v_norm_sq


class TestApplySigma:
    def test_zero_family(self, grid_small, rng):
        spec = zero_noise(grid_small, K=3)
        cols = apply_sigma(spec, random_state(grid_small, rng))
        assert len(cols) == 3
        assert not any(c.coeffs.any() for c in cols)

    def test_additive_only_independent_of_state(self, grid_small, rng):
        spec = additive_single_mode_noise(grid_small, "v2", 1, 0, 0, amplitude=0.7)
        cols_a = apply_sigma(spec, random_state(grid_small, rng))
        cols_b = apply_sigma(spec, grid_small.zero_state())
        np.testing.assert_array_equal(cols_a[0].coeffs, cols_b[0].coeffs)
        # column equals the projected additive field
        chi_state = SpectralState(grid_small, np.concatenate([spec.chi[0], np.zeros_like(spec.chi[0][:1])]))
        np.testing.assert_allclose(cols_a[0].coeffs, leray_project(chi_state).coeffs, atol=1e-15)

    def test_family2_fluctuation_identity(self, grid_small, rng):
        spec = example2_noise(grid_small, K=4, amp_phi=0.8, amp_chi=0.3, amp_alpha=0.4, osc=1)
        for _ in range(10):
            v = leray_project(random_state(grid_small, rng))
            cols = apply_sigma(spec, v)
            rv = fluctuation_R(v)
            for k, col in enumerate(cols):
                chi_state = SpectralState(
                    grid_small, np.concatenate([spec.chi[k], np.zeros_like(spec.chi[k][:1])])
                )
                expected = spec.alpha[k] * rv.coeffs[:2] + fluctuation_R(chi_state).coeffs[:2]
                resid = np.abs(fluctuation_R(col).coeffs[:2] - expected).max()
                assert resid < 1e-10

    def test_family2_rejects_z_dependent_phi(self, grid_small):
        from stochpe.noise import NoiseSpec

        spec = example1_noise(grid_small, K=2, amp_phi=1.0, osc=1)  # z-dependent phi
        with pytest.raises(ValueError):
            NoiseSpec(grid_small, "example2", spec.phi, spec.psi * 0, spec.chi, spec.alpha)

    def test_linear_part_homogeneous(self, grid_small, rng):
        spec = example1_noise(grid_small, K=3, amp_phi=0.5, amp_psi=0.4, amp_alpha=0.2, osc=1)
        v = leray_project(random_state(grid_small, rng))
        a = 2.75
        scaled = SpectralState(grid_small, a * v.coeffs)
        cols = apply_sigma(spec, v)
        cols_scaled = apply_sigma(spec, scaled)
        for c, cs in zip(cols, cols_scaled):
            np.testing.assert_allclose(cs.coeffs, a * c.coeffs, atol=1e-12)


    @pytest.mark.parametrize(
        "make",
        [
            lambda g: example1_noise(g, K=3, amp_phi=0.5, amp_psi=0.4, amp_chi=0.3, amp_alpha=0.2, osc=1),
            lambda g: example1_noise(
                g, K=4, amp_phi=0.5, amp_psi=0.4, amp_alpha=0.2, osc=2, include_temperature=True
            ),
            lambda g: example2_noise(g, K=3, amp_phi=0.8, amp_chi=0.3, amp_alpha=0.4, osc=1),
            # constant phi and psi: the spectral transport
            lambda g: example1_noise(
                g, K=4, amp_phi=0.5, amp_psi=0.4, amp_chi=0.3, amp_alpha=0.2, osc=0, include_temperature=True
            ),
            lambda g: example2_noise(g, K=3, amp_phi=0.8, amp_chi=0.3, amp_alpha=0.4, osc=0),
        ],
    )
    def test_weighted_rows_are_column_combinations(self, grid_small, rng, make):
        spec = make(grid_small)
        v = leray_project(random_state(grid_small, rng))
        cols = np.stack([c.coeffs for c in apply_sigma(spec, v)])
        W = np.vstack([rng.standard_normal(spec.K) * 0.1, np.eye(spec.K)])
        rows = apply_sigma(spec, v, W)
        assert len(rows) == spec.K + 1
        expected = np.tensordot(W, cols, axes=1)
        for row, exp in zip(rows, expected):
            assert np.abs(row.coeffs - exp).max() <= 1e-13 * np.abs(exp).max()
        # the identity rows reproduce the default columns
        for row, col in zip(rows[1:], cols):
            np.testing.assert_allclose(row.coeffs, col, rtol=0, atol=1e-15 * np.abs(cols).max())

    def test_shared_gradients(self, grid_small, rng):
        spec = example1_noise(grid_small, K=3, amp_phi=0.5, amp_psi=0.4, amp_alpha=0.2, osc=1)
        v = leray_project(random_state(grid_small, rng))
        c = v.coeffs[None]
        cols = sigma_coeffs(spec, c)[0]
        shared = sigma_coeffs(spec, c, samples=grid_small.padded_samples(c))[0]
        for a, b in zip(cols, shared):
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-15)

    def test_weights_validated(self, grid_small, rng):
        spec = example1_noise(grid_small, K=3, osc=1)
        v = random_state(grid_small, rng)
        with pytest.raises(ValueError):
            apply_sigma(spec, v, np.ones(3))
        with pytest.raises(ValueError):
            apply_sigma(spec, v, np.ones((2, 4)))
        assert len(apply_sigma(zero_noise(grid_small, 3), v, np.ones((2, 3)))) == 2

    @pytest.mark.parametrize("make", [example1_noise, example2_noise])
    @pytest.mark.parametrize("K", [0, -1])
    def test_direction_count_validated(self, grid_small, make, K):
        with pytest.raises(ValueError, match="K must be >= 1"):
            make(grid_small, K=K)


GRID_333 = Grid(DomainSpec(N1=3, N2=3, M=3))
GRID_VERTICAL_8 = Grid(DomainSpec(L1=2 * np.pi, L2=4.0, h=1.5, N1=3, N2=2, M=8, mu=0.7, nu=0.3))
CONSTANT_SPECS = {
    "family1-temperature": lambda g: example1_noise(
        g, K=4, amp_phi=0.5, amp_psi=0.4, amp_chi=0.3, amp_alpha=0.2, osc=0, include_temperature=True
    ),
    "family2": lambda g: example2_noise(g, K=3, amp_phi=0.8, amp_chi=0.3, amp_alpha=0.4, osc=0),
}


class TestConstantTransport:
    """Constant phi, psi: the spectral transport against the grid evaluation."""

    def test_constant_transport_from_the_support(self, grid_small):
        assert example1_noise(grid_small, K=3, osc=0).constant_transport
        assert example2_noise(grid_small, K=3, osc=0).constant_transport
        assert example1_noise(grid_small, K=2, amp_phi=0.0, amp_psi=0.0, amp_alpha=0.1).constant_transport
        assert not example1_noise(grid_small, K=3, osc=1).constant_transport
        assert not example2_noise(grid_small, K=3, osc=1).constant_transport

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "non-symmetric"])
    @pytest.mark.parametrize("grid", [GRID_333, GRID_VERTICAL_8], ids=["333", "vertical8"])
    @pytest.mark.parametrize("name", list(CONSTANT_SPECS))
    def test_spectral_transport_matches_the_grid(self, rng, monkeypatch, name, grid, symmetric):
        spec = CONSTANT_SPECS[name](grid)
        # imaginary parts at (0, 0, 0), which synthesis drops
        phi, psi = spec.phi.copy(), spec.psi.copy()
        phi[:, :, 0, 0, 0] += 0.3j
        if spec.family == "example1":
            psi[:, 0, 0, 0] += 0.2j
        spec = NoiseSpec(grid, spec.family, phi, psi, spec.chi, spec.alpha, spec.include_temperature)
        assert spec.constant_transport
        shape = (4, 3, grid.nkx, grid.nky, grid.nm)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if symmetric:
            c = grid.enforce_reality(c)
        W = rng.standard_normal((4, 5, spec.K))
        n = 3 if spec.include_temperature else 2
        spectral = noise._transport_spectral(spec, c[:, :n], W)
        on_grid = noise._transport_grid(spec, c[:, :n], W, None)
        assert np.abs(spectral - on_grid).max() <= 1e-14 * np.abs(on_grid).max()
        # whole rows, from the stack and from the public single-state call
        rows = sigma_coeffs(spec, c, W)
        single = [[col.coeffs for col in apply_sigma(spec, SpectralState(grid, cp), Wp)] for cp, Wp in zip(c, W)]
        monkeypatch.setattr(noise, "_transport_spectral", lambda spec, v, W, work: noise._transport_grid(spec, v, W, None, work))
        grid_rows = sigma_coeffs(spec, c, W)
        scale = np.abs(grid_rows).max()
        assert np.abs(rows - grid_rows).max() <= 1e-14 * scale
        assert np.abs(np.stack(single) - grid_rows).max() <= 1e-14 * scale


class TestHSNorm:
    def test_zero(self, grid_small):
        cols = apply_sigma(zero_noise(grid_small, 2), grid_small.zero_state())
        assert hs_norm(cols, "H") == 0.0
        assert hs_norm(cols, "V") == 0.0

    def test_single_additive_column(self, grid_small):
        spec = additive_single_mode_noise(grid_small, "v1", 0, 1, 1, amplitude=1.3)
        cols = apply_sigma(spec, grid_small.zero_state())
        chi_state = SpectralState(
            grid_small, np.concatenate([spec.chi[0], np.zeros_like(spec.chi[0][:1])])
        )
        proj = leray_project(chi_state)
        assert hs_norm_sq(cols, "V") == pytest.approx(v_norm_sq(proj), rel=1e-12)

    def test_transport_bound_constant_phi(self, rng):
        # single constant phi: |(phi.grad)v|^2 <= |phi|^2 |grad v|^2 <= (|phi|^2/mu) ||v||^2
        g = Grid(DomainSpec(N1=3, N2=3, M=3, mu=1.0, nu=1.0))
        spec = example1_noise(g, K=1, amp_phi=0.9, amp_psi=0.0, osc=0)
        for _ in range(25):
            v = leray_project(random_state(g, rng))
            cols = apply_sigma(spec, v)
            lhs = hs_norm_sq(cols, "H")
            assert lhs <= spec.theta0_sq * v_norm_sq(v) * (1 + 1e-10)

    def test_lipschitz_H_finite(self, grid_small, rng):
        spec = example1_noise(grid_small, K=3, amp_phi=0.5, amp_psi=0.3, amp_alpha=0.1, osc=1)
        consts = []
        for _ in range(30):
            u = leray_project(random_state(grid_small, rng))
            us = leray_project(random_state(grid_small, rng))
            diff = SpectralState(grid_small, u.coeffs - us.coeffs)
            cu = apply_sigma(spec, u)
            cs = apply_sigma(spec, us)
            dcols = [SpectralState(grid_small, a.coeffs - b.coeffs) for a, b in zip(cu, cs)]
            num = hs_norm_sq(dcols, "H")
            den = v_norm_sq(diff)
            if den > 1e-14:
                consts.append(num / den)
        assert np.isfinite(max(consts))


class TestDerivedConstants:
    def test_theta1_zero_for_constant_fields(self, grid_small):
        spec = example1_noise(grid_small, K=4, amp_phi=0.5, amp_psi=0.5, osc=0)
        assert spec.theta1_sq < 1e-25
        assert spec.theta0_sq == pytest.approx(0.5**2 + 0.5**2, rel=1e-10)

    def test_theta1_scales_with_oscillation(self, grid_small):
        t1 = example1_noise(grid_small, K=2, amp_phi=1.0, amp_psi=0.0, osc=1).theta1_sq
        t2 = example1_noise(grid_small, K=2, amp_phi=2.0, amp_psi=0.0, osc=1).theta1_sq
        assert t2 == pytest.approx(4.0 * t1, rel=1e-8)

    def test_kappa_alpha(self, grid_small):
        spec = example1_noise(grid_small, K=3, amp_chi=0.7, amp_alpha=0.3)
        assert spec.alpha_sq == pytest.approx(0.09, rel=1e-12)
        assert spec.kappa_sq > 0.0


class TestWiener:
    def test_determinism(self):
        s = WienerStream(seed=42, trajectory=3, K=5)
        a = s.sample(20, 0.01)
        b = s.sample(20, 0.01)
        assert a.shape == (20, 5)
        np.testing.assert_array_equal(a, b)
        c = WienerStream(seed=42, trajectory=4, K=5).sample(20, 0.01)
        assert not np.array_equal(a, c)

    def test_variance_shrinks_with_dt(self):
        n = 10**5
        s = WienerStream(seed=1, trajectory=0, K=n)
        for dt in (1e-2, 1e-4, 1e-6):
            draws = s.sample(1, dt)[0]
            stat = np.sum(draws**2) / dt  # ~ chi2 with n dof
            lo, hi = chi2.ppf(0.005, n), chi2.ppf(0.995, n)
            assert lo < stat < hi
            assert draws.var() < 2 * dt

    def test_covariance_identity(self):
        n, dt = 10**4, 0.37
        draws = np.stack([WienerStream(seed=9, trajectory=t, K=8).sample(1, dt)[0] for t in range(n)])
        cov = draws.T @ draws / n
        err = np.linalg.norm(cov - dt * np.eye(8)) / np.linalg.norm(dt * np.eye(8))
        assert err < 0.05

    def test_dt_validation(self):
        for dt in (0.0, -0.1):
            with pytest.raises(ValueError):
                WienerStream(seed=0).sample(1, dt)

    @pytest.mark.parametrize("K", [1, 4, 8])
    def test_consecutive_steps_share_no_value(self, K):
        draws = WienerStream(seed=7, trajectory=3, K=K).sample(2001, 1.0)
        shared = [j for j in range(2000) if np.intersect1d(draws[j], draws[j + 1]).size]
        assert not shared, f"{len(shared)} of 2000 steps share a value with the next"

    @pytest.mark.parametrize("K", [1, 4, 8])
    def test_lag1_uncorrelated(self, K):
        # every component at step j against every component at step j + 1
        n = 20000
        draws = WienerStream(seed=7, trajectory=3, K=K).sample(n + 1, 1.0)
        corr = draws[:-1].T @ draws[1:] / n
        assert np.abs(corr).max() < 5.0 / np.sqrt(n)

    @pytest.mark.parametrize("K", [1, 4, 8])
    def test_prefix_stable(self, K):
        s = WienerStream(seed=5, trajectory=2, K=K)
        full = s.sample(100, 0.25)
        for n in (1, 37, 99):
            np.testing.assert_array_equal(s.sample(n, 0.25), full[:n])


class TestHypothesisFits:
    def test_zero_noise_all_pass(self, grid_small):
        rep = estimate_growth_constants(zero_noise(grid_small), sample_count=100)
        assert rep.eta0 == rep.eta1 == rep.eta2 == rep.eta3 == rep.gamma == 0.0
        assert rep.h_p_pass and rep.global_pass

    def test_sample_count_validation(self, grid_small):
        with pytest.raises(ValueError):
            estimate_growth_constants(zero_noise(grid_small), sample_count=10)

    def test_small_flat_family_passes_h4(self):
        g = Grid(DomainSpec(N1=3, N2=3, M=3, mu=1.0, nu=1.0))
        spec = example1_noise(g, K=4, amp_phi=0.015, amp_psi=0.015, amp_chi=0.01, amp_alpha=0.01, osc=0)
        rep = estimate_growth_constants(spec, sample_count=150, p=4.0, c_bdg=2.0)
        assert rep.eta1 <= 1e-3
        assert rep.h_p_pass

    def test_large_theta1_fails_h4(self):
        g = Grid(DomainSpec(N1=3, N2=3, M=3, mu=1.0, nu=1.0))
        spec = example1_noise(g, K=4, amp_phi=1.5, amp_psi=1.5, osc=2)
        rep = estimate_growth_constants(spec, sample_count=150, p=4.0, c_bdg=2.0)
        assert rep.eta1 > hypothesis_thresholds(4.0, 2.0, 1.0, 1.0)["eta1"]
        assert not rep.h_p_pass

    def test_family2_eta3_vanishes(self):
        g = Grid(DomainSpec(N1=3, N2=3, M=3))
        spec = example2_noise(g, K=3, amp_phi=0.8, osc=1)
        rep = estimate_growth_constants(spec, sample_count=120)
        assert rep.eta3 <= 1e-12

    def test_eta1_monotone_in_theta1(self):
        g = Grid(DomainSpec(N1=3, N2=3, M=3))
        amps = [0.4, 0.8, 1.6]
        fits, t1s = [], []
        for a in amps:
            spec = example1_noise(g, K=3, amp_phi=a, amp_psi=a, osc=1)
            fits.append(estimate_growth_constants(spec, sample_count=120).eta1)
            t1s.append(spec.theta1_sq)
        assert fits[0] < fits[1] < fits[2]
        # quadratic scaling: eta1 ratios track theta1^2 ratios within fit noise
        for i in (1, 2):
            ratio = fits[i] / fits[0]
            expected = t1s[i] / t1s[0]
            assert 0.5 * expected <= ratio <= 2.0 * expected

    def test_envelope_fit_refuses_degenerate(self):
        y = np.linspace(1, 2, 120)
        x = np.full(120, 3.0)
        z = np.full(120, 1.5)
        with pytest.raises(ValueError):
            _envelope_fit(y, x, z)
