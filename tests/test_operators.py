"""Hydrostatic operators: projection, vertical velocity, advection forms, splitting."""

import numpy as np
import pytest

from stochpe import DomainSpec, Grid, random_state, single_mode_state, to_physical
from stochpe.operators import (
    PhysicsParams,
    advection_coeffs,
    average_A2,
    average_A3,
    baroclinic_rhs_terms,
    barotropic_divergence,
    bilinear_B,
    coriolis_E,
    forcing_F,
    fluctuation_R,
    leray_coeffs,
    leray_project,
    mode_split,
    pressure_buoyancy_Apr,
    recombine_split_rhs,
    trilinear_b,
    vertical_velocity,
    vertical_velocity_top,
    velocity_rhs_unsplit,
)
from stochpe.spectral import SpectralState, da_norm_sq, h_norm_sq, v_norm_sq

PHYS = PhysicsParams(f=0.8, beta_T=0.3, g=1.7)


def h_inner(a: SpectralState, b: SpectralState) -> float:
    w = a.grid.weight_m[None, None, None, :]
    return float(np.sum(a.coeffs * np.conj(b.coeffs) * w).real)


def h2_norm(st: SpectralState) -> float:
    return float(np.sqrt(h_norm_sq(st) + da_norm_sq(st)))


class TestLeray:
    def test_divergence_free_unchanged(self, grid_small, rng):
        st = leray_project(random_state(grid_small, rng))
        again = leray_project(st)
        assert np.abs(again.coeffs - st.coeffs).max() < 1e-15 * max(1.0, np.abs(st.coeffs).max())

    def test_pure_gradient_killed(self, grid_small):
        # barotropic v proportional to k is a horizontal gradient
        g = grid_small
        st = g.zero_state()
        ix, iy = 1, 1
        kx, ky = g.kx_phys[ix], g.ky_phys[iy]
        st.coeffs[0, ix, iy, 0] = kx
        st.coeffs[1, ix, iy, 0] = ky
        out = leray_project(st)
        assert np.abs(out.coeffs[:2]).max() < 1e-15

    def test_divergence_residual_sweep(self, grid_small, rng):
        for _ in range(100):
            st = leray_project(random_state(grid_small, rng))
            assert np.abs(barotropic_divergence(st)).sum() < 1e-12

    def test_idempotence(self, grid_small, rng):
        st = random_state(grid_small, rng)
        once = leray_project(st)
        twice = leray_project(once)
        assert np.abs(twice.coeffs - once.coeffs).max() <= 4e-16 * max(1.0, np.abs(once.coeffs).max())

    def test_stack_equals_per_state(self, grid_small, rng):
        stack = np.stack([random_state(grid_small, rng).coeffs for _ in range(5)])
        before = stack.copy()
        out = leray_coeffs(grid_small, stack)
        assert np.array_equal(stack, before)  # the input is not modified
        for c, row in zip(stack, out):
            assert np.array_equal(row, leray_project(SpectralState(grid_small, c)).coeffs)

    def test_2d_velocity_with_trailing_axis(self, grid_small, rng):
        # the recombination path projects (2, nkx, nky) barotropic coefficients
        # through a vertical axis of length 1; reference: v - k (k.v)/|k|^2
        g = grid_small
        c2d = random_state(g, rng).coeffs[:2, :, :, 0]
        kx, ky = g.kx_phys[:, None], g.ky_phys[None, :]
        d = (kx * c2d[0] + ky * c2d[1]) / np.where(g.ksq_h == 0.0, 1.0, g.ksq_h)
        ref = np.stack([c2d[0] - kx * d, c2d[1] - ky * d])
        ref[:, 0, 0] = 0.0
        assert np.array_equal(leray_coeffs(g, c2d[..., None])[..., 0], ref)


class TestVerticalVelocity:
    def test_z_independent_divfree(self, grid_small, rng):
        st = leray_project(random_state(grid_small, rng))
        st.coeffs[:, :, :, 1:] = 0.0  # z-independent
        st = leray_project(st)
        w = vertical_velocity(st)
        assert np.abs(w).max() < 1e-12

    def test_single_mode_antiderivative(self):
        # v1 = sin(2 pi x / L1) cos(pi z / h): w = -(2 pi/L1) cos(2 pi x/L1) (h/pi) sin(pi z/h)
        spec = DomainSpec(L1=2 * np.pi, L2=2 * np.pi, h=1.3, N1=2, N2=2, M=2)
        g = Grid(spec)
        st = g.zero_state()
        ix_p = int(np.where(g.kx_int == 1)[0][0])
        ix_m = int(np.where(g.kx_int == -1)[0][0])
        st.coeffs[0, ix_p, 0, 1] = -0.5j  # sin = (e^{ix} - e^{-ix}) / 2i
        st.coeffs[0, ix_m, 0, 1] = 0.5j
        w = vertical_velocity(st)
        x, y, z = g.nodes()
        expected = (
            -(2 * np.pi / spec.L1)
            * np.cos(2 * np.pi * x / spec.L1)[:, None, None]
            * (spec.h / np.pi)
            * np.sin(np.pi * z / spec.h)[None, None, :]
        )
        expected = np.broadcast_to(expected, w.shape)
        np.testing.assert_allclose(w, expected, atol=1e-13)

        # oracle: trapezoid quadrature of -div v from the bottom
        ph = to_physical(st)
        dx = spec.L1 / ph.v1.shape[0]
        div = (np.roll(ph.v1, -1, 0) - np.roll(ph.v1, 1, 0)) / (2 * dx)
        zq = np.linspace(-spec.h, 0, 2001)
        # compare at one x location across z by direct integration of the closed form
        i = 3
        exact_div = (2 * np.pi / spec.L1) * np.cos(2 * np.pi * x[i] / spec.L1) * np.cos(
            np.pi * zq / spec.h
        )
        w_quad = -np.concatenate(
            [[0.0], np.cumsum((exact_div[1:] + exact_div[:-1]) / 2 * np.diff(zq))]
        )
        w_interp = np.interp(z, zq, w_quad)
        np.testing.assert_allclose(w[i, 0, :], w_interp, atol=1e-6)

    def test_bottom_and_top_face_values(self, grid_small, rng):
        g = grid_small
        for _ in range(25):
            st = leray_project(random_state(grid_small, rng))
            # w(., ., 0) = -h * div(vbar): zero after projection
            assert np.abs(vertical_velocity_top(st)).max() < 1e-10
            # w(., ., -h) = 0 exactly: all sine modes and the affine part vanish
            w_grid = vertical_velocity(st)
            x, y, z = g.nodes()
            # reconstruct at z=-h by extrapolating the structure: evaluate the
            # depth-integrated divergence per wavevector instead
            div = (
                1j * g.kx_phys[:, None, None] * st.coeffs[0]
                + 1j * g.ky_phys[None, :, None] * st.coeffs[1]
            )
            assert np.abs(div[:, :, 0]).max() < 1e-12
            assert np.isfinite(w_grid).all()


class TestAveraging:
    def test_z_independent_fixed_point(self, grid_small, rng):
        st = random_state(grid_small, rng)
        st.coeffs[:, :, :, 1:] = 0.0
        lifted = average_A3(st)
        np.testing.assert_array_equal(lifted.coeffs, st.coeffs)
        assert not fluctuation_R(st).coeffs.any()

    def test_pure_baroclinic_mean_zero(self, grid_small, rng):
        st = random_state(grid_small, rng)
        st.coeffs[:, :, :, 0] = 0.0
        assert not average_A2(st).any()

    def test_operator_norm_bounds(self, grid_small, rng):
        for _ in range(100):
            st = random_state(grid_small, rng)
            h = np.sqrt(h_norm_sq(st))
            h3 = np.sqrt(h_norm_sq(average_A3(st)))
            hr = np.sqrt(h_norm_sq(fluctuation_R(st)))
            assert h3 <= h * (1 + 1e-12)
            assert hr <= 2 * h * (1 + 1e-12)

    def test_split_exactness(self, grid_small, rng):
        st = random_state(grid_small, rng)
        split = mode_split(st)
        np.testing.assert_array_equal(split.reconstruct(), st.coeffs[:2])
        # A2 of the fluctuation vanishes identically
        assert not split.vtilde[:, :, :, 0].any()


class TestTrilinear:
    def test_cancellation(self, grid_small, rng):
        for _ in range(50):
            U = leray_project(random_state(grid_small, rng))
            Us = leray_project(random_state(grid_small, rng))
            val = trilinear_b(U, Us, Us)
            bound = 1e-10 * v_norm_sq(U) ** 0.5 * h2_norm(Us) ** 2
            assert abs(val) <= max(bound, 1e-14)

    def test_antisymmetry(self, grid_small, rng):
        for _ in range(50):
            U = leray_project(random_state(grid_small, rng))
            Us = leray_project(random_state(grid_small, rng))
            Ub = leray_project(random_state(grid_small, rng))
            r = trilinear_b(U, Us, Ub) + trilinear_b(U, Ub, Us)
            bound = 1e-10 * v_norm_sq(U) ** 0.5 * h2_norm(Us) * h2_norm(Ub)
            assert abs(r) <= max(bound, 1e-14)

    def test_zero_advecting_velocity(self, grid_small, rng):
        U = grid_small.zero_state()
        U.coeffs[2] = random_state(grid_small, rng).coeffs[2]  # temperature only
        Us = random_state(grid_small, rng)
        Ub = random_state(grid_small, rng)
        assert trilinear_b(U, Us, Ub) == 0.0

    def test_single_modes_against_dense_quadrature(self):
        spec = DomainSpec(L1=2 * np.pi, L2=2 * np.pi, h=1.0, N1=2, N2=2, M=2)
        g = Grid(spec)
        U = leray_project(single_mode_state(g, "v1", 0, 1, 1))
        Us = single_mode_state(g, "T", 1, 0, 1)
        Ub = single_mode_state(g, "T", 1, 1, 2)
        val = trilinear_b(U, Us, Ub)

        # oracle: direct integration on a 4x denser grid, all fields sampled
        n = 4 * g.nx_pad
        nz = 4 * g.nz_pad
        x = np.arange(n) * spec.L1 / n
        y = np.arange(n) * spec.L2 / n
        z = -spec.h + (np.arange(nz) + 0.5) * spec.h / nz
        X, Y, Z = np.meshgrid(x, y, z, indexing="ij")

        def sample(st, fidx):
            out = np.zeros_like(X)
            c = st.coeffs[fidx]
            for i, kx in enumerate(g.kx_int):
                for j, ky in enumerate(g.ky_int):
                    for m in range(g.nm):
                        a = c[i, j, m]
                        if a != 0:
                            out += (
                                a * np.exp(1j * (2 * np.pi * kx * X / spec.L1 + 2 * np.pi * ky * Y / spec.L2))
                            ).real * np.cos(m * np.pi * Z / spec.h)
            return out

        v1 = sample(U, 0)
        v2 = sample(U, 1)
        # w by cumulative trapezoid of -div v in z from -h (fine grid)
        dx = spec.L1 / n
        dy = spec.L2 / n
        div = (np.roll(v1, -1, 0) - np.roll(v1, 1, 0)) / (2 * dx) + (
            np.roll(v2, -1, 1) - np.roll(v2, 1, 1)
        ) / (2 * dy)
        dz = spec.h / nz
        w = -(np.cumsum(div, axis=2) - div / 2) * dz
        Ts = sample(Us, 2)
        Tb = sample(leray_project(Ub), 2)
        gx = (np.roll(Ts, -1, 0) - np.roll(Ts, 1, 0)) / (2 * dx)
        gy = (np.roll(Ts, -1, 1) - np.roll(Ts, 1, 1)) / (2 * dy)
        gz = np.gradient(Ts, z, axis=2)
        integrand = (v1 * gx + v2 * gy + w * gz) * Tb
        oracle = integrand.sum() * dx * dy * dz
        assert val == pytest.approx(oracle, rel=1e-4, abs=1e-8)


class TestBilinear:
    def test_zero_left_argument(self, grid_small, rng):
        Us = random_state(grid_small, rng)
        out = bilinear_B(grid_small.zero_state(), Us)
        assert not out.coeffs.any()

    def test_duality_with_trilinear(self, grid_small, rng):
        for _ in range(30):
            U = leray_project(random_state(grid_small, rng))
            Us = random_state(grid_small, rng)
            Ub = random_state(grid_small, rng)
            lhs = h_inner(bilinear_B(U, Us), Ub)
            rhs = trilinear_b(U, Us, Ub)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    def test_shared_gradients(self, grid_small, rng):
        for _ in range(5):
            U = leray_project(random_state(grid_small, rng))
            Us = random_state(grid_small, rng)
            target = Us.coeffs[None]
            shared = advection_coeffs(grid_small, U.coeffs[None], target, samples=grid_small.padded_samples(target))
            np.testing.assert_array_equal(shared[0], bilinear_B(U, Us).coeffs)
        own = advection_coeffs(grid_small, U.coeffs[None], samples=grid_small.padded_samples(U.coeffs[None]))
        np.testing.assert_array_equal(own[0], bilinear_B(U).coeffs)

    def test_estimate_sweep_constant_finite(self, grid_small, rng):
        ratios = []
        for _ in range(200):
            U = leray_project(random_state(grid_small, rng))
            Us = random_state(grid_small, rng)
            Ub = random_state(grid_small, rng)
            val = abs(trilinear_b(U, Us, Ub))
            denom = v_norm_sq(U) ** 0.5 * h2_norm(Us) * v_norm_sq(Ub) ** 0.5
            if denom > 1e-12:
                ratios.append(val / denom)
        c_b = max(ratios)
        assert np.isfinite(c_b)


class TestLinearOperators:
    def test_apr_constant_temperature(self, grid_small):
        st = grid_small.zero_state()
        st.coeffs[2, 0, 0, 0] = 3.0
        out = pressure_buoyancy_Apr(st, PHYS)
        assert np.abs(out.coeffs).max() < 1e-15

    def test_apr_single_mode_symbolic_coefficients(self):
        # T = cos(2 pi x / L1), z-independent: the vertical integral is -z T,
        # so the velocity tendency is -beta_T g d/dx(-z T) = beta_T g z sin(x)
        # along x, re-expanded in the retained cosine modes and projected
        spec = DomainSpec(L1=2 * np.pi, L2=2 * np.pi, h=1.0, N1=3, N2=3, M=8)
        g = Grid(spec)
        st = single_mode_state(g, "T", 1, 0, 0)
        out = pressure_buoyancy_Apr(st, PHYS)
        expected = np.zeros_like(st.coeffs)
        for kx, amp in ((1, 0.5), (-1, 0.5)):
            ix = int(np.where(g.kx_int == kx)[0][0])
            expected[0, ix, 0, :] = -PHYS.beta_T * PHYS.g * (1j * kx) * amp * g.neg_z_cos
        expected[0, :, :, 0] = 0.0  # barotropic part is a pure gradient: removed
        np.testing.assert_allclose(out.coeffs, expected, atol=1e-15)
        assert not out.coeffs[1].any() and not out.coeffs[2].any()

    def test_apr_pairings_against_quadrature(self):
        # Galerkin projection: pairings with resolved baroclinic test modes
        # must match fine quadrature against the closed-form field
        spec = DomainSpec(L1=2 * np.pi, L2=2 * np.pi, h=1.0, N1=3, N2=3, M=8)
        g = Grid(spec)
        st = single_mode_state(g, "T", 1, 0, 0)
        out = pressure_buoyancy_Apr(st, PHYS)
        from scipy.integrate import simpson

        nq = 512
        x = np.arange(nq) * spec.L1 / nq
        zq = np.linspace(-spec.h, 0, 4001)
        # analytic field: -beta_T g * d/dx(-z T) = -beta_T g z sin(x)
        for mp in (1, 2, 3):
            phi = g.zero_state()
            ixp = int(np.where(g.kx_int == 1)[0][0])
            ixm = int(np.where(g.kx_int == -1)[0][0])
            phi.coeffs[0, ixp, 0, mp] = -0.5j  # sin(x) cos(mp pi z / h)
            phi.coeffs[0, ixm, 0, mp] = 0.5j
            got = h_inner(out, phi)
            x_part = np.sum(np.sin(x) * np.sin(x)) * spec.L1 / nq  # exact for trig
            z_part = simpson(-PHYS.beta_T * PHYS.g * zq * np.cos(mp * np.pi * zq / spec.h), x=zq)
            oracle = spec.L2 * x_part * z_part
            assert got == pytest.approx(oracle, rel=1e-8, abs=1e-12)

    def test_apr_linearity(self, grid_small, rng):
        a, b = 0.37, -1.21
        U = random_state(grid_small, rng)
        Us = random_state(grid_small, rng)
        comb = SpectralState(grid_small, a * U.coeffs + b * Us.coeffs)
        lhs = pressure_buoyancy_Apr(comb, PHYS).coeffs
        rhs = a * pressure_buoyancy_Apr(U, PHYS).coeffs + b * pressure_buoyancy_Apr(Us, PHYS).coeffs
        assert np.abs(lhs - rhs).max() < 1e-13 * max(1.0, np.abs(rhs).max())

    def test_coriolis_zero_f(self, grid_small, rng):
        out = coriolis_E(random_state(grid_small, rng), PhysicsParams(f=0.0))
        assert not out.coeffs.any()

    def test_coriolis_skew(self, grid_small, rng):
        for _ in range(30):
            U = leray_project(random_state(grid_small, rng))
            Us = leray_project(random_state(grid_small, rng))
            lhs = h_inner(coriolis_E(U, PHYS), Us)
            rhs = -h_inner(U, coriolis_E(Us, PHYS))
            scale = max(1.0, abs(lhs), abs(rhs))
            assert abs(lhs - rhs) < 1e-12 * scale
            assert abs(h_inner(coriolis_E(U, PHYS), U)) < 1e-12 * h_norm_sq(U)

    def test_forcing_aggregate(self, grid_small, rng):
        zero = grid_small.zero_state()
        assert not forcing_F(zero, PHYS).coeffs.any()
        F_U = leray_project(random_state(grid_small, rng))
        out = forcing_F(zero, PHYS, F_U)
        np.testing.assert_allclose(out.coeffs, -F_U.coeffs, atol=1e-15)
        # one projection of the summed operators equals the sum of the projected ones
        U = random_state(grid_small, rng)
        parts = pressure_buoyancy_Apr(U, PHYS).coeffs + coriolis_E(U, PHYS).coeffs - F_U.coeffs
        out = forcing_F(U, PHYS, F_U).coeffs
        assert np.abs(out - parts).max() < 1e-13 * np.abs(parts).max()

    def test_forcing_lipschitz_sweep(self, grid_small, rng):
        consts = []
        for _ in range(50):
            U = random_state(grid_small, rng)
            Us = random_state(grid_small, rng)
            dF = forcing_F(U, PHYS).coeffs - forcing_F(Us, PHYS).coeffs
            num = np.sqrt(h_norm_sq(SpectralState(grid_small, dF)))
            den = np.sqrt(v_norm_sq(SpectralState(grid_small, U.coeffs - Us.coeffs)))
            if den > 1e-12:
                consts.append(num / den)
        assert np.isfinite(max(consts))

    def test_forcing_resolution_mismatch(self, grid_small, grid_cube, rng):
        F_U = random_state(grid_cube, rng)
        with pytest.raises(ValueError):
            forcing_F(random_state(grid_small, rng), PHYS, F_U)


class TestModeSplitRHS:
    def test_z_independent_baroclinic_terms_vanish(self, grid_small, rng):
        st = leray_project(random_state(grid_small, rng))
        st.coeffs[:2, :, :, 1:] = 0.0
        st.coeffs[2] = 0.0
        st = leray_project(st)
        terms = baroclinic_rhs_terms(st, PHYS)
        for name, term in terms["baroclinic"].items():
            assert np.abs(term).max() < 1e-13, name

    def test_pure_baroclinic_barotropic_advection(self, grid_small, rng):
        st = leray_project(random_state(grid_small, rng))
        st.coeffs[:2, :, :, 0] = 0.0  # vbar = 0
        terms = baroclinic_rhs_terms(st, PHYS)
        assert np.abs(terms["barotropic"]["adv_vbar"]).max() < 1e-14
        # only the fluctuation self-interaction feeds the depth mean
        assert np.isfinite(np.abs(terms["barotropic"]["adv_tilde_avg"]).max())

    def test_recombination_identity(self, grid_small, rng):
        for _ in range(20):
            st = leray_project(random_state(grid_small, rng))
            terms = baroclinic_rhs_terms(st, PHYS)
            combined = recombine_split_rhs(grid_small, terms)
            unsplit = velocity_rhs_unsplit(st, PHYS)
            scale = np.abs(unsplit).max()
            assert np.abs(combined - unsplit).max() <= 1e-9 * max(scale, 1.0)
