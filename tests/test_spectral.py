"""Spectral core: basis enumeration, transforms, fractional powers, projections."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stochpe import (
    DomainSpec,
    Grid,
    apply_A_power,
    build_basis,
    complement_q,
    norms,
    project_n,
    random_state,
    single_mode_state,
    to_physical,
    to_spectral,
)
from stochpe.operators import leray_coeffs
from stochpe.spectral import da_norm_sq, h_norm_sq, next_fast_len, quadratic_sums, v_norm_sq

ROOT = Path(__file__).resolve().parent.parent


def fd_dissipation_eigenvalue(spec, kx, ky, m, n=128, nz=201):
    """Oracle: apply -mu*Laplacian - nu*d_zz to the sampled eigenfunction with
    second-order central differences and read off the Rayleigh quotient."""
    x = np.linspace(0, spec.L1, n, endpoint=False)
    y = np.linspace(0, spec.L2, n, endpoint=False)
    z = np.linspace(-spec.h, 0, nz)
    X, Y, Z = np.meshgrid(x, y, z, indexing="ij")
    f = np.cos(2 * np.pi * kx * X / spec.L1 + 2 * np.pi * ky * Y / spec.L2) * np.cos(
        np.pi * m * Z / spec.h
    )
    dx = spec.L1 / n
    dy = spec.L2 / n
    dz = spec.h / (nz - 1)
    lap_x = (np.roll(f, 1, 0) - 2 * f + np.roll(f, -1, 0)) / dx**2
    lap_y = (np.roll(f, 1, 1) - 2 * f + np.roll(f, -1, 1)) / dy**2
    dzz = np.zeros_like(f)
    dzz[:, :, 1:-1] = (f[:, :, 2:] - 2 * f[:, :, 1:-1] + f[:, :, :-2]) / dz**2
    Af = -spec.mu * (lap_x + lap_y) - spec.nu * dzz
    interior = (slice(None), slice(None), slice(1, -1))
    return np.sum(Af[interior] * f[interior]) / np.sum(f[interior] ** 2)


class TestBuildBasis:
    def test_constant_only_domain(self):
        basis = build_basis(DomainSpec(N1=0, N2=0, M=0))
        assert len(basis) == 3
        assert all(b.lam == 0.0 for b in basis)

    def test_unit_eigenvalue(self):
        spec = DomainSpec(L1=2 * np.pi, N1=1, N2=1, M=1, mu=1.0)
        basis = build_basis(spec)
        lam = next(b.lam for b in basis if (b.kx, b.ky, b.m) == (1, 0, 0))
        assert lam == pytest.approx(1.0, abs=1e-15)

    def test_eigenvalue_against_finite_differences(self):
        spec = DomainSpec(L1=2 * np.pi, L2=2 * np.pi, h=1.0, N1=2, N2=2, M=3, mu=0.1, nu=0.05)
        basis = build_basis(spec)
        lam = next(b.lam for b in basis if (b.kx, b.ky, b.m) == (1, 2, 3))
        assert lam == pytest.approx(0.1 * 5 + 0.05 * 9 * np.pi**2, rel=1e-12)
        lam_fd = fd_dissipation_eigenvalue(spec, 1, 2, 3)
        assert abs(lam_fd - lam) / lam < 1e-3

    def test_count_and_determinism(self):
        spec = DomainSpec(N1=2, N2=3, M=1)
        b1 = build_basis(spec)
        b2 = build_basis(spec)
        assert len(b1) == (2 * 2 + 1) * (2 * 3 + 1) * 2 * 3
        assert b1 == b2
        lams = [b.lam for b in b1]
        assert all(a <= b for a, b in zip(lams, lams[1:]))

    def test_zero_eigenvalue_only_for_constant_mode(self, grid_small):
        for b in grid_small.basis():
            if b.lam == 0.0:
                assert (b.kx, b.ky, b.m) == (0, 0, 0)

    def test_conjugate_pairs_adjacent(self, grid_small):
        basis = grid_small.basis()
        i = 0
        while i < len(basis):
            b = basis[i]
            if (b.kx, b.ky) == (0, 0):
                i += 1
                continue
            partner = basis[i + 1]
            assert (partner.kx, partner.ky, partner.m, partner.field) == (
                -b.kx,
                -b.ky,
                b.m,
                b.field,
            )
            i += 2


class TestTransforms:
    def test_zero_state(self, grid_small):
        ph = to_physical(grid_small.zero_state())
        assert not ph.stack().any()

    def test_single_mode_sampling(self, grid_small):
        g = grid_small
        spec = g.spec
        st = single_mode_state(g, "v1", 1, 0, 2)
        ph = to_physical(st)
        x, y, z = g.nodes()
        expected = np.cos(2 * np.pi * x[:, None, None] / spec.L1) * np.cos(
            2 * np.pi * z[None, None, :] / spec.h
        )
        expected = np.broadcast_to(expected, ph.v1.shape)
        np.testing.assert_allclose(ph.v1, expected, atol=1e-14)
        assert not ph.v2.any() and not ph.T.any()

    def test_round_trip_random(self, grid_small, rng):
        for _ in range(100):
            st = random_state(grid_small, rng)
            back = to_spectral(to_physical(st))
            err = np.abs(back.coeffs - st.coeffs).max()
            assert err < 1e-12 * max(1.0, np.abs(st.coeffs).max())

    def test_parseval(self, grid_small, rng):
        for _ in range(20):
            st = random_state(grid_small, rng)
            ph = to_physical(st)
            w = grid_small.quad_weight()
            quad = sum(float(np.sum(f**2)) * w for f in (ph.v1, ph.v2, ph.T))
            assert abs(quad - h_norm_sq(st)) <= 1e-10 * h_norm_sq(st)


def _full_synthesis(g, c, V):
    """Reference: real part of the full complex inverse transform, field by field."""
    nx, ny = g.nx_pad, g.ny_pad
    out = []
    for field in c.reshape((-1,) + c.shape[-3:]):
        buf = np.zeros((nx, ny, field.shape[-1]), dtype=complex)
        buf[np.ix_(g.kx_int % nx, g.ky_int % ny)] = field
        out.append(np.real(np.fft.ifft2(buf @ V.T, axes=(0, 1))) * nx * ny)
    return np.array(out).reshape(c.shape[:-3] + out[0].shape)


class TestStackedTransforms:
    def test_stacked_equals_per_field(self, grid_small, rng):
        g = grid_small
        shape = (2, 3, g.nkx, g.nky, g.nm)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for synth in (g.synth_cos, g.synth_sin):
            stacked = synth(c)
            single = np.array([[synth(f) for f in row] for row in c])
            np.testing.assert_allclose(stacked, single, rtol=0, atol=1e-13)
        samples = rng.standard_normal(stacked.shape)
        single = np.array([[g.analyze_cos(f) for f in row] for row in samples])
        np.testing.assert_allclose(g.analyze_cos(samples), single, rtol=0, atol=1e-15)
        c2 = c[..., 0]
        single = np.array([[g.synth_cos2d(f) for f in row] for row in c2])
        np.testing.assert_allclose(g.synth_cos2d(c2), single, rtol=0, atol=1e-13)
        s2 = samples[..., 0]
        single = np.array([[g.analyze_cos2d(f) for f in row] for row in s2])
        np.testing.assert_allclose(g.analyze_cos2d(s2), single, rtol=0, atol=1e-15)

    def test_non_hermitian_synthesis_is_real_part(self, grid_small, rng):
        g = grid_small
        _, C, S, _ = g._vertical
        shape = (3, g.nkx, g.nky, g.nm)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for synth, V in ((g.synth_cos, C), (g.synth_sin, S)):
            np.testing.assert_allclose(synth(c), _full_synthesis(g, c, V), atol=1e-13)
        c2 = c[0, :, :, :1]
        np.testing.assert_allclose(
            g.synth_cos2d(c2[..., 0]),
            _full_synthesis(g, c2, np.ones((1, 1)))[..., 0],
            atol=1e-13,
        )

    def test_analysis_against_full_transform(self, grid_small, rng):
        g = grid_small
        nx, ny, nz = g.nx_pad, g.ny_pad, g.nz_pad
        samples = rng.standard_normal((2, nx, ny, nz))
        spec = np.fft.fft2(samples, axes=(1, 2)) / (nx * ny)
        expected = spec[:, g.kx_int % nx][:, :, g.ky_int % ny] @ g._vertical[3].T
        np.testing.assert_allclose(g.analyze_cos(samples), expected, atol=1e-15)

    def test_grad_samples(self, grid_small, rng):
        g = grid_small
        c = random_state(g, rng).coeffs
        fx, fy, fz = g.padded_samples(c).grads
        np.testing.assert_allclose(fx, [g.synth_cos(g.dx(f)) for f in c], atol=1e-13)
        np.testing.assert_allclose(fy, [g.synth_cos(g.dy(f)) for f in c], atol=1e-13)
        np.testing.assert_allclose(fz, [g.synth_sin(g.dz_to_sin(f)) for f in c], atol=1e-13)

    @pytest.mark.parametrize("M", [3, 8])
    def test_dz_nodal_is_the_padded_grid_projection(self, rng, M):
        g = Grid(DomainSpec(L1=2 * np.pi, L2=4.0, h=1.5, N1=3, N2=2, M=M, mu=0.7, nu=0.3))
        shape = (3, g.nkx, g.nky, g.nm)
        c = g.enforce_reality(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        on_grid = g.analyze_cos(g.synth_sin(g.dz_to_sin(c)))
        spectral = c @ g.dz_nodal.T
        assert np.abs(spectral - on_grid).max() <= 1e-14 * np.abs(on_grid).max()
        # not the exact projection of the sine profile
        assert np.abs(g.dz_nodal - g.sin_to_cos * -g.mz_phys).max() > 1e-2
        sub = g.subgrid(2, 1, M - 1)
        assert np.array_equal(sub.dz_nodal, g.dz_nodal[:M, :M])

    def test_sample_shape_checked(self, grid_small):
        with pytest.raises(ValueError):
            grid_small.analyze_cos(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            grid_small.analyze_cos(np.zeros((2, 4, 4, 4)))

    def test_only_the_padded_grid_is_analysed(self, grid_small, rng):
        # a grid has one collocation grid: samples on nkx x (2 N2 + 1) x nm
        # nodes, or padded horizontally with nm levels, are refused
        g = grid_small
        for shape in ((g.nkx, 2 * g.spec.N2 + 1, g.nm), (g.nx_pad, g.ny_pad, g.nm)):
            with pytest.raises(ValueError, match="padded grid"):
                g.analyze_cos(rng.standard_normal((3,) + shape))
        assert g.analyze_cos(rng.standard_normal((3, g.nx_pad, g.ny_pad, g.nz_pad))).shape == (3, g.nkx, g.nky, g.nm)


# -- the matrix transforms against numpy's FFTs -------------------------------------

TRANSFORM_GRIDS = {
    "anisotropic": lambda: Grid(DomainSpec(L1=2 * np.pi, L2=4.0, h=1.5, N1=3, N2=2, M=3, mu=0.7, nu=0.3)),
    "N1=0": lambda: Grid(DomainSpec(N1=0, N2=3, M=2)),
    "N2=0": lambda: Grid(DomainSpec(N1=3, N2=0, M=2)),
    "sub-grid": lambda: Grid(DomainSpec(L2=3.0, N1=5, N2=4, M=3)).subgrid(2, 3, 1),
}


def _index(k_int, k):
    return int(np.flatnonzero(k_int == k)[0])


def _hermitian_half_plane(g, c):
    """Reference: the ky = 0..N2 columns of the Hermitian part of c, entry by
    entry; on the half-plane layout the ky > 0 columns are the stored modes of
    their pairs."""
    half = g.spec.N2 + 1
    out = np.empty(c.shape[:-2] + (half, c.shape[-1]), dtype=complex)
    for i, kx in enumerate(g.kx_int):
        for ky in range(half):
            j = _index(g.ky_int, ky)
            if g.full_plane is not None and ky > 0:
                out[..., i, ky, :] = c[..., i, j, :]
            else:
                partner = c[..., _index(g.kx_int, -kx), _index(g.ky_int, -ky), :]
                out[..., i, ky, :] = 0.5 * (c[..., i, j, :] + np.conj(partner))
    return out


@pytest.mark.parametrize("layout", ["full", "half-plane"])
@pytest.mark.parametrize("name", list(TRANSFORM_GRIDS))
def test_matrix_transforms_match_numpy_fft(name, layout, rng):
    full = TRANSFORM_GRIDS[name]()
    g = full if layout == "full" else full.half_plane()
    nx, ny, half = g.nx_pad, g.ny_pad, g.spec.N2 + 1
    shape = (2, 3, g.nkx, g.nky, g.nm)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    buf = np.zeros(shape[:2] + (nx, ny // 2 + 1, g.nm), dtype=complex)
    buf[..., g.kx_int % nx, :half, :] = _hermitian_half_plane(g, c)
    expected = np.fft.irfft2(buf, s=(nx, ny), axes=(-3, -2), norm="forward")
    levels = g._synth_h(c, None)
    assert np.abs(levels - expected).max() <= 1e-14 * np.abs(expected).max()

    samples = rng.standard_normal(shape[:2] + (nx, ny, g.nm))
    plane = np.fft.rfft2(samples, axes=(-3, -2), norm="forward")[..., g.kx_int % nx, :half, :]
    expected = plane if g.full_plane is not None else full._unfold(plane)
    coeffs = g._analyze_h(samples, None)
    assert coeffs.shape == shape
    assert np.abs(coeffs - expected).max() <= 1e-14 * np.abs(expected).max()


def test_complex_samples_are_refused(grid_small, rng):
    g = grid_small
    samples = rng.standard_normal((2, g.nx_pad, g.ny_pad, g.nz_pad)) * (1 + 1j)
    with pytest.raises(TypeError, match="real"):
        g.analyze_cos(samples)
    with pytest.raises(TypeError, match="real"):
        g.analyze_cos2d(samples[..., 0])


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len as scipy_next_fast_len

    assert [next_fast_len(n) for n in range(1, 1025)] == [scipy_next_fast_len(n) for n in range(1, 1025)]


def test_import_leaves_scipy_fft_unloaded():
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    code = "import sys, stochpe, stochpe.cli, stochpe.experiments; print('scipy.fft' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == "False"


class TestAPower:
    def test_identity(self, grid_small, rng):
        st = random_state(grid_small, rng)
        out = apply_A_power(st, 0.0)
        np.testing.assert_array_equal(out.coeffs, st.coeffs)

    def test_single_mode_doubling(self):
        # mode (1, 1, 0) on the unit torus with mu = 1 has eigenvalue 2
        g = Grid(DomainSpec(L1=2 * np.pi, L2=2 * np.pi, N1=1, N2=1, M=0, mu=1.0))
        st = single_mode_state(g, "T", 1, 1, 0)
        out = apply_A_power(st, 1.0)
        np.testing.assert_allclose(out.coeffs, 2.0 * st.coeffs, atol=1e-15)

    def test_semigroup_property(self, grid_small, rng):
        for _ in range(20):
            st = random_state(grid_small, rng)
            twice = apply_A_power(apply_A_power(st, 0.5), 0.5)
            once = apply_A_power(st, 1.0)
            scale = np.abs(once.coeffs).max()
            assert np.abs(twice.coeffs - once.coeffs).max() < 1e-12 * scale

    def test_negative_power_requires_zero_kernel(self, grid_small, rng):
        st = random_state(grid_small, rng, zero_mean=False)
        st.coeffs[2, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            apply_A_power(st, -0.5)
        st.coeffs[:, 0, 0, 0] = 0.0
        inv = apply_A_power(apply_A_power(st, -1.0), 1.0)
        assert np.abs(inv.coeffs - st.coeffs).max() < 1e-12

    def test_exponent_range(self, grid_small):
        with pytest.raises(ValueError):
            apply_A_power(grid_small.zero_state(), 2.5)


class TestProjections:
    def test_full_projection_is_identity(self, grid_small, rng):
        st = random_state(grid_small, rng)
        total = grid_small.n_modes_total
        np.testing.assert_array_equal(project_n(st, total).coeffs, st.coeffs)
        assert not complement_q(st, total).coeffs.any()

    def test_complementarity(self, grid_small, rng):
        st = random_state(grid_small, rng)
        for n in (0, 7, 100, grid_small.n_modes_total):
            back = project_n(st, n).coeffs + complement_q(st, n).coeffs
            np.testing.assert_array_equal(back, st.coeffs)

    def test_out_of_range(self, grid_small):
        with pytest.raises(ValueError):
            project_n(grid_small.zero_state(), grid_small.n_modes_total + 1)

    @pytest.mark.parametrize("s1,s2", [(0.0, 0.5), (0.5, 1.0)])
    def test_poincare_inequalities(self, grid_small, rng, s1, s2):
        g = grid_small
        lam_sorted = g.lam_sorted
        violations = 0
        for _ in range(100):
            st = random_state(g, rng, zero_mean=False)
            n = int(rng.integers(1, g.n_modes_total + 1))
            lam_n = lam_sorted[n - 1]
            qn = complement_q(st, n)
            pn = project_n(st, n)
            q_lo = np.sqrt(_seminorm_sq(qn, s1))
            q_hi = np.sqrt(_seminorm_sq(qn, s2))
            p_lo = np.sqrt(_seminorm_sq(pn, s1))
            p_hi = np.sqrt(_seminorm_sq(pn, s2))
            if lam_n > 0 and q_lo > lam_n ** (-(s2 - s1)) * q_hi * (1 + 1e-12):
                violations += 1
            if p_hi > lam_n ** (s2 - s1) * p_lo * (1 + 1e-12) + 1e-300:
                violations += 1
        assert violations == 0

    def test_snap_mode_count(self, grid_small):
        g = grid_small
        basis = g.basis()
        for n in range(1, min(200, g.n_modes_total)):
            m = g.snap_mode_count(n)
            assert m >= n
            b = basis[m - 1]
            if (b.kx, b.ky) != (0, 0) and m < g.n_modes_total:
                nxt = basis[m]
                assert (nxt.kx, nxt.ky) != (-b.kx, -b.ky) or nxt.m != b.m or nxt.field != b.field


    @pytest.mark.parametrize("spec", [None, DomainSpec(N1=8, N2=8, M=8)])
    def test_snap_mode_count_matches_basis(self, grid_small, spec):
        # a cut n is closed when no coupled pair of basis positions i < j has
        # i < n <= j; pairs are conjugates, and v1 with v2 at the same barotropic
        # wavevector with kx != 0 and ky != 0
        g = grid_small if spec is None else Grid(spec)
        basis = g.basis()
        total = g.n_modes_total
        position = {(b.kx, b.ky, b.m, b.field): i for i, b in enumerate(basis)}
        opens = np.zeros(total + 2, dtype=int)
        for i, b in enumerate(basis):
            partners = [(-b.kx, -b.ky, b.m, b.field)]
            if b.m == 0 and b.kx != 0 and b.ky != 0 and b.field in ("v1", "v2"):
                partners.append((b.kx, b.ky, 0, "v2" if b.field == "v1" else "v1"))
            for key in partners:
                j = position[key]
                if j > i:
                    opens[i + 1] += 1
                    opens[j + 1] -= 1
        closed = np.flatnonzero(np.cumsum(opens)[: total + 1] == 0)
        snapped = [g.snap_mode_count(n) for n in range(total + 1)]
        expected = [int(closed[np.searchsorted(closed, n)]) for n in range(total + 1)]
        assert snapped == expected
        assert snapped[0] == 0 and snapped[total] == total
        assert all(snapped[s] == s for s in snapped)  # idempotent

    @pytest.mark.parametrize(
        "spec",
        [None, DomainSpec(N1=2, N2=2, M=2), DomainSpec(N1=3, N2=3, M=3), DomainSpec(N1=8, N2=8, M=8)],
        ids=["small", "2x2x2", "3x3x3", "8x8x8"],
    )
    def test_snapped_mask_commutes_with_leray(self, grid_small, spec, rng):
        # the parent rule kept v1 without v2 on 54 of the 588 cuts at 3^3
        g = grid_small if spec is None else Grid(spec)
        shape = (3, g.nkx, g.nky, g.nm)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        scale = np.abs(c).max()
        projected = leray_coeffs(g, c)
        for n in range(g.n_modes_total + 1):
            mask = g.rank < g.snap_mode_count(n)
            gap = np.abs(leray_coeffs(g, c * mask) - projected * mask).max()
            assert gap <= 1e-15 * scale, n


def _seminorm_sq(st, s):
    if s == 0.0:
        return h_norm_sq(st)
    if s == 0.5:
        return v_norm_sq(st)
    if s == 1.0:
        return da_norm_sq(st)
    raise AssertionError


class TestNorms:
    def test_zero(self, grid_small):
        nb = norms(grid_small.zero_state())
        assert nb.H == nb.V == nb.DA == nb.dz_L2 == nb.boundary_L2_top == 0.0
        assert nb.L6 == (0.0, 0.0, 0.0)

    def test_quadratic_sums_bitwise(self, grid_small, rng):
        # one |c|^2 pass for several forms gives each form's own pass bit for bit
        for _ in range(20):
            st = random_state(grid_small, rng, amplitude=10.0 ** rng.uniform(-3, 3), zero_mean=False)
            sums = quadratic_sums(grid_small, st.coeffs, ("H", "V", "DA"))
            assert sums == (h_norm_sq(st), v_norm_sq(st), da_norm_sq(st))
            assert all(isinstance(value, float) for value in sums)

    @pytest.mark.parametrize(
        "field, kx, ky, m",
        [("v1", 1, 2, 0), ("v2", -2, 1, 2), ("T", 0, 1, 3), ("v1", 0, 0, 1), ("T", 3, -2, 0), ("v2", 0, 0, 0)],
    )
    def test_forms_match_their_closed_forms(self, grid_small, field, kx, ky, m):
        # a cos(k.x) cos(m pi z/h) in one field: |u|^2 integrates to a^2 L1 L2 h,
        # halved for k != 0 and again for m != 0, and each form is a multiple of it
        g, a = grid_small, 1.7
        s = g.spec
        ksq = (2 * np.pi * kx / s.L1) ** 2 + (2 * np.pi * ky / s.L2) ** 2
        mz_sq = (m * np.pi / s.h) ** 2
        lam = s.mu * ksq + s.nu * mz_sq
        area = a**2 * s.L1 * s.L2 * (0.5 if (kx, ky) != (0, 0) else 1.0)  # |vbar|^2 over the surface
        energy = area * s.h * (0.5 if m else 1.0)
        velocity = field != "T"
        bar = area if velocity and m == 0 else 0.0
        expected = {
            "H": energy,
            "V": lam * energy,
            "DA": lam**2 * energy,
            "vbar_H1": (1.0 + ksq) * bar,
            "vbar_V": s.mu * ksq * bar,
            "AS": s.mu**2 * ksq**2 * bar,
            "dz_v1": mz_sq * energy if field == "v1" else 0.0,
            "dz_v2": mz_sq * energy if field == "v2" else 0.0,
            "dz_T": mz_sq * energy if field == "T" else 0.0,
            "grad3_dz_v": (ksq + mz_sq) * mz_sq * energy if velocity else 0.0,
            "grad3_dz_T": (s.mu * ksq + s.nu * mz_sq) * mz_sq * energy if not velocity else 0.0,
        }
        assert set(expected) == set(g.forms)
        st = single_mode_state(g, field, kx, ky, m, a)
        for name, value in zip(expected, quadratic_sums(g, st.coeffs, tuple(expected))):
            assert value == pytest.approx(expected[name], rel=1e-13, abs=1e-13 * energy), name

    def test_single_mode_v_norm(self, grid_small):
        g = grid_small
        st = single_mode_state(g, "v2", 0, 1, 1)
        lam = next(b.lam for b in g.basis() if (b.kx, b.ky, b.m, b.field) == (0, 1, 1, "v2"))
        nb = norms(st)
        assert nb.V == pytest.approx(np.sqrt(lam) * nb.H, rel=1e-12)

    def test_l6_of_constant(self, grid_small):
        g = grid_small
        st = g.zero_state()
        st.coeffs[2, 0, 0, 0] = -0.7
        nb = norms(st)
        vol = g.spec.L1 * g.spec.L2 * g.spec.h
        assert nb.L6[2] == pytest.approx(0.7 * vol ** (1 / 6), rel=1e-12)

    def test_self_adjointness_and_coercivity(self, grid_small, rng):
        g = grid_small
        w = g.weight_m[None, None, None, :]
        for _ in range(20):
            u = random_state(g, rng, zero_mean=False)
            v = random_state(g, rng, zero_mean=False)
            au = apply_A_power(u, 1.0)
            av = apply_A_power(v, 1.0)
            ip1 = np.sum(au.coeffs * np.conj(v.coeffs) * w).real
            ip2 = np.sum(u.coeffs * np.conj(av.coeffs) * w).real
            assert ip1 == pytest.approx(ip2, rel=1e-12)
            # coercivity: (A u, u) = ||u||^2 >= lam_min+ * |u - kernel part|^2
            energy = np.sum(au.coeffs * np.conj(u.coeffs) * w).real
            assert energy == pytest.approx(v_norm_sq(u), rel=1e-12)
            nonker = u.copy()
            nonker.coeffs[:, 0, 0, 0] = 0.0
            assert energy >= g.lam_min_pos * h_norm_sq(nonker) * (1 - 1e-12)
