"""Deterministic operators of the hydrostatic model.

Covers the hydrostatic Leray projection, the diagnostic vertical velocity,
the advection forms (trilinear pairing and the associated bilinear operator),
the pressure/buoyancy and Coriolis operators, the aggregate forcing, and the
barotropic/baroclinic depth splitting.

All operators are stateless functions of immutable spectral states; quadratic
products are formed on the dealiased collocation grid so the advection
pairing is antisymmetric in its last two slots to round-off, provided the
advecting velocity satisfies the depth-integrated divergence constraint
(apply ``leray_project`` first).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Grid, SpectralState

__all__ = [
    "PhysicsParams",
    "ModeSplit",
    "leray_project",
    "vertical_velocity",
    "average_A2",
    "average_A3",
    "fluctuation_R",
    "trilinear_b",
    "bilinear_B",
    "pressure_buoyancy_Apr",
    "coriolis_E",
    "forcing_F",
    "mode_split",
    "baroclinic_rhs_terms",
    "velocity_rhs_unsplit",
    "recombine_split_rhs",
]


@dataclass(frozen=True)
class PhysicsParams:
    """Coriolis, thermal expansion, gravity, reference density/temperature."""

    f: float = 1.0
    beta_T: float = 0.1
    g: float = 1.0
    rho0: float = 1.0
    T_r: float = 0.0

    def __post_init__(self):
        if self.rho0 <= 0:
            raise ValueError("rho0 must be positive")
        if self.g < 0:
            raise ValueError("g must be nonnegative")


@dataclass
class ModeSplit:
    """Depth splitting of the horizontal velocity.

    ``vbar``: barotropic coefficients (2, nkx, nky); ``vtilde``: baroclinic
    coefficient array (2, nkx, nky, nm) with vanishing depth mean.
    """

    grid: Grid
    vbar: np.ndarray
    vtilde: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.vtilde.copy()
        v[:, :, :, 0] += self.vbar
        return v


# -- projection and diagnostic velocity ---------------------------------------


def leray_project(state: SpectralState) -> SpectralState:
    """Project the barotropic velocity onto 2D divergence-free fields.

    Coefficientwise v <- v - k (k.v)/|k|^2 on the depth-mean modes; the
    baroclinic part is untouched.  The constant barotropic mode is pinned to
    zero (zero-mean gauge, which keeps the dissipation operator invertible on
    the velocity space).
    """
    g = state.grid
    out = state.coeffs.copy()
    out[:2, :, :, 0] = _barotropic_leray(g, out[:2, :, :, 0])
    return SpectralState(g, out, state.time)


def _barotropic_leray(grid: Grid, c2d: np.ndarray) -> np.ndarray:
    """v - k (k.v)/|k|^2 on 2D velocity coefficients (2, nkx, nky), mean mode zeroed."""
    kx = grid.kx_phys[:, None]
    ky = grid.ky_phys[None, :]
    ksq = np.where(grid.ksq_h == 0.0, 1.0, grid.ksq_h)
    d = (kx * c2d[0] + ky * c2d[1]) / ksq
    out = np.stack([c2d[0] - kx * d, c2d[1] - ky * d])
    out[:, 0, 0] = 0.0
    return out


def barotropic_divergence(state: SpectralState) -> np.ndarray:
    """Spectral divergence of the depth-mean velocity, one value per wavevector."""
    g = state.grid
    return (
        1j * g.kx_phys[:, None] * state.coeffs[0, :, :, 0]
        + 1j * g.ky_phys[None, :] * state.coeffs[1, :, :, 0]
    )


def _w_parts(grid: Grid, vcoeffs: np.ndarray):
    """Vertical velocity of v: sine coefficients plus an affine (z+h) part.

    w(v) = -int_{-h}^z div v dz'; the m = 0 divergence contributes
    -(z+h) * div(vbar), which vanishes after ``leray_project``.
    """
    div = 1j * grid.kx_phys[:, None, None] * vcoeffs[0] + 1j * grid.ky_phys[None, :, None] * vcoeffs[1]
    m = grid.m_int.astype(float)
    inv = np.zeros_like(m)
    inv[1:] = grid.spec.h / (np.pi * m[1:])
    w_sin = -div * inv[None, None, :]
    w_affine = -div[:, :, 0]  # coefficient of (z + h) per wavevector
    return w_sin, w_affine


def vertical_velocity(state: SpectralState, padded: bool = True) -> np.ndarray:
    """Diagnostic vertical velocity sampled on the collocation grid."""
    g = state.grid
    w_sin, w_aff = _w_parts(g, state.coeffs[:2])
    w = g.synth_sin(w_sin, padded=padded)
    _, _, z = g.nodes(padded=padded)
    aff2d = g.synth_cos2d(w_aff, padded=padded)
    return w + aff2d[:, :, None] * (z + g.spec.h)[None, None, :]


def vertical_velocity_top(state: SpectralState, padded: bool = True) -> np.ndarray:
    """w evaluated at the top face z = 0.

    Every sine mode vanishes there, so only the affine part -h * div(vbar)
    survives; it is zero up to the divergence residual of the barotropic mode.
    """
    g = state.grid
    _, w_aff = _w_parts(g, state.coeffs[:2])
    return g.spec.h * g.synth_cos2d(w_aff, padded=padded)


# -- depth averaging -----------------------------------------------------------


def average_A2(state: SpectralState) -> np.ndarray:
    """Depth mean of every component, as 2D coefficients (3, nkx, nky)."""
    return state.coeffs[:, :, :, 0].copy()


def average_A3(state: SpectralState) -> SpectralState:
    """Depth mean lifted back to a z-independent 3D state."""
    out = np.zeros_like(state.coeffs)
    out[:, :, :, 0] = state.coeffs[:, :, :, 0]
    return SpectralState(state.grid, out, state.time)


def fluctuation_R(state: SpectralState) -> SpectralState:
    """Depth fluctuation: identity minus the lifted depth mean (exact on coefficients)."""
    out = state.coeffs.copy()
    out[:, :, :, 0] = 0.0
    return SpectralState(state.grid, out, state.time)


# -- advection -----------------------------------------------------------------


def _advection_samples(
    grid: Grid, adv_coeffs: np.ndarray, target_coeffs: np.ndarray, grads: tuple | None = None
) -> np.ndarray:
    """Samples of (v.grad)X + w(v) dz X on the dealiased grid, per component.

    ``grads`` are the ``Grid.grad_samples`` of X when the caller already has them.
    """
    v1g, v2g = grid.synth_cos(adv_coeffs, padded=True)
    w_sin, w_aff = _w_parts(grid, adv_coeffs)
    wg = grid.synth_sin(w_sin, padded=True)
    if np.abs(w_aff).max() > 0.0:
        _, _, z = grid.nodes(padded=True)
        wg = wg + grid.synth_cos2d(w_aff, padded=True)[:, :, None] * (z + grid.spec.h)[None, None, :]
    fx, fy, fz = grid.grad_samples(target_coeffs) if grads is None else grads
    return v1g * fx + v2g * fy + wg * fz


def _hadv_samples(grid: Grid, adv_coeffs: np.ndarray, target_coeffs: np.ndarray) -> np.ndarray:
    """Horizontal-only advection samples (v.grad)X, no vertical transport."""
    v1g, v2g = grid.synth_cos(adv_coeffs, padded=True)
    fx, fy = grid.synth_cos(np.stack([grid.dx(target_coeffs), grid.dy(target_coeffs)]), padded=True)
    return v1g * fx + v2g * fy


def trilinear_b(U: SpectralState, Usharp: SpectralState, Uflat: SpectralState) -> float:
    """Advection pairing (P_H[(v.grad)U# + w(v) dz U#], Ub) by exact quadrature."""
    g = U.grid
    samples = _advection_samples(g, U.coeffs[:2], Usharp.coeffs)
    flat = leray_project(Uflat)
    return float(np.sum(samples * g.synth_cos(flat.coeffs, padded=True))) * g.quad_weight(padded=True)


def bilinear_B(
    U: SpectralState, Usharp: SpectralState | None = None, grads: tuple | None = None
) -> SpectralState:
    """Dealiased spectral advection term, projected onto the constrained space.

    ``grads``, the ``Grid.grad_samples`` of Usharp's coefficients, skip
    their synthesis when the caller already has them."""
    if Usharp is None:
        Usharp = U
    g = U.grid
    samples = _advection_samples(g, U.coeffs[:2], Usharp.coeffs, grads)
    return leray_project(SpectralState(g, g.analyze_cos(samples), U.time))


# -- linear operators ----------------------------------------------------------


def _pressure_integral_cos(grid: Grid, Tc: np.ndarray) -> np.ndarray:
    """Cosine coefficients of int_z^0 T dz' (vertical antiderivative, re-expanded)."""
    m = grid.m_int.astype(float)
    fac = np.zeros_like(m)
    fac[1:] = -grid.spec.h / (np.pi * m[1:])
    g_sin = Tc * fac[None, None, :]
    cos_part = g_sin @ grid.sin_to_cos.T
    cos_part += Tc[:, :, 0:1] * grid.neg_z_cos[None, None, :]
    return cos_part


def _linear_terms(state: SpectralState, scale: float, f: float) -> SpectralState:
    """P_H(scale grad int_z^0 T dz' + f (-v2, v1), 0), projected once."""
    g = state.grid
    G = _pressure_integral_cos(g, state.coeffs[2])
    out = np.zeros_like(state.coeffs)
    out[0] = scale * g.dx(G) - f * state.coeffs[1]
    out[1] = scale * g.dy(G) + f * state.coeffs[0]
    return leray_project(SpectralState(g, out, state.time))


def pressure_buoyancy_Apr(state: SpectralState, physics: PhysicsParams) -> SpectralState:
    """Buoyancy-pressure operator: P_H(-beta_T g grad int_z^0 T dz', 0)."""
    return _linear_terms(state, -physics.beta_T * physics.g, 0.0)


def coriolis_E(state: SpectralState, physics: PhysicsParams) -> SpectralState:
    """Coriolis operator: P_H(f (-v2, v1), 0)."""
    return _linear_terms(state, 0.0, physics.f)


def forcing_F(
    state: SpectralState,
    physics: PhysicsParams,
    F_U: SpectralState | None = None,
) -> SpectralState:
    """Aggregate linear term A_pr U + E U - F_U (Lipschitz in U by construction).

    Both operators are linear, so their unprojected sum is projected once."""
    g = state.grid
    out = _linear_terms(state, -physics.beta_T * physics.g, physics.f)
    if F_U is not None:
        if F_U.grid is not g and F_U.coeffs.shape != state.coeffs.shape:
            raise ValueError("forcing field resolution mismatch")
        out.coeffs = out.coeffs - F_U.coeffs
    return out


# -- barotropic / baroclinic splitting -----------------------------------------


def mode_split(state: SpectralState) -> ModeSplit:
    """Split horizontal velocity into depth mean and fluctuation (exact)."""
    vbar = state.coeffs[:2, :, :, 0].copy()
    vtilde = state.coeffs[:2].copy()
    vtilde[:, :, :, 0] = 0.0
    return ModeSplit(state.grid, vbar, vtilde)


def _lift(grid: Grid, c2d: np.ndarray) -> np.ndarray:
    out = np.zeros(c2d.shape + (grid.nm,), dtype=np.complex128)
    out[..., 0] = c2d
    return out


def baroclinic_rhs_terms(state: SpectralState, physics: PhysicsParams) -> dict:
    """Named right-hand-side terms of the depth-split velocity equations.

    Barotropic entries are 2D coefficient arrays (2, nkx, nky), baroclinic
    entries 3D velocity coefficient arrays (2, nkx, nky, nm).  Terms carry
    their natural sign (the transported quantity itself); the tendency
    assembly with signs lives in ``recombine_split_rhs``.
    """
    g = state.grid
    split = mode_split(state)
    vbar3 = _lift(g, split.vbar)
    vtilde = split.vtilde

    # (vt.grad)vt + w(vt) dz vt -- vertical transport by the fluctuation only
    tt_full = g.analyze_cos(_advection_samples(g, vtilde, vtilde))

    # (vt.grad)vt + (div vt) vt -- the depth-mean carrier of the same interaction
    div_t_g = g.synth_cos(
        1j * g.kx_phys[:, None, None] * vtilde[0] + 1j * g.ky_phys[None, :, None] * vtilde[1],
        padded=True,
    )
    vt_g = g.synth_cos(vtilde, padded=True)
    tt_avg_carrier = g.analyze_cos(_hadv_samples(g, vtilde, vtilde) + div_t_g[None] * vt_g)

    adv_tb = g.analyze_cos(_hadv_samples(g, vtilde, vbar3))  # (vt.grad)vbar
    adv_bt = g.analyze_cos(_hadv_samples(g, vbar3, vtilde))  # (vbar.grad)vt
    adv_bb = g.analyze_cos(_hadv_samples(g, vbar3, vbar3))  # (vbar.grad)vbar

    G = _pressure_integral_cos(g, state.coeffs[2])
    buoy = np.stack([g.dx(G), g.dy(G)]) * (-physics.beta_T * physics.g)

    barotropic = {
        "diffusion": -(g.spec.mu * g.ksq_h)[None] * split.vbar,
        "adv_vbar": adv_bb[:, :, :, 0],
        "adv_tilde_avg": tt_avg_carrier[:, :, :, 0],
        "coriolis": np.stack([-physics.f * split.vbar[1], physics.f * split.vbar[0]]),
        "buoyancy": buoy[:, :, :, 0],
    }
    avg_corr = _lift(g, tt_avg_carrier[:, :, :, 0])  # lifted depth mean, + sign in rhs
    buoy_fluct = buoy.copy()
    buoy_fluct[:, :, :, 0] = 0.0
    baroclinic = {
        "diffusion": -g.lam[None] * vtilde,
        "adv_tilde_tilde": tt_full,
        "adv_tilde_vbar": adv_tb,
        "adv_vbar_tilde": adv_bt,
        "avg_correction": avg_corr,
        "coriolis": np.stack([-physics.f * vtilde[1], physics.f * vtilde[0]]),
        "buoyancy": buoy_fluct,
    }
    return {"barotropic": barotropic, "baroclinic": baroclinic, "split": split}


def recombine_split_rhs(grid: Grid, terms: dict) -> np.ndarray:
    """Total velocity tendency implied by the split equations (lifted + fluctuating)."""
    bar = terms["barotropic"]
    bc = terms["baroclinic"]
    rhs_bar = (
        bar["diffusion"] - bar["adv_vbar"] - bar["adv_tilde_avg"] - bar["coriolis"] - bar["buoyancy"]
    )
    rhs_bar = _barotropic_leray(grid, rhs_bar)
    rhs_tilde = (
        bc["diffusion"]
        - bc["adv_tilde_tilde"]
        - bc["adv_tilde_vbar"]
        - bc["adv_vbar_tilde"]
        + bc["avg_correction"]
        - bc["coriolis"]
        - bc["buoyancy"]
    )
    rhs_tilde = rhs_tilde.copy()
    rhs_tilde[:, :, :, 0] = 0.0  # fluctuation part; depth mean carried by rhs_bar
    total = rhs_tilde
    total[:, :, :, 0] += rhs_bar
    return total


def velocity_rhs_unsplit(state: SpectralState, physics: PhysicsParams) -> np.ndarray:
    """Velocity rows of the unsplit tendency -AU - B(U) - A_pr U - E U."""
    g = state.grid
    b = bilinear_B(state)
    f_lin = forcing_F(state, physics)
    rhs = -g.lam[None] * state.coeffs[:2] - b.coeffs[:2] - f_lin.coeffs[:2]
    return rhs
