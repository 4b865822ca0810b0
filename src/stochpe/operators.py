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

import math
from dataclasses import dataclass

import numpy as np

from .spectral import Grid, PaddedSamples, SpectralState, WavevectorBlocks

__all__ = [
    "PhysicsParams",
    "ModeSplit",
    "leray_project",
    "leray_coeffs",
    "leray_inplace",
    "vertical_velocity",
    "average_A2",
    "average_A3",
    "fluctuation_R",
    "trilinear_b",
    "advection_coeffs",
    "bilinear_B",
    "pressure_buoyancy_Apr",
    "coriolis_E",
    "forcing_F",
    "forcing_coeffs",
    "forcing_blocks",
    "mode_split",
    "baroclinic_rhs_terms",
    "velocity_rhs_unsplit",
    "recombine_split_rhs",
]


@dataclass(frozen=True)
class PhysicsParams:
    """Coriolis parameter, thermal expansion coefficient and gravity."""

    f: float = 1.0
    beta_T: float = 0.1
    g: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.f, self.beta_T, self.g)):
            raise ValueError("f, beta_T and g must be finite")
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
    return SpectralState(state.grid, leray_coeffs(state.grid, state.coeffs), state.time)


def leray_coeffs(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """``leray_project`` on a coefficient stack (..., C, nkx, nky, nm) whose
    first two components are the velocity; returns a projected copy and
    leaves ``coeffs`` as it is.  An operator that has just made its stack
    projects it with ``leray_inplace`` instead, bit for bit the same values
    without the copy."""
    return leray_inplace(grid, coeffs.copy())


def leray_inplace(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """``leray_coeffs`` written into ``coeffs`` itself, which it returns: only
    the barotropic velocity level changes.  For a stack that its caller owns
    and no one else reads, such as the fresh result of an operator; the
    advection, the forcing and the noise project their own stacks with it."""
    kx = grid.kx_phys[:, None]
    ky = grid.ky_phys[None, :]
    v1 = coeffs[..., 0, :, :, 0]
    v2 = coeffs[..., 1, :, :, 0]
    d = (kx * v1 + ky * v2) / grid.leray_divisor
    v1 -= kx * d
    v2 -= ky * d
    coeffs[..., :2, 0, 0, 0] = 0.0
    return coeffs


def barotropic_divergence(state: SpectralState) -> np.ndarray:
    """Spectral divergence of the depth-mean velocity, one value per wavevector."""
    g = state.grid
    return (
        1j * g.kx_phys[:, None] * state.coeffs[0, :, :, 0]
        + 1j * g.ky_phys[None, :] * state.coeffs[1, :, :, 0]
    )


def _w_parts(grid: Grid, vcoeffs: np.ndarray):
    """Vertical velocity of v (..., 2, nkx, nky, nm): sine coefficients plus an
    affine (z+h) part, with the leading axes of v.

    w(v) = -int_{-h}^z div v dz'; the m = 0 divergence contributes
    -(z+h) * div(vbar), which vanishes after ``leray_project``.
    """
    div = (
        1j * grid.kx_phys[:, None, None] * vcoeffs[..., 0, :, :, :]
        + 1j * grid.ky_phys[None, :, None] * vcoeffs[..., 1, :, :, :]
    )
    m = grid.m_int.astype(float)
    inv = np.zeros_like(m)
    inv[1:] = grid.spec.h / (np.pi * m[1:])
    w_sin = -div * inv[None, None, :]
    w_affine = -div[..., 0]  # coefficient of (z + h) per wavevector
    return w_sin, w_affine


def vertical_velocity(state: SpectralState) -> np.ndarray:
    """Diagnostic vertical velocity sampled on the padded collocation grid."""
    g = state.grid
    w_sin, w_aff = _w_parts(g, state.coeffs[:2])
    w = g.synth_sin(w_sin)
    _, _, z = g.nodes()
    aff2d = g.synth_cos2d(w_aff)
    return w + aff2d[:, :, None] * (z + g.spec.h)[None, None, :]


def vertical_velocity_top(state: SpectralState) -> np.ndarray:
    """w evaluated at the top face z = 0.

    Every sine mode vanishes there, so only the affine part -h * div(vbar)
    survives; it is zero up to the divergence residual of the barotropic mode.
    """
    g = state.grid
    _, w_aff = _w_parts(g, state.coeffs[:2])
    return g.spec.h * g.synth_cos2d(w_aff)


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
    grid: Grid,
    adv_coeffs: np.ndarray | None,
    target_coeffs: np.ndarray,
    samples: PaddedSamples | None = None,
) -> np.ndarray:
    """Samples of (v.grad)X + w(v) dz X on the dealiased grid, per component,
    for a stack of P paths: velocities v (P, 2, nkx, nky, nm) and targets X
    (P, C, nkx, nky, nm) give (P, C, nx_pad, ny_pad, nz_pad).  ``adv_coeffs`` None
    advects X by its own velocity X[:, :2].

    Everything is read from ``Grid.padded_samples``: the gradients of X from
    the targets' samples (``samples`` when the caller already has them), v and
    w(v) from the same samples when X advects itself, and from one synthesis
    of the velocities otherwise.  w carries its affine part -(z + h) div(vbar)
    from the m = 0 divergence level on every path, so each path's samples
    equal its own P = 1 call bit for bit.
    """
    target = grid.padded_samples(target_coeffs) if samples is None else samples
    adv = target if adv_coeffs is None else grid.padded_samples(adv_coeffs)
    vel = adv.values
    return vel[:, 0, None] * target.dx + vel[:, 1, None] * target.dy + adv.w[:, None] * target.dz


def trilinear_b(U: SpectralState, Usharp: SpectralState, Uflat: SpectralState) -> float:
    """Advection pairing (P_H[(v.grad)U# + w(v) dz U#], Ub) by exact quadrature."""
    g = U.grid
    samples = _advection_samples(g, U.coeffs[None, :2], Usharp.coeffs[None])[0]
    flat = leray_project(Uflat)
    return float(np.sum(samples * g.synth_cos(flat.coeffs))) * g.quad_weight()


def bilinear_B(U: SpectralState, Usharp: SpectralState | None = None) -> SpectralState:
    """Dealiased spectral advection term, projected onto the constrained space."""
    g = U.grid
    target = None if Usharp is None else Usharp.coeffs[None]
    return SpectralState(g, advection_coeffs(g, U.coeffs[None], target)[0], U.time)


def advection_coeffs(
    grid: Grid,
    coeffs: np.ndarray,
    target: np.ndarray | None = None,
    samples: PaddedSamples | None = None,
) -> np.ndarray:
    """``bilinear_B`` on a stack of P paths: the projected advection of the
    targets (P, 3, nkx, nky, nm) by the velocities of ``coeffs`` (the targets
    default to ``coeffs``, which then need one synthesis in all); each path's
    rows equal its own P = 1 call bit for bit.  ``samples`` are the stacked
    ``Grid.padded_samples`` of the targets.  The result is a fresh array,
    projected in place."""
    if target is None:
        adv = _advection_samples(grid, None, coeffs, samples)
    else:
        adv = _advection_samples(grid, coeffs[:, :2], target, samples)
    return leray_inplace(grid, grid.analyze_cos(adv))


# -- linear operators ----------------------------------------------------------


def _pressure_integral_cos(grid: Grid, Tc: np.ndarray) -> np.ndarray:
    """Cosine coefficients of int_z^0 T dz' (vertical antiderivative, re-expanded)
    of T (..., nkx, nky, nm), with the leading axes of T."""
    m = grid.m_int.astype(float)
    fac = np.zeros_like(m)
    fac[1:] = -grid.spec.h / (np.pi * m[1:])
    g_sin = Tc * fac[None, None, :]
    cos_part = g_sin @ grid.sin_to_cos.T
    cos_part += Tc[..., 0:1] * grid.neg_z_cos[None, None, :]
    return cos_part


def _linear_terms(
    grid: Grid, coeffs: np.ndarray, scale: float, f: float, F_U: np.ndarray | None = None
) -> np.ndarray:
    """P_H((scale grad int_z^0 T dz' + f (-v2, v1), 0) - F_U) of a coefficient
    stack (..., 3, nkx, nky, nm) and an optional field F_U (3, nkx, nky, nm):
    the terms are linear, so their sum is projected once."""
    G = _pressure_integral_cos(grid, coeffs[..., 2, :, :, :])
    out = np.zeros_like(coeffs)
    out[..., 0, :, :, :] = scale * grid.dx(G) - f * coeffs[..., 1, :, :, :]
    out[..., 1, :, :, :] = scale * grid.dy(G) + f * coeffs[..., 0, :, :, :]
    if F_U is not None:
        out -= F_U
    return leray_inplace(grid, out)


def pressure_buoyancy_Apr(state: SpectralState, physics: PhysicsParams) -> SpectralState:
    """Buoyancy-pressure operator: P_H(-beta_T g grad int_z^0 T dz', 0)."""
    out = _linear_terms(state.grid, state.coeffs, -physics.beta_T * physics.g, 0.0)
    return SpectralState(state.grid, out, state.time)


def coriolis_E(state: SpectralState, physics: PhysicsParams) -> SpectralState:
    """Coriolis operator: P_H(f (-v2, v1), 0)."""
    return SpectralState(state.grid, _linear_terms(state.grid, state.coeffs, 0.0, physics.f), state.time)


def forcing_F(
    state: SpectralState,
    physics: PhysicsParams,
    F_U: SpectralState | None = None,
) -> SpectralState:
    """Aggregate linear term P_H(A_pr U + E U - F_U) (Lipschitz in U by
    construction), divergence-free whatever F_U is.

    All three terms are linear, so their unprojected sum is projected once."""
    g = state.grid
    if F_U is not None and F_U.grid is not g and F_U.coeffs.shape != state.coeffs.shape:
        raise ValueError("forcing field resolution mismatch")
    return SpectralState(g, forcing_coeffs(g, state.coeffs, physics, F_U), state.time)


def forcing_coeffs(
    grid: Grid, coeffs: np.ndarray, physics: PhysicsParams, F_U: SpectralState | None = None
) -> np.ndarray:
    """``forcing_F`` on a coefficient stack (..., 3, nkx, nky, nm): one projection
    of A_pr U + E U - F_U."""
    return _linear_terms(
        grid, coeffs, -physics.beta_T * physics.g, physics.f, None if F_U is None else F_U.coeffs
    )


def forcing_blocks(grid: Grid, physics: PhysicsParams, F_U: SpectralState | None = None) -> WavevectorBlocks:
    """``forcing_coeffs`` as one (3 nm, 3 nm) block per horizontal wavevector
    (``WavevectorBlocks``): the pressure integral mixes the levels of one
    wavevector, and Coriolis and the projection act within it.  The blocks
    come from ``forcing_coeffs`` on the unit stack, the constant is the
    projected -F_U, ``forcing_coeffs`` of a zero state."""
    const = None if F_U is None else forcing_coeffs(grid, np.zeros_like(F_U.coeffs), physics, F_U)
    return WavevectorBlocks(grid, lambda unit: forcing_coeffs(grid, unit, physics), 3, const)


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
    assembly with signs lives in ``recombine_split_rhs``.  Every sample is
    read from one ``Grid.padded_samples`` of v, split by level: vtilde is
    every level but m = 0, the lifted vbar the m = 0 level alone.
    """
    g = state.grid
    split = mode_split(state)
    vtilde = split.vtilde
    levels = g.padded_samples(state.coeffs[:2]).levels
    mean = np.zeros_like(levels)
    mean[..., 0] = levels[..., 0]
    levels[..., 0] = 0.0
    vt, vb = PaddedSamples(g, levels), PaddedSamples(g, mean)

    def hadv(adv: PaddedSamples, target: PaddedSamples) -> np.ndarray:
        """Horizontal-only advection samples (v.grad)X, no vertical transport."""
        return adv.values[0] * target.dx + adv.values[1] * target.dy

    tt = hadv(vt, vt)
    # (vt.grad)vt + w(vt) dz vt -- vertical transport by the fluctuation only
    tt_full = g.analyze_cos(tt + vt.w * vt.dz)
    # (vt.grad)vt + (div vt) vt -- the depth-mean carrier of the same interaction
    tt_avg_carrier = g.analyze_cos(tt + (vt.dx[0] + vt.dy[1]) * vt.values)

    adv_tb = g.analyze_cos(hadv(vt, vb))  # (vt.grad)vbar
    adv_bt = g.analyze_cos(hadv(vb, vt))  # (vbar.grad)vt
    adv_bb = g.analyze_cos(hadv(vb, vb))  # (vbar.grad)vbar

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
    rhs_bar = leray_coeffs(grid, rhs_bar[..., None])[..., 0]
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
