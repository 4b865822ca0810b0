"""Per-wavevector blocks of the linear forcing and of constant-transport noise.

``operators.forcing_blocks`` and ``NoiseSpec.column_blocks`` hold one block
per horizontal wavevector (``spectral.WavevectorBlocks``), built by applying
``forcing_coeffs`` and ``sigma_coeffs`` to the unit stack.  On Hermitian
rows, which every step row is, they equal those operators to round-off.
"""

import numpy as np
import pytest

from stochpe import DomainSpec, Grid, random_state
from stochpe.cli import _preset_text
from stochpe.config import build_solver_config, parse_config_text
from stochpe.noise import example1_noise, example2_noise, sigma_coeffs, zero_noise
from stochpe.operators import PhysicsParams, forcing_blocks, forcing_coeffs
from stochpe.solver import Stepper, initial_state, step_grid
from stochpe.spectral import SpectralState


def preset_cfg(name, **values):
    v = parse_config_text(_preset_text(name))
    v.update(values)
    return build_solver_config(v)


def layout(name, grid_small):
    """The grids the blocks are checked on: full layouts, half-planes and cuts."""
    if name == "grid_small":
        return grid_small
    if name == "half":
        return grid_small.half_plane()
    if name == "cut":
        return Grid(DomainSpec(L2=3.0, h=0.8, N1=4, N2=3, M=3, mu=0.6)).subgrid(2, 3, 2).half_plane()
    return step_grid(preset_cfg("smallnoise-888"))


def hermitian_stack(grid, P, seed):
    """P random real states in ``grid``'s layout (a half-plane keeps the
    Hermitian part, as ``Grid.extract`` does)."""
    full = grid if grid.full_plane is None else grid.full_plane
    rng = np.random.default_rng(seed)
    return full.extract(grid, np.stack([random_state(full, rng, decay=0.5).coeffs for _ in range(P)]))


def assert_close(a, b, rtol=1e-14):
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= rtol * np.abs(b).max()


LAYOUTS = ["grid_small", "half", "cut", "smallnoise-888"]


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("name", LAYOUTS)
def test_forcing_blocks_equal_forcing_coeffs(grid_small, name, forced):
    g = layout(name, grid_small)
    physics = PhysicsParams(f=0.7, beta_T=0.3, g=1.3)
    # F_U need not be divergence-free: the constant is its projection
    F_U = SpectralState(g, np.random.default_rng(9).standard_normal(g.lam.shape) * (1 + 1j) * np.ones((3, 1, 1, 1)))
    F_U = F_U if forced else None
    c = hermitian_stack(g, 5, 1)
    table = forcing_blocks(g, physics, F_U)
    assert table.blocks.shape == (g.nkx * g.nky, 3 * g.nm, 3 * g.nm)
    assert (table.const is None) == (not forced)
    assert_close(table(c), forcing_coeffs(g, c, physics, F_U))


NOISES = {
    "family1": lambda g, t: example1_noise(
        g, K=3, amp_phi=0.4, amp_psi=0.3, amp_chi=0.3, amp_alpha=0.2, include_temperature=t
    ),
    "family2": lambda g, t: example2_noise(g, K=3, amp_phi=0.4, amp_chi=0.3, amp_alpha=0.2, include_temperature=t),
}


@pytest.mark.parametrize("temperature", [False, True], ids=["velocity", "temperature"])
@pytest.mark.parametrize("family", sorted(NOISES))
@pytest.mark.parametrize("name", LAYOUTS[:3])
def test_noise_blocks_equal_sigma_coeffs(grid_small, name, family, temperature):
    g = layout(name, grid_small)
    full = g if g.full_plane is None else g.full_plane
    spec = NOISES[family](full, temperature).restricted(g)
    assert spec.constant_transport and not spec.is_additive
    n = 3 if temperature else 2
    table = spec.column_blocks
    assert table.blocks.shape == (g.nkx * g.nky, spec.K * n * g.nm, n * g.nm)
    c = hermitian_stack(g, 4, 2)
    cols = table(c)
    assert_close(cols, sigma_coeffs(spec, c))
    # the rows weighted by dW, as the step sums them
    dW = np.random.default_rng(3).standard_normal((4, spec.K))
    rows = sum(dW[:, k, None, None, None, None] * cols[:, k] for k in range(spec.K))
    assert_close(rows, sigma_coeffs(spec, c, dW[:, None])[:, 0])


def test_additive_zero_and_grid_noise_build_no_blocks(grid_small):
    assert zero_noise(grid_small).column_blocks is None
    assert example1_noise(grid_small, K=2, amp_phi=0.0, amp_psi=0.0, amp_chi=0.3).column_blocks is None
    # varying phi and psi are evaluated on the grid
    assert example1_noise(grid_small, K=2, amp_phi=0.1, osc=1).column_blocks is None
    # ou-single-mode: additive noise and f = beta_T = 0, so the step holds no blocks
    cfg = preset_cfg("ou-single-mode")
    stepper = Stepper(cfg, initial_state(cfg))
    assert stepper._noise_table is None and stepper._forcing_table is None


def test_stepper_blocks_follow_the_configuration():
    # example1-small: the forcing's blocks, and the noise's only when the step
    # forms the K columns (an untracked step forms one weighted row instead)
    cfg = preset_cfg("example1-small")
    stepper = Stepper(cfg, initial_state(cfg))
    assert stepper._noise_table is None and stepper._forcing_table is not None
    tracked = preset_cfg("example1-small", **{"solver.track_ito": True})
    stepper = Stepper(tracked, initial_state(tracked))
    assert stepper._noise_table is stepper.noise.column_blocks is not None
    # forcing only through F_U: the step keeps forcing_coeffs and no blocks
    forced = preset_cfg("ou-single-mode", **{"forcing.kind": "single-mode", "forcing.amplitude": 0.5})
    assert Stepper(forced, initial_state(forced))._forcing_table is None
