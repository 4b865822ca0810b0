"""Stepped states stay in the divergence-free space H without a projection in the step.

The advection, the forcing and the noise operators each return their term
projected by the Leray projection, the step masks the drift and the noise to
the retained modes, and ``Stepper.advance`` projects nothing itself.  That
keeps the state in H only because the Galerkin cut never splits a barotropic
(v1, v2) pair that the projection couples (``Grid.snap_mode_count``), so the
mask commutes with the projection.
"""

from dataclasses import replace

import numpy as np
import pytest

from stochpe import DomainSpec, Grid, noise, operators, solver
from stochpe.cli import _preset_text
from stochpe.config import build_solver_config, parse_config_text
from stochpe.operators import PhysicsParams, forcing_F, leray_project
from stochpe.solver import InitSpec, SolverConfig, Stepper, initial_state, run_paths, run_trajectory
from stochpe.spectral import SpectralState, random_state, single_mode_state
from stochpe.verify import divergence_residual, suite_solver


def preset_cfg(name, **values):
    v = parse_config_text(_preset_text(name))
    v.update(values)
    return build_solver_config(v)


def test_truncated_run_ends_divergence_free():
    # the parent cut kept v1 without v2 at (1, -2) and ended at 6.8e-4
    cfg = preset_cfg("example1-small", **{"solver.n_galerkin": "41"})
    for traj in run_paths(cfg, [0, 1, 2, 5]):
        assert divergence_residual(traj.final_state) <= 1e-13
    assert cfg.n_galerkin == 47


@pytest.mark.parametrize("name,factor", [("linear-decay", 1), ("example1-small", 8)])
def test_long_runs_stay_divergence_free(name, factor):
    cfg = preset_cfg(name)
    cfg = replace(cfg, t_end=cfg.t_end * factor)
    assert cfg.n_steps >= 128
    assert divergence_residual(run_trajectory(cfg).final_state) <= 1e-14


def test_divergent_forcing_gives_divergence_free_terms():
    g = Grid(DomainSpec(N1=2, N2=2, M=2))
    F_U = single_mode_state(g, "v1", 1, 0, 0, 1.0)  # v1 along k = (1, 0): a pure gradient
    assert divergence_residual(F_U) > 0.5
    phys = PhysicsParams(f=0.7, beta_T=0.2)
    U = leray_project(random_state(g, np.random.default_rng(3)))
    F = forcing_F(U, phys, F_U)
    assert divergence_residual(F) <= 1e-15
    # the gradient is all that F_U holds, so the projection removes it
    np.testing.assert_allclose(F.coeffs, forcing_F(U, phys).coeffs, rtol=0, atol=1e-15)
    cfg = SolverConfig(grid=g, physics=phys, init=InitSpec(kind="random", seed=4), forcing=F_U, dt=0.01, t_end=0.2)
    assert divergence_residual(run_trajectory(cfg).final_state) <= 1e-14


# smallnoise-888 and example1-small project their advection and their (untracked)
# noise row; their forcing comes projected in its blocks
@pytest.mark.parametrize("name,expected", [("smallnoise-888", 2), ("example1-small", 2), ("ou-single-mode", 0)])
def test_step_projects_once_per_term(name, expected, monkeypatch):
    cfg = preset_cfg(name)
    stepper = Stepper(cfg, initial_state(cfg))
    c = np.stack([stepper.c0, stepper.c0])
    dW = np.full((2, cfg.noise.K), 0.1)
    calls = []
    real = operators.leray_inplace

    def counted(grid, coeffs):
        calls.append(coeffs.shape)
        return real(grid, coeffs)

    def forbidden(grid, coeffs):
        raise AssertionError("Stepper.advance projects")

    # each operator projects the stack it has just made, in place
    monkeypatch.setattr(operators, "leray_inplace", counted)
    monkeypatch.setattr(noise, "leray_inplace", counted)
    monkeypatch.setattr(operators, "leray_coeffs", forbidden)
    monkeypatch.setattr(solver, "leray_coeffs", forbidden)
    out, _, _ = stepper.advance(c, np.ones(2), dW)
    assert len(calls) == expected
    assert divergence_residual(SpectralState(stepper.grid, out[0])) <= 1e-15


@pytest.mark.parametrize("name", ["example1-small", "smallnoise-888"])
@pytest.mark.parametrize("temperature", [False, True], ids=["velocity", "temperature"])
def test_block_columns_are_divergence_free(name, temperature):
    # the forcing and the noise come projected in their blocks: every output
    # column of a block, and every constant, is a divergence-free field (relative
    # to the table's largest entry: a column whose exact value is zero is round-off)
    cfg = preset_cfg(
        name,
        **{"noise.osc": 0, "noise.include_temperature": temperature, "forcing.kind": "single-mode"},
    )
    stepper = Stepper(cfg, initial_state(cfg))
    g = stepper.grid
    tables = [operators.forcing_blocks(g, cfg.physics, stepper.forcing), stepper.noise.column_blocks]
    for table in tables:
        scale = np.abs(table.blocks).max()
        for rows in (table.blocks.transpose(2, 0, 1)[..., None], table.const[None]):
            # every output field of every column, (..., n, nkx, nky, nm)
            fields = g.from_wavevector_rows(rows, table.lead).reshape((-1,) + table.lead[-1:] + g.lam.shape)
            div = g.kx_phys[:, None] * fields[:, 0, :, :, 0] + g.ky_phys[None, :] * fields[:, 1, :, :, 0]
            assert np.abs(div).max() <= 1e-15 * scale


def test_solver_suite_reports_the_invariant():
    checks = {c["name"]: c for c in suite_solver()}
    check = checks["galerkin_divergence_free"]
    assert check["passed"] and check["rel_divergence"] <= 1e-13
