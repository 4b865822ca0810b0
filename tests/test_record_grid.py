"""Record quadratures on the record grid of the retained band.

``Grid.record_grid(*band)`` holds twice the band's modes on each axis where
that grid has strictly fewer padded samples than the configured one, and
the configured modes elsewhere.  Both sample sets integrate sixth-degree
products of the band exactly, so the three quadrature columns of a record
agree with the configured grid's to round-off and with a doubled-grid
reference, while every spectral column stays a Parseval sum on the
configured grid, bit for bit.  A full band gets the configured grid itself.
"""

from dataclasses import replace

import numpy as np
import pytest

from stochpe import DomainSpec, Grid, diagnostics, random_state, solver
from stochpe.cli import _preset_text
from stochpe.config import build_solver_config, parse_config_text
from stochpe.diagnostics import CSV_COLUMNS, _grid_quadrature_functionals, record_stack
from stochpe.noise import example1_noise
from stochpe.solver import InitSpec, SolverConfig, record_band, run_paths
from stochpe.spectral import h_norm_sq

# the grid of test_step_grid: its 60 lowest modes sit in |kx| <= 2, |ky| <= 1, m <= 1
GRID = Grid(DomainSpec(L2=4.0, h=1.5, N1=5, N2=4, M=3, mu=0.7, nu=0.3))
QUAD = ("L6_vtilde_6", "grad_vtilde_vtilde4", "L6_T_6")
PRESETS = [
    "example1-large-theta1", "example1-small", "example2-small", "linear-decay", "ou-single-mode", "smallnoise-888"
]


def preset_cfg(name, **values):
    v = parse_config_text(_preset_text(name))
    v.update(values)
    return build_solver_config(v)


def grid60_cfg(**kw):
    noise = example1_noise(GRID, K=4, amp_phi=0.2, amp_psi=0.2, amp_chi=0.3, osc=1)
    return SolverConfig(
        grid=GRID, noise=noise, init=InitSpec(kind="random", seed=5, amplitude=0.8), n_galerkin=60, dt=0.01,
        t_end=0.08, seed=2, store_stride=2, **kw
    )


def record_grid(cfg):
    return cfg.grid.record_grid(*record_band(cfg))


def band_states(grid, band, n, seed):
    """n random states (n, 3, nkx, nky, nm) of ``grid`` that vanish outside ``band``."""
    sub = grid.subgrid(*band)
    rng = np.random.default_rng(seed)
    return np.stack([grid.embed(sub, random_state(sub, rng, decay=0.5).coeffs) for _ in range(n)])


def doubled_quadrature(grid, coeffs):
    """The quadrature columns of ``coeffs`` on a grid with twice the modes of ``grid``."""
    s = grid.spec
    big = Grid(replace(s, N1=2 * s.N1, N2=2 * s.N2, M=2 * s.M))
    return _grid_quadrature_functionals(big, big.embed(big.subgrid(s.N1, s.N2, s.M), coeffs))


def quad_columns(rec) -> dict:
    return {name: rec[name] for name in QUAD}


def assert_rel(a, b, rel):
    a, b = np.asarray(a), np.asarray(b)
    assert (np.abs(a - b) <= rel * np.abs(b)).all(), np.abs(a - b) / np.abs(b)


CASES = {"grid60": grid60_cfg, "smallnoise-888": lambda: preset_cfg("smallnoise-888")}


def test_smallnoise_888_records_on_20_25_4_samples():
    cfg = preset_cfg("smallnoise-888")
    assert record_band(cfg) == (3, 4, 1)
    rg = record_grid(cfg)
    assert (rg.spec.N1, rg.spec.N2, rg.spec.M) == (6, 8, 2)
    assert (rg.nx_pad, rg.ny_pad, rg.nz_pad, rg.nm) == (20, 25, 4, 3)
    assert (cfg.grid.nx_pad, cfg.grid.ny_pad, cfg.grid.nz_pad, cfg.grid.nm) == (25, 25, 13, 9)
    assert rg.spec.L1 == cfg.grid.spec.L1 and rg.spec.h == cfg.grid.spec.h
    # memoised per configured grid, like a sub-grid
    assert cfg.grid.record_grid(3, 4, 1) is rg


@pytest.mark.parametrize("preset", PRESETS)
def test_full_galerkin_presets_record_on_the_config_grid(preset):
    cfg = preset_cfg(preset)
    if preset == "smallnoise-888":
        cfg = replace(cfg, n_galerkin=cfg.grid.n_modes_total)
    s = cfg.grid.spec
    assert record_band(cfg) == (s.N1, s.N2, s.M)
    assert record_grid(cfg) is cfg.grid


def test_grid60_record_grid_is_cut_on_every_axis():
    cfg = grid60_cfg()
    band = record_band(cfg)
    assert band == (2, 1, 1)
    rg = record_grid(cfg)
    assert (rg.spec.N1, rg.spec.N2, rg.spec.M) == (4, 2, 2)
    assert rg.nx_pad < GRID.nx_pad and rg.ny_pad < GRID.ny_pad and rg.nz_pad < GRID.nz_pad
    # a band the configured grid cannot beat keeps it; a band it does not hold raises
    assert GRID.record_grid(3, 4, 3) is not GRID.record_grid(2, 1, 1)
    assert GRID.record_grid(5, 4, 3) is GRID
    with pytest.raises(ValueError):
        GRID.record_grid(6, 1, 1)


@pytest.mark.parametrize("case", CASES)
def test_record_columns_match_the_config_grid_quadrature(case):
    cfg = CASES[case]()
    g, band = cfg.grid, record_band(cfg)
    c = band_states(g, band, 3, seed=len(case))
    dist, theta = np.array([0.1, 0.2, 0.3]), np.ones(3)
    on_band = record_stack(g, c, 0.0, dist, theta, band=band)
    on_grid = record_stack(g, c, 0.0, dist, theta)
    mine, ref = quad_columns(on_band), quad_columns(on_grid)
    for name in QUAD:
        assert_rel(mine[name], ref[name], 1e-14)
    # every other column is the same Parseval sum on the configured grid
    for name in CSV_COLUMNS:
        if name not in QUAD:
            assert np.array_equal(on_band[name], on_grid[name]), name


@pytest.mark.parametrize("case", CASES)
def test_record_grid_quadrature_matches_a_doubled_grid(case):
    cfg = CASES[case]()
    g, band = cfg.grid, record_band(cfg)
    assert record_grid(cfg) is not g
    c = band_states(g, band, 2, seed=7)
    mine = _grid_quadrature_functionals(g, c, band)
    ref = doubled_quadrature(g, c)
    for name in QUAD:
        assert_rel(mine[name], ref[name], 1e-13)


def test_truncated_run_changes_only_the_quadrature_columns(monkeypatch):
    cfg = preset_cfg("smallnoise-888", **{"solver.track_ito": True})
    ids = [0, 3]
    bands, quadrature = [], diagnostics._grid_quadrature_functionals

    def spy(grid, coeffs, band=None, work=None):
        bands.append(band)
        return quadrature(grid, coeffs, band, work)

    with monkeypatch.context() as m:
        m.setattr(diagnostics, "_grid_quadrature_functionals", spy)
        trajs = run_paths(cfg, ids)
    # the first record and the two stored steps, all on the record grid
    assert bands == [(3, 4, 1)] * 3
    full = (cfg.grid.spec.N1, cfg.grid.spec.N2, cfg.grid.spec.M)
    monkeypatch.setattr(solver, "record_band", lambda c: full)
    refs = run_paths(cfg, ids)
    changed = {*QUAD, "int_grad_vtilde_vtilde4", "int_T_funcs"}
    for a, b in zip(trajs, refs):
        assert np.array_equal(a.final_state.coeffs, b.final_state.coeffs)
        assert np.array_equal(a.ito_integral.coeffs, b.ito_integral.coeffs)
        assert a.records["H_sq"][-1] == h_norm_sq(a.final_state)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            for name in CSV_COLUMNS:
                if name in changed:
                    assert_rel(ra[name], rb[name], 1e-14)
                else:
                    assert ra[name] == rb[name], name
            for name in ("vtilde_l6", "temperature"):
                assert_rel(ra[name], rb[name], 1e-14)
            for name in ("weak", "grad_vbar", "dz_v"):
                assert ra[name] == rb[name]


def power_quadrature(grid, coeffs, band):
    """The quadrature columns with every power taken by ``np.power``: the
    reference for the products that the record forms."""
    fluct = coeffs.copy()
    fluct[:, :2, :, :, 0] = 0.0
    rec = grid.record_grid(*band)
    s = rec.padded_samples(grid.extract(rec, fluct))
    v = s.values
    vt_sq = np.power(v[:, 0], 2) + np.power(v[:, 1], 2)
    grad_sq = sum(np.power(d[:, :2], 2).sum(axis=1) for d in s.grads)
    w = rec.quad_weight()
    return {
        "L6_vtilde_6": np.power(vt_sq, 3).sum(axis=(1, 2, 3)) * w,
        "grad_vtilde_vtilde4": (grad_sq * np.power(vt_sq, 2)).sum(axis=(1, 2, 3)) * w,
        "L6_T_6": np.power(v[:, 2], 6).sum(axis=(1, 2, 3)) * w,
    }


@pytest.mark.parametrize("preset", ["example1-small", "smallnoise-888"])
def test_product_powers_match_np_power(preset):
    # the stored states of four paths, every stored step, as one record stack
    cfg = replace(preset_cfg(preset), store_states=True)
    states = np.concatenate([traj.states for traj in run_paths(cfg, [0, 1, 2, 5])])
    band = record_band(cfg)
    rec = record_stack(cfg.grid, states, 0.0, np.zeros(len(states)), np.ones(len(states)), band=band)
    ref = power_quadrature(cfg.grid, states, band)
    for name, values in quad_columns(rec).items():
        assert np.all(ref[name] > 0), name
        assert_rel(values, ref[name], 1e-14)
