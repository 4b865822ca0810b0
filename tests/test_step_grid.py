"""Truncated Galerkin runs step on the smallest grid that holds the
retained modes.

``solver.step_grid(cfg)`` cuts ``cfg.grid`` to the retained modes and the
support of phi and psi, horizontally and vertically, and keeps its padded
vertical nodes.  Every product of the step stays alias-free on that grid
and is projected through the same nodes, so a run must agree to round-off with the same run
stepped on ``cfg.grid`` itself (``step_grid`` monkeypatched back), while κ
and the first record, computed from the full-grid initial state, agree bit
for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from stochpe import DomainSpec, Grid, solver
from stochpe.diagnostics import CSV_COLUMNS, STOPPING_FUNCTIONALS
from stochpe.noise import example1_noise, example2_noise
from stochpe.solver import InitSpec, SolverConfig, Stepper, initial_state, run_paths
from stochpe.spectral import h_norm_sq, single_mode_state

GRID = Grid(DomainSpec(L2=4.0, h=1.5, N1=5, N2=4, M=3, mu=0.7, nu=0.3))
# the 60 lowest modes sit in |kx| <= 2, |ky| <= 1
BASE = dict(
    grid=GRID,
    init=InitSpec(kind="random", seed=5, amplitude=0.8),
    n_galerkin=60,
    dt=0.01,
    t_end=0.08,
    seed=2,
    store_stride=2,
)


def ex1(**kw):
    return example1_noise(GRID, K=4, amp_phi=0.2, amp_psi=0.2, amp_chi=0.3, **kw)


CASES = {
    "example1": dict(noise=ex1(amp_alpha=0.1, osc=1)),
    # phi and psi reach |ky| = 2, outside the retained modes, and feed them
    "example1-osc2": dict(noise=ex1(osc=2)),
    "example2": dict(noise=example2_noise(GRID, K=4, amp_phi=0.2, amp_chi=0.3, osc=1)),
    "temperature": dict(noise=ex1(osc=1, include_temperature=True)),
    "forcing-outside": dict(noise=ex1(osc=1), forcing=single_mode_state(GRID, "v1", 4, 3, 2, 1.0)),
    "track_ito": dict(noise=ex1(osc=1), track_ito=True, store_states=True),
    "modified": dict(
        noise=ex1(osc=1), equation="modified", kappa_cutoff=0.05, store_stride=1, track_ito=True, store_states=True
    ),
    "semi-implicit": dict(noise=ex1(osc=1), scheme="semi-implicit", store_stride=3),
}


def case_cfg(case) -> SolverConfig:
    return SolverConfig(**{**BASE, **CASES[case]})


def assert_close(a, b, rel, axis=None):
    """|a - b| within ``rel`` of the largest |b| (per column along ``axis``)."""
    a, b = np.asarray(a), np.asarray(b)
    scale = np.abs(b).max(axis=axis)
    assert (np.abs(a - b).max(axis=axis) <= rel * np.where(scale > 0, scale, 1.0)).all()


def fields(traj, names):
    """The record fields ``names`` of a path, one column each."""
    return np.stack([traj.records[n] for n in names], axis=1)


@pytest.mark.parametrize("case", CASES)
def test_step_grid_holds_the_retained_modes_and_the_noise_support(case):
    cfg = case_cfg(case)
    stepper = Stepper(cfg, initial_state(cfg))
    g = stepper.grid
    assert g is solver.step_grid(cfg)
    # the ky >= 0 half-plane of the cut
    assert g.full_plane is GRID.subgrid(g.spec.N1, g.spec.N2, g.spec.M) and g.nky == g.spec.N2 + 1
    assert (g.nx_pad, g.ny_pad, g.nz_pad) < (GRID.nx_pad, GRID.ny_pad, GRID.nz_pad)
    # the vertical cut keeps the padded z nodes; phi and psi of osc 2 sit at m = 2
    assert g.nz_pad == GRID.nz_pad
    assert np.array_equal(g.nodes()[2], GRID.nodes()[2])
    assert g.spec.M == (2 if case == "example1-osc2" else 1)
    assert np.array_equal(GRID.embed(g, stepper.mask), GRID.rank < cfg.n_galerkin)
    for f in (cfg.noise.phi, cfg.noise.psi):
        assert np.array_equal(GRID.embed(g, GRID.extract(g, f)), f)
    expected = (2, 2) if case == "example1-osc2" else (2, 1)
    assert (g.spec.N1, g.spec.N2) == expected


def test_full_galerkin_steps_on_the_config_grid():
    # on the half-plane of cfg.grid itself: nothing is cut
    cfg = SolverConfig(**{**BASE, **CASES["example1"], "n_galerkin": None})
    stepper = Stepper(cfg, initial_state(cfg))
    assert stepper.grid is cfg.grid.half_plane() and stepper.grid.full_plane is cfg.grid
    assert stepper.noise is cfg.noise.restricted(stepper.grid)


@pytest.mark.parametrize("case", CASES)
def test_step_grid_run_matches_the_full_grid_run(case, monkeypatch):
    cfg = case_cfg(case)
    ids = [0, 3]
    trajs = run_paths(cfg, ids)
    monkeypatch.setattr(solver, "step_grid", lambda c: c.grid)
    refs = run_paths(cfg, ids)
    for a, b in zip(trajs, refs):
        assert a.final_state.grid is b.final_state.grid is GRID
        assert_close(a.final_state.coeffs, b.final_state.coeffs, 1e-13)
        assert (a.ito_integral is None) == (b.ito_integral is None)
        if b.ito_integral is not None:
            assert_close(a.ito_integral.coeffs, b.ito_integral.coeffs, 1e-13)
        assert (a.states is None) == (b.states is None)
        if b.states is not None:
            assert_close(a.states, b.states, 1e-13)
        # κ and the first record come from the full-grid initial state
        assert a.kappa == b.kappa
        assert [a.records[0][c] for c in CSV_COLUMNS] == [b.records[0][c] for c in CSV_COLUMNS]
        assert (a.blowup, a.n_steps_done, len(a.records)) == (b.blowup, b.n_steps_done, len(b.records))
        # the final record is evaluated on cfg.grid: it is the norm of the final state
        assert a.records["H_sq"][-1] == h_norm_sq(a.final_state)
        assert_close(fields(a, CSV_COLUMNS), fields(b, CSV_COLUMNS), 1e-12, axis=0)
        assert_close(fields(a, STOPPING_FUNCTIONALS), fields(b, STOPPING_FUNCTIONALS), 1e-12, 0)
        scalars = ("sup_V_sq", "sup_H_sq", "int_DA_sq", "int_DA_V2", "ito_quadratic")
        assert_close([getattr(a, s) for s in scalars], [getattr(b, s) for s in scalars], 1e-12, axis=0)


@pytest.mark.parametrize("case", CASES)
def test_half_plane_run_equals_the_full_plane_run(case, monkeypatch):
    # the step on the half-plane of the cut grid against the same step on the cut
    # grid in the full layout: the same arithmetic on every kept mode, and only
    # the Parseval sums of the step loop run in another order
    cfg = case_cfg(case)
    ids = [0, 3]
    trajs = run_paths(cfg, ids)
    monkeypatch.setattr(solver, "step_grid", lambda c, _half=solver.step_grid: _half(c).full_plane)
    refs = run_paths(cfg, ids)

    def assert_same(x, y):
        # the modified equation's states move with theta, a function of the norm sums
        assert (x is None) == (y is None)
        if y is None:
            return
        if cfg.equation == "original":
            assert np.array_equal(x, y)
        else:
            assert_close(x, y, 1e-14)

    for a, b in zip(trajs, refs):
        assert_same(a.final_state.coeffs, b.final_state.coeffs)
        assert_same(*(None if t.ito_integral is None else t.ito_integral.coeffs for t in (a, b)))
        assert_same(a.states, b.states)
        assert (a.blowup, a.n_steps_done, len(a.records)) == (b.blowup, b.n_steps_done, len(b.records))
        assert_close(fields(a, CSV_COLUMNS), fields(b, CSV_COLUMNS), 1e-14, axis=0)
        assert_close(fields(a, STOPPING_FUNCTIONALS), fields(b, STOPPING_FUNCTIONALS), 1e-14, 0)
        scalars = ("sup_V_sq", "sup_H_sq", "int_DA_sq", "int_DA_V2", "ito_quadratic")
        assert_close([getattr(a, s) for s in scalars], [getattr(b, s) for s in scalars], 1e-14, axis=0)


def test_subgrid_embed_and_extract():
    sub = GRID.subgrid(2, 1)
    assert GRID.subgrid(5, 4) is GRID and GRID.subgrid(2, 1) is sub
    assert GRID.subgrid(5, 4, 3) is GRID and GRID.subgrid(2, 1, 3) is sub
    assert (sub.nkx, sub.nky, sub.nm, sub.nz_pad) == (5, 3, GRID.nm, GRID.nz_pad)
    c = np.random.default_rng(1).standard_normal((2, 3, sub.nkx, sub.nky, sub.nm)) + 0j
    full = GRID.embed(sub, c)
    assert full.shape == (2, 3, GRID.nkx, GRID.nky, GRID.nm)
    assert np.array_equal(GRID.extract(sub, full), c)
    assert np.abs(full).sum() == np.abs(c).sum()
    # modes keep their wavenumbers
    assert np.array_equal(GRID.extract(sub, GRID.lam), sub.lam)
    assert GRID.embed(GRID, c) is c and GRID.extract(GRID, full) is full
    with pytest.raises(ValueError):
        GRID.subgrid(6, 1)
    with pytest.raises(ValueError):
        sub.extract(GRID, c)
    with pytest.raises(ValueError):
        GRID.extract(Grid(DomainSpec(N1=2, N2=1, M=3)), full)


def test_extract_and_embed_map_modes_by_wavenumber():
    # a separately built grid of the same domain whose band nests, and a record grid,
    # exchange coefficients with GRID in one step, bit for bit as through sub-grids
    rng = np.random.default_rng(4)
    shape = (2, 3, GRID.nkx, GRID.nky, GRID.nm)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    nested, twin = Grid(replace(GRID.spec, N1=3, N2=2, M=2)), GRID.subgrid(3, 2, 2)
    assert nested is not twin
    for mine, made in ((nested, twin), (nested.half_plane(), twin.half_plane())):
        assert np.array_equal(GRID.extract(mine, c), GRID.extract(made, c))
        d = GRID.extract(made, c)
        assert np.array_equal(GRID.embed(mine, d), GRID.embed(made, d))
        assert np.array_equal(GRID.extract(mine, GRID.lam), mine.lam)

    band = (2, 1, 1)
    rec = GRID.record_grid(*band)
    assert rec is not GRID and (rec.spec.N1, rec.spec.N2, rec.spec.M) == (4, 2, 2)
    in_band = GRID.embed(GRID.subgrid(*band), GRID.extract(GRID.subgrid(*band), c))
    on_rec = GRID.extract(rec, in_band)
    assert np.array_equal(on_rec, rec.embed(rec.subgrid(*band), GRID.extract(GRID.subgrid(*band), in_band)))
    assert np.array_equal(GRID.embed(rec, on_rec), in_band)

    for other in (
        Grid(replace(GRID.spec, L1=3.0, N1=3, N2=2, M=2)),  # another domain
        Grid(replace(GRID.spec, N1=6, N2=2, M=2)),  # a wider band
        Grid(replace(GRID.spec, N1=3, N2=2, M=4)),
    ):
        for bad in (other, other.half_plane()):
            with pytest.raises(ValueError):
                GRID.extract(bad, c)
            with pytest.raises(ValueError):
                GRID.embed(bad, np.zeros((3, bad.nkx, bad.nky, bad.nm), dtype=complex))
    with pytest.raises(ValueError):
        GRID.half_plane().extract(nested.half_plane(), GRID.extract(GRID.half_plane(), c))


def test_vertical_subgrid_keeps_the_padded_vertical_grid():
    sub = GRID.subgrid(2, 1, 1)
    assert GRID.subgrid(2, 1, 1) is sub and sub is not GRID.subgrid(2, 1)
    assert (sub.nkx, sub.nky, sub.nm, sub.spec.M) == (5, 3, 2, 1)
    # the parent's padded vertical grid, bit for bit: nodes and leading matrix columns
    assert sub.nz_pad == GRID.nz_pad
    z, C, S, A = sub._vertical
    z0, C0, S0, A0 = GRID._vertical
    assert np.array_equal(sub.nodes()[2], z0) and np.array_equal(z, z0)
    assert np.array_equal(C, C0[:, :2]) and np.array_equal(S, S0[:, :2]) and np.array_equal(A, A0[:2])
    c = np.random.default_rng(2).standard_normal((2, 3, 5, 3, 2)) + 0j
    full = GRID.embed(sub, c)
    assert full.shape == (2, 3, GRID.nkx, GRID.nky, GRID.nm)
    assert np.array_equal(GRID.extract(sub, full), c)
    assert np.abs(full).sum() == np.abs(c).sum() and not full[..., 2:].any()
    assert np.array_equal(GRID.extract(sub, GRID.lam), sub.lam)
    for bad in (4, -1):
        with pytest.raises(ValueError):
            GRID.subgrid(2, 1, bad)


@pytest.mark.parametrize("M", [0, 1, 2])
def test_vertical_subgrid_transforms_match_the_parent(M):
    # a vertical cut on the parent's horizontal grid samples on the same padded grid
    sub = GRID.subgrid(GRID.spec.N1, GRID.spec.N2, M)
    rng = np.random.default_rng(M)
    shape = (2, 3, sub.nkx, sub.nky, sub.nm)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    full = GRID.embed(sub, c)
    pairs = [
        (sub.synth_cos(c), GRID.synth_cos(full)),
        (sub.synth_sin(c), GRID.synth_sin(full)),
        *zip(sub.padded_samples(c).grads, GRID.padded_samples(full).grads),
    ]
    samples = rng.standard_normal((2, GRID.nx_pad, GRID.ny_pad, GRID.nz_pad))
    pairs.append((sub.analyze_cos(samples), GRID.extract(sub, GRID.analyze_cos(samples))))
    for a, b in pairs:
        assert a.shape == b.shape
        assert_close(a, b, 1e-14)


def test_vertical_subgrid_projects_transport_through_the_same_nodes():
    # psi dz U (cosine times sine) formed on a sub-grid cut both ways and
    # projected onto its cosines equals the parent's projection to round-off
    sub = GRID.subgrid(2, 1, 1)
    rng = np.random.default_rng(3)
    u, psi = (rng.standard_normal((sub.nkx, sub.nky, sub.nm)) + 0j for _ in range(2))
    mine = sub.analyze_cos(sub.synth_cos(psi) * sub.padded_samples(u).grads[2])
    full_u, full_psi = GRID.embed(sub, u), GRID.embed(sub, psi)
    parent = GRID.analyze_cos(GRID.synth_cos(full_psi) * GRID.padded_samples(full_u).grads[2])
    assert_close(mine, GRID.extract(sub, parent), 1e-14)
