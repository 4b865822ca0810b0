"""The padded-grid sampler (``Grid.padded_samples``) and the transforms a step makes.

One synthesis of the levels of [U, dx U, dy U] gives every padded sample the
step reads.  These tests pin it to the separate syntheses it replaces, to
the diagnostic vertical velocity, and to per-row bit equality, and count the
synthesis and analysis calls of one step, one record and one set of depth-split
terms.
"""

from functools import cached_property

import numpy as np
import pytest

from stochpe.cli import _preset_text
from stochpe.config import build_solver_config, parse_config_text
from stochpe.diagnostics import finite, record_stack
from stochpe.experiments import run_ensemble
from stochpe.noise import NoiseSpec
from stochpe.operators import PhysicsParams, baroclinic_rhs_terms, leray_coeffs, vertical_velocity, vertical_velocity_top
from stochpe.solver import Stepper, chunk_size, initial_state, record_band, step_grid
from stochpe.spectral import DomainSpec, Grid, SpectralState
from test_half_plane import GRIDS as HALF_PLANE_GRIDS


def preset_cfg(name, **values):
    v = parse_config_text(_preset_text(name))
    v.update(values)
    return build_solver_config(v)


def assert_close(a, b, rel):
    """|a - b| within ``rel`` of the largest |b|."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= rel * np.abs(b).max()


@pytest.fixture(scope="module")
def grid_888_step():
    """The smallnoise-888 step grid: a sub-grid that keeps its parent's nz_pad."""
    g = step_grid(preset_cfg("smallnoise-888"))
    assert g.nz_pad == 13 and Grid(g.spec).nz_pad < g.nz_pad
    return g


@pytest.fixture(scope="module")
def grid_333():
    return Grid(DomainSpec(N1=3, N2=3, M=3))


@pytest.fixture(params=["grid_small", "grid_888_step"])
def grid(request):
    if request.param in HALF_PLANE_GRIDS:
        return HALF_PLANE_GRIDS[request.param]
    return request.getfixturevalue(request.param)


def hermitian_stack(g, rng, P=3, projected=False):
    shape = (P, 3, g.nkx, g.nky, g.nm)
    c = g.enforce_reality(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return leray_coeffs(g, c) if projected else c


# also the grids of the half-plane tests: anisotropic, cut, and one row (N1 = 0) or
# one column (N2 = 0) of horizontal modes for the derivative matrices
@pytest.mark.parametrize("grid", ["grid_small", "grid_888_step", *HALF_PLANE_GRIDS], indirect=True)
def test_samples_match_the_separate_syntheses(grid, rng):
    g = grid
    c = hermitian_stack(g, rng)
    s = g.padded_samples(c)
    assert_close(s.values, g.synth_cos(c), 1e-13)
    assert_close(s.dx, g.synth_cos(g.dx(c)), 1e-13)
    assert_close(s.dy, g.synth_cos(g.dy(c)), 1e-13)
    assert_close(s.dz, g.synth_sin(g.dz_to_sin(c)), 1e-13)
    assert all(np.array_equal(a, b) for a, b in zip(s.grads, (s.dx, s.dy, s.dz)))
    # the values block is the plain synthesis bit for bit; dx and dy take the derivatives
    # inside the transform matrices, so they move at round-off
    assert np.array_equal(s.values, g.synth_cos(c))


@pytest.mark.parametrize("projected", [True, False], ids=["projected", "not-projected"])
def test_w_matches_vertical_velocity(grid, rng, projected):
    g = grid
    c = hermitian_stack(g, rng, projected=projected)
    s = g.padded_samples(c)
    for p in range(len(c)):
        st = SpectralState(g, c[p])
        top = np.abs(vertical_velocity_top(st)).max()
        # the affine part -(z + h) div(vbar) is round-off after the projection, O(1) without it
        assert (top < 1e-12) if projected else (top > 0.1)
        assert_close(s.w[p], vertical_velocity(st), 1e-13)


def test_rows_equal_their_single_calls(grid, rng):
    g = grid
    c = hermitian_stack(g, rng, P=4)
    s = g.padded_samples(c)
    names = ("values", "dx", "dy", "dz", "w")
    for p in range(len(c)):
        one = g.padded_samples(c[p : p + 1])
        for name in names:
            assert np.array_equal(getattr(s, name)[p], getattr(one, name)[0]), name
    mask = np.array([True, False, True, True])
    picked = s.rows(mask)
    for name in names:
        assert np.array_equal(getattr(picked, name), getattr(s, name)[mask]), name


# -- transform counts ------------------------------------------------------------


def spy_transforms(monkeypatch) -> dict:
    """Count the calls of the synthesis and analysis kernels, ``Grid._synth_h`` and
    ``Grid._analyze_h``, through which every transform runs."""
    counts = {"synth": 0, "analyze": 0}
    for name, key in (("_synth_h", "synth"), ("_analyze_h", "analyze")):
        kernel = getattr(Grid, name)

        def spy(self, *args, _f=kernel, _k=key):
            counts[_k] += 1
            return _f(self, *args)

        monkeypatch.setattr(Grid, name, spy)
    return counts


@pytest.mark.parametrize(
    "preset, track_ito, synth, analyses",
    [
        # advection and grid-evaluated transport noise share one synthesis
        ("smallnoise-888", False, 1, 2),
        # constant phi, psi: the noise is spectral, the advection reads the synthesis
        ("example1-small", True, 1, 1),
        # additive noise and no advection: no transform
        ("ou-single-mode", True, 0, 0),
        # family 2: the depth mean's gradients are the m = 0 level of the advection's synthesis
        ("example2-small", True, 1, 2),
    ],
)
def test_step_transform_count(monkeypatch, preset, track_ito, synth, analyses):
    cfg = preset_cfg(preset, **{"solver.track_ito": track_ito})
    stepper = Stepper(cfg, initial_state(cfg))
    c = stepper.c0[None] * np.array([1.0, 0.5, 2.0])[:, None, None, None, None]
    dW = np.random.default_rng(5).standard_normal((3, cfg.noise.K)) * np.sqrt(cfg.dt)
    stepper.advance(c, np.ones(3), dW)  # the first step also samples phi and psi once per spec
    counts = spy_transforms(monkeypatch)
    new, _, _ = stepper.advance(c, np.ones(3), dW)
    assert np.isfinite(new).all()
    assert counts == {"synth": synth, "analyze": analyses}


@pytest.mark.parametrize("preset", ["example1-small", "smallnoise-888"])
def test_record_makes_one_synthesis(monkeypatch, preset):
    cfg = preset_cfg(preset)
    stepper = Stepper(cfg, initial_state(cfg))
    rows = cfg.grid.embed(stepper.grid, stepper.c0[None] * np.array([1.0, 0.5])[:, None, None, None, None])
    counts = spy_transforms(monkeypatch)
    rec = record_stack(cfg.grid, rows, 0.0, np.zeros(2), np.ones(2), band=record_band(cfg))
    assert finite(rec).all()
    assert counts == {"synth": 1, "analyze": 0}


def test_split_terms_make_one_synthesis(monkeypatch, grid_small, rng):
    # one padded_samples of v, split by level into vtilde and the lifted vbar, gives every split term
    st = SpectralState(grid_small, hermitian_stack(grid_small, rng, P=1, projected=True)[0])
    counts = spy_transforms(monkeypatch)
    terms = baroclinic_rhs_terms(st, PhysicsParams(f=0.7, beta_T=0.2))
    assert counts["synth"] == 1
    assert np.isfinite(terms["baroclinic"]["adv_tilde_tilde"]).all()


def two_synthesis_advection_terms(st):
    """The advective split terms from one ``padded_samples`` each of vtilde and
    of the lifted vbar: the reference for the one synthesis split by level."""
    g = st.grid
    vtilde = st.coeffs[:2].copy()
    vtilde[..., 0] = 0.0
    lifted = np.zeros_like(vtilde)
    lifted[..., 0] = st.coeffs[:2, ..., 0]
    vt, vb = g.padded_samples(vtilde), g.padded_samples(lifted)

    def hadv(adv, target):
        return adv.values[0] * target.dx + adv.values[1] * target.dy

    tt = hadv(vt, vt)
    carrier = g.analyze_cos(tt + (vt.dx[0] + vt.dy[1]) * vt.values)
    avg_correction = np.zeros_like(carrier)
    avg_correction[..., 0] = carrier[..., 0]
    return {
        ("barotropic", "adv_vbar"): g.analyze_cos(hadv(vb, vb))[..., 0],
        ("barotropic", "adv_tilde_avg"): carrier[..., 0],
        ("baroclinic", "adv_tilde_tilde"): g.analyze_cos(tt + vt.w * vt.dz),
        ("baroclinic", "adv_tilde_vbar"): g.analyze_cos(hadv(vt, vb)),
        ("baroclinic", "adv_vbar_tilde"): g.analyze_cos(hadv(vb, vt)),
        ("baroclinic", "avg_correction"): avg_correction,
    }


@pytest.mark.parametrize("grid", ["grid_small", "grid_333"])
def test_split_terms_equal_the_two_synthesis_form(request, rng, grid):
    g = request.getfixturevalue(grid)
    for c in hermitian_stack(g, rng, P=3, projected=True):
        st = SpectralState(g, c)
        terms = baroclinic_rhs_terms(st, PhysicsParams(f=0.7, beta_T=0.2))
        for (part, name), expected in two_synthesis_advection_terms(st).items():
            assert np.array_equal(terms[part][name], expected), (part, name)


# -- one restricted noise operator per step grid -----------------------------------


def test_steppers_of_one_config_share_the_restricted_noise():
    cfg = preset_cfg("smallnoise-888")
    U0 = initial_state(cfg)
    first, second = Stepper(cfg, U0), Stepper(cfg, U0)
    assert first.noise is second.noise is cfg.noise.restricted(step_grid(cfg))
    assert first.noise.grid is first.grid


def test_tracked_ensemble_samples_phi_and_psi_once(monkeypatch):
    cfg = preset_cfg("smallnoise-888", **{"solver.track_ito": True})
    n_paths = chunk_size(step_grid(cfg)) + 1  # two chunks
    calls = []
    for name in ("_phi_grid", "_psi_grid"):

        def spy(self, _f=getattr(NoiseSpec, name).func, _n=name):
            calls.append(_n)
            return _f(self)

        prop = cached_property(spy)
        prop.__set_name__(NoiseSpec, name)
        monkeypatch.setattr(NoiseSpec, name, prop)
    summaries = run_ensemble(cfg, n_paths)
    assert len(summaries) == n_paths and all(np.isfinite(s["ito_quad"]) for s in summaries)
    assert sorted(calls) == ["_phi_grid", "_psi_grid"]
