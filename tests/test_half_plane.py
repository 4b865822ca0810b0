"""The ky >= 0 half-plane layout (``Grid.half_plane``) against the full layout.

A real field has conjugate-symmetric coefficients, c(-k) = conj c(k), so the
half-plane holds each pair once.  Its transforms, Parseval sums and reality
fold must give the full layout's values on its modes, and ``extract`` and
``embed`` must move conjugate-symmetric stacks between the layouts exactly.
"""

import numpy as np
import pytest

from stochpe import DomainSpec, Grid, random_state
from stochpe.diagnostics import CSV_COLUMNS, EXTRA_COLUMNS, record_stack
from stochpe.noise import example1_noise
from stochpe.operators import leray_project
from stochpe.spectral import SpectralState, grad3_dz_sq, norms, quadratic_sums

# the forms of the squared H, V and D(A) norms, by the power of A
NORM_FORMS = {0.0: "H", 1.0: "V", 2.0: "DA"}

GRIDS = {
    "anisotropic": Grid(DomainSpec(L1=2 * np.pi, L2=4.0, h=1.5, N1=3, N2=2, M=3, mu=0.7, nu=0.3)),
    "cut": Grid(DomainSpec(L2=4.0, h=1.5, N1=5, N2=4, M=3, mu=0.7, nu=0.3)).subgrid(2, 1, 1),
    "N2=0": Grid(DomainSpec(N1=2, N2=0, M=2)),
    "N1=0": Grid(DomainSpec(N1=0, N2=3, M=1)),
}


@pytest.fixture(params=GRIDS)
def full(request):
    return GRIDS[request.param]


def symmetric_stack(g, rng, P=3):
    shape = (P, 3, g.nkx, g.nky, g.nm)
    return g.enforce_reality(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def conj_flip(g, c):
    """conj c(-k) for every mode of a full-layout stack."""
    return np.conj(c[..., g.negx, :, :][..., :, g.negy, :])


def test_half_plane_keeps_the_wavenumbers_and_the_padded_grid(full):
    hp = full.half_plane()
    assert full.half_plane() is hp and hp.half_plane() is hp and hp.full_plane is full
    assert (hp.nkx, hp.nky, hp.nm) == (full.nkx, full.spec.N2 + 1, full.nm)
    assert np.array_equal(hp.ky_int, np.arange(full.spec.N2 + 1))
    assert (hp.nx_pad, hp.ny_pad, hp.nz_pad) == (full.nx_pad, full.ny_pad, full.nz_pad)
    assert hp._vertical is full._vertical
    for name in ("lam", "ddx", "ddy", "ksq_h"):
        assert np.array_equal(getattr(hp, name), getattr(full, name)[:, : hp.nky]), name
    with pytest.raises(ValueError):
        hp.subgrid(0, 0)


def test_extract_then_embed_is_exact_on_symmetric_stacks(full, rng):
    hp = full.half_plane()
    c = symmetric_stack(full, rng)
    half = full.extract(hp, c)
    assert half.shape == (3, 3, hp.nkx, hp.nky, hp.nm)
    assert np.array_equal(half, c[..., : hp.nky, :])
    assert np.array_equal(full.embed(hp, half), c)
    # the mask and other real arrays are cut as they are
    assert np.array_equal(full.extract(hp, full.lam), hp.lam)
    mask = np.abs(c[0]) > 1.0
    assert np.array_equal(full.embed(hp, full.extract(hp, mask)), mask)


def test_embed_output_is_conjugate_symmetric(full, rng):
    hp = full.half_plane()
    shape = (2, 3, hp.nkx, hp.nky, hp.nm)
    h = hp.enforce_reality(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    c = full.embed(hp, h)
    assert np.array_equal(c, conj_flip(full, c))
    assert np.array_equal(full.extract(hp, c), h)


def test_extract_takes_the_hermitian_part(full, rng):
    # a stack that is not conjugate-symmetric goes over as the field it synthesises
    hp = full.half_plane()
    shape = (2, 3, full.nkx, full.nky, full.nm)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.array_equal(full.extract(hp, c), full.enforce_reality(c)[..., : hp.nky, :])
    assert np.array_equal(hp.synth_cos(full.extract(hp, c)), full.synth_cos(c))


def test_enforce_reality_is_the_half_plane_of_the_full_fold(full, rng):
    hp = full.half_plane()
    shape = (2, 3, hp.nkx, hp.nky, hp.nm)
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    folded = hp.enforce_reality(h)
    assert np.array_equal(folded, full.enforce_reality(full.embed(hp, h))[..., : hp.nky, :])
    assert np.array_equal(folded[..., 1:, :], h[..., 1:, :])


@pytest.mark.parametrize("power", [0.0, 1.0, 2.0])
def test_parseval_sums_match_the_full_plane(full, rng, power):
    hp = full.half_plane()
    c = symmetric_stack(full, rng, P=4)
    half = full.extract(hp, c)
    (mine,), (ref,) = (quadratic_sums(g, a, (NORM_FORMS[power],)) for g, a in ((hp, half), (full, c)))
    assert mine.shape == ref.shape == (4,)
    assert np.abs(mine - ref).max() <= 1e-15 * np.abs(ref).max()
    ref_norms = quadratic_sums(full, c, ("H", "V", "DA"))
    for a, b, p in zip(quadratic_sums(hp, half, ("H", "V", "DA")), ref_norms, (0.0, 1.0, 2.0)):
        assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max()
        if p == power:
            assert np.array_equal(a, mine)


def test_transforms_match_the_full_plane_bit_for_bit(full, rng):
    # the ky = 0 column is left unfolded, so both layouts fold it as they synthesise
    hp = full.half_plane()
    shape = (3, 3, hp.nkx, hp.nky, hp.nm)
    half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c = full.embed(hp, half)
    s, ref = hp.padded_samples(half), full.padded_samples(c)
    assert np.array_equal(s.levels, ref.levels)
    for name in ("values", "dx", "dy", "dz", "w"):
        assert np.array_equal(getattr(s, name), getattr(ref, name)), name
    assert np.array_equal(hp.synth_cos(half), full.synth_cos(c))
    assert np.array_equal(hp.synth_sin(half), full.synth_sin(c))
    assert np.array_equal(hp.synth_cos2d(half[..., 0]), full.synth_cos2d(c[..., 0]))
    # the gradients of one synthesis equal those of separate syntheses, to round-off
    for mine, ref in ((s.dx, hp.synth_cos(hp.dx(half))), (s.dy, hp.synth_cos(hp.dy(half)))):
        assert np.abs(mine - ref).max() <= 1e-13 * np.abs(ref).max()
    samples = rng.standard_normal((2, 3, full.nx_pad, full.ny_pad, full.nz_pad))
    assert np.array_equal(hp.analyze_cos(samples), full.analyze_cos(samples)[..., : hp.nky, :])
    assert np.array_equal(hp.analyze_cos2d(samples[..., 0]), full.analyze_cos2d(samples[..., 0])[..., : hp.nky])


def assert_close(mine, ref, name=""):
    """Equal within 1e-14 relative to the largest reference entry."""
    mine, ref = np.asarray(mine, dtype=float), np.asarray(ref, dtype=float)
    assert np.abs(mine - ref).max() <= 1e-14 * np.abs(ref).max(), name


def projected_stack(g, rng, P=3):
    return np.stack([leray_project(random_state(g, rng)).coeffs for _ in range(P)])


def test_record_columns_match_the_full_plane(full, rng):
    # hand-weighted sums (barotropic, dz and grad_3 dz) count each ky > 0 mode
    # of the half-plane twice, as the Parseval sums do
    hp = full.half_plane()
    c = projected_stack(full, rng)
    half = full.extract(hp, c)
    dist, theta = rng.uniform(0.0, 1.0, 3), rng.uniform(0.0, 1.0, 3)
    ref = record_stack(full, c, 0.5, dist, theta)
    mine = record_stack(hp, half, 0.5, dist, theta)
    for col in CSV_COLUMNS:
        assert_close(mine[col], ref[col], col)
    assert mine.dtype == ref.dtype
    for key in EXTRA_COLUMNS:
        assert_close(mine[key], ref[key], key)
    assert_close(grad3_dz_sq(hp, half), grad3_dz_sq(full, c))
    assert_close(grad3_dz_sq(hp, half, (2,), mu=0.7, nu=0.3), grad3_dz_sq(full, c, (2,), mu=0.7, nu=0.3))


def test_norms_match_the_full_plane(full, rng):
    hp = full.half_plane()
    state = SpectralState(full, projected_stack(full, rng, P=1)[0])
    half = SpectralState(hp, full.extract(hp, state.coeffs))
    assert_close(norms(half).dz_L2, norms(state).dz_L2)


def test_every_form_matches_the_full_plane(full, rng):
    # each named form counts each ky > 0 mode of a half-plane twice, on the
    # half-plane of the grid and on that of a cut step grid, whose stack is zero
    # outside the cut's band on the full layout
    names = tuple(full.forms)
    s = full.spec
    cut = full.subgrid(max(s.N1 - 1, 0), max(s.N2 - 1, 0), max(s.M - 1, 0))
    for step in (full.half_plane(), cut.half_plane()):
        c = full.embed(cut, symmetric_stack(cut, rng)) if step.full_plane is cut else symmetric_stack(full, rng)
        ref = quadratic_sums(full, c, names)
        for name, mine, value in zip(names, quadratic_sums(step, full.extract(step, c), names), ref):
            assert mine.shape == value.shape == (3,)
            assert_close(mine, value, name)


@pytest.mark.parametrize("name", ["anisotropic", "cut"])
def test_kappa_sq_matches_the_full_plane(name):
    full = GRIDS[name]
    spec = example1_noise(full, K=4, amp_chi=0.3, osc=1)
    assert spec.kappa_sq > 0.0
    assert_close(spec.restricted(full.half_plane()).kappa_sq, spec.kappa_sq)
