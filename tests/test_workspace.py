"""Scratch reuse in the transform kernels is invisible.

``Grid._synth_h`` and ``Grid._analyze_h`` take their intermediates from one
``spectral._KernelPool`` per thread, which every caller in the thread shares:
steps, stored records and public transforms alike, on any grid.  Every
output must equal, bit for bit, the run that makes every scratch array
afresh, whatever the buffers hold when a call starts; and no array that a
function returns may share memory with the pool.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from stochpe import spectral
from stochpe.diagnostics import record
from stochpe.experiments import ito_isometry_check, run_ensemble
from stochpe.noise import WienerStream
from stochpe.operators import bilinear_B, leray_project
from stochpe.solver import Stepper, initial_state, run_paths
from stochpe.spectral import random_state

from test_paths import assert_paths_match_single_runs, assert_same_path, preset_cfg

CASES = {
    # constant transport formed in spectral space, every noise column kept
    "example1-small-track_ito": ("example1-small", {"solver.track_ito": True}),
    # family 2 reads the depth mean from the advection's samples
    "example2-small-track_ito": ("example2-small", {"solver.track_ito": True}),
    # grid-evaluated transport noise on a cut step grid, one weighted row
    "smallnoise-888": ("smallnoise-888", {}),
    # rows with theta = 0 take the advection of a subset of the samples
    "example1-small-modified": (
        "example1-small",
        {"solver.equation": "modified", "solver.kappa_cutoff": "0.02", "solver.store_stride": 1},
    ),
    # family-2 noise synthesises its own depth mean when nothing else does
    "example2-small-advection-off": ("example2-small", {"solver.advection": False, "solver.track_ito": True}),
}


@pytest.fixture()
def fresh_pool(monkeypatch):
    """A new, empty kernel pool for this thread."""
    pool = spectral._KernelPool()
    monkeypatch.setattr(spectral, "_pool", pool)
    return pool


def poison(pool):
    """Fill every buffer with NaN bytes, so that a read before a write shows."""
    for buf in pool.buffers.values():
        buf.fill(0xFF)


def fresh_scratch(monkeypatch):
    """Make the kernels allocate every scratch array afresh: no buffer is shared."""
    monkeypatch.setattr(spectral._KernelPool, "array", lambda self, slot, shape, dtype=np.float64: np.empty(shape, dtype))


def sample_arrays(samples) -> list:
    return [samples.levels, samples.values, samples.dx, samples.dy, samples.dz, samples.w]


@pytest.mark.parametrize("case", list(CASES))
def test_reuse_equals_fresh_scratch(case, fresh_pool, monkeypatch):
    preset, values = CASES[case]
    cfg = replace(preset_cfg(preset, **values), store_states=True)
    ids = [0, 1, 2, 5]
    run_paths(cfg, ids)
    poison(fresh_pool)
    reused = run_paths(cfg, ids)
    assert fresh_pool.buffers
    fresh_scratch(monkeypatch)
    for a, b in zip(reused, run_paths(cfg, ids)):
        assert_same_path(a, b)


def test_warm_ensemble_equals_cold(fresh_pool):
    # 20 paths: a chunk of 16 and one of 4, so the kernels' requests shrink
    cfg = preset_cfg("example1-small")
    cold = (ito_isometry_check(cfg, 20), run_ensemble(cfg, 20))
    assert set(fresh_pool.buffers) == {"a", "b"}
    poison(fresh_pool)
    assert (ito_isometry_check(cfg, 20), run_ensemble(cfg, 20)) == cold


@pytest.mark.parametrize("case", ["example1-small-track_ito", "smallnoise-888", "example2-small-advection-off"])
def test_step_results_outlive_the_next_step(case):
    preset, values = CASES[case]
    cfg = preset_cfg(preset, **values)
    stepper = Stepper(cfg, initial_state(cfg))
    g = stepper.grid
    rng = np.random.default_rng(11)
    rows = [stepper.c0[None] * rng.uniform(0.5, 2.0, (3, 1, 1, 1, 1)) for _ in range(2)]
    dW = [rng.standard_normal((3, cfg.noise.K)) * np.sqrt(cfg.dt) for _ in range(2)]
    out = stepper.advance(rows[0], np.ones(3), dW[0])
    kept = [a for a in out if a is not None] + sample_arrays(g.padded_samples(rows[0]))
    before = [a.copy() for a in kept]
    stepper.advance(rows[1], np.ones(3), dW[1])
    for a, b in zip(kept, before):
        assert np.array_equal(a, b)
    # the step returns fresh rows, never a view of the pool
    buffers = spectral._pool.buffers.values()
    assert not any(np.shares_memory(a, buf) for a in kept for buf in buffers)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("preset", ["example1-small", "smallnoise-888"])
def test_shrinking_chunk_equals_single_runs(preset, fresh_pool):
    # path 2 gets huge increments from step 6 on and leaves the chunk, the
    # others run on as a smaller stack
    cfg = replace(preset_cfg(preset, **{"solver.store_stride": 1}), track_ito=True)
    ids = range(4)
    inc = np.stack([WienerStream(cfg.seed, i, cfg.noise.K).sample(cfg.n_steps, cfg.dt) for i in ids])
    inc[2, 6:] *= 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trajs = assert_paths_match_single_runs(cfg, ids, increments=inc)
    assert [t.blowup for t in trajs] == [False, False, True, False]
    assert 6 <= trajs[2].n_steps_done < cfg.n_steps


def test_interleaved_callers_equal_calls_alone(fresh_pool, monkeypatch):
    # two grids' chunks take turns with public transforms, advection and
    # records on a poisoned pool; each call must equal itself made alone
    cfgs = [replace(preset_cfg(name), store_states=True) for name in ("example1-small", "smallnoise-888")]
    rng = np.random.default_rng(4)
    pairs = [[leray_project(random_state(cfg.grid, rng)) for _ in range(2)] for cfg in cfgs]

    def chunk(i):
        return run_paths(cfgs[i], [0, 3])

    def public(i):
        U, Usharp = pairs[i]
        rec = np.frombuffer(record(U, 0.1, 0.5).tobytes())
        return sample_arrays(U.grid.padded_samples(U.coeffs)) + [bilinear_B(U, Usharp).coeffs, rec]

    with monkeypatch.context() as m:
        fresh_scratch(m)
        alone = {(kind, i): kind(i) for kind in (chunk, public) for i in (0, 1)}
    for _ in range(2):
        for i in (0, 1):
            poison(fresh_pool)
            for a, b in zip(chunk(i), alone[chunk, i], strict=True):
                assert_same_path(a, b)
            poison(fresh_pool)
            for a, b in zip(public(i), alone[public, i], strict=True):
                assert np.array_equal(a, b)
    assert set(fresh_pool.buffers) == {"a", "b"}


def test_held_samples_share_no_memory(fresh_pool):
    g = preset_cfg("example1-small").grid
    rng = np.random.default_rng(9)
    first = sample_arrays(g.padded_samples(random_state(g, rng).coeffs))
    kept = [a.copy() for a in first]
    second = sample_arrays(g.padded_samples(random_state(g, rng).coeffs))
    for a, b in zip(first, kept):
        assert np.array_equal(a, b)
    buffers = list(fresh_pool.buffers.values())
    assert buffers
    for a in first:
        assert not any(np.shares_memory(a, other) for other in second + buffers)
    for a in second:
        assert not any(np.shares_memory(a, buf) for buf in buffers)
