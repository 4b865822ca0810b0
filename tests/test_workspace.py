"""Scratch reuse in the step and the record is invisible.

The solver's steps and stored records take their scratch arrays from one
``spectral.Workspace`` per thread, reused from step to step and from chunk
to chunk.  Every output must equal, bit for bit, the run that makes every
scratch array afresh, whatever the slots hold when a step starts; and every
array that a step returns must stay as it is after the next step.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from stochpe import solver
from stochpe.experiments import ito_isometry_check, run_ensemble
from stochpe.noise import WienerStream
from stochpe.solver import Stepper, initial_state, run_paths
from stochpe.spectral import Workspace

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
def fresh_workspace(monkeypatch):
    """A new, empty workspace for this thread's steps and records."""
    work = Workspace()
    monkeypatch.setattr(solver._thread, "work", work, raising=False)
    return work


def poison(work: Workspace):
    """Fill every slot with NaN bytes, so that a read before a write shows."""
    for slot in work._slots.values():
        slot.fill(0xFF)


@pytest.mark.parametrize("case", list(CASES))
def test_reuse_equals_fresh_scratch(case, fresh_workspace, monkeypatch):
    preset, values = CASES[case]
    cfg = replace(preset_cfg(preset, **values), store_states=True)
    ids = [0, 1, 2, 5]
    run_paths(cfg, ids)
    poison(fresh_workspace)
    reused = run_paths(cfg, ids)
    assert fresh_workspace._slots
    # the reference makes every scratch array afresh: no slot is shared
    monkeypatch.setattr(Workspace, "array", lambda self, name, shape, dtype=np.float64: np.empty(shape, dtype))
    for a, b in zip(reused, run_paths(cfg, ids)):
        assert_same_path(a, b)


def test_warm_ensemble_equals_cold(fresh_workspace):
    # 20 paths: a chunk of 16 and one of 4, so the workspace changes shape
    cfg = preset_cfg("example1-small")
    cold = (ito_isometry_check(cfg, 20), run_ensemble(cfg, 20))
    assert fresh_workspace.shape[0] == 4
    poison(fresh_workspace)
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
    samples = g.padded_samples(rows[0])
    kept = [a for a in out if a is not None] + [samples.levels, samples.values, samples.dx, samples.dz, samples.w]
    before = [a.copy() for a in kept]
    stepper.advance(rows[1], np.ones(3), dW[1])
    for a, b in zip(kept, before):
        assert np.array_equal(a, b)
    # the step returns fresh rows, never a view of the workspace
    slots = stepper.work._slots.values()
    assert not any(np.shares_memory(a, slot) for a in kept for slot in slots)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("preset", ["example1-small", "smallnoise-888"])
def test_shrinking_chunk_equals_single_runs(preset, fresh_workspace):
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
