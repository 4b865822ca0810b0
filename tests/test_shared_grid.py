"""One grid per domain per process (``Grid.of``): configs and checkpoints of a
domain share it, sub-grids stay on their parent, and a run on the shared grid
writes the same bytes as one on a fresh grid."""

import contextlib
import io
import json

import numpy as np
import pytest

from stochpe import random_state
from stochpe.checkpoint import load_state, save_state
from stochpe.cli import EXIT_OK, _preset_text, main
from stochpe.config import build_solver_config, parse_config_text
from stochpe.spectral import DomainSpec, Grid, build_basis

PRESETS = (
    "example1-large-theta1",
    "example1-small",
    "example2-small",
    "linear-decay",
    "ou-single-mode",
    "smallnoise-888",
)


def _config(**changes):
    text = "\n".join([_preset_text("example1-small"), *(f"{k} = {v}" for k, v in changes.items())])
    return build_solver_config(parse_config_text(text))


def test_configs_of_one_domain_share_a_grid():
    grid = _config().grid
    assert _config(**{"solver.seed": 9, "noise.amp_phi": 0.5}).grid is grid
    assert _config(**{"domain.N1": 2}).grid is not grid
    assert _config(**{"domain.mu": 0.5}).grid is not grid
    assert Grid.of(grid.spec) is grid
    assert Grid(grid.spec) is not grid  # the constructor still builds a fresh grid


def test_checkpoint_without_grid_loads_onto_the_shared_grid(tmp_path):
    grid = _config().grid
    path = str(tmp_path / "state.json")
    save_state(random_state(grid, np.random.default_rng(1)), path)
    assert load_state(path).grid is grid


def test_spec_field_types_key_the_grid():
    # equal specs whose fields differ in type keep their own spec, as checkpoints write it
    ints, floats = DomainSpec(h=1, N1=1, N2=1, M=1), DomainSpec(h=1.0, N1=1, N2=1, M=1)
    assert ints == floats and Grid.of(ints) is not Grid.of(floats)
    assert type(Grid.of(ints).spec.h) is int and type(Grid.of(floats).spec.h) is float


def test_sub_grids_bypass_the_shared_grids():
    parent = Grid.of(DomainSpec(L2=4.0, h=1.5, N1=5, N2=4, M=3, mu=0.7, nu=0.3))
    sub = parent.subgrid(2, 1, 1)
    assert parent.subgrid(2, 1, 1) is sub
    plain = Grid.of(sub.spec)
    assert plain is not sub and plain.spec == sub.spec
    # the sub-grid keeps its parent's vertical nodes; the plain grid of its spec has its own
    assert sub.nz_pad == parent.nz_pad == 5 and plain.nz_pad == 2
    assert parent.half_plane() is parent.half_plane() and parent.half_plane() is not Grid.of(parent.spec)


def test_build_basis_reads_the_shared_grid():
    spec = DomainSpec(N1=2, N2=1, M=1)
    assert build_basis(spec) == Grid(spec).basis()
    assert "_mode_table" in vars(Grid.of(spec))


def test_grid_arrays_are_read_only():
    g = Grid.of(DomainSpec(N1=2, N2=2, M=2))
    sub = g.subgrid(1, 1, 1)
    arrays = (g.lam, g.kx_int, g.rank, g._closed_cuts, g._horizontal[0], g._vertical[1], sub._vertical[1])
    for array in arrays + (g.leray_divisor, g.forms["V"][1], g.half_plane().forms["AS"][1]):
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0
    # the table of forms itself takes no writes
    with pytest.raises(TypeError):
        g.forms["H"] = ((0,), None)


def _run_files(preset, root, label) -> tuple:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--preset", preset, "--output-root", str(root), "--label", label]) == EXIT_OK
    out = root / label
    verdicts = json.loads((out / "manifest.json").read_text())["verdicts"]
    return (out / "trajectory.csv").read_bytes(), (out / "checkpoint.json").read_bytes(), verdicts


@pytest.mark.parametrize("preset", PRESETS)
def test_run_on_the_shared_grid_equals_a_run_on_a_fresh_grid(preset, tmp_path, monkeypatch):
    _run_files(preset, tmp_path, "first")  # fills the shared grid's caches
    shared = _run_files(preset, tmp_path, "shared")
    with monkeypatch.context() as m:
        m.setattr(Grid, "of", staticmethod(Grid))
        values = parse_config_text(_preset_text(preset))
        assert build_solver_config(values).grid is not build_solver_config(values).grid
        fresh = _run_files(preset, tmp_path, "fresh")
    assert shared == fresh  # CSV bytes, checkpoint bytes and manifest verdicts
