"""The three benchmark workloads, driven through stochpe's public API.

A workload builds its configuration in ``setup`` and then runs operations,
each keyed by a solver seed that the benchmark derives from its own seed
and the operation's index, so one benchmark seed fixes every input.  After
each timed operation, ``inspect`` checks its outputs (outside the timed
interval) and reduces them to the values that verdicts and the
reproducibility check compare.  ``verdict`` pools a fixed prefix of
operations, so verdict values depend on the seed only, never on how many
operations fit in the timed phase.

Set-up and operations call stochpe through module attributes
(``experiments.run_ensemble``), so a traced run sees them; the checks use
names bound here at import, which the tracer leaves alone.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
from dataclasses import replace
from importlib import resources

import numpy as np

from stochpe import cli, config, experiments
from stochpe.checkpoint import load_state
from stochpe.config import parse_config_text
from stochpe.diagnostics import summarize_ensemble
from stochpe.experiments import run_ensemble
from stochpe.noise import apply_sigma
from stochpe.operators import barotropic_divergence
from stochpe.solver import run_trajectory
from stochpe.spectral import h_norm_sq, v_norm_sq

# verdict thresholds in standard errors
Z_MOMENT_MAX = 3.0
Z_ISOMETRY_MAX = 4.0
# round-off bound for the structural checks on a final state, relative to its scale
ROUNDOFF = 1e-12


def preset_values(name: str, **overrides) -> dict:
    text = resources.files("stochpe").joinpath("presets", f"{name}.cfg").read_text()
    values = parse_config_text(text)
    values.update(overrides)
    return values


class OuMoments:
    """Additive single-mode ensemble: an Ornstein-Uhlenbeck recursion with
    closed-form moments, the job of acceptance criterion 5."""

    name = "ou-moments"
    preset = "ou-single-mode"
    paths_per_op = 64  # the real jobs are 400 and 10,000 paths; see README
    check_ops = 8  # verdicts pool the first 512 paths
    min_ops = 10

    def __init__(self, workdir: str):
        self.cfg = None

    def setup(self):
        self.cfg = config.build_solver_config(preset_values(self.preset, **{"solver.track_ito": True}))
        self.op(-1, n_paths=1)

    @property
    def steps_per_op(self) -> int:
        return self.paths_per_op * self.cfg.n_steps

    def op(self, solver_seed: int, n_paths: int | None = None):
        return experiments.run_ensemble(replace(self.cfg, seed=solver_seed), n_paths or self.paths_per_op)

    def inspect(self, solver_seed: int, out, exact: bool = False):
        failed = [f"blowup in path {s['trajectory']}" for s in out if s["blowup"]]
        values = tuple((s["final_H_sq"], s["ito_lhs"], s["ito_quad"]) for s in out)
        if not np.isfinite(np.array(values)).all():
            failed.append("nonfinite path summary")
        if exact:
            # the ensemble's first path equals the bare trajectory runner's
            traj = run_trajectory(replace(self.cfg, seed=solver_seed, trajectory_id=0))
            if h_norm_sq(traj.final_state) != out[0]["final_H_sq"]:
                failed.append("run_ensemble path 0 differs from run_trajectory")
        return failed, values

    def verdict(self, values: list):
        paths = np.array([p for op in values for p in op])
        final_h, lhs, quad = paths.T
        col = apply_sigma(self.cfg.noise, self.cfg.grid.zero_state())[0]
        chi_sq = h_norm_sq(col)
        lam = v_norm_sq(col) / chi_sq  # decay rate of the single noise mode
        t = self.cfg.t_end
        expected = chi_sq * (1.0 - math.exp(-2.0 * lam * t)) / (2.0 * lam)
        # U(t) is one real Gaussian mode, so |U|^2 is a scaled chi-square with
        # one degree of freedom and Var|U|^2 = 2 (E|U|^2)^2.  The closed-form
        # standard error is used because the sample one shrinks with the
        # sample mean, which fattens the left tail of z beyond its nominal rate.
        se = math.sqrt(2.0) * expected / math.sqrt(final_h.size)
        z = float((final_h.mean() - expected) / se)
        diff = lhs - quad
        z_iso = float(diff.mean() / (diff.std(ddof=1) / math.sqrt(diff.size)))
        out = {
            "n_paths": int(final_h.size),
            "mean_final_H_sq": float(final_h.mean()),
            "expected_final_H_sq": expected,
            "z": z,
            "isometry_lhs": float(lhs.mean()),
            "isometry_rhs": float(quad.mean()),
            "isometry_z": z_iso,
        }
        failed = []
        if not abs(z) <= Z_MOMENT_MAX:
            failed.append(f"|z| = {abs(z):.3f} > {Z_MOMENT_MAX}")
        if not abs(z_iso) <= Z_ISOMETRY_MAX:
            failed.append(f"isometry |z| = {abs(z_iso):.3f} > {Z_ISOMETRY_MAX}")
        return out, failed


class IsometrySmall:
    """Ito isometry check on 3^3 modes with K = 4 transport directions."""

    name = "isometry-small"
    preset = "example1-small"
    paths_per_op = 16  # the real job is 4,000 paths; see README
    check_ops = 12  # verdicts pool the first 192 paths
    min_ops = 10

    def __init__(self, workdir: str):
        self.cfg = None

    def setup(self):
        self.cfg = config.build_solver_config(preset_values(self.preset))
        self.op(-1, n_paths=1)

    @property
    def steps_per_op(self) -> int:
        return self.paths_per_op * self.cfg.n_steps

    def op(self, solver_seed: int, n_paths: int | None = None):
        return experiments.ito_isometry_check(replace(self.cfg, seed=solver_seed), n_paths or self.paths_per_op)

    def inspect(self, solver_seed: int, out, exact: bool = False):
        values = (out["lhs"], out["rhs"], out["se_lhs"])
        failed = [] if np.isfinite(values).all() else ["nonfinite isometry estimate"]
        if exact:
            # ito_isometry_check reports no blow-ups: re-run the same paths
            # through run_ensemble, which does, and require the same estimate
            cfg = replace(self.cfg, seed=solver_seed, track_ito=True)
            summaries = run_ensemble(cfg, self.paths_per_op)
            failed += [f"blowup in path {s['trajectory']}" for s in summaries if s["blowup"]]
            rep = summarize_ensemble(summaries, ("ito_lhs", "ito_quad"))
            if (rep.means["ito_lhs"], rep.means["ito_quad"]) != (out["lhs"], out["rhs"]):
                failed.append("ito_isometry_check differs from run_ensemble")
        return failed, values

    def verdict(self, values: list):
        lhs, rhs, se = np.array(values).T
        # equal-size chunks: pooled mean is the mean of means, its variance
        # the mean of the chunk variances over the chunk count
        se_pooled = math.sqrt(np.sum(se**2)) / len(se)
        z_iso = float((lhs.mean() - rhs.mean()) / se_pooled)
        out = {
            "n_paths": len(values) * self.paths_per_op,
            "isometry_lhs": float(lhs.mean()),
            "isometry_rhs": float(rhs.mean()),
            "isometry_se": se_pooled,
            "isometry_z": z_iso,
        }
        failed = [] if abs(z_iso) <= Z_ISOMETRY_MAX else [f"isometry |z| = {abs(z_iso):.3f} > {Z_ISOMETRY_MAX}"]
        return out, failed


class Run888:
    """One ``stochpe run`` call per operation at 8^3 modes, with its files."""

    name = "run-888"
    preset = "smallnoise-888"
    paths_per_op = 1
    check_ops = 1
    min_ops = 100  # p90 needs at least ten samples beyond it

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.cfg = None
        self.bytes_written = []

    def setup(self):
        self.cfg = config.build_solver_config(preset_values(self.preset))
        self.op(-1)
        shutil.rmtree(self._outdir(-1))

    @property
    def steps_per_op(self) -> int:
        return self.cfg.n_steps

    def _outdir(self, solver_seed: int) -> str:
        return os.path.join(self.workdir, f"seed{solver_seed}")

    def op(self, solver_seed: int, n_paths: int | None = None):
        argv = [
            "run",
            "--preset", self.preset,
            "--output-root", self.workdir,
            "--label", os.path.basename(self._outdir(solver_seed)),
            "--set", f"solver.seed={solver_seed}",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def inspect(self, solver_seed: int, rc, exact: bool = False):
        outdir = self._outdir(solver_seed)
        try:
            return self._inspect(solver_seed, rc, outdir, exact)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def _inspect(self, solver_seed, rc, outdir, exact):
        if rc != 0:
            return [f"exit code {rc}"], None
        failed = []
        with open(os.path.join(outdir, "trajectory.csv"), newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
        if not rows or not np.isfinite(np.array(rows, dtype=float)).all():
            failed.append("nonfinite or missing trajectory records")
        with open(os.path.join(outdir, "manifest.json")) as fh:
            verdicts = json.load(fh)["verdicts"]
        ckpt = os.path.join(outdir, "checkpoint.json")
        self.bytes_written.append(os.path.getsize(ckpt))
        state = load_state(ckpt, self.cfg.grid)
        if h_norm_sq(state) != verdicts["final_H_sq"]:
            failed.append("checkpoint does not round-trip to the final record")
        c = state.coeffs
        scale = float(np.abs(c).max())
        kmax = float(np.abs(self.cfg.grid.kx_phys).max() + np.abs(self.cfg.grid.ky_phys).max())
        if float(np.abs(barotropic_divergence(state)).max()) > ROUNDOFF * scale * kmax:
            failed.append("final state not divergence-free")
        if float(np.abs(c - self.cfg.grid.enforce_reality(c)).max()) > ROUNDOFF * scale:
            failed.append("final state not conjugate-symmetric")
        if exact:
            traj = run_trajectory(replace(self.cfg, seed=solver_seed))
            if not (np.array_equal(traj.final_state.coeffs, c) and traj.final_state.time == state.time):
                failed.append("checkpoint differs from the exact final state")
        values = (verdicts["final_H_sq"], verdicts["sup_V_sq"], verdicts["int_DA_sq"])
        return failed, values

    def verdict(self, values: list):
        final_h, sup_v, int_da = values[0]
        return {"final_H_sq": final_h, "sup_V_sq": sup_v, "int_DA_sq": int_da}, []


WORKLOADS = {w.name: w for w in (OuMoments, IsometrySmall, Run888)}
