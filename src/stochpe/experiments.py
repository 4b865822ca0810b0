"""Ensemble experiments and verification studies built on the path integrator.

Ensembles step fixed chunks of paths as one array (``solver.run_paths``);
the chunk size depends on the step grid only, and worker processes, when
asked for, split the chunks between them.  Every path draws its Wiener increments
in one call from a counter-based stream keyed by (seed, path index), and
equals its own single-path run bit for bit, so results are independent of
chunking, worker count and evaluation order; reductions always run in path
order.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
from dataclasses import replace
from functools import partial
from multiprocessing import get_context

import numpy as np

from .diagnostics import summarize_ensemble
from .noise import WienerStream
from .solver import (
    BlowUpError,
    SolverConfig,
    Trajectory,
    chunk_size,
    initial_state,
    run_paths,
    run_trajectory,
    step_grid,
)
from .spectral import SpectralState, quadratic_sums, v_norm_sq

__all__ = [
    "path_summary",
    "path_summaries",
    "run_ensemble",
    "ou_moment_check",
    "ito_isometry_check",
    "uniqueness_experiment",
    "apriori_sweep",
    "convergence_study",
    "spatial_projection_study",
    "gronwall_envelope_check",
]

def path_summaries(trajs: list) -> list:
    """``path_summary`` of each trajectory, in order, for trajectories on one
    grid: the final H and V norms come from one ``quadratic_sums`` pass over
    the surviving final states, and ``ito_lhs`` from one over the Ito
    integrals; each value equals its own single pass bit for bit."""
    grid = trajs[0].config.grid
    final_H_sq, final_V_sq = np.full(len(trajs), np.nan), np.full(len(trajs), np.nan)
    live = [i for i, traj in enumerate(trajs) if traj.final_state is not None]
    if live:
        finals = np.stack([trajs[i].final_state.coeffs for i in live])
        final_H_sq[live], final_V_sq[live] = quadratic_sums(grid, finals, ("H", "V"))
    tracked = [i for i, traj in enumerate(trajs) if traj.ito_integral is not None]
    ito_lhs = np.zeros(len(trajs))
    if tracked:
        (ito_lhs[tracked],) = quadratic_sums(grid, np.stack([trajs[i].ito_integral.coeffs for i in tracked]), ("H",))
    out = []
    for i, traj in enumerate(trajs):
        with np.errstate(over="ignore"):  # overflows to inf where a float power raises
            sup_V_p = np.float64(traj.sup_V_sq) ** (traj.config.apriori_p / 2.0)
        summary = {
            "trajectory": traj.config.trajectory_id,
            "sup_V_sq": traj.sup_V_sq,
            "sup_H_sq": traj.sup_H_sq,
            "int_DA_sq": traj.int_DA_sq,
            "int_DA_V2": traj.int_DA_V2,
            "final_H_sq": float(final_H_sq[i]),
            "final_V_sq": float(final_V_sq[i]),
            "blowup": traj.blowup,
            "hits": dict(traj.hits),
            "H0_sq": float(traj.records["H_sq"][0]),
            "apriori": sup_V_p + traj.int_DA_V2,
        }
        if traj.ito_integral is not None:
            summary["ito_lhs"] = float(ito_lhs[i])
            summary["ito_quad"] = traj.ito_quadratic
        out.append(summary)
    return out


def path_summary(traj: Trajectory) -> dict:
    """Small picklable reduction of one trajectory: ``path_summaries`` of one."""
    return path_summaries([traj])[0]


def _chunk_summaries(cfg: SolverConfig, ids: range) -> list:
    return path_summaries(run_paths(cfg, ids))


def _one_blas_thread():
    """Pool initializer: one thread for numpy's bundled OpenBLAS in this
    worker, so that pooled workers do not split their small products across
    cores they share; nothing when numpy bundles no scipy-openblas."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    for path in glob.glob(libs):
        set_threads = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)


def run_ensemble(cfg: SolverConfig, n_paths: int, workers: int = 1) -> list:
    """Per-path summaries for trajectory ids 0..n_paths-1, in path order.

    The ids run in chunks of ``solver.chunk_size`` paths of the step grid,
    each stepped as one array; with ``workers`` > 1 a process pool splits
    the chunks, each worker with one BLAS thread (the calling process keeps
    its own setting)."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    size = chunk_size(step_grid(cfg))
    chunks = [range(i, min(i + size, n_paths)) for i in range(0, n_paths, size)]
    if workers == 1 or len(chunks) == 1:
        parts = [_chunk_summaries(cfg, ids) for ids in chunks]
    else:
        with get_context("fork").Pool(min(workers, len(chunks)), initializer=_one_blas_thread) as pool:
            parts = pool.map(partial(_chunk_summaries, cfg), chunks)
    return [summary for part in parts for summary in part]


def ou_moment_check(cfg: SolverConfig, n_paths: int, lam: float, chi_H_sq: float, workers: int = 1) -> dict:
    """Additive single-mode ensemble against the closed-form second moment
    E|U(t)|^2 = |chi|^2 (1 - exp(-2 lam t)) / (2 lam)."""
    summaries = run_ensemble(cfg, n_paths, workers)
    rep = summarize_ensemble(summaries, ("final_H_sq",))
    t = cfg.t_end
    expected = chi_H_sq * (1.0 - math.exp(-2.0 * lam * t)) / (2.0 * lam)
    z = (rep.means["final_H_sq"] - expected) / max(rep.std_errors["final_H_sq"], 1e-300)
    return {
        "mean": rep.means["final_H_sq"],
        "se": rep.std_errors["final_H_sq"],
        "expected": expected,
        "z": z,
        "pass": abs(z) <= 3.0,
        "n_paths": n_paths,
    }


def ito_isometry_check(cfg: SolverConfig, n_paths: int, workers: int = 1) -> dict:
    """Monte-Carlo discrepancy between E|int sigma dW|^2 and E int |sigma|_HS^2 dt."""
    cfg = replace(cfg, track_ito=True)
    summaries = run_ensemble(cfg, n_paths, workers)
    rep = summarize_ensemble(summaries, ("ito_lhs", "ito_quad"))
    lhs = rep.means["ito_lhs"]
    rhs = rep.means["ito_quad"]
    rel = abs(lhs - rhs) / max(rhs, 1e-300)
    return {"lhs": lhs, "rhs": rhs, "rel_error": rel, "se_lhs": rep.std_errors["ito_lhs"], "n_paths": n_paths}


def _perturbation(cfg: SolverConfig) -> SpectralState:
    """Deterministic unit-V-norm direction used by the uniqueness experiment."""
    rng = np.random.default_rng(0xD1FF)
    from .spectral import random_state

    d = random_state(cfg.grid, rng, amplitude=1.0, decay=2.0)
    scale = math.sqrt(v_norm_sq(d))
    d.coeffs /= scale
    return d


def uniqueness_experiment(cfg: SolverConfig, delta: float) -> dict:
    """Paired shared-noise runs from U0 and U0 + delta * direction.

    delta = 0 must reproduce the base path bit-for-bit; for delta > 0 the
    sup-in-time V-distance and the amplification factor are reported.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    cfg = replace(cfg, store_states=True)
    U0 = initial_state(cfg)
    base = run_trajectory(cfg, U0)
    pert = U0.copy()
    if delta > 0.0:
        pert.coeffs = pert.coeffs + delta * _perturbation(cfg).coeffs
    other = run_trajectory(cfg, pert)
    n = min(len(base.states), len(other.states))
    (v_sq,) = quadratic_sums(cfg.grid, other.states[:n] - base.states[:n], ("V",))
    divergence = float(np.sqrt(v_sq).max())
    identical = np.array_equal(other.states[:n], base.states[:n])
    return {
        "delta": delta,
        "divergence": divergence,
        "factor": divergence / delta if delta > 0 else 0.0,
        "bit_identical": identical,
    }


def divergence_slope(cfg: SolverConfig, deltas=(1e-8, 1e-6, 1e-4)) -> dict:
    """Log-log slope of the shared-noise divergence against the perturbation size."""
    reports = [uniqueness_experiment(cfg, d) for d in deltas]
    x = np.log([r["delta"] for r in reports])
    y = np.log([max(r["divergence"], 1e-300) for r in reports])
    slope = float(np.polyfit(x, y, 1)[0])
    return {"slope": slope, "reports": reports}


def apriori_sweep(
    cfg: SolverConfig, n_values, n_paths: int, workers: int = 1, band=(0.5, 2.0), p: float | None = None
) -> dict:
    """Stability of E[sup ||U||^p + int |AU|^2 ||U||^(p-2)] under Galerkin refinement.

    Estimates and standard errors are keyed by the cut each run uses, the
    requested n snapped by ``Grid.snap_mode_count``; two requested levels
    that snap to one cut raise ``ValueError`` before any ensemble runs."""
    if n_paths < 30:
        raise ValueError("ensemble too small for a stability verdict (need >= 30 paths)")
    if p is not None:
        cfg = replace(cfg, apriori_p=float(p))
    configs = {}
    for n in n_values:
        c = replace(cfg, n_galerkin=int(n))
        if c.n_galerkin in configs:
            raise ValueError(f"n = {int(n)} snaps to the cut {c.n_galerkin} of another requested level")
        configs[c.n_galerkin] = c
    estimates = {}
    ses = {}
    for n, c in configs.items():
        rep = summarize_ensemble(run_ensemble(c, n_paths, workers), ("apriori",))
        estimates[n] = rep.means["apriori"]
        ses[n] = rep.std_errors["apriori"]
    ns = sorted(estimates)
    ratios = [estimates[b] / estimates[a] for a, b in zip(ns, ns[1:])]
    ok = all(band[0] <= r <= band[1] for r in ratios) and all(
        np.isfinite(v) for v in estimates.values()
    )
    return {"estimates": estimates, "std_errors": ses, "ratios": ratios, "pass": ok, "band": band}


def convergence_study(cfg: SolverConfig, dt_list, n_paths: int = 4) -> dict:
    """Strong error at t_end against a frozen-noise reference at half the
    finest step, RMS-averaged over a few frozen paths; dt values must be
    nested (each an integer multiple of the finest) so coarse increments are
    exact block sums of fine ones."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    dts = sorted(set(float(d) for d in dt_list), reverse=True)
    if len(dts) < 3:
        raise ValueError("need at least 3 step sizes")
    ref_dt = dts[-1] / 2.0
    n_ref = round(cfg.t_end / ref_dt)
    if abs(n_ref * ref_dt - cfg.t_end) > 1e-9:
        raise ValueError("t_end must be divisible by the reference step")
    for d in dts:
        m = d / ref_dt
        if abs(m - round(m)) > 1e-9:
            raise ValueError("dt list must be nested (integer multiples of the finest step)")

    U0 = initial_state(cfg)
    ids = range(cfg.trajectory_id, cfg.trajectory_id + n_paths)
    fine = [WienerStream(cfg.seed, tid, cfg.noise.K).sample(n_ref, ref_dt) for tid in ids]

    def finals(dt: float) -> list:
        # one chunk of the frozen paths, one stored stride: only the final states are wanted
        n = round(cfg.t_end / dt)
        c = replace(cfg, dt=dt, store_stride=n, terminate_on_tau=False, track_ito=False, store_states=False)
        increments = np.stack([f.reshape(n, -1, cfg.noise.K).sum(axis=1) for f in fine])
        trajs = run_paths(c, ids, U0, increments)
        for traj in trajs:
            if traj.blowup:
                raise BlowUpError(f"nonfinite state at t = {traj.blowup_time} (dt = {dt:g})")
        return [traj.final_state for traj in trajs]

    ref = finals(ref_dt)
    err_sq = {
        d: sum(v_norm_sq(SpectralState(cfg.grid, a.coeffs - b.coeffs)) for a, b in zip(finals(d), ref)) for d in dts
    }
    errors = {d: math.sqrt(err_sq[d] / n_paths) for d in dts}
    x = np.log([d for d in dts])
    y = np.log([max(errors[d], 1e-300) for d in dts])
    order = float(np.polyfit(x, y, 1)[0])
    return {"errors": errors, "order": order, "ref_dt": ref_dt, "n_paths": n_paths}


def spatial_projection_study(cfg: SolverConfig, n_list) -> dict:
    """Projection error ||Q_n U0|| for smooth initial data; super-algebraic
    decay shows up as a decreasing local order."""
    from .spectral import complement_q

    if len(n_list) < 3:
        raise ValueError("need at least 3 mode counts")
    U0 = initial_state(cfg)
    ns = sorted(int(n) for n in n_list)
    errs = [math.sqrt(v_norm_sq(complement_q(U0, n))) for n in ns]
    return {"n": ns, "errors": errs}


def gronwall_envelope_check(cfg: SolverConfig, n_paths: int, workers: int = 1, band=(0.5, 2.0)) -> dict:
    """Measured constant in E sup X <= C E[X(0) + int Z] for the linear system
    with Lipschitz noise (X = |U|^2, Z = |sigma(U)|_HS^2), and its stability
    under halving the time step."""
    out = {}
    for tag, c in (("dt", cfg), ("dt/2", replace(cfg, dt=cfg.dt / 2.0))):
        cc = replace(c, track_ito=True)
        summaries = run_ensemble(cc, n_paths, workers)
        rep = summarize_ensemble(summaries, ("sup_H_sq", "H0_sq", "ito_quad"))
        denom = rep.means["H0_sq"] + rep.means["ito_quad"]
        out[tag] = rep.means["sup_H_sq"] / max(denom, 1e-300)
    ratio = out["dt/2"] / out["dt"]
    return {"C": out, "ratio": ratio, "pass": band[0] <= ratio <= band[1] and np.isfinite(ratio)}
