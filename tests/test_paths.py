"""One step loop for one path or many: a stack of P paths against P single runs.

Every kernel the step calls takes a leading path axis, and ``run_paths``
steps a chunk of paths as one array.  Each path of a chunk must equal its
own P = 1 run bit for bit (``np.array_equal`` and ``==``, never a
tolerance), whatever the chunk size and whichever paths leave the chunk
early.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from stochpe import DomainSpec, Grid, random_state
from stochpe import solver
from stochpe.cli import _preset_text
from stochpe.config import build_solver_config, parse_config_text
from stochpe.diagnostics import RECORD, finite, record, record_stack
from stochpe.experiments import path_summaries, path_summary, run_ensemble
from stochpe.noise import WienerStream, example1_noise, example2_noise, sigma_coeffs
from stochpe.operators import (
    PhysicsParams,
    _advection_samples,
    _linear_terms,
    _pressure_integral_cos,
    _w_parts,
    advection_coeffs,
    bilinear_B,
    forcing_coeffs,
    forcing_F,
    leray_project,
)
from stochpe.solver import Stepper, run_paths, run_trajectory
from stochpe.spectral import SpectralState, da_norm_sq, grad3_dz_sq, h_norm_sq, quadratic_sums, v_norm_sq

PRESETS = [
    "example1-large-theta1", "example1-small", "example2-small", "linear-decay", "ou-single-mode", "smallnoise-888"
]
VARIANTS = {
    "plain": {},
    "track_ito": {"solver.track_ito": True},
    "modified": {"solver.equation": "modified", "solver.kappa_cutoff": "0.05", "solver.store_stride": 1},
    "semi-implicit": {"solver.scheme": "semi-implicit", "solver.store_stride": 3},
}


def preset_cfg(name, **values):
    v = parse_config_text(_preset_text(name))
    v.update(values)
    return build_solver_config(v)


def assert_same_path(a, b):
    """Every output of two trajectories is identical."""
    assert a.config.trajectory_id == b.config.trajectory_id
    assert len(a.records) == len(b.records)
    assert a.records.dtype == b.records.dtype == RECORD
    assert (a.records == b.records).all()
    assert np.array_equal(a.times, b.times)
    assert a.hits == b.hits
    assert (a.blowup, a.blowup_time, a.n_steps_done) == (b.blowup, b.blowup_time, b.n_steps_done)
    assert (a.sup_V_sq, a.sup_H_sq, a.int_DA_sq, a.int_DA_V2) == (b.sup_V_sq, b.sup_H_sq, b.int_DA_sq, b.int_DA_V2)
    assert a.kappa == b.kappa
    assert a.ito_quadratic == b.ito_quadratic
    assert (a.ito_integral is None) == (b.ito_integral is None)
    if a.ito_integral is not None:
        assert np.array_equal(a.ito_integral.coeffs, b.ito_integral.coeffs)
    assert (a.final_state is None) == (b.final_state is None)
    if a.final_state is not None:
        assert np.array_equal(a.final_state.coeffs, b.final_state.coeffs)
        assert a.final_state.time == b.final_state.time
    assert (a.states is None) == (b.states is None)
    if a.states is not None:
        assert np.array_equal(a.states, b.states)


def assert_paths_match_single_runs(cfg, ids, increments=None):
    trajs = run_paths(cfg, ids, increments=increments)
    assert [t.config.trajectory_id for t in trajs] == list(ids)
    for p, (tid, traj) in enumerate(zip(ids, trajs)):
        inc = None if increments is None else increments[p]
        assert_same_path(traj, run_trajectory(replace(cfg, trajectory_id=tid), increments=inc))
    return trajs


# -- stepping chunks of paths --------------------------------------------------


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("preset", PRESETS)
def test_each_path_equals_its_single_run(preset, variant):
    cfg = preset_cfg(preset, **VARIANTS[variant])
    assert_paths_match_single_runs(cfg, [2, 0, 7])


@pytest.mark.parametrize("preset,kappa", [("example1-small", 0.01), ("smallnoise-888", 0.05)])
def test_terminate_on_tau_leaves_the_chunk(preset, kappa):
    cfg = preset_cfg(preset, **{"solver.equation": "modified", "solver.store_stride": 1})
    cfg = replace(cfg, kappa_cutoff=kappa, terminate_on_tau=True, track_ito=True, store_states=True)
    trajs = assert_paths_match_single_runs(cfg, range(4))
    # the paths leave at different steps, and none runs to the end
    assert len({t.n_steps_done for t in trajs}) > 1
    assert all(t.n_steps_done < cfg.n_steps and not t.blowup for t in trajs)
    # each stored record extends its own path's previous one by a trapezoid
    for traj in trajs:
        for a, b in zip(traj.records, traj.records[1:]):
            step = 0.5 * (a["H_sq"] * a["V_sq"] + b["H_sq"] * b["V_sq"]) * (b["t"] - a["t"])
            assert b["int_H2_V2"] == a["int_H2_V2"] + step


def test_hit_times_from_stride_one_records():
    # tau_cutoff interpolates dist_to_Ustar linearly within the step where it
    # reaches kappa; a blow-up level is hit at the end of the first step where
    # sup ||U||^2 + int |AU|^2 reaches it
    cfg = preset_cfg("example1-small", **{"solver.equation": "modified", "solver.store_stride": 1})
    cfg = replace(cfg, kappa_cutoff=0.01, blowup_levels=(4.0, 5.108, 5.34, 1e3))
    kappa, dt = cfg.kappa_cutoff, cfg.dt
    trajs = run_paths(cfg, range(6))
    tau_steps, level_steps = set(), set()
    for traj in trajs:
        t = traj.times
        dist = traj.records["dist_to_Ustar"]
        blow = np.maximum.accumulate(traj.records["V_sq"]) + traj.records["int_DA_sq"]
        i = int(np.flatnonzero(dist >= kappa)[0])
        assert i > 0
        assert traj.hits["tau_cutoff"] == t[i] - dt + (kappa - dist[i - 1]) / (dist[i] - dist[i - 1]) * dt
        tau_steps.add(i)
        for level in cfg.blowup_levels:
            reached = np.flatnonzero(blow[1:] >= level) + 1
            assert traj.hits[f"blowup@{level:g}"] == (t[reached[0]] if reached.size else None)
            level_steps.add((level, reached[0] if reached.size else None))
    assert len(tau_steps) > 1
    assert len(level_steps) > len(cfg.blowup_levels)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blowups_leave_and_live_paths_go_on():
    # paths 1 and 3 get scaled increments and path 4 an infinite one: they
    # blow up at different steps and by different rules (nonfinite norms,
    # nonfinite state), while paths 0 and 2 run to the end
    cfg = preset_cfg("example1-small", **{"solver.store_stride": 1})
    cfg = replace(cfg, blowup_levels=(1.0, 5.0), track_ito=True)
    inc = np.stack([WienerStream(cfg.seed, i, cfg.noise.K).sample(cfg.n_steps, cfg.dt) for i in range(5)])
    inc[1] *= 1e3
    inc[3] *= 1e10
    inc[4, 0, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trajs = assert_paths_match_single_runs(cfg, range(5), increments=inc)
    assert [t.blowup for t in trajs] == [False, True, False, True, True]
    assert len({t.n_steps_done for t in trajs}) == 4
    assert trajs[4].n_steps_done == 0 and trajs[4].final_state is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_records_in_a_chunk():
    cfg = preset_cfg(
        "example1-large-theta1", **{"solver.dt": 0.5, "solver.t_end": 16, "init.amplitude": 50}
    )
    trajs = assert_paths_match_single_runs(cfg, range(3))
    assert all(t.blowup for t in trajs)


def test_theta_zero_path_skips_advection(grid_small, rng):
    # far outside the cutoff radius theta = 0: no advection term, not 0 * B(U)
    spec = example1_noise(grid_small, K=2, amp_phi=0.05, amp_chi=0.5, osc=1)
    cfg = solver.SolverConfig(
        grid=grid_small, noise=spec, equation="modified", kappa_cutoff=1e-6, dt=0.01, t_end=0.05, seed=3,
        physics=PhysicsParams(f=0.0, beta_T=0.0),
    )
    U = leray_project(random_state(grid_small, rng))
    stepper = Stepper(cfg, U)
    u = grid_small.extract(stepper.grid, U.coeffs)
    c = np.stack([u, np.full_like(u, np.inf)])
    expl, carries = stepper.explicit_drift(c, np.array([1.0, 0.0]))
    assert carries.tolist() == [True, False]
    assert np.isfinite(expl[0]).all()


def assert_ensemble_chunk_size(monkeypatch, preset, size):
    """With a budget of ``size`` paths on the step grid (the default budget
    for None), a 7-path pooled ensemble equals 7 single runs."""
    cfg = preset_cfg(preset, **{"solver.track_ito": True})
    if size is not None:
        g = solver.step_grid(cfg)
        monkeypatch.setattr(solver, "CHUNK_SAMPLES", size * g.nx_pad * g.ny_pad * g.nz_pad)
        assert solver.chunk_size(g) == size
    summaries = run_ensemble(cfg, 7, workers=2)
    direct = [path_summary(run_trajectory(replace(cfg, trajectory_id=i))) for i in range(7)]
    assert summaries == direct


@pytest.mark.parametrize("size", [1, 3, None])
def test_ensemble_chunk_sizes(monkeypatch, size):
    assert_ensemble_chunk_size(monkeypatch, "example1-small", size)


@pytest.mark.parametrize("size", [1, 3, None])
def test_ensemble_chunk_sizes_on_a_truncated_step_grid(monkeypatch, size):
    # smallnoise-888 steps on a 10 x 14 x 13 grid cut from its 25 x 25 x 13 one
    assert_ensemble_chunk_size(monkeypatch, "smallnoise-888", size)


def test_path_summaries_equal_single_state_norms():
    cfg = preset_cfg("example1-small", **{"solver.track_ito": True})
    trajs = run_paths(cfg, range(5))
    trajs[2] = replace(trajs[2], final_state=None, blowup=True)
    summaries = path_summaries(trajs)
    for summary, traj in zip(summaries, trajs):
        assert summary["ito_lhs"] == h_norm_sq(traj.ito_integral)
        if traj.final_state is None:
            assert np.isnan(summary["final_H_sq"]) and np.isnan(summary["final_V_sq"])
        else:
            assert summary == path_summary(traj)
            assert summary["final_H_sq"] == h_norm_sq(traj.final_state)
            assert summary["final_V_sq"] == v_norm_sq(traj.final_state)


def test_chunk_size_depends_on_the_grid_only():
    presets = ("smallnoise-888", "example1-small", "ou-single-mode")
    sizes = [solver.chunk_size(solver.step_grid(preset_cfg(p))) for p in presets]
    assert sizes[0] < sizes[1] < sizes[2]
    assert sizes[0] >= 1


def test_increments_shape_checked():
    cfg = preset_cfg("ou-single-mode")
    with pytest.raises(ValueError):
        run_paths(cfg, range(2), increments=np.zeros((2, cfg.n_steps + 1, cfg.noise.K)))
    with pytest.raises(ValueError):
        run_paths(cfg, [])


# -- kernels with a path axis -------------------------------------------------


@pytest.fixture(scope="module")
def stack():
    """Five projected states of one 3^3 grid and their coefficient stack."""
    g = Grid(DomainSpec(N1=3, N2=3, M=3))
    rng = np.random.default_rng(6)
    states = [leray_project(random_state(g, rng, amplitude=10.0 ** rng.uniform(-2, 2))) for _ in range(5)]
    # exactly zero barotropic divergence on one path, round-off on the others
    states[2].coeffs[:2, :, :, 0] = 0.0
    return g, states, np.stack([s.coeffs for s in states])


def test_w_parts_stack(stack):
    g, states, c = stack
    w_sin, w_aff = _w_parts(g, c[:, :2])
    for p, st in enumerate(states):
        one_sin, one_aff = _w_parts(g, st.coeffs[:2])
        assert np.array_equal(w_sin[p], one_sin) and np.array_equal(w_aff[p], one_aff)


def test_advection_stack(stack):
    g, states, c = stack
    samples = _advection_samples(g, c[:, :2], c)
    coeffs = advection_coeffs(g, c)
    for p, st in enumerate(states):
        assert np.array_equal(samples[p], _advection_samples(g, st.coeffs[None, :2], st.coeffs[None])[0])
        assert np.array_equal(coeffs[p], bilinear_B(st).coeffs)


def test_linear_terms_stack(stack):
    g, states, c = stack
    phys = PhysicsParams(f=0.7, beta_T=0.2)
    G = _pressure_integral_cos(g, c[:, 2])
    lin = _linear_terms(g, c, 0.3, 0.7)
    F = forcing_coeffs(g, c, phys)
    for p, st in enumerate(states):
        assert np.array_equal(G[p], _pressure_integral_cos(g, st.coeffs[2]))
        assert np.array_equal(lin[p], _linear_terms(g, st.coeffs, 0.3, 0.7))
        assert np.array_equal(F[p], forcing_F(st, phys).coeffs)


@pytest.mark.parametrize(
    "family, osc",
    [
        pytest.param("example1", 1, id="example1"),
        pytest.param("example2", 1, id="example2"),
        pytest.param("example1", 0, id="example1-osc0"),
        pytest.param("example2", 0, id="example2-osc0"),
    ],
)
def test_sigma_coeffs_stack(stack, family, osc):
    g, states, c = stack
    make = example1_noise if family == "example1" else example2_noise
    spec = make(g, K=4, amp_phi=0.3, amp_chi=0.3, amp_alpha=0.1, osc=osc)
    assert spec.constant_transport == (osc == 0)
    W = np.random.default_rng(2).standard_normal((len(states), 5, 4))
    rows = sigma_coeffs(spec, c, W)
    shared = sigma_coeffs(spec, c, W, g.padded_samples(c))
    # the grid form reads the same gradients from the shared samples as from its own synthesis
    assert np.abs(shared - rows).max() <= 1e-14 * np.abs(rows).max()
    for p, st in enumerate(states):
        one = st.coeffs[None]
        assert np.array_equal(rows[p], sigma_coeffs(spec, one, W[p : p + 1])[0])
        assert np.array_equal(shared[p], sigma_coeffs(spec, one, W[p : p + 1], g.padded_samples(one))[0])
    with pytest.raises(ValueError):
        sigma_coeffs(spec, c, W[:, :, :3])


def test_quadratic_sums_stack(stack):
    g, states, c = stack
    names = tuple(g.forms)
    sums = quadratic_sums(g, c, names)
    assert all(value.shape == (len(states),) for value in sums)
    for p, st in enumerate(states):
        assert (sums[0][p], sums[1][p], sums[2][p]) == (h_norm_sq(st), v_norm_sq(st), da_norm_sq(st))
        assert tuple(value[p] for value in sums) == quadratic_sums(g, st.coeffs, names)


def test_grad3_dz_sq_stack(stack):
    g, states, c = stack
    for comps, mu, nu in (((0, 1), 1.0, 1.0), ((2,), 0.7, 0.3)):
        vals = grad3_dz_sq(g, c, comps, mu=mu, nu=nu)
        assert vals.shape == (len(states),)
        for p, st in enumerate(states):
            one = grad3_dz_sq(g, st.coeffs, comps, mu=mu, nu=nu)
            assert isinstance(one, float) and vals[p] == one


def _per_state_functionals(state):
    """The monitored functionals of one state, one field at a time, each a
    whole-array ``np.sum``: the per-state arithmetic that every row of the
    stacked record kernel must reproduce bit for bit.  Each Parseval sum is
    np.sum(|c|^2 * factor * parseval_weight) over its components, with the
    factor written out here."""
    g, c = state.grid, state.coeffs
    spec = g.spec
    w = g.quad_weight()
    vt = c[:2].copy()
    vt[:, :, :, 0] = 0.0
    vt1, vt2, Tg = g.synth_cos(np.concatenate([vt, c[2:]]))
    vt_sq = vt1**2 + vt2**2
    grad_sq = sum((d**2).sum(axis=0) for d in g.padded_samples(vt).grads)
    sq = np.abs(c) ** 2
    ksq, mz_sq = g.ksq_h[:, :, None], g.mz_phys**2
    depth_mean = (g.m_int == 0) / spec.h  # the m = 0 level, per unit depth

    def parseval(rows, factor):
        return float(np.sum(sq[rows] * factor * g.parseval_weight))

    vbar_h1_sq = parseval(slice(0, 2), (1.0 + ksq) * depth_mean)
    dzv_sq = 0.0 + parseval(slice(0, 1), mz_sq) + parseval(slice(1, 2), mz_sq)
    dzT_sq = parseval(slice(2, 3), mz_sq)

    return {
        "H_sq": h_norm_sq(state),
        "V_sq": v_norm_sq(state),
        "DA_sq": da_norm_sq(state),
        "L6_vtilde_6": float(np.sum(vt_sq**3) * w),
        "Vbar_H1_4": vbar_h1_sq * vbar_h1_sq,
        "dz_v_L2_2": dzv_sq,
        "dz_v_L2_4": dzv_sq * dzv_sq,
        "grad3_dz_v_L2_2": parseval(slice(0, 2), (ksq + mz_sq) * mz_sq),
        "L6_T_6": float(np.sum(Tg**6) * w),
        "dz_T_L2_4": dzT_sq * dzT_sq,
        "grad_vtilde_vtilde4": float(np.sum(grad_sq * vt_sq**2) * w),
        "vbar_V_sq": parseval(slice(0, 2), spec.mu * ksq * depth_mean),
        "AS_sq": parseval(slice(0, 2), spec.mu**2 * ksq**2 * depth_mean),
        "dzT_a_sq": parseval(slice(2, 3), (spec.mu * ksq + spec.nu * mz_sq) * mz_sq),
        "dz_T_L2_2": dzT_sq,
    }


def _same(a, b):
    """Equal floats, or both NaN."""
    return a == b or (a != a and b != b)


def assert_same_record(a, b):
    assert a.dtype == b.dtype == RECORD
    assert all(_same(a[name], b[name]) for name in RECORD.names)


def test_record_stack_rows_equal_single_records(grid_small, rng):
    # random projected states, the zero state, a z-independent velocity, and one
    # row at 1e80 whose norms are finite but whose squares are not
    g = grid_small
    states = [leray_project(random_state(g, rng, amplitude=10.0 ** rng.uniform(-2, 2))) for _ in range(3)]
    states.append(g.zero_state())
    flat = leray_project(random_state(g, rng))
    flat.coeffs[:2, :, :, 1:] = 0.0
    states.append(leray_project(flat))
    huge = leray_project(random_state(g, rng))
    huge.coeffs *= 1e80
    states.append(huge)
    c = np.stack([s.coeffs for s in states])
    P = len(states)
    dist = rng.uniform(0.0, 2.0, P)
    theta = np.array([1.0, 0.0, 0.5, 1.0, 0.25, 1.0])

    with np.errstate(over="ignore", invalid="ignore"):
        first = record_stack(g, c, 0.0, dist, theta)
        singles = [record(st, dist[p], theta[p]) for p, st in enumerate(states)]
        assert first.shape == (P,)
        for st, a, b in zip(states, first, singles):
            assert_same_record(a, b)
            for name, value in _per_state_functionals(st).items():
                assert _same(a[name], value), name
        # only the overflowing row leaves; the mask keeps the other rows in order
        ok = finite(first)
        assert ok.tolist() == [True] * (P - 1) + [False]
        assert [finite(b) for b in singles] == ok.tolist()
        for a, b in zip(first[ok], singles[:-1]):
            assert_same_record(a, b)


def test_stepper_distance_stack(stack):
    g, states, c = stack
    cfg = solver.SolverConfig(grid=g, equation="modified", dt=0.01, t_end=0.1)
    stepper = Stepper(cfg, states[0])
    c = g.extract(stepper.grid, c)
    dist = stepper.distance(c, 0.37)
    assert dist.shape == (len(states),)
    for p in range(len(states)):
        assert dist[p] == stepper.distance(c[p : p + 1], 0.37)[0]


@pytest.mark.parametrize(
    "preset, values",
    [
        # one mode with lam = 1, where the H and V norms coincide
        pytest.param("ou-single-mode", {}, id="ou-single-mode"),
        # kappa such that theta reads the distances: strictly between 0 and 1 on some steps
        pytest.param(
            "example1-small",
            {"init.kind": "zero", "solver.equation": "modified", "solver.kappa_cutoff": "0.02"},
            id="example1-small-modified",
        ),
    ],
)
def test_zero_start_distance_is_the_v_norm(monkeypatch, preset, values):
    # from U0 = 0 the step loop takes each distance as the square root of the V norm it
    # has just formed; every output equals that of the general formula ||U - U*||
    cfg = replace(preset_cfg(preset, **{"solver.store_stride": 1, **values}), track_ito=True, store_states=True)
    stepper = Stepper(cfg, solver.initial_state(cfg))
    assert not stepper.c0.any()
    rows = np.random.default_rng(3).standard_normal((4,) + stepper.c0.shape) * stepper.mask
    assert np.array_equal(stepper.distance(rows, 0.5, quadratic_sums(stepper.grid, rows, ("V",))[0]), stepper.distance(rows, 0.5))
    shortcut = run_paths(cfg, range(3))
    general = Stepper.distance
    monkeypatch.setattr(Stepper, "distance", lambda self, coeffs, t, v_sq=None: general(self, coeffs, t))
    for a, b in zip(shortcut, run_paths(cfg, range(3))):
        assert_same_path(a, b)
    dist = np.concatenate([traj.records["dist_to_Ustar"] for traj in shortcut])
    theta = np.concatenate([traj.records["theta_value"] for traj in shortcut])
    assert dist.max() > 0
    assert ((0 < theta) & (theta < 1)).any() == (cfg.equation == "modified")


def test_stepper_advance_stack(stack):
    g, states, c = stack
    spec = example1_noise(g, K=3, amp_phi=0.1, amp_psi=0.1, amp_chi=0.3, amp_alpha=0.1, osc=1)
    cfg = solver.SolverConfig(grid=g, noise=spec, equation="modified", dt=0.01, t_end=0.1, track_ito=True)
    stepper = Stepper(cfg, states[0])
    c = g.extract(stepper.grid, c)
    theta = np.array([1.0, 0.0, 0.5, 1.0, 0.0])
    dW = np.random.default_rng(3).standard_normal((len(states), 3)) * 0.1
    new, incr, cols = stepper.advance(c, theta, dW)
    for p in range(len(states)):
        one = stepper.advance(c[p : p + 1], theta[p : p + 1], dW[p : p + 1])
        for a, b in zip((new, incr, cols), one):
            assert np.array_equal(a[p], b[0])


@pytest.mark.parametrize("osc", [0, 1])
def test_constant_transport_step_makes_no_transforms(monkeypatch, osc):
    # example1-small (constant phi, psi) with advection off: the step forms the noise
    # rows in spectral space; osc = 1 shows that the count sees the grid evaluation
    cfg = preset_cfg("example1-small", **{"solver.advection": False, "solver.track_ito": True, "noise.osc": osc})
    stepper = Stepper(cfg, solver.initial_state(cfg))
    c = np.repeat(stepper.c0[None], 3, axis=0)
    dW = np.random.default_rng(4).standard_normal((3, cfg.noise.K)) * 0.1
    calls = []
    for name in ("_synth_h", "_analyze_h"):
        transform = getattr(Grid, name)
        monkeypatch.setattr(Grid, name, lambda self, *a, _f=transform, _n=name: calls.append(_n) or _f(self, *a))
    new, incr, cols = stepper.advance(c, np.ones(3), dW)
    assert np.isfinite(new).all() and incr.any() and cols.any()
    assert (calls == []) == (osc == 0)


# -- the noise increment under track_ito -----------------------------------------


def noise_step(preset, track_ito=True, **values):
    """A step's inputs for three rows of the preset: the stepper, the rows
    (scaled copies of U0 on the step grid) and Wiener increments."""
    cfg = preset_cfg(preset, **{"solver.track_ito": track_ito, **values})
    stepper = Stepper(cfg, solver.initial_state(cfg))
    c = stepper.c0[None] * np.array([1.0, 0.5, 2.0])[:, None, None, None, None]
    dW = np.random.default_rng(5).standard_normal((3, cfg.noise.K)) * np.sqrt(cfg.dt)
    return stepper, c, dW


def spy_sigma_weights(monkeypatch) -> list:
    """The weights of every ``sigma_coeffs`` call the step makes, in order
    (None for the columns themselves)."""
    weights = []

    def spy(spec, coeffs, w=None, grads=None, work=None):
        weights.append(None if w is None else np.array(w))
        return sigma_coeffs(spec, coeffs, w, grads, work=work)

    monkeypatch.setattr(solver, "sigma_coeffs", spy)
    return weights


@pytest.mark.parametrize(
    "preset, values, n, full_band",
    [
        # example1-small forms the transport in spectral space, smallnoise-888 on the grid
        pytest.param("example1-small", {}, 2, True, id="example1-small"),
        pytest.param("smallnoise-888", {}, 2, False, id="smallnoise-888"),
        pytest.param("example1-small", {"noise.include_temperature": True}, 3, True, id="example1-small-temperature"),
        pytest.param("example1-small", {"solver.n_galerkin": 47}, 2, False, id="example1-small-cut"),
    ],
)
def test_tracked_step_forms_the_k_columns_once(monkeypatch, preset, values, n, full_band):
    stepper, c, dW = noise_step(preset, **values)
    P, K = dW.shape
    assert stepper.mask.all() == full_band
    weights = spy_sigma_weights(monkeypatch)
    new, incr, cols = stepper.advance(c, np.ones(P), dW)
    # one call, for the K columns themselves, each with the n rows the noise has
    assert len(weights) == 1 and weights[0] is None
    assert np.isfinite(new).all() and cols.shape == (P, K, n) + c.shape[2:]
    # the masked columns, whether the mask multiply is made or skipped
    assert np.array_equal(cols, sigma_coeffs(stepper.noise, c) * stepper.mask[:n])
    # the increment is the dW-weighted sum of the columns, and the weighted row up to round-off
    assert incr.shape == c.shape
    assert np.array_equal(incr[:, :n], sum(dW[:, k, None, None, None, None] * cols[:, k] for k in range(K)))
    row = sigma_coeffs(stepper.noise, c, dW[:, None])[:, 0] * stepper.mask[:n]
    assert np.abs(incr[:, :n] - row).max() <= 1e-14 * np.abs(row).max()
    # a temperature row the noise does not have is +0
    rest = incr[:, n:].view(np.float64)
    assert not rest.any() and not np.signbit(rest).any()


def test_untracked_step_forms_the_weighted_row_only(monkeypatch):
    stepper, c, dW = noise_step("smallnoise-888", track_ito=False)
    weights = spy_sigma_weights(monkeypatch)
    _, incr, cols = stepper.advance(c, np.ones(len(dW)), dW)
    assert cols is None and len(weights) == 1
    assert np.array_equal(weights[0], dW[:, None])


def test_static_column_norms_give_the_ito_quadratic():
    # additive noise: the (K,) squared column norms, computed once, accumulate
    # to the per-step sums of the (P, K) norms of the broadcast columns
    cfg = preset_cfg("ou-single-mode", **{"solver.track_ito": True})
    trajs = run_paths(cfg, range(3))
    stepper = Stepper(cfg, solver.initial_state(cfg))
    K = cfg.noise.K
    _, _, cols = stepper.advance(np.repeat(stepper.c0[None], 3, axis=0), np.ones(3), np.zeros((3, K)))
    (sq,) = quadratic_sums(stepper.grid, cols, ("H",))
    quad = np.zeros(3)
    for _ in range(cfg.n_steps):
        quad += sum(sq[:, k] for k in range(K)) * cfg.dt
    assert all(t.n_steps_done == cfg.n_steps for t in trajs)
    assert [t.ito_quadratic for t in trajs] == list(quad)


def test_states_are_one_array():
    cfg = replace(preset_cfg("example1-small"), store_states=True)
    traj = run_trajectory(cfg)
    assert isinstance(traj.states, np.ndarray)
    assert traj.states.shape == (len(traj.records),) + traj.final_state.coeffs.shape
    assert np.array_equal(traj.states[-1], traj.final_state.coeffs)
    assert [h_norm_sq(SpectralState(cfg.grid, s)) for s in traj.states] == traj.records["H_sq"].tolist()
