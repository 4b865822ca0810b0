"""Ensemble machinery: reproducibility, moment checks, studies."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from stochpe import DomainSpec, Grid
from stochpe.cli import _preset_text
from stochpe.config import build_solver_config, parse_config_text
from stochpe.noise import additive_single_mode_noise, example1_noise, zero_noise
from stochpe.operators import PhysicsParams
from stochpe.experiments import (
    apriori_sweep,
    convergence_study,
    divergence_slope,
    gronwall_envelope_check,
    ito_isometry_check,
    ou_moment_check,
    path_summary,
    run_ensemble,
    spatial_projection_study,
    uniqueness_experiment,
)
from stochpe.solver import BlowUpError, InitSpec, SolverConfig, run_trajectory

PHYS0 = PhysicsParams(f=0.0, beta_T=0.0)


@pytest.fixture(scope="module")
def ou_cfg():
    g = Grid(DomainSpec(N1=1, N2=1, M=0))
    noise = additive_single_mode_noise(g, "v2", 1, 0, 0, amplitude=1.0)
    return SolverConfig(
        grid=g,
        noise=noise,
        init=InitSpec(kind="zero"),
        physics=PHYS0,
        dt=1 / 128,
        t_end=0.5,
        advection=False,
        store_stride=64,
        seed=99,
    )


class TestEnsemble:
    def test_worker_count_invariance(self, ou_cfg):
        a = run_ensemble(ou_cfg, 8, workers=1)
        b = run_ensemble(ou_cfg, 8, workers=2)
        for sa, sb in zip(a, b):
            assert sa == sb

    def test_single_path_matches_trajectory(self, ou_cfg):
        from stochpe.experiments import path_summary
        from stochpe.solver import run_trajectory

        summary = run_ensemble(ou_cfg, 1, workers=1)[0]
        direct = path_summary(run_trajectory(ou_cfg))
        assert summary == direct

    def test_path_count_validation(self, ou_cfg):
        with pytest.raises(ValueError):
            run_ensemble(ou_cfg, 0)

    def test_worker_count_validation(self, ou_cfg):
        for workers in (0, -5):
            with pytest.raises(ValueError, match="workers"):
                run_ensemble(ou_cfg, 2, workers=workers)


class TestOUMoments:
    def test_second_moment_within_three_se(self, ou_cfg):
        chi_sq = 0.5 * (2 * np.pi) ** 2  # |cos(x)|^2 over the box
        res = ou_moment_check(ou_cfg, n_paths=400, lam=1.0, chi_H_sq=chi_sq, workers=2)
        assert res["pass"], res

    def test_isometry_small(self, ou_cfg):
        res = ito_isometry_check(ou_cfg, n_paths=400, workers=2)
        assert res["rel_error"] < 0.2  # coarse at 400 paths; tight bound in acceptance

    def test_isometry_zero_noise(self, ou_cfg):
        from dataclasses import replace

        cfg = replace(ou_cfg, noise=zero_noise(ou_cfg.grid))
        res = ito_isometry_check(cfg, n_paths=3)
        assert res["lhs"] == 0.0 and res["rhs"] == 0.0


@pytest.fixture(scope="module")
def uniq_cfg():
    g = Grid(DomainSpec(N1=2, N2=2, M=2))
    noise = example1_noise(g, K=2, amp_phi=0.02, amp_chi=0.05, osc=1)
    return SolverConfig(
        grid=g,
        noise=noise,
        init=InitSpec(kind="random", seed=31, amplitude=0.3),
        dt=0.01,
        t_end=0.2,
        seed=4,
    )


class TestUniqueness:
    def test_zero_delta_bit_identical(self, uniq_cfg):
        rep = uniqueness_experiment(uniq_cfg, 0.0)
        assert rep["bit_identical"]
        assert rep["divergence"] == 0.0

    def test_small_delta_controlled(self, uniq_cfg):
        rep = uniqueness_experiment(uniq_cfg, 1e-8)
        assert 0.0 < rep["divergence"] <= 1e-4
        assert rep["factor"] < 1e4

    def test_loglog_slope_near_one(self, uniq_cfg):
        res = divergence_slope(uniq_cfg, (1e-8, 1e-6, 1e-4))
        assert res["slope"] == pytest.approx(1.0, abs=0.2)

    def test_negative_delta_rejected(self, uniq_cfg):
        with pytest.raises(ValueError):
            uniqueness_experiment(uniq_cfg, -1.0)


class TestAprioriSweep:
    def test_stable_under_refinement(self):
        g = Grid(DomainSpec(N1=3, N2=3, M=3))
        noise = example1_noise(g, K=3, amp_phi=0.02, amp_psi=0.02, amp_chi=0.05, osc=0)
        cfg = SolverConfig(
            grid=g,
            noise=noise,
            init=InitSpec(kind="random", seed=8, amplitude=0.5),
            dt=1 / 32,
            t_end=0.25,
            store_stride=8,
            seed=17,
        )
        res = apriori_sweep(cfg, n_values=(60, 120), n_paths=30, workers=2)
        assert res["pass"], res

    def test_small_ensemble_rejected(self, ou_cfg):
        with pytest.raises(ValueError):
            apriori_sweep(ou_cfg, n_values=(10, 20), n_paths=5)

    def test_large_p_overflow_is_blowup(self):
        # ||U||_V^(p-2) overflows while the norms themselves stay finite
        values = parse_config_text(_preset_text("example1-large-theta1"))
        values.update({"solver.dt": 0.5, "solver.t_end": 16, "init.amplitude": 50})
        cfg = replace(build_solver_config(values), apriori_p=8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run_trajectory(cfg)
            summary = path_summary(traj)
        assert traj.blowup and traj.blowup_time is not None
        assert traj.n_steps_done < cfg.n_steps
        assert summary["blowup"] and not np.isnan(summary["apriori"])


@pytest.fixture(scope="module")
def conv_cfg():
    g = Grid(DomainSpec(N1=2, N2=2, M=2))
    noise = additive_single_mode_noise(g, "v2", 1, 0, 0, amplitude=0.5)
    return SolverConfig(
        grid=g,
        noise=noise,
        init=InitSpec(kind="random", seed=12, amplitude=0.5),
        physics=PHYS0,
        dt=1 / 16,
        t_end=0.5,
        advection=False,
        seed=5,
    )


class TestConvergence:
    def test_additive_linear_near_first_order(self, conv_cfg):
        res = convergence_study(conv_cfg, (1 / 16, 1 / 32, 1 / 64))
        assert res["order"] >= 0.9

    def test_errors_decrease(self, conv_cfg):
        res = convergence_study(conv_cfg, (1 / 8, 1 / 16, 1 / 32, 1 / 64))
        errs = [res["errors"][d] for d in sorted(res["errors"], reverse=True)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_requires_three_points(self, conv_cfg):
        with pytest.raises(ValueError):
            convergence_study(conv_cfg, (1 / 16, 1 / 32))

    def test_requires_nested_steps(self, conv_cfg):
        with pytest.raises(ValueError):
            convergence_study(conv_cfg, (1 / 16, 1 / 24, 1 / 64))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_raises(self):
        g = Grid(DomainSpec(N1=3, N2=3, M=3))
        cfg = SolverConfig(
            grid=g,
            noise=example1_noise(g, K=4, amp_phi=1.5, amp_psi=1.5, osc=2),
            init=InitSpec(kind="random", seed=8, amplitude=50.0),
            scheme="semi-implicit",
            dt=1.0,
            t_end=8.0,
            seed=17,
        )
        with pytest.raises(BlowUpError):
            convergence_study(cfg, (1.0, 0.5, 0.25), n_paths=1)

    def test_spatial_projection_decay(self):
        g = Grid(DomainSpec(N1=4, N2=4, M=4))
        cfg = SolverConfig(
            grid=g,
            noise=zero_noise(g),
            init=InitSpec(kind="random", seed=3, decay=4.0),
            dt=0.1,
            t_end=0.1,
        )
        res = spatial_projection_study(cfg, (50, 200, 800))
        errs = res["errors"]
        assert errs[0] > errs[1] > errs[2]
        # super-algebraic: the decade-over-decade improvement accelerates
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert r2 > r1

    def test_spatial_needs_three_points(self):
        g = Grid(DomainSpec(N1=2, N2=2, M=2))
        cfg = SolverConfig(grid=g, dt=0.1, t_end=0.1)
        with pytest.raises(ValueError):
            spatial_projection_study(cfg, (10, 20))


class TestGronwall:
    def test_envelope_constant_stable(self):
        g = Grid(DomainSpec(N1=1, N2=1, M=1))
        noise = example1_noise(g, K=2, amp_phi=0.0, amp_psi=0.0, amp_chi=0.3, amp_alpha=0.1, osc=0)
        cfg = SolverConfig(
            grid=g,
            noise=noise,
            init=InitSpec(kind="random", seed=6, amplitude=0.5),
            physics=PHYS0,
            dt=1 / 64,
            t_end=0.5,
            advection=False,
            store_stride=32,
            seed=33,
        )
        res = gronwall_envelope_check(cfg, n_paths=60, workers=2)
        assert res["pass"], res
