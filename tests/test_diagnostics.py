"""Monitored functionals, stopping detection, blow-up bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochpe import DomainSpec, Grid, random_state, single_mode_state
from stochpe.cli import _preset_text
from stochpe.config import build_solver_config, parse_config_text
from stochpe.diagnostics import (
    CSV_COLUMNS,
    STOPPING_FUNCTIONALS,
    detect_stopping,
    finite,
    record,
    running_integrands,
    stopping_integrands,
)
from stochpe.operators import average_A3, fluctuation_R, leray_project
from stochpe.solver import _forcing_weak, run_trajectory
from stochpe.spectral import SpectralState


class TestRecord:
    def test_zero_state(self, grid_small):
        rec = record(grid_small.zero_state())
        for col in CSV_COLUMNS:
            if col in ("t", "theta_value"):
                continue
            assert rec[col] == 0.0

    def test_z_independent_velocity(self, grid_small, rng):
        st_ = leray_project(random_state(grid_small, rng))
        st_.coeffs[:2, :, :, 1:] = 0.0
        st_ = leray_project(st_)
        rec = record(st_)
        assert rec["L6_vtilde_6"] < 1e-25
        assert rec["dz_v_L2_2"] < 1e-25
        assert rec["grad3_dz_v_L2_2"] < 1e-25

    def test_single_mode_against_fine_quadrature(self):
        spec = DomainSpec(L1=2 * np.pi, L2=2 * np.pi, h=1.0, N1=2, N2=2, M=2)
        g = Grid(spec)
        st_ = single_mode_state(g, "v1", 1, 0, 1, amplitude=0.8)
        # sixth powers of a (k, m) = (1, 1) mode stay inside the exact band of
        # the dealiased quadrature grid
        stT = single_mode_state(g, "T", 0, 1, 1, amplitude=0.6)
        st_.coeffs[2] = stT.coeffs[2]
        rec = record(st_)

        # oracle: quadrature on a 4x denser grid of the closed-form fields
        n = 4 * g.nx_pad
        nz = 4 * g.nz_pad
        x = np.arange(n) * spec.L1 / n
        y = np.arange(n) * spec.L2 / n
        z = -spec.h + (np.arange(nz) + 0.5) * spec.h / nz
        X, Y, Z = np.meshgrid(x, y, z, indexing="ij")
        w = (spec.L1 / n) * (spec.L2 / n) * (spec.h / nz)
        v1 = 0.8 * np.cos(X) * np.cos(np.pi * Z / spec.h)
        T = 0.6 * np.cos(Y) * np.cos(np.pi * Z / spec.h)
        # v is purely baroclinic here (m = 1): vtilde = v
        l6_vt = np.sum((v1**2) ** 3) * w
        assert rec["L6_vtilde_6"] == pytest.approx(l6_vt, rel=1e-6)
        l6_T = np.sum(T**6) * w
        assert rec["L6_T_6"] == pytest.approx(l6_T, rel=1e-6)
        dz_v = -0.8 * (np.pi / spec.h) * np.cos(X) * np.sin(np.pi * Z / spec.h)
        assert rec["dz_v_L2_2"] == pytest.approx(np.sum(dz_v**2) * w, rel=1e-6)
        grad_sq = (
            (0.8 * np.sin(X) * np.cos(np.pi * Z / spec.h)) ** 2
            + dz_v**2
        )
        assert rec["grad_vtilde_vtilde4"] == pytest.approx(
            np.sum(grad_sq * (v1**2) ** 2) * w, rel=1e-6
        )

    def test_vtilde_two_routes_agree(self, grid_small, rng):
        # fluctuation from R v equals v minus the lifted depth mean
        st_ = leray_project(random_state(grid_small, rng))
        r1 = fluctuation_R(st_)
        r2 = SpectralState(grid_small, st_.coeffs - average_A3(st_).coeffs)
        assert np.abs(r1.coeffs - r2.coeffs).max() <= 1e-12 * max(1.0, np.abs(st_.coeffs).max())
        rec1 = record(r1)
        rec2 = record(r2)
        assert rec1["L6_vtilde_6"] == pytest.approx(rec2["L6_vtilde_6"], rel=1e-12, abs=1e-300)

    def test_cumulative_accumulation_nondecreasing(self):
        # every running integral of a path's records, each accumulated by run_paths
        values = parse_config_text(_preset_text("example1-small"))
        values.update({"solver.store_stride": 1, "forcing.kind": "single-mode", "forcing.amplitude": 0.5})
        traj = run_trajectory(build_solver_config(values))
        assert len(traj.records) == traj.config.n_steps + 1
        columns = [c for c in CSV_COLUMNS if c.startswith("int_")]
        for a, b in zip(traj.records, traj.records[1:]):
            for col in columns:
                assert b[col] >= a[col], col
            for name in STOPPING_FUNCTIONALS:
                assert b[name] >= a[name], name
        last = traj.records[-1]
        assert all(last[col] > 0.0 for col in columns)
        assert all(last[name] > 0.0 for name in STOPPING_FUNCTIONALS)

    def test_overflowing_squares_give_nonfinite_record(self, grid_small, rng):
        st_ = leray_project(random_state(grid_small, rng))
        st_.coeffs *= 1e80  # norms finite, their squares out of range
        with np.errstate(over="ignore"):
            rec = record(st_)
        assert np.isfinite(rec["V_sq"])
        assert rec["Vbar_H1_4"] == np.inf
        assert not finite(rec)


class TestDetectStopping:
    def test_zero_level_hits_immediately(self):
        assert detect_stopping([0.0, 1.0], [0.0, 3.0], 0.0) == 0.0

    def test_unreached_level(self):
        assert detect_stopping([0, 1, 2], [0.0, 1.0, 2.0], 5.0) is None

    def test_interpolation(self):
        t = detect_stopping([0.0, 1.0, 2.0], [0.0, 2.0, 6.0], 4.0)
        assert t == pytest.approx(1.5)

    @given(st.lists(st.floats(0, 10), min_size=2, max_size=30), st.floats(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_level(self, increments, K):
        times = np.arange(len(increments) + 1, dtype=float)
        values = np.concatenate([[0.0], np.cumsum(np.abs(increments))])
        t1 = detect_stopping(times, values, K)
        t2 = detect_stopping(times, values, 2.0 * K + 1.0)
        if t2 is not None:
            assert t1 is not None
            assert t1 <= t2 + 1e-12

    def test_monotone_over_random_paths(self, rng):
        violations = 0
        for _ in range(100):
            n = int(rng.integers(5, 60))
            values = np.concatenate([[0.0], np.cumsum(rng.random(n))])
            times = np.linspace(0, 1, n + 1)
            K = float(rng.random() * values[-1])
            t1 = detect_stopping(times, values, K)
            t2 = detect_stopping(times, values, 2.0 * K)
            if t1 is not None and t2 is not None and t2 < t1 - 1e-12:
                violations += 1
        assert violations == 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            detect_stopping([0, 1], [1.0], 0.5)
        with pytest.raises(ValueError):
            detect_stopping([1, 0], [0.0, 1.0], 0.5)


class TestStoppingIntegrands:
    def test_all_names_present(self, grid_small, rng):
        rec = record(leray_project(random_state(grid_small, rng)))
        vals = stopping_integrands(rec)
        assert set(vals) == {"weak", "vtilde_l6", "grad_vbar", "dz_v", "temperature"}
        assert all(v >= 0.0 for v in vals.values())

    def test_prefix_monotone_blowup_functional(self, grid_small, rng):
        # sup + integral of nonnegative quantities is nondecreasing on prefixes
        st_ = leray_project(random_state(grid_small, rng))
        sup_v, int_da, prev_da = 0.0, 0.0, None
        vals = []
        for i in range(6):
            stc = SpectralState(grid_small, st_.coeffs * (1 + 0.2 * np.sin(i)), time=0.1 * i)
            rec = record(stc)
            sup_v = max(sup_v, rec["V_sq"])
            if prev_da is not None:
                int_da += 0.5 * (prev_da + rec["DA_sq"]) * 0.1
            prev_da = rec["DA_sq"]
            vals.append(sup_v + int_da)
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestRunningIntegrals:
    def test_lone_record_reads_zero(self, grid_small, rng):
        rec = record(leray_project(random_state(grid_small, rng)))
        assert all(rec[c] == 0.0 for c in CSV_COLUMNS if c.startswith("int_"))
        assert all(rec[name] == 0.0 for name in STOPPING_FUNCTIONALS)
        assert "forcing_weak" not in rec.dtype.names

    def test_integrands_in_order(self, grid_small, rng):
        rec = record(leray_project(random_state(grid_small, rng)))
        vals = running_integrands(rec, 0.25)
        assert tuple(vals) == ("int_H2_V2", "int_grad_vtilde_vtilde4", "int_vbar_AS", "int_dzv_grad_dzv", *STOPPING_FUNCTIONALS)
        assert vals["weak"] == stopping_integrands(rec)["weak"] + 0.25
        assert vals["temperature"] == stopping_integrands(rec)["temperature"]

    @pytest.mark.parametrize("stride", [1, 3])
    def test_forced_run_extends_each_record_by_a_trapezoid(self, stride):
        # each stored record extends the previous one by a trapezoid of the
        # instantaneous integrands, the forcing norms included in ``weak``; a
        # stride of 3 ends on a shorter last span (16 steps)
        values = parse_config_text(_preset_text("example1-small"))
        values.update({"solver.store_stride": stride, "forcing.kind": "single-mode", "forcing.amplitude": 0.5})
        cfg = build_solver_config(values)
        forcing_weak = _forcing_weak(cfg)
        assert forcing_weak > 0.0
        traj = run_trajectory(cfg)
        assert len(traj.records) == -(-cfg.n_steps // stride) + 1
        integrands = {
            "int_H2_V2": lambda r: r["H_sq"] * r["V_sq"],
            "int_grad_vtilde_vtilde4": lambda r: r["grad_vtilde_vtilde4"],
            "int_vbar_AS": lambda r: r["vbar_V_sq"] * r["AS_sq"],
            "int_dzv_grad_dzv": lambda r: r["dz_v_L2_2"] * r["grad3_dz_v_L2_2"],
        }
        for a, b in zip(traj.records, traj.records[1:]):
            span = b["t"] - a["t"]
            weak = [r["H_sq"] * r["V_sq"] + r["V_sq"] + forcing_weak for r in (a, b)]
            assert b["weak"] == a["weak"] + 0.5 * (weak[0] + weak[1]) * span
            for col, f in integrands.items():
                assert b[col] == a[col] + 0.5 * (f(a) + f(b)) * span, col
            assert b["int_T_funcs"] == b["temperature"]
        assert traj.records[-1]["int_DA_sq"] == traj.int_DA_sq
