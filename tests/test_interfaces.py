"""Configuration parsing, checkpoint containers, CLI behaviour."""

import json
import os

import numpy as np
import pytest

from stochpe import random_state
from stochpe.checkpoint import load_noise, load_state, save_noise, save_state
from stochpe.cli import EXIT_BLOWUP, EXIT_CONFIG, EXIT_OK, _preset_text, main
from stochpe.config import ConfigError, build_solver_config, config_defaults, parse_config_text
from stochpe.noise import example1_noise, example2_noise


class TestConfig:
    def test_defaults_roundtrip(self):
        cfg = build_solver_config(config_defaults())
        assert cfg.dt == 1e-2
        assert cfg.noise.family == "zero"

    def test_parse_with_comments_and_overrides(self):
        text = """
        # a comment
        domain.N1 = 3   # trailing comment
        solver.dt = 0.5
        noise.family = example1
        noise.amp_phi = 0.25
        """
        values = parse_config_text(text)
        assert values["domain.N1"] == 3
        assert values["solver.dt"] == 0.5
        cfg = build_solver_config(values)
        assert cfg.noise.family == "example1"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("does.not.exist = 1")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("solver.dt = banana")
        with pytest.raises(ConfigError):
            parse_config_text("solver.advection = maybe")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("solver.dt 0.5")

    def test_invalid_physics_becomes_config_error(self):
        values = config_defaults()
        values["domain.mu"] = -1.0
        with pytest.raises(ConfigError):
            build_solver_config(values)

    def test_stopping_levels(self):
        values = parse_config_text("stopping.weak = 12.5\nstopping.blowup = 1,10,100")
        cfg = build_solver_config(values)
        assert cfg.stopping_levels == {"weak": 12.5}
        assert cfg.blowup_levels == (1.0, 10.0, 100.0)


class TestCheckpoint:
    def test_state_roundtrip(self, grid_small, rng, tmp_path):
        st = random_state(grid_small, rng)
        st.time = 2.5
        path = str(tmp_path / "state.json")
        save_state(st, path)
        back = load_state(path, grid_small)
        assert back.time == 2.5
        np.testing.assert_array_equal(back.coeffs, st.coeffs)

    def test_state_loads_without_grid(self, grid_small, rng, tmp_path):
        st = random_state(grid_small, rng)
        path = str(tmp_path / "state.json")
        save_state(st, path)
        back = load_state(path)
        assert back.grid.spec == grid_small.spec
        np.testing.assert_array_equal(back.coeffs, st.coeffs)

    def test_domain_mismatch_rejected(self, grid_small, grid_cube, rng, tmp_path):
        st = random_state(grid_small, rng)
        path = str(tmp_path / "state.json")
        save_state(st, path)
        with pytest.raises(ValueError, match="does not match"):
            load_state(path, grid_cube)

    def test_noise_roundtrip(self, grid_small, tmp_path):
        spec = example1_noise(grid_small, K=3, amp_phi=0.3, amp_psi=0.2, amp_chi=0.1, osc=1)
        path = str(tmp_path / "noise.json")
        save_noise(spec, path)
        back = load_noise(path, grid_small)
        assert back.family == "example1"
        np.testing.assert_array_equal(back.phi, spec.phi)
        np.testing.assert_array_equal(back.chi, spec.chi)
        np.testing.assert_array_equal(back.alpha, spec.alpha)


class TestCLI:
    def test_run_reproducible_csv(self, tmp_path):
        root = str(tmp_path)
        assert main(["run", "--preset", "linear-decay", "--output-root", root, "--label", "a"]) == EXIT_OK
        assert main(["run", "--preset", "linear-decay", "--output-root", root, "--label", "b"]) == EXIT_OK
        a = open(os.path.join(root, "a", "trajectory.csv"), "rb").read()
        b = open(os.path.join(root, "b", "trajectory.csv"), "rb").read()
        assert a == b

    def test_stored_int_DA_sq_matches_manifest(self, tmp_path):
        # the stored column carries the per-step integral, also on a stride > 1
        root = str(tmp_path)
        assert main(["run", "--preset", "smallnoise-888", "--output-root", root, "--label", "a"]) == EXIT_OK
        lines = open(os.path.join(root, "a", "trajectory.csv")).read().splitlines()
        last = dict(zip(lines[1].split(","), lines[-1].split(",")))
        manifest = json.load(open(os.path.join(root, "a", "manifest.json")))
        assert float(last["int_DA_sq"]) == manifest["verdicts"]["int_DA_sq"]

    def test_linear_decay_preset_decays(self, tmp_path):
        root = str(tmp_path)
        assert main(["run", "--preset", "linear-decay", "--output-root", root]) == EXIT_OK
        manifest = json.load(open(os.path.join(root, "run-linear-decay", "manifest.json")))
        ratio = (manifest["verdicts"]["final_H_sq"] / manifest["verdicts"]["initial_H_sq"]) ** 0.5
        assert ratio < 1e-3

    def test_config_error_exit_and_no_outputs(self, tmp_path):
        root = str(tmp_path / "out")
        code = main(["run", "--set", "bogus.key=1", "--output-root", root])
        assert code == EXIT_CONFIG
        assert not os.path.exists(root)

    @pytest.mark.parametrize("defect", ["short_alpha", "family2_psi"])
    def test_invalid_noise_file_is_config_error(self, tmp_path, capsys, defect):
        # a short alpha, or psi in family 2 (which has no vertical transport)
        grid = build_solver_config(parse_config_text(_preset_text("example1-small"))).grid
        if defect == "short_alpha":
            spec = example1_noise(grid, K=4, amp_phi=0.1, amp_alpha=0.1)
            spec.alpha = spec.alpha[:2]
        else:
            spec = example2_noise(grid, K=4, amp_phi=0.1)
            spec.psi = np.full_like(spec.psi, 0.1)
        path = str(tmp_path / "noise.json")
        save_noise(spec, path)
        root = str(tmp_path / "out")
        args = ["--preset", "example1-small", "--set", "noise.family=file", "--set", f"noise.file={path}"]
        assert main(["run", *args, "--output-root", root]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not os.path.exists(root)

    def test_unknown_preset(self, tmp_path):
        assert main(["run", "--preset", "no-such", "--output-root", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_exit_code(self, tmp_path):
        code = main(
            [
                "run",
                "--set", "domain.N1=2", "--set", "domain.N2=2", "--set", "domain.M=1",
                "--set", "noise.family=example1",
                "--set", "noise.amp_alpha=4000",
                "--set", "solver.dt=0.05",
                "--set", "solver.t_end=40.0",
                "--set", "solver.store_stride=20",
                "--output-root", str(tmp_path),
            ]
        )
        assert code == EXIT_BLOWUP

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_record_is_blowup(self, tmp_path):
        # the norms stay finite while their squares in the record overflow
        code = main(
            [
                "run", "--preset", "example1-large-theta1",
                "--set", "solver.dt=0.5", "--set", "solver.t_end=16", "--set", "init.amplitude=50",
                "--output-root", str(tmp_path), "--label", "x",
            ]
        )
        assert code == EXIT_BLOWUP
        lines = open(os.path.join(str(tmp_path), "x", "trajectory.csv")).read().splitlines()
        values = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
        assert len(values) > 1 and np.isfinite(values).all()

    def test_ensemble_worker_invariance(self, tmp_path):
        root = str(tmp_path)
        args = ["ensemble", "--preset", "ou-single-mode", "--paths", "6", "--output-root", root]
        assert main(args + ["--workers", "1", "--label", "w1"]) == EXIT_OK
        assert main(args + ["--workers", "2", "--label", "w2"]) == EXIT_OK
        d1 = json.load(open(os.path.join(root, "w1", "ensemble.json")))
        d2 = json.load(open(os.path.join(root, "w2", "ensemble.json")))
        del d1["workers"], d2["workers"]
        assert d1 == d2

    def test_ensemble_rejects_worker_count_below_one(self, tmp_path):
        root = str(tmp_path / "out")
        args = ["ensemble", "--preset", "ou-single-mode", "--paths", "2", "--output-root", root]
        assert main(args + ["--workers", "0"]) == EXIT_CONFIG
        assert not os.path.exists(os.path.join(root, "ensemble-ou-single-mode", "ensemble.json"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_ensemble_paths_csv(self, tmp_path):
        # stopping and blow-up levels low enough that some paths reach them and some do not
        root = str(tmp_path)
        code = main(
            [
                "ensemble", "--preset", "example1-small", "--paths", "5",
                "--set", "stopping.weak=2.44", "--set", "stopping.blowup=5.527,1e6",
                "--output-root", root, "--label", "e",
            ]
        )
        assert code == EXIT_OK
        doc = json.load(open(os.path.join(root, "e", "ensemble.json")))
        manifest = json.load(open(os.path.join(root, "e", "manifest.json")))
        csv_path = os.path.join(root, "e", "paths.csv")
        assert csv_path in manifest["outputs"]
        lines = open(csv_path).read().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert [int(r["trajectory"]) for r in rows] == list(range(5))
        assert sum(int(r["blowup"]) for r in rows) == doc["blowups"]
        for name, count in doc["hit_counts"].items():
            assert sum(r[f"hit_{name}"] != "" for r in rows) == count
        assert 0 < doc["hit_counts"]["weak"] < 5
        assert 0 < doc["hit_counts"]["blowup@5.527"] < 5
        assert header[-4:] == ["final_H_sq", "final_V_sq", "sup_V_sq", "int_DA_sq"]
        assert all(np.isfinite(float(r["final_H_sq"])) for r in rows)

    def test_verify_unknown_suite(self, tmp_path):
        assert main(["verify", "--suite", "nonsense", "--output-root", str(tmp_path)]) == EXIT_CONFIG

    def test_verify_diagnostics_suite(self, tmp_path):
        code = main(["verify", "--suite", "diagnostics", "--output-root", str(tmp_path)])
        assert code == EXIT_OK

    def test_converge_requires_choice(self, tmp_path):
        assert main(["converge", "--preset", "ou-single-mode", "--output-root", str(tmp_path)]) == EXIT_CONFIG

    def test_converge_rejects_non_nested(self, tmp_path):
        code = main(
            [
                "converge", "--preset", "ou-single-mode",
                "--dt-list", "0.0625,0.041,0.015625",
                "--output-root", str(tmp_path),
            ]
        )
        assert code == EXIT_CONFIG

    def test_converge_spatial(self, tmp_path):
        code = main(
            [
                "converge", "--preset", "example1-small",
                "--n-list", "30,120,480",
                "--set", "init.decay=4.0",
                "--output-root", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        doc = json.load(open(os.path.join(str(tmp_path), "converge-example1-small", "converge.json")))
        errs = doc["errors"]
        assert errs[0] > errs[1] > errs[2]

    def test_checkpoint_resume(self, tmp_path):
        root = str(tmp_path)
        assert main(["run", "--preset", "example1-small", "--output-root", root, "--label", "first"]) == EXIT_OK
        ckpt = os.path.join(root, "first", "checkpoint.json")
        code = main(
            [
                "run", "--preset", "example1-small",
                "--set", "init.kind=checkpoint",
                "--set", f"init.path={ckpt}",
                "--output-root", root, "--label", "resumed",
            ]
        )
        assert code == EXIT_OK
