"""Configuration parsing, checkpoint containers, CLI behaviour."""

import hashlib
import importlib
import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

from stochpe import cli, random_state
from stochpe.checkpoint import load_noise, load_state, save_noise, save_state
from stochpe.cli import EXIT_BLOWUP, EXIT_CONFIG, EXIT_OK, _preset_text, main
from stochpe.config import (
    ConfigError,
    apply_overrides,
    build_solver_config,
    config_defaults,
    load_config_file,
    parse_config_text,
)
from stochpe.noise import example1_noise, example2_noise
from stochpe.spectral import DomainSpec, Grid, h_norm_sq, single_mode_state


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

    @pytest.mark.parametrize("key", ["physics.rho0", "physics.T_r"])
    def test_unread_physics_keys_rejected(self, key):
        # no equation of the model reads a reference density or temperature
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(f"{key} = 1.0")

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

    @pytest.mark.parametrize("family", ["example1", "example2"])
    def test_no_noise_directions_becomes_config_error(self, family):
        values = parse_config_text(f"noise.family = {family}\nnoise.K = 0")
        with pytest.raises(ConfigError, match="K must be >= 1"):
            build_solver_config(values)

    def test_override_value_is_verbatim(self, tmp_path):
        # everything after the first '=', surrounding whitespace stripped; no comments
        values = apply_overrides(config_defaults(), ["noise.file=a#b.json", "  init.path =  x = y  "])
        assert values["noise.file"] == "a#b.json"
        assert values["init.path"] == "x = y"
        path = tmp_path / "run.cfg"
        path.write_text("noise.file = c.json  # a comment\n")
        assert load_config_file(str(path))["noise.file"] == "c.json"
        assert load_config_file(str(path), ["noise.file=c#d.json"])["noise.file"] == "c#d.json"

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

    def test_state_file_bytes_are_pinned(self, tmp_path):
        # the domain is written as its fields in declaration order; the digest
        # pins the whole file of this state
        g = Grid(DomainSpec(L2=4.0, h=1.5, N1=1, N2=1, M=1, mu=0.7, nu=0.3))
        path = tmp_path / "state.json"
        save_state(single_mode_state(g, "T", 1, -1, 1, amplitude=0.25, time=0.5), str(path))
        raw = path.read_bytes()
        assert raw.startswith(
            b'{"format": "stochpe-checkpoint", "version": 1, "basis_order": "lambda-lex-v1", '
            b'"domain": {"L1": 6.283185307179586, "L2": 4.0, "h": 1.5, "N1": 1, "N2": 1, "M": 1, '
            b'"mu": 0.7, "nu": 0.3}, "time": 0.5, "shape": [3, 3, 3, 2], '
        )
        assert hashlib.sha256(raw).hexdigest() == "922e9b670554f0b1b9cb79fc9c705fa2b02b2db60ef3904cccea3da95a2f3586"

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


def load_perfbench(name: str):
    """The benchmark module ``perfbench/<name>.py``, loaded by path; ``perfbench/run.py``
    is never loaded, because it sets the thread variables of the process at import."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_stochpe_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkTracer:
    """The benchmark's checks, run on its own workloads (``perfbench/run.py``)."""

    def test_every_trace_target_resolves(self):
        # ``perfbench/run.py --trace 1`` wraps these names and fails on a missing one
        tracer = load_perfbench("tracer")
        for module, attr in (*tracer.TARGETS, tracer.ALLOC_TARGET):
            importlib.import_module(module)
            owner, name, original = tracer._resolve(module, attr)
            assert callable(original) and getattr(owner, name) is original, (module, attr)

    @pytest.mark.parametrize("name", ["ou-moments", "isometry-small", "run-888"])
    def test_operation_passes_the_exact_checks(self, tmp_path, name):
        workload = load_perfbench("workloads").WORKLOADS[name](str(tmp_path))
        workload.setup()
        failed, values = workload.inspect(77, workload.op(77), exact=True)
        assert failed == [] and values is not None

    @pytest.mark.parametrize("name", ["ou-moments", "run-888"])
    def test_traced_operations(self, tmp_path, name):
        # as ``perfbench/run.py --trace 1``: the transforms counted inside
        # Stepper.advance, the tracer's self-check against cProfile and on a
        # repeat, and the checks of every traced operation
        tracer = load_perfbench("tracer")
        workload = load_perfbench("workloads").WORKLOADS[name](str(tmp_path))
        workload.setup()
        seeds = (77, 78)
        failed = []
        tr = tracer.Tracer()
        tr.install()
        try:
            tr.run_id = "first"
            profiled = tracer.profiled_counts(tr.originals, lambda: [workload.op(s, n_paths=2) for s in seeds])
            for s in seeds:
                tr.run_id = "second"
                out = workload.op(s, n_paths=2)
                tr.run_id = None
                failed += workload.inspect(s, out)[0]
        finally:
            tr.uninstall()
        assert failed == []
        first = tr.summary({"first"})
        assert (first["transforms_in_advance"] > 0) == (name == "run-888")
        assert {n: first["calls"].get(n, 0) for n in profiled} == profiled
        assert tr.summary({"second"})["calls"] == first["calls"]


class TestCLI:
    def test_run_reproducible_csv(self, tmp_path):
        root = str(tmp_path)
        assert main(["run", "--preset", "linear-decay", "--output-root", root, "--label", "a"]) == EXIT_OK
        assert main(["run", "--preset", "linear-decay", "--output-root", root, "--label", "b"]) == EXIT_OK
        a = open(os.path.join(root, "a", "trajectory.csv"), "rb").read()
        b = open(os.path.join(root, "b", "trajectory.csv"), "rb").read()
        assert a == b

    def test_consecutive_calls_see_only_their_own_overrides(self, tmp_path):
        # the parser is built once per process; its --set lists must not carry over
        assert cli.build_parser() is cli.build_parser()
        root = str(tmp_path)
        base = ["run", "--preset", "linear-decay", "--output-root", root]
        overrides = {"a": ["solver.t_end=0.5", "solver.seed=7"], "b": ["solver.t_end=0.25"], "c": []}
        for label, sets in overrides.items():
            assert main([*base, "--label", label, *(a for s in sets for a in ("--set", s))]) == EXIT_OK
        preset = parse_config_text(_preset_text("linear-decay"))
        keys = ("solver.t_end", "solver.seed")
        for label, sets in overrides.items():
            config = json.load(open(os.path.join(root, label, "manifest.json")))["config"]
            expected = apply_overrides(preset, sets)
            assert [config[k] for k in keys] == [expected[k] for k in keys], label

    def test_stored_int_DA_sq_matches_manifest(self, tmp_path):
        # the stored column carries the per-step integral, also on a stride > 1
        root = str(tmp_path)
        assert main(["run", "--preset", "smallnoise-888", "--output-root", root, "--label", "a"]) == EXIT_OK
        lines = open(os.path.join(root, "a", "trajectory.csv")).read().splitlines()
        last = dict(zip(lines[1].split(","), lines[-1].split(",")))
        manifest = json.load(open(os.path.join(root, "a", "manifest.json")))
        assert float(last["int_DA_sq"]) == manifest["verdicts"]["int_DA_sq"]

    def test_final_H_sq_is_the_norm_of_the_checkpoint(self, tmp_path):
        # the final record is evaluated on the configured grid, also for a run
        # that steps on a cut grid, so it equals the norm of the saved state bit for bit
        root = str(tmp_path)
        assert main(["run", "--preset", "smallnoise-888", "--output-root", root, "--label", "a"]) == EXIT_OK
        state = load_state(os.path.join(root, "a", "checkpoint.json"))
        manifest = json.load(open(os.path.join(root, "a", "manifest.json")))
        assert h_norm_sq(state) == manifest["verdicts"]["final_H_sq"]

    def test_manifest_states_lambda_max_dt(self, tmp_path):
        # the largest retained eigenvalue times dt = 1/64: 106.8 on the 3^3 grid;
        # smallnoise-888 retains 200 of its 7,803 modes, up to 16.0, and the full
        # 8^3 band reaches 759.7
        root = str(tmp_path)
        runs = {
            "a": (["run", "--preset", "example1-small"], 1.67),
            "b": (["ensemble", "--preset", "smallnoise-888", "--paths", "1"], 0.25),
            "c": (["run", "--preset", "smallnoise-888", "--set", "solver.n_galerkin=7803"], 11.87),
        }
        for label, (args, expected) in runs.items():
            assert main([*args, "--output-root", root, "--label", label]) == EXIT_OK
            manifest = json.load(open(os.path.join(root, label, "manifest.json")))
            assert round(manifest["lambda_max_dt"], 2) == expected, label

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

    @pytest.mark.parametrize("command", ["run", "ensemble"])
    @pytest.mark.parametrize("preset", ["example1-small", "example2-small"])
    @pytest.mark.parametrize("K", [0, -1])
    def test_no_noise_directions_is_config_error(self, tmp_path, capsys, command, preset, K):
        root = str(tmp_path / "out")
        assert main([command, "--preset", preset, "--set", f"noise.K={K}", "--output-root", root]) == EXIT_CONFIG
        assert "configuration error: K must be >= 1" in capsys.readouterr().err
        assert not os.path.exists(root)

    @pytest.mark.parametrize("command", ["run", "ensemble"])
    @pytest.mark.parametrize("preset", ["linear-decay", "ou-single-mode"])
    @pytest.mark.parametrize("K", [0, -2])
    def test_every_family_rejects_no_noise_directions(self, tmp_path, capsys, command, preset, K):
        # family zero (linear-decay) and the additive family (ou-single-mode) check noise.K too
        root = str(tmp_path / "out")
        assert main([command, "--preset", preset, "--set", f"noise.K={K}", "--output-root", root]) == EXIT_CONFIG
        assert f"configuration error: K must be >= 1, got noise.K = {K}" in capsys.readouterr().err
        assert not os.path.exists(root)

    @pytest.mark.parametrize("source", ["config", "noise", "checkpoint"])
    def test_missing_input_file_is_config_error(self, tmp_path, capsys, source):
        missing = str(tmp_path / "missing" / f"{source}.json")
        args = {
            "config": ["--config", missing],
            "noise": ["--preset", "example1-small", "--set", "noise.family=file", "--set", f"noise.file={missing}"],
            "checkpoint": ["--preset", "example1-small", "--set", "init.kind=checkpoint", "--set", f"init.path={missing}"],
        }[source]
        root = str(tmp_path / "out")
        for command in ("run", "ensemble"):
            assert main([command, *args, "--output-root", root]) == EXIT_CONFIG
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("configuration error: cannot read "), err
            assert missing in err[0]
        assert not os.path.exists(root)

    @pytest.mark.parametrize("source", ["noise", "checkpoint"])
    @pytest.mark.parametrize("defect", ["extra_domain_key", "string_mode_count", "not_an_object"])
    def test_malformed_container_is_config_error(self, tmp_path, capsys, source, defect):
        grid = build_solver_config(parse_config_text(_preset_text("example1-small"))).grid
        path = tmp_path / f"{source}.json"
        if source == "noise":
            save_noise(example1_noise(grid, K=4, amp_phi=0.1), str(path))
            args = ["--set", "noise.family=file", "--set", f"noise.file={path}"]
        else:
            save_state(random_state(grid, np.random.default_rng(0)), str(path))
            args = ["--set", "init.kind=checkpoint", "--set", f"init.path={path}"]
        doc = json.loads(path.read_text())
        if defect == "extra_domain_key":
            doc["domain"]["extra"] = 1
        elif defect == "string_mode_count":
            doc["domain"]["N1"] = "3"
        else:
            doc = [doc]
        path.write_text(json.dumps(doc))
        root = str(tmp_path / "out")
        assert main(["run", "--preset", "example1-small", *args, "--output-root", root]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: "), err
        assert not os.path.exists(root)

    @pytest.mark.parametrize(
        "source, key, value",
        [
            ("checkpoint", "coeffs_b64", 5),
            ("checkpoint", "shape", "x"),
            ("checkpoint", "shape", [3, 7, 7, 5]),  # more entries than the block holds
            ("checkpoint", "time", None),
            ("noise", "phi_b64", 5),
            ("noise", "phi_shape", [4, 2.5]),
            ("noise", "alpha", {"a": 1}),
            ("noise", "include_temperature", "false"),  # a string is not a JSON boolean
            ("noise", "include_temperature", 0),
        ],
    )
    def test_malformed_payload_is_config_error(self, tmp_path, capsys, source, key, value):
        # a valid header over a malformed coefficient block, shape, time, alpha or flag
        grid = build_solver_config(parse_config_text(_preset_text("example1-small"))).grid
        path = tmp_path / f"{source}.json"
        if source == "noise":
            save_noise(example1_noise(grid, K=4, amp_phi=0.1), str(path))
            args = ["--set", "noise.family=file", "--set", f"noise.file={path}"]
        else:
            save_state(random_state(grid, np.random.default_rng(0)), str(path))
            args = ["--set", "init.kind=checkpoint", "--set", f"init.path={path}"]
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        root = str(tmp_path / "out")
        assert main(["run", "--preset", "example1-small", *args, "--output-root", root]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: "), err
        assert not os.path.exists(root)

    @pytest.mark.parametrize("source", ["defaults", "preset", "config"])
    def test_malformed_override_has_one_message(self, tmp_path, capsys, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("solver.dt = 0.5\n")
        base = {"defaults": [], "preset": ["--preset", "linear-decay"], "config": ["--config", str(cfg)]}[source]
        assert main(["run", *base, "--set", "foo", "--output-root", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "configuration error: override must be key=value, got 'foo'\n"

    def test_noise_file_name_may_hold_a_hash(self, tmp_path):
        grid = build_solver_config(parse_config_text(_preset_text("example1-small"))).grid
        path = str(tmp_path / "a#b.json")
        save_noise(example1_noise(grid, K=4, amp_phi=0.1), path)
        args = ["--preset", "example1-small", "--set", "noise.family=file", "--set", f"noise.file={path}"]
        assert main(["run", *args, "--output-root", str(tmp_path), "--label", "hash"]) == EXIT_OK
        manifest = json.load(open(tmp_path / "hash" / "manifest.json"))
        assert manifest["config"]["noise.file"] == path

    def test_unknown_preset(self, tmp_path):
        assert main(["run", "--preset", "no-such", "--output-root", str(tmp_path)]) == EXIT_CONFIG

    def test_nonpositive_kappa_cutoff(self, tmp_path):
        # a negative kappa put tau_cutoff before the start of the original equation's run
        args = ["--preset", "example1-small", "--set", "solver.kappa_cutoff=-0.5"]
        assert main(["run", *args, "--output-root", str(tmp_path)]) == EXIT_CONFIG

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

    def test_converge_rejects_zero_paths(self, tmp_path, capsys):
        root = str(tmp_path / "out")
        code = main(
            [
                "converge", "--preset", "ou-single-mode",
                "--dt-list", "0.0625,0.03125,0.015625", "--paths", "0",
                "--output-root", root,
            ]
        )
        assert code == EXIT_CONFIG
        assert "n_paths must be >= 1" in capsys.readouterr().err
        assert not os.path.exists(root)

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
