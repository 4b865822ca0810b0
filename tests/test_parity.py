"""Smoke test of the parity script ``tools/parity.py`` on this checkout.

Digests are compared only between two runs on the same machine, never with
committed fixtures: BLAS builds can differ in the last bits."""

import importlib.util
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def load_parity():
    spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_then_diff(tmp_path, capsys):
    parity = load_parity()
    out = tmp_path / "a"
    digests = parity.run(str(ROOT / "src"), str(out), presets=["ou-single-mode", "example1-small"])
    for preset in ("ou-single-mode", "example1-small"):
        for variant in parity.VARIANTS:
            for tid in parity.PATHS:
                assert f"{preset}/{variant}/path{tid}/records" in digests
        assert f"{preset}/cli/trajectory.csv" in digests
    assert "example1-small/forced/path5/stopping/weak" in digests
    # the tracked variant with temperature noise: its Ito integrals carry a temperature row
    with np.load(out / "arrays.npz") as saved:
        for tid in parity.PATHS:
            key = f"example1-small/track_ito-temperature/path{tid}"
            assert f"{key}/ito_integral" in digests and f"{key}/summary" in digests
            assert saved[f"{key}/ito_integral"][2].any()
            assert not saved[f"example1-small/track_ito/path{tid}/ito_integral"][2].any()
    # the ensemble group: the worker count changes no summary
    with np.load(out / "arrays.npz") as saved:
        for preset, n_paths in parity.ENSEMBLES.items():
            for part in ("paths", "isometry"):
                one, two = (saved[f"ensemble/{preset}/workers{w}/{part}"] for w in parity.ENSEMBLE_WORKERS)
                assert np.array_equal(one, two, equal_nan=True), (preset, part)
            assert saved[f"ensemble/{preset}/workers1/paths"].shape[0] == n_paths
    # the stride group: every stride's paths, each a record at t = 0 and one per stored step
    for stride in parity.STRIDES:
        for tid in parity.PATHS:
            key = f"stride/{parity.STRIDE_PRESET}/{stride}/path{tid}"
            assert f"{key}/records" in digests and f"{key}/stopping/temperature" in digests
    with np.load(out / "arrays.npz") as saved:
        n_records = [len(saved[f"stride/{parity.STRIDE_PRESET}/{s}/path0/records"]) for s in parity.STRIDES]
    assert n_records == [17, 5, 2]
    # the study group: criterion 6's convergence study and criterion 10's sweep at each p
    assert "study/convergence/errors" in digests and "study/convergence/order" in digests
    for p in parity.APRIORI_P:
        for part in ("estimates", "std_errors", "ratios"):
            assert f"study/apriori-p{p:g}/{part}" in digests
    assert json.loads((out / "columns.json").read_text())["records"][:2] == ["t", "H_sq"]
    assert parity.ENSEMBLES["ou-single-mode"] == 513
    assert json.loads((out / "digests.json").read_text()) == digests
    assert parity.diff(str(out), str(out)) == []

    # a second side with one changed array, one missing output and one new one
    other = tmp_path / "b"
    other.mkdir()
    arrays = dict(np.load(out / "arrays.npz"))
    changed, dropped = "example1-small/plain/path0/records", "ou-single-mode/cli/trajectory.csv"
    arrays[changed] = arrays[changed] * (1.0 + 1e-12)
    del arrays[dropped]
    arrays["extra"] = np.zeros(1)
    doc = {k: parity._digest(a) if k == changed else digests.get(k, "x") for k, a in arrays.items()}
    np.savez(other / "arrays.npz", **arrays)
    (other / "digests.json").write_text(json.dumps(doc))
    found = dict(parity.diff(str(out), str(other)))
    assert set(found) == {changed, dropped, "extra"}
    assert 0.0 < found[changed] < 2e-12
    assert found[dropped] is None and found["extra"] is None
    # by kind: the changed records table differs in every nonzero column
    kinds = {kind: (count, rel) for kind, count, rel in parity.by_kind(str(out), str(other), list(found.items()))}
    assert kinds["records"] == (1, found[changed])
    assert kinds["trajectory.csv"] == (1, None) and kinds["extra"] == (1, None)
    nonzero = np.abs(arrays[changed]).max(axis=0) > 0
    columns = json.loads((out / "columns.json").read_text())["records"]
    assert {k for k in kinds if k.startswith("records/")} == {f"records/{c}" for c, on in zip(columns, nonzero) if on}
    assert all(0.0 < kinds[f"records/{c}"][1] < 2e-12 for c, on in zip(columns, nonzero) if on)
    assert parity.main(["diff", str(out), str(other)]) == 1
    printed = capsys.readouterr().out
    assert "parity: 3 differing outputs" in printed and "\n    records/H_sq\t1\t" in printed


def test_rel_diff():
    parity = load_parity()
    a = np.array([1.0, np.nan, -4.0])
    assert parity.rel_diff(a, a.copy()) == 0.0
    assert parity.rel_diff(a, np.array([1.0, np.nan, -3.0])) == 0.25
    assert parity.rel_diff(a, np.array([1.0, 2.0, -4.0])) == np.inf
    assert parity.rel_diff(a, a[:2]) == np.inf
    assert parity.rel_diff(np.zeros(2), np.ones(2)) == np.inf


def test_cut_variant_and_growth_group():
    parity = load_parity()
    # ou-single-mode has 27 modes, no more than the cut, so it skips the variant
    assert parity._variants("ou-single-mode", 27) == parity.VARIANTS
    assert parity._variants("example1-small", 192)["cut"] == {"solver.n_galerkin": "47"}
    assert parity._variants("smallnoise-888", 7803)["cut"] == {"solver.n_galerkin": "100"}
    assert "semi-implicit" in parity.VARIANTS
    outputs = parity._growth_outputs()
    names = ("example1-osc0", "example1-osc2", "example2-osc1")
    assert set(outputs) == {f"growth/{n}/{part}" for n in names for part in ("report", "kappa_sq")} | {"growth/norms"}
    for name in names:
        full, half = outputs[f"growth/{name}/kappa_sq"]
        assert full > 0 and abs(half - full) <= 1e-14 * full
        assert outputs[f"growth/{name}/report"][2] > 0  # eta2, the barotropic fit


def test_exit_group(tmp_path):
    parity = load_parity()
    outputs = parity._exit_outputs(str(tmp_path))
    assert {name: a.tolist() for name, a in outputs.items()} == {
        "exit/overflow": [3],
        "exit/noise-K0": [2],
        "exit/removed-rho0": [2],
        "exit/noise-short-alpha": [2],
        "exit/noise-family2-psi": [2],
        "exit/checkpoint-int-coeffs": [2],
    }
    # an exception that escapes is recorded by name, and differs from any exit code
    assert parity.rel_diff(np.array(["AttributeError"]), np.array([2])) == np.inf
    assert parity.rel_diff(np.array(["AttributeError"]), np.array(["AttributeError"])) == 0.0
