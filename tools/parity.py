"""Bit-for-bit parity of two checkouts of stochpe.

    python tools/parity.py run --src CHECKOUT/src --out DIR
    python tools/parity.py diff DIR_A DIR_B

``run`` imports stochpe from ``--src`` and runs a fixed list: every shipped
preset under seven variants (plain, ``track_ito``, advection off, the
modified equation, a forced run with stopping and blow-up levels, the
semi-implicit scheme, and a Galerkin cut where the preset has more modes
than the cut), each as ``run_paths([0, 1, 2, 5])`` with stored states, plus
each preset's ``stochpe run`` files; then the ``growth`` group: the
``estimate_growth_constants`` reports and ``kappa_sq`` on both layouts of
three noise operators on a 3^3 grid, and ``spectral.norms`` of one random
state; then the ``ensemble`` group: the ``run_ensemble`` path summaries and
the ``ito_isometry_check`` result of each ``ENSEMBLES`` preset, a full
chunk of paths and a partial one, at each of ``ENSEMBLE_WORKERS``; then the
``stride`` group: the outputs of ``run_paths([0, 1, 2, 5])`` on
``STRIDE_PRESET`` at each ``store_stride`` of ``STRIDES``, which show how
the running integrals depend on the stored stride; then the ``exit`` group:
the exit code of each ``stochpe run`` that should fail (``EXIT_COMMANDS`` and three
malformed input files), or the name of the exception that escapes.  It
writes ``DIR/digests.json``, one SHA-256 digest per output, and
``DIR/arrays.npz``, the array behind each digest.

``diff`` lists every output whose digest differs, or that only one side
has, with the largest relative difference max|a - b| / max|a| of its
arrays, and exits 1 when it lists any.  Run both sides on the same machine:
BLAS builds can differ in the last bits, so digests are not fixtures.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

import numpy as np

VARIANTS = {
    "plain": {},
    "track_ito": {"solver.track_ito": "true"},
    "advection-off": {"solver.advection": "off"},
    "modified": {"solver.equation": "modified", "solver.kappa_cutoff": "0.05", "solver.store_stride": "1"},
    "forced": {
        "forcing.kind": "single-mode",
        "forcing.amplitude": "0.5",
        "stopping.weak": "0.5",
        "stopping.temperature": "1e-4",
        "stopping.blowup": "0.5,2",
        "solver.store_stride": "1",
    },
    "semi-implicit": {"solver.scheme": "semi-implicit", "solver.store_stride": "3"},
}
# the Galerkin cut of the "cut" variant, which a preset with no more modes skips
CUT_MODES = 47
PRESET_CUTS = {"smallnoise-888": 100}
PATHS = (0, 1, 2, 5)
# shortened so that the whole list runs in about two seconds
PRESET_CHANGES = {"linear-decay": {"solver.t_end": "0.5"}}
# paths per ensemble: a full chunk of the step grid and a partial one (16, 4
# and 512 paths a chunk)
ENSEMBLES = {"example1-small": 20, "smallnoise-888": 6, "ou-single-mode": 513}
ENSEMBLE_WORKERS = (1, 2)
# the store_stride ladder of the ``stride`` group
STRIDE_PRESET = "example1-small"
STRIDES = (1, 4, 16)
# ``stochpe run`` arguments that should exit 3 (a blow-up) or 2 (a configuration error)
EXIT_COMMANDS = {
    "overflow": [
        "--set", "domain.N1=2", "--set", "domain.N2=2", "--set", "domain.M=1",
        "--set", "noise.family=example1", "--set", "noise.amp_alpha=4000",
        "--set", "solver.dt=0.05", "--set", "solver.t_end=40.0", "--set", "solver.store_stride=20",
    ],
    "noise-K0": ["--preset", "example1-small", "--set", "noise.K=0"],
    "removed-rho0": ["--preset", "example1-small", "--set", "physics.rho0=1.0"],
}


def _import_stochpe(src: str):
    """stochpe from the checkout directory ``src``."""
    src = os.path.realpath(src)
    sys.path.insert(0, src)
    import stochpe

    if not os.path.realpath(stochpe.__file__).startswith(src + os.sep):
        raise SystemExit(f"stochpe is already imported from {stochpe.__file__}, not from {src}")
    return stochpe


def _presets(stochpe) -> list:
    folder = os.path.join(os.path.dirname(stochpe.__file__), "presets")
    return sorted(name[: -len(".cfg")] for name in os.listdir(folder) if name.endswith(".cfg"))


def _path_outputs(traj) -> dict:
    """Every output of one trajectory as named arrays."""
    recs = traj.records
    out = {
        "records": np.array([r.row() for r in recs], dtype=float),
        "times": np.asarray(traj.times, dtype=float),
        "hits": np.array([np.nan if traj.hits[k] is None else traj.hits[k] for k in sorted(traj.hits)]),
        "summary": np.array(
            [
                traj.blowup,
                np.nan if traj.blowup_time is None else traj.blowup_time,
                traj.sup_V_sq,
                traj.sup_H_sq,
                traj.int_DA_sq,
                traj.int_DA_V2,
                traj.kappa,
                traj.ito_quadratic,
                traj.n_steps_done,
            ],
            dtype=float,
        ),
    }
    for group in ("extras", "stopping"):
        for key in getattr(recs[0], group):
            out[f"{group}/{key}"] = np.array([getattr(r, group)[key] for r in recs], dtype=float)
    if traj.states is not None:
        out["states"] = traj.states
    if traj.final_state is not None:
        out["final_state"] = traj.final_state.coeffs
    if traj.ito_integral is not None:
        out["ito_integral"] = traj.ito_integral.coeffs
    return out


def _cli_outputs(stochpe, preset: str, changes: dict, root: str) -> dict:
    """The ``stochpe run`` files of one preset: their bytes, and their values as arrays."""
    from stochpe.cli import main

    argv = ["run", "--preset", preset, "--output-root", root, "--label", preset]
    for key, value in changes.items():
        argv += ["--set", f"{key}={value}"]
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    out = {}
    csv_path = os.path.join(root, preset, "trajectory.csv")
    with open(csv_path, "rb") as fh:
        raw = fh.read()
    out["trajectory.csv"] = (raw, np.loadtxt(csv_path, delimiter=",", skiprows=2, ndmin=2))
    ckpt = os.path.join(root, preset, "checkpoint.json")
    if os.path.exists(ckpt):
        with open(ckpt, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
        coeffs = np.frombuffer(base64.b64decode(doc["coeffs_b64"]), dtype="<c16").reshape(doc["shape"])
        out["checkpoint.json"] = (raw, coeffs)
    return out


def _variants(preset: str, n_modes: int) -> dict:
    """``VARIANTS``, and ``cut`` when the preset has more than its cut's modes."""
    n = PRESET_CUTS.get(preset, CUT_MODES)
    return {**VARIANTS, **({"cut": {"solver.n_galerkin": str(n)}} if n_modes > n else {})}


def _growth_outputs() -> dict:
    """Every field of the ``estimate_growth_constants`` report (100 samples) and
    ``kappa_sq`` on the full and half-plane layouts, for three noise operators
    on a 3^3 grid, and ``spectral.norms`` of one random state there."""
    from stochpe.noise import estimate_growth_constants, example1_noise, example2_noise
    from stochpe.spectral import DomainSpec, Grid, norms, random_state

    g = Grid(DomainSpec(L2=4.0, h=1.5, N1=3, N2=3, M=3, mu=0.7, nu=0.3))
    # transport strong enough that the fitted etas, eta2 among them, are nonzero
    amps = dict(K=3, amp_phi=3.0, amp_chi=0.3, amp_alpha=0.1)
    operators = {
        "example1-osc0": example1_noise(g, amp_psi=3.0, osc=0, **amps),
        "example1-osc2": example1_noise(g, amp_psi=3.0, osc=2, **amps),
        "example2-osc1": example2_noise(g, osc=1, **amps),
    }
    out = {}
    for name, spec in operators.items():
        rep = estimate_growth_constants(spec, sample_count=100)
        fields = [rep.eta0, rep.eta1, rep.eta2, rep.eta3, rep.gamma, rep.C_BDG, rep.p]
        for group in (rep.bounds, rep.passes, rep.ols_slopes):
            fields += [group[k] for k in sorted(group)]
        out[f"growth/{name}/report"] = np.array(fields, dtype=float)
        out[f"growth/{name}/kappa_sq"] = np.array([spec.kappa_sq, spec.restricted(g.half_plane()).kappa_sq])
    n = norms(random_state(g, np.random.default_rng(23)))
    out["growth/norms"] = np.array([n.H, n.V, n.DA, *n.L6, n.dz_L2, n.boundary_L2_top])
    return out


def _summary_row(summary: dict) -> list:
    """One ``run_ensemble`` path summary as numbers: its scalar fields by name,
    then its hitting times by level name (NaN where a level is not hit)."""
    hits = summary["hits"]
    scalars = [summary[k] for k in sorted(summary) if k != "hits"]
    return scalars + [np.nan if hits[k] is None else hits[k] for k in sorted(hits)]


def _ensemble_outputs() -> dict:
    """The ``run_ensemble`` path summaries (one row per path, ``_summary_row``)
    and every field of the ``ito_isometry_check`` result, by name, of each
    ``ENSEMBLES`` preset at each of ``ENSEMBLE_WORKERS``."""
    from stochpe.cli import _preset_text
    from stochpe.config import build_solver_config, parse_config_text
    from stochpe.experiments import ito_isometry_check, run_ensemble

    out = {}
    for preset, n_paths in ENSEMBLES.items():
        cfg = build_solver_config(parse_config_text(_preset_text(preset)))
        for workers in ENSEMBLE_WORKERS:
            key = f"ensemble/{preset}/workers{workers}"
            summaries = run_ensemble(cfg, n_paths, workers)
            out[f"{key}/paths"] = np.array([_summary_row(s) for s in summaries], dtype=float)
            check = ito_isometry_check(cfg, n_paths, workers)
            out[f"{key}/isometry"] = np.array([check[k] for k in sorted(check)], dtype=float)
    return out


def _stride_outputs() -> dict:
    """Every output of ``run_paths(PATHS)`` with stored states on
    ``STRIDE_PRESET`` at each ``store_stride`` of ``STRIDES``."""
    from stochpe.cli import _preset_text
    from stochpe.config import build_solver_config, parse_config_text
    from stochpe.solver import run_paths

    out = {}
    for stride in STRIDES:
        cfg = build_solver_config(parse_config_text(f"{_preset_text(STRIDE_PRESET)}\nsolver.store_stride = {stride}"))
        cfg.store_states = True
        for tid, traj in zip(PATHS, run_paths(cfg, PATHS)):
            for name, a in _path_outputs(traj).items():
                out[f"stride/{STRIDE_PRESET}/{stride}/path{tid}/{name}"] = a
    return out


def _malformed_files(root: str) -> dict:
    """``stochpe run`` arguments of ``example1-small`` on three malformed input
    files written to ``root``: a noise file with a short alpha, a family-2 noise
    file with psi, and a saved state whose coefficient block is a number."""
    from stochpe.checkpoint import save_noise, save_state
    from stochpe.cli import _preset_text
    from stochpe.config import build_solver_config, parse_config_text
    from stochpe.noise import example1_noise, example2_noise
    from stochpe.spectral import random_state

    grid = build_solver_config(parse_config_text(_preset_text("example1-small"))).grid
    short = example1_noise(grid, K=4, amp_phi=0.1, amp_alpha=0.1)
    short.alpha = short.alpha[:2]
    psi = example2_noise(grid, K=4, amp_phi=0.1)
    psi.psi = np.full_like(psi.psi, 0.1)
    overrides = {}
    for name, spec in (("noise-short-alpha", short), ("noise-family2-psi", psi)):
        path = os.path.join(root, f"{name}.json")
        save_noise(spec, path)
        overrides[name] = ("noise.family=file", f"noise.file={path}")
    path = os.path.join(root, "checkpoint-int-coeffs.json")
    save_state(random_state(grid, np.random.default_rng(0)), path)
    with open(path) as fh:
        doc = json.load(fh)
    doc["coeffs_b64"] = 5
    with open(path, "w") as fh:
        json.dump(doc, fh)
    overrides["checkpoint-int-coeffs"] = ("init.kind=checkpoint", f"init.path={path}")
    return {name: ["--preset", "example1-small", "--set", a, "--set", b] for name, (a, b) in overrides.items()}


def _exit_outputs(root: str) -> dict:
    """The exit code of each ``EXIT_COMMANDS`` run and of each run on a
    malformed file (``_malformed_files``), or the name of the exception that
    escapes ``stochpe.cli.main``."""
    from stochpe.cli import main

    out = {}
    for name, args in {**EXIT_COMMANDS, **_malformed_files(root)}.items():
        argv = ["run", *args, "--output-root", root, "--label", f"exit-{name}"]
        try:
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()) as log:
                warnings.simplefilter("ignore")  # the overflow warns
                with contextlib.redirect_stderr(log):
                    out[f"exit/{name}"] = np.array([main(argv)])
        except Exception as exc:  # an escaping exception is the command's outcome
            out[f"exit/{name}"] = np.array([type(exc).__name__])
    return out


def _digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def run(src: str, out_dir: str, presets=None) -> dict:
    """Run the list on the checkout ``src``, for every shipped preset or the
    named ``presets``; write and return the digests."""
    stochpe = _import_stochpe(src)
    from stochpe.cli import _preset_text
    from stochpe.config import build_solver_config, parse_config_text
    from stochpe.solver import run_paths

    digests, arrays = {}, {}
    with tempfile.TemporaryDirectory() as root:
        for preset in presets or _presets(stochpe):
            changes = PRESET_CHANGES.get(preset, {})
            n_modes = build_solver_config(parse_config_text(_preset_text(preset))).grid.n_modes_total
            for variant, values in _variants(preset, n_modes).items():
                text = "\n".join([_preset_text(preset), *(f"{k} = {v}" for k, v in {**changes, **values}.items())])
                cfg = build_solver_config(parse_config_text(text))
                cfg.store_states = True
                for tid, traj in zip(PATHS, run_paths(cfg, PATHS)):
                    for name, a in _path_outputs(traj).items():
                        key = f"{preset}/{variant}/path{tid}/{name}"
                        digests[key], arrays[key] = _digest(a), a
            for name, (raw, a) in _cli_outputs(stochpe, preset, changes, root).items():
                key = f"{preset}/cli/{name}"
                digests[key], arrays[key] = hashlib.sha256(raw).hexdigest(), a
        for key, a in {**_growth_outputs(), **_ensemble_outputs(), **_stride_outputs(), **_exit_outputs(root)}.items():
            digests[key], arrays[key] = _digest(a), a
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    np.savez(os.path.join(out_dir, "arrays.npz"), **arrays)
    return digests


def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max|a - b| / max|a| over the entries, NaN where they sit at the same place
    in both; inf when the shapes or the NaN places differ, or when either side
    is not numbers (an exception's name) and the two are not equal."""
    if a.dtype.kind not in "biufc" or b.dtype.kind not in "biufc":
        return 0.0 if np.array_equal(a, b) else float("inf")
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return float("inf")
    a, b = np.nan_to_num(a, nan=0.0), np.nan_to_num(b, nan=0.0)
    scale = np.abs(a).max(initial=0.0)
    diff = np.abs(a - b).max(initial=0.0)
    if diff == 0.0:
        return 0.0
    return float(diff / scale) if scale > 0 else float("inf")


def diff(dir_a: str, dir_b: str) -> list:
    """(output, largest relative difference) of every output whose digest
    differs; an output on one side only gives None."""
    docs, arrays = [], []
    for d in (dir_a, dir_b):
        with open(os.path.join(d, "digests.json")) as fh:
            docs.append(json.load(fh))
        arrays.append(np.load(os.path.join(d, "arrays.npz")))
    a, b = docs
    out = []
    for key in sorted(set(a) | set(b)):
        if a.get(key) == b.get(key):
            continue
        out.append((key, rel_diff(arrays[0][key], arrays[1][key]) if key in a and key in b else None))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the fixed list on one checkout")
    p_run.add_argument("--src", required=True, help="the checkout's src directory")
    p_run.add_argument("--out", required=True, help="output directory")
    p_diff = sub.add_parser("diff", help="compare the outputs of two runs")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        digests = run(args.src, args.out)
        print(f"parity: {len(digests)} outputs -> {args.out}")
        return 0
    differing = diff(args.a, args.b)
    for key, rel in differing:
        print(f"{key}\t{'only on one side' if rel is None else f'max rel diff {rel:.3e}'}")
    print(f"parity: {len(differing)} differing outputs")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
