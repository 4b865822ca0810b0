"""Command line front end: run / ensemble / verify / converge.

Every invocation resolves a full flat configuration (file or shipped preset
plus ``--set`` overrides), validates it before touching the filesystem, and
writes a manifest holding the resolved configuration, the package version
and the seed, which together determine every output byte.  Wall-clock
timestamps in the manifest are informational only.

Exit codes: 0 success, 1 verification failure, 2 configuration/usage error,
3 numerical blow-up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from functools import lru_cache
from importlib import resources

from . import __version__
from .config import (
    ConfigError,
    apply_overrides,
    build_solver_config,
    config_defaults,
    load_config_file,
    parse_config_text,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3


# per-path values written to an ensemble's paths.csv after the hitting times
PATH_COLUMNS = ("final_H_sq", "final_V_sq", "sup_V_sq", "int_DA_sq")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _preset_text(name: str) -> str:
    ref = resources.files("stochpe").joinpath("presets", f"{name}.cfg")
    if not ref.is_file():
        available = sorted(
            p.name[: -len(".cfg")]
            for p in resources.files("stochpe").joinpath("presets").iterdir()
            if p.name.endswith(".cfg")
        )
        raise ConfigError(f"unknown preset {name!r}; available: {available}")
    return ref.read_text()


def _resolve_values(args) -> dict:
    if args.config and args.preset:
        raise ConfigError("pass either --config or --preset, not both")
    if args.config:
        values = load_config_file(args.config)
    elif args.preset:
        values = parse_config_text(_preset_text(args.preset))
    else:
        values = config_defaults()
    return apply_overrides(values, args.set)


def _outdir(args, default_label: str) -> str:
    root = args.output_root or os.environ.get("STOCHPE_OUTPUT", "runs")
    label = args.label or default_label
    path = os.path.join(root, label)
    os.makedirs(path, exist_ok=True)
    return path


def _label_from(args, sub: str) -> str:
    if args.preset:
        return f"{sub}-{args.preset}"
    if args.config:
        stem = os.path.splitext(os.path.basename(args.config))[0]
        return f"{sub}-{stem}"
    return sub


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _lambda_max_dt(cfg) -> float:
    """The largest eigenvalue of A over the retained modes times dt: where it
    exceeds 1 the step is stiff on the top modes, and the running integrals
    are only first-order accurate in dt."""
    return float(cfg.grid.lam_sorted[cfg.n_galerkin - 1] * cfg.dt)


def _write_manifest(outdir, command, values, outputs, verdicts, started, **fields):
    """Write ``manifest.json``; ``fields`` are further top-level entries."""
    manifest = {
        "package": "stochpe",
        "version": __version__,
        "command": command,
        "config": {k: values[k] for k in sorted(values)},
        "seed": values["solver.seed"],
        "started_utc": started,
        "finished_utc": _now(),
        "outputs": outputs,
        "verdicts": verdicts,
        **fields,
    }
    path = os.path.join(outdir, "manifest.json")
    _write_json(path, manifest)
    return path


def _write_paths_csv(path, summaries):
    """One row per path, in path order: outcome, first-hitting times (empty
    where the level is not reached) and final norms."""
    hit_names = list(summaries[0]["hits"])
    with open(path, "w") as fh:
        fh.write(",".join(["trajectory", "blowup", *(f"hit_{k}" for k in hit_names), *PATH_COLUMNS]) + "\n")
        for s in summaries:
            hits = ["" if s["hits"][k] is None else _fmt(s["hits"][k]) for k in hit_names]
            row = [str(s["trajectory"]), str(int(s["blowup"])), *hits, *(_fmt(s[c]) for c in PATH_COLUMNS)]
            fh.write(",".join(row) + "\n")


def _write_csv(path, records):
    from .diagnostics import CSV_COLUMNS

    with open(path, "w") as fh:
        fh.write("# stochpe-diagnostics-csv v1\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in records:
            fh.write(",".join(_fmt(v) for v in rec.row()) + "\n")


def cmd_run(args) -> int:
    started = _now()
    values = _resolve_values(args)
    cfg = build_solver_config(values)

    from .solver import run_trajectory

    traj = run_trajectory(cfg)
    outdir = _outdir(args, _label_from(args, "run"))
    outputs = []
    csv_path = os.path.join(outdir, "trajectory.csv")
    _write_csv(csv_path, traj.records)
    outputs.append(csv_path)
    if traj.final_state is not None:
        from .checkpoint import save_state

        ckpt = os.path.join(outdir, "checkpoint.json")
        save_state(traj.final_state, ckpt)
        outputs.append(ckpt)
    verdicts = {
        "blowup": traj.blowup,
        "blowup_time": traj.blowup_time,
        "hits": {k: v for k, v in traj.hits.items()},
        "final_H_sq": traj.records[-1].H_sq,
        "initial_H_sq": traj.records[0].H_sq,
        "sup_V_sq": traj.sup_V_sq,
        "int_DA_sq": traj.int_DA_sq,
        "kappa_cutoff": traj.kappa,
    }
    _write_manifest(outdir, "run", values, outputs, verdicts, started, lambda_max_dt=_lambda_max_dt(cfg))
    print(f"run: wrote {outdir} (blowup={traj.blowup})")
    return EXIT_BLOWUP if traj.blowup else EXIT_OK


def cmd_ensemble(args) -> int:
    started = _now()
    if args.paths < 1:
        raise ConfigError("--paths must be at least 1")
    values = _resolve_values(args)
    cfg = build_solver_config(values)

    from .diagnostics import summarize_ensemble
    from .experiments import run_ensemble

    summaries = run_ensemble(cfg, args.paths, workers=args.workers)
    fields = ("sup_V_sq", "sup_H_sq", "int_DA_sq", "final_H_sq", "final_V_sq", "apriori")
    rep = summarize_ensemble(summaries, fields)
    blowups = sum(1 for s in summaries if s["blowup"])
    hit_counts = {}
    for s in summaries:
        for k, v in s["hits"].items():
            hit_counts.setdefault(k, 0)
            hit_counts[k] += v is not None

    outdir = _outdir(args, _label_from(args, "ensemble"))
    doc = {
        "schema": "stochpe-ensemble-report v1",
        "n_paths": rep.n_paths,
        "workers": args.workers,
        "means": rep.means,
        "std_errors": rep.std_errors,
        "blowups": blowups,
        "hit_counts": hit_counts,
    }
    out_path = os.path.join(outdir, "ensemble.json")
    _write_json(out_path, doc)
    paths_csv = os.path.join(outdir, "paths.csv")
    _write_paths_csv(paths_csv, summaries)
    verdicts = {"blowups": blowups}
    outputs = [out_path, paths_csv]
    _write_manifest(outdir, "ensemble", values, outputs, verdicts, started, lambda_max_dt=_lambda_max_dt(cfg))
    print(f"ensemble: {rep.n_paths} paths -> {out_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    started = _now()
    values = _resolve_values(args)
    grid = build_solver_config(values).grid if (args.config or args.preset) else None

    from .verify import run_suite

    result = run_suite(args.suite, grid)
    outdir = _outdir(args, f"verify-{args.suite}")
    out_path = os.path.join(outdir, "verify.json")
    _write_json(out_path, result)
    _write_manifest(outdir, "verify", values, [out_path], {"passed": result["passed"]}, started)
    for c in result["checks"]:
        print(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}")
    print(f"verify {args.suite}: {'PASS' if result['passed'] else 'FAIL'} -> {out_path}")
    return EXIT_OK if result["passed"] else EXIT_VERIFY_FAILED


def cmd_converge(args) -> int:
    started = _now()
    values = _resolve_values(args)
    cfg = build_solver_config(values)
    if bool(args.dt_list) == bool(args.n_list):
        raise ConfigError("pass exactly one of --dt-list or --n-list")

    from .experiments import convergence_study, spatial_projection_study

    if args.dt_list:
        dts = [float(s) for s in args.dt_list.split(",")]
        result = convergence_study(cfg, dts, n_paths=args.paths)
        doc = {
            "schema": "stochpe-convergence v1",
            "kind": "temporal",
            "errors": {str(k): v for k, v in result["errors"].items()},
            "order": result["order"],
            "ref_dt": result["ref_dt"],
            "n_paths": result["n_paths"],
        }
        verdict = {"order": result["order"]}
        print(f"temporal convergence: fitted order {result['order']:.3f}")
    else:
        ns = [int(s) for s in args.n_list.split(",")]
        result = spatial_projection_study(cfg, ns)
        doc = {
            "schema": "stochpe-convergence v1",
            "kind": "spatial",
            "n": result["n"],
            "errors": result["errors"],
        }
        verdict = {"errors": result["errors"]}
        print("spatial projection errors:", ", ".join(_fmt(e) for e in result["errors"]))

    outdir = _outdir(args, _label_from(args, "converge"))
    out_path = os.path.join(outdir, "converge.json")
    _write_json(out_path, doc)
    _write_manifest(outdir, "converge", values, [out_path], verdict, started)
    return EXIT_OK


def _add_config_opts(p):
    p.add_argument("--config", help="path to a flat key=value configuration file")
    p.add_argument("--preset", help="name of a shipped preset configuration")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a configuration key")
    p.add_argument("--output-root", help="output root directory (default: $STOCHPE_OUTPUT or ./runs)")
    p.add_argument("--label", help="output subdirectory name (default derived from the config)")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it as
    it is (``--set`` appends to a fresh list per call, as its default is None)."""
    parser = argparse.ArgumentParser(
        prog="stochpe",
        description="Spectral-Galerkin simulator and verification harness for the "
        "stochastic primitive equations with transport noise.",
    )
    parser.add_argument("--version", action="version", version=f"stochpe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a single trajectory")
    _add_config_opts(p_run)

    p_ens = sub.add_parser("ensemble", help="integrate an ensemble of trajectories")
    _add_config_opts(p_ens)
    p_ens.add_argument("--paths", type=int, default=100)
    p_ens.add_argument("--workers", type=int, default=1)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    _add_config_opts(p_ver)
    p_ver.add_argument(
        "--suite",
        default="all",
        help="operators | noise | solver | diagnostics | all",
    )

    p_con = sub.add_parser("converge", help="temporal or spatial convergence study")
    _add_config_opts(p_con)
    p_con.add_argument("--dt-list", help="comma-separated nested time steps")
    p_con.add_argument("--n-list", help="comma-separated Galerkin mode counts")
    p_con.add_argument("--paths", type=int, default=4, help="frozen paths averaged in the study")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so that a wrapped command (a tracer's, say) is the one that runs
    command = {"run": cmd_run, "ensemble": cmd_ensemble, "verify": cmd_verify, "converge": cmd_converge}
    try:
        return command[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
