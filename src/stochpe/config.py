"""Flat key/value run configuration with dotted namespaces.

Format: one ``key = value`` per line, ``#`` comments, blank lines ignored.
Unknown keys are hard errors so every constant in a run is spelled out in
the schema below and lands in the manifest; there are no silent defaults
beyond the documented ones.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import STOPPING_FUNCTIONALS
from .noise import NoiseSpec, additive_single_mode_noise, example1_noise, example2_noise, zero_noise
from .operators import PhysicsParams
from .solver import InitSpec, SolverConfig
from .spectral import DomainSpec, Grid, single_mode_state

__all__ = [
    "ConfigError",
    "SCHEMA",
    "parse_config_text",
    "apply_overrides",
    "load_config_file",
    "build_solver_config",
    "config_defaults",
]


class ConfigError(ValueError):
    pass


def _bool(s: str) -> bool:
    if s.lower() in ("true", "yes", "on", "1"):
        return True
    if s.lower() in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


# key -> (parser, default)
SCHEMA = {
    "domain.L1": (float, 2 * np.pi),
    "domain.L2": (float, 2 * np.pi),
    "domain.h": (float, 1.0),
    "domain.N1": (int, 4),
    "domain.N2": (int, 4),
    "domain.M": (int, 4),
    "domain.mu": (float, 1.0),
    "domain.nu": (float, 1.0),
    "physics.f": (float, 1.0),
    "physics.beta_T": (float, 0.1),
    "physics.g": (float, 1.0),
    "noise.family": (str, "zero"),  # zero | example1 | example2 | additive | file
    "noise.K": (int, 4),
    "noise.amp_phi": (float, 0.0),
    "noise.amp_psi": (float, 0.0),
    "noise.amp_chi": (float, 0.0),
    "noise.amp_alpha": (float, 0.0),
    "noise.decay": (float, 1.0),
    "noise.osc": (int, 0),
    "noise.include_temperature": (_bool, False),
    "noise.field": (str, "v2"),
    "noise.kx": (int, 1),
    "noise.ky": (int, 0),
    "noise.m": (int, 0),
    "noise.amplitude": (float, 1.0),
    "noise.file": (str, ""),
    "solver.n_galerkin": (str, "all"),
    "solver.dt": (float, 1e-2),
    "solver.t_end": (float, 1.0),
    "solver.kappa_cutoff": (str, "auto"),
    "solver.scheme": (str, "exponential"),
    "solver.equation": (str, "original"),
    "solver.seed": (int, 0),
    "solver.store_stride": (int, 1),
    "solver.advection": (_bool, True),
    "solver.track_ito": (_bool, False),
    "init.kind": (str, "random"),
    "init.amplitude": (float, 1.0),
    "init.decay": (float, 2.0),
    "init.seed": (int, 1234),
    "init.field": (str, "v1"),
    "init.kx": (int, 1),
    "init.ky": (int, 0),
    "init.m": (int, 1),
    "init.path": (str, ""),
    "forcing.kind": (str, "zero"),  # zero | single-mode
    "forcing.field": (str, "v1"),
    "forcing.kx": (int, 1),
    "forcing.ky": (int, 0),
    "forcing.m": (int, 0),
    "forcing.amplitude": (float, 0.0),
    **{f"stopping.{name}": (str, "") for name in STOPPING_FUNCTIONALS},
    "stopping.blowup": (str, ""),  # comma-separated levels
}


def config_defaults() -> dict:
    return {k: default for k, (_, default) in SCHEMA.items()}


def _set(values: dict, key: str, val: str, where: str):
    """Parse ``val`` for the schema key ``key`` into ``values``; errors name ``where``."""
    if key not in SCHEMA:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        values[key] = SCHEMA[key][0](val)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"{where}: bad value for {key}: {val!r} ({exc})") from exc


def parse_config_text(text: str, base: dict | None = None) -> dict:
    """Parse ``key = value`` lines on top of the schema defaults."""
    values = dict(base) if base is not None else config_defaults()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        _set(values, key.strip(), val.strip(), f"line {lineno}")
    return values


def apply_overrides(values: dict, overrides: list | None) -> dict:
    """``values`` with each ``key=value`` override applied in order (``--set``).
    The value is everything after the first ``=``, taken verbatim with its
    surrounding whitespace stripped: an override has no comments, so ``#``
    is part of the value."""
    values = dict(values)
    for item in overrides or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise ConfigError(f"override must be key=value, got {item!r}")
        _set(values, key.strip(), val.strip(), f"override {item!r}")
    return values


def _unreadable(exc: OSError) -> ConfigError:
    return ConfigError(f"cannot read {exc.filename}: {exc.strerror or exc}")


def load_config_file(path: str, overrides: list | None = None) -> dict:
    """A configuration file's values with ``overrides`` applied (``apply_overrides``)."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise _unreadable(exc) from exc
    return apply_overrides(parse_config_text(text), overrides)


def _build_noise(values: dict, grid: Grid) -> NoiseSpec:
    fam = values["noise.family"]
    if values["noise.K"] < 1:
        # checked for every family: the additive family never reads noise.K
        raise ConfigError(f"K must be >= 1, got noise.K = {values['noise.K']}")
    common = dict(
        K=values["noise.K"],
        amp_chi=values["noise.amp_chi"],
        amp_alpha=values["noise.amp_alpha"],
        decay=values["noise.decay"],
        osc=values["noise.osc"],
        include_temperature=values["noise.include_temperature"],
    )
    if fam == "zero":
        return zero_noise(grid, K=values["noise.K"])
    if fam == "example1":
        return example1_noise(
            grid, amp_phi=values["noise.amp_phi"], amp_psi=values["noise.amp_psi"], **common
        )
    if fam == "example2":
        return example2_noise(grid, amp_phi=values["noise.amp_phi"], **common)
    if fam == "additive":
        return additive_single_mode_noise(
            grid,
            values["noise.field"],
            values["noise.kx"],
            values["noise.ky"],
            values["noise.m"],
            values["noise.amplitude"],
        )
    if fam == "file":
        from .checkpoint import load_noise

        if not values["noise.file"]:
            raise ConfigError("noise.family = file requires noise.file")
        return load_noise(values["noise.file"], grid)
    raise ConfigError(f"unknown noise.family {fam!r}")


def _parse_levels(values: dict) -> tuple:
    levels = {}
    for name in STOPPING_FUNCTIONALS:
        raw = values[f"stopping.{name}"]
        if raw:
            levels[name] = float(raw)
    blowup = ()
    if values["stopping.blowup"]:
        blowup = tuple(float(s) for s in values["stopping.blowup"].split(","))
    return levels, blowup


def build_solver_config(values: dict) -> SolverConfig:
    """Validate a flat configuration and assemble the runnable object."""
    try:
        spec = DomainSpec(
            L1=values["domain.L1"],
            L2=values["domain.L2"],
            h=values["domain.h"],
            N1=values["domain.N1"],
            N2=values["domain.N2"],
            M=values["domain.M"],
            mu=values["domain.mu"],
            nu=values["domain.nu"],
        )
        grid = Grid.of(spec)
        physics = PhysicsParams(
            f=values["physics.f"],
            beta_T=values["physics.beta_T"],
            g=values["physics.g"],
        )
        noise = _build_noise(values, grid)
        init = InitSpec(
            kind=values["init.kind"],
            amplitude=values["init.amplitude"],
            decay=values["init.decay"],
            seed=values["init.seed"],
            field_name=values["init.field"],
            kx=values["init.kx"],
            ky=values["init.ky"],
            m=values["init.m"],
            path=values["init.path"],
        )
        if init.kind == "checkpoint":
            from .checkpoint import load_state

            load_state(init.path, grid)  # a missing or mismatched file is a configuration error
        forcing = None
        if values["forcing.kind"] == "single-mode":
            forcing = single_mode_state(
                grid,
                values["forcing.field"],
                values["forcing.kx"],
                values["forcing.ky"],
                values["forcing.m"],
                values["forcing.amplitude"],
            )
        elif values["forcing.kind"] != "zero":
            raise ConfigError(f"unknown forcing.kind {values['forcing.kind']!r}")

        n_gal = values["solver.n_galerkin"]
        n_galerkin = None if n_gal == "all" else int(n_gal)
        kappa = values["solver.kappa_cutoff"]
        kappa_cutoff = None if kappa == "auto" else float(kappa)
        levels, blowup = _parse_levels(values)
        return SolverConfig(
            grid=grid,
            physics=physics,
            noise=noise,
            init=init,
            n_galerkin=n_galerkin,
            dt=values["solver.dt"],
            t_end=values["solver.t_end"],
            kappa_cutoff=kappa_cutoff,
            scheme=values["solver.scheme"],
            equation=values["solver.equation"],
            seed=values["solver.seed"],
            store_stride=values["solver.store_stride"],
            advection=values["solver.advection"],
            forcing=forcing,
            stopping_levels=levels,
            blowup_levels=blowup,
            track_ito=values["solver.track_ito"],
        )
    except ConfigError:
        raise
    except OSError as exc:
        raise _unreadable(exc) from exc
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc
