"""Span tracer that wraps stochpe's public functions from outside the package.

Each wrapped call records a span (name, start, end, parent span, run id) in
memory; ``save`` writes them all out once the traced phase has ended.  A function bound into
another module with ``from .x import f`` is a separate name there, so every
``stochpe.*`` module attribute that holds the original function is replaced,
not only the defining one.  ``SpectralState`` construction is counted
without a span, because a span per allocation would dominate the cost of
the small states it counts.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import sys
import time

import numpy as np

# (defining module, attribute path) of every wrapped callable
TARGETS = (
    ("stochpe.spectral", "Grid.synth_cos"),
    ("stochpe.spectral", "Grid.synth_sin"),
    ("stochpe.spectral", "Grid.synth_cos2d"),
    ("stochpe.spectral", "Grid.analyze_cos"),
    ("stochpe.spectral", "Grid.analyze_cos2d"),
    ("stochpe.spectral", "h_norm_sq"),
    ("stochpe.spectral", "v_norm_sq"),
    ("stochpe.spectral", "da_norm_sq"),
    ("stochpe.spectral", "grad3_dz_sq"),
    ("stochpe.spectral", "norms"),
    ("stochpe.operators", "bilinear_B"),
    ("stochpe.operators", "leray_project"),
    ("stochpe.operators", "forcing_F"),
    ("stochpe.noise", "apply_sigma"),
    ("stochpe.noise", "hs_norm_sq"),
    ("stochpe.noise", "WienerStream.sample"),
    ("stochpe.solver", "Stepper.__init__"),
    ("stochpe.solver", "Stepper.advance"),
    ("stochpe.solver", "run_trajectory"),
    ("stochpe.diagnostics", "record"),
    ("stochpe.experiments", "run_ensemble"),
    ("stochpe.config", "build_solver_config"),
    ("stochpe.checkpoint", "save_state"),
    ("stochpe.cli", "cmd_run"),
)
ALLOC_TARGET = ("stochpe.spectral", "SpectralState.__post_init__")
ALLOC = "SpectralState.__post_init__"

SYNTH = ("Grid.synth_cos", "Grid.synth_sin", "Grid.synth_cos2d")
ANALYZE = ("Grid.analyze_cos", "Grid.analyze_cos2d")
NORMS = ("h_norm_sq", "v_norm_sq", "da_norm_sq", "grad3_dz_sq", "norms")


def _resolve(module: str, path: str):
    """(owner object, attribute name, original callable) for a target."""
    owner = sys.modules[module]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index or -1, run id)
        self.allocs = {}  # run id -> SpectralState constructions
        self.run_id = None
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self.originals = {}  # span name -> original callable

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.run_id)

        return wrapper

    def _count_allocs(self, fn):
        allocs = self.allocs
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            allocs[tracer.run_id] = allocs.get(tracer.run_id, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, original, replacement):
        if isinstance(owner, type):
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, original))
            return
        # module-level function: rebind it in every stochpe namespace
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "stochpe" or mod_name.startswith("stochpe.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._patches.append((mod, key, original))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, path in TARGETS:
            owner, attr, original = _resolve(module, path)
            self.originals[path] = original
            self._patch(owner, attr, original, self._wrap(path, original))
        owner, attr, original = _resolve(*ALLOC_TARGET)
        self.originals[ALLOC] = original
        self._patch(owner, attr, original, self._count_allocs(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def save(self, path):
        """Write every span to ``path`` as a numpy ``.npz`` of parallel arrays.

        Span ``i`` is ``names[name[i]]``, from ``start_ns[i]`` to ``end_ns[i]``
        (``time.perf_counter_ns``), inside span ``parent[i]`` (-1 for none),
        in run ``runs[run[i]]``."""
        name, t0, t1, parent, rid = zip(*self.spans) if self.spans else ((),) * 5
        names = sorted(set(name))
        runs = sorted({str(r) for r in rid})
        name_ix = {n: i for i, n in enumerate(names)}
        run_ix = {r: i for i, r in enumerate(runs)}
        np.savez_compressed(
            path,
            names=np.array(names, dtype=str),
            runs=np.array(runs, dtype=str),
            name=np.array([name_ix[n] for n in name], dtype=np.int16),
            start_ns=np.array(t0, dtype=np.int64),
            end_ns=np.array(t1, dtype=np.int64),
            parent=np.array(parent, dtype=np.int64),
            run=np.array([run_ix[str(r)] for r in rid], dtype=np.int32),
        )

    # -- reductions ---------------------------------------------------------

    def summary(self, run_ids) -> dict:
        """Per span name over ``run_ids``: calls, inclusive and self time (us),
        plus transforms made inside ``Stepper.advance`` and the ensemble
        overhead (``run_ensemble`` time not spent in its trajectories)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        in_advance = [False] * len(spans)
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += t1 - t0
                in_advance[i] = in_advance[parent] or spans[parent][0] == "Stepper.advance"
        calls, incl, self_t = {}, {}, {}
        transforms_in_advance = 0
        traj_in_ensemble_ns = 0
        for i, (name, t0, t1, parent, rid) in enumerate(spans):
            if rid not in run_ids:
                continue
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + (t1 - t0) / 1e3
            self_t[name] = self_t.get(name, 0.0) + (t1 - t0 - child_ns[i]) / 1e3
            if in_advance[i] and (name in SYNTH or name in ANALYZE):
                transforms_in_advance += 1
            if name == "run_trajectory" and parent >= 0 and spans[parent][0] == "run_ensemble":
                traj_in_ensemble_ns += t1 - t0
        calls[ALLOC] = sum(n for rid, n in self.allocs.items() if rid in run_ids)
        return {
            "calls": calls,
            "incl_us": incl,
            "self_us": self_t,
            "transforms_in_advance": transforms_in_advance,
            "ensemble_overhead_us": incl.get("run_ensemble", 0.0) - traj_in_ensemble_ns / 1e3,
        }


def profiled_counts(originals: dict, fn) -> dict:
    """Run ``fn`` under cProfile; calls of each original callable by name."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats
    out = {}
    for name, f in originals.items():
        code = f.__code__
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        out[name] = entry[1] if entry else 0
    return out
