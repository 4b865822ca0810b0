"""stochpe benchmark: one closed-loop client, one process, one thread.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ou-moments --seed 1 --seconds 30 --trace 0

Imports stochpe from the checkout's ``src/`` and nowhere else.  With
``--trace 0`` the timed phase runs untraced and the last stdout line carries
the end-to-end metrics; with ``--trace 1`` half of the time runs untraced
and half traced, and the last line carries the per-layer metrics.  Earlier
stdout lines carry the environment stamp, every metric with its unit and
sample count, and the verdict values.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# one BLAS/OpenMP thread: the reference machine has two cores and the
# client is single-threaded.  Set before anything imports numpy.
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_ENV)

from calibrate import Calibrated  # noqa: E402  (imports numpy)

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15
# the tracer self-check: operations, and paths per ensemble operation
SELF_CHECK_OPS = 2
SELF_CHECK_PATHS = 2
SPAN_DIR = ROOT / ".perfbench-out"


def solver_seed(seed: int, op: int) -> int:
    """Solver seed of operation ``op`` under benchmark seed ``seed``."""
    return seed * 1_000_000 + op


def git_commit() -> str:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_stamp(workload: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": git_commit(),
    }


class Bench:
    """Runs one workload: set-up, timed operations, checks and reductions."""

    def __init__(self, workload, seed: int):
        self.wl = workload
        self.seed = seed
        self.values = {}  # op index -> values from inspect
        self.failures = []  # (what, detail)
        self.attempted = 0
        self.next_op = 0
        self.tracer = None  # when set, spans of operation i carry run id i

    def attempt(self, s: int, exact: bool = False, run_id=None):
        """Run and inspect the operation with solver seed ``s``.

        Returns (wall time of the operation alone, failures, values); an
        operation that raises is a failed operation, not a dead benchmark."""
        if self.tracer:
            self.tracer.run_id = run_id
        t0 = time.perf_counter()
        try:
            out = self.wl.op(s)
        except Exception:
            return time.perf_counter() - t0, [traceback.format_exc()], None
        finally:
            if self.tracer:
                self.tracer.run_id = None
        elapsed = time.perf_counter() - t0
        try:
            failed, values = self.wl.inspect(s, out, exact=exact)
        except Exception:
            failed, values = [traceback.format_exc()], None
        return elapsed, failed, values

    def run_op(self, i: int) -> float:
        """Run operation ``i``; returns its wall time.  Checks run after the clock stops."""
        elapsed, failed, values = self.attempt(solver_seed(self.seed, i), exact=(i == 0), run_id=i)
        self.attempted += 1
        self.failures += [(f"op {i}", f) for f in failed]
        self.values[i] = values
        return elapsed

    def phase(self, seconds: float, min_ops: int = 0) -> Calibrated:
        """Closed loop: next operation only after the previous one completes.

        Runs for ``seconds`` of operation time, extended up to twice that
        while fewer than ``min_ops`` operations have completed."""
        ops = Calibrated()
        while sum(ops.raw) < seconds or (len(ops) < min_ops and sum(ops.raw) < 2 * seconds):
            ops.add(self.run_op(self.next_op))
            self.next_op += 1
        return ops

    def check(self, what: str, failed: list):
        self.attempted += 1
        self.failures += [(what, f) for f in failed]

    def verdicts(self) -> dict:
        for i in range(self.wl.check_ops):  # untimed if the phase did not reach them
            if i not in self.values:
                self.run_op(i)
        values = [self.values[i] for i in range(self.wl.check_ops)]
        if None in values:
            verdict, failed = {}, ["an operation in the verdict prefix failed"]
        else:
            verdict, failed = self.wl.verdict(values)
        self.check("verdict", failed)
        # reproducibility: operation 0 again, then under another benchmark seed
        first = self.values[0]
        again = self.attempt(solver_seed(self.seed, 0))[2]
        self.check("same seed, same values", [] if first is not None and again == first else ["values differ"])
        other = self.attempt(solver_seed(self.seed + 1, 0))[2]
        self.check("other seed, other values", [] if other is not None and other != first else ["values equal"])
        return verdict


def end_to_end(bench: Bench, setups: Calibrated, ops: Calibrated) -> dict:
    """Untraced metrics, from durations normalised to the reference speed."""
    wl = bench.wl
    durations = ops.normalised
    deciles = statistics.quantiles(durations, n=10, method="inclusive")
    return {
        "steps_per_s": (wl.steps_per_op * len(ops) / sum(durations), "1/s"),
        "paths_per_s": (wl.paths_per_op * len(ops) / sum(durations), "1/s"),
        "run_ms_p50": (1e3 * statistics.median(durations), "ms"),
        "run_ms_p90": (1e3 * deciles[8], "ms"),
        "setup_s": (statistics.median(setups.normalised), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(bench: Bench, summary: dict, traced: Calibrated, untraced: Calibrated, build: dict) -> dict:
    """Traced metrics; span times are normalised to the reference speed by
    the traced phase's median calibration factor."""
    from tracer import ANALYZE, NORMS, SYNTH

    wl = bench.wl
    speed = statistics.median(traced.factors)
    calls = summary["calls"]
    incl = {k: v * speed for k, v in summary["incl_us"].items()}
    self_us = {k: v * speed for k, v in summary["self_us"].items()}
    steps = wl.steps_per_op * len(traced)
    paths = wl.paths_per_op * len(traced)
    runs = calls.get("cmd_run", 0)

    def total(table, names):
        return sum(table.get(n, 0) for n in names)

    def per(x, n):
        return x / n if n else 0.0

    transforms = SYNTH + ANALYZE
    traced_rate = steps / sum(traced.normalised)
    untraced_rate = wl.steps_per_op * len(untraced) / sum(untraced.normalised)
    ckpt_bytes = getattr(wl, "bytes_written", [])
    build_us = build["incl_us"]["build_solver_config"]  # traced set-up included
    return {
        "spectral.synth_calls_per_step": (per(total(calls, SYNTH), steps), "count"),
        "spectral.analyze_calls_per_step": (per(total(calls, ANALYZE), steps), "count"),
        "spectral.transforms_in_advance_per_step": (per(summary["transforms_in_advance"], steps), "count"),
        "spectral.transform_us_per_step": (per(total(self_us, transforms), steps), "us"),
        "spectral.transform_us_per_call": (per(total(self_us, transforms), total(calls, transforms)), "us"),
        "spectral.norm_calls_per_step": (per(total(calls, NORMS), steps), "count"),
        "spectral.norm_us_per_step": (per(total(self_us, NORMS), steps), "us"),
        "spectral.state_allocs_per_step": (per(calls["SpectralState.__post_init__"], steps), "count"),
        "operators.bilinear_B_calls_per_step": (per(calls.get("bilinear_B", 0), steps), "count"),
        "operators.bilinear_B_self_us_per_step": (per(self_us.get("bilinear_B", 0.0), steps), "us"),
        "operators.leray_calls_per_step": (per(calls.get("leray_project", 0), steps), "count"),
        "operators.leray_us_per_step": (per(incl.get("leray_project", 0.0), steps), "us"),
        "operators.forcing_F_us_per_step": (per(incl.get("forcing_F", 0.0), steps), "us"),
        "noise.apply_sigma_calls_per_step": (per(calls.get("apply_sigma", 0), steps), "count"),
        "noise.apply_sigma_self_us_per_step": (per(self_us.get("apply_sigma", 0.0), steps), "us"),
        "noise.hs_norm_us_per_step": (per(incl.get("hs_norm_sq", 0.0), steps), "us"),
        "noise.wiener_calls_per_step": (per(calls.get("WienerStream.sample", 0), steps), "count"),
        "noise.wiener_us_per_step": (per(incl.get("WienerStream.sample", 0.0), steps), "us"),
        "solver.advance_self_us_per_step": (per(self_us.get("Stepper.advance", 0.0), steps), "us"),
        "solver.loop_self_us_per_step": (per(self_us.get("run_trajectory", 0.0), steps), "us"),
        "solver.stepper_init_us_per_path": (per(incl.get("Stepper.__init__", 0.0), paths), "us"),
        "diagnostics.record_calls_per_step": (per(calls.get("record", 0), steps), "count"),
        "diagnostics.record_self_us_per_step": (per(self_us.get("record", 0.0), steps), "us"),
        "experiments.overhead_us_per_path": (per(summary["ensemble_overhead_us"] * speed, paths), "us"),
        "config.build_ms": (per(build_us * speed / 1e3, build["calls"]["build_solver_config"]), "ms"),
        "checkpoint.save_ms_per_run": (per(incl.get("save_state", 0.0) / 1e3, runs), "ms"),
        "checkpoint.bytes_per_run": (per(sum(ckpt_bytes), len(ckpt_bytes)), "B"),
        "cli.self_ms_per_run": (per(self_us.get("cmd_run", 0.0) / 1e3, runs), "ms"),
        "trace.overhead_frac": (1.0 - traced_rate / untraced_rate, "ratio"),
    }


def tracer_self_check(bench: Bench) -> list:
    """Wrapper counts equal cProfile counts on a short run, and a second
    traced run of the same operations gives identical counts."""
    from tracer import Tracer, profiled_counts

    wl = bench.wl
    seeds = [solver_seed(bench.seed, i) for i in range(SELF_CHECK_OPS)]
    tr = Tracer()
    tr.install()
    try:
        tr.run_id = "first"
        profiled = profiled_counts(tr.originals, lambda: [wl.op(s, n_paths=SELF_CHECK_PATHS) for s in seeds])
        tr.run_id = "second"
        for s in seeds:
            wl.op(s, n_paths=SELF_CHECK_PATHS)
    finally:
        tr.uninstall()
    first = tr.summary({"first"})["calls"]
    second = tr.summary({"second"})["calls"]
    failed = [
        f"{name}: wrapper {first.get(name, 0)} != cProfile {n}"
        for name, n in profiled.items()
        if first.get(name, 0) != n
    ]
    if first != second:
        failed.append(f"repeat counts differ: {first} != {second}")
    return failed


def run(args, workdir: str):
    from workloads import WORKLOADS

    bench = Bench(WORKLOADS[args.workload](workdir), args.seed)
    wl = bench.wl
    setups = Calibrated()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.add(time.perf_counter() - t0)

    if not args.trace:
        ops = bench.phase(args.seconds, wl.min_ops)
        metrics = end_to_end(bench, setups, ops)
    else:
        from tracer import Tracer

        untraced = bench.phase(args.seconds / 2.0)
        tr = Tracer()
        tr.install()
        try:
            tr.run_id = "setup"
            wl.setup()
            first_traced = bench.next_op
            bench.tracer = tr
            ops = bench.phase(args.seconds / 2.0)
        finally:
            bench.tracer = None
            tr.uninstall()
        traced_ops = set(range(first_traced, bench.next_op))
        summary = tr.summary(traced_ops)
        build = tr.summary(traced_ops | {"setup"})
        metrics = per_layer(bench, summary, ops, untraced, build)
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{wl.name}-seed{args.seed}.npz"
        tr.save(span_file)
        in_advance = summary["transforms_in_advance"]
        if wl.name == "ou-moments":
            bench.check("no transforms in Stepper.advance", [] if in_advance == 0 else [f"{in_advance} transforms"])
        if wl.name == "run-888":
            bench.check("transforms in Stepper.advance", [] if in_advance > 0 else ["none counted"])
        bench.check("tracer matches cProfile", tracer_self_check(bench))

    verdict = bench.verdicts()
    # one per operation (all its paths) or check, like ``attempted``
    failed = len({what for what, _ in bench.failures})
    attempted = bench.attempted
    print(json.dumps({"env": env_stamp(wl.name)}))
    print(json.dumps({"verdict": verdict, "failures": bench.failures}))
    notes = {
        "timed_ops": len(ops),
        "paths_per_op": wl.paths_per_op,
        "steps_per_op": wl.steps_per_op,
        "failed_frac": failed / attempted,
        "raw_run_ms_p50": 1e3 * statistics.median(ops.raw),
        "speed_factor_median": statistics.median(ops.factors),
    }
    if args.trace:
        notes["spans"] = str(span_file.relative_to(ROOT))
    print(json.dumps({"samples": notes, "metrics": {k: f"{v:.6g} {u}" for k, (v, u) in metrics.items()}}))
    for what, detail in bench.failures:
        print(f"FAILED {what}: {detail}", file=sys.stderr)
    return {
        "correct": not bench.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "stochpe" / "__init__.py").is_file():
        print(f"error: no stochpe package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
