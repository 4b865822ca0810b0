"""Monitored functionals, stopping-time detection and ensemble summaries.

Norm-type functionals are evaluated spectrally (Parseval); sixth-power and
mixed-gradient functionals by quadrature on the dealiased grid.  Cumulative
time integrals are accumulated with the trapezoid rule on the stored stride,
except ``int_DA_sq``: each stored record carries ``run_trajectory``'s
per-step integral, the value the trajectory reports.

The five cumulative stopping functionals instrument the solution theory:

    weak         int |U|^2 ||U||^2 + ||U||^2 (+ forcing norms when present)
    vtilde_l6    int |vt|_L6^6 + int |grad_3 vt|^2 |vt|^4
    grad_vbar    int ||vbar||_H1(2D)^4
    dz_v         int |grad_3 dz v|^2 + |dz v|^2 |grad_3 dz v|^2
    temperature  int |T|_L6^6 + |dz T|^2 ||dz T||^2

plus the instantaneous cutoff distance ||U - U*|| and the blow-up functional
sup_t ||U||^2 + int |AU|^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import fluctuation_R, mode_split
from .spectral import SpectralState, grad3_dz_sq, sq_norms

__all__ = [
    "DiagnosticRecord",
    "EnsembleReport",
    "STOPPING_FUNCTIONALS",
    "record",
    "stopping_integrands",
    "detect_stopping",
    "blowup_functional",
    "summarize_ensemble",
]

STOPPING_FUNCTIONALS = ("weak", "vtilde_l6", "grad_vbar", "dz_v", "temperature")

CSV_COLUMNS = (
    "t",
    "H_sq",
    "V_sq",
    "DA_sq",
    "L6_vtilde_6",
    "Vbar_H1_4",
    "dz_v_L2_2",
    "dz_v_L2_4",
    "grad3_dz_v_L2_2",
    "L6_T_6",
    "dz_T_L2_4",
    "theta_value",
    "dist_to_Ustar",
    "int_DA_sq",
    "int_H2_V2",
    "int_grad_vtilde_vtilde4",
    "int_vbar_AS",
    "int_dzv_grad_dzv",
    "int_T_funcs",
)


@dataclass
class DiagnosticRecord:
    """Per-step values of every monitored functional plus running integrals."""

    t: float
    H_sq: float
    V_sq: float
    DA_sq: float
    L6_vtilde_6: float
    Vbar_H1_4: float
    dz_v_L2_2: float
    dz_v_L2_4: float
    grad3_dz_v_L2_2: float
    L6_T_6: float
    dz_T_L2_4: float
    theta_value: float
    dist_to_Ustar: float
    int_DA_sq: float = 0.0
    int_H2_V2: float = 0.0
    int_grad_vtilde_vtilde4: float = 0.0
    int_vbar_AS: float = 0.0
    int_dzv_grad_dzv: float = 0.0
    int_T_funcs: float = 0.0
    # instantaneous integrands that are not plain products of the columns
    extras: dict = field(default_factory=dict, repr=False, compare=False)
    # cumulative stopping functionals, accumulated like the int_* columns
    stopping: dict = field(
        default_factory=lambda: dict.fromkeys(STOPPING_FUNCTIONALS, 0.0), repr=False, compare=False
    )

    def row(self) -> list:
        return [getattr(self, c) for c in CSV_COLUMNS]

    def finite(self) -> bool:
        return all(np.isfinite(v) for v in self.row())


def _grid_quadrature_functionals(state: SpectralState) -> dict:
    """Sixth-power and mixed-gradient functionals on the dealiased grid."""
    g = state.grid
    w = g.quad_weight(padded=True)
    vt = fluctuation_R(state).coeffs[:2]
    vt1, vt2, Tg = g.synth_cos(np.concatenate([vt, state.coeffs[2:]]), padded=True)
    vt_sq = vt1**2 + vt2**2
    grad_sq = sum((d**2).sum(axis=0) for d in g.grad_samples(vt))
    return {
        "L6_vtilde_6": float(np.sum(vt_sq**3) * w),
        "grad_vtilde_vtilde4": float(np.sum(grad_sq * vt_sq**2) * w),
        "L6_T_6": float(np.sum(Tg**6) * w),
    }


def record(
    state: SpectralState,
    dist: float = 0.0,
    theta_value: float = 1.0,
    forcing_weak: float = 0.0,
    prev: DiagnosticRecord | None = None,
) -> DiagnosticRecord:
    """Evaluate every monitored functional at cutoff distance ``dist``; chain
    ``prev`` to accumulate the int_* columns and the stopping functionals by
    the trapezoid rule.  ``int_DA_sq`` is left at 0 for the caller to set
    (``run_trajectory`` stores its per-step integral there).

    Squares of norms overflow to inf rather than raising, so a record of a
    state near blow-up can be checked with ``DiagnosticRecord.finite``."""
    g = state.grid
    spec = g.spec
    quad = _grid_quadrature_functionals(state)

    split = mode_split(state)
    area = g.area_h
    ksq = g.ksq_h[None]
    vbar_sq = np.abs(split.vbar) ** 2
    vbar_h1_sq = float(np.sum((1.0 + ksq) * vbar_sq) * area)
    vbar_V_sq = float(spec.mu * np.sum(ksq * vbar_sq) * area)
    AS_sq = float(spec.mu**2 * np.sum(ksq**2 * vbar_sq) * area)

    dzv_sq = 0.0
    for c in range(2):
        s = g.dz_to_sin(state.coeffs[c])
        dzv_sq += float(np.sum(np.abs(s) ** 2 * g.weight_m_sin[None, None, :]))
    dzT_sq = float(
        np.sum(np.abs(g.dz_to_sin(state.coeffs[2])) ** 2 * g.weight_m_sin[None, None, :])
    )
    g3dzv = grad3_dz_sq(state, (0, 1))
    dzT_a_sq = grad3_dz_sq(state, (2,), mu=spec.mu, nu=spec.nu)

    H_sq, V_sq, DA_sq = sq_norms(g, state.coeffs)
    rec = DiagnosticRecord(
        t=state.time,
        H_sq=H_sq,
        V_sq=V_sq,
        DA_sq=DA_sq,
        L6_vtilde_6=quad["L6_vtilde_6"],
        Vbar_H1_4=vbar_h1_sq * vbar_h1_sq,
        dz_v_L2_2=dzv_sq,
        dz_v_L2_4=dzv_sq * dzv_sq,
        grad3_dz_v_L2_2=g3dzv,
        L6_T_6=quad["L6_T_6"],
        dz_T_L2_4=dzT_sq * dzT_sq,
        theta_value=theta_value,
        dist_to_Ustar=dist,
        extras={
            "grad_vtilde_vtilde4": quad["grad_vtilde_vtilde4"],
            "vbar_V_sq": vbar_V_sq,
            "AS_sq": AS_sq,
            "dzT_a_sq": dzT_a_sq,
            "dz_T_L2_2": dzT_sq,
            "forcing_weak": forcing_weak,
        },
    )
    if prev is not None:
        dt = rec.t - prev.t
        if dt < 0:
            raise ValueError("records must be chained in increasing time")

        def trap(a, b):
            return 0.5 * (a + b) * dt

        rec.int_H2_V2 = prev.int_H2_V2 + trap(prev.H_sq * prev.V_sq, rec.H_sq * rec.V_sq)
        rec.int_grad_vtilde_vtilde4 = prev.int_grad_vtilde_vtilde4 + trap(
            prev.extras["grad_vtilde_vtilde4"], rec.extras["grad_vtilde_vtilde4"]
        )
        rec.int_vbar_AS = prev.int_vbar_AS + trap(
            prev.extras["vbar_V_sq"] * prev.extras["AS_sq"], rec.extras["vbar_V_sq"] * rec.extras["AS_sq"]
        )
        rec.int_dzv_grad_dzv = prev.int_dzv_grad_dzv + trap(
            prev.dz_v_L2_2 * prev.grad3_dz_v_L2_2, rec.dz_v_L2_2 * rec.grad3_dz_v_L2_2
        )
        before, now = stopping_integrands(prev), stopping_integrands(rec)
        rec.stopping = {
            name: prev.stopping[name] + trap(before[name], now[name]) for name in STOPPING_FUNCTIONALS
        }
        # the temperature functional integrates exactly the int_T_funcs integrand
        rec.int_T_funcs = rec.stopping["temperature"]
    return rec


def stopping_integrands(rec: DiagnosticRecord) -> dict:
    """Instantaneous integrands of the five cumulative stopping functionals."""
    return {
        "weak": rec.H_sq * rec.V_sq + rec.V_sq + rec.extras.get("forcing_weak", 0.0),
        "vtilde_l6": rec.L6_vtilde_6 + rec.extras["grad_vtilde_vtilde4"],
        "grad_vbar": rec.Vbar_H1_4,
        "dz_v": rec.grad3_dz_v_L2_2 + rec.dz_v_L2_2 * rec.grad3_dz_v_L2_2,
        "temperature": rec.L6_T_6 + rec.extras["dz_T_L2_2"] * rec.extras["dzT_a_sq"],
    }


def detect_stopping(times, values, K: float):
    """First time the cumulative functional reaches K, by linear interpolation.

    Returns None when the level is never reached.  Monotone in K by
    construction (the series is nondecreasing).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.size != values.size or times.size == 0:
        raise ValueError("times and values must be equal-length 1D series")
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be nondecreasing")
    if values[0] >= K:
        return float(times[0])
    idx = np.nonzero(values >= K)[0]
    if idx.size == 0:
        return None
    i = int(idx[0])
    v0, v1 = values[i - 1], values[i]
    if v1 == v0:
        return float(times[i])
    frac = (K - v0) / (v1 - v0)
    return float(times[i - 1] + frac * (times[i] - times[i - 1]))


def blowup_functional(trajectory) -> tuple:
    """sup_t ||U||^2 + int |AU|^2 along the path, the nonfinite-abort flag,
    and the consistency verdict (an aborted path must have exhausted every
    configured threshold level)."""
    value = trajectory.sup_V_sq + trajectory.int_DA_sq
    flag = trajectory.blowup
    levels = getattr(trajectory.config, "blowup_levels", None) or []
    consistent = (not flag) or all(value >= K for K in levels)
    return float(value), bool(flag), bool(consistent)


@dataclass
class EnsembleReport:
    """Per-functional Monte-Carlo means with standard errors and verdicts."""

    n_paths: int
    means: dict
    std_errors: dict
    verdicts: dict = field(default_factory=dict)


def summarize_ensemble(summaries: list, fields_: tuple) -> EnsembleReport:
    """Reduce per-path summaries in fixed path order (reproducible means)."""
    ordered = sorted(summaries, key=lambda s: s["trajectory"])
    n = len(ordered)
    means, ses = {}, {}
    for f in fields_:
        vals = np.array([s[f] for s in ordered], dtype=float)
        means[f] = float(vals.mean())
        ses[f] = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return EnsembleReport(n_paths=n, means=means, std_errors=ses)
