"""Monitored functionals, stopping-time detection and ensemble summaries.

Norm-type functionals are evaluated spectrally (Parseval); sixth-power and
mixed-gradient functionals by quadrature on the dealiased grid.  Cumulative
time integrals are accumulated with the trapezoid rule on the stored stride,
except ``int_DA_sq``: each stored record carries ``run_paths``' per-step
integral, the value the trajectory reports.

``record_stack`` evaluates the records of a whole stack of paths at once,
once per stored step of a chunk, and ``record`` is its one-row case; each
path still keeps its own records, equal bit for bit to the records of its
state alone.

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

from .spectral import Grid, SpectralState, _mode_sums, grad3_dz_sq, sq_norms

__all__ = [
    "DiagnosticRecord",
    "EnsembleReport",
    "STOPPING_FUNCTIONALS",
    "record",
    "record_stack",
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
    """Per-step values of every monitored functional plus running integrals.

    ``record_stack`` returns a stacked record, whose columns, extras and
    stopping values are (P,) arrays with one entry per path; indexing selects
    rows, and ``split`` cuts it into per-path records."""

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

    def finite(self):
        """Whether every column is finite: a bool, or a (P,) mask for a stacked record."""
        ok = np.isfinite(np.array(self.row(), dtype=float)).all(axis=0)
        return bool(ok) if ok.ndim == 0 else ok

    def __getitem__(self, rows) -> "DiagnosticRecord":
        """The rows ``rows`` (a mask or a slice) of a stacked record; a float column is every row's."""

        def pick(values: dict) -> dict:
            return {k: v[rows] if np.ndim(v) else v for k, v in values.items()}

        return DiagnosticRecord(
            **pick({c: getattr(self, c) for c in CSV_COLUMNS}),
            extras=pick(self.extras),
            stopping=pick(self.stopping),
        )

    def split(self, rows: np.ndarray | None = None) -> list:
        """The per-path records of a stacked record, for the rows selected by
        the (P,) boolean mask ``rows`` (all rows by default)."""
        rec = self if rows is None else self[rows]

        def columns(values: dict) -> list:
            cols = [np.asarray(v).tolist() for v in values.values()]
            return [dict(zip(values, entry)) for entry in zip(*cols)]

        return [
            DiagnosticRecord(**cols, extras=extras, stopping=stopping)
            for cols, extras, stopping in zip(
                columns({c: getattr(rec, c) for c in CSV_COLUMNS}), columns(rec.extras), columns(rec.stopping)
            )
        ]


def _grid_quadrature_functionals(grid: Grid, coeffs: np.ndarray) -> dict:
    """Sixth-power and mixed-gradient functionals on the dealiased grid, (P,)
    arrays for a coefficient stack (P, 3, nkx, nky, nm)."""
    w = grid.quad_weight(padded=True)
    # baroclinic velocity vtilde (the depth mean removed) and the temperature
    fluct = coeffs.copy()
    fluct[:, :2, :, :, 0] = 0.0
    samples = grid.synth_cos(fluct, padded=True)
    vt_sq = samples[:, 0] ** 2 + samples[:, 1] ** 2
    grad_sq = sum((d**2).sum(axis=1) for d in grid.grad_samples(fluct[:, :2]))
    return {
        "L6_vtilde_6": _mode_sums(vt_sq**3, 3) * w,
        "grad_vtilde_vtilde4": _mode_sums(grad_sq * vt_sq**2, 3) * w,
        "L6_T_6": _mode_sums(samples[:, 2] ** 6, 3) * w,
    }


def record_stack(
    grid: Grid,
    coeffs: np.ndarray,
    t: float,
    dist: np.ndarray,
    theta: np.ndarray,
    forcing_weak: float = 0.0,
    prev: DiagnosticRecord | None = None,
) -> DiagnosticRecord:
    """``record`` of every row of a coefficient stack (P, 3, nkx, nky, nm) at
    time t, with cutoff distances ``dist`` (P,) and switches ``theta`` (P,),
    chained to ``prev``, the stacked record of the rows' previous states (a
    record with float columns is every row's): one stacked record whose row p
    equals bit for bit the record of state p alone.  Every functional is
    evaluated for all rows at once, each row reduced over its trailing axes
    as one contiguous sum."""
    spec = grid.spec
    P = len(coeffs)
    quad = _grid_quadrature_functionals(grid, coeffs)

    area = grid.area_h
    ksq = grid.ksq_h
    vbar_sq = np.abs(coeffs[:, :2, :, :, 0]) ** 2  # barotropic velocity, v1 then v2
    vbar_h1_sq = _mode_sums((1.0 + ksq) * vbar_sq, 3) * area
    vbar_V_sq = spec.mu * _mode_sums(ksq * vbar_sq, 3) * area
    AS_sq = spec.mu**2 * _mode_sums(ksq**2 * vbar_sq, 3) * area

    dz_sq = _mode_sums(np.abs(grid.dz_to_sin(coeffs)) ** 2 * grid.weight_m_sin[None, None, :], 3)  # (P, 3)
    dzv_sq = 0.0 + dz_sq[:, 0] + dz_sq[:, 1]
    dzT_sq = dz_sq[:, 2]
    g3dzv = grad3_dz_sq(grid, coeffs, (0, 1))

    H_sq, V_sq, DA_sq = sq_norms(grid, coeffs)
    zeros = np.zeros(P)
    rec = DiagnosticRecord(
        t=np.full(P, t),
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
        theta_value=np.asarray(theta, dtype=float),
        dist_to_Ustar=np.asarray(dist, dtype=float),
        int_DA_sq=zeros,
        int_H2_V2=zeros,
        int_grad_vtilde_vtilde4=zeros,
        int_vbar_AS=zeros,
        int_dzv_grad_dzv=zeros,
        int_T_funcs=zeros,
        extras={
            "grad_vtilde_vtilde4": quad["grad_vtilde_vtilde4"],
            "vbar_V_sq": vbar_V_sq,
            "AS_sq": AS_sq,
            "dzT_a_sq": grad3_dz_sq(grid, coeffs, (2,), mu=spec.mu, nu=spec.nu),
            "dz_T_L2_2": dzT_sq,
            "forcing_weak": np.full(P, forcing_weak),
        },
        stopping=dict.fromkeys(STOPPING_FUNCTIONALS, zeros),
    )
    if prev is not None:
        if np.shape(prev.t) not in ((), (P,)):
            raise ValueError("need one previous record per row")
        dt = rec.t - prev.t
        if (dt < 0).any():
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
    (``run_paths`` stores its per-step integral there).  This is
    ``record_stack`` with one row.

    Squares of norms overflow to inf rather than raising, so a record of a
    state near blow-up can be checked with ``DiagnosticRecord.finite``."""
    stack = record_stack(
        state.grid,
        state.coeffs[None],
        state.time,
        np.array([dist]),
        np.array([theta_value]),
        forcing_weak,
        prev,
    )
    return stack.split()[0]


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
