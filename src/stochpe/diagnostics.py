"""Monitored functionals, stopping-time detection and ensemble summaries.

Norm-type functionals (``H_sq``, ``V_sq``, ``DA_sq``, the dz and barotropic
sums and ``grad3_dz_v_L2_2``) are Parseval sums on the record's own grid
layout, taken from ``spectral``, whose sums count each ky > 0 mode of a
half-plane twice.  The three sixth-degree functionals (``L6_vtilde_6``,
``grad_vtilde_vtilde4`` and ``L6_T_6``) are quadratures on a padded grid:
the record grid of the retained band (``Grid.record_grid``) when the caller
passes the band, as ``run_paths`` does, and the grid's own padded grid
otherwise.  On an axis where the record grid differs from the configured
one, both integrate these products exactly, so the values agree to
round-off; a full band keeps the configured grid.

Every record is a functional of one state, at one instant: ``record_stack``
evaluates the records of a whole stack of paths at once, row p equal bit for
bit to the record of state p alone, and ``record`` is its one-row case.  The
running integrals of a record (the ``int_*`` columns and the stopping
functionals) read 0 here.  ``solver.run_paths`` accumulates them along each
path by the trapezoid rule: ``int_DA_sq`` on every step, and the nine
running integrals of ``running_integrands`` on the stored stride.

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

from .spectral import (
    Grid,
    SpectralState,
    Workspace,
    _mode_sums,
    _scratch,
    barotropic_sq_norms,
    dz_sq_norms,
    grad3_dz_sq,
    sq_norms,
)

__all__ = [
    "DiagnosticRecord",
    "EnsembleReport",
    "STOPPING_FUNCTIONALS",
    "record",
    "record_stack",
    "stopping_integrands",
    "running_integrands",
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
    # cumulative stopping functionals, accumulated like the int_* columns by run_paths
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


def _grid_quadrature_functionals(
    grid: Grid, coeffs: np.ndarray, band: tuple | None = None, work: Workspace | None = None
) -> dict:
    """Sixth-power and mixed-gradient functionals by quadrature on the padded
    grid, (P,) arrays for a coefficient stack (P, 3, nkx, nky, nm).  With a
    ``band`` (N1, N2, M) that holds every nonzero coefficient, the band moves
    to its record grid (``Grid.record_grid``) and the quadrature runs there;
    without one, on ``grid``.

    The powers are products: |vt|^6 = (|vt|^2 |vt|^2) |vt|^2 and T^6 =
    (T^2 T^2) T^2, where ``**`` on float arrays calls pow for every sample
    (30 times slower on a 16-path stack); they differ from pow at round-off.
    |vt|^4 is the square |vt|^2 |vt|^2 that ``**2`` computes.  Every sample
    array comes from ``work`` when given, fresh ones otherwise."""
    # baroclinic velocity vtilde (the depth mean removed) and the temperature
    if band is not None and (rec_grid := grid.record_grid(*band)) is not grid:
        fluct = grid.extract(rec_grid, coeffs)
        grid = rec_grid
    else:
        fluct = _scratch(work, "record.fluct", coeffs.shape, np.complex128)
        np.copyto(fluct, coeffs)
    fluct[:, :2, :, :, 0] = 0.0
    w = grid.quad_weight()
    samples = grid.padded_samples(fluct, work=work)  # one synthesis: values and gradients
    values = samples.values
    shape = values[:, 0].shape
    vt_sq, vt_4, grad_sq = (_scratch(work, f"record.{name}", shape) for name in ("vt_sq", "vt_4", "grad_sq"))
    sq, term = _scratch(work, "scratch.a", shape), _scratch(work, "scratch.b", shape)
    np.multiply(values[:, 0], values[:, 0], out=vt_sq)
    vt_sq += np.multiply(values[:, 1], values[:, 1], out=term)
    # 0 + |dx vt|^2 + |dy vt|^2 + |dz vt|^2, each the sum of its two components' squares
    grad_sq.fill(0.0)
    for d in samples.grads:
        np.multiply(d[:, 0], d[:, 0], out=sq)
        sq += np.multiply(d[:, 1], d[:, 1], out=term)
        grad_sq += sq
    np.multiply(vt_sq, vt_sq, out=vt_4)
    grad_sq *= vt_4
    vt_4 *= vt_sq  # now |vt|^6
    t_2 = np.multiply(values[:, 2], values[:, 2], out=sq)
    t_6 = np.multiply(t_2, t_2, out=term)
    t_6 *= t_2
    return {
        "L6_vtilde_6": _mode_sums(vt_4, 3) * w,
        "grad_vtilde_vtilde4": _mode_sums(grad_sq, 3) * w,
        "L6_T_6": _mode_sums(t_6, 3) * w,
    }


def record_stack(
    grid: Grid,
    coeffs: np.ndarray,
    t: float,
    dist: np.ndarray,
    theta: np.ndarray,
    band: tuple | None = None,
    *,
    work: Workspace | None = None,
) -> DiagnosticRecord:
    """``record`` of every row of a coefficient stack (P, 3, nkx, nky, nm) at
    time t, with cutoff distances ``dist`` (P,) and switches ``theta`` (P,):
    one stacked record whose row p equals bit for bit the record of state p
    alone.  Every functional is evaluated for all rows at once, each row
    reduced over its trailing axes as one contiguous sum, and its running
    integrals read 0.  ``band`` (N1, N2, M), when given, must hold every
    nonzero coefficient: the three quadrature columns are then evaluated on
    its record grid (``Grid.record_grid``), every other column on ``grid``.
    The quadrature's samples come from the ``Workspace`` ``work`` when given."""
    spec = grid.spec
    P = len(coeffs)
    quad = _grid_quadrature_functionals(grid, coeffs, band, work)

    vbar_h1_sq, vbar_V_sq, AS_sq = barotropic_sq_norms(grid, coeffs)
    dz_v1_sq, dz_v2_sq, dzT_sq = dz_sq_norms(grid, coeffs)
    dzv_sq = 0.0 + dz_v1_sq + dz_v2_sq
    g3dzv = grad3_dz_sq(grid, coeffs, (0, 1))

    H_sq, V_sq, DA_sq = sq_norms(grid, coeffs)
    zeros = np.zeros(P)
    return DiagnosticRecord(
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
        },
        stopping=dict.fromkeys(STOPPING_FUNCTIONALS, zeros),
    )


def record(
    state: SpectralState,
    dist: float = 0.0,
    theta_value: float = 1.0,
    band: tuple | None = None,
) -> DiagnosticRecord:
    """Every monitored functional of ``state`` at cutoff distance ``dist``: a
    functional of the one state, so its running integrals (the ``int_*``
    columns and the stopping functionals) read 0; ``run_paths`` accumulates
    them along a path.  This is ``record_stack`` with one row, ``band``
    included.

    Squares of norms overflow to inf rather than raising, so a record of a
    state near blow-up can be checked with ``DiagnosticRecord.finite``."""
    stack = record_stack(
        state.grid, state.coeffs[None], state.time, np.array([dist]), np.array([theta_value]), band
    )
    return stack.split()[0]


def stopping_integrands(rec: DiagnosticRecord, forcing_weak: float = 0.0) -> dict:
    """Instantaneous integrands of the five cumulative stopping functionals of
    the record ``rec``; ``weak`` adds ``forcing_weak``, the forcing's norms."""
    return {
        "weak": rec.H_sq * rec.V_sq + rec.V_sq + forcing_weak,
        "vtilde_l6": rec.L6_vtilde_6 + rec.extras["grad_vtilde_vtilde4"],
        "grad_vbar": rec.Vbar_H1_4,
        "dz_v": rec.grad3_dz_v_L2_2 + rec.dz_v_L2_2 * rec.grad3_dz_v_L2_2,
        "temperature": rec.L6_T_6 + rec.extras["dz_T_L2_2"] * rec.extras["dzT_a_sq"],
    }


def running_integrands(rec: DiagnosticRecord, forcing_weak: float = 0.0) -> dict:
    """Instantaneous integrands of the nine running integrals that ``run_paths``
    accumulates on the stored stride: four ``int_*`` columns, then the five
    stopping functionals (``stopping_integrands``).  ``int_T_funcs`` is the
    ``temperature`` functional, and ``int_DA_sq`` is integrated on every
    step instead."""
    return {
        "int_H2_V2": rec.H_sq * rec.V_sq,
        "int_grad_vtilde_vtilde4": rec.extras["grad_vtilde_vtilde4"],
        "int_vbar_AS": rec.extras["vbar_V_sq"] * rec.extras["AS_sq"],
        "int_dzv_grad_dzv": rec.dz_v_L2_2 * rec.grad3_dz_v_L2_2,
        **stopping_integrands(rec, forcing_weak),
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
