"""Galerkin time integration of the stochastic model.

Integrates either the original equation

    dU + [AU + B(U) + A_pr U + E U] dt = F_U dt + sigma(U) dW

or the modified equation, where the advection term is switched by a smooth
cutoff theta(||U - U*||) of the distance to the freely decaying linear flow
U* (dU*/dt + AU* = 0, U*(0) = U(0)).

The stiff dissipative part is handled by an integrating factor (exponential
variant, exact on the linear flow) or a semi-implicit resolvent; advection,
forcing and noise are explicit:

    U+ = Lin(dt) * [U + dt * (-theta B(U) - F(U)) + sum_k sigma(U) e_k dW_k].

Every step re-applies the divergence-free projection, the Galerkin mask and
the reality symmetry, so the state stays on the constraint manifold to
round-off.  The Wiener increments of a path are drawn in one call from a
counter-based stream keyed by (seed, trajectory); step j's increment is a
pure function of (seed, trajectory, j), which makes trajectories
bit-reproducible and order-independent across parallel ensembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import STOPPING_FUNCTIONALS, detect_stopping, record
from .noise import NoiseSpec, WienerStream, apply_sigma, hs_norm_sq, zero_noise
from .operators import PhysicsParams, bilinear_B, forcing_F, leray_project
from .spectral import (
    Grid,
    SpectralState,
    _parseval_sq,
    da_norm_sq,
    h_norm_sq,
    random_state,
    single_mode_state,
    v_norm_sq,
)

__all__ = [
    "InitSpec",
    "SolverConfig",
    "Trajectory",
    "BlowUpError",
    "cutoff_theta",
    "solve_linear_Ustar",
    "Stepper",
    "initial_state",
    "run_trajectory",
]


class BlowUpError(RuntimeError):
    """Raised internally when the state leaves the representable range."""


@dataclass(frozen=True)
class InitSpec:
    """Deterministic initial-state descriptor."""

    kind: str = "random"  # "zero" | "random" | "single-mode" | "checkpoint"
    amplitude: float = 1.0
    decay: float = 2.0
    seed: int = 1234
    field_name: str = "v1"
    kx: int = 1
    ky: int = 0
    m: int = 1
    path: str = ""


@dataclass
class SolverConfig:
    """Everything needed to reproduce one trajectory byte-for-byte."""

    grid: Grid
    physics: PhysicsParams = field(default_factory=PhysicsParams)
    noise: NoiseSpec | None = None
    init: InitSpec = field(default_factory=InitSpec)
    n_galerkin: int | None = None
    dt: float = 1e-2
    t_end: float = 1.0
    kappa_cutoff: float | None = None  # None: calibrated as 0.5 ||U0||_V
    scheme: str = "exponential"  # or "semi-implicit"
    equation: str = "original"  # or "modified"
    seed: int = 0
    trajectory_id: int = 0
    store_stride: int = 1
    advection: bool = True
    forcing: SpectralState | None = None
    stopping_levels: dict = field(default_factory=dict)  # functional name -> K
    blowup_levels: tuple = ()
    terminate_on_tau: bool = False
    track_ito: bool = False
    store_states: bool = False
    apriori_p: float = 4.0

    def __post_init__(self):
        if self.noise is None:
            self.noise = zero_noise(self.grid)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must cover at least one step")
        if self.scheme not in ("exponential", "semi-implicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.equation not in ("original", "modified"):
            raise ValueError(f"unknown equation {self.equation!r}")
        if self.store_stride < 1:
            raise ValueError("store_stride must be >= 1")
        if self.n_galerkin is None:
            self.n_galerkin = self.grid.n_modes_total
        else:
            if not 0 < self.n_galerkin <= self.grid.n_modes_total:
                raise ValueError("n_galerkin out of range")
            self.n_galerkin = self.grid.snap_mode_count(self.n_galerkin)
        if self.equation == "modified" and self.kappa_cutoff is not None and self.kappa_cutoff <= 0:
            raise ValueError("kappa_cutoff must be positive for the modified equation")
        unknown = set(self.stopping_levels) - set(STOPPING_FUNCTIONALS)
        if unknown:
            raise ValueError(f"unknown stopping functionals {sorted(unknown)}")

    @property
    def n_steps(self) -> int:
        n = round(self.t_end / self.dt)
        if abs(n * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError("t_end must be an integer number of steps")
        return n


@dataclass
class Trajectory:
    """Stored records, first-hitting times and per-step reductions of one path."""

    config: SolverConfig
    times: np.ndarray
    records: list
    hits: dict
    blowup: bool
    blowup_time: float | None
    sup_V_sq: float
    sup_H_sq: float
    int_DA_sq: float
    int_DA_V2: float
    final_state: SpectralState | None
    kappa: float
    states: list | None = None
    ito_integral: SpectralState | None = None
    ito_quadratic: float = 0.0
    n_steps_done: int = 0

    def series(self, name: str):
        """(times, values) of a stored column or stopping functional."""
        t = np.array([r.t for r in self.records])
        if name in STOPPING_FUNCTIONALS:
            return t, np.array([r.stopping[name] for r in self.records])
        return t, np.array([getattr(r, name) for r in self.records])


def cutoff_theta(r: float, kappa: float) -> float:
    """Smooth even bump: 1 on [0, kappa/2], 0 from kappa on, strictly
    decreasing in between (standard exp(-1/x) transition)."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    r = abs(float(r))
    if r <= kappa / 2:
        return 1.0
    if r >= kappa:
        return 0.0
    u = (2.0 * r - kappa) / kappa  # maps (kappa/2, kappa) to (0, 1)
    fu = math.exp(-1.0 / u)
    f1u = math.exp(-1.0 / (1.0 - u))
    return f1u / (f1u + fu)


def solve_linear_Ustar(U0: SpectralState, times) -> list:
    """Exact modewise solution of the free decay dU/dt + AU = 0."""
    g = U0.grid
    t0 = U0.time
    out = []
    for t in times:
        if t < t0:
            raise ValueError("times must not precede the initial time")
        factor = np.exp(-g.lam * (t - t0))
        out.append(SpectralState(g, U0.coeffs * factor[None], t))
    return out


def _pn_mask(cfg: SolverConfig) -> np.ndarray:
    return cfg.grid.rank < cfg.n_galerkin


class Stepper:
    """The precomputed one-step map; ``run_trajectory`` is its only driver."""

    def __init__(self, cfg: SolverConfig, U0: SpectralState):
        self.cfg = cfg
        g = cfg.grid
        self.grid = g
        self.mask = _pn_mask(cfg)
        U0p = leray_project(U0)
        c0 = g.enforce_reality(U0p.coeffs * self.mask)
        self.U0n = SpectralState(g, c0, U0.time)
        if cfg.scheme == "exponential":
            self.lin = np.exp(-g.lam * cfg.dt)[None]
        else:
            self.lin = (1.0 / (1.0 + g.lam * cfg.dt))[None]
        if cfg.kappa_cutoff is not None:
            self.kappa = cfg.kappa_cutoff
        else:
            v0 = math.sqrt(v_norm_sq(self.U0n))
            self.kappa = 0.5 * v0 if v0 > 0 else 1.0
        # state-independent noise columns can be prepared once
        self._static_cols = None
        if cfg.noise.family != "zero" and cfg.noise.is_additive:
            cols = apply_sigma(cfg.noise, g.zero_state())
            for col in cols:
                col.coeffs *= self.mask
            self._static_cols = cols
        # family 1 transports with the gradient samples of U itself
        self._noise_uses_grads = cfg.noise.family == "example1" and self._static_cols is None
        # the aggregate linear term vanishes identically in this configuration
        self._skip_forcing = (
            cfg.forcing is None
            and cfg.physics.f == 0.0
            and cfg.physics.beta_T * cfg.physics.g == 0.0
        )

    def initial(self) -> SpectralState:
        return self.U0n.copy()

    def distance(self, state: SpectralState) -> float:
        """Cutoff distance ||U - U*|| to the free decay of U0 at the state's time."""
        factor = np.exp(-self.grid.lam * (state.time - self.U0n.time))
        diff = state.coeffs - self.U0n.coeffs * factor[None]
        return math.sqrt(_parseval_sq(self.grid, diff, 1.0))

    def theta(self, dist: float) -> float:
        """Advection switch at cutoff distance ``dist`` (1 for the original equation)."""
        if self.cfg.equation == "modified":
            return cutoff_theta(dist, self.kappa)
        return 1.0

    def noise_increment(self, state: SpectralState, dW: np.ndarray, grads: tuple | None):
        """Masked increment sum_k sigma(U) e_k dW_k and the masked columns, or
        (None, None) for zero noise.

        State-dependent noise forms the increment in one ``apply_sigma`` call
        with weight rows dW and, only under ``track_ito``, the K identity rows
        for the columns (None otherwise)."""
        cfg = self.cfg
        if cfg.noise.family == "zero":
            return None, None
        if self._static_cols is not None:
            incr = np.zeros_like(state.coeffs)
            for k, col in enumerate(self._static_cols):
                incr += dW[k] * col.coeffs
            return incr, self._static_cols
        weights = np.vstack([dW, np.eye(cfg.noise.K)]) if cfg.track_ito else dW[None]
        rows = apply_sigma(cfg.noise, state, weights, grads)
        for row in rows:
            row.coeffs *= self.mask
        return rows[0].coeffs, rows[1:] if cfg.track_ito else None

    def explicit_drift(
        self, state: SpectralState, theta_val: float, grads: tuple | None = None
    ) -> np.ndarray | None:
        """Galerkin-masked explicit drift -theta B(U) - F(U), or None where it
        vanishes identically; the full drift is -lam U plus this."""
        cfg = self.cfg
        expl = None
        if not self._skip_forcing:
            expl = -forcing_F(state, cfg.physics, cfg.forcing).coeffs
        if cfg.advection and theta_val != 0.0:
            badv = -theta_val * bilinear_B(state, grads=grads).coeffs
            expl = badv if expl is None else expl + badv
        return None if expl is None else expl * self.mask

    def advance(self, state: SpectralState, theta_val: float, dW: np.ndarray):
        """One step; returns (new state, noise increment coefficients, columns).

        The padded gradient samples of U are synthesised once and shared by
        the advection and the transport noise."""
        cfg = self.cfg
        g = self.grid
        coeffs = state.coeffs.copy()
        grads = None
        if (cfg.advection and theta_val != 0.0) or self._noise_uses_grads:
            grads = g.grad_samples(state.coeffs)
        expl = self.explicit_drift(state, theta_val, grads)
        incr, cols = self.noise_increment(state, dW, grads)
        if expl is not None:
            coeffs += cfg.dt * expl
        if incr is not None:
            coeffs += incr
        coeffs *= self.lin
        out = leray_project(SpectralState(g, coeffs, state.time + cfg.dt))
        out.coeffs = g.enforce_reality(out.coeffs * self.mask)
        if not np.isfinite(out.coeffs.view(np.float64)).all():
            raise BlowUpError(f"nonfinite state at t = {out.time}")
        return out, incr, cols


def initial_state(cfg: SolverConfig) -> SpectralState:
    init = cfg.init
    g = cfg.grid
    if init.kind == "zero":
        return g.zero_state()
    if init.kind == "random":
        rng = np.random.default_rng(init.seed)
        return random_state(g, rng, amplitude=init.amplitude, decay=init.decay)
    if init.kind == "single-mode":
        return single_mode_state(g, init.field_name, init.kx, init.ky, init.m, init.amplitude)
    if init.kind == "checkpoint":
        from .checkpoint import load_state

        return load_state(init.path, g)
    raise ValueError(f"unknown init kind {init.kind!r}")


def run_trajectory(
    cfg: SolverConfig, U0: SpectralState | None = None, increments: np.ndarray | None = None
) -> Trajectory:
    """Integrate one path, recording diagnostics and first-hitting times.

    Step j uses row j of ``increments``, an (n_steps, K) array; by default it
    is the path's Wiener stream, drawn once (convergence studies feed block
    sums of a finer path instead)."""
    if U0 is None:
        U0 = initial_state(cfg)
    stepper = Stepper(cfg, U0)
    g = cfg.grid
    U = stepper.initial()
    n_steps = cfg.n_steps
    if increments is None:
        increments = WienerStream(cfg.seed, cfg.trajectory_id, cfg.noise.K).sample(n_steps, cfg.dt)
    elif increments.shape != (n_steps, cfg.noise.K):
        raise ValueError(f"increments must have shape {(n_steps, cfg.noise.K)}")

    forcing_weak = 0.0
    if cfg.forcing is not None:
        fw = h_norm_sq(cfg.forcing)
        # fractional boundary-regularity norm of the temperature forcing row
        w = g.weight_m[None, None, :]
        fw += float(np.sum((1.0 + g.lam) ** 0.5 * np.abs(cfg.forcing.coeffs[2]) ** 2 * w))
        forcing_weak = fw

    # the cutoff distance is evaluated once per state and carried to the next step
    dist = stepper.distance(U)
    theta_val = stepper.theta(dist)
    rec = record(U, dist, theta_val, forcing_weak)
    records = [rec]
    hits: dict = {name: None for name in STOPPING_FUNCTIONALS}
    hits["tau_cutoff"] = None
    for K in cfg.blowup_levels:
        hits[f"blowup@{K:g}"] = None

    sup_V = rec.V_sq
    sup_H = rec.H_sq
    int_DA = 0.0
    int_DA_V2 = 0.0
    prev_DA = rec.DA_sq

    ito_coeffs = np.zeros_like(U.coeffs) if cfg.track_ito else None
    ito_quad = 0.0
    states = [U.copy()] if cfg.store_states else None

    blowup = False
    blowup_time = None
    steps_done = 0

    # overflow on the way to a detected blow-up is expected; the nonfinite
    # guards below define the semantics (numpy powers overflow to inf where
    # float powers raise)
    with np.errstate(over="ignore", invalid="ignore"):
        prev_DA_V2 = rec.DA_sq * np.float64(rec.V_sq) ** ((cfg.apriori_p - 2.0) / 2.0)
        for j in range(n_steps):
            try:
                U, incr, cols = stepper.advance(U, theta_val, increments[j])
            except BlowUpError:
                blowup = True
                blowup_time = U.time + cfg.dt
                break
            steps_done = j + 1

            if cfg.track_ito and cols is not None:
                ito_coeffs += incr
                ito_quad += hs_norm_sq(cols, "H") * cfg.dt

            t = U.time
            V_sq = v_norm_sq(U)
            H_sq = h_norm_sq(U)
            DA_sq = da_norm_sq(U)
            da_v2 = DA_sq * np.float64(V_sq) ** ((cfg.apriori_p - 2.0) / 2.0)
            if not (np.isfinite(V_sq) and np.isfinite(H_sq) and np.isfinite(DA_sq) and np.isfinite(da_v2)):
                # monitored functionals out of representable range: numerical blow-up
                blowup = True
                blowup_time = t
                break
            sup_V = max(sup_V, V_sq)
            sup_H = max(sup_H, H_sq)
            # per-step trapezoids, finer than the stored stride that ``record`` uses
            int_DA += 0.5 * (prev_DA + DA_sq) * cfg.dt
            int_DA_V2 += 0.5 * (prev_DA_V2 + da_v2) * cfg.dt
            prev_DA, prev_DA_V2 = DA_sq, da_v2

            dist_new = stepper.distance(U)
            if hits["tau_cutoff"] is None and dist_new >= stepper.kappa:
                if dist_new == dist:
                    hits["tau_cutoff"] = t
                else:
                    frac = (stepper.kappa - dist) / (dist_new - dist)
                    hits["tau_cutoff"] = t - cfg.dt + min(max(frac, 0.0), 1.0) * cfg.dt
            dist = dist_new
            theta_val = stepper.theta(dist)

            blow_val = sup_V + int_DA
            for K in cfg.blowup_levels:
                key = f"blowup@{K:g}"
                if hits[key] is None and blow_val >= K:
                    hits[key] = t

            if (j + 1) % cfg.store_stride == 0 or (j + 1) == n_steps:
                rec = record(U, dist, theta_val, forcing_weak, prev=records[-1], sq_norms=(H_sq, V_sq, DA_sq))
                if not rec.finite():
                    # a stored functional out of representable range: numerical blow-up
                    blowup = True
                    blowup_time = t
                    break
                records.append(rec)
                if states is not None:
                    states.append(U.copy())

            if cfg.terminate_on_tau and hits["tau_cutoff"] is not None:
                break

    traj = Trajectory(
        config=cfg,
        times=np.array([r.t for r in records]),
        records=records,
        hits=hits,
        blowup=blowup,
        blowup_time=blowup_time,
        sup_V_sq=sup_V,
        sup_H_sq=sup_H,
        int_DA_sq=int_DA,
        int_DA_V2=int_DA_V2,
        final_state=U if not blowup else None,
        kappa=stepper.kappa,
        states=states,
        ito_integral=SpectralState(g, ito_coeffs) if ito_coeffs is not None else None,
        ito_quadratic=ito_quad,
        n_steps_done=steps_done,
    )
    for name, K in cfg.stopping_levels.items():
        hits[name] = detect_stopping(*traj.series(name), K)
    return traj
