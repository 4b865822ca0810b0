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

Every term the step adds comes projected onto the divergence-free space and
masked to the retained modes: the advection, the forcing and the noise
operators each project their own result, and the Galerkin cut
(``Grid.snap_mode_count``) never splits the modes the projection couples, so
the mask commutes with it.  The integrating factor is diagonal, so the step
re-applies only the reality symmetry, and the state stays on the constraint
manifold to round-off.

The Wiener increments of a path are drawn in one call from a counter-based
stream keyed by (seed, trajectory); step j's increment is a pure function of
(seed, trajectory, j), which makes trajectories bit-reproducible and
order-independent across parallel ensembles.

One loop, ``run_paths``, steps a chunk of P paths that share U0 as one
(P, 3, nkx, nky, nm) array; ``run_trajectory`` is its P = 1 case.  Each path
keeps its own records (evaluated for the whole chunk at each stored step),
hitting times, running integrals and Ito sums, and leaves the chunk when it
blows up (a nonfinite state, norm or stored record) or reaches tau_cutoff
under ``terminate_on_tau``; every path equals its own P = 1 run bit for bit.

The step runs on the step grid (``step_grid``): the ky >= 0 half-plane of
``cfg.grid`` cut to the largest |kx|, |ky| and m of the retained modes and of
the support of the transport fields phi and psi.  The cut's horizontal
padding follows the same alias-free rule, and it keeps the padded vertical
nodes of ``cfg.grid``, so it transforms only the coefficient levels it
carries while forming every product on the same z-samples, and the step
agrees with one on ``cfg.grid`` to round-off.  The half-plane holds each
conjugate pair of the real state once (``Grid.half_plane``), so the per-mode
work of a step is (N2' + 1)/(2 N2' + 1) of the cut's; its stepped states
equal the cut's bit for bit, and only the Parseval sums of the step loop
(norms, cutoff distances, Ito quadratic variation) add in another order.
Stored and final states, Ito integrals and records stay on ``cfg.grid``: the
rows are embedded into its layout, and every spectral record column is a
Parseval sum there.  The three sixth-degree quadrature columns run on the
record grid of the retained band (``record_band``, ``Grid.record_grid``),
which is cut on the axes where a grid of twice the band has fewer padded
samples; both grids integrate those products exactly, so the values agree
with ``cfg.grid``'s to round-off.  A full-Galerkin run records on
``cfg.grid`` itself and steps on its half-plane.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .diagnostics import STOPPING_FUNCTIONALS, detect_stopping, record, record_stack, running_integrands
from .noise import NoiseSpec, WienerStream, sigma_coeffs, zero_noise
from .operators import PhysicsParams, advection_coeffs, forcing_coeffs, leray_coeffs
from .spectral import (
    Grid,
    PaddedSamples,
    SpectralState,
    Workspace,
    _parseval_sq,
    h_norm_sq,
    random_state,
    single_mode_state,
    sq_norms,
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
    "step_grid",
    "record_band",
    "chunk_size",
    "run_paths",
    "run_trajectory",
]


class BlowUpError(RuntimeError):
    """Raised by studies that need every path to stay in the representable range."""


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
    """Stored records, first-hitting times and per-step reductions of one path;
    ``states`` holds the stored states as one (n_stored, 3, nkx, nky, nm) array."""

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
    states: np.ndarray | None = None
    ito_integral: SpectralState | None = None
    ito_quadratic: float = 0.0
    n_steps_done: int = 0

    def series(self, name: str):
        """(times, values) of a stored column or stopping functional."""
        t = np.array([r.t for r in self.records])
        if name in STOPPING_FUNCTIONALS:
            return t, np.array([r.stopping[name] for r in self.records])
        return t, np.array([getattr(r, name) for r in self.records])


def cutoff_theta(r: float | np.ndarray, kappa: float) -> float | np.ndarray:
    """Smooth even bump: 1 on [0, kappa/2], 0 from kappa on, strictly
    decreasing in between (standard exp(-1/x) transition).  Elementwise: a
    float for a float, an array for an array."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    r = np.abs(np.asarray(r, dtype=float))
    u = (2.0 * r - kappa) / kappa  # maps (kappa/2, kappa) to (0, 1)
    # every branch is evaluated; only the band (kappa/2, kappa) is kept
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        fu = np.exp(-1.0 / u)
        f1u = np.exp(-1.0 / (1.0 - u))
        theta = np.where(r <= kappa / 2, 1.0, np.where(r >= kappa, 0.0, f1u / (f1u + fu)))
    return theta if theta.ndim else float(theta)


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


def _band(g: Grid, support: np.ndarray) -> tuple:
    """The largest |kx|, |ky| and m over the support (nkx, nky, nm) of ``g``."""
    kx, ky, m = np.nonzero(support)
    return int(np.abs(g.kx_int[kx]).max()), int(np.abs(g.ky_int[ky]).max()), int(m.max())


def step_grid(cfg: SolverConfig) -> Grid:
    """The grid the step map runs on: the ky >= 0 half-plane (``Grid.half_plane``)
    of ``cfg.grid`` cut (``Grid.subgrid``) to the largest |kx|, |ky| and
    vertical index m over the retained modes and over the support of the
    state-dependent noise fields phi and psi.  The cut keeps the padded
    vertical nodes of ``cfg.grid``, through which the transport noise is
    projected, and its horizontal padding follows the alias-free rule, so the
    step agrees with one on ``cfg.grid`` to round-off.  The half-plane holds
    each conjugate pair of the real state once and gives the cut's values on
    its modes, so the stepped states equal the cut's bit for bit."""
    return cfg.grid.subgrid(*_band(cfg.grid, _pn_mask(cfg).any(axis=0) | cfg.noise.transport_support)).half_plane()


def record_band(cfg: SolverConfig) -> tuple:
    """The retained band (N1', N2', M'): the largest |kx|, |ky| and m over the
    retained modes, which hold every recorded state.  Records evaluate their
    sixth-degree quadratures on its record grid, ``cfg.grid.record_grid(*band)``."""
    return _band(cfg.grid, _pn_mask(cfg).any(axis=0))


# padded-grid samples per stacked field in one chunk of paths (see ``chunk_size``)
CHUNK_SAMPLES = 2**13

# the scratch of this thread's steps and stored records (see ``Stepper``)
_thread = threading.local()


def _workspace() -> Workspace:
    """This thread's workspace, made on first use."""
    if not hasattr(_thread, "work"):
        _thread.work = Workspace()
    return _thread.work


def chunk_size(grid: Grid) -> int:
    """Paths stepped as one stack on the step grid ``grid`` (``step_grid``): a
    fixed budget of padded-grid samples, so small grids stack many paths and
    large ones few, and the same paths stack together whatever the worker
    count.  2^13 gives 16 paths on ``example1-small``, 4 on the
    ``smallnoise-888`` step grid and 512 on ``ou-single-mode`` (README
    "Design notes" has the measurements)."""
    return max(1, CHUNK_SAMPLES // (grid.nx_pad * grid.ny_pad * grid.nz_pad))


class Stepper:
    """The precomputed one-step map of paths that share U0.  Every method acts
    on a stack of P paths in the layout of the step grid ``self.grid``
    (``step_grid``), coefficients (P, 3, nkx', nky', nm'), one row per path;
    ``run_paths`` is its only caller.  The noise operator and the forcing are
    cut to the step grid.  ``U0n`` (the masked, projected initial state) and
    ``kappa`` stay on ``cfg.grid``; ``c0`` is U0n in the step-grid layout.

    ``work`` holds the scratch arrays of the steps and of ``run_paths``'
    stored records (``spectral.Workspace``): the samples, the grid products
    and the transforms' intermediates, kept for the latest stack shape.  It
    is the thread's workspace, which outlives the stepper: a stepper lives
    for one chunk of paths, and a workspace of its own would be allocated
    and faulted in again for every chunk.  A step runs to its end before
    another starts, so the steppers of one thread can share it.  Only
    arrays that die within a step or a record live there; the rows,
    increments and columns a step returns are always fresh."""

    def __init__(self, cfg: SolverConfig, U0: SpectralState):
        self.cfg = cfg
        full = cfg.grid
        g = step_grid(cfg)
        self.grid = g
        mask = _pn_mask(cfg)
        self.mask = full.extract(g, mask)
        # the mask as the complex factor that multiplying by it casts it to: a cast
        # inside the product would allocate numpy's casting buffer on every call
        self._mask_c = self.mask.astype(np.complex128)
        self.U0n = SpectralState(full, full.enforce_reality(leray_coeffs(full, U0.coeffs) * mask), U0.time)
        self.c0 = full.extract(g, self.U0n.coeffs)
        self.noise = cfg.noise.restricted(g)
        self.forcing = None if cfg.forcing is None else SpectralState(g, full.extract(g, cfg.forcing.coeffs))
        if cfg.scheme == "exponential":
            self.lin = np.exp(-g.lam * cfg.dt)[None]
        else:
            self.lin = (1.0 / (1.0 + g.lam * cfg.dt))[None]
        self.work = _workspace()
        if cfg.kappa_cutoff is not None:
            self.kappa = cfg.kappa_cutoff
        else:
            v0 = math.sqrt(v_norm_sq(self.U0n))
            self.kappa = 0.5 * v0 if v0 > 0 else 1.0
        # state-independent noise columns can be prepared once, as one (K, 3, ...) array,
        # with their squared H norms (K,)
        self._static_cols = self.static_sq = None
        if cfg.noise.family != "zero" and cfg.noise.is_additive:
            self._static_cols = sigma_coeffs(self.noise, np.zeros_like(self.c0)[None])[0] * self.mask
            self.static_sq = _parseval_sq(g, self._static_cols)
        # the aggregate linear term vanishes identically in this configuration
        self._skip_forcing = (
            cfg.forcing is None
            and cfg.physics.f == 0.0
            and cfg.physics.beta_T * cfg.physics.g == 0.0
        )

    def initial(self) -> SpectralState:
        """A copy of ``U0n``, the masked and projected initial state on ``cfg.grid``."""
        return self.U0n.copy()

    def distance(self, coeffs: np.ndarray, t: float) -> np.ndarray:
        """Cutoff distances ||U - U*|| (P,) of the rows to the free decay of U0 at time t."""
        factor = np.exp(-self.grid.lam * (t - self.U0n.time))
        diff = coeffs - self.c0 * factor[None]
        return np.sqrt(_parseval_sq(self.grid, diff, 1.0))

    def theta(self, dist: np.ndarray) -> np.ndarray:
        """Advection switch (P,) at the cutoff distances (1 for the original equation)."""
        if self.cfg.equation == "modified":
            return cutoff_theta(dist, self.kappa)
        return np.ones(len(dist))

    def noise_increment(self, coeffs: np.ndarray, dW: np.ndarray, samples: PaddedSamples | None):
        """Masked increments sum_k sigma(U) e_k dW_k of the rows (P, 3, nkx', nky', nm'),
        for weights dW (P, K), and the masked columns (P, K, 3, nkx', nky', nm');
        (None, None) for zero noise.

        Under ``track_ito`` state-dependent noise forms the K columns in one
        ``sigma_coeffs`` call with the K identity weight rows, and additive noise
        broadcasts its fixed columns to every row as a read-only view; the
        increments are then the dW-weighted sum of the columns, one formula for
        both.  Without it, state-dependent noise forms only the increments, as
        one ``sigma_coeffs`` row with weights dW, and no columns (None): K
        columns would cost K analyses on the grid.  Transport noise with
        varying phi or psi reads the rows' ``samples`` when the step has them."""
        cfg = self.cfg
        K = cfg.noise.K
        if cfg.noise.family == "zero":
            return None, None
        if self._static_cols is not None:
            cols = np.broadcast_to(self._static_cols, (len(dW),) + self._static_cols.shape)
        elif cfg.track_ito:
            eye = np.broadcast_to(np.eye(K), (len(dW), K, K))
            cols = sigma_coeffs(self.noise, coeffs, eye, samples, work=self.work)
            cols *= self._mask_c
        else:
            incr = sigma_coeffs(self.noise, coeffs, dW[:, None], samples, work=self.work)[:, 0]
            incr *= self._mask_c
            return incr, None
        # the weighted columns summed in order, one term at a time, from the 0 that
        # ``sum`` starts from (0 + x turns -0 into +0)
        weights = dW[:, :, None, None, None, None]
        incr = np.multiply(weights[:, 0], cols[:, 0])
        incr += 0.0
        if K > 1:
            term = self.work.array("scratch.a", incr.shape, np.complex128)
            for k in range(1, K):
                incr += np.multiply(weights[:, k], cols[:, k], out=term)
        return incr, cols

    def explicit_drift(self, coeffs: np.ndarray, theta: np.ndarray, samples: PaddedSamples | None = None):
        """Projected, Galerkin-masked explicit drift -theta B(U) - F(U) of the
        rows, and the rows that carry one as a (P,) boolean mask; (None, None)
        where it vanishes identically.  The full drift is -lam U plus this on
        those rows.  A row with theta = 0 gets no advection term at all:
        0 * B(U) is NaN where B(U) overflows.  ``samples``, the rows'
        ``Grid.padded_samples`` when the caller has them, skip their synthesis."""
        cfg = self.cfg
        g = self.grid
        advecting = cfg.advection and theta.any()
        if self._skip_forcing and not advecting:
            return None, None
        expl = None
        if not self._skip_forcing:
            expl = forcing_coeffs(g, coeffs, cfg.physics, self.forcing)
            np.negative(expl, out=expl)
        carries = np.full(len(coeffs), expl is not None)
        if advecting:
            adv = theta != 0.0
            rows = slice(None) if adv.all() else adv
            if samples is not None and not adv.all():
                samples = samples.rows(adv)
            badv = advection_coeffs(g, coeffs[rows], samples=samples, work=self.work)
            badv *= -theta[rows, None, None, None, None]
            if expl is None:
                expl = np.zeros_like(coeffs)
                expl[rows] = badv
            else:
                expl[rows] += badv
            carries |= adv
        expl *= self._mask_c
        return expl, carries

    def advance(self, coeffs: np.ndarray, theta: np.ndarray, dW: np.ndarray):
        """One step of every row, at switches theta (P,) with increments dW (P, K);
        returns the new coefficients and the noise increments and columns of
        ``noise_increment``.

        The step makes at most one synthesis: ``Grid.padded_samples`` of U,
        when the advection or the noise (``NoiseSpec.reads_samples``) needs it,
        and the advection and the noise read the same samples; otherwise
        family-2 noise synthesises its depth mean.  With advection and
        grid-evaluated transport noise a step makes one synthesis and two
        analyses.  Transport noise with constant phi and psi is formed in
        spectral space and needs none, so with advection off such a step makes
        no transform.

        The step projects and masks nothing itself: the drift and the noise
        come projected by their operators and masked, the integrating factor is
        diagonal, and the reality fold keeps the rows divergence-free."""
        cfg = self.cfg
        g = self.grid
        self.work.fit(coeffs.shape)
        samples = None
        if self.noise.reads_samples or (cfg.advection and theta.any()):
            samples = g.padded_samples(coeffs, work=self.work)
        expl, carries = self.explicit_drift(coeffs, theta, samples)
        incr, cols = self.noise_increment(coeffs, dW, samples)
        out = coeffs.copy()
        if expl is not None:
            expl *= cfg.dt
            np.add(out, expl, out=out, where=carries[:, None, None, None, None])
        if incr is not None:
            out += incr
        out *= self.lin
        return g.enforce_reality(out), incr, cols


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


def _forcing_weak(cfg: SolverConfig) -> float:
    if cfg.forcing is None:
        return 0.0
    g = cfg.grid
    fw = h_norm_sq(cfg.forcing)
    # fractional boundary-regularity norm of the temperature forcing row
    w = g.weight_m[None, None, :]
    return fw + float(np.sum((1.0 + g.lam) ** 0.5 * np.abs(cfg.forcing.coeffs[2]) ** 2 * w))


def _copy(obj, **changes):
    """A shallow copy of the dataclass instance ``obj`` with ``changes`` set,
    sharing every other field: ``dataclasses.replace`` without re-running
    ``__init__`` and ``__post_init__``, which costs more than the copy."""
    out = object.__new__(type(obj))
    out.__dict__.update(obj.__dict__, **changes)
    return out


def _trapezoid(total, before, now, span):
    """A running integral extended by one trapezoid of width ``span``."""
    return total + 0.5 * (before + now) * span


def _keep(rows: SimpleNamespace, mask: np.ndarray):
    for name, a in vars(rows).items():
        if a is not None:
            setattr(rows, name, a[mask])


def run_paths(
    cfg: SolverConfig, trajectory_ids, U0: SpectralState | None = None, increments: np.ndarray | None = None
) -> list:
    """Integrate the paths ``trajectory_ids`` from one initial state, stepped
    together as one (P, 3, nkx', nky', nm') array on the step grid; returns one
    Trajectory per id, in order, each equal bit for bit to that path's own
    P = 1 run.  Records, stored and final states and Ito integrals are on
    ``cfg.grid``: the step-grid rows are embedded into its layout.

    Path p uses the (n_steps, K) block ``increments[p]``; by default it is the
    path's Wiener stream, drawn in one call (convergence studies feed block
    sums of a finer path instead).  A path that blows up, or that reaches
    tau_cutoff under ``terminate_on_tau``, leaves the stack, and the others
    go on.

    Records are functionals of one state (``diagnostics.record_stack``), and
    this loop accumulates every running integral by the trapezoid rule:
    int |AU|^2 and the a-priori int |AU|^2 ||U||_V^(p-2) on every step, and
    the nine of ``running_integrands`` on the stored stride, which it writes
    into each stored record with int |AU|^2."""
    ids = [int(i) for i in trajectory_ids]
    if not ids:
        raise ValueError("need at least one trajectory id")
    if U0 is None:
        U0 = initial_state(cfg)
    stepper = Stepper(cfg, U0)
    full, g = cfg.grid, stepper.grid
    n_steps, dt, K = cfg.n_steps, cfg.dt, cfg.noise.K
    if increments is None:
        increments = np.stack([WienerStream(cfg.seed, i, K).sample(n_steps, dt) for i in ids])
    elif increments.shape != (len(ids), n_steps, K):
        raise ValueError(f"increments must have shape {(len(ids), n_steps, K)}")
    forcing_weak = _forcing_weak(cfg)
    band = record_band(cfg)
    power = (cfg.apriori_p - 2.0) / 2.0

    # every path starts from the same state: its first record is computed once
    U = stepper.initial()
    t = U.time
    dist0 = stepper.distance(stepper.c0[None], t)
    theta0 = stepper.theta(dist0)
    rec0 = record(U, float(dist0[0]), float(theta0[0]), band=band)
    integrands0 = list(running_integrands(rec0, forcing_weak).values())
    records = [[_copy(rec0, extras=dict(rec0.extras), stopping=dict(rec0.stopping))] for _ in ids]
    states = [[U.coeffs] for _ in ids] if cfg.store_states else None
    hit_names = ("tau_cutoff", *(f"blowup@{level:g}" for level in cfg.blowup_levels))
    out = [None] * len(ids)

    def leave(mask: np.ndarray, when: float, steps: int, blowup: bool):
        """Finish the paths of the masked rows and drop those rows."""
        if not mask.any():
            return
        leaving = np.flatnonzero(mask)
        # the final states and Ito integrals of the leaving rows, embedded as one stack
        finals = None if blowup else full.embed(g, rows.U[leaving])
        itos = None if rows.ito is None else full.embed(g, rows.ito[leaving])
        for i, row in enumerate(leaving):
            p = rows.path[row]
            hits = dict.fromkeys(STOPPING_FUNCTIONALS)
            for name, hit in zip(hit_names, (rows.tau_hit[row], *rows.level_hit[row])):
                hits[name] = None if np.isnan(hit) else float(hit)
            traj = Trajectory(
                config=cfg if ids[p] == cfg.trajectory_id else _copy(cfg, trajectory_id=ids[p]),
                times=np.array([rec.t for rec in records[p]]),
                records=records[p],
                hits=hits,
                blowup=blowup,
                blowup_time=when if blowup else None,
                sup_V_sq=float(rows.sup_V[row]),
                sup_H_sq=float(rows.sup_H[row]),
                int_DA_sq=float(rows.int_DA[row]),
                int_DA_V2=float(rows.int_DA_V2[row]),
                final_state=None if finals is None else SpectralState(full, finals[i], when),
                kappa=stepper.kappa,
                states=np.array(states[p]) if states is not None else None,
                ito_integral=None if itos is None else SpectralState(full, itos[i]),
                ito_quadratic=float(rows.ito_quad[row]),
                n_steps_done=steps,
            )
            for name, level in cfg.stopping_levels.items():
                hits[name] = detect_stopping(*traj.series(name), level)
            out[p] = traj
        _keep(rows, ~mask)

    # overflow on the way to a detected blow-up is expected; the nonfinite
    # guards below define the semantics (numpy powers overflow to inf where
    # float powers raise)
    with np.errstate(over="ignore", invalid="ignore"):
        P = len(ids)
        rows = SimpleNamespace(
            path=np.arange(P),
            U=np.repeat(stepper.c0[None], P, axis=0),
            increments=increments,
            dist=np.repeat(dist0, P),
            theta=np.repeat(theta0, P),
            sup_V=np.full(P, rec0.V_sq),
            sup_H=np.full(P, rec0.H_sq),
            int_DA=np.zeros(P),
            int_DA_V2=np.zeros(P),
            prev_DA=np.full(P, rec0.DA_sq),
            prev_DA_V2=np.full(P, rec0.DA_sq * np.float64(rec0.V_sq) ** power),
            # the integrals of running_integrands, and their integrands at the last stored step
            running=np.zeros((P, len(integrands0))),
            prev_running=np.tile(integrands0, (P, 1)),
            ito=np.zeros((P,) + stepper.c0.shape, dtype=np.complex128) if cfg.track_ito else None,
            ito_quad=np.zeros(P),
            # hitting times (NaN: not reached)
            tau_hit=np.full(P, np.nan),
            level_hit=np.full((P, len(cfg.blowup_levels)), np.nan),
        )
        t_stored = t
        for j in range(n_steps):
            new, incr, cols = stepper.advance(rows.U, rows.theta, rows.increments[:, j])
            norms = sq_norms(g, new)
            norms += (norms[2] * norms[1] ** power,)
            ok = np.isfinite(np.array(norms)).all(axis=0)
            if not ok.all():
                # a nonfinite state (its H norm is nonfinite too) leaves before its
                # Ito increment counts, a finite one with nonfinite norms after it
                finite = np.isfinite(new.view(np.float64)).reshape(len(new), -1).all(axis=1)
                leave(~finite, t + dt, j, blowup=True)
                if not finite.any():
                    break
                new, incr, cols, ok = (None if a is None else a[finite] for a in (new, incr, cols, ok))
                norms = tuple(a[finite] for a in norms)
            rows.U = new
            t = t + dt

            if cfg.track_ito and cols is not None:
                rows.ito += incr
                # (P, K), or the static columns' (K,), summed in column order
                sq = _parseval_sq(g, cols) if stepper.static_sq is None else stepper.static_sq
                rows.ito_quad += sum(sq[..., k] for k in range(K)) * dt

            if not ok.all():
                # monitored functionals out of representable range: numerical blow-up
                leave(~ok, t, j + 1, blowup=True)
                if not ok.any():
                    break
                norms = tuple(a[ok] for a in norms)
            H_sq, V_sq, DA_sq, da_v2 = norms
            rows.sup_V = np.maximum(rows.sup_V, V_sq)
            rows.sup_H = np.maximum(rows.sup_H, H_sq)
            rows.int_DA = _trapezoid(rows.int_DA, rows.prev_DA, DA_sq, dt)
            rows.int_DA_V2 = _trapezoid(rows.int_DA_V2, rows.prev_DA_V2, da_v2, dt)
            rows.prev_DA, rows.prev_DA_V2 = DA_sq, da_v2

            dist = stepper.distance(rows.U, t)
            # interpolated in the step; tau is not yet hit, so the previous distance is below kappa
            reached = np.isnan(rows.tau_hit) & (dist >= stepper.kappa)
            if reached.any():
                before, now = rows.dist[reached], dist[reached]
                rows.tau_hit[reached] = t - dt + (stepper.kappa - before) / (now - before) * dt
            rows.dist = dist
            rows.theta = stepper.theta(dist)

            reached = np.isnan(rows.level_hit) & ((rows.sup_V + rows.int_DA)[:, None] >= cfg.blowup_levels)
            rows.level_hit[reached] = t

            if (j + 1) % cfg.store_stride == 0 or (j + 1) == n_steps:
                stored = full.embed(g, rows.U)
                stack = record_stack(full, stored, t, rows.dist, rows.theta, band, work=stepper.work)
                integrands = running_integrands(stack, forcing_weak)
                now = np.stack(list(integrands.values()), axis=1)
                rows.running = _trapezoid(rows.running, rows.prev_running, now, t - t_stored)
                rows.prev_running, t_stored = now, t
                totals = dict(zip(integrands, rows.running.T))
                stack.stopping = {name: totals.pop(name) for name in STOPPING_FUNCTIONALS}
                vars(stack).update(totals, int_T_funcs=stack.stopping["temperature"], int_DA_sq=rows.int_DA)
                # a stored functional out of representable range: numerical blow-up
                ok = stack.finite()
                for row, rec in zip(np.flatnonzero(ok), stack.split(ok)):
                    p = rows.path[row]
                    records[p].append(rec)
                    if states is not None:
                        states[p].append(stored[row].copy())
                leave(~ok, t, j + 1, blowup=True)

            if cfg.terminate_on_tau:
                leave(~np.isnan(rows.tau_hit), t, j + 1, blowup=False)
            if not len(rows.path):
                break
        leave(np.ones(len(rows.path), dtype=bool), t, n_steps, blowup=False)
    return out


def run_trajectory(
    cfg: SolverConfig, U0: SpectralState | None = None, increments: np.ndarray | None = None
) -> Trajectory:
    """Integrate one path, recording diagnostics and first-hitting times:
    ``run_paths`` with P = 1.

    Step j uses row j of ``increments``, an (n_steps, K) array; by default it
    is the path's Wiener stream, drawn once."""
    if increments is not None:
        if increments.shape != (cfg.n_steps, cfg.noise.K):
            raise ValueError(f"increments must have shape {(cfg.n_steps, cfg.noise.K)}")
        increments = increments[None]
    return run_paths(cfg, [cfg.trajectory_id], U0, increments)[0]
