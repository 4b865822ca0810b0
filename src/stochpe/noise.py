"""Gradient-dependent multiplicative noise: operator families, Hilbert-Schmidt
norms, reproducible Wiener sampling, and growth-constant estimation.

Two concrete families are provided.  Family 1 transports the velocity with
per-direction coefficient fields

    column_k(v) = P_H[(phi_k . grad) v + psi_k dz v + alpha_k v + chi_k],

family 2 transports only the depth mean (phi_k independent of z)

    column_k(v) = P_H[(phi_k . grad) A3 v + alpha_k v + chi_k].

Columns with spatially varying phi_k, psi_k are evaluated pseudo-spectrally:
gradients spectrally, products on the dealiased grid, then re-expansion on
the retained cosine modes.  The vertical-derivative term psi_k dz v has
sine-type vertical structure, so the re-expansion is the discrete Galerkin
projection of that profile through the padded vertical nodes.  When every
phi_k and psi_k is constant in space, the same projection is a diagonal
multiplier horizontally and the matrix ``Grid.dz_nodal`` vertically, so the
columns are formed in spectral space with no transform; the two evaluations
agree to round-off.

Temperature noise has no closed-form family here; as an explicit
extrapolation, the velocity structure can be mirrored onto the temperature
row with ``include_temperature=True`` (off by default).

Derived constants (theta0, theta1, kappa, alpha) are always recomputed from
the stored coefficient fields; sup norms are grid maxima on the dealiased
grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .operators import _lift, leray_inplace, leray_project
from .spectral import (
    Grid,
    PaddedSamples,
    SpectralState,
    Workspace,
    _parseval_sq,
    _scratch,
    add_cos_mode,
    barotropic_sq_norms,
    da_norm_sq,
    grad3_dz_sq,
    h_norm_sq,
    random_state,
    v_norm_sq,
)

__all__ = [
    "NoiseSpec",
    "HypothesisReport",
    "WienerStream",
    "zero_noise",
    "example1_noise",
    "example2_noise",
    "additive_single_mode_noise",
    "apply_sigma",
    "sigma_coeffs",
    "hs_norm_sq",
    "hs_norm",
    "estimate_growth_constants",
    "hypothesis_thresholds",
]

_MASK64 = (1 << 64) - 1

# deterministic cycles for the closed-form coefficient families
_WAVES = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 0), (0, 2), (2, 1), (1, 2)]
_DIRS = [(1.0, 0.0), (0.0, 1.0), (np.sqrt(0.5), np.sqrt(0.5))]


@dataclass
class NoiseSpec:
    """Truncated noise operator: K directions with stored coefficient fields.

    phi: (K, 2, nkx, nky, nm), psi: (K, nkx, nky, nm), chi: (K, 2, nkx, nky, nm)
    spectral coefficient arrays; alpha: (K,).  All-zero blocks are allowed, and family 2 needs psi = 0.
    """

    grid: Grid
    family: str  # "zero" | "example1" | "example2"
    phi: np.ndarray
    psi: np.ndarray
    chi: np.ndarray
    alpha: np.ndarray
    include_temperature: bool = False

    def __post_init__(self):
        if self.family not in ("zero", "example1", "example2"):
            raise ValueError(f"unknown noise family {self.family!r}")
        K = self.phi.shape[:1]
        modes = (self.grid.nkx, self.grid.nky, self.grid.nm)
        for name, shape in (("phi", (*K, 2, *modes)), ("psi", (*K, *modes)), ("chi", (*K, 2, *modes)), ("alpha", K)):
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(f"noise field {name} has shape {np.shape(getattr(self, name))}, expected {shape}")
        if self.family == "example2" and (np.abs(self.phi[..., 1:]).max(initial=0.0) > 0 or self.psi.any()):
            raise ValueError("family 2 transports the depth mean only: z-independent phi_k and zero psi_k")

    @property
    def K(self) -> int:
        return self.phi.shape[0]

    # -- cached physical samples of the coefficient fields --------------------

    @cached_property
    def _phi_grid(self) -> np.ndarray:
        return self.grid.synth_cos(self.phi)

    @cached_property
    def _psi_grid(self) -> np.ndarray:
        return self.grid.synth_cos(self.psi)

    # -- derived constants, recomputed from the stored fields -----------------

    @cached_property
    def theta0_sq(self) -> float:
        phi_sq = (self._phi_grid**2).sum(axis=1)
        return float(np.sum(_grid_max(phi_sq)) + np.sum(_grid_max(self._psi_grid**2)))

    @cached_property
    def theta1_sq(self) -> float:
        gx, gy, gz = self.grid.padded_samples(np.concatenate([self.phi, self.psi[:, None]], axis=1)).grads
        sq = gx**2 + gy**2 + gz**2  # (K, 3, grid): phi components, then psi
        return float(np.sum(_grid_max(sq[:, :2].sum(axis=1))) + np.sum(_grid_max(sq[:, 2])))

    @cached_property
    def kappa_sq(self) -> float:
        return float(sum(_parseval_sq(self.grid, self.chi, 1.0), 0.0))

    @cached_property
    def alpha_sq(self) -> float:
        return float(np.sum(self.alpha**2))

    @cached_property
    def _restrictions(self) -> dict:
        return {}

    def restricted(self, grid: Grid) -> "NoiseSpec":
        """The operator on ``grid``, a sub-grid of ``self.grid`` (``Grid.subgrid``)
        or a half-plane layout (``Grid.half_plane``), with every coefficient field
        cut to its modes (``Grid.extract``); the spec itself when ``grid`` is its
        own.  For a state on the sub-grid, and phi and psi inside it, its columns
        equal the full operator's on the sub-grid's modes up to round-off: both
        grids form the products alias-free.  One spec is made per grid, so every
        run on a grid shares its cached samples of phi and psi."""
        if grid is self.grid:
            return self
        if grid not in self._restrictions:
            cut = self.grid.extract
            self._restrictions[grid] = NoiseSpec(
                grid,
                self.family,
                cut(grid, self.phi),
                cut(grid, self.psi),
                cut(grid, self.chi),
                self.alpha,
                self.include_temperature,
            )
        return self._restrictions[grid]

    def without_additive(self) -> "NoiseSpec":
        """Linear part only (chi = 0); used for Lipschitz estimation."""
        return NoiseSpec(
            self.grid,
            self.family,
            self.phi,
            self.psi,
            np.zeros_like(self.chi),
            self.alpha,
            self.include_temperature,
        )

    @cached_property
    def transport_support(self) -> np.ndarray:
        """The modes (nkx, nky, nm) where phi or psi has a nonzero coefficient."""
        return self.phi.any(axis=(0, 1)) | self.psi.any(axis=0)

    @cached_property
    def constant_transport(self) -> bool:
        """True when phi and psi are constant in space: ``transport_support``
        holds no mode other than (0, 0, 0)."""
        return not self.transport_support.ravel()[1:].any()

    @cached_property
    def reads_samples(self) -> bool:
        """True when the columns need U's own ``Grid.padded_samples``, which a step
        then makes even with advection off: family 1 with varying phi or psi.
        Family 2 reads its m = 0 level when given them, and synthesises it otherwise."""
        return self.family == "example1" and not self.constant_transport

    @cached_property
    def is_additive(self) -> bool:
        """True when the operator does not depend on the state at all."""
        return (
            self.family == "zero"
            or (
                np.abs(self.phi).max(initial=0.0) == 0.0
                and np.abs(self.psi).max(initial=0.0) == 0.0
                and np.abs(self.alpha).max(initial=0.0) == 0.0
            )
        )


def _grid_max(samples: np.ndarray) -> np.ndarray:
    """Maximum over the three trailing grid axes."""
    return samples.max(axis=(-3, -2, -1))


def _empty_fields(grid: Grid, K: int):
    shape = (K, grid.nkx, grid.nky, grid.nm)
    phi = np.zeros((K, 2) + shape[1:], dtype=np.complex128)
    psi = np.zeros(shape, dtype=np.complex128)
    chi = np.zeros((K, 2) + shape[1:], dtype=np.complex128)
    alpha = np.zeros(K)
    return phi, psi, chi, alpha


def zero_noise(grid: Grid, K: int = 1) -> NoiseSpec:
    phi, psi, chi, alpha = _empty_fields(grid, K)
    return NoiseSpec(grid, "zero", phi, psi, chi, alpha)


def _direction_weights(K: int, decay: float) -> np.ndarray:
    w = np.arange(1, K + 1, dtype=float) ** (-decay)
    return w / np.sqrt(np.sum(w**2))


def _wave(grid: Grid, k: int, osc: int):
    a, b = _WAVES[k % len(_WAVES)]
    a = min(a * osc, grid.spec.N1)
    b_sign = 1 if b >= 0 else -1
    b = b_sign * min(abs(b) * osc, grid.spec.N2)
    return a, b


def _chi_field(grid: Grid, k: int, amp: float) -> np.ndarray:
    """Divergence-free single-mode additive field for direction k."""
    a, b = _WAVES[k % len(_WAVES)]
    a = min(a, grid.spec.N1)
    b = int(np.sign(b)) * min(abs(b), grid.spec.N2)
    if a == 0 and b == 0:
        a = 1
    m = k % min(3, grid.nm)
    kxp = 2 * np.pi * a / grid.spec.L1
    kyp = 2 * np.pi * b / grid.spec.L2
    norm = np.hypot(kxp, kyp)
    u = (-kyp / norm, kxp / norm)
    out = np.zeros((2, grid.nkx, grid.nky, grid.nm), dtype=np.complex128)
    for c in range(2):
        if u[c] != 0.0:
            add_cos_mode(grid, out[c], a, b, m, amp * u[c])
    return out


def example1_noise(
    grid: Grid,
    K: int = 4,
    amp_phi: float = 0.1,
    amp_psi: float = 0.1,
    amp_chi: float = 0.0,
    amp_alpha: float = 0.0,
    decay: float = 1.0,
    osc: int = 0,
    include_temperature: bool = False,
) -> NoiseSpec:
    """Transport noise with per-direction horizontal and vertical derivatives.

    osc = 0 gives constant phi_k, psi_k (zero derivative budget theta1);
    osc >= 1 modulates each coefficient field with a single wave of that
    frequency multiplier, so theta1 grows linearly with osc.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    phi, psi, chi, alpha = _empty_fields(grid, K)
    w = _direction_weights(K, decay)
    for k in range(K):
        ux, uy = _DIRS[k % len(_DIRS)]
        if osc == 0:
            phi[k, 0, 0, 0, 0] = amp_phi * w[k] * ux
            phi[k, 1, 0, 0, 0] = amp_phi * w[k] * uy
            psi[k, 0, 0, 0] = amp_psi * w[k]
        else:
            a, b = _wave(grid, k, osc)
            m = min(osc, grid.spec.M)
            add_cos_mode(grid, phi[k, 0], a, b, m, amp_phi * w[k] * ux)
            add_cos_mode(grid, phi[k, 1], a, b, m, amp_phi * w[k] * uy)
            add_cos_mode(grid, psi[k], a, b, m, amp_psi * w[k])
        if amp_chi:
            chi[k] = _chi_field(grid, k, amp_chi * w[k])
        alpha[k] = amp_alpha * w[k]
    return NoiseSpec(grid, "example1", phi, psi, chi, alpha, include_temperature)


def example2_noise(
    grid: Grid,
    K: int = 4,
    amp_phi: float = 0.1,
    amp_chi: float = 0.0,
    amp_alpha: float = 0.0,
    decay: float = 1.0,
    osc: int = 0,
    include_temperature: bool = False,
) -> NoiseSpec:
    """Depth-mean transport noise: phi_k independent of z by construction."""
    if K < 1:
        raise ValueError("K must be >= 1")
    phi, psi, chi, alpha = _empty_fields(grid, K)
    w = _direction_weights(K, decay)
    for k in range(K):
        ux, uy = _DIRS[k % len(_DIRS)]
        if osc == 0:
            phi[k, 0, 0, 0, 0] = amp_phi * w[k] * ux
            phi[k, 1, 0, 0, 0] = amp_phi * w[k] * uy
        else:
            a, b = _wave(grid, k, osc)
            add_cos_mode(grid, phi[k, 0], a, b, 0, amp_phi * w[k] * ux)
            add_cos_mode(grid, phi[k, 1], a, b, 0, amp_phi * w[k] * uy)
        if amp_chi:
            chi[k] = _chi_field(grid, k, amp_chi * w[k])
        alpha[k] = amp_alpha * w[k]
    return NoiseSpec(grid, "example2", phi, psi, chi, alpha, include_temperature)


def additive_single_mode_noise(
    grid: Grid, field_name: str = "v2", kx: int = 1, ky: int = 0, m: int = 0, amplitude: float = 1.0
) -> NoiseSpec:
    """One additive direction on a single divergence-free mode (no state feedback)."""
    phi, psi, chi, alpha = _empty_fields(grid, 1)
    comp = {"v1": 0, "v2": 1}[field_name]
    add_cos_mode(grid, chi[0, comp], kx, ky, m, amplitude)
    return NoiseSpec(grid, "example1", phi, psi, chi, alpha)


# -- applying the operator -----------------------------------------------------


def apply_sigma(spec: NoiseSpec, state: SpectralState, weights: np.ndarray | None = None) -> list:
    """Noise columns sigma(U) e_k as projected spectral states.

    With a (J, K) ``weights`` matrix W the J states sum_k W_jk sigma(U) e_k are
    returned instead (identity by default); see ``sigma_coeffs``.
    """
    g = spec.grid
    if g is not state.grid and g.lam.shape != state.grid.lam.shape:
        raise ValueError("noise specification and state resolution mismatch")
    W = np.eye(spec.K) if weights is None else np.asarray(weights, dtype=float)
    if W.ndim != 2 or W.shape[1] != spec.K:
        raise ValueError(f"weights must have shape (J, {spec.K})")
    return [SpectralState(g, c, state.time) for c in sigma_coeffs(spec, state.coeffs[None], W[None])[0]]


def sigma_coeffs(
    spec: NoiseSpec,
    coeffs: np.ndarray,
    weights: np.ndarray | None = None,
    samples: PaddedSamples | None = None,
    *,
    work: Workspace | None = None,
) -> np.ndarray:
    """``apply_sigma`` on a stack: coefficients (P, 3, nkx, nky, nm) and weights
    (P, J, K), the K identity rows by default, give the projected rows
    (P, J, 3, nkx, nky, nm); each path's rows equal its own P = 1 call bit for
    bit.  The transport part of every row is formed in one piece: in spectral
    space with no transform when phi and psi are constant
    (``NoiseSpec.constant_transport``), otherwise on the padded grid and
    analysed in one transform, reading ``samples``, the stacked
    ``Grid.padded_samples`` of ``coeffs``, when given (the step shares its own
    with the advection).  The cost is linear in J: the step passes the K
    identity rows under ``track_ito``, and one row of weights dW otherwise
    (``Stepper.noise_increment``).  The transport part takes its scratch from
    ``work`` when given; the rows are a fresh array, projected in place."""
    g = spec.grid
    K = spec.K
    P = len(coeffs)
    W = np.broadcast_to(np.eye(K), (P, K, K)) if weights is None else np.asarray(weights, dtype=float)
    if W.ndim != 3 or W.shape[0] != P or W.shape[2] != K:
        raise ValueError(f"weights must have shape ({P}, J, {K})")
    J = W.shape[1]
    rows = np.zeros((P, J) + coeffs.shape[1:], dtype=np.complex128)
    if spec.family != "zero":
        n = 3 if spec.include_temperature else 2
        if spec.constant_transport:
            rows[:, :, :n] = _transport_spectral(spec, coeffs[:, :n], W, work)
        else:
            rows[:, :, :n] = _transport_grid(spec, coeffs[:, :n], W, samples, work)
        linear = np.multiply(
            (W @ spec.alpha)[:, :, None, None, None, None],
            coeffs[:, None, :n],
            out=_scratch(work, "scratch.a", (P, J, n) + coeffs.shape[2:], np.complex128),
        )
        chi = _scratch(work, "scratch.b", (P, J, spec.chi[0].size), np.complex128)
        linear[:, :, :2] += np.matmul(W, spec.chi.reshape(K, -1), out=chi).reshape((P, J) + spec.chi.shape[1:])
        rows[:, :, :n] += linear
        leray_inplace(g, rows)
    return rows


def _transport_grid(
    spec: NoiseSpec, v: np.ndarray, W: np.ndarray, samples: PaddedSamples | None, work: Workspace | None = None
) -> np.ndarray:
    """Transport part (P, J, n, nkx, nky, nm) of the rows for the transported
    components v (P, n, nkx, nky, nm) and weights W (P, J, K): the weighted
    products formed on the padded grid and analysed in one transform.  The
    gradients are read from ``samples`` (of a stack whose leading n components
    are v), or else from one ``Grid.padded_samples`` here; family 2's, of the
    depth mean A3 v, are the m = 0 level of the dx and dy blocks, constant in z.
    The products and the analysis take their scratch from ``work`` when given,
    summed in the order of the plain expression."""
    g = spec.grid
    K = spec.K
    P, J = W.shape[:2]
    n = v.shape[1]
    # a (P, J, K) @ (K, N) product per field, which keeps each path's BLAS call as in the single case
    shape = spec._psi_grid.shape[1:]
    phi = (W @ spec._phi_grid.reshape(K, -1)).reshape((P, J, 2) + shape)
    if spec.family == "example1":
        gx, gy, gz = (a[:, :n] for a in (g.padded_samples(v) if samples is None else samples).grads)
        psi = (W @ spec._psi_grid.reshape(K, -1)).reshape((P, J) + shape)
        terms = ((phi[:, :, 0, None], gx), (phi[:, :, 1, None], gy), (psi[:, :, None], gz))
    else:
        levels = (g.padded_samples(v[..., :1]) if samples is None else samples).levels
        gx, gy = levels[1][:, :n, ..., :1], levels[2][:, :n, ..., :1]
        terms = ((phi[:, :, 0, None], gx), (phi[:, :, 1, None], gy))
    (coeff, grad), *rest = terms
    products = np.multiply(coeff, grad[:, None], out=_scratch(work, "transport.products", (P, J, n) + shape))
    term = _scratch(work, "scratch.a", products.shape)
    for coeff, grad in rest:
        products += np.multiply(coeff, grad[:, None], out=term)
    return g.analyze_cos(products, work=work)


def _transport_spectral(spec: NoiseSpec, v: np.ndarray, W: np.ndarray, work: Workspace | None = None) -> np.ndarray:
    """``_transport_grid`` for constant phi and psi, with no transform: family 1
    gives i(phi_k . k) v + psi_k D v, family 2 i(phi_k . k) A3 v, with D =
    ``Grid.dz_nodal``.  As on the grid, the constants are the real parts of the
    (0, 0, 0) coefficients and the transported field is the Hermitian part of v,
    the parts that synthesis keeps.  The derivative stack and the product take
    their arrays from ``work`` when given."""
    g = spec.grid
    P, J = W.shape[:2]
    # family 2 transports the depth mean, and its psi is zero
    h = g.enforce_reality(v if spec.family == "example1" else _lift(g, v[..., 0]))
    consts = np.concatenate([spec.phi[:, :, 0, 0, 0], spec.psi[:, None, 0, 0, 0]], axis=1).real  # (K, 3)
    # the (P, J, 3) direction sums applied to the derivative stack (P, 3, n * modes), real and
    # imaginary parts alike: one real (J, 3) @ (3, 2 * n * modes) product per path
    stack = _scratch(work, "scratch.a", (P, 3) + h.shape[1:], np.complex128)
    np.multiply(h, g.ddx, out=stack[:, 0])
    np.multiply(h, g.ddy, out=stack[:, 1])
    stack[:, 2] = (h.reshape(-1, g.nm) @ g.dz_nodal.T).reshape(h.shape)
    stack = stack.view(np.float64).reshape(P, 3, -1)
    out = _scratch(work, "scratch.b", (P, J, stack.shape[-1]))
    return np.matmul(W @ consts, stack, out=out).view(np.complex128).reshape((P, J) + v.shape[1:])


def hs_norm_sq(columns: list, space: str = "H") -> float:
    """Squared Hilbert-Schmidt norm: sum of squared column norms in H or V."""
    if space == "H":
        return sum(h_norm_sq(col) for col in columns)
    if space == "V":
        return sum(v_norm_sq(col) for col in columns)
    raise ValueError(f"unknown space {space!r}")


def hs_norm(columns: list, space: str = "H") -> float:
    return float(np.sqrt(hs_norm_sq(columns, space)))


# -- Wiener sampling -----------------------------------------------------------


@dataclass(frozen=True)
class WienerStream:
    """Counter-based Gaussian increments of one path.

    One Philox generator keyed by (seed, trajectory) draws the whole path, so
    the increments are independent across steps, paths and directions, and
    ensembles are reproducible in any order of evaluation.  The draw is
    prefix-stable: row j is a pure function of (seed, trajectory, j),
    whatever the number of steps requested.
    """

    seed: int
    trajectory: int = 0
    K: int = 1

    def sample(self, n_steps: int, dt: float) -> np.ndarray:
        """Increments of steps 0..n_steps-1 as an (n_steps, K) array."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        key = np.array([self.seed & _MASK64, self.trajectory & _MASK64], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        return gen.standard_normal((n_steps, self.K)) * np.sqrt(dt)


# -- hypothesis constants --------------------------------------------------------


def hypothesis_thresholds(p: float, c_bdg: float, mu: float, nu: float) -> dict:
    """Admissible upper bounds for the growth constants at integrability p."""
    return {
        "eta0": 2.0 / (3.0 + 2.0 * c_bdg**2),
        "eta1": min(1.0 / (p * (1.0 + c_bdg**2) - 1.0), 10.0 ** (2.0 / p - 1.0)),
        "eta2": 1.0 / (c_bdg**2 + 1.5),
        "eta3": min(mu, nu) / (2.0 * c_bdg**2),
        "gamma": 2.0 / c_bdg**2,
    }


@dataclass
class HypothesisReport:
    """Fitted growth constants with admissibility verdicts.

    Each eta is a certified envelope slope: the maximal residual ratio after
    removing a lower-order budget fixed on the flattest decile of samples.
    """

    eta0: float
    eta1: float
    eta2: float
    eta3: float
    gamma: float
    bounds: dict
    passes: dict
    C_BDG: float
    p: float
    ols_slopes: dict = field(default_factory=dict)

    @property
    def h_p_pass(self) -> bool:
        return self.passes["eta1"] and self.passes["gamma"]

    @property
    def global_pass(self) -> bool:
        return self.h_p_pass and all(self.passes[k] for k in ("eta0", "eta2", "eta3"))


def _envelope_fit(y: np.ndarray, x: np.ndarray, z: np.ndarray) -> tuple:
    """Certified slope for y <= b*z + eta*x: b from the flattest decile, then
    eta as the maximal residual ratio.  Also returns the least-squares slope."""
    if np.all(y == 0.0):
        return 0.0, 0.0
    ratio = x / z
    if np.std(ratio) < 1e-9 * max(np.mean(ratio), 1e-30):
        raise ValueError("degenerate sample: top-order norms do not vary, refusing to fit")
    order = np.argsort(ratio)
    n_low = max(3, len(y) // 10)
    low = order[:n_low]
    b = float(np.max(y[low] / z[low]))
    rest = order[n_low:]
    eta = float(np.max(np.maximum(y[rest] - b * z[rest], 0.0) / x[rest], initial=0.0))
    A = np.stack([z, x], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return eta, float(max(coef[1], 0.0))


def _vbar_norms(columns, state: SpectralState):
    """Depth-mean column norms in the 2D gradient space and |A_S vbar|^2."""
    g = state.grid
    y = sum((barotropic_sq_norms(g, col.coeffs)[1] for col in columns), 0.0)
    return y, barotropic_sq_norms(g, state.coeffs)[2]


def estimate_growth_constants(
    spec_noise: NoiseSpec,
    sample_count: int = 200,
    p: float = 4.0,
    c_bdg: float = 2.0,
    seed: int = 7,
) -> HypothesisReport:
    """Fit the noise growth constants on random states and check the smallness
    conditions for the configured Burkholder constant."""
    if sample_count < 100:
        raise ValueError("sample_count must be at least 100")
    g = spec_noise.grid
    rng = np.random.default_rng(seed)

    data = {k: [] for k in ("yH", "yV", "y2", "y3", "xA", "xV", "x2", "x3", "zH", "zV")}
    gamma_num, gamma_x, gamma_z = [], [], []
    lin_spec = spec_noise.without_additive()

    for i in range(sample_count):
        amp = 10.0 ** rng.uniform(-1, 1)
        decay = rng.uniform(0.5, 3.0)
        U = leray_project(random_state(g, rng, amplitude=amp, decay=decay))
        cols = apply_sigma(spec_noise, U)
        data["yH"].append(hs_norm_sq(cols, "H"))
        data["yV"].append(hs_norm_sq(cols, "V"))
        y2, x2 = _vbar_norms(cols, U)
        data["y2"].append(y2)
        data["x2"].append(x2)
        y3 = sum(grad3_dz_sq(g, col.coeffs, (0, 1)) for col in cols)
        if spec_noise.include_temperature:
            y3 += sum(grad3_dz_sq(g, col.coeffs, (2,)) for col in cols)
        data["y3"].append(y3)
        data["x3"].append(grad3_dz_sq(g, U.coeffs, (0, 1)) + grad3_dz_sq(g, U.coeffs, (2,)))
        data["xA"].append(da_norm_sq(U))
        data["xV"].append(v_norm_sq(U))
        data["zH"].append(1.0 + h_norm_sq(U))
        data["zV"].append(1.0 + v_norm_sq(U))

        # Lipschitz pairs: the operator is affine, so differences see only the
        # linear part
        Us = leray_project(random_state(g, rng, amplitude=amp, decay=rng.uniform(0.5, 3.0)))
        diff = SpectralState(g, U.coeffs - Us.coeffs)
        dcols = apply_sigma(lin_spec, diff)
        gamma_num.append(hs_norm_sq(dcols, "V"))
        gamma_x.append(da_norm_sq(diff))
        gamma_z.append(v_norm_sq(diff) + 1e-30)

    d = {k: np.asarray(v) for k, v in data.items()}
    if np.all(d["yH"] == 0.0) and np.all(d["yV"] == 0.0):
        eta0 = eta1 = eta2 = eta3 = gamma = 0.0
        slopes = {k: 0.0 for k in ("eta0", "eta1", "eta2", "eta3", "gamma")}
    else:
        eta0, s0 = _envelope_fit(d["yH"], d["xV"], d["zH"])
        eta1, s1 = _envelope_fit(d["yV"], d["xA"], d["zV"])
        eta2, s2 = _envelope_fit(d["y2"], np.maximum(d["x2"], 1e-30), d["zV"])
        eta3, s3 = _envelope_fit(d["y3"], np.maximum(d["x3"], 1e-30), d["zV"])
        gamma, sg = _envelope_fit(np.asarray(gamma_num), np.asarray(gamma_x), np.asarray(gamma_z))
        slopes = {"eta0": s0, "eta1": s1, "eta2": s2, "eta3": s3, "gamma": sg}

    bounds = hypothesis_thresholds(p, c_bdg, g.spec.mu, g.spec.nu)
    fitted = {"eta0": eta0, "eta1": eta1, "eta2": eta2, "eta3": eta3, "gamma": gamma}
    passes = {k: fitted[k] < bounds[k] for k in bounds}
    return HypothesisReport(
        eta0=eta0,
        eta1=eta1,
        eta2=eta2,
        eta3=eta3,
        gamma=gamma,
        bounds=bounds,
        passes=passes,
        C_BDG=c_bdg,
        p=p,
        ols_slopes=slopes,
    )
