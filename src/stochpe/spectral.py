"""Spectral core: domain, eigenbasis, transforms and projections.

The prognostic state U = (v1, v2, T) lives on a horizontally periodic box
of periods (L1, L2) and depth h.  Horizontal structure is a complex Fourier
series, vertical structure a cosine series cos(m*pi*z/h) on (-h, 0), which
encodes the no-flux (Neumann) conditions on the top and bottom faces.  The
dissipation operator

    A = -mu * (horizontal Laplacian) - nu * d_zz

is diagonal in this basis with eigenvalues

    lambda(kx, ky, m) = mu*((2*pi*kx/L1)**2 + (2*pi*ky/L2)**2) + nu*(pi*m/h)**2.

Coefficient convention: a field is f(x) = sum_k chat(k, m) exp(i k.x) cos(m pi z/h),
i.e. the forward transform carries the 1/N normalisation, so a unit
coefficient is a unit-amplitude wave.  Physical fields are real, which is
enforced as conjugate symmetry in the signed horizontal wavenumbers.

Nonlinear products are evaluated on a zero-padded collocation grid sized so
that quadratic products are alias-free and integrals of triple products are
exact for band-limited inputs (horizontal padding > 3*N, vertical midpoint
nodes with 2*nz > 3*M).

Transforms are real-to-complex (``scipy.fft.rfft2``/``irfft2`` over the two
horizontal axes) and act on stacks: coefficients (..., nkx, nky, nm) map to
samples (..., nx, ny, nz) in one call.  Only the ky >= 0 half-plane is
transformed.  Synthesis returns the real part of the full inverse transform
for any input, by folding the Hermitian part (c(k) + conj c(-k))/2 onto the
half-plane; analysis rebuilds ky < 0 by conjugation.  The vertical cosine or
sine matrix acts on the small coefficient block, before padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.fft import irfft2, next_fast_len, rfft2

FIELDS = ("v1", "v2", "T")

__all__ = [
    "FIELDS",
    "DomainSpec",
    "BasisIndex",
    "SpectralState",
    "PhysicalFields",
    "NormBundle",
    "Grid",
    "build_basis",
    "to_physical",
    "to_spectral",
    "apply_A_power",
    "project_n",
    "complement_q",
    "norms",
    "random_state",
    "single_mode_state",
    "add_cos_mode",
]


@dataclass(frozen=True)
class DomainSpec:
    """Periodic box (L1 x L2) x (-h, 0) with mode counts and viscosities.

    N1, N2 are the largest retained horizontal wavenumbers per axis (signed
    modes -N..N are kept), M the largest vertical cosine index.
    """

    L1: float = 2.0 * np.pi
    L2: float = 2.0 * np.pi
    h: float = 1.0
    N1: int = 4
    N2: int = 4
    M: int = 4
    mu: float = 1.0
    nu: float = 1.0

    def __post_init__(self):
        if not (self.L1 > 0 and self.L2 > 0 and self.h > 0):
            raise ValueError("domain lengths L1, L2, h must be positive")
        if not (self.N1 >= 0 and self.N2 >= 0 and self.M >= 0):
            raise ValueError("mode counts must be nonnegative")
        if not (self.mu > 0 and self.nu > 0):
            raise ValueError("viscosities mu, nu must be positive")


@dataclass(frozen=True)
class BasisIndex:
    """One eigenmode: signed horizontal wavenumbers, vertical index, field tag."""

    kx: int
    ky: int
    m: int
    field: str
    lam: float


@dataclass
class SpectralState:
    """Coefficients of U = (v1, v2, T), shape (3, nkx, nky, nm), plus model time."""

    grid: "Grid"
    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        expected = (3, self.grid.nkx, self.grid.nky, self.grid.nm)
        if self.coeffs.shape != expected:
            raise ValueError(f"coefficient shape {self.coeffs.shape} != {expected}")
        if self.coeffs.dtype != np.complex128:
            self.coeffs = self.coeffs.astype(np.complex128)

    def copy(self) -> "SpectralState":
        return SpectralState(self.grid, self.coeffs.copy(), self.time)

    @property
    def v(self) -> np.ndarray:
        return self.coeffs[:2]

    @property
    def T(self) -> np.ndarray:
        return self.coeffs[2]


@dataclass
class PhysicalFields:
    """Real collocation samples of (v1, v2, T) with grid metadata."""

    grid: "Grid"
    v1: np.ndarray
    v2: np.ndarray
    T: np.ndarray
    padded: bool = False

    def stack(self) -> np.ndarray:
        return np.stack([self.v1, self.v2, self.T])


@dataclass(frozen=True)
class NormBundle:
    """Norms of one state: spectral H/V/D(A), grid-quadrature L6 and boundary norms."""

    H: float
    V: float
    DA: float
    L6: tuple  # per field (v1, v2, T)
    dz_L2: float
    boundary_L2_top: float  # |T| on the top face z = 0


class Grid:
    """Precomputed transform machinery for one DomainSpec.

    Immutable after construction; safe to share across threads/processes.
    """

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        self.nkx = 2 * spec.N1 + 1
        self.nky = 2 * spec.N2 + 1
        self.nm = spec.M + 1

        # signed wavenumbers in FFT order: [0, 1, .., N, -N, .., -1]
        self.kx_int = np.rint(np.fft.fftfreq(self.nkx) * self.nkx).astype(int)
        self.ky_int = np.rint(np.fft.fftfreq(self.nky) * self.nky).astype(int)
        self.m_int = np.arange(self.nm)

        kx = 2.0 * np.pi * self.kx_int / spec.L1
        ky = 2.0 * np.pi * self.ky_int / spec.L2
        mz = np.pi * self.m_int / spec.h
        self.kx_phys = kx
        self.ky_phys = ky
        self.mz_phys = mz

        KX = kx[:, None, None]
        KY = ky[None, :, None]
        MZ = mz[None, None, :]
        self.ksq_h = kx[:, None] ** 2 + ky[None, :] ** 2  # (nkx, nky)
        self.lam = spec.mu * (KX**2 + KY**2) + spec.nu * MZ**2  # (nkx, nky, nm)
        pos = self.lam[self.lam > 0]
        self.lam_min_pos = float(pos.min()) if pos.size else np.inf

        # spectral derivative factors
        self.ddx = (1j * KX).astype(np.complex128)
        self.ddy = (1j * KY).astype(np.complex128)

        # index maps for conjugate flipping c(k) -> c(-k)
        self.negx = np.array([int(np.where(self.kx_int == -k)[0][0]) for k in self.kx_int])
        self.negy = np.array([int(np.where(self.ky_int == -k)[0][0]) for k in self.ky_int])

        # collocation sizes: exact unpadded round trip, alias-free padded products
        self.nx = self.nkx
        self.ny = self.nky
        self.nz = self.nm
        self.nx_pad = next_fast_len(3 * spec.N1 + 1)
        self.ny_pad = next_fast_len(3 * spec.N2 + 1)
        self.nz_pad = max(self.nm, (3 * spec.M) // 2 + 1)

        self._vertical = {}
        for nz in {self.nz, self.nz_pad}:
            z = -spec.h + (np.arange(nz) + 0.5) * spec.h / nz  # midpoint nodes
            C = np.cos(np.outer(z, mz))  # (nz, nm) cosine synthesis
            S = np.sin(np.outer(z, mz))  # (nz, nm) sine synthesis (col m=0 is 0)
            scale = np.full(self.nm, 2.0 / nz)
            scale[0] = 1.0 / nz
            Acos = scale[:, None] * C.T  # (nm, nz) exact analysis on midpoint nodes
            self._vertical[nz] = (z, C, S, Acos)

        # Parseval weights: integral of |exp(ik.x) cos(m pi z/h)|^2 over the box
        wm = np.full(self.nm, 0.5)
        wm[0] = 1.0
        self.weight_m = spec.L1 * spec.L2 * spec.h * wm  # (nm,)
        self.weight_m_sin = spec.L1 * spec.L2 * spec.h * np.full(self.nm, 0.5)
        self.weight_m_sin[0] = 0.0
        self.volume = spec.L1 * spec.L2 * spec.h
        self.area_h = spec.L1 * spec.L2

        self.n_modes_total = 3 * self.nkx * self.nky * self.nm

        self._rank = None
        self._basis = None
        self._lam_sorted = None

    # -- basis enumeration -------------------------------------------------

    def _build_order(self):
        kxg, kyg, mg = np.meshgrid(self.kx_int, self.ky_int, self.m_int, indexing="ij")
        canonical = (kxg > 0) | ((kxg == 0) & (kyg >= 0))
        sign = np.where(canonical, 0, 1)
        repx = np.where(canonical, kxg, -kxg)  # representative of the +/-k pair
        repy = np.where(canonical, kyg, -kyg)
        recs = []
        for fidx in range(3):
            recs.append(
                (
                    self.lam.ravel(),
                    np.abs(kxg).ravel(),
                    np.abs(kyg).ravel(),
                    mg.ravel(),
                    np.full(kxg.size, fidx),
                    sign.ravel(),
                    kxg.ravel(),
                    kyg.ravel(),
                    repx.ravel(),
                    repy.ravel(),
                )
            )
        cols = [np.concatenate([r[i] for r in recs]) for i in range(10)]
        # deterministic order: increasing lambda, then lexicographic on
        # (|kx|, |ky|, m, field, pair representative, sign); grouping by the
        # representative keeps conjugate pairs adjacent
        order = np.lexsort(
            (cols[5], cols[9], cols[8], cols[4], cols[3], cols[2], cols[1], cols[0])
        )
        rank = np.empty((3, self.nkx, self.nky, self.nm), dtype=np.int64)
        per_field = self.nkx * self.nky * self.nm
        flat_rank = np.empty(3 * per_field, dtype=np.int64)
        flat_rank[order] = np.arange(order.size)
        for fidx in range(3):
            rank[fidx] = flat_rank[fidx * per_field : (fidx + 1) * per_field].reshape(
                self.nkx, self.nky, self.nm
            )
        self._rank = rank
        self._order = order
        self._order_cols = cols
        self._lam_sorted = cols[0][order]

    @property
    def rank(self) -> np.ndarray:
        """Position of each mode in the deterministic low-to-high-lambda order."""
        if self._rank is None:
            self._build_order()
        return self._rank

    @property
    def lam_sorted(self) -> np.ndarray:
        if self._lam_sorted is None:
            self._build_order()
        return self._lam_sorted

    def basis(self) -> list:
        if self._basis is None:
            if self._rank is None:
                self._build_order()
            cols = self._order_cols
            order = self._order
            self._basis = [
                BasisIndex(
                    kx=int(cols[6][i]),
                    ky=int(cols[7][i]),
                    m=int(cols[3][i]),
                    field=FIELDS[int(cols[4][i])],
                    lam=float(cols[0][i]),
                )
                for i in order
            ]
        return self._basis

    def snap_mode_count(self, n: int) -> int:
        """Round n up so the retained set never splits a conjugate mode pair."""
        n = int(n)
        if n <= 0 or n >= self.n_modes_total:
            return min(max(n, 0), self.n_modes_total)
        if self._rank is None:
            self._build_order()
        i, j = self._order[n - 1], self._order[n]
        kx, ky, m, f = (self._order_cols[col] for col in (6, 7, 3, 4))
        if (kx[i], ky[i]) != (0, 0) and (kx[j], ky[j], m[j], f[j]) == (-kx[i], -ky[i], m[i], f[i]):
            return n + 1
        return n

    # -- collocation nodes -------------------------------------------------

    def nodes(self, padded: bool = False):
        nx, ny, nz = self._grid_shape(padded)
        x = np.arange(nx) * self.spec.L1 / nx
        y = np.arange(ny) * self.spec.L2 / ny
        z = self._vertical[nz][0]
        return x, y, z

    def quad_weight(self, padded: bool = False) -> float:
        nx, ny, nz = self._grid_shape(padded)
        return (self.spec.L1 / nx) * (self.spec.L2 / ny) * (self.spec.h / nz)

    # -- transforms ---------------------------------------------------------

    def _grid_shape(self, padded: bool):
        return (self.nx_pad, self.ny_pad, self.nz_pad) if padded else (self.nx, self.ny, self.nz)

    @cached_property
    def _half_plane(self):
        """Index maps between full coefficient blocks and the ky >= 0 half-plane.

        ``fold[i, j]`` is the flat (kx, ky) index of -k for half-plane entry k
        = (kx_i, ky_j); ``unfold[i, j]`` the flat half-plane index of -k for
        the ky < 0 entry k = (kx_i, ky_{half+j})."""
        half = self.spec.N2 + 1
        fold = self.negx[:, None] * self.nky + self.negy[None, :half]
        unfold = self.negx[:, None] * half - self.ky_int[None, half:]
        return half, fold, unfold

    def _synth_h(self, c: np.ndarray, V: np.ndarray | None, nx: int, ny: int) -> np.ndarray:
        """Real part of the synthesis of coefficients (..., nkx, nky, nm) with vertical
        matrix V (nz, nm), or none -> real samples (..., nx, ny, nz).

        The real part is the transform of the Hermitian part (c(k) + conj c(-k))/2,
        formed on the ky >= 0 half-plane and synthesised by irfft2.
        """
        half, fold, _ = self._half_plane
        lead = c.shape[:-3]
        herm = c.reshape(lead + (self.nkx * self.nky, c.shape[-1]))[..., fold, :]  # c(-k)
        np.conjugate(herm, out=herm)
        herm += c[..., :half, :]
        if V is None:
            herm *= 0.5
        else:
            herm = (herm.reshape(-1, herm.shape[-1]) @ (0.5 * V.T)).reshape(herm.shape[:-1] + (V.shape[0],))
        buf = np.zeros(lead + (nx, ny // 2 + 1, herm.shape[-1]), dtype=np.complex128)
        n1 = self.spec.N1 + 1  # kx >= 0 rows first, then kx < 0 at the end of the axis
        buf[..., :n1, :half, :] = herm[..., :n1, :, :]
        buf[..., nx - n1 + 1 :, :half, :] = herm[..., n1:, :, :]
        return irfft2(buf, s=(nx, ny), axes=(-3, -2), norm="forward")

    def _analyze_h(self, values: np.ndarray, A: np.ndarray | None) -> np.ndarray:
        """Forward transform of real samples (..., nx, ny, nz), with vertical analysis
        matrix A (nm, nz) or none -> coefficients (..., nkx, nky, nm).

        rfft2 gives the ky >= 0 half-plane; ky < 0 follows by conjugation."""
        half, _, unfold = self._half_plane
        spec = rfft2(values, axes=(-3, -2), norm="forward")[..., self.kx_int % values.shape[-3], :half, :]
        if A is not None:
            spec = (spec.reshape(-1, spec.shape[-1]) @ A.T).reshape(spec.shape[:-1] + (A.shape[0],))
        lead = spec.shape[:-3]
        out = np.empty(lead + (self.nkx, self.nky, spec.shape[-1]), dtype=np.complex128)
        out[..., :half, :] = spec
        out[..., half:, :] = np.conj(spec.reshape(lead + (self.nkx * half, spec.shape[-1]))[..., unfold, :])
        return out

    def synth_cos(self, c: np.ndarray, padded: bool = False) -> np.ndarray:
        """Cosine-series coefficients (..., nkx, nky, nm) -> real samples (..., nx, ny, nz)."""
        nx, ny, nz = self._grid_shape(padded)
        return self._synth_h(c, self._vertical[nz][1], nx, ny)

    def synth_sin(self, s: np.ndarray, padded: bool = False) -> np.ndarray:
        """Sine-series coefficients (index m, entry 0 ignored) -> real samples."""
        nx, ny, nz = self._grid_shape(padded)
        return self._synth_h(s, self._vertical[nz][2], nx, ny)

    def synth_cos2d(self, c2: np.ndarray, padded: bool = False) -> np.ndarray:
        """Horizontal-only synthesis of 2D coefficients (..., nkx, nky) -> (..., nx, ny)."""
        nx, ny, _ = self._grid_shape(padded)
        return self._synth_h(c2[..., None], None, nx, ny)[..., 0]

    def grad_samples(self, c: np.ndarray) -> tuple:
        """Padded-grid samples (dx, dy, dz) of cosine coefficients (..., nkx, nky, nm),
        each (..., nx, ny, nz): one stacked cosine and one sine synthesis."""
        horizontal = self.synth_cos(np.stack([self.dx(c), self.dy(c)]), padded=True)
        return horizontal[0], horizontal[1], self.synth_sin(self.dz_to_sin(c), padded=True)

    def analyze_cos(self, values: np.ndarray) -> np.ndarray:
        """Real samples (..., nx, ny, nz) -> cosine coefficients (..., nkx, nky, nm),
        truncated to retained modes.

        Exact for band-limited input; on the padded grid this realises the
        dealiased projection of pointwise products.
        """
        if values.ndim < 3:
            raise ValueError("expected sample arrays with three trailing grid axes")
        nx, ny, nz = values.shape[-3:]
        if nz not in self._vertical or (nx, ny) not in {(self.nx, self.ny), (self.nx_pad, self.ny_pad)}:
            raise ValueError(
                f"sample shape {values.shape[-3:]} matches neither the collocation "
                f"grid {(self.nx, self.ny, self.nz)} nor the padded grid "
                f"{(self.nx_pad, self.ny_pad, self.nz_pad)}"
            )
        return self._analyze_h(values, self._vertical[nz][3])

    def analyze_cos2d(self, values: np.ndarray) -> np.ndarray:
        """Real samples (..., nx, ny) -> 2D coefficients (..., nkx, nky)."""
        return self._analyze_h(values[..., None], None)[..., 0]

    # -- spectral calculus ---------------------------------------------------

    def dx(self, c: np.ndarray) -> np.ndarray:
        return c * self.ddx

    def dy(self, c: np.ndarray) -> np.ndarray:
        return c * self.ddy

    def dz_to_sin(self, c: np.ndarray) -> np.ndarray:
        """d/dz of a cosine series, returned as sine-series coefficients."""
        return -c * self.mz_phys[None, None, :]

    def dzz(self, c: np.ndarray) -> np.ndarray:
        return -c * (self.mz_phys[None, None, :] ** 2)

    def enforce_reality(self, coeffs: np.ndarray) -> np.ndarray:
        """Project onto conjugate-symmetric coefficients (real physical fields)."""
        flipped = np.conj(coeffs[..., self.negx, :, :][..., :, self.negy, :])
        return 0.5 * (coeffs + flipped)

    # -- vertical re-expansion ------------------------------------------------

    @cached_property
    def sin_to_cos(self) -> np.ndarray:
        """(nm, nm) matrix of cosine coefficients of sin(m*pi*z/h) on (-h, 0).

        Realises the Galerkin projection of sine-type profiles (vertical
        antiderivatives) back onto the retained cosine modes.
        """
        h = self.spec.h

        def J(q):
            # integral of sin(q*pi*z/h) over (-h, 0); odd in q
            if q == 0:
                return 0.0
            return -(h / (q * np.pi)) * (1.0 - (-1.0) ** q)

        mat = np.zeros((self.nm, self.nm))
        for mp in range(self.nm):  # cosine row
            scale = (1.0 if mp == 0 else 2.0) / h
            for m in range(self.nm):  # sine column
                mat[mp, m] = scale * 0.5 * (J(m + mp) + J(m - mp))
        return mat

    @cached_property
    def neg_z_cos(self) -> np.ndarray:
        """Cosine coefficients of the profile f(z) = -z on (-h, 0), truncated."""
        h = self.spec.h
        c = np.zeros(self.nm)
        c[0] = h / 2.0
        for m in range(1, self.nm):
            if m % 2 == 1:
                c[m] = -4.0 * h / (m * np.pi) ** 2
        return c

    # -- convenience --------------------------------------------------------

    def zero_state(self, time: float = 0.0) -> SpectralState:
        return SpectralState(self, np.zeros((3, self.nkx, self.nky, self.nm), dtype=np.complex128), time)


# -- module-level operations -------------------------------------------------


def build_basis(spec: DomainSpec) -> list:
    """All eigenmodes sorted by increasing eigenvalue with a deterministic tie-break."""
    return Grid(spec).basis()


def to_physical(state: SpectralState, dealias: bool = False) -> PhysicalFields:
    g = state.grid
    v1, v2, T = g.synth_cos(state.coeffs, padded=dealias)
    return PhysicalFields(g, v1, v2, T, padded=dealias)


def to_spectral(fields: PhysicalFields, time: float = 0.0) -> SpectralState:
    return SpectralState(fields.grid, fields.grid.analyze_cos(fields.stack()), time)


def apply_A_power(state: SpectralState, s: float) -> SpectralState:
    """Multiply each coefficient by lambda**s.

    s in [-1, 2]; for s < 0 the kernel (lambda = 0) component must vanish.
    """
    if not -1.0 <= s <= 2.0:
        raise ValueError("exponent s must lie in [-1, 2]")
    g = state.grid
    lam = g.lam
    kernel = lam == 0.0
    if s == 0.0:
        return state.copy()
    if s < 0.0:
        knorm = np.abs(state.coeffs[:, kernel]).max(initial=0.0)
        scale = np.abs(state.coeffs).max(initial=0.0)
        if knorm > 1e-13 * max(scale, 1e-300):
            raise ValueError("negative power of A on a state with nonzero kernel component")
    with np.errstate(divide="ignore"):
        factor = np.where(kernel, 0.0, lam) ** s
    factor = np.where(kernel, 0.0, factor)
    return SpectralState(g, state.coeffs * factor[None], state.time)


def _check_n(grid: Grid, n: int):
    if not 0 <= n <= grid.n_modes_total:
        raise ValueError(f"n = {n} out of range [0, {grid.n_modes_total}]")


def project_n(state: SpectralState, n: int) -> SpectralState:
    """Keep the n lowest-eigenvalue modes of the deterministic ordering."""
    _check_n(state.grid, n)
    mask = state.grid.rank < n
    return SpectralState(state.grid, state.coeffs * mask, state.time)


def complement_q(state: SpectralState, n: int) -> SpectralState:
    _check_n(state.grid, n)
    mask = state.grid.rank >= n
    return SpectralState(state.grid, state.coeffs * mask, state.time)


def _mode_sums(a: np.ndarray):
    """Sum of a (..., 3, nkx, nky, nm) array over its four trailing axes: a float
    for one array, an array of the leading shape for a stack.  Each entry is
    one contiguous reduction, bit-identical to ``np.sum`` of its own slice."""
    if a.ndim == 4:
        return float(np.sum(a))
    return np.add.reduce(a.reshape(a.shape[:-4] + (-1,)), axis=-1)


def _parseval_sq(grid: Grid, coeffs: np.ndarray, lam_power: float = 0.0):
    w = grid.weight_m[None, None, None, :]
    if lam_power == 0.0:
        return _mode_sums(np.abs(coeffs) ** 2 * w)
    lam = grid.lam[None]
    return _mode_sums(np.abs(coeffs) ** 2 * lam**lam_power * w)


def h_norm_sq(state: SpectralState) -> float:
    return _parseval_sq(state.grid, state.coeffs)


def v_norm_sq(state: SpectralState) -> float:
    return _parseval_sq(state.grid, state.coeffs, 1.0)


def da_norm_sq(state: SpectralState) -> float:
    return _parseval_sq(state.grid, state.coeffs, 2.0)


def sq_norms(grid: Grid, coeffs: np.ndarray) -> tuple:
    """(H, V, D(A)) squared norms from one |c|^2 pass: floats for one
    coefficient array (3, nkx, nky, nm), (P,) arrays for a stack of P.  Each
    value is bit-identical to ``h_norm_sq``, ``v_norm_sq`` and ``da_norm_sq``
    of its own state."""
    w = grid.weight_m[None, None, None, :]
    lam = grid.lam[None]
    a2 = np.abs(coeffs) ** 2
    return _mode_sums(a2 * w), _mode_sums(a2 * lam**1.0 * w), _mode_sums(a2 * lam**2.0 * w)


def grad3_dz_sq(state: SpectralState, comps=(0, 1), mu: float = 1.0, nu: float = 1.0) -> float:
    """mu*|grad dz u|^2 + nu*|dzz u|^2 over the requested components (spectral).

    With mu = nu = 1 this is |grad_3 dz u|^2.
    """
    g = state.grid
    ksq = g.ksq_h[:, :, None]
    mz = g.mz_phys[None, None, :]
    w = g.weight_m_sin[None, None, :]
    total = 0.0
    for c in comps:
        a2 = np.abs(state.coeffs[c]) ** 2
        total += float(np.sum((mu * ksq + nu * mz**2) * mz**2 * a2 * w))
    return total


def norms(state: SpectralState) -> NormBundle:
    """Spectral H/V/D(A) norms plus dealiased-grid L6 and top-face norms."""
    g = state.grid
    fields = to_physical(state, dealias=True)
    w = g.quad_weight(padded=True)
    l6 = tuple(float((np.sum(np.abs(f) ** 6) * w) ** (1.0 / 6.0)) for f in (fields.v1, fields.v2, fields.T))
    dz_sq = 0.0
    for c in state.coeffs:
        s = g.dz_to_sin(c)
        dz_sq += float(np.sum(np.abs(s) ** 2 * g.weight_m_sin[None, None, :]))
    # top face z=0: cos(m pi 0 / h) = 1 for every m
    bnd = g.synth_cos2d(state.coeffs[2].sum(axis=2), padded=True)
    bnd_l2 = float(np.sqrt(np.sum(bnd**2) * (g.area_h / bnd.size)))
    return NormBundle(
        H=float(np.sqrt(h_norm_sq(state))),
        V=float(np.sqrt(v_norm_sq(state))),
        DA=float(np.sqrt(da_norm_sq(state))),
        L6=l6,
        dz_L2=float(np.sqrt(dz_sq)),
        boundary_L2_top=bnd_l2,
    )


def random_state(
    grid: Grid,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    decay: float = 2.0,
    zero_mean: bool = True,
    time: float = 0.0,
) -> SpectralState:
    """Random smooth real-valued state with coefficient decay (1 + lam/lam1)^-decay."""
    shape = (3, grid.nkx, grid.nky, grid.nm)
    lam1 = grid.lam_min_pos if np.isfinite(grid.lam_min_pos) else 1.0
    sigma = (1.0 + grid.lam / lam1) ** (-decay)
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * sigma[None]
    c *= amplitude / np.sqrt(2.0)
    c = grid.enforce_reality(c)
    if zero_mean:
        c[:, 0, 0, 0] = 0.0
    return SpectralState(grid, c, time)


def single_mode_state(
    grid: Grid,
    field: str,
    kx: int,
    ky: int,
    m: int,
    amplitude: float = 1.0,
    time: float = 0.0,
) -> SpectralState:
    """Real single-mode state amplitude*cos(k.x)*cos(m pi z/h) in one field."""
    st = grid.zero_state(time)
    add_cos_mode(grid, st.coeffs[FIELDS.index(field)], kx, ky, m, amplitude)
    return st


def add_cos_mode(grid: Grid, arr: np.ndarray, kx: int, ky: int, m: int, amp: float):
    """Add amp*cos(k.x)*cos(m pi z/h) to one field's coefficients (nkx, nky, nm) in place."""
    ix = int(np.where(grid.kx_int == kx)[0][0])
    iy = int(np.where(grid.ky_int == ky)[0][0])
    if kx == 0 and ky == 0:
        arr[ix, iy, m] += amp
    else:
        jx = int(np.where(grid.kx_int == -kx)[0][0])
        jy = int(np.where(grid.ky_int == -ky)[0][0])
        arr[ix, iy, m] += 0.5 * amp
        arr[jx, jy, m] += 0.5 * amp
