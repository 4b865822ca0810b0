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

Every ``Grid`` has one collocation grid, the zero-padded one, sized so that
quadratic products are alias-free and integrals of triple products are
exact for band-limited inputs (horizontal padding > 3*N, vertical midpoint
nodes with 2*nz > 3*M); every transform, product and quadrature runs on it.
Sixth-degree quadratures of states in a narrower band run on that band's
``Grid.record_grid``, which is exact for them.

Transforms are real-to-complex matrix products over the two horizontal axes
and act on stacks: coefficients (..., nkx, nky, nm) map to samples (...,
nx_pad, ny_pad, nz_pad) in one call.  Only the ky >= 0 half-plane is
transformed.  Synthesis returns the real part of the full inverse transform
for any input, by folding the Hermitian part (c(k) + conj c(-k))/2 onto the
half-plane; analysis rebuilds ky < 0 by conjugation.  Each grid caches two
matrices per direction (``Grid._horizontal``), built from the integer
phases j*k mod n: a complex x matrix (nx_pad x nkx) and a real y matrix
(ny_pad x 2(N2 + 1)) that acts on the real and imaginary parts of the
columns ky = 0..N2 and counts each ky > 0 column for its conjugate.
Synthesis applies the x matrix and then the y matrix, analysis the y matrix
and then the x matrix.  The horizontal products run over the nm coefficient
levels, never over more padded z-levels, and the vertical cosine or sine
matrix acts on the real samples: synthesis transforms first and then
applies the matrix, analysis applies it first.

A matrix transform of one N x N level costs O(N^3) operations where an FFT
costs O(N^2 log N).  The transforms that run are small: step grids of 4 x 4
to 10 x 14 samples and record grids of at most 25 x 25, with N <= 8 in every
preset and test.  There pocketfft's per-call overhead dominates, and two
matrix products per grid are faster, still at N = 16 (Boyd, *Chebyshev and
Fourier Spectral Methods*, 2001, ch. 10); the matrices would fall behind
somewhere beyond N = 16, where nothing runs today.  The padded sizes stay
the 11-smooth ones an FFT would take (``next_fast_len``).

A grid has two coefficient layouts.  The full layout holds every signed ky;
its ``Grid.half_plane`` holds ky = 0..N2 only, each conjugate pair of a real
field once, with the same wavenumbers, padded grid and vertical matrices.
On the half-plane, synthesis folds only the ky = 0 column, analysis returns
the ky >= 0 half-plane as it is, the reality fold acts on the ky = 0 column, and
every quadratic sum counts each ky > 0 mode twice (``Grid.pair_count``, folded
into the one weight ``parseval_weight``).  Its
samples and coefficients then equal the full layout's bit for bit on
conjugate-symmetric input, and every per-mode operator gives the full
layout's values on its modes.  The model step runs on the half-plane, every
other caller on the full layout.  Only this module knows the layouts: its
sums weight the modes, and ``Grid.extract`` and ``Grid.embed`` map them by
wavenumber between any two grids of one domain whose bands nest.

Every squared norm is a Parseval sum of |c|^2 times a factor per mode:
``Grid.forms`` names each functional by the components it sums and its
factor on ``parseval_weight``, and ``quadratic_sums`` evaluates any list of
them from one |c|^2 pass.  No other module weights the modes.

Every padded sample that reads a gradient is a linear image of the
horizontal levels of [c, dx c, dy c], so ``Grid.padded_samples`` forms those
levels in one call of the one synthesis kernel and derives the values,
the three gradients and the vertical velocity w of the velocity rows from
them with fixed vertical matrices (``PaddedSamples``); the depth mean is
the m = 0 level.  The kernel folds c once and takes dx and dy inside its
matrices: the x matrix times diag(i kx), and the y matrix of i ky, cached
beside the plain ones.  A step with advection and grid-evaluated transport
noise then makes one synthesis, of the 3 fields of U, and two analyses; a
stored record and the depth-split terms make one synthesis each.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

FIELDS = ("v1", "v2", "T")

__all__ = [
    "FIELDS",
    "DomainSpec",
    "BasisIndex",
    "SpectralState",
    "PhysicalFields",
    "NormBundle",
    "Grid",
    "PaddedSamples",
    "Workspace",
    "build_basis",
    "to_physical",
    "to_spectral",
    "apply_A_power",
    "project_n",
    "complement_q",
    "norms",
    "quadratic_sums",
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
    """Real samples of (v1, v2, T) on the grid's padded collocation grid."""

    grid: "Grid"
    v1: np.ndarray
    v2: np.ndarray
    T: np.ndarray

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


def _read_only(value):
    """``value`` with every array in it, or in the tuples, lists and dicts it
    is, made read-only: grids are shared (``Grid.of``), so no caller may write
    to one."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            _read_only(item)
    return value


class _cached(cached_property):
    """A ``cached_property`` whose value's arrays are read-only (``_read_only``)."""

    def __get__(self, instance, owner=None):
        value = super().__get__(instance, owner)
        return value if instance is None else _read_only(value)


class Grid:
    """Precomputed transform machinery for one DomainSpec, in the full
    coefficient layout, or in the ky >= 0 half-plane layout of the full-layout
    grid ``full_plane`` (made by ``half_plane``; ``full_plane`` is None on a
    full layout).  ``Grid.of`` gives the one grid per domain that a process
    shares; ``Grid(spec)`` builds a fresh one.

    Immutable after construction; safe to share across threads/processes.
    Every array it holds is read-only, and its caches (the mode table, the
    closed cuts, the table of forms, the matrices, the sub-grids, record
    grids and half-plane) are filled on first use with values that the spec
    alone fixes.
    """

    def __init__(self, spec: DomainSpec, full_plane: "Grid | None" = None):
        self.spec = spec
        self.full_plane = full_plane
        self.nkx = 2 * spec.N1 + 1
        self.nky = 2 * spec.N2 + 1 if full_plane is None else spec.N2 + 1
        self.nm = spec.M + 1

        # signed wavenumbers in FFT order: [0, 1, .., N, -N, .., -1]; ky 0..N on the half-plane
        self.kx_int = np.rint(np.fft.fftfreq(self.nkx) * self.nkx).astype(int)
        self.ky_int = np.rint(np.fft.fftfreq(self.nky) * self.nky).astype(int)
        if full_plane is not None:
            self.ky_int = np.arange(self.nky)
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

        # index maps for conjugate flipping c(k) -> c(-k); on the half-plane only the
        # ky = 0 column holds both modes of a pair
        self.negx = -self.kx_int % self.nkx
        self.negy = -self.ky_int % self.nky if full_plane is None else np.zeros(1, dtype=int)

        # the one collocation grid: padded so that products are alias-free
        self.nx_pad = next_fast_len(3 * spec.N1 + 1)
        self.ny_pad = next_fast_len(3 * spec.N2 + 1)
        self.nz_pad = max(self.nm, (3 * spec.M) // 2 + 1)

        if full_plane is None:
            nz = self.nz_pad
            z = -spec.h + (np.arange(nz) + 0.5) * spec.h / nz  # midpoint nodes
            C = np.cos(np.outer(z, mz))  # (nz, nm) cosine synthesis
            S = np.sin(np.outer(z, mz))  # (nz, nm) sine synthesis (col m=0 is 0)
            scale = np.full(self.nm, 2.0 / nz)
            scale[0] = 1.0 / nz
            Acos = scale[:, None] * C.T  # (nm, nz) exact analysis on midpoint nodes
            self._vertical = (z, C, S, Acos)
        else:
            self.nz_pad, self._vertical = full_plane.nz_pad, full_plane._vertical

        # Parseval weights: integral of |exp(ik.x) cos(m pi z/h)|^2 over the box, per
        # vertical index and per stored mode; the half-plane counts each ky > 0 mode
        # for its conjugate partner too (pair_count 2, and 1 on the full layout,
        # so full-layout sums keep their bits)
        self.pair_count = np.ones((self.nkx, self.nky))  # (nkx, nky)
        if full_plane is not None:
            self.pair_count[:, 1:] = 2.0
        wm = np.full(self.nm, 0.5)
        wm[0] = 1.0
        self.weight_m = spec.L1 * spec.L2 * spec.h * wm  # (nm,)
        self.parseval_weight = self.weight_m * self.pair_count[:, :, None]
        self.volume = spec.L1 * spec.L2 * spec.h
        self.area_h = spec.L1 * spec.L2

        self.n_modes_total = 3 * self.nkx * self.nky * self.nm

        self._subgrids = {}  # (N1, N2, M) -> the sub-grid made by ``subgrid``
        self._record_grids = {}  # band (N1, N2, M) -> its record grid
        self._half = None  # the ky >= 0 half-plane layout of this grid
        for value in vars(self).values():
            _read_only(value)

    @staticmethod
    def of(spec: DomainSpec) -> "Grid":
        """The full-layout grid of ``spec`` that every caller in this process
        shares, so that a domain's mode table, closed cuts, matrices, sub-grids
        and record grids are built once per process, not once per config.  The
        16 most recently used domains are kept.  Specs are told apart by their
        values and the types of those values, so that a grid's ``spec`` (written
        into checkpoints) does not depend on which equal spec came first."""
        return _shared_grid(spec, tuple(type(v) for v in vars(spec).values()))

    # -- basis enumeration -------------------------------------------------

    @_cached
    def _mode_table(self) -> tuple:
        """(order, cols): ten per-mode columns over the three fields (eigenvalue,
        |kx|, |ky|, m, field, sign, kx, ky and the pair representative's kx and
        ky), and the permutation that sorts the modes by increasing eigenvalue,
        then lexicographically on (|kx|, |ky|, m, field, pair representative,
        sign); grouping by the representative keeps conjugate pairs adjacent."""
        kxg, kyg, mg = np.meshgrid(self.kx_int, self.ky_int, self.m_int, indexing="ij")
        canonical = (kxg > 0) | ((kxg == 0) & (kyg >= 0))
        sign = np.where(canonical, 0, 1)
        repx = np.where(canonical, kxg, -kxg)  # representative of the +/-k pair
        repy = np.where(canonical, kyg, -kyg)
        cols = [np.tile(a.ravel(), 3) for a in (self.lam, np.abs(kxg), np.abs(kyg), mg)]
        cols.append(np.repeat(np.arange(3), kxg.size))  # field
        cols += [np.tile(a.ravel(), 3) for a in (sign, kxg, kyg, repx, repy)]
        order = np.lexsort((cols[5], cols[9], cols[8], cols[4], cols[3], cols[2], cols[1], cols[0]))
        return order, cols

    @_cached
    def rank(self) -> np.ndarray:
        """Position of each mode in the deterministic low-to-high-lambda order."""
        order, _ = self._mode_table
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(order.size)
        return rank.reshape(3, self.nkx, self.nky, self.nm)

    @property
    def forms(self) -> MappingProxyType:
        """The named quadratic forms of ``quadratic_sums``: name -> (components,
        factor).  A form's value is the sum over the modes of its consecutive
        components of |c|^2 * factor * ``parseval_weight``, the factor an
        array that broadcasts to (nkx, nky, nm), or None for none:

        - ``H``, ``V``, ``DA``: |U|^2, ||U||^2 = |A^(1/2) U|^2 and |AU|^2 (factor
          None, lam and lam**2.0);
        - ``vbar_H1``, ``vbar_V``, ``AS``: ||vbar||^2_H1, mu |grad vbar|^2 and
          mu^2 |Delta vbar|^2 of the depth mean vbar of the velocity, its
          m = 0 level (the factor is zero on every other level, and the
          depth integral of the weight is divided out);
        - ``dz_v1``, ``dz_v2``, ``dz_T``: |dz c|^2 of one component (factor
          (m pi/h)^2, the sine series' weight, as m pi/h is 0 at m = 0);
        - ``grad3_dz_v``: |grad_3 dz v|^2 = |grad dz v|^2 + |dzz v|^2;
        - ``grad3_dz_T``: mu |grad dz T|^2 + nu |dzz T|^2, the A-norm of dz T.

        A read-only view of a cached dict (a view does not pickle, and grids
        travel to worker processes with their caches)."""
        return MappingProxyType(self._forms)

    @_cached
    def _forms(self) -> dict:
        ksq, mz_sq, mu = self.ksq_h[:, :, None], self.mz_phys**2, self.spec.mu
        depth_mean = (self.m_int == 0) / self.spec.h
        velocity, every = (0, 1), (0, 1, 2)
        return {
            "H": (every, None),
            "V": (every, self.lam),
            "DA": (every, self.lam**2.0),
            "vbar_H1": (velocity, (1.0 + ksq) * depth_mean),
            "vbar_V": (velocity, mu * ksq * depth_mean),
            "AS": (velocity, mu**2 * ksq**2 * depth_mean),
            "dz_v1": ((0,), mz_sq),
            "dz_v2": ((1,), mz_sq),
            "dz_T": ((2,), mz_sq),
            "grad3_dz_v": (velocity, (ksq + mz_sq) * mz_sq),
            "grad3_dz_T": ((2,), self.lam * mz_sq),
        }

    @_cached
    def leray_divisor(self) -> np.ndarray:
        """|k_h|^2 (nkx, nky) with 1 in place of 0 at k_h = 0: the divisor of the
        Leray projection, whose (0, 0) velocity it sets to zero."""
        return np.where(self.ksq_h == 0.0, 1.0, self.ksq_h)

    @_cached
    def lam_sorted(self) -> np.ndarray:
        order, cols = self._mode_table
        return cols[0][order]

    def basis(self) -> list:
        order, cols = self._mode_table
        return [
            BasisIndex(
                kx=int(cols[6][i]),
                ky=int(cols[7][i]),
                m=int(cols[3][i]),
                field=FIELDS[int(cols[4][i])],
                lam=float(cols[0][i]),
            )
            for i in order
        ]

    def snap_mode_count(self, n: int) -> int:
        """Round n up to the next cut that splits no conjugate mode pair and no
        barotropic velocity pair (v1, v2) at kx != 0 and ky != 0.  Those pairs
        are the modes that the Leray projection couples, so the mask
        ``rank < snap_mode_count(n)`` commutes with it."""
        n = min(max(int(n), 0), self.n_modes_total)
        return int(self._closed_cuts[np.searchsorted(self._closed_cuts, n)])

    @_cached
    def _closed_cuts(self) -> np.ndarray:
        """Every n whose n lowest modes hold each mode's conjugate and, on the
        barotropic level at kx != 0 and ky != 0, both velocity components."""
        rank = self.rank
        reach = np.maximum(rank, rank[:, self.negx][:, :, self.negy])  # rank of a mode or its conjugate
        coupled = (self.kx_int != 0)[:, None] & (self.ky_int != 0)[None, :]
        bar = np.maximum(reach[0, :, :, 0], reach[1, :, :, 0])
        reach[:2, :, :, 0] = np.where(coupled, bar, reach[:2, :, :, 0])
        furthest = np.empty(self.n_modes_total, dtype=np.int64)
        furthest[rank.ravel()] = reach.ravel()
        # the n lowest modes are closed when none of them reaches rank n or beyond
        closed = np.maximum.accumulate(furthest) < np.arange(1, self.n_modes_total + 1)
        return np.concatenate([[0], np.flatnonzero(closed) + 1])

    # -- collocation nodes -------------------------------------------------

    def nodes(self):
        x = np.arange(self.nx_pad) * self.spec.L1 / self.nx_pad
        y = np.arange(self.ny_pad) * self.spec.L2 / self.ny_pad
        return x, y, self._vertical[0]

    def quad_weight(self) -> float:
        return (self.spec.L1 / self.nx_pad) * (self.spec.L2 / self.ny_pad) * (self.spec.h / self.nz_pad)

    # -- transforms ---------------------------------------------------------

    @_cached
    def _fold(self) -> np.ndarray:
        """``fold[i, j]``: the flat (kx, ky) index of -k for the entry k = (kx_i,
        ky_j) of a ky >= 0 column whose partner -k is stored: every column of the
        half-plane on the full layout, only ky = 0 on the half-plane layout, whose
        ky > 0 partners are implied by conjugation."""
        return self.negx[:, None] * self.nky + self.negy[None, : self.spec.N2 + 1]

    def _folded(self, c: np.ndarray) -> np.ndarray:
        """The Hermitian part (c(k) + conj c(-k))/2 of coefficients (..., nkx, nky, nm)
        on the columns of ``_fold`` that pair stored modes: (..., nkx, half, nm) on
        the full layout, the ky = 0 column (..., nkx, 1, nm) on the half-plane."""
        fold = self._fold
        herm = c.reshape(c.shape[:-3] + (self.nkx * self.nky, c.shape[-1]))[..., fold, :]  # c(-k)
        np.conjugate(herm, out=herm)
        herm += c[..., : fold.shape[1], :]
        herm *= 0.5
        return herm

    def _unfold(self, half_coeffs: np.ndarray) -> np.ndarray:
        """Full-layout coefficients (..., nkx, nky, nm) from their ky >= 0 half-plane
        (..., nkx, half, nm): ky < 0 follows by conjugation, c(-k) = conj c(k)."""
        half = self.spec.N2 + 1
        out = np.empty(half_coeffs.shape[:-2] + (self.nky, half_coeffs.shape[-1]), dtype=half_coeffs.dtype)
        out[..., :half, :] = half_coeffs
        out[..., half:, :] = np.conj(half_coeffs[..., self.negx[:, None], -self.ky_int[None, half:], :])
        return out

    @_cached
    def _horizontal(self) -> tuple:
        """The horizontal transform matrices, built from integer phases j*k mod n:

        - x synthesis (nx_pad, nkx): exp(2 pi i j kx / nx_pad), and the x
          derivative's, the same matrix times diag(i kx);
        - y synthesis (ny_pad, 2 half): the real part of the ky >= 0 series, acting
          on the interleaved real and imaginary parts of the columns ky = 0..N2,
          with each ky > 0 column counted for its conjugate (weight 2), and the
          y derivative's, the real part of the series of i ky times the columns;
        - x analysis (nkx, nx_pad) and y analysis (ny_pad, 2 half): the forward
          transforms, with their 1/N normalisation, to the same columns.

        A half-plane shares its full layout's matrices."""
        if self.full_plane is not None:
            return self.full_plane._horizontal
        half = self.spec.N2 + 1
        ex = _phases(self.nx_pad, self.kx_int)
        ey = _phases(self.ny_pad, np.arange(half))
        weight = np.full(half, 2.0)
        weight[0] = 1.0
        y_synth = np.stack([ey.real * weight, -ey.imag * weight], axis=-1).reshape(self.ny_pad, 2 * half)
        # Re(e i ky (a + i b)) = -ky (a Im e + b Re e) for a column's (a, b), e = w exp(i ky y)
        wky = weight * self.ky_phys[:half]
        y_dy = np.stack([-ey.imag * wky, -ey.real * wky], axis=-1).reshape(self.ny_pad, 2 * half)
        y_analysis = np.stack([ey.real, -ey.imag], axis=-1).reshape(self.ny_pad, 2 * half) / self.ny_pad
        return ex, ex * (1j * self.kx_phys), y_synth, y_dy, ex.conj().T / self.nx_pad, y_analysis

    def _synth_h(
        self, c: np.ndarray, V: np.ndarray | None, grads: bool = False, work: "Workspace | None" = None
    ) -> np.ndarray:
        """Real part of the synthesis of coefficients (..., nkx, nky, nm) with vertical
        matrix V (nz_pad, nm), or none -> real samples (..., nx_pad, ny_pad, nz_pad),
        or the levels (..., nx_pad, ny_pad, nm) without V.  With ``grads``, the
        stack (3, ...) of those of c, dx c and dy c, from one fold of c.

        The real part is the transform of the Hermitian part (c(k) + conj c(-k))/2,
        formed on the ky >= 0 half-plane: the x matrix maps its kx rows to the
        nx_pad samples, and the real y matrix maps the real and imaginary parts
        of its columns to the ny_pad real samples, on the nm coefficient levels;
        V then maps the levels to the real z-samples.  On the half-plane layout
        only the ky = 0 column is folded: its ky > 0 columns are their own
        Hermitian part.  The derivatives are diagonal, and so is the fold's
        conjugation of them, (i k c(k) + conj(-i k c(-k)))/2 = i k (c(k) +
        conj c(-k))/2: dx c takes the x derivative's matrix on the folded
        plane, and dy c the y derivative's on the x rows of c.  The levels of
        c are those without ``grads`` bit for bit.

        The half-plane, the x rows and the levels come from the ``Workspace``
        ``work`` when one is given (the step's and the records' levels, with
        no V), and are made afresh otherwise.
        """
        half = self.spec.N2 + 1
        ex, ex_dx, y_synth, y_dy, _, _ = self._horizontal
        herm = self._folded(c)
        f = herm.shape[-2]
        lead, nm = c.shape[:-3], c.shape[-1]
        # the half-plane with the levels before the columns, so that the y matrix
        # acts on the contiguous real and imaginary parts of each level's columns
        plane = _scratch(work, "scratch.a", lead + (self.nkx, nm, half), np.complex128)
        columns = plane.swapaxes(-1, -2)
        columns[..., :f, :] = herm
        columns[..., f:, :] = c[..., f:half, :]
        plane = plane.reshape((-1, self.nkx, nm * half))
        x_matrices = (ex, ex_dx) if grads else (ex,)
        rows = _scratch(work, "scratch.b", (len(x_matrices), len(plane), self.nx_pad, nm * half), np.complex128)
        for out, x in zip(rows, x_matrices):
            np.matmul(x, plane, out=out)
        products = [(rows[0], y_synth)]
        if grads:
            products += [(rows[1], y_synth), (rows[0], y_dy)]
        levels = _scratch(work, "scratch.a", (len(products), rows.shape[1] * self.nx_pad * nm, self.ny_pad))
        for out, (x_rows, y) in zip(levels, products):
            np.matmul(x_rows.view(np.float64).reshape(-1, 2 * half), y.T, out=out)
        shape = (len(products),) + lead + (self.nx_pad, nm, self.ny_pad)
        out = _scratch(work, "synth.levels", shape[:-2] + (self.ny_pad, nm))
        np.copyto(out, levels.reshape(shape).swapaxes(-1, -2))
        levels = out if grads else out[0]
        if V is None:
            return levels
        return _apply_vertical(levels, V, np.empty(levels.shape[:-1] + V.shape[:1]))

    def _analyze_h(self, values: np.ndarray, A: np.ndarray | None, work: "Workspace | None" = None) -> np.ndarray:
        """Forward transform of real samples (..., nx_pad, ny_pad, nz_pad), with
        vertical analysis matrix A (nm, nz_pad), or of levels (..., nx_pad, ny_pad,
        nm) with none -> coefficients (..., nkx, nky, nm).

        A first maps the real z-samples to the nm coefficient levels; the real y
        matrix then maps each level's ny_pad samples to the real and imaginary
        parts of the columns ky = 0..N2, and the x matrix the nx_pad rows to the
        kx rows.  That is the ky >= 0 half-plane, the half-plane layout's
        output; ky < 0 follows by conjugation.  Its scratch arrays come from
        the ``Workspace`` ``work`` when one is given; the coefficients are
        always a fresh array."""
        if np.iscomplexobj(values):
            raise TypeError("samples must be real")
        half = self.spec.N2 + 1
        _, _, _, _, ex_analysis, y_analysis = self._horizontal
        if A is not None:
            values = _apply_vertical(values, A, _scratch(work, "scratch.a", values.shape[:-1] + A.shape[:1]))
        lead, nm = values.shape[:-3], values.shape[-1]
        levels = _scratch(work, "scratch.b", lead + (self.nx_pad, nm, self.ny_pad))
        np.copyto(levels, values.swapaxes(-1, -2))
        columns = _scratch(work, "scratch.a", (levels.size // self.ny_pad, 2 * half))
        np.matmul(levels.reshape(-1, self.ny_pad), y_analysis, out=columns)
        columns = columns.view(np.complex128).reshape((-1, self.nx_pad, nm * half))
        plane = _scratch(work, "scratch.b", columns.shape[:1] + (self.nkx, nm * half), np.complex128)
        np.matmul(ex_analysis, columns, out=plane)
        plane = plane.reshape(lead + (self.nkx, nm, half)).swapaxes(-1, -2)
        return plane.copy() if self.full_plane is not None else self._unfold(plane)

    def synth_cos(self, c: np.ndarray) -> np.ndarray:
        """Cosine-series coefficients (..., nkx, nky, nm) -> real samples (..., nx_pad, ny_pad, nz_pad)."""
        return self._synth_h(c, self._vertical[1])

    def synth_sin(self, s: np.ndarray) -> np.ndarray:
        """Sine-series coefficients (index m, entry 0 ignored) -> real samples."""
        return self._synth_h(s, self._vertical[2])

    def synth_cos2d(self, c2: np.ndarray) -> np.ndarray:
        """Horizontal-only synthesis of 2D coefficients (..., nkx, nky) -> (..., nx_pad, ny_pad)."""
        return self._synth_h(c2[..., None], None)[..., 0]

    def padded_samples(self, c: np.ndarray, *, work: "Workspace | None" = None) -> "PaddedSamples":
        """The samples of cosine coefficients (..., nkx, nky, nm) and of their
        gradients, from one synthesis: ``_synth_h`` folds c once and gives the
        levels of c, dx c and dy c, with the derivatives taken inside its
        matrices, and ``PaddedSamples`` derives every sample from those levels.
        With a ``Workspace``, the levels and every sample derived from them are
        its arrays, valid until its next ``padded_samples``."""
        return PaddedSamples(self, self._synth_h(c, None, True, work), work)

    @_cached
    def _sample_matrices(self) -> tuple:
        """Vertical matrices (nz_pad, nm) of ``PaddedSamples``: the cosine matrix,
        d/dz of the cosines (the sine matrix times -m pi/h), and the vertical
        velocity of a divergence profile, w = -int_{-h}^z div dz' (the sine
        matrix times -h/(m pi), and -(z + h) in the m = 0 column)."""
        z, C, S, _ = self._vertical
        inv = np.zeros(self.nm)
        inv[1:] = self.spec.h / (np.pi * self.m_int[1:])
        W = S * -inv
        W[:, 0] = -(z + self.spec.h)
        return C, S * -self.mz_phys, W

    def analyze_cos(self, values: np.ndarray, *, work: "Workspace | None" = None) -> np.ndarray:
        """Real samples (..., nx_pad, ny_pad, nz_pad) on the padded grid -> cosine
        coefficients (..., nkx, nky, nm), truncated to retained modes: exact
        for band-limited input, and the dealiased projection of pointwise
        products.  Samples of any other shape raise ``ValueError``.  The
        transform's scratch comes from ``work`` when given; the coefficients
        are a fresh array either way.
        """
        shape = (self.nx_pad, self.ny_pad, self.nz_pad)
        if values.shape[-3:] != shape:
            raise ValueError(f"sample shape {values.shape[-3:]} is not the padded grid {shape}")
        return self._analyze_h(values, self._vertical[3], work)

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
        """Project onto conjugate-symmetric coefficients (real physical fields).  On
        the half-plane layout only the ky = 0 column holds both modes of a pair:
        it is folded, and the ky > 0 columns are copied."""
        if self.full_plane is not None:
            out = coeffs.copy()
            column = out[..., 0, :]
            column += np.conj(coeffs[..., self.negx, 0, :])
            column *= 0.5
            return out
        flipped = np.conj(coeffs[..., self.negx, :, :][..., :, self.negy, :])
        return 0.5 * (coeffs + flipped)

    # -- vertical re-expansion ------------------------------------------------

    @_cached
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

    @_cached
    def dz_nodal(self) -> np.ndarray:
        """(nm, nm) matrix D of d/dz on cosine coefficients, re-expanded on the
        cosine modes through the padded vertical nodes: ``Acos @ S`` there,
        times -m*pi/h per column.  It is the projection that synthesising the
        sine profile on the padded grid and analysing it realises, so a
        spectral product with it agrees with that grid evaluation to
        round-off; ``sin_to_cos`` is the exact projection, which those nodes
        do not reproduce.  A sub-grid keeps its parent's nodes, so its D is
        the parent's leading block."""
        _, _, S, Acos = self._vertical
        return (Acos @ S) * -self.mz_phys

    @_cached
    def neg_z_cos(self) -> np.ndarray:
        """Cosine coefficients of the profile f(z) = -z on (-h, 0), truncated."""
        h = self.spec.h
        c = np.zeros(self.nm)
        c[0] = h / 2.0
        for m in range(1, self.nm):
            if m % 2 == 1:
                c[m] = -4.0 * h / (m * np.pi) ** 2
        return c

    # -- sub-grids --------------------------------------------------------------

    def _check_band(self, N1: int, N2: int, M: int):
        """Raise ``ValueError`` unless this full-layout grid holds the band (N1, N2, M)."""
        if self.full_plane is not None:
            raise ValueError("cut the full-layout grid, then take the half-plane of the cut")
        if not (0 <= N1 <= self.spec.N1 and 0 <= N2 <= self.spec.N2 and 0 <= M <= self.spec.M):
            raise ValueError(f"band {(N1, N2, M)} exceeds {(self.spec.N1, self.spec.N2, self.spec.M)}")

    def subgrid(self, N1: int, N2: int, M: int | None = None) -> "Grid":
        """This grid cut to the truncation N1 <= spec.N1, N2 <= spec.N2 and
        M <= spec.M (by default spec.M), with the same lengths and viscosities;
        the grid itself when nothing is cut.  Its horizontal padded sizes follow
        the same rule, and it keeps this grid's padded vertical grid: nz_pad,
        the midpoint nodes, and the leading columns of the cosine, sine and
        analysis matrices.  Products of its modes are then alias-free on its
        own padded grid and projected through the same vertical nodes, so it
        is not the shared grid of its spec (``Grid.of``), and it is cached
        here instead.  ``embed`` and ``extract`` move coefficients between the
        two layouts."""
        M = self.spec.M if M is None else M
        self._check_band(N1, N2, M)
        if (N1, N2, M) == (self.spec.N1, self.spec.N2, self.spec.M):
            return self
        if (N1, N2, M) not in self._subgrids:
            sub = Grid(replace(self.spec, N1=N1, N2=N2, M=M))
            z, C, S, Acos = self._vertical
            sub.nz_pad = self.nz_pad
            sub._vertical = z, C[:, : sub.nm], S[:, : sub.nm], Acos[: sub.nm]
            self._subgrids[N1, N2, M] = sub
        return self._subgrids[N1, N2, M]

    def half_plane(self) -> "Grid":
        """The ky >= 0 half-plane layout of this grid: the coefficients of a real
        field with ky = 0..N2 only, (..., nkx, N2 + 1, nm), since c(-k) = conj c(k)
        gives the rest.  It has this grid's wavenumbers, padded sizes, nodes and
        vertical matrices, so its transforms, products and spectral operators
        give this grid's values on its modes; its quadratic sums count each
        ky > 0 mode twice.  ``extract`` and ``embed`` move coefficients between
        the layouts; the mode order (``rank``, ``basis``) and the sub-grids are
        the full layout's."""
        if self.full_plane is not None:
            return self
        if self._half is None:
            self._half = Grid(self.spec, full_plane=self)
        return self._half

    def _sub_index(self, sub: "Grid") -> tuple:
        """Rows (nkx', 1), columns (1, nky') and leading levels (a slice of nm') of
        this full-layout grid's coefficients that hold the modes of ``sub``, by
        wavenumber: any grid of this domain and viscosities whose band nests."""
        s, t = sub.spec, self.spec
        if (s.L1, s.L2, s.h, s.mu, s.nu) != (t.L1, t.L2, t.h, t.mu, t.nu):
            raise ValueError("not a grid of this grid's domain and viscosities")
        self._check_band(s.N1, s.N2, s.M)
        return (sub.kx_int % self.nkx)[:, None], (sub.ky_int % self.nky)[None, :], slice(sub.nm)

    def extract(self, sub: "Grid", c: np.ndarray) -> np.ndarray:
        """Coefficients (..., nkx, nky, nm) restricted to the modes of the nesting
        grid ``sub`` (``_sub_index``): (..., nkx', nky', nm'); ``c`` itself when
        ``sub`` is this grid.  A complex stack goes to a half-plane layout as its
        Hermitian part, the coefficients of the real field it synthesises, which
        equals the stack itself where it is conjugate-symmetric."""
        if sub is self:
            return c
        ix, iy, iz = self._sub_index(sub)
        if sub.full_plane is not None and np.iscomplexobj(c):
            # (c(k) + conj c(-k))/2 at the modes of sub alone, as ``_folded`` forms it
            return 0.5 * (c[..., ix, iy, iz] + np.conj(c[..., self.negx[ix], self.negy[iy], iz]))
        return c[..., ix, iy, iz]

    def embed(self, sub: "Grid", c: np.ndarray) -> np.ndarray:
        """Coefficients (..., nkx', nky', nm') of a nesting grid ``sub`` in this grid's
        layout (..., nkx, nky, nm), zero on the other modes; ``c`` itself when
        ``sub`` is this grid.  From a half-plane layout the ky < 0 modes are
        refilled by conjugation, so the output is conjugate-symmetric when the
        ky = 0 column of ``c`` is."""
        if sub is self:
            return c
        if sub.full_plane is not None:
            full = sub.full_plane._unfold(c)
            if np.iscomplexobj(full):
                # an exact zero imaginary part at ky < 0 is written +0, as the full
                # layout's fold writes it for coefficients that are +0 at k and -k
                full.imag[..., sub.nky :, :] += 0.0
            return self.embed(sub.full_plane, full)
        ix, iy, iz = self._sub_index(sub)
        out = np.zeros(c.shape[:-3] + (self.nkx, self.nky, self.nm), dtype=c.dtype)
        out[..., ix, iy, iz] = c
        return out

    def record_grid(self, N1: int, N2: int, M: int) -> "Grid":
        """The grid for sixth-degree quadratures of states in the band |kx| <= N1,
        |ky| <= N2, m <= M: an ordinary ``Grid`` with, per axis, twice the
        band's modes (2*N1, 2*N2, 2*M) when their padded samples
        (``next_fast_len(6*N + 1)`` horizontally, 3*M + 1 vertical nodes) are
        strictly fewer than this grid's, and this grid's modes otherwise.  On
        an axis that changes, both sample sets integrate sixth-degree products
        of the band exactly, so a quadrature agrees with one on this grid to
        round-off; this grid itself when no axis changes, as for the full
        band.  Its band lies inside this grid's, so coefficients move between
        the two grids in one ``extract`` or ``embed``."""
        self._check_band(N1, N2, M)
        if (N1, N2, M) not in self._record_grids:
            s = self.spec
            spec = replace(
                s,
                N1=2 * N1 if next_fast_len(6 * N1 + 1) < self.nx_pad else s.N1,
                N2=2 * N2 if next_fast_len(6 * N2 + 1) < self.ny_pad else s.N2,
                M=2 * M if 3 * M + 1 < self.nz_pad else s.M,
            )
            self._record_grids[N1, N2, M] = self if spec == s else Grid(spec)
        return self._record_grids[N1, N2, M]

    # -- convenience --------------------------------------------------------

    def zero_state(self, time: float = 0.0) -> SpectralState:
        return SpectralState(self, np.zeros((3, self.nkx, self.nky, self.nm), dtype=np.complex128), time)


@lru_cache(maxsize=16)
def _shared_grid(spec: DomainSpec, field_types: tuple) -> Grid:
    """``Grid.of``'s grid of ``spec``, keyed also by the types of its fields."""
    return Grid(spec)


def next_fast_len(n: int) -> int:
    """The smallest 11-smooth integer (prime factors 2, 3, 5, 7, 11) >= n >= 1,
    as ``scipy.fft.next_fast_len`` gives it: the padded size of both horizontal axes."""
    m = max(n, 1)
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _phases(n: int, k: np.ndarray) -> np.ndarray:
    """exp(2 pi i j k / n) for the samples j = 0..n-1 and wavenumbers k: (n, len(k)),
    from the integer phases j*k mod n."""
    return np.exp(2j * np.pi * (np.outer(np.arange(n), k) % n) / n)


def _apply_vertical(levels: np.ndarray, V: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The vertical matrix V (n, nm) applied to real levels (..., nm), written
    into the contiguous array ``out`` (..., n), as one product over every
    leading entry; returns ``out``."""
    np.matmul(levels.reshape(-1, levels.shape[-1]), V.T, out=out.reshape(-1, V.shape[0]))
    return out


class Workspace:
    """Scratch arrays that their owner reuses from step to step instead of
    allocating, faulting in and freeing them afresh.  ``array(name, shape,
    dtype)`` views the slot ``name``, a buffer made on first request and
    grown when a request does not fit, as a C-contiguous array; it holds
    whatever the slot's last user left.  An array is valid until the next
    request of its name, so two arrays that are alive at once never share a
    name: the slots ``"scratch.a"`` and ``"scratch.b"`` hold arrays that die
    before the next transform or operator call that takes a workspace, and
    every array that outlives one has a slot of its own.  ``fit(shape)``
    keys the workspace by the owner's stack shape: a new shape drops every
    slot, so only the latest shape's are kept (a chunk's stack shrinks when
    paths leave it).

    The solver's steps and stored records use one per thread
    (``solver.Stepper``).  Only arrays that die within a step or a record
    come from it: a ``Grid`` holds none (grids are shared), and every array
    that a step or an operator returns is fresh."""

    def __init__(self):
        self.shape = None
        self._slots = {}  # name -> flat byte buffer
        self._views = {}  # (name, shape, dtype) -> view of the slot

    def fit(self, shape: tuple):
        if shape != self.shape:
            self._slots.clear()
            self._views.clear()
            self.shape = shape

    def array(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        key = (name, shape, dtype)
        view = self._views.get(key)
        if view is None:
            nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
            slot = self._slots.get(name)
            if slot is None or slot.size < nbytes:
                slot = self._slots[name] = np.empty(nbytes, np.uint8)
                # views of the outgrown buffer would keep it alive
                for old in [k for k in self._views if k[0] == name]:
                    del self._views[old]
            view = self._views[key] = slot[:nbytes].view(dtype).reshape(shape)
        return view


def _scratch(work: Workspace | None, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """``work.array(name, shape, dtype)``, or a fresh array without a workspace."""
    return np.empty(shape, dtype) if work is None else work.array(name, shape, dtype)


class PaddedSamples:
    """Padded-grid samples of a cosine-coefficient stack c (..., nkx, nky, nm)
    and of its gradients, the one route to gradient samples: made by
    ``Grid.padded_samples`` from the real levels (3, ..., nx_pad, ny_pad, nm)
    of c, dx c and dy c from one ``Grid._synth_h`` call.  Each sample applies a
    vertical matrix (``Grid._sample_matrices``) to those levels when first
    read:

    - ``values``, ``dx`` and ``dy``: the cosine matrix on the three blocks, in one product;
    - ``dz``: the sine matrix times -m pi/h on the levels of c;
    - ``w``: the vertical velocity w(v) = -int_{-h}^z div v dz' of the
      velocity rows v = c[..., :2, :, :, :], from the divergence levels
      dx v1 + dy v2: the sine matrix times -h/(m pi), plus -(z + h) times
      the m = 0 level (zero for a Leray-projected v, up to round-off).

    Every sample is (..., nx_pad, ny_pad, nz_pad) (w drops the component axis),
    and each row of the leading axes equals its own single call bit for bit.
    With a ``Workspace`` ``work`` the samples are its arrays, like the levels."""

    def __init__(self, grid: Grid, levels: np.ndarray, work: Workspace | None = None):
        self.grid = grid
        self.levels = levels
        self.work = work

    def rows(self, rows) -> "PaddedSamples":
        """The samples of the rows ``rows`` (an index or mask) of the leading axis,
        in fresh arrays."""
        return PaddedSamples(self.grid, self.levels[:, rows])

    def _vertical(self, name: str, levels: np.ndarray, V: np.ndarray) -> np.ndarray:
        return _apply_vertical(levels, V, _scratch(self.work, name, levels.shape[:-1] + V.shape[:1]))

    @cached_property
    def _cos(self) -> np.ndarray:
        return self._vertical("samples.cos", self.levels, self.grid._sample_matrices[0])

    @property
    def values(self) -> np.ndarray:
        return self._cos[0]

    @property
    def dx(self) -> np.ndarray:
        return self._cos[1]

    @property
    def dy(self) -> np.ndarray:
        return self._cos[2]

    @cached_property
    def dz(self) -> np.ndarray:
        return self._vertical("samples.dz", self.levels[0], self.grid._sample_matrices[1])

    @cached_property
    def w(self) -> np.ndarray:
        dx_v1, dy_v2 = self.levels[1][..., 0, :, :, :], self.levels[2][..., 1, :, :, :]
        div = np.add(dx_v1, dy_v2, out=_scratch(self.work, "samples.div", dx_v1.shape))
        return self._vertical("samples.w", div, self.grid._sample_matrices[2])

    @property
    def grads(self) -> tuple:
        return self.dx, self.dy, self.dz


# -- module-level operations -------------------------------------------------


def build_basis(spec: DomainSpec) -> list:
    """All eigenmodes sorted by increasing eigenvalue with a deterministic tie-break."""
    return Grid.of(spec).basis()


def to_physical(state: SpectralState) -> PhysicalFields:
    g = state.grid
    v1, v2, T = g.synth_cos(state.coeffs)
    return PhysicalFields(g, v1, v2, T)


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


def _mode_sums(a: np.ndarray, n_axes: int = 4):
    """Sum of an array over its ``n_axes`` trailing axes (by default the four of
    (..., 3, nkx, nky, nm)): a float when it has no other axes, an array of
    the leading shape for a stack.  Each entry is one contiguous reduction,
    bit-identical to ``np.sum`` of its own slice."""
    if a.ndim == n_axes:
        return float(np.sum(a))
    return np.add.reduce(a.reshape(a.shape[:-n_axes] + (-1,)), axis=-1)


def quadratic_sums(grid: Grid, coeffs: np.ndarray, forms) -> tuple:
    """The value of each of ``forms`` for coefficients (..., n, nkx, nky, nm),
    from one |c|^2 pass: a float for one array, an array of the leading shape
    (one entry per row) for a stack.  A form is a name of ``Grid.forms`` or a
    (components, factor) pair, and its value is the sum of (|c|^2[components]
    * factor) * ``parseval_weight`` over its rows' modes (without the factor
    when it is None), each entry one contiguous reduction (``_mode_sums``),
    bit-identical to that of its own row.  The components are consecutive;
    a stack with fewer rows than a form names, such as noise columns without
    a temperature row, sums the rows it has."""
    sq = np.abs(coeffs) ** 2
    out = []
    for form in forms:
        comps, factor = grid._forms[form] if isinstance(form, str) else form
        terms = sq[..., comps[0] : comps[-1] + 1, :, :, :]
        if factor is not None:
            terms = terms * factor
        out.append(_mode_sums(terms * grid.parseval_weight))
    return tuple(out)


def h_norm_sq(state: SpectralState) -> float:
    return quadratic_sums(state.grid, state.coeffs, ("H",))[0]


def v_norm_sq(state: SpectralState) -> float:
    return quadratic_sums(state.grid, state.coeffs, ("V",))[0]


def da_norm_sq(state: SpectralState) -> float:
    return quadratic_sums(state.grid, state.coeffs, ("DA",))[0]


def grad3_dz_sq(grid: Grid, coeffs: np.ndarray, comps=(0, 1), mu: float = 1.0, nu: float = 1.0):
    """mu*|grad dz u|^2 + nu*|dzz u|^2 over the consecutive components ``comps``:
    a float for one coefficient array (3, nkx, nky, nm), a (P,) array for a
    stack of P.  With mu = nu = 1 this is |grad_3 dz u|^2."""
    mz_sq = grid.mz_phys**2
    return quadratic_sums(grid, coeffs, ((comps, (mu * grid.ksq_h[:, :, None] + nu * mz_sq) * mz_sq),))[0]


def norms(state: SpectralState) -> NormBundle:
    """Spectral H/V/D(A) norms plus padded-grid L6 and top-face norms."""
    g = state.grid
    fields = to_physical(state)
    w = g.quad_weight()
    l6 = tuple(float((np.sum(np.abs(f) ** 6) * w) ** (1.0 / 6.0)) for f in (fields.v1, fields.v2, fields.T))
    H, V, DA, dz_sq = quadratic_sums(g, state.coeffs, ("H", "V", "DA", ((0, 1, 2), g.mz_phys**2)))
    # top face z=0: cos(m pi 0 / h) = 1 for every m
    bnd = g.synth_cos2d(state.coeffs[2].sum(axis=2))
    bnd_l2 = float(np.sqrt(np.sum(bnd**2) * (g.area_h / bnd.size)))
    return NormBundle(
        H=float(np.sqrt(H)),
        V=float(np.sqrt(V)),
        DA=float(np.sqrt(DA)),
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
