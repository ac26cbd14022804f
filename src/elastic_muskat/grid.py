"""Periodic grid, Fourier transforms, multipliers and norms.

Coefficient convention, used everywhere in the package: the spectrum of a
field f holds f_hat(k) = (1/L) * integral_0^L f(x) exp(-i k x) dx, so a
single mode cos(k0 x) has coefficients 1/2 at k = +-k0.  Wavenumbers are
k_m = 2*pi*m/L for m in {-n/2, ..., n/2 - 1}, stored in numpy fft order.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid on the torus of period ``length`` with ``n`` nodes."""

    n: int
    length: float = 2.0 * np.pi

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError("n must be even and at least 8")
        if not self.length > 0:
            raise ValueError("length must be positive")

    @property
    def nodes(self):
        return np.arange(self.n) * (self.length / self.n)

    @property
    def wavenumbers(self):
        """Physical wavenumbers 2*pi*m/L in fft order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.length / self.n)

    @property
    def rfft_wavenumbers(self):
        """Non-negative wavenumbers of the real-FFT half spectrum."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.length / self.n)

    @property
    def k_min(self):
        return 2.0 * np.pi / self.length

    @property
    def k_max(self):
        return 2.0 * np.pi / self.length * (self.n // 2)


@dataclass(frozen=True)
class Field:
    """Real samples at the grid nodes."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise ValueError("values must have one sample per node")
        if not np.all(np.isfinite(values)):
            raise NonFiniteState("values must be finite")
        object.__setattr__(self, "values", values)

    def __add__(self, other):
        _check_same_grid(self, other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return Field(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.values)


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def zero_field(grid):
    return Field(grid, np.zeros(grid.n))


def to_spectrum(f: Field) -> np.ndarray:
    """Coefficients of f in fft order under the stated normalization."""
    return np.fft.fft(f.values) / f.grid.n


def to_field(grid: PeriodicGrid, coeffs: np.ndarray) -> Field:
    """The real field with coefficients ``coeffs`` (as from to_spectrum)."""
    return Field(grid, np.fft.ifft(coeffs * grid.n).real)


def mean(f: Field) -> float:
    return float(np.mean(f.values))


def _apply_multiplier(f: Field, symbol: np.ndarray) -> Field:
    c = np.fft.fft(f.values) * symbol
    return Field(f.grid, np.fft.ifft(c).real)


def _nyquist_mask(grid):
    """Zero factor at the unpaired mode k = -n/2; identity elsewhere."""
    m = np.ones(grid.n)
    m[grid.n // 2] = 0.0
    return m


def abs_d(f: Field, alpha: float = 1.0) -> Field:
    """|D|^alpha f; the zero mode is mapped to 0 unless alpha = 0."""
    alpha = float(alpha)
    absk = np.abs(f.grid.wavenumbers)
    sym = np.zeros(f.grid.n)
    nz = absk > 0
    sym[nz] = absk[nz] ** alpha
    if alpha == 0.0:
        sym[~nz] = 1.0
    return _apply_multiplier(f, sym)


def dx(f: Field, m: int = 1) -> Field:
    """m-th spectral derivative.

    Odd orders zero the Nyquist mode, whose sign is ambiguous.
    """
    m = int(m)
    sym = (1j * f.grid.wavenumbers) ** m
    if m % 2 == 1:
        sym = sym * _nyquist_mask(f.grid)
    return _apply_multiplier(f, sym)


def inv_abs_d(f: Field) -> Field:
    """|D|^{-1} f with the zero mode mapped to 0."""
    k = f.grid.wavenumbers
    sym = np.zeros(f.grid.n)
    nz = k != 0
    sym[nz] = 1.0 / np.abs(k[nz])
    return _apply_multiplier(f, sym)


def semigroup_symbol(grid, t, nu1, alpha1, nu2=0.0, alpha2=0.0):
    k = np.abs(grid.wavenumbers)
    rate = np.zeros(grid.n)
    if nu1 != 0.0:
        rate = rate + nu1 * np.where(k > 0, k, 1.0) ** alpha1 * (k > 0)
    if nu2 != 0.0:
        rate = rate + nu2 * np.where(k > 0, k, 1.0) ** alpha2 * (k > 0)
    return np.exp(-t * rate)


def semigroup_apply(f: Field, t: float, nu1: float, alpha1: float,
                    nu2: float = 0.0, alpha2: float = 0.0) -> Field:
    """exp(-t (nu1 |D|^a1 + nu2 |D|^a2)) f.  Rejects t < 0 (anti-diffusion)."""
    if t < 0:
        raise ValueError("semigroup_apply requires t >= 0")
    return _apply_multiplier(f, semigroup_symbol(f.grid, t, nu1, alpha1, nu2, alpha2))


# |z| below which exp_linear_weights sums Taylor series; above it the closed
# forms lose less than a factor e to cancellation, and 18 terms leave a
# truncation error below 1e-17 relative
_SERIES_CUT = 1.0
_SERIES_TERMS = 18


def exp_linear_weights(z):
    """Weights (w0, w1) of g(0) and g(1) in int_0^1 e^{-zu} g(u) du, g linear.

    w0 = int_0^1 (1-u) e^{-zu} du = phi_2(z) = (z - 1 + e^{-z}) / z^2 and
    w1 = int_0^1 u e^{-zu} du = phi_1(z) - phi_2(z), so the ETD functions are
    phi_1 = w0 + w1 and phi_2 = w0.  A panel of width d at rate k has
    z = kd and end weights d w0, d w1.  Both are accurate to a few ulps for
    every z above about -700, where e^{-z} overflows.
    """
    small = np.abs(z) < _SERIES_CUT
    zb = np.where(small, _SERIES_CUT, z)
    em1 = np.expm1(-zb)
    closed0 = (zb + em1) / (zb * zb)
    closed1 = (-em1 - zb * np.exp(-zb)) / (zb * zb)
    # w0 = sum_j (-z)^j / (j+2)!,  w1 = sum_j (j+1) (-z)^j / (j+2)!
    mz = -np.where(small, z, 0.0)
    series0 = series1 = 0.0
    for j in range(_SERIES_TERMS - 1, -1, -1):
        inv = 1.0 / math.factorial(j + 2)
        series0 = series0 * mz + inv
        series1 = series1 * mz + (j + 1) * inv
    return np.where(small, series0, closed0), np.where(small, series1, closed1)


def sobolev_norm(f: Field, s: float) -> float:
    """(sum_k (1+k^2)^s |f_hat(k)|^2)^(1/2)."""
    k = f.grid.wavenumbers
    c = to_spectrum(f)
    return float(np.sqrt(np.sum((1.0 + k * k) ** s * np.abs(c) ** 2)))


# --- Littlewood-Paley decomposition -----------------------------------------
#
# Dyadic family on the physical wavenumber axis: the low-pass cutoff C_j
# equals 1 for |k| <= 2^j, 0 for |k| >= 2^{j+1}, with a raised-cosine
# transition.  P_0 = C_0 and P_j = C_j - C_{j-1}, so P_j is supported in
# 2^{j-1} <= |k| <= 2^{j+1} and sum_j P_j = 1 exactly on the grid.


def _lowpass_profile(absk, j):
    a = 2.0 ** j
    out = np.ones_like(absk)
    trans = (absk > a) & (absk < 2 * a)
    out[absk >= 2 * a] = 0.0
    out[trans] = 0.5 * (1.0 + np.cos(np.pi * (absk[trans] - a) / a))
    return out


def lp_block_count(grid) -> int:
    """Smallest J+1 such that C_J is identically 1 on the grid."""
    j = 0
    while 2.0 ** j < grid.k_max:
        j += 1
    return j + 1


def lp_lowpass_symbol(grid, j):
    if j < 0:
        return np.zeros(grid.n)
    return _lowpass_profile(np.abs(grid.wavenumbers), j)


def lp_block_symbol(grid, j):
    if j == 0:
        return lp_lowpass_symbol(grid, 0)
    return lp_lowpass_symbol(grid, j) - lp_lowpass_symbol(grid, j - 1)


def lp_project(f: Field, j: int) -> Field:
    """The dyadic block P_j f."""
    return _apply_multiplier(f, lp_block_symbol(f.grid, j))


def lp_lowpass(f: Field, j: int) -> Field:
    """S_j f = sum_{i<=j} P_i f.  S_{-1} = 0."""
    return _apply_multiplier(f, lp_lowpass_symbol(f.grid, j))


@functools.lru_cache(maxsize=8)
def _lp_block_symbols(grid):
    """Read-only (blocks, n) stack of the lp_block_symbol rows."""
    symbols = np.array([lp_block_symbol(grid, j)
                        for j in range(lp_block_count(grid))])
    symbols.setflags(write=False)
    return symbols


def zygmund_norm(f: Field, s: float) -> float:
    """sup_j 2^{js} ||P_j f||_inf over the grid's dyadic blocks.

    One forward transform of f and one batched inverse transform give every
    block P_j f at once.
    """
    blocks = np.fft.ifft(np.fft.fft(f.values) * _lp_block_symbols(f.grid),
                         axis=1).real
    peaks = np.max(np.abs(blocks), axis=1)
    best = 0.0
    for j, peak in enumerate(peaks):
        best = max(best, 2.0 ** (j * s) * float(peak))
    return best


# Holder exponent of the Lipschitz proxy: the W^{1+1/2,inf} norm
LIPSCHITZ_EPS = 0.5


def lipschitz_norms(f: Field):
    """(||f_x||_inf, W^{1+eps,inf} proxy ||f_x||_inf + |f_x|_{C^eps_*})."""
    fx = dx(f)
    lip = float(np.max(np.abs(fx.values)))
    return lip, lip + zygmund_norm(fx, LIPSCHITZ_EPS)


def refine(f: Field) -> Field:
    """Spectrally interpolate onto a grid with twice the nodes."""
    n = f.grid.n
    fine = PeriodicGrid(2 * n, f.grid.length)
    c = to_spectrum(f)
    cf = np.zeros(fine.n, dtype=complex)
    half = n // 2
    cf[:half] = c[:half]
    cf[-half + 1:] = c[-half + 1:]
    # split the unpaired Nyquist coefficient symmetrically
    cf[half] = 0.5 * c[half]
    cf[-half] = 0.5 * c[half]
    return to_field(fine, cf)


def truncate(f: Field, grid: PeriodicGrid) -> Field:
    """Project a fine-grid field back onto a coarser grid spectrally."""
    factor = f.grid.n // grid.n
    if grid.n * factor != f.grid.n or abs(f.grid.length - grid.length) > 0:
        raise ValueError("grids are not nested")
    c = to_spectrum(f)
    half = grid.n // 2
    cc = np.zeros(grid.n, dtype=complex)
    cc[:half] = c[:half]
    cc[half + 1:] = c[-half + 1:]
    cc[half] = c[half] + c[-half]
    return to_field(grid, cc)
