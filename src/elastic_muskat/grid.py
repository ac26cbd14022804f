"""Periodic grid, Fourier transforms, multipliers and norms.

Fields are real, so every spectrum a solver forms is numpy's unnormalised
rfft half spectrum of the node values: n//2 + 1 coefficients at the
wavenumbers rfft_wavenumbers, k_m = 2*pi*m/L for m = 0, ..., n/2.  The
last one, the Nyquist mode, stands for the unpaired pair +-n/2; odd-order
symbols zero it, since its sign is ambiguous.  Multipliers, refinement
and truncation act along the last axis, so a stack of fields takes one
transform.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
# numpy loads np.fft on first use: load it with the package, so that its
# import is paid in set-up and not by a run's first time step
import numpy.fft  # noqa: F401

from .errors import NonFiniteState


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid on the torus of period ``length`` with ``n`` nodes."""

    n: int
    length: float = 2.0 * np.pi

    def __post_init__(self):
        if isinstance(self.n, bool) \
                or not isinstance(self.n, (int, np.integer)) \
                or self.n < 8 or self.n % 2 != 0:
            raise ValueError("n must be an even integer of at least 8, not %r"
                             % (self.n,))
        if not 0 < self.length < np.inf:
            raise ValueError("length must be positive and finite")

    @property
    def nodes(self):
        return np.arange(self.n) * (self.length / self.n)

    @functools.cached_property
    def rfft_wavenumbers(self):
        """Shared read-only wavenumbers k >= 0 of the rfft half spectrum."""
        k = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.length / self.n)
        k.setflags(write=False)
        return k

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


def mean(f: Field) -> float:
    return float(np.mean(f.values))


# The array kernels below take and return node values, so the solver's
# intermediates build no Field; each public Field helper wraps its kernel.


def _apply_multiplier(values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    return np.fft.irfft(np.fft.rfft(values) * symbol, values.shape[-1])


@functools.lru_cache(maxsize=16)
def _dx_symbol(grid, m):
    """Read-only symbol (ik)^m, shared by every m-th derivative on ``grid``."""
    sym = (1j * grid.rfft_wavenumbers) ** m
    if m % 2 == 1:
        sym[-1] = 0.0
    sym.setflags(write=False)
    return sym


def dx(f: Field, m: int = 1) -> Field:
    """m-th spectral derivative.

    Odd orders zero the Nyquist mode, whose sign is ambiguous.
    """
    symbol = _dx_symbol(f.grid, int(m))
    return Field(f.grid, _apply_multiplier(f.values, symbol))


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


def _sobolev_norm(grid, values, s):
    k = grid.rfft_wavenumbers
    c = np.fft.rfft(values) / grid.n
    terms = (1.0 + k * k) ** s * np.abs(c) ** 2
    # each mode 0 < k < n/2 stands for the pair +-k
    return float(np.sqrt(2.0 * np.sum(terms) - terms[0] - terms[-1]))


def sobolev_norm(f: Field, s: float) -> float:
    """(sum_k (1+k^2)^s |f_hat(k)|^2)^(1/2)."""
    return _sobolev_norm(f.grid, f.values, s)


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


@functools.lru_cache(maxsize=8)
def _lp_cutoffs(grid):
    """Read-only (J+1, n//2 + 1) table of the low-pass cutoffs C_0, ..., C_J
    over the rfft wavenumbers, J the least with C_J identically 1 on the
    grid.  Row differences, with C_{-1} = 0, are the blocks P_j."""
    j_max = 0
    while 2.0 ** j_max < grid.k_max:
        j_max += 1
    cutoffs = np.array([_lowpass_profile(grid.rfft_wavenumbers, j)
                        for j in range(j_max + 1)])
    cutoffs.setflags(write=False)
    return cutoffs


def _dyadic_sup(blocks, s):
    """sup_j 2^{js} ||P_j f||_inf, the Zygmund norm |f|_{C^s_*}, from the
    node values of the blocks P_j f, one row each."""
    return max(2.0 ** (j * s) * float(peak)
               for j, peak in enumerate(np.max(np.abs(blocks), axis=-1)))


# Holder exponent of the Lipschitz proxy: the W^{1+1/2,inf} norm
LIPSCHITZ_EPS = 0.5


def _lipschitz_norms(grid, values):
    """One rfft of f and one batched irfft give f_x and its dyadic blocks."""
    fx_hat = np.fft.rfft(values) * _dx_symbol(grid, 1)
    blocks = np.diff(_lp_cutoffs(grid), axis=0, prepend=0.0)
    fields = np.fft.irfft(np.concatenate([fx_hat[None], fx_hat * blocks]),
                          grid.n)
    lip = float(np.max(np.abs(fields[0])))
    return lip, lip + _dyadic_sup(fields[1:], LIPSCHITZ_EPS)


def _lipschitz_bound(grid, values):
    """A bound on the proxy of _lipschitz_norms from one rfft of f.

    With a_k the amplitude of f's mode k, ||f_x||_inf <= sum_k k a_k, and
    each block P_j, whose cutoff lies in [0, 1], keeps modes with
    2^(j-1) < k (j >= 1), so 2^(j/2) ||P_j f_x||_inf <= sum_k k a_k
    max(1, sqrt(2k)).  Their sum bounds the proxy whatever the phases (the
    bound bench/workloads.py uses on the 2 pi torus, where k >= 1); a
    relative 1e-12 covers the roundoff of both.
    """
    k = grid.rfft_wavenumbers
    amplitude = np.abs(np.fft.rfft(values)) * (2.0 / grid.n)
    weight = k * (1.0 + np.maximum(1.0, np.sqrt(2.0 * k)))
    return float(np.dot(weight, amplitude)) * (1.0 + 1e-12)


def lipschitz_norms(f: Field):
    """(||f_x||_inf, W^{1+eps,inf} proxy ||f_x||_inf + |f_x|_{C^eps_*})."""
    return _lipschitz_norms(f.grid, f.values)


def _refine_hat(c_hat):
    """Node values on 2n nodes of the rfft half spectra c_hat of n-node
    values (last axis), by zero-padding: the Nyquist coefficient splits
    evenly between the modes +-n/2 of the finer grid."""
    n = 2 * (c_hat.shape[-1] - 1)
    # irfft on 2n nodes divides by 2n where c_hat holds n times the modes
    c = 2.0 * c_hat
    c[..., -1] = c_hat[..., -1]
    return np.fft.irfft(c, 2 * n)


def _truncate_hat(values, n):
    """rfft half spectra on n nodes of the modes |k| <= n/2 of ``values``,
    along the last axis; the modes +-n/2 of the finer grid fold into the
    Nyquist coefficient."""
    c = np.fft.rfft(values)[..., :n // 2 + 1] * (n / values.shape[-1])
    c[..., -1] *= 2.0
    return c


def _truncate(values, n):
    """The modes |k| <= n/2 of ``values`` on n nodes, along the last axis."""
    return np.fft.irfft(_truncate_hat(values, n), n)
