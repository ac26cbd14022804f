"""Bony paraproducts and polynomial-in-xi paradifferential operators.

The low-high paraproduct uses the dyadic convention T_a u =
sum_{j>=2} S_{j-2}(a) * P_j(u) with S_m the low-pass cutoff of grid.py.
Symbols are finite lists of (power, coefficient field, unit) terms where the
unit is one of "xi" (multiplier k^p), "ixi" (i k^p) or "absxi" (|k|^p).
"""

from dataclasses import dataclass

import numpy as np

from .grid import (Field, _apply_multiplier, _check_same_grid, _nyquist_mask,
                   lp_block_count, lp_block_symbol, lp_lowpass_symbol)

SYMBOL_UNITS = ("xi", "ixi", "absxi")


@dataclass(frozen=True)
class SymbolTerm:
    power: int
    coeff: Field
    unit: str = "xi"

    def __post_init__(self):
        if self.unit not in SYMBOL_UNITS:
            raise ValueError(f"unknown symbol unit {self.unit!r}")
        if not 0 <= self.power <= 5:
            raise ValueError("symbol powers are limited to 0..5")


@dataclass(frozen=True)
class OrderedSymbol:
    """x-dependent polynomial in xi, a(x, xi) = sum of its terms."""

    terms: tuple

    def __post_init__(self):
        grids = {t.coeff.grid for t in self.terms}
        if len(grids) > 1:
            raise ValueError("symbol coefficients live on different grids")
        seen = set()
        for t in self.terms:
            key = (t.power, t.unit)
            if key in seen:
                raise ValueError("duplicate (power, unit) term in symbol")
            seen.add(key)

    @property
    def grid(self):
        return self.terms[0].coeff.grid


def _paraproduct(grid, a, u):
    ahat = np.fft.fft(a)
    uhat = np.fft.fft(u)
    out = np.zeros(grid.n)
    for j in range(2, lp_block_count(grid)):
        low = np.fft.ifft(lp_lowpass_symbol(grid, j - 2) * ahat).real
        blk = np.fft.ifft(lp_block_symbol(grid, j) * uhat).real
        out += low * blk
    return out


def paraproduct(a: Field, u: Field) -> Field:
    """T_a u = sum_{j>=2} S_{j-2}(a) P_j(u)."""
    _check_same_grid(a, u)
    return Field(a.grid, _paraproduct(a.grid, a.values, u.values))


def _unit_symbol(grid, power, unit):
    k = grid.wavenumbers
    if unit == "xi":
        sym = k.astype(complex) ** power
        odd = power % 2 == 1
    elif unit == "ixi":
        sym = 1j * k ** power
        odd = power % 2 == 1
    else:
        sym = np.abs(k).astype(complex) ** power
        odd = False
    if odd:
        sym = sym * _nyquist_mask(grid)
    return sym


def para_apply(sym: OrderedSymbol, u: Field) -> Field:
    """Apply the paradifferential operator T_sym to u.

    Each coefficient is split into its mean and the zero-mean fluctuation.
    The mean acts as an exact Fourier multiplier on u minus its own mean
    (the low-frequency cutoff kills only the zero mode on an integer-scale
    lattice), while the fluctuation enters through the Bony paraproduct.
    Without the exact mean route the operator would annihilate low dyadic
    blocks of u and the paralinearization remainder would only be first
    order in amplitude.
    """
    grid = u.grid
    out = np.zeros(grid.n)
    u0 = u.values - np.mean(u.values)
    for t in sym.terms:
        mu = _apply_multiplier(u0, _unit_symbol(grid, t.power, t.unit))
        cbar = float(np.mean(t.coeff.values))
        out = out + cbar * mu + _paraproduct(grid, t.coeff.values - cbar, mu)
    return Field(grid, out)
