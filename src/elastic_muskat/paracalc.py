"""Bony paraproducts and polynomial-in-xi paradifferential operators.

The low-high paraproduct uses the dyadic convention T_a u =
sum_{j>=2} S_{j-2}(a) * P_j(u) with S_m the low-pass cutoff of grid.py.
Symbols are finite lists of (power, coefficient field, unit) terms where the
unit is "xi" (multiplier k^p, p even) or "ixi" (i k^p, p odd).  The other
pairings map real fields to imaginary ones, so on real fields they are zero
and SymbolTerm rejects them.
Multipliers act on rfft half spectra, as everywhere in the solver.
"""

from dataclasses import dataclass

import numpy as np

from .grid import (Field, _apply_multiplier, _check_same_grid,
                   _lp_block_symbols)

# the unit of each parity of the power
SYMBOL_UNITS = ("xi", "ixi")


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
        if self.unit != SYMBOL_UNITS[self.power % 2]:
            raise ValueError(f"unit {self.unit!r} with power {self.power} is"
                             " zero on real fields")


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
    blocks = _lp_block_symbols(grid)
    # the low-pass cutoffs S_j are the partial sums of the blocks
    low = _apply_multiplier(a, np.cumsum(blocks[:-2], axis=0))
    return np.sum(low * _apply_multiplier(u, blocks[2:]), axis=0)


def paraproduct(a: Field, u: Field) -> Field:
    """T_a u = sum_{j>=2} S_{j-2}(a) P_j(u)."""
    _check_same_grid(a, u)
    return Field(a.grid, _paraproduct(a.grid, a.values, u.values))


def _unit_symbol(grid, power, unit):
    k = grid.rfft_wavenumbers
    if unit == "xi":
        return k ** power
    sym = 1j * k ** power
    # odd powers zero the sign-ambiguous Nyquist mode
    sym[-1] = 0.0
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
