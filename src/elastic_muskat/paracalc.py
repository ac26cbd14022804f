"""Bony paraproducts and polynomial-in-d/dx paradifferential operators.

The low-high paraproduct uses the dyadic convention T_a u =
sum_{j>=2} S_{j-2}(a) * P_j(u) with S_m the low-pass cutoff of grid.py.
A symbol is a finite list of (power m, coefficient field c_m) terms and
stands for a(x, d/dx) = sum_m c_m(x) d^m/dx^m, so each term's multiplier is
the derivative symbol (ik)^m of grid.py.  Multipliers act on rfft half
spectra, as everywhere in the solver.
"""

from dataclasses import dataclass

import numpy as np

from .grid import Field, _check_same_grid, _dx_symbol, _lp_cutoffs


@dataclass(frozen=True)
class SymbolTerm:
    """The term coeff(x) d^power/dx^power of a symbol."""

    power: int
    coeff: Field

    def __post_init__(self):
        if not 0 <= self.power <= 5:
            raise ValueError("symbol powers are limited to 0..5")


@dataclass(frozen=True)
class OrderedSymbol:
    """x-dependent polynomial in d/dx, a(x, d/dx) = sum of its terms."""

    terms: tuple

    def __post_init__(self):
        grids = {t.coeff.grid for t in self.terms}
        if len(grids) > 1:
            raise ValueError("symbol coefficients live on different grids")
        powers = [t.power for t in self.terms]
        if len(set(powers)) < len(powers):
            raise ValueError("duplicate power in symbol")

    @property
    def grid(self):
        return self.terms[0].coeff.grid


def _paraproduct(grid, a_hat, u_hat):
    """T_a u = sum_{j>=2} S_{j-2}(a) P_j(u) from the rfft half spectra of a
    and u, term by term along any leading axes, in one batched irfft."""
    cutoffs = _lp_cutoffs(grid)
    # S_{j-2} and P_j = C_j - C_{j-1} for j = 2, ..., J
    low, high = np.fft.irfft(
        [a_hat[..., None, :] * cutoffs[:-2],
         u_hat[..., None, :] * np.diff(cutoffs[1:], axis=0)], grid.n)
    return np.sum(low * high, axis=-2)


def para_apply(sym: OrderedSymbol, u: Field) -> Field:
    """Apply the paradifferential operator T_sym to u.

    Each coefficient is split into its mean and the zero-mean fluctuation.
    The mean acts as an exact Fourier multiplier on u minus its own mean
    (the low-frequency cutoff kills only the zero mode on an integer-scale
    lattice), while the fluctuation enters through the Bony paraproduct.
    Without the exact mean route the operator would annihilate low dyadic
    blocks of u and the paralinearization remainder would only be first
    order in amplitude.  One rfft of u, one of the stacked fluctuations and
    two batched irffts serve every term.
    """
    _check_same_grid(sym, u)
    grid = u.grid
    coeffs = np.array([t.coeff.values for t in sym.terms])
    cbar = np.mean(coeffs, axis=1)
    du_hat = np.array([_dx_symbol(grid, t.power) for t in sym.terms]) \
        * np.fft.rfft(u.values - np.mean(u.values))
    fluct = _paraproduct(grid, np.fft.rfft(coeffs - cbar[:, None]), du_hat)
    out = np.fft.irfft(cbar @ du_hat, grid.n) + np.sum(fluct, axis=0)
    return Field(grid, out)
