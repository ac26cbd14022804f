"""The nonlinear elastic (bending) operator, its symbol and derivative.

All nonlinear products are evaluated pointwise on a 2x zero-padded grid and
truncated back, guarding against aliasing of the rational nonlinearities.
Every derivative is a multiplier on one rfft half spectrum, and the fields
a product needs reach the fine grid together in one batched irfft.
"""

from dataclasses import dataclass

import numpy as np

from .grid import Field, _dx_symbol, _refine_hat, _truncate, _truncate_hat
from .paracalc import OrderedSymbol, SymbolTerm, para_apply


@dataclass(frozen=True)
class ElasticSplit:
    """E(eta) split into the principal paradifferential part and the rest."""

    principal: Field
    remainder: Field
    total: Field


def _fine_derivatives(eta: Field, orders=(1, 2)):
    """Spectral derivatives of eta interpolated onto the 2x grid, one row each.

    The mean is removed first so constant shifts are exactly invisible
    (a large zero mode otherwise leaks roundoff through the multipliers).
    """
    eta_hat = np.fft.rfft(eta.values - np.mean(eta.values))
    return _refine_hat(
        np.array([_dx_symbol(eta.grid, m) for m in orders]) * eta_hat)


def elastic_E(eta: Field, form: str = "A") -> Field:
    """The elastic operator E(eta).

    Form A: (1/s)[(1/s)(eta_xx/(1+eta_x^2)^{3/2})_x]_x + (1/2)kappa^3 with
    s = sqrt(1+eta_x^2).  Form B is the equivalent divergence form
    ((1/(1+eta_x^2))(eta_x/s)_x)_xx + (5/2)(eta_x eta_xx^2/(1+eta_x^2)^{7/2})_x.
    """
    e1, e2, e3, e4 = _fine_derivatives(eta, orders=(1, 2, 3, 4))
    one = 1.0 + e1 * e1
    # outer derivatives expanded by the product rule so no spectral
    # differentiation acts on product noise (keeps roundoff relative per mode)
    if form == "A":
        total = e4 * one ** -2.5 \
            - 10.0 * e1 * e2 * e3 * one ** -3.5 \
            - 3.0 * e2 ** 3 * one ** -3.5 \
            + 18.0 * e1 * e1 * e2 ** 3 * one ** -4.5 \
            + 0.5 * e2 ** 3 * one ** -4.5
    elif form == "B":
        total = e4 * one ** -2.5 \
            - 10.0 * e1 * e2 * e3 * one ** -3.5 \
            - 2.5 * e2 ** 3 * one ** -3.5 \
            + 17.5 * e1 * e1 * e2 ** 3 * one ** -4.5
    else:
        raise ValueError("form must be 'A' or 'B'")
    return Field(eta.grid, _truncate(total, eta.grid.n))


def _symbol_coefficients(eta: Field):
    """rfft half spectra of c4, 2 (c4)_x, C2 and -C1, the coefficients of
    d^4, d^3, d^2 and d in the principal part of E, one row each.

    c4 = (1+eta_x^2)^{-5/2}, C2 = (c4)_xx - 5 A_x + (5/2) B2 and
    C1 = 5 A_xx - (5/2)(B2)_x, with
    A  = eta_xx eta_x (1+eta_x^2)^{-7/2}
    B2 = eta_xx^2 (1-6 eta_x^2) (1+eta_x^2)^{-9/2}
    """
    grid = eta.grid
    ex, exx = _fine_derivatives(eta)
    one = 1.0 + ex * ex
    fine = np.array([one ** -2.5, exx * ex * one ** -3.5,
                     exx * exx * (1.0 - 6.0 * ex * ex) * one ** -4.5])
    c4, a, b2 = _truncate_hat(fine, grid.n)
    d1, d2 = _dx_symbol(grid, 1), _dx_symbol(grid, 2)
    return np.array([c4, 2.0 * d1 * c4, d2 * c4 - 5.0 * d1 * a + 2.5 * b2,
                     2.5 * d1 * b2 - 5.0 * d2 * a])


# the derivative order of each row of _symbol_coefficients
_SYMBOL_POWERS = (4, 3, 2, 1)


def symbol_ell(eta: Field) -> OrderedSymbol:
    """The degree-4 symbol of the principal part of E(eta), as coefficients
    of derivatives:

    T_ell = T_{c4} d^4 + T_{2 (c4)_x} d^3 + T_{C2} d^2 - T_{C1} d
    """
    grid = eta.grid
    coeffs = np.fft.irfft(_symbol_coefficients(eta), grid.n)
    return OrderedSymbol(tuple(SymbolTerm(m, Field(grid, c))
                               for m, c in zip(_SYMBOL_POWERS, coeffs)))


def elastic_split(eta: Field) -> ElasticSplit:
    """E(eta) = T_ell eta + R_E(eta), the remainder defined by subtraction."""
    total = elastic_E(eta, "A")
    principal = para_apply(symbol_ell(eta), eta)
    return ElasticSplit(principal, total - principal, total)


def gateaux_dE(eta: Field, etadot: Field) -> Field:
    """Gateaux derivative of E at eta in the direction etadot (closed form).

    d_eta E(eta) etadot = c4 d4 + 2 (c4)_x d3 + C2 d2 - C1 d1
    with dm the m-th derivative of etadot: the symbol_ell operator with
    exact products in place of paraproducts.
    """
    if eta.grid != etadot.grid:
        raise ValueError("eta and etadot live on different grids")
    grid = eta.grid
    d_hat = np.fft.rfft(etadot.values)
    derivatives = [_dx_symbol(grid, m) * d_hat for m in _SYMBOL_POWERS]
    c4, c4x2, c2, c1, d4, d3, d2, d1 = _refine_hat(
        np.concatenate([_symbol_coefficients(eta), derivatives]))
    out = c4 * d4 + c4x2 * d3 + c2 * d2 + c1 * d1
    return Field(grid, _truncate(out, grid.n))
