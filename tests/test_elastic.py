import numpy as np
import pytest

from elastic_muskat.grid import (Field, PeriodicGrid, _truncate, dx,
                                 sobolev_norm)
from elastic_muskat.elastic import (_fine_derivatives, elastic_E,
                                    elastic_split, gateaux_dE, symbol_ell)
from elastic_muskat.paracalc import para_apply

from helpers import full_truncate


GRID = PeriodicGrid(128, 2.0 * np.pi)
X = GRID.nodes


def curvature(eta):
    """eta_xx / (1 + eta_x^2)^(3/2), dealiased as E(eta) is."""
    ex, exx = _fine_derivatives(eta)
    return Field(eta.grid, _truncate(exx / (1.0 + ex * ex) ** 1.5, eta.grid.n))


def test_curvature_zero():
    out = curvature(Field(GRID, np.zeros(GRID.n)))
    assert np.max(np.abs(out.values)) == 0.0


def test_curvature_constant():
    out = curvature(Field(GRID, np.full(GRID.n, 2.0)))
    assert np.max(np.abs(out.values)) < 1e-14


def test_curvature_small_amplitude():
    eps = 1e-4
    out = curvature(Field(GRID, eps * np.cos(X)))
    assert np.max(np.abs(out.values + eps * np.cos(X))) < 1e-11


def test_elastic_zero_both_forms():
    z = Field(GRID, np.zeros(GRID.n))
    for form in ("A", "B"):
        assert np.max(np.abs(elastic_E(z, form).values)) == 0.0


def test_elastic_constant_invariance():
    eta = Field(GRID, 0.2 * np.sin(X))
    shifted = Field(GRID, eta.values + 1.3)
    d = elastic_E(eta).values - elastic_E(shifted).values
    assert np.max(np.abs(d)) < 1e-8


def test_elastic_linearization():
    eps = 1e-4
    eta = Field(GRID, eps * np.cos(X))
    out = elastic_E(eta)
    assert np.max(np.abs(out.values - eps * np.cos(X))) / eps < 1e-7


def test_forms_agree():
    g = PeriodicGrid(256, 2.0 * np.pi)
    eta = Field(g, 0.3 * np.sin(g.nodes))
    ea = elastic_E(eta, "A")
    eb = elastic_E(eta, "B")
    rel = sobolev_norm(ea - eb, 0.0) / sobolev_norm(ea, 0.0)
    assert rel < 1e-8


def test_elastic_bad_form():
    with pytest.raises(ValueError):
        elastic_E(Field(GRID, np.zeros(GRID.n)), form="C")


def test_translation_equivariance():
    eta = Field(GRID, 0.2 * np.sin(X) + 0.05 * np.cos(3 * X))
    shift = 16  # grid-aligned
    rolled = Field(GRID, np.roll(eta.values, shift))
    out = elastic_E(rolled).values
    expected = np.roll(elastic_E(eta).values, shift)
    assert np.max(np.abs(out - expected)) < 1e-9


def test_reflection_antisymmetry():
    eta = Field(GRID, 0.2 * np.sin(X))
    out = elastic_E(eta).values
    # odd eta about 0: E should be odd too
    reflected = -np.roll(out[::-1], 1)
    assert np.max(np.abs(out - reflected)) < 1e-9


def test_symbol_flat():
    sym = symbol_ell(Field(GRID, np.zeros(GRID.n)))
    by_power = {t.power: t for t in sym.terms}
    assert np.max(np.abs(by_power[4].coeff.values - 1.0)) < 1e-14
    for p in (1, 2, 3):
        assert np.max(np.abs(by_power[p].coeff.values)) < 1e-12


def test_symbol_xi3_is_derivative_of_xi4():
    sym = symbol_ell(Field(GRID, 0.2 * np.sin(X)))
    by_power = {t.power: t for t in sym.terms}
    expected = 2.0 * dx(by_power[4].coeff).values
    assert np.max(np.abs(by_power[3].coeff.values - expected)) < 1e-9


def test_split_zero():
    sp = elastic_split(Field(GRID, np.zeros(GRID.n)))
    for f in (sp.principal, sp.remainder, sp.total):
        assert np.max(np.abs(f.values)) == 0.0


def test_split_reconstructs():
    eta = Field(GRID, 0.1 * np.sin(2 * X))
    sp = elastic_split(eta)
    recon = sp.principal.values + sp.remainder.values
    assert np.max(np.abs(recon - sp.total.values)) < 1e-13
    assert np.max(np.abs(sp.total.values - elastic_E(eta).values)) < 1e-13


def test_remainder_amplitude_slope():
    errs, epss = [], [1e-1, 3e-2, 1e-2, 3e-3]
    for eps in epss:
        eta = Field(GRID, eps * np.sin(2 * X))
        errs.append(sobolev_norm(elastic_split(eta).remainder, 0.5))
    slope = np.polyfit(np.log(epss), np.log(errs), 1)[0]
    assert slope >= 2.0


def test_ellipticity_constant_stable():
    eta = Field(GRID, 0.2 * np.sin(X))
    sym = symbol_ell(eta)
    consts = []
    for k in (4, 8, 16):
        u = Field(GRID, np.cos(k * X))
        diff = para_apply(sym, u) - dx(u, 4)
        consts.append(sobolev_norm(diff, 0.0) / sobolev_norm(u, 4.0))
    assert max(consts) < 10 * min(consts)


def test_gateaux_flat():
    etadot = Field(GRID, np.cos(3 * X))
    out = gateaux_dE(Field(GRID, np.zeros(GRID.n)), etadot)
    assert np.max(np.abs(out.values - dx(etadot, 4).values)) < 1e-10


def test_gateaux_linearity():
    eta = Field(GRID, 0.2 * np.sin(X))
    d1 = gateaux_dE(eta, Field(GRID, np.cos(3 * X)))
    d2 = gateaux_dE(eta, Field(GRID, np.sin(2 * X)))
    both = gateaux_dE(eta, Field(GRID, np.cos(3 * X) + np.sin(2 * X)))
    assert np.max(np.abs(both.values - d1.values - d2.values)) < 1e-8


def test_gateaux_matches_finite_difference():
    eta = Field(GRID, 0.2 * np.sin(X))
    etadot = Field(GRID, np.cos(3 * X))
    eps = 1e-4
    fd = (elastic_E(eta + etadot * eps).values
          - elastic_E(eta - etadot * eps).values) / (2 * eps)
    de = gateaux_dE(eta, etadot)
    rel = np.linalg.norm(de.values - fd) / np.linalg.norm(fd)
    assert rel < 1e-6


def _cos_sum(x, modes, m):
    """m-th derivative of sum a cos(j x + p) over the modes (j, a, p)."""
    return sum(a * j ** m * np.cos(j * x + p + m * np.pi / 2)
               for j, a, p in modes)


def _form_a(e1, e2, e3, e4):
    one = 1.0 + e1 * e1
    return (e4 * one ** -2.5 - 10.0 * e1 * e2 * e3 * one ** -3.5
            - 3.0 * e2 ** 3 * one ** -3.5
            + 18.0 * e1 * e1 * e2 ** 3 * one ** -4.5
            + 0.5 * e2 ** 3 * one ** -4.5)


# measured max errors relative to max|ref|, with spectral and with analytic
# derivatives in the same products: E 1.3e-10 / 1.5e-10 and dE 1.1e-10
# (n = 128), E 5.1e-8 / 4.2e-8 and dE 4.1e-8 / 4.6e-8 (n = 512) for the
# full-FFT and the one-spectrum kernels; the bounds leave a factor 10
@pytest.mark.parametrize("n, bound", [(128, 1.5e-9), (512, 5.1e-7)])
def test_elastic_and_gateaux_match_analytic_derivatives(n, bound):
    # the products of E and of its derivative on the 2x grid, with the
    # derivatives of a cosine sum taken analytically, truncated back; the
    # derivative in the direction etadot by a complex step of 1e-30
    eta_modes = [(1, 0.2, 0.3), (2, 0.05, 1.1), (3, 0.02, -0.4),
                 (5, 0.004, 2.0)]
    dot_modes = [(1, 1.0, 0.0), (2, 0.5, 0.7), (4, 0.1, -1.3)]
    grid, xf = PeriodicGrid(n), PeriodicGrid(2 * n).nodes
    e = [_cos_sum(xf, eta_modes, m) for m in (1, 2, 3, 4)]
    d = [_cos_sum(xf, dot_modes, m) for m in (1, 2, 3, 4)]
    h = 1e-30
    refs = (full_truncate(_form_a(*e), n),
            full_truncate(_form_a(*(a + 1j * h * b
                                    for a, b in zip(e, d))).imag / h, n))
    eta = Field(grid, _cos_sum(grid.nodes, eta_modes, 0))
    etadot = Field(grid, _cos_sum(grid.nodes, dot_modes, 0))
    for got, ref in zip((elastic_E(eta), gateaux_dE(eta, etadot)), refs):
        assert np.max(np.abs(got.values - ref)) < bound * np.max(np.abs(ref))
