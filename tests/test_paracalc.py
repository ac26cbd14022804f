import numpy as np
import pytest

from elastic_muskat.elastic import symbol_ell
from elastic_muskat.grid import (Field, PeriodicGrid, _check_same_grid,
                                 _lp_cutoffs, dx, sobolev_norm)
from elastic_muskat.paracalc import (OrderedSymbol, SymbolTerm, _paraproduct,
                                     para_apply)

from helpers import count_real_transforms, lp_project, para_apply_per_term


GRID = PeriodicGrid(128, 2.0 * np.pi)
X = GRID.nodes


def random_field(seed, decay=2.0, kmax=30):
    rng = np.random.default_rng(seed)
    vals = np.zeros(GRID.n)
    for k in range(1, kmax):
        vals += rng.normal() / k ** decay * np.cos(k * X + rng.uniform(0, 7))
    return Field(GRID, vals)


def paraproduct(a, u):
    """T_a u by the batched kernel of para_apply."""
    _check_same_grid(a, u)
    return Field(a.grid, _paraproduct(a.grid, np.fft.rfft(a.values),
                                      np.fft.rfft(u.values)))


def diagonal_remainder(a, u):
    """R(a,u) = sum_{|j-j'|<=1} P_j(a) P_j'(u), the Bony diagonal part."""
    nblocks = len(_lp_cutoffs(a.grid))
    ablk = [lp_project(a, j).values for j in range(nblocks)]
    ublk = [lp_project(u, j).values for j in range(nblocks)]
    out = np.zeros(a.grid.n)
    for j in range(nblocks):
        for jp in (j - 1, j, j + 1):
            if 0 <= jp < nblocks:
                out += ablk[j] * ublk[jp]
    return Field(a.grid, out)


def test_paraproduct_of_one():
    # T_1 u keeps exactly the part above the two lowest dyadic blocks
    u = random_field(1)
    one = Field(GRID, np.ones(GRID.n))
    t1 = paraproduct(one, u)
    expected = u - lp_project(u, 0) - lp_project(u, 1)
    assert np.max(np.abs(t1.values - expected.values)) < 1e-12


def test_bony_decomposition_exact():
    a = random_field(2)
    u = random_field(3)
    total = paraproduct(a, u) + paraproduct(u, a) + diagonal_remainder(a, u)
    assert np.max(np.abs(total.values - a.values * u.values)) < 1e-11


def test_order_bound_constant_independent_of_k():
    # ||T_a u||_{L2} <= C ||a||_inf ||u||_{L2} uniformly over mode k
    a = random_field(4, decay=1.5)
    a = a * (1.0 / np.max(np.abs(a.values)))
    consts = []
    for k in (4, 8, 16, 32):
        u = Field(GRID, np.cos(k * X))
        t = paraproduct(a, u)
        consts.append(sobolev_norm(t, 0.0) / sobolev_norm(u, 0.0))
    assert max(consts) < 10.0


def test_symbol_term_validation():
    coeff = Field(GRID, np.ones(GRID.n))
    for power in (-1, 6):
        with pytest.raises(ValueError):
            SymbolTerm(power, coeff)
    # a term is coeff * d^power: there is no unit to choose
    with pytest.raises(TypeError):
        SymbolTerm(2, coeff, "xi")
    with pytest.raises(ValueError):
        OrderedSymbol((SymbolTerm(2, coeff), SymbolTerm(2, coeff * 2.0)))
    with pytest.raises(ValueError):
        OrderedSymbol((SymbolTerm(2, coeff),
                       SymbolTerm(1, Field(PeriodicGrid(64), np.ones(64)))))


def test_para_apply_constant_symbol_is_multiplier():
    # constant coefficient: para_apply reduces to the exact Fourier multiplier
    u = random_field(6)
    sym = OrderedSymbol((SymbolTerm(2, Field(GRID, np.ones(GRID.n))),))
    out = para_apply(sym, u)
    expected = dx(u, 2)
    assert np.max(np.abs(out.values - expected.values)) < 1e-10


def test_para_apply_odd_power_is_derivative():
    u = Field(GRID, np.cos(3 * X))
    sym = OrderedSymbol((SymbolTerm(1, Field(GRID, np.ones(GRID.n))),))
    out = para_apply(sym, u)
    expected = dx(u)
    assert np.max(np.abs(out.values - expected.values)) < 1e-11


def test_para_apply_annihilates_constants():
    # only the mean-free part of u is acted on, so constants map to zero
    a = Field(GRID, 1.0 + 0.2 * np.cos(X))
    u = Field(GRID, np.ones(GRID.n) * 3.0)
    sym = OrderedSymbol((SymbolTerm(0, a),))
    out = para_apply(sym, u)
    assert np.max(np.abs(out.values)) < 1e-12


@pytest.mark.parametrize("n", [128, 512])
def test_para_apply_matches_per_term_reference(n):
    # every term at once against one term at a time, on the elastic symbol
    grid = PeriodicGrid(n)
    rng = np.random.default_rng(n)
    eta = np.zeros(n)
    for k in range(1, 12):
        eta += 0.2 * rng.normal() / k ** 3 \
            * np.cos(k * grid.nodes + rng.uniform(0, 7))
    eta = Field(grid, eta)
    sym = symbol_ell(eta)
    ref = para_apply_per_term(sym, eta).values
    got = para_apply(sym, eta).values
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_para_apply_transform_count(monkeypatch):
    # one rfft of u, one of the stacked coefficients and batched irffts,
    # whatever the number of terms
    eta = Field(GRID, 0.1 * np.sin(2 * X) + 0.05 * np.cos(5 * X))
    sym = symbol_ell(eta)
    assert len(sym.terms) == 4
    calls = count_real_transforms(monkeypatch)
    para_apply(sym, eta)
    assert len(calls) <= 5


def test_para_apply_requires_same_grid():
    other = PeriodicGrid(64, 2.0 * np.pi)
    sym = OrderedSymbol((SymbolTerm(2, random_field(1)),))
    with pytest.raises(ValueError):
        para_apply(sym, Field(other, np.zeros(64)))
