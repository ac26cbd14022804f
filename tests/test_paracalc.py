import numpy as np
import pytest

from elastic_muskat.grid import (Field, PeriodicGrid, dx, lp_project,
                                 lp_block_count, mean, sobolev_norm)
from elastic_muskat.paracalc import (OrderedSymbol, SymbolTerm, para_apply,
                                     paraproduct)


GRID = PeriodicGrid(128, 2.0 * np.pi)
X = GRID.nodes


def random_field(seed, decay=2.0, kmax=30):
    rng = np.random.default_rng(seed)
    vals = np.zeros(GRID.n)
    for k in range(1, kmax):
        vals += rng.normal() / k ** decay * np.cos(k * X + rng.uniform(0, 7))
    return Field(GRID, vals)


def diagonal_remainder(a, u):
    """R(a,u) = sum_{|j-j'|<=1} P_j(a) P_j'(u), the Bony diagonal part."""
    nblocks = lp_block_count(a.grid)
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
    with pytest.raises(ValueError):
        SymbolTerm(6, coeff, "xi")
    with pytest.raises(ValueError):
        SymbolTerm(2, coeff, "banana")
    # k^p with p odd and i k^p with p even map real fields to imaginary
    # ones; "absxi" (|k|^p) is no unit any more
    for power, unit in ((1, "xi"), (3, "xi"), (0, "ixi"), (2, "ixi"),
                        (2, "absxi")):
        with pytest.raises(ValueError):
            SymbolTerm(power, coeff, unit)


def test_para_apply_constant_symbol_is_multiplier():
    # constant coefficient: para_apply reduces to the exact Fourier multiplier
    u = random_field(6)
    sym = OrderedSymbol((SymbolTerm(2, Field(GRID, np.ones(GRID.n)), "xi"),))
    out = para_apply(sym, u)
    expected = -dx(u, 2)
    assert np.max(np.abs(out.values - expected.values)) < 1e-10


def test_para_apply_ixi_unit():
    u = Field(GRID, np.cos(3 * X))
    sym = OrderedSymbol((SymbolTerm(1, Field(GRID, np.ones(GRID.n)), "ixi"),))
    out = para_apply(sym, u)
    expected = dx(u)
    assert np.max(np.abs(out.values - expected.values)) < 1e-11


def test_para_apply_annihilates_constants():
    # only the mean-free part of u is acted on, so constants map to zero
    a = Field(GRID, 1.0 + 0.2 * np.cos(X))
    u = Field(GRID, np.ones(GRID.n) * 3.0)
    sym = OrderedSymbol((SymbolTerm(0, a, "xi"),))
    out = para_apply(sym, u)
    assert np.max(np.abs(out.values)) < 1e-12


def test_paraproduct_requires_same_grid():
    other = PeriodicGrid(64, 2.0 * np.pi)
    with pytest.raises(ValueError):
        paraproduct(random_field(1), Field(other, np.zeros(64)))
