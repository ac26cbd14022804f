import numpy as np
import pytest
from scipy.integrate import quad

from elastic_muskat.grid import (Field, PeriodicGrid, abs_d, dx,
                                 exp_linear_weights, inv_abs_d,
                                 lipschitz_norms, lp_block_count,
                                 lp_lowpass, lp_project, mean,
                                 refine, semigroup_apply, sobolev_norm,
                                 to_field, to_spectrum, truncate,
                                 zygmund_norm, zero_field)


GRID = PeriodicGrid(128, 2.0 * np.pi)
X = GRID.nodes


def random_field(seed=0):
    rng = np.random.default_rng(seed)
    vals = np.zeros(GRID.n)
    for k in range(1, 30):
        vals += rng.normal() / k ** 2 * np.cos(k * X + rng.uniform(0, 7))
    return Field(GRID, vals)


def test_roundtrip():
    f = random_field()
    back = to_field(GRID, to_spectrum(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12 * np.max(np.abs(f.values))


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(7, 2 * np.pi)
    with pytest.raises(ValueError):
        PeriodicGrid(64, -1.0)


def test_inverse_abs_derivative():
    f = Field(GRID, np.cos(2 * X))
    out = inv_abs_d(f)
    assert np.max(np.abs(out.values - 0.5 * np.cos(2 * X))) < 1e-13


def test_abs_derivative_single_mode():
    out = abs_d(Field(GRID, np.sin(3 * X)))
    assert np.max(np.abs(out.values - 3 * np.sin(3 * X))) < 1e-12


def test_zero_mode_convention():
    c = Field(GRID, np.ones(GRID.n))
    assert np.max(np.abs(abs_d(c).values)) == 0.0
    assert np.max(np.abs(inv_abs_d(c).values)) == 0.0


def test_fractional_power():
    f = Field(GRID, np.cos(2 * X))
    out = abs_d(f, 2.5)
    assert np.max(np.abs(out.values - 2 ** 2.5 * np.cos(2 * X))) < 1e-10


def test_semigroup_single_mode():
    # fifth-order heat flow on cos x over unit time
    f = Field(GRID, np.cos(X))
    out = semigroup_apply(f, 1.0, 1.0, 5.0)
    assert np.max(np.abs(out.values - np.exp(-1.0) * np.cos(X))) < 1e-12


def test_semigroup_rejects_negative_time():
    with pytest.raises(ValueError):
        semigroup_apply(Field(GRID, np.cos(X)), -0.1, 1.0, 5.0)


def test_semigroup_preserves_mean():
    f = Field(GRID, 1.0 + np.cos(X))
    out = semigroup_apply(f, 2.0, 1.0, 5.0)
    assert abs(mean(out) - 1.0) < 1e-14


def test_sobolev_single_mode():
    f = Field(GRID, np.cos(X))
    for s in (0.0, 1.0, 2.5):
        assert abs(sobolev_norm(f, s) - 2 ** ((s - 1) / 2)) < 1e-12


def test_sobolev_parseval():
    f = random_field(3)
    l2 = np.sqrt(GRID.length / GRID.n * np.sum(f.values ** 2)) / np.sqrt(GRID.length)
    assert abs(sobolev_norm(f, 0.0) - l2) < 1e-12


def test_lp_partition_of_unity():
    f = random_field(5)
    total = zero_field(GRID)
    for j in range(lp_block_count(GRID)):
        total = total + lp_project(f, j)
    assert np.max(np.abs(total.values - f.values)) < 1e-12


def test_lp_block_localization():
    # a pure dyadic mode lands wholly in its block
    f = Field(GRID, np.cos(8 * X))
    p = lp_project(f, 3)
    assert np.max(np.abs(p.values - f.values)) < 1e-12


def test_lowpass_keeps_low_modes():
    f = Field(GRID, np.cos(X) + np.cos(40 * X))
    low = lp_lowpass(f, 0)
    assert np.max(np.abs(low.values - np.cos(X))) < 1e-12


def test_zygmund_single_mode():
    f = Field(GRID, np.cos(8 * X))
    assert abs(zygmund_norm(f, 0.0) - 1.0) < 1e-10


@pytest.mark.parametrize("n", [64, 128, 512])
def test_zygmund_matches_block_projections(n):
    # the batched transform gives the same blocks as one lp_project each
    grid = PeriodicGrid(n)
    rng = np.random.default_rng(n)
    for s in (0.0, 0.5, 1.0):
        f = Field(grid, rng.standard_normal(n))
        expected = max(2.0 ** (j * s) * np.max(np.abs(lp_project(f, j).values))
                       for j in range(lp_block_count(grid)))
        assert zygmund_norm(f, s) == expected


def test_lipschitz_norms():
    f = Field(GRID, 0.3 * np.sin(X))
    lip, proxy = lipschitz_norms(f)
    assert abs(lip - 0.3) < 1e-6
    assert proxy >= lip


def test_refine_truncate_roundtrip():
    f = random_field(9)
    assert np.max(np.abs(truncate(refine(f), GRID).values - f.values)) < 1e-12


def test_means():
    f = Field(GRID, 2.5 + np.cos(3 * X))
    assert abs(mean(f) - 2.5) < 1e-13


def test_derivative_matches_analytic():
    f = Field(GRID, np.sin(2 * X))
    out = dx(f)
    assert np.max(np.abs(out.values - 2 * np.cos(2 * X))) < 1e-11


def test_exp_linear_weights_match_quadrature():
    # the one exponential quadrature of the DN panels, the ETD phi-functions
    # and the Duhamel trapezoid, on both sides of its series cut
    z = np.concatenate([[0.0], np.logspace(-10, 3, 131)])
    w0, w1 = exp_linear_weights(z)
    for zj, a, b in zip(z, w0, w1):
        ref0 = quad(lambda u: np.exp(-zj * u) * (1.0 - u), 0.0, 1.0,
                    epsabs=0.0, epsrel=2e-14)[0]
        ref1 = quad(lambda u: np.exp(-zj * u) * u, 0.0, 1.0,
                    epsabs=0.0, epsrel=2e-14)[0]
        assert abs(a - ref0) <= 1e-13 * ref0
        assert abs(b - ref1) <= 1e-13 * ref1
