import numpy as np
import pytest
from scipy.integrate import quad

from elastic_muskat.grid import (Field, PeriodicGrid, _lipschitz_norms,
                                 _lp_cutoffs, _refine_hat, _truncate, dx,
                                 exp_linear_weights, lipschitz_norms, mean,
                                 sobolev_norm, zero_field)

from helpers import (abs_d, count_real_transforms, fft_wavenumbers,
                     full_abs_d, full_dx, full_lp_project, full_refine,
                     full_sobolev_norm, full_truncate, inv_abs_d, lp_project,
                     multiplier, zygmund_norm)


GRID = PeriodicGrid(128, 2.0 * np.pi)
X = GRID.nodes


def random_field(seed=0):
    rng = np.random.default_rng(seed)
    vals = np.zeros(GRID.n)
    for k in range(1, 30):
        vals += rng.normal() / k ** 2 * np.cos(k * X + rng.uniform(0, 7))
    return Field(GRID, vals)


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(7, 2 * np.pi)
    with pytest.raises(ValueError):
        PeriodicGrid(64, -1.0)
    # a float or bool size reaches numpy's FFT only to fail there
    for n in (64.0, np.float64(64), True):
        with pytest.raises(ValueError, match="integer"):
            PeriodicGrid(n)
    assert PeriodicGrid(np.int64(64)).rfft_wavenumbers.size == 33


def test_grid_length_must_be_finite():
    # inf > 0 holds, so a positive length is also checked finite
    with pytest.raises(ValueError, match="length"):
        PeriodicGrid(64, float("inf"))


def test_wavenumbers_are_computed_once_and_read_only():
    grid = PeriodicGrid(64, 3.0)
    k = grid.rfft_wavenumbers
    assert grid.rfft_wavenumbers is k
    assert not k.flags.writeable
    np.testing.assert_array_equal(
        k, 2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.length / grid.n))


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


def semigroup_apply(f, t, nu1, alpha1):
    """exp(-t nu1 |D|^alpha1) f.  Rejects t < 0 (anti-diffusion)."""
    if t < 0:
        raise ValueError("semigroup_apply requires t >= 0")
    k = np.abs(fft_wavenumbers(f.grid))
    rate = nu1 * np.where(k > 0, k, 1.0) ** alpha1 * (k > 0)
    return multiplier(f, np.exp(-t * rate))


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
    for j in range(len(_lp_cutoffs(GRID))):
        total = total + lp_project(f, j)
    assert np.max(np.abs(total.values - f.values)) < 1e-12


def test_lp_cutoffs_form_one_read_only_table():
    # C_0, ..., C_J once each, J the least with C_J identically 1
    for grid in (GRID, PeriodicGrid(1000, 20.0)):
        cutoffs = _lp_cutoffs(grid)
        assert _lp_cutoffs(grid) is cutoffs
        assert not cutoffs.flags.writeable
        assert np.all(cutoffs[-1] == 1.0) and not np.all(cutoffs[-2] == 1.0)
        absk = grid.rfft_wavenumbers
        for j, row in enumerate(cutoffs):
            assert np.all(row[absk <= 2.0 ** j] == 1.0)
            assert np.all(row[absk >= 2.0 ** (j + 1)] == 0.0)


def test_lp_block_localization():
    # a pure dyadic mode lands wholly in its block
    f = Field(GRID, np.cos(8 * X))
    p = lp_project(f, 3)
    assert np.max(np.abs(p.values - f.values)) < 1e-12


def test_lowpass_keeps_low_modes():
    f = Field(GRID, np.cos(X) + np.cos(40 * X))
    low = Field(GRID, np.fft.irfft(np.fft.rfft(f.values)
                                   * _lp_cutoffs(GRID)[0], GRID.n))
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
                       for j in range(len(_lp_cutoffs(grid))))
        assert zygmund_norm(f, s) == expected


def test_lipschitz_norms():
    f = Field(GRID, 0.3 * np.sin(X))
    lip, proxy = lipschitz_norms(f)
    assert abs(lip - 0.3) < 1e-6
    assert proxy >= lip


def test_lipschitz_norms_take_two_transforms(monkeypatch):
    # one rfft of f and one batched irfft of f_x and its dyadic blocks
    calls = count_real_transforms(monkeypatch)
    _lipschitz_norms(GRID, random_field(4).values)
    assert calls == ["rfft", "irfft"]


@pytest.mark.parametrize("n", [64, 512])
def test_rfft_kernels_match_full_fft(n):
    # random node values set the Nyquist mode, the one mode whose layout
    # differs between the half and the full spectrum; refine and truncate
    # act on a stack of fields at once
    grid = PeriodicGrid(n)
    rng = np.random.default_rng(n)
    f = Field(grid, rng.standard_normal(n))
    coarse = rng.standard_normal((3, n))
    fine = rng.standard_normal((3, 2 * n))
    nblocks = len(_lp_cutoffs(grid))
    blocks = [full_lp_project(f, j).values for j in range(nblocks)]
    fx = full_dx(f, 1)
    fx_blocks = [full_lp_project(fx, j).values for j in range(nblocks)]
    lip = np.max(np.abs(fx.values))
    pairs = [(dx(f, m).values, full_dx(f, m).values) for m in (1, 2, 3, 4)]
    pairs += [(abs_d(f, a).values, full_abs_d(f, a).values)
              for a in (0.0, 1.0, 2.5, 5.0)]
    pairs += [(lp_project(f, j).values, blk) for j, blk in enumerate(blocks)]
    pairs += [(sobolev_norm(f, s), full_sobolev_norm(f, s))
              for s in (0.0, 1.0, 2.5, 4.5)]
    pairs += [(zygmund_norm(f, 0.5),
               max(2.0 ** (0.5 * j) * np.max(np.abs(blk))
                   for j, blk in enumerate(blocks))),
              (lipschitz_norms(f),
               (lip, lip + max(2.0 ** (0.5 * j) * np.max(np.abs(blk))
                               for j, blk in enumerate(fx_blocks)))),
              (_refine_hat(np.fft.rfft(coarse)),
               [full_refine(v) for v in coarse]),
              (_truncate(fine, n), [full_truncate(v, n) for v in fine])]
    for got, ref in pairs:
        ref = np.asarray(ref)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_refine_truncate_roundtrip():
    f = random_field(9)
    fine = _refine_hat(np.fft.rfft(f.values))
    assert len(fine) == 2 * GRID.n
    assert np.max(np.abs(_truncate(fine, GRID.n) - f.values)) < 1e-12


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
