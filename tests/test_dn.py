import gc
import itertools
import os
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from elastic_muskat import dn
from elastic_muskat.dn import (DNConfig, FlatStrip, InfiniteDepth,
                               _level_operators, dn_fixed_point, dn_upper,
                               make_vertical_grid)
from elastic_muskat.dn_oracle import (_defect_correction, _flat_solver,
                                      _stencil, oracle_dn)
from elastic_muskat.elastic import elastic_E
from elastic_muskat.errors import (ConfigError, DegenerateJacobian,
                                   NotContracting)
from elastic_muskat.grid import Field, PeriodicGrid, lipschitz_norms, mean
from elastic_muskat.verify import SUITES, exact_trace


GRID = PeriodicGrid(64, 2.0 * np.pi)
X = GRID.nodes

# seeds of the random interfaces that the exact identities also run on
PROPERTY_SEEDS = (1, 2, 3)


def random_interface(grid, seed):
    """A seeded smooth interface with Lipschitz proxy 0.25 and a datum f."""
    rng = np.random.default_rng(seed)
    x = grid.nodes
    eta = sum(rng.normal() / k ** 3 * np.cos(k * x + rng.uniform(0, 2 * np.pi))
              for k in range(1, 9))
    f = sum(rng.normal() / k ** 2 * np.cos(k * x + rng.uniform(0, 2 * np.pi))
            for k in range(1, 17))
    eta *= 0.25 / lipschitz_norms(Field(grid, eta))[1]
    return Field(grid, eta), Field(grid, f)


def fixed_or_random(seed, eta, f):
    """The test's fixed (eta, f) for seed None, else random_interface."""
    return (eta, f) if seed is None else random_interface(eta.grid, seed)


def seed_id(seed):
    return "fixed" if seed is None else "seed%d" % seed


def test_flat_interface_infinite_depth():
    f = Field(GRID, np.cos(2 * X))
    res = dn_fixed_point(Field(GRID, np.zeros(GRID.n)), f)
    assert res.converged
    assert res.iterations <= 2
    assert np.max(np.abs(res.gf.values - 2 * np.cos(2 * X))) < 1e-12
    assert np.max(np.abs(res.remainder.values)) < 1e-12


def test_flat_strip_exact_multiplier():
    h = 1.0
    for k in (1, 2, 3):
        f = Field(GRID, np.cos(k * X))
        res = dn_fixed_point(Field(GRID, np.zeros(GRID.n)), f,
                             geometry=FlatStrip(h))
        exact = k * np.tanh(k * h) * np.cos(k * X)
        assert np.max(np.abs(res.gf.values - exact)) < 1e-12


@pytest.mark.parametrize("seed", (None,) + PROPERTY_SEEDS, ids=seed_id)
def test_mean_of_gf_vanishes(seed):
    eta, f = fixed_or_random(seed, Field(GRID, 0.1 * np.sin(X)),
                             Field(GRID, np.cos(2 * X)))
    res = dn_fixed_point(eta, f)
    assert abs(mean(res.gf)) < 1e-13


@pytest.mark.parametrize("seed", (None,) + PROPERTY_SEEDS, ids=seed_id)
def test_positivity(seed):
    eta, f = fixed_or_random(seed, Field(GRID, 0.1 * np.sin(X)),
                             Field(GRID, np.cos(X) + 0.3 * np.sin(2 * X)))
    res = dn_fixed_point(eta, f)
    assert np.sum(res.gf.values * f.values) > 0


def test_contraction_gate():
    eta = Field(GRID, 0.8 * np.sin(X))
    with pytest.raises(NotContracting):
        dn_fixed_point(eta, Field(GRID, np.cos(X)))


def test_gate_override():
    eta = Field(GRID, 0.1 * np.cos(2 * X))
    cfg = DNConfig(lipschitz_gate=1.0)
    res = dn_fixed_point(eta, Field(GRID, np.sin(X)), cfg)
    assert res.converged


def test_residual_contraction():
    eta = Field(GRID, 0.1 * np.sin(X))
    res = dn_fixed_point(eta, Field(GRID, np.cos(2 * X)))
    r = res.residuals
    assert r[-1] < r[0]
    assert res.converged


def test_oracle_agreement_infinite_depth():
    eta = Field(GRID, 0.05 * np.sin(X))
    f = Field(GRID, np.cos(X))
    gf = dn_fixed_point(eta, f).gf
    ref = oracle_dn(eta, f)
    rel = np.linalg.norm(gf.values - ref.values) / np.linalg.norm(ref.values)
    assert rel < 1e-3


def test_oracle_agreement_strip():
    eta = Field(GRID, 0.1 * np.sin(X))
    f = Field(GRID, np.cos(X))
    gf = dn_fixed_point(eta, f, geometry=FlatStrip(1.0)).gf
    ref = oracle_dn(eta, f, geometry=FlatStrip(1.0))
    rel = np.linalg.norm(gf.values - ref.values) / np.linalg.norm(ref.values)
    assert rel < 1e-4


def test_upper_reflection_flat():
    f = Field(GRID, np.cos(X))
    res = dn_upper(Field(GRID, np.zeros(GRID.n)), f)
    # G+(0) = -|D| acting on the data gives -cos(x) here, remainder ~ 0
    assert np.max(np.abs(res.gf.values + np.cos(X))) < 1e-12
    assert np.max(np.abs(res.remainder.values)) < 1e-12


def test_upper_reflection_identity():
    eta = Field(GRID, 0.1 * np.sin(X))
    f = Field(GRID, np.cos(2 * X))
    up = dn_upper(eta, f).gf
    lo = dn_fixed_point(Field(GRID, -eta.values), f).gf
    assert np.max(np.abs(up.values + lo.values)) < 1e-12


def dn_shape_difference(eta1, eta2, f):
    """G^-(eta1) f - G^-(eta2) f."""
    return (dn_fixed_point(eta1, f).gf.values
            - dn_fixed_point(eta2, f).gf.values)


def test_shape_difference_antisymmetry():
    e1 = Field(GRID, 0.05 * np.sin(X))
    e2 = Field(GRID, 0.05 * np.cos(X))
    f = Field(GRID, np.cos(2 * X))
    d12 = dn_shape_difference(e1, e2, f)
    d21 = dn_shape_difference(e2, e1, f)
    assert np.max(np.abs(d12 + d21)) < 1e-12


def test_degenerate_jacobian():
    eta = Field(GRID, 2.5 * np.sin(X))
    cfg = DNConfig(lipschitz_gate=100.0)
    with pytest.raises((DegenerateJacobian, NotContracting)):
        dn_fixed_point(eta, Field(GRID, np.cos(X)), cfg)


@pytest.mark.parametrize("settings", [
    {"tol": float("nan")}, {"tol": float("inf")}, {"tol": 0.0},
    {"tol": -1e-10}, {"lipschitz_gate": float("nan")},
    {"lipschitz_gate": float("inf")}, {"lipschitz_gate": 0.0},
    {"n_levels": 1}, {"n_levels": 64.0}, {"n_levels": True}])
def test_invalid_dn_settings_are_rejected(settings):
    with pytest.raises(ConfigError, match=next(iter(settings))):
        DNConfig(**settings)


def test_vertical_grid_shape():
    levels = make_vertical_grid(10.0, 32)
    assert levels[0] == -10.0
    assert levels[-1] == 0.0
    assert np.all(np.diff(levels) > 0)


def test_harmonic_lift_matches_boundary():
    # the lift is eta at the top level
    eta = Field(GRID, 0.1 * np.sin(X))
    for geometry in (InfiniteDepth(), FlatStrip(1.0)):
        ops = _level_operators(GRID, geometry, 16)
        lift = np.fft.irfft(ops.lift * np.fft.rfft(eta.values), GRID.n, axis=1)
        assert np.max(np.abs(lift[-1] - eta.values)) < 1e-12
    # the last lift, the strip's, vanishes on the wall
    assert np.max(np.abs(lift[0])) < 1e-15


def test_report_fields():
    eta = Field(GRID, 0.05 * np.sin(X))
    res = dn_fixed_point(eta, Field(GRID, np.cos(X)))
    rep = res.report()
    assert rep["converged"]
    assert rep["iterations"] >= 1
    assert rep["tail_bound"] < 1e-6


def test_strip_reports_no_truncation_tail():
    # a flat strip is solved to its bottom, so nothing is truncated
    eta = Field(GRID, 0.05 * np.sin(X))
    f = Field(GRID, np.cos(X))
    assert dn_fixed_point(eta, f, geometry=FlatStrip(1.0)).tail_bound == 0.0
    assert dn_upper(eta, f, geometry=FlatStrip(1.0)).report()["tail_bound"] == 0.0


# --- regression guards for the real-FFT engine ------------------------------
#
# dn_pin_n128.npz holds eta = 0.03 sin x + 0.01 cos 3x, a datum
# f = cos 2x + 0.1 N(0,1) + 0.05 cos 64x (default_rng(20260), so it has
# energy at the Nyquist mode) and G(eta) f at n = 128 with DNConfig()
# defaults.  gf_infinite was computed by the complex-FFT engine this one
# replaced; gf_strip by the one G f read of both geometries, which over the
# strip is 4.8e-12 (2-norm, relative) from a tol-1e-15 solve, against
# 5.1e-11 for the read it replaced.

PIN = np.load(os.path.join(os.path.dirname(__file__), "dn_pin_n128.npz"))
GRID128 = PeriodicGrid(128)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("name, geometry", [("gf_infinite", InfiniteDepth()),
                                            ("gf_strip", FlatStrip(1.0))])
def test_matches_pinned_output(name, geometry):
    eta, f = Field(GRID128, PIN["eta"]), Field(GRID128, PIN["f"])
    res = dn_fixed_point(eta, f, geometry=geometry)
    assert res.converged
    assert res.iterations == 7
    assert _rel(res.gf.values, PIN[name]) < 1e-12


@pytest.mark.parametrize("geometry", [InfiniteDepth(), FlatStrip(1.0),
                                      FlatStrip(0.5)])
def test_default_solve_is_near_a_tight_solve(geometry):
    # the G f read off the last sweep carries the error that tol leaves, and
    # no more, in both geometries (measured 4.3e-12 bottomless, 1.1e-11 and
    # 7.0e-12 over the strips)
    eta, f = Field(GRID128, PIN["eta"]), Field(GRID128, PIN["f"])
    gf = dn_fixed_point(eta, f, geometry=geometry).gf.values
    tight = dn_fixed_point(eta, f, DNConfig(tol=1e-15), geometry)
    assert tight.converged
    ref = tight.gf.values
    assert np.max(np.abs(gf - ref)) < 2e-11 * np.max(np.abs(ref))


# relative max errors of the default 64-level solve, as measured; each
# bound is twice its figure (the level solver's own discretization error)
@pytest.mark.parametrize("geometry, a, k, measured", [
    (InfiniteDepth(), 0.05, 1, 1.72e-5), (InfiniteDepth(), 0.05, 3, 1.74e-7),
    (InfiniteDepth(), 0.1, 1, 3.27e-5), (InfiniteDepth(), 0.1, 3, 6.05e-7),
    (FlatStrip(1.0), 0.05, 1, 5.97e-6), (FlatStrip(1.0), 0.05, 3, 2.73e-6),
    (FlatStrip(1.0), 0.1, 1, 1.08e-5), (FlatStrip(1.0), 0.1, 3, 4.84e-6),
])
def test_matches_exact_harmonic_trace(geometry, a, k, measured):
    x = GRID128.nodes
    eta = a * (np.sin(x) + 0.25 * np.cos(2 * x + 1))
    eta_x = a * (np.cos(x) - 0.5 * np.sin(2 * x + 1))
    f, exact = exact_trace(x, eta, eta_x, k, geometry)
    # the trace is resolved: nothing of it sits at the Nyquist mode
    f_hat = np.abs(np.fft.rfft(f))
    assert f_hat[-1] < 1e-14 * np.max(f_hat)
    res = dn_fixed_point(Field(GRID128, eta), Field(GRID128, f),
                         geometry=geometry).require_converged()
    err = np.max(np.abs(res.gf.values - exact)) / np.max(np.abs(exact))
    assert err <= 2.0 * measured


# relative max errors of the series at the default tolerance on the same
# inputs, as measured; each bound is five times its figure
@pytest.mark.parametrize("geometry, a, k, measured", [
    (InfiniteDepth(), 0.05, 1, 1.34e-13), (InfiniteDepth(), 0.05, 3, 1.16e-13),
    (InfiniteDepth(), 0.1, 1, 2.14e-12), (InfiniteDepth(), 0.1, 3, 2.91e-12),
    (FlatStrip(1.0), 0.05, 1, 1.24e-13), (FlatStrip(1.0), 0.05, 3, 1.20e-13),
    (FlatStrip(1.0), 0.1, 1, 3.85e-12), (FlatStrip(1.0), 0.1, 3, 2.44e-12),
])
def test_series_matches_exact_harmonic_trace(geometry, a, k, measured):
    x = GRID128.nodes
    eta = a * (np.sin(x) + 0.25 * np.cos(2 * x + 1))
    eta_x = a * (np.cos(x) - 0.5 * np.sin(2 * x + 1))
    f, exact = exact_trace(x, eta, eta_x, k, geometry)
    gf = dn._series_engine(GRID128, eta, DNConfig(), geometry).converged_gf(f)
    err = np.max(np.abs(gf - exact)) / np.max(np.abs(exact))
    assert err <= 5.0 * measured


def bench_profile(grid, a):
    """The benchmark's base interface, sum_k a/k^2 cos(kx + p_k), k <= 4."""
    phases = (0.0, 1.0, 2.5, 4.0)
    return sum(a / k ** 2 * np.cos(k * grid.nodes + phases[k - 1])
               for k in range(1, 5))


# points of the scan behind dn._series_reach: the benchmark profile at
# n = 512 has k_max max|eta| 8.92 at a = 0.03 and 11.90 at a = 0.04, and
# the reach is 12.9, 9.44 and 6.0 at tol 1e-8, 1e-10 and 1e-12
@pytest.mark.parametrize("a, tol, engine", [
    (0.03, 1e-10, dn._Series), (0.04, 1e-10, dn._Sweeper),
    (0.04, 1e-8, dn._Series), (0.03, 1e-12, dn._Sweeper)])
def test_engine_choice_follows_the_series_reach(a, tol, engine):
    grid = PeriodicGrid(512)
    eta = bench_profile(grid, a)
    cfg = DNConfig(tol=tol)
    reach = dn._series_reach(tol)
    inside = grid.k_max * np.max(np.abs(eta)) < reach
    assert inside == (engine is dn._Series)
    for geometries in ((InfiniteDepth(),), (FlatStrip(1.0), FlatStrip(0.5))):
        engines = dn._dn_engines(grid, eta, cfg, geometries)
        assert [type(e) for e in engines] == [engine] * len(geometries)
    # the series converges where it is chosen
    if inside:
        f = np.cos(3.0 * grid.nodes)
        assert dn._series_engine(grid, eta, cfg, FlatStrip(0.5)).solve(f)[1]


def test_engine_choice_keeps_the_lipschitz_gate():
    # at or above either gate the level solver runs, and raises as before
    grid = PeriodicGrid(64)
    eta = 0.05 * np.sin(grid.nodes)
    assert type(dn._dn_engines(grid, eta, DNConfig(),
                               (InfiniteDepth(),))[0]) is dn._Series
    with pytest.raises(NotContracting, match="proxy"):
        dn._dn_engines(grid, eta, DNConfig(lipschitz_gate=0.05),
                       (InfiniteDepth(),))
    big = 0.3 * np.sin(grid.nodes)
    engine, = dn._dn_engines(grid, big, DNConfig(lipschitz_gate=10.0),
                             (InfiniteDepth(),))
    assert type(engine) is dn._Sweeper


@pytest.mark.parametrize("n, a, geometry", [
    # floored points of the scan at tol 1e-10, k_max max|eta| 18.3 and
    # 20.8, whose smallest changes (1.5e-8 and 2.8e-9) clear the tolerance
    # by far, so roundoff that differs between FFT builds cannot make them
    # converge
    (256, 0.12, FlatStrip(0.5)), (512, 0.07, InfiniteDepth())])
def test_series_outside_its_reach_raises(n, a, geometry):
    grid = PeriodicGrid(n)
    x = grid.nodes
    eta = a * (np.sin(x) + 0.25 * np.cos(2 * x + 1)) if n == 256 \
        else bench_profile(grid, a)
    assert grid.k_max * np.max(np.abs(eta)) > dn._series_reach(1e-10)
    series = dn._series_engine(grid, eta, DNConfig(), geometry)
    f = elastic_E(Field(grid, eta)).values + 2.0 * eta
    with pytest.raises(NotContracting, match="DN series"):
        series.converged_gf(f)


def test_series_sums_past_a_vanishing_term():
    # G_1 f = 0 for eta = a cos x, f = cos x, so the sum may not stop at
    # the first small term
    eta = 0.05 * np.cos(X)
    series = dn._series_engine(GRID, eta, DNConfig(), InfiniteDepth())
    changes, converged = series.solve(np.cos(X))
    assert converged and series.sizes[1] < 1e-14 and len(changes) > 2
    tight = dn_fixed_point(Field(GRID, eta), Field(GRID, np.cos(X)),
                           DNConfig(n_levels=256, tol=1e-13)).gf.values
    assert np.max(np.abs(series.gf() - tight)) < 1e-5


def test_series_result_reads_its_last_sum():
    eta, f = PIN["eta"], PIN["f"]
    series = dn._series_engine(GRID128, eta, DNConfig(), FlatStrip(1.0))
    changes, converged = series.solve(f)
    res = series.result(len(changes), converged, changes)
    assert res.converged and res.iterations == len(changes) == series.order
    assert res.tail_bound == 0.0
    assert np.array_equal(res.gf.values, series.gf())
    # G f - remainder = |D| f
    flat = np.fft.irfft(GRID128.rfft_wavenumbers * np.fft.rfft(f), GRID128.n)
    assert np.max(np.abs(res.gf.values - res.remainder.values - flat)) \
        < 1e-12 * np.max(np.abs(flat))


# sin x interfaces of the two engine regions: k_max max|eta| 0.64 at
# n = 64, in the series' reach, and 10.2 at n = 512, past it
REGION_ETAS = ((64, 0.02, dn._Series), (512, 0.04, dn._Sweeper))


def test_upper_engine_is_the_reflected_lower_engine():
    # G^+(eta) = -G^-(-eta): in both regions and geometries the upper
    # engine returns the lower engine on -eta negated, bit for bit, and
    # its flat part is -|D|
    for (n, a, engine), geometry in itertools.product(
            REGION_ETAS, (InfiniteDepth(), FlatStrip(1.0))):
        grid = PeriodicGrid(n)
        x = grid.nodes
        eta = a * np.sin(x)
        f = np.cos(2.0 * x) + 0.5 * np.sin(3.0 * x + 1.0)
        _, upper = dn._dn_engines(grid, eta, DNConfig(),
                                  (InfiniteDepth(), geometry))
        assert type(upper) is engine
        gf = upper.converged_gf(f)
        remainder_hat = upper.remainder_hat()
        reflected, = dn._dn_engines(grid, -eta, DNConfig(), (geometry,))
        assert np.array_equal(gf, -reflected.converged_gf(f))
        # the reflected engine left the upper one's working arrays alone
        assert np.array_equal(upper.gf(), gf)
        assert np.array_equal(remainder_hat, -reflected.remainder_hat())
        flat = np.fft.irfft(np.abs(grid.rfft_wavenumbers) * np.fft.rfft(f), n)
        remainder = np.fft.irfft(remainder_hat, n)
        assert np.max(np.abs(gf - remainder + flat)) \
            < 1e-12 * np.max(np.abs(flat))


# the lockstep pairs: bottomless on both sides, a wall below, a wall above
LOCKSTEP_GEOMETRIES = {
    "bottomless": (InfiniteDepth(), InfiniteDepth()),
    "wall_below": (FlatStrip(1.0), InfiniteDepth()),
    "wall_above": (InfiniteDepth(), FlatStrip(0.5)),
}


def lockstep_pair(geometries):
    """A series engine pair of one interface from _dn_engines, with data
    whose rows stop at different orders, and those data."""
    grid = PeriodicGrid(64)
    x = grid.nodes
    eta = 0.05 * np.sin(x) + 0.02 * np.cos(3.0 * x + 1.0)
    lower, upper = dn._dn_engines(grid, eta, DNConfig(), geometries)
    assert type(lower) is type(upper) is dn._Series
    return grid, eta, lower, upper, (np.cos(x), np.sin(7.0 * x) + 0.5)


@pytest.mark.parametrize("pair", sorted(LOCKSTEP_GEOMETRIES))
def test_lockstep_rows_equal_their_one_row_sums(pair):
    # both rows summed together read G f, the remainder and the changes of
    # each row summed alone, bit for bit: G^-(eta) on eta, G^+(eta) as
    # -G^-(-eta)
    geometries = LOCKSTEP_GEOMETRIES[pair]
    grid, eta, lower, upper, data = lockstep_pair(geometries)
    for engine, f in zip((lower, upper), data):
        engine.set_datum(f)
    changes = [lower.sweep(), upper.sweep()]
    assert lower.order != upper.order
    for engine, f, sign, geometry, change in zip(
            (lower, upper), data, (1.0, -1.0), geometries, changes):
        alone = dn._series_engine(grid, sign * eta, DNConfig(), geometry)
        steps, converged = alone.solve(f)
        assert converged and engine.order == alone.order == len(steps)
        assert change == steps[-1]
        assert np.array_equal(engine.sizes, alone.sizes)
        assert np.array_equal(engine.gf(), sign * alone.gf())
        assert np.array_equal(engine.remainder_hat(),
                              sign * alone.remainder_hat())


def test_a_sweep_with_no_new_datum_sums_nothing(monkeypatch):
    _, _, lower, upper, data = lockstep_pair(LOCKSTEP_GEOMETRIES["bottomless"])
    orders = []
    inner = dn._SeriesSum._next_order

    def next_order(self):
        orders.append((self.going.start, self.going.stop))
        return inner(self)
    monkeypatch.setattr(dn._SeriesSum, "_next_order", next_order)
    lower.set_datum(data[0])
    upper.set_datum(data[1])
    change, gf = lower.sweep(), lower.gf()
    # one joint pass per order, up to the later row's stop
    assert len(orders) == max(lower.order, upper.order)
    assert set(orders) == {(0, 2)}
    upper.sweep()
    assert lower.sweep() == change and np.array_equal(lower.gf(), gf)
    assert len(orders) == max(lower.order, upper.order)
    # a new datum in one row sums that row alone
    upper.set_datum(data[0])
    upper.sweep()
    assert set(orders[-upper.order:]) == {(1, 2)}


def test_a_row_at_its_order_cap_raises_alone(monkeypatch):
    # the lower row needs 9 orders and the upper 2: with a cap of 3 the
    # lower sweep raises and the upper one reads its converged sum
    monkeypatch.setattr(dn, "SERIES_MAX_ORDER", 3)
    _, _, lower, upper, data = lockstep_pair(LOCKSTEP_GEOMETRIES["bottomless"])
    lower.set_datum(data[0])
    upper.set_datum(data[1])
    with pytest.raises(NotContracting,
                       match="DN series not converged after 3 orders"):
        lower.sweep()
    assert upper.sweep() < DNConfig().tol and upper.order == 2


def test_a_series_sum_is_freed_with_its_engines():
    # nothing but its engines holds a sum, so its arrays go with them and
    # do not wait for the cyclic collector
    _, _, lower, upper, data = lockstep_pair(LOCKSTEP_GEOMETRIES["bottomless"])
    lower.converged_gf(data[0])
    lockstep = weakref.ref(lower.lockstep)
    gc.disable()
    try:
        del lower, upper
        assert lockstep() is None
    finally:
        gc.enable()


WARM_GEOMETRIES = {"bottomless": InfiniteDepth(), "strip1": FlatStrip(1.0)}


def warm_rows(name):
    """A lower and an upper series engine of one interface over the
    geometry ``name``, and data that move less and less, as the pressure
    solve's iterates do: changes of 1e-3, 1e-6, 1e-9 and 1e-12 times a
    unit step."""
    geometry = WARM_GEOMETRIES[name]
    grid = PeriodicGrid(64)
    x = grid.nodes
    eta = 0.05 * np.sin(x) + 0.02 * np.cos(3.0 * x + 1.0)
    lower, upper = dn._dn_engines(grid, eta, DNConfig(), (geometry, geometry))
    assert type(lower) is type(upper) is dn._Series
    f = np.cos(x) + 0.3 * np.sin(2.0 * x + 0.5)
    step = np.sin(3.0 * x) - 0.2 * np.cos(x + 1.0)
    data = [f + sum(10.0 ** (-3 * j) for j in range(1, i + 1)) * step
            for i in range(5)]
    return grid, eta, geometry, (lower, upper), data


def sum_rows(engines, f, restart):
    """Set f in both rows and sum them."""
    for engine in engines:
        engine.set_datum(f, restart)
    for engine in engines:
        engine.sweep()


def fresh_sums(grid, eta, geometry, f):
    """G^-(eta) f and G^+(eta) f each summed alone from order 0, with the
    sign of their rows."""
    for sign in (1.0, -1.0):
        fresh = dn._series_engine(grid, sign * eta, DNConfig(), geometry)
        fresh.converged_gf(f)
        yield sign, fresh


@pytest.mark.parametrize("name", sorted(WARM_GEOMETRIES))
def test_warm_rows_stay_within_tolerance_of_full_sums(name):
    # set without restart, a row sums only its datum's change, in fewer
    # orders, and its G f and remainder stay within tol max|G_0 f| of a
    # full sum of the datum
    grid, eta, geometry, engines, data = warm_rows(name)
    absk = np.abs(grid.rfft_wavenumbers)
    g0 = absk * np.tanh(geometry.h * absk) if name == "strip1" else absk
    for i, f in enumerate(data):
        sum_rows(engines, f, restart=i == 0)
        bound = DNConfig().tol * np.max(np.abs(g0 * np.fft.rfft(f)))
        for engine, (sign, fresh) in zip(engines,
                                         fresh_sums(grid, eta, geometry, f)):
            assert np.max(np.abs(engine.gf_hat() - sign * fresh.gf_hat())) \
                < bound
            assert np.max(np.abs(engine.remainder_hat()
                                 - sign * fresh.remainder_hat())) < bound
            assert engine.order == fresh.order if i == 0 \
                else engine.order < fresh.order


@pytest.mark.parametrize("name", sorted(WARM_GEOMETRIES))
def test_a_restart_after_warm_sums_is_a_fresh_sum(name):
    # the upper row restarts beside a warm lower one, then both restart: a
    # restarted row is a fresh sum bit for bit
    grid, eta, geometry, engines, data = warm_rows(name)
    for i, f in enumerate(data):
        sum_rows(engines, f, restart=i == 0)
    f = data[1]
    for restarts in ((False, True), (True, True)):
        for engine, restart in zip(engines, restarts):
            engine.set_datum(f, restart)
        engines[0].sweep()
        for engine, restart, (sign, fresh) in zip(
                engines, restarts, fresh_sums(grid, eta, geometry, f)):
            if not restart:
                assert engine.order < fresh.order
                continue
            assert engine.order == fresh.order
            assert np.array_equal(engine.sizes, fresh.sizes)
            assert np.array_equal(engine.gf(), sign * fresh.gf())
            assert np.array_equal(engine.remainder_hat(),
                                  sign * fresh.remainder_hat())


@pytest.mark.parametrize("name", sorted(WARM_GEOMETRIES))
def test_a_zero_or_constant_change_leaves_gf_bit_equal(name):
    _, _, _, engines, data = warm_rows(name)
    # dyadic node values, so that the spectra of f + 0.25 and f differ in
    # the mean mode alone
    f = np.round(data[0] * 2.0 ** 20) / 2.0 ** 20
    sum_rows(engines, f, restart=True)
    gf = [engine.gf() for engine in engines]
    for g in (f, f + 0.25):
        sum_rows(engines, g, restart=False)
        for engine, before in zip(engines, gf):
            assert engine.order == 1
            assert np.array_equal(engine.gf(), before)


def test_a_level_pair_takes_one_lipschitz_proxy(monkeypatch):
    # _dn_engines hands its proxy to both sweepers, which do not compute it
    calls = []
    inner = dn._lipschitz_norms

    def counted(*args):
        calls.append(1)
        return inner(*args)
    monkeypatch.setattr(dn, "_lipschitz_norms", counted)
    grid = PeriodicGrid(512)
    eta = 0.04 * np.sin(grid.nodes)
    engines = dn._dn_engines(grid, eta, DNConfig(),
                             (FlatStrip(1.0), FlatStrip(1.0)))
    assert [type(e) for e in engines] == [dn._Sweeper] * 2
    assert len(calls) == 1
    # the gate message is today's
    with pytest.raises(NotContracting, match="proxy .* at or above gate 0.01"):
        dn._dn_engines(grid, eta, DNConfig(lipschitz_gate=0.01),
                       (FlatStrip(1.0), FlatStrip(1.0)))


@pytest.mark.parametrize("geometry, seed", [
    # the pinned input keeps the geometry's own id
    *(pytest.param(g, None, id="geometry%d" % i)
      for i, g in enumerate((InfiniteDepth(), FlatStrip(1.0)))),
    *(pytest.param(g, s, id="%s-seed%d" % (type(g).__name__, s))
      for g in (InfiniteDepth(), FlatStrip(1.0)) for s in PROPERTY_SEEDS)])
def test_shift_covariance(geometry, seed):
    eta, f = fixed_or_random(seed, Field(GRID128, PIN["eta"]),
                             Field(GRID128, PIN["f"]))
    gf = dn_fixed_point(eta, f, geometry=geometry).gf.values
    shifted = dn_fixed_point(Field(GRID128, np.roll(eta.values, 5)),
                             Field(GRID128, np.roll(f.values, 5)),
                             geometry=geometry).gf.values
    assert np.max(np.abs(shifted - np.roll(gf, 5))) < 1e-13 * np.max(np.abs(gf))


@pytest.mark.parametrize("geometry", [InfiniteDepth(), FlatStrip(1.0)])
def test_symmetry_defect(geometry):
    # <h, G f> = <f, G h> holds for the exact operator; the discrete defect
    # is second-order discretization error in the levels
    eta, f = Field(GRID128, PIN["eta"]), Field(GRID128, PIN["f"])
    rng = np.random.default_rng(7)
    h = Field(GRID128, np.sin(3 * GRID128.nodes)
              + 0.1 * rng.standard_normal(GRID128.n))
    defects = []
    for levels in (32, 64):
        cfg = DNConfig(n_levels=levels)
        gf = dn_fixed_point(eta, f, cfg, geometry).gf.values
        gh = dn_fixed_point(eta, h, cfg, geometry).gf.values
        defects.append(abs(h.values @ gf - f.values @ gh)
                       / (np.linalg.norm(h.values) * np.linalg.norm(gf)))
    assert defects[1] < 1e-6
    assert defects[0] / defects[1] > 3.0


def test_cache_isolation():
    # grid-constant arrays are shared between solves: alternating grids,
    # geometries and level counts (more keys than the cache holds) must
    # reproduce, bit for bit, the result of the same solve on an empty cache
    cases = [(n, geometry, levels)
             for n in (128, 256)
             for geometry in (FlatStrip(1.0), FlatStrip(2.0), InfiniteDepth())
             for levels in (32, 64)]

    def solve(n, geometry, levels):
        grid = PeriodicGrid(n)
        x = grid.nodes
        eta = Field(grid, 0.03 * np.sin(x) + 0.01 * np.cos(3 * x))
        f = Field(grid, np.cos(2 * x) + 0.1 * np.sin(5 * x))
        return dn_fixed_point(eta, f, DNConfig(n_levels=levels), geometry).gf.values

    fresh = {}
    for case in cases:
        _level_operators.cache_clear()
        fresh[case] = solve(*case)
    for case in cases + cases[::-1] + cases[::2]:
        assert np.array_equal(solve(*case), fresh[case])


# oracle_pin_n32.npz holds eta = 0.05 sin x + 0.02 cos 3x, f = cos x +
# 0.5 cos(2x + 2) and the FD referee's G(eta) f at n = 32.  The referee is
# held to the DN solver only to 1e-3, which would hide a small assembly error;
# test_oracle_solve_matches_sparse_lu holds its solve to a direct LU of the
# assembled stencil below.

ORACLE_PIN = np.load(os.path.join(os.path.dirname(__file__),
                                  "oracle_pin_n32.npz"))


@pytest.mark.parametrize("name, geometry", [("gf_infinite", InfiniteDepth()),
                                            ("gf_strip", FlatStrip(1.0))])
def test_oracle_matches_pinned_output(name, geometry):
    grid = PeriodicGrid(32)
    ref = oracle_dn(Field(grid, ORACLE_PIN["eta"]),
                    Field(grid, ORACLE_PIN["f"]), geometry=geometry)
    assert _rel(ref.values, ORACLE_PIN[name]) < 1e-12


def _assembled_stencil(eta, nx, nz, Z, length):
    """The referee's stencil as a sparse matrix, node (i, j) at unknown
    i * nx + j: the coefficients from eta by the referee's formulas, one COO
    block of (row, column, value) per stencil entry, shifted in z by slicing
    and in x by rolling.  The referee applies the same stencil by array
    shifts; this assembly is the independent check of that."""
    dxs, dz = length / nx, Z / (nz - 1)
    zs = -Z + dz * np.arange(nz)
    ex = (np.roll(eta, -1) - np.roll(eta, 1)) / (2 * dxs)
    exx = (np.roll(eta, -1) - 2 * eta + np.roll(eta, 1)) / dxs ** 2
    J = (Z + eta) / Z
    beta = ex[None, :] * (1.0 + zs[:, None] / Z) / J[None, :]
    beta_z = ex[None, :] / (Z * J[None, :]) * np.ones((nz, 1))
    beta_x = (1.0 + zs[:, None] / Z) * (exx[None, :] * J[None, :]
                                        - ex[None, :] ** 2 / Z) / J[None, :] ** 2
    czz = beta ** 2 + 1.0 / J[None, :] ** 2
    cz = -(beta_x - beta * beta_z)

    node = np.arange(nz * nx).reshape(nz, nx)
    east, west = np.roll(node, -1, axis=1), np.roll(node, 1, axis=1)
    inner = node[1:-1]
    b, czz, cz = beta[1:-1], czz[1:-1], cz[1:-1]
    mixed = 2.0 * b / (4 * dxs * dz)
    blocks = [
        (inner, east[1:-1], 1.0 / dxs ** 2),
        (inner, west[1:-1], 1.0 / dxs ** 2),
        (inner, inner, -2.0 / dxs ** 2),
        (inner, east[2:], -mixed),
        (inner, west[:-2], -mixed),
        (inner, west[2:], mixed),
        (inner, east[:-2], mixed),
        (inner, node[2:], czz / dz ** 2 + cz / (2 * dz)),
        (inner, node[:-2], czz / dz ** 2 - cz / (2 * dz)),
        (inner, inner, -2.0 * czz / dz ** 2),
        (node[0], node[0], -3.0 / (2 * dz)),
        (node[0], node[1], 4.0 / (2 * dz)),
        (node[0], node[2], -1.0 / (2 * dz)),
        (node[-1], node[-1], 1.0),
    ]
    rows = np.concatenate([r.ravel() for r, _, _ in blocks])
    cols = np.concatenate([c.ravel() for _, c, _ in blocks])
    data = np.concatenate([np.broadcast_to(v, r.shape).ravel()
                           for r, _, v in blocks])
    return sp.coo_matrix((data, (rows, cols)), shape=(nz * nx, nz * nx)).tocsr()


def _oracle_system(geometry):
    """The fine system of oracle_dn at n = 32: (eta, nx, nz, Z, length)."""
    nx, length = 64, 2.0 * np.pi
    x = np.arange(nx) * (length / nx)
    eta = 0.05 * np.sin(x) + 0.02 * np.cos(3 * x)
    Z = 2.5 * length if isinstance(geometry, InfiniteDepth) else geometry.h
    return eta, nx, nx + 1, Z, length


@pytest.mark.parametrize("geometry", [InfiniteDepth(), FlatStrip(1.0)])
def test_stencil_apply_matches_assembly(geometry):
    eta, nx, nz, Z, length = _oracle_system(geometry)
    stencil, _, _ = _stencil(eta, nx, nz, Z, length)
    A = _assembled_stencil(eta, nx, nz, Z, length)
    rng = np.random.default_rng(7)
    for _ in range(3):
        v = rng.standard_normal((nz, nx))
        ref = (A @ v.ravel()).reshape(nz, nx)
        assert np.max(np.abs(stencil.apply(v) - ref)) \
            < 1e-13 * np.max(np.abs(ref))


def _dense_robin(A, nx, length):
    # -|D| on the bottom row's nodes, as a dense block of the full matrix
    k = np.abs(2.0 * np.pi * np.fft.fftfreq(nx, d=length / nx))
    D = np.real(np.fft.ifft(k[:, None] * np.fft.fft(np.eye(nx), axis=0),
                            axis=0))
    rows, cols = np.divmod(np.arange(nx * nx), nx)
    return A + sp.coo_matrix((-D.ravel(), (rows, cols)), shape=A.shape)


# measured max gaps relative to max|v|: 2.7e-14 bottomless, 2.1e-12 strip;
# the bounds leave a factor 10
@pytest.mark.parametrize("geometry, bound", [(InfiniteDepth(), 3e-13),
                                             (FlatStrip(1.0), 2e-11)])
def test_oracle_solve_matches_sparse_lu(geometry, bound):
    # the fine system of oracle_dn at n = 32, solved by a direct LU of the
    # assembled stencil with the Robin |D| as dense rows
    eta, nx, nz, Z, length = _oracle_system(geometry)
    dxs = length / nx
    x = np.arange(nx) * dxs
    robin = isinstance(geometry, InfiniteDepth)
    stencil, _, _ = _stencil(eta, nx, nz, Z, length)
    A = _assembled_stencil(eta, nx, nz, Z, length)
    rhs = np.zeros(nz * nx)
    rhs[-nx:] = np.cos(x) + 0.5 * np.cos(2 * x + 2)
    k = 2.0 * np.pi * np.fft.rfftfreq(nx, d=dxs)
    v = _defect_correction(stencil, rhs, nx, nz, Z / (nz - 1), dxs,
                           k if robin else np.zeros_like(k)).ravel()
    direct = spla.spsolve((_dense_robin(A, nx, length) if robin
                           else A).tocsc(), rhs)
    assert np.max(np.abs(v - direct)) < bound * np.max(np.abs(direct))


def _flat_matrix(nx, nz, dz, dxs, bottom_k):
    """The eta = 0 stencil as a sparse matrix, one banded z-system per rfft
    mode q at unknowns q * nz ... q * nz + nz - 1, bottom to top, with the
    one-sided d_z minus bottom_k[q] in full on the bottom row."""
    nm = nx // 2 + 1
    lam = (4.0 / dxs ** 2) * np.sin(np.pi * np.arange(nm) / nx) ** 2
    node = np.arange(nm * nz).reshape(nm, nz)
    inner = node[:, 1:-1]
    blocks = [
        (inner, node[:, :-2], 1.0 / dz ** 2),
        (inner, node[:, 2:], 1.0 / dz ** 2),
        (inner, inner, -2.0 / dz ** 2 - lam[:, None]),
        (node[:, 0], node[:, 0], -3.0 / (2 * dz) - bottom_k),
        (node[:, 0], node[:, 1], 4.0 / (2 * dz)),
        (node[:, 0], node[:, 2], -1.0 / (2 * dz)),
        (node[:, -1], node[:, -1], 1.0),
    ]
    rows = np.concatenate([r.ravel() for r, _, _ in blocks])
    cols = np.concatenate([c.ravel() for _, c, _ in blocks])
    data = np.concatenate([np.broadcast_to(v, r.shape).ravel()
                           for r, _, v in blocks])
    return sp.coo_matrix((data, (rows, cols)),
                         shape=(nm * nz, nm * nz)).tocsc()


# measured max gaps relative to max|s|: 7.3e-15 (nx 32) and 7.5e-13 (nx 256)
# with the Robin row, 1.7e-14 and 1.0e-12 with the Neumann row, the rounding
# of z-systems whose condition grows as nz^2; the bounds leave a factor 10
@pytest.mark.parametrize("nx, bound", [(32, 2e-13), (256, 1e-11)])
@pytest.mark.parametrize("robin", [True, False])
def test_flat_solve_matches_sparse_lu(nx, bound, robin):
    # the referee's flat solve, on its (nz, nx // 2 + 1) rfft layout, against
    # a direct LU of the same z-systems in mode-major order
    length = 2.0 * np.pi
    Z = 2.5 * length if robin else 1.0
    nz, dxs = nx + 1, length / nx
    dz = Z / (nz - 1)
    k = 2.0 * np.pi * np.fft.rfftfreq(nx, d=dxs)
    bottom_k = k if robin else np.zeros_like(k)
    rng = np.random.default_rng(nx)
    r = rng.standard_normal((nz, k.size)) + 1j * rng.standard_normal(
        (nz, k.size))
    s = _flat_solver(nx, nz, dz, dxs, bottom_k)(r.copy())
    direct = spla.spsolve(_flat_matrix(nx, nz, dz, dxs, bottom_k),
                          r.T.ravel()).reshape(k.size, nz).T
    assert np.max(np.abs(s - direct)) < bound * np.max(np.abs(direct))


def test_verify_suite_refuses_an_unconverged_solve(monkeypatch):
    # a report row is never read off a DN solve that stopped at its cap
    monkeypatch.setattr(dn, "MAX_ITER", 2)
    with pytest.raises(NotContracting, match="DN solve not converged"):
        SUITES["dn"]()


def test_oracle_raises_when_not_converged(monkeypatch):
    monkeypatch.setattr("elastic_muskat.dn_oracle.MAX_ITER", 1)
    with pytest.raises(NotContracting):
        oracle_dn(Field(GRID, 0.05 * np.sin(X)), Field(GRID, np.cos(X)))


# --- the doubling scans against the sequential recurrences -----------------


def _loop_upward_w(ops, rho_hat):
    # w_{i+1} = e^{-d_i |k|} w_i + panel_i, one level at a time
    decay = np.exp(-np.multiply.outer(np.diff(ops.levels), ops.absk))
    panel = ops.cd * rho_hat[:-1] + ops.c0 * rho_hat[1:]
    w = np.zeros_like(rho_hat)
    for i in range(len(panel)):
        w[i + 1] = decay[i] * w[i] + panel[i]
    return w


def _loop_downward_K(ops, src_hat):
    # K_i = e^{-d_i |k|} K_{i+1} - panel_i, from the top level down
    decay = np.exp(-np.multiply.outer(np.diff(ops.levels), ops.absk))
    panel = ops.c0 * src_hat[:-1] + ops.cd * src_hat[1:]
    K = np.zeros_like(src_hat)
    for i in range(len(panel) - 1, -1, -1):
        K[i] = decay[i] * K[i + 1] - panel[i]
    return K


@pytest.mark.parametrize("n", [128, 256, 512])
@pytest.mark.parametrize("geometry", [InfiniteDepth(), FlatStrip(1.0)])
def test_scans_match_sequential_recurrences(n, geometry):
    grid = PeriodicGrid(n)
    ops = _level_operators(grid, geometry, DNConfig().n_levels)
    rng = np.random.default_rng(n)
    shape = (DNConfig().n_levels, n // 2 + 1)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for scan, loop in ((ops.upward_w, _loop_upward_w),
                       (ops.downward_K, _loop_downward_K)):
        ref = loop(ops, data)
        out = scan(data, np.empty_like(data), np.empty_like(data))
        assert np.max(np.abs(out - ref)) < 1e-14 * np.max(np.abs(ref))


def test_stride_decays_are_read_only():
    ops = _level_operators(GRID128, InfiniteDepth(), DNConfig().n_levels)
    assert ops.strides == (1, 2, 4, 8, 16, 32)
    for s, decay in zip(ops.strides, ops.stride_decay):
        assert decay.shape == (DNConfig().n_levels - s, GRID128.n // 2 + 1)
        assert not decay.flags.writeable


# --- the reused working arrays ------------------------------------------------


def _problem(n, shift=0):
    grid = PeriodicGrid(n)
    x = grid.nodes
    eta = Field(grid, 0.03 * np.sin(x + shift) + 0.01 * np.cos(3 * x))
    f = Field(grid, np.cos(2 * x) + 0.1 * np.sin(5 * x + shift))
    return eta, f


@pytest.mark.parametrize("n, geometry", [(128, InfiniteDepth()),
                                         (512, FlatStrip(1.0))])
def test_warm_solve_allocates_no_level_arrays(n, geometry):
    # a solve's (levels, n//2 + 1) arrays are kept and reused, so once they
    # exist a solve allocates less than three of them
    eta, f = _problem(n)
    dn_fixed_point(eta, f, geometry=geometry)
    tracemalloc.start()
    try:
        dn_fixed_point(eta, f, geometry=geometry)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    level_array = DNConfig().n_levels * (n // 2 + 1) * 16
    assert peak < 3 * level_array


def _solve(n, geometry, shift=0):
    eta, f = _problem(n, shift)
    return dn_fixed_point(eta, f, geometry=geometry)


def _same(a, b):
    return (np.array_equal(a.gf.values, b.gf.values)
            and np.array_equal(a.remainder.values, b.remainder.values)
            and a.residuals == b.residuals and a.iterations == b.iterations)


def test_interleaved_shapes_match_solves_alone():
    cases = [(64, InfiniteDepth()), (128, FlatStrip(1.0))]
    alone = {case: _solve(*case) for case in cases}
    for case in cases * 2 + cases[::-1]:
        assert _same(_solve(*case), alone[case])


def test_results_survive_later_solves():
    # nothing a result holds may be a view of the reused arrays
    for geometry in (InfiniteDepth(), FlatStrip(1.0)):
        res = _solve(64, geometry)
        kept = (res.gf.values.copy(), res.remainder.values.copy(),
                list(res.residuals))
        for shift in (1, 2):
            _solve(64, geometry, shift)
            dn_upper(*_problem(64, shift), geometry=geometry)
        assert np.array_equal(res.gf.values, kept[0])
        assert np.array_equal(res.remainder.values, kept[1])
        assert res.residuals == kept[2]


def test_threads_solve_on_their_own_arrays():
    # more threads than cores solve different data of one shape at once,
    # switching often; each must get the result of its data solved alone
    jobs = [(128, InfiniteDepth(), shift) for shift in range(4)]
    serial = [_solve(*job) for job in jobs]
    results = [[] for _ in jobs]
    start = threading.Barrier(len(jobs), timeout=30)

    def run(i):
        start.wait()
        for _ in range(3):
            results[i].append(_solve(*jobs[i]))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for expected, got in zip(serial, results):
        assert len(got) == 3
        assert all(_same(res, expected) for res in got)
