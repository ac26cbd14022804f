from dataclasses import replace

import numpy as np
import pytest

from elastic_muskat import dn, evolution, pressure
from elastic_muskat.dn import DNConfig, dn_fixed_point, dn_geometries
from elastic_muskat.elastic import elastic_E
from elastic_muskat.errors import NotContracting
from elastic_muskat.evolution import SolveConfig, rhs, solve
from elastic_muskat.grid import Field, PeriodicGrid, mean
from elastic_muskat.params import Geometry, PhysicalParams
from elastic_muskat.pressure import pressure_fixed_point, pressure_oracle

from helpers import (DN_CAPS, count_real_transforms, engine_solve,
                     inv_abs_d, regions)


def two_phase_params(g=0.0, rho_plus=0.5, geometry=Geometry()):
    return PhysicalParams(sigma=1.0, g=g, mu_minus=1.0, mu_plus=1.5,
                          rho_minus=1.0, rho_plus=rho_plus, phase="two",
                          geometry=geometry)


DN48 = DNConfig(n_levels=48)


def pressure_jump(eta, params):
    """sigma E(eta) + g (rho^- - rho^+) eta."""
    return Field(eta.grid, elastic_E(eta).values * params.sigma
                 + eta.values * (params.g * params.delta_rho))


def test_flat_interface_pressures_vanish():
    grid = PeriodicGrid(64)
    eta = Field(grid, np.zeros(grid.n))
    pair = pressure_fixed_point(eta, two_phase_params(), dn_cfg=DN48)
    assert np.max(np.abs(pair.f_minus.values)) < 1e-13
    assert np.max(np.abs(pair.f_plus.values)) < 1e-13


def test_single_mode_leading_order():
    # for eta = a cos x the jump is sigma E + g drho eta ~ (1 + g drho) a cos x
    # at leading order, and f^- carries the mu^- share of it
    grid = PeriodicGrid(128)
    a = 1e-4
    eta = Field(grid, a * np.cos(grid.nodes))
    params = two_phase_params()
    pair = pressure_fixed_point(eta, params, dn_cfg=DN48)
    share = params.mu_minus / (params.mu_minus + params.mu_plus)
    expected = share * params.sigma * a * np.cos(grid.nodes)
    assert np.max(np.abs(pair.f_minus.values - expected)) < 20 * a * a


def test_fixed_point_matches_oracle():
    # on the series; past its reach (n >= 268 under the pressure gate) the
    # roundoff of E(eta), amplified by k^4, already sits near 1e-7 in f^-
    # at n = 512, which the referee's 16 modes do not carry
    eta = wall_eta()
    params = two_phase_params(g=1.0)
    pair = pressure_fixed_point(eta, params, dn_cfg=DN48)
    ref = pressure_oracle(eta, params, n_modes=16, dn_cfg=DN48)
    diff = np.max(np.abs(pair.f_minus.values - ref.f_minus.values))
    scale = max(np.max(np.abs(ref.f_minus.values)), 1e-300)
    assert diff / scale < 1e-8


def test_jump_condition_and_flux_residuals():
    grid = PeriodicGrid(128)
    eta = Field(grid, 0.03 * np.cos(grid.nodes))
    pair = pressure_fixed_point(eta, two_phase_params(), dn_cfg=DN48)
    assert pair.jump_residual < 1e-14
    assert pair.flux_residual < 1e-10
    rep = pair.report()
    assert set(rep) == {"jump_residual", "flux_residual", "iterations"}


def test_gauge_zero_mean():
    grid = PeriodicGrid(64)
    eta = Field(grid, 0.02 * np.sin(grid.nodes))
    pair = pressure_fixed_point(eta, two_phase_params(), dn_cfg=DN48)
    assert abs(mean(pair.f_minus)) < 1e-15


def test_smallness_gate_raises():
    grid = PeriodicGrid(64)
    eta = Field(grid, 0.5 * np.cos(grid.nodes))
    with pytest.raises(NotContracting):
        pressure_fixed_point(eta, two_phase_params(), dn_cfg=DN48)


def test_iteration_cap_raises(monkeypatch):
    # an unconverged joint iteration says so, the velocity raises rather
    # than falling back to another method, and a run ends with what it
    # has; the joint sweeps run on the level solver, past the series' reach
    eta = engine_eta("level")
    monkeypatch.setattr(pressure, "MAX_ITER", 1)
    with pytest.raises(NotContracting):
        pressure_fixed_point(eta, two_phase_params(), dn_cfg=DN48)
    cfg = SolveConfig(dn=DN48)
    with pytest.raises(NotContracting, match="pressure iteration"):
        rhs(eta, two_phase_params(), cfg)
    traj = solve(eta, 0.1, 0.05, two_phase_params(), cfg)
    assert traj.abort_reason.startswith("NotContracting")
    assert traj.states == [eta]


@pytest.mark.parametrize("n_modes", [0, -1, 32, 40, 8.0, True])
def test_oracle_rejects_a_basis_the_grid_cannot_carry(n_modes):
    # sin((n/2) x) vanishes on the n nodes, and n_modes < 1 left the system
    # without a basis: an input error, not a contraction failure
    grid = PeriodicGrid(64)
    eta = Field(grid, 0.02 * np.sin(grid.nodes))
    with pytest.raises(ValueError, match="n_modes"):
        pressure_oracle(eta, two_phase_params(), n_modes=n_modes,
                        dn_cfg=DN48)


def test_oracle_takes_the_largest_basis_the_grid_carries():
    grid = PeriodicGrid(32)
    eta = Field(grid, 0.02 * np.sin(grid.nodes))
    ref = pressure_oracle(eta, two_phase_params(), n_modes=15, dn_cfg=DN48)
    assert ref.flux_residual < 1e-10


def test_one_phase_rejected():
    grid = PeriodicGrid(64)
    eta = Field(grid, np.zeros(grid.n))
    with pytest.raises(ValueError):
        pressure_fixed_point(eta, PhysicalParams(), dn_cfg=DN48)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_mode_sweep_amplitude_bound(k):
    # |f^-| stays O(sigma k^4 a) for small single-mode interfaces
    grid = PeriodicGrid(128)
    a = 1e-3 / k ** 4
    eta = Field(grid, a * np.cos(k * grid.nodes))
    params = two_phase_params()
    pair = pressure_fixed_point(eta, params, dn_cfg=DN48)
    bound = 2.0 * params.sigma * k ** 4 * a
    assert np.max(np.abs(pair.f_minus.values)) < bound


def test_jump_field_composition():
    grid = PeriodicGrid(64)
    a = 1e-5
    eta = Field(grid, a * np.cos(grid.nodes))
    params = two_phase_params(g=2.0)
    jump = pressure_jump(eta, params)
    # leading order sigma k^4 + g drho at k = 1
    expected = (params.sigma + params.g * params.delta_rho) * a \
        * np.cos(grid.nodes)
    assert np.max(np.abs(jump.values - expected)) < 1e-12


def test_two_phase_velocity_reuses_pressure_solve(monkeypatch):
    # the pressure solve reads G^- f^- off its own series pass, so a
    # two-phase velocity makes no public DN solve and takes no engines of
    # its own
    grid = PeriodicGrid(128)
    eta = Field(grid, 0.02 * np.cos(grid.nodes)
                + 0.01 * np.sin(2.0 * grid.nodes))
    params = PhysicalParams(sigma=1.0, g=1.0, mu_minus=1.0, mu_plus=1.0,
                            rho_minus=2.0, rho_plus=1.0, phase="two")
    cfg = SolveConfig()
    pair = pressure_fixed_point(eta, params, cfg.dn)
    assert pair.iterations == DEGREES
    expected = pair.g_minus * (-1.0 / params.mu_minus)

    calls = []

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((dn, "dn_fixed_point"), (dn, "dn_upper"),
                         (evolution, "_dn_engines")):
        counted(module, name)
    velocity = rhs(eta, params, cfg)
    assert calls == []
    assert np.array_equal(velocity.values, expected.values)


# sin x interfaces of the two engines: k_max max|eta| 0.64 at n = 64, in
# the series' reach, and 10.2 at n = 512, past it
ENGINE_ETAS = {"series": (64, 0.02), "level": (512, 0.04)}


def engine_eta(region):
    n, a = ENGINE_ETAS[region]
    grid = PeriodicGrid(n)
    return Field(grid, a * np.sin(grid.nodes))


@pytest.mark.parametrize("region, solver", regions(
    "level", [("pressure_oracle", (pressure_oracle,))]))
def test_unconverged_dn_solve_raises(region, solver, monkeypatch):
    eta = engine_eta(region)
    cap, message = DN_CAPS[region]
    monkeypatch.setattr(dn, cap, 2)
    with pytest.raises(NotContracting, match=message):
        solver(eta, two_phase_params(), dn_cfg=DN48)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_fluxes_are_never_read_off_an_unconverged_sweep(side, monkeypatch):
    # on the level solver each engine takes its datum and is swept once per
    # joint sweep, the first datum with restart, and never after the last;
    # a last joint sweep whose lower or upper DN change is not below the DN
    # tolerance is followed by one more, and the pair is read off that one
    eta = engine_eta("level")
    engine = dn._Sweeper
    data, sweeps, spoiled = [], [], [None]
    inner_set_datum, inner_sweep = engine.set_datum, engine.sweep

    def set_datum(self, f, restart=True):
        data.append((self, restart))
        inner_set_datum(self, f, restart)

    def sweep(self):
        sweeps.append(self)
        change = inner_sweep(self)
        return 1.0 if len(sweeps) == spoiled[0] else change
    monkeypatch.setattr(engine, "set_datum", set_datum)
    monkeypatch.setattr(engine, "sweep", sweep)
    ref = pressure_fixed_point(eta, two_phase_params(), dn_cfg=DN48)
    lower, upper = sweeps[:2]
    assert lower is not upper
    assert sweeps == [lower, upper] * ref.iterations
    assert data == [(lower, True), (upper, True)] \
        + [(lower, False), (upper, False)] * (ref.iterations - 1)

    # the lower or the upper sweep of the last joint sweep
    spoiled[0] = 2 * ref.iterations - (1 if side == "lower" else 0)
    sweeps.clear()
    pair = pressure_fixed_point(eta, two_phase_params(), dn_cfg=DN48)
    assert pair.iterations == ref.iterations + 1
    assert len(sweeps) == 2 * pair.iterations
    diff = np.max(np.abs(pair.f_minus.values - ref.f_minus.values))
    assert diff / np.max(np.abs(ref.f_minus.values)) < 1e-12


def test_series_pressure_raises_at_its_order_cap(monkeypatch):
    # the degree series at its order cap raises and names itself, the
    # velocity raises with it, and a run ends with what it has
    eta = wall_eta("series")
    monkeypatch.setattr(dn, "SERIES_MAX_ORDER", 2)
    params = two_phase_params(g=1.0)
    message = "pressure series not converged after 2 degrees"
    with pytest.raises(NotContracting, match=message):
        pressure_fixed_point(eta, params, dn_cfg=DN48)
    with pytest.raises(NotContracting, match=message):
        rhs(eta, params, SolveConfig(dn=DN48))
    traj = solve(eta, 0.1, 0.05, params, SolveConfig(dn=DN48))
    assert traj.abort_reason.startswith("NotContracting")
    assert traj.states == [eta]


def test_series_pressure_raises_when_its_degrees_stall():
    # past its reach the degree series floors: its changes stop shrinking
    # and it raises from its patience before the order cap (n = 1024,
    # k_max max|eta| = 30.7, changes floored near 30 to 90 tolerances)
    grid = PeriodicGrid(1024)
    eta = Field(grid, 0.06 * np.sin(grid.nodes))
    params = two_phase_params(g=1.0)
    lockstep = dn._SeriesSum(grid, eta.values, DNConfig(),
                             dn_geometries(params))
    with pytest.raises(NotContracting,
                       match="pressure series changes non-decreasing"):
        lockstep.pressure(pressure._jump_values(eta, params),
                          params.mu_minus, params.mu_plus, pressure.TOL)
    assert lockstep.order < dn.SERIES_MAX_ORDER


# --- the joint fixed point against full solves of every iterate ------------

WALLS = {
    "bottomless": Geometry(),
    "flat_bottom": Geometry("flat_bottom", h_minus=1.0),
    "flat_top": Geometry("flat_top", h_plus=1.0),
    "both_walls": Geometry("flat_bottom", h_minus=1.0, h_plus=1.0),
}


def wall_eta(region="series"):
    """The walled tests' interface, at n = 128 in the series' reach
    (k_max max|eta| 1.8), or 1.5 times larger at n = 512 past it (10.0),
    where the pressure solve sweeps the level solver."""
    n, scale = {"series": (128, 1.0), "level": (512, 1.5)}[region]
    grid = PeriodicGrid(n)
    return Field(grid, scale * (0.02 * np.cos(grid.nodes)
                                + 0.01 * np.sin(2.0 * grid.nodes)))


REGIONS = {"series": dn._Series, "level": dn._Sweeper}
# degrees of the bottomless g = 1, mu^+ = mu^- = 1 solve on wall_eta()
DEGREES = 9


@pytest.mark.parametrize("wall", sorted(WALLS))
def test_each_pressure_solve_is_one_series_pass(wall, monkeypatch):
    # on the series the pressure solve makes one pass of the degree series
    # and no DN sweep or sum; a degree costs one rfft and one irfft
    calls = []

    def counted(cls, name):
        inner = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)
    for cls, name in ((dn._SeriesSum, "sweep"), (dn._SeriesSum, "_next_order"),
                      (dn._Series, "sweep"), (dn._Sweeper, "sweep")):
        counted(cls, name)
    passes = []
    inner = dn._SeriesSum.pressure

    def pressure_pass(self, *args):
        calls.append("pressure")
        with monkeypatch.context() as patch:
            transforms = count_real_transforms(patch)
            result = inner(self, *args)
        passes.append(transforms)
        return result
    monkeypatch.setattr(dn._SeriesSum, "pressure", pressure_pass)
    params = PhysicalParams(sigma=1.0, g=1.0, mu_minus=1.0, mu_plus=1.0,
                            rho_minus=2.0, rho_plus=1.0, phase="two",
                            geometry=WALLS[wall])
    pair = pressure_fixed_point(wall_eta(), params)
    assert calls == ["pressure"]
    if wall == "bottomless":
        assert pair.iterations == DEGREES
    # the jump and degree 0, each later degree, and the sums
    assert passes == [["rfft", "irfft"] * (1 + pair.iterations) + ["irfft"]]


@pytest.mark.parametrize("region", sorted(REGIONS))
def test_each_region_takes_its_engine(region):
    for eta in (wall_eta(region), engine_eta(region)):
        lower, upper = dn._dn_engines(eta.grid, eta.values, DN48,
                                      (dn.InfiniteDepth(), dn.FlatStrip(1.0)))
        assert type(lower) is type(upper) is REGIONS[region]


def full_solve_fixed_point(eta, params, dn_cfg):
    """f^- by Picard iteration with full DN solves on phi every sweep: the
    forcing from G^+ eta and G^+ E(eta), R^+- applied to the whole iterate,
    and both fluxes solved afresh, each on the engine that the pressure
    solve gets for eta.  (f^-, iterations, sweeps or orders of the solves)."""
    lower, upper = dn_geometries(params)
    mu_sum = params.mu_plus + params.mu_minus
    grav = params.g * params.delta_rho
    sweeps = [0]

    def solve(f, geometry, side_upper):
        gf, remainder, count = engine_solve(eta, f, dn_cfg, geometry,
                                            side_upper)
        sweeps[0] += count
        return gf, remainder

    g_eta = solve(eta, upper, True)[0]
    g_el = solve(elastic_E(eta), upper, True)[0]
    u0 = inv_abs_d(g_eta) * (-grav * params.mu_minus / mu_sum) \
        + inv_abs_d(g_el) * (-params.sigma * params.mu_minus / mu_sum)
    phi = u0
    scale = max(np.max(np.abs(u0.values)), 1e-300)
    for iters in range(1, pressure.MAX_ITER + 1):
        r_plus = solve(phi, upper, True)[1]
        r_minus = solve(phi, lower, False)[1]
        phi_new = u0 + inv_abs_d(r_plus) * (params.mu_minus / mu_sum) \
            - inv_abs_d(r_minus) * (params.mu_plus / mu_sum)
        res = float(np.max(np.abs(phi_new.values - phi.values)) / scale)
        phi = phi_new
        if res < pressure.TOL:
            break
    f_minus = Field(phi.grid, phi.values - mean(phi))
    solve(f_minus, lower, False)
    solve(f_minus - pressure_jump(eta, params), upper, True)
    return f_minus, iters, sweeps[0]


@pytest.fixture
def public_solves(monkeypatch):
    """Public DN solves, counted while the test runs."""
    count = [0]
    inner = dn.dn_fixed_point

    def counted(*args, **kwargs):
        count[0] += 1
        return inner(*args, **kwargs)
    # dn_upper reaches dn.dn_fixed_point
    monkeypatch.setattr(dn, "dn_fixed_point", counted)
    return count


@pytest.mark.parametrize("region, wall, g", regions(
    "series", [("%s-%s" % (wall, g), (wall, g))
               for wall in sorted(WALLS) for g in (0.0, 1.0)]))
def test_increment_solves_match_full_solves(region, wall, g, public_solves):
    eta = wall_eta(region)
    params = two_phase_params(g=g, geometry=WALLS[wall])
    ref, ref_iterations, ref_sweeps = full_solve_fixed_point(eta, params,
                                                             DN48)
    pair = pressure_fixed_point(eta, params, dn_cfg=DN48)
    diff = np.max(np.abs(pair.f_minus.values - ref.values))
    assert diff / np.max(np.abs(ref.values)) < 1e-10
    assert public_solves[0] == 0
    if region == "level":
        # one lower and one upper sweep per joint sweep and none after:
        # far fewer than full solves of the iterate (at most 0.21 of them
        # measured, in the bottomless cases)
        assert 2 * pair.iterations <= 0.3 * ref_sweeps
    else:
        # the degree series meets flux continuity exactly at every degree
        # it sums (measured within 2.4e-13 of the full solves here)
        assert diff / np.max(np.abs(ref.values)) < 1e-11


# the degree series' cases: viscosities and walls, each side at its depth
SERIES_CASES = {
    "bottomless_equal_mu": (1.0, Geometry()),
    "bottomless": (1.5, Geometry()),
    "flat_bottom_h1": (1.5, Geometry("flat_bottom", h_minus=1.0)),
    "flat_top_h0.5": (1.5, Geometry("flat_top", h_plus=0.5)),
    "both_walls_h0.25": (1.5, Geometry("flat_bottom", h_minus=0.25,
                                       h_plus=0.25)),
}


@pytest.mark.parametrize("case", sorted(SERIES_CASES))
def test_degree_series_matches_full_solves_and_oracle(case):
    # f^- and G^- f^- against the Picard iteration with full DN solves on
    # the same series engines (measured within 3.8e-13), f^- against the
    # dense referee (measured within 3.4e-9, the referee's own roundoff),
    # and the fluxes matched to roundoff.  Between walls at h = 0.25 the
    # |D| split of the full solves does not contract, so there the
    # referee alone is the reference (2.9e-10)
    mu_plus, geometry = SERIES_CASES[case]
    eta = wall_eta()
    params = replace(two_phase_params(g=1.0, geometry=geometry),
                     mu_plus=mu_plus)
    cfg = DNConfig()
    pair = pressure_fixed_point(eta, params, dn_cfg=cfg)
    assert pair.flux_residual < 1e-14

    def gap(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))
    ref = pressure_oracle(eta, params, dn_cfg=cfg)
    assert gap(pair.f_minus.values, ref.f_minus.values) < 1e-8
    full, iterations, _ = full_solve_fixed_point(eta, params, cfg)
    if case == "both_walls_h0.25":
        assert iterations == pressure.MAX_ITER
        return
    lower, _ = dn_geometries(params)
    assert gap(pair.f_minus.values, full.values) < 1e-11
    assert gap(pair.g_minus.values,
               engine_solve(eta, full, cfg, lower)[0].values) < 1e-11


@pytest.mark.parametrize("region, wall", regions(
    "series", [(wall, (wall,)) for wall in sorted(WALLS)]))
def test_upper_flux_matches_a_fresh_solve(region, wall):
    # G^+ f^+ comes off the series pass, or the last joint sweep's upper
    # sweep on the level solver, not from a solve
    eta = wall_eta(region)
    params = two_phase_params(g=1.0, geometry=WALLS[wall])
    pair = pressure_fixed_point(eta, params, dn_cfg=DN48)
    _, upper = dn_geometries(params)
    fresh = engine_solve(eta, pair.f_plus, DN48, upper, upper=True)[0]
    diff = np.max(np.abs(pair.g_plus.values - fresh.values))
    assert diff / np.max(np.abs(fresh.values)) < 1e-10
    assert pair.flux_residual < 1e-10


@pytest.mark.parametrize("region, wall", regions(
    "series", [(wall, (wall,)) for wall in sorted(WALLS)]))
def test_lower_flux_matches_a_fresh_solve(region, wall):
    # G^- f^- comes off the series pass, or the last joint sweep's lower
    # sweep on the level solver, not from a solve
    eta = wall_eta(region)
    params = two_phase_params(g=1.0, geometry=WALLS[wall])
    pair = pressure_fixed_point(eta, params, dn_cfg=DN48)
    lower, _ = dn_geometries(params)
    fresh = engine_solve(eta, pair.f_minus, DN48, lower)[0]
    diff = np.max(np.abs(pair.g_minus.values - fresh.values))
    assert diff / np.max(np.abs(fresh.values)) < 1e-10


@pytest.mark.parametrize("region, wall", regions(
    "level", [(wall, (wall,)) for wall in ("bottomless", "both_walls")]))
def test_pressure_solve_leaves_dn_solves_unchanged(region, wall):
    # the joint sweeps keep their upper iterate in a working-array slot of
    # its own; a DN solve before and after a pressure solve, and a pressure
    # solve before and after a DN solve, give bit-equal results
    eta = wall_eta(region)
    params = two_phase_params(g=1.0, geometry=WALLS[wall])
    lower, _ = dn_geometries(params)
    f = Field(eta.grid, np.cos(2.0 * eta.grid.nodes))
    first = dn_fixed_point(eta, f, DN48, lower)
    pair = pressure_fixed_point(eta, params, dn_cfg=DN48)
    second = dn_fixed_point(eta, f, DN48, lower)
    again = pressure_fixed_point(eta, params, dn_cfg=DN48)
    assert np.array_equal(first.gf.values, second.gf.values)
    assert np.array_equal(first.remainder.values, second.remainder.values)
    assert first.residuals == second.residuals
    for name in ("f_minus", "g_minus", "g_plus"):
        assert np.array_equal(getattr(pair, name).values,
                              getattr(again, name).values)


# --- the dense referee against public solves ---------------------------------


def public_solve_oracle(eta, params, n_modes, dn_cfg):
    """pressure_oracle's dense system with every column, the jump and both
    fluxes from fresh solves on the engine that the referee gets for eta:
    (f^-, G^- f^-, G^+ f^+)."""
    grid = eta.grid
    lower, upper = dn_geometries(params)
    basis = [np.ones(grid.n)]
    for k in range(1, n_modes + 1):
        basis.append(np.cos(k * 2.0 * np.pi / grid.length * grid.nodes))
        basis.append(np.sin(k * 2.0 * np.pi / grid.length * grid.nodes))
    Gm = np.zeros((grid.n, len(basis)))
    Gp = np.zeros((grid.n, len(basis)))
    for j, b in enumerate(basis):
        bf = Field(grid, b)
        Gm[:, j] = engine_solve(eta, bf, dn_cfg, lower)[0].values
        Gp[:, j] = engine_solve(eta, bf, dn_cfg, upper, upper=True)[0].values
    jump = pressure_jump(eta, params)
    inv_mu_p, inv_mu_m = 1.0 / params.mu_plus, 1.0 / params.mu_minus
    A = np.vstack([inv_mu_p * Gp - inv_mu_m * Gm, np.eye(1, len(basis))])
    rhs = np.concatenate([inv_mu_p * engine_solve(
        eta, jump, dn_cfg, upper, upper=True)[0].values, [0.0]])
    coef = np.linalg.lstsq(A, rhs, rcond=None)[0]
    fm_vals = np.stack(basis, axis=1) @ coef
    f_minus = Field(grid, fm_vals - np.mean(fm_vals))
    return (f_minus, engine_solve(eta, f_minus, dn_cfg, lower)[0],
            engine_solve(eta, f_minus - jump, dn_cfg, upper, upper=True)[0])


@pytest.mark.parametrize("region, wall", regions(
    "level", [(wall, (wall,)) for wall in sorted(WALLS)]))
def test_oracle_matches_public_solves(region, wall, monkeypatch):
    # the referee runs every solve on one lower and one upper engine; its
    # columns are fresh solves' bit for bit, so its answer is too
    eta = wall_eta(region)
    params = two_phase_params(g=1.0, geometry=WALLS[wall])
    expected = public_solve_oracle(eta, params, 8, DN48)

    made, public = [], []
    engine = REGIONS[region]
    init = engine.__init__

    def counted_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(engine, "__init__", counted_init)

    def counted(name):
        inner = getattr(dn, name)

        def wrapper(*args, **kwargs):
            public.append(name)
            return inner(*args, **kwargs)
        monkeypatch.setattr(dn, name, wrapper)
    counted("dn_fixed_point")
    counted("dn_upper")

    ref = pressure_oracle(eta, params, n_modes=8, dn_cfg=DN48)
    assert len(made) == 2
    assert public == []
    for got, want in zip((ref.f_minus, ref.g_minus, ref.g_plus), expected):
        assert np.array_equal(got.values, want.values)
