import numpy as np
import pytest

from elastic_muskat import dn, evolution, pressure
from elastic_muskat.dn import DNConfig, dn_fixed_point, dn_geometries
from elastic_muskat.elastic import elastic_E
from elastic_muskat.errors import NotContracting
from elastic_muskat.evolution import SolveConfig, rhs
from elastic_muskat.grid import Field, PeriodicGrid, inv_abs_d, mean
from elastic_muskat.params import Geometry, PhysicalParams
from elastic_muskat.pressure import (PressureConfig, pressure_fixed_point,
                                     pressure_jump, pressure_oracle)


def two_phase_params(g=0.0, rho_plus=0.5, geometry=Geometry()):
    return PhysicalParams(sigma=1.0, g=g, mu_minus=1.0, mu_plus=1.5,
                          rho_minus=1.0, rho_plus=rho_plus, phase="two",
                          geometry=geometry)


def quick_cfg(tol=1e-12):
    return PressureConfig(tol=tol, dn=DNConfig(n_levels=48))


def test_flat_interface_pressures_vanish():
    grid = PeriodicGrid(64)
    eta = Field(grid, np.zeros(grid.n))
    pair = pressure_fixed_point(eta, two_phase_params(), quick_cfg())
    assert np.max(np.abs(pair.f_minus.values)) < 1e-13
    assert np.max(np.abs(pair.f_plus.values)) < 1e-13


def test_single_mode_leading_order():
    # for eta = a cos x the jump is sigma E + g drho eta ~ (1 + g drho) a cos x
    # at leading order, and f^- carries the mu^- share of it
    grid = PeriodicGrid(128)
    a = 1e-4
    eta = Field(grid, a * np.cos(grid.nodes))
    params = two_phase_params()
    pair = pressure_fixed_point(eta, params, quick_cfg())
    share = params.mu_minus / (params.mu_minus + params.mu_plus)
    expected = share * params.sigma * a * np.cos(grid.nodes)
    assert np.max(np.abs(pair.f_minus.values - expected)) < 20 * a * a


def test_fixed_point_matches_oracle():
    grid = PeriodicGrid(128)
    eta = Field(grid, 0.02 * np.cos(grid.nodes)
                + 0.01 * np.sin(2.0 * grid.nodes))
    params = two_phase_params(g=1.0)
    cfg = quick_cfg()
    pair = pressure_fixed_point(eta, params, cfg)
    ref = pressure_oracle(eta, params, n_modes=16, cfg=cfg)
    diff = np.max(np.abs(pair.f_minus.values - ref.f_minus.values))
    scale = max(np.max(np.abs(ref.f_minus.values)), 1e-300)
    assert diff / scale < 1e-8


def test_jump_condition_and_flux_residuals():
    grid = PeriodicGrid(128)
    eta = Field(grid, 0.03 * np.cos(grid.nodes))
    pair = pressure_fixed_point(eta, two_phase_params(), quick_cfg())
    assert pair.jump_residual < 1e-14
    assert pair.flux_residual < 1e-10
    rep = pair.report()
    assert set(rep) == {"jump_residual", "flux_residual", "iterations"}


def test_gauge_zero_mean():
    grid = PeriodicGrid(64)
    eta = Field(grid, 0.02 * np.sin(grid.nodes))
    pair = pressure_fixed_point(eta, two_phase_params(), quick_cfg())
    assert abs(mean(pair.f_minus)) < 1e-15


def test_smallness_gate_raises():
    grid = PeriodicGrid(64)
    eta = Field(grid, 0.5 * np.cos(grid.nodes))
    with pytest.raises(NotContracting):
        pressure_fixed_point(eta, two_phase_params(), quick_cfg())


def test_iteration_cap_raises(monkeypatch):
    # an unconverged fixed point says so, and rhs falls back to the dense
    # referee and counts the switch
    grid = PeriodicGrid(64)
    eta = Field(grid, 0.02 * np.sin(grid.nodes))
    monkeypatch.setattr(pressure, "MAX_ITER", 1)
    with pytest.raises(NotContracting):
        pressure_fixed_point(eta, two_phase_params(), quick_cfg())
    cfg, record = quick_cfg(), {}
    rhs(eta, two_phase_params(), SolveConfig(dn=cfg.dn, pressure=cfg), record)
    assert record == {"pressure_oracle_switches": 1}


def test_one_phase_rejected():
    grid = PeriodicGrid(64)
    eta = Field(grid, np.zeros(grid.n))
    with pytest.raises(ValueError):
        pressure_fixed_point(eta, PhysicalParams(), quick_cfg())


@pytest.mark.parametrize("k", [1, 2, 4])
def test_mode_sweep_amplitude_bound(k):
    # |f^-| stays O(sigma k^4 a) for small single-mode interfaces
    grid = PeriodicGrid(128)
    a = 1e-3 / k ** 4
    eta = Field(grid, a * np.cos(k * grid.nodes))
    params = two_phase_params()
    pair = pressure_fixed_point(eta, params, quick_cfg())
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
    # the flux check of the pressure solve already applies G^- to f^-, so a
    # two-phase velocity costs the pressure solve's 2 + 2 * iterations DN
    # solves (G^+ J, two per sweep, G^- f^-) and not one more
    grid = PeriodicGrid(128)
    eta = Field(grid, 0.02 * np.cos(grid.nodes)
                + 0.01 * np.sin(2.0 * grid.nodes))
    params = PhysicalParams(sigma=1.0, g=1.0, mu_minus=1.0, mu_plus=1.0,
                            rho_minus=2.0, rho_plus=1.0, phase="two")
    cfg = SolveConfig()
    pair = pressure_fixed_point(eta, params, cfg.pressure)
    assert pair.iterations == 4
    expected = dn_fixed_point(eta, pair.f_minus, cfg.dn).gf \
        * (-1.0 / params.mu_minus)

    calls = []

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((pressure, "dn_fixed_point"), (pressure, "dn_upper"),
                         (evolution, "dn_fixed_point")):
        counted(module, name)
    velocity = rhs(eta, params, cfg)
    assert len(calls) == 2 + 2 * pair.iterations
    assert np.array_equal(velocity.values, expected.values)



@pytest.mark.parametrize("solver", [pressure_fixed_point, pressure_oracle])
def test_unconverged_dn_solve_raises(solver, monkeypatch):
    grid = PeriodicGrid(64)
    eta = Field(grid, 0.02 * np.sin(grid.nodes))
    monkeypatch.setattr(dn, "MAX_ITER", 2)
    with pytest.raises(NotContracting, match="DN solve not converged"):
        solver(eta, two_phase_params(), cfg=quick_cfg())


# --- linearity: one forcing solve, increment solves, upper flux from sums ---

WALLS = {
    "bottomless": Geometry(),
    "flat_bottom": Geometry("flat_bottom", h_minus=1.0),
    "flat_top": Geometry("flat_top", h_plus=1.0),
    "both_walls": Geometry("flat_bottom", h_minus=1.0, h_plus=1.0),
}


def wall_eta():
    grid = PeriodicGrid(128)
    return Field(grid, 0.02 * np.cos(grid.nodes)
                 + 0.01 * np.sin(2.0 * grid.nodes))


def full_solve_fixed_point(eta, params, cfg):
    """(f^-, iterations) with full DN solves on phi every sweep: the forcing
    from G^+ eta and G^+ E(eta), R^+- applied to the whole iterate, and both
    fluxes solved afresh."""
    lower, upper = dn_geometries(params)
    mu_sum = params.mu_plus + params.mu_minus
    grav = params.g * params.delta_rho
    g_eta = dn.dn_upper(eta, eta, cfg.dn, upper).gf
    g_el = dn.dn_upper(eta, elastic_E(eta), cfg.dn, upper).gf
    u0 = inv_abs_d(g_eta) * (-grav * params.mu_minus / mu_sum) \
        + inv_abs_d(g_el) * (-params.sigma * params.mu_minus / mu_sum)
    phi = u0
    scale = max(np.max(np.abs(u0.values)), 1e-300)
    for iters in range(1, pressure.MAX_ITER + 1):
        r_plus = dn.dn_upper(eta, phi, cfg.dn, upper).remainder
        r_minus = dn.dn_fixed_point(eta, phi, cfg.dn, lower).remainder
        phi_new = u0 + inv_abs_d(r_plus) * (params.mu_minus / mu_sum) \
            - inv_abs_d(r_minus) * (params.mu_plus / mu_sum)
        res = float(np.max(np.abs(phi_new.values - phi.values)) / scale)
        phi = phi_new
        if res < cfg.tol:
            break
    f_minus = Field(phi.grid, phi.values - mean(phi))
    dn.dn_fixed_point(eta, f_minus, cfg.dn, lower)
    dn.dn_upper(eta, f_minus - pressure_jump(eta, params), cfg.dn, upper)
    return f_minus, iters


@pytest.fixture
def sweeps(monkeypatch):
    """Picard sweeps of every DN solve, counted while the test runs."""
    count = [0]
    inner = dn.dn_fixed_point

    def counted(*args, **kwargs):
        res = inner(*args, **kwargs)
        count[0] += res.iterations
        return res
    # dn_upper reaches dn.dn_fixed_point; pressure binds its own name
    monkeypatch.setattr(dn, "dn_fixed_point", counted)
    monkeypatch.setattr(pressure, "dn_fixed_point", counted)
    return count


@pytest.mark.parametrize("g", [0.0, 1.0])
@pytest.mark.parametrize("wall", sorted(WALLS))
def test_increment_solves_match_full_solves(wall, g, sweeps):
    eta = wall_eta()
    params = two_phase_params(g=g, geometry=WALLS[wall])
    cfg = quick_cfg()
    ref, ref_iters = full_solve_fixed_point(eta, params, cfg)
    ref_sweeps, sweeps[0] = sweeps[0], 0
    pair = pressure_fixed_point(eta, params, cfg)
    assert pair.iterations == ref_iters
    diff = np.max(np.abs(pair.f_minus.values - ref.values))
    assert diff / np.max(np.abs(ref.values)) < 1e-10
    # the increments need far fewer sweeps than full solves of the iterate
    assert sweeps[0] <= 0.6 * ref_sweeps


@pytest.mark.parametrize("wall", sorted(WALLS))
def test_upper_flux_from_sums_matches_a_fresh_solve(wall):
    eta = wall_eta()
    params = two_phase_params(g=1.0, geometry=WALLS[wall])
    cfg = quick_cfg()
    pair = pressure_fixed_point(eta, params, cfg)
    _, upper = dn_geometries(params)
    fresh = dn.dn_upper(eta, pair.f_plus, cfg.dn, upper).gf
    diff = np.max(np.abs(pair.g_plus.values - fresh.values))
    assert diff / np.max(np.abs(fresh.values)) < 1e-10
    assert pair.flux_residual < 1e-10


def test_zero_increment_keeps_the_dn_tolerance():
    grid = PeriodicGrid(64)
    zero = Field(grid, np.zeros(grid.n))
    base = DNConfig(n_levels=48)
    phi = Field(grid, np.cos(grid.nodes))
    assert pressure._increment_dn(base, zero, zero) == base
    assert pressure._increment_dn(base, phi, zero) == base
    assert pressure._increment_dn(base, phi, phi * 1e-3).tol \
        == pytest.approx(base.tol * 1e3)
    # never tighter than the configured tolerance
    assert pressure._increment_dn(base, phi * 1e-3, phi).tol == base.tol
