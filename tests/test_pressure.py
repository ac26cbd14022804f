import numpy as np
import pytest

from elastic_muskat import evolution, pressure
from elastic_muskat.dn import DNConfig, dn_fixed_point
from elastic_muskat.errors import NotContracting
from elastic_muskat.evolution import SolveConfig, rhs
from elastic_muskat.grid import Field, PeriodicGrid, mean
from elastic_muskat.params import PhysicalParams
from elastic_muskat.pressure import (PressureConfig, pressure_fixed_point,
                                     pressure_jump, pressure_oracle)


def two_phase_params(g=0.0, rho_plus=0.5):
    return PhysicalParams(sigma=1.0, g=g, mu_minus=1.0, mu_plus=1.5,
                          rho_minus=1.0, rho_plus=rho_plus, phase="two")


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
    # two-phase velocity costs 2 + 2 * iterations + 2 DN solves, not one more
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
    assert len(calls) == 12
    assert np.array_equal(velocity.values, expected.values)

