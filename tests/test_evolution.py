import numpy as np
import pytest

from elastic_muskat import dn, evolution
from elastic_muskat.dn import DNConfig
from elastic_muskat.errors import ConfigError, NonFiniteState, NotContracting
from elastic_muskat.evolution import (SolveConfig, default_dt, etd_step,
                                      linear_multiplier, nonlinear_remainder,
                                      picard_solve, rhs, scaling_experiment,
                                      smoothing_fit, solve,
                                      stability_experiment)
from elastic_muskat.grid import (Field, PeriodicGrid, mean, sobolev_norm,
                                 zero_field)
from elastic_muskat.params import Geometry, LinearSymbol, PhysicalParams


def quick_cfg(**kw):
    kw.setdefault("dn", DNConfig(n_levels=48))
    return SolveConfig(**kw)


def test_rhs_flat_interface_zero():
    grid = PeriodicGrid(64)
    eta = zero_field(grid)
    out = rhs(eta, PhysicalParams(), quick_cfg())
    assert np.max(np.abs(out.values)) < 1e-13


def test_rhs_linearization_one_phase():
    # d/dt eta ~ -(sigma |k|^5 + rho g |k|) eta for small single modes
    grid = PeriodicGrid(128)
    a = 1e-6
    params = PhysicalParams(sigma=1.0, g=2.0)
    eta = Field(grid, a * np.cos(2.0 * grid.nodes))
    out = rhs(eta, params, quick_cfg())
    expected = -(2.0 ** 5 + params.g * params.rho_minus * 2.0) \
        * a * np.cos(2.0 * grid.nodes)
    assert np.max(np.abs(out.values - expected)) < 1e-9


def test_nonlinear_remainder_quadratic_smallness():
    # N(eta) = rhs + linear part should shrink like amplitude squared
    grid = PeriodicGrid(128)
    params = PhysicalParams()
    cfg = quick_cfg()
    norms = []
    for a in (1e-3, 5e-4):
        eta = Field(grid, a * np.cos(grid.nodes))
        norms.append(np.max(np.abs(nonlinear_remainder(eta, params, cfg).values)))
    rate = np.log(norms[0] / norms[1]) / np.log(2.0)
    assert rate > 1.7


def test_etd_constant_state_preserved():
    grid = PeriodicGrid(64)
    eta = Field(grid, 0.3 * np.ones(grid.n))
    out = etd_step(eta, 0.1, PhysicalParams(), cfg=quick_cfg())
    assert np.max(np.abs(out.values - 0.3)) < 1e-13


def test_etd_linear_only_exact():
    # with the remainder zeroed the step is the exact semigroup
    grid = PeriodicGrid(64)
    params = PhysicalParams(g=1.0)
    eta = Field(grid, np.cos(grid.nodes) + 0.5 * np.sin(3.0 * grid.nodes))
    dt = 0.07
    out = etd_step(eta, dt, params, nonlinear=lambda e: zero_field(e.grid))
    m = linear_multiplier(grid, params)
    expect = np.fft.ifft(np.exp(-dt * m) * np.fft.fft(eta.values)).real
    assert np.max(np.abs(out.values - expect)) < 1e-14


def test_etd_rejects_bad_input():
    grid = PeriodicGrid(32)
    eta = zero_field(grid)
    with pytest.raises(ValueError):
        etd_step(eta, 0.0, PhysicalParams())
    with pytest.raises(ValueError):
        etd_step(eta, 0.1, PhysicalParams(), cfg=quick_cfg(scheme="RK4"))


def test_etdrk2_second_order():
    grid = PeriodicGrid(64)
    params = PhysicalParams()
    cfg = quick_cfg()
    eta0 = Field(grid, 0.05 * np.cos(grid.nodes))
    T = 0.02
    errs = []
    ref = solve(eta0, T, T / 32, params, cfg).states[-1]
    for nsteps in (2, 4):
        run = solve(eta0, T, T / nsteps, params, cfg).states[-1]
        errs.append(np.max(np.abs((run - ref).values)))
    order = np.log2(errs[0] / errs[1])
    assert 1.6 < order < 2.4


def test_solve_zero_data_stays_zero():
    grid = PeriodicGrid(64)
    traj = solve(zero_field(grid), 0.1, 0.02, PhysicalParams(), quick_cfg())
    assert len(traj.times) == 6
    assert all(np.max(np.abs(st.values)) < 1e-13 for st in traj.states)
    assert traj.abort_reason is None


def test_solve_ends_at_T():
    # 0.5 is not a multiple of 0.3: the second step is shortened to 0.2
    grid = PeriodicGrid(64)
    a = 1e-4
    eta0 = Field(grid, a * np.cos(grid.nodes))
    traj = solve(eta0, 0.5, 0.3, PhysicalParams(), quick_cfg())
    assert traj.manifest["steps"] == 2
    assert traj.times == [0.0, 0.3, 0.5]
    assert traj.monitors[-1]["t"] == 0.5
    # the single mode decays at rate sigma k^5 = 1 over the whole of T
    amp = np.max(np.abs(traj.states[-1].values))
    assert abs(amp - a * np.exp(-0.5)) < 1e-3 * a


def test_solve_aborts_cleanly_on_solver_failure():
    # the flattening map degenerates on the first DN solve; the run stops
    # with the trajectory so far instead of raising
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 2.5 * np.sin(grid.nodes))
    cfg = quick_cfg(dn=DNConfig(lipschitz_gate=100.0))
    traj = solve(eta0, 0.1, 0.05, PhysicalParams(), cfg)
    assert traj.abort_reason.startswith("DegenerateJacobian")
    assert traj.states == [eta0]


def test_solve_aborts_cleanly_on_non_finite_state(monkeypatch):
    # a remainder whose spectrum overflows makes the next state non-finite;
    # the run stops with the trajectory so far instead of raising
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 1e-3 * np.cos(grid.nodes))
    monkeypatch.setattr(evolution, "nonlinear_remainder",
                        lambda eta, *args, **kwargs:
                        Field(grid, np.full(grid.n, 1e308)))
    with np.errstate(over="ignore", invalid="ignore"):
        traj = solve(eta0, 0.1, 0.05, PhysicalParams(), quick_cfg())
    assert traj.abort_reason.startswith("NonFiniteState")
    assert traj.states == [eta0]


def test_solve_aborts_on_unconverged_dn_solve(monkeypatch):
    # a DN solve that stops at its sweep cap is an error, not a velocity
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 0.02 * np.cos(grid.nodes))
    monkeypatch.setattr(dn, "MAX_ITER", 2)
    traj = solve(eta0, 0.1, 0.05, PhysicalParams(), quick_cfg())
    assert traj.abort_reason.startswith("NotContracting")
    assert traj.states == [eta0]
    with pytest.raises(NotContracting, match="DN solve not converged"):
        evolution._duhamel_integrand(eta0, PhysicalParams(), quick_cfg())


def test_solve_raises_separation_lost_after_the_step(monkeypatch):
    # a step that closes more than half the initial distance to the flat
    # bottom ends the run; the offending state is the last one kept
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 0.01 * np.cos(grid.nodes))
    params = PhysicalParams(geometry=Geometry("flat_bottom", h_minus=1.0))
    sunk = Field(grid, eta0.values - 0.6)
    monkeypatch.setattr(evolution, "etd_step",
                        lambda eta, *args, **kwargs: sunk)
    traj = solve(eta0, 0.1, 0.05, params, quick_cfg())
    assert traj.abort_reason == \
        "SeparationLost: boundary distance 0.39 at or below 0.495"
    assert traj.manifest["abort_reason"] == traj.abort_reason
    assert traj.states == [eta0, sunk]
    assert traj.times == [0.0, 0.05]
    assert len(traj.monitors) == 2
    assert traj.monitors[-1]["boundary_distance"] == 1.0 + np.min(sunk.values)


@pytest.mark.parametrize("geometry", [Geometry("flat_top", h_plus=1.0),
                                      Geometry("flat_bottom", h_minus=1.0,
                                               h_plus=1.0)])
def test_solve_watches_the_flat_top(geometry, monkeypatch):
    # a step that lifts the interface past half its initial distance to a
    # flat top ends a two-phase run like one that sinks toward the bottom
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 0.01 * np.cos(grid.nodes))
    params = PhysicalParams(mu_plus=1.0, rho_plus=0.5, phase="two",
                            geometry=geometry)
    lifted = Field(grid, eta0.values + 0.6)
    monkeypatch.setattr(evolution, "etd_step",
                        lambda eta, *args, **kwargs: lifted)
    traj = solve(eta0, 0.1, 0.05, params, quick_cfg())
    assert traj.abort_reason == \
        "SeparationLost: boundary distance 0.39 at or below 0.495"
    assert traj.states == [eta0, lifted]
    assert traj.monitors[0]["boundary_distance"] == 1.0 - np.max(eta0.values)
    assert traj.monitors[-1]["boundary_distance"] == \
        1.0 - np.max(lifted.values)


def test_non_finite_field_is_a_value_error():
    with pytest.raises(ValueError):
        Field(PeriodicGrid(8), np.full(8, np.nan))
    with pytest.raises(NonFiniteState):
        Field(PeriodicGrid(8), np.full(8, np.inf))


def test_solve_single_mode_decay():
    grid = PeriodicGrid(64)
    a = 1e-4
    eta0 = Field(grid, a * np.cos(grid.nodes))
    params = PhysicalParams()   # rate sigma k^5 = 1 at k = 1
    T = 1.0
    traj = solve(eta0, T, T / 16, params, quick_cfg())
    amp = np.max(np.abs(traj.states[-1].values))
    assert abs(amp - a * np.exp(-1.0)) < 1e-3 * a


def test_solve_conserves_mean():
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 0.2 + 0.03 * np.cos(grid.nodes))
    traj = solve(eta0, 0.2, 0.05, PhysicalParams(), quick_cfg())
    drift = abs(mean(traj.states[-1]) - mean(eta0))
    assert drift < 1e-13


def test_solve_monitor_fields():
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 0.01 * np.sin(grid.nodes))
    traj = solve(eta0, 0.05, 0.05, PhysicalParams(), quick_cfg())
    mon = traj.monitors[-1]
    for key in ("t", "mean", "lipschitz", "boundary_distance",
                "dissipation", "H2"):
        assert key in mon
    assert mon["boundary_distance"] == np.inf
    assert mon["dissipation"] > 0


def test_picard_trivial():
    grid = PeriodicGrid(64)
    traj = picard_solve(zero_field(grid), 0.1, PhysicalParams(),
                        quick_cfg(), n_steps=4)
    assert all(np.max(np.abs(st.values)) < 1e-13 for st in traj.states)


def test_picard_matches_etd():
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 1e-3 * np.cos(grid.nodes))
    params = PhysicalParams()
    cfg = quick_cfg()
    T = 0.25
    tp = picard_solve(eta0, T, params, cfg, n_steps=16)
    te = solve(eta0, T, T / 64, params, cfg)
    diff = sobolev_norm(tp.states[-1] - te.states[-1], 2.0)
    assert diff < 1e-7


def test_picard_ends_at_T():
    # 0.5 is not a multiple of 0.3: two equal steps of 0.25 instead
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 1e-4 * np.cos(grid.nodes))
    traj = picard_solve(eta0, 0.5, PhysicalParams(), quick_cfg(), dt=0.3)
    assert traj.times == [0.0, 0.25, 0.5]
    assert traj.manifest["dt"] == 0.25


def test_picard_gate_rejects_large_data():
    grid = PeriodicGrid(64)
    eta0 = Field(grid, np.cos(grid.nodes))
    with pytest.raises(NotContracting):
        picard_solve(eta0, 0.1, PhysicalParams(), quick_cfg())


def test_stability_zero_perturbation_sentinel():
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 0.01 * np.cos(grid.nodes))
    out = stability_experiment(eta0, zero_field(grid), 0.05, 0.05,
                               PhysicalParams(), quick_cfg())
    assert out["exact_match"] is True
    assert out["ratio"] is None


def test_scaling_identity_lambda_one():
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 0.01 * np.cos(grid.nodes))
    out = scaling_experiment(eta0, 1, 0.05, 0.05, PhysicalParams(), quick_cfg())
    assert out["defect"] < 1e-14


def test_scaling_input_validation():
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 0.01 * np.cos(grid.nodes))
    with pytest.raises(ValueError):
        scaling_experiment(eta0, 3, 0.05, 0.05, PhysicalParams(), quick_cfg())
    with pytest.raises(ValueError):
        scaling_experiment(eta0, 2, 0.05, 0.05, PhysicalParams(g=1.0),
                           quick_cfg())


def test_unstable_ordering_needs_flag():
    with pytest.raises(ConfigError):
        PhysicalParams(phase="two", mu_plus=1.0, rho_plus=2.0, rho_minus=1.0,
                       g=1.0)
    p = PhysicalParams(phase="two", mu_plus=1.0, rho_plus=2.0, rho_minus=1.0,
                       g=1.0, allow_unstable=True)
    assert not p.stable_regime
    assert LinearSymbol.from_params(p).rate(1) < 1.0


def test_smoothing_fit_recovers_exact_rate():
    grid = PeriodicGrid(64)
    rng = np.random.default_rng(7)
    c0 = np.exp(-0.5 * np.abs(grid.wavenumbers)) \
        * rng.standard_normal(grid.n)
    eta0 = Field(grid, np.fft.ifft(c0).real)
    # t small enough that no mode decays into the fft roundoff floor
    t, c = 3e-7, 0.8
    decayed = np.fft.ifft(np.fft.fft(eta0.values)
                          * np.exp(-c * t * np.abs(grid.wavenumbers) ** 5)).real
    eta_t = Field(grid, decayed)
    fit = smoothing_fit(eta0, eta_t, t, kmin=2)
    assert abs(fit - c) < 1e-4


def test_default_dt_positive():
    grid = PeriodicGrid(64)
    assert default_dt(grid, PhysicalParams()) > 0
