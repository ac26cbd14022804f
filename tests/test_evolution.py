import numpy as np
import pytest

from elastic_muskat import dn, evolution
from elastic_muskat.cli import CONFIG_DEFAULTS, build_initial_data
from elastic_muskat.dn import DNConfig, dn_geometries
from elastic_muskat.elastic import elastic_E, elastic_split, gateaux_dE
from elastic_muskat.errors import (ConfigError, MuskatError, NonFiniteState,
                                   NotContracting)
from elastic_muskat.evolution import (SolveConfig, etd_step,
                                      nonlinear_remainder, picard_solve, rhs,
                                      scaling_experiment, smoothing_fit,
                                      solve, stability_experiment)
from elastic_muskat.grid import (Field, PeriodicGrid, lipschitz_norms, mean,
                                 sobolev_norm, zero_field)
from elastic_muskat.params import (Geometry, LinearSymbol, PhysicalParams,
                                   wall_distances)

from helpers import DN_CAPS, abs_d, engine_solve, fft_wavenumbers, regions


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


# one-phase interfaces a cos x + b sin 3x of the two DN engines:
# k_max max|eta| 2.1 at n = 64, in the series' reach, and 14.3 at n = 256,
# past it, where the velocity solves by the level solver
ENGINE_ETAS = {"series": (64, 0.05, 0.02), "level": (256, 0.1, 0.02)}


def engine_eta(region):
    n, a, b = ENGINE_ETAS[region]
    grid = PeriodicGrid(n)
    return Field(grid, a * np.cos(grid.nodes) + b * np.sin(3.0 * grid.nodes))


@pytest.mark.parametrize("region, engine", [("series", dn._Series),
                                            ("level", dn._Sweeper)])
def test_each_region_takes_its_engine(region, engine):
    eta = engine_eta(region)
    chosen, = dn._dn_engines(eta.grid, eta.values, quick_cfg().dn,
                             (dn.InfiniteDepth(),))
    assert type(chosen) is engine


@pytest.mark.parametrize("region, geometry, g", regions("series", [
    ("geometry%d-%s" % (i, g), (geometry, g))
    for i, geometry in enumerate((Geometry(),
                                  Geometry("flat_bottom", h_minus=1.0)))
    for g in (0.0, 1.0)]))
def test_nonlinear_remainder_matches_duhamel_assembly(region, geometry, g):
    # the paradifferential assembly of the Duhamel integrand: with G = |D| + R,
    # R(eta)(sigma E) + sigma |D|(E - |D|^4 eta) + rho g R(eta) eta
    # telescopes to -mu^- N(eta); R from solves on the velocity's engine
    params = PhysicalParams(sigma=1.3, g=g, mu_minus=0.7, rho_minus=1.1,
                            geometry=geometry)
    cfg = quick_cfg()
    eta = engine_eta(region)
    lower, _ = dn_geometries(params)
    el = elastic_E(eta)
    r_el = engine_solve(eta, el, cfg.dn, lower)[1]
    r_eta = engine_solve(eta, eta, cfg.dn, lower)[1]
    ref = (r_el + abs_d(el - abs_d(eta, 4.0))) * params.sigma \
        + r_eta * (params.rho_minus * params.g)
    got = nonlinear_remainder(eta, params, cfg) * (-params.mu_minus)
    err = np.linalg.norm((got - ref).values) / np.linalg.norm(ref.values)
    assert err < 1e-10


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
    m = LinearSymbol.from_params(params).rate(fft_wavenumbers(grid))
    expect = np.fft.ifft(np.exp(-dt * m) * np.fft.fft(eta.values)).real
    assert np.max(np.abs(out.values - expect)) < 1e-14


def test_etd_weights_are_formed_once_per_run(monkeypatch):
    # a run of fixed steps forms its weights at its first step, read-only,
    # and a shortened last step forms its own
    calls = []
    inner = evolution.exp_linear_weights

    def counted(z):
        calls.append(z.shape)
        return inner(z)
    monkeypatch.setattr(evolution, "exp_linear_weights", counted)
    evolution._etd_weights.cache_clear()
    grid = PeriodicGrid(32)
    eta0 = Field(grid, 0.01 * np.cos(grid.nodes))
    params = PhysicalParams(g=1.0)

    def lin(e):
        return zero_field(e.grid)
    eta = eta0
    for _ in range(4):
        eta = etd_step(eta, 0.01, params, nonlinear=lin)
    assert len(calls) == 1
    assert not any(w.flags.writeable
                   for w in evolution._etd_weights(grid, params, 0.01))
    etd_step(eta, 0.005, params, nonlinear=lin)
    assert len(calls) == 2


def test_etd_rejects_bad_input():
    grid = PeriodicGrid(32)
    eta = zero_field(grid)
    with pytest.raises(ValueError):
        etd_step(eta, 0.0, PhysicalParams())
    with pytest.raises(ValueError):
        etd_step(eta, 0.1, PhysicalParams(), cfg=quick_cfg(scheme="RK4"))
    # backwards, picard's exponentials overflow; with dt = 0 it divided by
    # 0; an infinite T overflowed the step count and an infinite dt made a
    # non-finite state
    for T, dt in ((0.1, -0.05), (-0.1, 0.05), (0.1, 0.0), (np.inf, 0.05),
                  (0.1, np.inf), (np.nan, 0.05), (0.1, np.nan)):
        with pytest.raises(ValueError, match="T and dt must be positive"):
            picard_solve(eta, T, PhysicalParams(), quick_cfg(), dt=dt)
        with pytest.raises(ValueError, match="T and dt must be positive"):
            solve(eta, T, dt, PhysicalParams(), quick_cfg())
    for dt in (np.inf, np.nan):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            etd_step(eta, dt, PhysicalParams())


def test_etdrk2_second_order():
    # each scheme against ETDRK2 at T/32; ETD1 measures 1.15 on this ladder
    grid = PeriodicGrid(64)
    params = PhysicalParams()
    eta0 = Field(grid, 0.05 * np.cos(grid.nodes))
    T = 0.02
    ref = solve(eta0, T, T / 32, params, quick_cfg()).states[-1]
    for scheme, expected in (("ETDRK2", 2), ("ETD1", 1)):
        errs = []
        for nsteps in (2, 4):
            run = solve(eta0, T, T / nsteps, params,
                        quick_cfg(scheme=scheme)).states[-1]
            errs.append(np.max(np.abs((run - ref).values)))
        order = np.log2(errs[0] / errs[1])
        assert expected - 0.4 < order < expected + 0.4, scheme


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


@pytest.mark.parametrize("overflow_call", [1, 2],
                         ids=["predictor", "corrector"])
def test_solve_aborts_cleanly_on_non_finite_state(overflow_call, monkeypatch):
    # a remainder whose spectrum overflows makes the next state non-finite;
    # the run stops with the trajectory so far instead of raising.  When
    # only the second remainder of a step overflows, the ETDRK2 predictor
    # state is finite and the corrected state is the one that fails
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 1e-3 * np.cos(grid.nodes))
    calls = []

    def remainder(eta, *args, **kwargs):
        calls.append(eta)
        overflow = len(calls) % 2 == overflow_call % 2
        return Field(grid, np.full(grid.n, 1e308 if overflow else 0.0))

    monkeypatch.setattr(evolution, "nonlinear_remainder", remainder)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = solve(eta0, 0.1, 0.05, PhysicalParams(), quick_cfg())
    assert traj.abort_reason.startswith("NonFiniteState")
    assert traj.states == [eta0]
    assert len(calls) == overflow_call


def test_solve_aborts_on_unconverged_dn_solve(monkeypatch):
    # a DN solve that stops at its sweep cap is an error, not a velocity
    abort_on_unconverged_dn_solve("level", monkeypatch)


def test_solve_aborts_on_unconverged_dn_series(monkeypatch):
    # and so is a series that stops at its order cap
    abort_on_unconverged_dn_solve("series", monkeypatch)


def abort_on_unconverged_dn_solve(region, monkeypatch):
    eta0 = engine_eta(region)
    cap, message = DN_CAPS[region]
    monkeypatch.setattr(dn, cap, 2)
    traj = solve(eta0, 0.1, 0.05, PhysicalParams(), quick_cfg())
    assert traj.abort_reason.startswith("NotContracting")
    assert traj.states == [eta0]
    with pytest.raises(NotContracting, match=message):
        picard_solve(eta0, 0.1, PhysicalParams(), quick_cfg(), dt=0.05)


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


def test_picard_stops_at_the_wall_floor_as_etd_does(monkeypatch):
    # a constant remainder of -6 sinks the interface by 6 t; both schemes
    # keep the states up to the first at or below half the initial
    # distance to the flat bottom (t = 0.1) and record the abort
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 0.01 * np.cos(grid.nodes))
    params = PhysicalParams(geometry=Geometry("flat_bottom", h_minus=1.0))
    monkeypatch.setattr(evolution, "nonlinear_remainder",
                        lambda eta, *args: Field(eta.grid,
                                                 np.full(eta.grid.n, -6.0)))
    runs = {scheme: solve(eta0, 0.2, 0.025, params, quick_cfg(scheme=scheme))
            for scheme in ("ETDRK2", "picard")}
    for traj in runs.values():
        assert traj.abort_reason == \
            "SeparationLost: boundary distance 0.391 at or below 0.495"
        assert traj.manifest["abort_reason"] == traj.abort_reason
        assert traj.manifest["steps"] == 4
        assert len(traj.states) == len(traj.monitors) == 5
        assert traj.times == pytest.approx([0.0, 0.025, 0.05, 0.075, 0.1])
        assert traj.monitors[-1]["boundary_distance"] <= 0.495
    assert runs["picard"].manifest["iterations"] == 2


def test_non_finite_field_is_a_value_error():
    with pytest.raises(ValueError):
        Field(PeriodicGrid(8), np.full(8, np.nan))
    with pytest.raises(NonFiniteState):
        Field(PeriodicGrid(8), np.full(8, np.inf))


# Fields one ETDRK2 step builds: its two stage states, and per remainder
# evaluation the returns of nonlinear_remainder, rhs and elastic_E (one
# phase, 3: its DN engine builds none) plus the pressure pair's f^-, f^+
# and G^+ f^+ with the G^- f^- solve's G f and remainder (two phases, 8).
# The bounds allow one Field more per evaluation.
@pytest.mark.parametrize("params, bound", [
    (PhysicalParams(g=1.0), 2 + 2 * 3 + 2),
    (PhysicalParams(g=1.0, mu_plus=1.0, rho_minus=2.0, rho_plus=1.0,
                    phase="two"), 2 + 2 * 8 + 2),
], ids=["one_phase", "two_phase"])
def test_etd_step_builds_fields_only_at_the_api(params, bound, monkeypatch):
    grid = PeriodicGrid(64)
    eta = Field(grid, 0.02 * np.cos(grid.nodes)
                + 0.01 * np.sin(2.0 * grid.nodes))
    built = []
    post_init = Field.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Field, "__post_init__", counted)
    etd_step(eta, 1e-3, params, SolveConfig())
    assert len(built) <= bound


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
                        quick_cfg(), dt=0.025)
    assert all(np.max(np.abs(st.values)) < 1e-13 for st in traj.states)


def test_picard_matches_etd():
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 1e-3 * np.cos(grid.nodes))
    params = PhysicalParams()
    cfg = quick_cfg()
    T = 0.25
    tp = picard_solve(eta0, T, params, cfg, dt=T / 16)
    te = solve(eta0, T, T / 64, params, cfg)
    diff = sobolev_norm(tp.states[-1] - te.states[-1], 2.0)
    assert diff < 1e-7


# the one-phase benchmark profile as the CLI builds it: modes k = 1..4 of
# amplitude 0.03/k^2 and the seeded tail of amplitude 2e-4
PROFILE_MODES = [[1, 0.03, 0.0], [2, 0.0075, 1.0],
                 [3, 0.0033333333333333335, 2.5], [4, 0.001875, 4.0]]


def bench_profile(n, tail):
    cfg = dict(CONFIG_DEFAULTS, n=n, modes=PROFILE_MODES, tail_amplitude=tail)
    return build_initial_data(cfg, PeriodicGrid(n))


def test_picard_reaches_T_at_every_grid_size():
    # the sweep distance had an H^7 term whose roundoff floor grows like
    # k_max^7: without the tail, n >= 64 ended in NotContracting
    for n in (32, 64, 128, 256):
        traj = solve(bench_profile(n, 0.0), 0.01, 1e-3, PhysicalParams(g=1.0),
                     SolveConfig(scheme="picard"))
        assert traj.abort_reason is None, n
        assert traj.manifest["steps"] == 10


def test_picard_is_second_order_at_the_default_grid():
    # with the tail at n = 128: picard's error against ETDRK2 at 5e-4/16
    # falls 3.75x and 3.96x per halving of dt, and at dt = 1e-3 picard
    # differs from ETDRK2 at the same dt by 6.5e-8 relative (bound 1.5x)
    eta0, params, T = bench_profile(128, 2e-4), PhysicalParams(g=1.0), 0.01
    ref = solve(eta0, T, 5e-4 / 16, params).states[-1].values
    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        traj = solve(eta0, T, dt, params, SolveConfig(scheme="picard"))
        assert traj.abort_reason is None
        final = traj.states[-1].values
        errs.append(np.linalg.norm(final - ref) / np.linalg.norm(ref))
        if dt == 1e-3:
            etd = solve(eta0, T, dt, params).states[-1].values
            assert np.linalg.norm(final - etd) / np.linalg.norm(etd) < 1e-7
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all((1.8 < orders) & (orders < 2.2))


def test_picard_ends_at_T():
    # 0.5 is not a multiple of 0.3: two equal steps of 0.25 instead
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 1e-4 * np.cos(grid.nodes))
    traj = picard_solve(eta0, 0.5, PhysicalParams(), quick_cfg(), dt=0.3)
    assert traj.times == [0.0, 0.25, 0.5]
    assert traj.manifest["dt"] == 0.25


def test_solve_runs_picard():
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 1e-3 * np.cos(grid.nodes))
    cfg = quick_cfg(scheme="picard")
    direct = picard_solve(eta0, 0.2, PhysicalParams(), cfg, dt=0.05)
    traj = solve(eta0, 0.2, 0.05, PhysicalParams(), cfg)
    assert traj.abort_reason is None
    assert traj.times == direct.times
    for a, b in zip(traj.states, direct.states, strict=True):
        np.testing.assert_array_equal(a.values, b.values)
    assert traj.monitors == direct.monitors
    assert traj.manifest == direct.manifest
    assert traj.manifest["steps"] == 4


def test_solve_picard_abort_is_recorded_like_etd():
    # above the smallness gate the run ends at t = 0, recorded in the same
    # shape as an ETD run
    grid = PeriodicGrid(64)
    eta0 = Field(grid, np.cos(grid.nodes))
    traj = solve(eta0, 0.1, 0.05, PhysicalParams(), quick_cfg(scheme="picard"))
    etd = solve(eta0, 0.05, 0.05, PhysicalParams(), quick_cfg())
    assert traj.abort_reason.startswith("NotContracting")
    assert "smallness gate" in traj.abort_reason
    assert traj.states == [eta0]
    assert traj.times == [0.0]
    assert traj.monitors == etd.monitors[:1]
    assert set(traj.manifest) == set(etd.manifest)
    assert traj.manifest == {"scheme": "picard", "dt": 0.05, "T": 0.1,
                             "steps": 0, "abort_reason": traj.abort_reason}


def test_picard_sweep_solves_once_per_state(monkeypatch):
    # one DN solve per later state and sweep, and one for eta0, whose
    # remainder every sweep shares: the remainder is nonlinear_remainder
    calls = []
    engines = evolution._dn_engines

    def counted(*args, **kwargs):
        calls.append(1)
        return engines(*args, **kwargs)

    monkeypatch.setattr(evolution, "_dn_engines", counted)
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 1e-3 * np.cos(grid.nodes))
    traj = picard_solve(eta0, 0.1, PhysicalParams(), quick_cfg(), dt=0.025)
    assert len(calls) == 1 + traj.manifest["iterations"] * 4


def test_picard_gate_rejects_large_data():
    grid = PeriodicGrid(64)
    eta0 = Field(grid, np.cos(grid.nodes))
    with pytest.raises(NotContracting):
        picard_solve(eta0, 0.1, PhysicalParams(), quick_cfg(), dt=0.1 / 32)


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


# an aborted run stops at its last state, so comparing it would read as a
# flow that stopped: ratio 1 and defect 0 when both runs abort at step 0
@pytest.mark.parametrize("amp, run", [(0.2, "unperturbed"),
                                      (0.1495, "perturbed")])
def test_stability_experiment_raises_on_an_aborted_run(amp, run):
    # proxy 2 amp: 0.4 aborts both runs at step 0, and 0.299 + 0.002
    # only the perturbed one, whose one state met IndexError
    grid = PeriodicGrid(64)
    eta0 = Field(grid, amp * np.cos(grid.nodes))
    delta0 = Field(grid, 1e-3 * np.cos(grid.nodes))
    with pytest.raises(MuskatError,
                       match="^%s run aborted: NotContracting" % run):
        stability_experiment(eta0, delta0, 0.1, 0.05, PhysicalParams(),
                             quick_cfg())


def test_scaling_experiment_raises_on_an_aborted_run():
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 0.2 * np.sin(grid.nodes))
    with pytest.raises(MuskatError,
                       match="^reference run aborted: NotContracting"):
        scaling_experiment(eta0, 2, 1e-3, 1e-3 / 8, PhysicalParams(),
                           quick_cfg())


def test_scaling_input_validation():
    grid = PeriodicGrid(64)
    eta0 = Field(grid, 0.01 * np.cos(grid.nodes))
    with pytest.raises(ValueError):
        scaling_experiment(eta0, 3, 0.05, 0.05, PhysicalParams(), quick_cfg())
    with pytest.raises(ValueError):
        scaling_experiment(eta0, 2, 0.05, 0.05, PhysicalParams(g=1.0),
                           quick_cfg())


@pytest.mark.parametrize("kind, h_plus", [("bottomless", 0.0),
                                           ("flat_top", 1.0)])
def test_bottom_depth_without_a_bottom_is_rejected(kind, h_plus):
    # h_minus would be ignored: only flat_bottom has a bottom wall
    with pytest.raises(ConfigError, match="h_minus"):
        Geometry(kind, h_minus=1.0, h_plus=h_plus)


@pytest.mark.parametrize("depths", [{"h_minus": -1.0}, {"h_plus": -3.0},
                                    {"h_plus": float("nan")}])
def test_negative_wall_depth_is_rejected(depths):
    with pytest.raises(ConfigError, match="wall depths"):
        Geometry(**depths)


@pytest.mark.parametrize("depths", [{"kind": "flat_bottom",
                                     "h_minus": float("inf")},
                                    {"h_plus": float("inf")}])
def test_infinite_wall_depth_is_rejected(depths):
    with pytest.raises(ConfigError, match="wall depths"):
        Geometry(**depths)


@pytest.mark.parametrize("name", ["sigma", "g", "mu_minus", "mu_plus",
                                  "rho_minus", "rho_plus"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_non_finite_physical_parameter_is_rejected(name, value):
    # NaN passes every ordering check, so each number is checked finite
    kw = {"phase": "two", "mu_plus": 1.0, "allow_unstable": True, name: value}
    with pytest.raises(ConfigError, match="%s must be finite" % name):
        PhysicalParams(**kw)


@pytest.mark.parametrize("geometry", [
    Geometry("flat_top", h_plus=1.0),
    Geometry("bottomless", h_plus=1.0),
    Geometry("flat_bottom", h_minus=1.0, h_plus=1.0),
])
def test_one_phase_top_wall_is_rejected(geometry):
    # one phase has no upper fluid for a top wall to bound
    with pytest.raises(ConfigError, match="h_plus"):
        PhysicalParams(geometry=geometry)
    two = PhysicalParams(phase="two", mu_plus=1.0, geometry=geometry)
    assert wall_distances(two.geometry)["top"] == 1.0


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
    c0 = np.exp(-0.5 * np.abs(fft_wavenumbers(grid))) \
        * rng.standard_normal(grid.n)
    eta0 = Field(grid, np.fft.ifft(c0).real)
    # t small enough that no mode decays into the fft roundoff floor
    t, c = 3e-7, 0.8
    decayed = np.fft.ifft(np.fft.fft(eta0.values)
                          * np.exp(-c * t * np.abs(fft_wavenumbers(grid)) ** 5)).real
    eta_t = Field(grid, decayed)
    fit = smoothing_fit(eta0, eta_t, t, kmin=2)
    assert abs(fit - c) < 1e-4


def test_solver_paths_form_no_full_spectrum(monkeypatch):
    # every spectrum a solver forms is an rfft half spectrum; the full fft
    # serves only the tests' reference kernels
    def refuse(*args, **kwargs):
        raise AssertionError("a full complex FFT on a solver path")
    monkeypatch.setattr(np.fft, "fft", refuse)
    monkeypatch.setattr(np.fft, "ifft", refuse)
    grid = PeriodicGrid(64)
    x = grid.nodes
    eta = Field(grid, 0.02 * np.cos(x) + 0.01 * np.sin(2 * x))
    strip = Geometry("flat_bottom", h_minus=1.0)
    for params in (PhysicalParams(), PhysicalParams(g=1.0, geometry=strip),
                   PhysicalParams(g=1.0, mu_plus=1.0, rho_minus=2.0,
                                  rho_plus=1.0, phase="two")):
        etd_step(eta, 1e-3, params, quick_cfg())
    run = picard_solve(Field(grid, 0.001 * np.cos(x)), 2e-3, PhysicalParams(),
                       quick_cfg(), dt=1e-3)
    assert run.manifest["steps"] == 2
    elastic_split(eta)
    gateaux_dE(eta, Field(grid, np.sin(3 * x)))
    sobolev_norm(eta, 2.0)
    lipschitz_norms(eta)
