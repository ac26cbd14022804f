"""Verification suites.

Each suite returns a list of report rows
{check, expected, measured, tolerance, passed} suitable for report.csv.
The measured quantities are compared against independently derived values:
exact linear rates, finite-difference oracles, dense solves, or forced
convergence orders.
"""

from dataclasses import replace

import numpy as np

from .dn import (DNConfig, FlatStrip, InfiniteDepth, _Sweeper, _series_engine,
                 dn_fixed_point)
from .dn_oracle import oracle_dn
from .elastic import elastic_E, elastic_split, gateaux_dE, symbol_ell
from .grid import Field, PeriodicGrid, sobolev_norm
from .paracalc import para_apply
from .params import Geometry, PhysicalParams
from .pressure import pressure_fixed_point, pressure_oracle
from .evolution import (scaling_experiment, smoothing_fit, solve,
                        stability_experiment)


def _row(check, expected, measured, tolerance, passed=None):
    if passed is None:
        passed = abs(measured - expected) <= tolerance
    return {"check": check, "expected": float(expected),
            "measured": float(measured), "tolerance": float(tolerance),
            "passed": bool(passed)}


def _measured_rate(k, params, n=64, T=1e-3, steps=4):
    grid = PeriodicGrid(n, 2.0 * np.pi)
    eta0 = Field(grid, 1e-6 * np.cos(k * grid.nodes))
    traj = solve(eta0, T, T / steps, params)
    c0 = np.abs(np.fft.rfft(traj.states[0].values))[k]
    c1 = np.abs(np.fft.rfft(traj.states[-1].values))[k]
    return float(np.log(c0 / c1) / T)


def suite_dispersion():
    rows = []
    for g in (0.0, 1.0):
        params = PhysicalParams(sigma=1.0, g=g, phase="one")
        for k in (1, 2, 3):
            pred = k * (k ** 4 + g)
            meas = _measured_rate(k, params)
            rows.append(_row("one_phase_k%d_g%g" % (k, g), pred, meas,
                             1e-3 * abs(pred)))
    params = PhysicalParams(sigma=1.0, g=1.0, mu_minus=3.0, mu_plus=2.0,
                            rho_minus=2.0, rho_plus=1.0, phase="two")
    for k in (1, 2, 3):
        pred = k * (k ** 4 + 1.0) / 5.0
        meas = _measured_rate(k, params)
        rows.append(_row("two_phase_k%d" % k, pred, meas, 1e-3 * abs(pred)))
    # unstable ordering: k=1 grows, k=2 decays, both at the signed rate
    params = PhysicalParams(sigma=1.0, g=2.0, mu_minus=3.0, mu_plus=2.0,
                            rho_minus=1.0, rho_plus=2.0, phase="two",
                            allow_unstable=True)
    for k in (1, 2):
        pred = k * (k ** 4 - 2.0) / 5.0
        meas = _measured_rate(k, params, T=1e-2, steps=8)
        rows.append(_row("unstable_k%d" % k, pred, meas, 1e-2 * abs(pred)))
    return rows


def exact_trace(x, eta, eta_x, k, geometry):
    """A datum f on the interface y = eta(x) and its exact G f.

    phi = e^{ky} cos kx bottomless, and cosh(k(y+h)) cos kx / cosh(kh) over
    a wall at depth h, is harmonic in the fluid and meets the bottom
    condition, so its trace and normal flux are exact for every eta.
    """
    if isinstance(geometry, InfiniteDepth):
        lift = np.exp(k * eta)
        return (lift * np.cos(k * x),
                k * lift * (np.cos(k * x) + eta_x * np.sin(k * x)))
    h = geometry.h
    c = np.cosh(k * (eta + h)) / np.cosh(k * h)
    s = np.sinh(k * (eta + h)) / np.cosh(k * h)
    return c * np.cos(k * x), k * (s * np.cos(k * x) + eta_x * c * np.sin(k * x))


# relative max errors of G f on the exact traces of eta = a (sin x +
# 0.25 cos(2x + 1)) at n = 128 with DNConfig() defaults, as measured, by
# (engine, geometry, k, slope); each row's tolerance is 5 times its figure
EXACT_ERRORS = {
    ("level", "bottomless"): {(1, 0.07): 1.72e-5, (3, 0.07): 1.74e-7,
                              (1, 0.15): 3.27e-5, (3, 0.15): 6.05e-7},
    ("level", "strip1"): {(1, 0.07): 5.97e-6, (3, 0.07): 2.73e-6,
                          (1, 0.15): 1.08e-5, (3, 0.15): 4.84e-6},
    ("series", "bottomless"): {(1, 0.07): 1.34e-13, (3, 0.07): 1.16e-13,
                               (1, 0.15): 2.14e-12, (3, 0.15): 2.91e-12},
    ("series", "strip1"): {(1, 0.07): 1.24e-13, (3, 0.07): 1.20e-13,
                           (1, 0.15): 3.85e-12, (3, 0.15): 2.44e-12},
}
# the amplitude a of each slope max|eta_x|
EXACT_AMPLITUDES = {0.07: 0.05, 0.15: 0.1}
# the DN engine of each method in EXACT_ERRORS
ENGINES = {"level": _Sweeper, "series": _series_engine}


def _exact_rows():
    grid = PeriodicGrid(128, 2.0 * np.pi)
    x = grid.nodes
    geometries = {"bottomless": InfiniteDepth(), "strip1": FlatStrip(1.0)}
    rows = []
    for (engine, name), errors in EXACT_ERRORS.items():
        for (k, slope), measured in errors.items():
            a = EXACT_AMPLITUDES[slope]
            eta = a * (np.sin(x) + 0.25 * np.cos(2 * x + 1))
            eta_x = a * (np.cos(x) - 0.5 * np.sin(2 * x + 1))
            f, exact = exact_trace(x, eta, eta_x, k, geometries[name])
            gf = ENGINES[engine](grid, eta, DNConfig(),
                                 geometries[name]).converged_gf(f)
            err = np.max(np.abs(gf - exact)) / np.max(np.abs(exact))
            rows.append(_row("exact_%s_%s_k%d_slope%g" % (engine, name, k,
                                                          slope),
                             0.0, err, 5.0 * measured))
    return rows


def suite_dn():
    rows = []
    grid = PeriodicGrid(128, 2.0 * np.pi)
    x = grid.nodes
    cfg = DNConfig(lipschitz_gate=1.0)
    pairs = [("0.05sin_x__cos_x", 0.05 * np.sin(x), np.cos(x)),
             ("0.1sin_x__cos_2x", 0.1 * np.sin(x), np.cos(2 * x)),
             ("0.1cos_2x__sin_x", 0.1 * np.cos(2 * x), np.sin(x))]
    for name, ev, fv in pairs:
        eta, f = Field(grid, ev), Field(grid, fv)
        gf = dn_fixed_point(eta, f, cfg).require_converged().gf
        ref = oracle_dn(eta, f)
        rel = np.linalg.norm(gf.values - ref.values) \
            / np.linalg.norm(ref.values)
        rows.append(_row("dn_oracle_%s" % name, 0.0, rel, 1e-3))
    flat = Field(grid, np.zeros(grid.n))
    for k in (1, 2, 3):
        gf = dn_fixed_point(flat, Field(grid, np.cos(k * x)), cfg,
                            FlatStrip(1.0)).require_converged().gf
        exact = k * np.tanh(k * 1.0) * np.cos(k * x)
        err = np.max(np.abs(gf.values - exact))
        rows.append(_row("strip_exact_k%d" % k, 0.0, err, 1e-6))
    return rows + _exact_rows()


def suite_gateaux(seed=1234):
    rows = []
    grid = PeriodicGrid(128, 2.0 * np.pi)
    rng = np.random.default_rng(seed)
    eps = 1e-4
    for trial in range(5):
        eta = _random_field(grid, rng, 0.25)
        etadot = _random_field(grid, rng, 1.0)
        if sobolev_norm(eta, 2.0) > 0.3:
            eta = eta * (0.3 / sobolev_norm(eta, 2.0) * 0.9)
        de = gateaux_dE(eta, etadot)
        fd = (elastic_E(eta + etadot * eps).values
              - elastic_E(eta - etadot * eps).values) / (2 * eps)
        rel = np.linalg.norm(de.values - fd) / np.linalg.norm(fd)
        rows.append(_row("gateaux_trial%d" % trial, 0.0, rel, 1e-6))
    return rows


def _random_field(grid, rng, amplitude, kmax=8, decay=3.0):
    vals = np.zeros(grid.n)
    for k in range(1, kmax + 1):
        a = rng.normal() / k ** decay
        p = rng.uniform(0, 2 * np.pi)
        vals += a * np.cos(k * 2 * np.pi / grid.length * grid.nodes + p)
    m = np.max(np.abs(vals))
    return Field(grid, vals * (amplitude / m if m > 0 else 0.0))


def suite_paralinearization():
    rows = []
    grid = PeriodicGrid(128, 2.0 * np.pi)
    x = grid.nodes
    eps_list = [1e-1, 3e-2, 1e-2, 3e-3]
    errs = []
    for eps in eps_list:
        eta = Field(grid, eps * np.sin(2 * x))
        principal = para_apply(symbol_ell(eta), eta)
        diff = elastic_E(eta) - principal
        errs.append(sobolev_norm(diff, 0.5))
    slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
    rows.append(_row("remainder_slope", 3.0, slope, 1.0,
                     passed=slope >= 2.0))
    # split reconstructs E exactly
    eta = Field(grid, 0.1 * np.sin(2 * x))
    sp = elastic_split(eta)
    recon = sp.principal + sp.remainder
    err = np.max(np.abs(recon.values - elastic_E(eta).values))
    rows.append(_row("split_reconstruction", 0.0, err, 1e-12))
    # the two elastic forms agree spectrally
    rels = []
    for n in (256, 512):
        gg = PeriodicGrid(n, 2.0 * np.pi)
        eta = Field(gg, 0.3 * np.sin(gg.nodes))
        ea = elastic_E(eta, form="A")
        eb = elastic_E(eta, form="B")
        rels.append(sobolev_norm(ea - eb, 0.0) / sobolev_norm(ea, 0.0))
    rows.append(_row("form_identity_n256", 0.0, rels[0], 1e-8))
    # both evaluations sit at the roundoff floor, so refinement passes when
    # the finer grid is no worse than that floor
    floor = max(rels[0], 1e-14)
    rows.append(_row("form_identity_refines", 0.0, rels[1], floor,
                     passed=rels[1] <= floor))
    return rows


def suite_scaling():
    rows = []
    params = PhysicalParams(sigma=1.0, g=0.0, phase="one")
    defects = []
    for n, steps in ((64, 8), (128, 16)):
        grid = PeriodicGrid(n, 2.0 * np.pi)
        eta0 = Field(grid, 0.02 * np.sin(grid.nodes))
        rep = scaling_experiment(eta0, 2, 1e-3, 1e-3 / steps, params)
        defects.append(rep["defect"])
    # both runs solve their DN problems by the series, which has no level
    # error, so the symmetry holds to roundoff (3.8e-16 and 2.7e-15
    # measured; 4.6e-10 and 1.1e-10 on the level solver)
    rows.append(_row("scaling_defect", 0.0, defects[0], 1e-12))
    # refinement passes when the finer grid halves the defect or is no
    # worse than the roundoff floor
    floor = max(0.5 * defects[0], 1e-14)
    rows.append(_row("scaling_defect_refines", 0.0, defects[1], floor,
                     passed=defects[1] <= floor))
    return rows


def suite_stability():
    rows = []
    params = PhysicalParams(sigma=1.0, g=0.0, phase="one")
    grid = PeriodicGrid(64, 2.0 * np.pi)
    x = grid.nodes
    eta0 = Field(grid, 0.05 * np.sin(x))
    ratios = []
    for amp in (1e-6, 1e-5, 1e-4):
        rep = stability_experiment(eta0, Field(grid, amp * np.cos(x)),
                                   0.5, 0.02, params)
        ratios.append(rep["ratio"])
    spread = max(ratios) / min(ratios)
    rows.append(_row("stability_ratio_spread", 1.0, spread, 1.0,
                     passed=spread < 2.0))
    # mean conservation over T=1
    tail = _random_field(grid, np.random.default_rng(7), 0.01)
    eta0 = Field(grid, 0.02 * np.sin(x) + tail.values + 0.003)
    traj = solve(eta0, 1.0, 0.05, params)
    drift = abs(np.mean(traj.states[-1].values) - np.mean(eta0.values))
    rows.append(_row("mean_drift", 0.0, drift, 1e-10))
    # instantaneous smoothing of a |k|^{-2} tail, fitted at a time where
    # the modes k >= 16 have decayed by e^{-0.3} to e^{-10} (t k_max^5 is
    # about 10), so the fit reads the rate and not the FFT's rounding
    # the rfft half spectrum of sum_j 1e-3 j^-2 cos(j x + phase_j), 0 < j < n/2
    j = np.arange(1, grid.n // 2)
    phases = np.random.default_rng(11).uniform(0, 2 * np.pi, len(j))
    c_hat = np.zeros(grid.n // 2 + 1, dtype=complex)
    c_hat[1:-1] = 0.5 * grid.n * 1e-3 / j ** 2 * np.exp(1j * phases)
    eta0 = Field(grid, np.fft.irfft(c_hat, grid.n))
    t = 3e-7
    traj = solve(eta0, t, t / 4, params)
    cfit = smoothing_fit(eta0, traj.states[-1], t, grid.n // 4)
    rows.append(_row("smoothing_exponent", 1.0, cfit, 1e-2))
    return rows


def _fixed_point_vs_oracle(eta, params):
    """The fixed-point pressure pair and the L2 deviation of its f^- from
    the dense referee's (12 modes), relative to the referee's."""
    fp = pressure_fixed_point(eta, params)
    orc = pressure_oracle(eta, params, n_modes=12)
    rel = np.linalg.norm(fp.f_minus.values - orc.f_minus.values) \
        / np.linalg.norm(orc.f_minus.values)
    return fp, rel


def suite_two_phase():
    rows = []
    grid = PeriodicGrid(64, 2.0 * np.pi)
    params = PhysicalParams(sigma=1.0, g=1.0, mu_minus=1.0, mu_plus=1.0,
                            rho_minus=2.0, rho_plus=1.0, phase="two")
    eta = Field(grid, 1e-3 * np.sin(2 * grid.nodes))
    fp, rel = _fixed_point_vs_oracle(eta, params)
    rows.append(_row("pressure_fp_vs_oracle", 0.0, rel, 1e-8))
    rows.append(_row("jump_residual", 0.0, fp.jump_residual, 1e-9))
    rows.append(_row("flux_residual", 0.0, fp.flux_residual, 1e-6))
    rows.append(_row("mean_gauge", 0.0,
                     abs(np.mean(fp.f_minus.values)), 1e-15))
    # the same interface between walls at distance 1: the series engines
    # warm-start over strips, below, above and on both sides
    for name, geometry in (
            ("flat_bottom", Geometry("flat_bottom", h_minus=1.0)),
            ("flat_top", Geometry("flat_top", h_plus=1.0)),
            ("both_walls", Geometry("flat_bottom", h_minus=1.0, h_plus=1.0))):
        _, rel = _fixed_point_vs_oracle(eta,
                                        replace(params, geometry=geometry))
        rows.append(_row("pressure_fp_vs_oracle_%s" % name, 0.0, rel, 1e-8))
    return rows


SUITES = {"dispersion": suite_dispersion, "dn": suite_dn,
          "gateaux": suite_gateaux,
          "paralinearization": suite_paralinearization,
          "scaling": suite_scaling, "stability": suite_stability,
          "two_phase": suite_two_phase}
