"""Acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail line;
most reuse the verification suites (cached so each suite runs once), the
cross-solver and temporal-order criteria are computed directly.
"""

import functools

import numpy as np
import pytest

from elastic_muskat.dn import DNConfig
from elastic_muskat.errors import NotContracting
from elastic_muskat.evolution import SolveConfig, etd_step, picard_solve, solve
from elastic_muskat.grid import Field, PeriodicGrid, sobolev_norm, zero_field
from elastic_muskat.params import LinearSymbol, PhysicalParams
from elastic_muskat.verify import SUITES

from helpers import fft_wavenumbers


@functools.lru_cache(maxsize=None)
def suite(name):
    return SUITES[name]()


def finish(number, label, passed, detail=""):
    tag = "pass" if passed else "FAIL"
    extra = " (%s)" % detail if detail else ""
    print("criterion %02d %-28s %s%s" % (number, label, tag, extra))
    assert passed, "criterion %d (%s) failed%s" % (number, label, extra)


def rows_pass(rows):
    return all(r["passed"] for r in rows)


def test_criterion_01_dispersion_one_phase():
    rows = [r for r in suite("dispersion") if r["check"].startswith("one_phase")]
    assert len(rows) == 6
    finish(1, "one_phase_dispersion", rows_pass(rows))


def test_criterion_02_dispersion_two_phase():
    rows = [r for r in suite("dispersion")
            if r["check"].startswith(("two_phase", "unstable"))]
    assert len(rows) == 5
    finish(2, "two_phase_dispersion", rows_pass(rows))


def test_criterion_03_dn_oracle():
    finish(3, "dn_oracle_agreement", rows_pass(suite("dn")))


def test_criterion_04_gateaux():
    finish(4, "gateaux_derivative", rows_pass(suite("gateaux")))


def test_criterion_05_paralinearization_order():
    rows = [r for r in suite("paralinearization")
            if r["check"] in ("remainder_slope", "split_reconstruction")]
    assert len(rows) == 2
    slope = next(r["measured"] for r in rows
                 if r["check"] == "remainder_slope")
    finish(5, "paralinearization_order", rows_pass(rows),
           "slope %.2f" % slope)


def test_criterion_06_elastic_form_identity():
    rows = [r for r in suite("paralinearization")
            if r["check"].startswith("form_identity")]
    assert len(rows) == 2
    finish(6, "elastic_form_identity", rows_pass(rows))


def test_criterion_07_scaling_invariance():
    finish(7, "scaling_invariance", rows_pass(suite("scaling")))


def test_criterion_08_two_phase_pressure():
    finish(8, "two_phase_pressure", rows_pass(suite("two_phase")))


def test_criterion_09_conservation_smoothing():
    rows = [r for r in suite("stability")
            if r["check"] in ("mean_drift", "smoothing_exponent")]
    assert len(rows) == 2
    finish(9, "conservation_smoothing", rows_pass(rows))


def test_criterion_10_lipschitz_stability():
    rows = [r for r in suite("stability")
            if r["check"] == "stability_ratio_spread"]
    assert len(rows) == 1
    finish(10, "lipschitz_stability", rows_pass(rows),
           "spread %.3f" % rows[0]["measured"])


def test_criterion_11_cross_solver():
    grid = PeriodicGrid(64)
    params = PhysicalParams(sigma=1.0, g=0.0, phase="one")
    cfg = SolveConfig(dn=DNConfig(n_levels=48))
    T = 0.5
    eta0 = Field(grid, 1e-4 * np.cos(grid.nodes))
    tp = picard_solve(eta0, T, params, cfg, dt=T / 16)
    te = solve(eta0, T, T / 64, params, cfg)
    diff = sobolev_norm(tp.states[-1] - te.states[-1], 2.0)
    with pytest.raises(NotContracting):
        picard_solve(Field(grid, np.cos(grid.nodes)), T, params, cfg,
                     dt=T / 32)
    finish(11, "cross_solver", diff < 1e-6, "H2 diff %.2e" % diff)


def test_criterion_12_temporal_order():
    grid = PeriodicGrid(64)
    params = PhysicalParams(sigma=1.0, g=0.0, phase="one")
    cfg = SolveConfig(dn=DNConfig(n_levels=48))
    eta0 = Field(grid, 0.05 * np.cos(grid.nodes))
    T = 0.02
    ref = solve(eta0, T, T / 128, params, cfg).states[-1]
    errs = []
    for nsteps in (8, 16):
        run = solve(eta0, T, T / nsteps, params, cfg).states[-1]
        errs.append(np.max(np.abs((run - ref).values)))
    order = float(np.log2(errs[0] / errs[1]))
    # exact semigroup when the remainder is zeroed
    dt = 0.07
    out = etd_step(eta0, dt, params, nonlinear=lambda e: zero_field(e.grid))
    m = LinearSymbol.from_params(params).rate(fft_wavenumbers(grid))
    exact = np.fft.ifft(np.exp(-dt * m) * np.fft.fft(eta0.values)).real
    lin_err = float(np.max(np.abs(out.values - exact)))
    finish(12, "temporal_order",
           abs(order - 2.0) <= 0.2 and lin_err < 1e-13,
           "order %.2f, linear err %.1e" % (order, lin_err))
