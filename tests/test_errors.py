import numpy as np
import pytest

from elastic_muskat import dn, dn_oracle, evolution, pressure
from elastic_muskat.dn import DNConfig, dn_fixed_point
from elastic_muskat.errors import NotContracting, iterate
from elastic_muskat.evolution import SolveConfig, picard_solve
from elastic_muskat.grid import Field, PeriodicGrid
from elastic_muskat.params import PhysicalParams


def sweeps(changes):
    """A sweep that returns ``changes`` one call at a time."""
    it = iter(changes)
    return lambda: next(it)


# --- the stop rule -----------------------------------------------------------


def shapes(changes):
    """A sweep of ``changes`` and the same changes as a sweep of one row,
    each with a reader of that one row's changes."""
    yield sweeps(changes), lambda got: got
    yield sweeps([[c] for c in changes]), lambda got: [c for c, in got]


def test_stops_at_the_first_change_below_tol():
    for sweep, row in shapes([1.0, 0.1, 1e-3, 1e-9, 1e-12]):
        changes, converged = iterate(sweep, 1e-8, 10, 5, "test")
        assert converged and row(changes) == [1.0, 0.1, 1e-3, 1e-9]


def test_cap_returns_unconverged():
    for sweep, row in shapes([1.0 / k for k in range(1, 20)]):
        changes, converged = iterate(sweep, 1e-8, 4, 5, "test")
        assert not converged and row(changes) == [1.0, 0.5, 1.0 / 3, 0.25]


def test_patience_non_decreasing_changes_raise():
    # the first change has nothing to grow from; then three rises in a row
    for sweep, _ in shapes([1.0, 1.0, 2.0, 2.0, 0.0]):
        with pytest.raises(NotContracting,
                           match=r"test changes non-decreasing for 3 sweeps "
                                 r"\(last 2\)"):
            iterate(sweep, 1e-8, 10, 3, "test")


def test_a_falling_change_resets_the_count():
    # two rises, a fall, two rises: never three in a row
    for sweep, row in shapes([1.0, 2.0, 3.0, 0.5, 0.6, 0.7, 1e-9]):
        changes, converged = iterate(sweep, 1e-8, 10, 3, "test")
        assert converged and len(row(changes)) == 7


def test_nan_changes_run_to_the_cap():
    for sweep, row in shapes([np.nan] * 10):
        changes, converged = iterate(sweep, 1e-8, 6, 2, "test")
        assert not converged and len(row(changes)) == 6


def rows(*columns):
    """A sweep of several problems: one change per row and call."""
    return sweeps([list(step) for step in zip(*columns)])


def test_each_row_stops_at_its_own_first_change_below_tol():
    # the second row stops at its second change; its later changes, which
    # grow, are not watched
    changes, converged = iterate(
        rows([1.0, 0.1, 1e-3, 1e-9, 1.0], [1.0, 1e-9, 1.0, 2.0, 3.0]),
        1e-8, 10, 2, "test")
    assert converged and len(changes) == 4
    assert [np.flatnonzero(np.array(changes)[:, r] < 1e-8)[0]
            for r in range(2)] == [3, 1]


def test_a_row_still_going_raises_on_its_patience():
    with pytest.raises(NotContracting,
                       match=r"test changes non-decreasing for 2 sweeps "
                             r"\(last 4\)"):
        iterate(rows([1.0, 0.5, 0.25, 0.1], [1.0, 2.0, 4.0, 8.0]),
                1e-8, 10, 2, "test")


def test_rows_run_to_the_cap_while_one_is_going():
    changes, converged = iterate(
        rows([1e-9] * 5, [1.0 / k for k in range(1, 6)], [np.nan] * 5),
        1e-8, 4, 2, "test")
    assert not converged and len(changes) == 4


# --- what each solver does at its cap ----------------------------------------


GRID = PeriodicGrid(64)
ETA = Field(GRID, 0.02 * np.sin(GRID.nodes))
# k_max max|eta| = 10.2, past the series' reach at the default tolerance
LEVEL_ETA = Field(PeriodicGrid(512), 0.04 * np.sin(PeriodicGrid(512).nodes))
CFG = SolveConfig(dn=DNConfig(n_levels=48))


def test_dn_solve_returns_unconverged_at_its_cap(monkeypatch):
    monkeypatch.setattr(dn, "MAX_ITER", 2)
    res = dn_fixed_point(ETA, Field(GRID, np.cos(GRID.nodes)), CFG.dn)
    assert not res.converged and res.iterations == 2
    assert len(res.residuals) == 2


@pytest.mark.parametrize("module, name, call, what", [
    # the joint iteration runs on the level solver, past the series' reach
    (pressure, "MAX_ITER",
     lambda: pressure.pressure_fixed_point(
         LEVEL_ETA, PhysicalParams(mu_plus=1.0, phase="two"), CFG.dn),
     "pressure iteration"),
    (dn, "SERIES_MAX_ORDER",
     lambda: pressure.pressure_fixed_point(
         ETA, PhysicalParams(mu_plus=1.0, phase="two"), CFG.dn),
     "pressure series"),
    (dn_oracle, "MAX_ITER",
     lambda: dn_oracle.oracle_dn(ETA, Field(GRID, np.cos(GRID.nodes))),
     "FD referee"),
    (evolution, "PICARD_MAX_ITER",
     lambda: picard_solve(ETA * 0.05, 0.1, PhysicalParams(), CFG, dt=0.05),
     "integral-equation"),
], ids=["pressure", "pressure_series", "referee", "picard"])
def test_other_solvers_raise_at_their_cap(module, name, call, what,
                                          monkeypatch):
    monkeypatch.setattr(module, name, 1)
    with pytest.raises(NotContracting, match=what + ".* not converged"):
        call()
