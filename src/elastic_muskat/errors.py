"""Exception types shared across the solver stack, and ``iterate``, the one
stop rule of its fixed-point iterations."""


class MuskatError(Exception):
    """Base class for solver failures."""


class DegenerateJacobian(MuskatError):
    """The boundary-flattening change of variables is near-singular."""


class NotContracting(MuskatError):
    """A fixed-point iteration left its contraction regime."""


class SeparationLost(MuskatError):
    """The interface approached a rigid boundary during time stepping."""


class NonFiniteState(MuskatError, ValueError):
    """A field took a non-finite value."""


class ConfigError(MuskatError):
    """Invalid run configuration."""


def iterate(sweep, tol, max_iter, patience, what):
    """Call ``sweep()``, which returns its change, until a change is below
    ``tol``; returns (changes, converged), unconverged after ``max_iter``.

    NotContracting, naming ``what``, once ``patience`` changes in a row are
    no smaller than the one before.  The caller decides what the cap means.

    A sweep of several problems at once returns a list, one change per
    row, and a single change is a sweep of one row.  The rule holds row by
    row: a row stops at its first change below ``tol`` and is not watched
    after it, the loop returns once every row has stopped, and it raises
    once a row still going has ``patience`` non-decreasing changes.  Each
    row's stop is its first change below ``tol`` in the returned changes.
    """
    stalled = "%s changes non-decreasing for %d sweeps (last %.3g)"
    changes, grow, previous = [], None, None
    for _ in range(max_iter):
        change = sweep()
        changes.append(change)
        row_changes = change if isinstance(change, list) else (change,)
        if grow is None:
            # each row's count of non-decreasing changes, None once stopped;
            # no change is at least NaN, so a first change counts 0
            grow = [0] * len(row_changes)
            previous = [float("nan")] * len(row_changes)
        going, row = False, 0
        for c in row_changes:
            g = grow[row]
            if g is not None:
                if c < tol:
                    grow[row] = None
                else:
                    g = grow[row] = g + 1 if c >= previous[row] else 0
                    if g >= patience:
                        raise NotContracting(stalled % (what, patience, c))
                    going = True
            row += 1
        if not going:
            return changes, True
        previous = row_changes
    return changes, False
