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
    row, and the rule holds row by row: a row stops at its first change
    below ``tol`` and is not watched after it, the loop returns once every
    row has stopped, and it raises once a row still going has ``patience``
    non-decreasing changes.  Each row's stop is its first change below
    ``tol`` in the returned changes.
    """
    stalled = "%s changes non-decreasing for %d sweeps (last %.3g)"
    changes, grow = [], 0
    for _ in range(max_iter):
        change = sweep()
        changes.append(change)
        if isinstance(change, list):
            # each row's count of non-decreasing changes, None once stopped
            previous = changes[-2] if len(changes) > 1 else change
            grow = [None if g is None or c < tol
                    else g + 1 if len(changes) > 1 and c >= p else 0
                    for g, c, p in zip(grow or [0] * len(change), change,
                                       previous)]
            if all(g is None for g in grow):
                return changes, True
            last = [c for g, c in zip(grow, change)
                    if g is not None and g >= patience]
            if last:
                raise NotContracting(stalled % (what, patience, last[0]))
        elif change < tol:
            return changes, True
        else:
            grow = grow + 1 if len(changes) > 1 and change >= changes[-2] \
                else 0
            if grow >= patience:
                raise NotContracting(stalled % (what, patience, change))
    return changes, False
