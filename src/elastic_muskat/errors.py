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
    """
    changes, grow = [], 0
    for _ in range(max_iter):
        change = sweep()
        changes.append(change)
        if change < tol:
            return changes, True
        grow = grow + 1 if len(changes) > 1 and change >= changes[-2] else 0
        if grow >= patience:
            raise NotContracting(
                "%s changes non-decreasing for %d sweeps (last %.3g)"
                % (what, patience, change))
    return changes, False
