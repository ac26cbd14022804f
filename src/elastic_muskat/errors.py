"""Exception types shared across the solver stack."""


class MuskatError(Exception):
    """Base class for solver failures."""


class DegenerateJacobian(MuskatError):
    """The boundary-flattening change of variables is near-singular."""


class NotContracting(MuskatError):
    """A fixed-point iteration left its contraction regime."""


class DepthTruncationInsufficient(MuskatError):
    """The truncated vertical domain cannot meet the tail tolerance."""


class SeparationLost(MuskatError):
    """The interface approached a rigid boundary during time stepping."""


class NonFiniteState(MuskatError, ValueError):
    """A field took a non-finite value."""


class ConfigError(MuskatError):
    """Invalid run configuration."""
