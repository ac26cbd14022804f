"""Physical parameters and the linearized flat-interface symbol."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Geometry:
    """Fluid-domain geometry: bottomless, flat_bottom(h), or flat_top also
    set for the two-phase strip-above case.

    h_minus is the bottom wall's depth and is set only for flat_bottom;
    h_plus > 0 puts a top wall above the upper fluid of a two-phase run.
    """

    kind: str = "bottomless"
    h_minus: float = 0.0
    h_plus: float = 0.0

    def __post_init__(self):
        if self.kind not in ("bottomless", "flat_bottom", "flat_top"):
            raise ConfigError("unknown geometry kind %r" % (self.kind,))
        if not (0 <= self.h_minus < np.inf and 0 <= self.h_plus < np.inf):
            raise ConfigError("wall depths must be nonnegative and finite, "
                              "not h_minus %r, h_plus %r"
                              % (self.h_minus, self.h_plus))
        if self.kind == "flat_bottom" and not self.h_minus > 0:
            raise ConfigError("flat_bottom requires h_minus > 0")
        if self.kind == "flat_top" and not self.h_plus > 0:
            raise ConfigError("flat_top requires h_plus > 0")
        if self.kind != "flat_bottom" and self.h_minus > 0:
            raise ConfigError("h_minus > 0 requires the flat_bottom kind, "
                              "not %r" % (self.kind,))


def wall_distances(geometry: Geometry, heights=0.0) -> dict:
    """Distance from the interface y = heights to each rigid wall, by side.

    A "bottom" wall lies at y = -h_minus when the kind is flat_bottom and a
    "top" wall at y = h_plus when h_plus > 0; a side without a wall has no
    entry.  The default, a flat interface at y = 0, gives the wall depths.
    This is the one place that reads the geometry kind.
    """
    walls = {}
    if geometry.kind == "flat_bottom":
        walls["bottom"] = geometry.h_minus + float(np.min(heights))
    if geometry.h_plus > 0:
        walls["top"] = geometry.h_plus - float(np.max(heights))
    return walls


@dataclass(frozen=True)
class PhysicalParams:
    sigma: float = 1.0          # flexural rigidity
    g: float = 0.0              # gravity
    mu_minus: float = 1.0
    mu_plus: float = 0.0
    rho_minus: float = 1.0
    rho_plus: float = 0.0
    phase: str = "one"
    geometry: Geometry = field(default_factory=Geometry)
    allow_unstable: bool = False

    def __post_init__(self):
        if self.phase not in ("one", "two"):
            raise ConfigError("phase must be 'one' or 'two'")
        for name in ("sigma", "g", "mu_minus", "mu_plus", "rho_minus",
                     "rho_plus"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError("%s must be finite, not %r"
                                  % (name, getattr(self, name)))
        if not self.sigma > 0:
            raise ConfigError("sigma must be positive")
        if self.g < 0:
            raise ConfigError("g must be nonnegative")
        if not self.mu_minus > 0:
            raise ConfigError("mu_minus must be positive")
        if not self.rho_minus > 0:
            raise ConfigError("rho_minus must be positive")
        if self.phase == "one":
            if self.mu_plus != 0.0 or self.rho_plus != 0.0:
                raise ConfigError("one-phase requires mu_plus = rho_plus = 0")
            if self.geometry.h_plus > 0:
                raise ConfigError("one-phase has no upper fluid, so no top "
                                  "wall: h_plus must be 0")
        else:
            if not self.mu_plus > 0:
                raise ConfigError("two-phase requires mu_plus > 0")
            if self.rho_plus < 0:
                raise ConfigError("rho_plus must be nonnegative")
        if not self.stable_regime and not self.allow_unstable:
            raise ConfigError(
                "unstable density ordering (rho_plus > rho_minus) requires "
                "allow_unstable=True")

    @property
    def stable_regime(self) -> bool:
        """Denser fluid below: gravity damps rather than amplifies."""
        return self.rho_plus <= self.rho_minus

    @property
    def mu_eff(self) -> float:
        return self.mu_minus if self.phase == "one" else \
            self.mu_plus + self.mu_minus

    @property
    def delta_rho(self) -> float:
        """Density contrast entering the gravity term."""
        return self.rho_minus if self.phase == "one" else \
            self.rho_minus - self.rho_plus


@dataclass(frozen=True)
class LinearSymbol:
    """Flat-interface linear multiplier nu1 |k|^5 + nu2 |k|."""

    nu1: float
    nu2: float

    @classmethod
    def from_params(cls, params: PhysicalParams) -> "LinearSymbol":
        return cls(nu1=params.sigma / params.mu_eff,
                   nu2=params.g * params.delta_rho / params.mu_eff)

    def rate(self, k) -> float:
        a = abs(k)
        return self.nu1 * a ** 5 + self.nu2 * a
