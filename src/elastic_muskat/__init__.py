"""Pseudo-spectral simulator for Darcy flow beneath an elastic interface."""

from .errors import (ConfigError, DegenerateJacobian, MuskatError,
                     NonFiniteState, NotContracting, SeparationLost)
from .grid import (Field, PeriodicGrid, dx, lipschitz_norms, mean,
                   sobolev_norm, zero_field)
from .paracalc import OrderedSymbol, SymbolTerm, para_apply
from .elastic import (ElasticSplit, elastic_E, elastic_split, gateaux_dE,
                      symbol_ell)

__version__ = "0.1.0"

from .params import Geometry, LinearSymbol, PhysicalParams
from .dn import (DNConfig, DNResult, FlatStrip, InfiniteDepth,
                 dn_fixed_point, dn_upper, make_vertical_grid)
from .pressure import PressurePair, pressure_fixed_point, pressure_oracle
from .evolution import (SolveConfig, Trajectory, etd_step,
                        nonlinear_remainder, picard_solve, rhs,
                        scaling_experiment, smoothing_fit, solve,
                        stability_experiment)
