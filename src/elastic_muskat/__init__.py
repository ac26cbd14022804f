"""Pseudo-spectral simulator for Darcy flow beneath an elastic interface."""

from .errors import (ConfigError, DegenerateJacobian, MuskatError,
                     NonFiniteState, NotContracting, SeparationLost)
from .grid import (Field, PeriodicGrid, abs_d, dx, inv_abs_d, lipschitz_norms,
                   lp_project, mean, semigroup_apply, sobolev_norm, to_field,
                   to_spectrum, zero_field, zygmund_norm)
from .paracalc import OrderedSymbol, SymbolTerm, para_apply, paraproduct
from .elastic import ElasticSplit, curvature, elastic_E, elastic_split, gateaux_dE, symbol_ell

__version__ = "0.1.0"

from .params import Geometry, LinearSymbol, PhysicalParams
from .dn import (DNConfig, DNResult, FlatStrip, InfiniteDepth, VerticalGrid,
                 dn_fixed_point, dn_shape_difference, dn_upper, harmonic_lift,
                 make_vertical_grid)
from .dn_oracle import oracle_dn
from .pressure import (PressureConfig, PressurePair, pressure_fixed_point,
                       pressure_oracle)
from .evolution import (SolveConfig, Trajectory, default_dt, etd_step,
                        nonlinear_remainder, picard_solve, rhs,
                        scaling_experiment, smoothing_fit, solve,
                        stability_experiment)
