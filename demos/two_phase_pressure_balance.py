"""Solve the two-phase trace-pressure system and check its balances.

The pressures on either side of the interface must differ by the elastic
plus gravity jump while the normal velocities match.  The solve, here one
pass of the pressure's series in the interface height, is compared against
a dense collocation referee, then the right-hand side fed to the evolution
is shown for a small two-mode interface.
"""

import numpy as np

from elastic_muskat.evolution import SolveConfig, rhs
from elastic_muskat.grid import Field, PeriodicGrid, mean
from elastic_muskat.params import PhysicalParams
from elastic_muskat.pressure import pressure_fixed_point, pressure_oracle

params = PhysicalParams(sigma=1.0, g=1.0, mu_minus=1.0, mu_plus=1.5,
                        rho_minus=2.0, rho_plus=1.0, phase="two")
grid = PeriodicGrid(128)
eta = Field(grid, 0.02 * np.cos(grid.nodes)
            + 0.01 * np.sin(2.0 * grid.nodes))

pair = pressure_fixed_point(eta, params)
print("series degrees:          %d" % pair.iterations)
print("jump residual:           %.2e" % pair.jump_residual)
print("flux residual:           %.2e" % pair.flux_residual)
print("mean(f^-) gauge:         %.2e" % abs(mean(pair.f_minus)))

ref = pressure_oracle(eta, params, n_modes=16)
rel = np.linalg.norm(pair.f_minus.values - ref.f_minus.values) \
    / np.linalg.norm(ref.f_minus.values)
print("vs dense referee:        %.2e relative" % rel)

vel = rhs(eta, params, SolveConfig())
print("\ninterface velocity range: [%.4e, %.4e]"
      % (vel.values.min(), vel.values.max()))
