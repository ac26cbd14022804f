"""Sanity checks for the Dirichlet-Neumann solve.

Three views of G(eta)f: the exact flat-interface multipliers (|k| in the
bottomless case, |k| tanh(h|k|) over a flat bottom), the boundary-flattened
fixed-point solve for a wavy interface, and an independent finite-difference
referee on the flattened domain.
"""

import numpy as np

from elastic_muskat.dn import DNConfig, FlatStrip, dn_fixed_point
from elastic_muskat.dn_oracle import oracle_dn
from elastic_muskat.grid import Field, PeriodicGrid

grid = PeriodicGrid(128)
x = grid.nodes
flat = Field(grid, np.zeros(grid.n))

print("flat interface, depth 1 strip, G cos(kx) = k tanh(k) cos(kx):")
for k in (1, 2, 3):
    gf = dn_fixed_point(flat, Field(grid, np.cos(k * x)),
                        geometry=FlatStrip(1.0)).require_converged().gf
    err = np.max(np.abs(gf.values - k * np.tanh(k) * np.cos(k * x)))
    print("  k=%d  max err %.2e" % (k, err))

print("\nwavy interface vs finite-difference referee (relative L2):")
cfg = DNConfig(lipschitz_gate=1.0)
for name, ev, fv in [("0.05 sin x / cos x", 0.05 * np.sin(x), np.cos(x)),
                     ("0.1 sin x / cos 2x", 0.1 * np.sin(x), np.cos(2 * x)),
                     ("0.1 cos 2x / sin x", 0.1 * np.cos(2 * x), np.sin(x))]:
    eta, f = Field(grid, ev), Field(grid, fv)
    res = dn_fixed_point(eta, f, cfg).require_converged()
    ref = oracle_dn(eta, f)
    rel = np.linalg.norm(res.gf.values - ref.values) \
        / np.linalg.norm(ref.values)
    print("  %-20s %.2e  (%d fixed-point iterations)"
          % (name, rel, res.iterations))
