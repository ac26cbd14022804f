"""Two structural properties of the gravity-free flow.

First the instantaneous smoothing: a slowly decaying spectral tail picks up
an exp(-c t |k|^5) envelope immediately.  Second the scaling symmetry: if
eta(t, x) solves the equation so does lam^{-1} eta(lam^5 t, lam x), checked
by comparing two independent runs.
"""

import numpy as np

from elastic_muskat.evolution import (SolveConfig, scaling_experiment,
                                      smoothing_fit, solve)
from elastic_muskat.grid import Field, PeriodicGrid
from elastic_muskat.params import PhysicalParams

params = PhysicalParams(sigma=1.0, g=0.0)
grid = PeriodicGrid(64)

# |k|^{-2} tail with random phases
rng = np.random.default_rng(11)
c = np.zeros(grid.n, dtype=complex)
for j in range(1, grid.n // 2):
    ph = rng.uniform(0, 2 * np.pi)
    c[j] = 0.5e-3 / j ** 2 * np.exp(1j * ph)
    c[-j] = np.conj(c[j])
eta0 = Field(grid, np.fft.ifft(c * grid.n).real)

# t k_max^5 is about 10: the fitted modes k >= 16 decay by e^{-0.3} to
# e^{-10}, well above the FFT's rounding
t = 3e-7
traj = solve(eta0, t, t / 4, params, SolveConfig())
cfit = smoothing_fit(eta0, traj.states[-1], t, kmin=grid.n // 4)
print("fitted smoothing exponent c = %.4f  (want c = 1)" % cfit)

rep = scaling_experiment(eta0, 2, 5e-4, 5e-4 / 8, params, SolveConfig())
print("lambda=2 scaling defect = %.2e relative" % rep["defect"])
