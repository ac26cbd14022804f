"""Interfacial pressure solve for the two-phase problem.

The trace pressures f^- and f^+ satisfy a jump condition
f^- - f^+ = J = sigma E(eta) + g (rho^- - rho^+) eta together with continuity
of the normal velocity (1/mu^+) G^+ f^+ = (1/mu^-) G^- f^-.  Splitting the DN
operators into their flat parts -+|D| plus remainders R^+- turns this into a
fixed-point equation for phi = f^-,

    phi = [mu^- J + |D|^{-1} (mu^- R^+ (phi - J) - mu^+ R^- phi)] / (mu^+ + mu^-),

taken mean-free and contractive for small interfaces.  G^- and G^+ are
the two engines that dn._dn_engines makes for eta before anything is
solved, the Craig-Sulem series inside its measured reach and the level
solver past it (the rule and its scan are in dn's docstring).  The engines
share one contract and return G^+ and R^+ as they are, so the code below
is the same for both methods.  Each remainder is read off the last sweep
of an engine, and the three fixed points are linear in their unknowns, so
one joint iteration solves them together.  Each sweep makes

- one DN sweep of G^-, datum phi, which it sets first;
- one DN sweep of G^+, datum phi - J, likewise;
- the update of phi above from the two sweeps' remainders.

A level sweep is one Picard sweep of its problem.  A series sweep sums the
series to the DN tolerance, so it is exact for its datum to that tolerance
and the joint iteration is the plain phi iteration: 4 joint sweeps at
n = 128 on 0.02 cos x + 0.01 sin 2x, bottomless with mu^+ = mu^- (10 on the
level solver).  The first sweep restarts both engines, so the series sums
its data from order 0 and the level solver takes the lift as its iterate.
Every later datum is set without restart, so its sweep sums only the
datum's change since the last sum and adds it to the G f that sum kept,
and stops on the scale of the whole datum (dn._SeriesSum).  The data
change by less from sweep to sweep, so on that interface the 4 joint sums
take 7, 5, 3 and 1 orders, where full sums take 7 each.  A series that
reaches its order cap raises from its sweep, so the iteration stops there
and names the cause.

It starts from the flat-interface pressure phi_0 = mu^- J / (mu^+ + mu^-).
By errors.iterate it stops once the phi change, relative to max|phi_0|, is
below TOL and both DN sweep changes below the DN tolerance, and raises
NotContracting after MAX_ITER sweeps or 5 non-decreasing changes in a row.
This is an inexact inner solve (Dembo, Eisenstat & Steihaug, SIAM J. Numer.
Anal. 19, 1982) at its limit of one inner sweep per outer step, so each DN
problem pays its per-interface set-up once.

The solve returns the data of its last joint sweep: f^- is that sweep's
phi less its mean and f^+ = f^- - J, and G^- f^- and G^+ f^+ are read off
the same two DN sweeps, whose changes the stop rule has just held below
the DN tolerance.  No datum is set after that sweep, so each engine's G f
belongs to one datum (on the level solver a datum set later would replace
the f that G f reads), and the solve makes no public DN solve.  On the
series the last sums are warm, so G^- f^- and G^+ f^+ carry what each sum
since the first left out, each below the tolerance on the scale of its
datum.  The velocity reuses G^- f^-.  J, phi and the engines' data are
node arrays and the phi update runs on rfft half spectra; Fields are built
only for the returned PressurePair.

A dense collocation solve over a truncated Fourier basis serves as the
referee, pressure_oracle.  It builds the columns of G^+- by converged DN
solves, not by the joint iteration: one lower and one upper engine are made
for eta, and every solve of the call (each basis column, the jump and both
fluxes at its answer) runs to the DN tolerance on them, stopped by the
engine's errors.iterate rule.  Its columns equal fresh solves on the same
engines bit for bit (on the level solver, public dn_fixed_point and
dn_upper solves); an unconverged one raises NotContracting.
"""

from dataclasses import dataclass

import numpy as np

from .dn import DNConfig, _dn_engines, dn_geometries
from .elastic import elastic_E
from .errors import NotContracting, iterate
from .grid import Field, sobolev_norm
from .params import PhysicalParams


# joint sweeps before the solve gives up, and the phi change (relative to
# max|phi_0|) below which it may stop
MAX_ITER = 80
TOL = 1e-12
SMALLNESS_GATE = 0.1   # on ||eta||_{H^2}


@dataclass(frozen=True)
class PressurePair:
    f_minus: Field
    f_plus: Field
    jump_residual: float
    # flux continuity between the two DN sweeps of the last joint sweep;
    # G^- is checked independently by verify two_phase's
    # pressure_fp_vs_oracle and by the tests against fresh DN solves
    flux_residual: float
    iterations: int
    # G^-(eta) f^- from the last lower sweep, reused by the velocity
    g_minus: Field
    # G^+(eta) f^+ from the last upper sweep
    g_plus: Field

    def report(self) -> dict:
        return {"jump_residual": self.jump_residual,
                "flux_residual": self.flux_residual,
                "iterations": self.iterations}


def _jump_values(eta: Field, params: PhysicalParams) -> np.ndarray:
    """sigma E(eta) + g (rho^- - rho^+) eta at the nodes."""
    return elastic_E(eta).values * params.sigma \
        + eta.values * (params.g * params.delta_rho)


def pressure_fixed_point(eta: Field, params: PhysicalParams,
                         dn_cfg: DNConfig = DNConfig()) -> PressurePair:
    """Solve for the trace pressures by one joint Picard iteration.

    ``iterations`` counts joint sweeps, and the pair is read off the last
    one.  It makes no DN solve: every sweep runs on the two private
    engines that dn._dn_engines picks with ``dn_cfg``.
    """
    if params.phase != "two":
        raise ValueError("pressure solve is a two-phase operation")
    h2 = sobolev_norm(eta, 2.0)
    if h2 >= SMALLNESS_GATE:
        raise NotContracting(
            "||eta||_H2 = %.3g at or above pressure gate %.3g"
            % (h2, SMALLNESS_GATE))
    w_minus = params.mu_minus / (params.mu_plus + params.mu_minus)
    w_plus = params.mu_plus / (params.mu_plus + params.mu_minus)
    jump = _jump_values(eta, params)
    grid = eta.grid
    lower, upper = _dn_engines(grid, eta.values, dn_cfg, dn_geometries(params))
    # the update runs on rfft half spectra; |D|^{-1} maps the mean to 0
    absk = np.abs(grid.rfft_wavenumbers)
    inv_absk = np.divide(1.0, absk, out=np.zeros_like(absk), where=absk > 0)
    # the flat-interface pressure; every update is mean-free
    phi0_hat = np.fft.rfft(jump * w_minus)
    phi0_hat[0] = 0.0
    phi = np.fft.irfft(phi0_hat, grid.n)
    scale = max(np.max(np.abs(phi)), 1e-300)
    # the datum of the last joint sweep; the first sweep restarts both
    swept = None

    def sweep():
        nonlocal phi, swept
        lower.set_datum(phi, restart=swept is None)
        upper.set_datum(phi - jump, restart=swept is None)
        dn_res = max(lower.sweep(), upper.sweep())
        # mu^- R^+ - mu^+ R^- over mu^+ + mu^-
        r_hat = upper.remainder_hat() * w_minus - lower.remainder_hat() * w_plus
        swept, phi = phi, np.fft.irfft(phi0_hat + inv_absk * r_hat, grid.n)
        res = float(np.max(np.abs(phi - swept)) / scale)
        # below 1 once both tolerances hold
        return max(res / TOL, dn_res / dn_cfg.tol)

    errs, converged = iterate(sweep, 1.0, MAX_ITER, 5, "pressure iteration")
    if not converged:
        raise NotContracting("pressure iteration not converged after %d sweeps"
                             " (at %.3g x tolerance)" % (MAX_ITER, errs[-1]))

    # the data of the last joint sweep, whose G^- f^- and G^+ f^+ it read
    f_minus = swept - np.mean(swept)
    f_plus = f_minus - jump
    jres = np.linalg.norm(f_minus - f_plus - jump)
    jscale = max(np.linalg.norm(jump), 1e-300)
    gm = lower.gf()
    gp = upper.gf()
    flux = gp * (1.0 / params.mu_plus) - gm * (1.0 / params.mu_minus)
    fscale = max(np.linalg.norm(gm) / params.mu_minus, 1e-300)
    return PressurePair(f_minus=Field(grid, f_minus),
                        f_plus=Field(grid, f_plus),
                        jump_residual=float(jres / jscale),
                        flux_residual=float(np.linalg.norm(flux) / fscale),
                        iterations=len(errs), g_minus=Field(grid, gm),
                        g_plus=Field(grid, gp))


def pressure_oracle(eta: Field, params: PhysicalParams, n_modes: int = 16,
                    dn_cfg: DNConfig = DNConfig()) -> PressurePair:
    """Dense collocation referee for the pressure system.

    Columns of G^+- are built by DN solves on each truncated Fourier basis
    field; the flux-match equation plus a zero-mean gauge row is solved by
    least squares.  Every DN solve, to ``dn_cfg``'s tolerance, runs on one
    lower and one upper engine made for eta.  ``n_modes`` must be an
    integer with 1 <= n_modes < n/2: sin((n/2) x) vanishes on the grid.
    """
    if params.phase != "two":
        raise ValueError("pressure solve is a two-phase operation")
    grid = eta.grid
    if isinstance(n_modes, bool) \
            or not isinstance(n_modes, (int, np.integer)) \
            or not 1 <= n_modes < grid.n / 2:
        raise ValueError("n_modes must be an integer with 1 <= n_modes < %g,"
                         " not %r" % (grid.n / 2, n_modes))
    lower, upper = _dn_engines(grid, eta.values, dn_cfg, dn_geometries(params))
    mu_sum_inv_p = 1.0 / params.mu_plus
    mu_sum_inv_m = 1.0 / params.mu_minus
    basis = [np.ones(grid.n)]
    for k in range(1, n_modes + 1):
        basis.append(np.cos(k * 2.0 * np.pi / grid.length * grid.nodes))
        basis.append(np.sin(k * 2.0 * np.pi / grid.length * grid.nodes))
    nb = len(basis)
    Gm = np.zeros((grid.n, nb))
    Gp = np.zeros((grid.n, nb))
    for j, b in enumerate(basis):
        Gm[:, j] = lower.converged_gf(b)
        Gp[:, j] = upper.converged_gf(b)

    jump = _jump_values(eta, params)
    # [(1/mu+) G+ - (1/mu-) G-] c = (1/mu+) G+ jump,  mean gauge row appended
    A = mu_sum_inv_p * Gp - mu_sum_inv_m * Gm
    rhs = mu_sum_inv_p * upper.converged_gf(jump)
    gauge = np.zeros(nb)
    gauge[0] = 1.0
    A = np.vstack([A, gauge])
    rhs = np.concatenate([rhs, [0.0]])
    coef, _, _, sv = np.linalg.lstsq(A, rhs, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if cond > 1e12:
        raise NotContracting(
            "dense pressure system ill conditioned (estimate %.3g)" % cond)

    fm_vals = np.stack(basis, axis=1) @ coef
    f_minus = fm_vals - np.mean(fm_vals)
    f_plus = f_minus - jump
    gm = lower.converged_gf(f_minus)
    gp = upper.converged_gf(f_plus)
    flux = gp * mu_sum_inv_p - gm * mu_sum_inv_m
    fscale = max(np.linalg.norm(gm) * mu_sum_inv_m, 1e-300)
    return PressurePair(f_minus=Field(grid, f_minus), f_plus=Field(grid, f_plus),
                        jump_residual=0.0,
                        flux_residual=float(np.linalg.norm(flux) / fscale),
                        iterations=1, g_minus=Field(grid, gm),
                        g_plus=Field(grid, gp))
