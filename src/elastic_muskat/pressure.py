"""Interfacial pressure solve for the two-phase problem.

The trace pressures f^- and f^+ satisfy a jump condition
f^- - f^+ = J = sigma E(eta) + g (rho^- - rho^+) eta together with continuity
of the normal velocity (1/mu^+) G^+ f^+ = (1/mu^-) G^- f^-.  G^- and G^+ are
the two engines that dn._dn_engines makes for eta before anything is
solved, the Craig-Sulem series inside its measured reach and the level
solver past it (the rule and its scan are in dn's docstring), and the
solve takes its method from them.

On the series, G^+- are power series in eta, so f^- is one as well
(Nicholls & Reitich, JCP 170, 2001): f^- = sum_p phi_p with phi_p of
degree p.  dn._SeriesSum.pressure sums it in one pass over the pair's
two-row sum.  Each phi_p makes flux continuity hold at degree p, with each
side's exact flat symbol A^+- (|D| tanh(h|D|) over a wall at depth h), so
no splitting of G^+- is iterated; f^-, G^- f^- and G^+ f^+ come off the
same pass, and ``iterations`` counts its degrees (9 at n = 128 on
0.02 cos x + 0.01 sin 2x, bottomless with mu^+ = mu^-, and 9 or 10 with a
wall at h = 1, 0.5 or 0.25 on either side or both).  It stops once phi_p,
relative to max|phi_0|, is below TOL and each side's degree-p flux,
relative to its degree-0 flux, is below the DN tolerance, and raises
NotContracting from its patience or at dn.SERIES_MAX_ORDER.

On the level solver, splitting the DN operators into their flat parts
-+|D| plus remainders R^+- turns the system into a fixed-point equation
for phi = f^-,

    phi = [mu^- J + |D|^{-1} (mu^- R^+ (phi - J) - mu^+ R^- phi)] / (mu^+ + mu^-),

taken mean-free and contractive for small interfaces.  Each remainder is
read off the last sweep of an engine, and the three fixed points are
linear in their unknowns, so one joint iteration solves them together.
Each joint sweep makes

- one Picard sweep of G^-, datum phi, which it sets first;
- one Picard sweep of G^+, datum phi - J, likewise;
- the update of phi above from the two sweeps' remainders.

The first sweep restarts both engines, which take the lift as their
iterate; every later datum keeps the iterate.  It starts from the
flat-interface pressure phi_0 = mu^- J / (mu^+ + mu^-).  By
errors.iterate it stops once the phi change, relative to max|phi_0|, is
below TOL and both DN sweep changes below the DN tolerance, and raises
NotContracting after MAX_ITER sweeps or 5 non-decreasing changes in a row.
This is an inexact inner solve (Dembo, Eisenstat & Steihaug, SIAM J. Numer.
Anal. 19, 1982) at its limit of one inner sweep per outer step, so each DN
problem pays its per-interface set-up once.  It returns the data of its
last joint sweep: f^- is that sweep's phi less its mean, and G^- f^- and
G^+ f^+ are read off the same two sweeps, whose changes the stop rule has
just held below the DN tolerance.  No datum is set after that sweep, so
each engine's G f belongs to one datum.  Its flat parts are the
bottomless symbol |D| whatever the walls, so between walls at h = 0.25 on
both sides it does not contract.

On either path f^+ = f^- - J, the solve makes no public DN solve, and the
velocity reuses G^- f^-.  J and the data are node arrays, and Fields are
built only for the returned PressurePair.

A dense collocation solve over a truncated Fourier basis serves as the
referee, pressure_oracle.  It builds the columns of G^+- by converged DN
solves, not by the pressure solve: one lower and one upper engine are made
for eta, and every solve of the call (each basis column, the jump and both
fluxes at its answer) runs to the DN tolerance on them, stopped by the
engine's errors.iterate rule.  Its columns equal fresh solves on the same
engines bit for bit (on the level solver, public dn_fixed_point and
dn_upper solves); an unconverged one raises NotContracting.
"""

from dataclasses import dataclass

import numpy as np

from .dn import DNConfig, _dn_engines, _Series, dn_geometries
from .elastic import elastic_E
from .errors import NotContracting, iterate
from .grid import Field, sobolev_norm
from .params import PhysicalParams


# joint sweeps before the level solve gives up, and the phi change or
# term (relative to max|phi_0|) below which either solve may stop
MAX_ITER = 80
TOL = 1e-12
SMALLNESS_GATE = 0.1   # on ||eta||_{H^2}


@dataclass(frozen=True)
class PressurePair:
    f_minus: Field
    f_plus: Field
    jump_residual: float
    # flux continuity between the two returned fluxes; G^- is checked
    # independently by verify two_phase's pressure_fp_vs_oracle rows and by
    # the tests against fresh DN solves
    flux_residual: float
    # degrees of the series pass, or joint sweeps on the level solver
    iterations: int
    # G^-(eta) f^-, reused by the velocity
    g_minus: Field
    # G^+(eta) f^+
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
    """Solve for the trace pressures on the engines of dn._dn_engines.

    On a series pair, one pass of the degree series; on the level solver,
    the joint Picard iteration, read off its last sweep.  It makes no
    public DN solve: everything runs on the two private engines that
    dn._dn_engines picks with ``dn_cfg``.
    """
    if params.phase != "two":
        raise ValueError("pressure solve is a two-phase operation")
    h2 = sobolev_norm(eta, 2.0)
    if h2 >= SMALLNESS_GATE:
        raise NotContracting(
            "||eta||_H2 = %.3g at or above pressure gate %.3g"
            % (h2, SMALLNESS_GATE))
    jump = _jump_values(eta, params)
    grid = eta.grid
    lower, upper = _dn_engines(grid, eta.values, dn_cfg, dn_geometries(params))
    if isinstance(lower, _Series):
        f_minus, gm, gp, changes = lower.lockstep.pressure(
            jump, params.mu_minus, params.mu_plus, TOL)
    else:
        f_minus, gm, gp, changes = _joint_sweeps(lower, upper, jump, params,
                                                 dn_cfg.tol)
    f_plus = f_minus - jump
    jres = np.linalg.norm(f_minus - f_plus - jump)
    jscale = max(np.linalg.norm(jump), 1e-300)
    flux = gp * (1.0 / params.mu_plus) - gm * (1.0 / params.mu_minus)
    fscale = max(np.linalg.norm(gm) / params.mu_minus, 1e-300)
    return PressurePair(f_minus=Field(grid, f_minus),
                        f_plus=Field(grid, f_plus),
                        jump_residual=float(jres / jscale),
                        flux_residual=float(np.linalg.norm(flux) / fscale),
                        iterations=len(changes), g_minus=Field(grid, gm),
                        g_plus=Field(grid, gp))


def _joint_sweeps(lower, upper, jump, params, dn_tol):
    """f^-, G^- f^-, G^+ f^+ and the changes of the joint iteration on two
    level engines, read off its last joint sweep."""
    w_minus = params.mu_minus / (params.mu_plus + params.mu_minus)
    w_plus = params.mu_plus / (params.mu_plus + params.mu_minus)
    n = len(jump)
    # the update runs on rfft half spectra; |D|^{-1} maps the mean to 0
    absk = np.abs(lower.grid.rfft_wavenumbers)
    inv_absk = np.divide(1.0, absk, out=np.zeros_like(absk), where=absk > 0)
    # the flat-interface pressure; every update is mean-free
    phi0_hat = np.fft.rfft(jump * w_minus)
    phi0_hat[0] = 0.0
    phi = np.fft.irfft(phi0_hat, n)
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
        swept, phi = phi, np.fft.irfft(phi0_hat + inv_absk * r_hat, n)
        res = float(np.max(np.abs(phi - swept)) / scale)
        # below 1 once both tolerances hold
        return max(res / TOL, dn_res / dn_tol)

    errs, converged = iterate(sweep, 1.0, MAX_ITER, 5, "pressure iteration")
    if not converged:
        raise NotContracting("pressure iteration not converged after %d sweeps"
                             " (at %.3g x tolerance)" % (MAX_ITER, errs[-1]))
    # the data of the last joint sweep, whose G^- f^- and G^+ f^+ it read
    return swept - np.mean(swept), lower.gf(), upper.gf(), errs


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
