"""Interfacial pressure solve for the two-phase problem.

The trace pressures f^- and f^+ satisfy a jump condition
f^- - f^+ = J = sigma E(eta) + g (rho^- - rho^+) eta together with continuity
of the normal velocity (1/mu^+) G^+ f^+ = (1/mu^-) G^- f^-.  Splitting the DN
operators into their flat parts -+|D| plus remainders R^+- turns this into a
fixed-point equation for f^-,

    phi = u0 + |D|^{-1} (mu^- R^+ phi - mu^+ R^- phi) / (mu^+ + mu^-),
    u0  = -mu^- |D|^{-1} G^+ J / (mu^+ + mu^-),

contractive for small interfaces.  G^+- are linear in their datum, which the
solve uses three times:

- forcing: u0 takes one DN solve, G^+ J;
- increments: sweep k solves only delta_k = phi_k - phi_{k-1} and adds its
  remainders to running sums R^+- (delta_0 = u0).  Each increment is solved
  to the absolute accuracy a full solve of phi_k would get, so a small
  increment needs few Picard sweeps;
- upper flux: G^+ f^+ = -|D| f^- + R^+ - G^+ J from the sums, with no solve.

G^- f^- is a fresh solve, so the flux residual checks the iteration against
an independent application of G^-.  A dense collocation solve over a
truncated Fourier basis serves as the referee.
"""

from dataclasses import dataclass, replace

import numpy as np

from .dn import DNConfig, dn_fixed_point, dn_geometries, dn_upper
from .elastic import elastic_E
from .errors import NotContracting
from .grid import Field, abs_d, inv_abs_d, mean, sobolev_norm, zero_field
from .params import PhysicalParams


# fixed-point sweeps before the solve gives up
MAX_ITER = 80


@dataclass(frozen=True)
class PressureConfig:
    tol: float = 1e-12
    smallness_gate: float = 0.1   # on ||eta||_{H^2}
    dn: DNConfig = DNConfig()


@dataclass(frozen=True)
class PressurePair:
    f_minus: Field
    f_plus: Field
    jump_residual: float
    flux_residual: float
    iterations: int
    # G^-(eta) f^- from the flux check, reused by the velocity
    g_minus: Field
    # G^+(eta) f^+ of the flux check (from the remainder sums, no solve)
    g_plus: Field

    def report(self) -> dict:
        return {"jump_residual": self.jump_residual,
                "flux_residual": self.flux_residual,
                "iterations": self.iterations}


def pressure_jump(eta: Field, params: PhysicalParams) -> Field:
    """sigma E(eta) + g (rho^- - rho^+) eta."""
    return elastic_E(eta) * params.sigma + eta * (params.g * params.delta_rho)


def _increment_dn(dn_cfg: DNConfig, phi: Field, delta: Field) -> DNConfig:
    """DN config that solves delta to the absolute accuracy of a solve of phi.

    A DN solve stops on residuals relative to max|rfft(datum)|, so the
    tolerance grows by the ratio of the two scales; it is never tighter than
    dn_cfg.tol.
    """
    s_delta = np.max(np.abs(np.fft.rfft(delta.values)))
    if s_delta == 0.0:
        return dn_cfg
    s_phi = np.max(np.abs(np.fft.rfft(phi.values)))
    return replace(dn_cfg, tol=dn_cfg.tol * max(1.0, s_phi / s_delta))


def pressure_fixed_point(eta: Field, params: PhysicalParams,
                         cfg: PressureConfig = PressureConfig()) -> PressurePair:
    """Solve for the trace pressures by Picard iteration on f^-.

    Makes 2 + 2 * iterations DN solves: G^+ J, one upper and one lower
    solve per sweep on its increment, and G^- f^-.
    """
    if params.phase != "two":
        raise ValueError("pressure solve is a two-phase operation")
    h2 = sobolev_norm(eta, 2.0)
    if h2 >= cfg.smallness_gate:
        raise NotContracting(
            "||eta||_H2 = %.3g at or above pressure gate %.3g"
            % (h2, cfg.smallness_gate))
    lower, upper = dn_geometries(params)
    mu_sum = params.mu_plus + params.mu_minus
    jump = pressure_jump(eta, params)
    g_jump = dn_upper(eta, jump, cfg.dn, upper).require_converged().gf
    u0 = inv_abs_d(g_jump) * (-params.mu_minus / mu_sum)

    phi = delta = u0
    r_plus = r_minus = zero_field(eta.grid)
    prev = np.inf
    grow = 0
    scale = max(np.max(np.abs(u0.values)), 1e-300)
    for iters in range(1, MAX_ITER + 1):
        dn_cfg = _increment_dn(cfg.dn, phi, delta)
        r_plus = r_plus + dn_upper(
            eta, delta, dn_cfg, upper).require_converged().remainder
        r_minus = r_minus + dn_fixed_point(
            eta, delta, dn_cfg, lower).require_converged().remainder
        phi_new = u0 + inv_abs_d(r_plus) * (params.mu_minus / mu_sum) \
            - inv_abs_d(r_minus) * (params.mu_plus / mu_sum)
        delta = phi_new - phi
        res = float(np.max(np.abs(delta.values)) / scale)
        phi = phi_new
        if res < cfg.tol:
            break
        if res >= prev:
            grow += 1
            if grow >= 5:
                raise NotContracting(
                    "pressure iteration residuals non-decreasing")
        else:
            grow = 0
        prev = res
    else:
        raise NotContracting(
            "pressure iteration not converged after %d sweeps (residual %.3g)"
            % (MAX_ITER, res))

    f_minus = Field(phi.grid, phi.values - mean(phi))
    f_plus = f_minus - jump
    jres = np.linalg.norm((f_minus - f_plus - jump).values)
    jscale = max(np.linalg.norm(jump.values), 1e-300)
    gm = dn_fixed_point(eta, f_minus, cfg.dn, lower).require_converged().gf
    # G^+ f^+ = -|D| f^- + R^+ f^- - G^+ J with R^+ f^- from the sums: R^+
    # of the mean is zero, and the unsolved last increment is below tol
    gp = r_plus - abs_d(f_minus) - g_jump
    flux = gp * (1.0 / params.mu_plus) - gm * (1.0 / params.mu_minus)
    fscale = max(np.linalg.norm(gm.values) / params.mu_minus, 1e-300)
    return PressurePair(f_minus=f_minus, f_plus=f_plus,
                        jump_residual=float(jres / jscale),
                        flux_residual=float(np.linalg.norm(flux.values) / fscale),
                        iterations=iters, g_minus=gm, g_plus=gp)


def pressure_oracle(eta: Field, params: PhysicalParams, n_modes: int = 16,
                    cfg: PressureConfig = PressureConfig()) -> PressurePair:
    """Dense collocation referee for the pressure system.

    Columns of G^+- are built by DN solves on each truncated Fourier basis
    field; the flux-match equation plus a zero-mean gauge row is solved by
    least squares.
    """
    if params.phase != "two":
        raise ValueError("pressure solve is a two-phase operation")
    grid = eta.grid
    lower, upper = dn_geometries(params)
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
        bf = Field(grid, b)
        Gm[:, j] = dn_fixed_point(
            eta, bf, cfg.dn, lower).require_converged().gf.values
        Gp[:, j] = dn_upper(
            eta, bf, cfg.dn, upper).require_converged().gf.values

    jump = pressure_jump(eta, params)
    # [(1/mu+) G+ - (1/mu-) G-] c = (1/mu+) G+ jump,  mean gauge row appended
    A = mu_sum_inv_p * Gp - mu_sum_inv_m * Gm
    rhs = mu_sum_inv_p * dn_upper(
        eta, jump, cfg.dn, upper).require_converged().gf.values
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
    f_minus = Field(grid, fm_vals)
    f_minus = Field(grid, f_minus.values - mean(f_minus))
    f_plus = f_minus - jump
    gm = dn_fixed_point(eta, f_minus, cfg.dn, lower).require_converged().gf
    gp = dn_upper(eta, f_plus, cfg.dn, upper).require_converged().gf
    flux = gp * mu_sum_inv_p - gm * mu_sum_inv_m
    fscale = max(np.linalg.norm(gm.values) * mu_sum_inv_m, 1e-300)
    return PressurePair(f_minus=f_minus, f_plus=f_plus,
                        jump_residual=0.0,
                        flux_residual=float(np.linalg.norm(flux.values) / fscale),
                        iterations=1, g_minus=gm, g_plus=gp)
