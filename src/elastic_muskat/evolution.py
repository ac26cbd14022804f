"""Interface time evolution.

The interface height eta obeys a stiff fifth-order semilinear equation once
the flat-interface linear part nu1 |D|^5 + nu2 |D| is split off.  The linear
flow is applied exactly per Fourier mode; the nonlinear remainder is
integrated either by exponential time differencing (ETD1 / ETDRK2) or, for
small data, by Picard iteration on the Duhamel integral equation; both take
their exponential weights from grid.exp_linear_weights.  A run ends cleanly,
with the trajectory so far, on any solver failure (an unconverged pressure
solve included) and when the interface closes half its initial distance to
a wall.
"""

from dataclasses import dataclass, field

import numpy as np

from .dn import DNConfig, dn_fixed_point, dn_geometries
from .elastic import elastic_E, elastic_split
from .errors import MuskatError, NotContracting, SeparationLost
from .grid import (Field, PeriodicGrid, abs_d, exp_linear_weights,
                   lipschitz_norms, mean, sobolev_norm, to_field, to_spectrum)
from .params import LinearSymbol, PhysicalParams, wall_distances
from .pressure import PressureConfig, pressure_fixed_point


# stopping rule of the integral-equation solver: sweep distance and count
PICARD_TOL = 1e-10
PICARD_MAX_ITER = 40


@dataclass(frozen=True)
class SolveConfig:
    scheme: str = "ETDRK2"
    monitor_s: tuple = (2.0,)
    dn: DNConfig = DNConfig()
    pressure: PressureConfig = PressureConfig()
    picard_gate: float = 0.5         # on ||eta0||_{H^s}, s = monitor_s[0]


@dataclass
class Trajectory:
    times: list
    states: list
    monitors: list           # list of dicts, aligned with times
    abort_reason: str = None
    manifest: dict = field(default_factory=dict)

    def zs_functional(self, s: float) -> float:
        """sup_t H^s plus the L^2-in-time H^{s+5/2} dissipation, left endpoint."""
        sup = max(sobolev_norm(st, s) for st in self.states)
        acc = 0.0
        for i in range(len(self.times) - 1):
            dt = self.times[i + 1] - self.times[i]
            acc += dt * sobolev_norm(self.states[i], s + 2.5) ** 2
        return sup + np.sqrt(acc)


def linear_multiplier(grid: PeriodicGrid, params: PhysicalParams):
    sym = LinearSymbol.from_params(params)
    absk = np.abs(grid.wavenumbers)
    return sym.nu1 * absk ** 5 + sym.nu2 * absk


def default_dt(grid: PeriodicGrid, params: PhysicalParams) -> float:
    # the literal stiffness bound; far smaller than ETD needs, override in
    # practice (the exponential integrator is not CFL-limited)
    m = linear_multiplier(grid, params)
    return 0.05 * float(np.min(1.0 / (m + 1.0)))


def rhs(eta: Field, params: PhysicalParams,
        cfg: SolveConfig = SolveConfig()) -> Field:
    """Interface velocity -(1/mu^-) G^-(eta) f^-.

    In the two-phase case G^-(eta) f^- is the one the pressure solve applied
    for its flux check.  Raises NotContracting when that solve fails.
    """
    if params.phase == "two":
        pair = pressure_fixed_point(eta, params, cfg.pressure, cfg.dn)
        return pair.g_minus * (-1.0 / params.mu_minus)
    geometry, _ = dn_geometries(params)
    f_minus = elastic_E(eta) * params.sigma \
        + eta * (params.rho_minus * params.g)
    gf = dn_fixed_point(eta, f_minus, cfg.dn, geometry).require_converged().gf
    return gf * (-1.0 / params.mu_minus)


def nonlinear_remainder(eta: Field, params: PhysicalParams,
                        cfg: SolveConfig = SolveConfig()) -> Field:
    """rhs with the flat linear part added back: N = rhs + nu1|D|^5 + nu2|D|."""
    sym = LinearSymbol.from_params(params)
    lin = abs_d(eta, 5.0) * sym.nu1 + abs_d(eta) * sym.nu2
    return rhs(eta, params, cfg) + lin


def etd_step(eta: Field, dt: float, params: PhysicalParams,
             cfg: SolveConfig = SolveConfig(), nonlinear=None) -> Field:
    """One exponential-time-differencing step of scheme ``cfg.scheme``.

    ``nonlinear`` overrides the remainder evaluation (pass
    ``lambda e: zero_field(e.grid)`` to recover the exact linear flow).
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if cfg.scheme not in ("ETD1", "ETDRK2"):
        raise ValueError("unknown scheme %r" % (cfg.scheme,))
    if nonlinear is None:
        def nonlinear(e):
            return nonlinear_remainder(e, params, cfg)
    grid = eta.grid
    z = dt * linear_multiplier(grid, params)
    # phi_1 = w0 + w1, phi_2 = w0 (Cox & Matthews)
    w0, w1 = exp_linear_weights(z)
    n0_hat = to_spectrum(nonlinear(eta))
    a_hat = np.exp(-z) * to_spectrum(eta) + dt * (w0 + w1) * n0_hat
    a = to_field(grid, a_hat)
    if cfg.scheme == "ETD1":
        return a
    n1 = nonlinear(a)
    corr = dt * w0 * (to_spectrum(n1) - n0_hat)
    return to_field(grid, a_hat + corr)


def _monitors(eta: Field, t: float, params: PhysicalParams,
              cfg: SolveConfig, diss_acc: float) -> dict:
    lip, lip_proxy = lipschitz_norms(eta)
    mon = {"t": t, "mean": mean(eta), "lipschitz": lip,
           "lipschitz_proxy": lip_proxy, "dissipation": diss_acc}
    for s in cfg.monitor_s:
        mon["H%g" % s] = sobolev_norm(eta, s)
    mon["boundary_distance"] = min(
        wall_distances(params.geometry, eta.values).values(), default=np.inf)
    return mon


def solve(eta0: Field, T: float, dt: float, params: PhysicalParams,
          cfg: SolveConfig = SolveConfig()) -> Trajectory:
    """Fixed-step ETD time loop with monitors and clean aborts."""
    if not T > 0 or not dt > 0:
        raise ValueError("T and dt must be positive")
    s0 = cfg.monitor_s[0]
    # abort once the interface has closed half its initial distance to a wall
    floors = {side: 0.5 * dist for side, dist
              in wall_distances(params.geometry, eta0.values).items()}
    times = [0.0]
    diss = 0.0
    states = [eta0]
    monitors = [_monitors(eta0, 0.0, params, cfg, diss)]
    abort = None
    eta = eta0
    # whole steps of dt up to T; a final step is shortened to land on T
    # only when T is not a multiple of dt up to rounding
    nsteps = max(1, int(np.ceil(T / dt - 1e-9)))
    last = T - dt * (nsteps - 1)
    for i in range(nsteps):
        h, t = dt, dt * (i + 1)
        if i == nsteps - 1 and dt - last > 1e-9 * dt:
            h, t = last, T
        try:
            diss += h * sobolev_norm(eta, s0 + 2.5) ** 2
            eta = etd_step(eta, h, params, cfg)
            mon = _monitors(eta, t, params, cfg, diss)
            times.append(t)
            states.append(eta)
            monitors.append(mon)
            # the offending step stays in the trajectory
            for side, dist in wall_distances(params.geometry,
                                             eta.values).items():
                if dist <= floors[side]:
                    raise SeparationLost(
                        "boundary distance %.3g at or below %.3g"
                        % (dist, floors[side]))
        except MuskatError as exc:
            abort = "%s: %s" % (type(exc).__name__, exc)
            break
    manifest = {"scheme": cfg.scheme, "dt": dt, "T": T,
                "steps": len(times) - 1, "abort_reason": abort}
    return Trajectory(times=times, states=states, monitors=monitors,
                      abort_reason=abort, manifest=manifest)


# --- Duhamel / Picard small-data solver --------------------------------------


def _duhamel_integrand(eta: Field, params: PhysicalParams,
                       cfg: SolveConfig) -> Field:
    """-N(eta), assembled from the paradifferential split of the velocity.

    The pieces are the DN remainder applied to the full elastic trace, the
    flat |D| applied to the elastic deviation from |D|^4, and the gravity
    remainder; their sum telescopes to the negated nonlinear remainder.
    """
    geometry, _ = dn_geometries(params)
    split = elastic_split(eta)
    el = split.total
    r_el = dn_fixed_point(
        eta, el, cfg.dn, geometry).require_converged().remainder
    r_eta = dn_fixed_point(
        eta, eta, cfg.dn, geometry).require_converged().remainder
    d4 = abs_d(eta, 4.0)
    flat_part = abs_d(el - d4)
    coeff = params.sigma / params.mu_minus
    grav = params.rho_minus * params.g / params.sigma
    return (r_el + flat_part + r_eta * grav) * (-coeff)


def picard_solve(eta0: Field, T: float, params: PhysicalParams,
                 cfg: SolveConfig = SolveConfig(), dt: float = None,
                 n_steps: int = 32) -> Trajectory:
    """Small-data solver: fixed-point iteration on the integral equation.

    Each sweep evaluates eta(t) = e^{-t m} eta0 + int_0^t e^{-(t-s) m} g(s) ds
    with g the negated nonlinear remainder of the previous iterate, using an
    exponentially weighted trapezoid rule per mode.
    """
    if params.phase != "one":
        raise ValueError("the integral-equation solver is one-phase only")
    s0 = cfg.monitor_s[0]
    h0 = sobolev_norm(eta0, s0)
    if h0 >= cfg.picard_gate:
        raise NotContracting(
            "||eta0||_H%g = %.3g at or above smallness gate %.3g"
            % (s0, h0, cfg.picard_gate))
    grid = eta0.grid
    if dt is None:
        dt = T / n_steps
    # the trapezoid weights need equal panels, so a dt that does not divide
    # T up to rounding is shrunk to the next one that does
    nsteps = max(1, int(np.ceil(T / dt - 1e-9)))
    if dt * nsteps - T > 1e-9 * dt:
        dt = T / nsteps
    times = [dt * j for j in range(nsteps + 1)]
    m = linear_multiplier(grid, params)
    decay = np.exp(-dt * m)
    # per-panel weights of int_0^dt e^{-(dt-s)m} g(s) ds, g linear: u = dt - s
    # puts the new end at u = 0 and the old one at u = dt
    w_new, w_old = (dt * w for w in exp_linear_weights(dt * m))

    eta0_hat = to_spectrum(eta0)
    free = [np.exp(-t * m) * eta0_hat for t in times]
    iterates = [to_field(grid, c) for c in free]
    prev_dist = np.inf
    grow = 0
    for n_iter in range(1, PICARD_MAX_ITER + 1):
        g_hat = [to_spectrum(_duhamel_integrand(st, params, cfg))
                 for st in iterates]
        new = [iterates[0]]
        integral = np.zeros_like(eta0_hat)
        for j in range(1, nsteps + 1):
            integral = decay * integral + w_old * g_hat[j - 1] + w_new * g_hat[j]
            new.append(to_field(grid, free[j] + integral))
        # X^s-proxy distance between sweeps
        dist = max(sobolev_norm(new[j] - iterates[j], s0)
                   for j in range(nsteps + 1))
        dist += params.sigma / params.mu_minus * sum(
            dt * sobolev_norm(new[j] - iterates[j], s0 + 5.0)
            for j in range(nsteps + 1))
        iterates = new
        if dist < PICARD_TOL:
            break
        if dist >= prev_dist:
            grow += 1
            if grow >= 3:
                raise NotContracting(
                    "integral-equation sweeps diverging (distance %.3g)" % dist)
        else:
            grow = 0
        prev_dist = dist
    else:
        raise NotContracting("integral-equation iteration did not converge")

    monitors = []
    diss = 0.0
    for j, st in enumerate(iterates):
        if j > 0:
            diss += dt * sobolev_norm(iterates[j - 1], s0 + 2.5) ** 2
        monitors.append(_monitors(st, times[j], params, cfg, diss))
    manifest = {"scheme": "picard", "dt": dt, "T": T, "iterations": n_iter}
    return Trajectory(times=times, states=iterates, monitors=monitors,
                      manifest=manifest)


# --- experiment drivers ------------------------------------------------------


def stability_experiment(eta0: Field, delta0: Field, T: float, dt: float,
                         params: PhysicalParams,
                         cfg: SolveConfig = SolveConfig()) -> dict:
    """Perturbation growth ratio ||eta1-eta2||_{Z^s}/||delta0||_{H^s}."""
    s0 = cfg.monitor_s[0]
    d0 = sobolev_norm(delta0, s0)
    if d0 == 0.0:
        return {"ratio": None, "exact_match": True, "delta0": 0.0}
    t1 = solve(eta0, T, dt, params, cfg)
    t2 = solve(eta0 + delta0, T, dt, params, cfg)
    diff = Trajectory(times=t1.times,
                      states=[a - b for a, b in zip(t2.states, t1.states)],
                      monitors=[])
    return {"ratio": diff.zs_functional(s0) / d0, "exact_match": False,
            "delta0": d0}


def scaling_experiment(eta0: Field, lam: int, T: float, dt: float,
                       params: PhysicalParams,
                       cfg: SolveConfig = SolveConfig()) -> dict:
    """Two-run defect for the rescaling eta -> lam^{-1} eta(lam^5 t, lam x)."""
    if params.g != 0 or params.phase != "one" \
            or wall_distances(params.geometry):
        raise ValueError("scaling symmetry requires g=0, one-phase, no walls")
    if int(lam) != lam or lam < 1:
        raise ValueError("lambda must be a positive integer")
    lam = int(lam)
    grid = eta0.grid
    if lam > 1 and grid.n % lam != 0:
        raise ValueError("lambda must divide the grid size")
    ref = solve(eta0, lam ** 5 * T, lam ** 5 * dt, params, cfg)
    # lam^{-1} eta0(lam x): spectral mode k moves to lam k
    c = to_spectrum(eta0)
    cs = np.zeros_like(c)
    half = grid.n // 2
    for k in range(-(half // lam), half // lam + 1):
        cs[(lam * k) % grid.n] = c[k % grid.n] / lam
    eta0_s = to_field(grid, cs)
    run = solve(eta0_s, T, dt, params, cfg)
    cref = to_spectrum(ref.states[-1])
    csc = np.zeros_like(cref)
    for k in range(-(half // lam), half // lam + 1):
        csc[(lam * k) % grid.n] = cref[k % grid.n] / lam
    scaled_ref = to_field(grid, csc)
    defect = np.linalg.norm((run.states[-1] - scaled_ref).values)
    scale = max(np.linalg.norm(scaled_ref.values), 1e-300)
    return {"defect": float(defect / scale), "lambda": lam}


def smoothing_fit(eta0: Field, eta_t: Field, t: float, kmin: int) -> float:
    """Fit c > 0 in |eta_hat(t,k)| <= e^{-c t |k|^5} |eta_hat(0,k)|, |k|>=kmin."""
    c0 = np.abs(to_spectrum(eta0))
    ct = np.abs(to_spectrum(eta_t))
    k = np.abs(eta0.grid.wavenumbers)
    sel = (k >= kmin) & (c0 > 1e-14) & (ct > 0)
    if not np.any(sel):
        raise ValueError("no usable tail modes")
    y = -np.log(ct[sel] / c0[sel])
    x = t * k[sel] ** 5
    return float(np.dot(x, y) / np.dot(x, x))
