"""Interface time evolution.

The interface height eta obeys a stiff fifth-order semilinear equation once
the flat-interface linear part nu1 |D|^5 + nu2 |D| is split off.  The linear
flow is applied exactly per Fourier mode; the nonlinear remainder is
integrated either by exponential time differencing (ETD1 / ETDRK2) or, for
small data, by Picard iteration on the Duhamel integral equation; both
integrate the one remainder nonlinear_remainder and take their weights
from _etd_weights, the step weights a run forms once per step size, so a
Picard sweep is the ETD recursion on a given remainder.  solve runs every
scheme.  A run ends cleanly, with the trajectory so far, on any solver
failure (an unconverged pressure solve included) and when a state of any
scheme closes half its initial distance to a wall.  The integral-equation
solver stops by errors.iterate, the package's one stop rule.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .dn import DNConfig, _dn_engines, dn_geometries
from .errors import MuskatError, NotContracting, SeparationLost, iterate
from .grid import (Field, PeriodicGrid, _apply_multiplier, _sobolev_norm,
                   exp_linear_weights, lipschitz_norms, mean, sobolev_norm)
from .params import LinearSymbol, PhysicalParams, wall_distances
from .pressure import _jump_values, pressure_fixed_point


# the s of the H^s monitor, the dissipation (of H^{s+5/2}), the Picard gate
# and sweep norm, and the stability experiment's Z^s functional
SOBOLEV_S = 2.0

# the integral-equation solver's gate on ||eta0||_{H^s} and its stop rule
PICARD_GATE = 0.5
PICARD_TOL = 1e-10
PICARD_MAX_ITER = 40

# the schemes solve runs: etd_step's two and picard_solve
SCHEMES = ("ETD1", "ETDRK2", "picard")


@dataclass(frozen=True)
class SolveConfig:
    scheme: str = "ETDRK2"
    dn: DNConfig = DNConfig()


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
    """The flat linear rate over the rfft half spectrum of ``grid``."""
    return LinearSymbol.from_params(params).rate(grid.rfft_wavenumbers)


@functools.lru_cache(maxsize=8)
def _etd_weights(grid: PeriodicGrid, params: PhysicalParams, dt: float):
    """Read-only weights of an ETD step of dt: e^{-z}, dt phi_1(z) and
    dt phi_2(z) at z = dt times the linear rate; a run forms them once."""
    z = dt * linear_multiplier(grid, params)
    # phi_1 = w0 + w1, phi_2 = w0 (Cox & Matthews)
    w0, w1 = exp_linear_weights(z)
    weights = np.exp(-z), dt * (w0 + w1), dt * w0
    for w in weights:
        w.setflags(write=False)
    return weights


def rhs(eta: Field, params: PhysicalParams,
        cfg: SolveConfig = SolveConfig()) -> Field:
    """Interface velocity -(1/mu^-) G^-(eta) f^-.

    In the two-phase case G^-(eta) f^- is read off the pressure solve's
    last lower sweep, so the velocity makes no DN solve.  In one phase
    f^+ = 0, so f^- is the pressure jump sigma E(eta) + g rho^- eta, and
    G^- f^- comes from the DN engine that dn._dn_engines picks for eta.
    Raises NotContracting when a solve fails.
    """
    if params.phase == "two":
        gf = pressure_fixed_point(eta, params, cfg.dn).g_minus.values
    else:
        engine, = _dn_engines(eta.grid, eta.values, cfg.dn,
                              dn_geometries(params)[:1])
        gf = engine.converged_gf(_jump_values(eta, params))
    return Field(eta.grid, gf * (-1.0 / params.mu_minus))


def nonlinear_remainder(eta: Field, params: PhysicalParams,
                        cfg: SolveConfig = SolveConfig()) -> Field:
    """rhs with the flat linear part added back: N = rhs + nu1|D|^5 + nu2|D|."""
    lin = _apply_multiplier(eta.values, linear_multiplier(eta.grid, params))
    return Field(eta.grid, rhs(eta, params, cfg).values + lin)


def etd_step(eta: Field, dt: float, params: PhysicalParams,
             cfg: SolveConfig = SolveConfig(), nonlinear=None) -> Field:
    """One exponential-time-differencing step of scheme ``cfg.scheme``.

    ``nonlinear`` overrides the remainder evaluation (pass
    ``lambda e: zero_field(e.grid)`` to recover the exact linear flow).
    """
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    if cfg.scheme not in ("ETD1", "ETDRK2"):
        raise ValueError("unknown scheme %r" % (cfg.scheme,))
    if nonlinear is None:
        def nonlinear(e):
            return nonlinear_remainder(e, params, cfg)
    grid = eta.grid
    decay, dt_phi1, dt_phi2 = _etd_weights(grid, params, dt)
    n0_hat = np.fft.rfft(nonlinear(eta).values)
    a_hat = decay * np.fft.rfft(eta.values) + dt_phi1 * n0_hat
    a = Field(grid, np.fft.irfft(a_hat, grid.n))
    if cfg.scheme == "ETD1":
        return a
    n1_hat = np.fft.rfft(nonlinear(a).values)
    corr = dt_phi2 * (n1_hat - n0_hat)
    return Field(grid, np.fft.irfft(a_hat + corr, grid.n))


def _monitors(eta: Field, t: float, params: PhysicalParams,
              diss_acc: float) -> dict:
    lip, lip_proxy = lipschitz_norms(eta)
    return {"t": t, "mean": mean(eta), "lipschitz": lip,
            "lipschitz_proxy": lip_proxy, "dissipation": diss_acc,
            "H%g" % SOBOLEV_S: sobolev_norm(eta, SOBOLEV_S),
            "boundary_distance": min(
                wall_distances(params.geometry, eta.values).values(),
                default=np.inf)}


def solve(eta0: Field, T: float, dt: float, params: PhysicalParams,
          cfg: SolveConfig = SolveConfig()) -> Trajectory:
    """Time loop of scheme ``cfg.scheme`` with monitors and clean aborts.

    ETD1 and ETDRK2 take fixed steps of etd_step; "picard" hands the run to
    picard_solve, and its failure ends the run at the initial state.  Every
    state of either kind passes the same wall check.
    """
    if not 0 < T < np.inf or not 0 < dt < np.inf:
        raise ValueError("T and dt must be positive and finite")
    # abort once the interface has closed half its initial distance to a wall
    floors = {side: 0.5 * dist for side, dist
              in wall_distances(params.geometry, eta0.values).items()}
    times, states = [0.0], [eta0]
    monitors = [_monitors(eta0, 0.0, params, 0.0)]
    manifest = {"scheme": cfg.scheme, "dt": dt, "T": T}
    abort = None
    try:
        if cfg.scheme == "picard":
            run = picard_solve(eta0, T, params, cfg, dt=dt)
            manifest = run.manifest
            steps = zip(run.times[1:], run.states[1:], run.monitors[1:])
        else:
            steps = _etd_steps(eta0, T, dt, params, cfg)
        for t, eta, mon in steps:
            times.append(t)
            states.append(eta)
            monitors.append(mon)
            # the offending state stays in the trajectory
            for side, dist in wall_distances(params.geometry,
                                             eta.values).items():
                if dist <= floors[side]:
                    raise SeparationLost(
                        "boundary distance %.3g at or below %.3g"
                        % (dist, floors[side]))
    except MuskatError as exc:
        abort = "%s: %s" % (type(exc).__name__, exc)
    manifest.update(steps=len(times) - 1, abort_reason=abort)
    return Trajectory(times=times, states=states, monitors=monitors,
                      abort_reason=abort, manifest=manifest)


def _etd_steps(eta: Field, T: float, dt: float, params: PhysicalParams,
               cfg: SolveConfig):
    """(t, state, monitors) after each etd_step of a run from eta to T."""
    # whole steps of dt up to T; a final step is shortened to land on T
    # only when T is not a multiple of dt up to rounding
    nsteps = max(1, int(np.ceil(T / dt - 1e-9)))
    last = T - dt * (nsteps - 1)
    diss = 0.0
    for i in range(nsteps):
        h, t = dt, dt * (i + 1)
        if i == nsteps - 1 and dt - last > 1e-9 * dt:
            h, t = last, T
        diss += h * sobolev_norm(eta, SOBOLEV_S + 2.5) ** 2
        eta = etd_step(eta, h, params, cfg)
        yield t, eta, _monitors(eta, t, params, diss)


# --- Duhamel / Picard small-data solver --------------------------------------


def picard_solve(eta0: Field, T: float, params: PhysicalParams,
                 cfg: SolveConfig = SolveConfig(), *,
                 dt: float) -> Trajectory:
    """Small-data solver: fixed-point iteration on the integral equation.

    Each sweep evaluates eta(t) = e^{-t m} eta0 + int_0^t e^{-(t-s) m} g(s) ds
    with g = N the nonlinear remainder of the previous iterate, by the
    exponentially weighted trapezoid rule per panel.  Over one panel that
    rule is the ETD update with the remainder at both ends (Cox & Matthews),
    so a sweep is one recursion on etd_step's weights from eta0:
    eta_j = e^{-dt m} eta_{j-1} + dt phi_1 g_{j-1} + dt phi_2 (g_j - g_{j-1}).
    The first iterate, the free flow, is the same recursion with g = 0.

    A sweep's distance is max_j ||eta_new(t_j) - eta_old(t_j)||_{H^s} over
    ||eta0||_{H^s}, s = SOBOLEV_S; below the gate it is never looser than
    the unscaled H^s distance.  On the one-phase benchmark profile without
    its tail (T = 0.01, dt = 1e-3) the iteration reaches PICARD_TOL in 5
    sweeps at n = 32, 64, 128 and 256.  Raises NotContracting when the data
    is at or above PICARD_GATE or the sweeps do not converge; solve turns
    that into an abort.
    """
    if not 0 < T < np.inf or not 0 < dt < np.inf:
        raise ValueError("T and dt must be positive and finite")
    if params.phase != "one":
        raise ValueError("the integral-equation solver is one-phase only")
    h0 = sobolev_norm(eta0, SOBOLEV_S)
    if h0 >= PICARD_GATE:
        raise NotContracting(
            "||eta0||_H%g = %.3g at or above smallness gate %.3g"
            % (SOBOLEV_S, h0, PICARD_GATE))
    grid = eta0.grid
    # the trapezoid weights need equal panels, so a dt that does not divide
    # T up to rounding is shrunk to the next one that does
    nsteps = max(1, int(np.ceil(T / dt - 1e-9)))
    if dt * nsteps - T > 1e-9 * dt:
        dt = T / nsteps
    times = [dt * j for j in range(nsteps + 1)]
    decay, dt_phi1, dt_phi2 = _etd_weights(grid, params, dt)
    eta0_hat = np.fft.rfft(eta0.values)

    def duhamel(g_hat):
        """The states at ``times`` of the recursion driven by ``g_hat``."""
        states, c = [eta0], eta0_hat
        for j in range(1, nsteps + 1):
            c = decay * c + dt_phi1 * g_hat[j - 1] \
                + dt_phi2 * (g_hat[j] - g_hat[j - 1])
            states.append(Field(grid, np.fft.irfft(c, grid.n)))
        return states

    # state 0 is eta0 in every iterate, so its remainder is formed once
    g0_hat = np.fft.rfft(nonlinear_remainder(eta0, params, cfg).values)
    iterates = duhamel([0.0] * (nsteps + 1))

    def sweep():
        nonlocal iterates
        new = duhamel([g0_hat] + [
            np.fft.rfft(nonlinear_remainder(st, params, cfg).values)
            for st in iterates[1:]])
        dist = max(_sobolev_norm(grid, a.values - b.values, SOBOLEV_S)
                   for a, b in zip(new, iterates))
        iterates = new
        return dist / max(h0, 1e-300)

    dists, converged = iterate(sweep, PICARD_TOL, PICARD_MAX_ITER, 3,
                               "integral-equation iteration")
    if not converged:
        raise NotContracting("integral-equation iteration not converged after"
                             " %d sweeps" % PICARD_MAX_ITER)

    monitors = []
    diss = 0.0
    for j, st in enumerate(iterates):
        if j > 0:
            diss += dt * sobolev_norm(iterates[j - 1], SOBOLEV_S + 2.5) ** 2
        monitors.append(_monitors(st, times[j], params, diss))
    manifest = {"scheme": "picard", "dt": dt, "T": T, "steps": nsteps,
                "iterations": len(dists), "abort_reason": None}
    return Trajectory(times=times, states=iterates, monitors=monitors,
                      manifest=manifest)


# --- experiment drivers ------------------------------------------------------


def _completed(traj: Trajectory, run: str) -> Trajectory:
    """``traj``; MuskatError naming ``run`` if it aborted, since an aborted
    run's states stop early and compare as if the flow had stopped."""
    if traj.abort_reason is not None:
        raise MuskatError("%s run aborted: %s" % (run, traj.abort_reason))
    return traj


def stability_experiment(eta0: Field, delta0: Field, T: float, dt: float,
                         params: PhysicalParams,
                         cfg: SolveConfig = SolveConfig()) -> dict:
    """Perturbation growth ratio ||eta1-eta2||_{Z^s}/||delta0||_{H^s};
    MuskatError if either run aborts."""
    d0 = sobolev_norm(delta0, SOBOLEV_S)
    if d0 == 0.0:
        return {"ratio": None, "exact_match": True, "delta0": 0.0}
    t1 = _completed(solve(eta0, T, dt, params, cfg), "unperturbed")
    t2 = _completed(solve(eta0 + delta0, T, dt, params, cfg), "perturbed")
    diff = Trajectory(times=t1.times,
                      states=[a - b for a, b in zip(t2.states, t1.states)],
                      monitors=[])
    return {"ratio": diff.zs_functional(SOBOLEV_S) / d0, "exact_match": False,
            "delta0": d0}


def scaling_experiment(eta0: Field, lam: int, T: float, dt: float,
                       params: PhysicalParams,
                       cfg: SolveConfig = SolveConfig()) -> dict:
    """Two-run defect for the rescaling eta -> lam^{-1} eta(lam^5 t, lam x);
    MuskatError if either run aborts."""
    if params.g != 0 or params.phase != "one" \
            or wall_distances(params.geometry):
        raise ValueError("scaling symmetry requires g=0, one-phase, no walls")
    if int(lam) != lam or lam < 1:
        raise ValueError("lambda must be a positive integer")
    lam = int(lam)
    grid = eta0.grid
    if lam > 1 and grid.n % lam != 0:
        raise ValueError("lambda must divide the grid size")
    kept = grid.n // 2 // lam + 1

    def rescaled(f):
        # lam^{-1} f(lam x): spectral mode k moves to lam k
        c = np.fft.rfft(f.values)
        cs = np.zeros_like(c)
        cs[::lam] = c[:kept] / lam
        return Field(grid, np.fft.irfft(cs, grid.n))

    ref = _completed(solve(eta0, lam ** 5 * T, lam ** 5 * dt, params, cfg),
                     "reference")
    run = _completed(solve(rescaled(eta0), T, dt, params, cfg), "rescaled")
    scaled_ref = rescaled(ref.states[-1])
    defect = np.linalg.norm(run.states[-1].values - scaled_ref.values)
    scale = max(np.linalg.norm(scaled_ref.values), 1e-300)
    return {"defect": float(defect / scale), "lambda": lam}


def smoothing_fit(eta0: Field, eta_t: Field, t: float, kmin: int) -> float:
    """Fit c > 0 in |eta_hat(t,k)| <= e^{-c t |k|^5} |eta_hat(0,k)|, |k|>=kmin.

    A least-squares fit of the log decay over the modes k >= kmin of the
    rfft half spectrum, each mode once.
    """
    grid = eta0.grid
    c0 = np.abs(np.fft.rfft(eta0.values)) / grid.n
    ct = np.abs(np.fft.rfft(eta_t.values)) / grid.n
    k = grid.rfft_wavenumbers
    sel = (k >= kmin) & (c0 > 1e-14) & (ct > 0)
    if not np.any(sel):
        raise ValueError("no usable tail modes")
    y = -np.log(ct[sel] / c0[sel])
    x = t * k[sel] ** 5
    return float(np.dot(x, y) / np.dot(x, x))
