"""Command-line entry point.

muskat simulate --config cfg.json [--output dir] [--quiet]
muskat verify <suite> [--config cfg.json] [--output dir] [--quiet]

Configs are flat JSON with a strict schema: every key has a default and
unknown keys are rejected.  Exit codes: 0 success, 1 invalid input or failed
verification, 2 clean solver abort (separation or contraction loss).
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .dn import DNConfig
from .errors import ConfigError, MuskatError
from .evolution import SolveConfig, default_dt, picard_solve, solve
from .grid import Field, PeriodicGrid
from .params import Geometry, PhysicalParams, wall_distances
from .pressure import PressureConfig
from .serialization import write_report_csv, write_trajectory
from .verify import SUITES

CONFIG_DEFAULTS = {
    "n": 128,
    "length": 2.0 * np.pi,
    "sigma": 1.0,
    "g": 0.0,
    "mu_minus": 1.0,
    "mu_plus": 0.0,
    "rho_minus": 1.0,
    "rho_plus": 0.0,
    "phase": "one",
    "geometry": "bottomless",
    "h_minus": 0.0,
    "h_plus": 0.0,
    "allow_unstable": False,
    "scheme": "ETDRK2",        # ETD1, ETDRK2 or picard
    "dt": None,                # None: stiffness-based default
    "T": 1.0,
    "dn_tol": 1e-10,
    "dn_levels": 64,
    "lipschitz_gate": 0.3,
    "pressure_gate": 0.1,
    "picard_gate": 0.5,
    "monitor_s": [2.0],
    "modes": [],               # list of [k, amplitude, phase]
    "tail_amplitude": 0.0,
    "tail_decay": 2.0,
    "seed": 0,
    "output_dir": "out",
    "snapshot_stride": 1,
    "experiment": "simulate",
}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = dict(CONFIG_DEFAULTS)
    for key, val in raw.items():
        if key not in CONFIG_DEFAULTS:
            raise ConfigError("unknown config key %r" % (key,))
        cfg[key] = val
    return cfg


def build_params(cfg: dict) -> PhysicalParams:
    geometry = Geometry(kind=cfg["geometry"], h_minus=cfg["h_minus"],
                        h_plus=cfg["h_plus"])
    return PhysicalParams(sigma=cfg["sigma"], g=cfg["g"],
                          mu_minus=cfg["mu_minus"], mu_plus=cfg["mu_plus"],
                          rho_minus=cfg["rho_minus"], rho_plus=cfg["rho_plus"],
                          phase=cfg["phase"], geometry=geometry,
                          allow_unstable=cfg["allow_unstable"])


def build_initial_data(cfg: dict, grid: PeriodicGrid) -> Field:
    vals = np.zeros(grid.n)
    base = 2.0 * np.pi / grid.length
    for entry in cfg["modes"]:
        if len(entry) != 3:
            raise ConfigError("each mode entry must be [k, amplitude, phase]")
        k, amp, phase = entry
        if int(k) != k or not 0 <= k < grid.n // 2:
            raise ConfigError("mode index %r out of range" % (k,))
        vals += amp * np.cos(int(k) * base * grid.nodes + phase)
    if cfg["tail_amplitude"] > 0:
        rng = np.random.default_rng(cfg["seed"])
        for k in range(1, grid.n // 4):
            amp = cfg["tail_amplitude"] * k ** (-cfg["tail_decay"])
            vals += amp * np.cos(k * base * grid.nodes
                                 + rng.uniform(0, 2 * np.pi))
    return Field(grid, vals)


def build_solve_config(cfg: dict) -> SolveConfig:
    dn = DNConfig(tol=cfg["dn_tol"], n_levels=cfg["dn_levels"],
                  lipschitz_gate=cfg["lipschitz_gate"])
    pressure = PressureConfig(smallness_gate=cfg["pressure_gate"])
    scheme = cfg["scheme"] if cfg["scheme"] != "picard" else "ETDRK2"
    return SolveConfig(scheme=scheme, monitor_s=tuple(cfg["monitor_s"]),
                       dn=dn, pressure=pressure,
                       picard_gate=cfg["picard_gate"])


def cmd_simulate(cfg: dict, quiet=False) -> int:
    params = build_params(cfg)
    grid = PeriodicGrid(int(cfg["n"]), float(cfg["length"]))
    eta0 = build_initial_data(cfg, grid)
    depths = wall_distances(params.geometry)
    for side, dist in wall_distances(params.geometry, eta0.values).items():
        if dist <= depths[side] / 2.0:
            raise ConfigError(
                "initial boundary distance %.3g below half depth %.3g"
                % (dist, depths[side] / 2.0))
    scfg = build_solve_config(cfg)
    dt = cfg["dt"] if cfg["dt"] is not None else default_dt(grid, params)
    try:
        if cfg["scheme"] == "picard":
            traj = picard_solve(eta0, cfg["T"], params, scfg, dt=dt)
        else:
            traj = solve(eta0, cfg["T"], dt, params, scfg)
    except MuskatError as exc:
        from .evolution import Trajectory
        reason = "%s: %s" % (type(exc).__name__, exc)
        traj = Trajectory(times=[0.0], states=[eta0], monitors=[{"t": 0.0}],
                          abort_reason=reason,
                          manifest={"abort_reason": reason})
        write_trajectory(cfg["output_dir"], traj, cfg, __version__,
                         cfg["snapshot_stride"])
        if not quiet:
            print("aborted: %s" % traj.abort_reason)
        return 2
    write_trajectory(cfg["output_dir"], traj, cfg, __version__,
                     cfg["snapshot_stride"])
    if traj.abort_reason is not None:
        if not quiet:
            print("aborted: %s" % traj.abort_reason)
        return 2
    if not quiet:
        print("completed %d steps -> %s" % (len(traj.times) - 1,
                                            cfg["output_dir"]))
    return 0


def cmd_verify(suite: str, cfg: dict, quiet=False) -> int:
    if suite not in SUITES:
        print("unknown suite %r (choose from %s)"
              % (suite, ", ".join(sorted(SUITES))), file=sys.stderr)
        return 1
    rows = SUITES[suite]()
    import os
    os.makedirs(cfg["output_dir"], exist_ok=True)
    write_report_csv(os.path.join(cfg["output_dir"], "report.csv"), rows)
    ok = all(r["passed"] for r in rows)
    if not quiet:
        for r in rows:
            print("%-32s %s" % (r["check"], "pass" if r["passed"] else "FAIL"))
        print("%s: %d/%d checks passed" % (suite, sum(r["passed"] for r in rows),
                                           len(rows)))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="muskat")
    sub = parser.add_subparsers(dest="command", required=True)
    p_sim = sub.add_parser("simulate")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--output", default=None)
    p_sim.add_argument("--quiet", action="store_true")
    p_ver = sub.add_parser("verify")
    p_ver.add_argument("suite")
    p_ver.add_argument("--config", default=None)
    p_ver.add_argument("--output", default=None)
    p_ver.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            cfg = load_config(args.config)
        else:
            cfg = dict(CONFIG_DEFAULTS)
        if args.output is not None:
            cfg["output_dir"] = args.output
        if args.command == "simulate":
            return cmd_simulate(cfg, quiet=args.quiet)
        return cmd_verify(args.suite, cfg, quiet=args.quiet)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except MuskatError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
