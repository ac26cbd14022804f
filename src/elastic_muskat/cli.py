"""Command-line entry point.

muskat simulate --config cfg.json [--output dir] [--quiet]
muskat verify <suite> [--config cfg.json] [--output dir] [--quiet]

Configs are flat JSON with a strict schema: unknown keys are rejected and
every key has a default except ``dt``, which ``simulate`` requires.
``simulate`` runs every scheme (ETD1, ETDRK2, picard) through
evolution.solve and writes its trajectory, aborted or not.
Exit codes: 0 success, 1 invalid input (before any output) or failed
verification, 2 clean solver abort (separation or contraction loss).
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .dn import DNConfig
from .errors import ConfigError, MuskatError
from .evolution import SCHEMES, SolveConfig, solve
from .grid import Field, PeriodicGrid
from .params import Geometry, PhysicalParams, wall_distances
from .serialization import write_report_csv, write_trajectory

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
    "dt": None,                # required: simulate has no default step
    "T": 1.0,
    "dn_tol": 1e-10,
    "dn_levels": 64,
    "lipschitz_gate": 0.3,
    "modes": [],               # list of [k, amplitude, phase]
    "tail_amplitude": 0.0,
    "tail_decay": 2.0,
    "seed": 0,
    "output_dir": "out",
    "snapshot_stride": 1,
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
        if not (isinstance(entry, list) and len(entry) == 3
                and all(map(_is_number, entry))):
            raise ConfigError("each mode entry must be [k, amplitude, phase],"
                              " three numbers, not %r" % (entry,))
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
    return SolveConfig(scheme=cfg["scheme"], dn=dn)


def _is_number(val) -> bool:
    # JSON true and false load as bool, which is an int subclass
    return isinstance(val, (int, float)) and not isinstance(val, bool)


_TYPE_NAMES = {float: "a number", int: "an integer", bool: "true or false",
               str: "a string", list: "a list"}


def _is_finite(val) -> bool:
    # json.load takes NaN, Infinity and -Infinity as floats
    return not isinstance(val, float) or math.isfinite(val)


def check_run_settings(cfg: dict):
    """Reject settings the time loop would fail on, before anything is built.

    Every key but ``dt`` takes its default's type; a float key also takes
    an integer, and no number key takes true or false.  Every number, in
    ``modes`` too, is finite.
    """
    for key, default in CONFIG_DEFAULTS.items():
        if default is None:
            continue
        val, kind = cfg[key], type(default)
        ok = isinstance(val, (int, float) if kind is float else kind)
        if not ok or isinstance(val, bool) != isinstance(default, bool):
            raise ConfigError("%s must be %s, not %r"
                              % (key, _TYPE_NAMES[kind], val))
    for key in CONFIG_DEFAULTS:
        if not _is_finite(cfg[key]):
            raise ConfigError("%s must be finite, not %r" % (key, cfg[key]))
    for entry in cfg["modes"]:
        if isinstance(entry, list) and not all(map(_is_finite, entry)):
            raise ConfigError("mode entries must be finite, not %r" % (entry,))
    if cfg["scheme"] not in SCHEMES:
        raise ConfigError("scheme must be one of %s, not %r"
                          % (", ".join(SCHEMES), cfg["scheme"]))
    if cfg["scheme"] == "picard" and cfg["phase"] != "one":
        raise ConfigError("scheme picard is one-phase only")
    for key in ("T", "dt", "dn_tol", "lipschitz_gate"):
        if not _is_number(cfg[key]) or not cfg[key] > 0:
            raise ConfigError("%s must be a positive number, not %r"
                              % (key, cfg[key]))
    # PeriodicGrid checks the range of n
    for key, least in (("dn_levels", 2), ("snapshot_stride", 1), ("seed", 0),
                       ("tail_amplitude", 0)):
        if cfg[key] < least:
            raise ConfigError("%s must be at least %d, not %r"
                              % (key, least, cfg[key]))


def cmd_simulate(cfg: dict, quiet=False) -> int:
    check_run_settings(cfg)
    params = build_params(cfg)
    try:
        grid = PeriodicGrid(cfg["n"], float(cfg["length"]))
    except ValueError as exc:
        raise ConfigError(str(exc))
    eta0 = build_initial_data(cfg, grid)
    depths = wall_distances(params.geometry)
    for side, dist in wall_distances(params.geometry, eta0.values).items():
        if dist <= depths[side] / 2.0:
            raise ConfigError(
                "initial boundary distance %.3g below half depth %.3g"
                % (dist, depths[side] / 2.0))
    scfg = build_solve_config(cfg)
    traj = solve(eta0, cfg["T"], cfg["dt"], params, scfg)
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
    # imported here so that simulate runs never load verify's referees
    from .verify import SUITES

    if suite not in SUITES:
        print("unknown suite %r (choose from %s)"
              % (suite, ", ".join(sorted(SUITES))), file=sys.stderr)
        return 1
    rows = SUITES[suite]()
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
