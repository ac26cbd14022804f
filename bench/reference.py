"""Refined references for ``rel_err``: the same run at 4x dn_levels and dt/4.

    python3 bench/reference.py                      # rewrite all stored files
    python3 bench/reference.py --workload two_phase_n128
    python3 bench/reference.py --workload W --seed S --out ref.npy

Stored references (``references/<workload>.npz``) cover DEFAULT_SEEDS so
that two commits compared on those seeds measure against the same states;
each carries the digest of the config it was computed from, and the
launcher recomputes (outside the timed region) any seed that is missing or
whose config no longer matches.
"""

import argparse
import os
import sys

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STORE = os.path.join(HERE, "references")
DEFAULT_SEEDS = range(32)
REFINE = 4


def refined_final_state(cfg):
    """Final interface of ``cfg`` rerun with REFINE x levels and dt / REFINE."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from elastic_muskat import cli, evolution
    from elastic_muskat.grid import PeriodicGrid

    fine = dict(cli.CONFIG_DEFAULTS)
    fine.update(cfg)
    fine["dn_levels"] = cfg["dn_levels"] * REFINE
    params = cli.build_params(fine)
    grid = PeriodicGrid(int(fine["n"]), float(fine["length"]))
    eta0 = cli.build_initial_data(fine, grid)
    dt = fine["dt"] / REFINE
    traj = evolution.solve(eta0, fine["T"], dt, params,
                           cli.build_solve_config(fine))
    steps = int(round(fine["T"] / fine["dt"])) * REFINE
    if traj.abort_reason is not None or len(traj.times) - 1 != steps:
        raise RuntimeError("reference run stopped early: %s" % traj.abort_reason)
    return traj.states[-1].values


def stored(workload, seed, digest):
    """The stored reference for ``seed``, or None if absent or stale."""
    path = os.path.join(STORE, workload + ".npz")
    if not os.path.exists(path):
        return None
    with np.load(path, allow_pickle=False) as data:
        hit = np.flatnonzero(data["seeds"] == seed)
        if len(hit) and str(data["digests"][hit[0]]) == digest:
            return data["states"][hit[0]].copy()
    return None


def write_store(workload):
    states, digests = [], []
    for seed in DEFAULT_SEEDS:
        cfg = workloads.simulate_config(workload, seed)
        states.append(refined_final_state(cfg))
        digests.append(workloads.config_digest(cfg))
        print("%s seed %d done" % (workload, seed), flush=True)
    os.makedirs(STORE, exist_ok=True)
    np.savez_compressed(os.path.join(STORE, workload + ".npz"),
                        seeds=np.asarray(DEFAULT_SEEDS),
                        digests=np.asarray(digests), states=np.asarray(states))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.SIMULATE))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.out is not None:
        if args.workload is None or args.seed is None:
            parser.error("--out needs --workload and --seed")
        cfg = workloads.simulate_config(args.workload, args.seed)
        np.save(args.out, refined_final_state(cfg))
        return 0
    for workload in [args.workload] if args.workload else workloads.SIMULATE:
        write_store(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
