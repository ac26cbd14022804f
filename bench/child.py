"""One measured process: a ``muskat simulate`` run or one referee comparison.

    python3 bench/child.py simulate --config cfg.json --output dir [--trace]
    python3 bench/child.py referee --seed S [--trace]

The process enters the program only through its public functions and prints
one JSON line with its stamps (see ``clock``), the convergence of every DN
solve, peak RSS and, when traced, the spans and per-layer totals.
"""

import argparse
import inspect
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the package's modules that get spans; paracalc and verify get none (see
# README.md), params and errors do no work, grid is measured by Field counts
LAYERS = ("cli", "evolution", "elastic", "dn", "pressure", "dn_oracle",
          "serialization")
# per-number formatter: a span per value written would dominate the trace
UNTRACED = {"serialization.fmt"}


def _eta(args, kwargs):
    return args[0] if args else kwargs["eta"]


def instrument(tracer, patch):
    """Trace every public function of LAYERS and count Field constructions.

    Returns the set of distinct interfaces entering DN solves; an upper
    solve counts under the interface it was asked for, not its reflection.
    """
    import importlib

    from elastic_muskat import grid

    interfaces = set()

    def dn_solve(tr, args, kwargs, result):
        tr.counts["dn.picard_iters"] += result.iterations
        tr.counts["dn.unconverged"] += not result.converged
        if tr.current != "dn.dn_upper":
            interfaces.add(_eta(args, kwargs).values.tobytes())

    def dn_upper(tr, args, kwargs, result):
        interfaces.add(_eta(args, kwargs).values.tobytes())

    def pressure_solve(tr, args, kwargs, result):
        tr.counts["pressure.iters"] += result.iterations

    observers = {"dn.dn_fixed_point": dn_solve, "dn.dn_upper": dn_upper,
                 "pressure.pressure_fixed_point": pressure_solve}
    for layer in LAYERS:
        module = importlib.import_module("elastic_muskat." + layer)
        for name, obj in list(vars(module).items()):
            qual = "%s.%s" % (layer, name)
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_") and qual not in UNTRACED
                    and not getattr(obj, "bench_wrapper", False)):
                patch.replace(obj, tracer.wrap(layer, obj, observers.get(qual)))

    post_init = grid.Field.__post_init__

    def counted_post_init(self):
        tracer.counts["grid.fields_built"] += 1
        post_init(self)

    patch.setattr(grid.Field, "__post_init__", counted_post_init)
    return interfaces


def clock():
    """Monotonic wall seconds and the process's CPU seconds, as a pair.

    The wall clock is the launcher's too, so set-up time counts from spawn.
    """
    return [time.monotonic(), time.process_time()]


class Watch:
    """Op clock and DN convergence record, installed in every run.

    Simulate ops are ETD steps: a step runs from one ``etd_step`` entry to
    the next, or to the return of ``solve``, so it includes its monitors.
    Every stamp is a ``clock()`` pair.
    """

    def __init__(self, patch, tracer=None):
        from elastic_muskat import dn, evolution

        self.step_starts = []
        self.unconverged = []     # op index of each unconverged DN solve
        self.solve_entry = self.solve_exit = None
        etd_step, solve, dn_fixed_point = (evolution.etd_step, evolution.solve,
                                           dn.dn_fixed_point)

        def timed_step(*args, **kwargs):
            self.step_starts.append(clock())
            if tracer is not None:
                tracer.op = len(self.step_starts) - 1
            return etd_step(*args, **kwargs)

        def timed_solve(*args, **kwargs):
            if self.solve_entry is None:
                self.solve_entry = clock()
            try:
                return solve(*args, **kwargs)
            finally:
                self.solve_exit = clock()

        def watched_dn(*args, **kwargs):
            result = dn_fixed_point(*args, **kwargs)
            if not result.converged:
                self.unconverged.append(max(len(self.step_starts) - 1, 0))
            return result

        for original, wrapper in ((etd_step, timed_step), (solve, timed_solve),
                                  (dn_fixed_point, watched_dn)):
            wrapper.bench_wrapper = True
            patch.replace(original, wrapper)


def trace_report(tracer, interfaces):
    return {"self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
            "inclusive_s": dict(tracer.inclusive_s),
            "counts": dict(tracer.counts), "interfaces": len(interfaces),
            "spans": tracer.spans}


def run_simulate(args, watch):
    from elastic_muskat import cli

    code = cli.main(["simulate", "--config", args.config,
                     "--output", args.output, "--quiet"])
    return {"exit": code, "main_exit": clock(),
            "solve_entry": watch.solve_entry, "solve_exit": watch.solve_exit,
            "step_starts": watch.step_starts}


def run_referee(args, watch):
    import numpy as np

    from elastic_muskat import dn, dn_oracle, pressure
    from elastic_muskat.grid import Field, PeriodicGrid
    from elastic_muskat.params import PhysicalParams

    import workloads

    data = workloads.referee_inputs(args.seed)
    grid = PeriodicGrid(workloads.REFEREE_N)
    eta, f = Field(grid, data["eta_dn"]), Field(grid, data["f"])
    eta_p = Field(grid, data["eta_pressure"])
    params = PhysicalParams(**workloads.REFEREE_PHYSICS)

    stamps = [clock()]
    gf = dn.dn_fixed_point(eta, f).gf
    stamps.append(clock())
    ref = dn_oracle.oracle_dn(eta, f)
    stamps.append(clock())
    fp = pressure.pressure_fixed_point(eta_p, params)
    stamps.append(clock())
    po = pressure.pressure_oracle(eta_p, params)
    stamps.append(clock())

    def rel(a, b):
        return float(np.linalg.norm(a.values - b.values)
                     / np.linalg.norm(b.values))

    return {"stamps": stamps, "dn_dev": rel(gf, ref),
            "pressure_dev": rel(fp.f_minus, po.f_minus)}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("kind", choices=("simulate", "referee"))
    parser.add_argument("--config")
    parser.add_argument("--output")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import elastic_muskat  # noqa: F401  (binds every module before patching)

    from tracer import Patch, Tracer

    patch = Patch("elastic_muskat")
    tracer = Tracer() if args.trace else None
    interfaces = instrument(tracer, patch) if tracer else None
    watch = Watch(patch, tracer)
    try:
        run = run_simulate if args.kind == "simulate" else run_referee
        out = run(args, watch)
    except Exception:  # reported to the launcher, which counts the failure
        out = {"error": traceback.format_exc()}
    finally:
        patch.undo()
    out["unconverged"] = watch.unconverged
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["trace"] = trace_report(tracer, interfaces)
    print(json.dumps(out))
    return 1 if "error" in out else 0


if __name__ == "__main__":
    sys.exit(main())
