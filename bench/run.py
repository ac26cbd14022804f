"""Benchmark launcher: one workload, one seed, one measurement.

    python3 bench/run.py --workload one_phase_n128 --seed 0 --seconds 25 --trace 0

Runs the workload's measured processes (``child.py``) back to back, closed
loop, until ``--seconds`` have passed, checks every output, and prints a
readable summary followed by one JSON line with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  Workloads,
metrics and their meaning are described in README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT = 150.0
MIN_RUNS = 3            # processes per run at least, whatever --seconds is

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
              "rel_err": "ratio", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.self_s": "s/op",
    "evolution.steps": "count/op", "evolution.rhs_calls": "count/op",
    "evolution.self_s": "s/op",
    "elastic.calls": "count/op", "elastic.self_s": "s/op",
    "dn.calls": "count/op", "dn.upper_calls": "count/op", "dn.self_s": "s/op",
    "dn.picard_iters": "count/op", "dn.iters_per_call": "iter/call",
    "dn.ms_per_iter": "ms/iter", "dn.unconverged": "count/op",
    "dn.solves_per_eta": "solve/eta",
    "pressure.calls": "count/op", "pressure.iters": "count/op",
    "pressure.self_s": "s/op", "pressure.oracle_calls": "count/op",
    "pressure.oracle_s": "s/op",
    "dn_oracle.calls": "count/op", "dn_oracle.self_s": "s/op",
    "serialization.self_s": "s/op", "serialization.bytes": "B/op",
    "grid.fields_built": "count/op",
    "trace.overhead_ms": "ms/op",
}


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def machine():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu or platform.processor(), "platform": platform.platform(),
            "threads": {var: "1" for var in THREAD_VARS}}


def spawn(argv, env):
    """Run one measured process; its record, or one holding the error."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD] + argv, env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"spawn": start, "error": "timed out", "unconverged": []}
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        rec = {"error": "exit %d, no result: %s"
               % (proc.returncode, proc.stderr[-2000:]), "unconverged": []}
    rec["spawn"] = start
    return rec


def p90(values):
    """The 90th percentile if at least ten samples lie above it, else None."""
    if len(values) < 2:
        return None
    v = statistics.quantiles(values, n=10, method="inclusive")[-1]
    return v if sum(x > v for x in values) >= 10 else None


# --- simulate workloads -------------------------------------------------------


def read_csv_rows(path):
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh]


def check_simulate(rec, outdir, cfg, steps):
    """Problems with one ``muskat simulate`` run; empty when it is correct."""
    if "error" in rec:
        return [rec["error"].strip().splitlines()[-1]]
    problems = []
    if rec["exit"] != 0:
        problems.append("exit code %s" % rec["exit"])
    try:
        with open(os.path.join(outdir, "manifest.json")) as fh:
            manifest = json.load(fh)
        rows = read_csv_rows(os.path.join(outdir, "monitors.csv"))
    except (OSError, ValueError) as exc:
        return problems + ["unreadable output: %s" % exc]
    if manifest.get("steps") != steps or manifest.get("abort_reason"):
        problems.append("%s of %d steps, abort %s"
                        % (manifest.get("steps"), steps,
                           manifest.get("abort_reason")))
    if len(rows) != steps + 2:
        problems.append("%d monitor rows for %d steps" % (len(rows) - 1, steps))
    bottomless = cfg.get("geometry", "bottomless") != "flat_bottom"
    for row in rows[1:]:
        for key, text in zip(rows[0], row):
            if text == "inf" and key == "boundary_distance" and bottomless:
                continue
            try:
                finite = abs(float(text)) < float("inf")
            except ValueError:
                finite = False
            if not finite:
                problems.append("monitor %s = %s" % (key, text))
    if not os.path.exists(os.path.join(outdir, "state_%06d.csv" % steps)):
        problems.append("final snapshot missing")
    return problems


def output_digest(outdir):
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def read_state(path):
    import numpy as np
    return np.array([float(row[1]) for row in read_csv_rows(path)[1:]])


def reference_state(workload, seed, cfg, env):
    """Refined final state for ``seed``: stored, cached, or computed now."""
    import numpy as np
    digest = workloads.config_digest(cfg)
    state = reference.stored(workload, seed, digest)
    if state is not None:
        return state
    cache = os.path.join(OUT, "references", "%s-%d-%s.npy"
                         % (workload, seed, digest[:16]))
    if not os.path.exists(cache):
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        print("computing the reference for seed %d" % seed, file=sys.stderr)
        part = cache + ".part.npy"
        subprocess.run([sys.executable, os.path.join(HERE, "reference.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--out", part], env=env, cwd=ROOT, check=True,
                       timeout=CHILD_TIMEOUT)
        os.replace(part, cache)
    return np.load(cache)


def failed_ops(rec, ops):
    """Ops that fail: all of a run whose check failed, else each op that
    includes an unconverged DN solve."""
    if rec["problems"]:
        return ops
    return len(set(rec["unconverged"]))


def bench_simulate(workload, seed, seconds, trace, rundir, env):
    steps = workloads.SIMULATE[workload]["steps"]
    cfg = workloads.simulate_config(workload, seed)
    ref = reference_state(workload, seed, cfg, env)
    cfg_path = os.path.join(rundir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    outdir = os.path.join(rundir, "out")
    runs = []
    first_digest = final = None
    start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - start < seconds:
        traced = trace and len(runs) % 2 == 1
        shutil.rmtree(outdir, ignore_errors=True)
        rec = spawn(["simulate", "--config", cfg_path, "--output", outdir]
                    + (["--trace"] if traced else []), env)
        rec["traced"] = traced
        rec["problems"] = check_simulate(rec, outdir, cfg, steps)
        if not rec["problems"]:
            timings(rec, rec["solve_entry"], rec["step_starts"]
                    + [rec["solve_exit"]], rec["main_exit"])
            digest, rec["bytes"] = output_digest(outdir)
            if first_digest is None:
                first_digest = digest
                final = read_state(os.path.join(outdir, "state_%06d.csv" % steps))
            elif digest != first_digest:
                rec["problems"].append("output differs from the first run")
        runs.append(rec)
    traced = [r for r in runs if r["traced"] and not r["problems"]]
    return summarize(runs, steps, rel_err(final, ref), trace, traced)


def rel_err(state, ref):
    import numpy as np
    if state is None or state.shape != ref.shape:
        return None
    return float(np.linalg.norm(state - ref) / np.linalg.norm(ref))


def timings(rec, entry, bounds, end):
    """Set a checked record's timings from its ``[wall, cpu]`` stamps: set-up
    (spawn to ``entry``), each op (consecutive ``bounds``), and the work
    after ``entry`` up to ``end``."""
    rec["setup"] = entry[0] - rec["spawn"]
    rec["ops"] = [b[0] - a[0] for a, b in zip(bounds, bounds[1:])]
    rec["op_cpu"] = sum(b[1] - a[1] for a, b in zip(bounds, bounds[1:]))
    rec["work"] = end[0] - entry[0]


def summarize(runs, ops_per_process, err, trace, layer_runs=()):
    """Failure counts, and timings from the untraced checked records.

    Each op is timed whole, so the figures do not depend on how the program
    divides its work into calls.  Timings are medians over the run's
    processes or ops: another tenant of the host slows work by up to 1.8x
    for minutes at a time, and a median follows its typical share where a
    minimum over a few repetitions jumps with the luck of one.
    ``layer_runs`` are the traced records the per-layer figures use.
    """
    good = [r for r in runs if not r["problems"]]
    timed = [r for r in good if not r["traced"]]
    op_s = [t for r in timed for t in r["ops"]]
    res = {"attempted": ops_per_process * len(runs),
           "failed": sum(failed_ops(r, ops_per_process) for r in runs),
           "samples": len(op_s), "processes": len(runs),
           "problems": [p for r in runs for p in r["problems"]]}
    res["correct"] = res["failed"] == 0 and err is not None
    if not timed:
        return res
    res.update(
        setup_s=statistics.median(r["setup"] for r in timed),
        ops_per_s=len(op_s) / sum(r["work"] for r in timed),
        op_ms_p50=1e3 * statistics.median(op_s),
        op_ms_p90=p90([1e3 * t for t in op_s]), rel_err=err,
        peak_rss_mb=statistics.median(r["maxrss_kb"] / 1024.0 for r in timed),
        cpu_share=sum(r["op_cpu"] for r in timed) / sum(op_s),
        op_ms=[1e3 * t for t in op_s])
    if trace:
        res["layers"] = layer_metrics(layer_runs,
                                      ops_per_process * len(layer_runs))
        res["layers"]["trace.overhead_ms"] = (
            1e3 * statistics.median(t for r in layer_runs for t in r["ops"])
            - res["op_ms_p50"] if layer_runs else 0.0)
        res["spans"] = [r["trace"]["spans"] for r in layer_runs]
    return res


# --- referee workload ---------------------------------------------------------

def check_referee(rec):
    if "error" in rec:
        return [rec["error"].strip().splitlines()[-1]]
    problems = []
    for key, tol in (("dn_dev", workloads.DN_TOL),
                     ("pressure_dev", workloads.PRESSURE_TOL)):
        if not rec[key] <= tol:
            problems.append("%s %.3g above %.3g" % (key, rec[key], tol))
    return problems


def bench_referee(seed, seconds, trace, env):
    """Op = one comparison, the same one in every process of the run; with
    tracing, untraced and traced processes alternate."""
    runs = []
    start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - start < seconds:
        traced = trace and len(runs) % 2 == 1
        rec = spawn(["referee", "--seed", str(seed)]
                    + (["--trace"] if traced else []), env)
        rec["traced"] = traced
        rec["problems"] = check_referee(rec)
        if not rec["problems"]:
            stamps = rec["stamps"]
            timings(rec, stamps[0], [stamps[0], stamps[-1]], stamps[-1])
        runs.append(rec)
    good = [r for r in runs if not r["problems"]]
    err = max(good[0]["dn_dev"], good[0]["pressure_dev"]) if good else None
    res = summarize(runs, 1, err, trace, [r for r in good if r["traced"]])
    if good:
        res["dn_dev"], res["pressure_dev"] = good[0]["dn_dev"], good[0]["pressure_dev"]
    return res


# --- per-layer metrics --------------------------------------------------------


def layer_metrics(traced, ops):
    """Per-op layer figures of the traced processes, which all do the same
    work: counts and times are summed over the processes and divided by
    their ops."""
    calls, counts, self_s, inclusive = {}, {}, {}, {}
    interfaces = bytes_written = 0
    for rec in traced:
        tr = rec["trace"]
        for total, part in ((calls, tr["calls"]), (counts, tr["counts"]),
                            (self_s, tr["self_s"]),
                            (inclusive, tr["inclusive_s"])):
            for key, val in part.items():
                total[key] = total.get(key, 0) + val
        interfaces += tr["interfaces"]
        bytes_written += rec.get("bytes", 0)

    def per_op(value):
        return value / ops if ops else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    dn_calls = calls.get("dn.dn_fixed_point", 0)
    iters = counts.get("dn.picard_iters", 0)
    return {
        "cli.self_s": per_op(self_s.get("cli", 0.0)),
        "evolution.steps": per_op(calls.get("evolution.etd_step", 0)),
        "evolution.rhs_calls": per_op(calls.get("evolution.rhs", 0)),
        "evolution.self_s": per_op(self_s.get("evolution", 0.0)),
        "elastic.calls": per_op(calls.get("elastic.elastic_E", 0)),
        "elastic.self_s": per_op(self_s.get("elastic", 0.0)),
        "dn.calls": per_op(dn_calls),
        "dn.upper_calls": per_op(calls.get("dn.dn_upper", 0)),
        "dn.self_s": per_op(self_s.get("dn", 0.0)),
        "dn.picard_iters": per_op(iters),
        "dn.iters_per_call": ratio(iters, dn_calls),
        "dn.ms_per_iter": ratio(1e3 * self_s.get("dn", 0.0), iters),
        "dn.unconverged": per_op(counts.get("dn.unconverged", 0)),
        "dn.solves_per_eta": ratio(dn_calls, interfaces),
        "pressure.calls": per_op(calls.get("pressure.pressure_fixed_point", 0)),
        "pressure.iters": per_op(counts.get("pressure.iters", 0)),
        "pressure.self_s": per_op(self_s.get("pressure", 0.0)),
        "pressure.oracle_calls": per_op(calls.get("pressure.pressure_oracle", 0)),
        "pressure.oracle_s": per_op(inclusive.get("pressure.pressure_oracle", 0.0)),
        "dn_oracle.calls": per_op(calls.get("dn_oracle.oracle_dn", 0)),
        "dn_oracle.self_s": per_op(self_s.get("dn_oracle", 0.0)),
        "serialization.self_s": per_op(self_s.get("serialization", 0.0)),
        "serialization.bytes": per_op(bytes_written),
        "grid.fields_built": per_op(counts.get("grid.fields_built", 0)),
    }


# --- output ---------------------------------------------------------------------


def report(workload, seed, trace, res, info):
    """Readable lines, then the result file, then the JSON line last."""
    print("workload %s  seed %d  trace %d: %d ops attempted, %d failed, "
          "%d processes, %d timed samples"
          % (workload, seed, trace, res["attempted"], res["failed"],
             res["processes"], res["samples"]))
    print("machine: %s" % json.dumps(info, sort_keys=True))
    for problem in res["problems"][:10]:
        print("problem: %s" % problem)
    if trace:
        names, values = PER_LAYER, res.get("layers", {})
    else:
        names, values = END_TO_END, res
        print("  %-22s %.6g" % ("fail_share", res["failed"] / res["attempted"]))
        if "cpu_share" in res:
            print("  %-22s %.4g (process CPU time over wall time of the ops)"
                  % ("cpu_share", res["cpu_share"]))
        p90 = res.get("op_ms_p90")
        print("  %-22s %s" % ("op_ms_p90", "%.6g ms" % p90 if p90 is not None
                             else "not reported: under 10 samples beyond it"))
        if workload == workloads.REFEREE and "dn_dev" in res:
            print("  %-22s %.6g" % ("dn_dev", res["dn_dev"]))
            print("  %-22s %.6g" % ("pressure_dev", res["pressure_dev"]))
    metrics = {}
    for name, unit in names.items():
        value = values.get(name)
        metrics[name] = {"value": value, "unit": unit}
        print("  %-22s %s %s" % (name, "%.6g" % value if value is not None
                                  else "n/a", unit))
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (workload, seed, trace))
    if "spans" in res:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "op"],
                       "processes": res.pop("spans")}, fh)
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "trace": trace,
                   "machine": info, "result": res}, fh, indent=1)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "elastic_muskat",
                                       "__init__.py")):
        print("error: the program's source (src/elastic_muskat) is not "
              "next to bench/", file=sys.stderr)
        return 2
    env = child_env()
    os.makedirs(OUT, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        if args.workload == workloads.REFEREE:
            res = bench_referee(args.seed, args.seconds, args.trace, env)
        else:
            res = bench_simulate(args.workload, args.seed, args.seconds,
                                 args.trace, rundir, env)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    report(args.workload, args.seed, args.trace, res, machine())
    return 0


if __name__ == "__main__":
    sys.exit(main())
