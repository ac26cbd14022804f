"""CSV and JSON output.

All numbers are written in decimal with 17 significant digits so that
round-tripping through text is exact for doubles and reruns are
byte-identical.
"""

import csv
import json
import os

from .grid import Field


def fmt(x) -> str:
    return format(float(x), ".17g")


def write_field_csv(path, f: Field):
    # the rows csv.writer would write, formatted in one join
    rows = zip(f.grid.nodes.tolist(), f.values.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("x,value\r\n")
        fh.write("".join("%.17g,%.17g\r\n" % row for row in rows))


def write_report_csv(path, rows):
    """Verification report: (check, expected, measured, tolerance, pass)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["check", "expected", "measured", "tolerance", "pass"])
        for r in rows:
            w.writerow([r["check"], fmt(r["expected"]), fmt(r["measured"]),
                        fmt(r["tolerance"]), "true" if r["passed"] else "false"])


def write_trajectory(outdir, traj, config: dict, version: str,
                     stride: int = 1):
    os.makedirs(outdir, exist_ok=True)
    manifest = {"config": config, "version": version}
    manifest.update({k: v for k, v in traj.manifest.items()})
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    keys = list(traj.monitors[0].keys())
    with open(os.path.join(outdir, "monitors.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(keys)
        for mon in traj.monitors:
            w.writerow([fmt(mon[k]) for k in keys])
    # every stride-th state, and always the last: the state at T, or the
    # offending state of an abort
    last = len(traj.states) - 1
    for i in [*range(0, last, stride), last]:
        write_field_csv(os.path.join(outdir, "state_%06d.csv" % i),
                        traj.states[i])
