"""Every workload, untraced and traced, in one command.

    python3 bench/all.py --seed 0 --seconds 25 [--out bench/results/baseline.json]

Prints every metric with its unit for every workload, and the end-to-end
metrics that BENCHMARK.json cannot list (``fail_share``; ``op_ms_p90``
where it has ten samples beyond it).  With ``--out``, writes the results,
with machine information, as one JSON file.
"""

import argparse
import json
import os
import subprocess
import sys

import run
import workloads


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    results = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, check=True)
            print(proc.stdout.rsplit("\n", 2)[0], flush=True)
            path = os.path.join(run.OUT, "%s-seed%d-trace%d.json"
                                % (workload, args.seed, trace))
            with open(path) as fh:
                results["%s/trace%d" % (workload, trace)] = json.load(fh)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(r["result"]["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
