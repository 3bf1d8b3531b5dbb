#!/usr/bin/env python3
"""Run perfbench over several seeds and report each metric's spread.

Run from the repository root:

    python3 _perfbench/spread.py --workloads sdb-ingest,rdata-churn --seeds 1-10

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread,
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json. With
--json it also writes the figures, with the host's CPU count, Go version
and commit, in the shape of a trajectory row.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def describe(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--json", help="write the figures to this file")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {
        "host_cpus": os.cpu_count(),
        "go": describe(["go", "version"]),
        "commit": describe(["git", "rev-parse", "--short", "HEAD"]),
        "run_seconds": bench["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    worst = 0.0
    for wl in args.workloads.split(","):
        values = {}
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(s),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            if p.returncode != 0:
                sys.stderr.write(p.stderr)
                sys.exit(f"{wl} seed {s}: exit {p.returncode}")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        rows = {}
        for k in sorted(values):
            v = values[k]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            rows[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": v}
            if k != "setup_s":
                worst = max(worst, spread / bounds[k])
            print(f"{wl:12s} {k:16s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:6.3f}  bound {bounds[k]:.2f}", flush=True)
        report["workloads"][wl] = rows
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
