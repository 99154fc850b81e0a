"""Run every workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 10] [--workloads complete theta cli]
                                [--baseline perfbench/baseline.json]

It prints every run's metrics with their units and failure counts.  With
--seeds 1 it is the one command that runs all workloads once.  With two or
more seeds it then prints, for each end-to-end metric, the median of the
runs and the distance between the first and third quartile as a share of
the median: "ok" below a third of the bound BENCHMARK.json gives the metric,
"within bound" below the bound, "WIDE" otherwise.  With
--baseline it writes the medians, quartiles and every run's values to that
file, with the Python version and CPU count they were measured with.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--baseline", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "run_seconds": bench["run_seconds"], "workloads": {}}
    steady, failed = True, 0
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout
            lines = out.decode().strip().splitlines()
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            failed += res["failed"]
            if not res["correct"]:
                print("%s seed %d: %d failed" % (workload, seed, res["failed"]))
            runs.append({k: m["value"] for k, m in res["metrics"].items()})
        summary = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            summary[name] = {"median": statistics.median(values), "values": values}
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / summary[name]["median"]
            verdict = "ok" if spread < bound / 3 else "within bound" if spread < bound else "WIDE"
            steady &= verdict == "ok"
            summary[name].update(q1=q1, q3=q3, spread=spread)
            print("  %-16s median %12.5g  spread %6.3f  (bound %.2f) %s"
                  % (name, summary[name]["median"], spread, bound, verdict), flush=True)
        report["workloads"][workload] = summary
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    print("%d operations failed" % failed)
    if args.seeds > 1:
        print("steady" if steady else "NOT steady")


if __name__ == "__main__":
    main()
