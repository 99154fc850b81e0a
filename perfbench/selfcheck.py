"""Check that the traced runs see what the workloads are meant to stress.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]

Runs run.py --trace 1 twice per workload on one seed and fails unless:
- every run verifies all its operations;
- the event counts of the two runs are identical;
- each layer metric in STRESSED is non-zero on its workload;
- the theta and seed counters are zero on `complete`;
- no scatter.complete_rank2 span lies in the timed region of `theta`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import tracing  # noqa: E402

# which workload each layer metric is meant to move (the rest it bypasses)
STRESSED = {
    "complete": [
        "ring.series_pow.calls", "ring.series_pow.self_s", "ring.series_mul.calls",
        "ring.series_mul.self_s", "ring.coeff_mul.calls", "ring.grading.calls",
        "ring.grading.hit_ratio", "scatter.complete_rank2.self_s",
        "scatter.loop_product.calls", "scatter.wall_cross.calls",
        "scatter.wall_cross.self_s", "scatter.wall_cross.terms_in", "scatter.walls_out",
    ],
    "theta": [
        "ring.series_pow.calls", "ring.series_mul.calls", "ring.grading.calls",
        "ring.grading.hit_ratio", "theta.enumerate.calls", "theta.enumerate.self_s",
        "theta.dfs_nodes", "theta.lines_found", "theta.lines_per_node",
        "theta.series_pow.calls", "theta.structure_constant.self_s",
    ],
    "cli": [
        "scatter.complete_rank2.self_s", "scatter.equivalence_check.self_s",
        "seed.mutate_cluster.calls", "seed.mutate_cluster.self_s", "seed.laurent.self_s",
        "seed.mutate_seed.calls", "cli.spawn_s", "cli.import_s", "cli.cache.hits",
        "cli.cache.misses", "cli.cache.hit_ratio", "cli.render.self_s",
    ],
}
ZERO_ON_COMPLETE = [name for name in tracing.COUNT_METRICS
                    if name.startswith(("theta.", "seed."))]


def traced_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout
    return json.loads(out.decode().strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    problems = []
    for workload, stressed in STRESSED.items():
        runs = [traced_run(workload, args.seed, args.seconds) for _ in range(2)]
        values = [{k: m["value"] for k, m in r["metrics"].items()} for r in runs]
        for r in runs:
            if not r["correct"]:
                problems.append("%s: %d of %d operations failed"
                                % (workload, r["failed"], r["attempted"]))
        for name in tracing.COUNT_METRICS:
            if values[0][name] != values[1][name]:
                problems.append("%s: %s differs between runs: %s vs %s"
                                % (workload, name, values[0][name], values[1][name]))
        for name in stressed:
            if not values[0][name]:
                problems.append("%s: %s is zero" % (workload, name))
        if workload == "complete":
            for name in ZERO_ON_COMPLETE:
                if values[0][name]:
                    problems.append("complete: %s is %s, not zero" % (name, values[0][name]))
        if workload == "theta":
            path = os.path.join(HERE, "out", "trace-theta-seed%d.jsonl" % args.seed)
            with open(path, encoding="utf-8") as fh:
                if any(json.loads(line)[1] == "scatter.complete_rank2" for line in fh):
                    problems.append("theta: complete_rank2 ran inside a timed operation")
        print("%s: overhead %.2fx, %s" % (
            workload, values[0]["trace.overhead_ratio"],
            ", ".join("%s=%g" % (k, values[0][k]) for k in stressed)), flush=True)
    for p in problems:
        print("FAIL", p)
    if problems:
        sys.exit(1)
    print("self-check passed")


if __name__ == "__main__":
    main()
