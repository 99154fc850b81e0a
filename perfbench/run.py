"""gcsdiag benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload complete|theta|cli --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports gcsdiag from src/ and
installs nothing.  Workloads (all closed loops, one client, one operation at
a time; see generate.py for the inputs and BENCHMARK.json for why each one
exists):

  complete  complete_rank2 + dump_diagram on high-order jobs
  theta     theta and structure_constant on diagrams completed in set-up
  cli       one `gcsdiag` process per request, with a fresh cache directory

Each run times S seconds' worth of operations at the baseline speed (whole
rounds of generate.ROUND_SECONDS), once each, in one fresh process, so runs
of one seed always repeat the same operations.  Every execution's output is
checked outside the timed region.  The last stdout line is a JSON object
with `correct`, `attempted` (the executions), `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: setup_s (the median over
SETUP_SAMPLES fresh processes, from process start to the first timed
operation, half of them started before the timed run and half after),
ops_per_s_norm, op_p50_ms_norm, op_tail_ms_norm (the highest percentile
with at least ten samples beyond it) and peak_rss_mb (the largest gcsdiag
child for cli).  A virtual CPU on a shared host can change speed by half,
within seconds and between runs, so each operation's latency is
normalised: multiplied by REF_NOMINAL_S over the mean time the workload's
reference (a fixed piece of work of the same kind that does not run
gcsdiag, see workloads.py) took just before and just after it.  A
normalised millisecond is what the operation would take on a machine where
the reference takes REF_NOMINAL_S; the raw figures are printed too.  Every
process of a run is kept on one CPU, so the reference and the operation
(or the CLI child) see the same core.
--trace 1 runs the operations untraced and then, in a second fresh process,
traced, and reports the per-layer metrics of tracing.LAYER_METRICS with the
overhead (normalised throughputs of the two runs).  Spans of the traced run
are written to perfbench/out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import tracing  # noqa: E402

WORKLOADS = ("complete", "theta", "cli")
SETUP_SAMPLES = {"complete": 5, "theta": 3, "cli": 5}
# about the median time of each workload's reference (workloads.py) on the
# 2-vCPU Xeon VM with Python 3.11.7 that perfbench/baseline.json was measured on
REF_NOMINAL_S = {"complete": 0.025, "theta": 0.025, "cli": 0.12}


def tail(latencies):
    """(value, percentile): the highest percentile with >= 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def normalised(workload, res):
    """Latencies scaled to a machine where the reference takes REF_NOMINAL_S."""
    ref, nominal = res["ref_s"], REF_NOMINAL_S[workload]
    return [lat * nominal * 2 / (ref[i] + ref[i + 1])
            for i, lat in enumerate(res["latencies"])]


def worker(args, tmp, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--tmp", tmp] + list(extra)
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawn = time.monotonic_ns()
    proc = subprocess.run(cmd + ["--spawn-ns", str(spawn)], cwd=ROOT, env=env,
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, check=False)
    if proc.returncode != 0:
        raise SystemExit("worker failed with exit code %d" % proc.returncode)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def setup_probes(args, tmp, n):
    times = []
    for _ in range(n):
        probe = tempfile.mkdtemp(prefix="setup-", dir=tmp)
        times.append(worker(args, probe, 0, ["--setup-only"])["setup_s"])
    return times


def end_to_end(workload, res, setups):
    lat = normalised(workload, res)
    value, pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s_norm": (res["verified"] / sum(lat), "1/s"),
        "op_p50_ms_norm": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms_norm": (value * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    raw = res["latencies"]
    notes = ["op_tail_ms_norm is p%.1f of %d samples" % (pct, len(lat)),
             "setup_s is the median of %d set-ups" % len(setups),
             "raw: ops_per_s %.4g 1/s, op_p50_ms %.4g ms, op_tail_ms %.4g ms, "
             "reference median %.4g ms"
             % (res["verified"] / sum(raw), statistics.median(raw) * 1e3,
                tail(raw)[0] * 1e3, statistics.median(res["ref_s"]) * 1e3)]
    return metrics, notes


def per_layer(workload, untraced_res, res):
    layer = res["layer"]
    untraced = untraced_res["verified"] / sum(normalised(workload, untraced_res))
    traced = res["verified"] / sum(normalised(workload, res))
    layer["trace.ops_per_s"] = traced
    layer["trace.untraced_ops_per_s"] = untraced
    layer["trace.overhead_ratio"] = untraced / traced
    units = dict(tracing.LAYER_METRICS)
    return {k: (layer[k], units[k]) for k, _ in tracing.LAYER_METRICS}, []


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "gcsdiag", "__init__.py")):
        sys.exit("no gcsdiag sources under %s" % os.path.join(ROOT, "src"))

    # every process of the run, CLI children too, inherits this CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        if args.trace:
            untraced = worker(args, tempfile.mkdtemp(prefix="untraced-", dir=tmp), 0)
            trace_out = os.path.join(OUT, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))
            res = worker(args, tempfile.mkdtemp(prefix="traced-", dir=tmp), 1,
                         ["--trace-out", trace_out])
            attempted = untraced["attempted"] + res["attempted"]
            failed = untraced["failed"] + res["failed"]
            metrics, notes = per_layer(args.workload, untraced, res)
        else:
            # the probes flank the timed run, so a slow spell of the machine
            # during one part of the run moves the median less
            n = SETUP_SAMPLES[args.workload] - 1
            setups = setup_probes(args, tmp, n // 2)
            res = worker(args, tempfile.mkdtemp(prefix="timed-", dir=tmp), 0)
            setups += [res["setup_s"]] + setup_probes(args, tmp, n - n // 2)
            attempted, failed = res["attempted"], res["failed"]
            metrics, notes = end_to_end(args.workload, res, setups)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("workload %s seed %d: %d operations, %d failed, fail_ratio %g"
          % (args.workload, args.seed, attempted, failed, failed / attempted))
    for name, (value, unit) in metrics.items():
        print("%-34s %14.6g %s" % (name, value, unit))
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
