"""One fresh-process run of one workload; run.py starts it.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                --tmp DIR --spawn-ns NS [--setup-only]

Prints one JSON object: the set-up time (from NS, the parent's
time.monotonic_ns() before it started this process, to the end of set-up),
per-operation latencies, the reference times around them, verification
results and peak RSS.  The operations fill S seconds and run once, each
timed on its own and checked after its timer stops.  Before each operation
and after the last one, the worker times the workload's reference, a fixed
piece of work like the operation's that does not run gcsdiag, so run.py
can tell the machine's speed at that moment apart from the program's.
With --trace 1 the operations run through the wrappers of tracing.py and
the object adds the per-layer metrics.
"""

import time

START_NS = time.monotonic_ns()

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_ops(wl, ops, rec):
    """Time every operation, then verify it; returns (latencies, ref_s, oks).

    ref_s[i] and ref_s[i + 1] are the workload's reference times just before
    and just after operation i.
    """
    latencies, ref_s, oks = [], [wl.reference()], []
    for op in ops:
        with rec.op():
            t0 = time.perf_counter()
            out = wl.run(op)
            latencies.append(time.perf_counter() - t0)
        ref_s.append(wl.reference())
        oks.append(bool(wl.verify(op, out)))
    return latencies, ref_s, oks


def peak_rss_mb(wl):
    """This process's peak RSS, or for cli the largest gcsdiag child's."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if wl.in_process else wl.peak_rss_kb
    return kb / 1024.0  # ru_maxrss is in KiB


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    wl = workloads.WORKLOADS[args.workload](ROOT, args.tmp, ref)
    ops = wl.ops(args.seed, args.seconds)
    wl.setup()
    result = {"setup_s": (time.monotonic_ns() - args.spawn_ns) / 1e9}
    if args.setup_only:
        print(json.dumps(result))
        return

    # an untraced run passes a recorder that is never installed, so both
    # kinds of run time their operations through the same code
    rec = tracing.Recorder()
    if args.trace:
        if wl.in_process:
            tracing.install(rec)
        else:
            wl.trace_dir = os.path.join(args.tmp, "trace")
            os.makedirs(wl.trace_dir)
    latencies, ref_s, oks = run_ops(wl, ops, rec)
    result.update(latencies=latencies, ref_s=ref_s, verified=sum(oks), attempted=len(oks),
                  failed=oks.count(False), peak_rss_mb=peak_rss_mb(wl))
    if args.trace:
        result["layer"] = layer_metrics(wl, rec, args.trace_out)
    print(json.dumps(result))


def layer_metrics(wl, rec, trace_out):
    """Per-layer metrics from the in-process recorder or the CLI children's files."""
    if wl.in_process:
        span_lists, counts = [rec.spans], rec.counts
        spawn, imports = (), ()
    else:
        span_lists, counts, spawn, imports = [], Counter(), [], []
        for path in sorted(glob.glob(os.path.join(wl.trace_dir, "call-*.json"))):
            with open(path, encoding="utf-8") as fh:
                call = json.load(fh)
            span_lists.append([tuple(s) for s in call["spans"]])
            counts.update(call["counts"])
            spawn.append(call["spawn_s"])
            imports.append(call["import_s"])
    if trace_out:
        with open(trace_out, "w", encoding="utf-8") as fh:
            for proc, spans in enumerate(span_lists):
                for s in spans:
                    fh.write(json.dumps([proc] + list(s)) + "\n")
    return tracing.layer_metrics(span_lists, counts, spawn, imports)


if __name__ == "__main__":
    main()
