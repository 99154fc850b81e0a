"""Run `gcsdiag` with the benchmark's tracing wrappers installed.

    PERFBENCH_TRACE_OUT=<file> PERFBENCH_SPAWN_NS=<ns> python3 perfbench/launcher.py <gcsdiag args>

Behaves like `python -m gcsdiag.cli <args>`.  At exit it writes its spans,
counters, start time and import time as JSON to PERFBENCH_TRACE_OUT.
PERFBENCH_SPAWN_NS is the parent's time.monotonic_ns() just before it
started this process, so the parent can tell interpreter start-up apart.
"""

import time

START_NS = time.monotonic_ns()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main():
    t0 = time.monotonic_ns()
    import gcsdiag.cli

    import_ns = time.monotonic_ns() - t0
    rec = tracing.Recorder()
    tracing.install(rec)
    try:
        with rec.op():
            gcsdiag.cli.main(args=sys.argv[1:], prog_name="gcsdiag")
    finally:
        spawn_ns = START_NS - int(os.environ["PERFBENCH_SPAWN_NS"])
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump({"spawn_s": spawn_ns / 1e9, "import_s": import_ns / 1e9,
                       "counts": rec.counts, "spans": rec.spans}, fh)


if __name__ == "__main__":
    main()
