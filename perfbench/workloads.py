"""Set-up, one timed operation, its check and its reference, for each workload.

`run` is the timed operation.  `verify` runs outside the timed region and
says whether the output is right.  `reference` returns the seconds taken by
a fixed piece of work of the same kind as the operation that does not run
gcsdiag: it slows down with the machine but never with a change to the
program, so run.py divides latencies by it.  In-process workloads call
gcsdiag through its module attributes at call time, so wrappers installed
by `tracing` intercept them, and they never touch the CLI's cache.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import os
import subprocess
import sys
import time
from fractions import Fraction

import generate

HERE = os.path.dirname(os.path.abspath(__file__))


def digest(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


# two truncated series in the ring's representation, exponent tuples to
# Fractions; their truncated product is the ring's inner loop without gcsdiag
REF_A = {(i, j): Fraction(i + 1, j + 2) for i in range(7) for j in range(7)}
REF_B = {(i, -j): Fraction(j + 1, 2 * i + 3) for i in range(7) for j in range(7)}
REF_REPEATS = 3


def reference_loop():
    """Seconds taken by REF_REPEATS truncated products of REF_A and REF_B.

    The reference of the in-process workloads.  The collector is off
    meanwhile, so the program's heap cannot slow it.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(REF_REPEATS):
            out = {}
            for (a1, a2), c1 in REF_A.items():
                for (b1, b2), c2 in REF_B.items():
                    if a1 + b1 <= 9:
                        e = (a1 + b1, a2 + b2)
                        out[e] = out.get(e, 0) + c1 * c2
        return time.perf_counter() - t0
    finally:
        gc.enable()


def load_gcsdiag():
    import gcsdiag  # noqa: F401

    return (sys.modules["gcsdiag.seed"], sys.modules["gcsdiag.scatter"],
            sys.modules["gcsdiag.theta"], sys.modules["gcsdiag.ring"])


class Complete:
    """complete_rank2 + dump_diagram on high-order jobs."""

    in_process = True
    reference = staticmethod(reference_loop)

    def __init__(self, root, tmp, ref):
        self.ref = ref

    def ops(self, seed, seconds):
        return generate.complete_ops(seed, seconds)

    def setup(self):
        seed_mod, self.scatter, _, _ = load_gcsdiag()
        self.parsed = {}
        for family in generate.SEED_TEXT:
            for symbol in generate.SYMBOLS:
                text = generate.seed_text(family, symbol)
                self.parsed[family, symbol] = seed_mod.parse_seed_file(text)

    def run(self, job):
        sc = self.scatter
        fixed, seed = self.parsed[job["family"], job["symbol"]]
        if job["variant"] == "A":
            init = sc.initial_diagram(fixed, seed, job["order"])
        else:
            init = sc.initial_diagram_prin(fixed, seed, job["order"])
        diag = sc.complete_rank2(init)
        return diag, sc.dump_diagram(diag, job["variant"])

    def verify(self, job, out):
        diag, text = out
        key = generate.complete_key(job["family"], job["variant"], job["order"], job["symbol"])
        return digest(text) == self.ref["complete"][key] and self.scatter.check_consistency(diag)[0]


def build_theta_diagrams(seed_mod, scatter):
    out = {}
    for name in generate.THETA_CELLS:
        fixed, seed = seed_mod.parse_seed_file(generate.seed_text(name))
        out[name] = scatter.complete_rank2(
            scatter.initial_diagram(fixed, seed, generate.THETA_ORDER))
    return out


class Theta:
    """theta and structure_constant on diagrams completed in set-up."""

    in_process = True
    reference = staticmethod(reference_loop)

    def __init__(self, root, tmp, ref):
        self.ref = ref

    def ops(self, seed, seconds):
        return generate.theta_ops(seed, seconds)

    def setup(self):
        seed_mod, scatter, self.theta, self.ring = load_gcsdiag()
        self.diags = build_theta_diagrams(seed_mod, scatter)
        self.check_diags = None

    def run(self, op):
        th = self.theta
        diag = self.diags[op[1]]
        if op[0] == "theta":
            _, _, m0, _, q = op
            return th.theta(diag, q, m0).value
        _, _, p1, p2, q = op
        return th.structure_constant(diag, p1, p2, q, th.generic_near(diag, q))

    def verify(self, op, out):
        canon = self.ring.canonical_string
        if op[0] == "theta":
            _, name, m0, sector, q = op
            if name == "g31":
                if self.check_diags is None:
                    # checks run on a copy of their own, made outside set-up,
                    # so they warm no cache that the timed calls use
                    self.check_diags = copy.deepcopy(self.diags)
                # finite type: every m0 lies in a chamber, so the path
                # product is an independent construction of the same theta
                return out == self.theta.theta_via_path(self.check_diags[name], q, m0)
            return digest(canon(out)) == self.ref["theta"][generate.theta_key(name, m0, sector)]
        _, name, p1, p2, q = op
        return digest(canon(out)) == self.ref["structure"][generate.structure_key(name, p1, p2, q)]


def write_plot_inputs(tmp):
    """The dumps and theta reports the cli workload's plot requests read."""
    seed_mod, scatter, theta, _ = load_gcsdiag()
    for name, (kind, family, order) in generate.CLI_PLOT_INPUTS.items():
        fixed, seed = seed_mod.parse_seed_file(generate.seed_text(family))
        diag = scatter.complete_rank2(scatter.initial_diagram(fixed, seed, order))
        if kind == "dump":
            text = scatter.dump_diagram(diag, "A")
        else:
            q = generate.generic((Fraction(3, 2), Fraction(1, 3)), 101)
            text = theta.theta_report(diag, theta.theta(diag, q, (1, 1), order))
        with open(os.path.join(tmp, name + ".txt"), "w", encoding="utf-8") as fh:
            fh.write(text)


def cli_key(argv):
    return " ".join(argv)


class Cli:
    """Sequential `gcsdiag` processes, one at a time, with a fresh cache.

    Its reference is a child interpreter that imports a fixed set of
    standard-library modules.  A request's time is mostly start-up and
    import, which the machine slows down less than the in-process loop.
    """

    REFERENCE_IMPORT = ("fractions, json, decimal, argparse, email.parser, http.client, "
                        "xml.etree.ElementTree, unittest")

    in_process = False

    def __init__(self, root, tmp, ref):
        self.root, self.tmp, self.ref = root, tmp, ref
        self.cache = os.path.join(tmp, "cache")
        self.trace_dir = None
        self.seen = {}
        self.n_calls = 0
        self.peak_rss_kb = 0

    def ops(self, seed, seconds):
        return generate.cli_ops(seed, seconds)

    def setup(self):
        load_gcsdiag()
        write_plot_inputs(self.tmp)
        os.makedirs(self.cache)

    def _env(self):
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["GCSDIAG_CACHE"] = self.cache
        return env

    def run(self, argv):
        args = [a.replace("{tmp}", self.tmp) for a in argv]
        env = self._env()
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "gcsdiag.cli"] + args
        else:
            self.n_calls += 1
            env["PERFBENCH_TRACE_OUT"] = os.path.join(
                self.trace_dir, "call-%04d.json" % self.n_calls)
            env["PERFBENCH_SPAWN_NS"] = str(time.monotonic_ns())
            cmd = [sys.executable, os.path.join(HERE, "launcher.py")] + args
        proc = subprocess.Popen(cmd, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        with proc.stdout:
            stdout = proc.stdout.read()
        # reaped here rather than by subprocess, for this child's own peak RSS
        # (the reference children must not count)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, stdout

    def reference(self):
        """Seconds taken by a child interpreter that imports REFERENCE_IMPORT."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import " + self.REFERENCE_IMPORT],
                       cwd=self.root, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       check=True)
        return time.perf_counter() - t0

    def verify(self, argv, out):
        rc, stdout = out
        ref = self.ref["cli"][cli_key(argv)]
        outfile = None
        if "--out" in argv:
            path = argv[argv.index("--out") + 1].replace("{tmp}", self.tmp)
            with open(path, "rb") as fh:
                outfile = fh.read()
            os.remove(path)
        ok = (rc == ref["rc"] and digest(stdout) == ref["stdout"]
              and (outfile is None or digest(outfile) == ref["out"]))
        # a repeated request is a cache hit and must match its miss byte for byte
        key = cli_key(argv)
        if key in self.seen:
            ok = ok and self.seen[key] == (stdout, outfile)
        else:
            self.seen[key] = (stdout, outfile)
        return ok


WORKLOADS = {"complete": Complete, "theta": Theta, "cli": Cli}
