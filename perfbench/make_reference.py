"""Record the reference outputs the benchmark checks every operation against.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose outputs are known to be right; it
rewrites perfbench/reference.json.  It enumerates every input the generator
can produce and stores a digest of each output: completion dumps, theta
values per (diagram, m0, sector), structure constants, and the exit code,
stdout and --out file of every CLI request.  While doing so it checks that
theta values do not depend on where in a sector the endpoint lies, and that
on g31 they equal theta_via_path, since the benchmark relies on both.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import generate  # noqa: E402
import workloads  # noqa: E402
from workloads import digest  # noqa: E402


def complete_refs(scatter):
    out = {}
    wl = workloads.Complete(ROOT, None, None)
    wl.setup()
    for family, variant, order, _ in generate.COMPLETE_JOBS:
        for symbol in (generate.SYMBOLS if family == "g31" else ("a",)):
            diag, text = wl.run({"family": family, "variant": variant, "order": order,
                                 "symbol": symbol})
            if not scatter.check_consistency(diag)[0]:
                raise AssertionError("inconsistent diagram for %s %s %d" % (family, variant, order))
            out[generate.complete_key(family, variant, order, symbol)] = digest(text)
            print("complete", family, variant, order, symbol, flush=True)
    return out


def theta_refs(diags, theta, ring):
    out = {}
    rng = random.Random("reference")
    for name, cells in generate.THETA_CELLS.items():
        diag = diags[name]
        for sector in cells["sectors"]:
            for m0 in cells["m0"]:
                values = set()
                for _ in range(3):
                    q = generate.sector_point(name, sector, rng)
                    value = theta.theta(diag, q, m0).value
                    if name == "g31" and value != theta.theta_via_path(diag, q, m0):
                        raise AssertionError("theta_via_path disagrees at %r %r" % (m0, q))
                    values.add(ring.canonical_string(value))
                if len(values) != 1:
                    raise AssertionError("theta depends on the endpoint inside sector %d" % sector)
                out[generate.theta_key(name, m0, sector)] = digest(values.pop())
            print("theta", name, sector, flush=True)
    return out


def structure_refs(diags, theta, ring):
    out = {}
    for name, triples in generate.STRUCTURE_TRIPLES.items():
        diag = diags[name]
        for p1, p2, q in triples:
            value = theta.structure_constant(diag, p1, p2, q, theta.generic_near(diag, q))
            out[generate.structure_key(name, p1, p2, q)] = digest(ring.canonical_string(value))
    return out


def cli_refs():
    out = {}
    tmp = tempfile.mkdtemp(prefix="reference-", dir=HERE)
    try:
        workloads.write_plot_inputs(tmp)
        env = dict(os.environ, GCSDIAG_CACHE=os.path.join(tmp, "cache"),
                   PYTHONPATH=os.path.join(ROOT, "src"))
        for argv in generate.cli_space():
            args = [a.replace("{tmp}", tmp) for a in argv]
            proc = subprocess.run([sys.executable, "-m", "gcsdiag.cli"] + args,
                                  cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
            entry = {"rc": proc.returncode, "stdout": digest(proc.stdout), "out": None}
            if "--out" in argv:
                path = args[args.index("--out") + 1]
                with open(path, "rb") as fh:
                    entry["out"] = digest(fh.read())
            if proc.returncode != 0:
                raise AssertionError("%s exited %d: %s" % (argv, proc.returncode, proc.stderr))
            out[workloads.cli_key(argv)] = entry
            print("cli", " ".join(argv), flush=True)
    finally:
        shutil.rmtree(tmp)
    return out


def main():
    seed_mod, scatter, theta, ring = workloads.load_gcsdiag()
    diags = workloads.build_theta_diagrams(seed_mod, scatter)
    ref = {
        "complete": complete_refs(scatter),
        "theta": theta_refs(diags, theta, ring),
        "structure": structure_refs(diags, theta, ring),
        "cli": cli_refs(),
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
