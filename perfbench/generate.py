"""Seeded inputs for the benchmark workloads.

Everything here is an input the program receives: seed-file texts, variant
and order jobs, theta exponents and endpoints, structure-constant triples
and CLI argument lists.  Nothing here calls gcsdiag.  One seed always gives
the same inputs.

Each workload is a *round*: a fixed multiset of operation classes whose
parameters the seed draws where that does not change the amount of work
(symbol names, endpoints inside a chamber, mutation words of one length,
which earlier request a cache hit repeats) and whose order the seed
shuffles.  A round takes about ROUND_SECONDS at the baseline commit on a
2-core machine, so runs of different seeds measure the same mix of work.
Where a round holds copies or near-equal jobs, they are there so that the
median and the tail (the sample with ten beyond it) fall inside a group of
similar costs rather than on a step between two.
"""

from __future__ import annotations

import random
from fractions import Fraction

ROUND_SECONDS = 10

SEED_TEXT = {
    "a2": "rank 2\nunfrozen 1 2\nd 1 1\nr 1 1\nB 0 1 -1 0\na.1 1 1\na.2 1 1\n",
    "g31": "rank 2\nunfrozen 1 2\nd 1 1\nr 3 1\nB 0 1 -1 0\na.1 1 {s} {s} 1\na.2 1 1\n",
    "kronecker22": "rank 2\nunfrozen 1 2\nd 2 2\nr 1 1\nB 0 2 -2 0\na.1 1 1\na.2 1 1\n",
}
# names the seed may give g31's exchange coefficient; renaming moves no work
SYMBOLS = ("a", "b", "t", "u")


def seed_text(family, symbol="a"):
    return SEED_TEXT[family].format(s=symbol)


def _rounds(workload, seed, seconds, make_round):
    """Seeded rounds of make_round(rng), cut to seconds/ROUND_SECONDS rounds' worth."""
    rng = random.Random("%s:%d" % (workload, seed))
    ops = make_round(rng)
    n = max(1, round(len(ops) * seconds / ROUND_SECONDS))
    while len(ops) < n:
        ops += make_round(rng)
    return ops[:n]


# ---------------------------------------------------------------------------
# complete: completion to high order, no theta functions, no cache

# (seed family, variant, order, copies per round).  The mix varies
# truncation order, finite (g31, a2) against infinite type (kronecker22),
# plane (A) against 4-dim (Aprin) exponents, and symbolic (g31) against
# rational coefficients.  Of the 17 jobs, 2 are heavy (1.5-3 s), 9 take
# 0.45-0.7 s and hold both the median and the tail, and 6 are light.
COMPLETE_JOBS = (
    ("g31", "A", 15, 1), ("kronecker22", "A", 14, 1),
    ("g31", "A", 10, 2), ("g31", "A", 11, 1), ("kronecker22", "A", 9, 1),
    ("kronecker22", "A", 10, 1), ("g31", "Aprin", 10, 1), ("g31", "Aprin", 11, 1),
    ("kronecker22", "Aprin", 9, 1), ("kronecker22", "Aprin", 10, 1),
    ("a2", "A", 40, 2), ("a2", "A", 56, 1), ("a2", "A", 80, 1),
    ("a2", "Aprin", 40, 1), ("a2", "Aprin", 64, 1),
)


def complete_key(family, variant, order, symbol):
    return "%s/%s/%d/%s" % (family, variant, order, symbol if family == "g31" else "-")


def _complete_round(rng):
    jobs = []
    for family, variant, order, copies in COMPLETE_JOBS:
        for _ in range(copies):
            symbol = rng.choice(SYMBOLS) if family == "g31" else "a"
            jobs.append({"family": family, "variant": variant, "order": order,
                         "symbol": symbol})
    rng.shuffle(jobs)
    return jobs


def complete_ops(seed, seconds):
    """Jobs {family, variant, order, symbol}."""
    return _rounds("complete", seed, seconds, _complete_round)


# ---------------------------------------------------------------------------
# theta: broken lines and structure constants on diagrams built in set-up

THETA_ORDER = 12
# ccw support directions of the completed diagrams at THETA_ORDER; sector i
# is the open cone between direction i and direction i + 1
THETA_SECTORS = {
    "g31": ((1, 0), (0, 1), (-1, 0), (0, -1), (1, -3), (1, -2), (2, -3), (1, -1)),
    "kronecker22": ((1, 0), (0, 1), (-1, 0), (0, -1)),
}
# kronecker22's fourth quadrant holds its accumulating rays and costs 2-4 s a
# call at this order, so its endpoints stay in the first three sectors
THETA_CELLS = {
    "g31": {"sectors": range(8),
            "m0": ((1, 0), (0, -1), (2, -3))},
    "kronecker22": {"sectors": range(3),
                    "m0": ((1, 0), (-2, 1), (2, 2))},
}
# (p1, p2, q); the base point is generic_near(diag, q)
STRUCTURE_TRIPLES = {
    "g31": (((1, 0), (0, 1), (1, 1)), ((2, -1), (-1, 1), (1, 0))),
    "kronecker22": (((1, 0), (0, 1), (1, 1)), ((1, 1), (-1, 0), (1, 1))),
}


GENERIC_PRIMES = (97, 101, 103, 107, 109, 113, 127, 131, 137, 139)


def generic(point, k):
    """point + (1/k, 1/k^2): off every line through the origin of small slope.

    A broken line whose last segment would pass through the origin is
    dropped, so an endpoint on such a line (like (1, 2)) loses terms.
    """
    return (Fraction(point[0]) + Fraction(1, k), Fraction(point[1]) + Fraction(1, k * k))


def sector_point(diag, sector, rng):
    """A seeded generic rational point strictly inside the sector."""
    dirs = THETA_SECTORS[diag]
    a, b = dirs[sector], dirs[(sector + 1) % len(dirs)]
    al = Fraction(rng.randint(2, 12), rng.randint(2, 7))
    be = Fraction(rng.randint(2, 12), rng.randint(2, 7))
    return generic((al * a[0] + be * b[0], al * a[1] + be * b[1]), rng.choice(GENERIC_PRIMES))


def theta_key(diag, m0, sector):
    return "%s/%d,%d/%d" % (diag, m0[0], m0[1], sector)


def structure_key(diag, p1, p2, q):
    return "%s/%d,%d/%d,%d/%d,%d" % ((diag,) + p1 + p2 + q)


def _theta_round(rng):
    ops = []
    for diag, cells in THETA_CELLS.items():
        for sector in cells["sectors"]:
            for m0 in cells["m0"]:
                ops.append(("theta", diag, m0, sector, sector_point(diag, sector, rng)))
        for p1, p2, q in STRUCTURE_TRIPLES[diag]:
            ops.append(("structure", diag, p1, p2, q))
    rng.shuffle(ops)
    return ops


def theta_ops(seed, seconds):
    """Ops ("theta", diag, m0, sector, Q) and ("structure", diag, p1, p2, q)."""
    return _rounds("theta", seed, seconds, _theta_round)


# ---------------------------------------------------------------------------
# cli: one `gcsdiag` process per operation

CLI_THETA_ORDER = 8
CLI_THETA_M0 = tuple((x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0))
CLI_THETA_Q = tuple("%s,%s" % generic(p, k) for p, k in (
    (("3/2", "1"), 97), (("-1/2", "5/3"), 101), (("-4/3", "-2/3"), 103), (("5/4", "-7/2"), 107)))
CLI_COMPLETE = ("seeds/g31.seed", "--order", "9", "--out", "{tmp}/g31.txt")
# sympy's cancel takes about twice the start-up time on this word
CLI_MUTATE_HEAVY = ("seeds/kronecker22.seed", "--word", "2,1,2,1,2,1,2")
CLI_MUTATE_LIGHT_SEEDS = ("seeds/a2.seed", "seeds/kronecker22.seed")
CLI_MUTATE_LIGHT_WORDS = ("1,2,1,2,1", "2,1,2,1,2")
# kronecker22 at order 4 takes 3.5-6 s, too long for a round of ROUND_SECONDS
CLI_CHECK = ("seeds/a2.seed", "--order", "4")
CLI_COMPANION_SEEDS = ("seeds/a2.seed", "seeds/g31.seed", "seeds/kronecker22.seed")
# plot inputs written in set-up: name -> (kind, seed family, order)
CLI_PLOT_INPUTS = {
    "dump-g31": ("dump", "g31", 6),
    "dump-kronecker22": ("dump", "kronecker22", 6),
    "theta-g31": ("theta", "g31", 5),
    "theta-kronecker22": ("theta", "kronecker22", 5),
}
# The round's 13 requests: 4 cheap (hits, plot, companions), 8 of about the
# same cost (theta sweeps, complete, check, the light mutate), 1 heavy.
CLI_THETA_SWEEPS = 5
CLI_HITS = 2


def cli_space():
    """Every argv the cli workload can issue; tmp paths appear as {tmp}."""
    out = []
    for m0 in CLI_THETA_M0:
        for q in CLI_THETA_Q:
            out.append(_theta_argv(m0, q))
    out.append(("complete",) + CLI_COMPLETE)
    out.append(("mutate",) + CLI_MUTATE_HEAVY)
    for s in CLI_MUTATE_LIGHT_SEEDS:
        for w in CLI_MUTATE_LIGHT_WORDS:
            out.append(("mutate", s, "--word", w))
    out.append(("check",) + CLI_CHECK)
    out.extend(("companions", s) for s in CLI_COMPANION_SEEDS)
    for name in CLI_PLOT_INPUTS:
        out.append(_plot_argv(name))
    return out


def _theta_argv(m0, q):
    return ("theta", "seeds/g31.seed", "--order", str(CLI_THETA_ORDER),
            "--m0", "%d,%d" % m0, "--Q", q)


def _plot_argv(name):
    return ("plot", "{tmp}/%s.txt" % name, "--out", "{tmp}/%s.svg" % name)


def _cli_round(rng):
    cells = rng.sample([(m0, q) for m0 in CLI_THETA_M0 for q in CLI_THETA_Q],
                       CLI_THETA_SWEEPS)
    misses = [_theta_argv(m0, q) for m0, q in cells]
    misses.append(("complete",) + CLI_COMPLETE)
    ops = list(misses)
    ops.append(("mutate",) + CLI_MUTATE_HEAVY)
    ops.append(("mutate", rng.choice(CLI_MUTATE_LIGHT_SEEDS), "--word",
                rng.choice(CLI_MUTATE_LIGHT_WORDS)))
    ops.append(("check",) + CLI_CHECK)
    ops.append(("companions", rng.choice(CLI_COMPANION_SEEDS)))
    ops.append(_plot_argv(rng.choice(sorted(CLI_PLOT_INPUTS))))
    rng.shuffle(ops)
    # each hit goes after the first occurrence of the request it repeats
    for src in rng.sample(misses, CLI_HITS):
        ops.insert(rng.randint(ops.index(src) + 1, len(ops)), src)
    return ops


def cli_ops(seed, seconds):
    """Argument lists; a cache hit repeats an earlier request of its round."""
    return _rounds("cli", seed, seconds, _cli_round)
