"""Completed diagrams dump byte-identically to the benchmark's reference.

perfbench/reference.json holds the first 16 hex digits of the sha256 of
each completion job's dump.  This test rebuilds the cheap jobs from the
shipped seed files, so a change to a dump fails here and not only in the
benchmark.  The reference file is only read.
"""

import hashlib
import json
import math
import os

import pytest

from gcsdiag import (
    complete_rank2,
    dump_diagram,
    initial_diagram,
    initial_diagram_prin,
    parse_seed_file,
)

ROOT = os.path.join(os.path.dirname(__file__), "..")
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")

# (seed family, variant, order); g31's exchange coefficient is `a`
JOBS = [
    ("a2", "A", 40), ("a2", "Aprin", 40),
    ("kronecker22", "A", 9), ("kronecker22", "Aprin", 9),
    ("g31", "A", 10), ("g31", "Aprin", 10),
]


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)["complete"]


@pytest.mark.parametrize("family,variant,order", JOBS)
def test_dump_matches_reference_digest(reference, family, variant, order):
    with open(os.path.join(ROOT, "seeds", family + ".seed"), "r", encoding="utf-8") as fh:
        fixed, seed = parse_seed_file(fh.read())
    build = initial_diagram if variant == "A" else initial_diagram_prin
    diag = complete_rank2(build(fixed, seed, order))
    # a diagram reads its directions off its sorted events without reducing them
    assert all(math.gcd(*w.direction) == 1 for w in diag.walls), diag.walls
    text = dump_diagram(diag, variant)
    key = "%s/%s/%d/%s" % (family, variant, order, "a" if family == "g31" else "-")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == reference[key]
