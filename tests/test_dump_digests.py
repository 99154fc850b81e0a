"""Completed diagrams dump byte-identically to the benchmark's reference.

perfbench/reference.json holds the first 16 hex digits of the sha256 of
each completion job's dump.  This test rebuilds every job of the complete
workload, `generate.COMPLETE_JOBS` under each of `generate.SYMBOLS`, from the
workload's own seed texts, so a change to a dump fails here and not only in
the benchmark.  Like the workload, it also checks each result consistent.
The perfbench modules and the reference file are only read.
"""

import hashlib
import json
import math
import os

import pytest

from gcsdiag import (
    check_consistency,
    complete_rank2,
    dump_diagram,
    initial_diagram,
    initial_diagram_prin,
    parse_seed_file,
)

from conftest import PERFBENCH, load_perfbench

generate = load_perfbench("generate")

# (seed family, variant, order); g31's jobs run under every symbol name
JOBS = [(family, variant, order) for family, variant, order, _ in generate.COMPLETE_JOBS]


@pytest.fixture(scope="module")
def reference():
    with open(os.path.join(PERFBENCH, "reference.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)["complete"]


def _symbols(family):
    return generate.SYMBOLS if family == "g31" else ("a",)


def test_jobs_cover_the_reference(reference):
    keys = [generate.complete_key(*job, symbol) for job in JOBS for symbol in _symbols(job[0])]
    assert sorted(keys) == sorted(reference)


@pytest.mark.parametrize("family,variant,order", JOBS)
def test_dump_matches_reference_digest(reference, family, variant, order):
    build = initial_diagram if variant == "A" else initial_diagram_prin
    for symbol in _symbols(family):
        fixed, seed = parse_seed_file(generate.seed_text(family, symbol))
        diag = complete_rank2(build(fixed, seed, order))
        # a diagram reads its directions off its sorted events without reducing them
        assert all(math.gcd(*w.direction) == 1 for w in diag.walls), diag.walls
        assert check_consistency(diag) == (True, None)
        text = dump_diagram(diag, variant)
        key = generate.complete_key(family, variant, order, symbol)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == reference[key], key
