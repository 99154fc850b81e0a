"""Theta values and structure constants match the benchmark's reference.

perfbench/reference.json holds the first 16 hex digits of the sha256 of
the canonical string of every theta cell (diagram, m0, sector) and every
structure-constant triple at the benchmark's THETA_ORDER.  The cells, their
sectors and the seed texts come from perfbench/generate.py, loaded by path;
both files are only read.  A theta value is constant inside a sector, so
any seeded point of it stands for the cell.
"""

import hashlib
import importlib.util
import json
import os
import random

import pytest

from gcsdiag import canonical_string, complete_rank2, initial_diagram, parse_seed_file
from gcsdiag.theta import generic_near, structure_constant, theta

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def _load_generate():
    spec = importlib.util.spec_from_file_location(
        "perfbench_generate", os.path.join(PERFBENCH, "generate.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


generate = _load_generate()


def _digest(value):
    return hashlib.sha256(canonical_string(value).encode("utf-8")).hexdigest()[:16]


@pytest.fixture(scope="module")
def reference():
    with open(os.path.join(PERFBENCH, "reference.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def diagrams():
    out = {}
    for name in generate.THETA_CELLS:
        fixed, seed = parse_seed_file(generate.seed_text(name))
        out[name] = complete_rank2(initial_diagram(fixed, seed, generate.THETA_ORDER))
    return out


@pytest.mark.parametrize("name", sorted(generate.THETA_CELLS))
def test_theta_cells_match_reference(reference, diagrams, name):
    rng = random.Random("theta-digests")
    cells = generate.THETA_CELLS[name]
    for sector in cells["sectors"]:
        q = generate.sector_point(name, sector, rng)
        for m0 in cells["m0"]:
            key = generate.theta_key(name, m0, sector)
            assert _digest(theta(diagrams[name], q, m0).value) == reference["theta"][key], key


@pytest.mark.parametrize("name", sorted(generate.STRUCTURE_TRIPLES))
def test_structure_constants_match_reference(reference, diagrams, name):
    diag = diagrams[name]
    for p1, p2, q in generate.STRUCTURE_TRIPLES[name]:
        key = generate.structure_key(name, p1, p2, q)
        value = structure_constant(diag, p1, p2, q, generic_near(diag, q))
        assert _digest(value) == reference["structure"][key], key
