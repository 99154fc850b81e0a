"""Diagrams derived from a completion dump byte-identically to pinned digests.

tests/test_dump_digests.py pins the A and Aprin completions.  This file
pins what is built from them: the T_k images, the A diagram cut to a lower
order, the A-projection and the X slice of the principal completion.  Each
value is the first 16 hex digits of the sha256 of the dump at order 6.
EXTRA_DIGESTS pins seeds beyond the shipped ones at a higher order.
"""

import hashlib
import math
import os

import pytest

from gcsdiag import (
    apply_Tk,
    complete_rank2,
    dump_diagram,
    initial_diagram,
    initial_diagram_prin,
    parse_seed_file,
    project_to_A,
    slice_to_X,
)
from gcsdiag.scatter import _reorder

SEED_DIR = os.path.join(os.path.dirname(__file__), "..", "seeds")
ORDER = 6

DIGESTS = {
    "a2": {"T1": "c3a120b12bd1b450", "T2": "e49a5b11850af1ad", "reorder": "587800761575e02b",
           "project": "0c6376b69668ea97", "X": "4981c1f2ff29c913"},
    "g31": {"T1": "26228f302fbc68de", "T2": "bec06ba55777b789", "reorder": "babb37957b391981",
            "project": "a218cecb8846901f", "X": "c7d7b28dfa1708a9"},
    # the X slice counts each d_i once in its normals
    "kronecker22": {"T1": "cdc1f14e7186b807", "T2": "cc9038ec58f7ade2",
                    "reorder": "a98ffab1393b588c", "project": "cc0624332f869e8d",
                    "X": "f5cff00a53bcb125"},
}


def _primitive(diag):
    """diag, once every wall direction is checked to be primitive: a diagram reads its
    directions off its sorted events without reducing them."""
    assert all(math.gcd(*w.direction) == 1 for w in diag.walls), diag.walls
    return diag


def _digest(diag, variant):
    text = dump_diagram(_primitive(diag), variant)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("family", sorted(DIGESTS))
def test_derived_dumps_match_digests(family):
    with open(os.path.join(SEED_DIR, family + ".seed"), "r", encoding="utf-8") as fh:
        fixed, seed = parse_seed_file(fh.read())
    diag = _primitive(complete_rank2(initial_diagram(fixed, seed, ORDER)))
    prin = _primitive(complete_rank2(initial_diagram_prin(fixed, seed, ORDER)))
    got = {
        "T1": _digest(apply_Tk(diag, 0), "A"),
        "T2": _digest(apply_Tk(diag, 1), "A"),
        "reorder": _digest(_reorder(diag, ORDER - 1), "A"),
        "project": _digest(project_to_A(prin), "A"),
        "X": _digest(slice_to_X(prin), "X"),
    }
    assert got == DIGESTS[family]


# seeds with multi-symbol monomials (two exchange symbols) and with d_i != 1;
# pinned before the coefficient ring held integral coefficients as int
EXTRA_DIGESTS = {
    "r32": ("rank 2\nunfrozen 1 2\nd 1 1\nr 3 2\nB 0 1 -1 0\na.1 1 a a 1\na.2 1 b 1\n", 12,
            {"A": "7d1808b7ab99e9aa", "Aprin": "fc3b9c7c7bf51258", "X": "418663204f861060",
             "T1": "58e82d8e76b8f213", "T2": "3140458ab4e1837b"}),
    "b2": ("rank 2\nunfrozen 1 2\nd 2 1\nr 1 1\nB 0 1 -2 0\na.1 1 1\na.2 1 1\n", 10,
           {"A": "e2e14863aab01419", "Aprin": "db59d3b467187f2d", "X": "9833d11eeed9e7a3",
            "T1": "5f92fa527562711c", "T2": "81da912c969500d9"}),
    "g2": ("rank 2\nunfrozen 1 2\nd 3 1\nr 1 1\nB 0 1 -3 0\na.1 1 1\na.2 1 1\n", 10,
           {"A": "d1dfef2918902e13", "Aprin": "b845749eb6732e95", "X": "6be50caa07e3e4b7",
            "T1": "7516ab934fb92f14", "T2": "dad628cc54bd27f7"}),
}


@pytest.mark.parametrize("family", sorted(EXTRA_DIGESTS))
def test_extra_seed_dumps_match_digests(family):
    text, order, digests = EXTRA_DIGESTS[family]
    fixed, seed = parse_seed_file(text)
    diag = complete_rank2(initial_diagram(fixed, seed, order))
    prin = complete_rank2(initial_diagram_prin(fixed, seed, order))
    got = {
        "A": _digest(diag, "A"),
        "Aprin": _digest(prin, "Aprin"),
        "X": _digest(slice_to_X(prin), "X"),
        "T1": _digest(apply_Tk(diag, 0), "A"),
        "T2": _digest(apply_Tk(diag, 1), "A"),
    }
    assert got == digests


# A completions at orders where every pass's loop at the full order was the
# cost; pinned before completion probed each pass at its next degree.  The
# last seed is wild: r = (4, 3) and three exchange symbols.
HIGH_ORDER_DIGESTS = {
    "kronecker22": (None, 40, "0ab7351033e3555d"),
    "r32": (EXTRA_DIGESTS["r32"][0], 20, "3258d46ca4f7d705"),
    "wild": ("rank 2\nunfrozen 1 2\nd 1 1\nr 4 3\nB 0 -2 2 0\na.1 1 c a c 1\na.2 1 b b 1\n",
             12, "8dcd8d1dfea1fddb"),
}


@pytest.mark.parametrize("family", sorted(HIGH_ORDER_DIGESTS))
def test_high_order_completions_match_digests(family):
    text, order, digest = HIGH_ORDER_DIGESTS[family]
    if text is None:
        with open(os.path.join(SEED_DIR, family + ".seed"), "r", encoding="utf-8") as fh:
            text = fh.read()
    fixed, seed = parse_seed_file(text)
    assert _digest(complete_rank2(initial_diagram(fixed, seed, order)), "A") == digest
