"""Diagrams derived from a completion dump byte-identically to pinned digests.

tests/test_dump_digests.py pins the A and Aprin completions.  This file
pins what is built from them: the T_k images, the A diagram cut to a lower
order, the A-projection and the X slice of the principal completion.  Each
value is the first 16 hex digits of the sha256 of the dump at order 6.
"""

import hashlib
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


def _digest(diag, variant):
    return hashlib.sha256(dump_diagram(diag, variant).encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("family", sorted(DIGESTS))
def test_derived_dumps_match_digests(family):
    with open(os.path.join(SEED_DIR, family + ".seed"), "r", encoding="utf-8") as fh:
        fixed, seed = parse_seed_file(fh.read())
    diag = complete_rank2(initial_diagram(fixed, seed, ORDER))
    prin = complete_rank2(initial_diagram_prin(fixed, seed, ORDER))
    got = {
        "T1": _digest(apply_Tk(diag, 0), "A"),
        "T2": _digest(apply_Tk(diag, 1), "A"),
        "reorder": _digest(_reorder(diag, ORDER - 1), "A"),
        "project": _digest(project_to_A(prin), "A"),
        "X": _digest(slice_to_X(prin), "X"),
    }
    assert got == DIGESTS[family]
