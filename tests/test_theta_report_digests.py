"""Full theta reports, bend points included, match recorded digests.

tests/test_theta_digests.py pins theta values only.  Here every printed
line counts: the bend points, the rays, the trails and the message of a
non-generic endpoint.  For each seed and quadrant the reports of all m0 in
[-2, 2]^2 (0 left out) at a few fixed endpoints are joined and hashed
(first 16 hex digits of the sha256).  kronecker22's fourth quadrant, where
its rays accumulate at (1, -1), is included; its last endpoint lies on the
ray -(-2, 1), so some of its queries raise EndpointNotGeneric.
"""

import hashlib
from fractions import Fraction as F

import pytest

from gcsdiag import complete_rank2, initial_diagram, theta, theta_report

QUADRANTS = {
    "q1": [(F(7, 5), F(3, 11)), (F(2, 9), F(13, 7))],
    "q2": [(F(-9, 7), F(5, 13)), (F(-3, 11), F(17, 6)), (F(-2, 5), F(1, 5))],
    "q3": [(F(-4, 3), F(-11, 17)), (F(-2, 13), F(-19, 7)), (F(-1, 3), F(-2, 3))],
    "q4": [(F(5, 3), F(-1, 7)), (F(2, 11), F(-9, 5)), (F(7, 5), F(-13, 10)),
           (F(1, 2), F(-1, 4))],
}
M0 = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)]
ORDERS = {"a2": ("a2", 10), "kronecker22": ("kronecker", 12)}
DIGESTS = {
    ("a2", "q1"): "6cffc5c18bcf4e96",
    ("a2", "q2"): "add2faf558cfd5ca",
    ("a2", "q3"): "fabf3654a14d323b",
    ("a2", "q4"): "3ca933906322a6f4",
    ("kronecker22", "q1"): "e77d42152bf01171",
    ("kronecker22", "q2"): "10bc2d14d56e83ad",
    ("kronecker22", "q3"): "d798943ba9acb157",
    ("kronecker22", "q4"): "f8b3ef867df1733b",
}


@pytest.fixture(scope="module")
def diagrams(request):
    out = {}
    for name, (fixture, order) in ORDERS.items():
        fixed, seed = request.getfixturevalue(fixture)
        out[name] = complete_rank2(initial_diagram(fixed, seed, order))
    return out


def _text(diag, Q, m0):
    try:
        return theta_report(diag, theta(diag, Q, m0))
    except ValueError as exc:
        return "%s: %s\n" % (type(exc).__name__, exc)


@pytest.mark.parametrize("name,quadrant", sorted(DIGESTS))
def test_theta_reports_match_digests(diagrams, name, quadrant):
    diag = diagrams[name]
    body = "".join(_text(diag, Q, m0) for Q in QUADRANTS[quadrant] for m0 in M0)
    assert hashlib.sha256(body.encode("utf-8")).hexdigest()[:16] == DIGESTS[name, quadrant]
