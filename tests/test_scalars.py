"""The scalar rule: a coefficient that is a number is an int, or a Fraction where it
is not integral, never a constant CoeffPoly, so numeric seeds compute in Q alone.

A CoeffPoly-wrapped constant stays the reference: the engine's calls give equal
values on it.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_scatter import _zoo

from gcsdiag import (
    CoeffPoly,
    TruncatedLaurent,
    apply_Tk,
    canonical_string,
    complete_rank2,
    initial_diagram,
    initial_diagram_prin,
    parse_seed_file,
    project_to_A,
    slice_to_X,
    structure_constant,
    theta,
    theta_Tk_transport,
    wall_cross,
)
from gcsdiag.ring import Grading, unit_power_coeffs
from gcsdiag.scatter import Wall, _chamber_reps, _perp_normal, _prim, _reorder
from gcsdiag.theta import _chains, generic_near


def _is_number(c):
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _numeric_seeds(request):
    """(fixed, seed, order): a2, kronecker22 and the zoo's seeds without a symbol."""
    out = [(*request.getfixturevalue(name), 6) for name in ("a2", "kronecker")]
    for text, order, _ in _zoo(60, random.Random(13)):
        fixed, seed = parse_seed_file(text)
        if all(c == 1 for t in seed.a_tuples.values() for c in t):
            out.append((fixed, seed, order))
    assert len(out) > 20
    return out


def test_numeric_seed_diagrams_hold_only_numbers(request):
    for fixed, seed, order in _numeric_seeds(request):
        diag = complete_rank2(initial_diagram(fixed, seed, order))
        prin = complete_rank2(initial_diagram_prin(fixed, seed, order))
        derived = [diag, prin, _reorder(diag, order - 1), project_to_A(prin), slice_to_X(prin)]
        derived += [apply_Tk(diag, k) for k in fixed.unfrozen]
        for d in derived:
            coeffs = [c for w in d.walls for c in w.coeffs]
            assert coeffs and all(_is_number(c) for c in coeffs), (fixed.r, fixed.B, order)


def test_numeric_seed_theta_values_and_structure_constants_are_numbers(request):
    tables = alphas = 0
    for fixed, seed, order in _numeric_seeds(request):
        diag = complete_rank2(initial_diagram(fixed, seed, order))
        for m0 in ((1, 0), (0, 1), (-1, 2), (2, -1), (-1, -1)):
            for rep in _chamber_reps(diag.directions):
                Q = generic_near(diag, rep, m0)
                assert all(_is_number(c) for c in theta(diag, Q, m0).value.terms.values())
            assert all(_is_number(s[4]) for s, _ in _chains(diag, m0, order))
        for terms in diag._thetas.values():
            assert all(_is_number(c) for c in terms.values())
            tables += 1
        for p1, p2, q in (((1, 0), (0, 1), (1, 1)), ((1, 1), (-1, 0), (0, 1)),
                          ((2, -1), (-1, 1), (1, 0))):
            alpha = structure_constant(diag, p1, p2, q, generic_near(diag, q))
            assert type(alpha) is int, (p1, p2, q, alpha)
            alphas += alpha > 0
        Q = generic_near(diag, (2, 1), (1, 1))
        for k in fixed.unfrozen:
            mapped = theta_Tk_transport(diag, k, Q, (1, 1))
            assert all(_is_number(c) for c in mapped.terms.values())
    assert tables > 200 and alphas > 20, (tables, alphas)


# ---------------------------------------------------------------------------
# numbers against CoeffPoly-wrapped constants

numbers = st.sampled_from([-2, -1, 0, 1, 3, Fraction(1, 2), Fraction(-2, 3)])
# (grading, lattice point of (i, j), wall bases); the second has quarter-integral
# degrees, like kronecker22's, so wall_cross's budget divides scaled degrees
GRADINGS = (
    (Grading([(0, 1), (-1, 0)]), lambda i, j: (-j, i), ((0, 1), (-1, 0), (-1, 1))),
    (Grading([(2, 0), (1, 2)]), lambda i, j: (i + j, j), ((1, 0), (1, 1), (1, 2))),
)


def _wrap(c):
    return CoeffPoly.rational(c)


@given(st.lists(numbers, max_size=4), st.integers(-4, 4), st.integers(0, 7))
@settings(max_examples=80, deadline=None)
def test_unit_power_coeffs_on_numbers_equal_wrapped_constants(tail, e, n):
    got = unit_power_coeffs([1] + tail, e, n)
    want = unit_power_coeffs([CoeffPoly.one()] + [_wrap(c) for c in tail], e, n)
    assert all(isinstance(c, (int, Fraction)) for c in got)
    assert not any(isinstance(c, CoeffPoly) for c in want)
    assert got == want and [canonical_string(c) for c in got] == [
        canonical_string(c) for c in want]


@given(st.sampled_from(GRADINGS), st.integers(0, 2), st.lists(numbers, min_size=1, max_size=5),
       st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), numbers, max_size=6),
       st.sampled_from([-1, 1]), st.integers(1, 5))
@settings(max_examples=80, deadline=None)
def test_wall_cross_on_numbers_equals_wrapped_constants(grading, b, tail, terms, sign, order):
    grading, point, bases = grading
    base = bases[b]
    normal = _perp_normal(_prim(base))
    offset = (1, -2)
    terms = {tuple(o + x for o, x in zip(offset, point(i, j))): c for (i, j), c in terms.items()}
    series = TruncatedLaurent(grading, order, offset, terms)
    wrapped = TruncatedLaurent(grading, order, offset, {e: _wrap(c) for e, c in terms.items()})
    got = wall_cross(Wall("ray", base, normal, base, [1] + tail), sign, series, (0, 1))
    want = wall_cross(Wall("ray", base, normal, base, [CoeffPoly.one()] + [_wrap(c) for c in tail]),
                      sign, wrapped, (0, 1))
    assert all(isinstance(c, (int, Fraction)) for c in got.terms.values())
    assert got.terms == want.terms and canonical_string(got) == canonical_string(want)


@pytest.mark.parametrize("value", [0, 1, 3, -2, Fraction(1, 2), Fraction(-4, 3)])
def test_series_keep_numbers_and_demote_integral_fractions(value):
    g = GRADINGS[0][0]
    s = TruncatedLaurent(g, 3, (0, 0), {(0, 1): value, (0, 2): Fraction(6, 3)})
    assert all(_is_number(c) for c in s.terms.values())
    assert s.terms.get((0, 1), 0) == value and type(s.terms[(0, 2)]) is int
