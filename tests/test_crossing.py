"""The crossing kernel against the tuple-based wall crossing it replaced.

scatter._product keys each term by its packed scaled coordinates; the
reference below steps exponent tuples, as wall_cross did before.  They must
give the same terms, in the same order and with the same coefficient types,
on plane and principal (4-dim) exponents, on gradings with den > 1, on
symbolic and Fraction coefficients, for both signs and every order.
"""

import functools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsdiag import (
    CoeffPoly,
    TruncatedLaurent,
    complete_rank2,
    initial_diagram,
    initial_diagram_prin,
    loop_product,
    path_ordered_product,
    wall_cross,
)
from gcsdiag.scatter import Wall, _loop_events

from conftest import load_seed


def _reference_wall_cross(wall, sign, series, proj):
    """z^m -> z^m f^{sign * <n0', m>}, extended linearly and truncated, on exponent tuples."""
    out = dict(series.terms)
    (n0, n1), (i0, i1) = wall.normal, proj
    grading, base, order = series.grading, wall.base, series.order
    top = order * grading.den + grading.scaled_degree(series.offset)
    step = grading.scaled_degree(base)
    for expo, poly in series.terms.items():
        p = sign * (n0 * expo[i0] + n1 * expo[i1])
        if not p:
            continue
        jmax = (top - grading.scaled_degree(expo)) // step
        if jmax < 1:
            continue
        g = wall.power(p)
        e = expo
        for j in range(1, min(len(g) - 1, jmax) + 1):
            e = tuple(map(operator.add, e, base))  # expo + j * base
            if g[j]:
                prod = poly * g[j]
                out[e] = out[e] + prod if e in out else prod
    return TruncatedLaurent.within(grading, order, series.offset, out)


def _reference_path(path, series, proj):
    for wall, sign in path:
        series = _reference_wall_cross(wall, sign, series, proj)
    return series


# (seed, builder, order): plane and principal exponents; kronecker22's
# gradings have den > 1, g31's walls carry the symbol a
CASES = [("g31", initial_diagram, 6), ("kronecker22", initial_diagram, 6),
         ("g31", initial_diagram_prin, 5), ("kronecker22", initial_diagram_prin, 5)]


@functools.lru_cache(maxsize=None)
def _diagram(case):
    name, build, order = CASES[case]
    return complete_rank2(build(*load_seed(name + ".seed"), order))


coefficients = st.sampled_from([
    1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), CoeffPoly.symbol("a"),
    CoeffPoly({(("a", 1),): 2, (): Fraction(1, 3)}), CoeffPoly({(("a", 1), ("b", 2)): -1})])


def _draw_wall(data, diag):
    """A wall of diag, or one on its support whose list is drawn (numbers and symbols)."""
    wall = data.draw(st.sampled_from(diag.walls))
    if data.draw(st.booleans()):
        tail = data.draw(st.lists(st.one_of(st.just(0), coefficients),
                                  min_size=len(wall.coeffs) - 1, max_size=len(wall.coeffs) - 1))
        wall = Wall(wall.kind, wall.direction, wall.normal, wall.base, [1] + tail)
    return wall


def _draw_series(data, diag, order):
    """A series at order with a drawn offset and terms offset + sums of wall bases."""
    offset = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=diag.dim,
                                      max_size=diag.dim)))
    terms = {}
    for _ in range(data.draw(st.integers(1, 4))):
        expo = offset
        for _ in range(data.draw(st.integers(0, 3))):
            base, j = data.draw(st.sampled_from(diag.walls)).base, data.draw(st.integers(1, 2))
            expo = tuple(x + j * b for x, b in zip(expo, base))
        terms[expo] = data.draw(coefficients)
    return TruncatedLaurent(diag.grading, order, offset, terms)


def _items(series):
    """The terms in order, with their coefficients' types."""
    return [(e, type(c), c) for e, c in series.terms.items()]


@given(st.integers(0, len(CASES) - 1), st.data())
@settings(max_examples=150, deadline=None)
def test_wall_cross_matches_the_tuple_reference(case, data):
    diag = _diagram(case)
    order = data.draw(st.integers(0, diag.order))
    wall, sign = _draw_wall(data, diag), data.draw(st.sampled_from([-1, 1]))
    series = _draw_series(data, diag, order)
    assert (_items(wall_cross(wall, sign, series, diag.proj))
            == _items(_reference_wall_cross(wall, sign, series, diag.proj)))


@given(st.integers(0, len(CASES) - 1), st.data())
@settings(max_examples=100, deadline=None)
def test_path_ordered_product_matches_the_tuple_reference(case, data):
    diag = _diagram(case)
    order = data.draw(st.integers(0, diag.order))
    path = [(_draw_wall(data, diag), data.draw(st.sampled_from([-1, 1])))
            for _ in range(data.draw(st.integers(0, 6)))]
    series = _draw_series(data, diag, order)
    assert (_items(path_ordered_product(diag, path, series))
            == _items(_reference_path(path, series, diag.proj)))


@pytest.mark.parametrize("case", range(len(CASES)))
def test_loop_product_matches_the_tuple_reference(case):
    diag = _diagram(case)
    path = [(w, s) for _, w, s in _loop_events(diag.events)]
    for order in range(diag.order + 1):
        for m in diag.basis_exponents() + [diag.grading.generators[0]]:
            series = TruncatedLaurent.monomial(diag.grading, order, m)
            got = loop_product(diag, series)
            assert _items(got) == _items(_reference_path(path, series, diag.proj))
            assert got == series  # a completed diagram's loop is the identity


@pytest.mark.parametrize("case", [0, 1, 2])
def test_terms_and_bases_off_the_monoid_are_rejected(case):
    diag = _diagram(case)
    g, order, wall = diag.grading, diag.order, diag.walls[0]
    g1, offset = g.generators[0], (0,) * diag.dim
    outside = [tuple(-x for x in g1),  # below the cone
               tuple((order + 1) * x for x in g1)]  # above the order
    if diag.dim > 2:
        outside.append((0, 0, 1, 0))  # off the generators' span
    for expo in outside:
        series = TruncatedLaurent.within(g, order, offset, {offset: 1, expo: 1})
        for cross in (lambda: wall_cross(wall, 1, series, diag.proj),
                      lambda: path_ordered_product(diag, [(wall, -1)], series),
                      lambda: loop_product(diag, series)):
            with pytest.raises(ValueError, match="outside the grading monoid|above the series'"):
                cross()
    bad = Wall("ray", wall.direction, wall.normal, tuple(-x for x in wall.base), wall.coeffs)
    with pytest.raises(ValueError, match="outside the grading monoid"):
        wall_cross(bad, 1, TruncatedLaurent.monomial(g, order, g1), diag.proj)
