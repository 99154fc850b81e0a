import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsdiag.ring import (
    CoeffPoly,
    Grading,
    TruncatedLaurent,
    canonical_string,
    j_degree,
    pairing,
    parse_canonical,
    series_mul,
    series_pow_int,
    unit_power_coeffs,
)

GR = Grading([(0, 1), (-1, 0)])


def unit(terms, order=6):
    return TruncatedLaurent.unit_from_terms(
        GR, order, {e: CoeffPoly.symbol(c) if isinstance(c, str) else CoeffPoly.rational(c)
                    for e, c in terms.items()})


# ---------------------------------------------------------------------------
# pairing


def test_pairing_dual_bases():
    assert pairing((1, 0), (1, 0), (1, 1)) == 1


def test_pairing_weighted_diagonal():
    for d in [(1, 1), (3, 1), (Fraction(1, 3), 2)]:
        for k in range(2):
            n = tuple(d[k] if i == k else 0 for i in range(2))
            f = tuple(1 if i == k else 0 for i in range(2))
            assert pairing(n, f, d) == 1


def test_pairing_orthogonal_and_mismatch():
    assert pairing((0, 1), (-1, 0), (1, 1)) == 0
    with pytest.raises(ValueError):
        pairing((1,), (1, 0), (1, 1))


# ---------------------------------------------------------------------------
# series arithmetic


def test_series_mul_square():
    f = unit({(0, 1): "a"})
    sq = series_mul(f, f)
    assert canonical_string(sq) == "1 + 2*a*z^(0,1) + a^2*z^(0,2)"


def test_series_mul_exponent_addition():
    m1 = TruncatedLaurent.monomial(GR, 6, (1, 0))
    m2 = TruncatedLaurent.monomial(GR, 6, (-1, 1))
    assert canonical_string(series_mul(m1, m2)) == "z^(0,1)"


def test_series_mul_identity():
    f = unit({(0, 1): "a", (0, 2): "a", (0, 3): 1})
    assert series_mul(f, TruncatedLaurent.one(GR, 6)) == f


def test_series_pow_geometric_inverse():
    f = unit({(0, 1): 1}, order=3)
    inv = series_pow_int(f, -1)
    assert canonical_string(inv) == "1 + -1*z^(0,1) + z^(0,2) + -1*z^(0,3)"


def test_series_pow_zero_and_cancel():
    f = unit({(0, 1): "a", (0, 2): "a", (0, 3): 1})
    assert series_pow_int(f, 0).is_unit()
    assert len(series_pow_int(f, 0).terms) == 1
    g = unit({(-1, 0): 1})
    assert series_mul(g, series_pow_int(g, -1)) == TruncatedLaurent.one(GR, 6)


def test_series_pow_nonunit_negative_rejected():
    m = TruncatedLaurent.monomial(GR, 6, (0, 1))
    with pytest.raises(ValueError):
        series_pow_int(m, -1)


def test_series_pow_nonunit_positive_is_the_repeated_product():
    f = TruncatedLaurent.within(GR, 6, (0, 0), {(0, 1): 1, (-1, 0): 1})
    assert not f.is_unit()
    assert series_pow_int(f, 3) == f * f * f
    assert canonical_string(f ** 3) == "z^(-3,0) + 3*z^(-2,1) + 3*z^(-1,2) + z^(0,3)"


def test_polynomial_and_series_combine_in_either_order():
    f = unit({(0, 1): "a", (-1, 1): 2})
    p = CoeffPoly.symbol("b") + 3
    assert p + f == f + p
    assert p * f == f * p
    assert canonical_string(p * f) == canonical_string(f * p)
    assert (p * f).constant() == p


# the sum of two series lives at the lower offset, whatever the operand order
GQ = Grading([(1, 0), (0, 1)])


def test_series_sum_does_not_depend_on_operand_order():
    a = TruncatedLaurent(GQ, 2, (0, 0), {(1, 0): 1, (2, 0): 1})
    b = TruncatedLaurent(GQ, 2, (1, 0), {(1, 0): 1, (3, 0): 1})
    # z^(3,0) is above a's truncation, so neither order may keep it
    for total in (a + b, b + a):
        assert canonical_string(total) == "2*z^(1,0) + z^(2,0)"
        assert total.offset == (0, 0)
    # neither offset lies above the other in the monoid
    c = TruncatedLaurent(GQ, 2, (1, -1), {(1, -1): 1})
    for left, right in ((a, c), (c, a)):
        with pytest.raises(ValueError, match="incompatible offsets"):
            left + right


def test_series_plus_constant_adds_at_z0():
    s = TruncatedLaurent(GQ, 2, (1, 0), {(1, 0): 1})
    for total in (s + 1, 1 + s):
        assert canonical_string(total) == "1 + z^(1,0)"
        assert total.offset == (0, 0)
    assert canonical_string(1 - s) == "1 + -1*z^(1,0)"
    assert canonical_string(s - 1) == "-1 + z^(1,0)"


def test_series_sum_commutes_on_random_offsets():
    rng = random.Random(11)
    for _ in range(200):
        pair = []
        for _ in range(2):
            offset = (rng.randint(-2, 2), rng.randint(-2, 2))
            terms = {(offset[0] + i, offset[1] + j): rng.randint(-2, 2)
                     for i in range(3) for j in range(3 - i) if rng.random() < 0.6}
            pair.append(TruncatedLaurent(GQ, 2, offset, terms))
        a, b = pair
        steps = [y - x for x, y in zip(a.offset, b.offset)]
        if not (all(x >= 0 for x in steps) or all(x <= 0 for x in steps)):
            for left, right in ((a, b), (b, a)):
                with pytest.raises(ValueError, match="incompatible offsets"):
                    left + right
            continue
        ab, ba = a + b, b + a
        assert ab.offset == ba.offset == min(a.offset, b.offset, key=sum)
        assert ab.terms == ba.terms
        # every kept term is within the order at the lower offset and is the sum of the two
        for e in set(a.terms) | set(b.terms):
            if GQ.degree(tuple(x - y for x, y in zip(e, ab.offset))) <= 2:
                want = a.terms.get(e, CoeffPoly.zero()) + b.terms.get(e, CoeffPoly.zero())
                assert ab.terms.get(e, CoeffPoly.zero()) == want
            else:
                assert e not in ab.terms


# ---------------------------------------------------------------------------
# integral coefficients


def test_constant_polynomials_hash_as_the_numbers_they_equal():
    # numbers and CoeffPolys meet in one series, so equal values must collide
    for c in (0, 3, -1, Fraction(1, 2)):
        p = CoeffPoly.rational(c)
        assert p == c and c == p and hash(p) == hash(c)
        assert len({p, c}) == 1 and {c: "x"}[p] == "x" and {p: "x"}[c] == "x"
    a = CoeffPoly.symbol("a")
    assert a + 1 != 1 and len({a + 1, 1, a}) == 3
    assert CoeffPoly.rational(2) != 3 and CoeffPoly.zero() != 1


def test_integral_coefficients_are_ints():
    a = CoeffPoly.symbol("a")
    assert CoeffPoly({(): Fraction(4, 2)}).terms == {(): 2}
    assert type(CoeffPoly({(): Fraction(4, 2)}).terms[()]) is int
    half = (a * 3 + 1) * Fraction(1, 2)
    assert half.terms == {(("a", 1),): Fraction(3, 2), (): Fraction(1, 2)}
    twice = half * 2
    assert all(type(c) is int for c in twice.terms.values())
    assert twice == a * 3 + 1
    assert type(GR.degree((-2, 3))) is int
    assert type(Grading([(0, 2), (-1, 0)]).degree((0, 4))) is int


# ---------------------------------------------------------------------------
# degree


def test_j_degree_generators_are_degree_one():
    assert j_degree(GR, (0, 1)) == 1
    assert j_degree(GR, (-1, 0)) == 1


def test_j_degree_solved_combination():
    # (-3,6) = 6*(0,1) + 3*(-1,0)
    assert j_degree(GR, (-3, 6)) == 9


def test_j_degree_zero_and_outside():
    assert j_degree(GR, (0, 0)) == 0
    with pytest.raises(ValueError):
        j_degree(GR, (1, 0))


def test_rational_degrees():
    g = Grading([(0, 3), (-1, 0)])
    assert j_degree(g, (-3, 2)) == Fraction(11, 3)


def test_degree_is_memoised(monkeypatch):
    g = Grading([(0, 3), (-1, 0)])
    assert g.degree([-3, 2]) == Fraction(11, 3)
    assert g._cache[(-3, 2)] == [Fraction(2, 3), 3]

    def unsolved(m):
        raise AssertionError("degree re-solved %r" % (m,))

    monkeypatch.setattr(g, "coefficients", unsolved)
    assert g.degree((-3, 2)) == Fraction(11, 3)
    with pytest.raises(AssertionError):
        g.degree((1, 1))


def test_an_exponent_of_another_length_has_no_degree(a2):
    # a2's A_prin grading is on 4-dim exponents; a shorter or longer one was
    # once solved on the coordinates it shares with them
    from gcsdiag import initial_diagram_prin, path_ordered_product

    diag = initial_diagram_prin(*a2, 4)
    g = diag.grading
    assert g.degree((0, 1, 1, 0)) == 1
    for m in [(0, 1), (0, 1, 1, 0, 5), ()]:
        assert g.coefficients(m) is None
        with pytest.raises(ValueError, match="outside the grading monoid"):
            g.degree(m)
    # the frozen part of the exponent was dropped: z^(-1,1) + z^(0,1)
    with pytest.raises(ValueError):
        path_ordered_product(diag, [(diag.walls[0], 1)],
                             TruncatedLaurent.monomial(g, 4, (0, 1)))


def test_a_series_names_its_exponent_of_another_length(a2):
    # the exponent was once cut to the offset's length and reported as (0, 0)
    from gcsdiag import initial_diagram_prin

    g = initial_diagram_prin(*a2, 4).grading
    for m in [(0, 1), (0, 1, 1, 0, 5)]:
        with pytest.raises(ValueError, match=re.escape("exponent %r is not of length 4" % (m,))):
            TruncatedLaurent.monomial(g, 4, m)
        with pytest.raises(ValueError, match=re.escape("exponent %r is not of length 4" % (m,))):
            TruncatedLaurent(g, 4, (0, 0, 0, 0), {(0, 1, 1, 0): 1, m: 1})


# ---------------------------------------------------------------------------
# canonical strings


def test_canonical_string_wall_function():
    f = unit({(0, 1): "a", (0, 2): "a", (0, 3): 1})
    assert canonical_string(f) == "1 + a*z^(0,1) + a*z^(0,2) + z^(0,3)"


def test_canonical_string_zero():
    assert canonical_string(CoeffPoly.zero()) == "0"


def test_canonical_string_collects():
    p = CoeffPoly.symbol("a") * 2 + CoeffPoly.symbol("a")
    assert canonical_string(p) == "3*a"


def test_parse_canonical_round_trip():
    f = unit({(0, 1): "a", (0, 2): 2, (-1, 1): "b"})
    dim, terms = parse_canonical(canonical_string(f))
    assert dim == 2
    assert terms == f.terms


@pytest.mark.parametrize("build,error,message", [
    (lambda: CoeffPoly.symbol("a") ** -1, ValueError,
     "negative powers of coefficient polynomials"),
    (lambda: canonical_string(object()), TypeError, "unsupported value <object object at"),
    (lambda: parse_canonical("2*%"), ValueError, "bad factor '%'"),
    (lambda: Grading([(0, 1)]), ValueError, "a rank-2 grading needs exactly two generators"),
    (lambda: Grading([(1, 2), (-2, -4)]), ValueError,
     "grading generators must be linearly independent"),
    (lambda: unit({(0, 1): 1}, order=3).truncate(4), ValueError,
     "cannot extend a truncated series"),
    (lambda: unit({(0, 1): 1}, order=3) + unit({(0, 1): 1}, order=4), ValueError,
     "mismatched truncation orders"),
    (lambda: unit({(0, 1): 1}, order=3) * unit({(0, 1): 1}, order=4), ValueError,
     "mismatched truncation orders"),
    (lambda: unit({(0, 1): 1}) * TruncatedLaurent.one(Grading([(0, 1, 0), (-1, 0, 0)]), 6),
     ValueError, "mismatched lattices"),
], ids=["negative-power", "unsupported-value", "bad-factor", "one-generator",
        "dependent-generators", "extend", "add-orders", "mul-orders", "mul-lattices"])
def test_ring_refuses_malformed_input(build, error, message):
    with pytest.raises(error, match="^%s" % re.escape(message)):
        build()


# ---------------------------------------------------------------------------
# truncation


def test_truncation_coherence():
    f = unit({(0, 1): "a", (-1, 0): 1}, order=6)
    g = unit({(0, 1): "a", (-1, 0): 1}, order=3)
    assert (f * f).truncate(3) == (g * g)


def test_truncation_drops_high_terms_eagerly():
    f = unit({(0, 1): 1}, order=2)
    cube = f * f * f
    assert (0, 3) not in cube.terms


def test_unit_constant_is_one():
    f = unit({(0, 1): "a"})
    assert f.is_unit() and f.constant() == 1
    with pytest.raises(ValueError):
        TruncatedLaurent.unit_from_terms(GR, 4, {(0, 0): CoeffPoly.one()})


# ---------------------------------------------------------------------------
# property-based checks

names = st.sampled_from(["a", "b"])
monos = st.lists(st.tuples(names, st.integers(1, 2)), max_size=2).map(
    lambda l: tuple(sorted(dict(l).items())))
polys = st.dictionaries(monos, st.integers(-4, 4), max_size=3).map(CoeffPoly)


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p


tails = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda t: t != (0, 0)),
    st.integers(-3, 3), max_size=3)


def _tail_to_unit(tail, order=6):
    return TruncatedLaurent.unit_from_terms(
        GR, order,
        {(-b, a): CoeffPoly.rational(c) for (a, b), c in tail.items() if c})


@given(tails, st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_pow_additivity(tail, e1, e2):
    f = _tail_to_unit(tail)
    lhs = series_pow_int(f, e1 + e2)
    rhs = series_mul(series_pow_int(f, e1), series_pow_int(f, e2))
    assert lhs == rhs


@given(tails)
@settings(max_examples=40, deadline=None)
def test_truncate_commutes_with_mul(tail):
    f6 = _tail_to_unit(tail, 6)
    f3 = _tail_to_unit(tail, 3)
    assert (f6 * f6).truncate(3) == f3 * f3


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_canonical_string_injective(p, q):
    if canonical_string(p) == canonical_string(q):
        assert p == q


def _inverse_by_geometric_series(f):
    """g with g * f = 1: the sum of (1 - f)^k, whose terms all rise in degree."""
    one = TruncatedLaurent.one(f.grading, f.order)
    h = one - f
    g, term = one, one
    while term.terms:
        term = term * h
        g = g + term
    assert g * f == one
    return g


def _power_by_products(f, e):
    base = f if e >= 0 else _inverse_by_geometric_series(f)
    out = TruncatedLaurent.one(f.grading, f.order)
    for _ in range(abs(e)):
        out = out * base
    return out


@given(tails, st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_unit_power_equals_repeated_products(tail, e):
    f = _tail_to_unit(tail)
    assert series_pow_int(f, e) == _power_by_products(f, e)


HALF = Grading([(2, 0), (0, 2)])  # (1, 0) and (0, 1) have degree 1/2

half_tails = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda t: t != (0, 0)),
    st.integers(-3, 3), max_size=3)


@given(half_tails, st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_unit_power_with_half_degrees(tail, e):
    f = TruncatedLaurent.unit_from_terms(
        HALF, 3, {u: CoeffPoly.rational(c) for u, c in tail.items() if c})
    assert series_pow_int(f, e) == _power_by_products(f, e)


def test_unit_power_with_symbolic_coefficients():
    f = unit({(0, 1): "a", (-1, 1): "b", (0, 2): 1})
    for e in (-3, 2, 5):
        assert f ** e == _power_by_products(f, e)


one_var_tails = st.lists(st.sampled_from([-2, -1, 0, 1, 3, "a"]), max_size=4).map(
    lambda cs: [CoeffPoly.symbol(c) if isinstance(c, str) else CoeffPoly.rational(c)
                for c in cs])


@given(one_var_tails, st.sampled_from([(0, 1), (-1, 0), (-1, 1)]), st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_unit_power_coeffs_equal_repeated_products(tail, base, e):
    """The list recurrence on a series in z^base against products of the series."""
    coeffs = [CoeffPoly.one()] + tail

    def terms(cs):
        return {tuple(j * b for b in base): c for j, c in enumerate(cs) if j and c}

    f = TruncatedLaurent.unit_from_terms(GR, 6, terms(coeffs))
    g = unit_power_coeffs(coeffs, e, int(6 // GR.degree(base)))
    assert g[0] == 1
    assert terms(g) == {x: p for x, p in _power_by_products(f, e).terms.items() if any(x)}


def _as_terms(c):
    return c.terms if isinstance(c, CoeffPoly) else ({(): c} if c else {})


def _fraction_power_coeffs(coeffs, e, n):
    """Miller's recurrence with {monomial: Fraction} coefficients, each g_d divided by d
    as a Fraction: the reference for unit_power_coeffs."""
    def mul(p, q):
        out = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                m = dict(m1)
                for name, x in m2:
                    m[name] = m.get(name, 0) + x
                m = tuple(sorted(m.items()))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return out

    cs = [{m: Fraction(x) for m, x in _as_terms(c).items()} for c in coeffs]
    g = [cs[0]]
    for d in range(1, n + 1):
        acc = {}
        for k in range(1, min(d, len(cs) - 1) + 1):
            for m, c in mul(cs[k], g[d - k]).items():
                acc[m] = acc.get(m, Fraction(0)) + c * ((e + 1) * k - d)
        g.append({m: c / d for m, c in acc.items() if c})
    return g


coeff_entries = st.sampled_from([-2, -1, 0, 1, 3, "a", "b", Fraction(1, 2), Fraction(-2, 3)])


@given(st.lists(coeff_entries, max_size=4), st.sampled_from(["int", "poly"]),
       st.integers(-4, 4), st.integers(0, 7))
@settings(max_examples=80, deadline=None)
def test_unit_power_coeffs_equal_the_fraction_recurrence(entries, kind, e, n):
    """Int, Fraction and CoeffPoly inputs against the recurrence run in Fractions;
    integral inputs give int coefficients, and a constant coefficient is a number."""
    if kind == "int":
        entries = [c for c in entries if not isinstance(c, str)]
        coeffs = [1] + entries
    else:
        coeffs = [CoeffPoly.one()] + [CoeffPoly.symbol(c) if isinstance(c, str)
                                      else CoeffPoly.rational(c) for c in entries]
    got = unit_power_coeffs(coeffs, e, n)
    assert [_as_terms(c) for c in got] == _fraction_power_coeffs(coeffs, e, n)
    assert all(c.terms.keys() - {()} for c in got if isinstance(c, CoeffPoly))
    if not any(isinstance(c, Fraction) for c in entries):
        assert all(type(x) is int for c in got for x in _as_terms(c).values())


def test_a_symbolic_power_builds_one_polynomial_per_coefficient(monkeypatch):
    # each g_d is summed in one term map, so g_1..g_12 build at most 12 polynomials
    coeffs = [1, CoeffPoly.symbol("a"), CoeffPoly.symbol("a"), 1]
    want = _fraction_power_coeffs(coeffs, 5, 12)
    built, init = [], CoeffPoly.__init__

    def counted(self, terms=None):
        built.append(terms)
        init(self, terms)

    monkeypatch.setattr(CoeffPoly, "__init__", counted)
    got = unit_power_coeffs(coeffs, 5, 12)
    assert len(built) <= 12
    assert [_as_terms(c) for c in got] == want


def _uncapped_power_coeffs(coeffs, e, n):
    """unit_power_coeffs's recurrence run to n for every e, with its scalar rule: the
    reference for its stop at e * deg f."""
    from gcsdiag.ring import _divide, _mono_mul, demote

    tail = [(k, demote(c)) for k, c in enumerate(coeffs) if k and c]
    poly = any(type(c) is CoeffPoly for _, c in tail)
    if poly:
        tail = [(k, c.terms if type(c) is CoeffPoly else {(): c}) for k, c in tail]
    exact = all(type(x) is int for _, c in tail for x in (c.values() if poly else (c,)))
    g = [{(): 1} if poly else 1]
    for d in range(1, n + 1):
        acc = {} if poly else 0
        for k, c in tail:
            if k > d:
                break
            w, h = (e + 1) * k - d, g[d - k]
            if not (w and h):
                continue
            if poly:
                for m1, x1 in c.items():
                    for m2, x2 in h.items():
                        m = _mono_mul(m1, m2)
                        acc[m] = acc.get(m, 0) + x1 * w * x2
            else:
                acc += c * h * w
        if poly:
            g.append({m: _divide(x, d, exact) for m, x in acc.items() if x})
        else:
            g.append(_divide(acc, d, exact) if acc else 0)
    return [CoeffPoly(t) if t.keys() - {()} else t.get((), 0) for t in g] if poly else g


def _typed(c):
    """A coefficient with its type and, for a CoeffPoly, the types of its numbers."""
    if type(c) is CoeffPoly:
        return CoeffPoly, sorted((m, type(x), x) for m, x in c.terms.items())
    return type(c), c


tail_entries = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.sampled_from([CoeffPoly.symbol("a"), CoeffPoly.symbol("b") * 2 - 1,
                     CoeffPoly.rational(Fraction(1, 3)), CoeffPoly.rational(2), CoeffPoly()]))


@given(st.lists(tail_entries, max_size=5), st.integers(-5, 6), st.integers(0, 12))
@settings(max_examples=150, deadline=None)
def test_a_power_stops_at_its_degree_with_the_values_and_types_of_the_full_loop(tail, e, n):
    """For an int e >= 0, f^e ends at t^(e * deg f): the recurrence stops there and pads
    with the int 0, which is what the full loop gives, zero tails and constants included."""
    coeffs = [1] + tail
    got = unit_power_coeffs(coeffs, e, n)
    assert [_typed(c) for c in got] == [_typed(c) for c in _uncapped_power_coeffs(coeffs, e, n)]


def test_a_long_power_of_a_short_polynomial_is_padded_with_zeros():
    assert unit_power_coeffs([1, 1], 3, 10**5) == [1, 3, 3, 1] + [0] * (10**5 - 3)


def test_unit_power_coeffs_refuses_an_inexact_division():
    # an integral series to a non-integral power is not integral: the
    # division by d raises rather than floors
    with pytest.raises(ArithmeticError):
        unit_power_coeffs([1, 1], Fraction(1, 2), 2)
    with pytest.raises(ArithmeticError):
        unit_power_coeffs([CoeffPoly.one(), CoeffPoly.symbol("a")], Fraction(1, 2), 2)
