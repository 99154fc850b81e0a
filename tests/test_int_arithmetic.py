"""Seed and grading arithmetic in ints, against the Fraction formulas it replaced.

FixedData's skew check, a seed's duality check and epsilon work with the
int weights w_i = L / d_i (L the lcm of d's numerators), and Grading divides
its 2x2 Cramer solve by den only where den does not divide.  The references
below are the Fraction formulas these replaced.  They must agree on rational
d (right companions), on Langlands duals and along mutation words, raise the
same errors, and give ints wherever the value is integral.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcsdiag import (
    FixedData,
    GeneralizedTorusSeed,
    langlands_dual,
    left_companion,
    make_initial_seed,
    mutate_word,
    right_companion,
)
from gcsdiag.ring import Grading
from gcsdiag.seed import epsilon

SKEW = "B is not skew-symmetrizable by d"
DUAL = "e- and f-vectors are not dual bases"
EPSILON = "non-integral epsilon entry"


def _ref_skew(d, B):
    n = len(d)
    return all(Fraction(B[i][j], 1) / d[j] == -Fraction(B[j][i], 1) / d[i]
               for i in range(n) for j in range(n))


def _ref_dual(d, E, F):
    for i, (e, di) in enumerate(zip(E, d)):
        for j, f in enumerate(F):
            val = sum(Fraction(x * y, dc) for x, y, dc in zip(e, f, d) if x and y)
            if val * di != (1 if i == j else 0):
                return False
    return True


def _ref_epsilon(d, B, E):
    n = len(d)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            val = Fraction(0)
            for a in range(n):
                for b in range(n):
                    if E[i][a] and E[j][b] and B[a][b]:
                        val += Fraction(E[i][a]) * E[j][b] * Fraction(B[a][b]) / d[b]
            val *= d[j]
            if val.denominator != 1:
                raise ValueError(EPSILON)
            row.append(int(val))
        out.append(tuple(row))
    return tuple(out)


def _outcome(fn, *args):
    """fn's value, or the message of its ValueError."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def fixed_data(draw):
    """Skew-symmetrizable data of rank 2-4 with rational d, or its right or left companion
    or Langlands dual.  B_ij is t times the denominator of d_i / d_j, the least
    multiple for which B_ji = -B_ij d_i / d_j is an integer too."""
    n = draw(st.integers(2, 4))
    d = [Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 3))) for _ in range(n)]
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            B[i][j] = draw(st.integers(-2, 2)) * (d[i] / d[j]).denominator
            B[j][i] = int(-B[i][j] * d[i] / d[j])
    r = [draw(st.integers(1, 3)) for _ in range(n)]
    fixed = FixedData(n, range(n), d, r, B)
    derive = draw(st.sampled_from(("none", "right", "left", "dual")))
    if derive == "dual":
        if any(x.denominator != 1 for x in d):
            return fixed
        return langlands_dual(fixed, make_initial_seed(fixed))[0]
    if derive != "none":
        companion = right_companion if derive == "right" else left_companion
        return companion(fixed, make_initial_seed(fixed))[0]
    return fixed


def _word(fixed):
    return st.lists(st.sampled_from(fixed.unfrozen), max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_epsilon_and_duality_along_mutation_words(data):
    fixed = data.draw(fixed_data())
    assert _ref_skew(fixed.d, fixed.B)
    assert all(type(x) is int for x in fixed.w)
    seed = mutate_word(fixed, make_initial_seed(fixed), data.draw(_word(fixed)))
    eps = epsilon(fixed, seed)
    assert eps == _ref_epsilon(fixed.d, fixed.B, seed.e_vectors)
    assert all(type(x) is int for row in eps for x in row)
    assert _ref_dual(fixed.d, seed.e_vectors, seed.f_vectors)
    # a perturbed f-vector fails both duality checks alike, with the same message
    i, j = data.draw(st.integers(0, fixed.n - 1)), data.draw(st.integers(0, fixed.n - 1))
    F = [list(f) for f in seed.f_vectors]
    F[i][j] += data.draw(st.sampled_from((-1, 1, 2)))
    got = _outcome(GeneralizedTorusSeed, fixed, seed.e_vectors, F, seed.a_tuples)
    if _ref_dual(fixed.d, seed.e_vectors, F):
        assert isinstance(got, GeneralizedTorusSeed)
    else:
        assert got == ("ValueError", DUAL)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_epsilon_of_any_integral_basis_matches_the_fraction_formula(data):
    # e-vectors that need not come from a seed, so some entries are not integral
    fixed = data.draw(fixed_data())
    n = fixed.n
    E = [[data.draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    assert (_outcome(epsilon, fixed, SimpleNamespace(e_vectors=E))
            == _outcome(_ref_epsilon, fixed.d, fixed.B, E))


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4), st.data())
def test_skew_check_matches_the_fraction_formula(n, data):
    d = [Fraction(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))) for _ in range(n)]
    B = [[0 if i == j else data.draw(st.integers(-3, 3)) for j in range(n)] for i in range(n)]
    got = _outcome(FixedData, n, range(n), d, (1,) * n, B)
    if _ref_skew(d, B):
        assert isinstance(got, FixedData)
    else:
        assert got == ("ValueError", SKEW)


def test_a_zero_weight_is_refused_before_the_int_weights():
    with pytest.raises(ValueError, match="^weights and degrees must be positive$"):
        FixedData(2, (0, 1), (0, 1), (1, 1), [[0, 0], [0, 0]])


def test_known_data_raise_their_messages():
    with pytest.raises(ValueError, match="^%s$" % SKEW):
        FixedData(2, (0, 1), (Fraction(1, 3), 1), (1, 1), [[0, 1], [-1, 0]])
    fixed = FixedData(2, (0, 1), (Fraction(1, 3), 1), (1, 1), [[0, 3], [-1, 0]])
    seed = make_initial_seed(fixed)
    with pytest.raises(ValueError, match="^%s$" % DUAL):
        GeneralizedTorusSeed(fixed, [[1, 0], [0, 1]], [[1, 1], [0, 1]], seed.a_tuples)
    # {e_0, e_1} = 1 and d_2 = 1/2, so epsilon'_02 = 1/2 for e_0' = e_0, e_2' = e_1
    fixed = FixedData(3, (0, 1, 2), (1, 1, Fraction(1, 2)), (1, 1, 1),
                      [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match="^%s$" % EPSILON):
        epsilon(fixed, SimpleNamespace(e_vectors=[[1, 0, 0], [0, 0, 1], [0, 1, 0]]))


# ---------------------------------------------------------------------------
# the grading's solve


def _ref_coefficients(generators, m):
    """x, y with m = x*g1 + y*g2 in Fractions, by Cramer on the first nonzero minor; None
    if m has another length or is off the span."""
    g1, g2 = generators
    if len(m) != len(g1):
        return None
    i, j = next((i, j) for i in range(len(g1)) for j in range(i + 1, len(g1))
                if g1[i] * g2[j] - g1[j] * g2[i])
    det = Fraction(g1[i] * g2[j] - g1[j] * g2[i])
    x = (m[i] * g2[j] - m[j] * g2[i]) / det
    y = (g1[i] * m[j] - g1[j] * m[i]) / det
    return [x, y] if all(x * a + y * b == t for a, b, t in zip(g1, g2, m)) else None


@st.composite
def grading_cases(draw):
    dim = draw(st.integers(2, 4))
    vec = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple)
    g1, g2 = draw(vec), draw(vec)
    assume(any(g1[i] * g2[j] - g1[j] * g2[i] for i in range(dim) for j in range(dim)))
    grading = Grading([g1, g2])
    # on the span, with den dividing a and b or not; off it; or of another length
    a, b = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    m = [a * x + b * y for x, y in zip(g1, g2)]
    if all(c % grading.den == 0 for c in m):
        m = [c // grading.den for c in m]
    kind = draw(st.sampled_from(("span", "off", "length")))
    if kind == "off":
        m[draw(st.integers(0, dim - 1))] += 1
    elif kind == "length":
        m = m + [0] if draw(st.booleans()) else m[:-1]
    return grading, tuple(m)


@settings(max_examples=300, deadline=None)
@given(grading_cases())
def test_grading_solve_matches_the_fraction_solve(case):
    grading, m = case
    want = _ref_coefficients(grading.generators, m)
    got = grading.coefficients(m)
    assert got == want
    if want is not None:
        assert [type(c) is int for c in got] == [c.denominator == 1 for c in want]
    if want is None or min(want) < 0:
        with pytest.raises(ValueError, match="outside the grading monoid"):
            grading.degree(m)
    else:
        deg = grading.degree(m)
        assert deg == sum(want) and (type(deg) is int) == (sum(want).denominator == 1)


def test_grading_solve_gives_fractions_only_where_den_does_not_divide():
    # kronecker22's grading: (0, 2) and (-2, 0) have degree 1, den = 4
    grading = Grading([(0, 2), (-2, 0)])
    assert grading.den == 4
    assert grading.coefficients((0, 1)) == [Fraction(1, 2), 0]
    assert type(grading.coefficients((0, 1))[1]) is int
    assert grading.degree((-1, 1)) == 1 and type(grading.degree((-1, 1))) is int
    assert grading.degree((-1, 0)) == Fraction(1, 2)
