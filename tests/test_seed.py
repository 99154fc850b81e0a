import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_scatter import _zoo

from gcsdiag import (
    ClusterState,
    CoeffPoly,
    FixedData,
    c_vectors,
    cluster_variable_text,
    epsilon,
    g_vectors,
    langlands_dual,
    laurent_check,
    laurent_dict,
    left_companion,
    make_initial_seed,
    mutate_cluster,
    mutate_seed,
    mutate_word,
    parse_seed_file,
    principal_data,
    right_companion,
    serialize_seed_file,
)
from gcsdiag.seed import GeneralizedTorusSeed, mutation_walk

import os

SEED_DIR = os.path.join(os.path.dirname(__file__), "..", "seeds")


# ---------------------------------------------------------------------------
# fixed data


def test_fixed_data_validates_skew_symmetrizability():
    with pytest.raises(ValueError):
        FixedData(2, (0, 1), (1, 1), (1, 1), [[0, 1], [1, 0]])
    FixedData(2, (0, 1), (3, 1), (1, 1), [[0, 1], [-3, 0]])


def test_fixed_data_allows_rational_and_scaled_d():
    FixedData(2, (0, 1), (Fraction(1, 3), 1), (1, 1), [[0, 3], [-1, 0]])
    FixedData(2, (0, 1), (2, 2), (1, 1), [[0, 2], [-2, 0]])


@pytest.mark.parametrize("r,B", [
    ((Fraction(3, 2), 1), [[0, 1], [-1, 0]]),
    ((1, 1.5), [[0, 1], [-1, 0]]),
    ((1, 1), [[0, 1.7], [-1.7, 0]]),
    ((1, 1), [[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]),
])
def test_fixed_data_rejects_non_integral_r_and_B(r, B):
    # int() would truncate these silently
    with pytest.raises(ValueError, match="non-integral"):
        FixedData(2, (0, 1), (1, 1), r, B)


def test_fixed_data_accepts_integral_non_int_entries():
    fixed = FixedData(2, (0, 1), (1, 1), (Fraction(3), 2.0), [[0, 1.0], [Fraction(-1), 0]])
    assert fixed.r == (3, 2) and fixed.B == ((0, 1), (-1, 0))
    assert all(type(x) is int for x in fixed.r + fixed.B[0] + fixed.B[1])


@pytest.mark.parametrize("e,f", [
    ([[1.7, 0], [0, 1]], [[1, 0], [0, 1]]),
    ([[1, 0], [0, 1]], [[1, 0], [Fraction(1, 3), 1]]),
    ([[1, 0], [0.5, 1]], [[1, -0.5], [0, 1]]),
])
def test_seed_rejects_non_integral_vectors(g31, e, f):
    # int() would truncate these silently: [[1.7, 0], [0, 1]] read as the
    # identity, and the third pair is dual over Q
    fixed, seed = g31
    with pytest.raises(ValueError, match="non-integral"):
        GeneralizedTorusSeed(fixed, e, f, seed.a_tuples)
    ok = GeneralizedTorusSeed(fixed, [[1.0, 0], [0, Fraction(1)]], [[1, 0], [0, 1]],
                              seed.a_tuples)
    assert ok.e_vectors == ((1, 0), (0, 1))


@pytest.mark.parametrize("e,f", [
    ([[2, 0], [0, 1]], [[1, 0], [0, 1]]),
    ([[2, 0], [0, 1]], [[Fraction(1, 2), 0], [0, 1]]),
    ([[1, 1], [1, -1]], [[1, 1], [1, -1]]),
])
def test_seed_rejects_e_vectors_of_determinant_two(g31, e, f):
    # integer dual bases have det E * det F = 1, so the duality check alone
    # rejects e-vectors that are not a Z-basis of N
    fixed, seed = g31
    GeneralizedTorusSeed(fixed, seed.e_vectors, seed.f_vectors, seed.a_tuples)
    with pytest.raises(ValueError, match="not dual"):
        GeneralizedTorusSeed(fixed, e, f, seed.a_tuples)


UNFROZEN = "coefficient tuples must be given for exactly the unfrozen directions 1 2"


@pytest.mark.parametrize("build,message", [
    (lambda f, s: FixedData(2, (0, 1), (1, 1), (1, 1), [[0, 1], [-1]]),
     "dimension mismatch in fixed data"),
    (lambda f, s: FixedData(2, (0, 1), (1, 1), (1, 1), [[0, 1, 5], [-1, 0]]),
     "dimension mismatch in fixed data"),
    (lambda f, s: GeneralizedTorusSeed(f, [[1, 0]], [[1, 0]], s.a_tuples),
     "e- and f-vectors are not dual bases"),
    (lambda f, s: GeneralizedTorusSeed(f, [[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0]],
                                       s.a_tuples),
     "e- and f-vectors are not dual bases"),
    (lambda f, s: GeneralizedTorusSeed(f, s.e_vectors, s.f_vectors, {0: s.a_tuples[0]}),
     UNFROZEN),
    (lambda f, s: make_initial_seed(f, {5: (1, 1)}), UNFROZEN),
    (lambda f, s: GeneralizedTorusSeed(f, s.e_vectors, s.f_vectors, {0: (2, 0, 0, 2), 1: (1, 1)}),
     "coefficient tuple for direction 1 is not monic"),
], ids=["short-B-row", "long-B-row", "one-vector", "long-vectors", "missing-a-tuple",
        "a-tuple-out-of-range", "not-monic"])
def test_constructors_reject_malformed_shapes(g31, build, message):
    # a malformed shape fails where the data are built, not as an IndexError or a
    # KeyError in the mutation or completion that reads them
    with pytest.raises(ValueError, match="^%s$" % message):
        build(*g31)


# ---------------------------------------------------------------------------
# epsilon


def test_epsilon_initial(g31):
    fixed, seed = g31
    assert epsilon(fixed, seed) == ((0, 1), (-1, 0))


def test_epsilon_after_mu2(g31):
    fixed, seed = g31
    assert epsilon(fixed, mutate_seed(fixed, seed, 1)) == ((0, -1), (1, 0))


def test_epsilon_rank_one():
    fixed = FixedData(1, (0,), (1,), (2,), [[0]])
    seed = make_initial_seed(fixed)
    assert epsilon(fixed, seed) == ((0,),)


# ---------------------------------------------------------------------------
# seed mutation


def test_mu2_example(g31):
    fixed, seed = g31
    s2 = mutate_seed(fixed, seed, 1)
    assert s2.e_vectors == ((1, 1), (0, -1))
    assert s2.a_tuples[0] == seed.a_tuples[0]  # reciprocity: tuple unchanged
    assert s2.a_tuples[1] == seed.a_tuples[1]


def test_mutation_involution_on_epsilon(g31):
    fixed, seed = g31
    for k in fixed.unfrozen:
        assert epsilon(fixed, mutate_word(fixed, seed, (k, k))) == epsilon(fixed, seed)


def test_f1_under_mu1(g31):
    fixed, seed = g31
    assert mutate_seed(fixed, seed, 0).f_vectors[0] == (-1, 0)


def test_frozen_mutation_rejected(g31):
    fixed, seed = g31
    frozen = FixedData(fixed.n, (0,), fixed.d, fixed.r, fixed.B)
    with pytest.raises(ValueError):
        mutate_seed(frozen, make_initial_seed(frozen), 1)


def test_skew_symmetrizability_preserved(g31, kronecker):
    rng = random.Random(7)
    for fixed, seed in (g31, kronecker):
        for _ in range(10):
            word = [rng.choice(fixed.unfrozen) for _ in range(6)]
            eps = epsilon(fixed, mutate_word(fixed, seed, word))
            for i in range(fixed.n):
                for j in range(fixed.n):
                    assert Fraction(eps[i][j]) / fixed.d[j] == -Fraction(eps[j][i]) / fixed.d[i]


# ---------------------------------------------------------------------------
# cluster-variable recursion


# The exchange recursion as it was computed with sympy's rational functions:
# the reference the ring form must reproduce, printed text included.


def _poly_to_sympy(poly):
    return sp.Add(*[sp.Rational(c.numerator, c.denominator)
                    * sp.Mul(*[sp.Symbol(name) ** e for name, e in mono])
                    for mono, c in poly.terms.items()])


def _to_sympy(expr):
    """A Laurent polynomial {x-exponent: CoeffPoly} as a sympy expression."""
    xs = sp.symbols("x1:%d" % (len(next(iter(expr))) + 1))
    return sp.Add(*[_poly_to_sympy(poly) * sp.Mul(*[x ** e for x, e in zip(xs, key)])
                    for key, poly in expr.items()])


def _sympy_laurent_check(expr, xs):
    num, den = sp.fraction(sp.cancel(sp.together(expr)))
    den = sp.expand(den)
    if not den.free_symbols <= set(xs):
        return False
    return den.is_Number or len(sp.Poly(den, *xs).terms()) == 1


def _sympy_mutate(fixed, seed, exprs, k):
    """x_k' = x_k^{-1} (prod x_j^{[-b_kj]_+})^{r_k} sum_s a_{k,s} yhat_k^s, by sp.cancel."""
    b = epsilon(fixed, seed)[k]
    yhat = sp.Mul(*[exprs[j] ** b[j] for j in range(fixed.n)])
    pref = sp.Mul(*[exprs[j] ** max(-b[j], 0) for j in range(fixed.n)])
    total = sp.Add(*[_poly_to_sympy(a) * yhat ** s for s, a in enumerate(seed.a_tuples[k])])
    out = list(exprs)
    out[k] = sp.cancel(pref ** fixed.r[k] * total / exprs[k])
    assert _sympy_laurent_check(out[k], sp.symbols("x1:%d" % (fixed.n + 1)))
    return out


def _sympy_laurent_dict(expr, xs):
    num, den = sp.fraction(sp.cancel(sp.together(expr)))
    num, den = sp.expand(num), sp.expand(den)
    if den.is_Number:
        shift = tuple(0 for _ in xs)
        dc = sp.Rational(den)
    else:
        ((mono, dc),) = sp.Poly(den, *xs).terms()
        shift = tuple(int(m) for m in mono)
    asyms = sorted(num.free_symbols - set(xs), key=lambda s: s.name)
    out = {}
    for mono, coeff in sp.Poly(num, *xs).terms():
        key = tuple(int(m) - s for m, s in zip(mono, shift))
        coeff = sp.expand(coeff / dc)
        terms = {}
        if asyms and coeff.free_symbols & set(asyms):
            for amono, q in sp.Poly(coeff, *asyms).terms():
                q = sp.Rational(q)
                m = tuple(sorted((s.name, int(e)) for s, e in zip(asyms, amono) if e))
                terms[m] = terms.get(m, Fraction(0)) + Fraction(q.p, q.q)
        else:
            q = sp.Rational(coeff)
            terms[()] = Fraction(q.p, q.q)
        out[key] = out.get(key, CoeffPoly.zero()) + CoeffPoly(terms)
    return {k: v for k, v in out.items() if v}


def test_exchange_relation_mu1(g31):
    fixed, seed = g31
    st = mutate_cluster(ClusterState(fixed, seed), 0)
    x1, x2 = sp.symbols("x1 x2")
    a = sp.Symbol("a")
    expected = (1 + a * x2 + a * x2**2 + x2**3) / x1
    assert sp.simplify(_to_sympy(st.exprs[0]) - expected) == 0


def test_exchange_relation_mu2(g31):
    fixed, seed = g31
    st = mutate_cluster(ClusterState(fixed, seed), 1)
    x1, x2 = sp.symbols("x1 x2")
    assert sp.simplify(_to_sympy(st.exprs[1]) - (x1 + 1) / x2) == 0


def test_exchange_involution(g31):
    fixed, seed = g31
    st = mutate_cluster(mutate_cluster(ClusterState(fixed, seed), 0), 0)
    assert [_to_sympy(e) for e in st.exprs] == list(sp.symbols("x1 x2"))


def test_laurent_check_positive_negative():
    x1, x2 = sp.symbols("x1 x2")
    one = CoeffPoly.one()
    quotient = laurent_check({(1, 0): one, (0, 0): one}, {(0, 1): one})
    assert sp.simplify(_to_sympy(quotient) - (x1 + 1) / x2) == 0
    with pytest.raises(ValueError, match="non-Laurent"):
        laurent_check({(1, 0): one, (0, 0): one}, {(0, 1): one, (0, 0): one})


def test_laurent_check_adds_remainder_terms():
    # dividing by x1 - 1 puts terms into the remainder that the numerator lacks
    one = CoeffPoly.one()
    den = {(1, 0): one, (0, 0): -one}
    assert laurent_check({(2, 0): one, (0, 0): -one}, den) == {(1, 0): one, (0, 0): one}
    with pytest.raises(ValueError, match="non-Laurent"):
        laurent_check({(2, 0): one, (0, 0): one}, den)  # (x1^2 + 1) / (x1 - 1)


def test_laurent_check_divides_over_the_coefficient_ring():
    a, b = CoeffPoly.symbol("a"), CoeffPoly.symbol("b")
    one = CoeffPoly.one()
    # (x1 + a x2)(2 x1^-1 + b) divided by x1 + a x2
    num = {(0, 0): 2 * one, (1, 0): b, (-1, 1): 2 * a, (0, 1): a * b}
    assert laurent_check(num, {(1, 0): one, (0, 1): a}) == {(-1, 0): 2 * one, (0, 0): b}
    assert laurent_check(num, {(-1, 0): 2 * one, (0, 0): b}) == {(1, 0): one, (0, 1): a}


@pytest.mark.parametrize("num,den", [
    ({(1, 0): CoeffPoly.symbol("a")}, {(0, 0): CoeffPoly.symbol("a") ** 2}),  # a^-1 x1
    ({(0, 0): CoeffPoly.one()}, {(0, 0): CoeffPoly.one(), (0, -1): -CoeffPoly.one()}),
    # the quotient's terms fall in lexicographic order without a lowest one:
    # 1 / (1 + x1^-1 x2^5 + x2^-1)
    ({(0, 0): CoeffPoly.one()},
     {(0, 0): CoeffPoly.one(), (-1, 5): CoeffPoly.one(), (0, -1): CoeffPoly.one()}),
], ids=["a-denominator", "geometric-series", "no-lowest-term"])
def test_laurent_check_rejects_a_non_multiple(num, den):
    with pytest.raises(ValueError, match="non-Laurent"):
        laurent_check(num, den)


@pytest.mark.parametrize("expr", [
    {(2, 0): CoeffPoly.one(), (1, 0): CoeffPoly.one()},  # x1 divides every term
    {(1, 2): CoeffPoly.symbol("a"), (1, 1): CoeffPoly.one()},
    {(-1, 2): CoeffPoly.symbol("a") * 2, (1, -1): CoeffPoly.rational(3),
     (0, 0): CoeffPoly.symbol("a") * CoeffPoly.symbol("b")},
    {(-2, -3): CoeffPoly.one()},
])
def test_printer_matches_sympy_cancel(expr):
    assert cluster_variable_text(expr, ("x1", "x2")) == str(sp.cancel(_to_sympy(expr)))


def _sympy_text(expr, xs):
    """The printer as it was written with sympy: str of the Laurent polynomial
    over the monomial denominator prod x_j^-m_j, m_j the lowest exponent of
    x_j clipped at 0."""
    syms = [sp.Symbol(x) for x in xs]
    shift = [min(0, min(x[j] for x in expr)) for j in range(len(xs))]
    terms = []
    for x, poly in expr.items():
        mono = sp.Mul(*[s ** (e - m) for s, e, m in zip(syms, x, shift)])
        for amono, c in poly.terms.items():
            coeff = sp.Rational(c.numerator, c.denominator)
            terms.append(sp.Mul(coeff, *[sp.Symbol(name) ** e for name, e in amono]) * mono)
    return str(sp.Add(*terms) / sp.Mul(*[s ** -m for s, m in zip(syms, shift)]))


_coeffs = st.one_of(st.integers(-6, 6),
                    st.fractions(min_value=-6, max_value=6, max_denominator=5)).filter(bool)
_a_monos = st.dictionaries(st.sampled_from(["a", "Z", "a_{1,1}", "x", "B_1", "t2"]),
                           st.integers(1, 3), max_size=2).map(lambda m: tuple(sorted(m.items())))
_coeff_polys = st.dictionaries(_a_monos, _coeffs, min_size=1, max_size=3).map(CoeffPoly)


@st.composite
def _laurent_polys(draw):
    n = draw(st.integers(2, 3))
    keys = st.tuples(*[st.integers(-3, 3)] * n)
    return n, draw(st.dictionaries(keys, _coeff_polys, min_size=1, max_size=4))


@given(_laurent_polys())
@example((2, {(-1, -1): CoeffPoly({(): 1, (("z", 2),): -3})}))  # (1 - 3*z**2)/(x1*x2)
@example((2, {(3, -3): CoeffPoly.rational(Fraction(1, 2))}))  # x1**3/(2*x2**3)
@example((2, {(-2, 0): CoeffPoly.one()}))  # x1**(-2)
@settings(max_examples=200, deadline=None)
def test_printer_matches_sympy_on_random_laurent_polynomials(case):
    n, expr = case
    xs = tuple("x%d" % (i + 1) for i in range(n))
    assert cluster_variable_text(expr, xs) == _sympy_text(expr, xs)


# seeds for the reference comparison, with the word length each reaches
REFERENCE_SEEDS = {
    "a2": (None, 5),
    "g31": (None, 5),
    "kronecker": (None, 5),
    "b2": ("rank 2\nunfrozen 1 2\nd 2 1\nr 1 1\nB 0 1 -2 0\na.1 1 1\na.2 1 1\n", 5),
    "g2": ("rank 2\nunfrozen 1 2\nd 3 1\nr 1 1\nB 0 1 -3 0\na.1 1 1\na.2 1 1\n", 5),
    "r41": ("rank 2\nunfrozen 1 2\nd 1 1\nr 4 1\nB 0 1 -1 0\na.1 1 a b a 1\na.2 1 1\n", 3),
    "frozen": ("rank 3\nunfrozen 1 3\nd 1 1 1\nr 1 1 1\nB 0 1 1 -1 0 1 -1 -1 0\n"
               "a.1 1 1\na.3 1 1\n", 5),
    "r32": ("rank 2\nunfrozen 1 2\nd 1 1\nr 3 2\nB 0 1 -1 0\na.1 1 a a 1\na.2 1 b 1\n", 3),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SEEDS))
def test_ring_exchange_matches_sympy_reference(request, name):
    text, depth = REFERENCE_SEEDS[name]
    fixed, seed = request.getfixturevalue(name) if text is None else parse_seed_file(text)
    xs = sp.symbols("x1:%d" % (fixed.n + 1))

    def step(pair, k):
        st, exprs = pair
        return mutate_cluster(st, k), _sympy_mutate(fixed, st.seed, exprs, k)

    for word, (st, exprs) in mutation_walk(fixed, (ClusterState(fixed, seed), list(xs)),
                                            depth, step):
        for expr, ref in zip(st.exprs, exprs):
            assert cluster_variable_text(expr, st.xs) == str(ref), word
            assert laurent_dict(expr, st.xs) == _sympy_laurent_dict(ref, xs), word


def test_laurent_dict_roundtrip(g31):
    fixed, seed = g31
    st = mutate_cluster(ClusterState(fixed, seed), 1)
    d = laurent_dict(st.exprs[1], st.xs)
    assert set(d) == {(0, -1), (1, -1)}
    assert all(p == 1 for p in d.values())


# ---------------------------------------------------------------------------
# principal coefficients


def test_principal_data_example(g31):
    fixed, seed = g31
    f2, s2 = principal_data(fixed, seed)
    assert f2.r == (3, 1, 3, 1)
    assert f2.d == (1, 1, 1, 1)
    eps = epsilon(f2, s2)
    assert [row[2:] for row in eps[:2]] == [(1, 0), (0, 1)]
    assert [row[:2] for row in eps[2:]] == [(-1, 0), (0, -1)]
    assert [row[2:] for row in eps[2:]] == [(0, 0), (0, 0)]


def test_principal_data_rank_one():
    fixed = FixedData(1, (0,), (1,), (1,), [[0]])
    f2, s2 = principal_data(fixed, make_initial_seed(fixed))
    assert epsilon(f2, s2) == ((0, 1), (-1, 0))


# ---------------------------------------------------------------------------
# companions and duals


def test_left_companion_example(g31):
    fixed, seed = g31
    f2, _ = left_companion(fixed, seed)
    assert f2.B == ((0, 1), (-3, 0))
    assert f2.d == (3, 1)
    assert f2.r == (1, 1)


def test_right_companion_example(g31):
    fixed, seed = g31
    f2, _ = right_companion(fixed, seed)
    assert f2.B == ((0, 3), (-1, 0))
    assert f2.d == (Fraction(1, 3), 1)


def test_companions_trivial_for_ordinary(a2):
    fixed, seed = a2
    for fn in (left_companion, right_companion):
        f2, _ = fn(fixed, seed)
        assert f2.B == fixed.B and f2.d == fixed.d


def test_langlands_dual_examples(g31, a2):
    fixed, seed = g31
    f2, _ = langlands_dual(fixed, seed)
    assert f2.r == (1, 3)
    assert f2.B == ((0, 1), (-1, 0))
    fixed, seed = a2
    f2, _ = langlands_dual(fixed, seed)
    assert f2.d == fixed.d and f2.B == ((0, 1), (-1, 0))


def test_langlands_epsilon_transpose():
    rng = random.Random(3)
    for _ in range(5):
        b = rng.choice([1, 2, 3])
        d = rng.choice([(1, 1), (2, 1), (3, 1)])
        B = [[0, b], [-b * d[0], 0]]
        fixed = FixedData(2, (0, 1), d, (1, 1), B)
        f2, s2 = langlands_dual(fixed, make_initial_seed(fixed))
        eps = epsilon(fixed, make_initial_seed(fixed))
        eps2 = epsilon(f2, s2)
        assert eps2 == tuple(tuple(-eps[j][i] for j in range(2)) for i in range(2))


# ---------------------------------------------------------------------------
# c/g vectors


def test_cg_initial_identity(g31):
    fixed, seed = g31
    assert c_vectors(seed) == ((1, 0), (0, 1))
    assert g_vectors(seed) == ((1, 0), (0, 1))


def test_c_matrix_after_mu2(g31):
    fixed, seed = g31
    assert c_vectors(mutate_seed(fixed, seed, 1)) == ((1, 1), (0, -1))


def test_tropical_duality_ordinary(a2):
    fixed, seed = a2
    rng = random.Random(11)
    for _ in range(10):
        word = [rng.choice(fixed.unfrozen) for _ in range(rng.randint(0, 6))]
        sd = mutate_word(fixed, seed, word)
        C, G = c_vectors(sd), g_vectors(sd)
        prod = [[sum(C[i][k] * G[j][k] for k in range(2)) for j in range(2)]
                for i in range(2)]
        assert prod == [[1, 0], [0, 1]]


def test_companion_cg_relations(g31):
    # lg_{s,j} = ((r_i / r_j) g_{ji})_i and Rc_{s,j} = ((r_j / r_i) c_{ji})_i
    fixed, seed = g31
    lf, ls = left_companion(fixed, seed)
    rf, rs = right_companion(fixed, seed)
    rng = random.Random(5)
    for _ in range(10):
        word = [rng.choice(fixed.unfrozen) for _ in range(rng.randint(0, 6))]
        sd = mutate_word(fixed, seed, word)
        lsd = mutate_word(lf, ls, word)
        rsd = mutate_word(rf, rs, word)
        for j in range(2):
            assert lsd.f_vectors[j] == tuple(
                Fraction(fixed.r[i], fixed.r[j]) * sd.f_vectors[j][i] for i in range(2))
            assert rsd.e_vectors[j] == tuple(
                Fraction(fixed.r[j], fixed.r[i]) * sd.e_vectors[j][i] for i in range(2))


# ---------------------------------------------------------------------------
# seed files


def test_seed_file_round_trip_byte_stable():
    texts = []
    for name in ("g31.seed", "a2.seed", "kronecker22.seed"):
        with open(os.path.join(SEED_DIR, name), "r", encoding="utf-8") as fh:
            texts.append(fh.read())
    texts += [text for text, _, _ in _zoo(60, random.Random(13))]
    for text in texts:
        fixed, seed = parse_seed_file(text)
        assert serialize_seed_file(fixed, seed) == text
        # the seeds `companions` prints, with their default symbols, round-trip too
        for builder in (left_companion, right_companion, langlands_dual):
            out = serialize_seed_file(*builder(fixed, seed))
            assert parse_seed_file(out) == builder(fixed, seed)
            assert serialize_seed_file(*parse_seed_file(out)) == out


def test_seed_holds_every_entry_as_a_coefficient_poly(g31):
    # a number is lifted to its constant and a compound entry is kept, so the file
    # text, principal coefficients and mutation carry each entry as it is
    fixed, seed = g31
    a, b = CoeffPoly.symbol("a"), CoeffPoly.symbol("b")
    for entry, text in ((3, "3"), (Fraction(1, 2), "1/2"), (2 * a, "2*a"), (a + b, "a + b")):
        s = GeneralizedTorusSeed(fixed, seed.e_vectors, seed.f_vectors,
                                 {0: (1, entry, entry, 1), 1: (1, 1)})
        assert all(type(c) is CoeffPoly for t in s.a_tuples.values() for c in t)
        assert serialize_seed_file(fixed, s).endswith("a.1 1 %s %s 1\na.2 1 1\n" % (text, text))
        assert principal_data(fixed, s)[1].a_tuples == s.a_tuples
        assert mutate_seed(fixed, s, 0).a_tuples == s.a_tuples


def test_seed_file_rejects_bad_tuple():
    for a1 in ("1 a 1", "1 2 2 1", "1 1/2 1/2 1"):
        bad = "rank 2\nunfrozen 1 2\nd 1 1\nr 3 1\nB 0 1 -1 0\na.1 %s\na.2 1 1\n" % a1
        with pytest.raises(ValueError):
            parse_seed_file(bad)
