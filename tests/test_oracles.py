"""Independent oracles: cluster walls from mutation, greedy elements and structure constants."""

import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from test_scatter import EXTRA_SEEDS, _seed, _zoo, wall_rows

from gcsdiag import (
    ClusterState,
    CoeffPoly,
    FixedData,
    GeneralizedTorusSeed,
    ScatteringDiagram,
    complete_rank2,
    enumerate_broken_lines,
    initial_diagram,
    initial_diagram_prin,
    langlands_dual,
    laurent_dict,
    left_companion,
    make_initial_seed,
    mutate_cluster,
    mutate_word,
    parse_seed_file,
    project_to_A,
    right_companion,
    structure_constant,
    theta,
    theta_via_path,
)
from gcsdiag.scatter import (
    Wall,
    _chamber_ray,
    _chamber_reps,
    _chamber_walk,
    _prim,
    _rays,
    _v_rows,
    _wall,
)
from gcsdiag.seed import _names, epsilon, mutation_walk, principal_data
from gcsdiag.theta import _monoid_points, generic_near

# the ordinary Kronecker seed: d = (1, 1), where kronecker22.seed has d = (2, 2)
KRONECKER_11 = "rank 2\nunfrozen 1 2\nd 1 1\nr 1 1\nB 0 2 -2 0\na.1 1 1\na.2 1 1\n"
# a point of the positive chamber, generic for every m0 in the boxes below
POSITIVE_Q = (Fraction(1011, 1000), Fraction(571, 1000))


# ---------------------------------------------------------------------------
# cluster walls from mutation


def _predicted_cluster_walls(fixed, seed, diag, depth):
    """The cluster walls of diag = the completion of initial_diagram(fixed, seed, ...), from
    mutation alone, as {(ray, base, coeffs)} over the seeds of words of length <= depth.

    Each chamber such a word reaches is its seed's g-vector cone (GHKK, arXiv:1411.1394,
    carried to the reciprocal generalized case by the source paper), and the wall across
    its face k, the ray of the other g-vector, carries that seed's exchange polynomial
    sum_s a_{k,s} z^(s*v_k).  A v_k outside the grading monoid is negated: the a-tuple is
    palindromic, so the list is the same.
    """
    out = set()
    uf = tuple(fixed.unfrozen)
    for _, sd in mutation_walk(fixed, seed, depth):
        vs = _v_rows(fixed, sd)
        for k, other in (uf, uf[::-1]):
            ray = _prim(tuple(sd.f_vectors[other][j] for j in diag.proj))
            v = vs[k]
            if any(c < 0 for c in diag.grading.coefficients(v)):
                v = tuple(-x for x in v)
            w = _wall("ray", ray, v, sd.a_tuples[k], diag.grading, diag.order, diag.proj)
            if w:  # None where the wall is 1 at this order
                out.add((w.direction, w.base, tuple(w.coeffs)))
    return out


def _wall_rays(diag):
    return {(p, w.base, tuple(w.coeffs)) for w in diag.walls for p in _rays(w)}


def test_mutation_predicts_cluster_walls(request):
    # the shipped seeds and EXTRA_SEEDS at order 8 and the zoo at its orders, in A and
    # Aprin (the Aprin diagram is the initial diagram of the principal data)
    cases = [(_seed(request, name), 8) for name in ["a2", "g31", "kronecker"] + list(EXTRA_SEEDS)]
    cases += [(parse_seed_file(text), order) for text, order, _ in _zoo(60, random.Random(13))]
    predicted = 0
    for (fixed0, seed0), order in cases:
        for fixed, seed in ((fixed0, seed0), principal_data(fixed0, seed0)):
            diag = complete_rank2(initial_diagram(fixed, seed, order))
            walls = _predicted_cluster_walls(fixed, seed, diag, 6)
            assert walls <= _wall_rays(diag), (fixed, seed, walls - _wall_rays(diag))
            predicted += len(walls)
    assert predicted == 740


@pytest.mark.parametrize("name", ["a2", "g31", "b2", "g2"])
def test_mutation_predicts_every_wall_in_finite_type(request, name):
    fixed0, seed0 = _seed(request, name)
    for order in (10, 25, 40):
        for fixed, seed in ((fixed0, seed0), principal_data(fixed0, seed0)):
            diag = complete_rank2(initial_diagram(fixed, seed, order))
            assert _predicted_cluster_walls(fixed, seed, diag, 6) == _wall_rays(diag), order


def test_mutation_oracle_catches_a_perturbed_coefficient(kronecker):
    fixed, seed = kronecker
    diag = complete_rank2(initial_diagram(fixed, seed, 10))
    walls = _predicted_cluster_walls(fixed, seed, diag, 6)
    target = next(w for w in diag.walls
                  if w.kind == "ray" and (w.direction, w.base, tuple(w.coeffs)) in walls)
    bent = Wall("ray", target.direction, target.normal, target.base,
                [1, target.coeffs[1] + 1] + target.coeffs[2:])
    other = ScatteringDiagram(fixed, seed, diag.order, diag.grading,
                              [bent if w is target else w for w in diag.walls], diag.proj)
    assert walls - _wall_rays(other) == {(target.direction, target.base, tuple(target.coeffs))}


# ---------------------------------------------------------------------------
# greedy elements


def greedy(a1, a2, b, c):
    """The Lee-Li-Zelevinsky greedy element x[a1, a2] of A(b, c) as {x-exponent: coefficient}.

    x[a1, a2] = x1^-a1 x2^-a2 sum c(p, q) x1^(b p) x2^(c q) with c(0, 0) = 1 and
    c(p, q) = max(sum_k (-1)^(k-1) c(p-k, q) C([a2 - c q]_+ + k - 1, k),
                  sum_k (-1)^(k-1) c(p, q-k) C([a1 - b p]_+ + k - 1, k))
    (arXiv:1208.2391, Definition 1.6); c(p, q) = 0 unless p <= [a2]_+ and q <= [a1]_+.
    """
    coeff = {}
    for p in range(max(a2, 0) + 1):
        for q in range(max(a1, 0) + 1):
            if (p, q) == (0, 0):
                coeff[p, q] = 1
                continue
            along_p = sum((-1) ** (k - 1) * coeff[p - k, q] * comb(max(a2 - c * q, 0) + k - 1, k)
                          for k in range(1, p + 1))
            along_q = sum((-1) ** (k - 1) * coeff[p, q - k] * comb(max(a1 - b * p, 0) + k - 1, k)
                          for k in range(1, q + 1))
            coeff[p, q] = max(along_p, along_q)
    return {(b * p - a1, c * q - a2): v for (p, q), v in coeff.items() if v}


def test_greedy_elements_of_a2():
    # the five cluster variables of A(1, 1) and a cluster monomial
    assert greedy(1, 0, 1, 1) == {(-1, 0): 1, (-1, 1): 1}
    assert greedy(1, 1, 1, 1) == {(-1, -1): 1, (0, -1): 1, (-1, 0): 1}
    assert greedy(-1, -2, 1, 1) == {(1, 2): 1}


@pytest.mark.parametrize("name,order,exact", [
    ("a2", 16, True), ("b2", 16, True), ("g2", 16, True), ("kronecker11", 10, False)])
def test_greedy_elements_are_thetas(request, name, order, exact):
    """theta_g = x[a1, a2] for every g in [-3, 3]^2 (Cheung et al., arXiv:1508.01404).

    Convention map: theta at a point of the positive chamber is its Laurent
    expansion in the initial cluster, z^m = x^m (as in
    test_cluster_variables_are_thetas).  Mutating the initial cluster gives
    x1' = (x2^c + 1) / x1 and x2' = (x1^b + 1) / x2 with c = eps_12 and
    b = -eps_21, the exchange relations of LLZ's A(b, c).  The term of x[a1, a2]
    with p = [a2]_+ and q = 0 has coefficient 1 and exponent g = (b [a2]_+ - a1, -a2),
    and every other term is g + (-b i, c j) with i, j >= 0, the monoid of the
    theta over g.  So x[a1, a2] = theta_g with a2 = -g2 and a1 = b [-g2]_+ - g1.
    In finite type theta_g is the whole greedy element; for Kronecker it is the
    greedy element's terms up to the truncation order.
    """
    fixed, seed = parse_seed_file(KRONECKER_11) if name == "kronecker11" else _seed(request, name)
    eps = epsilon(fixed, seed)
    b, c = -eps[1][0], eps[0][1]
    state = ClusterState(fixed, seed)
    for k, relation in ((0, {(-1, c): 1, (-1, 0): 1}), (1, {(b, -1): 1, (0, -1): 1})):
        mutated = mutate_cluster(state, k)
        assert laurent_dict(mutated.exprs[k], mutated.xs) == {
            e: CoeffPoly.rational(v) for e, v in relation.items()}
    diag = complete_rank2(initial_diagram(fixed, seed, order))
    for g in ((g1, g2) for g1 in range(-3, 4) for g2 in range(-3, 4) if (g1, g2) != (0, 0)):
        expected = {e: CoeffPoly.rational(v)
                    for e, v in greedy(b * max(-g[1], 0) - g[0], -g[1], b, c).items()}
        degree = {e: diag.grading.degree((e[0] - g[0], e[1] - g[1])) for e in expected}
        if exact:
            assert max(degree.values()) <= order
        else:
            expected = {e: v for e, v in expected.items() if degree[e] <= order}
        assert theta(diag, POSITIVE_Q, g).value.terms == expected, g


# ---------------------------------------------------------------------------
# structure constants


def _structure_constants(diag, p1, p2, order, cache):
    """alpha(p1, p2; q) for every q of _monoid_points, from the final monomials at z(q).

    It is structure_constant's sum; the final monomials of each (p, q) are
    enumerated once for all the pairs that need them.
    """
    def finals(p, q):
        if (p, q) not in cache:
            out = {}
            for line in enumerate_broken_lines(diag, p, generic_near(diag, q), order):
                coeff, expo = line.final_monomial
                out[expo] = out.get(expo, CoeffPoly.zero()) + coeff
            cache[p, q] = out
        return cache[p, q]

    alphas = {}
    for q in _monoid_points(diag, (p1[0] + p2[0], p1[1] + p2[1]), order):
        f1, f2 = finals(p1, q), finals(p2, q)
        alphas[q] = sum((c1 * f2[e2] for e1, c1 in f1.items()
                         for e2 in [(q[0] - e1[0], q[1] - e1[1])] if e2 in f2), CoeffPoly.zero())
    return alphas


@pytest.mark.parametrize("name", ["a2", "g31", "kronecker"])
def test_structure_constants_are_positive(request, name):
    # alpha(p1, p2; q) lies in Z>=0[a] (GHKK, arXiv:1411.1394, carried to the
    # reciprocal case by the source paper)
    fixed, seed = request.getfixturevalue(name)
    diag = complete_rank2(initial_diagram(fixed, seed, 8))
    box = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)]
    cache = {}
    for i, p1 in enumerate(box):
        for p2 in box[i:]:  # alpha is symmetric in p1 and p2
            for q, alpha in _structure_constants(diag, p1, p2, 8, cache).items():
                assert all(type(v) is int and v >= 0 for v in alpha.terms.values()), (p1, p2, q)
    q = (1, 1)
    assert _structure_constants(diag, (1, 0), (0, 1), 8, cache)[q] == structure_constant(
        diag, (1, 0), (0, 1), q, generic_near(diag, q))


@pytest.mark.parametrize("name", ["kronecker11", "kronecker"])
def test_bracelet_relation(request, name):
    """theta_{k delta}^2 = theta_{2k delta} + 2 for k = 1, 2 at delta = (1, -1).

    On the ordinary Kronecker seed the thetas are the bracelets (Mandel-Qin,
    arXiv:2301.11101), which satisfy the Chebyshev relation T_k^2 = T_2k + 2.
    kronecker22.seed (d = (2, 2)) has the same B, and eps_ij = {e_i, e_j} d_j = b_ij
    does not depend on d: its grading and initial walls are the ordinary seed's, so
    its completed diagram is the same wall for wall and the relation holds
    unchanged, not rescaled.  On the cluster side, (-1, 1)
    is a cluster monomial's g-vector: its square is one theta.
    """
    fixed, seed = parse_seed_file(KRONECKER_11) if name == "kronecker11" else _seed(request, name)
    diag = complete_rank2(initial_diagram(fixed, seed, 8))
    ordinary = complete_rank2(initial_diagram(*parse_seed_file(KRONECKER_11), 8))
    assert [(w.direction, w.normal, w.base, w.coeffs) for w in diag.walls] == [
        (w.direction, w.normal, w.base, w.coeffs) for w in ordinary.walls]
    cache = {}
    for delta in ((1, -1), (2, -2)):
        alphas = _structure_constants(diag, delta, delta, 8, cache)
        assert {q: a for q, a in alphas.items() if a} == {
            (2 * delta[0], 2 * delta[1]): CoeffPoly.one(), (0, 0): CoeffPoly.rational(2)}
    alphas = _structure_constants(diag, (-1, 1), (-1, 1), 8, cache)
    assert {q: a for q, a in alphas.items() if a} == {(-2, 2): CoeffPoly.one()}


# ---------------------------------------------------------------------------
# specialisation: the symbolic and the numeric arithmetic agree

# seeds with symbolic a-entries, at order 10
TWO_SYMBOL = "rank 2\nunfrozen 1 2\nd 1 1\nr 3 2\nB 0 1 -1 0\na.1 1 a a 1\na.2 1 b 1\n"
GPS_22 = "rank 2\nunfrozen 1 2\nd 1 1\nr 2 2\nB 0 1 -1 0\na.1 1 a 1\na.2 1 b 1\n"
SPECIAL_VALUES = (-2, 0, 1, Fraction(1, 2), 3)
SPECIAL_M0 = ((1, 0), (0, -1), (-1, 1), (2, -3))


def _at(c, point):
    """A wall or theta coefficient, a CoeffPoly or a number, evaluated at {symbol: value}."""
    if type(c) is not CoeffPoly:
        return c
    names = sorted(c.symbols())
    total = 0
    for expo, k in c.exponents(names).items():
        for name, e in zip(names, expo):
            k = k * point[name] ** e
        total += k
    return total


def _points(seed):
    """Every point {symbol: value} of the seed's symbols with values in SPECIAL_VALUES."""
    symbols = _names([c for t in seed.a_tuples.values() for c in t])
    return [dict(zip(symbols, combo)) for combo in product(SPECIAL_VALUES, repeat=len(symbols))]


def _specialised(fixed, seed, point):
    """The seed with every a-entry replaced by its value at point: int or Fraction tuples."""
    return GeneralizedTorusSeed(fixed, seed.e_vectors, seed.f_vectors,
                                {i: tuple(_at(c, point) for c in t)
                                 for i, t in seed.a_tuples.items()})


def _evaluated_walls(diag, point):
    """(kind, direction, normal, base, coefficients) of each wall at point; a wall whose
    function evaluates to 1 vanishes."""
    out = []
    for w in diag.walls:
        coeffs = tuple(_at(c, point) for c in w.coeffs)
        if any(coeffs[1:]):
            out.append((w.kind, w.direction, w.normal, w.base, coeffs))
    return sorted(out)


def _specialisation_mismatches(fixed, seed, order):
    """Points where completing the specialised seed, or a theta value on it, differs from
    the symbolic completion evaluated there; theta at one generic point per chamber."""
    diag = complete_rank2(initial_diagram(fixed, seed, order))
    points = {m0: [generic_near(diag, _chamber_ray(diag.directions, k), m0, order)
                   for k in range(len(diag.directions))] for m0 in SPECIAL_M0}
    values = {(m0, z): theta(diag, z, m0).value.terms for m0, zs in points.items() for z in zs}
    bad, n = [], 0
    for point in _points(seed):
        special = complete_rank2(initial_diagram(fixed, _specialised(fixed, seed, point), order))
        n += 1
        if _evaluated_walls(special, point) != _evaluated_walls(diag, point):
            bad.append((point, "walls"))
        for (m0, z), terms in values.items():
            expected = {e: v for e, v in ((e, _at(c, point)) for e, c in terms.items()) if v}
            if theta(special, z, m0).value.terms != expected:
                bad.append((point, m0, z))
    return n, bad


@pytest.mark.parametrize("text,points", [(None, 5), (TWO_SYMBOL, 25)], ids=["g31", "two-symbol"])
def test_specialising_symbols_commutes_with_completion_and_theta(g31, text, points):
    # the numeric path (int and Fraction coefficients, never a CoeffPoly) and the
    # symbolic path evaluated at the point give the same walls and theta values, at
    # 0, negative, fractional and binomial points
    fixed, seed = g31 if text is None else parse_seed_file(text)
    n, bad = _specialisation_mismatches(fixed, seed, 10)
    assert n == points and not bad, bad[:5]


def test_binomial_point_of_the_22_seed_is_the_standard_diagram():
    # a = b = 2 makes both initial walls (1 + z^(v_i))^2; the central ray (1, -1) of
    # that standard scattering diagram carries (1 - z^base)^-4 (Gross-Pandharipande-
    # Siebert, arXiv:0909.5153), whose coefficients are C(n + 3, 3)
    fixed, seed = parse_seed_file(GPS_22)
    point = {"a": 2, "b": 2}
    symbolic = complete_rank2(initial_diagram(fixed, seed, 10))
    special = complete_rank2(initial_diagram(fixed, _specialised(fixed, seed, point), 10))
    for walls in (_evaluated_walls(symbolic, point), _evaluated_walls(special, point)):
        assert [w[4] for w in walls if w[1] == (1, -1)] == [(1, 4, 10, 20, 35, 56)]
    assert _evaluated_walls(symbolic, point) == _evaluated_walls(special, point)


def _binomial_seed(m, b=1, d1=1):
    """r1 = r2 = m, a-entries C(m, j), B = (0 b; -d1*b 0), d = (d1, 1): both initial
    walls are (1 + z^(v_i))^m.  Seed files take only 1 and symbols, so it is built here."""
    fixed = FixedData(2, (0, 1), (Fraction(d1), Fraction(1)), (m, m), ((0, b), (-d1 * b, 0)))
    return fixed, make_initial_seed(fixed, {i: [comb(m, j) for j in range(m + 1)] for i in (0, 1)})


def _series_power(coeffs, p, length):
    """The one-variable series coeffs raised to the p-th power by repeated products, cut to
    length terms: no power code shared with the engine."""
    out = [1] + [0] * (length - 1)
    for _ in range(p):
        out = [sum(out[i] * coeffs[j - i] for i in range(j + 1) if j - i < len(coeffs))
               for j in range(length)]
    return out


@pytest.mark.parametrize("m,order,expected", [
    (2, 14, [1, 4, 10, 20, 35, 56, 84, 120]),
    (3, 14, [1, 9, 72, 570, 4554, 36855, 302064, 2504304]),
    (4, 10, [1, 16, 264, 4592, 83300, 1560432]),
])
def test_central_ray_of_the_binomial_seeds_is_the_closed_form(m, order, expected):
    """The central ray of the standard (m, m) diagram (Gross-Pandharipande-Siebert;
    Reineke, arXiv:0909.5153), whole at each order.

    Convention map: both initial walls are (1 + z^(v_i))^m, and the ray (1, -1)
    carries (sum_k C((m-1)^2 k, k) / ((m^2-2m) k + 1) u^k)^(m^2) in u = z^base,
    base = (-1, 1) of degree 2, so order 2j holds u^j.  The exponent is m^2 here
    (GPS write the m = 3 case with exponent 9); at m = 2 the form is (1 - u)^-4.
    """
    diag = complete_rank2(initial_diagram(*_binomial_seed(m), order))
    (ray,) = [w for w in diag.walls if w.direction == (1, -1)]
    length = order // 2 + 1
    root = [Fraction(comb((m - 1) ** 2 * k, k), (m * m - 2 * m) * k + 1) for k in range(length)]
    assert ray.base == (-1, 1) and ray.coeffs == _series_power(root, m * m, length) == expected


@pytest.mark.parametrize("m,b,d1,order", [
    (2, 1, 1, 10), (2, 2, 1, 8), (3, 1, 1, 8), (2, 1, 2, 8), (3, 1, 3, 6), (4, 1, 1, 6)])
def test_binomial_point_is_the_companions_diagram_after_a_change_of_lattice(m, b, d1, order):
    # a companion (ordinary, Nakanishi-Rupel arXiv:1504.06758) completed at order m*N has
    # every wall in z^(m*base); z^(m*j*base) -> z^(j*base) and the m-th power give the
    # generalized wall at order N on the same direction, and a companion wall off the
    # generalized support is 1 at order N: GHKK's ordinary diagram (arXiv:1411.1394)
    # is a second construction of the generalized one at the binomial point
    fixed, seed = _binomial_seed(m, b, d1)
    gen = complete_rank2(initial_diagram(fixed, seed, order))
    walls = {(w.kind, w.direction): w for w in gen.walls}
    for companion in (left_companion, right_companion):
        matched = set()
        for w in complete_rank2(initial_diagram(*companion(fixed, seed), m * order)).walls:
            assert not any(c for i, c in enumerate(w.coeffs) if i % m), w
            length = order // gen.grading.degree(w.base) + 1
            assert len(w.coeffs[::m]) >= length, w
            power = _series_power(w.coeffs[::m], m, length)
            g = walls.get((w.kind, w.direction))
            if g is None:
                assert power == [1] + [0] * (length - 1), (companion.__name__, w)
            else:
                assert (g.base, g.coeffs) == (w.base, power), (companion.__name__, w, g)
                matched.add((w.kind, w.direction))
        assert matched == set(walls), (companion.__name__, set(walls) - matched)


def test_companions_and_the_langlands_dual_commute_with_mutation(a2, g31, kronecker):
    # the derived data of the seed a word reaches are the derived data of the initial seed
    # mutated along that word: each builder reads its seed's epsilon, not the initial B
    seeds = [a2, g31, kronecker] + [parse_seed_file(text)
                                    for text, _, _ in _zoo(60, random.Random(13))]
    words = [(0,), (1,), (0, 1), (1, 0), (0, 1, 0), (1, 0, 1, 0)]
    cases = bad = 0
    for fixed, seed in seeds:
        for build in (left_companion, right_companion, langlands_dual):
            f0, s0 = build(fixed, seed)
            for word in words:
                cases += 1
                bad += (epsilon(*build(fixed, mutate_word(fixed, seed, word)))
                        != epsilon(f0, mutate_word(f0, s0, word)))
    assert (bad, cases) == (0, 1134)


def _cluster_at(state, point):
    """A cluster's variables {x-exponent: CoeffPoly} evaluated at point, zeros dropped."""
    return [{x: v for x, v in ((x, _at(c, point)) for x, c in e.items()) if v}
            for e in state.exprs]


@pytest.mark.parametrize("text,points", [(None, 5), (TWO_SYMBOL, 25)], ids=["g31", "two-symbol"])
def test_specialising_symbols_commutes_with_mutation(g31, text, points):
    # along every mutation word of length <= 3, the specialised seed's cluster variables
    # are the symbolic ones evaluated at the point, and no exchange raises
    fixed, seed = g31 if text is None else parse_seed_file(text)
    symbolic = list(mutation_walk(fixed, ClusterState(fixed, seed), 3, mutate_cluster))
    for point in _points(seed):
        special = ClusterState(fixed, _specialised(fixed, seed, point))
        for (word, st), (_, sp) in zip(symbolic, mutation_walk(fixed, special, 3, mutate_cluster),
                                       strict=True):
            assert _cluster_at(sp, point) == _cluster_at(st, point), (point, word)
    assert len(_points(seed)) == points


@pytest.mark.parametrize("text,point", [
    (None, {"a": 3}), (TWO_SYMBOL, {"a": Fraction(1, 2), "b": -2}), (None, "2*a")],
    ids=["g31-3", "two-symbol-half", "g31-2a"])
def test_principal_coefficients_project_to_the_A_diagram(g31, text, point):
    # the principal seed carries the seed's own a-tuples, numbers and compound
    # entries too, so dropping the N-part of its completion gives the A completion
    fixed, seed = g31 if text is None else parse_seed_file(text)
    if point == "2*a":
        two_a = 2 * CoeffPoly.symbol("a")
        seed = GeneralizedTorusSeed(fixed, seed.e_vectors, seed.f_vectors,
                                    {0: (1, two_a, two_a, 1), 1: (1, 1)})
    else:
        seed = _specialised(fixed, seed, point)
    prin = project_to_A(complete_rank2(initial_diagram_prin(fixed, seed, 8)))
    assert wall_rows(prin) == wall_rows(complete_rank2(initial_diagram(fixed, seed, 8)))


# ---------------------------------------------------------------------------
# the paper's claims over the seed zoo, at order 3 in A


def _zoo_diagrams():
    for text, _, _ in _zoo(60, random.Random(13)):
        yield text, complete_rank2(initial_diagram(*parse_seed_file(text), 3))


def test_wall_coefficients_lie_in_nonnegative_integer_polynomials_over_the_seed_zoo():
    # positivity of the completed walls (the source paper, after GHKK arXiv:1411.1394):
    # every coefficient of every wall function is a number or a CoeffPoly in Z>=0[a]
    for text, diag in _zoo_diagrams():
        values = [v for w in diag.walls for c in w.coeffs[1:] if c
                  for v in (c.terms.values() if isinstance(c, CoeffPoly) else [c])]
        assert values and all(type(v) is int and v > 0 for v in values), text


def test_forward_theta_equals_the_path_product_over_the_seed_zoo():
    # for m0 a ray of a cluster chamber reached by a word of length <= 3, broken lines
    # into a generic point of each chamber of the support give p_gamma(z^m0)
    compared = 0
    for text, diag in _zoo_diagrams():
        m0s = sorted({ray for _, cone in _chamber_walk(diag, 3) for ray in cone})
        for m0 in m0s:
            for rep in _chamber_reps(diag.directions):
                Q = generic_near(diag, rep, m0)
                assert theta(diag, Q, m0).value.terms == theta_via_path(diag, Q, m0).terms, (
                    text, m0, Q)
                compared += 1
    assert compared == 3094
