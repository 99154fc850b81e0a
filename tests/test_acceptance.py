"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is independent, exact (no tolerances) and finishes well under a
minute; golden strings are byte-exact after canonicalization.
"""

import os
import random
from fractions import Fraction

from cli_runner import CliRunner

from gcsdiag import (
    ClusterState,
    ScatteringDiagram,
    TruncatedLaurent,
    Wall,
    apply_Tk,
    canonical_string,
    check_consistency,
    complete_rank2,
    dump_diagram,
    enumerate_broken_lines,
    epsilon,
    equivalence_check,
    g_vector,
    initial_diagram,
    initial_diagram_prin,
    laurent_dict,
    left_companion,
    loop_product,
    mutate_cluster,
    mutate_seed,
    mutate_word,
    path_ordered_product,
    product_expansion_check,
    project_to_A,
    right_companion,
    series_mul,
    sign_coherence_check,
    slice_to_X,
    theta,
    theta_via_path,
)
from gcsdiag.cli import main as cli_main
from gcsdiag.ring import CoeffPoly

SEED_DIR = os.path.join(os.path.dirname(__file__), "..", "seeds")

# generic endpoint: direction (1011,571) is coprime and steeper than any
# truncation-bounded exponent, so no broken line can pass through the origin
GEN_Q = (Fraction(1011, 1000), Fraction(571, 1000))

G31_ORDER9_DUMP = (
    "order 9\n"
    "variant A\n"
    "rank 2\n"
    "unfrozen 1 2\n"
    "d 1 1\n"
    "r 3 1\n"
    "B 0 1 -1 0\n"
    "a.1 1 a a 1\n"
    "a.2 1 1\n"
    "walls:\n"
    "line direction=(1,0) normal=(0,1) f=1 + z^(-1,0)\n"
    "line direction=(0,1) normal=(1,0) f=1 + a*z^(0,1) + a*z^(0,2) + z^(0,3)\n"
    "ray direction=(1,-3) normal=(3,1) f=1 + z^(-1,3)\n"
    "ray direction=(1,-2) normal=(2,1) f=1 + z^(-3,6) + a*z^(-2,4) + a*z^(-1,2)\n"
    "ray direction=(2,-3) normal=(3,2) f=1 + z^(-2,3)\n"
    "ray direction=(1,-1) normal=(1,1) f=1 + z^(-3,3) + a*z^(-2,2) + a*z^(-1,1)\n")


def wall_rows(diag):
    return sorted((w.kind, w.direction, w.normal, canonical_string(diag.function(w)))
                  for w in diag.walls)


def test_criterion_01_completion_r31_order9():
    res = CliRunner().invoke(cli_main, [
        "complete", os.path.join(SEED_DIR, "g31.seed"),
        "--order", "9", "--no-cache"])
    assert res.exit_code == 0
    assert res.output == G31_ORDER9_DUMP


def test_criterion_02_completion_a2(a2):
    fixed, seed = a2
    din = initial_diagram(fixed, seed, 6)
    diag = complete_rank2(din)
    added = [w for w in diag.walls if w.kind == "ray"]
    assert len(added) == 1
    assert added[0].direction == (1, -1)
    assert canonical_string(diag.function(added[0])) == "1 + z^(-1,1)"
    # the loop breaks exactly at z^(0,1) before and closes after
    assert check_consistency(din) == (False, (0, 1))
    s = TruncatedLaurent.monomial(diag.grading, 6, (0, 1))
    assert loop_product(diag, s) == s


def test_criterion_03_kronecker_order12(kronecker):
    fixed, seed = kronecker
    diag = complete_rank2(initial_diagram(fixed, seed, 12))
    rows = dict(((w.kind, w.direction), w) for w in diag.walls)
    assert len(diag.walls) == 13
    for n in range(1, 6):
        assert canonical_string(diag.function(rows[("ray", (n, -(n + 1)))])) == (
            "1 + z^(%d,%d)" % (-2 * n, 2 * (n + 1)))
        assert canonical_string(diag.function(rows[("ray", (n + 1, -n))])) == (
            "1 + z^(%d,%d)" % (-2 * (n + 1), 2 * n))
    # central ray carries the order-12 truncation of (1 - z^(-2,2))^(-2)
    geom = TruncatedLaurent.unit_from_terms(
        diag.grading, 12,
        {(-2 * k, 2 * k): CoeffPoly.one() for k in range(1, 7)})
    expected = series_mul(geom, geom)
    assert diag.function(rows[("ray", (1, -1))]).terms == expected.terms
    assert check_consistency(diag) == (True, None)


def test_criterion_04_path_product_fixtures(g31):
    fixed, seed = g31
    din = initial_diagram(fixed, seed, 4)
    (wh,) = [w for w in din.walls if w.direction == (1, 0)]
    (wv,) = [w for w in din.walls if w.direction == (0, 1)]
    s = TruncatedLaurent.monomial(din.grading, 4, (1, 1))
    assert canonical_string(path_ordered_product(din, [(wv, 1), (wh, 1)], s)) == (
        "a*z^(-1,2) + 3*a*z^(-1,3) + z^(0,1) + 2*a*z^(0,2) + 3*a*z^(0,3)"
        " + 4*z^(0,4) + z^(1,1) + a*z^(1,2) + a*z^(1,3) + z^(1,4)")
    assert canonical_string(path_ordered_product(din, [(wh, 1), (wv, 1)], s)) == (
        "z^(0,1) + z^(1,1) + a*z^(1,2) + a*z^(1,3) + z^(1,4)")
    assert check_consistency(din) == (False, (0, 1))


def test_criterion_05_principal_slice_project(g31, g31_diag9):
    fixed, seed = g31
    prin = complete_rank2(initial_diagram_prin(fixed, seed, 9))
    rows = dict(((w.kind, w.direction), canonical_string(prin.function(w)))
                for w in prin.walls)
    assert rows[("ray", (1, -3))] == "1 + z^(-1,3,3,1)"
    assert rows[("ray", (1, -2))] == (
        "1 + z^(-3,6,6,3) + a*z^(-2,4,4,2) + a*z^(-1,2,2,1)")
    assert rows[("ray", (2, -3))] == "1 + z^(-2,3,3,2)"
    assert rows[("ray", (1, -1))] == (
        "1 + z^(-3,3,3,3) + a*z^(-2,2,2,2) + a*z^(-1,1,1,1)")
    assert wall_rows(slice_to_X(prin)) == [
        ("line", (0, 1), (1, 0), "1 + z^(0,1)"),
        ("line", (1, 0), (0, -1), "1 + a*z^(1,0) + a*z^(2,0) + z^(3,0)"),
        ("ray", (-3, -2), (2, -3), "1 + z^(3,2)"),
        ("ray", (-3, -1), (1, -3), "1 + z^(3,1)"),
        ("ray", (-2, -1), (1, -2), "1 + a*z^(2,1) + a*z^(4,2) + z^(6,3)"),
        ("ray", (-1, -1), (1, -1), "1 + a*z^(1,1) + a*z^(2,2) + z^(3,3)"),
    ]
    assert wall_rows(project_to_A(prin)) == wall_rows(g31_diag9)


def test_criterion_06_mutation_invariance(g31, g31_diag8):
    fixed, seed = g31
    t2 = apply_Tk(g31_diag8, 1)
    (kwall,) = [w for w in t2.walls if w.kind == "line" and w.direction == (1, 0)]
    assert canonical_string(t2.function(kwall)) == "1 + z^(1,0)"
    mu2 = complete_rank2(initial_diagram(fixed, mutate_seed(fixed, seed, 1), 8))
    assert equivalence_check(t2, mu2)


def test_criterion_07_theta_figure(g31_diag8):
    Q = (Fraction(3, 2), 1)
    lines = enumerate_broken_lines(g31_diag8, (0, -1), Q)
    assert len(lines) == 5
    res = theta(g31_diag8, Q, (0, -1))
    assert canonical_string(res.value) == (
        "z^(-1,-1) + a*z^(-1,0) + a*z^(-1,1) + z^(-1,2) + z^(0,-1)")
    assert theta_via_path(g31_diag8, Q, (0, -1)).terms == res.value.terms


def test_criterion_08_cluster_monomials_are_thetas(g31, a2):
    words = [()]
    frontier = [()]
    for _ in range(5):
        nxt = [w + (k,) for w in frontier for k in (0, 1)
               if not (w and w[-1] == k)]
        words.extend(nxt)
        frontier = nxt
    for (fixed, seed), order in ((g31, 12), (a2, 8)):
        diag = complete_rank2(initial_diagram(fixed, seed, order))
        for word in words:
            st = ClusterState(fixed, seed)
            for k in word:
                st = mutate_cluster(st, k)
            for i in fixed.unfrozen:
                g = g_vector(fixed, seed, word, i)
                res = theta(diag, GEN_Q, g)
                assert res.value.terms == laurent_dict(st.exprs[i], st.xs), (word, i)


def test_criterion_09_sign_coherence(g31, a2):
    for fixed, seed in (g31, a2):
        assert sign_coherence_check(fixed, seed, 6) == (True, None)


def test_criterion_10_companion_diagrams(g31):
    fixed, seed = g31
    lf, ls = left_companion(fixed, seed)
    rf, rs = right_companion(fixed, seed)
    assert dump_diagram(complete_rank2(initial_diagram(lf, ls, 9)), "left") == (
        "order 9\n"
        "variant left\n"
        "rank 2\n"
        "unfrozen 1 2\n"
        "d 3 1\n"
        "r 1 1\n"
        "B 0 1 -3 0\n"
        "a.1 1 1\n"
        "a.2 1 1\n"
        "walls:\n"
        "line direction=(1,0) normal=(0,1) f=1 + z^(-3,0)\n"
        "line direction=(0,1) normal=(1,0) f=1 + z^(0,1)\n"
        "ray direction=(1,-1) normal=(1,1) f=1 + z^(-3,3)\n"
        "ray direction=(3,-2) normal=(2,3) f=1 + z^(-3,2)\n"
        "ray direction=(2,-1) normal=(1,2) f=1 + z^(-6,3)\n"
        "ray direction=(3,-1) normal=(1,3) f=1 + z^(-3,1)\n")
    assert dump_diagram(complete_rank2(initial_diagram(rf, rs, 9)), "right") == (
        "order 9\n"
        "variant right\n"
        "rank 2\n"
        "unfrozen 1 2\n"
        "d 1/3 1\n"
        "r 1 1\n"
        "B 0 3 -1 0\n"
        "a.1 1 1\n"
        "a.2 1 1\n"
        "walls:\n"
        "line direction=(1,0) normal=(0,1) f=1 + z^(-1,0)\n"
        "line direction=(0,1) normal=(1,0) f=1 + z^(0,3)\n"
        "ray direction=(1,-3) normal=(3,1) f=1 + z^(-1,3)\n"
        "ray direction=(1,-2) normal=(2,1) f=1 + z^(-3,6)\n"
        "ray direction=(2,-3) normal=(3,2) f=1 + z^(-2,3)\n"
        "ray direction=(1,-1) normal=(1,1) f=1 + z^(-3,3)\n")
    rng = random.Random(17)
    for _ in range(20):
        word = [rng.choice(fixed.unfrozen) for _ in range(rng.randint(0, 8))]
        sd = mutate_word(fixed, seed, word)
        lsd = mutate_word(lf, ls, word)
        rsd = mutate_word(rf, rs, word)
        for j in range(2):
            assert lsd.f_vectors[j] == tuple(
                Fraction(fixed.r[i], fixed.r[j]) * sd.f_vectors[j][i]
                for i in range(2))
            assert rsd.e_vectors[j] == tuple(
                Fraction(fixed.r[j], fixed.r[i]) * sd.e_vectors[j][i]
                for i in range(2))
        # left g-vectors pair with right c-vectors to the identity
        for i in range(2):
            for j in range(2):
                dot = sum(lsd.f_vectors[i][k] * rsd.e_vectors[j][k]
                          for k in range(2))
                assert dot == (1 if i == j else 0)


def test_criterion_11_structure_constants(g31):
    fixed, seed = g31
    diag = complete_rank2(initial_diagram(fixed, seed, 6))
    rng = random.Random(11)
    for _ in range(10):
        while True:
            p1 = (rng.randint(-2, 2), rng.randint(-2, 2))
            p2 = (rng.randint(-2, 2), rng.randint(-2, 2))
            if any(p1) and any(p2):
                break
        ok, lhs, rhs = product_expansion_check(diag, p1, p2, GEN_Q)
        assert ok and lhs.terms == rhs.terms, (p1, p2)


def _laurent_mul(f, g):
    out = {}
    for k1, p1 in f.items():
        for k2, p2 in g.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            out[k] = out.get(k, CoeffPoly.zero()) + p1 * p2
    return {k: p for k, p in out.items() if p}


def _exchange_numerator(st, k):
    """sum_s a_{k,s} prod_j x_j^(r_k [-b_kj]_+ + s b_kj) in the state's variables."""
    fixed = st.fixed
    b = epsilon(fixed, st.seed)[k]
    total = {}
    for s, a in enumerate(st.seed.a_tuples[k]):
        term = {(0,) * fixed.n: a}
        for j in range(fixed.n):
            for _ in range(fixed.r[k] * max(-b[j], 0) + s * b[j]):
                term = _laurent_mul(term, st.exprs[j])
        for key, p in term.items():
            total[key] = total.get(key, CoeffPoly.zero()) + p
    return {k: p for k, p in total.items() if p}


def test_criterion_12_laurent_phenomenon(g31, a2):
    for fixed, seed in (g31, a2):
        rng = random.Random(123)
        for _ in range(100):
            word = [rng.choice(fixed.unfrozen) for _ in range(rng.randint(1, 8))]
            st = ClusterState(fixed, seed)
            for k in word:
                new = mutate_cluster(st, k)
                # the exchange relation, multiplied back: x_k x_k' = numerator
                assert _laurent_mul(st.exprs[k], new.exprs[k]) == _exchange_numerator(st, k), word
                st = new
            for expr in st.exprs:
                # Laurent in the xs, polynomial in the exchange symbols
                for poly in laurent_dict(expr, st.xs).values():
                    assert isinstance(poly, CoeffPoly)
                    assert all(e > 0 for mono in poly.terms for _, e in mono), word
