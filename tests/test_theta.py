import random
from fractions import Fraction

import pytest

from gcsdiag import (
    ClusterState,
    TruncatedLaurent,
    canonical_string,
    chambers,
    complete_rank2,
    cone_contains,
    enumerate_broken_lines,
    g_vector,
    initial_diagram,
    laurent_dict,
    mutate_cluster,
    mutate_word,
    path_between,
    path_ordered_product,
    product_expansion_check,
    sign_coherence_check,
    structure_constant,
    theta,
    theta_Tk_transport,
    theta_report,
    theta_via_path,
    validate_broken_line,
)
from gcsdiag.theta import generic_near

FIG2_Q = (Fraction(3, 2), 1)
# a chamber-interior endpoint whose direction shares no line with any
# truncation-bounded exponent, so no broken line can run through the origin
GEN_Q = (Fraction(1011, 1000), Fraction(571, 1000))


# ---------------------------------------------------------------------------
# broken lines


def test_five_broken_lines(g31_diag8):
    lines = enumerate_broken_lines(g31_diag8, (0, -1), FIG2_Q)
    assert len(lines) == 5
    finals = sorted(l.final_monomial[1] for l in lines)
    assert finals == [(-1, -1), (-1, 0), (-1, 1), (-1, 2), (0, -1)]
    assert [len(l.bends) for l in lines] == [0, 1, 2, 2, 2]


def test_broken_lines_validate(g31_diag8):
    for line in enumerate_broken_lines(g31_diag8, (0, -1), FIG2_Q):
        assert validate_broken_line(g31_diag8, line, (0, -1), FIG2_Q)


def test_broken_line_rejects_support_endpoint(g31_diag8):
    with pytest.raises(ValueError):
        enumerate_broken_lines(g31_diag8, (0, -1), (1, 0))
    with pytest.raises(ValueError):
        enumerate_broken_lines(g31_diag8, (0, 0), FIG2_Q)


def test_broken_lines_reject_non_generic_endpoint(g31_diag8):
    # Q = (1,2) is off the support, but a final segment of exponent
    # (-1,-2) ending at Q would run back through the origin
    with pytest.raises(ValueError, match="not generic"):
        theta(g31_diag8, (1, 2), (2, -3))
    q = generic_near(g31_diag8, (1, 2))
    value = theta(g31_diag8, q, (2, -3)).value
    assert value == theta_via_path(g31_diag8, q, (2, -3))
    assert "a*z^(-1,-2)" in canonical_string(value)


# ---------------------------------------------------------------------------
# theta functions


def test_theta_figure_value(g31_diag8):
    res = theta(g31_diag8, FIG2_Q, (0, -1))
    assert canonical_string(res.value) == (
        "z^(-1,-1) + a*z^(-1,0) + a*z^(-1,1) + z^(-1,2) + z^(0,-1)")
    assert len(res.witness_lines) == 5


def test_theta_zero_exponent_is_one(g31_diag8):
    res = theta(g31_diag8, FIG2_Q, (0, 0))
    assert res.value == TruncatedLaurent.one(g31_diag8.grading, 8)
    assert res.witness_lines == []


def test_theta_same_chamber_is_monomial(g31_diag8):
    res = theta(g31_diag8, GEN_Q, (1, 2))
    assert canonical_string(res.value) == "z^(1,2)"


def test_theta_endpoint_independence_within_chamber(g31_diag8):
    other = (Fraction(1013, 500), Fraction(569, 500))
    for m0 in [(0, -1), (-1, 0), (1, -3)]:
        a = theta(g31_diag8, other, m0).value
        c = theta(g31_diag8, GEN_Q, m0).value
        assert a.terms == c.terms


def test_theta_via_path_agrees(g31_diag8):
    for m0 in [(0, -1), (-1, 0), (-2, -2), (1, -3)]:
        res = theta(g31_diag8, GEN_Q, m0)
        assert theta_via_path(g31_diag8, GEN_Q, m0).terms == res.value.terms


def test_theta_above_the_diagram_order_is_rejected(g31):
    fixed, seed = g31
    d4 = complete_rank2(initial_diagram(fixed, seed, 4))
    d6 = complete_rank2(initial_diagram(fixed, seed, 6))
    Q = (-3 + Fraction(1, 97), 1 + Fraction(1, 97 ** 2))
    for m0 in ((2, -3), (0, 0)):
        with pytest.raises(ValueError, match="exceeds the diagram's order 4"):
            theta(d4, Q, m0, 6)
    with pytest.raises(ValueError, match="exceeds"):
        enumerate_broken_lines(d4, (2, -3), Q, 6)
    with pytest.raises(ValueError, match="exceeds"):
        theta_via_path(d4, Q, (2, -3), 6)
    # below its order a diagram answers as the diagram of that order does
    assert theta(d6, Q, (2, -3), 4).value == theta(d4, Q, (2, -3)).value
    assert theta_via_path(d6, Q, (2, -3), 4).terms == theta(d4, Q, (2, -3)).value.terms


def test_theta_transport_between_adjacent_chambers(g31_diag8):
    # crossing into the next chamber is one wall automorphism
    m0 = (0, -1)
    here = theta(g31_diag8, GEN_Q, m0).value
    there = theta(g31_diag8, (-1, 3), m0).value
    path = path_between(g31_diag8, (2, 1), (-1, 3))
    assert path_ordered_product(g31_diag8, path, here).terms == there.terms


def test_theta_report_golden(g31_diag8):
    res = theta(g31_diag8, FIG2_Q, (0, -1))
    assert theta_report(g31_diag8, res) == (
        "theta m0=(0,-1) Q=(3/2,1) order=8\n"
        "value: z^(-1,-1) + a*z^(-1,0) + a*z^(-1,1) + z^(-1,2) + z^(0,-1)\n"
        "line bends=0 rays= points=- trail=z^(0,-1)\n"
        "line bends=1 rays=(1,0) points=(1/2,0) trail=z^(0,-1) -> z^(-1,-1)\n"
        "line bends=2 rays=(1,0);(0,1) points=(-1,0);(0,1)"
        " trail=z^(0,-1) -> z^(-1,-1) -> a*z^(-1,0)\n"
        "line bends=2 rays=(1,0);(0,1) points=(-5/2,0);(0,5/2)"
        " trail=z^(0,-1) -> z^(-1,-1) -> a*z^(-1,1)\n"
        "line bends=2 rays=(1,0);(0,1) points=(-4,0);(0,4)"
        " trail=z^(0,-1) -> z^(-1,-1) -> z^(-1,2)\n"
    )


# ---------------------------------------------------------------------------
# theta transport under diagram mutation


def test_theta_Tk_transport(g31_diag8):
    for k in (0, 1):
        out = theta_Tk_transport(g31_diag8, k, GEN_Q, (0, -1), order=6)
        assert out.terms


def test_theta_Tk_transport_multiple_inputs(g31_diag8):
    for m0 in [(1, 0), (0, -1), (-1, 1)]:
        theta_Tk_transport(g31_diag8, 1, GEN_Q, m0, order=6)


# ---------------------------------------------------------------------------
# g-vectors, cluster monomials and sign coherence


def test_g_vector_examples(g31):
    fixed, seed = g31
    assert g_vector(fixed, seed, (), 0) == (1, 0)
    assert g_vector(fixed, seed, (0,), 0) == (-1, 0)
    assert g_vector(fixed, seed, (1,), 1) == (1, -1)
    assert g_vector(fixed, seed, (1, 1), 1) == (0, 1)


def test_cluster_variables_are_thetas(g31, g31_diag9):
    fixed, seed = g31
    st = mutate_cluster(mutate_cluster(ClusterState(fixed, seed), 1), 0)
    g = g_vector(fixed, seed, (1, 0), 0)
    res = theta(g31_diag9, GEN_Q, g)
    assert res.value.terms == laurent_dict(st.exprs[0], st.xs)


def test_theta_chamber_leading_term(g31, g31_diag8):
    fixed, seed = g31
    for word, cone in chambers(g31_diag8, 6):
        sd = mutate_word(fixed, seed, word)
        for i in fixed.unfrozen:
            g = sd.f_vectors[i]
            value = theta(g31_diag8, GEN_Q, g).value
            assert value.terms[g].is_one()


def test_sign_coherence(g31, a2, kronecker):
    for fixed, seed in (g31, a2, kronecker):
        assert sign_coherence_check(fixed, seed, 5) == (True, None)


def test_chamber_membership_of_g_vectors(g31, g31_diag8):
    fixed, seed = g31
    for word, cone in chambers(g31_diag8, 6):
        sd = mutate_word(fixed, seed, word)
        for i in fixed.unfrozen:
            assert cone_contains(cone, sd.f_vectors[i])


# ---------------------------------------------------------------------------
# structure constants


def test_structure_constant_trivial(g31_diag8):
    q = (1, 1)
    alpha = structure_constant(g31_diag8, (1, 0), (0, 1), q, generic_near(g31_diag8, q))
    assert alpha.is_one()


def test_structure_constant_unreachable_exponent(g31_diag8):
    alpha = structure_constant(g31_diag8, (1, 0), (0, 1), (0, 0),
                               generic_near(g31_diag8, (0, 0)))
    assert not alpha


def test_structure_constant_rejects_wall_point(g31_diag8):
    with pytest.raises(ValueError):
        structure_constant(g31_diag8, (1, 0), (0, 1), (1, 1), (1, 0))


def test_product_expansion_example(g31):
    fixed, seed = g31
    d6 = complete_rank2(initial_diagram(fixed, seed, 6))
    ok, lhs, rhs = product_expansion_check(d6, (0, -1), (-1, 0), GEN_Q)
    assert ok and lhs.terms == rhs.terms


def test_product_expansion_randomized(g31):
    fixed, seed = g31
    d5 = complete_rank2(initial_diagram(fixed, seed, 5))
    rng = random.Random(9)
    for _ in range(4):
        while True:
            p1 = (rng.randint(-2, 2), rng.randint(-2, 2))
            p2 = (rng.randint(-2, 2), rng.randint(-2, 2))
            if any(p1) and any(p2):
                break
        ok, _, _ = product_expansion_check(d5, p1, p2, GEN_Q)
        assert ok, (p1, p2)
