import copy
import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

from gcsdiag import (
    ClusterState,
    ScatteringDiagram,
    TruncatedLaurent,
    apply_Tk,
    canonical_string,
    chambers,
    check_consistency,
    complete_rank2,
    cone_contains,
    dump_diagram,
    equivalence_check,
    initial_diagram,
    initial_diagram_prin,
    loop_product,
    mutate_cluster,
    mutate_seed,
    mutate_word,
    parse_seed_file,
    path_between,
    path_ordered_product,
    project_to_A,
    right_companion,
    slice_to_X,
    wall_cross,
)
from gcsdiag.ring import CoeffPoly, Grading, demote
from gcsdiag.scatter import (
    Wall,
    _ang_cmp,
    _by_angle,
    _chamber_reps,
    _cross,
    _crossed,
    _crossing_sign,
    _dot,
    _events_after,
    _line_rep,
    _lowest_defects,
    _perp_normal,
    _prim,
    _rays,
    _reorder,
    _seed_grading,
    _v_rows,
    _wall,
    tk_order_boost,
    tk_shear,
)
from gcsdiag.seed import epsilon, mutation_walk, principal_data

REFERENCE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "reference.json")


def wall_rows(diag):
    return sorted((w.kind, w.direction, w.normal, canonical_string(diag.function(w)))
                  for w in diag.walls)


def by_direction(diag, direction):
    (w,) = [w for w in diag.walls if w.direction == direction]
    return w


# ---------------------------------------------------------------------------
# primitive vectors


@pytest.mark.parametrize("v,prim", [
    ((4, -6), (2, -3)), ((-3, 0), (-1, 0)), ((0, -7), (0, -1)), ((-5, 7), (-5, 7)),
    ((6, -4, 0, 10), (3, -2, 0, 5)), ((0, 0, -9, 12), (0, 0, -3, 4)),
])
def test_prim_divides_an_int_vector_by_its_gcd(v, prim):
    assert _prim(v) == prim
    assert all(type(x) is int for x in _prim(v))


def test_prim_refuses_a_zero_vector_and_a_non_integral_entry():
    with pytest.raises(ValueError, match="^zero vector has no primitive direction$"):
        _prim((0, 0, 0, 0))
    # an error, not the truncation to (1, 3) that int() would give
    with pytest.raises(TypeError):
        _prim((Fraction(3, 2), 3))


# ---------------------------------------------------------------------------
# initial diagrams


def test_initial_diagram_g31(g31):
    fixed, seed = g31
    din = initial_diagram(fixed, seed, 4)
    assert wall_rows(din) == [
        ("line", (0, 1), (1, 0), "1 + a*z^(0,1) + a*z^(0,2) + z^(0,3)"),
        ("line", (1, 0), (0, 1), "1 + z^(-1,0)"),
    ]


def test_initial_diagram_kronecker(kronecker):
    fixed, seed = kronecker
    din = initial_diagram(fixed, seed, 4)
    assert wall_rows(din) == [
        ("line", (0, 1), (1, 0), "1 + z^(0,2)"),
        ("line", (1, 0), (0, 1), "1 + z^(-2,0)"),
    ]


def test_initial_diagram_needs_injective_projection():
    # rank-1 unfrozen data has no 2-plane of unfrozen directions
    from gcsdiag import FixedData, make_initial_seed

    fixed = FixedData(2, (0,), (1, 1), (2, 1), [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        initial_diagram(fixed, make_initial_seed(fixed), 4)


def test_wall_step_is_validated(g31_diag8):
    grading, proj = g31_diag8.grading, g31_diag8.proj
    with pytest.raises(ValueError, match="zero vector"):
        _wall("ray", (1, -1), (0, 0), [1, 1], grading, 8, proj)
    # the monoid of g31's grading is the cone of (0, 1) and (-1, 0)
    with pytest.raises(ValueError, match="outside the grading monoid"):
        _wall("ray", (1, -1), (1, -1), [1, 1], grading, 8, proj)


def test_wall_moves_coefficients_of_a_multiple_step(kronecker):
    # kronecker22's grading gives (0, 2) degree 1, so (0, 1) has degree 1/2
    grading, proj = initial_diagram(*kronecker, 2).grading, (0, 1)
    w = _wall("ray", (0, -1), (0, 2), [1, 3, 5, 7], grading, 2, proj)
    assert (w.base, w.normal, w.coeffs) == ((0, 1), (1, 0), [1, 0, 3, 0, 5])
    assert _wall("ray", (0, -1), (0, 2), [1, 0, 3], grading, 1, proj) is None


@pytest.mark.parametrize("order", [0, -3])
def test_initial_diagram_below_order_1_has_no_walls(g31, order):
    for build in (initial_diagram, initial_diagram_prin):
        diag = build(*g31, order)
        assert (diag.walls, diag.directions, diag.order) == ([], [], order)


# ---------------------------------------------------------------------------
# wall crossing


def test_wall_cross_example(g31):
    fixed, seed = g31
    din = initial_diagram(fixed, seed, 4)
    wv = by_direction(din, (0, 1))
    s = TruncatedLaurent.monomial(din.grading, 4, (1, 1))
    out = wall_cross(wv, 1, s, din.proj)
    assert canonical_string(out) == "z^(1,1) + a*z^(1,2) + a*z^(1,3) + z^(1,4)"


def test_wall_cross_zero_pairing_is_identity(g31):
    fixed, seed = g31
    din = initial_diagram(fixed, seed, 4)
    wv = by_direction(din, (0, 1))
    s = TruncatedLaurent.monomial(din.grading, 4, (0, 1))
    assert wall_cross(wv, 1, s, din.proj) == s


def test_wall_cross_signs_invert(g31):
    fixed, seed = g31
    din = initial_diagram(fixed, seed, 6)
    s = TruncatedLaurent.monomial(din.grading, 6, (2, 1))
    for w in din.walls:
        assert wall_cross(w, -1, wall_cross(w, 1, s, din.proj), din.proj) == s


def _power_terms(w, p):
    """w.power(p) as a term map {j * base: c_j}, to compare with function ** p."""
    return {tuple(j * b for b in w.base): c for j, c in enumerate(w.power(p)) if c}


def test_wall_power_is_memoised(g31_diag8):
    w = max(g31_diag8.walls, key=lambda w: len(g31_diag8.function(w).terms))
    for p in (-3, -1, 2, 4):
        first = w.power(p)
        assert w.power(p) is first
        assert _power_terms(w, p) == (g31_diag8.function(w) ** p).terms


def test_derived_walls_do_not_inherit_powers(g31_diag8):
    """Walls rebuilt with a new function start with an empty memo."""
    for w in g31_diag8.walls:  # fill the memo of the source walls
        for p in (-2, -1, 2, 3):
            w.power(p)
    for derived in (_reorder(g31_diag8, 5), apply_Tk(g31_diag8, 0)):
        for w in derived.walls:
            step = derived.grading.degree(w.base)
            for p in (-2, -1, 2, 3):
                assert len(w.power(p)) == derived.order // step + 1
                assert _power_terms(w, p) == (derived.function(w) ** p).terms


def test_two_orders_in_one_process_match_reference_digests(g31):
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        reference = json.load(fh)["complete"]
    fixed, seed = g31
    for order in (11, 10, 11):
        text = dump_diagram(complete_rank2(initial_diagram(fixed, seed, order)), "A")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        assert digest == reference["g31/A/%d/a" % order]


# ---------------------------------------------------------------------------
# path-ordered products


def test_path_product_crossing_vertical_then_horizontal(g31):
    fixed, seed = g31
    din = initial_diagram(fixed, seed, 4)
    wh, wv = by_direction(din, (1, 0)), by_direction(din, (0, 1))
    s = TruncatedLaurent.monomial(din.grading, 4, (1, 1))
    out = path_ordered_product(din, [(wv, 1), (wh, 1)], s)
    assert canonical_string(out) == (
        "a*z^(-1,2) + 3*a*z^(-1,3) + z^(0,1) + 2*a*z^(0,2) + 3*a*z^(0,3)"
        " + 4*z^(0,4) + z^(1,1) + a*z^(1,2) + a*z^(1,3) + z^(1,4)")


def test_path_product_crossing_horizontal_then_vertical(g31):
    fixed, seed = g31
    din = initial_diagram(fixed, seed, 4)
    wh, wv = by_direction(din, (1, 0)), by_direction(din, (0, 1))
    s = TruncatedLaurent.monomial(din.grading, 4, (1, 1))
    out = path_ordered_product(din, [(wh, 1), (wv, 1)], s)
    assert canonical_string(out) == "z^(0,1) + z^(1,1) + a*z^(1,2) + a*z^(1,3) + z^(1,4)"


def test_initial_diagram_inconsistent(g31):
    fixed, seed = g31
    din = initial_diagram(fixed, seed, 4)
    assert check_consistency(din) == (False, (0, 1))


# ---------------------------------------------------------------------------
# completion


def test_complete_g31_order9(g31_diag9):
    assert wall_rows(g31_diag9) == [
        ("line", (0, 1), (1, 0), "1 + a*z^(0,1) + a*z^(0,2) + z^(0,3)"),
        ("line", (1, 0), (0, 1), "1 + z^(-1,0)"),
        ("ray", (1, -3), (3, 1), "1 + z^(-1,3)"),
        ("ray", (1, -2), (2, 1), "1 + z^(-3,6) + a*z^(-2,4) + a*z^(-1,2)"),
        ("ray", (1, -1), (1, 1), "1 + z^(-3,3) + a*z^(-2,2) + a*z^(-1,1)"),
        ("ray", (2, -3), (3, 2), "1 + z^(-2,3)"),
    ]
    assert check_consistency(g31_diag9) == (True, None)


def test_complete_a2(a2_diag6):
    assert wall_rows(a2_diag6) == [
        ("line", (0, 1), (1, 0), "1 + z^(0,1)"),
        ("line", (1, 0), (0, 1), "1 + z^(-1,0)"),
        ("ray", (1, -1), (1, 1), "1 + z^(-1,1)"),
    ]
    s = TruncatedLaurent.monomial(a2_diag6.grading, 6, (0, 1))
    assert loop_product(a2_diag6, s) == s


def test_complete_kronecker_order12(kronecker):
    fixed, seed = kronecker
    diag = complete_rank2(initial_diagram(fixed, seed, 12))
    rows = dict(((w.kind, w.direction), canonical_string(diag.function(w))) for w in diag.walls)
    assert len(diag.walls) == 13
    # one discrete-series family and its mirror, degree <= 12
    for n in range(1, 6):
        assert rows[("ray", (n, -(n + 1)))] == "1 + z^(%d,%d)" % (-2 * n, 2 * (n + 1))
        assert rows[("ray", (n + 1, -n))] == "1 + z^(%d,%d)" % (-2 * (n + 1), 2 * n)
    assert rows[("ray", (1, -1))] == (
        "1 + 7*z^(-12,12) + 6*z^(-10,10) + 5*z^(-8,8) + 4*z^(-6,6)"
        " + 3*z^(-4,4) + 2*z^(-2,2)")
    assert check_consistency(diag) == (True, None)


def test_added_walls_are_outgoing_rays(g31_diag9, a2_diag6):
    # every added ray points against its base exponent (outgoing wall)
    for diag in (g31_diag9, a2_diag6):
        for w in diag.walls:
            if w.kind == "ray":
                v = tuple(-x for x in diag.project(w.base))
                assert _cross(v, w.direction) == 0 and _dot(v, w.direction) > 0


def test_wall_functions_palindromic_finite_type(g31_diag9, a2_diag6):
    for diag in (g31_diag9, a2_diag6):
        for w in diag.walls:
            steps = {}
            for expo, poly in diag.function(w).terms.items():
                if not any(expo):
                    steps[0] = poly
                    continue
                (k,) = set(x // b for x, b in zip(expo, w.base) if b)
                steps[k] = poly
            top = max(steps)
            assert set(steps) == set(range(top + 1))
            for j in range(top + 1):
                assert steps[j] == steps[top - j]


def test_completion_is_idempotent(g31_diag8):
    again = complete_rank2(g31_diag8)
    assert wall_rows(again) == wall_rows(g31_diag8)


def test_truncation_coherent_completions(g31):
    fixed, seed = g31
    d6 = complete_rank2(initial_diagram(fixed, seed, 6))
    d9 = complete_rank2(initial_diagram(fixed, seed, 9))
    small = {(w.kind, w.direction): d6.function(w) for w in d6.walls}
    for w in d9.walls:
        assert d9.function(w).truncate(6).terms == small[(w.kind, w.direction)].terms


# ---------------------------------------------------------------------------
# principal coefficients, X slices, projections


def test_complete_prin_g31(g31):
    fixed, seed = g31
    diag = complete_rank2(initial_diagram_prin(fixed, seed, 9))
    rows = dict(((w.kind, w.direction), canonical_string(diag.function(w))) for w in diag.walls)
    assert rows[("ray", (1, -3))] == "1 + z^(-1,3,3,1)"
    assert rows[("ray", (1, -2))] == (
        "1 + z^(-3,6,6,3) + a*z^(-2,4,4,2) + a*z^(-1,2,2,1)")
    assert rows[("ray", (2, -3))] == "1 + z^(-2,3,3,2)"
    assert rows[("ray", (1, -1))] == (
        "1 + z^(-3,3,3,3) + a*z^(-2,2,2,2) + a*z^(-1,1,1,1)")
    assert check_consistency(diag) == (True, None)


def test_slice_to_X_g31(g31):
    fixed, seed = g31
    diag = slice_to_X(complete_rank2(initial_diagram_prin(fixed, seed, 9)))
    assert wall_rows(diag) == [
        ("line", (0, 1), (1, 0), "1 + z^(0,1)"),
        ("line", (1, 0), (0, -1), "1 + a*z^(1,0) + a*z^(2,0) + z^(3,0)"),
        ("ray", (-3, -2), (2, -3), "1 + z^(3,2)"),
        ("ray", (-3, -1), (1, -3), "1 + z^(3,1)"),
        ("ray", (-2, -1), (1, -2), "1 + a*z^(2,1) + a*z^(4,2) + z^(6,3)"),
        ("ray", (-1, -1), (1, -1), "1 + a*z^(1,1) + a*z^(2,2) + z^(3,3)"),
    ]


def test_project_to_A_recovers_completion(g31, g31_diag9):
    fixed, seed = g31
    proj = project_to_A(complete_rank2(initial_diagram_prin(fixed, seed, 9)))
    assert wall_rows(proj) == wall_rows(g31_diag9)


# seeds beyond the shipped ones: d_i != 1, two exchange symbols on infinite
# type, and a frozen direction
EXTRA_SEEDS = {
    "b2": "rank 2\nunfrozen 1 2\nd 2 1\nr 1 1\nB 0 1 -2 0\na.1 1 1\na.2 1 1\n",
    "g2": "rank 2\nunfrozen 1 2\nd 3 1\nr 1 1\nB 0 1 -3 0\na.1 1 1\na.2 1 1\n",
    "r32": "rank 2\nunfrozen 1 2\nd 1 1\nr 3 2\nB 0 1 -1 0\na.1 1 a a 1\na.2 1 b 1\n",
    "frozen": "rank 3\nunfrozen 1 2\nd 1 1 1\nr 1 1 1\nB 0 1 1 -1 0 1 -1 -1 0\n"
              "a.1 1 1\na.2 1 1\na.3 1 1\n",
}


def _seed(request, name):
    if name in EXTRA_SEEDS:
        return parse_seed_file(EXTRA_SEEDS[name])
    if name == "wild":
        return parse_seed_file(WILD)
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", ["a2", "g31", "kronecker", "b2"])
def test_slice_to_X_is_consistent(request, name):
    fixed, seed = _seed(request, name)
    diag = slice_to_X(complete_rank2(initial_diagram_prin(fixed, seed, 5)))
    assert check_consistency(diag) == (True, None)


@pytest.mark.parametrize("name", ["a2", "g31", "kronecker", "b2", "r32", "frozen"])
def test_derived_walls_have_distinct_supports(request, name):
    # T_k and the A-projection are injective on supports, so no two walls
    # they produce need merging
    fixed, seed = _seed(request, name)
    derived = [project_to_A(complete_rank2(initial_diagram_prin(fixed, seed, 6)))]
    if fixed.n == 2:  # T_k needs plane exponents
        diag = complete_rank2(initial_diagram(fixed, seed, 6))
        derived += [apply_Tk(diag, k) for k in fixed.unfrozen]
    for d in derived:
        supports = [(w.kind, w.direction) for w in d.walls]
        assert len(set(supports)) == len(supports)


@pytest.mark.parametrize("name", ["a2", "g31", "kronecker", "r32", "wild"])
def test_truncating_a_completion_equals_completing_lower(request, name):
    # check completes once, at its largest order, and truncates; walls whose
    # function truncates to 1 must go
    fixed, seed = _seed(request, name)
    for build in (initial_diagram, initial_diagram_prin):
        full = complete_rank2(build(fixed, seed, 12))
        for order in range(1, 12):
            assert (dump_diagram(_reorder(full, order))
                    == dump_diagram(complete_rank2(build(fixed, seed, order)))), (build, order)


def test_kronecker_closed_form_order30(kronecker):
    # the (1,-1) wall is (1 - u)^-2 with u = z^(2*(-1,1)); every other wall
    # is 1 + z^(2*base)
    fixed, seed = kronecker
    diag = complete_rank2(initial_diagram(fixed, seed, 30))
    g = diag.grading
    assert len(diag.walls) == 31
    for w in diag.walls:
        if w.direction == (1, -1):
            u = TruncatedLaurent.monomial(g, 30, (-2, 2))
            expected = (TruncatedLaurent.one(g, 30) - u) ** -2
        else:
            expected = TruncatedLaurent.one(g, 30) + TruncatedLaurent.monomial(
                g, 30, tuple(2 * b for b in w.base))
        assert diag.function(w) == expected
        assert len(w.coeffs) == 30 // g.degree(w.base) + 1


@pytest.mark.parametrize("name,walls", [("a2", 3), ("b2", 4), ("g2", 6), ("g31", 6)])
def test_finite_type_wall_count_at_order40(request, name, walls):
    fixed, seed = _seed(request, name)
    assert len(complete_rank2(initial_diagram(fixed, seed, 40)).walls) == walls


@pytest.mark.parametrize("name", ["a2", "g31", "kronecker"])
@pytest.mark.parametrize("build", [initial_diagram, initial_diagram_prin], ids=["A", "Aprin"])
def test_completed_wall_coefficients_are_nonnegative_ints(request, name, build):
    # positivity of the completed walls, held in int by the ring
    fixed, seed = request.getfixturevalue(name)
    diag = complete_rank2(build(fixed, seed, 12))
    # a coefficient is a number or, on a symbolic seed, a CoeffPoly of numbers
    coeffs = [c for w in diag.walls for poly in w.coeffs if poly
              for c in (poly.terms.values() if isinstance(poly, CoeffPoly) else [poly])]
    assert coeffs and all(type(c) is int and c > 0 for c in coeffs)


# ---------------------------------------------------------------------------
# diagram mutation


def test_apply_Tk_example(g31_diag8):
    t2 = apply_Tk(g31_diag8, 1)
    rows = dict(((w.kind, w.direction), canonical_string(t2.function(w))) for w in t2.walls)
    assert rows[("line", (1, 0))] == "1 + z^(1,0)"
    assert rows[("ray", (-1, 1))] == "1 + z^(-3,3) + a*z^(-2,2) + a*z^(-1,1)"


def test_apply_Tk_matches_mutated_completion(g31, g31_diag8):
    fixed, seed = g31
    mu2 = complete_rank2(initial_diagram(fixed, mutate_seed(fixed, seed, 1), 8))
    assert equivalence_check(apply_Tk(g31_diag8, 1), mu2)


def test_tk_order_boost_from_gradings(g31, a2, kronecker):
    for (fixed, seed), boosts in ((a2, (2, 2)), (g31, (4, 2)), (kronecker, (3, 3))):
        assert tuple(tk_order_boost(fixed, seed, k) for k in fixed.unfrozen) == boosts


def test_apply_Tk_frozen_rejected(g31_diag8):
    with pytest.raises(ValueError):
        apply_Tk(g31_diag8, 5)


@pytest.mark.parametrize("k", [7, 2, -1])
def test_direction_index_out_of_range_is_named(g31, g31_diag8, k):
    fixed, seed = g31
    calls = [lambda: mutate_seed(fixed, seed, k), lambda: mutate_word(fixed, seed, (0, k)),
             lambda: mutate_cluster(ClusterState(fixed, seed), k),
             lambda: apply_Tk(g31_diag8, k), lambda: tk_order_boost(fixed, seed, k)]
    for call in calls:
        with pytest.raises(ValueError, match=r"^direction index %d is out of range 0\.\.1$" % k):
            call()


def test_equivalence_reflexive_and_discriminating(g31, g31_diag8):
    fixed, seed = g31
    assert equivalence_check(g31_diag8, g31_diag8)
    assert not equivalence_check(g31_diag8, initial_diagram(fixed, seed, 8))


# ---------------------------------------------------------------------------
# chambers


def test_chambers_g31(g31_diag8):
    cs = chambers(g31_diag8, 8)
    assert len(cs) == 8
    assert cs[0] == ((), ((1, 0), (0, 1)))
    rays = set()
    for _, cone in cs:
        rays.update(cone)
    assert len(rays) == 8


def test_chambers_a2_pentagon(a2_diag6):
    cs = chambers(a2_diag6, 8)
    assert len(cs) == 5
    rays = set()
    for _, cone in cs:
        rays.update(cone)
    assert rays == {(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1)}


def test_cone_contains():
    cone = ((1, 0), (0, 1))
    assert cone_contains(cone, (2, 3))
    assert cone_contains(cone, (1, 0))
    assert not cone_contains(cone, (-1, 1))
    with pytest.raises(ValueError):
        cone_contains(((1, 0), (-1, 0)), (0, 1))


def test_chambers_tile_without_overlap(g31_diag8):
    rng = random.Random(3)
    cs = chambers(g31_diag8, 8)
    for _ in range(50):
        m = (rng.randint(-6, 6), rng.randint(-6, 6))
        if m == (0, 0):
            continue
        hits = [word for word, cone in cs if cone_contains(cone, m)]
        assert hits, m
    # interior points land in exactly one chamber
    for probe in [(2, 1), (1, -4), (-5, 1), (-1, -1), (3, -4)]:
        hits = [word for word, cone in cs if cone_contains(cone, probe)]
        assert len(hits) == 1, probe


# ---------------------------------------------------------------------------
# the printed right-companion table is not consistent


def _right_companion_and_printed_variant(g31):
    fixed, seed = g31
    f2, s2 = right_companion(fixed, seed)
    rc = complete_rank2(initial_diagram(f2, s2, 8))
    walls = [w for w in rc.walls if w.direction != (1, -1)]
    walls.append(_wall("ray", (3, -2), (-3, 2), [1, 1], rc.grading, 8, rc.proj))
    return rc, ScatteringDiagram(rc.fixed, rc.seed, 8, rc.grading, walls, rc.proj)


def test_right_companion_printed_variant_inconsistent(g31):
    rc, variant = _right_companion_and_printed_variant(g31)
    (w11,) = [w for w in rc.walls if w.direction == (1, -1)]
    assert canonical_string(rc.function(w11)) == "1 + z^(-3,3)"
    assert check_consistency(rc) == (True, None)
    ok, first = check_consistency(variant)
    assert not ok and first == (-2, 2)


# ---------------------------------------------------------------------------
# the loop's base chamber


def _defects_from(diag, start):
    """(degree, {(basis index, u): poly}) of the lowest loop defect based at start."""
    path = [(w, s) for _, w, s in _events_after(diag, start)]
    low, found = None, {}
    for bi, m in enumerate(diag.basis_exponents()):
        image = path_ordered_product(
            diag, path, TruncatedLaurent.monomial(diag.grading, diag.order, m))
        for expo, poly in image.terms.items():
            if expo == m:
                poly = poly - CoeffPoly.one()
            if not poly:
                continue
            u = tuple(x - y for x, y in zip(expo, m))
            deg = diag.grading.degree(u)
            if low is None or deg < low:
                low, found = deg, {}
            if deg == low:
                found[bi, u] = poly
    return low, found


def _inconsistent_diagrams(fixed, seed):
    """Initial diagrams (A and Aprin) and the order-6 completion less its last ray."""
    yield initial_diagram(fixed, seed, 6)
    yield initial_diagram_prin(fixed, seed, 6)
    done = complete_rank2(initial_diagram(fixed, seed, 6))
    walls = list(done.walls)
    walls.remove([w for w in walls if w.kind == "ray"][-1])
    yield ScatteringDiagram(done.fixed, done.seed, 6, done.grading, walls, done.proj)


@pytest.mark.parametrize("name", ["a2", "g31", "kronecker"])
def test_lowest_defect_does_not_depend_on_the_base_chamber(request, name):
    # moving the base point conjugates the loop by a path-ordered product
    # that is the identity in degree 0, so consistency checking and
    # completion may start the loop in any chamber
    diags = list(_inconsistent_diagrams(*request.getfixturevalue(name)))
    if name == "g31":
        diags.append(_right_companion_and_printed_variant(request.getfixturevalue(name))[1])
    for diag in diags:
        low, terms = _lowest_defects(diag)
        assert terms
        expected = (low, {(bi, u): poly for u, bi, poly in terms})
        reps = _chamber_reps(diag.directions)
        assert len(reps) == len(diag.directions) >= 4
        for rep in reps:
            assert _defects_from(diag, rep) == expected, rep


# ---------------------------------------------------------------------------
# probing the loop below the full order


def _one_pass_completion(diag):
    """The reference completion: every pass runs the loop at the diagram's order,
    and each ray's wall is built from a term map."""
    rays, walls, last_deg = {}, {}, -1
    while True:
        for ray_dir, terms in rays.items():
            if ray_dir not in walls:
                walls[ray_dir] = _term_map_wall("ray", ray_dir, terms, diag.grading, diag.order,
                                                diag.proj)
        cur = ScatteringDiagram(diag.fixed, diag.seed, diag.order, diag.grading,
                                diag.walls + [walls[d] for d in rays if walls[d]], diag.proj)
        dmin, defects = _lowest_defects(cur)
        if not defects:
            return cur
        if dmin <= last_deg:
            raise RuntimeError("completion failed to make progress at degree %s" % (dmin,))
        last_deg = dmin
        by_u = {}
        for u, bi, poly in defects:
            by_u.setdefault(u, {})[bi] = poly
        basis = cur.basis_exponents()
        for u, per_basis in by_u.items():
            mdir = _prim(cur.project(u))
            normal = _perp_normal(mdir)
            ray_dir = (-mdir[0], -mdir[1])
            eps_w = _crossing_sign(normal, ray_dir)
            for bi, poly in per_basis.items():
                pairv = _dot(normal, cur.project(basis[bi]))
                if pairv == 0:
                    continue
                den = eps_w * pairv
                coeff = poly * (-den if den in (1, -1) else Fraction(-1, den))
                bucket = rays.setdefault(ray_dir, {})
                bucket[u] = bucket.get(u, 0) + coeff
                walls.pop(ray_dir, None)
                break
            else:
                raise RuntimeError("defect %r cannot be cancelled by any wall" % (u,))


def _wall_list(diag):
    return [(w.kind, w.direction, w.normal, w.base, w.coeffs) for w in diag.walls]


def _partly_completed(done, cut):
    """done with every ray's terms of degree >= cut dropped: its lowest defect is at cut."""
    walls = []
    for w in done.walls:
        coeffs = w.coeffs
        if w.kind == "ray":
            keep = -(-cut // done.grading.degree(w.base))  # j * deg(base) < cut
            coeffs = coeffs[:keep] + [CoeffPoly.zero()] * (len(coeffs) - keep)
        if any(coeffs[1:]):
            walls.append(Wall(w.kind, w.direction, w.normal, w.base, coeffs))
    return ScatteringDiagram(done.fixed, done.seed, done.order, done.grading, walls, done.proj)


@pytest.mark.parametrize("variant", ["A", "Aprin"])
@pytest.mark.parametrize("name,order", [  # the orders of their dump digests
    ("a2", 40), ("g31", 10), ("kronecker", 9), ("r32", 12), ("b2", 10), ("g2", 10)])
def test_completion_matches_one_pass_reference(request, name, order, variant):
    fixed, seed = _seed(request, name)
    build = initial_diagram if variant == "A" else initial_diagram_prin
    assert (_wall_list(complete_rank2(build(fixed, seed, order)))
            == _wall_list(_one_pass_completion(build(fixed, seed, order))))


@pytest.mark.parametrize("name", ["a2", "g31", "kronecker"] + list(EXTRA_SEEDS))
def test_mutated_seeds_complete_like_the_reference(request, name):
    # the seed each mutation word of length <= 2 reaches has its own g1,
    # the monomial of completion's single loop; the (word, variant) cases
    # take orders 4, 6, 8 and 5, 7 by turns, which keeps the test fast
    fixed, seed = _seed(request, name)
    cases = [(word, sd, build) for word, sd in mutation_walk(fixed, seed, 2)
             for build in (initial_diagram, initial_diagram_prin)]
    for i, (word, sd, build) in enumerate(cases):
        for order in range(4 + i % 2, 9, 2):
            assert (_wall_list(complete_rank2(build(fixed, sd, order)))
                    == _wall_list(_one_pass_completion(build(fixed, sd, order)))), \
                (word, build.__name__, order)


def _zoo(count, rng):
    """(seed text, order <= 6, variant) for small rank-2 seeds.

    d = (d1, 1) with d1 <= 3, r_i <= 3, B = [[0, b], [-d1 * b, 0]] with
    |b| <= 2, and each a-entry a symbol or 1, palindromic.
    """
    out = []
    while len(out) < count:
        d1 = rng.choice((1, 2, 3))
        b = rng.choice((-2, -1, 1, 2) if d1 == 1 else (-1, 1))
        c = d1 * b  # d = (3, 1) forces |c| = 3|b|
        r = (rng.randint(1, 3), rng.randint(1, 3))
        lines = []
        for i, (ri, sym) in enumerate(zip(r, "ab")):
            a = ["1"] * (ri + 1)
            for k in range(1, ri // 2 + 1):  # palindromic: a[k] = a[ri - k]
                a[k] = a[ri - k] = rng.choice((sym + str(k), "1"))
            lines.append("a.%d %s" % (i + 1, " ".join(a)))
        text = ("rank 2\nunfrozen 1 2\nd %d 1\nr %d %d\nB 0 %d %d 0\n%s\n"
                % (d1, r[0], r[1], b, -c, "\n".join(lines)))
        out.append((text, rng.randint(2, 6), rng.choice(("A", "Aprin"))))
    return out


def test_completion_matches_one_pass_reference_on_a_seed_zoo():
    for text, order, variant in _zoo(60, random.Random(13)):
        fixed, seed = parse_seed_file(text)
        build = initial_diagram if variant == "A" else initial_diagram_prin
        assert (_wall_list(complete_rank2(build(fixed, seed, order)))
                == _wall_list(_one_pass_completion(build(fixed, seed, order)))), (text, order)


# ---------------------------------------------------------------------------
# the term-map wall builders that the coefficient-list builder replaced


def _term_map_coeff_list(terms, grading, order):
    """(base, coeffs) of the unit 1 + sum(terms) as a series in z^base."""
    base = _prim(next(iter(terms)))
    top = order // grading.degree(base)
    coeffs = [1] + [0] * top
    i = next(i for i, b in enumerate(base) if b)
    for expo, poly in terms.items():
        j = expo[i] // base[i]
        if j < 1 or tuple(j * b for b in base) != expo:
            raise ValueError("wall exponent %r is not a positive multiple of %r"
                             % (expo, base))
        if j <= top:
            coeffs[j] = demote(poly)
    return base, coeffs


def _term_map_wall(kind, direction, terms, grading, order, proj):
    base, coeffs = _term_map_coeff_list(terms, grading, order)
    if not any(coeffs[1:]):
        return None
    pb = _prim(tuple(base[i] for i in proj))
    return Wall(kind, direction, _perp_normal(pb), base, coeffs)


def _terms(w):
    """A wall's function as a term map {j * base: coeffs[j]}."""
    return {tuple(j * b for b in w.base): c for j, c in enumerate(w.coeffs) if c}


def _term_map_initial(fixed, seed, order):
    vs, uf = _v_rows(fixed, seed), tuple(sorted(fixed.unfrozen))
    grading = Grading([vs[i] for i in uf])
    walls = []
    for i in uf:
        terms = {tuple(s * x for x in vs[i]): seed.a_tuples[i][s]
                 for s in range(1, fixed.r[i] + 1)}
        pv = tuple(vs[i][j] for j in uf)
        walls.append(_term_map_wall("line", _line_rep(pv), terms, grading, order, uf))
    return ScatteringDiagram(fixed, seed, order, grading, walls, uf)


def _term_map_apply_Tk(diag, k):
    fixed = diag.fixed
    seed2 = mutate_seed(fixed, diag.seed, k)
    shear = tk_shear(fixed, diag.seed, k)
    vk = _v_rows(fixed, diag.seed)[k]
    grading2 = _seed_grading(fixed, seed2)
    walls = []
    for w in diag.walls:
        if w.kind == "line" and w.normal == tuple(1 if j == k else 0 for j in range(2)):
            terms = {tuple(-s * x for x in vk): diag.seed.a_tuples[k][s]
                     for s in range(1, fixed.r[k] + 1)}
            walls.append(_term_map_wall("line", w.direction, terms, grading2, diag.order,
                                        diag.proj))
            continue
        for pdir in _rays(w):
            s = 1 if pdir[k] > 0 else 0
            terms = {shear(e, s): p for e, p in _terms(w).items() if any(e)}
            walls.append(_term_map_wall("ray", _prim(shear(pdir, s)), terms, grading2,
                                        diag.order, diag.proj))
    return ScatteringDiagram(fixed, seed2, diag.order, grading2, [w for w in walls if w],
                             diag.proj)


def _term_map_slice_to_X(prin_diag):
    n, uf = prin_diag.dim // 2, prin_diag.proj
    eps = epsilon(prin_diag.fixed, prin_diag.seed)

    def normal_x(normal):
        full = [0] * n
        for idx, i in enumerate(uf):
            full[i] = normal[idx]
        return tuple(sum(eps[i][j] * full[j] for j in range(n)) for i in range(n))

    grading = Grading([tuple(1 if j == i else 0 for j in range(n)) for i in uf])
    walls = []
    for w in prin_diag.walls:
        base, coeffs = _term_map_coeff_list({e[n:]: p for e, p in _terms(w).items() if any(e)},
                                            grading, prin_diag.order)
        nx = normal_x(w.normal)
        direction = _line_rep(_perp_normal(nx)) if w.kind == "line" else tuple(-x for x in base)
        walls.append(Wall(w.kind, direction, nx, base, coeffs))
    return ScatteringDiagram(prin_diag.fixed, prin_diag.seed, prin_diag.order,
                             grading, walls, tuple(range(2)))


def _term_map_project_to_A(prin_diag):
    n = prin_diag.dim // 2
    grading = Grading([tuple(g)[:n] for g in prin_diag.grading.generators])
    walls = [_term_map_wall(w.kind, w.direction,
                            {e[:n]: p for e, p in _terms(w).items() if any(e)},
                            grading, prin_diag.order, prin_diag.proj)
             for w in prin_diag.walls]
    return ScatteringDiagram(prin_diag.fixed, prin_diag.seed, prin_diag.order,
                             grading, walls, prin_diag.proj)


def _term_map_reorder(diag, order):
    walls = (_term_map_wall(w.kind, w.direction, {e: p for e, p in _terms(w).items() if any(e)},
                            diag.grading, order, diag.proj)
             for w in diag.walls)
    return ScatteringDiagram(diag.fixed, diag.seed, order, diag.grading,
                             [w for w in walls if w], diag.proj)


def _builder_pairs(fixed, seed, order):
    """(name, engine diagram, term-map diagram) for every wall builder but completion's.

    The completion tests above hold complete_rank2 to the term-map reference."""
    yield "initial", initial_diagram(fixed, seed, order), _term_map_initial(fixed, seed, order)
    yield "initial Aprin", initial_diagram_prin(fixed, seed, order), _term_map_initial(
        *principal_data(fixed, seed), order)
    done_prin = complete_rank2(initial_diagram_prin(fixed, seed, order))
    yield "project_to_A", project_to_A(done_prin), _term_map_project_to_A(done_prin)
    if len(fixed.unfrozen) == fixed.n:  # the X slice needs a seed without frozen directions
        yield "slice_to_X", slice_to_X(done_prin), _term_map_slice_to_X(done_prin)
    if fixed.n == 2:  # T_k needs plane exponents
        done = complete_rank2(initial_diagram(fixed, seed, order))
        for k in fixed.unfrozen:
            yield "apply_Tk %d" % k, apply_Tk(done, k), _term_map_apply_Tk(done, k)
        yield "_reorder", _reorder(done, order - 1), _term_map_reorder(done, order - 1)


def _function_by_term_map(diag, w):
    return TruncatedLaurent(diag.grading, diag.order, (0,) * diag.dim, _terms(w))


def test_list_builders_equal_the_term_map_reference(request):
    seeds = [(request.getfixturevalue(name), 6) for name in ("a2", "g31", "kronecker")]
    seeds += [(parse_seed_file(text), 5) for text in EXTRA_SEEDS.values()]
    seeds += [(parse_seed_file(text), order) for text, order, _ in _zoo(60, random.Random(13))]
    count = 0
    for (fixed, seed), order in seeds:
        for name, engine, reference in _builder_pairs(fixed, seed, order):
            assert _wall_list(engine) == _wall_list(reference), (name, fixed, order)
            for w in engine.walls:  # the function read off the list, as the term map gave it
                assert engine.function(w) == _function_by_term_map(engine, w), (name, w)
            count += 1
    assert count == 7 * (3 + 3 + 60) + 3  # the frozen seed has no X slice and no T_k


@pytest.mark.parametrize("name", ["g31", "kronecker"])
def test_partly_completed_diagrams_complete_like_the_reference(request, name):
    # the lowest defect sits at the cut, above the first probe's degree 2,
    # so the first pass misses and needs the full-order loop
    fixed, seed = request.getfixturevalue(name)
    done = complete_rank2(initial_diagram(fixed, seed, 6))
    for cut in range(3, 7):
        part = _partly_completed(done, cut)
        assert _lowest_defects(part)[0] == cut
        assert _wall_list(complete_rank2(part)) == _wall_list(_one_pass_completion(part))


@pytest.mark.parametrize("name", ["a2", "g31", "kronecker"])
def test_probe_finds_the_lowest_defect_or_nothing(request, name):
    # the terms of degree <= t of a loop run at order t are those of the
    # loop at the full order
    fixed, seed = request.getfixturevalue(name)
    done = complete_rank2(initial_diagram(fixed, seed, 6))
    diags = list(_inconsistent_diagrams(fixed, seed))
    diags += [_partly_completed(done, cut) for cut in range(3, 7)] + [done]
    for diag in diags:
        full = _lowest_defects(diag)
        for t in range(1, diag.order + 1):
            expected = full if full[0] is not None and full[0] <= t else (None, [])
            assert _lowest_defects(diag, t) == expected, t


@pytest.mark.parametrize("name,order,calls", [
    # a defect at every degree: only the last loop runs at the full order
    ("kronecker", 14, [(t, t) for t in range(2, 15)] + [(14, None)]),
    # no defect at degrees 7 and 8 or above 9: each miss runs the full loop
    ("g31", 15, [(t, t) for t in range(2, 7)] + [(7, None), (15, 9), (10, None), (15, None)]),
])
def test_full_order_loops_run_only_after_a_probe_misses(request, monkeypatch, name, order,
                                                         calls):
    import gcsdiag.scatter as scatter

    seen, halves = [], []
    product = scatter._product

    def spy(diag, probe=None, monomials=None):
        low, terms = _lowest_defects(diag, probe, monomials)
        seen.append((diag.order if probe is None else probe, low))
        return low, terms

    def half_spy(path, series, proj, keyed=False):
        halves.append(len(seen))  # the pass it runs in
        return product(path, series, proj, keyed)

    monkeypatch.setattr(scatter, "_lowest_defects", spy)
    monkeypatch.setattr(scatter, "_product", half_spy)
    fixed, seed = request.getfixturevalue(name)
    complete_rank2(initial_diagram(fixed, seed, order))
    assert seen == calls
    # two half-loops per pass: the loop of z^g1, read as its two halves, sees every defect
    assert halves == [i for i in range(len(calls)) for _ in range(2)]


# the complete benchmark's round: its seed texts and (family, variant, order, copies) rows
MIX_SEEDS = {
    "a2": "rank 2\nunfrozen 1 2\nd 1 1\nr 1 1\nB 0 1 -1 0\na.1 1 1\na.2 1 1\n",
    "g31": "rank 2\nunfrozen 1 2\nd 1 1\nr 3 1\nB 0 1 -1 0\na.1 1 a a 1\na.2 1 1\n",
    "kronecker22": "rank 2\nunfrozen 1 2\nd 2 2\nr 1 1\nB 0 2 -2 0\na.1 1 1\na.2 1 1\n",
}
MIX_JOBS = (
    ("g31", "A", 15, 1), ("kronecker22", "A", 14, 1),
    ("g31", "A", 10, 2), ("g31", "A", 11, 1), ("kronecker22", "A", 9, 1),
    ("kronecker22", "A", 10, 1), ("g31", "Aprin", 10, 1), ("g31", "Aprin", 11, 1),
    ("kronecker22", "Aprin", 9, 1), ("kronecker22", "Aprin", 10, 1),
    ("a2", "A", 40, 2), ("a2", "A", 56, 1), ("a2", "A", 80, 1),
    ("a2", "Aprin", 40, 1), ("a2", "Aprin", 64, 1),
)


def test_the_completion_mix_runs_a_fixed_amount_of_work(monkeypatch):
    # one round of the 17 jobs: two kernel calls per pass, one for each half of the loop,
    # the wall powers they ask for and the walls _wall builds (initial and new rays); a
    # change that moves a count says why.  The halves turned the 121 loops into 242 calls
    # and ask for 422 powers where the loops asked for 436; a wall's first power is its own
    # list, which leaves 344 to compute; a rebuilt ray keeps its normal and base and skips
    # _wall, so the walls built fell from 157 to 113
    import gcsdiag.scatter as scatter

    counts = {"kernel": 0, "powers": 0, "walls": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scatter, "_product", counted("kernel", scatter._product))
    monkeypatch.setattr(scatter, "unit_power_coeffs",
                        counted("powers", scatter.unit_power_coeffs))
    monkeypatch.setattr(scatter, "_wall", counted("walls", _wall))
    for family, variant, order, copies in MIX_JOBS:
        fixed, seed = parse_seed_file(MIX_SEEDS[family])
        build = initial_diagram if variant == "A" else initial_diagram_prin
        for _ in range(copies):
            complete_rank2(build(fixed, seed, order))
    assert sum(copies for *_, copies in MIX_JOBS) == 17
    assert counts == {"kernel": 242, "powers": 344, "walls": 113}


@pytest.mark.parametrize("direction,expo,single", [
    ((0, -1), (0, 1), False),  # a ray along g1: z^g1 misses it, so every basis monomial is read
    ((-1, 0), (-1, 0), True),  # a ray along g2 stays on the single loop
])
def test_a_ray_along_g1_reads_every_basis_monomial(g31_diag8, direction, expo, single):
    diag = _with_ray(g31_diag8, direction, expo)
    g1 = diag.grading.generators[0]
    assert (_lowest_defects(diag, None, [g1])[0] == _lowest_defects(diag)[0]) == single
    assert _wall_list(complete_rank2(diag)) == _wall_list(_one_pass_completion(diag))


WILD = "rank 2\nunfrozen 1 2\nd 1 1\nr 4 3\nB 0 -2 2 0\na.1 1 c a c 1\na.2 1 b b 1\n"


def _loop_defects(diag, order):
    """(degree, {(basis index, u): poly}) of the least-degree terms of the public
    loop_product(diag, z^m) - z^m, run at order, over the basis monomials z^m."""
    low, found = None, {}
    for bi, m in enumerate(diag.basis_exponents()):
        image = loop_product(diag, TruncatedLaurent.monomial(diag.grading, order, m))
        for expo, poly in image.terms.items():
            poly = poly - 1 if expo == m else poly
            if poly:
                u = tuple(x - y for x, y in zip(expo, m))
                deg = diag.grading.degree(u)
                if low is None or deg < low:
                    low, found = deg, {}
                if deg == low:
                    found[bi, u] = poly
    return low, found


def _assert_half_loops_read_the_loop(diag):
    # P1(z^m) - P2^-1(z^m) = P2^-1(loop(z^m) - z^m), and P2^-1 is 1 + higher terms
    for t in range(1, diag.order + 1):
        low, terms = _lowest_defects(diag, t)
        assert (low, {(bi, u): poly for u, bi, poly in terms}) == _loop_defects(diag, t), t
        # each monomial's triples in key order, the order of u's scaled coordinates
        assert terms == sorted(terms, key=lambda x: (x[1], diag.grading.scaled_coordinates(x[0])))


@pytest.mark.parametrize("build", [initial_diagram, initial_diagram_prin], ids=["A", "Aprin"])
@pytest.mark.parametrize("name", ["a2", "g31", "kronecker"])
def test_half_loops_read_the_lowest_defect_of_the_loop(request, name, build):
    # the probe test's diagrams: inconsistent, partly completed and completed
    fixed, seed = request.getfixturevalue(name)
    first = build(fixed, seed, 6)
    done = complete_rank2(first)
    walls = list(done.walls)
    walls.remove([w for w in walls if w.kind == "ray"][-1])
    diags = [first, ScatteringDiagram(done.fixed, done.seed, 6, done.grading, walls, done.proj)]
    diags += [_partly_completed(done, cut) for cut in range(3, 7)] + [done]
    for diag in diags:
        _assert_half_loops_read_the_loop(diag)


def test_half_loops_read_the_lowest_defect_on_the_wild_seed_and_a_T_k_image(g31):
    wild = initial_diagram(*parse_seed_file(WILD), 8)
    fixed, seed = g31
    part = _partly_completed(complete_rank2(initial_diagram(fixed, seed, 6)), 4)
    for diag in (wild, complete_rank2(wild), apply_Tk(part, 0)):
        _assert_half_loops_read_the_loop(diag)


def _table_inputs(request):
    """(name, diagram) for completion's pass table test."""
    for name in ("a2", "g31", "kronecker"):
        fixed, seed = request.getfixturevalue(name)
        yield name, initial_diagram(fixed, seed, 8)
        yield name + " Aprin", initial_diagram_prin(fixed, seed, 8)
        if name != "a2":  # a2's one ray has degree 2, below every cut
            done = complete_rank2(initial_diagram(fixed, seed, 6))
            for cut in range(3, 7):
                yield "%s cut at %d" % (name, cut), _partly_completed(done, cut)
    yield "wild", initial_diagram(*parse_seed_file(WILD), 8)
    g31_diag8 = request.getfixturevalue("g31_diag8")
    for direction, expo in (((0, -1), (0, 1)), ((-1, 0), (-1, 0))):  # the first along g1
        yield "ray %s" % (direction,), _with_ray(g31_diag8, direction, expo)


def _geometry(diag):
    return ([id(w) for w in diag.walls], [(p, id(w), s) for p, w, s in diag.events],
            diag.directions, diag._event_rays, diag._spans)


def test_pass_table_equals_the_sorting_constructor(request, monkeypatch):
    # completion keeps its walls and events in angular order across passes;
    # each pass diagram must be the one the constructor sorts from the input's
    # walls followed by the table's rays, which is how passes were built before
    import gcsdiag.scatter as scatter

    def rebuilt(init, diag):
        ids = {id(w) for w in init.walls}
        return ScatteringDiagram(diag.fixed, diag.seed, diag.order, diag.grading,
                                 init.walls + [w for w in diag.walls if id(w) not in ids],
                                 diag.proj)

    for name, init in list(_table_inputs(request)):  # built before the spy goes in
        passes = []

        def spy(diag, probe=None, monomials=None, init=init):
            if not passes or passes[-1] is not diag:
                assert _geometry(diag) == _geometry(rebuilt(init, diag)), (name, len(passes))
                passes.append(diag)
            return _lowest_defects(diag, probe, monomials)

        monkeypatch.setattr(scatter, "_lowest_defects", spy)
        done = complete_rank2(init)
        assert done is passes[-1] and len(passes) > 1, name
        assert _geometry(done) == _geometry(rebuilt(init, done)), name


def _angular(walls):
    """Reference: walls stably sorted by the angle of their directions."""
    return [id(w) for w in sorted(walls, key=lambda w: _by_angle(w.direction))]


def test_walls_are_their_input_stably_sorted_by_direction(request, monkeypatch):
    # the events are the one stored order and the walls are read off them; every
    # builder's diagram and every completion pass must list its walls once each,
    # in the order a stable sort of its input by direction gives
    import gcsdiag.scatter as scatter

    def assert_listed(diag, walls, name):
        assert [id(w) for w in diag.walls] == _angular(walls), name
        assert len({id(w) for w in diag.walls}) == len(diag.walls), name

    init = ScatteringDiagram.__init__

    def built(self, fixed, seed, order, grading, walls, proj):
        walls = list(walls)
        init(self, fixed, seed, order, grading, walls, proj)
        assert_listed(self, walls, "constructor")

    monkeypatch.setattr(ScatteringDiagram, "__init__", built)
    seeds = [request.getfixturevalue(name) for name in ("a2", "g31", "kronecker")]
    seeds += [parse_seed_file(text) for text in list(EXTRA_SEEDS.values()) + [WILD]]
    assert sum(1 for fixed, seed in seeds for _ in _builder_pairs(fixed, seed, 6)) == 7 * 7 + 3
    # walls that tie: a ray on each line's own direction, before the lines and after them
    diag = request.getfixturevalue("g31_diag8")
    rays = [_wall("ray", d, e, [1, 1], diag.grading, diag.order, diag.proj)
            for d, e in (((1, 0), (-1, 0)), ((0, 1), (0, 1)))]
    assert {w.direction for w in rays} == {w.direction for w in diag.walls if w.kind == "line"}
    for walls in (rays + diag.walls, diag.walls + rays):
        ScatteringDiagram(diag.fixed, diag.seed, diag.order, diag.grading, walls, diag.proj)

    for name, start in list(_table_inputs(request)):
        passes = []

        def spy(diag, probe=None, monomials=None, start=start):
            if not passes or passes[-1] is not diag:
                ids = {id(w) for w in start.walls}
                added = [w for w in diag.walls if id(w) not in ids]  # rays on distinct directions
                assert_listed(diag, start.walls + added, (name, len(passes)))
                passes.append(diag)
            return _lowest_defects(diag, probe, monomials)

        monkeypatch.setattr(scatter, "_lowest_defects", spy)
        assert complete_rank2(start) is passes[-1] and len(passes) > 1, name


def test_rays_on_a_line_read_alike_before_and_after_it(g31_diag8):
    # a ray on each line's opposite direction shares that direction's events;
    # its events follow the input order of the walls, but walls on one ray
    # commute, so loops, defects and theta values do not depend on it
    from gcsdiag import theta

    diag = g31_diag8
    rays = [_wall("ray", d, e, [1, 1], diag.grading, diag.order, diag.proj)
            for d, e in (((-1, 0), (-1, 0)), ((0, -1), (0, 1)))]
    assert {w.direction for w in rays} == {(-x, -y) for x, y in
                                           (w.direction for w in diag.walls if w.kind == "line")}
    before, after = (ScatteringDiagram(diag.fixed, diag.seed, diag.order, diag.grading, walls,
                                       diag.proj)
                     for walls in (rays + diag.walls, diag.walls + rays))
    assert [id(w) for w in before.walls] == [id(w) for w in after.walls]
    assert [id(w) for _, w, _ in before.events] != [id(w) for _, w, _ in after.events]
    assert [(p, s) for p, _, s in before.events] == [(p, s) for p, _, s in after.events]
    for m in diag.basis_exponents():
        one = [loop_product(d, TruncatedLaurent.monomial(diag.grading, diag.order, m)).terms
               for d in (before, after)]
        assert one[0] == one[1], m
    assert _lowest_defects(before) == _lowest_defects(after)
    assert _lowest_defects(before)[0] is not None
    for m0 in [(1, 0), (0, 1), (-1, 2), (2, -3)]:
        for Q in [(Fraction(7, 3), Fraction(5, 11)), (Fraction(-13, 7), Fraction(3, 17)),
                  (Fraction(-5, 19), Fraction(-23, 3))]:
            a, b = ((r.value.terms, [(line.segments, [(id(w), p, j) for w, p, j in line.bends])
                                     for line in r.witness_lines])
                    for r in (theta(d, Q, m0, 6) for d in (before, after)))
            assert a == b, (m0, Q)


# ---------------------------------------------------------------------------
# crossings read from the diagram's sorted events, against the scans they replaced


def _scanned_crossings(diag, d, mdir):
    """Reference: every wall ray s that sc*d + t*mdir = lam*s meets, lam, t > 0."""
    c = _cross(d, mdir)
    return [(w, s) for w in diag.walls for s in _rays(w)
            if c * _cross(s, mdir) > 0 and _cross(d, s) * _cross(s, mdir) > 0]


def _strictly_between_ccw(ref, p, end):
    """True if direction p lies strictly inside the ccw arc ref -> end."""
    c = _ang_cmp(ref, end)
    pa = _ang_cmp(ref, p)
    pb = _ang_cmp(p, end)
    if c < 0:
        return pa < 0 and pb < 0
    if c > 0:
        return pa < 0 or pb < 0
    return False


def _filtered_path(diag, start, end):
    """Reference: the events rotated past start by a linear scan, filtered to the arc."""
    events = diag.events
    i = 0
    while i < len(events) and _ang_cmp(events[i][0], start) <= 0:
        i += 1
    return [(w, s) for p, w, s in events[i:] + events[:i] if _strictly_between_ccw(start, p, end)]


def _equivalent_per_chamber(d1, d2):
    """Reference: a path from the first chamber to each other one, each built anew, and
    the full loop from the first chamber back to itself."""
    dirs = sorted(set(d1.directions) | set(d2.directions), key=_by_angle)
    ref, *targets = _chamber_reps(dirs)
    last = targets[-1]
    paths = [lambda d, t=t: _filtered_path(d, ref, t) for t in targets]
    paths.append(lambda d: _filtered_path(d, ref, last) + _filtered_path(d, last, ref))
    for path in paths:
        for m in d1.basis_exponents():
            r1 = path_ordered_product(d1, path(d1),
                                      TruncatedLaurent.monomial(d1.grading, d1.order, m))
            r2 = path_ordered_product(d2, path(d2),
                                      TruncatedLaurent.monomial(d2.grading, d2.order, m))
            if r1.terms != r2.terms:
                return False
    return True


def _with_ray(diag, direction, expo):
    ray = _wall("ray", direction, expo, [1, 1], diag.grading, diag.order, diag.proj)
    return ScatteringDiagram(diag.fixed, diag.seed, diag.order, diag.grading,
                             diag.walls + [ray], diag.proj)


@pytest.fixture(scope="module")
def crossing_diagrams(a2_diag6, g31, g31_diag8, kronecker):
    return {
        "a2@6": a2_diag6,
        "g31@8": g31_diag8,
        "kronecker22@10": complete_rank2(initial_diagram(*kronecker, 10)),
        "g31-Aprin@5": complete_rank2(initial_diagram_prin(*g31, 5)),
        # a ray wall on the ray (-1,0) of the initial line: two events share a direction
        "g31@8+ray(-1,0)": _with_ray(g31_diag8, (-1, 0), (-1, 0)),
    }


CROSSING_DIAGRAMS = ["a2@6", "g31@8", "kronecker22@10", "g31-Aprin@5", "g31@8+ray(-1,0)"]


def _scanned_on_support(diag, point):
    """Reference: a Fraction cross and dot product of the point with every direction."""
    point = tuple(Fraction(x) for x in point)
    return any(_cross(d, point) == 0 and _dot(d, point) >= 0 for d in diag.directions)


@pytest.fixture(scope="module")
def support_diagrams(a2, g31, g31_diag8, kronecker):
    return {
        "a2@8": complete_rank2(initial_diagram(*a2, 8)),
        "g31@8": g31_diag8,
        "kronecker22@12": complete_rank2(initial_diagram(*kronecker, 12)),
        "g31-X@8": slice_to_X(complete_rank2(initial_diagram_prin(*g31, 8))),
    }


@pytest.mark.parametrize("name", ["a2@8", "g31@8", "kronecker22@12", "g31-X@8"])
def test_on_support_by_direction_equals_the_scan(support_diagrams, name):
    diag = support_diagrams[name]
    rng = random.Random(name)
    dirs = list(diag.directions)
    points = [(0, 0)] + [(Fraction(rng.randint(-30, 30), rng.randint(1, 13)),
                          Fraction(rng.randint(-30, 30), rng.randint(1, 13))) for _ in range(300)]
    for v in dirs + _chamber_reps(dirs):
        for _ in range(2):
            k = Fraction(rng.randint(1, 30), rng.randint(1, 13))
            points += [(k * v[0], k * v[1]), (-k * v[0], -k * v[1])]
    hits = 0
    for p in points:
        got = diag.on_support(p)
        assert got == _scanned_on_support(diag, p), p
        hits += got
    assert 0 < hits < len(points)


def _ids(path):
    return [(id(w), s) for w, s in path]


@pytest.mark.parametrize("name", CROSSING_DIAGRAMS)
def test_crossed_walk_equals_the_scan(crossing_diagrams, name):
    diag = crossing_diagrams[name]
    box = [(a, b) for a in range(-5, 6) for b in range(-5, 6) if (a, b) != (0, 0)]
    walked = 0
    for d, _, _ in diag.events:
        for mdir in box:
            got = _ids(_crossed(diag, d, mdir))
            assert len(set(got)) == len(got)
            assert set(got) == set(_ids(_scanned_crossings(diag, d, mdir))), (d, mdir)
            walked += len(got) > 1
    assert walked


@pytest.mark.parametrize("name", CROSSING_DIAGRAMS)
def test_path_between_is_the_filtered_arc(crossing_diagrams, name):
    diag = crossing_diagrams[name]
    dirs = list(diag.directions)
    # off the support: two points in every chamber, so that a path may start and end
    # in one chamber either way round, and a direction that is not primitive
    inside = [_prim((2 * a[0] + b[0], 2 * a[1] + b[1]))
              for a, b in zip(dirs, dirs[1:] + dirs[:1])]
    probes = dirs + _chamber_reps(dirs) + inside + [(2 * dirs[0][0], 2 * dirs[0][1])]
    assert not any(diag.on_support(p) for p in _chamber_reps(dirs) + inside)
    for start in probes:
        for end in probes:
            assert _ids(path_between(diag, start, end)) == _ids(
                _filtered_path(diag, start, end)), (start, end)


def test_diagram_geometry_survives_deepcopy(g31_diag8):
    # the benchmark's theta checks run on deep copies of their diagrams
    twin = copy.deepcopy(g31_diag8)
    assert [(p, s) for p, _, s in twin.events] == [(p, s) for p, _, s in g31_diag8.events]
    assert [(w.direction, s) for w, s in path_between(twin, (2, 1), (-1, 3))] == [
        (w.direction, s) for w, s in path_between(g31_diag8, (2, 1), (-1, 3))]


def test_equivalence_check_equals_the_per_chamber_reference(a2, g31, kronecker):
    outcomes = []
    for fixed, seed in (a2, g31, kronecker):
        d4 = complete_rank2(initial_diagram(fixed, seed, 4))
        pairs = [(d4, d4), (d4, initial_diagram(fixed, seed, 4)),
                 (_reorder(complete_rank2(initial_diagram(fixed, seed, 6)), 4), d4)]
        for k in fixed.unfrozen:
            big = complete_rank2(initial_diagram(fixed, seed, 4 * tk_order_boost(fixed, seed, k)))
            image = _reorder(apply_Tk(big, k), 4)
            mu = complete_rank2(initial_diagram(fixed, mutate_seed(fixed, seed, k), 4))
            # the T_k image and d4 are both consistent, so their full loops agree
            pairs += [(image, mu), (mu, image), (image, d4), (apply_Tk(big, k), mu)]
        for d1, d2 in pairs:
            got = equivalence_check(d1, d2)
            assert got == _equivalent_per_chamber(d1, d2)
            outcomes.append(got)
    assert True in outcomes and False in outcomes


def test_chamber_reps_lie_inside_arcs_of_pi_or_more(a2):
    # two rays a quarter turn apart leave one chamber of 3*pi/2, where a + b
    # lies in the other chamber; with one direction a + b is on the support
    din = initial_diagram(*a2, 4)

    def diagram(c):
        walls = [_wall("ray", (1, 0), (-1, 0), [1, c], din.grading, 4, din.proj),
                 _wall("ray", (0, -1), (0, 1), [1, 1], din.grading, 4, din.proj)]
        return ScatteringDiagram(din.fixed, din.seed, 4, din.grading, walls, din.proj)

    d1, d2 = diagram(1), diagram(5)
    assert d1.directions == [(1, 0), (0, -1)]
    assert _chamber_reps(d1.directions) == [(1, -1), (1, 1)]
    assert _chamber_reps([(1, 0)]) == [(1, 1)]
    m = TruncatedLaurent.monomial(din.grading, 4, (0, 1))
    assert (path_ordered_product(d1, path_between(d1, (1, -1), (1, 1)), m).terms
            != path_ordered_product(d2, path_between(d2, (1, -1), (1, 1)), m).terms)
    assert not equivalence_check(d1, d2)
    assert equivalence_check(d1, d1)


def test_equivalence_check_crosses_the_last_direction(a2):
    # the walk from the first chamber crosses directions[-1] only on its way back
    din = initial_diagram(*a2, 4)

    def diagram(c):
        walls = [_wall("ray", (1, 0), (-1, 0), [1, 1], din.grading, 4, din.proj),
                 _wall("ray", (0, -1), (0, 1), [1, c], din.grading, 4, din.proj)]
        return ScatteringDiagram(din.fixed, din.seed, 4, din.grading, walls, din.proj)

    d1, d5 = diagram(1), diagram(5)
    assert d1.directions == [(1, 0), (0, -1)]
    assert not equivalence_check(d1, d5)
    assert not _equivalent_per_chamber(d1, d5)
    assert equivalence_check(d5, d5)


def _equivalent_by_chamber_rays(d1, d2):
    """Reference: the walk from a ray inside each chamber to one inside the next, each step
    a path_between of two chamber rays, as equivalence_check walked before it crossed the
    events one direction at a time."""
    dirs = sorted(set(d1.directions) | set(d2.directions), key=_by_angle)
    if len(dirs) < 2:
        raise ValueError("too few support directions for a chamber decomposition")
    reps = _chamber_reps(dirs)
    for m in d1.basis_exponents():
        s1 = TruncatedLaurent.monomial(d1.grading, d1.order, m)
        s2 = TruncatedLaurent.monomial(d2.grading, d2.order, m)
        # step k crosses dirs[k]; the last step, back to the first chamber, crosses dirs[-1]
        for a, b in zip(reps, reps[1:] + reps[:1]):
            s1 = path_ordered_product(d1, path_between(d1, a, b), s1)
            s2 = path_ordered_product(d2, path_between(d2, a, b), s2)
            if s1.terms != s2.terms:
                return False
    return True


def test_mutation_invariance_over_the_seed_zoo():
    # T_k carries each zoo seed's consistent diagram to one equivalent to the mutated
    # seed's and not to the unmutated one, by the walk by direction and by the chamber-ray
    # walk alike; order 2 keeps the zoo within seconds
    for text, _, _ in _zoo(60, random.Random(13)):
        fixed, seed = parse_seed_file(text)
        top = max(tk_order_boost(fixed, seed, k) for k in fixed.unfrozen)
        full = complete_rank2(initial_diagram(fixed, seed, 2 * top))
        unmutated = _reorder(full, 2)
        for k in fixed.unfrozen:
            image = _reorder(apply_Tk(full, k), 2)
            mu = complete_rank2(initial_diagram(fixed, mutate_seed(fixed, seed, k), 2))
            for check in (equivalence_check, _equivalent_by_chamber_rays):
                assert check(image, mu), (check.__name__, text, k)
                assert not check(image, unmutated), (check.__name__, text, k)


def test_consistency_and_truncation_coherence_over_the_seed_zoo():
    # each zoo seed's completion at order 6, in its variant, passes the loop check, and its
    # cut at each lower order t has the walls of the completion at t
    for text, _, variant in _zoo(60, random.Random(13)):
        fixed, seed = parse_seed_file(text)
        build = initial_diagram if variant == "A" else initial_diagram_prin
        full = complete_rank2(build(fixed, seed, 6))
        assert check_consistency(full) == (True, None), (text, variant)
        for t in range(1, 6):
            assert (_wall_list(_reorder(full, t))
                    == _wall_list(complete_rank2(build(fixed, seed, t)))), (text, variant, t)


def test_raising_the_order_and_T_k_on_principal_data_are_refused(kronecker):
    fixed, seed = kronecker
    with pytest.raises(ValueError, match="^cannot raise the order of a computed diagram$"):
        _reorder(complete_rank2(initial_diagram(fixed, seed, 3)), 4)
    with pytest.raises(ValueError, match="^apply_Tk requires plane exponents$"):
        apply_Tk(complete_rank2(initial_diagram_prin(fixed, seed, 3)), 0)


def test_order_0_initial_diagrams_are_equivalent(a2, g31):
    # at order 0 every wall function is 1: no walls, so no direction to cross
    d1, d2 = initial_diagram(*a2, 0), initial_diagram(*g31, 0)
    assert d1.walls == d2.walls == []
    assert equivalence_check(d1, d2)


# ---------------------------------------------------------------------------
# dumps


def test_dump_diagram_g31(g31_diag9):
    assert dump_diagram(g31_diag9) == (
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
        "ray direction=(1,-1) normal=(1,1) f=1 + z^(-3,3) + a*z^(-2,2) + a*z^(-1,1)\n"
    )


def test_dump_is_deterministic(g31_diag8):
    assert dump_diagram(g31_diag8) == dump_diagram(g31_diag8)


def test_dumped_functions_are_their_canonical_strings_over_the_seed_zoo():
    # the dump renders each wall off its list, in canonical_string's order of exponents
    for text, _, _ in _zoo(60, random.Random(13)):
        fixed, seed = parse_seed_file(text)
        prin = complete_rank2(initial_diagram_prin(fixed, seed, 6))
        for diag, variant in ((complete_rank2(initial_diagram(fixed, seed, 6)), "A"),
                              (prin, "Aprin"), (slice_to_X(prin), "X")):
            rows = dump_diagram(diag, variant).split("walls:\n")[1].splitlines()
            assert ([row.split(" f=")[1] for row in rows]
                    == [canonical_string(diag.function(w)) for w in diag.walls]), (text, variant)
