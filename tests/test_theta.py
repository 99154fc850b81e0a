import copy
import importlib
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from test_scatter import _zoo

from gcsdiag import (
    ClusterState,
    CoeffPoly,
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
    parse_seed_file,
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
from gcsdiag.scatter import (
    _chamber_reps,
    _cross,
    _crossed,
    _point,
    _prim,
    _rays,
    _reorder,
    _rot90,
    apply_Tk,
    initial_diagram_prin,
    project_to_A,
    slice_to_X,
)
from gcsdiag.theta import (
    BrokenLine,
    EndpointNotGeneric,
    ThetaResult,
    _bend_factor,
    _chains,
    _direction_of,
    _endpoint,
    _monoid_points,
    _segment_hits_origin,
    _through_origin,
    generic_near,
)

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


def test_validate_broken_line_rejects_each_perturbation(g31_diag8):
    line = next(l for l in enumerate_broken_lines(g31_diag8, (0, -1), FIG2_Q)
                if len(l.bends) == 2)
    segs, bends = line.segments, line.bends
    (c0, _, _, end0), (c1, e1, start1, end1) = segs[0], segs[1]
    wall, p, j = bends[0]
    cf, ef, startf, endf = segs[-1]
    perturbed = [
        BrokenLine([(c0, (0, -2), None, end0)] + segs[1:], bends),  # its start
        BrokenLine([segs[0], (c1, e1, start1, (end1[0] + 1, end1[1]))] + segs[2:],
                   bends),  # a segment's direction
        BrokenLine(segs, [(wall, p, j + 1)] + bends[1:]),  # a bend's exponent step
        BrokenLine(segs[:-1] + [(2 * cf, ef, startf, endf)], bends),  # a coefficient
    ]
    assert validate_broken_line(g31_diag8, line, (0, -1), FIG2_Q)
    for bad in perturbed:
        assert not validate_broken_line(g31_diag8, bad, (0, -1), FIG2_Q), bad


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


def _crossings(diag, point, mdir):
    """Reference wall crossings of the ray {point + t*mdir : t > 0}, in Fractions.

    It meets the ray s at point + t*mdir = lam*s, lam > 0 (the origin is singular).
    """
    out = []
    c = _cross(point, mdir)
    for w in diag.walls:
        for s in _rays(w):
            den = _cross(s, mdir)
            if den == 0 or Fraction(c, den) <= 0:  # parallel, or lam = c/den <= 0
                continue
            t = Fraction(_cross(point, s), den)
            if t > 0:
                out.append((w, (point[0] + t * mdir[0], point[1] + t * mdir[1])))
    return out


def backward_lines(diag, m0, Q, order):
    """Reference enumeration: search backward from Q for every final exponent.

    Fix a candidate final exponent m_f, walk the final segment backwards and
    branch over the walls crossed where the line may have bent; every bend
    lowers the degree over m0, so the search ends.
    """
    Q = tuple(Fraction(x) for x in Q)
    if diag.on_support(Q):
        raise ValueError("endpoint lies on the diagram support; perturb it")
    results = []

    def dfs(point, m_cur, chain):
        if _segment_hits_origin(point, m_cur):
            if not chain:
                raise EndpointNotGeneric(
                    "endpoint is not generic: a final segment with exponent %r "
                    "runs through the origin; perturb it" % (m_cur,))
            return
        if m_cur == m0:
            results.append(chain)
            return
        coeffs = diag.grading.coefficients(tuple(a - b for a, b in zip(m_cur, m0)))
        if coeffs is None or any(c < 0 for c in coeffs):
            return
        for wall, p in _crossings(diag, point, m_cur):
            for j in range(1, int(sum(coeffs) // diag.grading.degree(wall.base)) + 1):
                m_prev = tuple(a - j * b for a, b in zip(m_cur, wall.base))
                factor = _bend_factor(wall, m_prev, j)
                if factor:
                    dfs(p, m_prev, ((wall, p, j, factor, m_prev, m_cur),) + chain)

    for m_f in _monoid_points(diag, m0, order):
        dfs(Q, m_f, ())
    lines = []
    for chain in results:
        coeff, segments, prev_point = CoeffPoly.one(), [], None
        for _, p, _, factor, m_prev, _ in chain:
            segments.append((coeff, m_prev, prev_point, p))
            coeff = coeff * factor
            prev_point = p
        segments.append((coeff, chain[-1][5] if chain else m0, prev_point, Q))
        lines.append(BrokenLine(segments, [(wall, p, j) for wall, p, j, *_ in chain]))
    lines.sort(key=BrokenLine.sort_key)
    return lines


def _report_or_error(make):
    try:
        return make()
    except ValueError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _backward_report(diag, Q, m0, order):
    lines = backward_lines(diag, m0, Q, order)
    terms = {}
    for line in lines:
        coeff, expo = line.final_monomial
        terms[expo] = terms.get(expo, CoeffPoly.zero()) + coeff
    value = TruncatedLaurent(diag.grading, order, m0, terms)
    return theta_report(diag, ThetaResult(value, lines, tuple(Fraction(x) for x in Q), m0))


@pytest.mark.parametrize("name,order", [("a2", 10), ("g31", 9), ("kronecker", 7)])
def test_forward_enumeration_equals_backward_search(request, name, order):
    fixed, seed = request.getfixturevalue(name)
    diag = complete_rank2(initial_diagram(fixed, seed, order))
    rng = random.Random(order)
    cases = non_generic = 0
    for _ in range(30):
        m0 = (rng.randint(-3, 3), rng.randint(-3, 3))
        if not any(m0):
            continue
        query = rng.randint(1, order)
        points = [(Fraction(rng.randint(-30, 30), rng.randint(1, 13)),
                   Fraction(rng.randint(-30, 30), rng.randint(1, 13))) for _ in range(2)]
        # endpoints on rays -m_f, where a final segment runs through the origin
        finals = _monoid_points(diag, m0, query)
        points += [tuple(Fraction(-x, rng.randint(1, 5)) for x in rng.choice(finals))
                   for _ in range(2)]
        for Q in points:
            if not any(Q):
                continue
            want = _report_or_error(lambda: _backward_report(diag, Q, m0, query))
            got = _report_or_error(lambda: theta_report(diag, theta(diag, Q, m0, query)))
            assert got == want, (m0, Q, query)
            cases += 1
            non_generic += got.startswith("EndpointNotGeneric")
    assert cases > 80 and non_generic > 5


def test_value_table_serves_each_order_as_a_fresh_diagram(g31):
    fixed, seed = g31
    d12 = complete_rank2(initial_diagram(fixed, seed, 12))
    # at this endpoint each of these thetas has more broken lines at 12 than at 7
    Q = (Fraction(-5, 3), Fraction(-2, 7))
    m0s = ((2, -3), (2, -1), (3, -4))
    reports = {}
    for order in (7, 12, 7):
        fresh = complete_rank2(initial_diagram(fixed, seed, order))
        for m0 in m0s:
            got = theta_report(d12, theta(d12, Q, m0, order))
            assert got == theta_report(fresh, theta(fresh, Q, m0))
            reports.setdefault(m0, set()).add(got)
    assert all(len(r) == 2 for r in reports.values())
    # the first query of each (m0, order) filled one entry per chamber, whatever the order
    assert sorted(d12._thetas) == [(m0, order, c) for m0 in m0s for order in (7, 12)
                                   for c in range(len(d12.directions))]


def test_derived_diagrams_start_with_an_empty_value_table(g31, g31_diag8):
    theta(g31_diag8, FIG2_Q, (0, -1))
    assert g31_diag8._thetas
    prin = complete_rank2(initial_diagram_prin(*g31, 5))
    # theta needs plane exponents, so a marker stands in for prin's warm table
    prin._thetas[0] = "warm"
    for derived in (_reorder(g31_diag8, 5), apply_Tk(g31_diag8, 0), apply_Tk(g31_diag8, 1),
                    complete_rank2(g31_diag8), slice_to_X(prin), project_to_A(prin)):
        assert derived._thetas == {}


def test_deep_copy_of_a_warm_diagram_answers_identically(g31):
    diag = complete_rank2(initial_diagram(*g31, 8))
    rng = random.Random("copy")
    queries = []
    for _ in range(12):
        m0 = (rng.randint(-3, 3), rng.randint(-3, 3))
        Q = (Fraction(rng.randint(-30, 30), rng.randint(1, 13)),
             Fraction(rng.randint(-30, 30), rng.randint(1, 13)))
        queries.append((m0, Q, rng.randint(1, 8)))
    want = [_report_or_error(lambda: theta_report(diag, theta(diag, Q, m0, o)))
            for m0, Q, o in queries]
    twin = copy.deepcopy(diag)
    assert len(twin._thetas) > 5 and twin._thetas.keys() == diag._thetas.keys()
    got = [_report_or_error(lambda: theta_report(twin, theta(twin, Q, m0, o)))
           for m0, Q, o in queries]
    assert got == want
    for p1, p2, q in (((0, -1), (-1, 0), (-1, -1)), ((1, 0), (0, 1), (1, 1))):
        z = generic_near(diag, q)
        assert structure_constant(twin, p1, p2, q, z) == structure_constant(diag, p1, p2, q, z)


def _sorted_states(diag, m0, order):
    """Reference: every search state for m0 up to order, from a recursive search that
    keeps them all, sorted into report order (BrokenLine.sort_key, then the walls met
    walking back)."""
    found, g = [], diag.grading
    top = order * g.den
    steps = {w: g.scaled_degree(w.base) for w in diag.walls}

    def visit(state, crossings, degree):
        found.append(state)
        for wall, d in crossings:
            for j in range(1, (top - degree) // steps[wall] + 1):
                factor = _bend_factor(wall, state[5], j)
                if factor:
                    m2 = tuple(a + j * b for a, b in zip(state[5], wall.base))
                    mdir = (-m2[0], -m2[1])
                    nxt = [] if _segment_hits_origin(d, mdir) else _crossed(diag, d, mdir)
                    visit((state, wall, d, j, state[4] * factor, m2), nxt,
                          degree + j * steps[wall])

    visit((None, None, None, 0, 1, m0), [(w, s) for w in diag.walls for s in _rays(w)], 0)
    index = {id(w): i for i, w in enumerate(diag.walls)}

    def key(state):
        m, bends = state[5], []
        while state[0] is not None:
            bends.append(state)
            state = state[0]
        return (len(bends), [b[1].direction for b in reversed(bends)],
                [b[3] for b in reversed(bends)], m, [index[id(b[1])] for b in bends])

    return sorted(found, key=key)


def _scan_terms(diag, m0, Q, order):
    """Reference value of theta_{m0} at Q: a scan of the sorted states for those whose
    cone {lam*d - t*m : lam, t > 0} holds Q; ValueError where theta raises one."""
    qi = _endpoint(diag, (m0,), _point(Q), order)[0]
    terms = {}
    for _, _, d, _, coeff, m in _sorted_states(diag, m0, order):
        if d is None or (_cross(qi, m) * _cross(d, m) > 0 and _cross(qi, d) * _cross(d, m) > 0):
            terms[m] = terms.get(m, 0) + coeff
    return {m: c for m, c in terms.items() if c}


def _forward_points(state):
    """Reference: a search state's path from the root and its bend points,
    built forward in Fractions with the first bend at the primitive vector of
    its ray and each next bend where {P - t*m : t > 0} meets the next ray."""
    path = []
    while state is not None:
        path.append(state)
        state = state[0]
    path.reverse()
    points = []
    for prev, (_, _, d, _, _, _) in zip(path, path[1:]):
        if points:
            lam = _cross(points[-1], prev[5]) / Fraction(_cross(d, prev[5]))
        else:
            lam = Fraction(1)
        points.append((lam * d[0], lam * d[1]))
    return path, points


def _fraction_cone_filter(states, Q):
    """Reference cone test: the states with Q = lam*P - t*m, lam, t > 0, in Fractions."""
    lines = []
    for state in states:
        path, points = _forward_points(state)
        lam = 1
        if points:
            p, m = points[-1], state[5]
            den = _cross(p, m)
            lam = _cross(Q, m) / den
            if lam <= 0 or _cross(Q, p) / den <= 0:
                continue
        pts = [(lam * x, lam * y) for x, y in points]
        segments = [(s[4], s[5], p0, p1) for s, p0, p1 in zip(path, [None] + pts, pts + [Q])]
        lines.append(BrokenLine(segments, [(s[1], p, s[3]) for s, p in zip(path[1:], pts)]))
    return lines


@pytest.mark.parametrize("name,order", [("a2", 10), ("g31", 9), ("kronecker", 7)])
def test_integer_cone_test_keeps_the_fraction_filter_chains(request, name, order):
    fixed, seed = request.getfixturevalue(name)
    diag = complete_rank2(initial_diagram(fixed, seed, order))
    rng = random.Random("cone-%d" % order)
    compared = boundary = 0
    for _ in range(12):
        m0 = (rng.randint(-3, 3), rng.randint(-3, 3))
        if not any(m0):
            continue
        chains = _sorted_states(diag, m0, order)
        last = [c for c in chains if c[0] is not None]
        points = [(Fraction(rng.randint(-30, 30), rng.randint(1, 13)),
                   Fraction(rng.randint(-30, 30), rng.randint(1, 13))) for _ in range(6)]
        # endpoints on the rays +-m and +-d of final exponents and last bend
        # directions, where lam or t is 0 or the endpoint is not generic
        for _ in range(2):
            for v in (rng.choice(last)[5], rng.choice(last)[2]):
                for sign in (1, -1):
                    k = sign * Fraction(rng.randint(1, 9), rng.randint(1, 9))
                    points.append((k * v[0], k * v[1]))
        for Q in points:
            if not any(Q):
                continue
            try:
                got = enumerate_broken_lines(diag, m0, Q)
            except ValueError:
                qdir = _direction_of(Q)
                assert diag.on_support(Q) or _through_origin(diag, m0, qdir, order), (m0, Q)
                continue
            want = _fraction_cone_filter(chains, Q)
            assert [(l.segments, l.bends) for l in got] == [(l.segments, l.bends) for l in want]
            compared += 1
            boundary += any(_cross(Q, c[5]) == 0 or _cross(Q, c[2]) == 0 for c in last)
    assert compared > 60 and boundary > 10, (compared, boundary)


@pytest.mark.parametrize("name,order,states", [("g31", 12, 7884), ("kronecker", 16, 14172)])
def test_cold_sweep_keeps_every_search_state(request, name, order, states):
    # kronecker22's wall steps have half-integer degrees: the budget, counted
    # in ints of 1/2, must cut the search exactly where the degrees do
    diag = complete_rank2(initial_diagram(*request.getfixturevalue(name), order))
    m0s = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
    assert sum(sum(1 for _ in _chains(diag, m0, order)) for m0 in m0s) == states


def test_value_table_holds_no_search_state(g31):
    diag = complete_rank2(initial_diagram(*g31, 8))
    attributes = set(vars(diag))
    theta(diag, FIG2_Q, (0, -1))
    # one entry per chamber, each a map from exponents to coefficients, and nothing else
    assert set(vars(diag)) == attributes
    assert sorted(diag._thetas) == [((0, -1), 8, c) for c in range(len(diag.directions))]
    for terms in diag._thetas.values():
        assert all(type(e) is tuple and all(type(x) is int for x in e) for e in terms)
        assert all(isinstance(c, (int, Fraction, CoeffPoly)) for c in terms.values())
    states = [state for state, _ in _chains(diag, (0, -1), 8)]
    assert len(states) > 10
    for state in states:
        assert type(state) is tuple and not any(isinstance(x, BrokenLine) for x in state)
        parent, wall, d, j, coeff, m = state
        assert type(j) is int and all(type(x) is int for x in m)
        if parent is None:
            assert (wall, d, m) == (None, None, (0, -1))
        else:
            assert parent in states and all(type(x) is int for x in d)
            assert m == tuple(a + j * b for a, b in zip(parent[5], wall.base))


def _monoid_bfs(diag, m0, order):
    """Reference: the breadth-first search over wall steps from m0 itself."""
    steps = {w.base for w in diag.walls}
    seen, frontier = {m0}, [m0]
    while frontier:
        nxt = []
        for m in frontier:
            for s in steps:
                m2 = tuple(a + b for a, b in zip(m, s))
                rel = tuple(a - b for a, b in zip(m2, m0))
                if m2 not in seen and diag.grading.degree(rel) <= order:
                    seen.add(m2)
                    nxt.append(m2)
        frontier = nxt
    return sorted(seen)


def _plane_diagrams(fixed, seed, order):
    """The completed A diagram of a seed, then the plane diagrams derived from it that
    theta answers on: a _reorder cut, both T_k images and the principal X slice."""
    diag = complete_rank2(initial_diagram(fixed, seed, order))
    prin = complete_rank2(initial_diagram_prin(fixed, seed, order))
    return [diag, _reorder(diag, order - 1), apply_Tk(diag, 0), apply_Tk(diag, 1),
            slice_to_X(prin)]


@pytest.fixture(scope="module")
def zoo_planes():
    return [d for text, order, _ in _zoo(60, random.Random(13))
            for d in _plane_diagrams(*parse_seed_file(text), order)]


def _check_monoid_points(diag, queries):
    for query in queries:
        for m0 in ((1, 0), (-2, 3), (3, -1), (0, -2), (-1, -1)):
            assert _monoid_points(diag, m0, query) == _monoid_bfs(diag, m0, query), (m0, query)


@pytest.mark.parametrize("name,order", [("a2", 10), ("g31", 9), ("kronecker", 7)])
def test_monoid_offsets_equal_the_search_from_m0(request, name, order):
    # the points are the grading's cone over m0; the reference searches the wall steps
    for diag in _plane_diagrams(*request.getfixturevalue(name), order):
        _check_monoid_points(diag, (diag.order, diag.order - 3))


def test_monoid_points_equal_the_search_on_the_zoo(zoo_planes):
    for diag in zoo_planes:
        _check_monoid_points(diag, (diag.order, 1 + diag.order // 2))


def _old_ends(diag, m0, order):
    """Reference: the direction map the endpoint check once kept per m0, from each
    primitive direction to the least monoid point over m0 on its ray."""
    return {_prim(m): m for m in reversed(_monoid_bfs(diag, m0, order)) if any(m)}


def _check_through_origin(diag, rng, tries):
    """_through_origin against _old_ends on random m0, orders and directions; the hits."""
    hits = 0
    for _ in range(tries):
        m0 = (rng.randint(-3, 3), rng.randint(-3, 3))
        if not any(m0):
            continue
        query = rng.randint(1, diag.order)
        ends = _old_ends(diag, m0, query)
        dirs = list(ends) + [_prim((rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(20)]
        for d in dirs + [(-d[0], -d[1]) for d in dirs]:
            want = ends.get(d)
            assert _through_origin(diag, m0, (-d[0], -d[1]), query) == want, (m0, d, query)
            hits += want is not None
    return hits


@pytest.mark.parametrize("name,order", [("a2", 10), ("g31", 9), ("kronecker", 8)])
def test_through_origin_equals_the_direction_map(request, name, order):
    rng = random.Random("ray-%s" % name)
    diag, *derived = _plane_diagrams(*request.getfixturevalue(name), order)
    assert _check_through_origin(diag, rng, 25) > 100
    assert all(_check_through_origin(d, rng, 10) > 20 for d in derived)


def test_through_origin_equals_the_direction_map_on_the_zoo(zoo_planes):
    rng = random.Random("ray-zoo")
    assert sum(_check_through_origin(diag, rng, 3) for diag in zoo_planes) > 1000


def _chamber_points(diag, rng, per_chamber):
    """per_chamber random rational points strictly inside each chamber, by chamber."""
    dirs = diag.directions
    out = []
    for a, b in zip(dirs[-1:] + dirs[:-1], dirs):
        if _cross(a, b) <= 0:  # a chamber of angle >= pi holds the quarter after a
            b = _rot90(a)
        pts = []
        for _ in range(per_chamber):
            s, t = (Fraction(rng.randint(1, 20), rng.randint(1, 7)) for _ in range(2))
            pts.append((s * a[0] + t * b[0], s * a[1] + t * b[1]))
        out.append(pts)
    return out


def _table_diagrams(request):
    out = [complete_rank2(initial_diagram(*request.getfixturevalue(name), order))
           for name, order in (("a2", 8), ("g31", 8), ("kronecker", 7))]
    for text, order, variant in _zoo(12, random.Random(16)):
        if variant == "A":
            out.append(complete_rank2(initial_diagram(*parse_seed_file(text), order)))
    return out


def test_table_value_equals_the_state_scan_in_every_chamber(request):
    cases = chambers_seen = 0
    for diag in _table_diagrams(request):
        rng = random.Random("table-%d" % diag.order)
        for _ in range(4):
            m0 = (rng.randint(-3, 3), rng.randint(-3, 3))
            query = rng.randint(1, diag.order)
            for pts in _chamber_points(diag, rng, 3):
                answered = 0
                for Q in pts:
                    try:
                        want = _scan_terms(diag, m0, Q, query) if any(m0) else {m0: 1}
                    except ValueError:  # an endpoint on a ray -m: not generic
                        continue
                    assert theta(diag, Q, m0, query).value.terms == want, (m0, Q, query)
                    answered += 1
                cases += answered
                chambers_seen += answered >= 2
    assert cases > 500 and chambers_seen > 150, (cases, chambers_seen)


def test_adjacent_chamber_values_differ_by_the_wall_crossing(request):
    crossed = 0
    for diag in _table_diagrams(request):
        rng = random.Random("walls-%d" % diag.order)
        for _ in range(3):
            m0 = (rng.randint(-3, 3), rng.randint(-3, 3))
            if not any(m0):
                continue
            query = rng.randint(1, diag.order)
            reps = []
            for pts in _chamber_points(diag, rng, 4):
                for Q in pts:
                    try:
                        reps.append((Q, theta(diag, Q, m0, query).value))
                        break
                    except ValueError:
                        pass
                else:
                    reps.append(None)
            for here, there in zip(reps, reps[1:] + reps[:1]):
                if here and there:
                    path = path_between(diag, _direction_of(here[0]), _direction_of(there[0]))
                    assert path_ordered_product(diag, path, here[1]).terms == there[1].terms
                    crossed += 1
    assert crossed > 100, crossed


def test_warm_query_builds_no_line_and_scans_no_state(g31, monkeypatch):
    diag = complete_rank2(initial_diagram(*g31, 8))
    p, other = (Fraction(3, 2), 1), (Fraction(5, 2), Fraction(3, 2))  # one chamber
    theta(diag, p, (0, -1))
    structure_constant(diag, (0, -1), (-1, 0), (-1, -1), p)
    counts = {"lines": 0, "scans": 0}

    class CountedLine(BrokenLine):
        __slots__ = ()

        def __init__(self, segments, bends):
            counts["lines"] += 1
            super().__init__(segments, bends)

    theta_mod = importlib.import_module("gcsdiag.theta")  # the package binds theta()
    chains = theta_mod._chains

    def counted_chains(*args):
        counts["scans"] += 1
        return chains(*args)

    monkeypatch.setattr(theta_mod, "BrokenLine", CountedLine)
    monkeypatch.setattr(theta_mod, "_chains", counted_chains)
    res = theta(diag, other, (0, -1))
    assert structure_constant(diag, (0, -1), (-1, 0), (-1, -1), other) is not None
    assert counts == {"lines": 0, "scans": 0}
    # read: a search of their own runs now, and only its kept states become lines
    assert len(res.witness_lines) == 5 and counts == {"lines": 5, "scans": 1}


def test_answers_do_not_depend_on_query_order(g31):
    # an uncompleted diagram is not consistent, so the sum of broken lines varies
    # within a chamber; the table answers each chamber at its own fixed ray
    diag = initial_diagram(*g31, 6)
    m0, q1, q2 = (-2, -2), (14, 1), (7, Fraction(13, 4))
    one, two = copy.deepcopy(diag), copy.deepcopy(diag)
    first = {Q: theta(one, Q, m0).value.terms for Q in (q1, q2)}
    second = {Q: theta(two, Q, m0).value.terms for Q in (q2, q1)}
    assert first == second


def test_value_sweep_keeps_little_memory(kronecker):
    diag = complete_rank2(initial_diagram(*kronecker, 16))
    m0s = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
    points = {m0: [generic_near(diag, rep, m0) for rep in _chamber_reps(diag.directions)]
              for m0 in m0s}
    tracemalloc.start()
    try:
        for m0 in m0s:
            for Q in points[m0]:
                theta(diag, Q, m0)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(diag._thetas) == len(m0s) * len(diag.directions)
    assert kept < 2.5e6, kept


def test_zero_exponent_structure_constants_follow_theta_zero_is_one(g31):
    d = complete_rank2(initial_diagram(*g31, 6))
    for q, want in (((1, 0), 1), ((2, 0), 0), ((1, 1), 0)):
        z = generic_near(d, q)
        assert structure_constant(d, (0, 0), (1, 0), q, z) == CoeffPoly.rational(want)
        assert structure_constant(d, (1, 0), (0, 0), q, z) == CoeffPoly.rational(want)
    assert product_expansion_check(d, (0, 0), (1, 0), (Fraction(3, 2), 1))[0]
    assert product_expansion_check(d, (0, -1), (0, 0), GEN_Q)[0]


@pytest.mark.parametrize("build", [
    lambda g31: initial_diagram_prin(*g31, 5),
    lambda g31: initial_diagram(*parse_seed_file(
        "rank 3\nunfrozen 1 2\nd 1 1 1\nr 2 1 1\nB 0 1 1 -1 0 1 -1 -1 0\n"
        "a.1 1 a 1\na.2 1 1\n"), 3),
], ids=["Aprin", "frozen"])
def test_the_search_alone_refuses_a_diagram_off_the_plane(g31, build):
    # principal coefficients lift the exponents to four entries; a frozen direction to three
    diag = complete_rank2(build(g31))
    zero, m0 = (0,) * diag.dim, (1,) + (0,) * (diag.dim - 1)
    for query in (lambda: theta(diag, FIG2_Q, m0),
                  lambda: enumerate_broken_lines(diag, m0, FIG2_Q),
                  lambda: structure_constant(diag, m0, m0, (2,) + zero[1:], FIG2_Q),
                  lambda: list(_chains(diag, m0, 3))):
        with pytest.raises(ValueError, match="^broken lines need plane exponents$"):
            query()
    one = theta(diag, FIG2_Q, zero)
    assert one.value == TruncatedLaurent.one(diag.grading, diag.order)
    assert one.witness_lines == []
    assert structure_constant(diag, zero, zero, zero, FIG2_Q) == 1
    assert diag._thetas == {}
    # the endpoint's and the initial exponent's own errors come first
    with pytest.raises(ValueError, match="^endpoint lies on the diagram support; perturb it$"):
        theta(diag, (1, 0), m0)
    with pytest.raises(ValueError, match="^initial exponent must be nonzero$"):
        enumerate_broken_lines(diag, zero, FIG2_Q)


@pytest.fixture(scope="module")
def kronecker_diag10(kronecker):
    fixed, seed = kronecker
    return complete_rank2(initial_diagram(fixed, seed, 10))


@pytest.mark.parametrize("m0", [(1, 0), (0, 1), (-1, 0), (0, -1), (-1, 2), (2, -1), (3, -2)])
def test_kronecker_fourth_quadrant_equals_path_product(kronecker_diag10, m0):
    # the cone (0,-1) -> (1,0), where the rays accumulate at (1,-1): on
    # either side of it and close to it
    for Q in ((Fraction(5, 3), Fraction(-1, 7)), (Fraction(2, 11), Fraction(-9, 5)),
              (Fraction(7, 5), Fraction(-13, 10))):
        value = theta(kronecker_diag10, Q, m0).value
        assert value.terms == theta_via_path(kronecker_diag10, Q, m0).terms, Q


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


def test_theta_via_path_with_Q_on_a_wall_ray(g31_diag8):
    # the path runs ccw up to the ray (1,0) of Q and does not cross it, so the value
    # is theta's just clockwise of that ray and not just past it
    Q, below, above = (1, 0), (1, Fraction(-1, 97)), (1, Fraction(1, 97))
    assert canonical_string(theta_via_path(g31_diag8, Q, (2, -3))) == (
        "z^(-1,0) + a*z^(0,-1) + a*z^(1,-2) + z^(2,-3)")
    for m0 in [(0, -1), (-1, 0), (1, -3), (2, -3), (-1, 2)]:
        value = theta_via_path(g31_diag8, Q, m0).terms
        assert value == theta(g31_diag8, below, m0).value.terms
        assert value != theta(g31_diag8, above, m0).value.terms


def test_theta_via_path_outside_the_cluster_complex_is_rejected(kronecker):
    # (1,-1) spans the ray that the Kronecker chambers accumulate at, in none of them
    diag = complete_rank2(initial_diagram(*kronecker, 6))
    with pytest.raises(ValueError, match="^initial exponent is outside the computed cluster "
                                         "complex$"):
        theta_via_path(diag, GEN_Q, (1, -1))


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


def test_theta_below_order_0_is_rejected(g31):
    # a negative order would answer z^m0 as a series of negative order
    d = complete_rank2(initial_diagram(*g31, 6))
    for call in (lambda: theta(d, FIG2_Q, (0, -1), order=-5),
                 lambda: enumerate_broken_lines(d, (0, -1), FIG2_Q, -5),
                 lambda: structure_constant(d, (0, -1), (1, 0), (1, -1), FIG2_Q, -5),
                 lambda: theta_via_path(d, FIG2_Q, (0, -1), -1)):
        with pytest.raises(ValueError, match="order must be >= 0"):
            call()
    # at order 0 only the initial monomial is left
    assert canonical_string(theta(d, FIG2_Q, (0, -1), order=0).value) == "z^(0,-1)"


@pytest.mark.parametrize("order", [2.5, Fraction(5, 2), float("nan")])
def test_theta_fractional_order_is_rejected(g31_diag8, order):
    # a float order used to fail inside range() and a Fraction one to truncate at
    # degree 5/2; NaN passes both range tests and is named too; an integral
    # order is read as its int
    d = g31_diag8
    for call in (lambda: theta(d, GEN_Q, (0, -1), order),
                 lambda: enumerate_broken_lines(d, (0, -1), GEN_Q, order),
                 lambda: structure_constant(d, (0, -1), (1, 0), (1, -1), GEN_Q, order),
                 lambda: theta_via_path(d, GEN_Q, (0, -1), order)):
        with pytest.raises(ValueError, match="^order must be an integer, got %s$" % (order,)):
            call()
    for integral in (5.0, Fraction(5)):
        value = theta(d, GEN_Q, (0, -1), integral).value
        assert value.order == 5 and type(value.order) is int
        assert value == theta(d, GEN_Q, (0, -1), 5).value


@pytest.mark.parametrize("m0,Q", [
    ((Fraction(3, 2), 1), FIG2_Q),
    ((1.9, 1), FIG2_Q),
    ((1, 0, 5), FIG2_Q),
    ((1,), FIG2_Q),
    ((1, 1), (Fraction(3, 2), 1, 7)),
    ((1, 1), (Fraction(3, 2),)),
])
def test_malformed_exponents_and_points_are_rejected(g31_diag8, m0, Q):
    # a fractional entry or a wrong length must be rejected, never truncated,
    # padded or ignored
    d = g31_diag8
    for call in (lambda: theta(d, Q, m0), lambda: enumerate_broken_lines(d, m0, Q),
                 lambda: theta_via_path(d, Q, m0),
                 lambda: structure_constant(d, (1, 0), (0, 1), m0, Q),
                 lambda: generic_near(d, Q, m0)):
        with pytest.raises(ValueError, match="exponent|point"):
            call()
    with pytest.raises(ValueError, match="point"):
        d.on_support((1, 0, 5))
    assert theta(d, FIG2_Q, (1.0, 1)).value == theta(d, FIG2_Q, (1, 1)).value


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")], ids=str)
def test_non_finite_exponents_and_points_are_rejected(g31_diag8, x):
    # an infinite or NaN entry has no integer ratio: the error is the documented
    # ValueError naming the point or the exponent, not Python's
    d = g31_diag8
    for call, what in ((lambda: theta(d, (x, 1), (1, 0)), "point"),
                       (lambda: d.on_support((1, x)), "point"),
                       (lambda: generic_near(d, (x, 1)), "point"),
                       (lambda: structure_constant(d, (1, 0), (0, 1), (1, 1), (x, 1)), "point"),
                       (lambda: theta(d, GEN_Q, (x, 0)), "exponent"),
                       (lambda: structure_constant(d, (1, 0), (0, x), (1, 1), GEN_Q), "exponent")):
        with pytest.raises(ValueError, match="^%s \\(" % what):
            call()


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


def test_theta_Tk_transport_multiple_inputs(g31_diag8, a2):
    for m0 in [(1, 0), (0, -1), (-1, 1)]:
        theta_Tk_transport(g31_diag8, 1, GEN_Q, m0, order=6)
    # on a2 at order 3 the sheared theta has terms that the mutated diagram's theta cuts,
    # so these transports hold only after the truncation filter drops them
    a2_diag3 = complete_rank2(initial_diagram(*a2, 3))
    for m0 in [(-1, 1), (-2, 1)]:
        assert theta_Tk_transport(a2_diag3, 0, (Fraction(3, 2), Fraction(-1, 7)), m0).terms


# ---------------------------------------------------------------------------
# g-vectors, cluster monomials and sign coherence


def test_g_vector_examples(g31):
    fixed, seed = g31
    assert g_vector(fixed, seed, (), 0) == (1, 0)
    assert g_vector(fixed, seed, (0,), 0) == (-1, 0)
    assert g_vector(fixed, seed, (1,), 1) == (1, -1)
    assert g_vector(fixed, seed, (1, 1), 1) == (0, 1)


@pytest.mark.parametrize("i", [5, 2, -1])
def test_g_vector_index_out_of_range_is_named(g31, i):
    fixed, seed = g31
    with pytest.raises(ValueError, match=r"^direction index %d is out of range 0\.\.1$" % i):
        g_vector(fixed, seed, (0,), i)


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
            assert value.terms[g] == 1


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
    assert alpha == 1


def test_structure_constant_unreachable_exponent(g31_diag8):
    alpha = structure_constant(g31_diag8, (1, 0), (0, 1), (0, 0),
                               generic_near(g31_diag8, (0, 0)))
    assert not alpha


def test_structure_constant_rejects_wall_point(g31_diag8):
    with pytest.raises(ValueError):
        structure_constant(g31_diag8, (1, 0), (0, 1), (1, 1), (1, 0))


def test_warm_queries_keep_every_check(g31):
    # a filled (m0, order) table answers from one chamber's entry, so every check on
    # the endpoint must still run before that lookup
    d = complete_rank2(initial_diagram(*g31, 8))
    m0 = (2, -3)
    cold = theta(d, GEN_Q, m0).value
    assert any(key[:2] == (m0, 8) for key in d._thetas)
    for Q in ((1, 0), (0, 0), (Fraction(-3), 0), (0.0, 2.5)):
        with pytest.raises(ValueError, match="endpoint lies on the diagram support; perturb it"):
            theta(d, Q, m0)
    message = ("endpoint is not generic: a final segment with exponent (-1, -2) "
               "runs through the origin; perturb it")
    for Q in ((1, 2), (Fraction(1, 2), 1.0)):
        with pytest.raises(EndpointNotGeneric, match=re.escape(message)):
            theta(d, Q, m0)
    with pytest.raises(EndpointNotGeneric, match=re.escape(message)):
        enumerate_broken_lines(d, m0, (1, 2))
    # structure constants read the filled tables of m0 and (1, 0)
    z = generic_near(d, (1, 1))
    alpha = structure_constant(d, m0, (1, 0), (3, -2), z)
    for wall_point in ((1, 0), (0, 0), (0, 3), (Fraction(-2, 3), 0)):
        with pytest.raises(ValueError, match="structure-constant base point lies on a wall"):
            structure_constant(d, m0, (1, 0), (3, -2), wall_point)
    with pytest.raises(EndpointNotGeneric, match=re.escape(message)):
        structure_constant(d, (1, 0), m0, (3, -2), (1, 2))
    near = generic_near(d, (1, 2), m0)
    assert theta(d, near, m0).value == theta_via_path(d, near, m0)
    # ints, Fractions and floats name the same endpoint, and the failed queries left
    # the table as it was
    assert theta(d, GEN_Q, m0).value == cold
    assert structure_constant(d, m0, (1, 0), (3, -2), z) == alpha
    fresh = complete_rank2(initial_diagram(*g31, 8))
    for m, points in (((1, 1), ((3, 2), (1.5, 1), (Fraction(3, 2), 1))),
                      (m0, ((3, 4), (1.5, 2), (Fraction(3, 2), 2)))):
        values = [theta(d, Q, m).value for Q in points]
        assert values[0] == values[1] == values[2] == theta(fresh, points[0], m).value


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
