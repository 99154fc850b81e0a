"""Broken lines, theta functions, g-vectors, sign coherence, structure constants.

Walls are cones from the origin, so a broken line scaled by lam > 0 is one too.
The search runs forward from m0 without points: a search state is the direction d
of its last bend ray and its final exponent m, its next bend is on a wall that
{lam*d - t*m : lam, t > 0} crosses, and it reaches exactly the Q in that cone, so
the search and the cone test are signs of integer cross products.  Bends raise the
degree over m0, which the order bounds.  A theta value is constant on a chamber
(GHKK): one search per (diagram, m0, order) fills every chamber's entry and keeps
no state.  A witness line's state gets its points walking back from Q.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import TruncatedLaurent, _vadd, _vsub, canonical_string
from .scatter import (
    _ang_cmp,
    _chamber_ray,
    _chamber_walk,
    _cross,
    _crossed,
    _direction_of,
    _dot,
    _point,
    _prim,
    cone_contains,
    complete_rank2,
    initial_diagram,
    path_between,
    path_ordered_product,
    tk_shear,
)
from .seed import _check_direction, mutate_seed, mutate_word, mutation_walk


class EndpointNotGeneric(ValueError):
    """The final segment of a candidate broken line runs through the origin."""


# ---------------------------------------------------------------------------
# broken lines


class BrokenLine:
    """Piecewise-linear path from infinity to Q with attached monomials.

    segments: ordered (coeff, exponent, start, end); the first start is None
    (from infinity).  bends: (wall, point, step) per junction.
    """

    __slots__ = ("segments", "bends")

    def __init__(self, segments, bends):
        self.segments = segments
        self.bends = bends

    @property
    def final_monomial(self):
        coeff, expo, _, _ = self.segments[-1]
        return coeff, expo

    def sort_key(self):
        return (len(self.bends), tuple(b[0].direction for b in self.bends),
                tuple(b[-1] for b in self.bends), self.segments[-1][1])

    def __repr__(self):
        return "BrokenLine(%s)" % " -> ".join(
            "%sz^%s" % ("" if c == 1 else "(%s)*" % c, (e,)) for c, e, _, _ in self.segments)


def _order(diag, order):
    """The truncation order of a query as an int, by default the diagram's; in 0..diag.order."""
    if order is None:
        return diag.order
    if order > diag.order:
        raise ValueError("order %s exceeds the diagram's order %s" % (order, diag.order))
    if order < 0:
        raise ValueError("order must be >= 0, got %s" % (order,))
    if order != order or Fraction(order).denominator != 1:  # NaN passes both range tests
        raise ValueError("order must be an integer, got %s" % (order,))
    return int(order)


def _exponent(diag, m):
    """m as a tuple of diag.dim ints (one is returned as it is); ValueError unless it is one."""
    if type(m) is tuple and len(m) == diag.dim and all(type(x) is int for x in m):
        return m
    m = tuple(m)
    try:
        if len(m) == diag.dim and all(Fraction(x).denominator == 1 for x in m):
            return tuple(int(x) for x in m)
    except (OverflowError, ValueError):  # an infinite or NaN entry has no integer ratio
        pass
    raise ValueError("exponent %r is not an integral vector of length %d" % (m, diag.dim))


def _monoid_points(diag, m0, order):
    """m0 + the monoid combos of wall steps of degree <= order, sorted: every wall base is in
    the grading's cone, and the generators' primitive vectors p1, p2 are wall steps (the
    initial lines' bases) and a lattice basis, so the combos are a*p1 + b*p2, a, b >= 0."""
    g, top = diag.grading, order * diag.grading.den
    (p1, s1), (p2, s2) = ((p, g.scaled_degree(p)) for p in map(_prim, g.generators))
    return sorted((m0[0] + a * p1[0] + b * p2[0], m0[1] + a * p1[1] + b * p2[1])
                  for a in range(top // s1 + 1) for b in range((top - a * s1) // s2 + 1))


def _through_origin(diag, m0, qi, order):
    """The least m (tuple order) in _monoid_points on the ray -qi: z^m ending on qi hits 0.

    m is one of them iff the scaled coordinates of m - m0 are >= 0 and sum to at most
    den*order; on m = -k*qi each is linear in k, so the k >= 1 that fit are [lo, hi]."""
    g, top = diag.grading, order * diag.grading.den
    (a, b), (a0, b0) = g.scaled_coordinates(qi), g.scaled_coordinates(m0)
    lo, hi = 1, abs(a0) + abs(b0) + top  # no bound below is larger
    for c, r in ((a, -a0), (b, -b0), (-a - b, a0 + b0 + top)):  # c*k <= r
        if c > 0:
            hi = min(hi, r // c)
        elif c < 0:
            lo = max(lo, -(r // -c))
        elif r < 0:
            hi = 0
    k = lo if qi < (0, 0) else hi  # -k*qi grows with k iff -qi > 0 in tuple order
    return (-k * qi[0], -k * qi[1]) if lo <= hi else None


def _segment_hits_origin(d, mdir):
    """Does {sc*d + t*mdir : t > 0}, for any sc > 0, pass through the origin?"""
    return _cross(d, mdir) == 0 and (d[0] * mdir[0] + d[1] * mdir[1]) < 0


def _bend_factor(wall, m_prev, j):
    """Coefficient of z^{j*base} in f^{|<n, m_prev>|}; zero if non-transverse."""
    power = abs(_dot(wall.normal, m_prev))
    if power == 0:
        return 0
    g = wall.power(power)
    return g[j] if j < len(g) else 0


def _chains(diag, m0, order):
    """The search states for m0 up to order, depth first; a generator that keeps none.  It
    yields each state (parent, wall, d, j, coeff, m), which bends j steps on the wall ray d
    (None at the root) after parent, with final monomial coeff*z^m, together with the wall
    rays (wall, s) that its last segment crosses, in order (all of them at the root)."""
    # theta's one plane check: every value, witness line and structure constant is searched here
    if diag.dim != 2:
        raise ValueError("broken lines need plane exponents")
    g = diag.grading
    top = order * g.den  # the degree budget is in ints, as den * degree
    # each wall's normal, base, degree step and power memo, read once per search
    walls = {w: (w.normal, w.base, g.scaled_degree(w.base), w._powers) for w in diag.walls}
    # the segment from infinity may bend anywhere on a wall (a parallel one has factor 0)
    root = [(w, p) for p, w, _ in diag.events]  # p as stored: _crossed looks it up
    stack = [((None, None, None, 0, 1, m0), root, 0)]
    while stack:
        state, crossings, degree = stack.pop()
        yield state, crossings
        (x, y), coeff, children = state[5], state[4], []
        for wall, d in crossings:
            (n0, n1), (b0, b1), step, powers = walls[wall]
            power, jmax = abs(n0 * x + n1 * y), (top - degree) // step
            if not power or jmax <= 0:
                continue
            f = powers.get(power) or wall.power(power)  # one power for every step j
            e0, e1 = x, y
            for j in range(1, min(jmax, len(f) - 1) + 1):
                e0, e1 = e0 + b0, e1 + b1
                if f[j]:
                    # _crossed gives [] wherever _segment_hits_origin holds, but the call
                    # stays, once per child state: the benchmark's tracer counts it as
                    # theta.dfs_nodes
                    mdir = (-e0, -e1)
                    nxt = [] if _segment_hits_origin(d, mdir) else _crossed(diag, d, mdir)
                    children.append(((state, wall, d, j, coeff * f[j], (e0, e1)), nxt,
                                     degree + j * step))
        stack.extend(reversed(children))  # the first child is searched next


def _in_cone(q, d, m):
    """Is the ray q in the cone {lam*d - t*m : lam, t > 0} of a state bent on d, exponent m?"""
    (q0, q1), c = q, d[0] * m[1] - d[1] * m[0]
    # q = (cross(q, m)*d - cross(q, d)*m) / c: both scales must be > 0
    return (q0 * m[1] - q1 * m[0]) * c > 0 and (q0 * d[1] - q1 * d[0]) * c > 0


def _fill(diag, m0, order):
    """Store theta_{m0} at order in every chamber of diag, from one search.  A state bent on
    the ray d reaches the chambers whose ray is in its cone: from d towards -m (ccw if
    cross(d, m) < 0), those up to the last ray its segment crosses, and the next one if its
    ray is in the cone; only such a last chamber needs its ray, found once per chamber."""
    n, where = max(len(diag.directions), 1), {d: i for i, d in enumerate(diag.directions)}
    tables, points = [{m0: 1} for _ in range(n)], {}  # the root reaches every chamber
    states = _chains(diag, m0, order)
    next(states)
    for (_, _, d, _, coeff, m), crossed in states:
        i, step = where[d], 1 if _cross(d, m) < 0 else -1
        full = step * (where[crossed[-1][1]] - i) % n if crossed else 0
        first = i + (step > 0)  # the chamber next to d
        last = (first + step * full) % n
        ray = points.get(last)
        if ray is None:
            ray = points[last] = _chamber_ray(
                diag.directions, last, lambda p: _through_origin(diag, m0, p, order) is not None)
        for k in range(first, first + step * (full + _in_cone(ray, d, m)), step):
            terms = tables[k % n]
            old = terms.get(m)
            terms[m] = coeff if old is None else old + coeff
    diag._thetas.update(((m0, order, k), terms) for k, terms in enumerate(tables))


def _line(state, k, e, end):
    """The broken line of a search state ending at k*e: walking back, a segment
    z^m from a bend on the ray d to k*e puts it at k'*d, k' = k*cross(e, m)/cross(d, m)."""
    segments, bends = [], []
    while state[0] is not None:
        parent, wall, d, j, coeff, m = state
        k = Fraction(k.numerator * _cross(e, m), k.denominator * _cross(d, m))
        p = (k * d[0], k * d[1])
        segments.append((coeff, m, p, end))
        bends.append((wall, p, j))
        state, e, end = parent, d, p
    segments.append((state[4], state[5], None, end))
    return BrokenLine(segments[::-1], bends[::-1])


def _endpoint(diag, m0s, Q, order, support="endpoint lies on the diagram support; perturb it"):
    """(qi, m0s): Q's primitive direction, found once, and m0s read by _exponent after Q's test,
    so a bad Q is reported first.  ValueError(support) if Q is on the support (the origin is, if
    there is a wall); EndpointNotGeneric if a last segment from a nonzero m0 runs along -qi to 0."""
    qi = _direction_of(Q) if any(Q) or not diag.directions else None
    if qi is None or qi in diag._spans:
        raise ValueError(support)
    m0s = [_exponent(diag, m0) for m0 in m0s]
    for m_f in (_through_origin(diag, m0, qi, order) for m0 in m0s if any(m0) and diag.dim == 2):
        if m_f is not None:
            raise EndpointNotGeneric("endpoint is not generic: a final segment with exponent %r "
                                     "runs through the origin; perturb it" % (m_f,))
    return qi, m0s


def enumerate_broken_lines(diag, m0, Q, order=None):
    """All broken lines with initial exponent m0 and endpoint Q, from a search of their own.

    Q must be generic: off the support, and off every line through the origin that a final
    segment could run along; else ValueError.  The lines of the states whose cone holds Q are
    sorted by BrokenLine.sort_key, then the walls met walking back (ties keep search order)."""
    order = _order(diag, order)
    m0 = _exponent(diag, m0)
    if not any(m0):
        raise ValueError("initial exponent must be nonzero")
    Q = _point(Q)
    qi = _endpoint(diag, (m0,), Q, order)[0]
    qs = Q[0] / qi[0] if qi[0] else Q[1] / qi[1]  # Q = qs*qi
    index = {id(w): i for i, w in enumerate(diag.walls)}
    lines = [_line(s, qs, qi, Q) for s, _ in _chains(diag, m0, order)
             if s[2] is None or _in_cone(qi, s[2], s[5])]
    return sorted(lines, key=lambda line: (line.sort_key(),
                                           [index[id(w)] for w, _, _ in reversed(line.bends)]))


def validate_broken_line(diag, line, m0, Q):
    """Re-check the defining conditions of a broken line by expansion."""
    c0, e0 = line.segments[0][0], line.segments[0][1]
    if c0 != 1 or tuple(e0) != tuple(m0) or line.segments[-1][3] != _point(Q):
        return False
    for (_, e, start, end) in line.segments:
        # a segment runs along -e
        if start is not None and (_cross(_vsub(end, start), e) != 0
                                  or _dot(_vsub(end, start), e) >= 0):
            return False
    for idx, (wall, p, j) in enumerate(line.bends):
        c_prev, e_prev = line.segments[idx][0], line.segments[idx][1]
        c_next, e_next = line.segments[idx + 1][0], line.segments[idx + 1][1]
        if _vsub(e_next, e_prev) != tuple(j * x for x in wall.base):
            return False
        if c_next != c_prev * _bend_factor(wall, e_prev, j):
            return False
    return True


# ---------------------------------------------------------------------------
# theta functions


class ThetaResult:
    """A theta value at an endpoint; its witness lines are enumerated when first read."""

    __slots__ = ("value", "endpoint", "initial", "_lines")

    def __init__(self, value, witness_lines, endpoint, initial):
        self.value = value
        self._lines = witness_lines  # a list, or a function that returns it
        self.endpoint = endpoint
        self.initial = initial

    @property
    def witness_lines(self):
        if callable(self._lines):
            self._lines = self._lines()
        return self._lines


def _value_terms(diag, m0, qi, order):
    """theta_{m0} as {exponent: coefficient} in the chamber of qi, a direction _endpoint passed."""
    dirs, lo, hi = diag.directions, 0, len(diag.directions)
    while lo < hi:  # the first direction ccw after qi
        mid = (lo + hi) // 2
        if _ang_cmp(qi, dirs[mid]) < 0:
            hi = mid
        else:
            lo = mid + 1
    key = (m0, order, lo if lo < len(dirs) else 0)  # the last chamber wraps to the first
    if key not in diag._thetas:
        _fill(diag, m0, order)
    return diag._thetas[key]


def theta(diag, Q, m0, order=None):
    """Sum of final monomials over all broken lines (1 when m0 = 0)."""
    order = _order(diag, order)
    m0, Q = _exponent(diag, m0), _point(Q)
    if not any(m0):
        return ThetaResult(TruncatedLaurent.one(diag.grading, order), [], Q, m0)
    terms = _value_terms(diag, m0, _endpoint(diag, (m0,), Q, order)[0], order)
    value = TruncatedLaurent.within(diag.grading, order, m0, terms)
    return ThetaResult(value, lambda: enumerate_broken_lines(diag, m0, Q, order), Q, m0)


def theta_via_path(diag, Q, m0, order=None):
    """p_gamma(z^{m0}) from m0's cluster chamber (mutation words up to length 8) to Q's."""
    order = _order(diag, order)
    m0 = _exponent(diag, m0)
    end_dir = _direction_of(_point(Q))
    home = next((cone for _, cone in _chamber_walk(diag, 8) if cone_contains(cone, m0)), None)
    if home is None:
        raise ValueError("initial exponent is outside the computed cluster complex")
    start = _vadd(home[0], home[1])
    if diag.on_support(start):
        raise ValueError("degenerate chamber representative")
    s = TruncatedLaurent.monomial(diag.grading, order, m0)
    return path_ordered_product(diag, path_between(diag, _prim(start), end_dir), s)


def theta_Tk_transport(diag, k, Q, m0, order=None):
    """T_{k,+/-} transport of theta, checked against the mutated diagram."""
    order = _order(diag, order)
    fixed = diag.fixed
    shear = tk_shear(fixed, diag.seed, k)
    Q, m0 = _point(Q), _exponent(diag, m0)
    th = theta(diag, Q, m0, order)

    s = 1 if Q[k] >= 0 else 0
    mapped = {}
    for expo, poly in th.value.terms.items():
        key = shear(expo, s)
        mapped[key] = mapped.get(key, 0) + poly

    seed2 = mutate_seed(fixed, diag.seed, k)
    diag2 = complete_rank2(initial_diagram(fixed, seed2, order))
    m02 = shear(m0) if m0[k] >= 0 else m0
    th2 = theta(diag2, shear(Q, s), m02, order)

    def keep(expo):
        # drop exponents that overflow the truncation in either grading;
        # exponents outside either monoid are kept so mismatches surface
        for grading, rel in ((diag2.grading, _vsub(expo, m02)),
                             (diag.grading, _vsub(shear(expo, -s), m0))):
            c = grading.coefficients(rel)
            if c is not None and all(x >= 0 for x in c) and sum(c) > order:
                return False
        return True

    left = {e: p for e, p in mapped.items() if keep(e)}
    right = {e: p for e, p in th2.value.terms.items() if keep(e)}
    if left != right:
        raise AssertionError("theta transport mismatch under T_k")
    return TruncatedLaurent(diag2.grading, order, m02, left)


# ---------------------------------------------------------------------------
# g-vectors and sign coherence


def g_vector(fixed, seed, word, i):
    """f_i of the seed at the mutation word, in the initial f-basis."""
    _check_direction(fixed, i, unfrozen=False)
    return mutate_word(fixed, seed, word).f_vectors[i]


def sign_coherence_check(fixed, seed, depth):
    """Each coordinate of the g-vectors of a seed has a weak common sign."""
    for word, sd in mutation_walk(fixed, seed, depth):
        G = sd.f_vectors
        for c in range(fixed.n):
            col = [G[i][c] for i in range(fixed.n)]
            if any(x > 0 for x in col) and any(x < 0 for x in col):
                return False, word
    return True, None


# ---------------------------------------------------------------------------
# structure constants


def structure_constant(diag, p1, p2, q, z, order=None):
    """alpha_z(p1, p2, q) = sum of c(g1) c(g2) over broken-line pairs at z (theta_0 = 1)."""
    order = _order(diag, order)
    z, q = _point(z), _exponent(diag, q)
    qi, ps = _endpoint(diag, (p1, p2), z, order, "structure-constant base point lies on a wall")
    t1, t2 = (_value_terms(diag, p, qi, order) if any(p) else {p: 1} for p in ps)
    return sum(c1 * t2[_vsub(q, e1)] for e1, c1 in t1.items() if _vsub(q, e1) in t2)


def generic_near(diag, q, m0=None, order=None):
    """A deterministic generic rational point close to the lattice point q.

    Given m0, it also avoids the points where a broken line from m0 would
    end on a segment through the origin.
    """
    q, order = _point(q), _order(diag, order)
    m0 = (0,) * diag.dim if m0 is None else _exponent(diag, m0)
    for K in (97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149):
        z = (q[0] + Fraction(1, K), q[1] + Fraction(1, K * K))
        try:
            _endpoint(diag, (m0,), z, order)  # the origin has no direction: ValueError
            return z
        except ValueError:
            pass
    raise RuntimeError("no generic point found near %r" % (q,))


def product_expansion_check(diag, p1, p2, Q, order=None):
    """Verify theta_{p1} * theta_{p2} = sum_q alpha_{z(q)}(p1,p2,q) theta_q."""
    order = _order(diag, order)
    lhs = theta(diag, Q, p1, order).value * theta(diag, Q, p2, order).value
    base = _vadd(p1, p2)
    rhs = TruncatedLaurent(diag.grading, order, base, {})
    for q in _monoid_points(diag, base, order):
        alpha = structure_constant(diag, p1, p2, q, generic_near(diag, q), order)
        if alpha:
            rhs = rhs + theta(diag, Q, q, order).value * alpha
    return lhs.terms == rhs.terms, lhs, rhs


# ---------------------------------------------------------------------------
# reports


def theta_report(diag, result):
    """Deterministic text report: header, value, one witness per line."""
    lines = [
        "theta m0=(%s) Q=(%s) order=%d" % (
            ",".join(str(x) for x in result.initial),
            ",".join(str(Fraction(x)) for x in result.endpoint),
            result.value.order),
        "value: %s" % canonical_string(result.value),
    ]
    for line in result.witness_lines:
        rays = ";".join("(%d,%d)" % w.direction for w, _, _ in line.bends)
        pts = ";".join("(%s,%s)" % (Fraction(p[0]), Fraction(p[1]))
                       for _, p, _ in line.bends) or "-"
        trail = " -> ".join(
            ("%s*" % canonical_string(c) if c != 1 else "") + "z^(%s)" % ",".join(str(x) for x in e)
            for c, e, _, _ in line.segments)
        lines.append("line bends=%d rays=%s points=%s trail=%s"
                     % (len(line.bends), rays, pts, trail))
    return "\n".join(lines) + "\n"
