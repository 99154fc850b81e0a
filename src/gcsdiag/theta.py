"""Broken lines, theta functions, g-vectors, sign coherence, structure constants.

Walls are cones from the origin, so a broken line scaled by lam > 0 is one
too.  Enumeration runs forward from m0 once per (diagram, m0, order): the
first bend is at the primitive vector of its ray, and from a bend point P
with exponent m the next bend is on any wall that {P - t*m : t > 0} crosses.
Bends raise the degree over m0, which the order bounds.  A chain ending at
P with exponent m reaches exactly the Q = lam*P - t*m with lam, t > 0: the
broken lines ending at Q are the chains whose cone holds Q, scaled by lam.
A bend point is sc*d, d its ray's integral direction and sc > 0, so every
test of the search and of the cone is the sign of an integer cross product.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ring import CoeffPoly, TruncatedLaurent, _vadd, _vsub, canonical_string
from .scatter import (
    _cross,
    _dot,
    _prim,
    _rays,
    chambers,
    cone_contains,
    complete_rank2,
    initial_diagram,
    path_between,
    path_ordered_product,
    tk_shear,
)
from .seed import mutate_seed, mutate_word, mutation_walk


class EndpointNotGeneric(ValueError):
    """The final segment of a candidate broken line runs through the origin."""


# ---------------------------------------------------------------------------
# broken lines


class BrokenLine:
    """Piecewise-linear path from infinity to Q with attached monomials.

    segments: ordered (coeff, exponent, start, end); the first start is None
    (from infinity).  bends: (wall, point, step) per junction; a stored chain
    has no points and its bends are (wall, d, sc, step), at the point sc*d.
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

    def scaled(self, lam, Q):
        """The line of a stored chain with its bend points lam*sc*d, ending at Q."""
        ks = [lam * sc for _, _, sc, _ in self.bends]
        pts = [(k * b[1][0], k * b[1][1]) for k, b in zip(ks, self.bends)]
        segments = [(c, e, p0, p1) for (c, e, _, _), p0, p1
                    in zip(self.segments, [None] + pts, pts + [Q])]
        return BrokenLine(segments, [(w, p, j) for (w, _, _, j), p in zip(self.bends, pts)])

    def __repr__(self):
        return "BrokenLine(%s)" % " -> ".join(
            "%sz^%s" % ("" if c.is_one() else "(%s)*" % c, (e,)) for c, e, _, _ in self.segments)


def _order(diag, order):
    """The truncation order of a query, by default the diagram's; never above it."""
    if order is None:
        return diag.order
    if order > diag.order:
        raise ValueError("order %s exceeds the diagram's order %s" % (order, diag.order))
    return order


def _monoid_points(diag, m0, order):
    """m0 + the monoid combos of wall steps of degree <= order, sorted (memoised per order)."""
    offsets = diag._offsets.get(order)
    if offsets is None:
        steps = {w.base for w in diag.walls}  # primitive, so parallel bases are equal
        seen = {(0,) * diag.dim}
        frontier = list(seen)
        while frontier:
            nxt = []
            for m in frontier:
                for s in steps:
                    m2 = _vadd(m, s)
                    if m2 not in seen and diag.grading.degree(m2) <= order:
                        seen.add(m2)
                        nxt.append(m2)
            frontier = nxt
        offsets = diag._offsets[order] = sorted(seen)
    return [_vadd(m0, o) for o in offsets]


def _segment_hits_origin(d, mdir):
    """Does {sc*d + t*mdir : t > 0}, for any sc > 0, pass through the origin?"""
    return _cross(d, mdir) == 0 and (d[0] * mdir[0] + d[1] * mdir[1]) < 0


def _crossings(rays, d, sc, mdir):
    """Wall crossings (wall, s, lam) of the ray {sc*d + t*mdir : t > 0}, sc > 0.

    It meets the wall ray s at sc*d + t*mdir = lam*s, lam, t > 0 (the origin is
    singular): lam = sc*cross(d, mdir)/cross(s, mdir), t = sc*cross(d, s)/cross(s, mdir).
    """
    out = []
    c = _cross(d, mdir)
    for w, s in rays:
        den = _cross(s, mdir)
        if c * den > 0 and _cross(d, s) * den > 0:
            out.append((w, s, Fraction(sc.numerator * c, sc.denominator * den)))
    return out


def _bend_factor(wall, m_prev, j):
    """Coefficient of z^{j*base} in f^{|<n, m_prev>|}; zero if non-transverse."""
    power = abs(_dot(wall.normal, m_prev))
    if power == 0:
        return CoeffPoly.zero()
    g = wall.power(power)
    return g[j] if j < len(g) else CoeffPoly.zero()


def _chains(diag, m0, order):
    """(chains, ends) for m0 up to order, memoised on the diagram.

    A chain is a broken line whose first bend is the primitive vector of its
    ray and whose segments carry no points, in report order (sort_key, then
    the walls met walking back).  ends maps d to the least m of degree <=
    order over m0 with prim(m) = d: a final segment z^m ending on -d hits 0.
    """
    memo = diag._chains.get((m0, order))
    if memo is not None:
        return memo
    found = []
    rays = [(w, s) for w in diag.walls for s in _rays(w)]

    def visit(crossings, m, degree, bends, monos):
        found.append(BrokenLine(monos, bends))
        for wall, d, sc in crossings:
            step = diag.grading.degree(wall.base)
            for j in range(1, (order - degree) // step + 1):
                factor = _bend_factor(wall, m, j)
                if factor:
                    m2 = _vadd(m, tuple(j * x for x in wall.base))
                    mdir = (-m2[0], -m2[1])
                    nxt = [] if _segment_hits_origin(d, mdir) else _crossings(rays, d, sc, mdir)
                    visit(nxt, m2, degree + j * step, bends + [(wall, d, sc, j)],
                          monos + [(monos[-1][0] * factor, m2, None, None)])

    # the segment from infinity may bend anywhere on a wall (a parallel wall
    # gives a zero bend factor)
    visit([(w, _prim(s), 1) for w, s in rays], m0, 0, [], [(CoeffPoly.one(), m0, None, None)])
    index = {id(w): i for i, w in enumerate(diag.walls)}
    found.sort(key=lambda c: (c.sort_key(), [index[id(b[0])] for b in reversed(c.bends)]))
    ends = {_prim(m): m for m in reversed(_monoid_points(diag, m0, order)) if any(m)}
    memo = diag._chains[(m0, order)] = (found, ends)
    return memo


def _through_origin(diag, m0, qdir, order=None):
    """The exponent of a final segment ending on the ray qdir through the origin, or None."""
    if not any(m0):
        return None
    ends = _chains(diag, tuple(int(x) for x in m0), _order(diag, order))[1]
    return ends.get((-qdir[0], -qdir[1]))


def enumerate_broken_lines(diag, m0, Q, order=None):
    """All broken lines with initial exponent m0 and endpoint Q.

    Q must be generic: off the support, and off every line through the
    origin that a final segment could run along; else ValueError.
    """
    if diag.dim != 2:
        raise ValueError("broken lines need plane exponents")
    order = _order(diag, order)
    m0 = tuple(int(x) for x in m0)
    if not any(m0):
        raise ValueError("initial exponent must be nonzero")
    Q = tuple(Fraction(x) for x in Q)
    if diag.on_support(Q):
        raise ValueError("endpoint lies on the diagram support; perturb it")
    qi = _direction_of(Q)
    m_f = _through_origin(diag, m0, qi, order)
    if m_f is not None:
        raise EndpointNotGeneric(
            "endpoint is not generic: a final segment with exponent %r "
            "runs through the origin; perturb it" % (m_f,))
    qs = Q[0] / qi[0] if qi[0] else Q[1] / qi[1]  # Q = qs*qi
    lines = []
    for chain in _chains(diag, m0, order)[0]:
        lam = 1
        if chain.bends:
            _, d, sc, _ = chain.bends[-1]
            m = chain.segments[-1][1]
            den, num = _cross(d, m), _cross(qi, m)
            # Q = lam*sc*d - t*m, lam = qs*num/(sc*den), t = qs*cross(qi, d)/den; both > 0
            if num * den <= 0 or _cross(qi, d) * den <= 0:
                continue
            lam = Fraction(qs.numerator * num * sc.denominator,
                           qs.denominator * sc.numerator * den)
        lines.append(chain.scaled(lam, Q))
    return lines


def validate_broken_line(diag, line, m0, Q):
    """Re-check the defining conditions of a broken line by expansion."""
    c0, e0 = line.segments[0][0], line.segments[0][1]
    if not c0.is_one() or tuple(e0) != tuple(m0):
        return False
    if line.segments[-1][3] != tuple(Fraction(x) for x in Q):
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
    __slots__ = ("value", "witness_lines", "endpoint", "initial")

    def __init__(self, value, witness_lines, endpoint, initial):
        self.value = value
        self.witness_lines = witness_lines
        self.endpoint = endpoint
        self.initial = initial


def theta(diag, Q, m0, order=None):
    """Sum of final monomials over all broken lines (1 when m0 = 0)."""
    order = _order(diag, order)
    m0 = tuple(int(x) for x in m0)
    if not any(m0):
        return ThetaResult(TruncatedLaurent.one(diag.grading, order), [],
                           tuple(Fraction(x) for x in Q), m0)
    lines = enumerate_broken_lines(diag, m0, Q, order)
    terms = {}
    for line in lines:
        coeff, expo = line.final_monomial
        terms[expo] = terms.get(expo, CoeffPoly.zero()) + coeff
    value = TruncatedLaurent(diag.grading, order, m0, terms)
    return ThetaResult(value, lines, tuple(Fraction(x) for x in Q), m0)


def _direction_of(point):
    fr = [Fraction(x) for x in point]
    den = math.lcm(*[f.denominator for f in fr])
    return _prim(tuple(int(f * den) for f in fr))


def theta_via_path(diag, Q, m0, order=None, depth=8):
    """p_gamma(z^{m0}) from the cluster chamber of m0 to the chamber of Q."""
    order = _order(diag, order)
    m0 = tuple(int(x) for x in m0)
    home = next((cone for _, cone in chambers(diag, depth) if cone_contains(cone, m0)), None)
    if home is None:
        raise ValueError("initial exponent is outside the computed cluster complex")
    start = _vadd(home[0], home[1])
    if diag.on_support(start):
        raise ValueError("degenerate chamber representative")
    start_dir = _prim(start)
    end_dir = _direction_of(Q)
    s = TruncatedLaurent.monomial(diag.grading, order, m0)
    return path_ordered_product(diag, path_between(diag, start_dir, end_dir), s)


def theta_Tk_transport(diag, k, Q, m0, order=None):
    """T_{k,+/-} transport of theta, checked against the mutated diagram."""
    order = _order(diag, order)
    fixed = diag.fixed
    shear = tk_shear(fixed, diag.seed, k)
    Q = tuple(Fraction(x) for x in Q)
    m0 = tuple(int(x) for x in m0)
    th = theta(diag, Q, m0, order)

    s = 1 if Q[k] >= 0 else 0
    mapped = {}
    for expo, poly in th.value.terms.items():
        key = shear(expo, s)
        mapped[key] = mapped.get(key, CoeffPoly.zero()) + poly

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
    """alpha_z(p1, p2, q) = sum of c(g1) c(g2) over broken-line pairs at z."""
    order = _order(diag, order)
    z = tuple(Fraction(x) for x in z)
    if diag.on_support(z):
        raise ValueError("structure-constant base point lies on a wall")
    m1 = [line.final_monomial for line in enumerate_broken_lines(diag, p1, z, order)]
    m2 = m1 if tuple(p2) == tuple(p1) else [
        line.final_monomial for line in enumerate_broken_lines(diag, p2, z, order)]
    q = tuple(int(x) for x in q)
    return sum((c1 * c2 for c1, e1 in m1 for c2, e2 in m2 if _vadd(e1, e2) == q),
               CoeffPoly.zero())


def generic_near(diag, q, m0=None, order=None):
    """A deterministic generic rational point close to the lattice point q.

    Given m0, it also avoids the points where a broken line from m0 would
    end on a segment through the origin.
    """
    primes = [97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149]
    for K in primes:
        z = (Fraction(q[0]) + Fraction(1, K), Fraction(q[1]) + Fraction(1, K * K))
        if (not diag.on_support(z) and any(z)
                and (m0 is None or _through_origin(diag, m0, _direction_of(z), order) is None)):
            return z
    raise RuntimeError("no generic point found near %r" % (q,))


def product_expansion_check(diag, p1, p2, Q, order=None):
    """Verify theta_{p1} * theta_{p2} = sum_q alpha_{z(q)}(p1,p2,q) theta_q."""
    order = _order(diag, order)
    th1 = theta(diag, Q, p1, order).value
    th2 = theta(diag, Q, p2, order).value
    lhs = th1 * th2
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

    def fr(x):
        x = Fraction(x)
        return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)

    lines = [
        "theta m0=(%s) Q=(%s) order=%d" % (
            ",".join(str(x) for x in result.initial),
            ",".join(fr(x) for x in result.endpoint),
            result.value.order),
        "value: %s" % canonical_string(result.value),
    ]
    for line in result.witness_lines:
        rays = ";".join("(%d,%d)" % w.direction for w, _, _ in line.bends)
        pts = ";".join("(%s,%s)" % (fr(p[0]), fr(p[1]))
                       for _, p, _ in line.bends) or "-"
        trail = " -> ".join(
            ("%s*" % canonical_string(c) if not c.is_one() else "") + "z^(%s)" % ",".join(str(x) for x in e)
            for c, e, _, _ in line.segments)
        lines.append("line bends=%d rays=%s points=%s trail=%s"
                     % (len(line.bends), rays, pts, trail))
    return "\n".join(lines) + "\n"
