"""Broken lines, theta functions, g-vectors, sign coherence, structure constants.

Enumeration runs backward from the endpoint Q: fix a candidate final
exponent, walk the final segment backwards, and branch over wall crossings
where the line may have bent.  Every bend strictly decreases the degree
offset from the initial exponent, so the search is finite.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ring import CoeffPoly, TruncatedLaurent, _vadd, _vsub, canonical_string
from .scatter import (
    ScatteringDiagram,
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
        return (
            len(self.bends),
            tuple(w.direction for w, _, _ in self.bends),
            tuple(j for _, _, j in self.bends),
            self.segments[-1][1],
        )

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
    """All exponents m0 + (monoid combos of wall steps) with degree <= order."""
    steps = []
    for w in diag.walls:
        if not any(_cross(w.base, s) == 0 and _dot(w.base, s) > 0 for s in steps):
            steps.append(w.base)
    seen = {m0}
    frontier = [m0]
    while frontier:
        nxt = []
        for m in frontier:
            for s in steps:
                m2 = _vadd(m, s)
                if m2 in seen:
                    continue
                if diag.grading.degree(_vsub(m2, m0)) <= order:
                    seen.add(m2)
                    nxt.append(m2)
        frontier = nxt
    return sorted(seen)


def _segment_hits_origin(point, mdir):
    """Does {point + t*mdir : t > 0} pass through the origin?"""
    return _cross(point, mdir) == 0 and (point[0] * mdir[0] + point[1] * mdir[1]) < 0


def _crossings(diag, point, mdir):
    """Wall crossings of the backward ray {point + t*mdir : t > 0}.

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


def _bend_factor(wall, m_prev, j):
    """Coefficient of z^{j*base} in f^{|<n, m_prev>|}; zero if non-transverse."""
    power = abs(_dot(wall.normal, m_prev))
    if power == 0:
        return CoeffPoly.zero()
    g = wall.power(power)
    return g[j] if j < len(g) else CoeffPoly.zero()


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
        rel = _vsub(m_cur, m0)
        coeffs = diag.grading.coefficients(rel)
        if coeffs is None or any(c < 0 for c in coeffs):
            return
        budget = sum(coeffs)
        for wall, p in _crossings(diag, point, m_cur):
            for j in range(1, int(budget // diag.grading.degree(wall.base)) + 1):
                m_prev = _vsub(m_cur, tuple(j * x for x in wall.base))
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


def validate_broken_line(diag, line, m0, Q):
    """Re-check the defining conditions of a broken line by expansion."""
    c0, e0 = line.segments[0][0], line.segments[0][1]
    if not c0.is_one() or tuple(e0) != tuple(m0):
        return False
    if line.segments[-1][3] != tuple(Fraction(x) for x in Q):
        return False
    for (c, e, start, end) in line.segments:
        if start is not None:
            diff = _vsub(end, start)
            lam = None
            for a, b in zip(diff, e):
                if b:
                    lam = Fraction(a) / b
            # direction of travel is -e
            if lam is None or lam >= 0 or any(Fraction(a) != lam * b for a, b in zip(diff, e)):
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
    home = None
    for word, cone in chambers(diag, depth):
        if cone_contains(cone, m0):
            home = cone
            break
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
        rel2 = diag2.grading.coefficients(_vsub(expo, m02))
        if rel2 is not None and all(c >= 0 for c in rel2) and sum(rel2) > order:
            return False
        rel1 = diag.grading.coefficients(_vsub(shear(expo, -s), m0))
        if rel1 is not None and all(c >= 0 for c in rel1) and sum(rel1) > order:
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


def _sector_key(diag, point):
    return tuple(
        (1 if _cross(d, point) > 0 else (-1 if _cross(d, point) < 0 else 0))
        for d in diag.support_directions())


def _final_monomials(diag, m0, z, order, cache):
    key = (tuple(m0), _sector_key(diag, z), order)
    if key not in cache:
        lines = enumerate_broken_lines(diag, m0, z, order)
        cache[key] = [line.final_monomial for line in lines]
    return cache[key]


def structure_constant(diag, p1, p2, q, z, order=None, _cache=None):
    """alpha_z(p1, p2, q) = sum of c(g1) c(g2) over broken-line pairs at z."""
    order = _order(diag, order)
    z = tuple(Fraction(x) for x in z)
    if diag.on_support(z):
        raise ValueError("structure-constant base point lies on a wall")
    cache = _cache if _cache is not None else {}
    m1 = _final_monomials(diag, p1, z, order, cache)
    m2 = _final_monomials(diag, p2, z, order, cache)
    q = tuple(int(x) for x in q)
    total = CoeffPoly.zero()
    for c1, e1 in m1:
        for c2, e2 in m2:
            if _vadd(e1, e2) == q:
                total = total + c1 * c2
    return total


def generic_near(diag, q):
    """A deterministic generic rational point close to the lattice point q."""
    primes = [97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149]
    for K in primes:
        z = (Fraction(q[0]) + Fraction(1, K), Fraction(q[1]) + Fraction(1, K * K))
        if not diag.on_support(z) and any(z):
            return z
    raise RuntimeError("no generic point found near %r" % (q,))


def product_expansion_check(diag, p1, p2, Q, order=None):
    """Verify theta_{p1} * theta_{p2} = sum_q alpha_{z(q)}(p1,p2,q) theta_q."""
    order = _order(diag, order)
    th1 = theta(diag, Q, p1, order).value
    th2 = theta(diag, Q, p2, order).value
    lhs = th1 * th2
    base = _vadd(p1, p2)
    cache = {}
    rhs = TruncatedLaurent(diag.grading, order, base, {})
    for q in _monoid_points(diag, base, order):
        alpha = structure_constant(diag, p1, p2, q, generic_near(diag, q),
                                   order, _cache=cache)
        if not alpha:
            continue
        thq = theta(diag, Q, q, order).value
        rhs = rhs + thq * alpha
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
