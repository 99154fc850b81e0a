"""Walls, initial diagrams, wall-crossing and rank-2 consistency completion.

Diagram geometry is specialized to a 2-plane (the span of the unfrozen
directions); exponents may live in a bigger lattice (principal coefficients)
and are projected onto the plane for geometry and crossing powers.

Normals are stored in the integral basis {d_i e_i} of N°, so every crossing
power is a plain integer dot product with the projected exponent.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from fractions import Fraction
from functools import cmp_to_key

from .ring import Grading, TruncatedLaurent, _vsub, canonical_string, demote, unit_power_coeffs
from .seed import (_check_direction, epsilon, mutate_seed, mutation_walk, principal_data,
                   serialize_seed_file)

# ---------------------------------------------------------------------------
# exact 2-plane geometry


def _prim(v):
    g = math.gcd(*[abs(int(x)) for x in v])
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    return tuple(int(x) // g for x in v)


def _point(Q):
    """Q as a pair of Fractions, kept where given; ValueError unless it is a plane point."""
    try:
        Q = tuple(x if type(x) is Fraction else Fraction(x) for x in Q)
    except (OverflowError, ValueError):  # an infinite or NaN coordinate
        raise ValueError("point %r is not a rational plane point" % (Q,)) from None
    if len(Q) != 2:
        raise ValueError("point %r is not in the plane" % (Q,))
    return Q


def _direction_of(point):
    """The primitive integral direction of a nonzero rational plane point."""
    x, y = point
    a, b = x.numerator * y.denominator, y.numerator * x.denominator
    g = math.gcd(a, b)
    return (a // g, b // g) if g else _prim((a, b))  # _prim raises on the origin


def _perp_normal(mdir):
    """Primitive plane normal of an exponent direction, first nonzero > 0."""
    n = (-mdir[1], mdir[0])
    lead = n[0] if n[0] else n[1]
    if lead < 0:
        n = (-n[0], -n[1])
    return _prim(n)


def _rot90(p):
    return (-p[1], p[0])


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _half(v):
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _ang_cmp(a, b):
    """Counterclockwise angular order starting at the positive x-axis."""
    ha, hb = _half(a), _half(b)
    if ha != hb:
        return -1 if ha < hb else 1
    c = _cross(a, b)
    return (c < 0) - (c > 0)


_by_angle = cmp_to_key(_ang_cmp)


def _event_angle(event):
    return _by_angle(event[0])


def _line_rep(v):
    """Canonical direction of a full line: angle in [0, pi)."""
    v = _prim(v)
    return v if _half(v) == 0 else (-v[0], -v[1])


# ---------------------------------------------------------------------------
# walls and diagrams


class Wall:
    """Support (ray or full line in the plane), crossing normal and function.

    base is the primitive exponent step in the full lattice; the function is
    the unit series sum_j coeffs[j] z^{j*base}, coeffs[0] = 1, held for j up
    to order / deg(base).  coeffs is never reassigned, so the powers memoised
    by power() stay valid for the wall's lifetime; a changed function means
    a new Wall.
    """

    __slots__ = ("kind", "direction", "normal", "base", "coeffs", "_powers")

    def __init__(self, kind, direction, normal, base, coeffs):
        self.kind = kind
        self.direction = tuple(direction)
        self.normal = tuple(normal)
        self.base = tuple(base)
        self.coeffs = coeffs
        self._powers = {}

    def power(self, p):
        """The coefficient list of the function ** p, computed once per wall and exponent."""
        g = self._powers.get(p)
        if g is None:
            g = self._powers[p] = unit_power_coeffs(self.coeffs, p, len(self.coeffs) - 1)
        return g

    def __repr__(self):
        return "Wall(%s dir=%s normal=%s base=%s coeffs=[%s])" % (
            self.kind, self.direction, self.normal, self.base,
            ", ".join(canonical_string(c) for c in self.coeffs))


def _wall(kind, direction, step, coeffs, grading, order, proj):
    """The wall of sum_j coeffs[j] z^{j*step}, coeffs[0] = 1, or None if that is 1 at this order.

    step is a positive multiple g of the primitive base, so coeffs[j] moves
    to index g*j of the list in z^base, which is cut at order / deg(base).
    A constant coefficient is demoted to a number.
    """
    base, g = _prim(step), math.gcd(*step)
    top = order // grading.degree(base)
    out = [1] + [0] * top
    for j in range(1, min(len(coeffs) - 1, top // g) + 1):
        out[g * j] = demote(coeffs[j])
    if not any(out[1:]):
        return None
    pb = _prim(tuple(base[i] for i in proj))
    return Wall(kind, direction, _perp_normal(pb), base, out)


def _rays(wall):
    """A wall's support as rays from the origin: a line is two opposite rays."""
    d = wall.direction
    return (d, (-d[0], -d[1])) if wall.kind == "line" else (d,)


def _crossing_sign(normal, p):
    """Sign of the crossing of a wall on the ray p by a ccw loop."""
    s = _dot(normal, _rot90(p))
    if s == 0:
        raise ValueError("wall normal parallel to its own support")
    return -1 if s > 0 else 1


class ScatteringDiagram:
    """A finite wall collection with diagram-wide truncation order.

    It owns the geometry: the (direction, wall, sign) crossing events of a
    ccw loop, stably sorted by angle, which answer every crossing question;
    the walls, read off the events at their own directions; and the distinct
    primitive directions, each with the span of its events.  Its walls never
    change, so theta memoises its values per chamber on it.
    """

    def __init__(self, fixed, seed, order, grading, walls, proj):
        self.fixed = fixed
        self.seed = seed
        self.order = order
        self.grading = grading
        self.proj = tuple(proj)
        self.dim = grading.dim
        self._index(sorted(((p, w, _crossing_sign(w.normal, p)) for w in walls for p in _rays(w)),
                           key=_event_angle))

    def _index(self, events):
        """Take the (direction, wall, sign) events in angular order; each wall is listed at the
        event of its own direction, so the walls are sorted by direction, ties in input order."""
        self.events, spans = events, {}
        self.walls = [w for p, w, _ in events if p == w.direction]
        rays = self._event_rays = [p for p, _, _ in events]
        # wall directions are primitive, so a direction's events are adjacent: its span [first, end)
        for i, p in enumerate(rays):
            spans[p] = (spans[p][0] if p in spans else i, i + 1)
        self._spans, self.directions, self._direction_set = spans, list(spans), frozenset(spans)
        # theta's values per (m0, order, chamber); a derived diagram has
        # other walls and starts empty
        self._thetas = {}

    def project(self, expo):
        return tuple(expo[i] for i in self.proj)

    def basis_exponents(self):
        """Plane basis monom exponents: the f-lattice units of the plane."""
        return [tuple(1 if j == i else 0 for j in range(self.dim)) for i in self.proj]

    def function(self, wall):
        """A wall's function as a series in the diagram's grading and at its order."""
        return TruncatedLaurent.within(
            self.grading, self.order, (0,) * self.dim,
            {tuple(j * b for b in wall.base): c for j, c in enumerate(wall.coeffs) if c})

    def on_support(self, point):
        """Whether a rational plane point is on a wall ray (the origin is, if there is a wall)."""
        point = _point(point)
        return _direction_of(point) in self._direction_set if any(point) else bool(self.directions)


# ---------------------------------------------------------------------------
# initial diagrams


def _v_rows(fixed, seed):
    """v_i = p1*(e_i) rows in the initial f-basis for the current seed."""
    eps, F, n = epsilon(fixed, seed), seed.f_vectors, fixed.n
    return [tuple(sum(eps[i][j] * F[j][c] for j in range(n)) for c in range(n)) for i in range(n)]


def _seed_grading(fixed, seed):
    """The grading in which the seed's unfrozen v_i, in increasing i, have degree 1; ValueError
    unless there are two and p* is injective on their span (their plane points independent)."""
    uf = sorted(fixed.unfrozen)
    if len(uf) != 2:
        raise ValueError("rank-2 diagrams need exactly two unfrozen directions")
    vs = _v_rows(fixed, seed)
    if not _cross(*(tuple(vs[i][j] for j in uf) for i in uf)):
        raise ValueError("p* is not injective on the unfrozen span")
    return Grading([vs[i] for i in uf])


def initial_diagram(fixed, seed, order):
    """Incoming walls (e_i^perp, 1 + a_{i,1} z^{v_i} + ... + z^{r_i v_i})."""
    grading = _seed_grading(fixed, seed)
    proj = tuple(sorted(fixed.unfrozen))
    walls = [_wall("line", _line_rep(tuple(v[j] for j in proj)), v, seed.a_tuples[i], grading,
                   order, proj)
             for i, v in zip(proj, grading.generators)]
    return ScatteringDiagram(fixed, seed, order, grading, [w for w in walls if w], proj)


def initial_diagram_prin(fixed, seed, order):
    """Initial diagram of the principal-coefficient data (lifted exponents)."""
    fixed2, seed2 = principal_data(fixed, seed)
    return initial_diagram(fixed2, seed2, order)


# ---------------------------------------------------------------------------
# wall crossing and path-ordered products


def _product(path, series, proj):
    """The crossings (wall, sign) of path applied in order to series, truncated.

    Every term and step is on offset + the grading's monoid (else ValueError),
    so a term is keyed by its scaled coordinates (A, B) as A*K + B, K = den*order
    + 1: a step adds the base's key, the pairing and the degree budget are
    linear in (A, B), and B <= den*order < K keeps the keys apart.  Zeros go
    after each crossing; the keys are decoded once, at the end.
    """
    grading, order, offset = series.grading, series.order, series.offset
    den, (g1, g2), (i0, i1) = grading.den, grading.generators, proj
    top = den * order
    K = top + 1
    terms = {}
    for expo, poly in series.terms.items():
        if grading.degree(_vsub(expo, offset)) > order:
            raise ValueError("term z^%r is above the series' order %s" % (expo, order))
        a, b = grading.scaled_coordinates(_vsub(expo, offset))
        terms[a * K + b] = poly
    for wall, sign in path:
        grading.degree(wall.base)  # on the span and in the cone
        a, b = grading.scaled_coordinates(wall.base)
        step, kstep = a + b, a * K + b
        # sign * <n, m> for m = offset + (A*g1 + B*g2) / den, an exact division
        n0, n1 = sign * wall.normal[0], sign * wall.normal[1]
        pa, pb = n0 * g1[i0] + n1 * g1[i1], n0 * g2[i0] + n1 * g2[i1]
        p0 = n0 * offset[i0] + n1 * offset[i1]
        for key, poly in list(terms.items()):
            a, b = divmod(key, K)
            p, jmax = (a * pa + b * pb) // den + p0, (top - a - b) // step
            if not p or jmax < 1:  # no room for a step: the power is not needed
                continue
            g = wall._powers.get(p) or wall.power(p)
            for j in range(1, min(len(g) - 1, jmax) + 1):
                key += kstep
                if g[j]:
                    terms[key] = terms[key] + poly * g[j] if key in terms else poly * g[j]
        terms = {key: poly for key, poly in terms.items() if poly}
    return TruncatedLaurent.within(grading, order, offset, {
        tuple(o + (key // K * x + key % K * y) // den for o, x, y in zip(offset, g1, g2)): poly
        for key, poly in terms.items()})


def wall_cross(wall, sign, series, proj):
    """z^m -> z^m f^{sign * <n0', m>}, extended linearly and truncated."""
    return _product(((wall, sign),), series, proj)


def path_ordered_product(diag, path, series):
    """Apply crossings (wall, sign) in order to a series."""
    return _product(path, series, diag.proj)


def _events_after(diag, start_dir):
    """The diagram's events rotated to begin at the first direction ccw after start_dir."""
    i = bisect_right(diag._event_rays, _by_angle(start_dir), key=_by_angle)
    return diag.events[i:] + diag.events[:i]


def _chamber_ray(dirs, k, hits=None):
    """A ray strictly inside chamber k, the ccw arc from dirs[k-1] to dirs[k], for which hits
    (by default none) is false.  With a, b those directions (b a quarter turn past a if the
    arc is pi or more), it is the first of a + b, 4a + 5b, 20a + 21b, ... that hits misses:
    these outgrow in degree any finite set of directions that hits."""
    a, b = dirs[k - 1], dirs[k]
    b, i, j = b if _cross(a, b) > 0 else _rot90(a), 1, 1
    while True:
        p = _prim((i * a[0] + j * b[0], i * a[1] + j * b[1]))
        if hits is None or not hits(p):
            return p
        i, j = 4 * j, 4 * j + 1


def _chamber_reps(dirs):
    """One ray inside each chamber of the sorted directions, chamber k ending at dirs[k]."""
    return [_chamber_ray(dirs, k) for k in range(len(dirs))]


def loop_product(diag, series):
    """Full ccw loop around the origin, based in the chamber after the first direction.

    A move of the base conjugates by 1 + higher terms, so every chamber gives the same
    lowest defect; this one is the cheapest, 7x below events[0] (README, Completion).
    """
    events = _events_after(diag, diag.directions[0]) if diag.directions else ()
    return _product(((wall, sign) for _, wall, sign in events), series, diag.proj)


def path_between(diag, start_dir, end_dir):
    """Crossing path along the ccw arc from start_dir to end_dir, both excluded."""
    c = _ang_cmp(start_dir, end_dir)
    if c == 0:
        return []
    rays, events = diag._event_rays, diag.events
    i = bisect_right(rays, _by_angle(start_dir), key=_by_angle)  # events at or before start_dir
    j = bisect_left(rays, _by_angle(end_dir), key=_by_angle)  # events before end_dir
    arc = events[i:j] if c < 0 else events[i:] + events[:j]
    return [(w, s) for _, w, s in arc]


def _crossed(diag, d, mdir):
    """Wall crossings (wall, s) of the ray {sc*d + t*mdir : t > 0}, sc > 0, d an event direction.

    They are the wall rays s strictly inside the arc (< pi) from d to mdir: a walk from d's
    events, ccw if cross(d, mdir) > 0 and cw if < 0, while cross(d, s) and cross(s, mdir)
    keep that sign (none if it is 0)."""
    c, events, (first, end) = _cross(d, mdir), diag.events, diag._spans[d]
    step, i = (1, end) if c > 0 else (-1, first - 1)
    out = []
    while True:  # d's own events fail the test, so the walk ends within one wrap
        p, w, _ = events[i % len(events)]
        if (d[0] * p[1] - d[1] * p[0]) * c <= 0 or (p[0] * mdir[1] - p[1] * mdir[0]) * c <= 0:
            return out
        out.append((w, p))
        i += step


# ---------------------------------------------------------------------------
# consistency and completion


def _lowest_defects(diag, order=None, monomials=None):
    """The least-degree terms of loop(z^m) - z^m over the monomials z^m, by default the basis.

    The loop runs at order, by default the diagram's; its terms of degree
    up to order are those of the loop at any higher order.  Returns
    (degree, [(u, index of m, coefficient of z^{m+u})]), or (None, []).
    """
    order = diag.order if order is None else order
    low, terms = None, []
    for bi, m in enumerate(diag.basis_exponents() if monomials is None else monomials):
        res = loop_product(diag, TruncatedLaurent.monomial(diag.grading, order, m))
        for expo, poly in res.terms.items():
            if expo == m:
                poly = poly - 1
            if not poly:
                continue
            u = tuple(x - y for x, y in zip(expo, m))
            deg = diag.grading.degree(u)
            if low is None or deg < low:
                low, terms = deg, []
            if deg == low:
                terms.append((u, bi, poly))
    return low, terms


def check_consistency(diag):
    """(True, None) if every loop acts as the identity, else (False, monomial).

    It reads every basis monomial on purpose: it is the check of completion's single loop.
    """
    _, terms = _lowest_defects(diag)
    if not terms:
        return True, None
    u, bi, _ = min(terms, key=lambda t: (t[1], t[0]))
    return False, tuple(x + y for x, y in zip(diag.basis_exponents()[bi], u))


def _reorder(diag, order):
    if order > diag.order:
        raise ValueError("cannot raise the order of a computed diagram")
    walls = []
    for w in diag.walls:
        coeffs = w.coeffs[:order // diag.grading.degree(w.base) + 1]
        if any(coeffs[1:]):  # a wall whose function truncates to 1 goes
            walls.append(Wall(w.kind, w.direction, w.normal, w.base, coeffs))
    return ScatteringDiagram(diag.fixed, diag.seed, order, diag.grading, walls, diag.proj)


def complete_rank2(diag):
    """Order-by-order consistency completion; adds only outgoing walls.

    Each pass cancels the lowest loop defect, read off the loop of z^g1 (g1
    the grading's first generator) alone: lines cancel modulo the terms
    a*g1 + b*g2 with b > 0, so unless a ray's base is parallel to g1 the
    loop's log has b > 0 and <n_u, g1> != 0 (README, Performance).  A
    diagram with such a ray reads every basis monomial.  A pass first probes
    the loop at order floor(last degree) + 1 (2 on the first pass): a defect
    found there is the lowest at every order.  Only a probe that finds none
    runs the loop at the diagram's order, which finds the next degree or
    proves the diagram consistent, so the returned diagram is checked at its
    order.  Each defect z^u is read off the first monomial z^m that shows it:
    the loop's lowest terms send z^m to z^m (1 + c <n_u, m> z^u), so the
    pairing is nonzero there and every such monomial gives the same c.  One
    table holds each ray's wall; a pass rebuilds at once the walls it adds
    to, so every other wall keeps its memoised powers.  The events are kept
    in angular order across passes: a new ray's goes in where the stable
    sort puts it, after those on its direction, and a rebuilt ray's replaces
    the old one in place, so no pass sorts.
    """
    g1 = diag.grading.generators[0]
    monomials = (diag.basis_exponents()
                 if any(w.kind == "ray" and not _cross(diag.project(w.base), diag.project(g1))
                        for w in diag.walls) else [g1])
    rays = {}  # plane direction -> its wall
    events = list(diag.events)
    last_deg = -1
    while True:
        # an empty diagram takes a copy of the events, which later passes change
        cur = ScatteringDiagram(diag.fixed, diag.seed, diag.order, diag.grading, [], diag.proj)
        cur._index(events[:])
        probe = min(max(math.floor(last_deg) + 1, 2), diag.order)
        dmin, defects = _lowest_defects(cur, probe, monomials)
        if not defects and probe < diag.order:
            dmin, defects = _lowest_defects(cur, None, monomials)
        if not defects:
            return cur
        if dmin <= last_deg:
            raise RuntimeError("completion failed to make progress at degree %s" % (dmin,))
        last_deg = dmin
        first = {}  # each defect u -> (monomial index, coefficient) where it first shows
        for u, bi, poly in defects:
            first.setdefault(u, (bi, poly))
        for u, (bi, poly) in first.items():
            mdir = _prim(cur.project(u))
            normal = _perp_normal(mdir)
            ray_dir = (-mdir[0], -mdir[1])
            sign = _crossing_sign(normal, ray_dir)
            den = sign * _dot(normal, cur.project(monomials[bi]))
            if not den:
                raise RuntimeError("defect %r cannot be cancelled by any wall" % (u,))
            # the ray's exponents lie in a rank-2 lattice that projects
            # injectively, so u is gcd(u) times the ray's primitive step, and
            # the degree rises each pass, so index gcd(u) is new to the ray;
            # the factor -1/den is an int when den is +-1
            j = math.gcd(*u)
            old = rays.get(ray_dir)
            coeffs = list(old.coeffs) if old else [1] + [0] * j
            coeffs[j] = poly * (-den if den in (1, -1) else Fraction(-1, den))
            wall = rays[ray_dir] = _wall("ray", ray_dir, _prim(u), coeffs, diag.grading,
                                         diag.order, diag.proj)
            if old:
                events[events.index((ray_dir, old, sign))] = (ray_dir, wall, sign)
            else:
                insort(events, (ray_dir, wall, sign), key=_event_angle)


# ---------------------------------------------------------------------------
# diagram mutation T_k


def tk_shear(fixed, seed, k):
    """The linear part of T_k: shear(m, s) = m + s * r_k * m[k] * v_k.

    T_k applies it with s = 1 on the half-plane m[k] > 0 and is the identity
    elsewhere; v_k[k] = 0, so s = -1 inverts it.  m is a lattice exponent,
    or a plane point where the plane is the lattice (rank 2, no frozen).
    """
    _check_direction(fixed, k)
    rk = fixed.r[k]
    vk = _v_rows(fixed, seed)[k]

    def shear(m, s=1):
        return tuple(x + s * rk * m[k] * y for x, y in zip(m, vk))

    return shear


def tk_order_boost(fixed, seed, k):
    """Smallest factor b such that T_k of a diagram of order b*N is exact at order N.

    Every wall exponent e lies in the cone of the old grading, and its image
    (e sheared or unchanged, by the side of its wall) in the cone of the new
    one.  On each such cone old(e)/new(image) is a ratio of linear forms, so
    its maximum is at an extreme ray: an old generator or the preimage of a
    new one.  Trying both images for every ray can only raise the bound.
    The ratio is den2 * scaled_degree1 / (den1 * scaled_degree2), in ints.
    """
    g1 = _seed_grading(fixed, seed)
    g2 = _seed_grading(fixed, mutate_seed(fixed, seed, k))
    shear = tk_shear(fixed, seed, k)
    boost = 1
    for s in (0, 1):
        for e in g1.generators + tuple(shear(v, -s) for v in g2.generators):
            image = shear(e, s)
            if all(c is not None and min(c) >= 0 and any(c)  # a positive degree in each monoid
                   for c in (g1.coefficients(e), g2.coefficients(image))):
                num, den = g2.den * g1.scaled_degree(e), g1.den * g2.scaled_degree(image)
                boost = max(boost, -(-num // den))  # the ceiling of the ratio
    return boost


def apply_Tk(diag, k):
    """Piecewise-linear mutation of a completed rank-2 diagram in direction k.

    Only implemented for diagrams whose exponent lattice is the plane itself.
    """
    fixed = diag.fixed
    _check_direction(fixed, k)
    if diag.dim != 2:
        raise ValueError("apply_Tk requires plane exponents")
    seed2 = mutate_seed(fixed, diag.seed, k)
    shear = tk_shear(fixed, diag.seed, k)
    vk = _v_rows(fixed, diag.seed)[k]
    grading2 = _seed_grading(fixed, seed2)
    walls = []
    for w in diag.walls:
        if w.kind == "line" and w.normal == tuple(1 if j == k else 0 for j in range(2)):
            # the k-wall: function replaced by the mutated exchange polynomial
            walls.append(_wall("line", w.direction, tuple(-x for x in vk),
                               diag.seed.a_tuples[k], grading2, diag.order, diag.proj))
            continue
        # T_k is injective on supports, so no two images share one
        for pdir in _rays(w):
            s = 1 if pdir[k] > 0 else 0  # H_{k,+}: map geometry and exponents
            walls.append(_wall("ray", _prim(shear(pdir, s)), shear(w.base, s), w.coeffs,
                               grading2, diag.order, diag.proj))
    return ScatteringDiagram(fixed, seed2, diag.order, grading2, [w for w in walls if w],
                             diag.proj)


# ---------------------------------------------------------------------------
# equivalence and chambers


def equivalence_check(d1, d2):
    """Path products agree on basis monomials after each direction of the merged support is
    crossed ccw, from the chamber that ends at the first, and so around the full loop."""
    paths = ({}, {})  # each diagram's crossings (wall, sign) per direction, in angular order
    for path, d in zip(paths, (d1, d2)):
        for p, w, s in d.events:
            path.setdefault(p, []).append((w, s))
    dirs = sorted(paths[0].keys() | paths[1].keys(), key=_by_angle)
    for m in d1.basis_exponents():
        s1 = TruncatedLaurent.monomial(d1.grading, d1.order, m)
        s2 = TruncatedLaurent.monomial(d2.grading, d2.order, m)
        for p in dirs:
            s1 = path_ordered_product(d1, paths[0].get(p, ()), s1)
            s2 = path_ordered_product(d2, paths[1].get(p, ()), s2)
            if s1.terms != s2.terms:
                return False
    return True


def _chamber_walk(diag, depth):
    """Lazily, each cluster chamber as (mutation word, g-vector cone) with the first word,
    of length up to depth, that reaches it."""
    seen = set()
    for word, sd in mutation_walk(diag.fixed, diag.seed, depth):
        cone = tuple(tuple(sd.f_vectors[i][j] for j in diag.proj) for i in diag.fixed.unfrozen)
        if frozenset(cone) not in seen:
            seen.add(frozenset(cone))
            yield word, cone


def chambers(diag, depth):
    """Cluster chambers as (mutation word, g-vector cone), words up to depth."""
    return list(_chamber_walk(diag, depth))


def cone_contains(cone, m):
    """Exact membership of a plane vector in the cone spanned by two rays."""
    a, b = cone
    c = _cross(a, b)
    if c == 0:
        raise ValueError("cone rays must be linearly independent")
    return _cross(a, m) * c >= 0 and _cross(m, b) * c >= 0


# ---------------------------------------------------------------------------
# principal slices and projections


def slice_to_X(prin_diag):
    """Restrict lifted exponents (p*(n), n) to z^n; supports in N-coordinates.

    Both gradings give (p*(n), n) and n the degree sum(n_i), so each wall
    keeps its coefficient list.
    """
    n = prin_diag.dim // 2
    uf = prin_diag.proj
    if len(uf) != n:
        raise ValueError("variant X needs a seed without frozen directions: "
                         "its walls are drawn in the plane of N")
    eps = epsilon(prin_diag.fixed, prin_diag.seed)

    def normal_x(normal):
        # X has no frozen direction, so normal has every coordinate of N; it is
        # already in the basis {d_i e_i} and eps holds the d_j, so no d_i enters here
        return tuple(sum(eps[i][j] * normal[j] for j in range(n)) for i in range(n))

    grading = Grading([tuple(1 if j == i else 0 for j in range(n)) for i in uf])
    walls = []
    for w in prin_diag.walls:
        base, nx = w.base[n:], normal_x(w.normal)
        if w.kind == "line":
            direction = _line_rep(_perp_normal(nx))
        else:
            # primitive: p*(n) is an integral combination of n, so gcd(p*(n), n) = gcd(n)
            direction = tuple(-x for x in base)
        walls.append(Wall(w.kind, direction, nx, base, w.coeffs))
    return ScatteringDiagram(prin_diag.fixed, prin_diag.seed, prin_diag.order,
                             grading, walls, tuple(range(2)))


def project_to_A(prin_diag):
    """Drop the N-component of every lifted exponent.

    The projection is injective on supports and keeps every exponent's
    degree, so each wall maps to one nontrivial wall.
    """
    n = prin_diag.dim // 2
    grading = Grading([tuple(g)[:n] for g in prin_diag.grading.generators])
    walls = [_wall(w.kind, w.direction, w.base[:n], w.coeffs, grading, prin_diag.order,
                   prin_diag.proj)
             for w in prin_diag.walls]
    return ScatteringDiagram(prin_diag.fixed, prin_diag.seed, prin_diag.order,
                             grading, walls, prin_diag.proj)


# ---------------------------------------------------------------------------
# dumps


def dump_diagram(diag, variant="A"):
    """Deterministic text dump: seed header, order, then angular wall list."""
    lines = ["order %d" % diag.order, "variant %s" % variant]
    lines.append(serialize_seed_file(diag.fixed, diag.seed).rstrip("\n"))
    lines.append("walls:")
    for w in diag.walls:
        lines.append("%s direction=(%d,%d) normal=(%s) f=%s" % (
            w.kind, w.direction[0], w.direction[1],
            ",".join(str(x) for x in w.normal),
            canonical_string(diag.function(w))))
    return "\n".join(lines) + "\n"
