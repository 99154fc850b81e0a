"""Generalized fixed data and torus seeds.

Seed mutation, the cluster-variable exchange recursion, principal
coefficients, companion algebras, the Langlands dual and c-/g-vectors.
All indices are 0-based internally; files and the CLI use 1-based indices.
"""

from __future__ import annotations

import heapq
import math
import operator
import re
from fractions import Fraction

from .ring import SYMBOL_NAME_RE, CoeffPoly, canonical_string


def _pos(x):
    return x if x > 0 else 0


def _ints(values, what):
    """values as a tuple of ints; ValueError naming what if one is not an integer."""
    values = tuple(values)
    if any(type(x) is not int and Fraction(x).denominator != 1 for x in values):
        raise ValueError("%s %s has a non-integral entry" % (what, list(values)))
    return tuple(int(x) for x in values)


# ---------------------------------------------------------------------------
# fixed data and seeds


class FixedData:
    """Mutation-invariant data: rank, weights d, degrees r, skew matrix B.

    B holds the initial epsilon matrix, b_ij = {e_i, e_j} d_j; a seed's own
    matrix, which its derived data read, is epsilon(fixed, seed).  The weights
    d may be rational (right companion data); everything downstream works in
    the integral basis {d_i e_i} so wall data stays integral.  The int
    weights w_i = L / d_i, L the lcm of d's numerators, put every check in ints.
    """

    def __init__(self, n, unfrozen, d, r, B):
        self.n = n
        self.unfrozen = tuple(unfrozen)
        self.d = tuple(Fraction(x) for x in d)
        self.r = _ints(r, "r")
        self.B = tuple(_ints(row, "B row") for row in B)
        if len(self.d) != n or len(self.r) != n or [len(row) for row in self.B] != [n] * n:
            raise ValueError("dimension mismatch in fixed data")
        if any(x <= 0 for x in self.d) or any(x <= 0 for x in self.r):
            raise ValueError("weights and degrees must be positive")
        if len(set(self.unfrozen)) != len(self.unfrozen) or not all(
                0 <= i < n for i in self.unfrozen):
            raise ValueError("unfrozen indices must be distinct and in 1..rank")
        L = math.lcm(*(x.numerator for x in self.d))
        self.w = w = tuple(L // x.numerator * x.denominator for x in self.d)
        for i in range(n):
            for j in range(n):
                if self.B[i][j] * w[j] != -self.B[j][i] * w[i]:  # B_ij / d_j = -B_ji / d_i
                    raise ValueError("B is not skew-symmetrizable by d")

    def __eq__(self, other):
        return isinstance(other, FixedData) and (
            (self.n, self.unfrozen, self.d, self.r, self.B)
            == (other.n, other.unfrozen, other.d, other.r, other.B)
        )

    def __repr__(self):
        return "FixedData(n=%d, d=%s, r=%s, B=%s)" % (self.n, self.d, self.r, self.B)


class GeneralizedTorusSeed:
    """A basis of N with reciprocal coefficient tuples.

    e_vectors are rows in the initial e-basis, f_vectors rows in the initial
    f-basis, a_tuples maps each unfrozen index to the full coefficient tuple
    (1, a_{i,1}, ..., a_{i,r_i-1}, 1) as CoeffPoly values; a number is lifted
    to its constant CoeffPoly.
    """

    def __init__(self, fixed, e_vectors, f_vectors, a_tuples):
        # a non-integral row is no vector of the lattice N or M
        self.e_vectors = tuple(_ints(v, "e- and f-vectors are not dual bases: e-vector")
                               for v in e_vectors)
        self.f_vectors = tuple(_ints(v, "e- and f-vectors are not dual bases: f-vector")
                               for v in f_vectors)
        if [len(v) for v in self.e_vectors + self.f_vectors] != [fixed.n] * (2 * fixed.n):
            raise ValueError("e- and f-vectors are not dual bases")
        if a_tuples.keys() != set(fixed.unfrozen):
            raise ValueError("coefficient tuples must be given for exactly the unfrozen "
                             "directions " + " ".join(str(i + 1) for i in sorted(fixed.unfrozen)))
        self.a_tuples = {i: tuple(c if type(c) is CoeffPoly else CoeffPoly.rational(c) for c in t)
                         for i, t in a_tuples.items()}
        for i in self.a_tuples:
            t = self.a_tuples[i]
            if len(t) != fixed.r[i] + 1 or t[0] != 1 or t[-1] != 1:
                raise ValueError("coefficient tuple for direction %d is not monic" % (i + 1,))
            for j in range(len(t)):
                if t[j] != t[len(t) - 1 - j]:
                    raise ValueError("coefficient tuple for direction %d is not reciprocal" % (i + 1,))
        # duality: d_i <e_i', f_j'> = sum_c e_c f_c w_c / w_i = delta_ij
        for i, (e, wi) in enumerate(zip(self.e_vectors, fixed.w)):
            for j, f in enumerate(self.f_vectors):
                if sum(x * y * w for x, y, w in zip(e, f, fixed.w)) != (wi if i == j else 0):
                    raise ValueError("e- and f-vectors are not dual bases")

    def __eq__(self, other):
        return isinstance(other, GeneralizedTorusSeed) and (
            (self.e_vectors, self.f_vectors, self.a_tuples)
            == (other.e_vectors, other.f_vectors, other.a_tuples)
        )

    def __repr__(self):
        return "GeneralizedTorusSeed(e=%s, f=%s)" % (self.e_vectors, self.f_vectors)


def make_initial_seed(fixed, a_tuples=None):
    """Identity seed; a_tuples optionally maps an unfrozen index to its coefficient tuple, by
    default (1, a_{i,1}, ..., 1) with a_{i,j} = a_{i,r-j}: reciprocity names the pair once."""
    n = fixed.n
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    a_tuples = dict(a_tuples or {})
    for i in fixed.unfrozen:
        if i not in a_tuples:
            r = fixed.r[i]
            a_tuples[i] = [1] + [CoeffPoly.symbol("a_{%d,%d}" % (i + 1, min(j, r - j)))
                                 for j in range(1, r)] + [1]
    return GeneralizedTorusSeed(fixed, ident, ident, a_tuples)


# ---------------------------------------------------------------------------
# epsilon and mutation


def epsilon(fixed, seed):
    """epsilon'_ij = {e_i', e_j'} d_j for the seed's current basis.

    With {e_a, e_b} = B_ab / d_b = B_ab w_b / L and d_j = L / w_j, that is
    sum_ab E_ia E_jb B_ab w_b / w_j: an int sum and one division.
    """
    n, E, w = fixed.n, seed.e_vectors, fixed.w
    out = []
    for i in range(n):
        eb = [sum(E[i][a] * fixed.B[a][b] for a in range(n)) * w[b] for b in range(n)]
        row = []
        for j in range(n):
            val, rem = divmod(sum(x * y for x, y in zip(eb, E[j])), w[j])
            if rem:
                raise ValueError("non-integral epsilon entry")
            row.append(val)
        out.append(tuple(row))
    return tuple(out)


def _check_direction(fixed, k, unfrozen=True):
    """ValueError unless k indexes a direction of the rank, an unfrozen one if asked."""
    if not 0 <= k < fixed.n:
        raise ValueError("direction index %d is out of range 0..%d" % (k, fixed.n - 1))
    if unfrozen and k not in fixed.unfrozen:
        raise ValueError("cannot mutate frozen direction %d" % (k + 1,))


def mutate_seed(fixed, seed, k):
    """Seed mutation in an unfrozen direction k.

    Of the two dual branch choices the sign-coherent one is taken: the sign
    of the c-vector in direction k selects the half-space, which makes the
    mutation an involution on the basis rows and keeps the e-/f-rows equal
    to the c-/g-vectors along arbitrary mutation words.
    """
    _check_direction(fixed, k)
    eps = epsilon(fixed, seed)
    rk = fixed.r[k]
    n = fixed.n
    delta = -1 if (any(x < 0 for x in seed.e_vectors[k])
                   and all(x <= 0 for x in seed.e_vectors[k])) else 1
    new_e = []
    for i in range(n):
        if i == k:
            new_e.append(tuple(-x for x in seed.e_vectors[k]))
        else:
            c = rk * _pos(delta * eps[i][k])
            new_e.append(tuple(x + c * y for x, y in zip(seed.e_vectors[i], seed.e_vectors[k])))
    new_f = list(seed.f_vectors)
    fk = [-x for x in seed.f_vectors[k]]
    for j in range(n):
        c = rk * _pos(-delta * eps[k][j])
        if c:
            fk = [x + c * y for x, y in zip(fk, seed.f_vectors[j])]
    new_f[k] = tuple(fk)
    # the tuple in direction k is reversed, which reciprocity (checked by the
    # constructor) makes the identity
    return GeneralizedTorusSeed(fixed, new_e, tuple(new_f), seed.a_tuples)


def mutate_word(fixed, seed, word):
    for k in word:
        seed = mutate_seed(fixed, seed, k)
    return seed


def mutation_walk(fixed, start, depth, step=None):
    """Breadth-first (word, state) over mutation words of length <= depth.

    Words never mutate one direction twice in a row.  A word's state is
    step(state of the word without its last letter, last letter); step is
    seed mutation unless given.
    """
    if step is None:
        def step(seed, k):
            return mutate_seed(fixed, seed, k)

    level = [((), start)]
    yield level[0]
    for _ in range(depth):
        nxt = []
        for word, state in level:
            for k in fixed.unfrozen:
                if not word or word[-1] != k:
                    nxt.append((word + (k,), step(state, k)))
                    yield nxt[-1]
        level = nxt


def c_vectors(seed):
    return seed.e_vectors


def g_vectors(seed):
    return seed.f_vectors


# ---------------------------------------------------------------------------
# cluster-variable recursion (trivial coefficients y = 1)
#
# A cluster variable is a Laurent polynomial {x-exponent: CoeffPoly} in the
# initial cluster.  Arithmetic runs on a flat form {key: coefficient}, where
# a key is the x-exponent followed by the exponents of the a-symbols `names`
# (sorted), so products add keys and tuple order is the lexicographic order
# on (x-exponent, a-monomial).  Coefficients stay as CoeffPoly holds them:
# ints where integral, which multiply far faster than Fractions.


def _names(polys):
    return sorted(set().union(*(p.symbols() for p in polys)))


def _flat(expr, names):
    return {x + a: c for x, poly in expr.items() for a, c in poly.exponents(names).items()}


def _unflat(flat, n, names):
    out = {}
    for key, c in flat.items():
        out.setdefault(key[:n], {})[key[n:]] = c
    return {x: CoeffPoly.from_exponents(names, terms) for x, terms in out.items()}


def _mul(f, g):
    out = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            k = tuple(map(operator.add, k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


class ClusterState:
    """Cluster variables as Laurent polynomials {x-exponent: CoeffPoly} in xs."""

    def __init__(self, fixed, seed, exprs=None):
        self.fixed = fixed
        self.seed = seed
        self.xs = tuple("x%d" % (i + 1) for i in range(fixed.n))
        if exprs is None:
            exprs = [{tuple(int(i == j) for j in range(fixed.n)): CoeffPoly.one()}
                     for i in range(fixed.n)]
        self.exprs = list(exprs)


def mutate_cluster(state, k):
    """Exchange relation x_k x_k' = sum_s a_{k,s} prod_j x_j^(r_k [-b_kj]_+ + s b_kj).

    Every exponent on the right is >= 0, so the numerator is a polynomial in
    the current cluster; laurent_check divides it by x_k exactly.
    """
    fixed, seed = state.fixed, state.seed
    _check_direction(fixed, k)
    b = epsilon(fixed, seed)[k]
    rk = fixed.r[k]
    n = fixed.n
    a_k = seed.a_tuples[k]
    names = _names([p for e in state.exprs for p in e.values()] + list(a_k))
    cluster = [_flat(e, names) for e in state.exprs]
    one = {(0,) * (n + len(names)): 1}
    # numerator = sum_s a_{k,s} P^s M^(r_k - s), P and M the products of
    # x_j^|b_kj| over b_kj > 0 and over b_kj < 0
    P, M = one, one
    for j in range(n):
        for _ in range(abs(b[j])):
            if b[j] > 0:
                P = _mul(P, cluster[j])
            else:
                M = _mul(M, cluster[j])
    p_pows, m_pows = [one], [one]
    for _ in range(rk):
        p_pows.append(_mul(p_pows[-1], P))
        m_pows.append(_mul(m_pows[-1], M))
    numerator = {}
    for s, a in enumerate(a_k):
        for key, c in _mul(_mul(_flat({(0,) * n: a}, names), p_pows[s]),
                           m_pows[rk - s]).items():
            numerator[key] = numerator.get(key, 0) + c
    exprs = list(state.exprs)
    exprs[k] = laurent_check(_unflat(numerator, n, names), state.exprs[k])
    return ClusterState(fixed, mutate_seed(fixed, seed, k), exprs)


def laurent_check(num, den):
    """The exact quotient num/den of Laurent polynomials {x-exponent: CoeffPoly}.

    Long division with terms in lexicographic order on (x-exponent,
    a-monomial), so den's leading coefficient is a rational and no step
    divides in Q[a].  An exact quotient has, per coordinate, exponents
    between lowest(num) - lowest(den) and highest(num) - highest(den), and
    a-exponents >= 0.  The quotient terms strictly decrease, so the division
    ends: a term outside that finite box means den does not divide num and
    raises ValueError, and a zero remainder proves num/den Laurent.
    """
    n = len(next(iter(den)))
    names = _names(list(num.values()) + list(den.values()))
    rem, div = _flat(num, names), _flat(den, names)
    lo = [min(e) - min(f) for e, f in zip(zip(*rem), zip(*div))]
    hi = [max(e) - max(f) for e, f in zip(zip(*rem), zip(*div))]
    lo[n:] = [max(x, 0) for x in lo[n:]]
    lead = max(div)
    lead_c = div.pop(lead)
    heap = [tuple(-e for e in key) for key in rem]  # max-heap of the remainder's keys
    heapq.heapify(heap)
    quot = {}
    while heap:
        key = tuple(-e for e in heapq.heappop(heap))
        c = rem.pop(key)
        if not c:
            continue
        q = tuple(map(operator.sub, key, lead))
        if not all(l <= e <= h for l, e, h in zip(lo, q, hi)):
            raise ValueError("non-Laurent cluster variable; mutation data is inconsistent")
        # an int where lead_c divides c (lead_c is +-1 for every cluster variable)
        c = c // lead_c if not c % lead_c else Fraction(c, lead_c)
        quot[q] = c
        for key2, c2 in div.items():
            t = tuple(map(operator.add, q, key2))
            if t not in rem:
                rem[t] = 0
                heapq.heappush(heap, tuple(-e for e in t))
            rem[t] -= c * c2
    return _unflat(quot, n, names)


def laurent_dict(expr, xs):
    """The Laurent expansion {exponent tuple in xs: CoeffPoly} of a cluster variable."""
    return dict(expr)


def _factors(mono):
    return [name if e == 1 else "%s**%d" % (name, e) for name, e in sorted(mono.items())]


def _over(top, bottom):
    if not bottom:
        return top
    return top + "/" + (bottom[0] if len(bottom) == 1 else "(%s)" % "*".join(bottom))


def _product_text(c, num, den):
    """c * num / den for monomials {name: exponent > 0}."""
    c = Fraction(c)
    if c == 1 and not num and len(den) == 1 and max(den.values()) > 1:
        return "%s**(-%d)" % next(iter(den.items()))  # a bare power: x1**(-2)
    top = ([str(abs(c.numerator))] if abs(c.numerator) != 1 else []) + _factors(num)
    bottom = ([str(c.denominator)] if c.denominator != 1 else []) + _factors(den)
    return _over(("-" if c < 0 else "") + "*".join(top or ["1"]), bottom)


def cluster_variable_text(expr, xs):
    """A Laurent polynomial {x-exponent: CoeffPoly} in xs as one fraction: `mutate`'s x.i text.

    The denominator is the monomial prod x_j^-m_j, m_j the lowest exponent of
    x_j clipped at 0.  The numerator's terms (a-monomial times shifted
    x-monomial) are sorted by descending lex order of their exponent vectors
    over the sorted names of all symbols that appear.  A term is its
    coefficient (left out if 1; p/q puts q in front of the denominator),
    then its factors sorted by name, `name**e`, joined with `*`.  Terms are
    joined with ` + `/` - `; a numerator of several terms is parenthesised
    if there is a denominator, a denominator of several factors always.  A
    sum of a positive constant and a negative multiple of one factor puts
    the constant first (`1 - 3*z**2`), and a bare power x^-e with e > 1 is
    `x**(-e)`.  This is sympy's str form, which the tests check.
    """
    n = len(xs)
    shift = [min(0, min(x[j] for x in expr)) for j in range(n)]
    den = {name: -m for name, m in zip(xs, shift) if m}
    anames = _names(expr.values())
    terms = []
    for key, c in _flat(expr, anames).items():
        mono = {name: e for name, e in zip(anames, key[n:]) if e}
        mono.update((name, e - m) for name, e, m in zip(xs, key, shift) if e != m)
        terms.append((mono, c))
    if len(terms) == 1:
        ((mono, c),) = terms
        return _product_text(c, mono, den)
    names = sorted({name for mono, _ in terms for name in mono})
    terms.sort(key=lambda t: [t[0].get(name, 0) for name in names], reverse=True)
    if (len(terms) == 2 and not terms[1][0] and terms[1][1] > 0
            and len(terms[0][0]) == 1 and terms[0][1] < 0):
        terms.reverse()
    text = _product_text(terms[0][1], terms[0][0], {})
    for mono, c in terms[1:]:
        t = _product_text(c, mono, {})
        text += " - " + t[1:] if c < 0 else " + " + t
    return _over("(%s)" % text if den else text, _factors(den))


# ---------------------------------------------------------------------------
# derived data: principal coefficients, companions, Langlands dual


def _derived(fixed, d, r, B, a_tuples=None):
    """Fixed data (d, r, B) on fixed's unfrozen directions, with its initial seed."""
    fixed2 = FixedData(len(B), fixed.unfrozen, d, r, B)
    return fixed2, make_initial_seed(fixed2, a_tuples)


def principal_data(fixed, seed):
    """Doubled data N~ = N + M° with block epsilon [[eps, I], [-I, 0]]."""
    n = fixed.n
    eye = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    B = [row + e for row, e in zip(epsilon(fixed, seed), eye)]
    B += [tuple(-x for x in e) + (0,) * n for e in eye]
    return _derived(fixed, fixed.d * 2, fixed.r * 2, B, seed.a_tuples)


def left_companion(fixed, seed):
    """Ordinary data with d_i r_i weights and exchange matrix epsilon diag(r)."""
    B = [[x * r for x, r in zip(row, fixed.r)] for row in epsilon(fixed, seed)]
    return _derived(fixed, [x * r for x, r in zip(fixed.d, fixed.r)], (1,) * fixed.n, B)


def right_companion(fixed, seed):
    """Ordinary data with d_i / r_i weights and exchange matrix diag(r) epsilon."""
    B = [[r * x for x in row] for r, row in zip(fixed.r, epsilon(fixed, seed))]
    return _derived(fixed, [x / r for x, r in zip(fixed.d, fixed.r)], (1,) * fixed.n, B)


def langlands_dual(fixed, seed):
    """Dual data: d_i -> D/d_i, epsilon -> -epsilon^T, r_i -> lcm(r)/r_i."""
    if any(x.denominator != 1 for x in fixed.d):
        raise ValueError("Langlands dual requires integral d")
    D = math.lcm(*[x.numerator for x in fixed.d])
    R = math.lcm(*fixed.r)
    B = [[-x for x in col] for col in zip(*epsilon(fixed, seed))]
    return _derived(fixed, [D / x for x in fixed.d], [R // x for x in fixed.r], B)


# ---------------------------------------------------------------------------
# seed file grammar
#
#   rank 2
#   unfrozen 1 2
#   d 1 1
#   r 3 1
#   B 0 1 -1 0
#   a.1 1 a a 1
#   a.2 1 1
#
# B is row-major; rationals are printed as p/q; a-lines list the full
# coefficient tuple per unfrozen direction, entries are symbol names or 1.
# A seed holds each entry as a CoeffPoly, and serialize_seed_file prints its
# canonical_string: a file's entries come back as read, while a number or a
# compound entry of a seed built in code is printed but is no file entry.
# A symbol may not be named x<digits>, the name of a cluster variable.
# Each key appears once, an a.i has 1 <= i <= rank, and no other key exists.


_A_KEY_RE = re.compile(r"a\.[1-9][0-9]*")


def parse_seed_file(text):
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        if key in fields:
            raise ValueError("field %s is repeated" % key)
        if key not in ("rank", "unfrozen", "d", "r", "B") and not _A_KEY_RE.fullmatch(key):
            raise ValueError("unknown field %s" % key)
        fields[key] = rest.split()
        if not fields[key]:
            raise ValueError("field %s has no value" % key)
    try:
        if len(fields["rank"]) != 1:
            raise ValueError("field rank takes one value")
        n = int(fields["rank"][0])
        for key in fields:
            if key.startswith("a.") and int(key[2:]) > n:
                raise ValueError("field %s names a direction outside 1..%d" % (key, n))
        unfrozen = tuple(int(x) - 1 for x in fields["unfrozen"])
        d = tuple(Fraction(x) for x in fields["d"])
        r = tuple(int(x) for x in fields["r"])
        flat = [int(x) for x in fields["B"]]
        if len(flat) != n * n:
            raise ValueError("B must have rank*rank entries")
        fixed = FixedData(n, unfrozen, d, r, [flat[i * n:(i + 1) * n] for i in range(n)])
        a_tuples = {}
        for i in unfrozen:
            entries = fields["a.%d" % (i + 1,)]
            if len(entries) != r[i] + 1 or entries[0] != "1" or entries[-1] != "1":
                raise ValueError("a.%d must be a monic tuple of length r+1" % (i + 1,))
            for name in entries[1:-1]:
                if name != "1" and not SYMBOL_NAME_RE.fullmatch(name):
                    raise ValueError("a.%d entry %r is neither 1 nor a symbol name"
                                     % (i + 1, name))
                if name[0] == "x" and name[1:].isdigit():
                    raise ValueError("a.%d entry %r is the name of a cluster variable"
                                     % (i + 1, name))
            a_tuples[i] = tuple(CoeffPoly.one() if name == "1" else CoeffPoly.symbol(name)
                                for name in entries)
    except KeyError as exc:
        raise ValueError("missing seed file field %s" % exc) from exc
    except ZeroDivisionError as exc:
        raise ValueError("zero denominator in d") from exc
    return fixed, make_initial_seed(fixed, a_tuples)


def serialize_seed_file(fixed, seed):
    lines = [
        "rank %d" % fixed.n,
        "unfrozen %s" % " ".join(str(i + 1) for i in fixed.unfrozen),
        "d %s" % " ".join(str(Fraction(x)) for x in fixed.d),
        "r %s" % " ".join(str(x) for x in fixed.r),
        "B %s" % " ".join(str(x) for row in fixed.B for x in row),
    ]
    for i in fixed.unfrozen:
        lines.append("a.%d %s" % (i + 1, " ".join(map(canonical_string, seed.a_tuples[i]))))
    return "\n".join(lines) + "\n"
