"""Exact coefficient ring Q[a_{i,j}] and truncated Laurent series on lattice exponents.

The coefficient ring is a polynomial ring over Q in a finite set of formal
exchange symbols, whose constants are held as ints or Fractions.  Series live
on a lattice of integer exponent vectors and carry a linear grading; terms
above the truncation order are dropped eagerly so that equal values always
have identical term maps.
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction


# ---------------------------------------------------------------------------
# coefficient polynomials

# A monomial key is a tuple of (symbol_name, exponent) pairs sorted by name.


@functools.lru_cache(maxsize=1 << 14)  # a computation meets few distinct pairs, each many times
def _mono_mul(m1, m2):
    if not m1 or not m2:  # a constant coefficient leaves the other monomial as it is
        return m1 or m2
    d = dict(m1)
    for name, e in m2:
        d[name] = d.get(name, 0) + e
    return tuple(sorted((n, e) for n, e in d.items() if e))


def _exact(q):
    """A rational as an int when its denominator is 1, else as a Fraction (a given one kept)."""
    if type(q) is not Fraction:
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def demote(c):
    """A constant (a constant CoeffPoly too) as an int or non-integral Fraction; else c."""
    if type(c) is CoeffPoly:
        if c.terms.keys() - {()}:
            return c
        c = c.terms.get((), 0)
    return c if type(c) is int else _exact(c)


class CoeffPoly:
    """Polynomial in the exchange symbols with int coefficients, Fractions only where not
    integral; a constant one equals and hashes as its number, which demote gives."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for mono, coeff in (terms or {}).items():
            coeff = coeff if type(coeff) is int else _exact(coeff)
            if coeff:
                clean[tuple(mono)] = coeff
        self.terms = clean

    # -- constructors

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def rational(cls, q):
        return cls({(): q})

    @classmethod
    def symbol(cls, name):
        return cls({((name, 1),): 1})

    # -- ring structure

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(): other} if other else {})
        return isinstance(other, CoeffPoly) and self.terms == other.terms

    def __hash__(self):
        if not self.terms.keys() - {()}:  # a constant hashes as the number it equals
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if type(other) is not CoeffPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented  # a series adds a polynomial itself
            other = CoeffPoly.rational(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return CoeffPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return CoeffPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return CoeffPoly.rational(other) - self

    def __mul__(self, other):
        if type(other) is not CoeffPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented  # a series multiplies by a polynomial itself
            return CoeffPoly({m: c * other for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return CoeffPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative powers of coefficient polynomials")
        return functools.reduce(operator.mul, [self] * e, CoeffPoly.one())

    # -- monomials as exponent vectors: outside this module, the only reading of them

    def symbols(self):
        """The names of the symbols that occur in some term."""
        return {name for mono in self.terms for name, _ in mono}

    def exponents(self, names):
        """{exponent vector over names: coefficient}; names must include every symbol."""
        return {tuple(dict(mono).get(name, 0) for name in names): c
                for mono, c in self.terms.items()}

    @classmethod
    def from_exponents(cls, names, terms):
        """The polynomial of {exponent vector over names: coefficient}, exponents' inverse."""
        return cls({tuple((name, e) for name, e in zip(names, expo) if e): c
                    for expo, c in terms.items()})

    def __repr__(self):
        return "CoeffPoly(%s)" % canonical_string(self)


def _poly_pieces(poly, zpart):
    """Render each monomial of a CoeffPoly, or a nonzero number, as a flat product string."""
    terms = poly.terms if type(poly) is CoeffPoly else {(): poly}
    pieces = []
    for mono in sorted(terms, key=lambda m: (sum(e for _, e in m), m)):
        coeff = terms[mono]
        factors = []
        symfactors = ["%s^%d" % (n, e) if e != 1 else n for n, e in mono]
        if coeff != 1 or (not symfactors and not zpart):
            factors.append(str(coeff))  # "3", "-1" or "1/2"
        factors.extend(symfactors)
        if zpart:
            factors.append(zpart)
        pieces.append("*".join(factors))
    return pieces


def canonical_string(x):
    """Deterministic rendering of a number (as its constant CoeffPoly), CoeffPoly or series."""
    if isinstance(x, (int, Fraction, CoeffPoly)):
        return " + ".join(_poly_pieces(x, "")) or "0"  # a zero CoeffPoly has no pieces
    if isinstance(x, TruncatedLaurent):
        zero = tuple(0 for _ in x.offset)
        pieces = []
        for expo in sorted(x.terms, key=lambda k: (k != zero, k)):
            zpart = "" if expo == zero else "z^(%s)" % ",".join(str(c) for c in expo)
            pieces.extend(_poly_pieces(x.terms[expo], zpart))
        return " + ".join(pieces) or "0"
    raise TypeError("unsupported value %r" % (x,))


SYMBOL_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_{},]*")
_SYM_RE = re.compile(r"^(%s?)(?:\^(\d+))?$" % SYMBOL_NAME_RE.pattern)
_NUM_RE = re.compile(r"^-?\d+(?:/\d+)?$")
_Z_RE = re.compile(r"^z\^\(([-0-9,]+)\)$")


def parse_canonical(text):
    """Parse the canonical_string grammar back into a term map.

    Returns a pair (dim, terms) where terms maps exponent tuples to
    CoeffPoly; values with no z part use the all-zero exponent of dimension
    dim (dim is None when no z part occurs anywhere).
    """
    text = text.strip()
    if text == "0":
        return None, {}
    dim = None
    raw = []
    for piece in text.split(" + "):
        coeff = Fraction(1)
        mono = {}
        expo = None
        for factor in piece.split("*"):
            m = _Z_RE.match(factor)
            if m:
                expo = tuple(int(c) for c in m.group(1).split(","))
                dim = len(expo)
                continue
            if _NUM_RE.match(factor):
                coeff *= Fraction(factor)
                continue
            m = _SYM_RE.match(factor)
            if not m:
                raise ValueError("bad factor %r" % factor)
            name, e = m.group(1), int(m.group(2) or 1)
            mono[name] = mono.get(name, 0) + e
        raw.append((expo, tuple(sorted(mono.items())), coeff))
    zero = (0,) * (dim or 0)
    terms = {}
    for expo, mono, coeff in raw:
        poly = terms.setdefault(expo or zero, {})
        poly[mono] = poly.get(mono, 0) + coeff
    return dim, {e: CoeffPoly(p) for e, p in terms.items()}


# ---------------------------------------------------------------------------
# lattice pairing, grading and truncated series


def pairing(n, m, d):
    """Canonical pairing <n, m> = sum n_i m_i / d_i.

    n in e-basis coordinates, m in f-basis coordinates, d the lattice weights.
    """
    if not (len(n) == len(m) == len(d)):
        raise ValueError("dimension mismatch in pairing")
    return sum(Fraction(a) * Fraction(b) / Fraction(w) for a, b, w in zip(n, m, d))


def _vsub(a, b):
    return tuple(map(operator.sub, a, b))


def _vadd(a, b):
    return tuple(map(operator.add, a, b))


class Grading:
    """Linear grading in which two independent generators have degree 1.

    An exponent's coefficients in the generators come from a 2x2 Cramer
    solve on the first coordinate pair with a nonzero minor; an exponent off
    the generators' span, or outside their cone, has no degree.
    """

    def __init__(self, generators):
        if len(generators) != 2:
            raise ValueError("a rank-2 grading needs exactly two generators")
        self.generators = tuple(tuple(g) for g in generators)
        self.dim = len(self.generators[0])
        self._cache = {}  # exponent -> its coefficients, or None off the span
        self._degrees = {}  # exponent of the monoid -> its degree
        g1, g2 = self.generators
        minors = ((i, j, g1[i] * g2[j] - g1[j] * g2[i])
                  for i in range(self.dim) for j in range(i + 1, self.dim))
        # Cramer's rule on this coordinate pair: the minor and the
        # generators' entries there are the inverse of the 2x2 system
        self._pivot = next((p for p in minors if p[2]), None)
        if self._pivot is None:
            raise ValueError("grading generators must be linearly independent")
        self.den = abs(self._pivot[2])

    def scaled_coordinates(self, m):
        """den * the coordinates of m in the generators, two ints; m's span is not checked."""
        i, j, det = self._pivot
        g1, g2 = self.generators
        a = m[i] * g2[j] - m[j] * g2[i]
        b = g1[i] * m[j] - g1[j] * m[i]
        return (a, b) if det > 0 else (-a, -b)

    def _over_den(self, x):
        """x / den for an int x: an int where den divides x, else a Fraction."""
        return x // self.den if not x % self.den else Fraction(x, self.den)

    def coefficients(self, m):
        """m's coefficients in the generators, ints where integral; None off their span,
        which an exponent of another length is."""
        m = tuple(m)
        if m not in self._cache:
            self._cache[m] = None
            if len(m) == self.dim:
                a, b = self.scaled_coordinates(m)
                if all(a * x + b * y == self.den * t for x, y, t in zip(*self.generators, m)):
                    self._cache[m] = [self._over_den(a), self._over_den(b)]
        return self._cache[m]

    def degree(self, m):
        """J-adic degree of an exponent, an int where integral; 0 only for m = 0."""
        m = tuple(m)
        d = self._degrees.get(m)
        if d is None:
            coeffs = self.coefficients(m)
            if coeffs is None or any(c < 0 for c in coeffs):
                raise ValueError("exponent %r outside the grading monoid" % (m,))
            d = self._degrees[m] = self._over_den(self.scaled_degree(m))
        return d

    def scaled_degree(self, m):
        """den * the degree of m, an int: a linear form, so m is not checked to be in the monoid."""
        return sum(self.scaled_coordinates(m))


j_degree = Grading.degree  # j_degree(grading, m): the J-adic degree of m under a grading


class TruncatedLaurent:
    """Finite exact Laurent series z^offset * (sum of c * z^u), c a number or a CoeffPoly.

    Exponent keys are absolute integer tuples; the relative exponent
    key - offset must lie in the grading monoid with degree <= order.
    """

    __slots__ = ("grading", "order", "offset", "terms")

    def __init__(self, grading, order, offset, terms):
        self.grading, self.order, self.offset = grading, order, tuple(offset)
        for expo in (self.offset, *terms):  # _vsub would cut a longer one to the shorter's length
            if len(expo) != grading.dim:
                raise ValueError("exponent %r is not of length %d" % (tuple(expo), grading.dim))
        clean = {}
        for expo, poly in terms.items():
            poly = poly.numerator if type(poly) is Fraction and poly.denominator == 1 else poly
            if poly and grading.degree(_vsub(expo, self.offset)) <= order:
                clean[tuple(expo)] = poly
        self.terms = clean

    # -- constructors

    @classmethod
    def monomial(cls, grading, order, expo, coeff=1):
        return cls(grading, order, expo, {tuple(expo): coeff})

    @classmethod
    def within(cls, grading, order, offset, terms):
        """The series of terms known to lie within the order; zeros are dropped."""
        out = cls(grading, order, offset, {})
        out.terms = {e: p for e, p in terms.items() if p}
        return out

    @classmethod
    def one(cls, grading, order):
        return cls.monomial(grading, order, (0,) * grading.dim)

    @classmethod
    def unit_from_terms(cls, grading, order, terms):
        """Build 1 + (terms); terms must not touch the constant."""
        zero, tail = (0,) * grading.dim, {tuple(e): p for e, p in terms.items()}
        if zero in tail:
            raise ValueError("unit tail must not contain a constant term")
        return cls(grading, order, zero, {zero: 1, **tail})

    # -- helpers

    def is_unit(self):
        return not any(self.offset) and self.constant() == 1

    def constant(self):
        return self.terms.get(self.offset, 0)

    def truncate(self, new_order):
        if new_order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedLaurent(self.grading, new_order, self.offset, self.terms)

    # -- arithmetic

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CoeffPoly)):
            zero = (0,) * self.grading.dim
            other = TruncatedLaurent(self.grading, self.order, zero, {zero: other})
        if self.order != other.order:
            raise ValueError("mismatched truncation orders")
        # the sum lives at the lower offset (a constant c is c*z^0): above the
        # higher offset's order only the lower series knows its terms
        for low, high in ((self, other), (other, self)):
            c = self.grading.coefficients(_vsub(high.offset, low.offset))
            if c is not None and all(x >= 0 for x in c):
                offset = low.offset
                break
        else:
            raise ValueError("incompatible offsets in series addition")
        out = dict(self.terms)
        for expo, poly in other.terms.items():
            out[expo] = out[expo] + poly if expo in out else poly
        return TruncatedLaurent(self.grading, self.order, offset, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedLaurent.within(self.grading, self.order, self.offset,
                                       {e: -p for e, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CoeffPoly)):
            return TruncatedLaurent.within(self.grading, self.order, self.offset,
                                           {e: p * other for e, p in self.terms.items()})
        if self.order != other.order:
            raise ValueError("mismatched truncation orders")
        if self.grading.dim != other.grading.dim:
            raise ValueError("mismatched lattices")
        offset = _vadd(self.offset, other.offset)
        a = [(e, self.grading.degree(_vsub(e, self.offset)), p) for e, p in self.terms.items()]
        b = [(e, other.grading.degree(_vsub(e, other.offset)), p) for e, p in other.terms.items()]
        out = {}
        for e1, d1, p1 in a:
            for e2, d2, p2 in b:
                if d1 + d2 > self.order:
                    continue
                e = _vadd(e1, e2)
                prod = p1 * p2
                out[e] = out[e] + prod if e in out else prod
        return TruncatedLaurent.within(self.grading, self.order, offset, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e == 0:
            return TruncatedLaurent.one(self.grading, self.order)
        if e == 1:
            return self
        if self.is_unit():
            # the binomial series sum_i C(e, i) (f - 1)^i; each term rises in degree
            h = self - 1
            if not h.terms:
                return self
            n = self.order // min(self.grading.degree(x) for x in h.terms)
            out = hi = TruncatedLaurent.one(self.grading, self.order)
            for c in unit_power_coeffs([1, 1], e, n)[1:]:
                hi = hi * h
                out = out + hi * c
            return out
        if e < 0:
            raise ValueError("only unit series can be inverted")
        return functools.reduce(operator.mul, [self] * (e - 1), self)

    # -- comparison

    def __eq__(self, other):
        return (isinstance(other, TruncatedLaurent)
                and self.order == other.order and self.terms == other.terms)

    def __hash__(self):
        return hash((self.order, frozenset(self.terms)))

    def __repr__(self):
        return "TruncatedLaurent(%s ; order=%s)" % (canonical_string(self), self.order)


def unit_power_coeffs(coeffs, e, n):
    """g_0..g_n with sum_d g_d t^d = f^e, for f = sum_k coeffs[k] t^k and coeffs[0] = 1.

    J.C.P. Miller's recurrence (Knuth, TAOCP 4.7) from t g' f = e t f' g, for
    any integer e: g_d = (1/d) sum_{k=1..d} ((e+1) k - d) c_k g_{d-k}.  Integral
    coefficients have an integral power, so d divides that sum exactly in int.
    If a tail coefficient is a non-constant CoeffPoly, each sum runs in one {monomial:
    number} map.  A g_d is a number, as demote gives it, unless it has a non-constant
    monomial; then it is built once as a CoeffPoly.  For an int e >= 0, f^e ends at
    t^(e * deg f): the recurrence stops there and the rest of the list is 0, as the full
    loop gives it.
    """
    tail = [(k, demote(c)) for k, c in enumerate(coeffs) if k and c]
    top = min(n, e * tail[-1][0] if tail else 0) if type(e) is int and e >= 0 else n
    poly = any(type(c) is CoeffPoly for _, c in tail)
    if poly:
        tail = [(k, c.terms if type(c) is CoeffPoly else {(): c}) for k, c in tail]
    exact = all(type(x) is int for _, c in tail for x in (c.values() if poly else (c,)))
    g = [{(): 1} if poly else 1]
    for d in range(1, top + 1):
        acc = {} if poly else 0
        for k, c in tail:
            if k > d:
                break
            w, h = (e + 1) * k - d, g[d - k]
            if not (w and h):
                continue
            if poly:
                for m1, x1 in c.items():
                    x1 *= w
                    for m2, x2 in h.items():
                        m = _mono_mul(m1, m2) if m1 else m2
                        acc[m] = acc.get(m, 0) + x1 * x2
            else:
                acc += c * h * w
        if poly:
            g.append({m: _divide(x, d, exact) for m, x in acc.items() if x})
        else:
            g.append(_divide(acc, d, exact) if acc else 0)
    if poly:
        g = [CoeffPoly(t) if t.keys() - {()} else t.get((), 0) for t in g]
    return g + [0] * (n - top)


def _divide(c, d, exact):
    """c / d for an int or Fraction c; exact: c is an int and d divides it."""
    if exact and c % d:
        raise ArithmeticError("%s / %d: a power of an integral series is integral" % (c, d))
    return c // d if exact else _exact(Fraction(c, d))


def series_mul(a, b):
    """Product of two truncated series (same lattice, same order)."""
    return a * b


def series_pow_int(f, e):
    """Integer power of a series; negative powers require a unit base (else ValueError)."""
    return f ** e
