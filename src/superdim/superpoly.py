"""Polynomials in even/odd generators, supercommutative or free associative.

A generator carries a parity and a bidegree (k, l); defaults are (1, 0) for
even and (0, 1) for odd generators.  Monomials are encoded as plain tuples
so they can key dicts cheaply:

* supercommutative flavor: a tuple of exponents, one per generator, with
  odd exponents restricted to {0, 1}.  The canonical word of a monomial
  lists even letters (ascending, with multiplicity) before odd letters
  (ascending); reordering odd letters into this form contributes the sign
  of the permutation of the odd subsequence, and a repeated odd letter
  kills the monomial.

* associative flavor: the word itself, a tuple of generator indices.  No
  reordering and no signs; parities only matter to the callers that
  compare words.

:class:`SuperPolynomial` is a dict of monomial -> nonzero scalar with the
arithmetic used by the parser, the presentation compiler and the Hilbert
enumerator.
"""

from __future__ import annotations

import operator

from .exactlin import vec_add_scaled

EVEN = 0
ODD = 1

SUPERCOMMUTATIVE = "supercommutative"
ASSOCIATIVE = "associative"


class GeneratorSpec:
    """Name, parity and bidegree of one generator."""

    __slots__ = ("name", "parity", "bidegree")

    def __init__(self, name, parity, bidegree=None):
        if parity not in (EVEN, ODD):
            raise ValueError("parity must be 0 or 1")
        if bidegree is None:
            bidegree = (1, 0) if parity == EVEN else (0, 1)
        k, l = bidegree
        if k < 0 or l < 0:
            raise ValueError("bidegree components must be nonnegative")
        if k == l == 0:
            raise ValueError("generator %s has degree 0" % name)
        if l > 0 and l % 2 != parity:
            raise ValueError(
                "generator %s: odd-degree %d inconsistent with parity" % (name, l)
            )
        self.name = name
        self.parity = parity
        self.bidegree = (k, l)

    def __repr__(self):
        return "GeneratorSpec(%r, %s, %r)" % (
            self.name,
            "odd" if self.parity else "even",
            self.bidegree,
        )

    def __eq__(self, other):
        return (
            isinstance(other, GeneratorSpec)
            and self.name == other.name
            and self.parity == other.parity
            and self.bidegree == other.bidegree
        )


def mul_monomials(m1, m2, gens, flavor):
    """Product of two monomial keys. Returns (sign, key) or None for zero.

    Supercommutative keys are multiplied in one pass over the generators,
    last to first.  The product is None at the first odd letter the two
    monomials share.  The sign is (-1)^inv, where inv counts, for each odd
    letter of m2, the odd letters of m1 that come after it: the inversions
    of the odd subsequence of m1 m2 that the canonical word sorts away.
    """
    if flavor == ASSOCIATIVE:
        return (1, m1 + m2)
    inv = after = 0
    for i in range(len(gens) - 1, -1, -1):
        if gens[i].parity == ODD:
            if m2[i]:
                if m1[i]:
                    return None
                inv += after
            elif m1[i]:
                after += 1
    return (-1 if inv & 1 else 1, tuple(map(operator.add, m1, m2)))


def monomial_bidegree(m, gens, flavor):
    k = l = 0
    if flavor == ASSOCIATIVE:
        for i in m:
            dk, dl = gens[i].bidegree
            k += dk
            l += dl
    else:
        for i, e in enumerate(m):
            if e:
                dk, dl = gens[i].bidegree
                k += e * dk
                l += e * dl
    return (k, l)


def monomial_degree(m, gens, flavor):
    k, l = monomial_bidegree(m, gens, flavor)
    return k + l


def monomial_parity(m, gens, flavor):
    if flavor == ASSOCIATIVE:
        return sum(gens[i].parity for i in m) % 2
    return sum(e * gens[i].parity for i, e in enumerate(m)) % 2


def monomial_word(m, gens, flavor):
    """Canonical word: even letters first (ascending), then odd letters."""
    if flavor == ASSOCIATIVE:
        return tuple(m)
    evens = []
    odds = []
    for i, e in enumerate(m):
        if not e:
            continue
        if gens[i].parity == EVEN:
            evens.extend([i] * e)
        else:
            odds.append(i)
    return tuple(evens + odds)


def monomial_sort_key(m, gens, flavor):
    return (monomial_degree(m, gens, flavor), monomial_word(m, gens, flavor))


def monomial_name(m, gens, flavor):
    word = monomial_word(m, gens, flavor)
    if not word:
        return "1"
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        e = j - i
        parts.append(gens[word[i]].name + ("^%d" % e if e > 1 else ""))
        i = j
    return "*".join(parts)


class SuperPolynomial:
    """A finite scalar combination of monomials in a fixed generator list."""

    __slots__ = ("flavor", "gens", "field", "terms")

    def __init__(self, flavor, gens, field, terms=None):
        self.flavor = flavor
        self.gens = tuple(gens)
        self.field = field
        self.terms = {}
        if terms:
            for m, c in terms.items():
                if c:
                    self.terms[m] = c

    @classmethod
    def zero(cls, flavor, gens, field):
        return cls(flavor, gens, field)

    @classmethod
    def one(cls, flavor, gens, field):
        m = () if flavor == ASSOCIATIVE else (0,) * len(gens)
        return cls(flavor, gens, field, {m: field.one})

    @classmethod
    def generator(cls, i, flavor, gens, field):
        if flavor == ASSOCIATIVE:
            m = (i,)
        else:
            m = tuple(1 if j == i else 0 for j in range(len(gens)))
        return cls(flavor, gens, field, {m: field.one})

    def _like(self, terms):
        return SuperPolynomial(self.flavor, self.gens, self.field, terms)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self._check(other)
        return self._like(vec_add_scaled(dict(self.terms), other.terms, 1, self.field))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, coeff):
        return self._like(vec_add_scaled({}, self.terms, self.field.of(coeff), self.field))

    def __mul__(self, other):
        if isinstance(other, SuperPolynomial):
            return multiply(self, other)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def _check(self, other):
        if self.flavor != other.flavor or self.gens != other.gens:
            raise ValueError("polynomials from different contexts")

    def __eq__(self, other):
        return (
            isinstance(other, SuperPolynomial)
            and self.flavor == other.flavor
            and self.gens == other.gens
            and self.terms == other.terms
        )

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda mc: monomial_sort_key(mc[0], self.gens, self.flavor),
        )

    def degree(self):
        """Total degree of a homogeneous polynomial; None if mixed or zero."""
        degs = {monomial_degree(m, self.gens, self.flavor) for m in self.terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    def parity(self):
        """Parity of a parity-homogeneous polynomial; None if mixed or zero."""
        ps = {monomial_parity(m, self.gens, self.flavor) for m in self.terms}
        if len(ps) != 1:
            return None
        return ps.pop()

    def bidegree(self):
        bds = {monomial_bidegree(m, self.gens, self.flavor) for m in self.terms}
        if len(bds) != 1:
            return None
        return bds.pop()

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            name = monomial_name(m, self.gens, self.flavor)
            parts.append("%s*%s" % (c, name) if name != "1" else "%s" % (c,))
        return " + ".join(parts)


def multiply(p, q):
    """Product in the flavor of p and q (signs from odd reordering)."""
    p._check(q)
    out = {}
    for m1, c1 in p.terms.items():
        # m2 -> m1 m2 is injective on monomials, so one row per m1
        row = {}
        for m2, c2 in q.terms.items():
            sm = mul_monomials(m1, m2, p.gens, p.flavor)
            if sm is not None:
                row[sm[1]] = -c2 if sm[0] < 0 else c2
        vec_add_scaled(out, row, c1, p.field)
    return SuperPolynomial(p.flavor, p.gens, p.field, out)


__all__ = [
    "EVEN",
    "ODD",
    "SUPERCOMMUTATIVE",
    "ASSOCIATIVE",
    "GeneratorSpec",
    "mul_monomials",
    "monomial_bidegree",
    "monomial_degree",
    "monomial_parity",
    "monomial_word",
    "monomial_sort_key",
    "monomial_name",
    "SuperPolynomial",
    "multiply",
]
