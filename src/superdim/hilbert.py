"""Bigraded Hilbert function tables and polynomial fitting.

For a supercommutative presentation whose relations are bihomogeneous,
each bidegree box (k, l) of the quotient is finite dimensional, and
dim B(k, l) = count(k, l) - rank(ideal piece of the box).  No global
degree cap is involved.

``count(k, l)``, the number of free monomials of bidegree (k, l), is the
coefficient of t^k s^l in the generating function

    prod_even 1 / (1 - t^gk s^gl) * prod_odd (1 + t^gk s^gl),

expanded by a small integer recurrence over the generators and truncated
at (kmax, lmax); no monomial is listed for it.  The ideal piece of a box is
spanned by the products (monomial) * (relation) landing in it, so only the
source boxes (k - rk, l - rl) of the relations are enumerated, each once
per table; the columns of a box are numbered as the products land.  Both
sizes are known from the counts before anything is enumerated, and a table
past ``MAX_BOXES`` boxes or ``MAX_RELATION_ROWS`` rows is refused.

The cumulative row sums g_l(k) = sum_{t <= k} dim B(t, l) eventually agree
with a polynomial in k of degree at most the number of even generators;
``fit_polynomial`` recovers it exactly from finite differences, and
``sdim_from_hilbert`` reads the super-dimension off the fitted degrees:
the even part is the top degree d, the odd part the largest l whose row
attains d.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraError
from .exactlin import row_rank
from .sdim import SuperDimension
from .superpoly import (
    ODD,
    SUPERCOMMUTATIVE,
    mul_monomials,
)

__all__ = [
    "BigradedTable",
    "PolynomialFit",
    "HilbertPolynomial",
    "bigraded_dims",
    "fit_polynomial",
    "fit_rows",
    "sdim_from_hilbert",
    "box_monomials",
    "box_counts",
]

DEFAULT_KMAX = 12

# Size budgets, checked before any monomial is enumerated: the boxes (k, l)
# of the table, and the rows (source monomial) * (relation) spanning the
# ideal pieces.
MAX_BOXES = 1 << 16
MAX_RELATION_ROWS = 1 << 15


def box_monomials(gens, k, l):
    """Exponent tuples of the free supercommutative monomials of bidegree
    exactly (k, l), in canonical order.

    The odd exponents are chosen first, then the even ones.  A branch stops
    as soon as the generators left cannot carry the rest of the bidegree,
    and an even exponent is solved for, not looped over, when no later even
    generator carries that component; so the work is proportional to the
    number of monomials, not to k^(number of generators).
    """
    n = len(gens)
    odds = [i for i in range(n) if gens[i].parity == ODD]
    evens = [i for i in range(n) if gens[i].parity != ODD]
    order = odds + evens
    # odd_k/l[p]: total weight of the odd generators at positions >= p;
    # even_k/l[p]: whether an even generator at a position >= p carries it.
    odd_k, odd_l = [0] * (n + 1), [0] * (n + 1)
    even_k, even_l = [False] * (n + 1), [False] * (n + 1)
    for p in range(n - 1, -1, -1):
        gk, gl = gens[order[p]].bidegree
        if p < len(odds):
            odd_k[p], odd_l[p] = odd_k[p + 1] + gk, odd_l[p + 1] + gl
            gk = gl = 0
        even_k[p], even_l[p] = even_k[p + 1] or gk > 0, even_l[p + 1] or gl > 0
    out = []
    acc = [0] * n

    def rec(p, rk, rl):
        if (rk > odd_k[p] and not even_k[p]) or (rl > odd_l[p] and not even_l[p]):
            return
        if p == n:
            out.append(tuple(acc))
            return
        i = order[p]
        gk, gl = gens[i].bidegree
        if p < len(odds):
            exps = (0, 1)
        elif gk and not even_k[p + 1]:
            exps = (rk // gk,)
        elif gl and not even_l[p + 1]:
            exps = (rl // gl,)
        else:
            exps = range(min(r // g for r, g in ((rk, gk), (rl, gl)) if g) + 1)
        for e in exps:
            if e * gk <= rk and e * gl <= rl:
                acc[i] = e
                rec(p + 1, rk - e * gk, rl - e * gl)
        acc[i] = 0

    rec(0, k, l)
    out.sort(key=lambda m: _word_key(m, evens + odds))
    return out


def _word_key(m, letters):
    """Sort key of the monomials of one box, in O(number of generators).

    All of them have the same degree, so ``monomial_sort_key`` orders them
    by their words: the even letters ascending with repeats, then the odd
    ones (``letters`` lists the generators that way).  Where two words first
    differ inside a run of the same letter, the longer run is the larger
    word exactly when the letter after the run is larger than it; so a run
    of letter i and length e is keyed (i, 1, -e) then, else (i, 0, e).
    """
    runs = [(i, m[i]) for i in letters if m[i]]
    key = []
    for t, (i, e) in enumerate(runs):
        if t + 1 < len(runs) and runs[t + 1][0] > i:
            key += (i, 1, -e)
        else:
            key += (i, 0, e)
    return tuple(key)


def box_counts(gens, kmax, lmax):
    """counts[l][k] = number of free monomials of bidegree (k, l).

    The coefficients of prod_even 1/(1 - t^gk s^gl) * prod_odd (1 + t^gk s^gl)
    up to (kmax, lmax), multiplied in one generator at a time, in place.
    """
    counts = [[0] * (kmax + 1) for _ in range(lmax + 1)]
    counts[0][0] = 1
    for g in gens:
        gk, gl = g.bidegree
        if g.parity == ODD:
            # times (1 + x): read the entries not yet updated, so go downward
            ls, ks = range(lmax, gl - 1, -1), range(kmax, gk - 1, -1)
        else:
            # times 1/(1 - x): read the entries already updated, so go upward
            ls, ks = range(gl, lmax + 1), range(gk, kmax + 1)
        for l in ls:
            row, src = counts[l], counts[l - gl]
            for k in ks:
                row[k] += src[k - gk]
    return counts


class BigradedTable:
    """dims[(k, l)] = dim B(k, l) for 0 <= k <= kmax, 0 <= l <= lmax."""

    def __init__(self, dims, kmax, lmax, name, even_count):
        self.dims = dict(dims)
        self.kmax = kmax
        self.lmax = lmax
        self.name = name
        self.even_count = even_count

    def dim(self, k, l):
        return self.dims.get((k, l), 0)

    def row(self, l):
        return [self.dim(k, l) for k in range(self.kmax + 1)]

    def cumulative_row(self, l):
        out = []
        total = 0
        for k in range(self.kmax + 1):
            total += self.dim(k, l)
            out.append(total)
        return out

    def as_json(self):
        return {
            "name": self.name,
            "kmax": self.kmax,
            "lmax": self.lmax,
            "rows": {str(l): self.row(l) for l in range(self.lmax + 1)},
        }

    def __repr__(self):
        return "BigradedTable(%r, kmax=%d, lmax=%d)" % (self.name, self.kmax, self.lmax)


def _natural_lmax(gens):
    """Largest odd weight a monomial can carry, when that is finite."""
    total = 0
    for g in gens:
        _k, l = g.bidegree
        if g.parity == ODD:
            total += l
        elif l:
            return None
    return total


def bigraded_dims(pres, kmax=DEFAULT_KMAX, lmax=None):
    """Bigraded dimension table of the quotient presented by ``pres``.

    Relations must be bihomogeneous; the ideal piece of each (k, l) box is
    ranked independently by forward elimination (``row_rank``), so no
    degree cap enters.  A table past ``MAX_BOXES`` boxes, or whose ideal
    pieces take more than ``MAX_RELATION_ROWS`` rows, is refused with its
    predicted size before any work is done.
    """
    if pres.flavor != SUPERCOMMUTATIVE:
        raise AlgebraError("bigraded tables need a supercommutative presentation")
    if kmax < 0 or (lmax is not None and lmax < 0):
        raise ValueError("kmax and lmax must be nonnegative")
    gens = pres.gens
    field = pres.field
    neg = field.neg
    rel_degs = []
    for r in pres.relations:
        bd = r.bidegree()
        if bd is None:
            raise AlgebraError("relation %r is not bihomogeneous" % (r,))
        rel_degs.append(bd)
    if lmax is None:
        lmax = _natural_lmax(gens)
        if lmax is None:
            raise AlgebraError(
                "odd weight is unbounded for these generators; pass lmax"
            )
    boxes = (kmax + 1) * (lmax + 1)
    if boxes > MAX_BOXES:
        raise AlgebraError(
            "a table of %d boxes (k <= %d, l <= %d) is past the budget of %d boxes"
            % (boxes, kmax, lmax, MAX_BOXES)
        )
    counts = box_counts(gens, kmax, lmax)
    rows = 0
    for rk, rl in rel_degs:
        for l in range(rl, lmax + 1):
            target, src = counts[l], counts[l - rl]
            rows += sum(src[k - rk] for k in range(rk, kmax + 1) if target[k])
    if rows > MAX_RELATION_ROWS:
        raise AlgebraError(
            "the ideal pieces take %d rows, past the budget of %d rows"
            % (rows, MAX_RELATION_ROWS)
        )
    sources = {}

    def ideal_rows(k, l):
        """Rows spanning the ideal piece of box (k, l), on its own column numbers."""
        index = {}
        for r, (rk, rl) in zip(pres.relations, rel_degs):
            if rk > k or rl > l or not counts[l - rl][k - rk]:
                continue
            monos = sources.get((k - rk, l - rl))
            if monos is None:
                monos = sources[(k - rk, l - rl)] = box_monomials(gens, k - rk, l - rl)
            for m in monos:
                # distinct relation terms land on distinct products
                vec = {}
                for m2, c in r.terms.items():
                    sm = mul_monomials(m, m2, gens, SUPERCOMMUTATIVE)
                    if sm is not None:
                        sign, prod = sm
                        vec[index.setdefault(prod, len(index))] = c if sign > 0 else neg(c)
                if vec:
                    yield vec

    dims = {}
    for l in range(lmax + 1):
        for k in range(kmax + 1):
            size = counts[l][k]
            dims[(k, l)] = size - row_rank(ideal_rows(k, l), field) if size else 0
    even_count = sum(1 for g in gens if g.parity != ODD)
    return BigradedTable(dims, kmax, lmax, pres.name, even_count)


class PolynomialFit:
    """Exact polynomial agreeing with a tail of the data.

    ``coeffs`` are Fractions, constant term first; the zero polynomial is
    ``coeffs == []`` with ``degree None``.  ``threshold`` is the smallest
    k from which the data is polynomial through the end of the window.
    """

    __slots__ = ("coeffs", "degree", "threshold")

    def __init__(self, coeffs, threshold):
        self.coeffs = list(coeffs)
        while self.coeffs and self.coeffs[-1] == 0:
            self.coeffs.pop()
        self.degree = len(self.coeffs) - 1 if self.coeffs else None
        self.threshold = threshold

    def __call__(self, k):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * k + c
        return acc

    def as_json(self):
        return {
            "stabilized": True,
            "degree": self.degree,
            "threshold": self.threshold,
            "coeffs": [{"num": c.numerator, "den": c.denominator} for c in self.coeffs],
        }

    def __repr__(self):
        return "PolynomialFit(deg=%r, k0=%d, %r)" % (
            self.degree,
            self.threshold,
            self.coeffs,
        )


def _differences(values):
    return [values[i + 1] - values[i] for i in range(len(values) - 1)]


def fit_polynomial(values, dmax):
    """Fit an exact polynomial of degree <= dmax to a tail of ``values``.

    Accepts the longest tail, of length >= dmax + 2, whose finite
    differences of order dmax + 1 vanish identically; they are taken once
    over the whole window, so the cost is linear in its length.  Returns
    None when no such tail exists in the window (not stabilized).
    """
    values = list(values)
    if dmax < 0:
        raise ValueError("dmax must be nonnegative")
    high = values
    for _ in range(dmax + 1):
        high = _differences(high)
    k0 = len(high)
    while k0 and not high[k0 - 1]:
        k0 -= 1
    if len(values) - k0 < dmax + 2:
        return None
    # Newton form sum_r lead_r * C(x - k0, r), expanded exactly, where lead_r
    # is the r-th difference at k0.
    coeffs = [Fraction(0)] * (dmax + 1)
    basis = [Fraction(1)]
    fact = 1
    window = values[k0 : k0 + dmax + 1]
    for r in range(dmax + 1):
        if r:
            # multiply by (x - k0 - (r - 1))
            shift = -Fraction(k0 + r - 1)
            nxt = [Fraction(0)] * (len(basis) + 1)
            for i, b in enumerate(basis):
                nxt[i] += b * shift
                nxt[i + 1] += b
            basis = nxt
            fact *= r
            window = _differences(window)
        lead = Fraction(window[0]) / fact
        if lead:
            for i, b in enumerate(basis):
                coeffs[i] += lead * b
    return PolynomialFit(coeffs, k0)


class HilbertPolynomial:
    """Per-l fit of the cumulative rows of a bigraded table."""

    def __init__(self, table, fits):
        self.table = table
        self.fits = fits

    def all_stabilized(self):
        return all(f is not None for f in self.fits.values())

    def degrees(self):
        """l -> degree of g_l (None for the zero row); stabilized rows only."""
        out = {}
        for l, f in sorted(self.fits.items()):
            if f is not None:
                out[l] = f.degree
        return out

    def as_json(self):
        rows = {}
        for l, f in sorted(self.fits.items()):
            rows[str(l)] = f.as_json() if f is not None else {"stabilized": False}
        return {"table": self.table.as_json(), "fits": rows}


def fit_rows(table):
    """Fit every cumulative row g_l of the table with a polynomial of degree
    at most the number of even generators."""
    fits = {}
    for l in range(table.lmax + 1):
        fits[l] = fit_polynomial(table.cumulative_row(l), table.even_count)
    return HilbertPolynomial(table, fits)


def sdim_from_hilbert(hp):
    """Super-dimension read off the fitted growth polynomials."""
    for l, f in sorted(hp.fits.items()):
        if f is None:
            raise AlgebraError("row l=%d did not stabilize; raise kmax" % (l,))
    degs = {l: f.degree for l, f in hp.fits.items() if f.degree is not None}
    if not degs:
        raise AlgebraError("all rows are zero")
    d = max(degs.values())
    odd = max(l for l, dl in degs.items() if dl == d)
    return SuperDimension(d, odd)

