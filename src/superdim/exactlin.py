"""Exact linear algebra over Q and prime fields.

A scalar over Q is an ``int`` when its denominator is 1 and a
``fractions.Fraction`` otherwise (``RationalField.of`` normalises input
that way).  A pivot row scaled by a Fraction stores its integral entries as
ints; the update loops may still yield an integral Fraction, which is exact
and equals and hashes like the int, so nothing normalises it there.  Over
GF(p) a scalar is an ``int`` in 0..p-1.  Every stored scalar (in a vector,
a row, a matrix column) stays in that range, while a coefficient handed to
:func:`vec_add_scaled` may be any int: the kernels reduce each updated
entry mod p once.  Negation goes through ``field.neg``, and division only
through ``field.inv``: int / int would be a float.
Vectors are sparse dicts index -> nonzero scalar, and a :class:`Matrix` (the
exchange format used across the package) is a list of such column dicts.
:func:`vec_add_scaled` is the package's one sparse accumulation: every
"add a scaled vector and drop the zeros" goes through it, except where a
caller adds raw products into one dict of sums and hands it to
:func:`vec_from_sums`, which reduces mod p and drops the zeros in one pass.
Row reduction goes through a fully reduced sparse row-echelon accumulator
(:class:`Echelon`), whose column index lets an insert back-substitute only
the rows that hold its new pivot.  Both keep the closure computations
elsewhere in the package near the cost of their actual support instead of
the ambient dimension.  Where only a rank is read, :func:`row_rank` eliminates forward
only: its pivot rows are never back-substituted.
A :class:`Subspace` is the package's one graded span: it closes a span
under linear maps (``close``), tests that closure (``is_closed``) and
projects onto the coordinates outside its pivots (``complement``).  Every
superideal, submodule and quotient elsewhere is built through those three.
A span is one echelon of homogeneous rows.  That is exact: a homogeneous
row holds only columns of its own parity, so reduction never mixes
parities, and a basis row has the parity of its pivot.
:func:`representatives` picks the rows of a span that are a basis modulo
lower spans and reads classes over them off one tagged echelon.

All pivot choices are "first nonzero column" (the last in :func:`row_rank`),
so every reduced object and every basis this module returns is
deterministic.
"""

from __future__ import annotations

import heapq
import operator
from fractions import Fraction


class RationalField:
    """The rational field; a scalar is an int when its denominator is 1 and
    a Fraction otherwise."""

    name = "Q"
    zero = 0
    one = 1
    neg = operator.neg  # a builtin, so QQ.neg(x) runs no Python frame

    def __init__(self):
        # an instance attribute, as in PrimeField: every kernel call reads
        # it, and CPython 3.11 reads an instance attribute faster than a
        # class attribute through an instance
        self.characteristic = 0

    def of(self, x):
        if type(x) is int:
            return x
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    def inv(self, x):
        """1 / x as a scalar of the field: x itself for +-1."""
        if x == 1 or x == -1:
            return x
        y = Fraction(1, x)
        return y.numerator if y.denominator == 1 else y

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


# Largest field order F<p> admitted, checked before the trial division of
# _is_prime, which then takes at most sqrt(2^31) < 46,341 steps.
MAX_FIELD_ORDER = 1 << 31


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """GF(p) for a prime p; a scalar is an int in 0..p-1."""

    characteristic = None  # set per instance
    zero = 0
    one = 1

    def __init__(self, p):
        if p > MAX_FIELD_ORDER:
            raise ValueError("field order %d is past the bound %d" % (p, MAX_FIELD_ORDER))
        if not _is_prime(p):
            raise ValueError("field order must be prime, got %r" % (p,))
        self.p = p
        self.characteristic = p
        self.name = "F%d" % p

    def inv(self, x):
        x %= self.p
        if not x:
            raise ZeroDivisionError("inverse of zero in GF(%d)" % self.p)
        return pow(x, self.p - 2, self.p)

    def of(self, x):
        """x mod p; a Fraction is its numerator times the inverse of its
        denominator, so a denominator divisible by p raises ZeroDivisionError."""
        if isinstance(x, Fraction):
            return x.numerator * self.inv(x.denominator) % self.p
        return x % self.p

    def neg(self, x):
        return -x % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()


def field_from_name(name):
    """Parse a field tag: "q"/"Q" or "f<p>"/"F<p>" with p prime.

    An order with more digits than MAX_FIELD_ORDER is refused before
    ``int()``, which would refuse a string past 4,300 digits on its own."""
    s = name.strip()
    if s in ("q", "Q"):
        return QQ
    if s[:1] in ("f", "F") and s[1:].isdigit():
        digits = s[1:].lstrip("0")
        if len(digits) > len(str(MAX_FIELD_ORDER)):
            raise ValueError("field order %s is past the bound %d" % (digits, MAX_FIELD_ORDER))
        return PrimeField(int(s[1:]))
    raise ValueError("unknown field %r (expected q or f<p>)" % (name,))


# ---------------------------------------------------------------------------
# sparse vectors: dict index -> nonzero scalar


def vec_add_scaled(target, src, coeff, field):
    """target += coeff * src, in place, dropping zeros.

    Over GF(p) coeff may be any int; each updated entry is reduced mod p.
    """
    p = field.characteristic
    if p:
        coeff %= p
        if not coeff:
            return target
        for c, x in src.items():
            val = (target.get(c, 0) + coeff * x) % p
            if val:
                target[c] = val
            else:
                target.pop(c, None)
        return target
    if not coeff:
        return target
    for c, x in src.items():
        val = target.get(c)
        val = coeff * x if val is None else val + coeff * x
        if val:
            target[c] = val
        else:
            target.pop(c, None)
    return target


def vec_from_sums(sums, field):
    """The sparse vector of raw sums: each entry reduced mod p, zeros dropped.

    ``sums`` maps an index to an unreduced int (or, over Q, any scalar)
    added up from products of field scalars.  Reducing once at the end is
    exact, since reduction mod p is a ring map from the integers.
    """
    p = field.characteristic
    if p:
        return {c: y for c, x in sums.items() if (y := x % p)}
    return {c: x for c, x in sums.items() if x}


def vec_dot(a, b, field):
    if len(a) > len(b):
        a, b = b, a
    total = None
    for c, x in a.items():
        y = b.get(c)
        if y is not None:
            total = x * y if total is None else total + x * y
    if total is None or not field.characteristic:
        return total  # None means zero
    return total % field.characteristic


# Bits a numerator or denominator of a power may reach before it is refused.
POWER_BITS = 1 << 14


def power(x, n, one, mul, scalars):
    """x^n by repeated squaring, ending at the first zero power.

    ``scalars(y)`` yields the scalars of a product y.  A ValueError is
    raised as soon as a rational one needs more than POWER_BITS bits; each
    squaring at most doubles the size, so the work stays bounded.
    """

    def checked(y):
        for c in scalars(y):
            if isinstance(c, (int, Fraction)) and max(
                c.numerator.bit_length(), c.denominator.bit_length()
            ) > POWER_BITS:
                raise ValueError("a power has a coefficient past %d bits" % POWER_BITS)
        return y

    out = one
    while n:
        if n & 1:
            out = checked(mul(out, x))
            if not out:
                return out
        n >>= 1
        if n:
            x = checked(mul(x, x))
            if not x:
                return x
    return out


def _scaled(v, inv, p):
    """{c: x * inv} as a fresh dict: reduced mod p when p is nonzero; over Q
    (p = 0) an integral product is stored as the int, so a pivot row scaled
    by a Fraction holds no Fraction with denominator 1."""
    if p:
        return {c: x * inv % p for c, x in v.items()}
    if type(inv) is int:
        return {c: x * inv for c, x in v.items()}
    out = {}
    for c, x in v.items():
        y = x * inv
        out[c] = y.numerator if type(y) is Fraction and y.denominator == 1 else y
    return out


class Echelon:
    """Fully reduced sparse row echelon over a fixed field.

    ``rows`` maps a pivot column to a row (dict) whose pivot entry is 1 and
    which contains no other pivot column in its support.  Insertions keep
    the whole collection reduced, so coordinates with respect to the stored
    basis can be read off pivot entries directly.

    ``_occ`` is the column index: it maps each non-pivot column held by
    some row to the set of pivots whose rows hold it, and holds nothing
    else (no empty set, no pivot column).  An insert back-substitutes only
    the rows listed under its new pivot.  Only this module writes ``rows``,
    and every write leaves the index equal to the one rebuilt from ``rows``.
    """

    __slots__ = ("field", "rows", "_occ")

    def __init__(self, field):
        self.field = field
        self.rows = {}
        self._occ = {}

    def copy(self):
        """An echelon on copies of these rows and index sets."""
        out = Echelon(self.field)
        out.rows = {p: dict(r) for p, r in self.rows.items()}
        out._occ = {c: set(s) for c, s in self._occ.items()}
        return out

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def reduce(self, vec):
        """Residual of vec modulo the stored span (a fresh dict).

        A one-entry vec {c: x} is its own residual when c is no pivot, and
        -x * (row_c - e_c) otherwise: exact, as the rows are fully reduced, so
        the tail of row_c holds no pivot column to eliminate again.
        """
        rows = self.rows
        p = self.field.characteristic
        if len(vec) == 1:
            (c,) = vec
            x = vec[c]
            if not x:
                return {}
            row = rows.get(c)
            if row is None:
                return {c: x}
            if p:
                return {c2: -x * y % p for c2, y in row.items() if c2 != c}
            return {c2: -x * y for c2, y in row.items() if c2 != c}
        # This loop and the one in insert inline vec_add_scaled: they are the
        # package's hottest, and a call per row made the benchmark slower.
        v = {c: x for c, x in vec.items() if x}
        if p:
            for c in sorted(v):
                coef = v.get(c)
                if coef is None or c not in rows:
                    continue
                for c2, x in rows[c].items():
                    val = (v.get(c2, 0) - coef * x) % p
                    if val:
                        v[c2] = val
                    else:
                        v.pop(c2, None)
            return v
        for c in sorted(v):
            coef = v.get(c)
            if coef is None or c not in rows:
                continue
            for c2, x in rows[c].items():
                y = v.get(c2)
                val = -coef * x if y is None else y - coef * x
                if val:
                    v[c2] = val
                else:
                    v.pop(c2, None)
        return v

    def insert(self, vec):
        """Add vec to the span. Returns the new pivot column, or None."""
        v = self.reduce(vec)
        if not v:
            return None
        piv = min(v)
        inv = self.field.inv(v[piv])
        p = self.field.characteristic
        rows, occ = self.rows, self._occ
        # a fresh row: v lost entries in reduce, and a dict keeps the room
        # of what it lost, which every later pass over the row would cross
        row = _scaled(v, inv, p)
        tail = dict(row)
        del tail[piv]
        for c in tail:
            held = occ.get(c)
            if held is None:
                occ[c] = {piv}
            else:
                held.add(piv)
        # Every other column of the new row is a non-pivot column, so a
        # touched row gains or loses only indexed columns; each keeps the
        # new row in its set, so no set empties.  A new entry -coef * x is
        # nonzero, over GF(p) too, as p is prime.
        for q in occ.pop(piv, ()):
            r2 = rows[q]
            coef = r2.pop(piv)
            if p:
                for c, x in tail.items():
                    y = r2.get(c)
                    if y is None:
                        r2[c] = -coef * x % p
                        occ[c].add(q)
                        continue
                    y = (y - coef * x) % p
                    if y:
                        r2[c] = y
                    else:
                        del r2[c]
                        occ[c].discard(q)
                continue
            for c, x in tail.items():
                y = r2.get(c)
                if y is None:
                    r2[c] = -coef * x
                    occ[c].add(q)
                    continue
                y = y - coef * x
                if y:
                    r2[c] = y
                else:
                    del r2[c]
                    occ[c].discard(q)
        rows[piv] = row
        return piv

    def contains(self, vec):
        return not self.reduce(vec)

    def coords(self, vec):
        """Coordinates of vec in the stored basis (pivot order), or None."""
        res = self.reduce(vec)
        if res:
            return None
        return [vec.get(p, self.field.zero) for p in self.pivots()]

    def basis_rows(self):
        return [self.rows[p] for p in self.pivots()]


def leading_columns(vectors, field):
    """Leading columns of a forward elimination of an iterable of sparse
    vectors with int columns, one per pivot row (see :func:`_pivot_rows`).

    The leading column of a row is its largest, so when the columns are
    numbered by a monomial order, larger columns for larger monomials, these
    are the leading monomials of the span.
    """
    return _pivot_rows(vectors, field).keys()


def row_rank(vectors, field):
    """Rank of the span of an iterable of sparse vectors with int columns.

    Forward elimination only (see :func:`_pivot_rows`): nothing but the
    count is returned, so no stored row is back-substituted.  Use
    :class:`Echelon` where rows or coordinates are read.
    """
    return len(leading_columns(vectors, field))


def _pivot_rows(vectors, field):
    """{leading column: row} of a forward elimination of the vectors.

    Each pivot row is stored under its leading column, scaled through
    ``field.inv`` so that entry is 1, and is never reduced again.  An
    incoming vector is cleared column by column until its leading column
    has no row (a new pivot) or nothing is left.

    The leading column is the largest one.  Any order gives the rank; on
    the coboundary images of ``hochschild.sh_dim`` the largest took about
    half the time of the smallest (Lambda_4 at n = 2: 4.2 s against
    8.5 s).
    """
    rows = {}
    p = field.characteristic
    for vec in vectors:
        v = {c: x for c, x in vec.items() if x}
        todo = [-c for c in v]  # a heap of the columns to clear, largest first
        heapq.heapify(todo)
        while todo:
            piv = -heapq.heappop(todo)
            coef = v.get(piv)
            if coef is None:
                continue
            row = rows.get(piv)
            if row is None:
                inv = field.inv(coef)
                rows[piv] = v if inv == 1 else _scaled(v, inv, p)
                break
            # inlined like Echelon.reduce; a new column goes on the heap.  Over
            # GF(p) a new entry -coef * x is nonzero, as p is prime.
            if p:
                for c, x in row.items():
                    y = v.get(c)
                    if y is None:
                        v[c] = -coef * x % p
                        heapq.heappush(todo, -c)
                    else:
                        y = (y - coef * x) % p
                        if y:
                            v[c] = y
                        else:
                            del v[c]
                continue
            for c, x in row.items():
                y = v.get(c)
                if y is None:
                    v[c] = -coef * x
                    heapq.heappush(todo, -c)
                else:
                    y -= coef * x
                    if y:
                        v[c] = y
                    else:
                        del v[c]
    return rows


# ---------------------------------------------------------------------------
# matrices as sparse columns (exchange type)


class Matrix:
    """Exact matrix stored as its columns, each a dict row -> nonzero scalar.

    No column holds an explicit zero, so two matrices of one shape are equal
    exactly when their column lists are equal.  Matrices are not mutated
    once built.
    """

    __slots__ = ("nrows", "ncols", "cols", "field")

    def __init__(self, nrows, ncols, cols, field):
        """``cols``: ncols dicts {row: nonzero scalar}, taken as they are."""
        if len(cols) != ncols:
            raise ValueError(
                "column count %d does not match shape %dx%d" % (len(cols), nrows, ncols)
            )
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols
        self.field = field

    @classmethod
    def from_rows(cls, rows, field, ncols=None):
        rows = [list(r) for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("cannot infer column count from no rows")
            ncols = len(rows[0])
        cols = [{} for _ in range(ncols)]
        for i, r in enumerate(rows):
            if len(r) != ncols:
                raise ValueError("ragged rows")
            for col, x in zip(cols, r):
                x = field.of(x)
                if x:
                    col[i] = x
        return cls(len(rows), ncols, cols, field)

    @classmethod
    def from_cols_sparse(cls, nrows, cols, field):
        """Copies the column dicts, dropping zero entries."""
        return cls(nrows, len(cols), [{i: x for i, x in c.items() if x} for c in cols], field)

    @classmethod
    def identity(cls, n, field):
        return cls(n, n, [{i: field.one} for i in range(n)], field)

    @classmethod
    def zeros(cls, nrows, ncols, field):
        return cls(nrows, ncols, [{} for _ in range(ncols)], field)

    def __getitem__(self, ij):
        i, j = ij
        return self.cols[j].get(i, self.field.zero)

    def row(self, i):
        zero = self.field.zero
        return [c.get(i, zero) for c in self.cols]

    def row_sparse(self, i):
        return {j: c[i] for j, c in enumerate(self.cols) if i in c}

    def rows_sparse(self):
        """Every row as a sparse dict, in one pass over the columns."""
        rows = [{} for _ in range(self.nrows)]
        for j, c in enumerate(self.cols):
            for i, x in c.items():
                rows[i][j] = x
        return rows

    def cols_sparse(self):
        return self.cols

    def apply(self, vec):
        """Matrix @ sparse vector (dict col -> scalar) -> sparse dict.

        A one-entry {j: coeff} gives a fresh copy of column j when coeff is
        the int 1 (never the column itself), else one vec_add_scaled: the
        general loop with one term.
        """
        cols = self.cols
        field = self.field
        if len(vec) == 1:
            (j,) = vec
            coeff = vec[j]
            if coeff == 1 and type(coeff) is int:
                return dict(cols[j])
            return vec_add_scaled({}, cols[j], coeff, field)
        out = {}
        for j, coeff in vec.items():
            vec_add_scaled(out, cols[j], coeff, field)
        return out

    def compose(self, other):
        """self @ other."""
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = [self.apply(c) for c in other.cols]
        return Matrix(self.nrows, other.ncols, cols, self.field)

    def transpose(self):
        return Matrix(self.ncols, self.nrows, self.rows_sparse(), self.field)

    def is_zero(self):
        return not any(self.cols)

    def scaled(self, coeff):
        cols = [vec_add_scaled({}, c, coeff, self.field) for c in self.cols]
        return Matrix(self.nrows, self.ncols, cols, self.field)

    def _combined(self, other, coeff):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("dimension mismatch")
        field = self.field
        cols = [vec_add_scaled(dict(a), b, coeff, field) for a, b in zip(self.cols, other.cols)]
        return Matrix(self.nrows, self.ncols, cols, self.field)

    def __add__(self, other):
        return self._combined(other, self.field.one)

    def __sub__(self, other):
        return self._combined(other, -1)

    def __neg__(self):
        return self.scaled(-1)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.cols == other.cols
        )

    def __repr__(self):
        return "Matrix(%d x %d over %s)" % (self.nrows, self.ncols, self.field)


def rref(m):
    """Reduce m; returns (reduced Matrix, pivot column tuple).

    Pivot columns are first-nonzero, rows of the result are the reduced
    echelon rows in pivot order followed by zero rows.
    """
    ech = Echelon(m.field)
    for row in m.rows_sparse():
        ech.insert(row)
    pivots = tuple(ech.pivots())
    cols = [{} for _ in range(m.ncols)]
    for r, p in enumerate(pivots):
        for j, x in ech.rows[p].items():
            cols[j][r] = x
    return Matrix(m.nrows, m.ncols, cols, m.field), pivots


def rank(m):
    return row_rank(m.rows_sparse(), m.field)


def kernel_basis(m):
    """Basis of {v : m @ v = 0}, as dense lists, one per free column."""
    red, pivots = rref(m)
    pivset = set(pivots)
    zero, one, neg = m.field.zero, m.field.one, m.field.neg
    basis = []
    for j in range(m.ncols):
        if j in pivset:
            continue
        v = [zero] * m.ncols
        v[j] = one
        for r, x in red.cols[j].items():
            v[pivots[r]] = neg(x)
        basis.append(v)
    return basis


def in_span(vs, v, field):
    """Is v in the span of the vectors vs (all of equal length) over field?"""
    vs = [list(u) for u in vs]
    v = list(v)
    for u in vs:
        if len(u) != len(v):
            raise ValueError("dimension mismatch")
    if not vs:
        return not any(v)
    ech = Echelon(field)
    for u in vs:
        ech.insert({i: x for i, x in enumerate(u) if x})
    return ech.contains({i: x for i, x in enumerate(v) if x})


def solve(m, b):
    """One solution x of m @ x = b (free variables 0), or None."""
    if len(b) != m.nrows:
        raise ValueError("dimension mismatch")
    return solve_sparse(m.ncols, zip(m.rows_sparse(), b), m.field)


def solve_sparse(nvars, equations, field):
    """One solution of a sparse linear system (free variables 0), or None.

    ``equations`` yields (coeffs, rhs) pairs with sparse coefficient dicts
    over variable indices < nvars.
    """
    ech = Echelon(field)
    for coeffs, rhs in equations:
        row = {j: c for j, c in coeffs.items() if c}
        if rhs:
            row[nvars] = rhs
        if row:
            ech.insert(row)
    if nvars in ech.rows:
        return None
    x = [field.zero] * nvars
    for p, row in ech.rows.items():
        x[p] = row.get(nvars, field.zero)
    return x


def kernel_of_constraints(n, constraints, field):
    """Common kernel of sparse linear functionals on F^n.

    ``constraints`` yields dicts {index: scalar}. Returns a list of sparse
    basis vectors of the joint kernel, deterministic in the constraint
    order.  Cheap when n is small and the constraint list is long.
    """
    basis = [{i: field.one} for i in range(n)]
    for con in constraints:
        if not con:
            continue
        vals = [vec_dot(con, v, field) for v in basis]
        pivot = None
        for k, val in enumerate(vals):
            if val:
                pivot = k
                break
        if pivot is None:
            continue
        inv = field.inv(vals[pivot])
        pvec = basis[pivot]
        new_basis = []
        for k, v in enumerate(basis):
            if k == pivot:
                continue
            if vals[k]:
                v = vec_add_scaled(dict(v), pvec, -vals[k] * inv, field)
            new_basis.append(v)
        basis = new_basis
    return basis


class Subspace:
    """A parity-graded subspace of a parity-labelled coordinate space.

    Vectors are sparse dicts over coordinates whose parities are given by
    ``parities``.  An inserted vector is split into its even and odd
    components (the graded closure), and each goes into the one echelon
    ``echelon``.  One echelon is exact: a homogeneous row holds only
    columns of its own parity, so reduction and back-substitution never
    mix parities, and a basis row has the parity of its pivot.

    ``generators`` is None, or a list of homogeneous elements that generate
    the span as an ideal (``algebra.superideal_span`` records them).  A copy
    has none, and an insert that grows the span drops them.
    """

    __slots__ = ("parities", "field", "echelon", "generators")

    def __init__(self, parities, field):
        self.parities = parities
        self.field = field
        self.echelon = Echelon(field)
        self.generators = None

    def copy(self):
        other = Subspace(self.parities, self.field)
        other.echelon = self.echelon.copy()
        return other

    @classmethod
    def span(cls, parities, field, vectors):
        """The graded span of an iterable of vectors; empty ones are skipped."""
        out = cls(parities, field)
        for vec in vectors:
            if vec:
                out.insert(vec)
        return out

    def split(self, vec):
        """The even and odd components of vec, zeros dropped."""
        ev, od = {}, {}
        for c, x in vec.items():
            if x:
                (ev if self.parities[c] == 0 else od)[c] = x
        return ev, od

    def insert(self, vec):
        """Insert the graded components of vec; True if the span grew.

        A one-entry vec {c: x}, x nonzero, needs no split and no echelon
        insert in two cases: c is a pivot whose row is {c: 1} (e_c is in the
        span), or c is no pivot and not in ``_occ`` (no row holds it).  Then
        the row {c: 1} keeps the rows fully reduced, and its empty tail keeps
        ``_occ`` equal to the rebuilt index.  Every other vec, an explicit
        zero included, takes the general path.
        """
        ech = self.echelon
        if len(vec) == 1:
            (c,) = vec
            if vec[c]:
                row = ech.rows.get(c)
                if row is None:
                    if c not in ech._occ:
                        ech.rows[c] = {c: self.field.one}
                        self.generators = None
                        return True
                elif len(row) == 1:
                    return False
        grew = False
        for part in self.split(vec):
            if part and ech.insert(part) is not None:
                grew = True
        if grew:
            self.generators = None
        return grew

    def close(self, vectors, maps):
        """Insert the vectors, then close the span under the linear maps.

        Each map sends a vector to a vector and must send homogeneous
        vectors to homogeneous ones, so the graded components of an image
        are the images of the components.  Returns the vectors that grew
        the span when inserted, in input order.
        """
        grown = [v for v in vectors if v and self.insert(v)]
        queue = list(grown)
        while queue:
            v = queue.pop()
            for f in maps:
                w = f(v)
                if w and self.insert(w):
                    queue.append(w)
        return grown

    def is_closed(self, maps):
        """Every map sends every basis row back into the span."""
        return all(self.contains(f(row)) for row in self.basis() for f in maps)

    def complement(self):
        """``(keep, project)``: the non-pivot coordinates in ascending order,
        and the map sending vec to its residual renumbered by position in
        ``keep``, i.e. the projection onto the quotient by the span."""
        pivots = self.echelon.rows
        keep = [i for i in range(len(self.parities)) if i not in pivots]
        pos = {i: k for k, i in enumerate(keep)}

        def project(vec):
            return {pos[c]: x for c, x in self.residual(vec).items()}

        return keep, project

    def residual(self, vec):
        """vec modulo the span."""
        return self.echelon.reduce(vec)

    def contains(self, vec):
        return not self.residual(vec)

    @property
    def dim(self):
        return self.echelon.rank

    def dims(self):
        odd = sum(1 for p in self.echelon.rows if self.parities[p])
        return (self.dim - odd, odd)

    def is_zero(self):
        return self.dim == 0

    def pivots(self):
        return self.echelon.pivots()

    def basis(self):
        """Homogeneous basis rows, ordered by pivot coordinate."""
        return self.echelon.basis_rows()

    def basis_with_parity(self):
        rows = self.echelon.rows
        return [(self.parities[p], rows[p]) for p in self.pivots()]

    def __eq__(self, other):
        """Equal dimension and one inclusion: the spans are then equal."""
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.dim == other.dim and all(other.contains(r) for r in self.basis())

    def __repr__(self):
        return "Subspace(dim %d = %d|%d)" % (self.dim, *self.dims())


def representatives(stage, below, first):
    """((parity, row) pairs, echelon): the basis rows of ``stage`` whose
    classes are a basis modulo the span of the Subspaces ``below``, and one
    Echelon that gives classes over them.

    The echelon starts as a copy of the echelon of below[0], so nothing is
    eliminated again; further subspaces in ``below`` are inserted on top.
    Each basis row of ``stage`` in turn whose residual keeps an ambient
    coordinate (one < n = len(stage.parities)) becomes representative
    i = first, first + 1, ... and is inserted with the tag coordinate n + i
    set to 1.
    A vector equal to sum_i c_i rep_i modulo ``below`` thus reduces to
    {n + i: -c_i}; one whose residual keeps an ambient coordinate lies
    outside the span.
    """
    n = len(stage.parities)
    ech = below[0].echelon.copy() if below else Echelon(stage.field)
    for S in below[1:]:
        for row in S.basis():
            ech.insert(row)
    reps = []
    for parity, row in stage.basis_with_parity():
        res = ech.reduce(row)
        if res and min(res) < n:
            res[n + first + len(reps)] = stage.field.one
            ech.insert(res)
            reps.append((parity, dict(row)))
    return reps, ech
