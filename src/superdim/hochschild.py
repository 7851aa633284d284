"""Superized Hochschild cochains, square-zero extensions and SH^n.

Cochains f : A^{(n+1)} -> M are stored as tables on basis tuples; the
multilinear extension is implicit.  Only parity-homogeneous cochains are
first-class, since every sign in the coboundary

    d(f)(a0,...,a_{n+1}) = sum_i (-1)^i f(..., a_i a_{i+1}, ...)
                           - (-1)^{|f||a0|} a0 f(a1,...)
                           + (-1)^{n+1} f(a0,...,a_n) a_{n+1}

depends on |f|.  The right action in the last term is the twisted one,
m.a = (-1)^{|a||m|} a.m, applied per basis coordinate of the value; only
on a supercommutative A is it a right action and d a differential.

:func:`coboundary` pushes this formula forward from the nonzero entries of
f instead of evaluating it on all dim^(n+2) output tuples: an entry at t
reaches the inner terms of exactly the tuples that split one t[i] into a
product a b containing it, and the outer terms of (a0,) + t and t + (a,).
A call costs O(nnz(f) * (dim + sum of preimage counts)) against the
O(dim^(n+2) * (n+1)) of a full scan, plus dim^2 ``A.mul_basis`` lookups
for the preimage index.  A private coboundary object holds that index and
the action columns for one parity; :func:`coboundary` builds one and
applies it once, while :func:`sh_dim` builds one per parity and streams
every basis image, as a flat sparse vector, into the rank-only
``exactlin.row_rank``.

:func:`sh_dim` ranks by weight block, one block per symmetry orbit.  On a
presented algebra whose relations are single monomials, over its regular
module, d preserves the weight mdeg(value) - sum mdeg(arguments) of a
coordinate, mdeg being a basis monomial's exponent vector, so d splits
into column-disjoint blocks.  A transposition of two generators of one
parity and bidegree that maps every relation into the ideal is an algebra
automorphism; it carries each block, and d on it, onto the block of the
permuted weight.  So only one block per orbit of the group these
transpositions generate is ranked, and counted with the orbit's size.
Over F2 the odd-diagonal conditions of C^n mix weights once n >= 2, so
there, and on any other algebra or module, the whole matrix is one block.

The subcomplex C^n(A, M) is cut out by the unit condition in the first
slot, the reversal symmetry with sign (-1)^{n(n-1)/2 + sum_{i<j}|a_i||a_j|},
and, when 2 is not invertible, the vanishing of f on odd diagonals.  All
three have a closed form (see :func:`cochain_space_basis`): the unit may
sit at neither end, and one vector per reversal orbit remains.  The
diagonal condition is not multilinear, but over F2 it is equivalent to
the vanishing of the sum of f over the all-odd tuples of each entry set
(:func:`is_in_C`), which on the orbit basis ties together only the
all-odd palindromes of one entry set.

An odd super-skew pi in C^1(A, A) is the datum of a square-zero extension
A_pi on A + PiA; pi is a cocycle exactly when the four product rules give
an associative unital algebra: pi(1, -) = pi(-, 1) = 0 and d_1 pi = 0 on
the regular module.  Two extensions are adaptively isomorphic exactly when
pi' - pi is a coboundary d0(f) with f odd and f(1) = 0.
:func:`adapted_equivalence` builds that linear system from the odd
coboundary object on the regular module: its columns are the flat images
of the unit cochains e_i -> e_r.
"""

from __future__ import annotations

import itertools
import math
import weakref

from .algebra import AlgebraError, FiniteSuperAlgebra, is_algebra_map, is_supercommutative
from .algebra import presented_supercommutative
from .exactlin import Matrix, row_rank, solve_sparse
from .exactlin import vec_add_scaled, vec_from_sums
from .smodule import RegularModule, regular_module
from .superpoly import EVEN, ODD, SuperPolynomial, monomial_word

__all__ = [
    "Cochain",
    "zero_cochain",
    "cochain_add",
    "cochain_sub",
    "cochain_parity_violations",
    "coboundary",
    "is_in_C",
    "is_super_skew",
    "is_cocycle_pi",
    "assemble_square_zero",
    "build_A_pi",
    "adapted_equivalence",
    "adapted_isomorphism_matrix",
    "sh_dim",
    "cochain_space_basis",
]


class Cochain:
    """f : A^{(n+1)} -> M as a table on basis-index tuples.

    Absent tuples are zero.  ``parity`` is the declared parity of f; the
    values on a tuple then must be homogeneous of parity
    |f| + sum of input parities (see :func:`cochain_parity_violations`).
    """

    __slots__ = ("n", "parity", "table")

    def __init__(self, n, parity, table=None):
        if parity not in (EVEN, ODD):
            raise AlgebraError("parity must be 0 or 1")
        self.n = n
        self.parity = parity
        self.table = {}
        if table:
            for tup, vec in table.items():
                tup = tuple(tup)
                if len(tup) != n + 1:
                    raise AlgebraError("tuple length %d, expected %d" % (len(tup), n + 1))
                cleaned = {r: c for r, c in vec.items() if c}
                if cleaned:
                    self.table[tup] = cleaned

    def value(self, tup):
        return self.table.get(tuple(tup), {})

    def is_zero(self):
        return not self.table

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (
            self.n == other.n
            and self.parity == other.parity
            and self.table == other.table
        )

    def __repr__(self):
        return "Cochain(n=%d, parity=%d, %d nonzero tuples)" % (
            self.n,
            self.parity,
            len(self.table),
        )


def zero_cochain(n, parity):
    return Cochain(n, parity, {})


def cochain_add(f, g, field, coeff=1):
    """f + coeff * g over field."""
    if f.n != g.n or f.parity != g.parity:
        raise AlgebraError("cochain shape mismatch")
    table = {t: dict(v) for t, v in f.table.items()}
    for t, v in g.table.items():
        vec_add_scaled(table.setdefault(t, {}), v, coeff, field)
    return Cochain(f.n, f.parity, table)


def cochain_sub(f, g, field):
    return cochain_add(f, g, field, -1)


def cochain_parity_violations(f, A, target_parities):
    """Tuples whose value is not homogeneous of parity |f| + sum |a_i|."""
    bad = []
    for tup, vec in f.table.items():
        want = (f.parity + sum(A.parities[i] for i in tup)) % 2
        if any(target_parities[r] != want for r in vec):
            bad.append(tup)
    return bad


# ---------------------------------------------------------------------------
# coboundary


class _Coboundary:
    """d_n on the cochains of one parity over (A, M), for every n.

    Holds what every application shares, built once: the preimage index
    (for each basis element e_k, the products e_a e_b whose coefficient c
    on e_k is nonzero, as (a * dim + b, c), from dim^2 ``A.mul_basis``
    lookups), and the entries of the ``act_basis`` columns with the signs
    of the left and the twisted right action.

    A tuple u of basis indices is coded as the integer sum_j u_j
    dim^(len(u)-1-j), which orders codes as the tuples are ordered, and the
    coordinate r of the value at u as code * M.dim + r.  :meth:`image`
    returns d_n(f) in that flat coding, ready for ``row_rank``.  It adds
    the unreduced products c * x of every term into one dict of sums and
    reduces them once, through ``exactlin.vec_from_sums``: over F_p the
    terms are ints, and reduction mod p is a ring map from the integers,
    so the sum reduced once equals the sum reduced term by term; over Q
    nothing is reduced.

    Every term of d maps a coordinate (t, r) to coordinates of the same
    weight mdeg(e_r) - sum_i mdeg(e_{t_i}) whenever A is graded by
    generator exponents and M is A's regular module: a product e_a e_b is
    a multiple of the monomial of exponent mdeg(e_a) + mdeg(e_b), and the
    actions add mdeg(e_a) to both the value and the arguments.  That is
    what lets :func:`sh_dim` rank block by block (:class:`_WeightOrbits`).
    """

    __slots__ = ("dim", "mdim", "preimages", "actions", "field")

    def __init__(self, A, M, parity):
        dim = A.dim
        preimages = [[] for _ in range(dim)]
        for a in range(dim):
            for b in range(dim):
                for k, c in A.mul_basis(a, b).items():
                    preimages[k].append((a * dim + b, c))
        # per value coordinate r, one entry (a, s, left * z, twist * z) for
        # every coefficient z on e_s of a.e_r.  The left sign -(-1)^{|f||a|}
        # is -1 unless both f and a are odd; the twisted right action
        # e_r.a = (-1)^{|a||r|} a.e_r flips when both are odd.
        actions = [[] for _ in range(M.dim)]
        for a in range(dim):
            odd = A.parities[a] == ODD
            left = 1 if parity == ODD and odd else -1
            for r, col in enumerate(M.act_basis(a).cols):
                twist = -1 if odd and M.parities[r] else 1
                actions[r].extend((a, s, left * z, twist * z) for s, z in col.items())
        self.dim = dim
        self.mdim = M.dim
        self.preimages = preimages
        self.actions = actions
        self.field = M.field

    def image(self, table, n):
        """d_n of the cochain with this table, as {output code * M.dim + r: scalar}."""
        dim, mdim = self.dim, self.mdim
        preimages = self.preimages
        actions = self.actions
        right = -1 if n % 2 == 0 else 1  # (-1)^{n+1}
        top = dim ** (n + 1) * mdim
        # slot i: the code of t[i+1:] is below w = dim^(n-i), and t[:i]
        # moves up past the pair ab that replaces t[i]
        slots = [(i, dim ** (n - i), dim ** (n - i + 1), i % 2) for i in range(n + 1)]
        sums = {}
        get = sums.get
        for t, val in table.items():
            code = 0
            for x in t:
                code = code * dim + x
            low = code * mdim
            high = low * dim
            for r, x in val.items():
                for i, w, wd, odd in slots:
                    key = (code // wd * wd * dim + code % w) * mdim + r
                    step = w * mdim
                    y = -x if odd else x
                    for ab, c in preimages[t[i]]:
                        k = key + ab * step
                        sums[k] = get(k, 0) + c * y
                xr = right * x
                for a, s, lz, tz in actions[r]:
                    k = a * top + low + s
                    sums[k] = get(k, 0) + lz * x
                    k = high + a * mdim + s
                    sums[k] = get(k, 0) + tz * xr
        return vec_from_sums(sums, self.field)

    def cochain(self, f):
        """d_n(f) as a Cochain: the image with its flat keys decoded to tuples."""
        table = {}
        for key, c in self.image(f.table, f.n).items():
            code, r = divmod(key, self.mdim)
            tup = []
            for _ in range(f.n + 2):
                code, x = divmod(code, self.dim)
                tup.append(x)
            table.setdefault(tuple(reversed(tup)), {})[r] = c
        return Cochain(f.n + 1, f.parity, table)


_ODD_COBOUNDARIES = weakref.WeakKeyDictionary()  # a _Coboundary holds no reference to A


def _odd_regular_coboundary(A):
    """The odd :class:`_Coboundary` on A's regular module, built once per
    live algebra: the entry goes when A does."""
    d = _ODD_COBOUNDARIES.get(A)
    if d is None:
        d = _ODD_COBOUNDARIES[A] = _Coboundary(A, regular_module(A), ODD)
    return d


def _require_supercommutative(A):
    """Refuse A unless it is supercommutative, as d is a differential only then."""
    if not (presented_supercommutative(A) or is_supercommutative(A)):
        raise AlgebraError("algebra %s is not supercommutative" % A.name)


def coboundary(f, A, M):
    """d_n(f) as a Cochain of arity n+2 with the same parity.

    Pushed forward from the support of f.  A value c at tuple t adds
    (-1)^i * mu * c at t[:i] + (a, b) + t[i+1:] for every slot i and every
    basis product e_a e_b whose coefficient on e_{t[i]} is mu.  The left and
    right actions add at (a0,) + t and t + (a,) for every basis element.
    The cost is O(nnz(f) * (dim + sum of preimage counts)) instead of a
    scan of all dim^(n+2) output tuples, plus the dim^2 ``A.mul_basis``
    lookups of the preimage index, which each call builds once.
    :func:`sh_dim` builds that index once per parity and applies it to a
    whole basis.
    """
    return _Coboundary(A, M, f.parity).cochain(f)


# ---------------------------------------------------------------------------
# the subcomplex C^n


def _reversal_flips(n, odd_count):
    """Whether the reversal sign (-1)^{n(n-1)/2 + sum_{i<j}|a_i||a_j|} is -1.

    The sum over pairs counts the pairs of odd entries, C(odd_count, 2).
    """
    return (n * (n - 1) // 2 + odd_count * (odd_count - 1) // 2) % 2 == 1


def _reversal_symmetric(f, A):
    """f(reversed t) is f(t) times the reversal sign, on every basis tuple."""
    neg = A.field.neg
    for tup in set(f.table) | {t[::-1] for t in f.table}:
        want = f.value(tup)
        if _reversal_flips(f.n, sum(A.parities[i] for i in tup)):
            want = {r: neg(c) for r, c in want.items()}
        if f.value(tup[::-1]) != want:
            return False
    return True


def is_in_C(f, A, M):
    """Membership in C^n(A, M).

    Checks the unit condition in the first slot, the reversal symmetry on
    basis tuples, and over F2 additionally f(a, ..., a) = 0 for every odd
    a.  Over F2 an odd a is the sum of a set S of odd basis elements, and
    f(a, ..., a) is the sum of f over S^(n+1), which is the sum of g(T)
    over the nonempty T in S, g(T) being the sum of f over the all-odd
    tuples whose set of entries is exactly T.  By Moebius inversion over
    the subsets, every diagonal vanishes exactly when every g(T) does, so
    one pass over the support of f sums the g(T).
    """
    unit = A.unit_index
    for tup, vec in f.table.items():
        if tup[0] == unit and vec:
            return False
    if not _reversal_symmetric(f, A):
        return False
    if A.field.characteristic == 2 and f.n >= 1:
        sums = {}
        for tup, vec in f.table.items():
            if all(A.parities[i] == ODD for i in tup):
                vec_add_scaled(sums.setdefault(frozenset(tup), {}), vec, 1, A.field)
        if any(sums.values()):
            return False
    return True


# ---------------------------------------------------------------------------
# extension data


def is_super_skew(pi, A):
    """pi(b,c) = (-1)^{|b||c|} pi(c,b) and pi(a,a) = 0 for odd a.

    Basis pairs suffice: bilinearity makes the symmetry pointwise, and the
    diagonal of any odd vector expands into basis diagonals plus pairs
    that cancel by the symmetry (in every characteristic).  The symmetry is
    the reversal symmetry of C^1: for n = 1 the reversal sign is -1 exactly
    on pairs of odd entries.
    """
    if pi.n != 1:
        raise AlgebraError("extension data are 2-argument cochains")
    if not _reversal_symmetric(pi, A):
        return False
    for i in range(A.dim):
        if A.parities[i] == ODD and pi.value((i, i)):
            return False
    return True


def is_cocycle_pi(pi, A):
    """Exactly what associativity of the extension table needs, on basis triples:
    pi(1, a) = pi(a, 1) = 0 and pi(ab, c) - pi(a, bc) + pi(a, b)c - (-1)^{|a|} a pi(b, c) = 0.

    The second is d_1 pi = 0 for the odd coboundary on the regular module,
    whatever parity pi declares (the left sign -(-1)^{|a|} is the odd one),
    since on a supercommutative A, which is required, the twisted right
    action of the regular module is right multiplication.  So it is one
    push-forward from the support of pi.
    """
    if pi.n != 1:
        raise AlgebraError("extension data are 2-argument cochains")
    _require_supercommutative(A)
    unit = A.unit_index
    if any(pi.value((unit, j)) or pi.value((j, unit)) for j in range(A.dim)):
        return False
    return not _odd_regular_coboundary(A).image(pi.table, 1)


def _require_extension_datum(A, pi):
    """Refuse pi unless it is an odd, parity-homogeneous, super-skew
    2-argument cocycle: the datum of a square-zero extension A_pi."""
    if pi.n != 1:
        raise AlgebraError("pi must take two arguments")
    if pi.parity != ODD:
        raise AlgebraError("pi must be odd")
    bad = cochain_parity_violations(pi, A, A.parities)
    if bad:
        raise AlgebraError("pi value not parity-homogeneous at %r" % (bad[0],))
    if not is_super_skew(pi, A):
        raise AlgebraError("pi is not super-skew")
    if not is_cocycle_pi(pi, A):
        raise AlgebraError("pi is not a cocycle")


def assemble_square_zero(A, pi, name=None):
    """The algebra on A + PiA with the four product rules, unchecked.

    a o b = ab + Pi pi(a,b); a o Pib = (-1)^{|a|} Pi(ab); (Pib) o a = Pi(ba);
    (Pia) o (Pib) = 0.  Use :func:`build_A_pi` for the validated build.
    """
    dim, neg = A.dim, A.field.neg
    table = {}
    for i in range(dim):
        odd_i = A.parities[i] == ODD
        for j in range(dim):
            prod = A.mul_basis(i, j)
            vec = dict(prod)
            for r, c in pi.value((i, j)).items():
                vec[dim + r] = c
            if vec:
                table[(i, j)] = vec
            if prod:
                table[(i, dim + j)] = {
                    dim + r: neg(c) if odd_i else c for r, c in prod.items()
                }
                table[(dim + i, j)] = {dim + r: c for r, c in prod.items()}
    labels = list(A.labels) + ["Pi(%s)" % lab for lab in A.labels]
    parities = list(A.parities) + [1 - q for q in A.parities]
    odd_gens = [(lab, dict(vec)) for lab, vec in A.odd_module_generators()]
    odd_gens.append(("Pi(1)", {dim + A.unit_index: A.field.one}))
    return FiniteSuperAlgebra.from_table(
        labels=labels,
        parities=parities,
        field=A.field,
        table=table,
        unit_index=A.unit_index,
        name=name or (A.name + "_pi"),
        odd_module_generators=odd_gens,
    )


def build_A_pi(A, pi, name=None):
    """Validated square-zero extension: pi must be an odd super-skew
    cocycle, otherwise the product rules fail associativity."""
    _require_extension_datum(A, pi)
    return assemble_square_zero(A, pi, name=name)


# ---------------------------------------------------------------------------
# adapted isomorphisms


def _odd_map_variables(A):
    """(i, r) slots of an odd f : A -> A with f(1) = 0."""
    out = []
    for i in range(A.dim):
        if i == A.unit_index:
            continue
        want = 1 - A.parities[i]
        for r in range(A.dim):
            if A.parities[r] == want:
                out.append((i, r))
    return out


def adapted_equivalence(pi, pi2, A):
    """A certificate f with d0(f) = pi2 - pi (odd, f(1) = 0), or None.

    Both inputs must be extension data (see :func:`build_A_pi`).  The
    system is d_0 of the odd cochains on the regular module, from one
    :class:`_Coboundary`: column t is the flat image of the unit cochain
    e_i -> e_r of variable t = (i, r), and pi2 - pi is flattened with the
    same coding.  A solution is substituted back, and the induced map
    a -> a + Pi f(a), Pi a -> Pi a is verified to be an isomorphism of the
    two square-zero extensions.
    """
    for p in (pi, pi2):
        _require_extension_datum(A, p)
    field = A.field
    dim = A.dim
    d0 = _odd_regular_coboundary(A)
    variables = _odd_map_variables(A)
    eqs = {}
    for t, (i, r) in enumerate(variables):
        for k, c in d0.image({(i,): {r: field.one}}, 0).items():
            eqs.setdefault(k, {})[t] = c
    diff = cochain_sub(pi2, pi, field)
    rhs = {
        (i * dim + j) * dim + s: c for (i, j), vec in diff.table.items() for s, c in vec.items()
    }
    rows = ((eqs.get(k, {}), rhs.get(k, field.zero)) for k in sorted(eqs.keys() | rhs.keys()))
    x = solve_sparse(len(variables), rows, field)
    if x is None:
        return None
    table = {}
    for t, (i, r) in enumerate(variables):
        if x[t]:
            table.setdefault((i,), {})[r] = x[t]
    f = Cochain(0, ODD, table)
    if d0.cochain(f) != diff:
        raise AlgebraError("internal error: solved f fails substitution")
    R1 = assemble_square_zero(A, pi)
    R2 = assemble_square_zero(A, pi2)
    if not is_algebra_map(R1, R2, adapted_isomorphism_matrix(A, f)):
        raise AlgebraError("internal error: adapted map is not multiplicative")
    return f


def adapted_isomorphism_matrix(A, f):
    """Matrix of a -> a + Pi f(a), Pi a -> Pi a on A + PiA."""
    dim = A.dim
    cols = []
    for i in range(dim):
        col = {i: A.field.one}
        for r, c in f.value((i,)).items():
            col[dim + r] = c
        cols.append(col)
    for i in range(dim):
        cols.append({dim + i: A.field.one})
    return Matrix.from_cols_sparse(2 * dim, cols, A.field)


# ---------------------------------------------------------------------------
# weight blocks and their symmetry orbits


def _transposition_qualifies(A, g, h):
    """Whether swapping generators g and h maps every relation into the
    ideal.  tau(rel) multiplies the swapped generators along each
    monomial's word, so the sign of reordering odd letters is exact."""
    pres = A.presentation
    gens, flavor, field = pres.gens, pres.flavor, pres.field
    swap = {g: h, h: g}
    image = [SuperPolynomial.generator(swap.get(i, i), flavor, gens, field)
             for i in range(len(gens))]
    for rel in pres.relations:
        moved = SuperPolynomial.zero(flavor, gens, field)
        for m, c in rel.terms.items():
            term = SuperPolynomial.one(flavor, gens, field)
            for letter in monomial_word(m, gens, flavor):
                term = term * image[letter]
            moved = moved + term.scaled(c)
        if A.reduce_poly(moved):
            return False
    return True


def _symmetry(A, M):
    """(mdeg of each basis element, components), or None out of scope.

    In scope: A monomial-kind with single-monomial relations, M its
    :class:`RegularModule`, characteristic not 2, and some qualifying
    transposition of two generators of one parity and bidegree.  The
    components (of two or more generators) are those of the graph of
    qualifying transpositions, whose group is the product of the symmetric
    groups on them.
    """
    if (A.kind != "monomial" or A.field.characteristic == 2
            or not isinstance(M, RegularModule) or M.algebra is not A
            or any(len(rel.terms) != 1 for rel in A.presentation.relations)):
        return None
    gens = A.presentation.gens
    classes = {}
    for gi, g in enumerate(gens):
        classes.setdefault((g.parity, g.bidegree), []).append(gi)
    component = {gi: {gi} for gi in range(len(gens))}
    for members in classes.values():
        for g, h in itertools.combinations(members, 2):
            # once joined, (g h) is in the group whether or not it qualifies
            if component[g] is not component[h] and _transposition_qualifies(A, g, h):
                merged = component[g] | component[h]
                for gi in merged:
                    component[gi] = merged
    components = sorted({tuple(sorted(c)) for c in component.values() if len(c) > 1})
    if not components:
        return None
    words = map(A.basis_word, range(A.dim))
    return [tuple(map(w.count, range(len(gens)))) for w in words], components


class _WeightOrbits:
    """The coordinates (tup, r) that :func:`sh_dim` ranks, with the size of
    the orbit of their weight block.

    ``rows(tup)`` lists, per value parity, the (r, orbit size) of tup whose
    weight mdeg(e_r) - sum mdeg(e_{t_i}) is sorted within every component
    of ``symmetry``, the orbit's representative; the size is the product of
    the multinomial coefficients of those sorted runs.  Each mdeg is packed
    into one int, digit j to a base that holds a sum of n + 1 exponents, and
    rows are cached per packed sum.  With no symmetry every mdeg is 0: one
    block of orbit size 1 that keeps every coordinate.
    """

    def __init__(self, A, M, n, symmetry):
        self.parities = M.parities
        self._rows = {}
        if symmetry is None:
            self.mdeg, self.components, self.base = [()] * M.dim, [], 1
            self.packed = [0] * A.dim
        else:
            self.mdeg, self.components = symmetry
            self.base = (n + 1) * max(map(max, self.mdeg)) + 1
            self.packed = [sum(x * self.base**j for j, x in enumerate(e)) for e in self.mdeg]

    def rows(self, tup):
        key = sum(map(self.packed.__getitem__, tup))
        hit = self._rows.get(key)
        if hit is None:
            hit = self._rows[key] = self._classify(key)
        return hit

    def _classify(self, key):
        digits = []
        while key:
            key, x = divmod(key, self.base)
            digits.append(x)
        out = ([], [])
        for r, e in enumerate(self.mdeg):
            weight = [a - b for a, b in itertools.zip_longest(e, digits, fillvalue=0)]
            size = 1
            for comp in self.components:
                run = [weight[j] for j in comp]
                if run != sorted(run):
                    break
                size *= math.factorial(len(run))
                for x in set(run):
                    size //= math.factorial(run.count(x))
            else:
                out[self.parities[r]].append((r, size))
        return out


# ---------------------------------------------------------------------------
# cohomology of the subcomplex


def cochain_space_basis(A, M, n, parity):
    """Deterministic basis of C^n(A, M) of the given parity, written down.

    The coordinates of a cochain are the pairs (tup, r) whose value parity
    M.parities[r] is parity + sum of the parities in tup, in lexicographic
    order.  Together, the unit condition and the reversal symmetry kill
    every tuple with the unit at either end.  Of each remaining reversal
    pair tup > rev, one vector per r is left: e_(tup, r) + sign e_(rev, r),
    sign being the reversal sign of tup.  A self-reverse tuple leaves
    e_(tup, r) when 1 - sign is zero in the field.  The vectors come in
    the order of their tup, which is the basis, vector for vector, that
    eliminating the constraints one by one with kernel_of_constraints
    leaves.  Over F2 the odd-diagonal conditions have a closed form too:
    one palindrome per entry set and value coordinate is dropped and added
    to the others of its set (see :func:`_basis_tables`).  This is the
    one-block case of :func:`_basis_tables`.
    """
    tables = _basis_tables(A, M, n, parity, _WeightOrbits(A, M, n, None)).get(1, [])
    return [Cochain(n, parity, table) for table in tables]


def _basis_tables(A, M, n, parity, orbits):
    """{orbit size: [table]}: the basis vectors of C^n of this parity, as
    bare tables, that lie in the representative weight blocks of ``orbits``,
    grouped by the size of their block's orbit (see :func:`cochain_space_basis`).

    Over F2 with n >= 1, f must also have g(T, r) = 0 for every nonempty
    set T of odd basis elements (see :func:`is_in_C`), g(T, r) being the
    sum of the coordinates (tup, r) over the all-odd tuples with entry set
    exactly T.  A reversal pair adds 2 = 0 to g, so only the all-odd
    palindromes enter, each in one (T, r).  The first of them in each
    (T, r) is its head: it is dropped, and every later one gets the head
    added.  That is the basis, vector for vector, that solving the
    conditions in the order of their sets would leave, the head being each
    condition's pivot.  Only the one-block case reaches here (see
    :func:`_symmetry`).
    """
    unit = A.unit_index
    field = A.field
    one = field.one
    diagonal = field.characteristic == 2 and n >= 1
    heads = {}
    out = {}
    for tup in itertools.product(range(A.dim), repeat=n + 1):
        rev = tup[::-1]
        if tup[0] == unit or tup[-1] == unit or tup < rev:
            continue
        odd_count = sum(A.parities[i] for i in tup)
        sign = field.neg(one) if _reversal_flips(n, odd_count) else one
        if tup == rev and sign != one:
            continue
        for r, size in orbits.rows(tup)[(parity + odd_count) % 2]:
            if tup != rev:
                table = {tup: {r: one}, rev: {r: sign}}
            elif diagonal and odd_count == n + 1:
                key = (frozenset(tup), r)
                if key not in heads:
                    heads[key] = tup
                    continue
                table = {tup: {r: one}, heads[key]: {r: one}}
            else:
                table = {tup: {r: one}}
            out.setdefault(size, []).append(table)
    return out


# Most cells, dim(A)^(n+2) * dim(M), the cochain tables of sh_dim may span:
# 2^20 admits the 32-dimensional Grassmann algebra at n = 1.  The arity
# n + 2 is capped first, at MAX_SH_CELLS.bit_length(): the cell bound
# implies that cap once dim(A) >= 2, and checking it first means no huge
# power is formed and a 1-dimensional algebra or a zero module cannot ask
# for any n.
MAX_SH_CELLS = 1 << 20


def sh_dim(A, M, n):
    """(even, odd) dimensions of SH^n(A, M) = ker/im inside C^n.

    Per parity, one :class:`_Coboundary` serves both d_n and d_{n-1}; each
    basis image is streamed as a flat sparse vector into the rank-only
    ``row_rank``, so no d is held whole.  Then
    SH^n = (dim C^n - rank d_n) - rank d_{n-1}.  A must be supercommutative.

    The ranks are taken one weight block at a time, one block per orbit
    (:class:`_WeightOrbits`): d preserves the weight, so the images of
    different blocks lie on disjoint coordinates, and a generator
    permutation that keeps the ideal is an automorphism carrying a block
    and its d onto those of another weight.  So rank d = sum over orbits
    of size * rank(representative block), and dim C^n is the same
    size-weighted count; the representatives of one orbit size share one
    ``row_rank`` call.  Outside the scope of :func:`_symmetry` there is one
    block of orbit size 1, the whole matrix.
    """
    if n < 0:
        raise ValueError("n must be nonnegative, not %d" % n)
    cap = MAX_SH_CELLS.bit_length()
    if n + 2 > cap:
        raise AlgebraError(
            "cochain tables exceed the size bound: arity %d is past the cap of %d" % (n + 2, cap)
        )
    cells = A.dim ** (n + 2) * M.dim
    if cells > MAX_SH_CELLS:
        raise AlgebraError(
            "cochain tables exceed the size bound: dim(A)^(n+2) * dim(M) = %d^%d * %d = %d "
            "cells, past the budget of %d" % (A.dim, n + 2, M.dim, cells, MAX_SH_CELLS)
        )
    _require_supercommutative(A)
    coboundaries = [_Coboundary(A, M, parity) for parity in (EVEN, ODD)]
    field = A.field
    orbits = _WeightOrbits(A, M, n, _symmetry(A, M))
    out = []
    for parity, d in zip((EVEN, ODD), coboundaries):
        sh = 0
        for size, tables in _basis_tables(A, M, n, parity, orbits).items():
            sh += size * (len(tables) - row_rank((d.image(t, n) for t in tables), field))
        if n > 0:
            for size, tables in _basis_tables(A, M, n - 1, parity, orbits).items():
                sh -= size * row_rank((d.image(t, n - 1) for t in tables), field)
        out.append(sh)
    return tuple(out)
