"""Independent ground-truth models used by the tests.

Everything here is computed from first principles (combinatorics, naive
row reduction over Fraction, direct formula evaluation) so that the
package under test is never the judge of its own output.  The three-pass
monomial product, the Hochschild references, the pointwise F2 odd
diagonals, the dense matrix, the enumerated Hilbert tables, the
basis-stepped filtrations, the Fraction-only rationals, the full cap
window, the hand-written closure, the unpruned ideal closure, the eagerly
built regular module, the identity-first word action, the submodule read
through span coordinates, the eager quotient module and quotient
algebra, the two-pass graded components, the scan-all echelon and the
two-echelon graded span at the end are the exception: they are the
package's earlier kernels, kept to pin the current ones to the same
results.
"""

import itertools
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb

from superdim.algebra import (
    AlgebraError,
    FiniteSuperAlgebra,
    _enumerate_monomials,
    presented_supercommutative,
    require_two_sided,
)
from superdim.exactlin import (
    Echelon,
    Matrix,
    _scaled,
    Subspace,
    kernel_of_constraints,
    row_rank,
    vec_add_scaled,
    vec_dot,
)
from superdim.hilbert import DEFAULT_KMAX, BigradedTable, PolynomialFit, _natural_lmax
from superdim.hochschild import Cochain, cochain_space_basis
from superdim.smodule import ModuleError, is_action_closed, module_from_actions
from superdim.superpoly import (
    ASSOCIATIVE,
    EVEN,
    ODD,
    SUPERCOMMUTATIVE,
    monomial_degree,
    monomial_parity,
    monomial_sort_key,
    monomial_word,
    mul_monomials,
)


def perm_parity(perm):
    """+1 or -1 by counting inversions."""
    inv = 0
    n = len(perm)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def epsilon(i, j, k):
    """Sign of the permutation sorting (i, j, k); 0 on repeats."""
    if len({i, j, k}) != 3:
        return 0
    return perm_parity((i, j, k))


def reference_mul_monomials(m1, m2, gens, flavor):
    """The package's earlier monomial product: three generator scans.

    Lists the odd letters of each monomial, refuses a shared one, counts
    the pairs (a in m1, b in m2) with a > b by a merge, and adds the
    exponents pairwise.  Returns (sign, key) or None for zero.
    """
    if flavor == ASSOCIATIVE:
        return (1, m1 + m2)
    odds1 = tuple(i for i, e in enumerate(m1) if e and gens[i].parity == ODD)
    odds2 = tuple(i for i, e in enumerate(m2) if e and gens[i].parity == ODD)
    if set(odds1) & set(odds2):
        return None
    inv = 0
    j = 0
    for a in odds1:
        while j < len(odds2) and odds2[j] < a:
            j += 1
        inv += j
    exps = tuple(a + b for a, b in zip(m1, m2))
    return (-1 if inv % 2 else 1, exps)


# ---------------------------------------------------------------------------
# exterior algebra model: subsets of {0..s-1} with crossing signs


def ext_mul(S, T):
    """(sign, union) for disjoint index sets, None when they overlap."""
    if S & T:
        return None
    crossings = sum(1 for a in S for b in T if a > b)
    return (-1 if crossings % 2 else 1, S | T)


def ext_dims_by_degree(s):
    return [comb(s, t) for t in range(s + 1)]


def ext_chain_dims(s):
    """dim of (odd part)^l applied to the full Grassmann algebra on s
    generators, for l = 0.. until zero: every monomial of degree >= l is
    a product of l odd factors and a remainder."""
    out = []
    for l in range(s + 1):
        d = sum(comb(s, t) for t in range(l, s + 1))
        if d == 0:
            break
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# free bigraded counts for K[X_1..X_d | Y_1..Y_s]


def free_bigraded_dim(d, s, k, l):
    """Monomials X^a Y^S with |a| = k and |S| = l."""
    if d == 0 and k > 0:
        return 0
    return comb(d - 1 + k, k) * comb(s, l) if d > 0 else comb(s, l)


def free_cumulative(d, s, k, l):
    """Sum over t <= k of free_bigraded_dim; hockey-stick closed form."""
    if d == 0:
        return comb(s, l)
    return comb(d + k, k) * comb(s, l)


# ---------------------------------------------------------------------------
# naive exact row reduction (used to pin quotient dimensions)


def naive_rank(rows):
    """Rank of a list of dense Fraction rows, by hand."""
    rows = [list(map(Fraction, r)) for r in rows if any(r)]
    rank = 0
    col = 0
    ncols = max((len(r) for r in rows), default=0)
    for r in rows:
        r.extend([Fraction(0)] * (ncols - len(r)))
    while rows and col < ncols:
        pivot = next((i for i, r in enumerate(rows) if r[col]), None)
        if pivot is None:
            col += 1
            continue
        rows[0], rows[pivot] = rows[pivot], rows[0]
        head = rows.pop(0)
        inv = 1 / head[col]
        head = [x * inv for x in head]
        rows = [
            [x - r[col] * h for x, h in zip(r, head)] if r[col] else r for r in rows
        ]
        rows = [r for r in rows if any(r)]
        rank += 1
        col += 1
    return rank


# ---------------------------------------------------------------------------
# c1's coefficient algebra, rebuilt from scratch


def c1_coefficient_algebra_dim():
    """dim of the associative algebra on x1..x3 (odd), e1..e3 (even)
    modulo x_i e_i - e_i x_i, all x_i x_j, and
    e_i x_j - x_i e_j - x_j e_i + e_j x_i (i != j), truncated at word
    length 3.  Words are indexed 0..5: x_i = i, e_i = 3 + i.
    """
    words = [()]
    frontier = [()]
    for _ in range(3):
        frontier = [w + (g,) for w in frontier for g in range(6)]
        words.extend(frontier)
    index = {w: i for i, w in enumerate(words)}

    rels = []
    for i in range(3):
        rels.append({(i, 3 + i): 1, (3 + i, i): -1})
    for i in range(3):
        for j in range(3):
            rels.append({(i, j): 1})
    for i in range(3):
        for j in range(3):
            if i != j:
                rels.append({(3 + i, j): 1, (i, 3 + j): -1, (j, 3 + i): -1, (3 + j, i): 1})

    spans = []
    for rel in rels:
        for left in [()] + [(g,) for g in range(6)]:
            for right in [()] + [(g,) for g in range(6)]:
                if len(left) + len(right) > 1:
                    continue
                row = [Fraction(0)] * len(words)
                for w, c in rel.items():
                    row[index[left + w + right]] += c
                spans.append(row)
    return len(words) - naive_rank(spans)


# ---------------------------------------------------------------------------
# direct three-term coboundary formula (degree 0 only)


def direct_coboundary0(f_table, f_parity, A):
    """delta_0(f)(a, b) = f(ab) - (-1)^{|f||a|} a f(b) - f(a).b evaluated
    naively on basis pairs; the right action is m.b = (-1)^{|b||m|} b m.
    ``f_table`` maps basis index -> sparse vector over A's basis.
    """
    out = {}
    for i in range(A.dim):
        for j in range(A.dim):
            acc = {}

            def add(vec, scale=1):
                for r, c in vec.items():
                    v = acc.get(r)
                    v = scale * c if v is None else v + scale * c
                    if v:
                        acc[r] = v
                    else:
                        acc.pop(r, None)

            for k, c in A.mul_basis(i, j).items():
                add(f_table.get(k, {}), c)
            sign = 1 if (f_parity and A.parities[i]) else -1
            fb = f_table.get(j, {})
            for k, c in A.mul({i: A.field.one}, fb).items():
                add({k: c}, sign)
            fa = f_table.get(i, {})
            for r, c in fa.items():
                twist = 1 if (A.parities[j] and A.parities[r]) else -1
                for k, c2 in A.mul({j: A.field.one}, {r: c}).items():
                    add({k: c2}, twist)
            if acc:
                out[(i, j)] = acc
    return out


# ---------------------------------------------------------------------------
# the earlier Hochschild kernels, kept as references for the faster ones
#
# scan_coboundary evaluates d_n(f) on every one of the dim^(n+2) output
# tuples, pulling back through every product a_i a_{i+1}.
# solved_cochain_space_basis writes out all unit, reversal and F2
# odd-diagonal constraints on the full variable space and solves them with
# kernel_of_constraints.  Both are the package's code before the
# push-forward coboundary and the orbit basis of C^n replaced them.


def _add_scaled(acc, vec, coeff, field):
    for r, x in vec.items():
        v = acc.get(r)
        t = field.of(coeff * x if v is None else v + coeff * x)
        if t:
            acc[r] = t
        else:
            acc.pop(r, None)


def scan_coboundary(f, A, M):
    """d_n(f) as a Cochain of arity n+2 with the same parity."""
    n = f.n
    dim = A.dim
    out = {}
    neg_left = f.parity == EVEN  # -(-1)^{|f||a0|} is -1 unless both odd

    for tup in itertools.product(range(dim), repeat=n + 2):
        acc = {}
        for i in range(n + 1):
            prod = A.mul_basis(tup[i], tup[i + 1])
            if not prod:
                continue
            head, tail = tup[:i], tup[i + 2 :]
            negate = i % 2 == 1
            for k, c in prod.items():
                val = f.table.get(head + (k,) + tail)
                if val:
                    _add_scaled(acc, val, -c if negate else c, M.field)
        val = f.table.get(tup[1:])
        if val:
            moved = M.act_basis(tup[0]).apply(val)
            if moved:
                if neg_left or A.parities[tup[0]] == EVEN:
                    moved = {r: -c for r, c in moved.items()}
                _add_scaled(acc, moved, _unit_scalar(M.field), M.field)
        val = f.table.get(tup[:-1])
        if val:
            a = tup[-1]
            if A.parities[a] == ODD:
                val = {r: -c if M.parities[r] else c for r, c in val.items()}
            moved = M.act_basis(a).apply(val)
            if moved:
                if n % 2 == 0:  # (-1)^{n+1}
                    moved = {r: -c for r, c in moved.items()}
                _add_scaled(acc, moved, _unit_scalar(M.field), M.field)
        acc = {r: c for r, c in acc.items() if c}
        if acc:
            out[tup] = acc
    return Cochain(n + 1, f.parity, out)


def _unit_scalar(field):
    return field.one


def solved_cochain_space_basis(A, M, n, parity):
    """Deterministic basis of C^n(A, M) of the given parity."""
    dim = A.dim
    unit = A.unit_index
    variables = []
    for tup in itertools.product(range(dim), repeat=n + 1):
        want = (parity + sum(A.parities[i] for i in tup)) % 2
        for r in range(M.dim):
            if M.parities[r] == want:
                variables.append((tup, r))
    vidx = {v: t for t, v in enumerate(variables)}
    field = A.field
    constraints = []
    for t, (tup, r) in enumerate(variables):
        if tup[0] == unit:
            constraints.append({t: field.one})
    seen = set()
    for tup, r in variables:
        rev = tup[::-1]
        if (rev, tup) in seen or (tup, rev) in seen:
            continue
        seen.add((tup, rev))
        pars = [A.parities[i] for i in tup]
        exp = n * (n - 1) // 2 + sum(
            pars[i] * pars[j] for i in range(n + 1) for j in range(i + 1, n + 1)
        )
        sign = field.neg(field.one) if exp % 2 else field.one
        for rr in range(M.dim):
            if (tup, rr) not in vidx:
                continue
            if rev == tup:
                coeff = field.of(field.one - sign)
                if coeff:
                    constraints.append({vidx[(tup, rr)]: coeff})
            else:
                constraints.append(
                    {vidx[(rev, rr)]: field.one, vidx[(tup, rr)]: field.neg(sign)}
                )
    if field.characteristic == 2 and n >= 1:
        odd_idx = [i for i in range(dim) if A.parities[i] == ODD]
        if 2 ** len(odd_idx) > 4096:
            raise AlgebraError("odd part too large for the pointwise diagonal check")
        for mask in range(1, 2 ** len(odd_idx)):
            support = [odd_idx[b] for b in range(len(odd_idx)) if mask >> b & 1]
            per_r = {}
            for tup in itertools.product(support, repeat=n + 1):
                for rr in range(M.dim):
                    t = vidx.get((tup, rr))
                    if t is not None:
                        row = per_r.setdefault(rr, {})
                        v = row.get(t)
                        v = field.one if v is None else field.of(v + field.one)
                        if v:
                            row[t] = v
                        else:
                            row.pop(t, None)
            constraints.extend(row for row in per_r.values() if row)
    kernel = kernel_of_constraints(len(variables), constraints, field)
    out = []
    for vec in kernel:
        table = {}
        for t, c in vec.items():
            tup, r = variables[t]
            table.setdefault(tup, {})[r] = c
        out.append(Cochain(n, parity, table))
    return out


# The F2 odd-diagonal conditions as hochschild had them before their closed
# form: pointwise_is_in_C sums f over S^(n+1) for each of the 2^k - 1
# nonempty sets S of odd basis elements, and orbit_solved_cochain_space_basis
# projects those sums onto the orbit basis and solves them with
# kernel_of_constraints.  Copied verbatim apart from the names.

MAX_ODD_DIAGONAL_SETS = 4096


def _reversal_flips(n, odd_count):
    return (n * (n - 1) // 2 + odd_count * (odd_count - 1) // 2) % 2 == 1


def odd_diagonals(A, n):
    """One tuple list S^(n+1) per nonempty set S of odd basis elements."""
    odd_idx = [i for i in range(A.dim) if A.parities[i] == ODD]
    if 2 ** len(odd_idx) > MAX_ODD_DIAGONAL_SETS:
        raise AlgebraError("odd part too large for the pointwise diagonal check")
    for mask in range(1, 2 ** len(odd_idx)):
        support = [odd_idx[b] for b in range(len(odd_idx)) if mask >> b & 1]
        yield list(itertools.product(support, repeat=n + 1))


def _reversal_symmetric(f, A):
    neg = A.field.neg
    for tup in set(f.table) | {t[::-1] for t in f.table}:
        want = f.value(tup)
        if _reversal_flips(f.n, sum(A.parities[i] for i in tup)):
            want = {r: neg(c) for r, c in want.items()}
        if f.value(tup[::-1]) != want:
            return False
    return True


def unit_and_reversal_hold(f, A):
    """The unit condition in the first slot and the reversal symmetry: the
    conditions of C^n other than the F2 odd diagonals."""
    unit = A.unit_index
    for tup, vec in f.table.items():
        if tup[0] == unit and vec:
            return False
    return _reversal_symmetric(f, A)


def pointwise_is_in_C(f, A, M):
    """Membership in C^n(A, M), the F2 diagonals summed set by set."""
    if not unit_and_reversal_hold(f, A):
        return False
    if A.field.characteristic == 2 and f.n >= 1:
        for tuples in odd_diagonals(A, f.n):
            acc = {}
            for tup in tuples:
                vec_add_scaled(acc, f.value(tup), 1, A.field)
            if acc:
                return False
    return True


def orbit_tables(A, M, n, parity):
    """The basis of C^n cut out by the unit condition and the reversal
    symmetry alone: one table per reversal orbit and value coordinate."""
    unit = A.unit_index
    field = A.field
    one = field.one
    out = []
    for tup in itertools.product(range(A.dim), repeat=n + 1):
        rev = tup[::-1]
        if tup[0] == unit or tup[-1] == unit or tup < rev:
            continue
        odd_count = sum(A.parities[i] for i in tup)
        sign = field.neg(one) if _reversal_flips(n, odd_count) else one
        if tup == rev and sign != one:
            continue
        for r in range(M.dim):
            if M.parities[r] == (parity + odd_count) % 2:
                out.append({tup: {r: one}} if tup == rev else {tup: {r: one}, rev: {r: sign}})
    return out


def odd_diagonal_kernel(A, M, n, orbits):
    """The combinations of the F2 orbit basis that vanish on odd diagonals."""
    one = A.field.one
    orbit_of = {
        (tup, r): k for k, table in enumerate(orbits) for tup, vec in table.items() for r in vec
    }
    constraints = []
    for tuples in odd_diagonals(A, n):
        for r in range(M.dim):
            row = {}
            for tup in tuples:
                k = orbit_of.get((tup, r))
                if k is not None:
                    vec_add_scaled(row, {k: one}, 1, A.field)
            constraints.append(row)
    out = []
    for w in kernel_of_constraints(len(orbits), constraints, A.field):
        table = {}
        for k, c in w.items():
            for tup, vec in orbits[k].items():
                table.setdefault(tup, {}).update((r, c) for r in vec)
        out.append(table)
    return out


def orbit_solved_cochain_space_basis(A, M, n, parity):
    """The tables of cochain_space_basis with the F2 diagonals solved."""
    tables = orbit_tables(A, M, n, parity)
    if A.field.characteristic == 2 and n >= 1:
        tables = odd_diagonal_kernel(A, M, n, tables)
    return tables


# sh_dim as it was before one coboundary per parity and the rank-only
# row_rank: one push-forward coboundary per basis cochain, each building its
# own preimage index, flattened and inserted into a fully reduced Echelon.


def percall_coboundary(f, A, M):
    """d_n(f) pushed forward from the support of f, the index built per call."""
    n = f.n
    dim = A.dim
    one = M.field.one
    preimages = [[] for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            for k, c in A.mul_basis(a, b).items():
                preimages[k].append((a, b, c))
    left = [one if f.parity == ODD and A.parities[a] == ODD else -one for a in range(dim)]
    right = -one if n % 2 == 0 else one
    out = {}
    for t, val in f.table.items():
        for i in range(n + 1):
            head, tail = t[:i], t[i + 1 :]
            for a, b, c in preimages[t[i]]:
                vec_add_scaled(out.setdefault(head + (a, b) + tail, {}), val, -c if i % 2 else c,
                               M.field)
        twisted = {r: -c if M.parities[r] else c for r, c in val.items()}
        for a in range(dim):
            act = M.act_basis(a)
            vec_add_scaled(out.setdefault((a,) + t, {}), act.apply(val), left[a], M.field)
            moved = act.apply(twisted if A.parities[a] == ODD else val)
            vec_add_scaled(out.setdefault(t + (a,), {}), moved, right, M.field)
    return Cochain(n + 1, f.parity, out)


def _flatten(f):
    return {tup + (r,): c for tup, val in f.table.items() for r, c in val.items()}


def echelon_sh_dim(A, M, n):
    """(even, odd) dimensions of SH^n(A, M) = ker/im inside C^n."""
    out = []
    for parity in (EVEN, ODD):
        basis_n = cochain_space_basis(A, M, n, parity)
        ech = Echelon(A.field)
        kernel_count = 0
        for f in basis_n:
            if ech.insert(_flatten(percall_coboundary(f, A, M))) is None:
                kernel_count += 1
        image_rank = 0
        if n > 0:
            ech_im = Echelon(A.field)
            for g in cochain_space_basis(A, M, n - 1, parity):
                ech_im.insert(_flatten(percall_coboundary(g, A, M)))
            image_rank = ech_im.rank
        out.append(kernel_count - image_rank)
    return tuple(out)


# _Coboundary as it was before its image was assembled flat: one
# vec_add_scaled call per term into a dict of values per output code, which
# a second pass flattens to the keys code * M.dim + r.


class NestedCoboundary:
    """d_n on the cochains of one parity over (A, M): nested image, then flattened.

    Stands in for ``hochschild._Coboundary`` (the same constructor,
    ``image`` and ``cochain``), so the package's routes can run on it.
    """

    def __init__(self, A, M, parity):
        dim = A.dim
        preimages = [[] for _ in range(dim)]
        for a in range(dim):
            for b in range(dim):
                for k, c in A.mul_basis(a, b).items():
                    preimages[k].append((a * dim + b, c))
        actions = [[] for _ in range(M.dim)]
        for a in range(dim):
            odd = A.parities[a] == ODD
            left = 1 if parity == ODD and odd else -1
            for r, col in enumerate(M.act_basis(a).cols):
                if col:
                    actions[r].append((a, col, left, -1 if odd and M.parities[r] else 1))
        self.dim = dim
        self.mdim = M.dim
        self.preimages = preimages
        self.actions = actions
        self.field = M.field

    def nested(self, table, n):
        """d_n of the cochain with this table, as {output code: value}."""
        dim, field = self.dim, self.field
        right = -1 if n % 2 == 0 else 1
        top = dim ** (n + 1)
        slots = [(i, dim ** (n - i)) for i in range(n + 1)]
        out = {}
        for t, val in table.items():
            code = 0
            for x in t:
                code = code * dim + x
            for i, w in slots:
                base = code // (w * dim) * (w * dim * dim) + code % w
                for ab, c in self.preimages[t[i]]:
                    vec_add_scaled(out.setdefault(base + ab * w, {}), val, -c if i % 2 else c,
                                   field)
            for r, x in val.items():
                xr = right * x
                for a, col, left, twist in self.actions[r]:
                    vec_add_scaled(out.setdefault(a * top + code, {}), col, left * x, field)
                    vec_add_scaled(out.setdefault(code * dim + a, {}), col, twist * xr, field)
        return out

    def image(self, table, n):
        """The nested image flattened to {code * M.dim + r: value}."""
        nested = self.nested(table, n)
        return {code * self.mdim + r: c for code, vec in nested.items() for r, c in vec.items()}

    def cochain(self, f):
        table = {}
        for code, vec in self.nested(f.table, f.n).items():
            tup = []
            for _ in range(f.n + 2):
                code, x = divmod(code, self.dim)
                tup.append(x)
            table[tuple(reversed(tup))] = vec
        return Cochain(f.n + 1, f.parity, table)


# is_cocycle_pi as it was before it became d_1 on the one coboundary: a scan
# of all dim^3 basis triples, and the naive associativity scan it matches.


def triple_cocycle_pi(pi, A):
    """pi(1, a) = pi(a, 1) = 0 and, on every basis triple,
    pi(ab, c) - pi(a, bc) + pi(a, b)c - (-1)^{|a|} a pi(b, c) = 0."""
    dim, field = A.dim, A.field
    unit = A.unit_index
    for j in range(dim):
        if pi.value((unit, j)) or pi.value((j, unit)):
            return False
    for i in range(dim):
        sign_a = A.field.one if A.parities[i] == ODD else -A.field.one
        ei = A.basis_element(i)
        for j in range(dim):
            ab = A.mul_basis(i, j)
            vab = pi.value((i, j))
            for k in range(dim):
                acc = {}
                for r, c in ab.items():
                    vec_add_scaled(acc, pi.value((r, k)), c, field)
                for r, c in A.mul_basis(j, k).items():
                    vec_add_scaled(acc, pi.value((i, r)), -c, field)
                if vab:
                    vec_add_scaled(acc, A.mul(vab, A.basis_element(k)), 1, field)
                vbc = pi.value((j, k))
                if vbc:
                    vec_add_scaled(acc, A.mul(ei, vbc), sign_a, field)
                if acc:
                    return False
    return True


def naive_is_associative(A):
    """(e_i e_j) e_k = e_i (e_j e_k) by A.mul on every basis triple."""
    e = [A.basis_element(i) for i in range(A.dim)]
    return all(
        A.mul(A.mul(a, b), c) == A.mul(a, A.mul(b, c)) for a in e for b in e for c in e
    )


# ---------------------------------------------------------------------------
# the dense row-major Matrix and the row reductions over it, as the package
# had them before Matrix kept only sparse columns


class DenseMatrix:
    """Dense exact matrix; entries row-major, length nrows*ncols."""

    __slots__ = ("nrows", "ncols", "entries", "field", "_cols")

    def __init__(self, nrows, ncols, entries, field):
        entries = list(entries)
        if len(entries) != nrows * ncols:
            raise ValueError(
                "entry count %d does not match shape %dx%d"
                % (len(entries), nrows, ncols)
            )
        self.nrows = nrows
        self.ncols = ncols
        self.entries = entries
        self.field = field
        self._cols = None

    @classmethod
    def from_rows(cls, rows, field, ncols=None):
        rows = [list(r) for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("cannot infer column count from no rows")
            ncols = len(rows[0])
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(field.of(x) for x in r)
        return cls(len(rows), ncols, flat, field)

    @classmethod
    def from_cols_sparse(cls, nrows, cols, field):
        ncols = len(cols)
        zero = field.zero
        flat = [zero] * (nrows * ncols)
        for j, col in enumerate(cols):
            for i, x in col.items():
                flat[i * ncols + j] = x
        return cls(nrows, ncols, flat, field)

    @classmethod
    def identity(cls, n, field):
        cols = [{i: field.one} for i in range(n)]
        return cls.from_cols_sparse(n, cols, field)

    @classmethod
    def zeros(cls, nrows, ncols, field):
        return cls(nrows, ncols, [field.zero] * (nrows * ncols), field)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.ncols + j]

    def row(self, i):
        return self.entries[i * self.ncols : (i + 1) * self.ncols]

    def row_sparse(self, i):
        return {j: x for j, x in enumerate(self.row(i)) if x}

    def cols_sparse(self):
        if self._cols is None:
            cols = [dict() for _ in range(self.ncols)]
            n = self.ncols
            for k, x in enumerate(self.entries):
                if x:
                    cols[k % n][k // n] = x
            self._cols = cols
        return self._cols

    def apply(self, vec):
        """DenseMatrix @ sparse vector (dict col -> scalar) -> sparse dict."""
        cols = self.cols_sparse()
        out = {}
        for j, coeff in vec.items():
            vec_add_scaled(out, cols[j], coeff, self.field)
        return out

    def compose(self, other):
        """self @ other."""
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = [self.apply(c) for c in other.cols_sparse()]
        return DenseMatrix.from_cols_sparse(self.nrows, cols, self.field)

    def transpose(self):
        flat = []
        for j in range(self.ncols):
            for i in range(self.nrows):
                flat.append(self.entries[i * self.ncols + j])
        return DenseMatrix(self.ncols, self.nrows, flat, self.field)

    def is_zero(self):
        return not any(self.entries)

    def scaled(self, coeff):
        return DenseMatrix(
            self.nrows, self.ncols, [self.field.of(coeff * x) for x in self.entries], self.field
        )

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("dimension mismatch")
        return DenseMatrix(
            self.nrows,
            self.ncols,
            [self.field.of(a + b) for a, b in zip(self.entries, other.entries)],
            self.field,
        )

    def __sub__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("dimension mismatch")
        return DenseMatrix(
            self.nrows,
            self.ncols,
            [self.field.of(a - b) for a, b in zip(self.entries, other.entries)],
            self.field,
        )

    def __neg__(self):
        return DenseMatrix(
            self.nrows, self.ncols, [self.field.neg(x) for x in self.entries], self.field
        )

    def __eq__(self, other):
        return (
            isinstance(other, DenseMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __repr__(self):
        return "DenseMatrix(%d x %d over %s)" % (self.nrows, self.ncols, self.field)


def dense_rref(m):
    """Reduce m; returns (reduced DenseMatrix, pivot column tuple).

    Pivot columns are first-nonzero, rows of the result are the reduced
    echelon rows in pivot order followed by zero rows.
    """
    ech = Echelon(m.field)
    for i in range(m.nrows):
        ech.insert(m.row_sparse(i))
    pivots = tuple(ech.pivots())
    zero = m.field.zero
    flat = []
    for p in pivots:
        row = ech.rows[p]
        flat.extend(row.get(j, zero) for j in range(m.ncols))
    flat.extend([zero] * ((m.nrows - len(pivots)) * m.ncols))
    return DenseMatrix(m.nrows, m.ncols, flat, m.field), pivots


def dense_rank(m):
    ech = Echelon(m.field)
    for i in range(m.nrows):
        ech.insert(m.row_sparse(i))
    return ech.rank


def dense_kernel_basis(m):
    """Basis of {v : m @ v = 0}, as dense lists, one per free column."""
    red, pivots = dense_rref(m)
    pivset = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivset]
    zero, one = m.field.zero, m.field.one
    basis = []
    for j in free:
        v = [zero] * m.ncols
        v[j] = one
        for r, p in enumerate(pivots):
            x = red[r, j]
            if x:
                v[p] = m.field.neg(x)
        basis.append(v)
    return basis


def dense_solve(m, b):
    """One solution x of m @ x = b (free variables 0), or None."""
    if len(b) != m.nrows:
        raise ValueError("dimension mismatch")
    n = m.ncols
    ech = Echelon(m.field)
    for i in range(m.nrows):
        row = m.row_sparse(i)
        if b[i]:
            row[n] = b[i]
        ech.insert(row)
    if n in ech.rows:
        return None
    x = [m.field.zero] * n
    for p, row in ech.rows.items():
        x[p] = row.get(n, m.field.zero)
    return x


# ---------------------------------------------------------------------------
# the enumerated bigraded Hilbert table, as the package had it before boxes
# were counted by generating function
#
# enumerated_box_monomials loops over every exponent of every generator and
# sorts; enumerated_bigraded_dims enumerates every box (k, l) for its column
# index and again for each relation that reads it; scanned_fit_polynomial
# takes the finite differences of every tail again.


def enumerated_box_monomials(gens, k, l):
    """Exponent tuples of the free supercommutative monomials of bidegree
    exactly (k, l), in canonical order."""
    n = len(gens)
    out = []
    acc = [0] * n

    def rec(i, rk, rl):
        if i == n:
            if rk == 0 and rl == 0:
                out.append(tuple(acc))
            return
        gk, gl = gens[i].bidegree
        emax = rk // gk if gk else None
        if gl:
            cap = rl // gl
            emax = cap if emax is None else min(emax, cap)
        if gens[i].parity == ODD:
            emax = min(emax, 1)
        for e in range(emax + 1):
            acc[i] = e
            rec(i + 1, rk - e * gk, rl - e * gl)
        acc[i] = 0

    rec(0, k, l)
    out.sort(key=lambda m: monomial_sort_key(m, gens, SUPERCOMMUTATIVE))
    return out


def enumerated_bigraded_dims(pres, kmax=DEFAULT_KMAX, lmax=None):
    """Bigraded dimension table of the quotient presented by ``pres``.

    Relations must be bihomogeneous; each (k, l) box is echelonized
    independently, so no degree cap enters.
    """
    if pres.flavor != SUPERCOMMUTATIVE:
        raise AlgebraError("bigraded tables need a supercommutative presentation")
    gens = pres.gens
    field = pres.field
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
    dims = {}
    for l in range(lmax + 1):
        for k in range(kmax + 1):
            monos = enumerated_box_monomials(gens, k, l)
            if not monos:
                dims[(k, l)] = 0
                continue
            index = {m: i for i, m in enumerate(monos)}
            ech = Echelon(field)
            for r, (rk, rl) in zip(pres.relations, rel_degs):
                if rk > k or rl > l:
                    continue
                for m in enumerated_box_monomials(gens, k - rk, l - rl):
                    vec = {}
                    for m2, c in r.terms.items():
                        sm = reference_mul_monomials(m, m2, gens, SUPERCOMMUTATIVE)
                        if sm is None:
                            continue
                        sign, prod = sm
                        pos = index[prod]
                        val = vec.get(pos)
                        val = sign * c if val is None else val + sign * c
                        if val:
                            vec[pos] = val
                        else:
                            vec.pop(pos, None)
                    if vec:
                        ech.insert(vec)
            dims[(k, l)] = len(monos) - ech.rank
    even_count = sum(1 for g in gens if g.parity != ODD)
    return BigradedTable(dims, kmax, lmax, pres.name, even_count)


def _scanned_difference_rows(tail, upto):
    rows = [[Fraction(v) for v in tail]]
    for _ in range(upto):
        prev = rows[-1]
        if len(prev) < 2:
            break
        rows.append([prev[i + 1] - prev[i] for i in range(len(prev) - 1)])
    return rows


def scanned_fit_polynomial(values, dmax):
    """Fit an exact polynomial of degree <= dmax to a tail of ``values``.

    Scans thresholds upward; accepts the first tail of length >= dmax + 2
    whose finite differences of order dmax + 1 vanish identically.
    Returns None when no such tail exists in the window (not stabilized).
    """
    values = list(values)
    if dmax < 0:
        raise ValueError("dmax must be nonnegative")
    for k0 in range(len(values)):
        tail = values[k0:]
        if len(tail) < dmax + 2:
            return None
        rows = _scanned_difference_rows(tail, dmax + 1)
        if len(rows) <= dmax + 1 or any(rows[dmax + 1]):
            continue
        # Newton form sum_r rows[r][0] * C(x - k0, r), expanded exactly.
        coeffs = [Fraction(0)] * (dmax + 1)
        basis = [Fraction(1)]
        fact = 1
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
            lead = rows[r][0] / fact
            if lead:
                for i, b in enumerate(basis):
                    coeffs[i] += lead * b
        return PolynomialFit(coeffs, k0)
    return None


# ---------------------------------------------------------------------------
# basis-stepped filtrations: the package's earlier odd chains, ideal powers
# and (k, l) lattice, which multiply every stage row by every basis row of
# R_1 or of the ideal.  Copied verbatim; the generator-stepped ones in
# sdim, algebra and graded must give the same basis() rows at every stage.


def odd_power_spans_of_module(M):
    """[M, R_1 M, R_1^2 M, ...] down to (and excluding) the zero span."""
    if M.is_zero():
        return []
    odd_basis = [
        M.act_basis(i) for i in range(M.algebra.dim) if M.algebra.parities[i] == 1
    ]
    spans = [M.full_subspace()]
    guard = M.dim + M.algebra.dim + 2
    while True:
        rows = spans[-1].basis()
        images = (mat.apply(row) for mat in odd_basis for row in rows)
        nxt = Subspace.span(M.parities, M.field, images)
        if nxt.is_zero():
            return spans
        spans.append(nxt)
        if len(spans) > guard:
            raise ModuleError("odd part action is not nilpotent")


def odd_power_span(A, l):
    """Span of all products of l odd elements (l = 0 gives all of A)."""
    if l < 0:
        raise AlgebraError("negative power")
    span = A.full_subspace()
    odd_basis = [A.basis_element(i) for i in range(A.dim) if A.parities[i] == ODD]
    for _ in range(l):
        rows = span.basis()
        products = (A.mul(b, row) for b in odd_basis for row in rows)
        span = Subspace.span(A.parities, A.field, products)
        if span.is_zero():
            break
    return span


def _chain(stage, step, bound, what):
    """[stage, step(stage), ...] up to the first zero stage, which is left out."""
    chain = []
    while not stage.is_zero():
        chain.append(stage)
        if len(chain) > bound:
            raise AlgebraError("%s is not nilpotent" % what)
        stage = step(stage)
    return chain


def _step(X, act, rows):
    """The filtration step S -> span{act(u, s) : u in rows, s in S} on X."""

    def step(stage):
        basis = stage.basis()
        return Subspace.span(X.parities, X.field, (act(u, s) for u in rows for s in basis))

    return step


def _lattice(X, act, ideal, what):
    """{(k, l): I_0^k I_1^l X} over the nonzero stages."""
    rows = ideal.basis_with_parity()
    even = _step(X, act, [r for p, r in rows if p == EVEN])
    odd = _step(X, act, [r for p, r in rows if p == ODD])
    lattice = {}
    for l, column in enumerate(_chain(X.full_subspace(), odd, X.dim + 1, what)):
        for k, stage in enumerate(_chain(column, even, X.dim + 1, what)):
            lattice[(k, l)] = stage
    return lattice


def ideal_powers(A, ideal):
    """[A, I, I^2, ...] ending just before the zero power; I must be a
    nilpotent two-sided superideal."""
    require_two_sided(A, ideal)
    return [A.full_subspace()] + _chain(ideal, _step(A, A.mul, ideal.basis()), A.dim, "ideal")


# ---------------------------------------------------------------------------
# Fraction-only rationals: the package's field over Q, Echelon, solve_sparse
# and kernel_of_constraints as they were before an integral scalar became a
# plain int.  Copied verbatim apart from the names; every scalar here is a
# Fraction and division is Fraction division.


class FractionRationalField:
    """The rational field; scalars are Fraction."""

    name = "Q"
    characteristic = 0

    def of(self, x):
        return Fraction(x)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)


class FractionEchelon:
    """Fully reduced sparse row echelon over a fixed field."""

    __slots__ = ("field", "rows")

    def __init__(self, field):
        self.field = field
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def reduce(self, vec):
        v = {c: x for c, x in vec.items() if x}
        for c in sorted(v):
            coef = v.get(c)
            if coef is None or c not in self.rows:
                continue
            row = self.rows[c]
            for c2, x in row.items():
                y = v.get(c2)
                val = -coef * x if y is None else y - coef * x
                if val:
                    v[c2] = val
                else:
                    v.pop(c2, None)
        return v

    def insert(self, vec):
        v = self.reduce(vec)
        if not v:
            return None
        piv = min(v)
        inv = self.field.one / v[piv]
        row = {c: x * inv for c, x in v.items()}
        for r2 in self.rows.values():
            coef = r2.get(piv)
            if coef:
                for c, x in row.items():
                    y = r2.get(c)
                    val = -coef * x if y is None else y - coef * x
                    if val:
                        r2[c] = val
                    else:
                        r2.pop(c, None)
        self.rows[piv] = row
        return piv


def fraction_solve_sparse(nvars, equations, field):
    """One solution of a sparse linear system (free variables 0), or None."""
    ech = FractionEchelon(field)
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


def fraction_kernel_of_constraints(n, constraints, field):
    """Common kernel of sparse linear functionals on F^n."""
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
        pv = vals[pivot]
        pvec = basis[pivot]
        new_basis = []
        for k, v in enumerate(basis):
            if k == pivot:
                continue
            if vals[k]:
                v = vec_add_scaled(dict(v), pvec, -vals[k] / pv, field)
            new_basis.append(v)
        basis = new_basis
    return basis


# ---------------------------------------------------------------------------
# the ideal closure of compile_presentation as it was before products past
# the cap were skipped by degree: every monomial times every generator,
# the product's degree recomputed and compared with the cap.  Copied
# verbatim apart from returning the closure.


def unpruned_ideal_closure(pres):
    """(monomials, ideal): the normal monomials of degree <= cap and the
    span of the relations closed under generator multiplication."""
    gens, flavor, field, cap = pres.gens, pres.flavor, pres.field, pres.cap
    neg = field.neg
    monomials = _enumerate_monomials(gens, flavor, cap)
    index = {m: i for i, m in enumerate(monomials)}

    def poly_vec(p):
        v = {}
        for m, c in p.terms.items():
            if monomial_degree(m, gens, flavor) <= cap:
                v[index[m]] = c
        return v

    def mul_vec_by_gen(vec, gi, side):
        # m -> g m is injective on monomials, so no two terms meet
        g = (gi,) if flavor == ASSOCIATIVE else tuple(
            1 if j == gi else 0 for j in range(len(gens))
        )
        out = {}
        for mi, c in vec.items():
            m = monomials[mi]
            sm = (
                mul_monomials(g, m, gens, flavor)
                if side == "left"
                else mul_monomials(m, g, gens, flavor)
            )
            if sm is not None and monomial_degree(sm[1], gens, flavor) <= cap:
                out[index[sm[1]]] = neg(c) if sm[0] < 0 else c
        return out

    # two-sided graded ideal closure; for the supercommutative flavor the
    # left side suffices because relations are parity-homogeneous
    sides = ("left",) if flavor == SUPERCOMMUTATIVE else ("left", "right")
    parities = [monomial_parity(m, gens, flavor) for m in monomials]
    ideal = Subspace(parities, field)
    ideal.close(
        map(poly_vec, pres.relations),
        [
            lambda v, gi=gi, side=side: mul_vec_by_gen(v, gi, side)
            for gi in range(len(gens))
            for side in sides
        ],
    )
    return monomials, ideal


# ---------------------------------------------------------------------------
# smodule's cap windows as they were before check_module read
# algebra.words_past_cap, copied verbatim: every word in the degree window
# (cap, cap + max generator degree], the normal monomials there for the
# supercommutative flavor and the words whose proper prefixes all lie
# within the cap for the associative one.


def full_cap_window(pres):
    """The words in the degree window (cap, cap + max generator degree]
    that must act as zero: the normal monomials there for the
    supercommutative flavor (the pair checks cover the rest), and for the
    associative one every word past the cap whose proper prefixes all lie
    within it."""
    gens, cap, flavor = pres.gens, pres.cap, pres.flavor
    gdegs = [g.bidegree[0] + g.bidegree[1] for g in gens]
    hi = cap + (max(gdegs) if gens else 0)
    if flavor == SUPERCOMMUTATIVE:
        return [
            monomial_word(m, gens, flavor)
            for m in _enumerate_monomials(gens, flavor, hi)
            if monomial_degree(m, gens, flavor) > cap
        ]
    return all_words_in_window(gens, gdegs, cap, hi)


def all_words_in_window(gens, gdegs, lo, hi):
    out = []
    frontier = [((), 0)]
    while frontier:
        nxt = []
        for w, d in frontier:
            for i in range(len(gens)):
                d2 = d + gdegs[i]
                if d2 > hi:
                    continue
                w2 = w + (i,)
                if d2 > lo:
                    out.append(w2)
                if d2 <= lo:
                    nxt.append((w2, d2))
        frontier = nxt
    return out


def one_letter_extensions(gens, flavor, cap):
    """The set of canonical words of w g past the cap, w the canonical word
    of a normal monomial up to the cap and g a generator.  Words grow one
    letter at a time; a supercommutative word is re-sorted into its even
    letters then its odd letters, each ascending, and dropped at a
    repeated odd letter."""
    degs = [g.bidegree[0] + g.bidegree[1] for g in gens]

    def canonical(word):
        if flavor == ASSOCIATIVE:
            return word
        odds = sorted(i for i in word if gens[i].parity == ODD)
        if len(set(odds)) < len(odds):
            return None
        return tuple(sorted(i for i in word if gens[i].parity == EVEN) + odds)

    within, frontier, past = {()}, [()], set()
    while frontier:
        grown = []
        for w in frontier:
            d = sum(degs[i] for i in w)
            for i in range(len(gens)):
                c = canonical(w + (i,))
                if c is None:
                    continue
                if d + degs[i] > cap:
                    past.add(c)
                elif c not in within:
                    within.add(c)
                    grown.append(c)
        frontier = grown
    return past


# ---------------------------------------------------------------------------
# The superideal worklist as it was before it moved onto Subspace.close,
# copied verbatim apart from the inlined multiplier list.


def superideal_span(A, elements, two_sided=None):
    """Graded ideal generated by the given elements, as a Subspace, with
    the components that grew the span recorded as its ``generators``."""
    if two_sided is None:
        two_sided = not presented_supercommutative(A)
    if A.kind == "monomial":
        mults = [vec for _n, _p, vec in A.generators]
    else:
        mults = [A.basis_element(i) for i in range(A.dim)]
    span = Subspace(A.parities, A.field)
    gens = []
    for v in elements:
        for part in span.split(v):
            if part and span.insert(part):
                gens.append(part)
    queue = list(gens)
    while queue:
        v = queue.pop()
        for g in mults:
            prods = [A.mul(g, v)]
            if two_sided:
                prods.append(A.mul(v, g))
            for w in prods:
                if w and span.insert(w):
                    queue.append(w)
    span.generators = gens
    return span


# ---------------------------------------------------------------------------
# the regular module as a plain SuperModule


def eager_regular_module(A):
    """A acting on itself, built eagerly: generator columns A.mul(g, e_j),
    and every other basis element of a monomial-kind algebra acting by the
    composition of generator matrices along its word."""
    actions = []
    for _label, _parity, gvec in A.generators:
        cols = [A.mul(gvec, A.basis_element(j)) for j in range(A.dim)]
        actions.append(Matrix.from_cols_sparse(A.dim, cols, A.field))
    return module_from_actions(A, list(A.parities), actions, name=A.name + " regular")


# smodule._word_action as it was before a word's matrix started from its
# last letter: every word, one letter long too, composed onto an identity


def identity_first_word_action(M, word):
    """Action matrix of a word in the generators (the identity for ())."""
    out = Matrix.identity(M.dim, M.field)
    for gi in reversed(word):
        out = M.actions[gi].compose(out)
    return out


# ---------------------------------------------------------------------------
# a submodule read through span coordinates: Subspace.coords and submodule
# as they were before submodule read a vector's pivot entries, copied
# verbatim apart from taking the span as an argument


def subspace_coords(span, vec):
    """Coordinates of vec in basis() order as a sparse dict, or None
    when vec lies outside the span."""
    if span.residual(vec):
        return None
    return {k: vec[p] for k, p in enumerate(span.pivots()) if vec.get(p)}


def coords_submodule(M, span, name="submodule"):
    """The span (action-closed Subspace) as a SuperModule in its own basis."""
    rows = span.basis_with_parity()
    parities = [p for p, _r in rows]

    def coords(vec):
        out = subspace_coords(span, vec)
        if out is None:
            raise ModuleError("vector outside the submodule span")
        return out

    actions = []
    for mat in M.actions:
        cols = [coords(mat.apply(r)) for _p, r in rows]
        actions.append(Matrix.from_cols_sparse(len(rows), cols, M.field))
    return module_from_actions(M.algebra, parities, actions, name=name)


# ---------------------------------------------------------------------------
# eager quotients: smodule.quotient and algebra.quotient_algebra as they were
# before they solved an action or a product the first time it is read, copied
# verbatim apart from the module constructor


def eager_quotient(M, span, name=None):
    """M / span for an action-closed graded subspace."""
    if not is_action_closed(M, span):
        raise ModuleError("subspace is not action-closed")
    keep, project = span.complement()
    actions = []
    for mat in M.actions:
        cols = [project(mat.apply({i: M.field.one})) for i in keep]
        actions.append(Matrix.from_cols_sparse(len(keep), cols, M.field))
    return module_from_actions(
        M.algebra,
        [M.parities[i] for i in keep],
        actions,
        name=name or (M.name + "/N"),
    )


def eager_quotient_algebra(A, ideal, name=None):
    """Quotient by a two-sided superideal, as a table-kind algebra.

    Basis classes are the non-pivot coordinates of the echelonized ideal;
    errors out if the ideal is not multiplication-closed or contains the
    unit.
    """
    require_two_sided(A, ideal)
    if ideal.contains(A.unit_element()):
        raise AlgebraError("ideal contains the unit")
    keep, project = ideal.complement()
    table = {}
    for a, i in enumerate(keep):
        for b, j in enumerate(keep):
            prod = project(A.mul_basis(i, j))
            if prod:
                table[(a, b)] = prod
    unit = project(A.unit_element())
    assert list(unit.values()) == [A.field.one]
    omg = None
    if A._odd_module_generators is not None or A.kind == "monomial":
        omg = []
        for label, vec in A.odd_module_generators():
            img = project(vec)
            if img:
                omg.append((label, img))
    return FiniteSuperAlgebra.from_table(
        labels=[A.labels[i] for i in keep],
        parities=[A.parities[i] for i in keep],
        field=A.field,
        table=table,
        unit_index=next(iter(unit)),
        name=name or (A.name + "/ideal"),
        odd_module_generators=omg,
    )


# ---------------------------------------------------------------------------
# an algebra element acting on one module vector, term by term: the
# package's SuperModule.apply_element as it was before every module-side
# computation acted through the element's matrix (act_element), copied
# verbatim apart from taking the module as an argument


def apply_element(M, vec, mvec):
    """(algebra element) . (sparse module vector)."""
    field = M.algebra.field
    out = {}
    for i, c in vec.items():
        if c:
            vec_add_scaled(out, M.act_basis(i).apply(mvec), c, field)
    return out


# ---------------------------------------------------------------------------
# graded components in two passes: one copy of the stage below picks the
# representatives, then a class solver inserts that stage again, row by row,
# with the tagged representatives.  Copied from the package as it was before
# one tagged echelon per stage did both, apart from the names; the
# filtrations are the package's.


def _two_pass_reps(stage, below):
    """Rows of `stage` whose classes form a basis modulo `below`."""
    grow = below.copy()
    reps = []
    for parity, row in stage.basis_with_parity():
        if grow.insert(row):
            reps.append((parity, dict(row)))
    return reps


class _ClassSolver:
    """Coordinates in stage/below with respect to chosen representatives."""

    def __init__(self, ambient_dim, field, below, reps):
        self.ambient_dim = ambient_dim
        self.ech = Echelon(field)
        for row in below.basis():
            self.ech.insert(row)
        for k, (_p, r) in enumerate(reps):
            tagged = dict(r)
            tagged[ambient_dim + k] = field.one
            self.ech.insert(tagged)

    def coords(self, vec):
        res = self.ech.reduce(vec)
        out = {}
        for c, x in res.items():
            if c < self.ambient_dim:
                raise AlgebraError("vector does not lie in the expected stage")
            out[c - self.ambient_dim] = self.ech.field.neg(x)
        return out


class TwoPassComponents:
    """Stage by stage representatives of a filtration of X, in key order,
    with one class solver and one list of representative positions per key."""

    def __init__(self, X, stages, below):
        self.reps, self.keys, self.solvers, self.positions = [], [], {}, {}
        for key in sorted(stages):
            parts = [stages[b] for b in below(key) if b in stages]
            if len(parts) == 1:
                under = parts[0]
            else:
                under = Subspace.span(X.parities, X.field, (r for S in parts for r in S.basis()))
            comp = _two_pass_reps(stages[key], under)
            self.solvers[key] = _ClassSolver(X.dim, X.field, under, comp)
            self.positions[key] = list(range(len(self.reps), len(self.reps) + len(comp)))
            self.reps.extend(comp)
            self.keys.extend([key] * len(comp))

    @property
    def rows(self):
        return [r for _p, r in self.reps]

    def class_in_degree(self, vec, key):
        base = self.positions[key]
        return {base[t]: c for t, c in self.solvers[key].coords(vec).items()}

    def classes(self, act, left, add):
        for lkey, a in left:
            cols = []
            for rkey, (_p, r) in zip(self.keys, self.reps):
                key = add(lkey, rkey)
                vec = act(a, r) if key in self.solvers else None
                cols.append(self.class_in_degree(vec, key) if vec else {})
            yield cols

    def algebra(self, A, add, tag, name):
        columns = self.classes(A.mul, zip(self.keys, self.rows), add)
        table = {
            (i, j): col for i, cols in enumerate(columns) for j, col in enumerate(cols) if col
        }
        top = min(self.solvers)
        unit_coords = self.solvers[top].coords(A.unit_element())
        if list(unit_coords.values()) != [A.field.one]:
            raise AlgebraError("unit class is not a single representative")
        return FiniteSuperAlgebra.from_table(
            labels=["[%s]@%s" % (A.element_name(r), tag(k)) for k, r in zip(self.keys, self.rows)],
            parities=[p for p, _r in self.reps],
            field=A.field,
            table=table,
            unit_index=self.positions[top][next(iter(unit_coords))],
            name=name,
        )

    def module(self, M, keys, rows, algebra, add):
        """The actions over ``algebra``, whose representatives are ``rows``
        with stage keys ``keys``."""
        columns = self.classes(partial(apply_element, M), zip(keys, rows), add)
        actions = [Matrix.from_cols_sparse(len(self.reps), cols, M.field) for cols in columns]
        return module_from_actions(algebra, [p for p, _r in self.reps], actions)


def two_pass_bgr_to_gr_surjective(bkeys, brows, G):
    """Componentwise surjection of the bigraded representatives onto the
    components of the TwoPassComponents ``G`` of a gr filtration."""
    by_total = {}
    for kl, rep in zip(bkeys, brows):
        by_total.setdefault(kl[0] + kl[1], []).append(rep)
    field = next(iter(G.solvers.values())).ech.field
    for n in sorted(G.solvers):
        coords = (G.solvers[n].coords(rep) for rep in by_total.get(n, []))
        if row_rank((c for c in coords if c), field) != G.keys.count(n):
            return False
    return True


# ---------------------------------------------------------------------------
# GF(p) with FpElement scalars: the package's prime field as it was before a
# scalar became an int in 0..p-1.  FpElement is copied verbatim; the field
# is the old PrimeField apart from its name and its characteristic, which
# reads 0: exactlin's kernels then take their generic loops, which are the
# loops every field ran before, and the FpElement operators reduce mod p.


class FpElement:
    """An element of GF(p), kept reduced to 0..p-1.

    Supports mixed arithmetic with plain ints so sign bookkeeping like
    ``(-1) * x`` works uniformly for both scalar kinds.
    """

    __slots__ = ("val", "p")

    def __init__(self, val, p):
        self.val = val % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mixed prime fields")
            return other.val
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElement(self.val + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElement(self.val - v, self.p)

    def __rsub__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElement(v - self.val, self.p)

    def __mul__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElement(self.val * v, self.p)

    __rmul__ = __mul__

    def inverse(self):
        if self.val == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return FpElement(pow(self.val, self.p - 2, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return "%d(mod %d)" % (self.val, self.p)


class FpElementField:
    """GF(p) for a prime p, with FpElement scalars."""

    characteristic = 0  # so that exactlin runs its generic loops; see above

    def __init__(self, p):
        self.p = p
        self.name = "F%d" % p
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def inv(self, x):
        return x.inverse()

    def of(self, x):
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise ValueError("mixed prime fields")
            return x
        if isinstance(x, Fraction):
            num = FpElement(x.numerator, self.p)
            return num * FpElement(x.denominator, self.p).inverse()
        return FpElement(x, self.p)

    def neg(self, x):
        return -x


def fp_values(obj):
    """obj with every FpElement replaced by its value, through dicts, lists
    and tuples: the form in which the int path states the same result."""
    if isinstance(obj, FpElement):
        return obj.val
    if isinstance(obj, dict):
        return {k: fp_values(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(fp_values(v) for v in obj)
    return obj


# ---------------------------------------------------------------------------
# the echelon without a column index: an insert scans every stored row for
# its new pivot, and representatives seeds its echelon by assigning rows.
# Copied from the package as it was before Echelon kept its column index,
# apart from the names.


class ScanEchelon:
    """Fully reduced sparse row echelon; ``insert`` back-substitutes by
    scanning every stored row."""

    def __init__(self, field):
        self.field = field
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def reduce(self, vec):
        v = {c: x for c, x in vec.items() if x}
        rows = self.rows
        p = self.field.characteristic
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
        v = self.reduce(vec)
        if not v:
            return None
        piv = min(v)
        inv = self.field.inv(v[piv])
        p = self.field.characteristic
        row = _scaled(v, inv, p)
        for r2 in self.rows.values():
            coef = r2.get(piv)
            if not coef:
                continue
            if p:
                for c, x in row.items():
                    val = (r2.get(c, 0) - coef * x) % p
                    if val:
                        r2[c] = val
                    else:
                        r2.pop(c, None)
                continue
            for c, x in row.items():
                y = r2.get(c)
                val = -coef * x if y is None else y - coef * x
                if val:
                    r2[c] = val
                else:
                    r2.pop(c, None)
        self.rows[piv] = row
        return piv


def scan_representatives(stage, below, first):
    """exactlin.representatives on a ScanEchelon seeded by assigning rows."""
    n = len(stage.parities)
    ech = ScanEchelon(stage.field)
    if below:
        ech.rows = {p: dict(r) for p, r in below[0].echelon.rows.items()}
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


# ---------------------------------------------------------------------------
# the graded span as two echelons, one per parity.  Copied from the package
# as it was before a Subspace kept its rows in one echelon, apart from the
# name and the closure methods, which do not read the echelons.


class TwoEchelonSubspace:
    """A parity-graded subspace: even and odd components in their own echelons."""

    def __init__(self, parities, field):
        self.parities = parities
        self.field = field
        self.even = Echelon(field)
        self.odd = Echelon(field)

    def split(self, vec):
        ev, od = {}, {}
        for c, x in vec.items():
            if x:
                (ev if self.parities[c] == 0 else od)[c] = x
        return ev, od

    def insert(self, vec):
        if len(vec) == 1:
            (c,) = vec
            if vec[c]:
                ech = self.odd if self.parities[c] else self.even
                row = ech.rows.get(c)
                if row is None:
                    if c not in ech._occ:
                        ech.rows[c] = {c: self.field.one}
                        return True
                elif len(row) == 1:
                    return False
        ev, od = self.split(vec)
        grew = False
        if ev and self.even.insert(ev) is not None:
            grew = True
        if od and self.odd.insert(od) is not None:
            grew = True
        return grew

    def complement(self):
        pivots = self.even.rows.keys() | self.odd.rows.keys()
        keep = [i for i in range(len(self.parities)) if i not in pivots]
        pos = {i: k for k, i in enumerate(keep)}

        def project(vec):
            return {pos[c]: x for c, x in self.residual(vec).items()}

        return keep, project

    def residual(self, vec):
        ev, od = self.split(vec)
        out = self.even.reduce(ev) if ev else {}
        if od:
            out.update(self.odd.reduce(od))
        return out

    def contains(self, vec):
        return not self.residual(vec)

    def dims(self):
        return (self.even.rank, self.odd.rank)

    def basis(self):
        rows = dict(self.even.rows)
        rows.update(self.odd.rows)
        return [rows[p] for p in sorted(rows)]

    def basis_with_parity(self):
        rows = {p: (0, r) for p, r in self.even.rows.items()}
        rows.update((p, (1, r)) for p, r in self.odd.rows.items())
        return [rows[p] for p in sorted(rows)]

    def __eq__(self, other):
        if sum(self.dims()) != sum(other.dims()):
            return False
        return all(other.contains(r) for r in self.basis()) and all(
            self.contains(r) for r in other.basis()
        )
