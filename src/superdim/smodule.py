"""Finite-dimensional left supermodules over a FiniteSuperAlgebra.

A module is a parity-labelled coordinate space together with one action
matrix per algebra generator (for table-kind algebras the generator list
is the whole basis).  The action of an arbitrary basis element of a
monomial-kind algebra is the composition of the generator matrices along
the canonical word of the monomial; well-definedness is exactly what
``check_module`` verifies (declared relations, the supercommutation law,
odd squares and the degree cap all act as zero).

Submodules are kept as graded echelonized spans inside the ambient module;
quotients take the non-pivot complement as their basis, which keeps every
construction deterministic.
"""

from __future__ import annotations

from .exactlin import Matrix, Subspace, kernel_of_constraints, rank, vec_add_scaled
from .superpoly import EVEN, ODD, SUPERCOMMUTATIVE


class ModuleError(ValueError):
    pass


class SuperModule:
    """dim-many parity-labelled coordinates with generator action matrices."""

    def __init__(self, algebra, parities, actions, name="module"):
        self.algebra = algebra
        self.parities = list(parities)
        self.dim = len(self.parities)
        gens = algebra.generators
        if len(actions) != len(gens):
            raise ModuleError(
                "expected %d action matrices, got %d" % (len(gens), len(actions))
            )
        for m in actions:
            if m.nrows != self.dim or m.ncols != self.dim:
                raise ModuleError("action matrix shape mismatch")
        self.actions = list(actions)
        self.name = name
        self._act_basis = {}

    @property
    def field(self):
        return self.algebra.field

    def is_zero(self):
        return self.dim == 0

    def basis_element(self, i):
        return {i: self.field.one}

    def full_subspace(self):
        return Subspace.span(self.parities, self.field, map(self.basis_element, range(self.dim)))

    # -- action -------------------------------------------------------------

    def act_basis(self, i):
        """Action matrix of the i-th basis element of the algebra."""
        hit = self._act_basis.get(i)
        if hit is not None:
            return hit
        A = self.algebra
        if A.kind == "table":
            out = self.actions[i]
        else:
            out = _word_action(self, A.basis_word(i))
        self._act_basis[i] = out
        return out

    def act_element(self, vec):
        """Matrix of the action of an algebra element (the cached matrix of
        ``act_basis`` when the element is a basis element)."""
        terms = [(self.act_basis(i), c) for i, c in vec.items() if c]
        if len(terms) == 1 and terms[0][1] == self.field.one:
            return terms[0][0]
        return _combination(self, terms)

    def apply_element(self, vec, mvec):
        """(algebra element) . (sparse module vector)."""
        out = {}
        for i, c in vec.items():
            if c:
                vec_add_scaled(out, self.act_basis(i).apply(mvec), c)
        return out

    def __repr__(self):
        return "SuperModule(%s, dim %d over %s)" % (
            self.name,
            self.dim,
            self.algebra.name,
        )


def _word_action(M, word):
    """Action matrix of a word in the generators (the identity for ())."""
    out = Matrix.identity(M.dim, M.field)
    for gi in reversed(word):
        out = M.actions[gi].compose(out)
    return out


def _combination(M, terms):
    """sum of c * mat over (mat, c) in terms, built column by column."""
    cols = [{} for _ in range(M.dim)]
    for mat, c in terms:
        for col, src in zip(cols, mat.cols):
            vec_add_scaled(col, src, c)
    return Matrix(M.dim, M.dim, cols, M.field)


def regular_module(A, name=None):
    """A acting on itself by left multiplication."""
    actions = []
    for _label, _parity, gvec in A.generators:
        cols = [A.mul(gvec, A.basis_element(j)) for j in range(A.dim)]
        actions.append(Matrix.from_cols_sparse(A.dim, cols, A.field))
    return SuperModule(A, list(A.parities), actions, name=name or (A.name + " regular"))


def parity_shift(M, name=None):
    """Pi M: flipped parities; odd generators act with a flipped sign."""
    actions = []
    for (_label, parity, _vec), mat in zip(M.algebra.generators, M.actions):
        actions.append(mat.scaled(M.field.of(-1)) if parity == ODD else mat)
    return SuperModule(
        M.algebra,
        [1 - p for p in M.parities],
        actions,
        name=name or ("Pi " + M.name),
    )


def _parity_block_violation(M, mat, gen_parity):
    for j in range(M.dim):
        want = (M.parities[j] + gen_parity) % 2
        for i in mat.cols[j]:
            if M.parities[i] != want:
                return "entry (%d,%d)" % (i, j)
    return None


def check_module(M):
    """All module axioms for M; returns a list of violation strings."""
    A = M.algebra
    bad = []
    if A.kind == "table":
        unit = M.act_basis(A.unit_index)
        if unit != Matrix.identity(M.dim, M.field):
            bad.append("unit does not act as the identity")
        for i in range(A.dim):
            v = _parity_block_violation(M, M.act_basis(i), A.parities[i])
            if v:
                bad.append("parity block broken for %s at %s" % (A.labels[i], v))
        for i in range(A.dim):
            mi = M.act_basis(i)
            for j in range(A.dim):
                lhs = mi.compose(M.act_basis(j))
                rhs = M.act_element(A.mul_basis(i, j))
                if lhs != rhs:
                    bad.append(
                        "action not multiplicative on (%s, %s)"
                        % (A.labels[i], A.labels[j])
                    )
        return bad

    pres = A.presentation
    gens = pres.gens
    for gi, g in enumerate(gens):
        v = _parity_block_violation(M, M.actions[gi], g.parity)
        if v:
            bad.append("parity block broken for %s at %s" % (g.name, v))
    if pres.flavor == SUPERCOMMUTATIVE:
        for i in range(len(gens)):
            ai = M.actions[i]
            if gens[i].parity == ODD and not ai.compose(ai).is_zero():
                bad.append("odd square %s^2 does not act as zero" % gens[i].name)
            for j in range(i + 1, len(gens)):
                aj = M.actions[j]
                lhs = ai.compose(aj)
                rhs = aj.compose(ai)
                if gens[i].parity == ODD and gens[j].parity == ODD:
                    rhs = -rhs
                if lhs != rhs:
                    bad.append(
                        "supercommutation broken on (%s, %s)"
                        % (gens[i].name, gens[j].name)
                    )
    for r in pres.relations:
        terms = [(_word_action(M, _mono_word(mono, pres)), c) for mono, c in r.sorted_terms()]
        if not _combination(M, terms).is_zero():
            bad.append("relation does not act as zero: %r" % (r,))
    bad.extend(_cap_violations(M, pres))
    return bad


def _mono_word(mono, pres):
    from .superpoly import monomial_word

    return monomial_word(mono, pres.gens, pres.flavor)


def _cap_violations(M, pres):
    """Words just past the cap must act as zero."""
    bad = []
    gens, cap = pres.gens, pres.cap
    gdegs = [g.bidegree[0] + g.bidegree[1] for g in gens]
    if pres.flavor == SUPERCOMMUTATIVE:
        # after the pair checks, normal monomials in the window suffice
        maxg = max(gdegs) if gens else 0
        words = _normal_words_in_window(gens, gdegs, cap, cap + maxg)
    else:
        words = _all_words_in_window(gens, gdegs, cap, cap + (max(gdegs) if gens else 0))
    for word in words:
        if not _word_action(M, word).is_zero():
            bad.append(
                "word beyond the cap acts nontrivially: %s"
                % "*".join(gens[i].name for i in word)
            )
    return bad


def _normal_words_in_window(gens, gdegs, lo, hi):
    out = []
    n = len(gens)
    exps = [0] * n

    def rec(i, deg):
        if deg > hi:
            return
        if i == n:
            if lo < deg <= hi:
                word = []
                for j in range(n):
                    if gens[j].parity == EVEN:
                        word.extend([j] * exps[j])
                for j in range(n):
                    if gens[j].parity == ODD and exps[j]:
                        word.append(j)
                out.append(tuple(word))
            return
        emax = 1 if gens[i].parity == ODD else (
            (hi - deg) // gdegs[i] if gdegs[i] else 0
        )
        for e in range(emax + 1):
            exps[i] = e
            rec(i + 1, deg + e * gdegs[i])
        exps[i] = 0

    rec(0, 0)
    return out


def _all_words_in_window(gens, gdegs, lo, hi):
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


# -- submodules and quotients ----------------------------------------------


def module_span(M, seeds):
    """Smallest action-closed graded subspace containing the seed vectors."""
    span = Subspace(M.parities, M.field)
    queue = []
    for v in seeds:
        if v and span.insert(v):
            queue.append(dict(v))
    gen_mats = [M.actions[i] for i in range(len(M.actions))]
    while queue:
        v = queue.pop()
        for mat in gen_mats:
            w = mat.apply(v)
            if w and span.insert(w):
                queue.append(w)
    return span


def product_span(M, elements):
    """The subspace S.M for a list/Subspace S of algebra elements, closed
    under the action (it already is when the elements span an ideal)."""
    if isinstance(elements, Subspace):
        elements = elements.basis()
    seeds = []
    for s in elements:
        for j in range(M.dim):
            w = M.apply_element(s, M.basis_element(j))
            if w:
                seeds.append(w)
    return module_span(M, seeds)


def submodule(M, span, name="submodule"):
    """The span (action-closed Subspace) as a SuperModule in its own basis."""
    rows = span.basis_with_parity()
    parities = [p for p, _r in rows]

    def coords(vec):
        out = span.coords(vec)
        if out is None:
            raise ModuleError("vector outside the submodule span")
        return out

    actions = []
    for mat in M.actions:
        cols = [coords(mat.apply(r)) for _p, r in rows]
        actions.append(Matrix.from_cols_sparse(len(rows), cols, M.field))
    sub = SuperModule(M.algebra, parities, actions, name=name)
    sub.ambient_rows = [dict(r) for _p, r in rows]
    return sub


def product_submodule(M, elements, name=None):
    """The submodule S.M with its inherited action."""
    return submodule(M, product_span(M, elements), name=name or ("S." + M.name))


def is_action_closed(M, span):
    for row in span.basis():
        for mat in M.actions:
            if not span.contains(mat.apply(row)):
                return False
    return True


def quotient(M, span, name=None):
    """M / span for an action-closed graded subspace."""
    if not is_action_closed(M, span):
        raise ModuleError("subspace is not action-closed")
    pivset = set(span.pivots())
    keep = [i for i in range(M.dim) if i not in pivset]
    pos = {i: k for k, i in enumerate(keep)}

    def project(vec):
        return {pos[c]: x for c, x in span.residual(vec).items()}

    actions = []
    for mat in M.actions:
        cols = [project(mat.apply({i: M.field.one})) for i in keep]
        actions.append(Matrix.from_cols_sparse(len(keep), cols, M.field))
    Q = SuperModule(
        M.algebra,
        [M.parities[i] for i in keep],
        actions,
        name=name or (M.name + "/N"),
    )
    Q.project = project
    return Q


def annihilator_even(M):
    """Sparse basis of {a in A_0 : a.M = 0} in even-part coordinates.

    Returns (even_positions, kernel_vectors): kernel vectors are dicts over
    slots of ``even_positions``.
    """
    A = M.algebra
    evens = [i for i in range(A.dim) if A.parities[i] == EVEN]
    acts = [M.act_basis(i).cols_sparse() for i in evens]

    def constraints():
        for j in range(M.dim):
            per_row = {}
            for slot, cols in enumerate(acts):
                for r, x in cols[j].items():
                    per_row.setdefault(r, {})[slot] = x
            for r in sorted(per_row):
                yield per_row[r]

    ker = kernel_of_constraints(len(evens), constraints(), M.field)
    return evens, ker


def is_odd_regular(y, M):
    """ker(y.|M) = y.M, checked as 2 rank(y.) = dim M.

    y must be an odd element whose square acts as zero (automatic in the
    supercommutative world); errors out otherwise.
    """
    A = M.algebra
    if A.element_parity(y) != ODD:
        raise ModuleError("regular-element test needs a homogeneous odd element")
    mat = M.act_element(y)
    if not mat.compose(mat).is_zero():
        raise ModuleError("element square does not act as zero")
    return 2 * rank(mat) == M.dim


def is_regular_sequence(ys, M):
    """Each y_i regular on M / (R y_1 + ... + R y_{i-1}) M.

    The y_i stay elements of the same algebra throughout; only the module
    shrinks at each step.
    """
    cur = M
    for y in ys:
        if not is_odd_regular(y, cur):
            return False
        cur = quotient(cur, product_span(cur, [y]))
    return True
