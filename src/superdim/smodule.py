"""Finite-dimensional left supermodules over a FiniteSuperAlgebra.

A module is a parity-labelled coordinate space together with one action
matrix per algebra generator (for table-kind algebras the generator list
is the whole basis).  The action of an arbitrary basis element of a
monomial-kind algebra is the composition of the generator matrices along
the canonical word of the monomial; well-definedness is exactly what
``check_module`` verifies (declared relations, the supercommutation law,
odd squares and the degree cap all act as zero).  The regular module acts
by A's multiplication table instead: column j of its ``act_basis(i)`` is
``A.mul_basis(i, j)``, and its generator matrices are built when read.

An algebra element acts on module vectors in one way only: through its
matrix ``act_element`` (the cached ``act_basis`` matrix of a basis
element, a combination of them otherwise) and ``Matrix.apply``.  Code that
acts by many elements maps them to matrices once and steps with those.

Submodules are kept as graded echelonized spans inside the ambient module,
closed under the generator actions by ``Subspace.close``; quotients check
``Subspace.is_closed`` and take ``Subspace.complement`` (the non-pivot
coordinates) as their basis, which keeps every construction deterministic.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import _enumerate_monomials
from .exactlin import Matrix, Subspace, rank, vec_add_scaled
from .superpoly import ODD, SUPERCOMMUTATIVE, monomial_degree, monomial_word


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
        """Action matrix of the i-th basis element of the algebra (cached)."""
        hit = self._act_basis.get(i)
        if hit is None:
            hit = self._act_basis[i] = self._basis_action(i)
        return hit

    def _basis_action(self, i):
        A = self.algebra
        return self.actions[i] if A.kind == "table" else _word_action(self, A.basis_word(i))

    def act_element(self, vec):
        """Matrix of the action of an algebra element (the cached matrix of
        ``act_basis`` when the element is a basis element)."""
        terms = [(self.act_basis(i), c) for i, c in vec.items() if c]
        if len(terms) == 1 and terms[0][1] == self.field.one:
            return terms[0][0]
        return _combination(self, terms)

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
    field = M.field
    cols = [{} for _ in range(M.dim)]
    for mat, c in terms:
        for col, src in zip(cols, mat.cols):
            vec_add_scaled(col, src, c, field)
    return Matrix(M.dim, M.dim, cols, field)


class RegularModule(SuperModule):
    """A acting on itself through ``A.mul_basis``; see ``regular_module``."""

    def __init__(self, A, name):
        self.algebra = A
        self.parities = list(A.parities)
        self.dim = A.dim
        self.name = name
        self._act_basis = {}

    def _basis_action(self, i):
        A = self.algebra
        return Matrix.from_cols_sparse(A.dim, [A.mul_basis(i, j) for j in range(A.dim)], A.field)

    @cached_property
    def actions(self):
        return [self.act_element(gvec) for _label, _parity, gvec in self.algebra.generators]


def regular_module(A, name=None):
    """A acting on itself by left multiplication."""
    return RegularModule(A, name or (A.name + " regular"))


def parity_shift(M):
    """Pi M: flipped parities; odd generators act with a flipped sign."""
    actions = []
    for (_label, parity, _vec), mat in zip(M.algebra.generators, M.actions):
        actions.append(-mat if parity == ODD else mat)
    return SuperModule(
        M.algebra,
        [1 - p for p in M.parities],
        actions,
        name="Pi " + M.name,
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
        terms = [
            (_word_action(M, monomial_word(mono, gens, pres.flavor)), c)
            for mono, c in r.sorted_terms()
        ]
        if not _combination(M, terms).is_zero():
            bad.append("relation does not act as zero: %r" % (r,))
    bad.extend(_cap_violations(M, pres))
    return bad


def _words_past_cap(pres):
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
    return _all_words_in_window(gens, gdegs, cap, hi)


def _cap_violations(M, pres):
    """Words just past the cap must act as zero."""
    return [
        "word beyond the cap acts nontrivially: %s" % "*".join(pres.gens[i].name for i in word)
        for word in _words_past_cap(pres)
        if not _word_action(M, word).is_zero()
    ]


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
    span.close(seeds, [mat.apply for mat in M.actions])
    return span


def product_span(M, elements):
    """The subspace S.M for a list/Subspace S of algebra elements, closed
    under the action (it already is when the elements span an ideal)."""
    if isinstance(elements, Subspace):
        elements = elements.basis()
    # the columns s.e_j; a basis element's are its cached matrix's own
    # columns, which the closure reads and never writes
    return module_span(M, [col for s in elements for col in M.act_element(s).cols])


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
    return SuperModule(M.algebra, parities, actions, name=name)


def is_action_closed(M, span):
    return span.is_closed([mat.apply for mat in M.actions])


def quotient(M, span, name=None):
    """M / span for an action-closed graded subspace."""
    if not is_action_closed(M, span):
        raise ModuleError("subspace is not action-closed")
    keep, project = span.complement()
    actions = []
    for mat in M.actions:
        cols = [project(mat.apply({i: M.field.one})) for i in keep]
        actions.append(Matrix.from_cols_sparse(len(keep), cols, M.field))
    return SuperModule(
        M.algebra,
        [M.parities[i] for i in keep],
        actions,
        name=name or (M.name + "/N"),
    )


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


def sequence_quotient(ys, M):
    """(regular, M / (R y_1 + ... + R y_t) M), the quotient built one y_i at a time.

    ``regular`` says whether each y_i is odd regular on
    M / (R y_1 + ... + R y_{i-1}) M; once one is not, the later y_i are
    only quotiented by.  The y_i stay elements of the same algebra
    throughout; only the module shrinks at each step.
    """
    regular = True
    for y in ys:
        regular = regular and is_odd_regular(y, M)
        M = quotient(M, product_span(M, [y]))
    return regular, M


def is_regular_sequence(ys, M):
    """Each y_i regular on M / (R y_1 + ... + R y_{i-1}) M."""
    return sequence_quotient(ys, M)[0]
