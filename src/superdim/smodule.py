"""Finite-dimensional left supermodules over a FiniteSuperAlgebra.

A ``SuperModule`` is a parity-labelled coordinate space with a solver for
the action matrix of each algebra basis element, called the first time
``act_basis`` reads it; ``actions`` are the generators' matrices (for
table-kind algebras the generator list is the whole basis).  The regular
module solves from ``A.mul_basis``; submodules, quotients and the graded
modules of ``graded`` from the ambient module's actions; and
``module_from_actions`` composes explicit generator matrices along the
canonical word of a basis monomial.  Well-definedness is exactly what
``check_module`` verifies (declared relations, the supercommutation law,
odd squares and the degree cap all act as zero).

An algebra element acts on module vectors in one way only: through its
matrix ``act_element`` (the cached ``act_basis`` matrix of a basis
element, a combination of them otherwise) and ``Matrix.apply``.  Code that
acts by many elements maps them to matrices once and steps with those.

Submodules are kept as graded echelonized spans inside the ambient module,
closed under the generator actions by ``Subspace.close``.  ``submodule``
and ``quotient`` both check ``Subspace.is_closed``; a submodule reads
coordinates off the pivot entries of a vector, and a quotient takes
``Subspace.complement`` (the non-pivot coordinates) as its basis, which
keeps every construction deterministic.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import words_past_cap
from .exactlin import Matrix, Subspace, rank, vec_add_scaled
from .superpoly import ODD, SUPERCOMMUTATIVE, monomial_word


class ModuleError(ValueError):
    pass


class SuperModule:
    """dim-many parity-labelled coordinates on which the algebra acts.

    ``solve(i)`` gives the action matrix of the algebra's basis element i;
    it is called the first time i is read and cached.  ``actions`` are the
    generators' matrices, solved when first read.
    """

    def __init__(self, algebra, parities, solve, name="module"):
        self.algebra = algebra
        self.parities = list(parities)
        self.dim = len(self.parities)
        self.name = name
        self._solve = solve
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
            hit = self._act_basis[i] = self._solve(i)
        return hit

    @cached_property
    def actions(self):
        return [self.act_element(gvec) for _label, _parity, gvec in self.algebra.generators]

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


def module_from_actions(algebra, parities, actions, name="module"):
    """The module whose generators act by the given matrices, one per
    algebra generator (for table-kind algebras the generator list is the
    whole basis).  A basis monomial of a monomial-kind algebra acts by the
    composition of the generator matrices along its canonical word."""
    actions, dim = list(actions), len(parities)
    if len(actions) != len(algebra.generators):
        raise ModuleError(
            "expected %d action matrices, got %d" % (len(algebra.generators), len(actions))
        )
    for m in actions:
        if m.nrows != dim or m.ncols != dim:
            raise ModuleError("action matrix shape mismatch")
    if algebra.presentation is None:
        solve = actions.__getitem__
    else:
        def solve(i):
            return _word_action(M, algebra.basis_word(i))

    M = SuperModule(algebra, parities, solve, name)
    M.actions = actions
    return M


def _word_action(M, word):
    """Action matrix of a word in the generators (the identity for ()).
    A one-letter word acts by the generator's own matrix, shared, not copied."""
    if not word:
        return Matrix.identity(M.dim, M.field)
    out = M.actions[word[-1]]
    for gi in reversed(word[:-1]):
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
        def solve(i):
            return Matrix.from_cols_sparse(A.dim, [A.mul_basis(i, j) for j in range(A.dim)], A.field)

        super().__init__(A, A.parities, solve, name)


def regular_module(A, name=None):
    """A acting on itself by left multiplication."""
    return RegularModule(A, name or (A.name + " regular"))


def _parity_block_violation(M, mat, gen_parity):
    for j in range(M.dim):
        want = (M.parities[j] + gen_parity) % 2
        for i in mat.cols[j]:
            if M.parities[i] != want:
                return "entry (%d,%d)" % (i, j)
    return None


def check_module(M):
    """All module axioms for M; returns a list of violation strings.  Over a
    presented algebra: parity blocks, supercommutation and odd squares, the
    relations, and the words of ``algebra.words_past_cap``, which stand for
    every word past the cap and number at most gens * MAX_MONOMIALS."""
    A = M.algebra
    bad = []
    if A.presentation is None:
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
    for word in words_past_cap(A):
        if not _word_action(M, word).is_zero():
            names = "*".join(gens[i].name for i in word)
            bad.append("word beyond the cap acts nontrivially: %s" % names)
    return bad


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
    """The span (an action-closed graded Subspace) as a module in its own
    basis: the action of basis element i is ``M.act_basis(i)`` restricted
    to the span, solved the first time it is read.

    The basis rows are fully reduced with pivot entry 1, so a vector of the
    span is the sum of its entries at the pivots times their rows: its
    coordinates are read off its own support.
    """
    if not is_action_closed(M, span):
        raise ModuleError("subspace is not action-closed")
    rows = span.basis_with_parity()
    position = {p: k for k, p in enumerate(span.pivots())}

    def coords(vec):
        return {position[c]: vec[c] for c in sorted(vec) if c in position and vec[c]}

    def solve(i):
        mat = M.act_basis(i)
        return Matrix.from_cols_sparse(len(rows), [coords(mat.apply(r)) for _p, r in rows], M.field)

    return SuperModule(M.algebra, [p for p, _r in rows], solve, name)


def is_action_closed(M, span):
    return span.is_closed([mat.apply for mat in M.actions])


def quotient(M, span, name=None):
    """M / span for an action-closed graded subspace: the action of basis
    element i projects the ``keep`` columns of ``M.act_basis(i)``, solved
    the first time it is read."""
    if not is_action_closed(M, span):
        raise ModuleError("subspace is not action-closed")
    keep, project = span.complement()

    def solve(i):
        cols = M.act_basis(i).cols
        return Matrix.from_cols_sparse(len(keep), [project(cols[j]) for j in keep], M.field)

    return SuperModule(M.algebra, [M.parities[i] for i in keep], solve, name or (M.name + "/N"))


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
