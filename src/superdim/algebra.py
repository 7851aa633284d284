"""Finite-dimensional superalgebras from presentations or multiplication tables.

``compile_presentation`` takes generators, relations that pass
``check_relation`` and a degree cap, enumerates all normal monomials up to
the cap (``_enumerate_monomials``, the package's one list of them), closes
the relation span into the two-sided graded ideal with ``Subspace.close``
(degree-truncated: monomials beyond the cap are zero by fiat) and returns
the quotient, whose monomial basis and reduction map are the ideal's
``Subspace.complement``.  ``words_past_cap`` lists, from the same list, the
words past the cap that a module must kill.  ``odd_filtration`` reads the
odd chain off the compiled monomials and the reduction map.  Superideals
and quotient algebras are closed, checked and projected the same way.
Every finite-dimensional superalgebra here is automatically Artinian,
which is what the dimension theory downstream assumes.

Every :class:`FiniteSuperAlgebra` is built by one constructor,
``FiniteSuperAlgebra.from_table``: compiled presentations, quotients,
associated graded algebras and square-zero extensions alike.  A compiled
one is monomial-kind: ``compile_presentation`` then adds only its
presentation and its compiled monomials, and its ``kind`` and ``cap``
follow from the presentation.  Any other is table-kind.  All multiply
basis elements in one way, ``mul_basis``: a pair is read from the
algebra's table, or solved by its filler the first time it is read and
cached there.  The filler of a monomial-kind algebra reduces the product
monomial modulo the ideal; ``quotient_algebra`` projects the product in
the ambient algebra, and ``graded`` re-expresses a product of
representatives.  Elements are sparse dicts {basis index: scalar}.
"""

from __future__ import annotations

import heapq

from .exactlin import Subspace, power, vec_add_scaled
from .superpoly import (
    ASSOCIATIVE,
    EVEN,
    ODD,
    SUPERCOMMUTATIVE,
    SuperPolynomial,
    monomial_degree,
    monomial_name,
    monomial_parity,
    monomial_sort_key,
    monomial_word,
    mul_monomials,
)


class AlgebraError(ValueError):
    pass


def check_relation(r, cap):
    """Raise AlgebraError unless r is nonzero, of one positive degree and
    one parity, and of degree at most the cap (None for no cap)."""
    if r.is_zero():
        raise AlgebraError("zero relation")
    d = r.degree()
    if d is None:
        raise AlgebraError("relation is not degree-homogeneous")
    if d == 0:
        raise AlgebraError("relation is a nonzero constant")
    if r.parity() is None:
        raise AlgebraError("relation is not parity-homogeneous")
    if cap is not None and d > cap:
        raise AlgebraError("relation degree %d exceeds cap %d" % (d, cap))


# Generators a presentation admits.  The monomial enumerations here and in
# hilbert.box_monomials recurse once per generator, so they stay under 300
# frames; no shipped asset, test or benchmark input uses more than 21.
MAX_GENERATORS = 256


class Presentation:
    """Flavor, generators (at most MAX_GENERATORS), relations (each passing
    ``check_relation``), degree cap, field."""

    def __init__(self, flavor, gens, relations, cap, field, name="algebra"):
        if flavor not in (SUPERCOMMUTATIVE, ASSOCIATIVE):
            raise AlgebraError("unknown flavor %r" % (flavor,))
        gens = tuple(gens)
        if len(gens) > MAX_GENERATORS:
            raise AlgebraError("more than %d generators" % MAX_GENERATORS)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate generator names")
        if cap is not None and cap < 0:
            raise AlgebraError("cap must be nonnegative")
        for r in relations:
            if r.flavor != flavor or r.gens != gens:
                raise AlgebraError("relation from a different context")
            check_relation(r, cap)
        self.flavor = flavor
        self.gens = gens
        self.relations = list(relations)
        self.cap = cap
        self.field = field
        self.name = name


# Normal monomials up to the cap that compile_presentation admits.  The
# shipped assets and benchmark jobs reach at most 259 (corpus B), and the
# tests 16,384 (Lambda_14 in test_cli).
MAX_MONOMIALS = 1 << 16


def count_monomials(pres, limit):
    """The number of normal monomials of degree <= cap, or None once it
    passes ``limit``; counted without listing them.

    Supercommutative: the coefficients of prod_even 1/(1 - t^d) *
    prod_odd (1 + t^d), one generator at a time.  Associative: words by
    degree, w(n) = sum_g w(n - d_g).  Both keep only the degrees that
    occur, and each step adds at least one monomial to a running total
    that never exceeds the count, so the work stays near ``limit`` however
    large the cap is.
    """
    cap = pres.cap
    degs = [g.bidegree[0] + g.bidegree[1] for g in pres.gens]
    total = 1
    if pres.flavor == SUPERCOMMUTATIVE:
        counts = {0: 1}
        for g, d in zip(pres.gens, degs):
            new = dict(counts)
            for n, c in counts.items():
                for m in range(n + d, cap + 1, d):
                    new[m] = new.get(m, 0) + c
                    total += c
                    if total > limit:
                        return None
                    if g.parity == ODD:
                        break
            counts = new
    else:
        words = {0: 1}
        pending = [0]
        while pending:
            n = heapq.heappop(pending)
            c = words.pop(n)
            for d in degs:
                if n + d <= cap:
                    if n + d not in words:
                        words[n + d] = 0
                        heapq.heappush(pending, n + d)
                    words[n + d] += c
                    total += c
                    if total > limit:
                        return None
    return total if total <= limit else None


def _enumerate_monomials(gens, flavor, cap):
    """All normal monomial keys of total degree <= cap, degree-lex sorted."""
    out = []
    if flavor == SUPERCOMMUTATIVE:
        n = len(gens)
        exps = [0] * n

        def rec(i, deg):
            if i == n:
                out.append(tuple(exps))
                return
            g = gens[i]
            gdeg = g.bidegree[0] + g.bidegree[1]
            emax = 1 if g.parity == ODD else (cap - deg) // gdeg
            for e in range(min(emax, (cap - deg) // gdeg) + 1):
                exps[i] = e
                rec(i + 1, deg + e * gdeg)
            exps[i] = 0

        rec(0, 0)
    else:
        frontier = [()]
        out.append(())
        while frontier:
            new = []
            for w in frontier:
                d = monomial_degree(w, gens, flavor)
                for i, g in enumerate(gens):
                    gdeg = g.bidegree[0] + g.bidegree[1]
                    if d + gdeg <= cap:
                        new.append(w + (i,))
            out.extend(new)
            frontier = new
    out.sort(key=lambda m: monomial_sort_key(m, gens, flavor))
    return out


def words_past_cap(A):
    """The words that must act as zero on a module over a compiled algebra
    A because they pass the cap: the canonical words of the products m g
    past the cap, m a normal monomial up to the cap and g a generator, each
    once, in degree-lex order.  They are at most (number of generators) *
    MAX_MONOMIALS, as A's compilation checked.

    They act as zero exactly when every canonical word past the cap does.
    A word acts by composing its letters' matrices, the first outermost, so
    it acts as zero once a prefix does.  A prefix of a canonical word (even
    letters ascending, then odd letters ascending; any word when
    associative) is canonical, so the shortest prefix past the cap of a
    canonical word is q g, with q within the cap the canonical word of some
    m, and q g the canonical word of m g.
    """
    gens, flavor, cap = A.presentation.gens, A.presentation.flavor, A.cap
    letters = [(i,) if flavor == ASSOCIATIVE else tuple(int(j == i) for j in range(len(gens)))
               for i in range(len(gens))]
    past = set()
    for m in _enumerate_monomials(gens, flavor, cap):
        room = cap - monomial_degree(m, gens, flavor)
        for g, gen in zip(letters, gens):
            product = mul_monomials(m, g, gens, flavor) if sum(gen.bidegree) > room else None
            if product is not None:
                past.add(product[1])
    past = sorted(past, key=lambda m: monomial_sort_key(m, gens, flavor))
    return [monomial_word(m, gens, flavor) for m in past]


def _on_monomials(p, index):
    """A polynomial as a vector on the compiled monomials ``index``: its
    terms past the cap, the monomials ``index`` lacks, are zero."""
    return {index[m]: c for m, c in p.terms.items() if m in index}


def compile_presentation(pres):
    """Quotient of the free (super)algebra by relations and the degree cap."""
    if pres.cap is None:
        raise AlgebraError("compilation needs a degree cap")
    if count_monomials(pres, MAX_MONOMIALS) is None:
        raise AlgebraError(
            "cap %d admits more than %d normal monomials" % (pres.cap, MAX_MONOMIALS)
        )
    gens, flavor, field, cap = pres.gens, pres.flavor, pres.field, pres.cap
    neg = field.neg
    monomials = _enumerate_monomials(gens, flavor, cap)
    index = {m: i for i, m in enumerate(monomials)}
    # degree is additive, so a product past the cap is skipped before it is formed
    degrees = [monomial_degree(m, gens, flavor) for m in monomials]
    gen_degrees = [g.bidegree[0] + g.bidegree[1] for g in gens]

    def mul_vec_by_gen(vec, gi, side):
        # m -> g m is injective on monomials, so no two terms meet
        g = (gi,) if flavor == ASSOCIATIVE else tuple(
            1 if j == gi else 0 for j in range(len(gens))
        )
        room = cap - gen_degrees[gi]
        out = {}
        for mi, c in vec.items():
            if degrees[mi] > room:
                continue
            m = monomials[mi]
            sm = (
                mul_monomials(g, m, gens, flavor)
                if side == "left"
                else mul_monomials(m, g, gens, flavor)
            )
            if sm is not None:
                out[index[sm[1]]] = neg(c) if sm[0] < 0 else c
        return out

    # two-sided graded ideal closure; for the supercommutative flavor the
    # left side suffices because relations are parity-homogeneous
    sides = ("left",) if flavor == SUPERCOMMUTATIVE else ("left", "right")
    parities = [monomial_parity(m, gens, flavor) for m in monomials]
    ideal = Subspace(parities, field)
    ideal.close(
        (_on_monomials(r, index) for r in pres.relations),
        [
            lambda v, gi=gi, side=side: mul_vec_by_gen(v, gi, side)
            for gi in range(len(gens))
            for side in sides
        ],
    )
    if ideal.contains({0: field.one}):  # monomials[0] is the empty monomial
        raise AlgebraError("the unit lies in the ideal; the quotient is zero")
    keep, project = ideal.complement()
    basis_monos = [monomials[i] for i in keep]
    basis_degrees = [degrees[i] for i in keep]
    assert basis_degrees[0] == 0  # the empty monomial sorts first and is not in the ideal
    # odd support as a bitmask; an associative word may repeat an odd letter
    odd = [i for i, g in enumerate(gens) if g.parity == ODD and flavor == SUPERCOMMUTATIVE]
    odd_masks = [sum(1 << i for i in odd if m[i]) for m in basis_monos]

    def product(i, j):
        # zero, and no monomial built, when the degrees pass the cap or the
        # two monomials share an odd letter: degree is additive and a
        # repeated odd letter kills a supercommutative monomial
        if basis_degrees[i] + basis_degrees[j] > cap or odd_masks[i] & odd_masks[j]:
            return {}
        sign, m = mul_monomials(basis_monos[i], basis_monos[j], gens, flavor)
        out = project({index[m]: field.one})
        return {k: neg(c) for k, c in out.items()} if sign < 0 else out

    labels = [monomial_name(m, gens, flavor) for m in basis_monos]
    A = FiniteSuperAlgebra.from_table(labels, [parities[i] for i in keep], field, {}, 0,
                                      name=pres.name, fill=product)
    A.presentation = pres
    A._mono_index = index
    A._basis_monos = basis_monos
    A._reduce_mono_vec = project
    return A


def odd_filtration(A):
    """[A, R_1 A, R_1^2 A, ...] up to the first zero stage, which is left
    out; R_1 is the odd part of A.

    A presented supercommutative A = F / (I + F_{>cap}) is read off its
    compiled monomials, every monomial of F up to the cap, those that lie in
    the ideal included: stage l is the span of the normal forms pi(m) of the
    compiled monomials m with at least l odd letters.  No product is formed
    and no action matrix is built.  Here pi : F -> A is the quotient map; it
    is an onto algebra map that keeps parities and kills F_{>cap}.

    Proof that R_1^l A = span{pi(m) : m has at least l odd letters}.
    (>=) Such an m is +-y_1 ... y_l m' for l of its odd letters y_i and the
    rest m', so pi(m) = +-pi(y_1) ... pi(y_l) pi(m') with each pi(y_i) odd.
    (<=) R_1^l A is spanned by the a_1 ... a_l b with a_i odd and b in A.
    As pi is onto and keeps parities, a_i = pi(f_i) with f_i odd, a
    combination of monomials with an odd number, so at least one, of odd
    letters, and b = pi(g).  Odd-letter counts add under the product of
    monomials (which is zero at a repeated odd letter), so f_1 ... f_l g
    is a combination of monomials with at least l odd letters, and so is
    its part up to the cap, which has the same image a_1 ... a_l b.
    The count is that of the compiled monomial m, never that of its normal
    form.  With ``even x(0,2)``, ``odd y1 y2`` and the relation
    ``x - y1*y2``, the normal form of y1*y2 may be x, which has no odd
    letter; x lies in R_1^2 A all the same, as pi(y1) pi(y2).  Reading the
    basis monomials by their own odd counts would miss it.

    Any other algebra steps by ``odd_multipliers`` (see ``filtration_step``);
    more than dim A nonzero stages raise AlgebraError.
    """
    if not presented_supercommutative(A):
        step = filtration_step(A, A.mul, odd_multipliers(A))
        return filtration_chain(A.full_subspace(), step, A.dim, "odd part")
    odd = [i for i, g in enumerate(A.presentation.gens) if g.parity == ODD]
    one, project = A.field.one, A._reduce_mono_vec
    by_count = [[] for _ in range(len(odd) + 1)]
    for m, i in A._mono_index.items():
        by_count[sum(m[j] for j in odd)].append(project({i: one}))
    # stage l is stage l + 1 with the normal forms of exactly l odd letters added
    chain = []
    stage = Subspace(A.parities, A.field)
    for vectors in reversed(by_count):
        stage = stage.copy()
        for v in vectors:
            if v:
                stage.insert(v)
        if not stage.is_zero():
            chain.append(stage)
    chain.reverse()
    return chain


class FiniteSuperAlgebra:
    """A finite-dimensional superalgebra with an explicit basis.

    Every instance is built by :meth:`from_table`.  Monomial-kind ones come
    out of :func:`compile_presentation`, which adds the presentation and
    the compiled monomials; table-kind ones have no presentation.  Both
    expose the same element interface.
    """

    @classmethod
    def from_table(cls, labels, parities, field, table, unit_index, name="algebra",
                   odd_module_generators=None, fill=None, odd_steps=None):
        """The algebra with the given basis products; ``fill(i, j)``, when
        given, solves a pair missing from ``table`` the first time it is
        read (see ``mul_basis``).  ``odd_steps``, when given, are the odd
        elements that ``odd_multipliers`` returns."""
        A = cls.__new__(cls)
        A.field = field
        A.name = name
        A.presentation = None
        A.dim = len(labels)
        A.labels = list(labels)
        A.parities = list(parities)
        A.unit_index = unit_index
        A._table = {k: {i: c for i, c in v.items() if c} for k, v in table.items()}
        A._fill = fill
        A._odd_steps = odd_steps
        A._odd_module_generators = odd_module_generators
        A._generators = None
        if A.parities[unit_index] != EVEN:
            raise AlgebraError("unit must be even")
        return A

    @property
    def kind(self):
        """The algebra's kind: "monomial" when compiled from a presentation."""
        return "table" if self.presentation is None else "monomial"

    @property
    def cap(self):
        """The presentation's degree cap; None for a table-kind algebra."""
        return None if self.presentation is None else self.presentation.cap

    # -- element plumbing ---------------------------------------------------

    def unit_element(self):
        return {self.unit_index: self.field.one}

    def basis_element(self, i):
        return {i: self.field.one}

    def element_parity(self, vec):
        ps = {self.parities[i] for i, c in vec.items() if c}
        if len(ps) != 1:
            return None
        return ps.pop()

    def mul_basis(self, i, j):
        """e_i e_j as a sparse vector: read from the table, or solved by
        the algebra's filler the first time the pair is read and cached;
        without a filler a pair missing from the table is zero."""
        key = (i, j)
        hit = self._table.get(key)
        if hit is not None:
            return hit
        if self._fill is None:
            return {}
        out = self._table[key] = self._fill(i, j)
        return out

    def mul(self, u, v):
        field = self.field
        out = {}
        for i, a in u.items():
            if not a:
                continue
            for j, b in v.items():
                if b:
                    vec_add_scaled(out, self.mul_basis(i, j), a * b, field)
        return out

    def power_of_element(self, vec, n):
        return power(vec, n, self.unit_element(), self.mul, dict.values)

    def reduce_poly(self, p):
        """Image of a SuperPolynomial in the algebra, as an element vec."""
        pres = self.presentation
        if pres is None:
            raise AlgebraError("reduce_poly needs a monomial-kind algebra")
        if p.flavor != pres.flavor or p.gens != pres.gens:
            raise AlgebraError("polynomial from a different context")
        return self._reduce_mono_vec(_on_monomials(p, self._mono_index))

    def basis_word(self, i):
        """Canonical generator word of a basis monomial (monomial kind)."""
        pres = self.presentation
        return monomial_word(self._basis_monos[i], pres.gens, pres.flavor)

    # -- generators ---------------------------------------------------------

    @property
    def generators(self):
        """(label, parity, element) triples generating the algebra.

        Monomial kind: the presentation's generators.  Table kind: the
        whole basis.
        """
        if self._generators is None:
            pres = self.presentation
            if pres is not None:
                gs = []
                for gi, g in enumerate(pres.gens):
                    p = SuperPolynomial.generator(
                        gi, pres.flavor, pres.gens, pres.field
                    )
                    gs.append((g.name, g.parity, self.reduce_poly(p)))
                self._generators = gs
            else:
                self._generators = [
                    (self.labels[i], self.parities[i], self.basis_element(i))
                    for i in range(self.dim)
                ]
        return self._generators

    def generator_element(self, name):
        for label, _parity, vec in self.generators:
            if label == name:
                return dict(vec)
        raise AlgebraError("unknown generator %r" % (name,))

    def odd_module_generators(self):
        """Default generating set of A_1 as an A_0-module.

        Monomial kind: the odd presentation generators (any odd monomial
        factors as an even monomial times one of them).  Table kind: a
        designated list if one was provided, otherwise all odd basis
        elements.
        """
        if self._odd_module_generators is not None:
            return list(self._odd_module_generators)
        if self.presentation is not None:
            return [
                (label, vec)
                for label, parity, vec in self.generators
                if parity == ODD and vec
            ]
        return [
            (self.labels[i], self.basis_element(i))
            for i in range(self.dim)
            if self.parities[i] == ODD
        ]

    # -- structure ----------------------------------------------------------

    def full_subspace(self):
        return Subspace.span(self.parities, self.field, map(self.basis_element, range(self.dim)))

    def element_name(self, vec):
        if not vec:
            return "0"
        parts = []
        for i in sorted(vec):
            c = vec[i]
            parts.append(
                "%s" % (c,) if self.labels[i] == "1" else "%s*%s" % (c, self.labels[i])
            )
        return " + ".join(parts)

    def __repr__(self):
        return "FiniteSuperAlgebra(%s, dim %d over %s)" % (
            self.name,
            self.dim,
            self.field,
        )


def is_supercommutative(A):
    """Sign law on all basis pairs, plus vanishing odd squares.

    Over characteristic 2 the sign law is vacuous and the square condition
    carries the content, so both are always checked.
    """
    neg = A.field.neg
    for i in range(A.dim):
        if A.parities[i] == ODD:
            if A.mul_basis(i, i):
                return False
        for j in range(A.dim):
            ab = A.mul_basis(i, j)
            ba = A.mul_basis(j, i)
            if A.parities[i] == ODD and A.parities[j] == ODD:
                ba = {k: neg(c) for k, c in ba.items()}
            if ab != ba:
                return False
    return True


def presented_supercommutative(A):
    """A is monomial kind with a supercommutative presentation.

    Then every a in A supercommutes with every homogeneous g, so for an
    A-stable subspace S the subspace A g S is g S; filtrations can step by
    generators instead of bases.
    """
    return A.presentation is not None and A.presentation.flavor == SUPERCOMMUTATIVE


def odd_multipliers(A):
    """Odd elements y_i with A_1 S = sum_i y_i S for every A-stable S.

    A presented supercommutative algebra uses its odd generators (A_1 is
    the sum of the A_0 y_i, and A_0 y_i S = y_i S).  An algebra G = gr(A, I)
    uses the odd steps y_i that ``graded.gr`` recorded: the nonzero classes
    in component 0 of A's odd generators and in component 1 of the ideal's
    odd generators.  G is generated by gr_0 = A/I and gr_1 = I/I^2, hence by
    these classes and even ones, and it is supercommutative, so its odd
    part is the sum of the (even part) y_i and again G_1 S = sum_i y_i S.
    Any other algebra uses all of its odd basis elements.
    """
    if A._odd_steps is not None:
        return A._odd_steps
    if presented_supercommutative(A):
        return [vec for _label, vec in A.odd_module_generators()]
    return [A.basis_element(i) for i in range(A.dim) if A.parities[i] == ODD]


def filtration_step(X, act, multipliers):
    """The step S -> span{act(u, s) : u in multipliers, s in S} on X."""

    def step(stage):
        basis = stage.basis()
        return Subspace.span(
            X.parities, X.field, (act(u, s) for u in multipliers for s in basis)
        )

    return step


def filtration_chain(stage, step, bound, what, error=AlgebraError):
    """[stage, step(stage), ...] up to the first zero stage, which is left
    out; more than ``bound`` nonzero stages raise ``error``."""
    chain = []
    while not stage.is_zero():
        chain.append(stage)
        if len(chain) > bound:
            raise error("%s is not nilpotent" % what)
        stage = step(stage)
    return chain


def _multiplication_maps(A, two_sided):
    """Multiplication on the left by the generators of A (the whole basis
    for a table-kind algebra), and also on the right when ``two_sided``."""
    maps = []
    for _label, _parity, g in A.generators:
        maps.append(lambda v, g=g: A.mul(g, v))
        if two_sided:
            maps.append(lambda v, g=g: A.mul(v, g))
    return maps


def require_two_sided(A, span):
    """Raise unless the span is closed under multiplication by A on both sides.

    A span that ``superideal_span`` built over this A (its parities list is
    A's) and that still has its ``generators`` (no insert has grown it)
    passes at once when A is presented supercommutative: it is graded and
    closed on the left, and a homogeneous a v is +-v a there.
    """
    built_here = span.generators is not None and span.parities is A.parities
    if built_here and presented_supercommutative(A):
        return
    if not span.is_closed(_multiplication_maps(A, True)):
        raise AlgebraError("subspace is not a two-sided superideal")


def superideal_span(A, elements):
    """Graded ideal generated by the given elements, as a Subspace.

    Inhomogeneous generators contribute both their graded components (a
    graded ideal containing v contains its components).  The components
    that are not in the span of the earlier ones are recorded as the
    span's ``generators``.  Over a presented supercommutative algebra
    left multiplication closes the span; otherwise both sides do.
    """
    span = Subspace(A.parities, A.field)
    maps = _multiplication_maps(A, not presented_supercommutative(A))
    span.generators = span.close((part for v in elements for part in span.split(v)), maps)
    return span


def odd_radical(A):
    """The superideal A*A_1 generated by the whole odd part, seeded with
    ``odd_multipliers(A)`` (odd generators generate it)."""
    return superideal_span(A, odd_multipliers(A))


def odd_power_span(A, l):
    """The ideal R_1^l A, R_1 the odd part of A: the span of the products of
    l odd elements and an element of A (l = 0 gives all of A).  On
    ``grassmann2`` at l = 1 it is spanned by z1, z2 and z1*z2, of dims (1, 2).

    It is stage l of ``odd_filtration``, or zero past its last stage.
    """
    if l < 0:
        raise AlgebraError("negative power")
    chain = odd_filtration(A)
    return chain[l] if l < len(chain) else Subspace(A.parities, A.field)


def quotient_algebra(A, ideal, name=None):
    """Quotient by a two-sided superideal, as a table-kind algebra.

    Basis classes are the non-pivot coordinates of the echelonized ideal;
    errors out if the ideal is not multiplication-closed or contains the
    unit.  The table starts empty: a product of classes a, b is solved as
    the projection of ``A.mul_basis(keep[a], keep[b])`` when it is read.
    """
    require_two_sided(A, ideal)
    if ideal.contains(A.unit_element()):
        raise AlgebraError("ideal contains the unit")
    keep, project = ideal.complement()
    unit = project(A.unit_element())
    assert list(unit.values()) == [A.field.one]
    omg = None
    if A._odd_module_generators is not None or A.presentation is not None:
        omg = []
        for label, vec in A.odd_module_generators():
            img = project(vec)
            if img:
                omg.append((label, img))
    return FiniteSuperAlgebra.from_table(
        labels=[A.labels[i] for i in keep],
        parities=[A.parities[i] for i in keep],
        field=A.field,
        table={},
        unit_index=next(iter(unit)),
        name=name or (A.name + "/ideal"),
        odd_module_generators=omg,
        fill=lambda a, b: project(A.mul_basis(keep[a], keep[b])),
    )


def table_is_associative(A):
    """Check (ab)c = a(bc) on all basis triples, from the rows of mul_basis:
    (e_i e_j) e_k = sum_r (e_i e_j)_r e_r e_k and
    e_i (e_j e_k) = sum_r (e_j e_k)_r e_i e_r.  Both sides are empty, so
    the triple is skipped, when e_i e_j = 0 and e_j e_k = 0."""
    n, field = A.dim, A.field
    table = [[A.mul_basis(i, j) for j in range(n)] for i in range(n)]
    nonzero = [[k for k in range(n) if row[k]] for row in table]
    for row_i in table:
        for j in range(n):
            ij, row_j = row_i[j], table[j]
            for k in range(n) if ij else nonzero[j]:
                left = {}
                for r, a in ij.items():
                    vec_add_scaled(left, table[r][k], a, field)
                right = {}
                for r, b in row_j[k].items():
                    vec_add_scaled(right, row_i[r], b, field)
                if left != right:
                    return False
    return True


def table_respects_unit(A):
    for i in range(A.dim):
        e = A.basis_element(i)
        if A.mul(A.unit_element(), e) != e or A.mul(e, A.unit_element()) != e:
            return False
    return True


def is_algebra_map(R1, R2, phi):
    """phi : R1 -> R2, a Matrix on the bases, sends 1 to 1 and every basis
    product e_i e_j to phi(e_i) phi(e_j)."""
    if phi.apply({R1.unit_index: R1.field.one}) != {R2.unit_index: R2.field.one}:
        return False
    images = [phi.apply({i: R1.field.one}) for i in range(R1.dim)]
    return all(
        phi.apply(R1.mul_basis(i, j)) == R2.mul(images[i], images[j])
        for i in range(R1.dim)
        for j in range(R1.dim)
    )
