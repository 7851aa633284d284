"""Finite-dimensional superalgebras from presentations or multiplication tables.

``compile_presentation`` takes generators, parity/degree-homogeneous
relations and a degree cap, enumerates all normal monomials up to the cap
(``_enumerate_monomials``, the package's one list of them), closes the
relation span into the two-sided graded ideal with ``Subspace.close``
(degree-truncated: monomials beyond the cap are zero by fiat) and returns
the quotient, whose monomial basis and reduction map are the ideal's
``Subspace.complement``.  Superideals and quotient algebras are closed,
checked and projected the same way.  Every finite-dimensional superalgebra here is
automatically Artinian, which is what the dimension theory downstream
assumes.

A :class:`FiniteSuperAlgebra` is either monomial-kind (it remembers its
presentation and reduces products of monomials) or table-kind (an explicit
basis-by-basis product, used for square-zero extensions, associated graded
algebras and quotients).  Elements are sparse dicts {basis index: scalar}.
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


class Presentation:
    """Flavor, generators, homogeneous relations, degree cap, base field."""

    def __init__(self, flavor, gens, relations, cap, field, name="algebra"):
        if flavor not in (SUPERCOMMUTATIVE, ASSOCIATIVE):
            raise AlgebraError("unknown flavor %r" % (flavor,))
        gens = tuple(gens)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate generator names")
        for g in gens:
            if g.bidegree == (0, 0):
                raise AlgebraError("generator %s has degree 0" % g.name)
        if cap is not None and cap < 0:
            raise AlgebraError("cap must be nonnegative")
        for r in relations:
            if r.flavor != flavor or r.gens != gens:
                raise AlgebraError("relation from a different context")
            if r.is_zero():
                raise AlgebraError("zero relation")
            d = r.degree()
            if d is None:
                raise AlgebraError("relation not degree-homogeneous: %r" % (r,))
            if d == 0:
                raise AlgebraError("constant relation")
            if r.parity() is None:
                raise AlgebraError("relation not parity-homogeneous: %r" % (r,))
            if cap is not None and d > cap:
                raise AlgebraError("relation degree %d exceeds cap %d" % (d, cap))
        self.flavor = flavor
        self.gens = gens
        self.relations = list(relations)
        self.cap = cap
        self.field = field
        self.name = name


# Normal monomials up to the cap that compile_presentation admits; the
# largest count a shipped asset, test or benchmark input reaches is 259.
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
    if ideal.contains({0: field.one}):  # monomials[0] is the empty monomial
        raise AlgebraError("the unit lies in the ideal; the quotient is zero")
    keep, project = ideal.complement()
    basis_monos = [monomials[i] for i in keep]
    A = FiniteSuperAlgebra.__new__(FiniteSuperAlgebra)
    A.kind = "monomial"
    A.field = field
    A.name = pres.name
    A.presentation = pres
    A.cap = cap
    A._mono_index = index
    A._basis_monos = basis_monos
    A._reduce_mono_vec = project
    A.dim = len(basis_monos)
    A.labels = [monomial_name(m, gens, flavor) for m in basis_monos]
    A.parities = [parities[i] for i in keep]
    A.degrees = [monomial_degree(m, gens, flavor) for m in basis_monos]
    # odd support as a bitmask; an associative word may repeat an odd letter
    odd = [i for i, g in enumerate(gens) if g.parity == ODD and flavor == SUPERCOMMUTATIVE]
    A._odd_masks = [sum(1 << i for i in odd if m[i]) for m in basis_monos]
    A.unit_index = 0  # the empty monomial sorts first and is not in the ideal
    assert A.degrees[0] == 0
    A._table = {}
    A._odd_module_generators = None
    A._generators = None
    return A


class FiniteSuperAlgebra:
    """A finite-dimensional superalgebra with an explicit basis.

    Monomial-kind instances come out of :func:`compile_presentation`;
    table-kind instances are built from an explicit basis product via
    :meth:`from_table`.  Both expose the same element interface.
    """

    @classmethod
    def from_table(
        cls,
        labels,
        parities,
        field,
        table,
        unit_index,
        name="algebra",
        odd_module_generators=None,
    ):
        A = cls.__new__(cls)
        A.kind = "table"
        A.field = field
        A.name = name
        A.presentation = None
        A.cap = None
        A.dim = len(labels)
        A.labels = list(labels)
        A.parities = list(parities)
        A.unit_index = unit_index
        A._table = {k: {i: c for i, c in v.items() if c} for k, v in table.items()}
        A._odd_module_generators = odd_module_generators
        A._generators = None
        if A.parities[unit_index] != EVEN:
            raise AlgebraError("unit must be even")
        return A

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
        """e_i e_j as a sparse vector, cached per pair.

        On a monomial-kind algebra the product is zero, and no monomial is
        built, when deg e_i + deg e_j passes the cap or the two monomials
        share an odd letter (their odd-support masks meet); degree is
        additive and a repeated odd letter kills a supercommutative
        monomial.  Otherwise the product monomial is reduced modulo the
        ideal.
        """
        key = (i, j)
        hit = self._table.get(key)
        if hit is not None:
            return hit
        if self.kind == "table":
            return {}
        if self.degrees[i] + self.degrees[j] > self.cap or self._odd_masks[i] & self._odd_masks[j]:
            out = {}
        else:
            pres = self.presentation
            sign, m = mul_monomials(
                self._basis_monos[i], self._basis_monos[j], pres.gens, pres.flavor
            )
            out = self._reduce_mono_vec({self._mono_index[m]: self.field.one})
            if sign < 0:
                neg = self.field.neg
                out = {k: neg(c) for k, c in out.items()}
        self._table[key] = out
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
        if self.kind != "monomial":
            raise AlgebraError("reduce_poly needs a monomial-kind algebra")
        pres = self.presentation
        if p.flavor != pres.flavor or p.gens != pres.gens:
            raise AlgebraError("polynomial from a different context")
        vec = {}
        for m, c in p.terms.items():
            if monomial_degree(m, pres.gens, pres.flavor) <= self.cap:
                vec[self._mono_index[m]] = c
        return self._reduce_mono_vec(vec)

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
            if self.kind == "monomial":
                pres = self.presentation
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
        if self.kind == "monomial":
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
    return A.kind == "monomial" and A.presentation.flavor == SUPERCOMMUTATIVE


def odd_multipliers(A):
    """Odd elements y_i with A_1 S = sum_i y_i S for every A-stable S.

    A presented supercommutative algebra uses its odd generators (A_1 is
    the sum of the A_0 y_i, and A_0 y_i S = y_i S).  Any other algebra
    uses all of its odd basis elements.
    """
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
    """Raise unless the span is closed under multiplication by A on both sides."""
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
    """Span of all products of l odd elements (l = 0 gives all of A).

    Each step multiplies the span on the left by ``odd_multipliers(A)``.
    """
    if l < 0:
        raise AlgebraError("negative power")
    span = A.full_subspace()
    step = filtration_step(A, A.mul, odd_multipliers(A))
    for _ in range(l):
        if span.is_zero():
            break
        span = step(span)
    return span


def quotient_algebra(A, ideal, name=None):
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
