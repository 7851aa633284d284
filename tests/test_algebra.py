"""Presentation compilation, superideals and quotients."""

from fractions import Fraction

import pytest

from superdim.algebra import (
    MAX_MONOMIALS,
    AlgebraError,
    FiniteSuperAlgebra,
    _enumerate_monomials,
    count_monomials,
    Presentation,
    check_relation,
    compile_presentation,
    is_supercommutative,
    odd_power_span,
    odd_radical,
    quotient_algebra,
    require_two_sided,
    superideal_span,
    table_is_associative,
    table_respects_unit,
)
from superdim.exactlin import QQ, PrimeField, Subspace
from superdim.superpoly import (
    ASSOCIATIVE,
    EVEN,
    ODD,
    SUPERCOMMUTATIVE,
    GeneratorSpec,
    SuperPolynomial,
    monomial_degree,
    monomial_parity,
)
from superdim.textio import parse_presentation

from conftest import random_algebra, random_nilpotent_ideal, random_scalar, rng_for
from oracles import ext_chain_dims, ext_dims_by_degree, ext_mul, naive_is_associative
from oracles import reference_mul_monomials, unpruned_ideal_closure
from oracles import superideal_span as worklist_superideal_span


def grassmann(s, field=None):
    gens = tuple(GeneratorSpec("z%d" % (i + 1), ODD) for i in range(s))
    pres = Presentation(SUPERCOMMUTATIVE, gens, [], s, field or QQ, "grassmann%d" % s)
    return compile_presentation(pres)


class TestPresentationValidation:
    def test_duplicate_generator(self):
        gens = (GeneratorSpec("x", EVEN), GeneratorSpec("x", ODD))
        with pytest.raises(AlgebraError):
            Presentation(SUPERCOMMUTATIVE, gens, [], 2, QQ)

    def test_bad_flavor(self):
        with pytest.raises(AlgebraError):
            Presentation("weird", (GeneratorSpec("x", EVEN),), [], 2, QQ)

    def test_negative_cap(self):
        with pytest.raises(AlgebraError):
            Presentation(SUPERCOMMUTATIVE, (GeneratorSpec("x", EVEN),), [], -1, QQ)

    def test_zero_relation(self):
        gens = (GeneratorSpec("y", ODD),)
        zero = SuperPolynomial.zero(SUPERCOMMUTATIVE, gens, QQ)
        with pytest.raises(AlgebraError):
            Presentation(SUPERCOMMUTATIVE, gens, [zero], 2, QQ)

    def test_constant_relation(self):
        gens = (GeneratorSpec("x", EVEN),)
        one = SuperPolynomial.one(SUPERCOMMUTATIVE, gens, QQ)
        with pytest.raises(AlgebraError):
            Presentation(SUPERCOMMUTATIVE, gens, [one], 2, QQ)

    def test_inhomogeneous_relation(self):
        gens = (GeneratorSpec("x", EVEN),)
        x = SuperPolynomial.generator(0, SUPERCOMMUTATIVE, gens, QQ)
        with pytest.raises(AlgebraError):
            Presentation(SUPERCOMMUTATIVE, gens, [x * x - x], 3, QQ)

    def test_relation_over_cap(self):
        gens = (GeneratorSpec("x", EVEN),)
        x = SuperPolynomial.generator(0, SUPERCOMMUTATIVE, gens, QQ)
        with pytest.raises(AlgebraError):
            Presentation(SUPERCOMMUTATIVE, gens, [x * x * x], 2, QQ)

    def test_presentation_applies_check_relation(self):
        gens = (GeneratorSpec("x", EVEN), GeneratorSpec("y", ODD))
        x, y = (SuperPolynomial.generator(i, SUPERCOMMUTATIVE, gens, QQ) for i in range(2))
        one = SuperPolynomial.one(SUPERCOMMUTATIVE, gens, QQ)
        cases = [
            (x - x, "zero relation"),
            (x * x - x, "relation is not degree-homogeneous"),
            (one, "relation is a nonzero constant"),
            (x + y, "relation is not parity-homogeneous"),
            (x * x * x, "relation degree 3 exceeds cap 2"),
        ]
        for r, message in cases:
            with pytest.raises(AlgebraError, match=message):
                check_relation(r, 2)
            with pytest.raises(AlgebraError, match=message):
                Presentation(SUPERCOMMUTATIVE, gens, [r], 2, QQ)
        check_relation(x * x * x, None)
        assert Presentation(SUPERCOMMUTATIVE, gens, [x * x * x], None, QQ).cap is None

    def test_compile_needs_cap(self):
        gens = (GeneratorSpec("x", EVEN),)
        pres = Presentation(SUPERCOMMUTATIVE, gens, [], None, QQ)
        with pytest.raises(AlgebraError):
            compile_presentation(pres)


class TestMonomialBudget:
    def test_count_matches_enumeration(self):
        rng = rng_for("count-vs-enumerate")
        for _trial in range(300):
            flavor = rng.choice((SUPERCOMMUTATIVE, ASSOCIATIVE))
            gens = []
            for i in range(rng.randint(1, 4)):
                parity = rng.choice((EVEN, ODD))
                l = rng.choice((0, 2) if parity == EVEN else (1, 3))
                k = rng.randint(0 if l else 1, 3)
                gens.append(GeneratorSpec("g%d" % i, parity, (k, l)))
            cap = rng.randint(0, 12 if flavor == SUPERCOMMUTATIVE else 7)
            pres = Presentation(flavor, gens, [], cap, QQ)
            n = len(_enumerate_monomials(gens, flavor, cap))
            assert count_monomials(pres, n) == n
            assert count_monomials(pres, n - 1) is None
            assert count_monomials(pres, rng.randint(n, 2 * n)) == n

    @pytest.mark.parametrize("flavor", [SUPERCOMMUTATIVE, ASSOCIATIVE])
    def test_huge_cap_is_refused_before_enumeration(self, flavor):
        gens = (GeneratorSpec("x", EVEN, (7, 0)), GeneratorSpec("y", ODD))
        pres = Presentation(flavor, gens, [], 10**12, QQ)
        assert count_monomials(pres, MAX_MONOMIALS) is None
        with pytest.raises(AlgebraError, match="more than %d normal monomials" % MAX_MONOMIALS):
            compile_presentation(pres)

    def test_odd_generators_bound_the_count(self):
        gens = tuple(GeneratorSpec("z%d" % i, ODD) for i in range(16))
        pres = Presentation(SUPERCOMMUTATIVE, gens, [], 10**12, QQ)
        assert count_monomials(pres, MAX_MONOMIALS) == 1 << 16


class TestGrassmannCompilation:
    def test_dimension_and_degrees(self):
        for s in (1, 2, 3, 4):
            A = grassmann(s)
            assert A.dim == 2**s
            by_deg = {}
            for i in range(A.dim):
                by_deg[len(A.basis_word(i))] = by_deg.get(len(A.basis_word(i)), 0) + 1
            assert [by_deg.get(t, 0) for t in range(s + 1)] == ext_dims_by_degree(s)

    def test_products_match_exterior_oracle(self):
        A = grassmann(3)
        # basis positions keyed by the generator subset of their word
        by_subset = {frozenset(A.basis_word(i)): i for i in range(A.dim)}
        for S, i in by_subset.items():
            for T, j in by_subset.items():
                got = A.mul_basis(i, j)
                want = ext_mul(S, T)
                if want is None:
                    assert got == {}
                else:
                    sign, U = want
                    assert got == {by_subset[U]: QQ.of(sign)}

    def test_supercommutative(self):
        assert is_supercommutative(grassmann(3))

    def test_unit_and_parity(self):
        A = grassmann(2)
        u = A.unit_element()
        z1 = A.generator_element("z1")
        assert A.mul(u, z1) == z1
        assert A.element_parity(z1) == ODD
        assert A.element_parity(u) == EVEN
        assert A.element_parity(A.mul(z1, A.generator_element("z2"))) == EVEN

    def test_unknown_generator(self):
        with pytest.raises(AlgebraError):
            grassmann(2).generator_element("w")


ZERO_RULE_CASES = {
    "lambda6-cap4": ("supercommutative", "odd y1 y2 y3 y4 y5 y6", 4, ""),
    "lambda4x-cap6": ("supercommutative", "even x\nodd y1 y2 y3 y4", 6, "x^3"),
    "rel-2-3-cap5": (
        "supercommutative",
        "even X1 X2\nodd Y1 Y2 Y3",
        5,
        "X1*Y1 - X2*Y2\nX1*X2*Y3",
    ),
    "associative-cap4": ("associative", "even x\nodd y", 4, "x*y - y*x"),
}


def _reference_product(A, i, j):
    """e_i e_j by the earlier route: reference product, cap check, projection.

    Also says whether the product monomial lies outside the basis, so that
    the projection did work.
    """
    pres = A.presentation
    sm = reference_mul_monomials(A._basis_monos[i], A._basis_monos[j], pres.gens, pres.flavor)
    if sm is None or monomial_degree(sm[1], pres.gens, pres.flavor) > A.cap:
        return {}, False
    out = A._reduce_mono_vec({A._mono_index[sm[1]]: A.field.one})
    if sm[0] < 0:
        out = {k: A.field.neg(c) for k, c in out.items()}
    return out, sm[1] not in A._basis_monos


class TestMulBasisZeroRule:
    """mul_basis skips products past the cap or sharing an odd letter."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=lambda F: F.name)
    @pytest.mark.parametrize("case", sorted(ZERO_RULE_CASES))
    def test_every_pair_matches_reference(self, case, field):
        flavor, decls, cap, relations = ZERO_RULE_CASES[case]
        text = "algebra %s over Q\nflavor %s\n%s\ncap %d\nrelations\n%s\nend\n" % (
            case, flavor, decls, cap, relations
        )
        A = compile_presentation(parse_presentation(text, field))
        zeros = projected = 0
        for i in range(A.dim):
            for j in range(A.dim):
                want, reduced = _reference_product(A, i, j)
                assert A.mul_basis(i, j) == want, (A.labels[i], A.labels[j])
                zeros += not want
                projected += reduced
        assert 0 < zeros < A.dim**2
        if relations:
            assert projected  # some product monomial is reduced modulo the ideal

    def test_zero_rule_reads_cap_and_odd_support(self):
        A = compile_presentation(parse_presentation(
            "algebra l4 over Q\nflavor supercommutative\neven x\nodd y1 y2 y3 y4\ncap 3\n"
            "relations\nend\n"
        ))
        pos = {label: i for i, label in enumerate(A.labels)}
        assert A.mul_basis(pos["x*y1"], pos["y1*y2"]) == {}  # shared odd letter
        assert A.mul_basis(pos["x^2"], pos["y1*y2"]) == {}  # degree 4 past the cap
        assert A.mul_basis(pos["y2"], pos["y1*y3"]) == {pos["y1*y2*y3"]: QQ.of(-1)}


class TestRandomCompiledAlgebras:
    def test_tables_associative_and_unital(self):
        rng = rng_for("test_tables_associative_and_unital")
        for _ in range(12):
            A = random_algebra(rng, max_dim=12)
            assert table_is_associative(A)
            assert table_respects_unit(A)
            assert is_supercommutative(A)

    def test_power_of_element(self):
        rng = rng_for("test_power_of_element")
        for _ in range(6):
            A = random_algebra(rng, max_dim=10)
            v = {}
            for i in range(A.dim):
                if rng.random() < 0.5:
                    v[i] = A.field.of(rng.randint(1, 3))
            p3 = A.power_of_element(v, 3)
            assert p3 == A.mul(A.mul(v, v), v)
            assert A.power_of_element(v, 0) == A.unit_element()


def _weighted_presentation(rng, flavor, field):
    """1-3 generators of weighted bidegree, a cap of 1-6 and 0-3 relations,
    each 1-3 normal monomials of one positive degree and one parity; 2 to
    60 normal monomials, so every pair of the basis can be multiplied."""
    while True:
        gens = []
        for i in range(rng.randint(1, 3)):
            parity = rng.choice((EVEN, ODD))
            l = rng.choice((0, 2) if parity == EVEN else (1, 3))
            k = rng.randint(0 if l else 1, 2)
            gens.append(GeneratorSpec("g%d" % i, parity, (k, l)))
        gens = tuple(gens)
        cap = rng.randint(1, 6)
        monos = _enumerate_monomials(gens, flavor, cap)
        if 1 < len(monos) <= 60:
            break
    groups = {}
    for m in monos[1:]:
        key = (monomial_degree(m, gens, flavor), monomial_parity(m, gens, flavor))
        groups.setdefault(key, []).append(m)
    relations = []
    for _ in range(rng.randint(0, 3)):
        group = groups[rng.choice(sorted(groups))]
        terms = {
            m: random_scalar(field, rng, nonzero=True)
            for m in rng.sample(group, min(len(group), rng.randint(1, 3)))
        }
        relations.append(SuperPolynomial(flavor, gens, field, terms))
    return Presentation(flavor, gens, relations, cap, field, "weighted")


class TestPrunedClosure:
    """The ideal closure skips products past the cap by degree; the
    algebra is the one the unpruned closure gives, product for product."""

    @pytest.mark.parametrize("flavor", [SUPERCOMMUTATIVE, ASSOCIATIVE])
    def test_matches_unpruned_closure(self, flavor):
        rng = rng_for("pruned-closure-%s" % flavor)
        relations = pruned = 0
        for trial in range(60):
            field = (QQ, PrimeField(2), PrimeField(5))[trial % 3]
            pres = _weighted_presentation(rng, flavor, field)
            gens, cap = pres.gens, pres.cap
            monomials, ideal = unpruned_ideal_closure(pres)
            A = compile_presentation(pres)
            keep, project = ideal.complement()
            assert A._basis_monos == [monomials[i] for i in keep]
            assert A.parities == [monomial_parity(monomials[i], gens, flavor) for i in keep]
            index = {m: i for i, m in enumerate(monomials)}
            for i, mi in enumerate(A._basis_monos):
                for j, mj in enumerate(A._basis_monos):
                    prod = reference_mul_monomials(mi, mj, gens, flavor)
                    want = {}
                    if prod is not None and monomial_degree(prod[1], gens, flavor) <= cap:
                        want = project({index[prod[1]]: field.one})
                        if prod[0] < 0:
                            want = {k: field.neg(c) for k, c in want.items()}
                    assert list(A.mul_basis(i, j).items()) == list(want.items())
            gdegs = [sum(g.bidegree) for g in gens]
            if pres.relations:
                relations += 1
                pruned += any(
                    monomial_degree(m, gens, flavor) + d > cap for m in monomials for d in gdegs
                )
        # closures of nonzero ideals were compared, most with generator
        # multiples past the cap to skip
        assert relations >= 30 and pruned >= 20


class TestSuperideals:
    def test_span_is_closed_under_multiplication(self):
        rng = rng_for("test_span_is_closed_under_multiplication")
        for _ in range(10):
            A = random_algebra(rng, max_dim=12)
            I = random_nilpotent_ideal(rng, A)
            for row in I.basis():
                for i in range(A.dim):
                    b = A.basis_element(i)
                    assert I.contains(A.mul(b, row))
                    assert I.contains(A.mul(row, b))

    def test_inhomogeneous_generator_contributes_components(self):
        A = grassmann(2)
        z1 = A.generator_element("z1")
        v = A.mul(z1, A.generator_element("z2"))  # even
        for i, c in z1.items():
            v[i] = v.get(i, A.field.zero) + c  # mixed parity element
        I = superideal_span(A, [v])
        assert I.contains(z1)

    def test_matches_hand_written_worklist(self):
        # presented supercommutative (left closure), table kind and
        # associative (two-sided closure), over Q, F2 and F5
        rng = rng_for("superideal-span-vs-worklist")
        for trial in range(60):
            field = (QQ, PrimeField(2), PrimeField(5))[trial % 3]
            kind = trial // 3 % 3
            if kind == 2:
                gens = [
                    GeneratorSpec("g%d" % i, rng.choice((EVEN, ODD)))
                    for i in range(rng.randint(1, 2))
                ]
                A = compile_presentation(
                    Presentation(ASSOCIATIVE, gens, [], rng.randint(1, 3), field)
                )
            else:
                A = random_algebra(rng, max_dim=14, field=field)
                if kind == 1:
                    A = quotient_algebra(A, random_nilpotent_ideal(rng, A))
            elements = []
            for _ in range(rng.randint(1, 3)):
                picks = rng.sample(range(A.dim), rng.randint(1, min(3, A.dim)))
                vec = {i: random_scalar(field, rng, nonzero=True) for i in picks}
                if A.unit_index in vec and rng.random() < 0.8:
                    del vec[A.unit_index]
                elements.append(vec)
            got = superideal_span(A, elements)
            want = worklist_superideal_span(A, elements)
            assert got.generators == want.generators
            assert got.basis() == want.basis()
            assert got.dims() == want.dims()

    def test_odd_radical_of_grassmann(self):
        for s in (1, 2, 3):
            A = grassmann(s)
            R1 = odd_radical(A)
            assert R1.dim == 2**s - 1
            assert not R1.contains(A.unit_element())

    def test_odd_power_span_chain(self):
        # dim of the span of l-fold odd products in the exterior algebra
        for s in (2, 3, 4):
            A = grassmann(s)
            want = ext_chain_dims(s)
            got = []
            l = 0
            while True:
                S = odd_power_span(A, l)
                if S.is_zero():
                    break
                got.append(S.dim)
                l += 1
            assert got == want

    def test_odd_power_span_negative(self):
        with pytest.raises(AlgebraError):
            odd_power_span(grassmann(1), -1)


def _even_algebra(name, gens, cap, relations=()):
    text = "algebra %s over Q\nflavor supercommutative\neven %s\ncap %d\nrelations\n%send\n"
    return compile_presentation(
        parse_presentation(text % (name, gens, cap, "".join("  %s\n" % r for r in relations)))
    )


class TestRequireTwoSided:
    """A span that superideal_span built over a presented supercommutative
    A passes at once; every other span is checked product by product."""

    def test_superideal_spans_pass(self):
        rng = rng_for("require-two-sided-spans-pass")
        for _ in range(10):
            A = random_algebra(rng, max_dim=12)
            for I in (odd_radical(A), random_nilpotent_ideal(rng, A)):
                assert I.generators is not None and I.parities is A.parities
                require_two_sided(A, I)

    def test_hand_built_span_that_is_no_ideal_raises(self):
        A = grassmann(3)
        S = Subspace(A.parities, A.field)
        S.insert(A.generator_element("z1"))
        with pytest.raises(AlgebraError, match="not a two-sided superideal"):
            require_two_sided(A, S)
        # an ideal grown by an insert drops its generators and is checked:
        # z2 z1 is not in span{z1 z2 z3, z1}
        z1, z2, z3 = (A.generator_element(g) for g in ("z1", "z2", "z3"))
        S = superideal_span(A, [A.mul(A.mul(z1, z2), z3)])
        require_two_sided(A, S)
        assert S.insert(z1) and S.generators is None
        with pytest.raises(AlgebraError, match="not a two-sided superideal"):
            require_two_sided(A, S)

    def test_span_of_another_algebra_raises(self):
        # B = Q[x, y]/(x y, y^2) has basis 1, x, y, x^2 and A = Q[x]/(x^4)
        # has 1, x, x^2, x^3, all even: (y) in B is span{e_2}, and e_2 = x^2
        # spans no ideal of A (x x^2 = x^3)
        A = _even_algebra("A", "x", 3)
        B = _even_algebra("B", "x y", 2, ["x*y", "y^2"])
        assert A.parities == B.parities and A.dim == B.dim
        S = superideal_span(B, [B.generator_element("y")])
        require_two_sided(B, S)
        assert S.basis() == [{2: B.field.one}]
        with pytest.raises(AlgebraError, match="not a two-sided superideal"):
            require_two_sided(A, S)


class TestQuotientAlgebra:
    def test_quotient_by_odd_radical(self):
        A = grassmann(3)
        Q = quotient_algebra(A, odd_radical(A))
        assert Q.dim == 1
        assert table_is_associative(Q)
        assert table_respects_unit(Q)

    def test_quotient_dim_and_structure(self):
        rng = rng_for("test_quotient_dim_and_structure")
        for _ in range(8):
            A = random_algebra(rng, max_dim=12)
            I = random_nilpotent_ideal(rng, A)
            if I.contains(A.unit_element()):
                continue
            Q = quotient_algebra(A, I)
            assert Q.dim == A.dim - I.dim
            assert table_is_associative(Q)
            assert table_respects_unit(Q)

    def test_rejects_non_ideal(self):
        A = grassmann(2)
        from superdim.exactlin import Subspace

        S = Subspace(A.parities, A.field)
        S.insert(A.generator_element("z1"))  # not closed under * z2
        with pytest.raises(AlgebraError):
            quotient_algebra(A, S)

    def test_rejects_unit_in_ideal(self):
        A = grassmann(2)
        I = superideal_span(A, [A.unit_element()])
        with pytest.raises(AlgebraError):
            quotient_algebra(A, I)


class TestTableKind:
    def test_dual_numbers_table(self):
        # K[e]/(e^2) assembled directly as a multiplication table
        F = QQ
        table = {(0, 0): {0: F.one}, (0, 1): {1: F.one}, (1, 0): {1: F.one}}
        A = FiniteSuperAlgebra.from_table(
            ["1", "e"], [EVEN, EVEN], F, table, 0, name="dual"
        )
        assert table_is_associative(A)
        e = A.basis_element(1)
        assert A.mul(e, e) == {}

    def test_associativity_matches_naive_scan(self):
        rng = rng_for("test_associativity_matches_naive_scan")
        hits = {True: 0, False: 0}
        for _ in range(60):
            dim = rng.randint(2, 5)
            parities = [EVEN] + [rng.choice((EVEN, ODD)) for _ in range(dim - 1)]
            table = {}
            for i in range(dim):
                table[(0, i)] = table[(i, 0)] = {i: QQ.one}
            for i in range(1, dim):
                for j in range(1, dim):
                    if rng.random() < 0.25:
                        table[(i, j)] = {rng.randrange(1, dim): QQ.of(rng.choice((-1, 1, 2)))}
            A = FiniteSuperAlgebra.from_table(
                ["1"] + ["e%d" % i for i in range(1, dim)], parities, QQ, table, 0
            )
            ok = table_is_associative(A)
            assert ok == naive_is_associative(A)
            hits[ok] += 1
        assert hits[True] and hits[False]

    def test_failure_where_one_product_is_zero(self):
        # a b = c and c b = a: (a b) b = a but a (b b) = 0, and every
        # failing triple has exactly one zero product
        F = QQ
        table = {(0, i): {i: F.one} for i in range(4)}
        table.update({(i, 0): {i: F.one} for i in range(4)})
        table[(1, 2)] = {3: F.one}
        table[(3, 2)] = {1: F.one}
        A = FiniteSuperAlgebra.from_table(["1", "a", "b", "c"], [EVEN] * 4, F, table, 0)
        assert not naive_is_associative(A)
        assert not table_is_associative(A)

    def test_odd_unit_rejected(self):
        with pytest.raises(AlgebraError):
            FiniteSuperAlgebra.from_table(["1"], [ODD], QQ, {(0, 0): {0: QQ.one}}, 0)
