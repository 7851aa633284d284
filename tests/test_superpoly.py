"""Sign bookkeeping and polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdim.exactlin import QQ, PrimeField
from superdim.superpoly import (
    ASSOCIATIVE,
    EVEN,
    ODD,
    SUPERCOMMUTATIVE,
    GeneratorSpec,
    SuperPolynomial,
    monomial_bidegree,
    monomial_name,
    monomial_parity,
    mul_monomials,
)

from oracles import ext_mul, reference_mul_monomials

ODD4 = tuple(GeneratorSpec("y%d" % i, ODD) for i in range(4))
MIXED = (
    GeneratorSpec("x", EVEN),
    GeneratorSpec("u", EVEN, (2, 0)),
    GeneratorSpec("y", ODD),
    GeneratorSpec("z", ODD, (0, 3)),
)

# (parity, bidegree) of the generators drawn below: odd (0,3) and (1,1)
# beside the defaults, even (0,2) and (2,0).
SPECS = (
    (EVEN, (1, 0)),
    (EVEN, (0, 2)),
    (EVEN, (2, 0)),
    (ODD, (0, 1)),
    (ODD, (0, 3)),
    (ODD, (1, 1)),
)


@st.composite
def monomial_pairs(draw):
    """(gens, flavor, m1, m2) over a random mixed generator list."""
    specs = draw(st.lists(st.sampled_from(SPECS), min_size=0, max_size=8))
    gens = tuple(GeneratorSpec("g%d" % i, p, bd) for i, (p, bd) in enumerate(specs))
    flavor = draw(st.sampled_from((SUPERCOMMUTATIVE, ASSOCIATIVE)))

    def monomial():
        if flavor == ASSOCIATIVE:
            if not gens:
                return ()
            letters = st.integers(min_value=0, max_value=len(gens) - 1)
            return tuple(draw(st.lists(letters, max_size=5)))
        return tuple(
            draw(st.integers(min_value=0, max_value=1 if g.parity == ODD else 3)) for g in gens
        )

    return gens, flavor, monomial(), monomial()


class TestGeneratorSpec:
    def test_default_bidegrees(self):
        assert GeneratorSpec("x", EVEN).bidegree == (1, 0)
        assert GeneratorSpec("y", ODD).bidegree == (0, 1)

    def test_bad_parity(self):
        with pytest.raises(ValueError):
            GeneratorSpec("x", 2)

    def test_parity_degree_mismatch(self):
        # an odd generator cannot sit in even internal degree
        with pytest.raises(ValueError):
            GeneratorSpec("y", ODD, (0, 2))
        with pytest.raises(ValueError):
            GeneratorSpec("x", EVEN, (0, 1))


class TestMulMonomials:
    @given(
        st.sets(st.integers(min_value=0, max_value=3)),
        st.sets(st.integers(min_value=0, max_value=3)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_exterior_oracle(self, s, t):
        m1 = tuple(1 if i in s else 0 for i in range(4))
        m2 = tuple(1 if i in t else 0 for i in range(4))
        got = mul_monomials(m1, m2, ODD4, SUPERCOMMUTATIVE)
        want = ext_mul(frozenset(s), frozenset(t))
        if want is None:
            assert got is None
        else:
            sign, prod = want
            assert got == (sign, tuple(1 if i in prod else 0 for i in range(4)))

    @given(monomial_pairs())
    @settings(max_examples=400, deadline=None)
    def test_matches_three_pass_reference(self, case):
        gens, flavor, m1, m2 = case
        assert mul_monomials(m1, m2, gens, flavor) == reference_mul_monomials(m1, m2, gens, flavor)

    def test_associative_concatenates(self):
        assert mul_monomials((0, 1), (1,), ODD4, ASSOCIATIVE) == (1, (0, 1, 1))

    def test_bidegree_additive(self):
        m1 = (1, 0, 1, 0)
        m2 = (0, 2, 0, 1)
        got = mul_monomials(m1, m2, MIXED, SUPERCOMMUTATIVE)
        assert got is not None
        _, prod = got
        b1 = monomial_bidegree(m1, MIXED, SUPERCOMMUTATIVE)
        b2 = monomial_bidegree(m2, MIXED, SUPERCOMMUTATIVE)
        bp = monomial_bidegree(prod, MIXED, SUPERCOMMUTATIVE)
        assert bp == (b1[0] + b2[0], b1[1] + b2[1])


class TestMonomialNames:
    def test_unit(self):
        assert monomial_name((0, 0, 0, 0), MIXED, SUPERCOMMUTATIVE) == "1"

    def test_powers_and_order(self):
        # even letters first, ascending, then odd letters
        assert monomial_name((2, 0, 1, 1), MIXED, SUPERCOMMUTATIVE) == "x^2*y*z"


def _rand_poly(rng_ints, gens):
    """Small supercommutative polynomial from a list of driver integers."""
    p = SuperPolynomial.zero(SUPERCOMMUTATIVE, gens, QQ)
    it = iter(rng_ints)
    for i, c in zip(range(len(gens)), it):
        if c:
            p = p + SuperPolynomial.generator(i, SUPERCOMMUTATIVE, gens, QQ).scaled(
                Fraction(c)
            )
    return p


class TestPolynomialRing:
    coeffs = st.lists(st.integers(min_value=-2, max_value=2), min_size=4, max_size=4)

    @given(coeffs, coeffs, coeffs)
    @settings(max_examples=50, deadline=None)
    def test_distributive(self, a, b, c):
        p, q, r = (_rand_poly(v, MIXED) for v in (a, b, c))
        assert p * (q + r) == p * q + p * r

    @given(coeffs, coeffs, coeffs)
    @settings(max_examples=50, deadline=None)
    def test_associative(self, a, b, c):
        p, q, r = (_rand_poly(v, MIXED) for v in (a, b, c))
        assert (p * q) * r == p * (q * r)

    @given(coeffs, coeffs)
    @settings(max_examples=50, deadline=None)
    def test_supercommutative_on_homogeneous(self, a, b):
        for i, ci in enumerate(a):
            for j, cj in enumerate(b):
                if not (ci and cj):
                    continue
                p = SuperPolynomial.generator(i, SUPERCOMMUTATIVE, MIXED, QQ)
                q = SuperPolynomial.generator(j, SUPERCOMMUTATIVE, MIXED, QQ)
                sign = -1 if MIXED[i].parity and MIXED[j].parity else 1
                assert p * q == (q * p).scaled(QQ.of(sign))

    def test_odd_square_zero(self):
        y = SuperPolynomial.generator(2, SUPERCOMMUTATIVE, MIXED, QQ)
        assert (y * y).is_zero()

    def test_odd_square_zero_in_char_two(self):
        # the monomial convention kills odd squares even over f2
        F = PrimeField(2)
        gens = (GeneratorSpec("y", ODD),)
        y = SuperPolynomial.generator(0, SUPERCOMMUTATIVE, gens, F)
        assert (y * y).is_zero()

    def test_one_is_unit(self):
        one = SuperPolynomial.one(SUPERCOMMUTATIVE, MIXED, QQ)
        p = _rand_poly([1, -2, 1, 1], MIXED)
        assert one * p == p
        assert p * one == p

    def test_parity_of_homogeneous_product(self):
        x = SuperPolynomial.generator(0, SUPERCOMMUTATIVE, MIXED, QQ)
        y = SuperPolynomial.generator(2, SUPERCOMMUTATIVE, MIXED, QQ)
        z = SuperPolynomial.generator(3, SUPERCOMMUTATIVE, MIXED, QQ)
        assert (x * y).parity() == ODD
        assert (y * z).parity() == EVEN
        m = next(iter((y * z).terms))
        assert monomial_parity(m, MIXED, SUPERCOMMUTATIVE) == EVEN
