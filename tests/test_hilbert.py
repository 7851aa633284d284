"""Bigraded dimension tables and exact Hilbert polynomial fitting."""

import contextlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdim.algebra import AlgebraError, Presentation
from superdim.cli import main
from superdim.exactlin import QQ, PrimeField
from superdim.hilbert import (
    MAX_BOXES,
    MAX_RELATION_ROWS,
    bigraded_dims,
    box_counts,
    box_monomials,
    fit_polynomial,
    fit_rows,
    quotient_counts,
    sdim_from_hilbert,
)
from superdim.sdim import SuperDimension
from superdim.superpoly import (
    ASSOCIATIVE,
    EVEN,
    ODD,
    SUPERCOMMUTATIVE,
    GeneratorSpec,
    SuperPolynomial,
)
from superdim.textio import parse_presentation

from oracles import (
    enumerated_bigraded_dims,
    enumerated_box_monomials,
    free_bigraded_dim,
    free_cumulative,
    scanned_fit_polynomial,
)


def free_pres(d, s):
    gens = tuple(
        [GeneratorSpec("x%d" % (i + 1), EVEN) for i in range(d)]
        + [GeneratorSpec("y%d" % (j + 1), ODD) for j in range(s)]
    )
    return Presentation(SUPERCOMMUTATIVE, gens, [], None, QQ, "free_%d_%d" % (d, s))


class TestBoxMonomials:
    def test_counts_match_binomial_oracle(self):
        gens = free_pres(2, 3).gens
        for k in range(6):
            for l in range(4):
                assert len(box_monomials(gens, k, l)) == free_bigraded_dim(2, 3, k, l)

    def test_empty_past_odd_budget(self):
        gens = free_pres(1, 2).gens
        assert box_monomials(gens, 0, 3) == []


class TestFreeTables:
    @pytest.mark.parametrize("d,s", [(1, 1), (2, 3), (3, 2)])
    def test_dims_match_binomial_oracle(self, d, s):
        table = bigraded_dims(free_pres(d, s), kmax=12)
        assert table.lmax == s
        for l in range(s + 1):
            for k in range(13):
                assert table.dim(k, l) == free_bigraded_dim(d, s, k, l)
            assert table.cumulative_row(l) == [
                free_cumulative(d, s, k, l) for k in range(13)
            ]

    @pytest.mark.parametrize("d,s", [(1, 1), (2, 3), (3, 2)])
    def test_fitted_degrees_and_sdim(self, d, s):
        hp = fit_rows(bigraded_dims(free_pres(d, s), kmax=12))
        assert hp.all_stabilized()
        assert hp.degrees() == {l: d for l in range(s + 1)}
        assert sdim_from_hilbert(hp) == SuperDimension(d, s)

    def test_rejects_associative_flavor(self):
        pres = Presentation(ASSOCIATIVE, (GeneratorSpec("x", EVEN),), [], None, QQ)
        with pytest.raises(AlgebraError):
            bigraded_dims(pres)

    def test_unbounded_odd_weight_needs_lmax(self):
        gens = (GeneratorSpec("u", EVEN, (0, 2)),)
        pres = Presentation(SUPERCOMMUTATIVE, gens, [], None, QQ)
        with pytest.raises(AlgebraError):
            bigraded_dims(pres)
        table = bigraded_dims(pres, kmax=4, lmax=6)
        assert table.dim(0, 2) == 1


class TestRelationQuotients:
    def test_xy_collapses_to_line(self):
        # K[x | y] / (x y): mixed boxes die, leaving one line each way
        gens = (GeneratorSpec("x", EVEN), GeneratorSpec("y", ODD))
        x = SuperPolynomial.generator(0, SUPERCOMMUTATIVE, gens, QQ)
        y = SuperPolynomial.generator(1, SUPERCOMMUTATIVE, gens, QQ)
        pres = Presentation(SUPERCOMMUTATIVE, gens, [x * y], None, QQ, "xy")
        table = bigraded_dims(pres, kmax=8)
        assert table.row(0) == [1] * 9
        assert table.row(1) == [1] + [0] * 8
        hp = fit_rows(table)
        assert hp.degrees() == {0: 1, 1: 0}
        assert sdim_from_hilbert(hp) == SuperDimension(1, 0)

    def test_truncation_flattens_growth(self):
        # K[x]/(x^3) has cumulative row constant 3 from k = 2 on
        gens = (GeneratorSpec("x", EVEN),)
        x = SuperPolynomial.generator(0, SUPERCOMMUTATIVE, gens, QQ)
        pres = Presentation(SUPERCOMMUTATIVE, gens, [x * x * x], None, QQ)
        hp = fit_rows(bigraded_dims(pres, kmax=8))
        f = hp.fits[0]
        assert f.degree == 0
        assert f(5) == 3
        assert f.threshold == 2

    def test_inhomogeneous_relation_rejected(self):
        gens = (GeneratorSpec("x", EVEN), GeneratorSpec("y", ODD))
        x = SuperPolynomial.generator(0, SUPERCOMMUTATIVE, gens, QQ)
        y = SuperPolynomial.generator(1, SUPERCOMMUTATIVE, gens, QQ)
        two = x * x - SuperPolynomial(
            SUPERCOMMUTATIVE, gens, QQ, {(0, 1): QQ.one}
        )  # (2,0) vs (0,1): degree-inhomogeneous, rejected upstream
        with pytest.raises(AlgebraError):
            Presentation(SUPERCOMMUTATIVE, gens, [two], None, QQ)


# -- the enumerated tables as reference ---------------------------------------

_EVEN_WEIGHTS = ((1, 0), (1, 0), (2, 0), (3, 0), (1, 2), (0, 2))
_ODD_WEIGHTS = ((0, 1), (0, 1), (1, 1), (0, 3), (2, 1), (1, 0))


def random_bigraded_presentation(rng, field):
    """Weighted generators and 0-3 random bihomogeneous, parity-homogeneous
    relations, each a combination of 1-3 monomials of one bidegree."""
    gens = []
    for i in range(rng.randint(1, 5)):
        if rng.random() < 0.5:
            gens.append(GeneratorSpec("e%d" % i, EVEN, rng.choice(_EVEN_WEIGHTS)))
        else:
            gens.append(GeneratorSpec("o%d" % i, ODD, rng.choice(_ODD_WEIGHTS)))
    gens = tuple(gens)
    relations = []
    count = rng.randint(0, 3)
    if not any(enumerated_box_monomials(gens, k, l) for k in range(4) for l in range(3) if k or l):
        count = 0  # no bidegree for a relation: never draw one
    while len(relations) < count:
        k, l = rng.randint(0, 3), rng.randint(0, 2)
        monos = enumerated_box_monomials(gens, k, l)
        if not monos or (k, l) == (0, 0):
            continue
        parity = sum(e * g.parity for e, g in zip(rng.choice(monos), gens)) % 2
        monos = [m for m in monos if sum(e * g.parity for e, g in zip(m, gens)) % 2 == parity]
        terms = {
            m: field.of(rng.choice([1, -1, 2, 3, Fraction(1, 2)]) if field is QQ
                        else rng.randint(1, field.p - 1))
            for m in rng.sample(monos, min(len(monos), rng.randint(1, 3)))
        }
        relations.append(SuperPolynomial(SUPERCOMMUTATIVE, gens, field, terms))
    return Presentation(SUPERCOMMUTATIVE, gens, relations, None, field, "random")


def overlapping_presentation(rng, field):
    """Two relations of 2-3 terms in two or three even letters and up to two
    odd ones: their leading monomials overlap, so S-pairs and products y * g
    add leading monomials past the relations' own degrees."""
    gens = [GeneratorSpec("x%d" % i, EVEN, (1, 0) if i < 2 else (1, 2))
            for i in range(rng.randint(2, 3))]
    gens += [GeneratorSpec("y%d" % i, ODD, rng.choice(((0, 1), (1, 1))))
             for i in range(rng.randint(0, 2))]
    gens = tuple(gens)
    relations = []
    while len(relations) < 2:
        monos = enumerated_box_monomials(gens, rng.randint(2, 3), rng.randint(0, 1))
        if len(monos) < 2:
            continue
        terms = {
            m: field.of(rng.choice([1, -1, 2, Fraction(1, 2)]) if field is QQ
                        else rng.randint(1, field.p - 1))
            for m in rng.sample(monos, min(len(monos), rng.randint(2, 3)))
        }
        relations.append(SuperPolynomial(SUPERCOMMUTATIVE, gens, field, terms))
    return Presentation(SUPERCOMMUTATIVE, gens, relations, None, field, "overlapping")


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=["Q", "F2", "F5"])
def test_tables_match_enumerated_reference(field):
    rng = random.Random("hilbert:%s" % field.name)
    for _ in range(40):
        pres = random_bigraded_presentation(rng, field)
        kmax, lmax = rng.randint(0, 8), rng.randint(0, 5)
        table = bigraded_dims(pres, kmax=kmax, lmax=lmax)
        assert table.dims == enumerated_bigraded_dims(pres, kmax=kmax, lmax=lmax).dims
        counts = box_counts(pres.gens, kmax, lmax)
        for l in range(lmax + 1):
            for k in range(kmax + 1):
                monos = enumerated_box_monomials(pres.gens, k, l)
                assert box_monomials(pres.gens, k, l) == monos
                assert counts[l][k] == len(monos)


def _divides(h, m):
    return all(a <= b for a, b in zip(h, m))


class TestQuotientCounts:
    """The Hilbert series of a monomial quotient against the standard
    monomials of each box, counted one by one."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_standard_monomial_count(self, seed):
        rng = random.Random("quotient-counts:%d" % seed)
        for _ in range(25):
            gens = tuple(
                GeneratorSpec("e%d" % i, EVEN, rng.choice(_EVEN_WEIGHTS)) if rng.random() < 0.5
                else GeneratorSpec("o%d" % i, ODD, rng.choice(_ODD_WEIGHTS))
                for i in range(rng.randint(1, 5))
            )
            kmax, lmax = rng.randint(0, 7), rng.randint(0, 4)
            monos = [m for k in range(kmax + 1) for l in range(lmax + 1)
                     for m in box_monomials(gens, k, l) if (k, l) != (0, 0)]
            ideal = rng.sample(monos, min(len(monos), rng.randint(0, 5)))
            counts = quotient_counts(gens, ideal, kmax, lmax)
            for k in range(kmax + 1):
                for l in range(lmax + 1):
                    standard = [m for m in box_monomials(gens, k, l)
                                if not any(_divides(h, m) for h in ideal)]
                    assert counts[l][k] == len(standard), (gens, ideal, k, l)

    def test_pure_powers_and_mixed_generators(self):
        # K[x, y | a] / (x^3, x y^2, y a): rows l = 0 and l = 1 by hand
        gens = free_pres(2, 1).gens
        counts = quotient_counts(gens, [(3, 0, 0), (1, 2, 0), (0, 1, 1)], 6, 1)
        assert counts[0] == [1, 2, 3, 2, 1, 1, 1]  # from k = 3: x^2 y and y^k
        assert counts[1] == [1, 1, 1, 0, 0, 0, 0]  # a, x a, x^2 a

    def test_empty_and_unit_ideals(self):
        gens = free_pres(2, 2).gens
        assert quotient_counts(gens, [], 5, 2) == box_counts(gens, 5, 2)
        assert quotient_counts(gens, [(0, 0, 0, 0)], 5, 2) == [[0] * 6 for _ in range(3)]


FOUND = """algebra found over Q
flavor supercommutative
even X1 X2 X3
odd Y1 Y2
relations
  X1^2 + 3*X2^2 - X3^2 + X1*X2 + 2*X2*X3
  X1*Y1 - X2*Y2
end
"""

# y1 y2 + y3 y4 with odd letters of bidegree (1, 1): the leading monomial
# y1 y2 of the relation kills y1 times it, but y1 (y1 y2 + y3 y4) = y1 y3 y4
# is a new element of I; only Stokes's y * g condition waits for it.
ODD_SQUARE = """algebra odd_square over Q
flavor supercommutative
even x
odd y1(1,1) y2(1,1) y3(1,1) y4(1,1)
relations
  y1*y2 + y3*y4
end
"""

CUBICS = """algebra cubics over Q
flavor supercommutative
even x y z
odd a
relations
  x^3 + 2*x*y*z - y^2*z + z^3
  x^2*y - 3*y^3 + x*z^2 + y*z^2
  y^2*x + x^2*z - 5*z^3 + x*y*z
end
"""


class TestCertificate:
    """Boxes past a Groebner certificate are counted, not ranked; every table
    still equals the enumerated reference."""

    @pytest.mark.parametrize(
        "field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=["Q", "F2", "F3", "F5"]
    )
    def test_matches_enumerated_reference(self, field):
        rng = random.Random("hilbert-certificate:%s" % field.name)
        early = late = 0
        for trial in range(90):
            if trial % 3:
                pres = random_bigraded_presentation(rng, field)
                natural = sum(g.bidegree[1] for g in pres.gens if g.parity == ODD)
                if any(g.parity != ODD and g.bidegree[1] for g in pres.gens):
                    natural = 5
                kmax, lmax = rng.randint(0, 9), rng.randint(0, natural)
            else:
                pres = overlapping_presentation(rng, field)
                kmax, lmax = rng.randint(3, 7), rng.randint(0, 2)
            table = bigraded_dims(pres, kmax=kmax, lmax=lmax)
            assert table.dims == enumerated_bigraded_dims(pres, kmax=kmax, lmax=lmax).dims
            if table.certificate is None:
                late += 1
                continue
            degree, minimal = table.certificate
            early += degree < kmax
            assert degree <= kmax
            for i, h in enumerate(minimal):
                assert not any(_divides(g, h) for g in minimal[:i] + minimal[i + 1:])
        # both kinds of window are exercised
        assert early >= 20 and late >= 10, (early, late)

    @pytest.mark.parametrize("name,degree,count", [("rel_2_3", 3, 4), ("found", 4, 5)])
    def test_certificate_degree(self, name, degree, count):
        text = FOUND if name == "found" else _GOLDEN_INPUTS["rel_2_3.alg"]
        pres = parse_presentation(text)
        table = bigraded_dims(pres, kmax=12)
        assert table.certificate[0] == degree
        assert len(table.certificate[1]) == count
        assert table.dims == enumerated_bigraded_dims(pres, kmax=12).dims

    @pytest.mark.parametrize("kmax", [4, 6, 8])
    def test_odd_square_condition(self, kmax):
        pres = parse_presentation(ODD_SQUARE)
        table = bigraded_dims(pres, kmax=kmax)
        assert table.certificate is not None
        assert table.dims == enumerated_bigraded_dims(pres, kmax=kmax).dims

    def test_relation_degree_holds_the_certificate(self):
        # x^5 has no leading monomial below k = 5, so nothing certifies before
        pres = parse_presentation(
            "algebra x5 over Q\nflavor supercommutative\neven x y\nodd a\n"
            "relations\n  x^5 - y^5\nend\n"
        )
        table = bigraded_dims(pres, kmax=9)
        assert table.certificate[0] == 5
        assert table.dims == enumerated_bigraded_dims(pres, kmax=9).dims

    @pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
    def test_uncertified_window_ranks_every_box(self, field):
        pres = parse_presentation(CUBICS, field=field)
        table = bigraded_dims(pres, kmax=7)
        assert table.certificate is None
        assert table.dims == enumerated_bigraded_dims(pres, kmax=7).dims
        assert bigraded_dims(pres, kmax=14).certificate[0] == 11

    def test_free_presentation_certifies_at_zero(self):
        table = bigraded_dims(free_pres(3, 2), kmax=40)
        assert table.certificate == (0, ())


class TestBudgets:
    def test_box_budget(self):
        pres = free_pres(1, 1)
        assert bigraded_dims(pres, kmax=MAX_BOXES // 2 - 1).dim(5, 1) == 1
        with pytest.raises(AlgebraError, match="a table of %d boxes" % (MAX_BOXES + 2)):
            bigraded_dims(pres, kmax=MAX_BOXES // 2)

    def test_relation_row_budget(self):
        # K[x1, x2 | y] / (x1 - x2): box (k, l) reads box (k - 1, l) of k
        # monomials, so the table up to kmax takes kmax * (kmax + 1) rows.
        gens = free_pres(2, 1).gens
        rel = SuperPolynomial(SUPERCOMMUTATIVE, gens, QQ, {(1, 0, 0): 1, (0, 1, 0): -1})
        pres = Presentation(SUPERCOMMUTATIVE, gens, [rel], None, QQ)
        kmax = max(k for k in range(1000) if k * (k + 1) <= MAX_RELATION_ROWS) + 1
        with pytest.raises(AlgebraError, match="take %d rows" % (kmax * (kmax + 1))):
            bigraded_dims(pres, kmax=kmax)
        table = bigraded_dims(pres, kmax=20)
        assert table.row(0) == [1] * 21 and table.row(1) == [1] * 21

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            bigraded_dims(free_pres(1, 1), kmax=-1)
        with pytest.raises(ValueError):
            bigraded_dims(free_pres(1, 1), lmax=-1)


class TestFitting:
    polys = st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4)

    @given(polys, st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_recovers_exact_polynomials(self, coeffs, junk_len):
        def p(k):
            acc = 0
            for c in reversed(coeffs):
                acc = acc * k + c
            return acc

        junk = list(range(junk_len))  # arbitrary prefix before stabilization
        dmax = len(coeffs) - 1
        values = junk + [p(k) for k in range(junk_len, dmax + junk_len + 8)]
        fit = fit_polynomial(values, dmax)
        assert fit is not None
        for k in range(len(values)):
            if k >= fit.threshold:
                assert fit(k) == values[k]

    @given(st.lists(st.integers(min_value=-3, max_value=3), max_size=12),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=200, deadline=None)
    def test_matches_scanned_reference(self, values, dmax):
        # Cumulative sums make polynomial tails likely.
        sums = [sum(values[: i + 1]) for i in range(len(values))]
        for data in (values, sums):
            fit, ref = fit_polynomial(data, dmax), scanned_fit_polynomial(data, dmax)
            assert (fit is None) == (ref is None)
            if fit is not None:
                assert (fit.coeffs, fit.threshold) == (ref.coeffs, ref.threshold)

    def test_factorial_growth_not_stabilized(self):
        import math

        values = [math.factorial(k) for k in range(10)]
        assert fit_polynomial(values, 2) is None

    def test_zero_row(self):
        fit = fit_polynomial([0] * 8, 2)
        assert fit is not None
        assert fit.degree is None
        assert fit(3) == 0

    def test_negative_dmax_rejected(self):
        with pytest.raises(ValueError):
            fit_polynomial([1, 1], -1)

    def test_fit_json_shape(self):
        fit = fit_polynomial([Fraction(1), Fraction(2), Fraction(3)], 1)
        data = fit.as_json()
        assert data["stabilized"] is True
        assert data["degree"] == 1
        assert data["coeffs"] == [{"num": 1, "den": 1}, {"num": 1, "den": 1}]


# -- golden reports ----------------------------------------------------------

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "hilbert_reports.json")
ASSETS = os.path.join(os.path.dirname(__file__), "..", "src", "superdim", "assets")

# Presentations written to a scratch directory: Lambda_7, the chain
# workload's rel_2_3 with fixed labels, and two with weighted bidegrees.
_GOLDEN_INPUTS = {
    "lambda7.alg": """algebra lambda7 over Q
flavor supercommutative
odd z1 z2 z3 z4 z5 z6 z7
cap 7
relations
end
""",
    "rel_2_3.alg": """algebra rel_2_3 over Q
flavor supercommutative
even X1 X2
odd Y1 Y2 Y3
relations
  X1*Y1 - X2*Y2
  X1*X2*Y3
end
""",
    "weighted.alg": """algebra weighted over Q
flavor supercommutative
even a b(2,0)
odd y z(0,3)
relations
  a^2*y - b*y
  a*b*z
end
""",
    "weighted_u.alg": """algebra weighted_u over Q
flavor supercommutative
even a u(1,2)
odd y w(0,3)
relations
  u*y - 2*a*w
  u^2
end
""",
}

# (name, argv after "hilbert"); "{assets}" and "{work}" are filled in.
_GOLDEN_JOBS = (
    ("free_3_2 kmax 40", ["{assets}/free_3_2.alg", "--kmax", "40"]),
    ("free_2_3 kmax 30", ["{assets}/free_2_3.alg", "--kmax", "30"]),
    ("lambda7 kmax 4", ["{work}/lambda7.alg", "--kmax", "4"]),
    ("rel_2_3 kmax 30", ["{work}/rel_2_3.alg", "--kmax", "30"]),
    ("rel_2_3 kmax 12 f5", ["{work}/rel_2_3.alg", "--kmax", "12", "--field", "f5"]),
    ("weighted kmax 14 lmax 5", ["{work}/weighted.alg", "--kmax", "14", "--lmax", "5"]),
    ("weighted_u kmax 10 lmax 6", ["{work}/weighted_u.alg", "--kmax", "10", "--lmax", "6"]),
)


def hilbert_reports():
    """``hilbert ... --fit --format report`` output of every golden job."""
    out = {}
    with tempfile.TemporaryDirectory() as work:
        for fname, text in _GOLDEN_INPUTS.items():
            with open(os.path.join(work, fname), "w") as fh:
                fh.write(text)
        for name, argv in _GOLDEN_JOBS:
            argv = [a.format(assets=ASSETS, work=work) for a in argv]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["hilbert", *argv, "--fit", "--format", "report"])
            out[name] = {"exit": code, "report": buf.getvalue()}
    return out


def test_hilbert_reports_match_golden():
    with open(GOLDEN) as fh:
        assert hilbert_reports() == json.load(fh)


if __name__ == "__main__":
    # Rewrites the golden file; run as  PYTHONPATH=src:tests python tests/test_hilbert.py
    with open(GOLDEN, "w") as fh:
        json.dump(hilbert_reports(), fh, indent=1, sort_keys=True)
        fh.write("\n")
