"""The odd chain of a presented super-ring read off its monomials.

``algebra.odd_filtration`` takes stage l of a presented supercommutative
algebra to be the span of the normal forms of the compiled monomials with
at least l odd letters.  Every stage is compared, basis row by basis row,
with the chain stepped by the odd generators (``filtration_step``), with
the regular module stepped as a general module (``module_from_actions``)
and with the basis-stepped references in ``oracles``.  Echelon rows are
fully reduced, so equal spans give equal rows.
"""

import os

import pytest

import oracles
from superdim import cli
from superdim.algebra import (
    AlgebraError,
    FiniteSuperAlgebra,
    Presentation,
    _enumerate_monomials,
    compile_presentation,
    filtration_chain,
    filtration_step,
    odd_filtration,
    odd_multipliers,
    odd_power_span,
)
from superdim.exactlin import QQ, PrimeField
from superdim.sdim import SuperDimension, odd_power_spans_of_module, sdim, sdim_algebra
from superdim.smodule import SuperModule, module_from_actions, regular_module
from superdim.superpoly import (
    EVEN,
    ODD,
    SUPERCOMMUTATIVE,
    GeneratorSpec,
    SuperPolynomial,
    monomial_degree,
    monomial_parity,
)
from superdim.textio import parse_presentation

from conftest import rng_for
from test_hilbert import _GOLDEN_INPUTS

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5)]
ASSETS = os.path.join(os.path.dirname(__file__), "..", "src", "superdim", "assets")


def rows(chain):
    return [S.basis() for S in chain]


def stepped_chain(A):
    """The chain stepped by ``odd_multipliers``, the route of every other algebra."""
    step = filtration_step(A, A.mul, odd_multipliers(A))
    return filtration_chain(A.full_subspace(), step, A.dim, "odd part")


def check_against_stepped(A):
    """Every route to the odd chain of A gives the same rows at every stage."""
    read = odd_filtration(A)
    want = rows(stepped_chain(A))
    assert rows(read) == want
    assert [S.dims() for S in read] == [S.dims() for S in stepped_chain(A)]
    M = regular_module(A)
    assert rows(odd_power_spans_of_module(M)) == want
    general = module_from_actions(A, A.parities, M.actions, name="general")
    assert type(general) is SuperModule
    assert rows(odd_power_spans_of_module(general)) == want
    assert rows(oracles.odd_power_spans_of_module(general)) == want
    for l in range(len(want) + 2):
        assert odd_power_span(A, l).basis() == oracles.odd_power_span(A, l).basis()
    assert sdim_algebra(A) == sdim(M) == SuperDimension(0, len(want) - 1)
    return read


# Bidegrees a drawn generator may take: the even (0, 2) and (1, 2) share a
# degree with products of odd letters, so relations can mix odd counts.
BIDEGREES = {EVEN: [(1, 0), (2, 0), (0, 2), (1, 2)], ODD: [(0, 1), (1, 1), (0, 3)]}


def odd_count(gens, m):
    return sum(e for g, e in zip(gens, m) if g.parity == ODD)


def random_presentation(rng, field, mixed):
    """A supercommutative presentation with a cap and up to three
    homogeneous relations.  With ``mixed`` the odd letters come first and
    have degree 1, and most relations join two monomials of one degree and
    parity whose odd counts differ, such as x(0,2) - y1*y2: a product of
    odd letters then sorts before the even monomial, which stays a basis
    monomial while it lies in a deeper stage."""
    if mixed:
        odd = rng.randint(2, 3)
        gens = tuple(
            [GeneratorSpec("y%d" % i, ODD) for i in range(odd)]
            + [GeneratorSpec("x%d" % i, EVEN, rng.choice(((1, 0), (2, 0), (0, 2))))
               for i in range(rng.randint(1, 2))]
        )
    else:
        gens = []
        for i in range(rng.randint(1, 4)):
            p = rng.choice((EVEN, ODD))
            gens.append(GeneratorSpec("g%d" % i, p, rng.choice(BIDEGREES[p])))
        gens = tuple(gens)
    cap = rng.randint(2, 4)
    classes = {}
    for m in _enumerate_monomials(gens, SUPERCOMMUTATIVE, cap):
        key = (
            monomial_degree(m, gens, SUPERCOMMUTATIVE),
            monomial_parity(m, gens, SUPERCOMMUTATIVE),
        )
        if key[0]:
            classes.setdefault(key, {}).setdefault(odd_count(gens, m), []).append(m)
    joins = [k for k, by_count in classes.items() if len(by_count) > 1]
    relations = []
    for _ in range(rng.randint(1 if mixed else 0, 3) if classes else 0):
        if joins and rng.random() < (0.8 if mixed else 0.3):
            by_count = classes[rng.choice(joins)]
            terms = [rng.choice(by_count[k]) for k in rng.sample(sorted(by_count), 2)]
        else:
            monos = [m for ms in classes[rng.choice(sorted(classes))].values() for m in ms]
            terms = rng.sample(monos, min(len(monos), rng.randint(1, 3)))
        poly = SuperPolynomial(
            SUPERCOMMUTATIVE, gens, field, {m: field.of(rng.choice((1, 2, -1, 3))) for m in terms}
        )
        if not poly.is_zero():
            relations.append(poly)
    return Presentation(SUPERCOMMUTATIVE, gens, relations, cap, field, "random")


def lowers_an_odd_count(A, chain):
    """Some basis monomial with fewer than l odd letters is in the support
    of a basis row of stage l."""
    gens = A.presentation.gens
    return any(
        odd_count(gens, A._basis_monos[c]) < l
        for l, S in enumerate(chain)
        for row in S.basis()
        for c in row
    )


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_monomial_reading_matches_the_stepped_chain(field):
    rng = rng_for("odd-filtration-%s" % field)
    lowered = 0
    for case in range(120):
        A = compile_presentation(random_presentation(rng, field, mixed=case % 2 == 1))
        lowered += lowers_an_odd_count(A, check_against_stepped(A))
    assert lowered >= 20, lowered


MIXED = "algebra mixed over %s\nflavor supercommutative\n%s\ncap %d\nrelations\n%s\nend\n"


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize(
    "gens, cap, relations",
    [
        ("odd y1 y2\neven x(0,2)", 3, " x - y1*y2"),
        ("even x(0,2)\nodd y1 y2", 3, " x - y1*y2"),
        ("odd y1 y2 y3\neven x(0,2)", 4, " x - y1*y2\n x*y3 - 2*y1*y2*y3"),
        ("odd y1 y2 y3 y4\neven x(0,2) u", 4, " x - y1*y2 + y3*y4\n u*x - u*y1*y3"),
    ],
)
def test_relations_that_mix_odd_counts(field, gens, cap, relations):
    text = MIXED % (field.name, gens, cap, relations)
    check_against_stepped(compile_presentation(parse_presentation(text)))


def test_a_normal_form_with_fewer_odd_letters_stays_in_its_stage():
    # x - y1*y2: y1*y2 reduces to the basis monomial x, which has no odd
    # letter, and x = y1 y2 lies in R_1^2 A.
    text = MIXED % ("Q", "odd y1 y2\neven x(0,2)", 3, " x - y1*y2")
    A = compile_presentation(parse_presentation(text))
    assert A.labels == ["1", "y1", "y2", "x"]
    chain = odd_filtration(A)
    assert [S.dim for S in chain] == [4, 3, 1]
    assert chain[2].contains(A.basis_element(A.labels.index("x")))


def _golden_presentations():
    """The shipped assets and the Hilbert golden inputs, each given a cap
    where it has none."""
    for name in ("grassmann2.alg", "c1_r.alg"):
        with open(os.path.join(ASSETS, name)) as fh:
            yield pytest.param(fh.read(), id=name)
    for name in ("free_1_1.alg", "free_2_3.alg", "free_3_2.alg", "xy.alg"):
        with open(os.path.join(ASSETS, name)) as fh:
            yield pytest.param(fh.read() + "cap 4\n", id=name + " cap 4")
    for name, text in _GOLDEN_INPUTS.items():
        if "cap" in text:
            yield pytest.param(text, id=name)
        else:
            yield pytest.param(text + "cap 6\n", id=name + " cap 6")


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("text", list(_golden_presentations()))
def test_golden_inputs(field, text):
    check_against_stepped(compile_presentation(parse_presentation(text, field=field)))


def test_an_associative_algebra_keeps_the_stepped_chain():
    text = "algebra w over Q\nflavor associative\nodd a b\ncap 3\nrelations\n a*b + b*a\nend\n"
    A = compile_presentation(parse_presentation(text))
    assert rows(odd_filtration(A)) == rows(stepped_chain(A))
    assert rows(odd_filtration(A)) == rows(oracles.odd_power_spans_of_module(regular_module(A)))


class TestNoActionIsSolved:
    """The odd chain of the regular module of a presented supercommutative
    algebra is read off the monomials: no action matrix is solved and no
    basis product is formed."""

    @pytest.fixture
    def misses(self, monkeypatch):
        out = []
        act_basis, mul_basis = SuperModule.act_basis, FiniteSuperAlgebra.mul_basis

        def counted_act_basis(M, i):
            if i not in M._act_basis:
                out.append(("act_basis", i))
            return act_basis(M, i)

        def counted_mul_basis(A, i, j):
            out.append(("mul_basis", i, j))
            return mul_basis(A, i, j)

        monkeypatch.setattr(SuperModule, "act_basis", counted_act_basis)
        monkeypatch.setattr(FiniteSuperAlgebra, "mul_basis", counted_mul_basis)
        return out

    LAMBDA = "algebra lambda6 over %s\nflavor supercommutative\nodd z1 z2 z3 z4 z5 z6\ncap 6\n"

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_sdim_of_the_regular_module(self, misses, field):
        mixed = MIXED % (field.name, "odd y1 y2 y3\neven x(0,2)", 4, " x - y1*y2")
        for text in (self.LAMBDA % field.name, mixed):
            A = compile_presentation(parse_presentation(text))
            assert sdim(regular_module(A)).odd > 0
            assert sdim_algebra(A).odd > 0
        assert misses == []

    def test_the_cli_command(self, misses, capsys, tmp_path):
        path = tmp_path / "lambda6.alg"
        path.write_text(self.LAMBDA % "Q")
        for extra in ([], ["--module", os.path.join(ASSETS, "regular.mod")]):
            assert cli.main(["sdim", str(path), *extra]) == 0
            assert "odd chain dims: 64 63 57 42 22 7 1" in capsys.readouterr().out
        assert misses == []

    def test_a_general_module_still_solves(self, misses):
        A = compile_presentation(parse_presentation(self.LAMBDA % "Q"))
        M = module_from_actions(A, A.parities, regular_module(A).actions)
        misses.clear()
        assert sdim(M) == SuperDimension(0, 6)
        assert misses


def test_a_stepped_chain_that_does_not_end_raises():
    # a table algebra with a*a = 1 for its odd a: no presentation gives one
    A = FiniteSuperAlgebra.from_table(["1", "a"], [EVEN, ODD], QQ, {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}}, 0)
    for chain in (odd_filtration, sdim_algebra):
        with pytest.raises(AlgebraError, match="odd part is not nilpotent"):
            chain(A)
