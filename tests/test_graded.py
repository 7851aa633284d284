"""Associated graded and bigraded structures of superideal filtrations."""

import json
import operator
import os

import pytest

from superdim.algebra import (
    AlgebraError,
    Presentation,
    compile_presentation,
    is_supercommutative,
    odd_multipliers,
    odd_radical,
    superideal_span,
    table_is_associative,
)
from superdim.corpus import build_c1
from superdim.exactlin import QQ, PrimeField, row_rank, vec_add_scaled
from superdim.graded import (
    _add_pairs,
    _below_kl,
    _below_n,
    _lattice_multipliers,
    bgr,
    bgr_module,
    bgr_to_gr_surjective,
    class_in_degree,
    gr,
    gr_module,
    ideal_powers,
    verify_graded_comparison,
)
from superdim.sdim import SuperDimension, sdim
from superdim.smodule import RegularModule, SuperModule, check_module, regular_module
from superdim.superpoly import ASSOCIATIVE, EVEN, GeneratorSpec
from superdim.textio import parse_module

from conftest import parity_shift, random_algebra, random_module, random_nilpotent_ideal, rng_for
from oracles import TwoPassComponents, eager_regular_module, two_pass_bgr_to_gr_surjective
from test_algebra import grassmann


class TestIdealPowers:
    def test_grassmann_odd_radical_powers(self):
        A = grassmann(2)
        assert [S.dim for S in ideal_powers(A, odd_radical(A))] == [4, 3, 1]

    def test_rejects_non_ideal(self):
        A = grassmann(2)
        from superdim.exactlin import Subspace

        S = Subspace(A.parities, A.field)
        S.insert(A.generator_element("z1"))
        with pytest.raises(AlgebraError):
            ideal_powers(A, S)

    def test_rejects_non_nilpotent(self):
        A = grassmann(2)
        I = superideal_span(A, [A.unit_element()])
        with pytest.raises(AlgebraError):
            ideal_powers(A, I)


class TestGr:
    def test_grassmann_components(self):
        A = grassmann(2)
        G = gr(A, odd_radical(A))
        assert G.component_dims() == {0: 1, 1: 2, 2: 1}
        assert G.algebra.dim == A.dim
        assert table_is_associative(G.algebra)
        assert is_supercommutative(G.algebra)

    def test_smaller_ideal(self):
        A = grassmann(2)
        G = gr(A, superideal_span(A, [A.generator_element("z1")]))
        assert G.component_dims() == {0: 2, 1: 2}

    def test_dimension_conservation_random(self):
        rng = rng_for("test_gr_dimension_conservation_random")
        for _ in range(10):
            A = random_algebra(rng, max_dim=12)
            I = random_nilpotent_ideal(rng, A)
            G = gr(A, I)
            assert sum(G.component_dims().values()) == A.dim
            assert table_is_associative(G.algebra)

    def test_class_in_degree(self):
        A = grassmann(2)
        G = gr(A, odd_radical(A))
        z1 = A.generator_element("z1")
        z12 = A.mul(z1, A.generator_element("z2"))
        assert class_in_degree(G, z1, 1) != {}
        # z1*z2 sits one stage deeper, so its degree-1 class vanishes
        assert class_in_degree(G, z12, 1) == {}


class TestGrModule:
    def test_module_axioms_and_conservation(self):
        rng = rng_for("test_gr_module_axioms_and_conservation")
        for _ in range(8):
            A = random_algebra(rng, max_dim=12)
            M = random_module(rng, A)
            I = random_nilpotent_ideal(rng, A)
            GM = gr_module(M, I)
            assert sum(GM.component_dims().values()) == M.dim
            assert check_module(GM.module) == []

    def test_grassmann_regular(self):
        A = grassmann(2)
        GM = gr_module(regular_module(A), odd_radical(A))
        assert GM.component_dims() == {0: 1, 1: 2, 2: 1}


class TestBgr:
    def test_grassmann_lattice_components(self):
        # z1*z2 lies in both I_0 A and I_1^2 A, so it is counted at (1,0)
        # and at (0,2): the bigraded pieces may overlap and only surject
        # onto the graded ones
        A = grassmann(2)
        I = odd_radical(A)
        B = bgr(A, I)
        assert B.component_dims() == {(0, 0): 1, (0, 1): 2, (0, 2): 1, (1, 0): 1}
        assert sum(B.component_dims().values()) == 5
        assert bgr_to_gr_surjective(B, gr(A, I))

    def test_surjectivity_random(self):
        rng = rng_for("test_bgr_surjectivity_random")
        for _ in range(8):
            A = random_algebra(rng, max_dim=12)
            I = random_nilpotent_ideal(rng, A)
            assert bgr_to_gr_surjective(bgr(A, I), gr(A, I))

    def test_bgr_module_matches_algebra_on_regular(self):
        A = grassmann(2)
        I = odd_radical(A)
        BM = bgr_module(regular_module(A), I, bigraded_algebra=bgr(A, I))
        assert BM.component_dims() == {(0, 0): 1, (0, 1): 2, (0, 2): 1, (1, 0): 1}

    def test_rejects_associative_flavor(self):
        pres = Presentation(
            ASSOCIATIVE, (GeneratorSpec("x", EVEN),), [], 2, QQ, "free"
        )
        A = compile_presentation(pres)
        with pytest.raises(AlgebraError):
            bgr(A, superideal_span(A, [A.generator_element("x")]))

    @pytest.mark.parametrize("s", [2, 4, 6])
    def test_lattice_multipliers_one_per_line(self, s):
        # z_j z_i = -z_i z_j: of the s (s - 1) nonzero products g y along the
        # odd radical, one per pair {i, j} is kept, and the span is the same
        A = grassmann(s)
        I = odd_radical(A)
        even, odd = _lattice_multipliers(A, I)
        products = [A.mul(g, y) for g in I.generators for y in odd_multipliers(A)]
        products = [p for p in products if p]
        assert len(products) == s * (s - 1)
        assert len(odd) == s and len(even) == s * (s - 1) // 2
        assert row_rank(even, QQ) == row_rank(products, QQ) == len(even)


def _rows(filtration):
    if isinstance(filtration, dict):
        return {key: S.basis() for key, S in filtration.items()}
    return [S.basis() for S in filtration]


def _assert_same_graded_module(got, want):
    assert got.keys == want.keys
    assert got.reps == want.reps
    assert _rows(got.powers) == _rows(want.powers)
    assert got.module.parities == want.module.parities
    assert got.module.actions == want.module.actions


def _shortcut_cases():
    """The golden cases, then random supercommutative algebras over Q, F2
    and F5 with their odd radical and a random nilpotent ideal."""
    for _name, A, I in golden_cases():
        yield A, I
    for field in (QQ, PrimeField(2), PrimeField(5)):
        rng = rng_for("regular-shortcut-%s" % field)
        for _ in range(8):
            A = random_algebra(rng, max_gens=4, max_cap=4, max_dim=24, field=field)
            yield A, odd_radical(A)
            yield A, random_nilpotent_ideal(rng, A)


class TestRegularShortcut:
    """gr_module and bgr_module of the regular module are the regular
    modules of gr and bgr; the eager oracle goes the general way."""

    def test_matches_general_path(self):
        for A, I in _shortcut_cases():
            G, B = gr(A, I), bgr(A, I)
            M, oracle = regular_module(A), eager_regular_module(A)
            assert type(oracle) is SuperModule
            GM = gr_module(M, I, graded_algebra=G)
            _assert_same_graded_module(GM, gr_module(oracle, I, graded_algebra=G))
            BM = bgr_module(M, I, bigraded_algebra=B)
            _assert_same_graded_module(BM, bgr_module(oracle, I, bigraded_algebra=B))
            assert GM.module.algebra is G.algebra and BM.module.algebra is B.algebra

    def test_mismatched_ideal_is_refused(self):
        A = grassmann(3)
        I, J = odd_radical(A), superideal_span(A, [A.generator_element("z1")])
        for M in (regular_module(A), eager_regular_module(A)):
            with pytest.raises(AlgebraError):
                gr_module(M, I, graded_algebra=gr(A, J))
            with pytest.raises(AlgebraError):
                bgr_module(M, I, bigraded_algebra=bgr(A, J))

    def test_mismatched_algebra_is_refused(self):
        A, other = grassmann(3), grassmann(3)
        for M in (regular_module(A), eager_regular_module(A)):
            with pytest.raises(AlgebraError):
                gr_module(M, odd_radical(A), graded_algebra=gr(other, odd_radical(other)))
            with pytest.raises(AlgebraError):
                bgr_module(M, odd_radical(A), bigraded_algebra=bgr(other, odd_radical(other)))

    def test_equal_ideal_built_twice_is_accepted(self):
        A = grassmann(3)
        G = gr(A, odd_radical(A))
        GM = gr_module(regular_module(A), odd_radical(A), graded_algebra=G)
        assert GM.component_dims() == G.component_dims()


def _solved_table(A):
    """A's product table with every pair read through ``mul_basis`` (a
    graded table is solved on demand), the nonzero products kept."""
    return {(i, j): v for i in range(A.dim) for j in range(A.dim) if (v := A.mul_basis(i, j))}


def _same_algebra(got, want):
    assert got.labels == want.labels
    assert got.parities == want.parities
    assert _solved_table(got) == _solved_table(want)
    assert got.unit_index == want.unit_index


def _stages(filtration):
    return filtration if isinstance(filtration, dict) else dict(enumerate(filtration))


def _check_against_two_pass(A, I, modules):
    """gr, bgr, their modules over ``modules``, class_in_degree and
    bgr_to_gr_surjective against the two-pass construction."""
    G, B = gr(A, I), bgr(A, I)
    graded = []
    for X, stages, below, add, tag in (
        (G, G.powers, _below_n, operator.add, str),
        (B, B.lattice, _below_kl, _add_pairs, lambda kl: "(%d,%d)" % kl),
    ):
        R = TwoPassComponents(A, _stages(stages), below)
        assert (X.keys, X.reps) == (R.keys, R.rows)
        _same_algebra(X.algebra, R.algebra(A, add, tag, X.algebra.name))
        graded.append((X, R, below, add))
    RG = graded[0][1]
    for n, stage in enumerate(G.powers):
        rows = stage.basis()
        for vec in rows + [vec_add_scaled(dict(rows[0]), rows[-1], 3, A.field)]:
            assert class_in_degree(G, vec, n) == RG.class_in_degree(vec, n)
    assert bgr_to_gr_surjective(B, G) == two_pass_bgr_to_gr_surjective(B.keys, B.reps, RG)
    for M in modules:
        for (X, R, below, add), build in zip(graded, (gr_module, bgr_module)):
            XM = build(M, I, X)
            RM = TwoPassComponents(M, _stages(XM.powers), below)
            assert (XM.keys, XM.reps) == (RM.keys, RM.rows)
            want = RM.module(M, R.keys, R.rows, X.algebra, add)
            assert XM.module.parities == want.parities
            assert XM.module.actions == want.actions


class TestTwoPassReference:
    """One tagged echelon per stage gives what the two-pass construction
    gave: representatives, keys, product tables, module actions, classes."""

    def test_shortcut_cases_and_modules(self):
        rng = rng_for("two-pass-reference-modules")
        for A, I in _shortcut_cases():
            _check_against_two_pass(A, I, [parity_shift(regular_module(A)), random_module(rng, A)])

    def test_c1_module(self):
        data = build_c1()
        R = data.R
        for I in (superideal_span(R, [R.generator_element("Y")]), odd_radical(R)):
            _check_against_two_pass(R, I, [data.M])

    def test_vector_outside_its_stage_is_refused(self):
        for _name, A, I in golden_cases():
            G = gr(A, I)
            RG = TwoPassComponents(A, dict(enumerate(G.powers)), _below_n)
            for classify in (lambda v: class_in_degree(G, v, 1), lambda v: RG.class_in_degree(v, 1)):
                with pytest.raises(AlgebraError, match="does not lie in the expected stage"):
                    classify(A.unit_element())


def _all_pairs_columns(X, A, add):
    """The product table of a graded object, ``product`` solved on every
    ordered pair of representatives."""
    comps = X.components
    return [
        [comps.product(A.mul, add, lkey, a, j) for j in range(len(comps.reps))]
        for lkey, a in zip(X.keys, comps.rows)
    ]


class TestHalfProductTable:
    """On a presented supercommutative algebra gr and bgr solve only the
    pairs i <= j and fill in (j, i) by the sign rule; every column equals
    the one solved on its own ordered pair."""

    def test_tables_equal_all_pairs_columns(self):
        odd_pairs = {}
        for A, I in _shortcut_cases():
            for X, add in ((gr(A, I), operator.add), (bgr(A, I), _add_pairs)):
                cols = _all_pairs_columns(X, A, add)
                table = _solved_table(X.algebra)
                assert set(table) == {
                    (i, j) for i, row in enumerate(cols) for j, col in enumerate(row) if col
                }
                for i, row in enumerate(cols):
                    for j, col in enumerate(row):
                        assert table.get((i, j), {}) == col
                        if col and i != j and X.algebra.parities[i] == X.algebra.parities[j] == 1:
                            key = A.field.characteristic
                            odd_pairs[key] = odd_pairs.get(key, 0) + 1
        # nonzero products of two distinct odd representatives were compared,
        # in characteristic 2 as well
        assert set(odd_pairs) == {0, 2, 5}

    def test_associative_flavor_solves_every_pair(self):
        # x y != y x in the free associative algebra, which the sign rule
        # would have made equal
        pres = Presentation(
            ASSOCIATIVE, (GeneratorSpec("x", EVEN), GeneratorSpec("y", EVEN)), [], 2, QQ, "free"
        )
        A = compile_presentation(pres)
        I = superideal_span(A, [A.generator_element("x"), A.generator_element("y")])
        G = gr(A, I)
        cols = _all_pairs_columns(G, A, operator.add)
        table = _solved_table(G.algebra)
        assert table == {
            (i, j): col for i, row in enumerate(cols) for j, col in enumerate(row) if col
        }
        x, y = (G.reps.index(A.generator_element(g)) for g in "xy")
        assert table[(x, y)] != table[(y, x)]


class TestTablesOnDemand:
    """gr and bgr solve a product of representatives the first time it is
    read; over Lambda_6 along the odd radical the gr command reads few."""

    def test_gr_and_sdim_read_only_the_step_rows(self):
        A = grassmann(6)
        I = odd_radical(A)
        G = gr(A, I)
        assert G.algebra._table == {}
        GM = gr_module(regular_module(A), I, graded_algebra=G)
        assert sdim(GM.module) == SuperDimension(0, 6)
        steps = odd_multipliers(G.algebra)
        assert len(steps) == 6 < G.algebra.parities.count(1) == 32
        assert 0 < len(G.algebra._table) <= len(steps) * G.algebra.dim

    def test_bgr_and_its_module_read_no_product(self):
        A = grassmann(6)
        I = odd_radical(A)
        B = bgr(A, I)
        BM = bgr_module(regular_module(A), I, bigraded_algebra=B)
        assert bgr_to_gr_surjective(B, gr(A, I))
        assert BM.component_dims() == B.component_dims()
        assert B.algebra._table == {}

    def test_a_pair_is_multiplied_once_and_only_when_read(self, monkeypatch):
        A = grassmann(3)
        G = gr(A, odd_radical(A))
        calls = []
        mul = A.mul
        monkeypatch.setattr(A, "mul", lambda u, v: calls.append((u, v)) or mul(u, v))
        i = G.keys.index(1)
        j = i + 1  # two odd representatives of degree 1
        assert G.algebra.mul_basis(j, i)  # solved for (i, j), cached as (j, i) only
        assert len(calls) == 1 and set(G.algebra._table) == {(j, i)}
        ij = G.algebra.mul_basis(i, j)
        assert len(calls) == 2 and set(G.algebra._table) == {(i, j), (j, i)}
        assert G.algebra.mul_basis(j, i) == {k: -x for k, x in ij.items()}
        assert len(calls) == 2
        # a mirror read when (i, j) is already in the table multiplies nothing
        k = j + 1
        G.algebra.mul_basis(i, k)
        G.algebra.mul_basis(k, i)
        assert len(calls) == 3


class TestModuleActionsOnDemand:
    """A graded module solves the action of a representative the first time
    it is read: sdim reads 4 of the 16 on c1's M, along RY and along the
    odd radical, and ``actions`` reads all of them."""

    def test_c1_module_solves_what_sdim_reads(self):
        data = build_c1()
        R, M = data.R, data.M
        for I in (superideal_span(R, [R.generator_element("Y")]), odd_radical(R)):
            GM = gr_module(M, I)
            N = GM.module
            assert not isinstance(N, RegularModule)
            assert N._act_basis == {}
            assert N.algebra.dim == 16 and N.dim == M.dim == 202
            sdim(N)
            assert len(N._act_basis) == 4
            actions = N.actions
            assert len(N._act_basis) == len(actions) == 16
            assert all((mat.nrows, mat.ncols) == (N.dim, N.dim) for mat in actions)
            assert check_module(N) == []


class TestComparison:
    def test_odd_radical_gives_equality(self):
        A = grassmann(3)
        out = verify_graded_comparison(regular_module(A), odd_radical(A))
        assert out["ok"]
        ids = [c["id"] for c in out["clauses"]]
        assert "equality-at-odd-radical" in ids
        assert out["sdim"] == out["sdim_graded"] == {"even": 0, "odd": 3}

    def test_zero_module_gives_equality(self):
        # both super-dimensions are the empty value, so the theorem holds
        A = grassmann(2)
        out = verify_graded_comparison(parse_module("module Z\n", A), odd_radical(A))
        assert out["ok"], out
        assert [c["id"] for c in out["clauses"]][-1] == "equality-at-odd-radical"
        assert out["sdim"] == out["sdim_graded"] == {"empty": True}

    def test_random_comparisons_hold(self):
        rng = rng_for("test_random_comparisons_hold")
        for _ in range(10):
            A = random_algebra(rng, max_dim=12)
            M = random_module(rng, A)
            I = random_nilpotent_ideal(rng, A)
            out = verify_graded_comparison(M, I)
            assert out["ok"], out


class TestBgrModuleAxioms:
    def test_random_bgr_module_and_algebra(self):
        rng = rng_for("test_random_bgr_module_and_algebra")
        for _ in range(25):
            A = random_algebra(rng, max_dim=12)
            M = random_module(rng, A)
            I = random_nilpotent_ideal(rng, A)
            B = bgr(A, I)
            assert table_is_associative(B.algebra)
            assert check_module(bgr_module(M, I, bigraded_algebra=B).module) == []


# -- golden structures -------------------------------------------------------

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "graded_structures.json")


def _sparse(vec):
    return [[k, str(vec[k])] for k in sorted(vec)]


def _algebra_dump(X, keys):
    A = X.algebra
    return {
        "labels": A.labels,
        keys: [list(d) if isinstance(d, tuple) else d for d in X.keys],
        "table": [[i, j, _sparse(v)] for (i, j), v in sorted(_solved_table(A).items())],
    }


def _actions_dump(GM):
    return [[_sparse(col) for col in mat.cols] for mat in GM.module.actions]


def golden_cases():
    """The fixed (name, algebra, ideal) triples of the golden file."""
    cases = []
    for s in (2, 3):
        A = grassmann(s)
        cases.append(("grassmann%d odd radical" % s, A, odd_radical(A)))
        cases.append(("grassmann%d z1" % s, A, superideal_span(A, [A.generator_element("z1")])))
    R = build_c1().R
    cases.append(("c1 R, I = RY", R, superideal_span(R, [R.generator_element("Y")])))
    return cases


def graded_structures():
    """gr, bgr and their regular modules on a few fixed (algebra, ideal) pairs."""
    out = {}
    for name, A, I in golden_cases():
        M = regular_module(A)
        G = gr(A, I)
        B = bgr(A, I)
        out[name] = {
            "gr": _algebra_dump(G, "degrees"),
            "gr_module": _actions_dump(gr_module(M, I, graded_algebra=G)),
            "bgr": _algebra_dump(B, "bidegrees"),
            "bgr_module": _actions_dump(bgr_module(M, I, bigraded_algebra=B)),
        }
    return out


def test_graded_structures_match_golden():
    with open(GOLDEN) as fh:
        assert graded_structures() == json.load(fh)


if __name__ == "__main__":
    # Rewrites the golden file; run as  PYTHONPATH=src:tests python tests/test_graded.py
    with open(GOLDEN, "w") as fh:
        json.dump(graded_structures(), fh, indent=1, sort_keys=True)
        fh.write("\n")
