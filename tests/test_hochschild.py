"""Superized Hochschild cochains, SH^n and square-zero extensions."""

import contextlib
import gc
import io
import json
import os
import random
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdim.algebra import (
    AlgebraError,
    FiniteSuperAlgebra,
    Presentation,
    compile_presentation,
    table_is_associative,
    table_respects_unit,
)
from superdim import hochschild
from superdim.cli import _load_cochain, main
from superdim.exactlin import QQ, PrimeField, vec_add_scaled
from superdim.hochschild import (
    MAX_SH_CELLS,
    Cochain,
    adapted_equivalence,
    assemble_square_zero,
    build_A_pi,
    coboundary,
    cochain_add,
    cochain_parity_violations,
    cochain_space_basis,
    cochain_sub,
    is_cocycle_pi,
    is_in_C,
    is_super_skew,
    sh_dim,
    zero_cochain,
)
from superdim.sdim import sdim_algebra
from superdim.smodule import product_span, quotient, regular_module
from superdim.superpoly import (
    ASSOCIATIVE,
    EVEN,
    ODD,
    SUPERCOMMUTATIVE,
    GeneratorSpec,
    SuperPolynomial,
)
from superdim.textio import parse_module, parse_presentation

from conftest import (
    parity_shift,
    random_algebra,
    random_cochain,
    random_in_C,
    random_module,
    random_super_skew,
    rng_for,
)
from oracles import (
    NestedCoboundary,
    direct_coboundary0,
    echelon_sh_dim,
    orbit_solved_cochain_space_basis,
    orbit_tables,
    pointwise_is_in_C,
    scan_coboundary,
    solved_cochain_space_basis,
    triple_cocycle_pi,
    unit_and_reversal_hold,
)
from test_algebra import grassmann


def xy2_algebra(field=QQ):
    """K[x | y] / (x^2), basis 1, x, y, x*y; odd SH^1 is one-dimensional."""
    gens = (GeneratorSpec("x", EVEN), GeneratorSpec("y", ODD))
    x = SuperPolynomial.generator(0, SUPERCOMMUTATIVE, gens, field)
    return compile_presentation(
        Presentation(SUPERCOMMUTATIVE, gens, [x * x], 2, field, "xy2")
    )


class TestCochainBasics:
    def test_tuple_length_enforced(self):
        with pytest.raises(AlgebraError):
            Cochain(1, ODD, {(0,): {0: QQ.one}})

    def test_zero_values_dropped(self):
        f = Cochain(0, ODD, {(0,): {0: QQ.zero}})
        assert f.is_zero()
        assert zero_cochain(2, EVEN).is_zero()

    def test_linear_ops(self):
        f = Cochain(0, ODD, {(1,): {0: QQ.of(2)}})
        g = Cochain(0, ODD, {(1,): {0: QQ.one}})
        assert cochain_sub(cochain_add(f, g, QQ), f, QQ) == g
        assert cochain_add(zero_cochain(0, ODD), g, QQ, QQ.of(2)).table == {(1,): {0: QQ.of(2)}}
        assert cochain_add(f, g, QQ, -2).is_zero()
        F3 = PrimeField(3)
        h = Cochain(0, ODD, {(1,): {0: 2}})
        assert cochain_add(zero_cochain(0, ODD), h, F3, 2).table == {(1,): {0: 1}}
        assert cochain_sub(zero_cochain(0, ODD), h, F3).table == {(1,): {0: 1}}
        assert cochain_add(h, h, F3).table == {(1,): {0: 1}}
        assert cochain_add(h, h, F3, 2).is_zero()
        with pytest.raises(AlgebraError):
            cochain_add(f, zero_cochain(1, ODD), QQ)

    def test_parity_violations(self):
        A = grassmann(2)
        good = Cochain(0, ODD, {(1,): {0: QQ.one}})  # odd f, odd z1 -> even value
        assert cochain_parity_violations(good, A, A.parities) == []
        bad = Cochain(0, ODD, {(1,): {1: QQ.one}})
        assert cochain_parity_violations(bad, A, A.parities) == [(1,)]


class TestCoboundary:
    def test_degree_zero_matches_direct_formula(self):
        rng = rng_for("test_degree_zero_matches_direct_formula")
        for _ in range(8):
            A = random_algebra(rng, max_dim=8)
            M = regular_module(A)
            for parity in (EVEN, ODD):
                table = {}
                f_table = {}
                for i in range(A.dim):
                    if i == A.unit_index:
                        continue
                    want = (parity + A.parities[i]) % 2
                    vec = {
                        r: A.field.of(rng.randint(-2, 2))
                        for r in range(A.dim)
                        if A.parities[r] == want and rng.random() < 0.6
                    }
                    vec = {r: c for r, c in vec.items() if c}
                    if vec:
                        table[(i,)] = vec
                        f_table[i] = vec
                f = Cochain(0, parity, table)
                got = coboundary(f, A, M)
                want_table = direct_coboundary0(f_table, parity, A)
                assert got.table == want_table

    def test_square_is_zero(self):
        rng = rng_for("test_square_is_zero")
        for _ in range(6):
            A = random_algebra(rng, max_dim=6)
            M = regular_module(A)
            for n in (0, 1):
                for parity in (EVEN, ODD):
                    f = random_cochain(A, M, n, parity, rng)
                    assert coboundary(coboundary(f, A, M), A, M).is_zero()

    def test_preserves_subcomplex(self):
        rng = rng_for("test_preserves_subcomplex")
        for _ in range(6):
            A = random_algebra(rng, max_dim=6)
            M = regular_module(A)
            for parity in (EVEN, ODD):
                f = random_in_C(A, M, 0, parity, rng)
                assert is_in_C(f, A, M)
                assert is_in_C(coboundary(f, A, M), A, M)


def _reference_cases(name, per_field=5, max_cells=3000, fields=(QQ, PrimeField(2), PrimeField(3))):
    """(A, M, n) over the fields (Q, F2 and F3 unless given) with regular
    and random modules."""
    rng = rng_for(name)
    for field in fields:
        for _ in range(per_field):
            A = random_algebra(rng, max_dim=6, field=field)
            for M in (regular_module(A), random_module(rng, A)):
                for n in (0, 1, 2):
                    if A.dim ** (n + 2) * M.dim <= max_cells:
                        yield rng, A, M, n


class TestReferenceKernels:
    """The push-forward coboundary and the orbit basis of C^n against the
    full-scan and constraint-solve kernels they replaced."""

    def test_cochain_space_basis_matches_constraint_solve(self):
        seen = set()
        for _rng, A, M, n in _reference_cases("test_cochain_space_basis_matches"):
            for parity in (EVEN, ODD):
                got = cochain_space_basis(A, M, n, parity)
                want = solved_cochain_space_basis(A, M, n, parity)
                assert [f.table for f in got] == [f.table for f in want]
                seen.add((A.field.characteristic, n))
        assert len(seen) == 9

    def test_coboundary_matches_full_scan(self):
        for rng, A, M, n in _reference_cases("test_coboundary_matches_full_scan"):
            for parity in (EVEN, ODD):
                dense = random_cochain(A, M, n, parity, rng, density=0.8)
                for f in [dense] + cochain_space_basis(A, M, n, parity)[:6]:
                    assert coboundary(f, A, M) == scan_coboundary(f, A, M)

    def test_sh_dim_matches_echelon_sh_dim(self):
        seen = set()
        fields = (QQ, PrimeField(2), PrimeField(5))
        for _rng, A, M, n in _reference_cases("test_sh_dim_matches_echelon", fields=fields):
            assert sh_dim(A, M, n) == echelon_sh_dim(A, M, n)
            seen.add((A.field.characteristic, n))
        assert seen == {(p, n) for p in (0, 2, 5) for n in (0, 1, 2)}

    def test_grassmann_agrees_over_every_field(self):
        for s in (1, 2, 3):
            for field in (QQ, PrimeField(2), PrimeField(3)):
                A = grassmann(s, field)
                M = regular_module(A)
                for n in (0, 1) if s == 3 else (0, 1, 2):
                    for parity in (EVEN, ODD):
                        basis = cochain_space_basis(A, M, n, parity)
                        want = solved_cochain_space_basis(A, M, n, parity)
                        assert [f.table for f in basis] == [f.table for f in want]
                        for f in basis[:8]:
                            assert coboundary(f, A, M) == scan_coboundary(f, A, M)


def _f2_cases(name, max_cells=2**18):
    """(A, M, n) over F2 for n = 1..4 within max_cells cells: random
    algebras with their regular and a random module, and Lambda_1..3 with
    their regular modules."""
    F2 = PrimeField(2)
    rng = rng_for(name)
    pairs = [(A, regular_module(A)) for A in (grassmann(s, F2) for s in (1, 2, 3))]
    for _ in range(6):
        A = random_algebra(rng, max_dim=6, field=F2)
        pairs += [(A, regular_module(A)), (A, random_module(rng, A))]
    for A, M in pairs:
        # n = 4 is the first arity with three palindromes on one entry set
        for n in (1, 2, 3, 4):
            if A.dim ** (n + 2) * M.dim <= max_cells:
                yield rng, A, M, n


class TestF2ClosedForm:
    """Over F2, ``is_in_C`` sums f per entry set of its all-odd tuples, and
    the basis of C^n drops one palindrome per entry set and value
    coordinate.  The pointwise sums over all 2^k - 1 sets of odd basis
    elements, and their constraint solve on the orbit basis, are the
    reference (tests/oracles.py)."""

    @staticmethod
    def _random_sum(tables, n, parity, rng):
        """The F2 sum of a random half of the tables, as a Cochain."""
        out = {}
        for table in tables:
            if rng.random() < 0.5:
                for tup, vec in table.items():
                    vec_add_scaled(out.setdefault(tup, {}), vec, 1, PrimeField(2))
        return Cochain(n, parity, out)

    def test_is_in_C_matches_pointwise(self):
        outcomes = {"in C": 0, "diagonal only": 0, "unit or reversal": 0}
        for rng, A, M, n in _f2_cases("test_f2_is_in_C_matches_pointwise"):
            for parity in (EVEN, ODD):
                # sums of orbit vectors keep the unit and reversal conditions
                orbits = orbit_tables(A, M, n, parity)
                basis = [f.table for f in cochain_space_basis(A, M, n, parity)]
                candidates = [random_cochain(A, M, n, parity, rng),
                              self._random_sum(basis, n, parity, rng)]
                candidates += [self._random_sum(orbits, n, parity, rng) for _ in range(4)]
                for f in candidates:
                    want = pointwise_is_in_C(f, A, M)
                    assert is_in_C(f, A, M) == want
                    if want:
                        outcomes["in C"] += 1
                    elif unit_and_reversal_hold(f, A):
                        outcomes["diagonal only"] += 1
                    else:
                        outcomes["unit or reversal"] += 1
        assert outcomes["diagonal only"] >= 100
        assert min(outcomes.values()) > 0, outcomes

    def test_basis_matches_orbit_solve(self):
        seen = set()
        for _rng, A, M, n in _f2_cases("test_f2_basis_matches_orbit_solve"):
            for parity in (EVEN, ODD):
                basis = cochain_space_basis(A, M, n, parity)
                assert [f.table for f in basis] == orbit_solved_cochain_space_basis(
                    A, M, n, parity)
                assert all(pointwise_is_in_C(f, A, M) for f in basis[::len(basis) // 50 + 1])
                seen.add(n)
        assert seen == {1, 2, 3, 4}


_FLAT_FIELDS = (QQ, PrimeField(2), PrimeField(5))


def _flat_module(kind, A, rng):
    if kind == "regular":
        return regular_module(A)
    if kind == "regular.mod":
        with open(os.path.join(ASSETS, "regular.mod")) as fh:
            return parse_module(fh.read(), A)
    return random_module(rng, A)


class TestFlatImage:
    """``_Coboundary.image`` sums raw products per flat key and reduces once;
    the reference adds each term through vec_add_scaled into a dict per
    output code and flattens it afterwards (``NestedCoboundary``)."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("field", _FLAT_FIELDS, ids=lambda F: F.name)
    @given(
        parity=st.sampled_from([EVEN, ODD]),
        kind=st.sampled_from(["regular", "regular.mod", "random"]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=20, deadline=None)
    def test_image_matches_nested_reference(self, field, n, parity, kind, seed):
        rng = random.Random(seed)
        A = random_algebra(rng, max_dim=(8, 6, 5, 4)[n], field=field)
        M = _flat_module(kind, A, rng)
        d = hochschild._Coboundary(A, M, parity)
        ref = NestedCoboundary(A, M, parity)
        f = random_cochain(A, M, n, parity, rng)
        tables = [f.table]
        if n > 0:
            # f + d(h): the terms of d(d(h)) cancel inside the sums
            h = random_cochain(A, M, n - 1, parity, rng)
            dh = coboundary(h, A, M)
            tables += [dh.table, cochain_add(f, dh, field).table]
        p = field.characteristic
        for table in tables:
            got = d.image(table, n)
            assert got == ref.image(table, n)
            assert all(got.values())
            if p:
                assert all(type(c) is int and 1 <= c < p for c in got.values())
        assert d.cochain(f) == ref.cochain(f)


def _both_routes(monkeypatch, run):
    """run() on the flat image and again with the nested reference in its place."""
    flat = run()
    with monkeypatch.context() as m:
        m.setattr(hochschild, "_Coboundary", NestedCoboundary)
        nested = run()
    return flat, nested


class TestFlatImageRoutes:
    """coboundary, sh_dim and adapted_equivalence on the golden inputs give
    the same results on the flat image as on the nested reference."""

    @pytest.mark.parametrize("field", _FLAT_FIELDS, ids=lambda F: F.name)
    def test_sh_dim(self, monkeypatch, field):
        def run():
            out = []
            for A, ns in ((grassmann(2, field), range(4)), (xy2_algebra(field), range(3))):
                out.append([sh_dim(A, regular_module(A), n) for n in ns])
            return out

        flat, nested = _both_routes(monkeypatch, run)
        assert flat == nested

    def test_shipped_cochains(self, monkeypatch):
        def run():
            A = grassmann(2)
            M = regular_module(A)
            pis = [_load_cochain(os.path.join(ASSETS, name), A)
                   for name in ("coboundary_pi.json", "zero_pi.json")]
            certs = [adapted_equivalence(p, q, A) for p in pis for q in pis]
            return [coboundary(pi, A, M) for pi in pis], [is_cocycle_pi(pi, A) for pi in pis], certs

        flat, nested = _both_routes(monkeypatch, run)
        assert flat == nested
        assert all(cert is not None for cert in flat[2])

    def test_golden_reports(self, monkeypatch):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        flat, nested = _both_routes(monkeypatch, hochschild_reports)
        assert flat == nested == golden


class TestSubcomplex:
    def test_unit_slot_condition(self):
        A = grassmann(1)
        M = regular_module(A)
        f = Cochain(0, ODD, {(A.unit_index,): {1: QQ.one}})
        assert not is_in_C(f, A, M)

    def test_reversal_symmetry(self):
        A = grassmann(2)
        M = regular_module(A)
        # f(z1, z2) set without the signed mirror value at (z2, z1)
        f = Cochain(1, EVEN, {(1, 2): {3: QQ.one}})
        assert not is_in_C(f, A, M)

    def test_basis_members_lie_in_C(self):
        for field in (QQ, PrimeField(2)):
            A = grassmann(2, field)
            M = regular_module(A)
            for n in (0, 1):
                for parity in (EVEN, ODD):
                    for f in cochain_space_basis(A, M, n, parity):
                        assert is_in_C(f, A, M)


class TestShDim:
    def test_rank_one_exterior(self):
        A = grassmann(1)
        M = regular_module(A)
        assert sh_dim(A, M, 0) == (1, 1)
        # reversal symmetry and the unit condition empty out C^1 here
        assert sh_dim(A, M, 1) == (0, 0)
        assert len(cochain_space_basis(A, M, 1, EVEN)) == 0
        assert len(cochain_space_basis(A, M, 1, ODD)) == 0

    def test_small_quotients(self):
        gens = (GeneratorSpec("x", EVEN),)
        x = SuperPolynomial.generator(0, SUPERCOMMUTATIVE, gens, QQ)
        dual = compile_presentation(Presentation(SUPERCOMMUTATIVE, gens, [x * x], 2, QQ))
        assert sh_dim(dual, regular_module(dual), 1) == (1, 0)
        A = xy2_algebra()
        assert sh_dim(A, regular_module(A), 1) == (1, 1)

    def test_exterior_rank_three_degree_two(self):
        A = grassmann(3)
        assert sh_dim(A, regular_module(A), 2) == (40, 40)

    def test_size_guard(self, monkeypatch):
        monkeypatch.setattr(hochschild, "MAX_SH_CELLS", 10)
        A = grassmann(3)
        with pytest.raises(AlgebraError):
            sh_dim(A, regular_module(A), 1)

    def test_default_bound_admits_lambda5_at_n1(self, monkeypatch):
        class Admitted(Exception):
            pass

        def admitted(*_args):
            raise Admitted

        # the size check comes first; past it, stop before any work
        monkeypatch.setattr(hochschild, "_Coboundary", admitted)
        A = grassmann(5)
        assert A.dim ** 3 * A.dim == MAX_SH_CELLS == 2**20
        with pytest.raises(Admitted):
            sh_dim(A, regular_module(A), 1)
        with pytest.raises(AlgebraError, match="size bound"):
            sh_dim(SimpleNamespace(dim=1), SimpleNamespace(dim=2**20 + 1), 0)

    def test_arity_bound_admits_what_the_cell_bound_admits(self, monkeypatch):
        class Admitted(Exception):
            pass

        def admitted(*_args):
            raise Admitted

        monkeypatch.setattr(hochschild, "_Coboundary", admitted)
        monkeypatch.setattr(hochschild, "_require_supercommutative", lambda A: None)
        top = MAX_SH_CELLS.bit_length() - 2  # the largest n the arity bound admits
        # Lambda_2 at n = 7 fills the cell bound exactly; a 1-dimensional
        # algebra is admitted up to the arity bound and refused past it,
        # with no power of any size formed (A.dim is never read there).
        for A, M, n in ((SimpleNamespace(dim=4), SimpleNamespace(dim=4), 7),
                        (SimpleNamespace(dim=1), SimpleNamespace(dim=1), top)):
            with pytest.raises(Admitted):
                sh_dim(A, M, n)
        for n in (top + 1, 10**11):
            with pytest.raises(AlgebraError, match="size bound"):
                sh_dim(SimpleNamespace(), SimpleNamespace(dim=0), n)
        # For dim A >= 2 the cell bound alone refuses every n past the arity bound.
        for dim in range(2, 40):
            for n in range(top + 1, top + 4):
                assert dim ** (n + 2) > MAX_SH_CELLS

    def test_negative_n_is_refused(self):
        A = grassmann(1)
        with pytest.raises(ValueError, match="nonnegative"):
            sh_dim(A, regular_module(A), -1)


class TestSquareZeroExtensions:
    def test_zero_pi_doubles_dimension(self):
        A = grassmann(1)
        B = build_A_pi(A, zero_cochain(1, ODD))
        assert B.dim == 2 * A.dim
        assert table_is_associative(B)
        assert table_respects_unit(B)
        assert sdim_algebra(B).odd == sdim_algebra(A).odd + 1

    def test_cocycle_iff_associative(self):
        rng = rng_for("test_cocycle_iff_associative")
        hits = {True: 0, False: 0}
        for _ in range(30):
            A = random_algebra(rng, max_dim=6)
            pi = random_super_skew(A, rng)
            if not is_super_skew(pi, A):
                continue
            ok = is_cocycle_pi(pi, A)
            B = assemble_square_zero(A, pi)
            # pi fails at the unit exactly when the assembled unit breaks,
            # and fails the triple condition exactly when associativity does
            assert (table_is_associative(B) and table_respects_unit(B)) == ok
            hits[ok] += 1
        assert hits[True] and hits[False]  # both branches exercised

    def test_build_rejects_even_pi(self):
        A = grassmann(1)
        with pytest.raises(AlgebraError):
            build_A_pi(A, zero_cochain(1, EVEN))

    def test_build_rejects_non_cocycle(self):
        A = xy2_algebra()
        # pi(x, x) = 1 is super-skew but breaks the cocycle condition
        pi = Cochain(1, ODD, {(1, 1): {2: QQ.one}, (1, 3): {0: QQ.one}})
        if is_cocycle_pi(pi, A):
            pytest.skip("unexpectedly a cocycle")
        with pytest.raises(AlgebraError):
            build_A_pi(A, pi)


def _cocycle_candidates(A, rng):
    """Valid, corrupted, unit-breaking and even-declared pi on A."""
    M = regular_module(A)
    valid = coboundary(random_in_C(A, M, 0, ODD, rng), A, M)
    unit = A.unit_index
    odd = [i for i in range(A.dim) if A.parities[i] == ODD]
    out = [zero_cochain(1, ODD), valid, random_super_skew(A, rng)]
    out.append(cochain_add(valid, random_super_skew(A, rng, density=0.2), A.field))
    if odd:
        at_unit = Cochain(1, ODD, {(unit, unit): {rng.choice(odd): A.field.one}})
        out.append(cochain_add(valid, at_unit, A.field))
    out += [Cochain(1, EVEN, p.table) for p in out]
    return out


def _odd_socle(A):
    """Odd basis elements that every non-unit basis element kills."""
    return [
        i
        for i in range(A.dim)
        if A.parities[i] == ODD
        and not any(A.mul_basis(j, i) for j in range(A.dim) if j != A.unit_index)
    ]


class TestCocycleRoute:
    """is_cocycle_pi is d_1 on the odd coboundary; the triple scan is the reference."""

    @pytest.mark.parametrize(
        "field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=lambda F: F.name
    )
    def test_matches_triple_scan(self, field):
        rng = rng_for("test_matches_triple_scan_" + field.name)
        algebras = [random_algebra(rng, max_dim=8, field=field) for _ in range(6)]
        algebras.append(build_A_pi(xy2_algebra(field), zero_cochain(1, ODD)))
        assert algebras[-1].kind == "table"
        hits = {True: 0, False: 0}
        for A in algebras:
            for pi in _cocycle_candidates(A, rng):
                ok = is_cocycle_pi(pi, A)
                assert ok == triple_cocycle_pi(pi, A)
                hits[ok] += 1
        assert hits[True] and hits[False]

    def test_unit_condition_is_checked_apart_from_d1(self):
        # pi(1, 1) = z for an odd z that all non-unit elements kill has
        # d_1 pi = 0, so only the unit condition refuses it
        for s in (1, 3):
            A = grassmann(s)
            M = regular_module(A)
            unit = A.unit_index
            for z in _odd_socle(A):
                pi = Cochain(1, ODD, {(unit, unit): {z: QQ.one}})
                assert coboundary(pi, A, M).is_zero()
                assert not is_cocycle_pi(pi, A)
                assert not triple_cocycle_pi(pi, A)

    def test_declared_parity_does_not_change_the_sign(self):
        # the odd left sign -(-1)^{|a|} applies to an even-declared table too
        A = xy2_algebra()
        nontrivial = Cochain(1, ODD, {(1, 1): {2: QQ.one}})
        shift = coboundary(Cochain(0, ODD, {(2,): {0: QQ.one}}), A, regular_module(A))
        for pi in (nontrivial, shift):
            assert is_cocycle_pi(pi, A)
            assert is_cocycle_pi(Cochain(1, EVEN, pi.table), A)

    def test_arity_other_than_one_is_refused(self):
        A = grassmann(1)
        with pytest.raises(AlgebraError, match="2-argument"):
            is_cocycle_pi(zero_cochain(0, ODD), A)

    def test_odd_coboundary_is_cached_per_live_algebra(self):
        # hochschild keys its cache by the algebra, weakly: a second call
        # reuses the object, and a dropped algebra leaves no entry
        cache = hochschild._ODD_COBOUNDARIES
        pi = Cochain(1, ODD, {(1, 1): {2: QQ.one}})
        gc.collect()
        before = len(cache)
        A = xy2_algebra()
        assert is_cocycle_pi(pi, A)
        d = cache[A]
        assert is_cocycle_pi(pi, A)
        assert cache[A] is d and len(cache) == before + 1
        dropped = weakref.ref(A)
        del A, d
        gc.collect()
        assert dropped() is None
        assert len(cache) == before


def _associative_x_odd_y(field=QQ):
    """K<x, y> with x even, y odd, cut at degree 2: not supercommutative."""
    gens = (GeneratorSpec("x", EVEN), GeneratorSpec("y", ODD))
    return compile_presentation(Presentation(ASSOCIATIVE, gens, [], 2, field, "xy_assoc"))


class TestSupercommutativeRequired:
    def test_every_entry_point_refuses(self):
        A = _associative_x_odd_y()
        assert A.dim == 7
        zero = zero_cochain(1, ODD)
        calls = (
            lambda: sh_dim(A, regular_module(A), 1),
            lambda: is_cocycle_pi(zero, A),
            lambda: build_A_pi(A, zero),
            lambda: adapted_equivalence(zero, zero, A),
        )
        for call in calls:
            with pytest.raises(AlgebraError, match="not supercommutative"):
                call()

    def test_table_kind_is_checked_by_its_table(self):
        A = build_A_pi(grassmann(1), zero_cochain(1, ODD))
        assert A.kind == "table"
        assert is_cocycle_pi(zero_cochain(1, ODD), A)
        # x y = y but y x = 0
        table = {(0, 0): {0: QQ.one}, (0, 1): {1: QQ.one}, (1, 0): {1: QQ.one},
                 (0, 2): {2: QQ.one}, (2, 0): {2: QQ.one}, (1, 2): {2: QQ.one}}
        B = FiniteSuperAlgebra.from_table(["1", "x", "y"], [EVEN, EVEN, ODD], QQ, table, 0)
        with pytest.raises(AlgebraError, match="not supercommutative"):
            sh_dim(B, regular_module(B), 0)


class TestAdaptedEquivalence:
    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=lambda F: F.name)
    @pytest.mark.parametrize("kind", ["xy2", "table"])
    def test_coboundary_shift_is_equivalent(self, field, kind):
        rng = rng_for("test_coboundary_shift_is_equivalent")
        A = xy2_algebra(field)
        if kind == "table":
            # the trivial square-zero extension of xy2: table kind, dim 8
            A = build_A_pi(A, zero_cochain(1, ODD))
            assert A.kind == "table"
        M = regular_module(A)
        pi = zero_cochain(1, ODD)
        f = random_in_C(A, M, 0, ODD, rng)
        pi2 = coboundary(f, A, M)
        cert = adapted_equivalence(pi, pi2, A)
        assert cert is not None
        assert coboundary(cert, A, M) == cochain_sub(pi2, pi, A.field)

    def test_self_equivalence(self):
        A = grassmann(2)
        pi = zero_cochain(1, ODD)
        assert adapted_equivalence(pi, pi, A) is not None

    def test_inequivalent_witness(self):
        # pi(x,x) = y deforms x*x = 0 into a genuinely new extension,
        # while pi(x,x) = x*y is a coboundary shift of zero
        A = xy2_algebra()
        trivial = Cochain(1, ODD, {(1, 1): {3: QQ.one}})
        nontrivial = Cochain(1, ODD, {(1, 1): {2: QQ.one}})
        for pi in (trivial, nontrivial):
            assert is_super_skew(pi, A)
            assert is_cocycle_pi(pi, A)
        zero = zero_cochain(1, ODD)
        assert adapted_equivalence(zero, trivial, A) is not None
        assert adapted_equivalence(zero, nontrivial, A) is None


# -- weight blocks and symmetry orbits ----------------------------------------

_ORBIT_FIELDS = (QQ, PrimeField(3), PrimeField(5), PrimeField(2))


def presented(field, odd, even=(), cap=None, relations=()):
    """The compiled presentation with these generators and relation lines."""
    text = "algebra t over Q\nflavor supercommutative\n"
    if even:
        text += "even %s\n" % " ".join(even)
    text += "odd %s\ncap %d\nrelations\n%s\nend\n" % (
        " ".join(odd), cap if cap is not None else len(odd), "\n".join(relations))
    return compile_presentation(parse_presentation(text, field=field))


def _lambda_names(s):
    return ["z%d" % (i + 1) for i in range(s)]


def _orbit_case(kind, field, s, pick):
    """(A, M) of one input kind; ``pick`` chooses among its variants."""
    odd = _lambda_names(s)
    if kind == "lambda":
        A = presented(field, odd)
    elif kind == "lambda-monomial":
        # a product of two or more odd generators, chosen by the bits of pick
        odd = _lambda_names(max(s, 2))
        subset = [z for b, z in enumerate(odd) if pick >> b & 1]
        A = presented(field, odd, relations=["*".join(subset if len(subset) > 1 else odd)])
    elif kind == "two-even-two-odd":
        rels = [r for b, r in enumerate(("x1^2", "x2^2", "x1*x2", "z1*z2")) if pick >> b & 1]
        A = presented(field, ["z1", "z2"], even=["x1", "x2"], cap=2, relations=rels)
    elif kind == "binomial":
        A = (presented(field, ["z1", "z2"], even=["x1", "x2"], cap=2,
                       relations=[("x1*z1 - x2*z2", "x1^2 - x2^2", "x1*x2 + x2^2")[pick % 3]])
             if pick % 4 < 3 else presented(field, _lambda_names(4), relations=["z1*z2 - z3*z4"]))
    else:  # a module that is not A's regular module
        A = presented(field, odd)
        M = regular_module(A)
        if pick % 2:
            return A, parity_shift(M)
        return A, quotient(M, product_span(M, [A.basis_element(A.dim - 1)]))
    return A, regular_module(A)


class TestWeightOrbits:
    """``sh_dim`` ranks one weight block per symmetry orbit; the whole-matrix
    ``echelon_sh_dim`` is the reference."""

    @pytest.mark.parametrize("field", _ORBIT_FIELDS, ids=lambda F: F.name)
    @given(
        kind=st.sampled_from(
            ["lambda", "lambda-monomial", "two-even-two-odd", "binomial", "module"]),
        s=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=0, max_value=3),
        pick=st.integers(min_value=0, max_value=15),
    )
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_matches_whole_matrix_reference(self, field, kind, s, n, pick):
        A, M = _orbit_case(kind, field, s, pick)
        while n > 0 and A.dim ** (n + 2) * M.dim > 2**15:
            n -= 1
        assert sh_dim(A, M, n) == echelon_sh_dim(A, M, n)

    def test_unchecked_transposition_is_kept_out(self, monkeypatch):
        # z1*z2 is kept by (z1 z2) but not by (z1 z3) or (z2 z3)
        A = presented(QQ, ["z1", "z2", "z3"], relations=["z1*z2"])
        M = regular_module(A)
        assert hochschild._symmetry(A, M)[1] == [(0, 1)]
        want = {0: (7, 7), 2: (24, 24)}
        for n, dims in want.items():
            assert sh_dim(A, M, n) == echelon_sh_dim(A, M, n) == dims
        # letting every same-class transposition in gives wrong dimensions
        monkeypatch.setattr(hochschild, "_transposition_qualifies", lambda A, g, h: True)
        assert hochschild._symmetry(A, M)[1] == [(0, 1, 2)]
        for n, dims in want.items():
            assert sh_dim(A, M, n) != dims

    def test_scope(self):
        lam3 = presented(QQ, _lambda_names(3))
        assert hochschild._symmetry(lam3, regular_module(lam3))[1] == [(0, 1, 2)]
        mixed = presented(QQ, ["z1", "z2"], even=["x1", "x2"], cap=2, relations=["x1^2"])
        assert hochschild._symmetry(mixed, regular_module(mixed))[1] == [(2, 3)]
        for A, M in (
            (grassmann(3, PrimeField(2)), None),  # characteristic 2
            (lam3, parity_shift(regular_module(lam3))),  # not a regular module
            (lam3, regular_module(presented(QQ, _lambda_names(3)))),  # another algebra's
            (presented(QQ, _lambda_names(4), relations=["z1*z2 - z3*z4"]), None),  # binomial
            (presented(QQ, ["y"], even=["x"], cap=4), None),  # no two generators alike
        ):
            assert hochschild._symmetry(A, M or regular_module(A)) is None

    def test_rows_ranked_lambda3_n1(self, monkeypatch):
        # a fallback to the whole matrix would hand row_rank 248 rows
        rows = []
        ranked = hochschild.row_rank

        def counting(vectors, field):
            vectors = list(vectors)
            rows.append(len(vectors))
            return ranked(vectors, field)

        monkeypatch.setattr(hochschild, "row_rank", counting)
        A = grassmann(3)
        assert sh_dim(A, regular_module(A), 1) == (0, 0)
        assert sum(rows) == 88

    @pytest.mark.parametrize("s, vectors, components", [(2, 2, 4), (3, 24, 48)])
    def test_f2_odd_diagonals_mix_weights(self, s, vectors, components):
        """Over F2, C^2 is not the sum of its weight components: so many
        basis vectors per parity have weight components outside C^2."""
        A = grassmann(s, PrimeField(2))
        M = regular_module(A)
        mdeg = [[A.basis_word(i).count(g) for g in range(s)] for i in range(A.dim)]

        def weight(tup, r):
            return tuple(mdeg[r][g] - sum(mdeg[t][g] for t in tup) for g in range(s))

        for parity in (EVEN, ODD):
            bad_vectors = bad_components = 0
            for f in cochain_space_basis(A, M, 2, parity):
                parts = {}
                for tup, vec in f.table.items():
                    for r, c in vec.items():
                        parts.setdefault(weight(tup, r), {}).setdefault(tup, {})[r] = c
                bad = sum(not is_in_C(Cochain(2, parity, t), A, M) for t in parts.values())
                bad_vectors += bad > 0
                bad_components += bad
            assert (bad_vectors, bad_components) == (vectors, components)
        assert sh_dim(A, M, 2) == echelon_sh_dim(A, M, 2)


# -- golden reports ----------------------------------------------------------

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "hochschild_reports.json")
ASSETS = os.path.join(os.path.dirname(__file__), "..", "src", "superdim", "assets")

# (name, cocycle file, classify file): the shipped pair, both ways round
_GOLDEN_JOBS = (
    ("coboundary_pi vs zero_pi", "coboundary_pi.json", "zero_pi.json"),
    ("zero_pi vs coboundary_pi", "zero_pi.json", "coboundary_pi.json"),
)


def hochschild_reports():
    """``hochschild grassmann2.alg --n 1 --cocycle P --build-api --classify Q
    --format report`` output of every golden job."""
    out = {}
    for name, cocycle, other in _GOLDEN_JOBS:
        argv = ["hochschild", os.path.join(ASSETS, "grassmann2.alg"), "--n", "1",
                "--cocycle", os.path.join(ASSETS, cocycle), "--build-api",
                "--classify", os.path.join(ASSETS, other), "--format", "report"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        out[name] = {"exit": code, "report": buf.getvalue()}
    return out


def test_hochschild_reports_match_golden():
    with open(GOLDEN) as fh:
        assert hochschild_reports() == json.load(fh)


if __name__ == "__main__":
    # Rewrites the golden file; run as  PYTHONPATH=src:tests python tests/test_hochschild.py
    with open(GOLDEN, "w") as fh:
        json.dump(hochschild_reports(), fh, indent=1, sort_keys=True)
        fh.write("\n")
