"""Krull super-dimension: chains of odd powers and parameter systems."""

import importlib
from itertools import combinations

import pytest

from superdim.algebra import odd_radical, superideal_span
from superdim.exactlin import QQ, PrimeField
from superdim.superpoly import ODD
from superdim.sdim import (
    EMPTY_SDIM,
    SuperDimension,
    is_extendable_to_longest,
    odd_parameter_systems,
    odd_power_spans_of_module,
    sdim,
    sdim_algebra,
    sdim_odd_by_subset_search,
    subset_chain_agreement,
    verify_factoring,
)
from superdim.smodule import (
    ModuleError,
    product_span,
    quotient,
    regular_module,
    sequence_quotient,
    submodule,
)

from conftest import random_algebra, random_module, rng_for
from oracles import ext_chain_dims
from test_algebra import grassmann

# The package re-exports the function sdim under the submodule's name.
sdim_module = importlib.import_module("superdim.sdim")
smodule = importlib.import_module("superdim.smodule")


class TestSuperDimension:
    def test_repr_and_equality(self):
        d = SuperDimension(0, 3)
        assert repr(d) == "0|3"
        assert d == SuperDimension(0, 3)
        assert d != SuperDimension(0, 2)
        assert d != EMPTY_SDIM

    def test_empty(self):
        assert EMPTY_SDIM.empty
        assert EMPTY_SDIM.as_json() == {"empty": True}
        assert SuperDimension(1, 2).as_json() == {"even": 1, "odd": 2}


def zero_module(A):
    M = regular_module(A)
    return quotient(M, M.full_subspace())


FIELDS = [QQ, PrimeField(2), PrimeField(5)]


def brute_force_systems(M, size):
    """Label tuples of the size-``size`` subsets of the odd generating set
    whose product, multiplied out from the unit, acts by a nonzero matrix."""
    A = M.algebra
    out = []
    for combo in combinations(A.odd_module_generators(), size):
        prod = A.unit_element()
        for _label, y in combo:
            prod = A.mul(prod, y)
        if not M.act_element(prod).is_zero():
            out.append(tuple(label for label, _y in combo))
    return out


class TestChains:
    def test_zero_module_has_empty_sdim(self):
        A = grassmann(2)
        assert sdim(zero_module(A)) is EMPTY_SDIM

    def test_grassmann_chain_dims(self):
        for s in (1, 2, 3, 4):
            A = grassmann(s)
            M = regular_module(A)
            spans = odd_power_spans_of_module(M)
            assert [S.dim for S in spans] == ext_chain_dims(s)
            assert sdim(M) == SuperDimension(0, s)

    def test_chain_strictly_decreasing_from_full(self):
        rng = rng_for("test_chain_strictly_decreasing_from_full")
        for _ in range(10):
            A = random_algebra(rng, max_dim=14)
            M = random_module(rng, A)
            if M.is_zero():
                continue
            dims = [S.dim for S in odd_power_spans_of_module(M)]
            assert dims[0] == M.dim
            assert all(a > b for a, b in zip(dims, dims[1:]))

    def test_sdim_algebra_matches_regular_module(self):
        rng = rng_for("test_sdim_algebra_matches_regular_module")
        for _ in range(10):
            A = random_algebra(rng, max_dim=14)
            assert sdim_algebra(A) == sdim(regular_module(A))

    def test_killing_odd_radical_zeroes_odd_sdim(self):
        rng = rng_for("test_killing_odd_radical_zeroes_odd_sdim")
        for _ in range(8):
            A = random_algebra(rng, max_dim=12)
            M = regular_module(A)
            Q = quotient(M, product_span(M, odd_radical(A)))
            if Q.is_zero():
                continue
            assert sdim(Q) == SuperDimension(0, 0)


def _with_odd_part(M):
    """M, and R_1 M when it is nonzero: a module whose first basis vectors
    a product may kill while it moves a later one."""
    chain = odd_power_spans_of_module(M)
    return [M] + [submodule(M, S) for S in chain[1:2]]


class TestParameterSystems:
    def test_grassmann_systems(self):
        A = grassmann(2)
        M = regular_module(A)
        assert odd_parameter_systems(M, 2) == [("z1", "z2")]
        assert sorted(odd_parameter_systems(M, 1)) == [("z1",), ("z2",)]
        assert odd_parameter_systems(M, 0) == [()]

    def test_subset_search_matches_chain(self):
        rng = rng_for("test_subset_search_matches_chain")
        for _ in range(12):
            A = random_algebra(rng, max_dim=14)
            M = random_module(rng, A)
            if M.is_zero():
                continue
            assert sdim_odd_by_subset_search(M) == sdim(M).odd
            assert subset_chain_agreement(M)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_systems_match_brute_force(self, field):
        rng = rng_for("test_systems_match_brute_force" + field.name)
        for trial in range(12):
            A = random_algebra(rng, max_gens=4, max_cap=4, max_dim=20, field=field)
            M = zero_module(A) if trial == 0 else random_module(rng, A)
            top = len(A.odd_module_generators())
            for N in _with_odd_part(M):
                for size in range(top + 2):
                    assert odd_parameter_systems(N, size) == brute_force_systems(N, size)
        A = grassmann(4, field)
        M = regular_module(A)
        for N in _with_odd_part(M):
            for size in range(6):
                assert odd_parameter_systems(N, size) == brute_force_systems(N, size)
        assert odd_parameter_systems(M, 0) == [()]
        assert odd_parameter_systems(zero_module(A), 0) == []
        assert odd_parameter_systems(M, 5) == []

    def test_subset_search_on_zero_module(self):
        assert sdim_odd_by_subset_search(zero_module(grassmann(1))) is None


class TestExtendability:
    def test_grassmann_prefix_extends(self):
        A = grassmann(3)
        M = regular_module(A)
        z = [A.generator_element("z%d" % i) for i in (1, 2, 3)]
        assert is_extendable_to_longest([z[0]], M)
        assert is_extendable_to_longest([z[0], z[1]], M)

    def test_zero_module_rejected(self):
        A = grassmann(1)
        with pytest.raises(ModuleError):
            is_extendable_to_longest([A.generator_element("z1")], zero_module(A))

    def test_non_regular_sequence_rejected(self):
        A = grassmann(2)
        M = regular_module(A)
        z1 = A.generator_element("z1")
        with pytest.raises(ModuleError):
            is_extendable_to_longest([z1, z1], M)


class TestSequenceQuotient:
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_iterated_quotient_is_the_quotient_by_the_ideal(self, field):
        rng = rng_for("test_iterated_quotient_is_the_quotient_by_the_ideal" + field.name)
        checked = 0
        for _ in range(16):
            A = random_algebra(rng, max_dim=14, field=field)
            M = random_module(rng, A)
            odd = [A.basis_element(i) for i in range(A.dim) if A.parities[i] == ODD]
            if not odd:
                continue
            ys = [rng.choice(odd) for _ in range(rng.randint(1, 3))]
            _regular, last = sequence_quotient(ys, M)
            direct = quotient(M, product_span(M, ys))
            assert last.dim == direct.dim
            assert sdim(last) == sdim(direct)
            checked += 1
        assert checked >= 8

    def test_regularity_verdict(self):
        A = grassmann(2)
        M = regular_module(A)
        z1, z2 = A.generator_element("z1"), A.generator_element("z2")
        regular, Q = sequence_quotient([z1, z2], M)
        assert regular and Q.dim == 1
        regular, Q = sequence_quotient([z1, z1], M)
        assert not regular and Q.dim == 2
        assert sequence_quotient([], M) == (True, M)


class TestVerifyFactoring:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_quotient_built_once(self, monkeypatch, t):
        calls = []
        real = smodule.quotient

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(smodule, "quotient", counting)
        # a quotient call that sdim makes by its own import is counted too
        monkeypatch.setattr(sdim_module, "quotient", counting, raising=False)
        A = grassmann(3)
        ys = [A.generator_element("z%d" % i) for i in range(1, t + 1)]
        assert verify_factoring(regular_module(A), ys)["ok"]
        assert len(calls) == t

    def test_grassmann_report(self):
        A = grassmann(2)
        M = regular_module(A)
        out = verify_factoring(M, [A.generator_element("z1")])
        assert out["ok"]
        ids = [c["id"] for c in out["clauses"]]
        assert "sequence-is-regular" in ids
        assert "quotient-matches-product-image" in ids
        assert out["sdim"] == {"even": 0, "odd": 2}
        assert out["sdim_quotient"] == {"even": 0, "odd": 1}
        assert out["extendable"] is True

    def test_failure_is_reported_not_raised(self):
        # z1*z2 generates a strictly smaller ideal than needed for z2 to
        # stay regular downstairs; pick a genuinely non-regular element
        A = grassmann(2)
        M = regular_module(A)
        z12 = A.mul(A.generator_element("z1"), A.generator_element("z2"))
        with pytest.raises(ModuleError):
            verify_factoring(M, [z12])  # even element: not a valid input
