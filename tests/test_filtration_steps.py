"""Generator-stepped filtrations against the basis-stepped references.

The odd chains, ideal powers, I^n M chains and (k, l) lattices step by
generators of R_1 or of the ideal; ``oracles`` keeps the earlier versions
that multiply by every basis row.  Both must give the same basis() rows at
every stage (Echelon rows are fully reduced, so equal spans give equal
rows).  A module over gr(A, I) steps its odd chain by the classes that
``gr`` records; the reference steps by every odd basis element of gr(A, I).
"""

import random
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from superdim.algebra import odd_multipliers, odd_power_span, odd_radical, superideal_span
from superdim.exactlin import QQ, PrimeField
from superdim.graded import (
    _lattice,
    _lattice_multipliers,
    bgr_module,
    gr,
    gr_module,
    ideal_powers,
)
from superdim.sdim import (
    SuperDimension,
    odd_power_spans_of_module,
    sdim_algebra,
    sdim_odd_by_subset_search,
)
from superdim.smodule import product_span, quotient, regular_module
from superdim.superpoly import ODD

from conftest import parity_shift, random_algebra, random_module, random_nilpotent_ideal, rng_for
from test_algebra import grassmann

FIELDS = [QQ, PrimeField(2), PrimeField(5)]


def rows(chain):
    return [S.basis() for S in chain]


def lattice_rows(lattice):
    return {key: S.basis() for key, S in lattice.items()}


def ideals(rng, A):
    """The odd radical, a one-generator ideal and an ideal of an
    inhomogeneous seed, each labelled."""
    nonunit = [i for i in range(A.dim) if i != A.unit_index]
    out = [("odd radical", odd_radical(A))]
    if not nonunit:
        return out
    g = A.basis_element(rng.choice(nonunit))
    out.append(("one generator", superideal_span(A, [g])))
    even = [i for i in nonunit if A.parities[i] == 0]
    odd = [i for i in nonunit if A.parities[i] == 1]
    if even and odd:
        seed = {rng.choice(even): A.field.one, rng.choice(odd): A.field.of(2)}
        out.append(("inhomogeneous seed", superideal_span(A, [seed])))
    return out


def cases(field, count=20):
    rng = rng_for("filtration-steps-%s" % field)
    for _ in range(count):
        A = random_algebra(rng, max_gens=4, max_cap=4, max_dim=40, field=field)
        yield rng, A, random_module(rng, A)


@pytest.mark.parametrize("field", FIELDS, ids=str)
class TestAgainstBasisStepped:
    def test_odd_chains(self, field):
        for _rng, A, M in cases(field):
            assert rows(odd_power_spans_of_module(M)) == rows(oracles.odd_power_spans_of_module(M))
            chain = oracles.odd_power_spans_of_module(regular_module(A))
            for l in range(len(chain) + 1):
                assert odd_power_span(A, l).basis() == oracles.odd_power_span(A, l).basis()
            assert sdim_algebra(A) == SuperDimension(0, len(chain) - 1)

    def test_ideal_filtrations(self, field):
        seen = set()
        for rng, A, M in cases(field):
            for label, I in ideals(rng, A):
                assert I.generators is not None
                seen.add(label)
                assert rows(ideal_powers(A, I)) == rows(oracles.ideal_powers(A, I)), label
                module_act = partial(oracles.apply_element, M)
                step = oracles._step(M, module_act, I.basis())
                full = M.full_subspace()
                want = [full] + oracles._chain(step(full), step, M.dim, "ideal action")
                assert rows(gr_module(M, I).powers) == rows(want), label
                for X, act in ((A, A.mul), (M, module_act)):
                    got = _lattice(X, act, *_lattice_multipliers(A, I), "ideal")
                    assert lattice_rows(got) == lattice_rows(oracles._lattice(X, act, I, "ideal")), label
                want = oracles._lattice(M, module_act, I, "ideal")
                assert lattice_rows(bgr_module(M, I).powers) == lattice_rows(want), label
        assert seen == {"odd radical", "one generator", "inhomogeneous seed"}


class TestGrassmann:
    def test_odd_radical_has_one_generator_per_odd_generator(self):
        A = grassmann(5)
        assert len(odd_radical(A).generators) == 5

    def test_sdim_algebra_of_lambda_8(self):
        A = grassmann(8)
        assert sdim_algebra(A) == SuperDimension(0, 8)
        assert sdim_odd_by_subset_search(regular_module(A)) == 8


def _module(kind, rng, A):
    M = regular_module(A)
    if kind == "shifted":
        return parity_shift(M)
    if kind == "quotient":
        picks = [i for i in range(A.dim) if i != A.unit_index and rng.random() < 0.4]
        assume(picks)
        M = quotient(M, product_span(M, [A.basis_element(i) for i in picks]))
        assume(M.dim > 0)
    return M


def _ideal(kind, rng, A):
    if kind == "odd radical":
        return odd_radical(A)
    if kind == "random nilpotent":
        return random_nilpotent_ideal(rng, A)
    parities = (0,) if kind == "even generator" else (0, 1)
    picks = [i for i in range(A.dim) if i != A.unit_index and A.parities[i] in parities]
    assume(picks)
    return superideal_span(A, [A.basis_element(rng.choice(picks))])


@pytest.mark.parametrize(
    "ideal_kind", ["odd radical", "one generator", "even generator", "random nilpotent"]
)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    module_kind=st.sampled_from(["regular", "shifted", "quotient"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gr_odd_steps_give_the_all_odd_basis_chain(ideal_kind, field, module_kind, seed):
    """The odd chain of a module over gr(A, I), stepped by the classes that
    gr records, equals the chain stepped by every odd basis element of
    gr(A, I) (the reference in ``oracles``)."""
    rng = random.Random(seed)
    A = random_algebra(rng, max_gens=4, max_cap=4, max_dim=24, field=field)
    I = _ideal(ideal_kind, rng, A)
    G = gr(A, I)
    steps = odd_multipliers(G.algebra)
    assert steps is G.algebra._odd_steps
    odd_gens = [g for g in I.generators if A.element_parity(g) == ODD]
    assert len(steps) <= len(odd_multipliers(A)) + len(odd_gens)
    GM = gr_module(_module(module_kind, rng, A), I, graded_algebra=G)
    got = odd_power_spans_of_module(GM.module)
    want = oracles.odd_power_spans_of_module(GM.module)
    assert [S.dim for S in got] == [S.dim for S in want]
    assert rows(got) == rows(want)
