"""Shared fixtures: cached corpus objects and seeded random instances.

Random algebras are produced as compiled presentations (associativity by
construction), random modules as shifts/quotients of regular modules,
and random nilpotent superideals as spans of non-unit elements.  All
sampling is driven by explicit seeds so failures replay exactly.
"""

import itertools
import random
from fractions import Fraction

import pytest

from superdim.algebra import compile_presentation, superideal_span
from superdim.corpus import build_c1, build_c2, corpus_report
from superdim.exactlin import QQ, PrimeField
from superdim.hochschild import (
    Cochain,
    cochain_add,
    cochain_space_basis,
    zero_cochain,
)
from superdim.smodule import module_from_actions, product_span, quotient, regular_module, submodule
from superdim.superpoly import (
    EVEN,
    ODD,
    SUPERCOMMUTATIVE,
    GeneratorSpec,
    SuperPolynomial,
)
from superdim.algebra import Presentation


def parity_shift(M):
    """Pi M: flipped parities; odd generators act with a flipped sign."""
    actions = []
    for (_label, parity, _vec), mat in zip(M.algebra.generators, M.actions):
        actions.append(-mat if parity == ODD else mat)
    return module_from_actions(
        M.algebra,
        [1 - p for p in M.parities],
        actions,
        name="Pi " + M.name,
    )


@pytest.fixture(scope="session")
def c1():
    return build_c1()


@pytest.fixture(scope="session")
def c2():
    return build_c2()


@pytest.fixture(scope="session")
def c1_report():
    return corpus_report("c1")


@pytest.fixture(scope="session")
def c2_report():
    return corpus_report("c2")


_GEN_NAMES = ("a", "b", "c", "d")


def random_presentation(rng, max_gens=3, max_cap=3, field=None):
    """A small random supercommutative presentation that always compiles."""
    field = field or QQ
    ngens = rng.randint(1, max_gens)
    gens = tuple(
        GeneratorSpec(_GEN_NAMES[i], rng.choice((EVEN, ODD))) for i in range(ngens)
    )
    cap = rng.randint(1, max_cap)
    pres0 = Presentation(SUPERCOMMUTATIVE, gens, [], cap, field, "random")
    monos = []
    for deg in range(2, cap + 1):
        monos.extend(
            m
            for m in _monomials_of_degree(gens, deg)
            if m is not None
        )
    relations = []
    for m in monos:
        if rng.random() < 0.3:
            coeff = field.of(Fraction(rng.randint(1, 3)))
            poly = SuperPolynomial(SUPERCOMMUTATIVE, gens, field, {m: coeff})
            other = rng.choice(monos)
            if other != m and rng.random() < 0.5:
                q = SuperPolynomial(
                    SUPERCOMMUTATIVE, gens, field, {other: field.of(rng.randint(1, 2))}
                )
                if (
                    q.degree() == poly.degree()
                    and q.parity() == poly.parity()
                ):
                    poly = poly - q
            if not poly.is_zero():
                relations.append(poly)
    return Presentation(SUPERCOMMUTATIVE, gens, relations, cap, field, "random")


def _monomials_of_degree(gens, deg):
    n = len(gens)
    out = []

    def rec(i, left, exps):
        if i == n:
            if left == 0:
                out.append(tuple(exps))
            return
        top = 1 if gens[i].parity == ODD else left
        for e in range(min(top, left) + 1):
            rec(i + 1, left - e, exps + [e])

    rec(0, deg, [])
    return out


def random_algebra(rng, max_gens=3, max_cap=3, max_dim=None, field=None):
    """Compile random presentations until the dimension bound is met."""
    while True:
        A = compile_presentation(random_presentation(rng, max_gens, max_cap, field))
        if max_dim is None or A.dim <= max_dim:
            return A


def random_module(rng, A):
    """The regular module, possibly parity-shifted, possibly quotiented."""
    M = regular_module(A)
    if rng.random() < 0.3:
        M = parity_shift(M)
    if rng.random() < 0.4 and A.dim > 1:
        picks = [i for i in range(A.dim) if i != A.unit_index and rng.random() < 0.4]
        if picks:
            S = product_span(M, [A.basis_element(i) for i in picks])
            Q = quotient(M, S)
            if Q.dim > 0:
                return Q
    return M


def random_nilpotent_ideal(rng, A):
    """Span of random non-unit elements: nilpotent in a capped algebra."""
    elems = []
    for i in range(A.dim):
        if i == A.unit_index:
            continue
        if rng.random() < 0.5:
            elems.append(A.basis_element(i))
    if not elems and A.dim > 1:
        pick = rng.choice([i for i in range(A.dim) if i != A.unit_index])
        elems.append(A.basis_element(pick))
    return superideal_span(A, elems)


def rng_for(name):
    """Deterministic per-test generator; the seed is the test's name."""
    return random.Random(name)


# -- random cochains (seeded by the caller) ----------------------------------


def random_scalar(field, rng, nonzero=False):
    if field.characteristic == 0:
        lo = 1 if nonzero else -4
        return field.of(rng.randint(lo, 4) if nonzero else rng.randint(-4, 4))
    p = field.characteristic
    return field.of(rng.randrange(1, p) if nonzero else rng.randrange(p))


def random_cochain(A, M, n, parity, rng, density=0.6):
    table = {}
    for tup in itertools.product(range(A.dim), repeat=n + 1):
        want = (parity + sum(A.parities[i] for i in tup)) % 2
        vec = {}
        for r in range(M.dim):
            if M.parities[r] == want and rng.random() < density:
                c = random_scalar(A.field, rng)
                if c:
                    vec[r] = c
        if vec:
            table[tup] = vec
    return Cochain(n, parity, table)


def random_in_C(A, M, n, parity, rng):
    basis = cochain_space_basis(A, M, n, parity)
    out = zero_cochain(n, parity)
    for f in basis:
        c = random_scalar(A.field, rng)
        if c:
            out = cochain_add(out, f, A.field, c)
    return out


def random_super_skew(A, rng, density=0.7):
    """A random odd super-skew pi (not usually a cocycle)."""
    dim = A.dim
    field = A.field
    table = {}
    for i in range(dim):
        for j in range(i, dim):
            if i == j and A.parities[i] == ODD:
                continue
            want = (1 + A.parities[i] + A.parities[j]) % 2
            vec = {}
            for r in range(dim):
                if A.parities[r] == want and rng.random() < density:
                    c = random_scalar(field, rng)
                    if c:
                        vec[r] = c
            if not vec:
                continue
            table[(i, j)] = vec
            if i != j:
                if A.parities[i] and A.parities[j]:
                    table[(j, i)] = {r: -c for r, c in vec.items()}
                else:
                    table[(j, i)] = dict(vec)
    return Cochain(1, ODD, table)
