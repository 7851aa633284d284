"""Module axioms, submodules, quotients, odd-regular elements and the one
module action."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdim.algebra import (
    Presentation,
    compile_presentation,
    count_monomials,
    odd_radical,
    quotient_algebra,
    superideal_span,
)
from superdim.corpus import build_c2
from superdim.exactlin import Matrix, QQ, PrimeField, Subspace, kernel_of_constraints
from superdim.graded import bgr_module, gr_module
from superdim.sdim import sdim
from superdim.smodule import (
    ModuleError,
    RegularModule,
    check_module,
    is_action_closed,
    is_odd_regular,
    module_from_actions,
    module_span,
    product_span,
    quotient,
    regular_module,
    sequence_quotient,
    submodule,
)

from superdim.algebra import words_past_cap
from superdim.superpoly import ASSOCIATIVE, EVEN, ODD, SUPERCOMMUTATIVE, GeneratorSpec
from superdim.textio import parse_module, parse_presentation

from conftest import (
    parity_shift,
    random_algebra,
    random_module,
    random_nilpotent_ideal,
    random_scalar,
    rng_for,
)
from oracles import (
    apply_element,
    coords_submodule,
    eager_quotient,
    eager_quotient_algebra,
    eager_regular_module,
    full_cap_window,
    identity_first_word_action,
    one_letter_extensions,
)
from test_algebra import _weighted_presentation, grassmann

FIELDS = [QQ, PrimeField(2), PrimeField(5)]


def is_regular_sequence(ys, M):
    """Each y_i regular on M / (R y_1 + ... + R y_{i-1}) M."""
    return sequence_quotient(ys, M)[0]


def product_submodule(M, elements, name=None):
    """The submodule S.M with its inherited action."""
    return submodule(M, product_span(M, elements), name=name or ("S." + M.name))


def annihilator_even(M):
    """Sparse basis of {a in A_0 : a.M = 0} in even-part coordinates.

    Returns (even_positions, kernel_vectors): kernel vectors are dicts over
    slots of ``even_positions``.
    """
    A = M.algebra
    evens = [i for i in range(A.dim) if A.parities[i] == EVEN]
    acts = [M.act_basis(i).cols_sparse() for i in evens]

    def constraints():
        for j in range(M.dim):
            per_row = {}
            for slot, cols in enumerate(acts):
                for r, x in cols[j].items():
                    per_row.setdefault(r, {})[slot] = x
            for r in sorted(per_row):
                yield per_row[r]

    ker = kernel_of_constraints(len(evens), constraints(), M.field)
    return evens, ker


LAMBDA4_X3 = """algebra lambda4x over Q
flavor supercommutative
even x
odd z1 z2 z3 z4
cap 6
relations
  x^3
end
"""


class TestRegularModule:
    """The regular module acts by the multiplication table; the eager
    oracle composes generator matrices along each basis word."""

    def _assert_acts_as_oracle(self, A):
        M, oracle = regular_module(A), eager_regular_module(A)
        for i in range(A.dim):
            assert M.act_basis(i) == oracle.act_basis(i), A.labels[i]
        assert M.actions == oracle.actions

    def test_monomial_kind_matches_word_composition(self):
        A = compile_presentation(parse_presentation(LAMBDA4_X3))
        assert A.kind == "monomial" and A.dim == 48
        self._assert_acts_as_oracle(A)

    def test_table_kind_matches_generator_matrices(self, c2):
        assert c2.R.kind == "table"
        self._assert_acts_as_oracle(c2.R)

    def test_generator_matrices_are_built_when_read(self):
        M = regular_module(grassmann(3))
        assert "actions" not in vars(M) and M._act_basis == {}
        assert check_module(M) == []
        assert "actions" in vars(M)

    def test_parsed_regular_module_is_the_regular_module(self):
        A = grassmann(2)
        M = parse_module("module regular\n", A)
        assert isinstance(M, RegularModule) and M.name == regular_module(A).name


class TestWordAction:
    """A basis monomial of a monomial-kind algebra acts by the generator
    matrices composed along its word, starting from the last letter; the
    composition onto an identity of tests/oracles.py is the reference."""

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_matches_identity_first_composition(self, field):
        rng = rng_for("word-action-%s" % field)
        lengths = set()
        for _ in range(8):
            A = random_algebra(rng, max_gens=4, max_cap=4, max_dim=40, field=field)
            assert A.kind == "monomial"
            M = random_module(rng, A)
            M = module_from_actions(A, M.parities, M.actions)
            for i in range(A.dim):
                word = A.basis_word(i)
                got = M.act_basis(i)
                assert got == identity_first_word_action(M, word)
                if len(word) == 1:
                    # the generator's own matrix, shared
                    assert got is M.actions[word[0]]
                lengths.add(min(len(word), 2))
        assert lengths == {0, 1, 2}


class TestConstruction:
    def test_action_count_must_match_generators(self):
        A = grassmann(2)
        M = regular_module(A)
        with pytest.raises(ModuleError):
            module_from_actions(A, M.parities, M.actions[:1])

    def test_action_shape_must_match_dim(self):
        A = grassmann(1)
        bad = Matrix.identity(3, QQ)
        with pytest.raises(ModuleError):
            module_from_actions(A, [0, 1], [bad])

    def test_regular_module_satisfies_axioms(self):
        rng = rng_for("test_regular_module_satisfies_axioms")
        for _ in range(10):
            A = random_algebra(rng, max_dim=14)
            assert check_module(regular_module(A)) == []

    def test_regular_action_is_left_multiplication(self):
        A = grassmann(2)
        M = regular_module(A)
        z1 = A.generator_element("z1")
        for j in range(A.dim):
            b = A.basis_element(j)
            assert apply_element(M, z1, b) == A.mul(z1, b)
            assert M.act_element(z1).apply(b) == A.mul(z1, b)

    def test_random_modules_satisfy_axioms(self):
        rng = rng_for("test_random_modules_satisfy_axioms")
        for _ in range(10):
            A = random_algebra(rng, max_dim=12)
            assert check_module(random_module(rng, A)) == []


class TestParityShift:
    def test_involution(self):
        A = grassmann(2)
        M = regular_module(A)
        MM = parity_shift(parity_shift(M))
        assert MM.parities == M.parities
        assert MM.actions == M.actions

    def test_flips_parities_and_keeps_axioms(self):
        A = grassmann(2)
        P = parity_shift(regular_module(A))
        assert P.parities == [1 - p for p in regular_module(A).parities]
        assert check_module(P) == []


def _dense_basis(M, rng):
    """M in the basis U e_j, U = I + N with N strictly upper triangular and
    random between coordinates of one parity: an isomorphic module whose
    action matrices are dense."""
    field, n = M.field, M.dim
    N = Matrix.from_cols_sparse(n, [
        {i: random_scalar(field, rng) for i in range(j) if M.parities[i] == M.parities[j]}
        for j in range(n)
    ], field)
    identity = Matrix.identity(n, field)
    U, inverse, term = identity + N, identity, identity
    for _ in range(n):  # U^-1 = sum_k (-N)^k, and N^n = 0
        term = term.compose(-N)
        inverse = inverse + term
    actions = [inverse.compose(mat.compose(U)) for mat in M.actions]
    return module_from_actions(M.algebra, M.parities, actions, name="U^-1 " + M.name)


class TestSubmoduleAndQuotient:
    def test_product_span_of_grassmann_generator(self):
        for s in (1, 2, 3):
            A = grassmann(s)
            M = regular_module(A)
            S = product_span(M, [A.generator_element("z1")])
            assert S.dim == 2 ** (s - 1)
            assert is_action_closed(M, S)

    def test_submodule_satisfies_axioms(self):
        A = grassmann(3)
        M = regular_module(A)
        N = product_submodule(M, [A.generator_element("z1")])
        assert N.dim == 4
        assert check_module(N) == []

    def test_quotient_dim_and_axioms(self):
        rng = rng_for("test_quotient_dim_and_axioms")
        for _ in range(8):
            A = random_algebra(rng, max_dim=12)
            M = regular_module(A)
            I = odd_radical(A)
            S = product_span(M, I)
            Q = quotient(M, S)
            assert Q.dim == M.dim - S.dim
            assert check_module(Q) == []

    def test_quotient_rejects_open_subspace(self):
        A = grassmann(2)
        M = regular_module(A)
        from superdim.exactlin import Subspace

        S = Subspace(M.parities, M.field)
        S.insert(A.generator_element("z1"))  # z2 pushes it out
        with pytest.raises(ModuleError):
            quotient(M, S)

    def test_submodule_coords_reject_outside_vector(self):
        # z2 z1 has no coordinates in the span {z1}: it is not action-closed
        A = grassmann(2)
        M = regular_module(A)
        S = Subspace(M.parities, M.field)
        S.insert(A.generator_element("z1"))
        with pytest.raises(ModuleError):
            submodule(M, S)

    def test_submodule_matches_span_coordinates(self):
        """Coordinates read off pivot entries are those the span solves
        for, key order included, on random modules and closed spans.  Every
        other module is moved to a basis where its actions are dense, so
        that images hold several pivots, out of ascending order."""
        rng = rng_for("submodule-pivot-entries")
        seen = unsorted = 0
        for trial in range(40):
            field = (QQ, PrimeField(2), PrimeField(5))[trial % 3]
            A = random_algebra(rng, max_gens=4, max_cap=4, max_dim=24, field=field)
            M = random_module(rng, A)
            if trial % 2:
                M = _dense_basis(M, rng)
            elements = [A.basis_element(i) for i in range(A.dim) if rng.random() < 0.3]
            seeds = [
                {j: field.of(rng.randint(1, 4)) for j in range(M.dim) if rng.random() < 0.3}
                for _ in range(rng.randint(1, 3))
            ]
            for S in (product_span(M, elements), module_span(M, seeds)):
                got, want = submodule(M, S), coords_submodule(M, S)
                assert got.parities == want.parities
                assert len(got.actions) == len(want.actions)
                for a, b in zip(got.actions, want.actions):
                    assert [list(c.items()) for c in a.cols] == [list(c.items()) for c in b.cols]
                seen += 0 < S.dim < M.dim
                pivots = set(S.pivots())
                for mat in M.actions:
                    for row in S.basis():
                        keys = [c for c in mat.apply(row) if c in pivots]
                        unsorted += keys != sorted(keys)
        assert seen >= 20 and unsorted >= 50


def _assert_same_module(got, want):
    """Equal parities, action of every algebra basis element and generator
    matrices."""
    assert got.parities == want.parities
    for i in range(got.algebra.dim):
        assert got.act_basis(i) == want.act_basis(i), got.algebra.labels[i]
    assert got.actions == want.actions


def _assert_same_algebra(got, want):
    """Equal basis data, odd module generators and every basis product."""
    assert (got.labels, got.parities, got.unit_index) == (
        want.labels,
        want.parities,
        want.unit_index,
    )
    assert got.odd_module_generators() == want.odd_module_generators()
    for i in range(got.dim):
        for j in range(got.dim):
            assert got.mul_basis(i, j) == want.mul_basis(i, j), (i, j)


class TestQuotientsAgainstEager:
    """``quotient``, ``submodule`` and ``quotient_algebra`` solve an action
    or a product when it is read; the eager builders they replaced
    (tests/oracles.py) are the reference, on every act_basis, every
    generator matrix and every mul_basis pair."""

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_random_modules_and_algebras(self, field):
        """Every other module is moved to a basis where its actions are
        dense, so that a projected column holds several entries."""
        rng = rng_for("lazy-quotients-%s" % field)
        dense = 0
        for trial in range(12):
            A = random_algebra(rng, max_gens=4, max_cap=4, max_dim=24, field=field)
            M = random_module(rng, A)
            if trial % 2:
                M = _dense_basis(M, rng)
            dense += sum(len(c) > 1 for i in range(A.dim) for c in M.act_basis(i).cols)
            for I in (odd_radical(A), random_nilpotent_ideal(rng, A)):
                S = product_span(M, I)
                _assert_same_module(quotient(M, S), eager_quotient(M, S))
                _assert_same_module(submodule(M, S), coords_submodule(M, S))
                _assert_same_algebra(quotient_algebra(A, I), eager_quotient_algebra(A, I))
        assert dense >= 15

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_flat_case_quotients(self, field):
        data = build_c2(field)
        R, y = data.R, data.y
        MR = regular_module(R)
        S = product_span(MR, [y])
        _assert_same_module(quotient(MR, S), eager_quotient(MR, S))
        _assert_same_algebra(
            quotient_algebra(R, superideal_span(R, [y])),
            eager_quotient_algebra(R, superideal_span(R, [y])),
        )
        for s in (1, 2, 3):
            lam = grassmann(s, field)
            I = superideal_span(lam, [lam.generator_element("z1")])
            _assert_same_algebra(quotient_algebra(lam, I), eager_quotient_algebra(lam, I))


class TestQuotientsOnDemand:
    """A quotient or submodule solves nothing when it is built: on c2's
    R/Ry, sdim reads the 16 odd actions of the 32.  A quotient algebra
    starts with an empty table."""

    def test_c2_quotient_and_submodule_solve_what_sdim_reads(self, c2):
        MR = regular_module(c2.R)
        S = product_span(MR, [c2.y])
        for N in (quotient(MR, S), submodule(MR, S)):
            assert N._act_basis == {} and "actions" not in vars(N)
            sdim(N)
            assert c2.R.dim == 32 and len(N._act_basis) == 16
            assert check_module(N) == []

    def test_quotient_algebra_table_starts_empty(self, c2):
        lam = grassmann(3)
        for A, y in ((c2.R, c2.y), (lam, lam.generator_element("z1"))):
            Q = quotient_algebra(A, superideal_span(A, [y]))
            assert Q._table == {}
            Q.mul_basis(Q.dim - 1, Q.unit_index)
            assert list(Q._table) == [(Q.dim - 1, Q.unit_index)]


class TestAnnihilator:
    def test_kernel_vectors_annihilate(self):
        rng = rng_for("test_annihilator_kernel_vectors_annihilate")
        for _ in range(6):
            A = random_algebra(rng, max_dim=12)
            M = random_module(rng, A)
            evens, ker = annihilator_even(M)
            for v in ker:
                a = {evens[slot]: c for slot, c in v.items()}
                assert M.act_element(a).is_zero()

    def test_regular_module_is_faithful_for_grassmann(self):
        A = grassmann(2)
        _evens, ker = annihilator_even(regular_module(A))
        assert ker == []


class TestRegularElements:
    def test_grassmann_generators_are_regular(self):
        for s in (1, 2, 3):
            A = grassmann(s)
            M = regular_module(A)
            for i in range(1, s + 1):
                assert is_odd_regular(A.generator_element("z%d" % i), M)

    def test_full_generator_sequence_is_regular(self):
        A = grassmann(3)
        M = regular_module(A)
        ys = [A.generator_element("z%d" % i) for i in (1, 2, 3)]
        assert is_regular_sequence(ys, M)

    def test_sum_of_generators_is_regular(self):
        A = grassmann(2)
        M = regular_module(A)
        z1 = A.generator_element("z1")
        z2 = A.generator_element("z2")
        y = dict(z1)
        for i, c in z2.items():
            y[i] = y.get(i, A.field.zero) + c
        assert is_odd_regular(y, M)

    def test_zero_is_not_regular_on_nonzero_module(self):
        A = grassmann(1)
        M = regular_module(A)
        z = A.generator_element("z1")
        zero = {k: 0 * c for k, c in z.items()}
        # homogeneity check happens first; give it an honest odd zero
        assert A.element_parity(z) == 1
        Q = quotient(M, product_span(M, [z]))
        assert not is_odd_regular(z, Q)

    def test_even_element_rejected(self):
        A = grassmann(2)
        M = regular_module(A)
        with pytest.raises(ModuleError):
            is_odd_regular(A.unit_element(), M)

    def test_non_square_zero_action_rejected(self):
        # a dim-2 space where the odd generator acts as a swap: its square
        # acts as the identity, so the regularity test must refuse it
        A = grassmann(1)
        one = QQ.one
        swap = Matrix.from_cols_sparse(2, [{1: one}, {0: one}], QQ)
        M = module_from_actions(A, [0, 1], [swap])
        with pytest.raises(ModuleError):
            is_odd_regular(A.generator_element("z1"), M)


class TestCapWindow:
    """The words past the cap that ``check_module`` reads.  A module over the
    cap-4 algebra seen over the cap-2 one: the words of degree 3 and 4 that
    no relation kills act nontrivially."""

    TEXTS = {
        SUPERCOMMUTATIVE: (
            "algebra a over Q\nflavor supercommutative\neven x y(2,0)\nodd z\n"
            "cap %d\nrelations\n x^2\nend\n"
        ),
        "associative": (
            "algebra a over Q\nflavor associative\neven a c(2,0)\nodd b\n"
            "cap %d\nrelations\n a*b - b*a\nend\n"
        ),
    }
    # check_module's violations on these modules, recorded before the
    # supercommutative window was read off algebra._enumerate_monomials
    RECORDED = {
        SUPERCOMMUTATIVE: ["x*y", "x*y*z", "y*y", "y*z"],
        "associative": [
            "a*a*a", "a*a*b", "a*a*c", "a*b*a", "a*b*b", "a*b*c", "a*c", "b*a*a", "b*a*b",
            "b*a*c", "b*b*a", "b*b*b", "b*b*c", "b*c", "c*a", "c*b", "c*c",
        ],
    }

    @pytest.mark.parametrize("flavor", sorted(TEXTS))
    def test_words_past_the_cap_are_reported(self, flavor):
        text = self.TEXTS[flavor]
        low = compile_presentation(parse_presentation(text % 2))
        high = regular_module(compile_presentation(parse_presentation(text % 4)))
        bad = check_module(module_from_actions(low, high.parities, high.actions))
        want = ["word beyond the cap acts nontrivially: %s" % w for w in self.RECORDED[flavor]]
        assert sorted(bad) == want

    @pytest.mark.parametrize("flavor", [SUPERCOMMUTATIVE, ASSOCIATIVE])
    def test_window_is_the_one_letter_extensions(self, flavor):
        # the words of algebra.words_past_cap, pinned against words grown
        # letter by letter; the window of each flavor before it: equal for
        # the associative flavor, a superset for the supercommutative one
        rng = rng_for("cap-window-%s" % flavor)
        for _trial in range(400):
            gens = []
            for i in range(rng.randint(0, 4)):
                parity = rng.choice((EVEN, ODD))
                l = rng.choice((0, 2) if parity == EVEN else (1, 3))
                k = rng.randint(0 if l else 1, 3)
                gens.append(GeneratorSpec("g%d" % i, parity, (k, l)))
            pres = Presentation(flavor, gens, [], rng.randint(0, 8), QQ)
            if count_monomials(pres, 400) is None:
                continue
            gdegs = [g.bidegree[0] + g.bidegree[1] for g in gens]
            words = words_past_cap(compile_presentation(pres))
            assert set(words) == one_letter_extensions(pres.gens, flavor, pres.cap)
            assert words == sorted(set(words), key=lambda w: (sum(gdegs[i] for i in w), w))
            full = full_cap_window(pres)
            if flavor == ASSOCIATIVE:
                assert set(words) == set(full)
            else:
                assert set(words) <= set(full)

    def test_verdict_matches_the_full_window(self):
        """check_module against the window it read before, on modules over
        a higher cap moved to a lower one (possibly shifted, quotiented or
        with one entry changed), so that many fail only past the cap."""
        rng = rng_for("cap-window-verdict")
        past_cap_only = 0
        for trial in range(420):
            field = FIELDS[trial % 3]
            flavor = (SUPERCOMMUTATIVE, ASSOCIATIVE)[trial // 3 % 2]
            pres = _weighted_presentation(rng, flavor, field)
            cap = pres.cap + rng.randint(0, 3)
            while True:
                high = Presentation(flavor, pres.gens, pres.relations, cap, field)
                if count_monomials(high, 150) is not None:
                    break
                cap -= 1
            low = compile_presentation(pres)
            N = random_module(rng, compile_presentation(high))
            actions = list(N.actions)
            if rng.random() < 0.2 and N.dim:
                gi = rng.randrange(len(actions))
                cols = [dict(col) for col in actions[gi].cols]
                cols[rng.randrange(N.dim)][rng.randrange(N.dim)] = field.one
                actions[gi] = Matrix.from_cols_sparse(N.dim, cols, field)
            M = module_from_actions(low, N.parities, actions)
            bad = check_module(M)
            past = [b for b in bad if b.startswith("word beyond the cap")]
            reference = [
                w for w in full_cap_window(pres)
                if not identity_first_word_action(M, w).is_zero()
            ]
            assert bool(past) == bool(reference)
            names = {"*".join(pres.gens[i].name for i in w) for w in reference}
            assert {b.rsplit(": ", 1)[1] for b in past} <= names
            past_cap_only += bool(bad) and len(past) == len(bad)
        assert past_cap_only >= 100, past_cap_only


# ---------------------------------------------------------------------------
# one module action: act_element matrices against the term-by-term reference


def _random_vector(rng, field, dim):
    vec = {i: field.of(rng.randint(1, 4)) for i in range(dim) if rng.random() < 0.4}
    return {i: x for i, x in vec.items() if x}


class TestOneModuleAction:
    """An algebra element acts on a module only through ``act_element`` and
    ``Matrix.apply``; ``apply_element`` of tests/oracles.py, the term-by-term
    action the package had before, is the reference."""

    @given(st.sampled_from(FIELDS), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matrices_agree_with_the_term_by_term_action(self, field, seed, plain):
        rng = random.Random(seed)
        A = random_algebra(rng, max_gens=4, max_cap=4, max_dim=40, field=field)
        M = random_module(rng, A)
        if plain:  # the same module with no RegularModule shortcut
            M = module_from_actions(A, M.parities, M.actions)
        elems = [_random_vector(rng, field, A.dim) for _ in range(3)]
        elems.append(A.basis_element(rng.randrange(A.dim)))
        probes = [M.basis_element(j) for j in range(M.dim)]
        probes += [_random_vector(rng, field, M.dim) for _ in range(3)]
        for a in elems:
            mat = M.act_element(a)
            for v in probes:
                assert mat.apply(v) == apply_element(M, a, v)
        seeds = [apply_element(M, a, M.basis_element(j)) for a in elems for j in range(M.dim)]
        want = module_span(M, seeds)
        got = product_span(M, elems)
        assert got.basis_with_parity() == want.basis_with_parity()

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_cached_basis_matrices_are_never_written(self, field):
        # product_span seeds its closure with the cached act_basis columns
        # themselves, and the graded modules act by the cached matrices
        rng = rng_for("cached-act-basis-%s" % field)
        for _ in range(6):
            A = random_algebra(rng, max_gens=4, max_cap=4, max_dim=40, field=field)
            M = parity_shift(regular_module(A))
            mats = [M.act_basis(i) for i in range(A.dim)]
            before = copy.deepcopy([m.cols for m in mats + M.actions])
            ys = [g for _label, parity, g in A.generators if parity == ODD]
            for I in (odd_radical(A), random_nilpotent_ideal(rng, A)):
                product_span(M, I)
                gr_module(M, I)
                bgr_module(M, I)
            sequence_quotient(ys, M)
            assert all(M.act_basis(i) is m for i, m in enumerate(mats))
            assert [m.cols for m in mats + M.actions] == before
