from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdim.exactlin import (
    MAX_FIELD_ORDER,
    Echelon,
    Matrix,
    PrimeField,
    QQ,
    Subspace,
    _pivot_rows,
    field_from_name,
    in_span,
    kernel_basis,
    kernel_of_constraints,
    leading_columns,
    rank,
    representatives,
    row_rank,
    rref,
    solve,
    solve_sparse,
    vec_add_scaled,
    vec_dot,
)

from conftest import random_scalar, rng_for
from oracles import (
    DenseMatrix,
    dense_kernel_basis,
    dense_rank,
    dense_rref,
    dense_solve,
    FractionEchelon,
    ScanEchelon,
    FpElement,
    FpElementField,
    FractionRationalField,
    fraction_kernel_of_constraints,
    fraction_solve_sparse,
    fp_values,
    naive_rank,
    scan_representatives,
    TwoEchelonSubspace,
)

scalars = st.integers(min_value=-6, max_value=6)


def dense(rows):
    return Matrix.from_rows([[Fraction(x) for x in r] for r in rows], QQ)


class TestFields:
    def test_field_from_name(self):
        assert field_from_name("q") is QQ
        assert field_from_name("F5").p == 5
        with pytest.raises(ValueError):
            field_from_name("F4")
        with pytest.raises(ValueError):
            field_from_name("zz")

    def test_order_past_the_bound_is_refused(self):
        # 2^31 - 1 is prime and admitted; past the bound no trial division runs
        assert PrimeField(MAX_FIELD_ORDER - 1).p == MAX_FIELD_ORDER - 1
        with pytest.raises(ValueError, match="past the bound %d" % MAX_FIELD_ORDER):
            PrimeField(10**30 + 57)

    def test_fp_arithmetic(self):
        # a GF(p) scalar is an int in 0..p-1; a sum or product is reduced by of()
        F = PrimeField(7)
        a = F.of(3)
        b = F.of(5)
        assert type(a) is int and (a, b) == (3, 5)
        assert F.of(a + b) == 1
        assert F.of(a * b) == 1
        assert F.of(a - b) == 5
        assert F.of(a * F.inv(b)) == (3 * pow(5, 5, 7)) % 7
        assert F.neg(a) == 4 and F.neg(F.zero) == 0
        assert not F.zero and (F.zero, F.one) == (0, 1)
        assert F.of(Fraction(1, 3)) == F.inv(3) == 5
        assert F.of(-1) == 6 and F.of(Fraction(-2, 3)) == F.of(-2 * 5)

    def test_fp_mixed_ints(self):
        # the reference FpElement mixes with plain ints in either operand order
        assert FpElement(2, 5) + 4 == FpElement(1, 5)
        assert 3 * FpElement(4, 5) == FpElement(2, 5)
        assert 1 - FpElement(3, 5) == FpElement(3, 5)

    def test_rational_of(self):
        assert QQ.of(2) == Fraction(2)
        assert QQ.of(Fraction(1, 3)) == Fraction(1, 3)
        # an integral rational is a plain int, whatever it came from
        for x in (2, Fraction(4, 2), "-3", True):
            assert type(QQ.of(x)) is int
        assert type(QQ.zero) is int and type(QQ.one) is int

    def test_inverses(self):
        assert QQ.inv(1) == 1 and QQ.inv(-1) == -1
        assert QQ.inv(2) == Fraction(1, 2)
        assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
        assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(-1, 3)) == -3
        F = PrimeField(5)
        assert F.inv(F.of(2)) == F.of(3)
        assert F.inv(4) == 4 and PrimeField(2).inv(1) == 1
        with pytest.raises(ZeroDivisionError):
            QQ.inv(0)
        # pow(0, -1, p) would raise ValueError, which the exit-2 sites do not catch
        for zero in (F.zero, 5, -10):
            with pytest.raises(ZeroDivisionError):
                F.inv(zero)
        with pytest.raises(ZeroDivisionError):
            F.of(Fraction(1, 5))


class TestSparseVectors:
    def test_add_scaled_cancels(self):
        v = {0: Fraction(1), 2: Fraction(3)}
        vec_add_scaled(v, {0: Fraction(1), 1: Fraction(2)}, Fraction(-1), QQ)
        assert v == {1: Fraction(-2), 2: Fraction(3)}

    def test_add_scaled_reduces_mod_p(self):
        F = PrimeField(5)
        v = {0: 1, 2: 3}
        # any int coefficient; every updated entry lands in 0..4
        vec_add_scaled(v, {0: 1, 1: 2, 2: 1}, -1, F)
        assert v == {1: 3, 2: 2}
        assert vec_add_scaled(dict(v), {1: 1}, 10, F) == v

    def test_dot_none_is_zero(self):
        assert vec_dot({0: Fraction(1)}, {1: Fraction(5)}, QQ) is None
        assert vec_dot({0: 2, 1: 3}, {0: 1, 1: 1}, PrimeField(5)) == 0


class TestEchelonAndRank:
    @given(
        st.lists(
            st.lists(scalars, min_size=4, max_size=4), min_size=1, max_size=6
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_naive(self, rows):
        m = dense(rows)
        assert rank(m) == naive_rank(rows)

    @given(
        st.lists(
            st.lists(scalars, min_size=3, max_size=3), min_size=1, max_size=5
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, rows):
        m = dense(rows)
        assert rank(m) + len(kernel_basis(m)) == m.ncols

    @given(
        st.lists(
            st.lists(scalars, min_size=3, max_size=3), min_size=1, max_size=5
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_kernel_vectors_annihilate(self, rows):
        m = dense(rows)
        for v in kernel_basis(m):
            assert not m.apply({i: x for i, x in enumerate(v) if x})

    def test_echelon_coords_reconstruct(self):
        e = Echelon(QQ)
        assert e.insert({0: Fraction(1), 1: Fraction(2)}) is not None
        assert e.insert({1: Fraction(1), 2: Fraction(1)}) is not None
        assert e.insert({0: Fraction(2), 1: Fraction(5), 2: Fraction(1)}) is None
        target = {0: Fraction(3), 1: Fraction(7), 2: Fraction(1)}
        coords = e.coords(target)
        rebuilt = {}
        for c, row in zip(coords, e.basis_rows()):
            vec_add_scaled(rebuilt, row, c, QQ)
        assert rebuilt == target
        assert e.coords({2: Fraction(1)}) is None

    def test_in_span(self):
        vs = [[Fraction(1), Fraction(0), Fraction(0)], [Fraction(0), Fraction(1), Fraction(0)]]
        assert in_span(vs, [Fraction(2), Fraction(-1), Fraction(0)], QQ)
        assert not in_span(vs, [Fraction(0), Fraction(0), Fraction(1)], QQ)
        # the field is explicit: (1, 1) spans (2, 2) and, over F2, (0, 0) only
        F2 = PrimeField(2)
        assert in_span([[1, 1]], [0, 0], F2) and not in_span([[1, 1]], [1, 0], F2)
        assert in_span([[1, 2]], [2, 1], PrimeField(3)) and not in_span([[1, 2]], [2, 1], QQ)
        assert in_span([], [0, 0], QQ) and not in_span([], [0, 1], QQ)


class TestSolvers:
    def test_solve_consistent(self):
        m = dense([[1, 2], [3, 4]])
        b = [Fraction(5), Fraction(11)]
        x = solve(m, list(b))
        assert x is not None
        image = m.apply({i: c for i, c in enumerate(x) if c})
        assert [image.get(i, Fraction(0)) for i in range(2)] == b

    def test_solve_inconsistent(self):
        m = dense([[1, 1], [2, 2]])
        assert solve(m, [Fraction(1), Fraction(3)]) is None

    @given(
        st.lists(st.lists(scalars, min_size=3, max_size=3), min_size=1, max_size=4),
        st.lists(scalars, min_size=3, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_solve_sparse_substitutes(self, rows, xs):
        # build a consistent system from a known solution, then solve
        eqs = []
        for r in rows:
            lhs = {i: Fraction(c) for i, c in enumerate(r) if c}
            rhs = sum(Fraction(c) * x for c, x in zip(r, xs))
            eqs.append((lhs, rhs))
        sol = solve_sparse(3, eqs, QQ)
        assert sol is not None
        for lhs, rhs in eqs:
            assert sum(sol[i] * c for i, c in lhs.items()) == rhs

    def test_kernel_of_constraints(self):
        # x0 + x1 = 0 over F3
        F = PrimeField(3)
        basis = kernel_of_constraints(3, [{0: F.one, 1: F.one}], F)
        assert len(basis) == 2
        for v in basis:
            assert not F.of(v.get(0, F.zero) + v.get(1, F.zero))


def _mixed_scalar(rng):
    """Zero, a unit, a non-unit integer or a proper fraction, as QQ.of gives
    them."""
    kind = rng.random()
    if kind < 0.3:
        return 0
    if kind < 0.5:
        return rng.choice((1, -1))
    if kind < 0.75:
        return rng.choice((2, 3, 4, 6, 9)) * rng.choice((1, -1))
    return QQ.of(Fraction(rng.randint(-7, 7), rng.randint(2, 5)))


def _assert_exact(scalars):
    """Each scalar is an int or a Fraction: never a float or a bool."""
    for x in scalars:
        assert type(x) in (int, Fraction), (x, type(x))


class TestIntegralRationals:
    """Int-or-Fraction scalars over Q against the Fraction-only kernels."""

    def test_agree_with_fraction_only_oracle(self):
        rng = rng_for("integral-rationals")
        FQ = FractionRationalField()
        for _trial in range(200):
            nvars = rng.randint(1, 7)
            eqs = []
            for _ in range(rng.randint(0, 8)):
                row = {j: x for j in range(nvars) if (x := _mixed_scalar(rng))}
                eqs.append((row, _mixed_scalar(rng)))
            frac_eqs = [({j: Fraction(x) for j, x in r.items()}, Fraction(b)) for r, b in eqs]
            ech, oracle = Echelon(QQ), FractionEchelon(FQ)
            for (row, _b), (frow, _fb) in zip(eqs, frac_eqs):
                assert ech.insert(row) == oracle.insert(frow)
            assert ech.pivots() == oracle.pivots()
            assert ech.rows == oracle.rows
            _assert_exact(x for r in ech.rows.values() for x in r.values())

            x = solve_sparse(nvars, eqs, QQ)
            assert x == fraction_solve_sparse(nvars, frac_eqs, FQ)
            if x is not None:
                _assert_exact(x)

            rows = [r for r, _b in eqs]
            kernel = kernel_of_constraints(nvars, rows, QQ)
            assert kernel == fraction_kernel_of_constraints(
                nvars, [f for f, _fb in frac_eqs], FQ
            )
            _assert_exact(x for v in kernel for x in v.values())
            for v in kernel:
                assert all(vec_dot(r, v, QQ) is None or vec_dot(r, v, QQ) == 0 for r in rows)


class TestRowRank:
    """The forward-only rank against the fully reduced Echelon."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=str)
    def test_matches_echelon_rank(self, field):
        rng = rng_for("row-rank-%s" % field)
        scalar = _mixed_scalar if field == QQ else (lambda r: random_scalar(field, r))
        for _trial in range(200):
            ncols = rng.randint(1, 8)
            vectors = []
            for _ in range(rng.randint(0, 9)):
                if len(vectors) >= 2 and rng.random() < 0.3:
                    u, w = rng.sample(vectors, 2)
                    vectors.append(vec_add_scaled(dict(u), w, scalar(rng) or field.one, field))
                else:
                    vectors.append({j: x for j in range(ncols) if (x := scalar(rng))})
            given = [dict(v) for v in vectors]
            ech = Echelon(field)
            for v in vectors:
                ech.insert(v)
            rows = _pivot_rows(vectors, field)
            assert len(rows) == row_rank(vectors, field) == ech.rank
            assert vectors == given
            for piv, row in rows.items():
                assert max(row) == piv and row[piv] == field.one
            # the leading columns are those of the span, in any input order
            lead = leading_columns(vectors, field)
            assert list(lead) == list(rows)
            assert set(leading_columns(reversed(vectors), field)) == set(lead)
            if field == QQ:
                _assert_exact(x for r in rows.values() for x in r.values())

    def test_leading_columns_are_those_of_the_span(self):
        F2 = PrimeField(2)
        rng = rng_for("leading-columns")
        for _trial in range(60):
            vectors = [{j: 1 for j in range(6) if rng.random() < 0.4} for _ in range(rng.randint(0, 5))]
            leads = set()
            for pick in range(1, 1 << len(vectors)):
                acc = {}
                for i, v in enumerate(vectors):
                    if pick >> i & 1:
                        vec_add_scaled(acc, v, 1, F2)
                if acc:
                    leads.add(max(acc))
            assert set(leading_columns(vectors, F2)) == leads


class TestMatrix:
    def test_compose_apply_agree(self):
        a = dense([[1, 2], [0, 1]])
        b = dense([[1, 0], [3, 1]])
        v = {0: Fraction(1), 1: Fraction(1)}
        assert a.compose(b).apply(v) == a.apply(b.apply(v))

    def test_from_cols_sparse_roundtrip(self):
        cols = [{0: Fraction(1)}, {}, {1: Fraction(-2)}]
        m = Matrix.from_cols_sparse(2, cols, QQ)
        assert m.cols_sparse() == cols
        assert m.row(0) == [Fraction(1), Fraction(0), Fraction(0)]

    def test_rref_idempotent(self):
        m = dense([[2, 4], [1, 3]])
        r1, piv = rref(m)
        r2, piv2 = rref(r1)
        assert r1 == r2 and piv == piv2


def _random_scalar(rng, field, density):
    if rng.random() >= density:
        return field.zero
    if field == QQ:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return field.of(rng.randrange(field.p))


def _random_rows(rng, field, nrows, ncols, density):
    return [[_random_scalar(rng, field, density) for _ in range(ncols)] for _ in range(nrows)]


def _pair(rows, field, ncols):
    return Matrix.from_rows(rows, field, ncols), DenseMatrix.from_rows(rows, field, ncols)


def _assert_same(m, d):
    """Same shape and entries, and no column of m stores a zero."""
    assert (m.nrows, m.ncols) == (d.nrows, d.ncols)
    assert [m.row(i) for i in range(m.nrows)] == [d.row(i) for i in range(d.nrows)]
    assert m.cols_sparse() == d.cols_sparse()
    assert all(x for col in m.cols_sparse() for x in col.values())


class TestAgainstDenseMatrix:
    """The sparse-column Matrix against the dense row-major one it replaced."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=str)
    def test_operations_agree(self, field):
        rng = rng_for("sparse-vs-dense-%s" % field)
        for _trial in range(80):
            n, k, l = (rng.randint(0, 6) for _ in range(3))
            density = rng.choice([0.0, 0.2, 0.5, 1.0])
            rows = _random_rows(rng, field, n, k, density)
            a, da = _pair(rows, field, k)
            # an equal second operand a third of the time, so == is exercised both ways
            rows2 = rows if rng.random() < 1 / 3 else _random_rows(rng, field, n, k, density)
            a2, da2 = _pair(rows2, field, k)
            b, db = _pair(_random_rows(rng, field, k, l, density), field, l)
            c = _random_scalar(rng, field, 0.8)

            _assert_same(a, da)
            _assert_same(a.compose(b), da.compose(db))
            _assert_same(a + a2, da + da2)
            _assert_same(a - a2, da - da2)
            _assert_same(a - a, da - da)
            _assert_same(-a, -da)
            _assert_same(a.scaled(c), da.scaled(c))
            _assert_same(a.scaled(field.zero), da.scaled(field.zero))
            _assert_same(a.transpose(), da.transpose())
            assert (a == a2) == (da == da2)
            assert (a - a2).is_zero() == (da - da2).is_zero() == (a == a2)
            assert a.is_zero() == da.is_zero()
            for i in range(n):
                assert a.row(i) == da.row(i)
                assert a.row_sparse(i) == da.row_sparse(i)
                assert all(a[i, j] == da[i, j] for j in range(k))
            vec = {j: x for j in range(k) if (x := _random_scalar(rng, field, density))}
            assert a.apply(vec) == da.apply(vec)

            red, piv = rref(a)
            dred, dpiv = dense_rref(da)
            _assert_same(red, dred)
            assert piv == dpiv
            assert rank(a) == dense_rank(da)
            assert kernel_basis(a) == dense_kernel_basis(da)
            x = [_random_scalar(rng, field, density) for _ in range(k)]
            image = da.apply({j: v for j, v in enumerate(x) if v})
            rhs = rng.choice([[image.get(i, field.zero) for i in range(n)],
                              [_random_scalar(rng, field, density) for _ in range(n)]])
            assert solve(a, rhs) == dense_solve(da, rhs)

    def test_from_cols_sparse_drops_zeros(self):
        m = Matrix.from_cols_sparse(2, [{0: Fraction(0), 1: Fraction(3)}, {}], QQ)
        assert m.cols_sparse() == [{1: Fraction(3)}, {}]
        assert m == dense([[0, 0], [3, 0]])


class TestSubspace:
    def test_parity_split_dims(self):
        S = Subspace([0, 1, 1], QQ)
        S.insert({0: Fraction(1)})
        S.insert({1: Fraction(1), 2: Fraction(1)})
        assert S.dim == 2
        assert S.dims() == (1, 1)

    def test_mixed_parity_splits_into_components(self):
        # graded closure: a mixed vector contributes both its even
        # and odd parts, so the span stays parity-homogeneous
        S = Subspace([0, 1], QQ)
        assert S.insert({0: Fraction(1), 1: Fraction(1)})
        assert S.dim == 2
        assert S.contains({0: Fraction(1)})
        assert S.contains({1: Fraction(1)})

    def test_equality_is_span_equality(self):
        S = Subspace([0, 0], QQ)
        T = Subspace([0, 0], QQ)
        S.insert({0: Fraction(1), 1: Fraction(1)})
        S.insert({0: Fraction(1)})
        T.insert({1: Fraction(1)})
        T.insert({0: Fraction(1), 1: Fraction(2)})
        assert S == T

    def test_contains(self):
        S = Subspace([0, 0, 0], QQ)
        S.insert({0: Fraction(1), 1: Fraction(1)})
        assert S.contains({0: Fraction(2), 1: Fraction(2)})
        assert not S.contains({0: Fraction(1)})


def _random_vector(rng, field, n, density=0.4):
    vec = {}
    for i in range(n):
        if rng.random() < density:
            vec[i] = random_scalar(field, rng, nonzero=True)
    return vec


def _random_graded_map(rng, field, parities, shift):
    """A random linear map that adds ``shift`` to the parity, as Matrix.apply."""
    n = len(parities)
    cols = [
        {
            i: random_scalar(field, rng, nonzero=True)
            for i in range(n)
            if (parities[i] - parities[j]) % 2 == shift and rng.random() < 0.3
        }
        for j in range(n)
    ]
    return Matrix(n, n, cols, field).apply


def _naive_closure(parities, field, vectors, maps):
    """Span the vectors, then span the basis and all its images until the
    dimension stops growing."""
    span = Subspace.span(parities, field, vectors)
    while True:
        rows = span.basis()
        bigger = Subspace.span(parities, field, rows + [f(r) for f in maps for r in rows])
        if bigger.dim == span.dim:
            return span
        span = bigger


class TestSubspaceClosure:
    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=repr)
    def test_close_is_closed_and_complement(self, field):
        rng = rng_for("subspace-closure-%s" % field.name)
        closed_outcomes = set()
        for _trial in range(60):
            n = rng.randint(1, 8)
            parities = [rng.randint(0, 1) for _ in range(n)]
            maps = [
                _random_graded_map(rng, field, parities, rng.randint(0, 1))
                for _ in range(rng.randint(0, 3))
            ]
            vectors = [_random_vector(rng, field, n) for _ in range(rng.randint(0, 4))]

            S = Subspace(parities, field)
            grown = S.close(vectors, maps)
            assert S == _naive_closure(parities, field, vectors, maps)
            dims = [Subspace.span(parities, field, vectors[:k]).dim for k in range(len(vectors) + 1)]
            assert grown == [v for k, v in enumerate(vectors) if dims[k + 1] > dims[k]]

            T = Subspace.span(parities, field, vectors)
            for X in (S, T):
                rows = X.basis()
                row_by_row = all(
                    Subspace.span(parities, field, rows + [f(r)]).dim == X.dim
                    for f in maps
                    for r in rows
                )
                assert X.is_closed(maps) == row_by_row
                closed_outcomes.add(row_by_row)
            assert S.is_closed(maps)

            keep, project = T.complement()
            assert keep == [i for i in range(n) if i not in T.pivots()]
            for row in T.basis():
                assert project(row) == {}
            for k, i in enumerate(keep):
                assert project({i: field.one}) == {k: field.one}
            vec = _random_vector(rng, field, n, density=0.7)
            assert {keep[k]: x for k, x in project(vec).items()} == T.residual(vec)
        assert closed_outcomes == {False, True}


class TestRepresentatives:
    """Representatives of a span modulo lower spans, and their classes."""

    def _cases(self):
        for field in (QQ, PrimeField(5)):
            rng = rng_for("representatives-%s" % field)
            for _ in range(30):
                n = rng.randint(1, 8)
                parities = [rng.randint(0, 1) for _ in range(n)]
                rows = [_random_vector(rng, field, n) for _ in range(rng.randint(1, 6))]
                stage = Subspace.span(parities, field, rows)
                below = [
                    Subspace.span(parities, field, rng.sample(stage.basis(), rng.randint(0, stage.dim)))
                    for _ in range(rng.randint(0, 2))
                ]
                yield rng, field, stage, below

    def test_picks_a_basis_modulo_below(self):
        for _rng, field, stage, below in self._cases():
            first = 3
            reps, _ech = representatives(stage, below, first)
            lower = Subspace.span(stage.parities, field, (r for S in below for r in S.basis()))
            assert len(reps) == stage.dim - lower.dim
            total = Subspace.span(stage.parities, field, lower.basis() + [r for _p, r in reps])
            assert total == stage
            assert all(r in stage.basis() for _p, r in reps)

    def test_echelon_gives_classes(self):
        for rng, field, stage, below in self._cases():
            n, first = len(stage.parities), 2
            reps, ech = representatives(stage, below, first)
            coeffs = [random_scalar(field, rng) for _ in reps]
            vec = {}
            for S in below:
                for row in S.basis():
                    vec_add_scaled(vec, row, random_scalar(field, rng), field)
            for c, (_p, r) in zip(coeffs, reps):
                vec_add_scaled(vec, r, c, field)
            want = {n + first + i: field.neg(c) for i, c in enumerate(coeffs) if c}
            assert ech.reduce(vec) == want

    def test_echelon_stays_fully_reduced(self):
        for _rng, _field, stage, below in self._cases():
            _reps, ech = representatives(stage, below, 0)
            for p, row in ech.rows.items():
                assert min(row) == p and row[p] == 1
                assert not any(q in row for q in ech.rows if q != p)

    def test_seed_is_not_mutated(self):
        # the representative e1 gets pivot 2, which the seeded row e1 + e2
        # holds: back-substitution must change the echelon's copy only
        T = Subspace([0, 0, 0], QQ)
        T.insert({1: 1, 2: 1})
        stage = Subspace.span([0, 0, 0], QQ, [{0: 1}, {1: 1}, {2: 1}])
        reps, ech = representatives(stage, [T], 0)
        assert [r for _p, r in reps] == [{0: 1}, {1: 1}]
        assert T.basis() == [{1: 1, 2: 1}]
        assert ech.rows[1] == {1: 1, 4: 1}


@st.composite
def _fp_cases(draw):
    """A prime, rows and probe vectors over GF(p) as value lists, right-hand
    sides, coordinate parities and a split of the rows into lower spans."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(min_value=1, max_value=7))
    entry = st.integers(min_value=0, max_value=p - 1)
    vector = st.lists(entry, min_size=n, max_size=n)
    rows = draw(st.lists(vector, max_size=8))
    probes = draw(st.lists(vector, min_size=1, max_size=3))
    rhs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    parities = draw(st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=len(rows)), max_size=2)))
    return p, n, rows, probes, rhs, parities, cuts


class TestAgainstFpElementReference:
    """The int-in-0..p-1 kernels against the same kernels run on FpElement
    scalars (the reference field of tests/oracles.py), over F2, F3, F5, F7."""

    @given(_fp_cases())
    @settings(max_examples=200, deadline=None)
    def test_kernels_agree(self, case):
        p, n, rows, probes, rhs, parities, cuts = case
        F, R = PrimeField(p), FpElementField(p)

        def pair(values):
            vec = {j: x for j, x in enumerate(values) if x}
            return vec, {j: R.of(x) for j, x in vec.items()}

        ints, objs = zip(*map(pair, rows)) if rows else ((), ())
        ech, ref = Echelon(F), Echelon(R)
        assert [ech.insert(v) for v in ints] == [ref.insert(v) for v in objs]
        assert ech.pivots() == ref.pivots()
        assert ech.rows == fp_values(ref.rows)
        for vec, obj in map(pair, probes):
            assert ech.reduce(vec) == fp_values(ref.reduce(obj))

        assert row_rank(ints, F) == row_rank(objs, R) == ech.rank
        assert _pivot_rows(ints, F) == fp_values(_pivot_rows(objs, R))
        assert solve_sparse(n, zip(ints, rhs), F) == fp_values(
            solve_sparse(n, zip(objs, map(R.of, rhs)), R)
        )
        assert kernel_of_constraints(n, ints, F) == fp_values(kernel_of_constraints(n, objs, R))

        # a stage spanned by all rows and probes, below it the spans of row prefixes
        def spans(field, vecs, extra):
            stage = Subspace.span(parities, field, list(vecs) + list(extra))
            return stage, [Subspace.span(parities, field, vecs[:k]) for k in cuts]

        probe_ints, probe_objs = zip(*map(pair, probes))
        stage, below = spans(F, ints, probe_ints)
        rstage, rbelow = spans(R, objs, probe_objs)
        reps, ech = representatives(stage, below, 2)
        rreps, rech = representatives(rstage, rbelow, 2)
        assert reps == fp_values(rreps)
        assert ech.rows == fp_values(rech.rows)  # tag coordinates included
        for vec, obj in zip(probe_ints, probe_objs):
            assert ech.reduce(vec) == fp_values(rech.reduce(obj))

    def test_reference_values_are_plain(self):
        R = FpElementField(5)
        assert fp_values({1: [R.of(7), (R.of(-1), 3)]}) == {1: [2, (4, 3)]}
        assert R.inv(R.of(2)).val == 3 and R.of(Fraction(1, 2)) == R.of(3)


def _rebuilt_index(rows):
    """The column index of a fully reduced echelon, rebuilt from its rows."""
    occ = {}
    for p, row in rows.items():
        for c in row:
            if c != p:
                occ.setdefault(c, set()).add(p)
    return occ


@st.composite
def _indexed_cases(draw):
    """A field (Q, F2 or F5), coordinate parities, the rows of two lower
    spans and of a stage, and vectors inserted afterwards, over the ambient
    coordinates and a few tag coordinates past them."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(5)]))
    if field is QQ:
        entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    else:
        entry = st.integers(min_value=0, max_value=field.p - 1)
    n = draw(st.integers(min_value=1, max_value=7))

    def vectors(width, most):
        rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=most))
        return [{j: field.of(x) for j, x in enumerate(r) if x} for r in rows]

    parities = draw(st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n))
    lows = [vectors(n, 4) for _ in range(draw(st.integers(min_value=0, max_value=2)))]
    return field, parities, lows, vectors(n, 5), vectors(n + 4, 8)


class TestColumnIndex:
    """The indexed Echelon against the scan-all reference of
    tests/oracles.py: the same rows, pivots and residuals, and after every
    insert an index equal to the one rebuilt from the rows."""

    @staticmethod
    def _agree(ech, ref, vectors):
        for vec in vectors:
            assert ech.insert(vec) == ref.insert(vec)
            assert ech.rows == ref.rows
            assert ech._occ == _rebuilt_index(ech.rows)
        assert ech.pivots() == ref.pivots()
        for vec in vectors:
            assert ech.reduce(vec) == ref.reduce(vec)

    @given(_indexed_cases())
    @settings(max_examples=300, deadline=None)
    def test_inserts_and_copies_agree(self, case):
        field, _parities, lows, stage_rows, extra = case
        ech, ref = Echelon(field), ScanEchelon(field)
        self._agree(ech, ref, [r for rows in lows for r in rows] + stage_rows)
        before = {p: dict(r) for p, r in ech.rows.items()}
        clone = ech.copy()
        assert clone._occ == _rebuilt_index(clone.rows)
        self._agree(clone, ref, extra)
        # the copy shares no row and no index set with its source
        assert ech.rows == before
        assert ech._occ == _rebuilt_index(before)

    @given(_indexed_cases())
    @settings(max_examples=300, deadline=None)
    def test_seeded_as_representatives_seeds_agree(self, case):
        field, parities, lows, stage_rows, extra = case
        below = [Subspace.span(parities, field, rows) for rows in lows]
        stage = Subspace.span(parities, field, [r for rows in lows for r in rows] + stage_rows)
        reps, ech = representatives(stage, below, 1)
        ref_reps, ref = scan_representatives(stage, below, 1)
        assert reps == ref_reps
        assert ech.rows == ref.rows
        assert ech._occ == _rebuilt_index(ech.rows)
        self._agree(ech, ref, extra)
        for S in below:  # the seed rows were copied, not shared
            assert S.echelon._occ == _rebuilt_index(S.echelon.rows)

    def test_insert_touches_only_the_rows_that_hold_its_pivot(self):
        ech = Echelon(QQ)
        for vec in ({0: 1, 5: 2}, {1: 1, 6: 1}, {2: 1, 5: 1, 6: 3}):
            ech.insert(vec)
        assert ech._occ == {5: {0, 2}, 6: {1, 2}}
        assert ech.insert({5: 1, 7: 1}) == 5
        assert ech.rows == {
            0: {0: 1, 7: -2}, 1: {1: 1, 6: 1}, 2: {2: 1, 6: 3, 7: -1}, 5: {5: 1, 7: 1}
        }
        assert ech._occ == {6: {1, 2}, 7: {0, 2, 5}}


# ---------------------------------------------------------------------------
# one-entry fast paths of Subspace.insert, Echelon.reduce and Matrix.apply


def _coefficients(field):
    """Zero, one and coefficients other than one (none exist over F2)."""
    return [field.zero, field.one] + (
        [-1, Fraction(2, 3)] if field is QQ else [c for c in (3, field.p - 1) if c % field.p > 1]
    )


def _scan_copy(S):
    """A ScanEchelon on copies of the rows of S: the general path, with no
    one-entry case."""
    ref = ScanEchelon(S.field)
    ref.rows = {p: dict(r) for p, r in S.echelon.rows.items()}
    return ref


def _check_insert(S, vec):
    """S.insert(vec) against the general path on copies of S's rows: the
    same answer, the same rows in the same order, an index equal to the one
    rebuilt from the rows, and generators dropped exactly when S grew."""
    ref = _scan_copy(S)
    parts = ({}, {})
    for c, x in vec.items():
        if x:
            parts[S.parities[c]][c] = x
    want = any([ref.insert(part) is not None for part in parts if part])
    S.generators = ["marker"]
    assert S.insert(vec) == want
    E = S.echelon
    assert E.rows == ref.rows
    assert list(E.rows) == list(ref.rows)
    assert E._occ == _rebuilt_index(E.rows)
    assert S.generators == (None if want else ["marker"])


def _typed(vec):
    return [(c, type(x), x) for c, x in vec.items()]


def _check_reduce(E, vec):
    """E.reduce(vec) against the general loop, entry order and scalar types
    included; the residual is a fresh dict."""
    ref = ScanEchelon(E.field)
    ref.rows = {p: dict(r) for p, r in E.rows.items()}
    before = dict(vec)
    got = E.reduce(vec)
    assert _typed(got) == _typed(ref.reduce(vec))
    got[-1] = 1
    assert vec == before and E.rows == ref.rows


@st.composite
def _one_entry_cases(draw):
    """A field (Q, F2 or F5), coordinate parities, and a list of vectors,
    most of them one-entry (an explicit zero among them), over n coordinates."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(5)]))
    if field is QQ:
        entry = st.sampled_from([0, 1, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    else:
        entry = st.integers(min_value=0, max_value=field.p - 1)
    n = draw(st.integers(min_value=1, max_value=7))
    parities = draw(st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n))
    unit = st.tuples(st.integers(min_value=0, max_value=n - 1), entry).map(
        lambda cx: {cx[0]: field.of(cx[1])}
    )
    row = st.lists(entry, min_size=n, max_size=n).map(
        lambda r: {j: field.of(x) for j, x in enumerate(r) if x}
    )
    return field, parities, draw(st.lists(st.one_of(unit, unit, row), max_size=12))


class TestOneEntryFastPaths:
    """Each one-entry case against the general path it short-cuts: every
    coordinate (a pivot whose row is {c: 1} or has a tail, a non-pivot
    column that no row holds or that one does) with a zero, a one and other
    coefficients, after every insert of a random sequence."""

    @given(_one_entry_cases())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_subspace_insert_and_reduce_match_the_general_path(self, case):
        field, parities, vectors = case
        S = Subspace(parities, field)
        for vec in vectors:
            for c in range(len(parities)):
                for x in _coefficients(field):
                    _check_insert(S.copy(), {c: x})
                    _check_reduce(S.echelon, {c: x})
            _check_insert(S, vec)

    def test_every_case_is_reached(self):
        # even coordinates 0..4: pivot 0 has the row {0: 1}, pivot 1 the
        # tail {4: 1}; 2 is a non-pivot no row holds, 4 one that row 1 holds
        for field in (QQ, PrimeField(2), PrimeField(5)):
            S = Subspace.span([0] * 5, field, [{0: 1}, {1: 1, 4: 1}])
            assert S.echelon.rows == {0: {0: 1}, 1: {1: 1, 4: 1}} and S.echelon._occ == {4: {1}}
            for c in (0, 1, 2, 4):
                for x in _coefficients(field):
                    _check_insert(S.copy(), {c: x})
                    _check_reduce(S.echelon, {c: x})
            assert S.echelon.reduce({1: field.one}) == {4: field.neg(1)}
            assert S.insert({2: field.one}) and S.echelon.rows[2] == {2: 1}
            assert not S.insert({0: field.one}) and not S.insert({1: field.one, 4: field.one})

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=str)
    def test_matrix_apply_matches_the_dense_matrix(self, field):
        rng = rng_for("one-entry-apply-%s" % field)
        for _trial in range(60):
            n, k = rng.randint(0, 6), rng.randint(1, 6)
            rows = _random_rows(rng, field, n, k, rng.choice([0.0, 0.3, 1.0]))
            a, da = _pair(rows, field, k)
            for j in range(k):
                for x in _coefficients(field) + [_random_scalar(rng, field, 0.8)]:
                    out = a.apply({j: x})
                    assert _typed(out) == _typed(da.apply({j: x}))
                    assert out is not a.cols[j]
                    out[-1] = 1
                    assert a == Matrix.from_rows(rows, field, k)

    def test_full_subspace_of_the_corpus_module_reaches_no_echelon_insert(self, c1, monkeypatch):
        calls = []
        insert = Echelon.insert

        def counted(self, vec):
            calls.append(vec)
            return insert(self, vec)

        monkeypatch.setattr(Echelon, "insert", counted)
        full = c1.M.full_subspace()
        assert (c1.M.dim, full.dim, len(calls)) == (202, 202, 0)


# ---------------------------------------------------------------------------
# a graded span in one echelon against the two-echelon reference


class TestOneEchelonSpan:
    """Subspace against TwoEchelonSubspace of tests/oracles.py after every
    insert of a random sequence of mixed-parity and one-entry vectors: the
    same answers, the same basis rows with their parities, the same
    residuals and complement, and rows and a column index that are the
    union of the reference's two echelons."""

    @given(_one_entry_cases())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_agrees_with_the_two_echelon_reference(self, case):
        field, parities, vectors = case
        S, ref = Subspace(parities, field), TwoEchelonSubspace(parities, field)
        probes = [{c: field.one} for c in range(len(parities))] + vectors
        for vec in vectors:
            assert S.insert(vec) == ref.insert(vec)
            assert S.basis_with_parity() == ref.basis_with_parity()
            assert S.dims() == ref.dims()
            assert S.echelon.rows == {**ref.even.rows, **ref.odd.rows}
            assert S.echelon._occ == {**ref.even._occ, **ref.odd._occ}
            keep, project = S.complement()
            ref_keep, ref_project = ref.complement()
            assert keep == ref_keep
            for probe in probes:
                assert sorted(_typed(S.residual(probe))) == sorted(_typed(ref.residual(probe)))
                assert project(probe) == ref_project(probe)
        # equal dimension and one inclusion against both inclusions, on the
        # spans of the first k vectors and of the last k
        for k in range(len(vectors) + 1):
            spans = []
            for cls in (Subspace, TwoEchelonSubspace):
                for part in (vectors[:k], vectors[::-1][:k]):
                    spans.append(cls(parities, field))
                    for vec in part:
                        spans[-1].insert(vec)
            T, U, ref_T, ref_U = spans
            assert (T == U) == (U == T) == (ref_T == ref_U)
