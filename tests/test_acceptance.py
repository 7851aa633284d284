"""Acceptance gate: one test per shipped guarantee, exact arithmetic only.

Each test prints a single PASS line once its assertions hold, so a verbose
run shows one pass/fail line per criterion.
"""

import glob
import os

from superdim.algebra import odd_radical, table_is_associative, table_respects_unit
from superdim.corpus import corpus_all, corpus_report
from superdim.exactlin import QQ, PrimeField
from superdim.graded import verify_graded_comparison
from superdim.hilbert import bigraded_dims, fit_rows, sdim_from_hilbert
from superdim.hochschild import (
    assemble_square_zero,
    coboundary,
    cochain_add,
    cochain_parity_violations,
    is_cocycle_pi,
    is_in_C,
    is_super_skew,
    Cochain,
)
from superdim.sdim import (
    SuperDimension,
    sdim,
    sdim_odd_by_subset_search,
    subset_chain_agreement,
    verify_factoring,
)
from superdim.smodule import regular_module
from superdim.superpoly import EVEN, ODD
from superdim.textio import (
    emit_report,
    format_module,
    format_presentation,
    parse_module,
    parse_presentation,
)

from conftest import (
    random_algebra,
    random_cochain,
    random_in_C,
    random_module,
    random_nilpotent_ideal,
    random_super_skew,
    rng_for,
)
from oracles import free_bigraded_dim
from test_algebra import grassmann

ASSETS = os.path.join(os.path.dirname(__file__), "..", "src", "superdim", "assets")
# Whole-corpus reports over Q and F5, recorded before Matrix became sparse.
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def clause(report, cid):
    for c in report["clauses"]:
        if c["id"] == cid:
            return c
    raise AssertionError("missing clause %r" % cid)


def ok(report, cid):
    return clause(report, cid)["ok"]


def test_criterion_01_counterexample_one(c1_report):
    r = c1_report
    assert ok(r, "phi1-psi2-phi3-nonzero")
    assert ok(r, "y-regular")
    assert ok(r, "zizj-module-inside-ym")
    assert ok(r, "z1z2z3-module-nonzero")
    assert r["constants"]["sdim"] == {"even": 0, "odd": 3}
    assert ok(r, "quotient-by-y-sdim-at-most-1")
    assert r["constants"]["sdim_quotient_by_y"]["odd"] <= 1
    assert ok(r, "y-not-extendable")
    assert r["constants"]["dim_B"] == 101
    assert r["constants"]["dim_M"] == 202
    print("PASS criterion 1: counterexample one verified (sdim 0|3, Y not extendable)")


def test_criterion_02_counterexample_two(c2_report):
    r = c2_report
    assert ok(r, "pi-cocycle")
    assert ok(r, "z-identities")
    assert ok(r, "v4-outside-nprime")
    assert ok(r, "v4-outside-ideal")
    assert ok(r, "y-regular")
    assert r["constants"]["sdim"] == {"even": 0, "odd": 4}
    assert ok(r, "quotient-by-y-sdim-at-most-2")
    assert r["constants"]["sdim_quotient_by_y"]["odd"] <= 2
    assert ok(r, "extension-non-split")
    assert ok(r, "drop-strictly-exceeds-one")
    print("PASS criterion 2: counterexample two verified (sdim 0|4, non-split)")


def test_criterion_03_complex_laws():
    rng = rng_for("criterion_03")
    algebras = [random_algebra(rng, max_dim=5) for _ in range(20)]
    checked = 0
    for A in algebras:
        M = regular_module(A)
        for n in (0, 1):
            for parity in (EVEN, ODD):
                f = random_cochain(A, M, n, parity, rng)
                df = coboundary(f, A, M)
                assert coboundary(df, A, M).is_zero()
                assert df.parity == f.parity
                assert cochain_parity_violations(df, A, M.parities) == []
                checked += 1
            g = random_in_C(A, M, 0, ODD, rng)
            assert is_in_C(g, A, M)
            assert is_in_C(coboundary(g, A, M), A, M)
            h = random_in_C(A, M, n, EVEN, rng)
            assert is_in_C(coboundary(h, A, M), A, M)
            checked += 2
    assert len(algebras) >= 20 and checked >= 100
    print(
        "PASS criterion 3: dd=0, parity and C-closure on %d cochains over %d algebras"
        % (checked, len(algebras))
    )


def _kill_unit(pi, A):
    unit = A.unit_index
    table = {t: dict(v) for t, v in pi.table.items() if unit not in t}
    return Cochain(pi.n, pi.parity, table)


def test_criterion_04_cocycle_iff_associative():
    rng = rng_for("criterion_04")
    total = {True: 0, False: 0}
    while sum(total.values()) < 50 or min(total.values()) < 10:
        A = random_algebra(rng, max_dim=6)
        M = regular_module(A)
        if rng.random() < 0.5:
            pi = _kill_unit(random_super_skew(A, rng), A)
        else:
            pi = coboundary(random_in_C(A, M, 0, ODD, rng), A, M)
            if rng.random() < 0.5:
                pi = cochain_add(pi, _kill_unit(random_super_skew(A, rng, 0.3), A), A.field)
        if not is_super_skew(pi, A):
            continue
        valid = is_cocycle_pi(pi, A)
        B = assemble_square_zero(A, pi)
        assert table_is_associative(B) == valid
        assert table_respects_unit(B)
        total[valid] += 1
    print(
        "PASS criterion 4: associativity matched is_cocycle_pi on %d valid + %d corrupted pi"
        % (total[True], total[False])
    )


def test_criterion_05_graded_comparison(c1):
    gr_report = corpus_report("gr")
    assert gr_report["ok"]
    k = gr_report["constants"]
    assert k["sdim"] == {"even": 0, "odd": 3}
    assert k["sdim_graded"] == {"even": 0, "odd": 2}  # exactly 2 < 3
    assert k["sdim_graded"]["odd"] < k["sdim"]["odd"]
    assert sum(k["component_dims"].values()) == 202
    rng = rng_for("criterion_05")
    count = 0
    while count < 50:
        A = random_algebra(rng, max_dim=10)
        M = random_module(rng, A)
        I = odd_radical(A) if count % 2 else random_nilpotent_ideal(rng, A)
        out = verify_graded_comparison(M, I)
        assert out["ok"], out
        assert ok(out, "dimension-conservation")
        assert ok(out, "even-parts-agree")
        assert ok(out, "graded-odd-not-larger")
        if I == odd_radical(A):
            assert ok(out, "equality-at-odd-radical")
        count += 1
    print(
        "PASS criterion 5: graded comparison held on the corpus module and %d random (A, M, I)"
        % count
    )


def test_criterion_06_hilbert_route():
    shapes = {"free_1_1.alg": (1, 1), "free_2_3.alg": (2, 3), "free_3_2.alg": (3, 2)}
    for fname, (d, s) in shapes.items():
        with open(os.path.join(ASSETS, fname)) as fh:
            pres = parse_presentation(fh.read())
        table = bigraded_dims(pres, kmax=12)
        for l in range(table.lmax + 1):
            for k in range(13):
                assert table.dim(k, l) == free_bigraded_dim(d, s, k, l)
        hp = fit_rows(table)
        assert hp.degrees() == {l: d for l in range(s + 1)}
        assert sdim_from_hilbert(hp) == SuperDimension(d, s)
    with open(os.path.join(ASSETS, "xy.alg")) as fh:
        pres = parse_presentation(fh.read())
    assert sdim_from_hilbert(fit_rows(bigraded_dims(pres, kmax=12))) == SuperDimension(1, 0)
    print("PASS criterion 6: Hilbert tables match the binomial oracle; sdim d|s and 1|0 exact")


def test_criterion_07_factoring(c1_report, c2_report):
    for r, quot in ((c1_report, 1), (c2_report, 2)):
        fact = r["factoring"]
        assert fact["ok"]
        q = clause(fact, "quotient-matches-product-image")
        assert q["quotient"] == q["image"] == {"even": 0, "odd": quot}
        w = clause(fact, "extension-witness-implies-equality")
        assert w["ok"] and not fact["extendable"]
    for s in (2, 3):
        A = grassmann(s)
        M = regular_module(A)
        for t in range(1, s + 1):
            ys = [A.generator_element("z%d" % i) for i in range(1, t + 1)]
            fact = verify_factoring(M, ys)
            assert fact["ok"], fact
            q = clause(fact, "quotient-matches-product-image")
            assert q["quotient"] == q["image"] == {"even": 0, "odd": s - t}
            assert fact["extendable"] == (
                fact["sdim_quotient"]["odd"] == fact["sdim"]["odd"] - t
            )
            assert fact["extendable"]
    print("PASS criterion 7: factoring identities exact on corpus and Grassmann sequences")


def test_criterion_08_flat_example():
    r = corpus_report("flat")
    assert r["ok"]
    k = r["constants"]
    assert k["rank_y"] == 16 and k["dim_R"] == 32
    assert 2 * k["rank_y"] == k["dim_R"]
    assert ok(r, "strict-inequality")
    assert k["sdim"]["odd"] > 1 + k["sdim_quotient_by_y"]["odd"]  # 4 > 1 + 2
    drops = {d["s"]: d["after"]["odd"] for d in k["grassmann_drops"]}
    assert drops == {1: 0, 2: 1, 3: 2}
    print("PASS criterion 8: flat example verified (rank 16 of 32, 4 > 3, drops s-1)")


def test_criterion_09_subset_search_equivalence(c1, c2):
    corpus_modules = [c1.M, regular_module(c2.R)]
    for M in corpus_modules:
        assert subset_chain_agreement(M)
        assert sdim_odd_by_subset_search(M) == sdim(M).odd
    rng = rng_for("criterion_09")
    count = 0
    while count < 50:
        A = random_algebra(rng, max_dim=12)
        M = random_module(rng, A)
        if M.is_zero():
            continue
        assert subset_chain_agreement(M)
        assert sdim_odd_by_subset_search(M) == sdim(M).odd
        count += 1
    print(
        "PASS criterion 9: subset search agreed with the chain value on %d corpus + %d random modules"
        % (len(corpus_modules), count)
    )


def test_criterion_10_determinism_and_round_trip():
    first = emit_report(corpus_all())
    second = emit_report(corpus_all())
    assert first == second
    with open(os.path.join(ASSETS, "golden_c2.json"), "rb") as fh:
        assert emit_report(corpus_report("c2")).encode() == fh.read()
    for name, text in (("corpus_q.json", first),
                       ("corpus_f5.json", emit_report(corpus_all(PrimeField(5))))):
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            assert text.encode() == fh.read(), name
    alg_files = sorted(glob.glob(os.path.join(ASSETS, "*.alg")))
    assert alg_files
    for path in alg_files:
        text = open(path).read()
        once = format_presentation(parse_presentation(text))
        assert format_presentation(parse_presentation(once)) == once, path
    from superdim.algebra import compile_presentation

    A = compile_presentation(parse_presentation(open(os.path.join(ASSETS, "grassmann2.alg")).read()))
    for path in sorted(glob.glob(os.path.join(ASSETS, "*.mod"))):
        text = open(path).read()
        once = format_module(parse_module(text, A))
        assert format_module(parse_module(once, A)) == once, path
    print("PASS criterion 10: reports byte-identical; DSL round trips idempotent")
