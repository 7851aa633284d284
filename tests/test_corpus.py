"""Bundled verification cases: every clause holds and constants are pinned."""

import json
import os
import sys

import pytest

import superdim.corpus
from superdim.corpus import (
    CASES,
    build_c1,
    build_c2,
    corpus_all,
    corpus_report,
    verify_c1,
    verify_c2,
)
from superdim.exactlin import QQ, PrimeField
from superdim.smodule import check_module
from superdim.textio import emit_report, scalar_to_data

ASSETS = os.path.join(os.path.dirname(__file__), "..", "src", "superdim", "assets")


def clause_map(report):
    return {c["id"]: c["ok"] for c in report["clauses"]}


class TestAllCases:
    @pytest.mark.parametrize("case", CASES)
    def test_every_clause_holds(self, case):
        report = corpus_report(case)
        assert report["ok"], clause_map(report)
        assert all(clause_map(report).values())

    def test_unknown_case_rejected(self):
        from superdim.algebra import AlgebraError

        with pytest.raises(AlgebraError):
            corpus_report("c9")

    def test_corpus_all_covers_cases(self):
        assert tuple(corpus_all()) == CASES


class TestC1Constants:
    def test_pinned_values(self, c1_report):
        k = c1_report["constants"]
        assert k["dim_B"] == 101
        assert k["dim_M"] == 202
        assert k["sdim"] == {"even": 0, "odd": 3}
        assert k["sdim_quotient_by_y"] == {"even": 0, "odd": 1}
        assert k["odd_chain_dims"] == [202, 141, 52, 1]
        assert k["longest_systems"] == [["Z1", "Z2", "Z3"]]

    def test_y_fails_to_extend(self, c1_report):
        cm = clause_map(c1_report)
        assert cm["y-regular"]
        assert cm["y-not-extendable"]
        assert cm["no-longest-system-contains-y"]

    def test_module_axioms(self, c1):
        assert check_module(c1.M) == []


class TestC2Constants:
    def test_pinned_values(self, c2_report):
        k = c2_report["constants"]
        assert k["dim_Aprime"] == 55
        assert k["dim_ideal"] == 39
        assert k["dim_A"] == 16
        assert k["dim_R"] == 32
        assert k["sdim_Aprime"] == {"even": 0, "odd": 2}
        assert k["sdim"] == {"even": 0, "odd": 4}
        assert k["sdim_quotient_by_y"] == {"even": 0, "odd": 2}
        assert k["longest_systems"] == [["Y1", "Y2", "Y3", "Y4"]]

    def test_strict_drop_and_non_split(self, c2_report):
        cm = clause_map(c2_report)
        assert cm["drop-strictly-exceeds-one"]
        assert cm["extension-non-split"]
        assert cm["pi-cocycle"] and cm["pi-super-skew"] and cm["pi-in-c1-subcomplex"]


def _table_entries(table):
    """[i, j, r, num, den] for every nonzero value of a basis-pair table."""
    out = []
    for (i, j), vec in sorted(table.items()):
        for r in sorted(vec):
            d = scalar_to_data(vec[r])
            out.append([i, j, r, d["num"], d["den"]])
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=lambda F: F.name)
def test_c2_pi_tables_are_pinned(field):
    with open(os.path.join(os.path.dirname(__file__), "golden", "c2_pi_tables.json")) as fh:
        want = json.load(fh)[field.name]
    data = build_c2(field)
    assert _table_entries(data.pi_prime) == want["pi_prime"]
    assert _table_entries(data.pi.table) == want["pi"]


class TestGrConstants:
    def test_pinned_values(self):
        k = corpus_report("gr")["constants"]
        assert k["sdim"] == {"even": 0, "odd": 3}
        assert k["sdim_graded"] == {"even": 0, "odd": 2}
        assert k["sdim_graded_radical"] == {"even": 0, "odd": 3}
        assert k["component_dims"] == {"0": 101, "1": 101}
        assert k["component_dims_radical"] == {"0": 61, "1": 89, "2": 51, "3": 1}


class TestFlatConstants:
    def test_pinned_values(self):
        k = corpus_report("flat")["constants"]
        assert k["rank_y"] == 16
        assert k["dim_R"] == 32
        assert k["sdim"] == {"even": 0, "odd": 4}
        assert k["sdim_quotient_by_y"] == {"even": 0, "odd": 2}
        assert [d["after"]["odd"] for d in k["grassmann_drops"]] == [0, 1, 2]


class TestChainsBuilt:
    """Each case builds the odd chain of a module once per quantity it reads."""

    @pytest.mark.parametrize("verify", [verify_c1, verify_c2], ids=["c1", "c2"])
    def test_at_most_three_chains(self, monkeypatch, verify):
        # count the calls made inside the sdim module and through corpus's own import
        sdim_module = sys.modules["superdim.sdim"]
        inner = sdim_module.odd_power_spans_of_module
        built = []

        def counted(M):
            built.append(M.dim)
            return inner(M)

        monkeypatch.setattr(sdim_module, "odd_power_spans_of_module", counted)
        monkeypatch.setattr(superdim.corpus, "odd_power_spans_of_module", counted)
        assert verify()["ok"]
        assert 0 < len(built) <= 3, built


class TestDeterminism:
    def test_reports_byte_identical_across_builds(self):
        a = emit_report(corpus_all())
        b = emit_report(corpus_all())
        assert a == b

    def test_c2_matches_golden_bytes(self):
        with open(os.path.join(ASSETS, "golden_c2.json"), "rb") as fh:
            golden = fh.read()
        assert emit_report(corpus_report("c2")).encode() == golden


class TestOtherFields:
    def test_c1_over_f5(self):
        report = corpus_report("c1", field=PrimeField(5))
        assert report["ok"], clause_map(report)
        assert report["field"] == "F5"
        assert report["constants"]["dim_B"] == 101
