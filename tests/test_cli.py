"""Command-line behavior: exit codes, output contracts, determinism."""

import json
import os
import resource
import subprocess
import sys
import time

import pytest

from superdim import cli
from superdim.algebra import compile_presentation
from superdim.cli import main
from superdim.exactlin import PrimeField
from superdim.smodule import regular_module
from superdim.textio import format_module, parse_module, parse_presentation

from oracles import enumerated_bigraded_dims

ASSETS = os.path.join(os.path.dirname(__file__), "..", "src", "superdim", "assets")


def asset(name):
    return os.path.join(ASSETS, name)


def run_cli(*args, timeout=None):
    """Fresh-process invocation; returns (exit, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "superdim", *args],
        capture_output=True,
        text=True,
        cwd=os.path.join(os.path.dirname(__file__), ".."),
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def load_text(path):
    with open(path) as fh:
        return fh.read()


def call(*args, capsys=None):
    return main(list(args))


class TestSdim:
    def test_grassmann_text(self, capsys):
        assert main(["sdim", asset("grassmann2.alg")]) == 0
        out = capsys.readouterr().out
        assert "super-dimension: 0|2" in out
        assert "odd chain dims: 4 3 1" in out

    def test_report_format(self, capsys):
        assert main(["sdim", asset("grassmann2.alg"), "--format", "report"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["sdim"] == {"even": 0, "odd": 2}
        assert data["odd_chain_dims"] == [4, 3, 1]

    def test_flag_order_is_flexible(self, capsys):
        assert main(["sdim", asset("grassmann2.alg"), "--field", "f5"]) == 0
        assert "0|2" in capsys.readouterr().out


class TestOddParams:
    def test_default_size_is_odd_sdim(self, capsys):
        assert main(["odd-params", asset("grassmann2.alg")]) == 0
        out = capsys.readouterr().out
        assert "size: 2" in out
        assert "count: 1" in out
        assert "z1 z2" in out

    def test_explicit_size(self, capsys):
        assert main(["odd-params", asset("grassmann2.alg"), "--size", "1"]) == 0
        out = capsys.readouterr().out
        assert "count: 2" in out

    @pytest.mark.parametrize("size", ["-1", "-4"])
    def test_negative_size_is_usage_error(self, capsys, size):
        assert main(["odd-params", asset("grassmann2.alg"), "--size", size]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--size must be nonnegative, not %s" % size in captured.err
        assert "r must be non-negative" not in captured.err


class TestRegular:
    def test_regular_sequence_passes(self, capsys):
        code = main(
            [
                "regular",
                asset("grassmann2.alg"),
                "--module",
                asset("regular.mod"),
                "--elems",
                "z1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ok   sequence-is-regular" in out
        assert "extendable to longest: true" in out

    def test_failing_clause_exits_one(self, capsys):
        code = main(
            [
                "regular",
                asset("c1_r.alg"),
                "--module",
                asset("regular.mod"),
                "--elems",
                "Z1,Z1",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "FAIL sequence-is-regular" in captured.err

    def test_huge_power_of_nilpotent_element(self, capsys):
        # z1^2 = 0 already, so the power stops there instead of looping.
        outcomes = []
        for elems in ("z1^99999999", "z1*z1"):
            argv = ["regular", asset("grassmann2.alg"), "--module", asset("regular.mod"),
                    "--elems", elems]
            outcomes.append((main(argv), capsys.readouterr()))
        assert outcomes[0] == outcomes[1]

    def test_even_element_is_usage_error(self, capsys):
        code = main(
            [
                "regular",
                asset("grassmann2.alg"),
                "--module",
                asset("regular.mod"),
                "--elems",
                "z1*z2",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestModuleFiles:
    """A parsed --module file must satisfy the module axioms."""

    LAMBDA3 = "algebra l3 over Q\nflavor supercommutative\nodd z1 z2 z3\ncap %d\nrelations\nend\n"

    def _lambda3_regular_under_cap_2(self, tmp_path):
        # the regular module of Lambda_3 written out, then read over the
        # cap-2 quotient, where z1*z2*z3 must act as zero and does not
        A = compile_presentation(parse_presentation(self.LAMBDA3 % 3))
        (tmp_path / "l3.alg").write_text(self.LAMBDA3 % 2)
        (tmp_path / "reg3.mod").write_text(format_module(regular_module(A), name="reg3"))
        return str(tmp_path / "l3.alg"), str(tmp_path / "reg3.mod")

    @pytest.mark.parametrize(
        "argv",
        [["sdim"], ["gr", "--ideal", "odd-radical", "--verify"]],
        ids=["sdim", "gr-verify"],
    )
    def test_violation_is_usage_error(self, tmp_path, capsys, argv):
        alg, mod = self._lambda3_regular_under_cap_2(tmp_path)
        assert main([argv[0], alg, "--module", mod, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not a module: word beyond the cap acts nontrivially: z1*z2*z3" in captured.err

    def test_valid_module_file_is_accepted(self, tmp_path, capsys):
        A = compile_presentation(parse_presentation(self.LAMBDA3 % 3))
        (tmp_path / "l3.alg").write_text(self.LAMBDA3 % 3)
        (tmp_path / "reg3.mod").write_text(format_module(regular_module(A), name="reg3"))
        assert main(["sdim", str(tmp_path / "l3.alg"), "--module", str(tmp_path / "reg3.mod")]) == 0
        assert "super-dimension: 0|3" in capsys.readouterr().out


class TestGr:
    def test_odd_radical_with_verify(self, capsys):
        code = main(
            [
                "gr",
                asset("grassmann2.alg"),
                "--ideal",
                "odd-radical",
                "--bigraded",
                "--verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "graded components: 0:1 1:2 2:1" in out
        assert "(0,0):1 (0,1):2 (0,2):1 (1,0):1" in out
        assert "ok   equality-at-odd-radical" in out

    def test_explicit_ideal_report(self, capsys):
        code = main(
            [
                "gr",
                asset("grassmann2.alg"),
                "--ideal",
                "z1",
                "--format",
                "report",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["component_dims"] == {"0": 2, "1": 2}


    @pytest.mark.parametrize("alg", ["grassmann2.alg", "c1_r.alg"])
    @pytest.mark.parametrize("field", ["q", "f5"])
    @pytest.mark.parametrize("fmt", ["text", "report"])
    def test_parsed_regular_module_prints_the_same_bytes(self, capsys, alg, field, fmt):
        args = ["gr", asset(alg), "--ideal", "odd-radical", "--bigraded", "--verify",
                "--field", field, "--format", fmt]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--module", asset("regular.mod")]) == 0
        assert capsys.readouterr().out == plain

    def test_zero_module_verifies_equality(self, tmp_path):
        # both super-dimensions are empty, so equality at the odd radical holds
        zero = tmp_path / "zero.mod"
        zero.write_text("module Z\n")
        start = time.perf_counter()
        code, out, err = run_cli("gr", asset("grassmann2.alg"), "--module", str(zero),
                                 "--ideal", "odd-radical", "--verify", timeout=2)
        assert time.perf_counter() - start < 2
        assert code == 0, err
        assert "graded super-dimension: empty" in out
        assert "ok   equality-at-odd-radical" in out
        assert err == ""

    def test_budget_admits_exactly_its_pairs(self, capsys, monkeypatch):
        # grassmann2 is 4-dimensional, so gr takes 4 * 4 = 16 product pairs
        args = ["gr", asset("grassmann2.alg"), "--ideal", "odd-radical"]
        monkeypatch.setattr(cli, "MAX_GR_PAIRS", 16)
        assert main(args) == 0
        monkeypatch.setattr(cli, "MAX_GR_PAIRS", 15)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "takes 16 product pairs, past the budget of 15" in err


class TestHilbert:
    def test_free_2_3_fit(self, capsys):
        code = main(["hilbert", asset("free_2_3.alg"), "--kmax", "8", "--fit"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fit degrees: l=0:2 l=1:2 l=2:2 l=3:2" in out
        assert "super-dimension: 2|3" in out

    def test_xy_collapses(self, capsys):
        code = main(["hilbert", asset("xy.alg"), "--kmax", "8", "--fit"])
        assert code == 0
        assert "super-dimension: 1|0" in capsys.readouterr().out

    def test_special_label(self, capsys):
        code = main(
            ["hilbert", asset("free_1_1.alg"), "--kmax", "6", "--fit", "--special"]
        )
        assert code == 0
        assert "Krull super-dimension: 1|1" in capsys.readouterr().out

    def test_report_contains_rows(self, capsys):
        code = main(
            ["hilbert", asset("free_1_1.alg"), "--kmax", "5", "--format", "report"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["table"]["rows"]["0"] == [1, 1, 1, 1, 1, 1]

    @pytest.mark.parametrize("flag,value", [("--kmax", "-1"), ("--lmax", "-2")])
    def test_negative_bound_is_usage_error(self, capsys, flag, value):
        code = main(["hilbert", asset("free_2_3.alg"), flag, value, "--fit"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "%s must be nonnegative" % flag in captured.err


class TestHochschild:
    def test_sh_dim(self, capsys):
        code = main(["hochschild", asset("grassmann2.alg"), "--n", "0"])
        assert code == 0
        assert "sh-dim n=0: 4|4" in capsys.readouterr().out

    def test_cocycle_verification_and_classify(self, capsys):
        code = main(
            [
                "hochschild",
                asset("grassmann2.alg"),
                "--n",
                "1",
                "--cocycle",
                asset("coboundary_pi.json"),
                "--build-api",
                "--classify",
                asset("zero_pi.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ok   cocycle-condition" in out
        assert "extension dim 8" in out
        assert "adapted-equivalent" in out

    def test_classify_certificate_scalars_are_fractions(self, capsys):
        code = main(
            [
                "hochschild", asset("grassmann2.alg"), "--n", "1",
                "--cocycle", asset("coboundary_pi.json"),
                "--classify", asset("zero_pi.json"), "--format", "report",
            ]
        )
        assert code == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        scalars = [c for vec in cert["table"].values() for c in vec.values()]
        assert scalars
        for c in scalars:
            assert set(c) == {"num", "den"} and type(c["num"]) is int
        assert {"num": -1, "den": 1} in scalars

    def test_corrupted_cocycle_fails_clauses(self, tmp_path, capsys):
        with open(asset("coboundary_pi.json")) as fh:
            data = json.load(fh)
        # flip one image so the pair checks break while the file stays valid
        key = sorted(data["table"])[0]
        slot = sorted(data["table"][key])[0]
        data["table"][key][slot]["num"] += 1
        bad = tmp_path / "bad_pi.json"
        bad.write_text(json.dumps(data))
        code = main(
            ["hochschild", asset("grassmann2.alg"), "--n", "1", "--cocycle", str(bad)]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    def test_malformed_cocycle_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "junk.json"
        bad.write_text("{not json")
        code = main(
            ["hochschild", asset("grassmann2.alg"), "--n", "1", "--cocycle", str(bad)]
        )
        assert code == 2


    @pytest.mark.parametrize(
        "table", [[1], {"1,2": [3]}], ids=["table-list", "value-list"]
    )
    def test_table_that_is_not_an_object_is_usage_error(self, tmp_path, table):
        bad = tmp_path / "bad_table.json"
        bad.write_text(json.dumps({"n": 1, "parity": "odd", "table": table}))
        code, out, err = run_cli(
            "hochschild", asset("grassmann2.alg"), "--n", "1", "--cocycle", str(bad)
        )
        assert code == 2
        assert "must be JSON objects" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("index", ["99", "-2"])
    def test_value_index_out_of_range_is_usage_error(self, tmp_path, index):
        bad = tmp_path / "bad_index.json"
        bad.write_text(json.dumps({"n": 1, "parity": "odd", "table": {"1,1": {index: 1}}}))
        code, out, err = run_cli(
            "hochschild", asset("grassmann2.alg"), "--n", "1", "--cocycle", str(bad)
        )
        assert code == 2
        assert "cochain index %s out of range" % index in err
        assert "FAIL" not in out + err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "den,field", [(0, []), (5, ["--field", "f5"])], ids=["den-zero", "den-p"]
    )
    def test_undefined_coefficient_is_usage_error(self, tmp_path, capsys, den, field):
        with open(asset("coboundary_pi.json")) as fh:
            data = json.load(fh)
        key = sorted(data["table"])[0]
        slot = sorted(data["table"][key])[0]
        data["table"][key][slot]["den"] = den
        bad = tmp_path / "bad_den.json"
        bad.write_text(json.dumps(data))
        code = main(
            ["hochschild", asset("grassmann2.alg"), *field, "--n", "1", "--cocycle", str(bad)]
        )
        assert code == 2
        assert "not defined over" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "coeff",
        [{"num": 1.5, "den": 1}, {"num": 3, "den": 2.9}, True, {"num": "7", "den": 1}],
        ids=["float-num", "float-den", "bool", "string-num"],
    )
    def test_non_integer_coefficient_is_usage_error(self, tmp_path, capsys, coeff):
        with open(asset("coboundary_pi.json")) as fh:
            data = json.load(fh)
        key = sorted(data["table"])[0]
        slot = sorted(data["table"][key])[0]
        data["table"][key][slot] = coeff
        bad = tmp_path / "bad_coeff.json"
        bad.write_text(json.dumps(data))
        code = main(["hochschild", asset("grassmann2.alg"), "--n", "1", "--cocycle", str(bad)])
        assert code == 2
        assert "bad coefficient %r" % (coeff,) in capsys.readouterr().err


    @pytest.mark.parametrize("arity", [1.9, True, "1"], ids=["float", "bool", "string"])
    def test_non_integer_arity_is_usage_error(self, tmp_path, arity):
        with open(asset("coboundary_pi.json")) as fh:
            data = json.load(fh)
        data["n"] = arity
        bad = tmp_path / "bad_arity.json"
        bad.write_text(json.dumps(data))
        code, out, err = run_cli(
            "hochschild", asset("grassmann2.alg"), "--n", "1", "--cocycle", str(bad)
        )
        assert code == 2
        assert "arity %r is not a JSON integer" % (arity,) in err
        assert "FAIL" not in out + err
        assert "Traceback" not in err

    @pytest.mark.parametrize("dup", ["1, 2", "01,2"])
    def test_duplicate_table_key_is_usage_error(self, tmp_path, dup):
        with open(asset("coboundary_pi.json")) as fh:
            data = json.load(fh)
        data["table"][dup] = {"2": {"num": 5, "den": 1}}
        bad = tmp_path / "dup_pi.json"
        bad.write_text(json.dumps(data))
        code, out, err = run_cli(
            "hochschild", asset("grassmann2.alg"), "--n", "1", "--cocycle", str(bad)
        )
        assert code == 2
        assert out == ""
        assert "keys '1,2' and %r name the same tuple" % dup in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cocycle", [False, True], ids=["sh-dim", "cocycle"])
    def test_non_supercommutative_algebra_is_refused(self, tmp_path, cocycle):
        alg = tmp_path / "assoc.alg"
        alg.write_text(
            "algebra assoc over Q\nflavor associative\neven x\nodd y\ncap 2\n"
            "relations\nend\n"
        )
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"n": 1, "parity": "odd", "table": {}}))
        extra = ["--cocycle", str(zero)] if cocycle else []
        code, out, err = run_cli("hochschild", str(alg), "--n", "1", *extra, timeout=20)
        assert code == 2
        assert out == ""
        assert "algebra assoc is not supercommutative" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "alg,n",
        [("grassmann2.alg", "100000000000"), ("one.alg", "1000000")],
        ids=["huge-power", "one-dimensional"],
    )
    def test_arity_past_the_budget_is_refused(self, tmp_path, alg, n):
        # The bound on n + 2 is checked before dim(A)^(n + 2) is formed, and
        # it holds even where that power is 1.
        if alg == "one.alg":
            path = tmp_path / alg
            path.write_text("algebra one over Q\nflavor supercommutative\ncap 0\nrelations\nend\n")
        else:
            path = asset(alg)
        start = time.perf_counter()
        code, out, err = run_cli("hochschild", str(path), "--n", n, timeout=2)
        assert time.perf_counter() - start < 2
        assert code == 2
        assert out == ""
        assert "cochain tables exceed the size bound" in err
        assert "arity %d is past the cap of 21" % (int(n) + 2) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n", ["-1", "-3"])
    def test_negative_n_is_usage_error(self, n):
        code, out, err = run_cli("hochschild", asset("grassmann2.alg"), "--n", n)
        assert code == 2
        assert out == ""
        assert "--n must be nonnegative, not %s" % n in err
        assert "Traceback" not in err

    @staticmethod
    def _grassmann_file(tmp_path, s):
        path = tmp_path / ("lambda%d.alg" % s)
        odd = " ".join("z%d" % (i + 1) for i in range(s))
        path.write_text("algebra L%d over Q\nflavor supercommutative\nodd %s\ncap %d\n"
                        "relations\nend\n" % (s, odd, s))
        return str(path)

    def test_f2_odd_part_of_sixteen_is_admitted(self, tmp_path):
        # Lambda_5 has 16 odd basis elements: 2^16 sets of them, which the
        # closed form of the F2 diagonal conditions never enumerates
        code, out, err = run_cli("hochschild", self._grassmann_file(tmp_path, 5), "--n", "1",
                                 "--field", "f2", timeout=120)
        assert code == 0, err
        assert out.startswith("sh-dim n=1: ")
        assert "Traceback" not in err

    def test_cell_refusal_prints_the_count(self, tmp_path):
        code, out, err = run_cli("hochschild", self._grassmann_file(tmp_path, 6), "--n", "1",
                                 timeout=20)
        assert code == 2
        assert out == ""
        assert "cochain tables exceed the size bound" in err
        assert "64^3 * 64 = 16777216 cells, past the budget of 1048576" in err
        assert "Traceback" not in err


class TestCorpus:
    def test_single_case_text(self, capsys):
        assert main(["corpus", "--case", "flat"]) == 0
        out = capsys.readouterr().out
        assert "--- flat" in out
        assert "ok = true" in out

    def test_c1_report_contains_sdim(self, capsys):
        assert main(["corpus", "--case", "c1", "--format", "report"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cases"]["c1"]["constants"]["sdim"] == {"even": 0, "odd": 3}

    def test_seed_echoed(self, capsys):
        assert main(["corpus", "--case", "flat", "--seed", "11"]) == 0
        assert "seed: 11" in capsys.readouterr().out

    def test_failed_clause_is_prefixed_by_its_case(self, capsys, monkeypatch):
        clauses = [{"id": "holds", "ok": True}, {"id": "breaks", "ok": False}]
        monkeypatch.setattr(cli, "corpus_report",
                            lambda case, field: {"clauses": clauses, "ok": False})
        assert main(["corpus", "--case", "flat"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "--- flat\nok   holds\nFAIL breaks\nok = false\n"
        assert captured.err == "FAIL flat.breaks\n"


def _corrupted_cocycle(tmp_path):
    """coboundary_pi.json with one image changed: still a valid file, but
    the pair checks break."""
    with open(asset("coboundary_pi.json")) as fh:
        data = json.load(fh)
    key = sorted(data["table"])[0]
    data["table"][key][sorted(data["table"][key])[0]]["num"] += 1
    bad = tmp_path / "bad_pi.json"
    bad.write_text(json.dumps(data))
    return str(bad)


G2 = asset("grassmann2.alg")
CLAUSE_RUNS = {
    "regular": (True, lambda tmp: ["regular", asset("c1_r.alg"), "--module",
                                   asset("regular.mod"), "--elems", "Z1,Z1"]),
    "gr-verify": (False, lambda tmp: ["gr", G2, "--ideal", "odd-radical", "--verify"]),
    "hochschild-shipped": (False, lambda tmp: ["hochschild", G2, "--n", "1", "--cocycle",
                                               asset("coboundary_pi.json")]),
    "hochschild-corrupted": (True, lambda tmp: ["hochschild", G2, "--n", "1", "--cocycle",
                                                _corrupted_cocycle(tmp)]),
    "corpus-c2": (False, lambda tmp: ["corpus", "--case", "c2"]),
}


@pytest.mark.parametrize("name", sorted(CLAUSE_RUNS))
def test_fail_lines_are_the_false_clauses_of_the_report(tmp_path, capsys, name):
    """The FAIL ids on stderr are exactly the report's clauses whose ok is
    false, prefixed by the case for corpus; exit 1 exactly when there is one."""
    expect_failure, argv = CLAUSE_RUNS[name]
    argv = argv(tmp_path)
    code = main(argv + ["--format", "report"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    if argv[0] == "corpus":
        runs = [(case + ".", rep["clauses"]) for case, rep in report["cases"].items()]
    else:
        runs = [("", report.get("clauses", []))]
    false_ids = sorted(prefix + cl["id"] for prefix, clauses in runs for cl in clauses
                       if not cl["ok"])
    fail_lines = captured.err.splitlines()
    assert all(line.startswith("FAIL ") for line in fail_lines), captured.err
    assert sorted(line[len("FAIL "):] for line in fail_lines) == false_ids
    assert bool(false_ids) == expect_failure
    assert code == (1 if false_ids else 0)


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["sdim", asset("nope.alg")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_field(self, capsys):
        assert main(["sdim", asset("grassmann2.alg"), "--field", "f4"]) == 2

    def test_compile_without_cap(self, capsys):
        assert main(["sdim", asset("free_2_3.alg")]) == 2
        assert "cap" in capsys.readouterr().err

    def test_coefficient_undefined_in_field(self, tmp_path, capsys):
        alg = tmp_path / "half.alg"
        alg.write_text(
            "algebra half over Q\nflavor supercommutative\neven x\ncap 2\n"
            "relations\n  1/2*x^2\nend\n"
        )
        assert main(["sdim", str(alg)]) == 0
        capsys.readouterr()
        assert main(["sdim", str(alg), "--field", "f2"]) == 2
        err = capsys.readouterr().err
        assert "line 6, column 3" in err
        assert "not defined over F2" in err


class TestSubprocess:
    def test_unknown_subcommand_exits_two(self):
        code, _out, err = run_cli("bogus")
        assert code == 2

    def test_relation_past_the_cap_is_reported_at_its_line(self, tmp_path):
        # the weighted input of the Hilbert goldens with a cap under a*b*z
        alg = tmp_path / "weighted.alg"
        alg.write_text(
            "algebra weighted over Q\nflavor supercommutative\neven a b(2,0)\n"
            "odd y z(0,3)\ncap 5\nrelations\n  a^2*y - b*y\n  a*b*z\nend\n"
        )
        code, out, err = run_cli("sdim", str(alg), timeout=20)
        assert (code, out) == (2, "")
        assert "line 8, column 3: relation degree 6 exceeds cap 5" in err

    def test_module_check_reads_only_the_words_next_past_the_cap(self, tmp_path):
        # a 1-dimensional algebra with 2^21 normal monomials up to degree
        # cap + 21, whose window past the cap is its 21 one-letter words
        alg, mod = tmp_path / "odd20.alg", tmp_path / "one.mod"
        alg.write_text(
            "algebra odd20 over Q\nflavor supercommutative\neven w(21,0)\nodd %s\ncap 0\n"
            % " ".join("z%d" % i for i in range(1, 21))
        )
        mod.write_text("module one\nm0 : even\n")
        start = time.perf_counter()
        code, out, err = run_cli("sdim", str(alg), "--module", str(mod), timeout=20)
        assert time.perf_counter() - start < 2
        assert (code, err) == (0, "")
        assert "super-dimension: 0|0" in out

    @pytest.mark.parametrize(
        "args,where",
        [
            (("regular", asset("grassmann2.alg"), "--module", asset("regular.mod"),
              "--elems", "z1,2^99999*z2"), "line 1, column 4"),
            (("gr", asset("grassmann2.alg"), "--ideal", "2^99999*z1"), "line 1, column 1"),
        ],
    )
    def test_a_refused_element_power_names_its_element(self, args, where):
        code, out, err = run_cli(*args, timeout=2)
        assert (code, out) == (2, "")
        assert err == "error: %s: a power has a coefficient past 16384 bits\n" % where

    def test_degree_zero_generator_is_reported_at_its_item(self, tmp_path):
        alg = tmp_path / "zero.alg"
        alg.write_text(
            "algebra zero over Q\nflavor supercommutative\neven w x(0,0)\ncap 2\n"
        )
        code, out, err = run_cli("sdim", str(alg), timeout=20)
        assert code == 2
        assert out == ""
        assert "line 3, column 8: generator x has degree 0" in err

    def test_huge_power_of_non_nilpotent_element_is_quick(self):
        # (1 + z1)^n = 1 + n*z1, computed by repeated squaring
        code, _out, err = run_cli(
            "regular", asset("grassmann2.alg"), "--module", asset("regular.mod"),
            "--elems", "(1+z1)^99999999", timeout=2,
        )
        assert code in (0, 2)
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "args, where",
        [
            (("gr", asset("grassmann2.alg"), "--field", "f5", "--ideal", "1/5*z1"),
             "line 1, column 1"),
            (("regular", asset("grassmann2.alg"), "--module", asset("regular.mod"),
              "--field", "f5", "--elems", "z1,(1/5)*z2"), "line 1, column 4"),
        ],
    )
    def test_element_coefficient_undefined_over_fp(self, args, where):
        code, out, err = run_cli(*args, timeout=20)
        assert code == 2
        assert out == ""
        assert "%s: a coefficient is not defined over F5" % where in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "kind", ["relation", "module-action", "elems", "cochain"]
    )
    def test_coefficient_with_denominator_p_exits_two(self, tmp_path, kind):
        # PrimeField.inv raises ZeroDivisionError on a multiple of p, which
        # each of these sites turns into a usage error
        g2 = asset("grassmann2.alg")
        if kind == "relation":
            alg = tmp_path / "fifth.alg"
            alg.write_text("algebra fifth over F5\nflavor supercommutative\neven x\ncap 2\n"
                           "relations\n  1/5*x^2\nend\n")
            args = ("sdim", str(alg))
        elif kind == "module-action":
            mod = tmp_path / "fifth.mod"
            mod.write_text("module fifth\nm0 : even\nm1 : odd\nz1 m0 -> 1/5*m1\n")
            args = ("sdim", g2, "--field", "f5", "--module", str(mod))
        elif kind == "elems":
            args = ("regular", g2, "--field", "f5", "--module", asset("regular.mod"),
                    "--elems", "(1/5)*z1")
        else:
            cochain = tmp_path / "fifth.json"
            cochain.write_text(json.dumps(
                {"n": 1, "parity": "odd", "table": {"1,2": {"0": {"num": 1, "den": 5}}}}
            ))
            args = ("hochschild", g2, "--field", "f5", "--n", "1", "--cocycle", str(cochain))
        code, out, err = run_cli(*args, timeout=20)
        assert code == 2, err
        assert out == ""
        assert "not defined over F5" in err
        assert "Traceback" not in err

    def test_huge_scalar_power_is_modular_over_fp(self, tmp_path):
        # 2^99999999 = 2^3 = 3 (mod 5), by modular powers: no huge integer is built
        alg = tmp_path / "pow.alg"
        text = ("algebra pow over %s\nflavor supercommutative\nodd z1 z2\ncap 2\n"
                "relations\n  2^99999999*z1*z2\nend\n")
        alg.write_text(text % "F5")
        start = time.perf_counter()
        pres = parse_presentation(alg.read_text())
        assert time.perf_counter() - start < 0.5
        assert [r.terms for r in pres.relations] == [{(1, 1): 3}]
        mod = tmp_path / "pow.mod"
        mod.write_text("module pow\nm0 : even\nm1 : odd\nz1 m0 -> 2^99999999*m1\n")
        A = compile_presentation(parse_presentation(load_text(asset("grassmann2.alg")),
                                                    field=PrimeField(5)))
        start = time.perf_counter()
        M = parse_module(mod.read_text(), A)
        assert time.perf_counter() - start < 0.5
        assert M.actions[0].cols[0] == {1: 3}
        # over Q the same power passes POWER_BITS and is refused
        alg.write_text(text % "Q")
        code, out, err = run_cli("sdim", str(alg), timeout=20)
        assert code == 2
        assert out == ""
        assert "line 6, column 3: a power has a coefficient past 16384 bits" in err
        assert "Traceback" not in err

    def test_lines_after_module_regular_are_refused(self, tmp_path):
        mod = tmp_path / "regular_plus.mod"
        mod.write_text("module regular\nm0 : even\nz1 m0 -> 7*m0\n")
        code, out, err = run_cli("sdim", asset("grassmann2.alg"), "--module", str(mod), timeout=20)
        assert code == 2
        assert out == ""
        assert "line 2" in err
        assert "nothing may follow 'module regular'" in err
        assert "Traceback" not in err

    def test_huge_scalar_power_in_module_file_is_refused(self, tmp_path):
        mod = tmp_path / "huge.mod"
        mod.write_text("module huge\nm0 : even\nm1 : odd\nz1 m0 -> 2^99999999*m1\n")
        code, _out, err = run_cli("sdim", asset("grassmann2.alg"), "--module", str(mod), timeout=2)
        assert code in (0, 2)
        assert "Traceback" not in err

    @staticmethod
    def _refuses_field_order(tmp_path, where, order):
        """sdim with field order ``order`` in the flag or the algebra header
        exits 2 within 2 s, printing the bound (and the header's location)."""
        header = "algebra big over F%s" % order
        if where == "flag":
            args = ("sdim", asset("grassmann2.alg"), "--field", "f" + order)
        else:
            alg = tmp_path / "big.alg"
            alg.write_text(header + "\nflavor supercommutative\nodd z1 z2\ncap 2\n"
                           "relations\nend\n")
            args = ("sdim", str(alg))
        start = time.perf_counter()
        code, out, err = run_cli(*args, timeout=2)
        assert time.perf_counter() - start < 2
        assert code == 2
        assert out == ""
        assert "field order %s is past the bound 2147483648" % order in err
        if where == "header":
            assert "line 1, column %d:" % (header.index("F") + 1) in err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("where", ["flag", "header"])
    def test_huge_field_order_is_refused_before_trial_division(self, tmp_path, where):
        self._refuses_field_order(tmp_path, where, "1000000000000000000000000000057")

    @pytest.mark.parametrize("where", ["flag", "header"])
    def test_field_order_past_the_int_digit_limit_gives_the_bound(self, tmp_path, where):
        # 5,000 digits: int() of the string alone would refuse it with the
        # interpreter's digit-limit message
        err = self._refuses_field_order(tmp_path, where, "9" * 5000)
        assert "set_int_max_str_digits" not in err

    def test_size_past_the_generating_set_counts_zero(self):
        # no subset of the two odd generators has 10^11 elements, and none is
        # allocated for
        start = time.perf_counter()
        code, out, err = run_cli("odd-params", asset("grassmann2.alg"), "--size",
                                 "100000000000", timeout=2)
        assert time.perf_counter() - start < 2
        assert code == 0, err
        assert out == "size: 100000000000\ncount: 0\n"
        assert err == ""

    def test_hilbert_far_window_without_relations(self):
        code, out, err = run_cli(
            "hilbert", asset("free_3_2.alg"), "--kmax", "400", "--fit", timeout=20
        )
        assert code == 0, err
        assert "super-dimension: 3|2" in out

    def test_hilbert_certified_window_stops_ranking(self, tmp_path):
        # certified at k = 4, so --kmax 25 ranks five columns of boxes and
        # counts the rest; ranking all of them took about 2 s over Q
        alg = tmp_path / "found.alg"
        alg.write_text(
            "algebra found over Q\nflavor supercommutative\neven X1 X2 X3\nodd Y1 Y2\n"
            "relations\n  X1^2 + 3*X2^2 - X3^2 + X1*X2 + 2*X2*X3\n  X1*Y1 - X2*Y2\nend\n"
        )
        code, out, err = run_cli("hilbert", str(alg), "--kmax", "25", "--fit", timeout=2)
        assert code == 0, err
        code, out, err = run_cli("hilbert", str(alg), "--kmax", "12", timeout=2)
        assert code == 0, err
        ref = enumerated_bigraded_dims(parse_presentation(load_text(alg)), kmax=12)
        rows = [line for line in out.splitlines() if line.startswith("l=")]
        assert rows == ["l=%d: %s" % (l, " ".join(map(str, ref.row(l)))) for l in range(3)]

    def test_hilbert_past_the_box_budget_is_refused(self):
        code, out, err = run_cli("hilbert", asset("xy.alg"), "--kmax", "10000000", timeout=2)
        assert code == 2
        assert out == ""
        assert "20000002 boxes" in err
        assert "Traceback" not in err

    def test_relation_power_with_constant_term_is_refused(self, tmp_path):
        alg = tmp_path / "onex.alg"
        alg.write_text(
            "algebra onex over Q\nflavor supercommutative\neven x\ncap 3\n"
            "relations\n  (1+x)^99999999\nend\n"
        )
        code, _out, err = run_cli("sdim", str(alg), timeout=2)
        assert code == 2
        assert "line 6, column 3" in err
        assert "exceeds cap 3" in err

    @pytest.mark.parametrize("field", ["Q", "F5"])
    def test_relation_power_past_the_term_budget_is_refused(self, tmp_path, field):
        alg = tmp_path / "xy.alg"
        alg.write_text(
            "algebra xy over %s\nflavor supercommutative\neven x y\n"
            "relations\n  (x+y)^99999999\nend\n" % field
        )
        code, out, err = run_cli("hilbert", str(alg), "--kmax", "4", timeout=2)
        assert code == 2
        assert out == ""
        assert "line 5, column 3" in err
        assert "more than 256 terms" in err
        assert "Traceback" not in err

    def test_cap_past_the_monomial_budget_is_refused(self, tmp_path):
        alg = tmp_path / "cap60.alg"
        alg.write_text(
            "algebra cap60 over Q\nflavor supercommutative\neven x y z w\nodd a b\n"
            "cap 60\nrelations\nend\n"
        )
        code, out, err = run_cli("sdim", str(alg), timeout=2)
        assert code == 2
        assert out == ""
        assert "more than 65536 normal monomials" in err
        assert "Traceback" not in err

    def test_gr_past_the_pair_budget_is_refused(self, tmp_path):
        alg = tmp_path / "lambda12.alg"
        alg.write_text(
            "algebra lambda12 over Q\nflavor supercommutative\nodd %s\ncap 12\n"
            "relations\nend\n" % " ".join("z%d" % i for i in range(1, 13))
        )
        code, out, err = run_cli("gr", str(alg), "--ideal", "odd-radical", timeout=2)
        assert code == 2
        assert out == ""
        assert "takes 16777216 product pairs, past the budget of 2097152" in err
        assert "Traceback" not in err

    def test_determinism_byte_identical(self):
        args = ("corpus", "--case", "c2", "--format", "report")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]

    def test_entry_point_matches_module_run(self, capsys):
        code, out, _err = run_cli("sdim", asset("grassmann2.alg"))
        assert code == 0
        assert main(["sdim", asset("grassmann2.alg")]) == 0
        assert capsys.readouterr().out == out


class TestParserReuse:
    """``main`` builds the argument parser once per process and reuses it: a
    sequence of calls in one process prints what fresh processes print."""

    SEQUENCE = (
        ("gr", asset("grassmann2.alg"), "--ideal", "odd-radical", "--bigraded"),
        ("gr", asset("grassmann2.alg"), "--ideal", "odd-radical"),
        ("sdim", asset("grassmann2.alg"), "--seed", "5"),
        ("sdim", asset("grassmann2.alg")),
        ("hochschild", asset("grassmann2.alg")),  # --n missing: usage error
        ("sdim", asset("grassmann2.alg"), "--format", "report"),
        ("hochschild", asset("grassmann2.alg"), "--n", "1",
         "--cocycle", asset("coboundary_pi.json"), "--build-api"),
        ("hochschild", asset("grassmann2.alg"), "--n", "1"),
    )

    def test_calls_in_one_process_match_fresh_processes(self, capsys, monkeypatch):
        # the usage message wraps at the terminal width; pin it for both sides
        monkeypatch.setenv("COLUMNS", "80")
        builds = []

        def counted():
            builds.append(1)
            return build()

        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", counted)
        cli._parser.cache_clear()
        codes = []
        try:
            for argv in self.SEQUENCE:
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                out, err = capsys.readouterr()
                assert (code, out, err) == run_cli(*argv), argv
                codes.append(code)
        finally:
            cli._parser.cache_clear()
        assert codes == [0, 0, 0, 0, 2, 0, 0, 0]
        assert len(builds) == 1

    def test_import_builds_no_parser(self):
        probe = (
            "import sys\n"
            "calls = []\n"
            "def watch(frame, event, arg):\n"
            "    if event == 'call' and frame.f_code.co_name == '_build_parser':\n"
            "        calls.append(1)\n"
            "sys.setprofile(watch)\n"
            "import superdim.cli\n"
            "at_import = len(calls)\n"
            "superdim.cli._parser()\n"
            "superdim.cli._parser()\n"
            "sys.setprofile(None)\n"
            "print(at_import, len(calls))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.stdout.split() == ["0", "1"], proc.stderr


class TestClosedStdout:
    """A reader that closes its end before the output is written, as
    ``superdim ... | head -c 10`` may, ends the run with exit 2 and one
    error line, not a BrokenPipeError traceback."""

    LAMBDA10 = ("algebra l10 over Q\nflavor supercommutative\n"
                "odd z1 z2 z3 z4 z5 z6 z7 z8 z9 z10\ncap 10\nrelations\nend\n")

    @pytest.mark.parametrize("fmt", ["text", "report"])
    def test_odd_params_into_a_closed_reader(self, tmp_path, fmt):
        (tmp_path / "l10.alg").write_text(self.LAMBDA10)
        argv = ["odd-params", str(tmp_path / "l10.alg"), "--size", "5", "--format", fmt]
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the child writes
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
        try:
            proc = subprocess.run([sys.executable, "-m", "superdim", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stderr) == (2, "error: the output could not be written\n")


def _exterior(s):
    """Lambda_s: s odd generators, no relations."""
    return ("algebra l%d over Q\nflavor supercommutative\nodd %s\ncap %d\nrelations\nend\n"
            % (s, " ".join("z%d" % i for i in range(1, s + 1)), s))


class TestOddParamsMemory:
    """The subset search builds no matrix per product: each run is a fresh
    process that reports its own peak RSS (``VmHWM``).  With one cached
    dim x dim matrix per product monomial, Lambda_12 at size 6 took 1 GB and
    Lambda_14 at size 7 ran out of memory."""

    # The child writes its VmHWM to a side file, so its stderr stays the
    # command's.  The ru_maxrss that os.wait4 reports would also keep the
    # pages the child shared with this process before exec.
    _MAIN = (
        "import sys\n"
        "from superdim.cli import main\n"
        "code = main(sys.argv[2:])\n"
        "with open('/proc/self/status') as fh:\n"
        "    kb = next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
        "with open(sys.argv[1], 'w') as fh:\n"
        "    fh.write(str(kb))\n"
        "sys.exit(code)\n"
    )

    @classmethod
    def _run(cls, tmp_path, s, size, address_space=None):
        (tmp_path / "l.alg").write_text(_exterior(s))
        argv = [sys.executable, "-c", cls._MAIN, str(tmp_path / "hwm"), "odd-params",
                str(tmp_path / "l.alg"), "--size", str(size)]
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))

        def limits():  # CPU seconds bound the run
            resource.setrlimit(resource.RLIMIT_CPU, (120, 120))
            if address_space is not None:
                resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

        with open(tmp_path / "out", "w+") as out, open(tmp_path / "err", "w+") as err:
            code = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                    preexec_fn=limits).wait()
            out.seek(0)
            err.seek(0)
            hwm = tmp_path / "hwm"  # absent if main did not return
            rss_mb = int(hwm.read_text()) / 1024 if hwm.exists() else None
            return code, out.read(), err.read(), rss_mb

    def test_lambda12_size6_under_200mb(self, tmp_path):
        code, out, err, rss_mb = self._run(tmp_path, 12, 6, address_space=1 << 30)
        assert (code, err) == (0, "")
        assert "count: 924" in out
        assert rss_mb < 200, "peak RSS %.0f MB" % rss_mb

    def test_lambda14_size7_ends(self, tmp_path):
        code, out, err, _rss_mb = self._run(tmp_path, 14, 7)
        assert (code, err) == (0, "")
        assert "count: 3432" in out
