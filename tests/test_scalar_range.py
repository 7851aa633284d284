"""Every stored scalar is in range: an int in 0..p-1 over GF(p), and over Q
never a Fraction that an int should stand for.

Every vector handed to a Matrix, to Echelon.reduce or Echelon.insert, or to
row_rank is checked while the corpus and the CLI commands run, so a site
outside the kernels that stores an unreduced sum, product or negation (a
sign -c taken over F_p, say) shows up with the scalar that broke the range.
"""

from fractions import Fraction

import pytest

from superdim import cli, exactlin
from superdim.corpus import corpus_all
from superdim.exactlin import QQ, Echelon, Matrix, PrimeField

from test_cli import asset

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(5)]


def _out_of_range(field, values):
    """The first scalar among ``values`` that breaks the range over field, or None."""
    p = field.characteristic
    for x in values:
        if p:
            if type(x) is not int or not 0 <= x < p:
                return x
        elif type(x) is Fraction and x.denominator == 1:
            return x
    return None


@pytest.fixture
def watched(monkeypatch):
    """Counts of the watched calls; a stored scalar out of range fails the test."""
    seen = {"matrix": 0, "insert": 0, "reduce": 0, "row_rank": 0}
    init, insert, reduce = Matrix.__init__, Echelon.insert, Echelon.reduce
    pivot_rows = exactlin._pivot_rows

    def check(field, values, where):
        bad = _out_of_range(field, values)
        assert bad is None, "%s over %s stores %r" % (where, field, bad)

    def checked_init(self, nrows, ncols, cols, field):
        for col in cols:
            check(field, col.values(), "a Matrix column")
        seen["matrix"] += 1
        init(self, nrows, ncols, cols, field)

    def checked_reduce(self, vec):
        check(self.field, vec.values(), "a vector reduced by an Echelon")
        seen["reduce"] += 1
        return reduce(self, vec)

    def checked_insert(self, vec):
        check(self.field, vec.values(), "a vector inserted into an Echelon")
        seen["insert"] += 1
        return insert(self, vec)

    def checked_pivot_rows(vectors, field):
        def each():
            for vec in vectors:
                check(field, vec.values(), "a vector ranked by row_rank")
                seen["row_rank"] += 1
                yield vec

        return pivot_rows(each(), field)

    monkeypatch.setattr(Matrix, "__init__", checked_init)
    monkeypatch.setattr(Echelon, "reduce", checked_reduce)
    monkeypatch.setattr(Echelon, "insert", checked_insert)
    monkeypatch.setattr(exactlin, "_pivot_rows", checked_pivot_rows)
    return seen


def test_the_check_flags_out_of_range_scalars():
    F5 = PrimeField(5)
    assert _out_of_range(F5, [0, 4, 1]) is None
    assert _out_of_range(F5, [2, -1]) == -1
    assert _out_of_range(F5, [5]) == 5
    assert _out_of_range(F5, [Fraction(1, 2)]) == Fraction(1, 2)
    assert _out_of_range(QQ, [2, -3, Fraction(1, 2)]) is None
    assert _out_of_range(QQ, [Fraction(4, 2)]) == 2


@pytest.mark.parametrize("field", FIELDS, ids=lambda F: F.name)
def test_corpus_stores_scalars_in_range(field, watched):
    reports = corpus_all(field)
    assert all(rep["ok"] for rep in reports.values())
    assert watched["matrix"] and watched["insert"] and watched["reduce"]


G2, XY = asset("grassmann2.alg"), asset("xy.alg")
# reordering the odd letters of a product flips the sign of a relation term
SIGNED = (
    "algebra signed over Q\nflavor supercommutative\neven X1 X2\nodd Y1 Y2 Y3\ncap 4\n"
    "relations\n  X1*Y1 - X2*Y2\n  X1*X2*Y3\nend\n"
)
COMMANDS = {
    "sdim": ["sdim", G2],
    "odd-params": ["odd-params", G2],
    "regular": ["regular", G2, "--module", asset("regular.mod"), "--elems", "z1, 2*z2 - z1"],
    "gr-verify": ["gr", G2, "--ideal", "odd-radical", "--verify"],
    "gr-bigraded": ["gr", G2, "--ideal", "3*z1 - z1*z2", "--bigraded"],
    "hilbert": ["hilbert", XY, "--kmax", "8", "--fit"],
    "hilbert-signed": ["hilbert", "{tmp}/signed.alg", "--kmax", "6", "--fit"],
    "sdim-signed": ["sdim", "{tmp}/signed.alg"],
    "hochschild-n0": ["hochschild", G2, "--n", "0"],
    "hochschild-n1": ["hochschild", G2, "--n", "1"],
    "hochschild-n2": ["hochschild", G2, "--n", "2"],
    "cocycle": ["hochschild", G2, "--n", "1", "--cocycle", asset("coboundary_pi.json"),
                "--build-api", "--classify", asset("zero_pi.json")],
}


@pytest.mark.parametrize("field", ["f3", "f5", "q"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_commands_store_scalars_in_range(name, field, watched, capsys, tmp_path):
    (tmp_path / "signed.alg").write_text(SIGNED)
    argv = [a.format(tmp=tmp_path) for a in COMMANDS[name]]
    code = cli.main(argv + ["--field", field, "--format", "report"])
    out, err = capsys.readouterr()
    # the shipped cochains are a coboundary over Q and need not be a cocycle over F_p
    assert code == 0 or (name == "cocycle" and code == 1 and "FAIL" in err), err
    assert out
    assert sum(watched.values())
