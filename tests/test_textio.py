"""Text grammars: parsing, formatting, round trips and error spans."""

import glob
import os
from fractions import Fraction

import pytest

from superdim.algebra import compile_presentation
from superdim.exactlin import Matrix, PrimeField, QQ, vec_add_scaled
from superdim.sdim import EMPTY_SDIM, SuperDimension
from superdim.smodule import regular_module
from superdim.textio import (
    ParseError,
    emit_report,
    format_module,
    format_presentation,
    parse_elements,
    parse_module,
    parse_presentation,
    report_to_data,
    scalar_to_data,
)

ASSETS = os.path.join(os.path.dirname(__file__), "..", "src", "superdim", "assets")


def load(name):
    with open(os.path.join(ASSETS, name)) as fh:
        return fh.read()


class TestPresentationGrammar:
    def test_grassmann_asset(self):
        pres = parse_presentation(load("grassmann2.alg"))
        assert pres.name == "grassmann2"
        assert [g.name for g in pres.gens] == ["z1", "z2"]
        assert pres.cap == 2
        A = compile_presentation(pres)
        assert A.dim == 4

    def test_field_override(self):
        pres = parse_presentation(load("grassmann2.alg"), field=PrimeField(3))
        assert pres.field.characteristic == 3

    def test_header_field_f5(self):
        text = "algebra a over F5\nflavor supercommutative\nodd y\ncap 1\n"
        pres = parse_presentation(text)
        assert pres.field.characteristic == 5

    def test_cap_is_optional(self):
        pres = parse_presentation(load("free_2_3.alg"))
        assert pres.cap is None

    def test_bidegree_suffix(self):
        text = (
            "algebra a over Q\nflavor supercommutative\n"
            "even u(2,0)\nodd w(0,3)\ncap 3\n"
        )
        pres = parse_presentation(text)
        assert pres.gens[0].bidegree == (2, 0)
        assert pres.gens[1].bidegree == (0, 3)
        assert "u(2,0)" in format_presentation(pres)

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("algebra x\n", 1, "algebra NAME over FIELD"),
            (
                "algebra a over Q\nflavor supercommutative\neven x$\nrelations\nend\n",
                3,
                "bad generator item",
            ),
            (
                "algebra a over Q\nflavor supercommutative\neven x\nrelations\n x*(x\nend\n",
                5,
                "expected ')'",
            ),
            (
                "algebra a over Q\nflavor supercommutative\neven x\ncap 3\nrelations\n x^2 - x\nend\n",
                6,
                "not degree-homogeneous",
            ),
            (
                "algebra a over Q\nflavor supercommutative\neven x\ncap 2\nrelations\n x^2\n x*x*x\nend\n",
                7,
                "relation degree 3 exceeds cap 2",
            ),
            (
                "algebra a over Q\nflavor supercommutative\neven x\nodd y\nrelations\n x*y - x\nend\n",
                6,
                "not degree-homogeneous",
            ),
            (
                "algebra a over Q\nflavor supercommutative\neven x\nodd y(2,1)\nrelations\n x^3 - y\nend\n",
                6,
                "not parity-homogeneous",
            ),
            (
                "algebra a over Q\nflavor supercommutative\neven x\nrelations\n x - x + 3\nend\n",
                5,
                "nonzero constant",
            ),
            (
                "algebra a over Q\nflavor supercommutative\neven x\ncap 2\nrelations\n x - y\nend\n",
                6,
                "unknown generator",
            ),
            ("algebra a over F4\nflavor supercommutative\neven x\ncap 2\n", 1, "prime"),
            (
                "algebra a over F2\nflavor supercommutative\neven x\ncap 2\nrelations\n 1/2*x^2\nend\n",
                6,
                "not defined over F2",
            ),
            (
                "algebra a over Q\nflavor supercommutative\neven x\ncap 2\nrelations\n 1/0*x^2\nend\n",
                6,
                "zero denominator",
            ),
            (
                "algebra a over Q\nflavor supercommutative\neven x\ncap 3\nrelations\n x^99999999\nend\n",
                6,
                "exceeds cap 3",
            ),
            (
                "algebra a over Q\nflavor supercommutative\neven x\ncap 3\nrelations\n (1+x)^99999999\nend\n",
                6,
                "exceeds cap 3",
            ),
            (
                "algebra a over Q\nflavor supercommutative\neven x\ncap 3\nrelations\n 2^99999999*x^3\nend\n",
                6,
                "past 16384 bits",
            ),
            (
                "algebra a over Q\nflavor supercommutative\neven x\nrelations\n x^99999999\nend\ncap 3\n",
                5,
                "exceeds cap 3",
            ),
            (
                "algebra a over Q\nflavor supercommutative\nrelations\n x^2\nend\neven x\ncap 1\n",
                4,
                "exceeds cap 1",
            ),
            (
                "algebra a over F5\nflavor supercommutative\neven x y\nrelations\n (x+y)^99999999\nend\n",
                5,
                "more than 256 terms",
            ),
            (
                "algebra a over Q\nflavor associative\neven x y\nrelations\n (x+y)^9\nend\n",
                5,
                "more than 256 terms",
            ),
        ],
    )
    def test_errors_carry_spans(self, text, line, fragment):
        with pytest.raises(ParseError) as e:
            parse_presentation(text)
        assert e.value.span.line == line
        assert fragment in str(e.value)

    @pytest.mark.parametrize(
        "generators,column,fragment",
        [
            ("even w x(0,0)", 8, "generator x has degree 0"),
            ("odd x y x", 9, "duplicate generator 'x'"),
            ("even xx x$", 9, "bad generator item 'x$'"),
            ("odd x w(1,2)", 7, "odd-degree 2 inconsistent with parity"),
        ],
    )
    def test_generator_errors_point_at_their_item(self, generators, column, fragment):
        text = "algebra a over Q\nflavor supercommutative\n%s\ncap 2\n" % generators
        with pytest.raises(ParseError) as e:
            parse_presentation(text)
        assert (e.value.span.line, e.value.span.column) == (3, column)
        assert fragment in str(e.value)

    def test_nilpotent_power_past_the_cap_is_vacuous(self):
        # (a + b)^3 = 0 for odd a, b: the power is computed, not refused.
        text = ("algebra a over Q\nflavor supercommutative\nodd a b\ncap 1\n"
                "relations\n (a + b)^99999999\nend\n")
        assert parse_presentation(text).relations == []

    def test_power_within_the_term_budget_is_expanded(self):
        # (x + y)^255 has 256 terms; (x + y + z)^2 in the associative flavor 9 words.
        text = ("algebra a over F5\nflavor supercommutative\neven x y\n"
                "relations\n (x+y)^255\nend\n")
        (rel,) = parse_presentation(text).relations
        assert rel.degree() == 255
        text = ("algebra a over Q\nflavor associative\neven x y z\nrelations\n (x+y+z)^2\nend\n")
        (rel,) = parse_presentation(text).relations
        assert len(rel.terms) == 9

    def test_power_with_nilpotent_terms_is_squared(self):
        # (1 + y)^n = 1 + n*y for odd y, so the relation below is 5*y.
        text = ("algebra a over Q\nflavor supercommutative\neven x\nodd y\ncap 3\n"
                "relations\n (1+y)^99999999 - 1 + 5*y - 99999999*y\nend\n")
        (rel,) = parse_presentation(text).relations
        assert rel.terms == {(0, 1): 5}

    def test_negative_coefficients_keep_their_sign(self):
        # integral coefficients are ints over Q; each prints with a minus
        text = (
            "algebra a over Q\nflavor supercommutative\neven x\nodd y z\ncap 3\n"
            "relations\n  x*y - 2*x*z\n  -3/2*x^2*y\n  -x*z\nend\n"
        )
        assert format_presentation(parse_presentation(text)) == text

    def test_round_trip_idempotent_on_all_assets(self):
        for path in sorted(glob.glob(os.path.join(ASSETS, "*.alg"))):
            text = open(path).read()
            once = format_presentation(parse_presentation(text))
            twice = format_presentation(parse_presentation(once))
            assert once == twice, path


class TestModuleGrammar:
    def setup_method(self):
        self.A = compile_presentation(parse_presentation(load("grassmann2.alg")))

    def test_regular_keyword(self):
        M = parse_module(load("regular.mod"), self.A)
        assert M.dim == self.A.dim

    def test_explicit_module_round_trip(self):
        text = "module m\nm0 : even\nm1 : odd\nz1 m0 -> m1\n"
        M = parse_module(text, self.A)
        assert M.dim == 2
        once = format_module(M)
        assert once == text
        assert format_module(parse_module(once, self.A)) == once

    def test_negative_coefficients_keep_their_sign(self):
        text = (
            "module m\nm0 : even\nm1 : odd\nm2 : odd\n"
            "z1 m0 -> m1 - 2*m2\nz2 m0 -> -1/2*m1\n"
        )
        assert format_module(parse_module(text, self.A)) == text

    def test_formatter_uses_module_name(self):
        M = regular_module(self.A)
        M.name = "bad name with spaces"
        assert format_module(M).startswith("module M\n")
        M.name = "tidy"
        assert format_module(M).startswith("module tidy\n")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("module m\nm0 : evenish\n", "parity"),
            ("module m\nm0 : even\nz1 m9 -> m0\n", "unknown basis symbol"),
            ("module m\nm0 : even\nm1 : even\nz1 m0 -> m1\n", "mixes parities"),
            ("module m\nm0 : even\nz1 m0 -> 2\n", "not a module vector"),
            ("module m\nm0 : even\nw m0 -> 0\n", "unknown generator"),
            ("module m\nm0 : even\nm0 : odd\n", "duplicate basis symbol"),
            ("module m\nm0 : even\nm1 : odd\nz1 m0 -> 1/0*m1\n", "zero denominator"),
            ("junk\n", "expected 'module NAME'"),
            ("module regular\nm0 : even\n", "nothing may follow 'module regular'"),
            ("module regular\n# note\n\nz1 m0 -> 7*m0\n", "nothing may follow"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError) as e:
            parse_module(text, self.A)
        assert fragment in str(e.value)

    @pytest.mark.parametrize(
        "line,column,fragment",
        [
            ("Z1 Z1 -> m0", 4, "unknown basis symbol 'Z1'"),
            ("  m0 m0 -> m0", 3, "unknown generator 'm0'"),
            ("Z1  Z1 -> m0", 5, "unknown basis symbol 'Z1'"),
            ("m1 :  evenish", 7, "parity must be"),
        ],
    )
    def test_errors_point_at_their_token(self, line, column, fragment):
        # each token's own column, not the first occurrence of its text
        A = compile_presentation(parse_presentation(
            "algebra z over Q\nflavor supercommutative\nodd Z1\ncap 1\n"))
        with pytest.raises(ParseError) as e:
            parse_module("module m\nm0 : even\n%s\n" % line, A)
        assert (e.value.span.line, e.value.span.column) == (3, column)
        assert fragment in str(e.value)

    def test_lines_after_regular_are_refused_at_their_line(self):
        with pytest.raises(ParseError) as e:
            parse_module("module regular\n# note\n\nz1 m0 -> 7*m0\n", self.A)
        assert e.value.span.line == 4

    def test_coefficient_undefined_in_field(self):
        A = compile_presentation(parse_presentation(load("grassmann2.alg"), field=PrimeField(2)))
        with pytest.raises(ParseError) as e:
            parse_module("module m\nm0 : even\nm1 : odd\nz1 m0 -> 1/2*m1\n", A)
        assert e.value.span.line == 4
        assert "not defined over F2" in str(e.value)

    def test_second_action_on_a_symbol_is_refused(self):
        text = "module m\nm0 : even\nm1 : odd\nz1 m0 -> m1\nz2 m0 -> m1\nz1 m0 -> 2*m1\n"
        with pytest.raises(ParseError) as e:
            parse_module(text, self.A)
        assert e.value.span.line == 6
        assert "second action of z1 on m0" in str(e.value)

    def test_omitted_images_are_zero(self):
        M = parse_module("module m\nm0 : even\n", self.A)
        assert M.actions[0].is_zero()

    @pytest.mark.parametrize(
        "image,message",
        [
            ("m0*m1", "cannot multiply two basis symbols"),
            ("1 + m1", "cannot add a scalar and a basis combination"),
            ("m1^2", "cannot raise a basis symbol to a power"),
        ],
    )
    def test_image_refusals_are_at_the_image(self, image, message):
        with pytest.raises(ParseError) as e:
            parse_module("module m\nm0 : even\nm1 : odd\nz1 m0 -> %s\n" % image, self.A)
        assert str(e.value) == "line 4, column 9: " + message

    @pytest.mark.parametrize("image", ["0 + m1", "(1 + m1) - 1", "m1 + 2*m0*(m0 - m0)"])
    def test_a_vanishing_scalar_next_to_basis_symbols_is_read(self, image):
        # an image is read in K + V: only its final scalar part must vanish
        M = parse_module("module m\nm0 : even\nm1 : odd\nz1 m0 -> %s\n" % image, self.A)
        assert M.actions[0].cols_sparse()[0] == {1: 1}


class TestElements:
    def setup_method(self):
        self.A = compile_presentation(parse_presentation(load("grassmann2.alg")))

    def test_comma_separated_expressions(self):
        A = self.A
        z1, z2 = A.generator_element("z1"), A.generator_element("z2")
        got = parse_elements(" z1 , 1/2*z2 - z1*z2,, (1+z1)^3", A)
        half_z2 = vec_add_scaled({}, z2, Fraction(1, 2), QQ)
        assert got[0] == z1
        assert got[1] == vec_add_scaled(half_z2, A.mul(z1, z2), -1, QQ)
        assert got[2] == vec_add_scaled(A.unit_element(), z1, 3, QQ)
        assert len(got) == 3

    def test_errors_name_their_column(self):
        with pytest.raises(ParseError, match="line 1, column 6: expected a number"):
            parse_elements("z1, (", self.A)
        with pytest.raises(ParseError, match="line 1, column 8: unknown generator 'q'"):
            parse_elements("z1, z2*q", self.A)
        F5 = compile_presentation(parse_presentation(load("grassmann2.alg"), field=PrimeField(5)))
        with pytest.raises(ParseError, match="line 1, column 5: a coefficient is not defined"):
            parse_elements("z1, 2/5*z2", F5)

    def test_a_refused_power_names_its_element(self):
        with pytest.raises(ParseError, match="line 1, column 4: a power has a coefficient past"):
            parse_elements("z1,2^99999*z2", self.A)


class TestReports:
    def test_scalar_conversions(self):
        F = PrimeField(7)
        data = report_to_data(
            {
                "frac": Fraction(-3, 2),
                "fp": scalar_to_data(F.of(4)),
                "fp_bare": F.of(4),
                "sdim": SuperDimension(0, 3),
                "empty": EMPTY_SDIM,
                "nested": {"xs": [1, True, None, "s"]},
            }
        )
        assert data["frac"] == {"num": -3, "den": 2}
        assert data["fp"] == {"num": 4, "den": 1}
        # an F_p scalar is an int, so outside a Matrix it reads as a count like
        # an integral rational; its site serialises it with scalar_to_data
        assert data["fp_bare"] == 4
        assert data["sdim"] == {"even": 0, "odd": 3}
        assert data["empty"] == {"empty": True}
        assert data["nested"] == {"xs": [1, True, None, "s"]}

    def test_matrix_rows(self):
        m = Matrix.from_cols_sparse(2, [{0: Fraction(1)}, {1: Fraction(2)}], QQ)
        assert report_to_data(m) == [
            [{"num": 1, "den": 1}, {"num": 0, "den": 1}],
            [{"num": 0, "den": 1}, {"num": 2, "den": 1}],
        ]

    def test_integral_scalars_serialise_as_fractions(self):
        m = Matrix.from_rows([[1, 0], [Fraction(6, 3), -3]], QQ)
        assert all(type(x) is int for col in m.cols for x in col.values())
        assert report_to_data(m) == [
            [{"num": 1, "den": 1}, {"num": 0, "den": 1}],
            [{"num": 2, "den": 1}, {"num": -3, "den": 1}],
        ]
        assert scalar_to_data(-4) == {"num": -4, "den": 1}
        assert scalar_to_data(Fraction(-3, 2)) == {"num": -3, "den": 2}
        assert scalar_to_data(PrimeField(7).of(-1)) == {"num": 6, "den": 1}
        # a bare int elsewhere in a report is a count
        assert report_to_data({"count": 3}) == {"count": 3}

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            report_to_data(object())

    def test_emit_is_sorted_and_newline_terminated(self):
        out = emit_report({"b": 1, "a": 2})
        assert out == '{\n  "a": 2,\n  "b": 1\n}\n'
