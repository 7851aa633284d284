"""textio's one expression evaluator against the three walkers it replaced.

Seeded random expressions over Q, F2 and F5 are read as relations, as
algebra elements and as module images, once through the package and once
through the earlier walkers kept in ``oracles`` (``_poly_eval``,
``_element_eval`` and ``_combo_eval``), each wrapped as its caller wrapped
it.  Relations and elements come out identical, except that an element
power past ``exactlin.POWER_BITS`` is now located at its element.  Every
image the earlier walker accepted gives the identical vector; an image it
refused is refused again or, when a zero scalar or a cancelling sub-sum
meets a basis part, accepted with the vector it denotes.
"""

import random

import pytest

import oracles
from superdim.algebra import compile_presentation
from superdim.exactlin import QQ, PrimeField
from superdim.textio import (
    ParseError,
    SourceSpan,
    _module_image,
    _parse_expression,
    _relation,
    parse_elements,
    parse_presentation,
)

FIELDS = {"Q": QQ, "F2": PrimeField(2), "F5": PrimeField(5)}
CASES = 1500  # expressions per kind and field
NUMBERS = ["0", "1", "2", "3", "7", "10", "1/2", "2/3", "1/5"]
EXPONENTS = [0, 1, 2, 3, 5, 9, 64, 99999, 99999999]
HEADS = [
    "algebra s over Q\nflavor supercommutative\neven a b(2,0)\nodd x y\ncap 4\n",
    "algebra s over Q\nflavor supercommutative\neven a b(2,0)\nodd x y\n",
    "algebra t over Q\nflavor associative\neven a\nodd x\ncap 3\n",
]
IMAGE_REFUSALS = {
    "cannot multiply two basis symbols",
    "cannot raise a basis symbol to a power",
    "cannot add a scalar and a basis combination",
    "a nonzero constant is not a module vector",
    "unknown basis symbol 'q'",
    "a power has a coefficient past 16384 bits",
}


def _expression(rng, names, depth=3):
    """Random text in the expression grammar: numbers, names (one of them
    unknown to the reader), nested signs and parentheses, and powers."""

    def atom(d):
        r = rng.random()
        if d and r < 0.25:
            return "(%s)" % expr(d - 1)
        return rng.choice(names) if r < 0.65 else rng.choice(NUMBERS)

    def factor(d):
        a = atom(d)
        return a + "^%d" % rng.choice(EXPONENTS) if rng.random() < 0.2 else a

    def term(d):
        return "*".join(factor(d) for _ in range(rng.randint(1, 3)))

    def expr(d):
        out = ("-" if rng.random() < 0.25 else "") + term(d)
        for _ in range(rng.randint(0, 2)):
            out += " %s %s" % (rng.choice("+-"), term(d))
        return out

    return expr(depth)


def _outcome(fn, *args):
    """("value", scalars with their types), ("refused", message, span), or
    ("unlocated", message) for a ValueError without a span."""
    try:
        value = fn(*args)
    except ParseError as exc:
        return ("refused", exc.message, exc.span)
    except ValueError as exc:
        return ("unlocated", str(exc))
    terms = getattr(value, "terms", value)
    return ("value", {k: (type(c), c) for k, c in terms.items()})


def _parent_relation(node, span, pres):
    try:
        return oracles._poly_eval(node, pres, span)
    except ZeroDivisionError:
        raise ParseError("a coefficient is not defined over %s" % pres.field.name, span)


def _parent_element(text, A):
    node = _parse_expression(text, 1, 0)
    try:
        return oracles._element_eval(node, A)
    except ZeroDivisionError:
        raise ParseError("a coefficient is not defined over %s" % A.field.name,
                         SourceSpan(1, 1, len(text)))


def _parent_image(node, span, symtab, field):
    try:
        kind, val = oracles._combo_eval(node, symtab, field, span)
    except ZeroDivisionError:
        raise ParseError("a coefficient is not defined over %s" % field.name, span)
    if kind == "scalar":
        if val:
            raise ParseError("a nonzero constant is not a module vector", span)
        return {}
    return val


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_relations_are_read_as_before(fname):
    field = FIELDS[fname]
    rng = random.Random("relations-" + fname)
    presentations = [parse_presentation(h, field=field) for h in HEADS]
    refused = 0
    for _ in range(CASES):
        pres = rng.choice(presentations)
        text = _expression(rng, [g.name for g in pres.gens] + ["q"])
        node = _parse_expression(text, 7, 2)
        span = SourceSpan(7, 3, len(text))
        want = _outcome(_parent_relation, node, span, pres)
        assert _outcome(_relation, node, span, pres) == want, text
        refused += want[0] == "refused"
    assert 0 < refused < CASES


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_elements_are_read_as_before_with_powers_located(fname):
    field = FIELDS[fname]
    rng = random.Random("elements-" + fname)
    algebras = [
        compile_presentation(parse_presentation(h, field=field))
        for h in (HEADS[0].replace("cap 4", "cap 3"), "algebra g over Q\n"
                  "flavor supercommutative\nodd z1 z2\ncap 2\n")
    ]
    located = 0
    for _ in range(CASES):
        A = rng.choice(algebras)
        text = _expression(rng, [label for label, _p, _v in A.generators] + ["q"])
        want = _outcome(_parent_element, text, A)
        got = _outcome(lambda: parse_elements(text, A)[0])
        if want[0] == "unlocated":
            assert "past 16384 bits" in want[1], text
            assert got == ("refused", want[1], SourceSpan(1, 1, len(text))), text
            located += 1
        else:
            assert got == want, text
    # F_p scalars never pass the bit bound; some rational ones do
    assert (located > 0) == (field is QQ)


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_images_are_read_as_before_or_as_the_vector_they_denote(fname):
    field = FIELDS[fname]
    rng = random.Random("images-" + fname)
    symtab = {"m0": 0, "m1": 1, "m2": 2}
    # an accepted image denotes its polynomial in commuting m0, m1, m2,
    # which must then be linear
    free = parse_presentation(
        "algebra v over Q\nflavor supercommutative\neven m0 m1 m2\n", field=field
    )
    # integral scalars made of fractions: a scale is the scalar as the
    # field stores it, an int when its denominator is 1
    fixed = ["(1/2 + 1/2)*m1", "m0*(2*1/2)", "(3*2/3)^2*m1 - m0", "1/2*(2*m0)"]
    texts = fixed + [_expression(rng, sorted(symtab) + ["q"]) for _ in range(CASES)]
    kept = accepted = other = 0
    for text in texts:
        node = _parse_expression(text, 4, 8)
        span = SourceSpan(4, 9, len(text))
        want = _outcome(_parent_image, node, span, symtab, field)
        got = _outcome(_module_image, node, span, symtab, field)
        if want[0] == "value":
            assert got == want, text
            kept += 1
            continue
        assert want[0] == "refused", text
        if got[0] == "value":
            accepted += 1
            denoted = oracles._poly_eval(node, free, span).terms
            assert all(sum(m) == 1 for m in denoted), text
            assert got[1] == {m.index(1): (type(c), c) for m, c in denoted.items()}, text
        elif got != want:
            # the walk goes on past a fault the earlier walker stopped at
            other += 1
            assert got[0] == "refused", text
            assert got[1] in IMAGE_REFUSALS | {"a coefficient is not defined over " + fname}, text
    assert kept and accepted and other
