"""Line-oriented text formats: presentations, modules and reports.

The presentation grammar (one directive per line, '#' starts a comment):

    algebra NAME over Q          # or F<p> for a prime field
    flavor supercommutative      # or associative
    even a b(2,0) c              # generators with optional (k,l) bidegrees
    odd  x y
    cap 3
    relations
      a*b - 2*x*y
      x^2
    end

Expressions use integer or rational coefficients (like 1/2), '*', '^',
'+', '-' and parentheses; juxtaposition is not multiplication.  In the
associative flavor the written factor order is kept.  Relations that
normalize to zero (an odd square, say) are dropped as vacuous.  The cap
line is optional: compiling a truncated algebra requires one, bigraded
dimension tables do not.

The module grammar, relative to a compiled algebra A:

    module NAME                  # or exactly:  module regular
    m0 : even                    # basis symbols with parities
    m1 : odd
    Z1 m0 -> m1                  # generator action, omitted images are 0
    Y  m1 -> -1*m0 + 1/2*m1

A list of algebra elements (``parse_elements``) is comma-separated
expressions in the generators, like ``z1, 1/2*z2 - z1*z3``.

Reports serialize to JSON with sorted keys; rationals become
{"num": ..., "den": ...} objects and matrices row-major arrays, so two
runs over the same input emit identical bytes.
"""

import json
import operator
import re
from fractions import Fraction
from math import comb

from .algebra import AlgebraError, Presentation, check_relation
from .exactlin import Matrix, field_from_name, power, vec_add_scaled
from .sdim import SuperDimension
from .smodule import module_from_actions, regular_module
from .superpoly import (
    ASSOCIATIVE,
    EVEN,
    ODD,
    SUPERCOMMUTATIVE,
    GeneratorSpec,
    SuperPolynomial,
    monomial_degree,
    monomial_sort_key,
)

__all__ = [
    "SourceSpan",
    "ParseError",
    "parse_presentation",
    "parse_module",
    "parse_elements",
    "format_presentation",
    "format_module",
    "emit_report",
    "report_to_data",
    "scalar_to_data",
]


class SourceSpan:
    """1-based position of a token or directive inside the input text."""

    __slots__ = ("line", "column", "length")

    def __init__(self, line, column, length):
        self.line = line
        self.column = column
        self.length = length

    def __repr__(self):
        return "SourceSpan(%d, %d, %d)" % (self.line, self.column, self.length)

    def __eq__(self, other):
        return (
            isinstance(other, SourceSpan)
            and (self.line, self.column, self.length)
            == (other.line, other.column, other.length)
        )


class ParseError(ValueError):
    """A syntax or resolution error, carrying its source span."""

    def __init__(self, message, span):
        super().__init__(
            "line %d, column %d: %s" % (span.line, span.column, message)
        )
        self.message = message
        self.span = span


# ---------------------------------------------------------------------------
# expression scanner and parser


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text, line, column0):
    """Tokens of an expression substring, with spans into the source line."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:]
            stripped = rest.lstrip()
            if not stripped:
                break
            offset = pos + (len(rest) - len(stripped))
            raise ParseError(
                "unexpected character %r" % stripped[0],
                SourceSpan(line, column0 + offset + 1, 1),
            )
        start = m.start(m.lastgroup)
        span = SourceSpan(line, column0 + start + 1, m.end() - start)
        if m.lastgroup == "number":
            try:
                out.append(("number", Fraction(m.group("number")), span))
            except ZeroDivisionError:
                raise ParseError("zero denominator", span)
        elif m.lastgroup == "ident":
            out.append(("ident", m.group("ident"), span))
        else:
            out.append(("op", m.group("op"), span))
        pos = m.end()
    out.append(("end", None, SourceSpan(line, column0 + len(text) + 1, 1)))
    return out


class _ExprParser:
    """expr := ['-'] term {('+'|'-') term}; term := factor {'*' factor};
    factor := atom ['^' integer]; atom := number | ident | '(' expr ')'."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, span = self.take()
        if kind != "op" or val != op:
            raise ParseError("expected %r" % op, span)

    def parse(self):
        node = self.expr()
        kind, _val, span = self.peek()
        if kind != "end":
            raise ParseError("unexpected trailing input", span)
        return node

    def expr(self):
        kind, val, _span = self.peek()
        if kind == "op" and val == "-":
            self.take()
            node = ("neg", self.term())
        else:
            node = self.term()
        while True:
            kind, val, _span = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                node = ("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _span = self.peek()
            if kind == "op" and val == "*":
                self.take()
                node = ("mul", node, self.factor())
            else:
                return node

    def factor(self):
        node = self.atom()
        kind, val, _span = self.peek()
        if kind == "op" and val == "^":
            self.take()
            ekind, eval_, espan = self.take()
            if ekind != "number" or eval_.denominator != 1:
                raise ParseError("exponent must be a nonnegative integer", espan)
            node = ("pow", node, int(eval_))
        return node

    def atom(self):
        kind, val, span = self.take()
        if kind == "number":
            return ("num", val)
        if kind == "ident":
            return ("ident", val, span)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a number, a name or '('", span)


def _parse_expression(text, line, column0):
    return _ExprParser(_tokenize(text, line, column0)).parse()


def _poly_eval(node, pres, relation_span):
    """Evaluate an expression tree to a SuperPolynomial over pres.gens.

    ``relation_span`` locates the error when a power is refused by the cap.
    """
    kind = node[0]
    if kind == "num":
        return SuperPolynomial.one(pres.flavor, pres.gens, pres.field).scaled(
            node[1]
        )
    if kind == "ident":
        name, span = node[1], node[2]
        for i, g in enumerate(pres.gens):
            if g.name == name:
                return SuperPolynomial.generator(
                    i, pres.flavor, pres.gens, pres.field
                )
        raise ParseError("unknown generator %r" % name, span)
    if kind == "neg":
        return -_poly_eval(node[1], pres, relation_span)
    if kind in ("add", "sub"):
        left = _poly_eval(node[1], pres, relation_span)
        right = _poly_eval(node[2], pres, relation_span)
        return left + right if kind == "add" else left - right
    if kind == "mul":
        return _poly_eval(node[1], pres, relation_span) * _poly_eval(node[2], pres, relation_span)
    if kind == "pow":
        base, n = _poly_eval(node[1], pres, relation_span), node[2]
        high = _power_degree_past_cap(base, n, pres)
        if high is not None:
            raise ParseError("relation degree exceeds cap %d (a power of degree >= %d)"
                             % (pres.cap, high), relation_span)
        if _power_terms_past_budget(base, n, pres):
            raise ParseError("a power may expand to more than %d terms" % MAX_POWER_TERMS,
                             relation_span)

        def poly(terms):
            return SuperPolynomial(pres.flavor, pres.gens, pres.field, terms)

        # power() works on the term dicts, whose truth value is nonzero-ness.
        one = SuperPolynomial.one(pres.flavor, pres.gens, pres.field)
        try:
            terms = power(base.terms, n, one.terms, lambda a, b: (poly(a) * poly(b)).terms,
                          dict.values)
        except ValueError as exc:
            raise ParseError(str(exc), relation_span)
        return poly(terms)
    raise AssertionError("unreachable node kind %r" % (kind,))


def _power_degree_past_cap(base, n, pres):
    """n * D when base^n has a nonzero term of degree n * D past the cap.

    D is the top degree of the terms of base that no power kills: all of
    them in the associative flavor, and those free of odd generators in the
    supercommutative one (that part of base^n is the n-th power of that
    part of base, taken in a polynomial ring).  Such a power leaves the cap,
    so its relation is refused anyway; this refuses it before multiplying,
    whatever lower terms the base has.  Returns None when the power is to be
    computed: its degree then stays within the cap, or the base is nilpotent
    and its powers stop at the first zero one.
    """
    if pres.cap is None:
        return None
    degs = [
        monomial_degree(m, pres.gens, pres.flavor)
        for m in base.terms
        if pres.flavor != SUPERCOMMUTATIVE
        or not any(e and pres.gens[i].parity == ODD for i, e in enumerate(m))
    ]
    if not degs or n * max(degs) <= pres.cap:
        return None
    return n * max(degs)


# A relation power whose term bound passes this is refused before it is expanded.
MAX_POWER_TERMS = 256


def _power_terms_past_budget(base, n, pres):
    """True unless every power base^m, m <= n, has at most MAX_POWER_TERMS terms.

    With t terms in base, base^m has at most C(m+t-1, t-1) terms in the
    supercommutative flavor (a product of m terms only depends on how often
    each one occurs) and t^m in the associative one.  With ve even and vo
    odd generators in base and top degree D, it also has at most
    2^vo * C(mD + ve, ve) terms: an even monomial of at most mD factors
    times a set of odd generators; in the associative flavor at most
    v^(mD + 1) words in v letters.  Both bounds grow with m, so the one at n
    covers every repeated squaring step, and it is checked before any.
    """
    t = len(base.terms)
    if t <= 1:
        return False
    gens, flavor = pres.gens, pres.flavor
    top = n * max(monomial_degree(m, gens, flavor) for m in base.terms)
    if flavor == SUPERCOMMUTATIVE:
        used = {i for m in base.terms for i, e in enumerate(m) if e}
        ve = sum(1 for i in used if gens[i].parity == EVEN)
        bound = min(comb(n + t - 1, t - 1), 2 ** (len(used) - ve) * comb(top + ve, ve))
    else:
        # powers past 2^64 are past any budget, so the exponents are clipped there
        v = len({i for m in base.terms for i in m})
        bound = min(t ** min(n, 64), v ** min(top + 1, 64) if v > 1 else top + 1)
    return bound > MAX_POWER_TERMS


def _combo_eval(node, symtab, field, span_of_line):
    """Evaluate to ('scalar', c) or ('vec', sparse dict over basis slots)."""
    kind = node[0]
    if kind == "num":
        return ("scalar", field.of(node[1]))
    if kind == "ident":
        name, span = node[1], node[2]
        if name not in symtab:
            raise ParseError("unknown basis symbol %r" % name, span)
        return ("vec", {symtab[name]: field.one})
    if kind == "neg":
        k, v = _combo_eval(node[1], symtab, field, span_of_line)
        if k == "scalar":
            return ("scalar", field.neg(v))
        return ("vec", vec_add_scaled({}, v, -1, field))
    if kind in ("add", "sub"):
        lk, lv = _combo_eval(node[1], symtab, field, span_of_line)
        rk, rv = _combo_eval(node[2], symtab, field, span_of_line)
        if lk != rk:
            raise ParseError(
                "cannot add a scalar and a basis combination", span_of_line
            )
        if lk == "scalar":
            return ("scalar", field.of(lv + rv if kind == "add" else lv - rv))
        return ("vec", vec_add_scaled(dict(lv), rv, 1 if kind == "add" else -1, field))
    if kind == "mul":
        lk, lv = _combo_eval(node[1], symtab, field, span_of_line)
        rk, rv = _combo_eval(node[2], symtab, field, span_of_line)
        if lk == "scalar" and rk == "scalar":
            return ("scalar", field.of(lv * rv))
        if lk == "scalar":
            return ("vec", vec_add_scaled({}, rv, lv, field))
        if rk == "scalar":
            return ("vec", vec_add_scaled({}, lv, rv, field))
        raise ParseError("cannot multiply two basis symbols", span_of_line)
    if kind == "pow":
        k, v = _combo_eval(node[1], symtab, field, span_of_line)
        if k != "scalar":
            raise ParseError("cannot raise a basis symbol to a power", span_of_line)
        if field.characteristic:  # modular, whatever the exponent
            return ("scalar", pow(v, node[2], field.characteristic))
        try:
            return ("scalar", power(v, node[2], field.one, operator.mul, lambda c: (c,)))
        except ValueError as exc:
            raise ParseError(str(exc), span_of_line)
    raise AssertionError("unreachable node kind %r" % (kind,))


def _element_eval(node, A):
    """Evaluate an expression tree to an element vector of the algebra A."""
    kind = node[0]
    if kind == "num":
        c = A.field.of(node[1])
        return {A.unit_index: c} if c else {}
    if kind == "ident":
        try:
            return A.generator_element(node[1])
        except AlgebraError:
            raise ParseError("unknown generator %r" % node[1], node[2])
    if kind == "neg":
        return vec_add_scaled({}, _element_eval(node[1], A), -1, A.field)
    if kind in ("add", "sub"):
        sign = 1 if kind == "add" else -1
        return vec_add_scaled(dict(_element_eval(node[1], A)), _element_eval(node[2], A), sign,
                              A.field)
    if kind == "mul":
        return A.mul(_element_eval(node[1], A), _element_eval(node[2], A))
    if kind == "pow":
        return A.power_of_element(_element_eval(node[1], A), node[2])
    raise AssertionError("unreachable node kind %r" % (kind,))


def parse_elements(text, A):
    """Comma-separated expressions in A's generators, as element vectors;
    an error is located on line 1 at its column in ``text``."""
    out, col0 = [], 0
    for chunk in text.split(","):
        body = chunk.strip()
        if body:
            start = col0 + len(chunk) - len(chunk.lstrip())
            node = _parse_expression(body, 1, start)
            try:
                out.append(_element_eval(node, A))
            except ZeroDivisionError:
                raise ParseError("a coefficient is not defined over %s" % A.field.name,
                                 SourceSpan(1, start + 1, len(body)))
        col0 += len(chunk) + 1
    return out


# ---------------------------------------------------------------------------
# presentation files


def _significant_lines(text):
    """(line_number, stripped_content) pairs, comments and blanks removed."""
    out = []
    for n, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if body.strip():
            out.append((n, body))
    return out


_GEN_ITEM_RE = re.compile(
    r"^([A-Za-z_][A-Za-z0-9_]*)(?:\((\d+),(\d+)\))?$"
)


def parse_presentation(text, field=None):
    """Parse the presentation grammar into an uncompiled Presentation.

    A ``field`` argument overrides the header's field; coefficient
    literals are then read in the override field.  A relation that fails
    ``algebra.check_relation`` is reported at its own line.
    """
    lines = _significant_lines(text)
    if not lines:
        raise ParseError("empty input", SourceSpan(1, 1, 1))

    n0, header = lines[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "algebra" or parts[2] != "over":
        raise ParseError(
            "expected 'algebra NAME over FIELD'", SourceSpan(n0, 1, len(header))
        )
    name = parts[1]
    if field is None:
        try:
            field = field_from_name(parts[3])
        except ValueError as exc:
            raise ParseError(
                str(exc), SourceSpan(n0, header.rfind(parts[3]) + 1, len(parts[3]))
            )

    flavor = None
    cap = None
    gens = []
    seen = set()
    pending = []  # (expression tree, span) of each relation line
    i = 1
    while i < len(lines):
        n, body = lines[i]
        i += 1
        words = body.split()
        head = words[0]
        if head == "flavor":
            if len(words) != 2 or words[1] not in (SUPERCOMMUTATIVE, ASSOCIATIVE):
                raise ParseError(
                    "expected 'flavor supercommutative' or 'flavor associative'",
                    SourceSpan(n, 1, len(body)),
                )
            flavor = words[1]
        elif head in ("even", "odd"):
            parity = EVEN if head == "even" else ODD
            if len(words) == 1:
                raise ParseError("expected generator names", SourceSpan(n, 1, len(body)))
            for token in list(re.finditer(r"\S+", body))[1:]:
                item, column = token.group(), token.start() + 1
                m = _GEN_ITEM_RE.match(item)
                if m is None:
                    raise ParseError(
                        "bad generator item %r" % item, SourceSpan(n, column, len(item))
                    )
                gname = m.group(1)
                if gname in seen:
                    raise ParseError(
                        "duplicate generator %r" % gname, SourceSpan(n, column, len(gname))
                    )
                seen.add(gname)
                bideg = None
                if m.group(2) is not None:
                    bideg = (int(m.group(2)), int(m.group(3)))
                try:
                    gens.append(GeneratorSpec(gname, parity, bideg))
                except ValueError as exc:
                    raise ParseError(str(exc), SourceSpan(n, column, len(item)))
        elif head == "cap":
            if len(words) != 2 or not words[1].isdigit():
                raise ParseError("expected 'cap N'", SourceSpan(n, 1, len(body)))
            cap = int(words[1])
        elif head == "relations":
            if flavor is None:
                raise ParseError(
                    "flavor must come before relations", SourceSpan(n, 1, len(body))
                )
            closed = False
            while i < len(lines):
                rn, rbody = lines[i]
                i += 1
                if rbody.strip() == "end":
                    closed = True
                    break
                indent = len(rbody) - len(rbody.lstrip())
                span = SourceSpan(rn, indent + 1, len(rbody.strip()))
                pending.append((_parse_expression(rbody.strip(), rn, indent), span))
            if not closed:
                raise ParseError("missing 'end'", SourceSpan(n, 1, len(body)))
        else:
            raise ParseError("unknown directive %r" % head, SourceSpan(n, 1, len(head)))

    if flavor is None:
        raise ParseError("missing 'flavor' line", SourceSpan(n0, 1, len(header)))

    def presentation(relations):
        try:
            return Presentation(flavor, gens, relations, cap, field, name)
        except AlgebraError as exc:
            raise ParseError(str(exc), SourceSpan(n0, 1, len(header)))

    # Relations are evaluated once every directive is read, so a cap or a
    # generator line after the block applies to them too.
    probe = presentation([])
    relations = []
    for node, span in pending:
        try:
            poly = _poly_eval(node, probe, span)
        except ZeroDivisionError:
            raise ParseError("a coefficient is not defined over %s" % field.name, span)
        if poly.is_zero():
            continue
        try:
            check_relation(poly, cap)
        except AlgebraError as exc:
            raise ParseError(str(exc), span)
        relations.append(poly)
    return presentation(relations)


def _signed_sum(terms):
    """Text of a sum of (scalar, body) terms: each sign pulled out front, a
    unit magnitude left off, and an empty body printed as the scalar.  An
    F_p scalar, in 0..p-1, is never negative."""
    parts = []
    for c, body in terms:
        negative = c < 0
        mag = -c if negative else c
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = "%s*%s" % (mag, body)
        if parts:
            parts.append("-" if negative else "+")
        elif negative:
            text = "-" + text
        parts.append(text)
    return " ".join(parts) or "0"


def _poly_text(p):
    """Deterministic expression text for a polynomial; parses back to p."""
    gens, flavor = p.gens, p.flavor
    items = sorted(p.terms.items(), key=lambda kv: monomial_sort_key(kv[0], gens, flavor))
    terms = []
    for m, c in items:
        factors = []
        if flavor == SUPERCOMMUTATIVE:
            for gi, e in enumerate(m):
                if e == 1:
                    factors.append(gens[gi].name)
                elif e > 1:
                    factors.append("%s^%d" % (gens[gi].name, e))
        else:
            factors = [gens[gi].name for gi in m]
        terms.append((c, "*".join(factors)))
    return _signed_sum(terms)


def format_presentation(pres):
    """Render a Presentation in the grammar that parse_presentation reads."""
    lines = ["algebra %s over %s" % (pres.name, pres.field.name)]
    lines.append("flavor %s" % pres.flavor)
    run = []
    run_parity = None
    for g in list(pres.gens) + [None]:
        parity = None if g is None else g.parity
        if parity != run_parity and run:
            lines.append(
                "%s %s" % ("even" if run_parity == EVEN else "odd", " ".join(run))
            )
            run = []
        run_parity = parity
        if g is None:
            break
        default = (1, 0) if g.parity == EVEN else (0, 1)
        item = g.name
        if g.bidegree != default:
            item += "(%d,%d)" % g.bidegree
        run.append(item)
    if pres.cap is not None:
        lines.append("cap %d" % pres.cap)
    lines.append("relations")
    for r in pres.relations:
        lines.append("  " + _poly_text(r))
    lines.append("end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# module files


def parse_module(text, A):
    """Parse the module grammar against a compiled algebra A."""
    lines = _significant_lines(text)
    if not lines:
        raise ParseError("empty input", SourceSpan(1, 1, 1))
    n0, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "module":
        raise ParseError("expected 'module NAME'", SourceSpan(n0, 1, len(header)))
    if parts[1] == "regular":
        if len(lines) > 1:
            n, body = lines[1]
            raise ParseError("nothing may follow 'module regular'", SourceSpan(n, 1, len(body)))
        return regular_module(A)
    name = parts[1]

    gen_labels = [label for label, _p, _v in A.generators]
    gen_parity = {}
    for label, p, _v in A.generators:
        gen_parity[label] = p

    symtab = {}
    parities = []
    images = {}
    for n, body in lines[1:]:
        if "->" in body:
            left, right = body.split("->", 1)
            words = list(re.finditer(r"\S+", left))
            if len(words) != 2:
                raise ParseError(
                    "expected 'generator symbol -> combination'",
                    SourceSpan(n, 1, len(body)),
                )
            gname, sym = (w.group() for w in words)
            if gname not in gen_parity:
                raise ParseError(
                    "unknown generator %r" % gname, SourceSpan(n, words[0].start() + 1, len(gname))
                )
            if sym not in symtab:
                raise ParseError(
                    "unknown basis symbol %r" % sym, SourceSpan(n, words[1].start() + 1, len(sym))
                )
            if (gname, symtab[sym]) in images:
                raise ParseError(
                    "second action of %s on %s" % (gname, sym), SourceSpan(n, 1, len(body))
                )
            col0 = len(body) - len(right)
            span = SourceSpan(n, col0 + 1, max(len(right.strip()), 1))
            node = _parse_expression(right.strip(), n, col0 + (len(right) - len(right.lstrip())))
            try:
                kind, val = _combo_eval(node, symtab, A.field, span)
            except ZeroDivisionError:
                raise ParseError("a coefficient is not defined over %s" % A.field.name, span)
            if kind == "scalar":
                if val:
                    raise ParseError(
                        "a nonzero constant is not a module vector", span
                    )
                vec = {}
            else:
                vec = val
            want = (gen_parity[gname] + parities[symtab[sym]]) % 2
            for r in vec:
                if parities[r] != want:
                    raise ParseError(
                        "action image mixes parities (expected %s)"
                        % ("even" if want == EVEN else "odd"),
                        span,
                    )
            images[(gname, symtab[sym])] = vec
        elif ":" in body:
            left, right = body.split(":", 1)
            sym = left.strip()
            pname = right.strip()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", sym):
                raise ParseError("bad basis symbol %r" % sym, SourceSpan(n, 1, len(body)))
            if sym in symtab:
                raise ParseError("duplicate basis symbol %r" % sym, SourceSpan(n, 1, len(sym)))
            if pname not in ("even", "odd"):
                raise ParseError(
                    "parity must be 'even' or 'odd'",
                    SourceSpan(n, len(body) - len(pname) + 1, max(len(pname), 1)),
                )
            symtab[sym] = len(parities)
            parities.append(EVEN if pname == "even" else ODD)
        else:
            raise ParseError(
                "expected a basis line 'sym : parity' or an action line",
                SourceSpan(n, 1, len(body)),
            )

    dim = len(parities)
    actions = []
    for label in gen_labels:
        cols = [images.get((label, j), {}) for j in range(dim)]
        actions.append(Matrix.from_cols_sparse(dim, cols, A.field))
    return module_from_actions(A, parities, actions, name=name)


def _combo_text(vec, names):
    return _signed_sum((vec[r], names[r]) for r in sorted(vec))


def format_module(M, name=None):
    """Render a SuperModule in the grammar that parse_module reads."""
    if name is None:
        own = getattr(M, "name", None)
        # module names must be single identifier tokens in the grammar
        name = own if own and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", own) else "M"
    names = ["m%d" % i for i in range(M.dim)]
    lines = ["module %s" % name]
    for i in range(M.dim):
        lines.append("%s : %s" % (names[i], "even" if M.parities[i] == EVEN else "odd"))
    labels = [label for label, _p, _v in M.algebra.generators]
    for gi, label in enumerate(labels):
        cols = M.actions[gi].cols_sparse()
        for j in range(M.dim):
            if cols[j]:
                lines.append("%s %s -> %s" % (label, names[j], _combo_text(cols[j], names)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reports


def scalar_to_data(c):
    """A field scalar as {"num": n, "den": d}; an int (over Q or F_p) has d = 1."""
    return {"num": c.numerator, "den": c.denominator}


def report_to_data(value):
    """Recursively convert report values to JSON-serializable data.

    A bare int stays a count.  An integral scalar is an int too, so a site
    that puts scalars into a report outside a Matrix serialises them with
    ``scalar_to_data`` itself.
    """
    if isinstance(value, Fraction):
        return scalar_to_data(value)
    if isinstance(value, SuperDimension):
        return value.as_json()
    if isinstance(value, Matrix):
        return [[scalar_to_data(x) for x in value.row(i)] for i in range(value.nrows)]
    if isinstance(value, dict):
        return {str(k): report_to_data(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [report_to_data(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    raise TypeError("cannot serialize %r in a report" % (value,))


def emit_report(value):
    """Deterministic JSON text for a report structure."""
    return json.dumps(report_to_data(value), sort_keys=True, indent=2) + "\n"
