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
'+', '-' and parentheses; juxtaposition is not multiplication.  A sum or a
product may have any number of terms; parentheses nest at most MAX_NESTING
deep.  In the associative flavor the written factor order is kept.
Relations that normalize to zero (an odd square, say) are dropped as
vacuous.  The cap line is optional: compiling a truncated algebra requires
one, bigraded dimension tables do not.  A presentation has at most
``algebra.MAX_GENERATORS`` generators.

The module grammar, relative to a compiled algebra A:

    module NAME                  # or exactly:  module regular
    m0 : even                    # basis symbols with parities
    m1 : odd
    Z1 m0 -> m1                  # generator action, omitted images are 0
    Y  m1 -> -1*m0 + 1/2*m1

An image is a linear combination of basis symbols: a scalar only scales,
so two symbols never multiply and no symbol is raised to a power.  It is
read in K + V, where only the final scalar part must vanish: ``0 + m1``
and ``(1 + m1) - 1`` are m1.

A list of algebra elements (``parse_elements``) is comma-separated
expressions in the generators, like ``z1, 1/2*z2 - z1*z3``.  Relations,
images and elements are all evaluated by one tree walk, ``_evaluate``.

Reports serialize to JSON with sorted keys; rationals become
{"num": ..., "den": ...} objects and matrices row-major arrays, so two
runs over the same input emit identical bytes.
"""

import json
import re
from fractions import Fraction
from math import comb

from .algebra import MAX_GENERATORS, AlgebraError, Presentation, check_relation
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
    multiply,
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


# Parentheses nest at most this deep; the parser recurses once per level.
MAX_NESTING = 64


class _ExprParser:
    """expr := ['-'] term {('+'|'-') term}; term := factor {'*' factor};
    factor := atom ['^' integer]; atom := number | ident | '(' expr ')'.
    Sums and products become left-deep chains of binary nodes."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

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
            if self.depth == MAX_NESTING:
                raise ParseError("parentheses nested deeper than %d" % MAX_NESTING, span)
            self.depth += 1
            node = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return node
        raise ParseError("expected a number, a name or '('", span)


def _parse_expression(text, line, column0):
    return _ExprParser(_tokenize(text, line, column0)).parse()


def _evaluate(node, span, field, unit, lookup, product, raise_to):
    """An expression tree as a sparse dict: the one walk that relations,
    module images and element lists go through.  A number c is {unit: c};
    negation, sums and differences go through vec_add_scaled.  The caller
    supplies ``lookup(name, name_span)``, ``product(u, v)`` for '*' and
    ``raise_to(v, n)`` for '^'.  A left-deep chain of sums and differences,
    or of products, is folded in a loop, so its length costs no recursion.
    A coefficient undefined over the field, or a power refused by
    ``exactlin.power``, is reported at ``span``."""

    def walk(node):
        kind = node[0]
        if kind == "num":
            c = field.of(node[1])
            return {unit: c} if c else {}
        if kind == "ident":
            return lookup(node[1], node[2])
        if kind == "neg":
            return vec_add_scaled({}, walk(node[1]), -1, field)
        if kind == "pow":
            return raise_to(walk(node[1]), node[2])
        links = ("mul",) if kind == "mul" else ("add", "sub")
        chain = []
        while node[0] in links:
            chain.append(node)
            node = node[1]
        out = walk(node) if kind == "mul" else dict(walk(node))
        for link in reversed(chain):
            if kind == "mul":
                out = product(out, walk(link[2]))
            else:
                vec_add_scaled(out, walk(link[2]), -1 if link[0] == "sub" else 1, field)
        return out

    try:
        return walk(node)
    except ParseError:
        raise
    except ZeroDivisionError:
        raise ParseError("a coefficient is not defined over %s" % field.name, span)
    except ValueError as exc:  # a power with a coefficient past exactlin.POWER_BITS
        raise ParseError(str(exc), span)


def _relation(node, span, pres):
    """A relation's tree as a SuperPolynomial over pres.gens.  A power that
    leaves the cap, or may expand past MAX_POWER_TERMS terms, is refused at
    ``span`` before it is multiplied out."""
    gens, flavor, field = pres.gens, pres.flavor, pres.field

    def poly(terms):
        return SuperPolynomial(flavor, gens, field, terms)

    def generator(name, name_span):
        for i, g in enumerate(gens):
            if g.name == name:
                return SuperPolynomial.generator(i, flavor, gens, field).terms
        raise ParseError("unknown generator %r" % name, name_span)

    def product(a, b):
        return multiply(poly(a), poly(b)).terms

    def raise_to(base, n):
        high = _power_degree_past_cap(poly(base), n, pres)
        if high is not None:
            raise ParseError("relation degree exceeds cap %d (a power of degree >= %d)"
                             % (pres.cap, high), span)
        if _power_terms_past_budget(poly(base), n, pres):
            raise ParseError("a power may expand to more than %d terms" % MAX_POWER_TERMS, span)
        return power(base, n, {unit: field.one}, product, dict.values)

    unit = () if flavor == ASSOCIATIVE else (0,) * len(gens)
    return poly(_evaluate(node, span, field, unit, generator, product, raise_to))


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


def _module_image(node, span, symtab, field):
    """An action image's tree as a sparse vector over basis slots, read in
    K + V with the scalar part at slot -1: a product may only scale, a power
    may only raise a scalar, and the final scalar part must vanish.  Each
    refusal is at ``span``."""
    scalar = -1

    def symbol(name, name_span):
        if name not in symtab:
            raise ParseError("unknown basis symbol %r" % name, name_span)
        return {symtab[name]: field.one}

    def scale(u, v):
        for c, w in ((u, v), (v, u)):
            if c.keys() <= {scalar}:
                return vec_add_scaled({}, w, field.of(c.get(scalar, 0)), field)
        raise ParseError("cannot multiply two basis symbols", span)

    def raise_scalar(v, n):
        if not v.keys() <= {scalar}:
            raise ParseError("cannot raise a basis symbol to a power", span)
        return power(v, n, {scalar: field.one}, scale, dict.values)

    vec = _evaluate(node, span, field, scalar, symbol, scale, raise_scalar)
    if vec.pop(scalar, 0):
        raise ParseError("cannot add a scalar and a basis combination" if vec
                         else "a nonzero constant is not a module vector", span)
    return vec


def parse_elements(text, A):
    """Comma-separated expressions in A's generators, as element vectors;
    an error is located on line 1 at its column in ``text``."""

    def generator(name, name_span):
        try:
            return A.generator_element(name)
        except AlgebraError:
            raise ParseError("unknown generator %r" % name, name_span)

    out, col0 = [], 0
    for chunk in text.split(","):
        body = chunk.strip()
        if body:
            start = col0 + len(chunk) - len(chunk.lstrip())
            node = _parse_expression(body, 1, start)
            out.append(_evaluate(node, SourceSpan(1, start + 1, len(body)), A.field,
                                 A.unit_index, generator, A.mul, A.power_of_element))
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
                if len(gens) == MAX_GENERATORS:
                    raise ParseError("generator %r is past the bound of %d generators"
                                     % (item, MAX_GENERATORS), SourceSpan(n, column, len(item)))
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
        poly = _relation(node, span, probe)
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
            vec = _module_image(node, span, symtab, A.field)
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
