"""Expression parser for superpolynomials on the two standard charts.

Grammar:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' int)?
    base   := rational | 'i' | 'sqrt2' | var | '(' expr ')'

``parse_superpoly`` reads the two standard charts: variables are z and
t1..tm on the U chart, w and p1..pm on the V chart; the chart is inferred
from usage and mixing charts in one expression is a parse error.
``parse_in_context`` reads the same grammar over the variables of a given
context (the golden table's parameter conditions use it).  Squaring an odd
variable (t1^2) is rejected at parse time rather than silently evaluating
to zero.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .scalars import I, SQRT2, Scalar
from .superpoly import Context, SuperPolynomial, p1m_transition

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*^/()]))")


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind  # "int" | "name" | "op" | "end"
        self.text = text
        self.offset = offset


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        mo = _TOKEN_RE.match(text, pos)
        if mo is None or mo.end() == pos:
            stripped = text[pos:].lstrip()
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if mo.group(1) is not None:
            tokens.append(_Token("int", mo.group(1), mo.start(1)))
        elif mo.group(2) is not None:
            tokens.append(_Token("name", mo.group(2), mo.start(2)))
        else:
            tokens.append(_Token("op", mo.group(3), mo.start(3)))
        pos = mo.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list; values are SuperPolynomials."""

    def __init__(self, text: str, ctx: Context):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ctx = ctx
        self.names = set(ctx.even + ctx.odd)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.offset)
        return self.take()

    # expr := term (('+'|'-') term)*
    def expr(self) -> SuperPolynomial:
        value = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    # term := factor ('*' factor)*
    def term(self) -> SuperPolynomial:
        value = self.factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            self.take()
            value = value * self.factor()
        return value

    # factor := base ('^' int)?
    def factor(self) -> SuperPolynomial:
        sign = 1
        while self.peek().kind == "op" and self.peek().text in "+-":
            if self.take().text == "-":
                sign = -sign
        base_tok = self.peek()
        value = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            k = self.exponent()
            if base_tok.text in self.ctx.odd and abs(k) >= 2:
                raise ParseError(
                    f"odd variable {base_tok.text!r} is nilpotent: power {k} vanishes",
                    base_tok.offset,
                )
            value = value ** k
        return value if sign == 1 else -value

    def exponent(self) -> int:
        sign = 1
        while self.peek().kind == "op" and self.peek().text in "+-":
            if self.take().text == "-":
                sign = -sign
        tok = self.peek()
        if tok.kind != "int":
            raise ParseError("expected integer exponent", tok.offset)
        self.take()
        return sign * int(tok.text)

    # base := rational | 'i' | 'sqrt2' | var | '(' expr ')'
    def base(self) -> SuperPolynomial:
        tok = self.take()
        if tok.kind == "int":
            num = int(tok.text)
            if self.peek().kind == "op" and self.peek().text == "/":
                self.take()
                den_tok = self.peek()
                if den_tok.kind != "int":
                    raise ParseError("expected integer denominator", den_tok.offset)
                self.take()
                if int(den_tok.text) == 0:
                    raise ParseError("zero denominator", den_tok.offset)
                return self.ctx.scalar(Fraction(num, int(den_tok.text)))
            return self.ctx.scalar(num)
        if tok.kind == "name":
            if tok.text == "i":
                return self.ctx.scalar(I)
            if tok.text == "sqrt2":
                return self.ctx.scalar(SQRT2)
            if tok.text not in self.names:
                raise ParseError(f"unknown variable {tok.text!r}", tok.offset)
            return self.ctx.var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError("expected a value", tok.offset)

    def parse(self) -> SuperPolynomial:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return value


def _scan_odd_count(text: str, m) -> int:
    """Odd-variable count: the given m, or the largest index mentioned."""
    if m is not None:
        return m
    best = 0
    for mo in re.finditer(r"\b[tp]([1-9]\d*)\b", text):
        best = max(best, int(mo.group(1)))
    return best


def parse_superpoly(text: str, m=None):
    """Parse an expression into (SuperPolynomial, chart).

    chart is "U" (z, t1..tm), "V" (w, p1..pm), or None when the expression
    uses no chart variables (a pure scalar); scalars are returned in the V
    chart context, where transition functions live.
    """
    m_eff = _scan_odd_count(text, m)
    tr = p1m_transition(m_eff)
    chart_of = {"z": "U", "w": "V"}
    for k in range(1, m_eff + 1):
        chart_of[f"t{k}"] = "U"
        chart_of[f"p{k}"] = "V"

    # pre-scan the tokens to fix the chart before building any polynomial
    chart = None
    for tok in _tokenize(text):
        if tok.kind != "name" or tok.text not in chart_of:
            continue
        c = chart_of[tok.text]
        if chart is None:
            chart = c
        elif chart != c:
            raise ParseError(
                f"variable {tok.text!r} mixes the {c} chart into a "
                f"{chart}-chart expression",
                tok.offset,
            )
    ctx = tr.ctx_a if chart == "U" else tr.ctx_b
    return parse_in_context(text, ctx), chart


def parse_in_context(text: str, ctx: Context) -> SuperPolynomial:
    """Parse an expression whose variables are those of a given context."""
    return _Parser(text, ctx).parse()
