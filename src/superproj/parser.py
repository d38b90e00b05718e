"""Expression parser for superpolynomials on the two standard charts.

Grammar:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := ('+' | '-')* base ('^' ('+' | '-')* int)?
    base   := rational | 'i' | 'sqrt2' | var | '(' expr ')'

``parse_superpoly`` reads the two standard charts: variables are z and
t1..tm on the U chart, w and p1..pm on the V chart; the chart is inferred
from usage and mixing charts in one expression is a parse error.
``parse_in_context`` reads the same grammar over the variables of a given
context (the golden table's parameter conditions use it).  Raising an odd
factor to a power >= 2 (t1^2, (t1 + t2)^3) is rejected at parse time rather
than silently evaluating to zero, and so is a negative power of a factor
with no inverse (p1^-1, 0^-1, (w + 1)^-1).

A term is read as a run of monomials.  Every factor but a parenthesised
group of two or more terms is one monomial c * key, with key = (exps, mask)
as in ``superpoly``; the run multiplies each into one key and one
Koszul-signed coefficient, and a power of a monomial is taken on its key and
coefficient (w^-1 negates an exponent, with no inverse series).  A group of
two or more terms takes the polynomial product and power.  An expression
sums its terms into one term dict and builds one ``SuperPolynomial``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from operator import add

from .errors import DomainError, ParseError
from .scalars import I, ONE, SQRT2, ZERO, Scalar, power
from .superpoly import (
    Context,
    SuperPolynomial,
    _mul_into,
    koszul_sign,
    mask_parity,
    pnm_transition,
)

# one token per match; the last group catches a character no token starts
# with, and the whitespace between matches is skipped
_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*^/()])|(\S)")
# token kinds: the number of the matching group, and the end of input
_END, _INT, _NAME, _OP, _BAD = range(5)


def _tokenize(text: str) -> list:
    """The tokens (kind, text, offset), ending with an end token."""
    tokens = []
    for mo in _TOKEN_RE.finditer(text):
        kind = mo.lastindex
        if kind == _BAD:
            raise ParseError(f"unexpected character {mo.group()!r}", mo.start())
        tokens.append((kind, mo.group(), mo.start()))
    tokens.append((_END, "", len(text)))
    return tokens


def _product(ta: dict, tb: dict) -> dict:
    out = {}
    _mul_into(out, ta, tb)
    return out


@lru_cache(maxsize=32)
def _atoms(ctx: Context) -> dict:
    """The monomial (c, exps, mask) of each name: i, sqrt2, then the
    context's variables."""
    zero = ctx.zero_exps()
    atoms = {"i": (I, zero, 0), "sqrt2": (SQRT2, zero, 0)}
    for pos, name in enumerate(ctx.even):
        atoms.setdefault(name, (ONE, zero[:pos] + (1,) + zero[pos + 1:], 0))
    for pos, name in enumerate(ctx.odd):
        atoms.setdefault(name, (ONE, zero, 1 << pos))
    return atoms


class _Parser:
    """Recursive descent over the token list.  A factor is a monomial
    (c, exps, mask) or a ``SuperPolynomial`` of two or more terms; a term and
    an expression are term dicts."""

    def __init__(self, tokens: list, ctx: Context):
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx
        self.zero = ctx.zero_exps()
        self.atoms = _atoms(ctx)

    def peek_op(self, ops: str):
        """The next token's text if it is one of the operators ``ops``."""
        kind, text, _ = self.tokens[self.pos]
        return text if kind == _OP and text in ops else None

    def expect_op(self, text: str) -> None:
        if self.peek_op(text) is None:
            raise ParseError(f"expected {text!r}", self.tokens[self.pos][2])
        self.pos += 1

    # expr := term (('+'|'-') term)*
    def expr(self) -> dict:
        out = self.term()
        while op := self.peek_op("+-"):
            self.pos += 1
            for key, c in self.term().items():
                if op == "-":
                    c = -c
                old = out.get(key)
                out[key] = c if old is None else old + c
        return out

    # term := factor ('*' factor)*, the monomials multiplied as one run
    def term(self) -> dict:
        coef, exps, mask = ONE, self.zero, 0
        before = None  # the product of the factors before the run, if any
        while True:
            if self.unary_sign() < 0:
                coef = -coef
            factor = self.factor()
            if factor.__class__ is tuple:
                c, e, mk = factor
                sign = koszul_sign(mask, mk) if mk else 1
                if sign == 0:
                    coef = ZERO
                elif c is not ONE:
                    coef = c if coef is ONE else coef * c
                if sign < 0:
                    coef = -coef
                if any(e):
                    exps = tuple(map(add, exps, e))
                mask |= mk
            else:
                run = {(exps, mask): coef}
                if before is not None:
                    run = _product(before, run)
                before = _product(run, factor.terms)
                coef, exps, mask = ONE, self.zero, 0
            if self.peek_op("*") is None:
                break
            self.pos += 1
        if before is None:
            return {} if coef.is_zero() else {(exps, mask): coef}
        if coef is ONE and not mask and not any(exps):
            return before
        return _product(before, {(exps, mask): coef})

    # a run of unary '+'/'-' signs, read as one sign
    def unary_sign(self) -> int:
        sign = 1
        while op := self.peek_op("+-"):
            self.pos += 1
            if op == "-":
                sign = -sign
        return sign

    # factor := base ('^' int)?
    def factor(self):
        base_tok = self.tokens[self.pos]
        value = self.base()
        if self.peek_op("^") is None:
            return value
        self.pos += 1
        k = self.exponent()
        if value.__class__ is tuple:
            c, exps, mask = value
            non_unit = "zero factor" if c.is_zero() else "nilpotent factor" if mask else None
            self.check_power(base_tok, k, mask_parity(mask), non_unit)
            if not mask:
                return (c if c is ONE else power(c, k, ONE),
                        tuple(e * k for e in exps), 0)
            # p^S, S != 0: k >= 0 here, and S is even if k >= 2
            if k == 1:
                return value
            return (ONE, self.zero, 0) if k == 0 else (ZERO, exps, mask)
        body = value.body().terms
        non_unit = "nilpotent factor" if not body else "factor" if len(body) > 1 else None
        self.check_power(base_tok, k, value.parity(), non_unit)
        return self.as_factor((value ** k).terms)

    def check_power(self, tok: tuple, k: int, parity, non_unit) -> None:
        """Reject base^k where base is odd and |k| >= 2, or k < 0 and base
        is not a unit, ``non_unit`` naming it then (else None)."""
        if abs(k) >= 2 and parity == 1:
            problem = f"is nilpotent: power {k} vanishes"
        elif k < 0 and non_unit:
            problem = f"is not invertible: power {k}"
        else:
            return
        _, text, offset = tok
        if text in self.ctx.odd:
            what = f"odd variable {text!r}"
        else:
            what = "odd factor" if parity == 1 else non_unit
        raise ParseError(f"{what} {problem}", offset)

    def exponent(self) -> int:
        sign = self.unary_sign()
        kind, text, offset = self.tokens[self.pos]
        if kind != _INT:
            raise ParseError("expected integer exponent", offset)
        self.pos += 1
        return sign * int(text)

    def as_factor(self, terms: dict):
        """A term dict as a factor: a monomial if it has at most one nonzero
        term, else a ``SuperPolynomial``."""
        terms = {key: c for key, c in terms.items() if not c.is_zero()}
        if len(terms) > 1:
            return SuperPolynomial(self.ctx, terms)
        if not terms:
            return ZERO, self.zero, 0
        [((exps, mask), c)] = terms.items()
        return c, exps, mask

    # base := rational | 'i' | 'sqrt2' | var | '(' expr ')'
    def base(self):
        kind, text, offset = self.tokens[self.pos]
        self.pos += 1
        if kind == _INT:
            num = int(text)
            if self.peek_op("/") is not None:
                self.pos += 1
                den_kind, den_text, den_offset = self.tokens[self.pos]
                if den_kind != _INT:
                    raise ParseError("expected integer denominator", den_offset)
                self.pos += 1
                if int(den_text) == 0:
                    raise ParseError("zero denominator", den_offset)
                return Scalar.coerce(Fraction(num, int(den_text))), self.zero, 0
            return Scalar.coerce(num), self.zero, 0
        if kind == _NAME:
            atom = self.atoms.get(text)
            if atom is None:
                raise ParseError(f"unknown variable {text!r}", offset)
            return atom
        if kind == _OP and text == "(":
            terms = self.expr()
            self.expect_op(")")
            return self.as_factor(terms)
        raise ParseError("expected a value", offset)

    def parse(self) -> SuperPolynomial:
        terms = self.expr()
        kind, text, offset = self.tokens[self.pos]
        if kind != _END:
            raise ParseError(f"unexpected trailing input {text!r}", offset)
        return SuperPolynomial(self.ctx, terms)


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
    if m is not None and m < 0:
        raise DomainError("need m >= 0")
    m_eff = _scan_odd_count(text, m)
    tr = pnm_transition(1, m_eff)
    chart_of = {"z": "U", "w": "V"}
    for k in range(1, m_eff + 1):
        chart_of[f"t{k}"] = "U"
        chart_of[f"p{k}"] = "V"

    # pre-scan the tokens to fix the chart before building any polynomial
    tokens = _tokenize(text)
    chart = None
    for kind, name, offset in tokens:
        if kind != _NAME or name not in chart_of:
            continue
        c = chart_of[name]
        if chart is None:
            chart = c
        elif chart != c:
            raise ParseError(
                f"variable {name!r} mixes the {c} chart into a "
                f"{chart}-chart expression",
                offset,
            )
    ctx = tr.ctx_a if chart == "U" else tr.ctx_b
    return _Parser(tokens, ctx).parse(), chart


def parse_in_context(text: str, ctx: Context) -> SuperPolynomial:
    """Parse an expression whose variables are those of a given context."""
    return _Parser(_tokenize(text), ctx).parse()
