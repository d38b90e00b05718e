import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from parser_reference import descent_parse, descent_parse_in_context

from superproj import parser
from superproj.errors import DomainError, ParseError, SuperprojError
from superproj.parser import parse_superpoly
from superproj.scalars import I, SQRT2, Scalar
from superproj.superpoly import ChartTransition, SuperPolynomial, pnm_transition


def test_parse_builds_the_chart_pair_once(monkeypatch):
    built = []
    init = ChartTransition.__init__

    def counting_init(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(ChartTransition, "__init__", counting_init)
    for _ in range(2):
        parse_superpoly("1 + p1*p2*w^-1", m=5)
    assert len(built) <= 1


def test_parse_tokenizes_once(monkeypatch):
    # the chart pre-scan's token list is the one the parser reads
    calls = []
    tokenize = parser._tokenize

    def counting_tokenize(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(parser, "_tokenize", counting_tokenize)
    parse_superpoly("1 + (p1*p2 + p1*p3 + p2*p3)*w^-1")
    assert calls == ["1 + (p1*p2 + p1*p3 + p2*p3)*w^-1"]


def test_transition_example():
    p, chart = parse_superpoly("1 + (p1*p2 + p1*p3 + p2*p3)*w^-1")
    assert chart == "V"
    ctx = pnm_transition(1, 3).ctx_b
    expected = (
        ctx.one()
        + ctx.monomial(1, (-1,), 0b011)
        + ctx.monomial(1, (-1,), 0b101)
        + ctx.monomial(1, (-1,), 0b110)
    )
    assert p == expected


def test_koszul_normalization():
    p, _ = parse_superpoly("p2*p1")
    q, _ = parse_superpoly("p1*p2")
    assert p == -q


def test_scalar_literals():
    p, chart = parse_superpoly("i*i")
    assert chart is None
    assert p == p.ctx.scalar(Scalar(-1))
    p, _ = parse_superpoly("sqrt2*sqrt2")
    assert p == p.ctx.scalar(2)
    p, _ = parse_superpoly("3/2")
    assert p == p.ctx.scalar(Scalar.coerce(3) / 2)


def test_negative_exponents_and_unary_minus():
    p, _ = parse_superpoly("-w^-2 + 2")
    ctx = p.ctx
    assert p == ctx.scalar(2) - ctx.monomial(1, (-2,), 0)


def test_u_chart():
    p, chart = parse_superpoly("z^2 + t1*t2", m=2)
    assert chart == "U"
    ctx = pnm_transition(1, 2).ctx_a
    assert p == ctx.monomial(1, (2,), 0) + ctx.monomial(1, (0,), 0b11)


def test_m_inference_from_indices():
    p, _ = parse_superpoly("p3")
    assert len(p.ctx.odd) == 3


def test_nilpotency_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_superpoly("t1^2")
    assert exc.value.offset == 0
    with pytest.raises(ParseError):
        parse_superpoly("1 + w*p2^3")


def test_chart_mixing_is_parse_error():
    with pytest.raises(ParseError):
        parse_superpoly("z + w")
    with pytest.raises(ParseError):
        parse_superpoly("t1*p1")


def test_syntax_errors_carry_offsets():
    for text, offset, message in [
        ("1 + * 2", 4, "expected a value"),
        ("(1 + 2", 6, "expected ')'"),
        ("1 2", 2, "unexpected trailing input '2'"),
        ("w^p1", 2, "expected integer exponent"),
        ("1/0", 2, "zero denominator"),
        ("  3/w", 4, "expected integer denominator"),
        ("1 $ 2", 2, "unexpected character '$'"),
        ("t1*p1", 3, "variable 'p1' mixes the V chart into a U-chart expression"),
        ("1 + w*p2^3", 6, "odd variable 'p2' is nilpotent: power 3 vanishes"),
        ("p1^-1", 0, "odd variable 'p1' is not invertible: power -1"),
        ("1 + 0^-1", 4, "zero factor is not invertible: power -1"),
        ("w*(p1*p2)^-1", 2, "nilpotent factor is not invertible: power -1"),
        ("2*(w+1)^-1", 2, "factor is not invertible: power -1"),
        ("(p1+p2)^-1", 0, "odd factor is not invertible: power -1"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_superpoly(text)
        assert exc.value.offset == offset
        assert str(exc.value) == f"{message} (at offset {offset})"


def test_odd_factor_powers_are_parse_errors():
    # t1^2 is caught by name; a parenthesised odd factor by the parity of
    # its value, which would otherwise evaluate silently to zero
    for text, k in [("(t1)^2", 2), ("(t1+t2)^3", 3), ("(t1*t2*t3)^2", 2),
                    ("(p1)^-2", -2)]:
        with pytest.raises(ParseError) as exc:
            parse_superpoly(text)
        assert str(exc.value) == f"odd factor is nilpotent: power {k} vanishes (at offset 0)"
    assert str(parse_superpoly("(1+t1)^2")[0]) == "1 + 2*t1"
    assert parse_superpoly("(t1*t2)^2")[0].is_zero()


def test_unknown_variable():
    with pytest.raises(ParseError):
        parse_superpoly("q1")
    with pytest.raises(ParseError):
        parse_superpoly("p3", m=2)


def test_render_parse_idempotent_examples():
    for text in (
        "1 + (p1*p2 + p1*p3 + p2*p3)*w^-1",
        "3/2*w^-2 - sqrt2*p1*p2",
        "z^3*t1 - i*t2",
        "(1/2 + i)*w^4",
    ):
        once, _ = parse_superpoly(text)
        twice, _ = parse_superpoly(str(once))
        assert once == twice
        assert str(once) == str(twice)


@given(
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(0, 3),
    st.integers(1, 3),
)
@settings(max_examples=100, deadline=None)
def test_render_parse_round_trip_random(c1, c2, e, mask):
    ctx = pnm_transition(1, 2).ctx_b
    p = ctx.monomial(c1, (e,), mask & 0b11) + ctx.monomial(c2, (-e,), 0)
    if p.is_zero():
        return
    back, _ = parse_superpoly(str(p), m=2)
    assert back == p


# -- the monomial-run parser against the recursive-descent reference -------

def _random_factor(rng, names, odd, depth):
    sign = rng.choice(["", "", "", "-", "+", "--", "-+-"])
    pick = rng.random()
    if pick < 0.2:
        base = str(rng.randint(0, 4))
    elif pick < 0.3:
        base = f"{rng.randint(0, 5)}/{rng.randint(1, 4)}"
    elif pick < 0.35:
        base = rng.choice(["i", "sqrt2"])
    elif pick < 0.55:
        base = rng.choice(names)
    elif pick < 0.85 or depth >= 2:
        base = rng.choice(odd)  # out of order and repeated across a term
    else:
        base = f"({_random_expr(rng, names, odd, depth + 1)})"
    if rng.random() < 0.35:
        exp_sign = rng.choice(["", "", "-", "--", "+"])
        base += f"^{exp_sign}{rng.randint(0, 3)}"
    return sign + base


def _random_expr(rng, names, odd, depth=0):
    space = rng.choice(["", "", " ", "  "])
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [_random_factor(rng, names, odd, depth) for _ in range(rng.randint(1, 4))]
        terms.append(f"{space}*{space}".join(factors))
    text = terms[0]
    for term in terms[1:]:
        text += f"{space}{rng.choice('+-')}{space}{term}"
    return text


def _mutate(rng, text):
    """A random deletion, insertion or truncation."""
    at = rng.randrange(len(text) + 1)
    pick = rng.random()
    if pick < 0.4 and text:
        return text[:at] + text[at + 1:]
    if pick < 0.8:
        return text[:at] + rng.choice("+-*^/()$ 0w1p") + text[at:]
    return text[:at]


def _outcome(parse, text, *args):
    try:
        value = parse(text, *args)
    except SuperprojError as exc:
        return type(exc), getattr(exc, "offset", None), str(exc)
    p = value[0] if isinstance(value, tuple) else value
    return "ok", value[1] if isinstance(value, tuple) else None, p.ctx, p.terms


def _same_outcome(text, got, want):
    """got from the engine, want from the reference; a negative power of a
    non-unit, which the reference lets escape as the inverse's DomainError,
    is a ParseError in the engine."""
    if want[0] is DomainError and want[2] == "inverse requires a single-term body":
        assert got[0] is ParseError and "is not invertible: power -" in got[2], text
        return "non-unit"
    assert got == want, text
    return "ok" if want[0] == "ok" else "error"


def test_monomial_runs_match_the_recursive_descent_reference():
    rng = random.Random(40)
    tally = Counter()
    charts = (("w", ["p1", "p2", "p3", "p4"], None), ("z", ["t1", "t2", "t3"], 3),
              ("w", ["p1", "p2", "p5"], 5))
    for _ in range(3000):
        even, odd, m = rng.choice(charts)
        text = _random_expr(rng, [even], odd)
        if rng.random() < 0.3:
            text = _mutate(rng, text)
        want = _outcome(descent_parse, text, m)
        got = _outcome(parse_superpoly, text, m)
        tally[_same_outcome(text, got, want)] += 1
    # both ways of ending are well represented
    assert tally["ok"] > 1000 and tally["error"] > 300 and tally["non-unit"] > 10, tally


def test_monomial_runs_match_the_reference_in_a_context():
    # two even variables: exponent tuples of length 2
    ctx = pnm_transition(2, 2).ctx_a
    rng = random.Random(41)
    for _ in range(500):
        text = _random_expr(rng, ["z1", "z2"], ["t1", "t2"])
        want = _outcome(descent_parse_in_context, text, ctx)
        got = _outcome(parser.parse_in_context, text, ctx)
        _same_outcome(text, got, want)


def test_trailing_whitespace_ends_the_input():
    p, _ = parse_superpoly("1 + w ")
    assert p == parse_superpoly("1 + w")[0]
    with pytest.raises(ParseError) as exc:
        parse_superpoly("1 +  ")
    assert str(exc.value) == "expected a value (at offset 5)"


def test_a_transition_chain_parses_without_the_inverse_series(monkeypatch):
    # c*w^k*(1 + sum c_i*p_i*p_(i+1)*w^e) at m = 6: every power is taken on a
    # monomial's key and coefficient
    calls = []
    inverse = SuperPolynomial.inverse

    def counting_inverse(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(SuperPolynomial, "inverse", counting_inverse)
    chain = "+".join(f"(-1/{i + 1})*p{i}*p{i + 1}*w^-1" for i in range(1, 6))
    W, chart = parse_superpoly(f"(1/2)*w^-2*(1+{chain})", m=6)
    assert calls == []
    want, _ = descent_parse(f"(1/2)*w^-2*(1+{chain})", m=6)
    assert calls and W == want
