import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superproj import parser
from superproj.errors import ParseError
from superproj.parser import parse_superpoly
from superproj.scalars import I, SQRT2, Scalar
from superproj.superpoly import ChartTransition, pnm_transition


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
