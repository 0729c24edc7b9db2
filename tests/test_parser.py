"""Text format and JSON serialization."""

import json

import pytest

from hamalg import (ParseError, RandomSymbolGenerator, canonicalize, equals,
                    from_json, parse_operator, parse_symbol, to_json)
from hamalg.parser import format_expression


def test_roundtrip_random_symbols():
    gen = RandomSymbolGenerator(11)
    for _ in range(60):
        s = gen.symbol()
        assert parse_symbol(format_expression(s)) == s


def test_json_roundtrip_random_symbols():
    gen = RandomSymbolGenerator(12)
    for _ in range(60):
        s = gen.symbol()
        assert from_json(to_json(s)) == s


def test_json_is_deterministic():
    gen = RandomSymbolGenerator(13)
    s = gen.symbol()
    assert to_json(s) == to_json(parse_symbol(format_expression(s)))
    json.loads(to_json(s))  # well-formed


def test_scalar_prefix_of_an_integral():
    a = parse_symbol("-4*int[x](phi(x)*pi(x))")
    b = parse_symbol("int[x]( -4*phi(x)*pi(x) )")
    assert canonicalize(a) == canonicalize(b)


def test_power_precedence():
    assert canonicalize(parse_symbol("2*phi(u)^2")) \
        == canonicalize(parse_symbol("2*(phi(u)^2)"))
    assert canonicalize(parse_symbol("(2*phi(u))^2")) \
        == canonicalize(parse_symbol("4*phi(u)^2"))


def test_formal_constants_roundtrip():
    for text in ("-vol", "delta0(0)*vol", "h^2*i*delta0(1)*phi(u)",
                 "intdelta2*m^2"):
        s = canonicalize(parse_symbol(text))
        assert canonicalize(parse_symbol(format_expression(s))) == s


def test_operator_words_keep_their_order():
    a = parse_operator("qint[x]( Phi(x)*Pi(x) )")
    b = parse_operator("qint[x]( Pi(x)*Phi(x) )")
    assert a != b


def test_classical_parser_rejects_operator_syntax():
    with pytest.raises(ParseError):
        parse_symbol("qint[x]( Phi(x)*Pi(x) )")


def test_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse_symbol("int[x](\nphi(x)*)")
    assert err.value.line == 2
    assert err.value.column > 0


def test_undeclared_function_is_an_error():
    with pytest.raises(ParseError) as err:
        parse_symbol("int[x]( q(x)*phi(x) )")
    assert "declared" in str(err.value)


def test_mass_powers_format():
    s = canonicalize(parse_symbol("int[x]( (m^2/2)*phi(x)^2 )"))
    assert format_expression(s) == "int[x]( (1/2)*m^2*phi(x)^2 )"


def test_equals_ignores_formatting_noise():
    assert equals(parse_symbol("int[ x ]( phi( x ) * pi( x ) )"),
                  parse_symbol("int[y](pi(y)*phi(y))"))


@pytest.mark.parametrize("k", [2, 3])
def test_power_of_an_integral_binds_fresh_dummies(k):
    one = "int[x](f(x)*phi(x))"
    names = ["x", "y", "z"][:k]
    product = "*".join(f"int[{v}](f({v})*phi({v}))" for v in names)
    assert equals(parse_symbol(f"({one})^{k}"), parse_symbol(product))
    assert equals(parse_symbol(f"({one} + phi(u))^{k}"),
                  parse_symbol("*".join([f"({one} + phi(u))"] * k)))
    want = "int[" + ",".join(names) + "]( " + "*".join(
        [f"f({v})" for v in names] + [f"phi({v})" for v in names]) + " )"
    assert format_expression(canonicalize(parse_symbol(f"({one})^{k}"))) == want
