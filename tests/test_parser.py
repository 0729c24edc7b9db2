"""Text format and JSON serialization.

tests/data/parse_corpus.txt pins the raw parse (before any
canonicalization) of a fixed list of texts, one line each: the text, " = ",
then to_json of what parse_symbol or parse_operator returns.  It is written by

    PYTHONPATH=src python tests/test_parser.py

Rewrite it only for an intended change of the parser's output.
"""

import json
from pathlib import Path

import pytest

from hamalg import (SESSION, ParseError, RandomSymbolGenerator, canonicalize,
                    equals, from_json, parse_operator, parse_symbol, to_json)
from hamalg.parser import format_expression

PARSE_CORPUS = Path(__file__).parent / "data" / "parse_corpus.txt"

# integrals that the products and powers below combine; the last two refer
# to a variable bound outside them
_BLOCKS = ["int[x](f(x)*phi(x))",
           "int[x,y]( D(pi,1)(x)*phi(y)*delta(x-y;1) )",
           "int[y]( pi(y)*delta(y-x) )",
           "int[z]( g(z)*phi(z)*D(phi,2)(x) )"]

SYMBOL_TEXTS = [
    "0", "7", "-3/4", "2*3/6", "delta0", "delta0(2)*vol", "intdelta2*m^2",
    "h^2*i*m*delta0(1)*vol*intdelta2", "i*i*phi(u)", "i^3*pi(u)*h",
    "phi(u)", "D(phi,2)(u)*D(pi,1)(v)", "f(v)*D(g,1)(u)*phi(u)",
    "delta(u)", "delta(u;2)", "delta(u-v)", "delta(u-v;1)*phi(v)",
    "-(phi(u) - pi(u))/3", "(phi(u) + pi(u) - 2*h)^3", "(phi(u)*pi(v))^0",
    "0*int[x](f(x)*phi(x))", "int[x]( phi(x)^0 )",
    "int[x](phi(x)*pi(x))",
    "int[x,y]( f(y)*phi(x)*D(pi,1)(y)*delta(x-y) )",
    "int[x]( phi(x)*delta(x;1) )*int[y]( g(y)*pi(y) )",
    "int[x]( phi(x)*int[y]( pi(y)*delta(x-y;1) ) )",
    "int[x]( g(x)*(int[y]( phi(y)*f(x) ))^2 )",
    "int[x]( (phi(x) + int[y](pi(y)*delta(y-x)))^2 )",
    "int[x](int[y](int[z]( phi(x)*phi(y)*phi(z)*delta(x-z) )))",
    "int[x]( (int[y]( (int[z]( pi(z)*delta(z-y)*phi(x) ))^2 ))^2 )",
    "(int[x](f(x)*phi(x)))^3", "(int[x](phi(x)) + pi(u))^2",
    "int[x,y]( (m^2/2)*phi(x)^2*delta(x-y) )*int[z](f(z)*pi(z))",
    "(int[x](phi(x)*delta(x;1))*int[y](pi(y)))^2 - vol*delta0(2)",
    "2*(int[x](f(x)*phi(x)*int[y](g(y)*pi(y)*delta(x-y))))^2",
    "int[x]( D(phi,1)(x)^2 + m^2*phi(x)^2 )/2 + int[y](pi(y)^2)/2",
    "-h*i*(int[x](pi(x)*f(x)) - 3*int[x](phi(x)))^2",
]
SYMBOL_TEXTS += [f"({a})*({b})" for a in _BLOCKS[:2] for b in _BLOCKS[:2]]
SYMBOL_TEXTS += [f"({a} + {b})^2" for a, b in zip(_BLOCKS[:1], _BLOCKS[1:2])]
SYMBOL_TEXTS += [f"int[x]( ({a})^2*({b} - {a}) )"
                 for a in _BLOCKS[2:] for b in _BLOCKS[2:]]

OPERATOR_TEXTS = [
    "qint[x]( Phi(x)*Pi(x) )", "qint[x]( Pi(x)*Phi(x)*Pi(x) )",
    "Phi(u)*Pi(v) - Pi(v)*Phi(u)", "(qint[x](Phi(x)^2))^2",
    "h*i*qint[x,y]( Pi(x)*D(Phi,1)(y)*delta(x-y) )",
    "qint[x]( Pi(x)*qint[y]( Phi(y)*delta(x-y;2) ) )",
    "(Phi(u) + Pi(u))^3", "delta0(0)*Phi(u)*Pi(u)/2",
    "(qint[x]( f(x)*Pi(x) ) + Phi(u))^2",
]

SYMBOL_TEXTS_2D = [
    "int[x]( D(phi,[1,0])(x)*D(phi,[0,2])(x) )",
    "int[x,y]( D(pi,[0,1])(y)*phi(x)*delta(x-y;[1,1]) )",
    "delta0([2,0])*vol", "delta(u;[0,1])*D(pi,[2,0])(u)",
    "(int[x](f(x)*D(phi,[1,1])(x)))^2",
    "int[x]( phi(x)*int[y]( D(g,[0,1])(y)*delta(y-x;[1,0]) ) )",
]

OPERATOR_TEXTS_2D = ["qint[x]( D(Pi,[1,0])(x)*Phi(x) )"]


def parse_corpus_lines() -> list[str]:
    def lines(texts, parse):
        return [f"{text} = {to_json(parse(text))}" for text in texts]
    out = lines(SYMBOL_TEXTS, parse_symbol) + lines(OPERATOR_TEXTS, parse_operator)
    saved = SESSION.dimension
    SESSION.dimension = 2
    try:
        out += lines(SYMBOL_TEXTS_2D, parse_symbol)
        out += lines(OPERATOR_TEXTS_2D, parse_operator)
    finally:
        SESSION.dimension = saved
    return out


def test_parse_corpus_reproduces_the_pinned_raw_parse():
    assert parse_corpus_lines() == PARSE_CORPUS.read_text().splitlines()


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


def test_division_by_zero_is_a_parse_error_at_the_divisor():
    with pytest.raises(ParseError) as err:
        parse_symbol("phi(u)*\n  phi(v)/0")
    assert "division by zero" in str(err.value)
    assert (err.value.line, err.value.column) == (2, 10)


def test_expansion_past_the_limit_is_refused_at_the_exponent():
    with pytest.raises(ParseError) as err:
        parse_symbol("(phi(u)+pi(u))^40")
    assert "above the limit of 20000" in str(err.value)
    assert (err.value.line, err.value.column) == (1, 16)


if __name__ == "__main__":
    PARSE_CORPUS.parent.mkdir(exist_ok=True)
    PARSE_CORPUS.write_text("\n".join(parse_corpus_lines()) + "\n")
