"""Variational derivatives."""

import pytest

from hamalg import (RandomSymbolGenerator, equals, formal_scale, free_var,
                    parse_symbol, second_vderiv, vderiv)
from hamalg.parser import format_expression
from hamalg.terms import dummy
from hamalg.variational import check_symbol

Y = free_var("y")
Z = free_var("z")


def P(text):
    return parse_symbol(text)


def test_quadratic_field_energy():
    assert format_expression(vderiv(P("int[x]( (1/2)*phi(x)^2 )"), "phi", Y)) == "phi(y)"


def test_momentum_density():
    assert format_expression(vderiv(P("int[x]( (1/2)*pi(x)^2 )"), "pi", Y)) == "pi(y)"


def test_klein_gordon_field_equation():
    h = P("int[x]( (1/2)*pi(x)^2 + (1/2)*D(phi,1)(x)^2 + (m^2/2)*phi(x)^2 )")
    assert format_expression(vderiv(h, "phi", Y)) == "m^2*phi(y) - D(phi,2)(y)"
    assert format_expression(vderiv(h, "pi", Y)) == "pi(y)"


def test_linear_source_term():
    assert format_expression(vderiv(P("int[x]( f(x)*phi(x) )"), "phi", Y)) == "f(y)"


def test_absent_field_gives_zero():
    assert vderiv(P("int[x]( f(x)*pi(x)^2 )"), "phi", Y).is_zero


def test_linearity():
    gen = RandomSymbolGenerator(21)
    for _ in range(25):
        a, b = gen.symbol(), gen.symbol()
        c = gen.scalars(1)[0]
        lhs = vderiv(a + formal_scale(b, scalar=c), "phi", Y)
        rhs = vderiv(a, "phi", Y) + formal_scale(vderiv(b, "phi", Y), scalar=c)
        assert equals(lhs, rhs)


def test_derivative_term_picks_up_sign_by_parts():
    s = P("int[x]( (1/2)*D(phi,1)(x)^2 )")
    assert format_expression(vderiv(s, "phi", Y)) == "-D(phi,2)(y)"


def test_second_variation_is_symmetric():
    gen = RandomSymbolGenerator(22)
    for _ in range(15):
        s = gen.symbol()
        a = second_vderiv(s, ("phi", "pi"), Y, Z)
        b = second_vderiv(s, ("pi", "phi"), Z, Y)
        assert equals(a, b)


def test_requires_a_free_point():
    with pytest.raises(ValueError):
        vderiv(P("int[x](phi(x)^2)"), "phi", dummy(0))


def test_unknown_field_name():
    with pytest.raises(ValueError):
        vderiv(P("int[x](phi(x)^2)"), "psi", Y)


def test_second_variation_needs_distinct_points():
    with pytest.raises(ValueError):
        second_vderiv(P("int[x](phi(x)^2)"), ("phi", "phi"), Y, Y)


@pytest.mark.parametrize("text", ["g(y)*int[x](phi(x)^2)",
                                  "int[x](phi(x)^2)*phi(y)",
                                  "int[x](phi(x)^2*D(f,1)(y))"])
def test_the_point_may_not_occur_anywhere(text):
    # a weight at the point would be confused with the test point
    with pytest.raises(ValueError):
        vderiv(P(text), "phi", Y)


def test_check_symbol_picks_a_fresh_point():
    # whatever the expression's free names, the test point is none of them
    assert not check_symbol(P("int[x](phi(x)^2)*phi(_chk)")).is_symbol
    assert check_symbol(P("g(_chk)*int[x](phi(x)^2)")).is_symbol
    assert check_symbol(P("g(_pb)*int[x](phi(x)^2)")).is_symbol
    chk = check_symbol(P("int[x](pi(x))*phi(_pb)"))
    assert not chk.is_symbol and len(chk.witnesses) == 1
