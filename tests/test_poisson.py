"""Poisson bracket and the grading theorem."""

import pytest

from hamalg import (SESSION, LatticeConfig, NotASymbolError,
                    RandomSymbolGenerator, bracket, canonicalize,
                    check_algebra, cli, equals, grade, grade_decompose,
                    multiply, parse_symbol, quantize, verify_bracket)
from hamalg.parser import format_expression


def P(text):
    return parse_symbol(text)


def test_canonical_pair():
    out = bracket(P("int[x]( (1/2)*phi(x)^2 )"), P("int[x]( (1/2)*pi(x)^2 )"))
    assert format_expression(out) == "int[x]( -phi(x)*pi(x) )"


def test_field_equation_of_motion():
    h = P("int[x]( (1/2)*pi(x)^2 + (1/2)*D(phi,1)(x)^2 + (m^2/2)*phi(x)^2 )")
    out = bracket(P("int[x]( f(x)*phi(x) )"), h)
    assert format_expression(out) == "int[x]( -f(x)*pi(x) )"


def test_bracket_of_grade_one_pair_is_a_volume():
    # neither entry depends on x after the derivatives, so the leftover
    # integration contributes the formal volume constant
    assert format_expression(bracket(P("int[x](phi(x))"), P("int[x](pi(x))"))) == "-vol"


def test_self_bracket_vanishes():
    gen = RandomSymbolGenerator(31)
    for _ in range(20):
        a = gen.symbol()
        assert bracket(a, a).is_zero


def test_antisymmetry():
    gen = RandomSymbolGenerator(32)
    for _ in range(20):
        a, b = gen.symbol(), gen.symbol()
        assert canonicalize(bracket(a, b) + bracket(b, a)).is_zero


def test_leibniz_rule():
    gen = RandomSymbolGenerator(33, max_terms=1, max_factors=3)
    for _ in range(10):
        a, b, c = gen.symbol(), gen.symbol(), gen.symbol()
        lhs = bracket(a, multiply(b, c))
        rhs = multiply(bracket(a, b), c) + multiply(b, bracket(a, c))
        assert canonicalize(lhs - rhs).is_zero


def test_jacobi_identity_spot_check():
    a = P("int[x]( (1/2)*phi(x)^2*pi(x) )")
    b = P("int[x]( f(x)*pi(x)^2 )")
    c = P("int[x]( phi(x)*D(phi,1)(x)*pi(x) )")
    s = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
         + bracket(c, bracket(a, b)))
    assert canonicalize(s).is_zero


def test_grading_theorem():
    """Grades k and l bracket into grade k + l - 1 (or vanish)."""
    gen = RandomSymbolGenerator(34)
    for _ in range(30):
        k = gen.rng.randint(0, 3)
        l = gen.rng.randint(0, 3)
        out = bracket(gen.homogeneous(k), gen.homogeneous(l))
        if out.is_zero:
            continue
        assert grade(out) == k + l - 1


def test_grade_of_mixed_symbol_is_none():
    s = P("int[x]( phi(x)^2 + pi(x)^2 )")
    assert grade(s) is None
    parts = grade_decompose(s)
    assert sorted(parts) == [0, 2]
    total = parts[0]
    for k in sorted(parts)[1:]:
        total = total + parts[k]
    assert equals(total, s)


def test_zero_symbol_has_grade_zero():
    assert grade(P("int[x](phi(x)*D(phi,1)(x))")) == 0


def test_check_algebra_clean_run():
    rep = check_algebra(seed=3, samples=8)
    assert rep.passed
    assert {law.name for law in rep.laws} == {
        "antisymmetry", "bilinearity", "leibniz", "jacobi", "closure", "grading"}
    d = rep.to_dict()
    assert d["passed"] is True
    assert "seconds" not in str(d)


def test_check_algebra_runs_in_two_dimensions():
    # the generator draws one derivative order per axis
    saved = SESSION.dimension
    SESSION.dimension = 2
    try:
        rep = check_algebra(seed=1, samples=2,
                            laws=("antisymmetry", "bilinearity", "closure"))
    finally:
        SESSION.dimension = saved
    assert rep.passed, rep.to_dict()


NON_SYMBOLS = ("phi(y)", "int[x](phi(x)*delta(x-y))")
SYMBOL = "int[x]( phi(x)^2 )"


@pytest.mark.parametrize("text", NON_SYMBOLS)
def test_non_symbols_are_refused(text, capsys):
    bad, good = P(text), P(SYMBOL)
    grids = [LatticeConfig(64)]
    for a, b in ((bad, good), (good, bad)):
        with pytest.raises(NotASymbolError):
            bracket(a, b)
        with pytest.raises(NotASymbolError):
            verify_bracket(a, b, grids)
    with pytest.raises(NotASymbolError):
        quantize(bad)
    for argv in (["bracket", text, SYMBOL], ["bracket", SYMBOL, text],
                 ["lattice", "verify", text, SYMBOL, "--n", "64"]):
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
