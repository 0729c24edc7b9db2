"""Quantization, commutators, and the ordering residual."""

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from hamalg import (HamalgError, RandomSymbolGenerator,
                    UnsupportedDivergenceError, bracket, ccr_reduce,
                    classical_limit, cli, commutator, correspondence_check,
                    delta_square_defect, equals, forget_order, formal_scale,
                    leibniz_residual, multiply, op_equals, op_multiply,
                    parse_operator, parse_symbol, quantize, quantum)
from hamalg._rewrite import canonicalize_terms
from hamalg.parser import format_expression
from hamalg.terms import INT_DELTA_SQ, Term, canonicalize


def P(text):
    return parse_symbol(text)


def test_normal_scheme_puts_fields_left():
    out = quantize(P("int[x]( phi(x)*pi(x)^2*phi(x) )"), "normal")
    assert format_expression(out) == "qint[x]( Phi(x)^2*Pi(x)^2 )"


def test_weyl_scheme_averages_all_orderings():
    out = quantize(P("int[x]( (1/2)*phi(x)^2*pi(x) )"), "weyl")
    want = parse_operator(
        "qint[x]( (1/6)*Phi(x)^2*Pi(x) + (1/6)*Phi(x)*Pi(x)*Phi(x)"
        " + (1/6)*Pi(x)*Phi(x)^2 )")
    assert op_equals(out, want)
    assert format_expression(out) == ("qint[x]( (1/6)*Phi(x)^2*Pi(x)"
                                      " + (1/6)*Phi(x)*Pi(x)*Phi(x)"
                                      " + (1/6)*Pi(x)*Phi(x)^2 )")


def test_schemes_share_the_classical_limit():
    # the schemes differ by lower-order commutator terms only
    gen = RandomSymbolGenerator(41)
    for _ in range(15):
        s = gen.symbol()
        assert equals(classical_limit(quantize(s, "weyl")),
                      classical_limit(quantize(s, "normal")))


def test_classical_limit_inverts_quantization():
    gen = RandomSymbolGenerator(42)
    for _ in range(25):
        s = gen.symbol()
        for scheme in ("weyl", "normal"):
            assert equals(classical_limit(quantize(s, scheme)), s)


def test_quadratic_commutator_reproduces_the_bracket():
    gen = RandomSymbolGenerator(43)
    for _ in range(12):
        a, b = gen.quadratic(), gen.quadratic()
        for scheme in ("weyl", "normal"):
            comm = commutator(quantize(a, scheme), quantize(b, scheme))
            got = classical_limit(formal_scale(comm, scalar=-1, h=-1, i=-1))
            assert equals(got, bracket(a, b))


def test_correspondence_weyl_is_exact_for_quadratics():
    rep = correspondence_check(P("int[x]( (1/2)*phi(x)^2 )"),
                               P("int[x]( (1/2)*pi(x)^2 )"), scheme="weyl")
    assert rep.passed
    assert rep.central.is_zero


def test_correspondence_normal_leaves_a_central_term():
    rep = correspondence_check(P("int[x]( (1/2)*phi(x)^2 )"),
                               P("int[x]( (1/2)*pi(x)^2 )"), scheme="normal")
    assert rep.passed
    assert not rep.central.is_zero


def test_groupings_agree_as_operators():
    a = quantize(P("int[x]( phi(x)^2*pi(x) )"))
    b = quantize(P("int[x]( f(x)*pi(x)^2 )"))
    left = commutator(a, b, grouping="left")
    right = commutator(a, b, grouping="right")
    assert op_equals(left, right)


def test_oscillator_square_flags_the_divergence():
    h = P("int[x]( (1/2)*pi(x)^2 + (1/2)*phi(x)^2 )")
    sq = ccr_reduce(op_multiply(quantize(h, "normal"), quantize(h, "normal")))
    kinds = {d.kind for t in sq.terms for d in t.coeff.divergent}
    assert INT_DELTA_SQ in kinds
    # the classical square of the same density is clean
    assert not any(t.coeff.divergent for t in multiply(h, h).terms)


def test_derivative_delta_squares_are_refused():
    h = P("int[x]( (1/2)*pi(x)^2 + (1/2)*D(phi,1)(x)^2 )")
    op = quantize(h, "normal")
    with pytest.raises(UnsupportedDivergenceError):
        ccr_reduce(op_multiply(op, op))


def test_ordering_residual_identity():
    rep = leibniz_residual("f", "g")
    assert rep.routes_agree
    assert rep.classical_zero
    want = P("delta0(0)*delta(x;1) - 2*delta0(1)*delta(x)")
    assert equals(rep.combination, want)
    # the two exact expansions really disagree under the formal rules
    assert not op_equals(rep.way1, rep.way2)
    assert forget_order(rep.way1 - rep.way2).is_zero


def test_delta_square_defect_matches_the_residual():
    assert equals(delta_square_defect(),
                  P("delta0(0)*delta(x;1) - 2*delta0(1)*delta(x)"))


# -- Weyl enumeration and CCR reduction against brute-force references ----------

# one symbol for each word length r <= 7: repeated factors, derivative
# factors, a weight function, two dummies, and a two-term symbol
REFERENCE_SYMBOLS = [
    "int[x]( f(x) )",
    "int[x]( f(x)*pi(x) )",
    "int[x]( phi(x)*pi(x) )",
    "int[x,y]( phi(x)*pi(y)*phi(y) )",
    "int[x]( phi(x)*D(phi,1)(x)*pi(x)^2 )",
    "int[x]( f(x)*phi(x)^3*pi(x)^2 )",
    "int[x]( phi(x)^2*D(phi,1)(x)*pi(x)*D(pi,1)(x)^2 )",
    "int[x]( phi(x)^4*pi(x)^3 )",
    "int[x]( phi(x)^3*pi(x)^2 + 2*f(x)*D(phi,1)(x)*pi(x)^3*phi(x)^2 )",
]


def _weyl_reference(s):
    """Every one of the r! arrangements, pooled by Counter, weight count/r!."""
    out = []
    for t in canonicalize(s).terms:
        denom = factorial(len(t.factors))
        for word, n in Counter(permutations(t.factors)).items():
            out.append(Term(t.dummies, t.coeff.scale(Fraction(n, denom)),
                            word, t.deltas))
    return canonicalize_terms(tuple(out), quantum=True)


def _lifo_reference(e, transfer=None):
    """Bubble every term on its own through a LIFO queue, merging nothing."""
    queue, done = list(e.terms), []
    while queue:
        t = queue.pop()
        step = quantum._bubble(t)
        if step is None:
            done.append(quantum._sort_blocks(t))
        else:
            queue.extend(step)
    return canonicalize_terms(tuple(done), quantum=True, transfer=transfer)


def test_weyl_matches_the_permutation_reference():
    lengths = set()
    for text in REFERENCE_SYMBOLS:
        s = P(text)
        lengths.update(len(t.factors) for t in canonicalize(s).terms)
        assert quantize(s, "weyl").terms == _weyl_reference(s), text
    assert lengths >= set(range(8))


def test_ccr_reduce_matches_the_unmerged_queue():
    h = quantize(P("int[x]( (1/2)*pi(x)^2 + (1/2)*phi(x)^2 )"), "normal")
    cases = [quantize(P(text), "weyl") for text in REFERENCE_SYMBOLS]
    cases.append(op_multiply(h, h))
    for e in cases:
        for transfer in (None, True):
            assert ccr_reduce(e, transfer).terms == _lifo_reference(e, transfer)


PHI5_PI5 = "int[x]( 3*phi(x)^5*pi(x)^5 )"


def test_weyl_enumerates_distinct_words_only():
    out = quantize(P(PHI5_PI5), "weyl")
    assert len(out.terms) == factorial(10) // (factorial(5) * factorial(5))
    assert sum(t.coeff.scalar for t in out.terms) == 3


def test_ccr_reduce_rewrites_each_distinct_term_once(monkeypatch):
    seen = []
    bubble = quantum._bubble

    def recording(t):
        seen.append((t.dummies, t.key()))
        return bubble(t)

    e = quantize(P(PHI5_PI5), "weyl")
    monkeypatch.setattr(quantum, "_bubble", recording)
    ccr_reduce(e)
    assert seen
    assert len(seen) == len(set(seen))


BEYOND_LIMIT = "int[x]( phi(x)^2*D(phi,1)(x)^2*D(phi,2)(x)^2*pi(x)^3*D(pi,1)(x)^3 )"


def test_weyl_word_limit_refuses_before_enumerating(monkeypatch):
    def refuse(factors):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(quantum, "_distinct_arrangements", refuse)
    with pytest.raises(HamalgError) as info:
        quantize(P(BEYOND_LIMIT), "weyl")
    # 12!/(2!^3 * 3!^2) distinct words
    assert "1663200" in str(info.value)
    assert str(quantum.WEYL_WORD_LIMIT) in str(info.value)


def test_cli_reports_the_weyl_word_limit(capsys):
    code = cli.main(["quantize", BEYOND_LIMIT, "--scheme", "weyl"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_ccr_reduce_skips_the_entry_of_a_cancelled_key(monkeypatch):
    # the first two terms cancel, and bubbling the third pushes their key
    # again, so the heap holds a stale entry for it
    e = parse_operator("qint[x](Phi(x)*Pi(x)) - qint[x](Phi(x)*Pi(x))"
                       " + qint[x](Pi(x)*Phi(x))")
    want = ccr_reduce(parse_operator("qint[x](Pi(x)*Phi(x))"))
    seen = []
    bubble = quantum._bubble

    def recording(t):
        seen.append((t.dummies, t.key()))
        return bubble(t)

    monkeypatch.setattr(quantum, "_bubble", recording)
    assert ccr_reduce(e) == want
    assert len(seen) == len(set(seen)) == 3
