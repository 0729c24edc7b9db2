"""Canonical form and term algebra."""

import json
import random
from fractions import Fraction
from math import comb

import pytest

from hamalg import (SESSION, CoincidentDeltaError, Coefficient, DeltaFactor,
                    DivergentConstant, FieldFactor, HamalgError,
                    MaxDerivativeError, NamedFunction, ParseError,
                    RandomSymbolGenerator, Symbol, Term, ZERO, bracket,
                    canonicalize, ccr_reduce, delta, dummy, equals, free_var,
                    from_json, make_term, multiply, named, parse_operator,
                    parse_symbol, phi, pi_, quantize, to_json)
from hamalg import _rewrite, quantum
from hamalg.terms import (ANCHOR, DELTA_AT_ZERO, INT_DELTA_SQ, VOLUME, concat,
                          relabel, shift_dummies, sites)
from hamalg.parser import format_expression


def P(text):
    return parse_symbol(text)


def C(text):
    # parse returns the raw tree; canonical behavior is asserted on this
    return canonicalize(parse_symbol(text))


def test_sites_lists_every_place_by_first_appearance():
    x, u, w = dummy(0), dummy(1), free_var("w")
    t = make_term(1, dummies=(x, u, dummy(2)), factors=(phi(x), pi_(u)),
                  functions=(named("f", x),),
                  deltas=(delta(u, x), delta(w, w), delta(x, None)))
    at = sites(t)
    assert list(at) == [x, u, w]  # the unused dummy d2 is absent
    assert at[x] == [("factor", 0, None), ("func", 0, None),
                     ("delta", 0, "right"), ("delta", 2, "left")]
    assert at[u] == [("factor", 1, None), ("delta", 0, "left")]
    assert at[w] == [("delta", 1, "left"), ("delta", 1, "right")]


def test_parse_is_the_raw_tree():
    s = P("int[x](phi(x)^2) + int[y](phi(y)^2)")
    assert len(s.terms) == 2


def test_like_terms_merge():
    assert format_expression(C("int[x](phi(x)^2) + int[y](phi(y)^2)")) \
        == "int[x]( 2*phi(x)^2 )"


def test_dummy_names_do_not_matter():
    assert equals(P("int[x](phi(x)*pi(x))"), P("int[y](phi(y)*pi(y))"))


def test_cancellation_to_zero():
    s = C("int[x](f(x)*pi(x)) - int[y](f(y)*pi(y))")
    assert s.is_zero
    assert format_expression(s) == "0"


def test_scalar_arithmetic_is_exact():
    s = C("(1/3)*int[x](phi(x)) + (1/6)*int[x](phi(x))")
    assert format_expression(s) == "int[x]( (1/2)*phi(x) )"


def test_total_derivative_integrates_to_zero():
    assert C("int[x]( phi(x)*D(phi,1)(x) )").is_zero


def test_parts_moves_derivative_off_the_greatest_factor():
    # the weight function absorbs the derivative, not the field
    s = C("int[x]( f(x)*phi(x)*D(phi,1)(x) )")
    assert format_expression(s) == "int[x]( -(1/2)*D(f,1)(x)*phi(x)^2 )"


def test_delta_contraction_and_orientation():
    s = C("int[x,y]( delta(y-x)*phi(x)*pi(y) )")
    assert format_expression(s) == "int[x]( phi(x)*pi(x) )"


def test_anchored_delta_substitutes_the_free_point():
    assert format_expression(C("int[x]( delta(x-u)*phi(x)^2 )")) == "phi(u)^2"


def test_the_anchor_alone_orders_two_deltas():
    # same left point and order, so only the right argument decides, and
    # ANCHOR sorts before every variable, in both modes
    assert free_var("s1") < free_var("s2")  # names no other test interns
    assert format_expression(C("delta(s1-s2;1)*delta(s1;1)")) \
        == "delta(s1;1)*delta(s1-s2;1)"
    op = parse_operator("delta(s1-s2;1)*delta(s1;1)*Phi(s2)")
    assert format_expression(quantum.op_canonicalize(op)) \
        == "Phi(s2)*delta(s1;1)*delta(s1-s2;1)"


def test_anchored_delta_round_trips_through_json():
    assert free_var("s1") < free_var("s2")
    s = C("int[z]( delta(s1;1)*delta(s1-s2;1)*phi(z)^2 )")
    assert json.loads(to_json(s))["terms"][0]["deltas"][0]["right"] is None
    back = from_json(to_json(s))
    assert back == s
    assert back.terms[0].deltas[0].right is ANCHOR


def test_derivative_delta_acts_by_parts():
    assert format_expression(C("int[x]( delta(x-u;1)*phi(x) )")) == "-D(phi,1)(u)"


def test_coincident_classical_deltas_are_refused():
    with pytest.raises(CoincidentDeltaError):
        C("int[x]( delta(x-u)*delta(x-u)*phi(x) )")


def test_derivative_order_bound():
    with pytest.raises((MaxDerivativeError, ParseError)):
        P("int[x]( D(phi,9)(x) )")


def test_multiply_merges_integrals_with_fresh_dummies():
    s = multiply(P("int[x]((1/2)*phi(x)^2)"), P("int[x]((1/2)*phi(x)^2)"))
    assert format_expression(s) == "int[x,y]( (1/4)*phi(x)^2*phi(y)^2 )"


def test_multiply_distributes_over_sums():
    gen = RandomSymbolGenerator(5)
    for _ in range(20):
        a, b, c = gen.symbol(), gen.symbol(), gen.symbol()
        lhs = multiply(a, b + c)
        rhs = multiply(a, b) + multiply(a, c)
        assert equals(lhs, rhs)


def test_multiply_commutes():
    gen = RandomSymbolGenerator(6)
    for _ in range(20):
        a, b = gen.symbol(), gen.symbol()
        assert equals(multiply(a, b), multiply(b, a))


def test_zero_is_absorbing():
    a = P("int[x](phi(x)*f(x))")
    assert multiply(a, ZERO).is_zero
    assert equals(a + ZERO, a)


def test_canonicalize_is_idempotent():
    gen = RandomSymbolGenerator(7)
    for _ in range(40):
        s = gen.symbol()
        assert canonicalize(s) == s


def relabeled(t, rng, keep_word=False):
    """`t` with its dummies renamed by a random injection and its factor
    lists shuffled; operator words (`keep_word`) keep their factor order."""
    m = dict(zip(t.dummies, (dummy(i) for i in rng.sample(range(100), len(t.dummies)))))
    factors = [FieldFactor(f.field, f.deriv, m.get(f.var, f.var)) for f in t.factors]
    funcs = [NamedFunction(fn.name, fn.deriv, m.get(fn.var, fn.var))
             for fn in t.coeff.functions]
    deltas = [DeltaFactor(d.deriv, m.get(d.left, d.left),
                          m.get(d.right, d.right))
              for d in t.deltas]
    dummies = list(m.values())
    for seq in (funcs, deltas, dummies) + (() if keep_word else (factors,)):
        rng.shuffle(seq)
    c = t.coeff
    return Term(tuple(dummies), Coefficient(c.scalar, c.h, c.i, c.m, c.divergent, tuple(funcs)),
                tuple(factors), tuple(deltas))


def relabeled_fixpoint(t, quantum):
    """What canonicalize_terms makes of a fixpoint `t`: the exit's check,
    then the relabeling it got at push."""
    _rewrite._check_fixpoint(t)
    return _rewrite._canonical(t, quantum)


TIED = "f({0})*phi({0})^2*D(phi,1)({0})*pi({0})*delta({0};1)"


@pytest.mark.parametrize("n", range(2, 9))
def test_canonical_form_ignores_dummy_labels(n):
    # n integrals with one signature, two more with another, and pairs
    # told apart only by a function name or by an anchored delta's order
    parts = [TIED.format(f"x{k}") for k in range(n)]
    parts += [f"D(phi,1)({v})^2*pi({v})" for v in ("y", "z")]
    parts += ["f(u)*phi(u)", "g(v)*phi(v)", "phi(r)*delta(r)", "phi(s)*delta(s;1)"]
    dummies = ",".join([f"x{k}" for k in range(n)] + list("yzuvrs"))
    raw = P(f"int[{dummies}]( 3*" + "*".join(parts) + " )")
    want = canonicalize(raw)
    (canon,) = want.terms
    assert len(canon.dummies) == n + 6
    for seed in range(4):
        rng = random.Random(seed)
        (t,) = raw.terms
        assert canonicalize(Symbol((relabeled(t, rng),))) == want
        assert relabeled_fixpoint(relabeled(canon, rng), False) == canon


def test_operator_canonical_form_ignores_dummy_labels():
    ds = [dummy(i) for i in range(8)]
    # d0 and d1 carry the same fields and differ only by word position
    word = (phi(ds[0]), pi_(ds[1]), phi(ds[1]), pi_(ds[0]))
    # six dummies tied by a weight function and an anchored delta each
    t = make_term(2, dummies=ds, factors=word,
                  deltas=[delta(v, None, 1) for v in ds[2:]],
                  functions=[named("f", v) for v in ds[2:]])
    want = _rewrite.canonicalize_terms((t,), quantum=True)
    (canon,) = want
    assert len(canon.dummies) == 8
    for seed in range(4):
        rng = random.Random(seed)
        assert _rewrite.canonicalize_terms(
            (relabeled(t, rng, keep_word=True),), quantum=True) == want
        assert relabeled_fixpoint(relabeled(canon, rng, keep_word=True), True) == canon


def test_relabeling_renames_once(monkeypatch):
    square = P("int[x]( phi(x)^2 )")
    s = square
    for _ in range(5):
        s = multiply(s, square)
    (t,) = s.terms
    assert len(t.dummies) == 6
    calls = []
    rename = _rewrite._rename

    def counting(term, order):
        calls.append(order)
        return rename(term, order)

    monkeypatch.setattr(_rewrite, "_rename", counting)
    assert relabeled_fixpoint(t, False) == t
    assert len(calls) == 1


def test_relabeling_refuses_a_delta_linking_dummies():
    d0, d1 = dummy(0), dummy(1)
    t = make_term(1, dummies=(d0, d1), factors=(phi(d0), phi(d1)),
                  deltas=(delta(d0, d1),))
    with pytest.raises(HamalgError, match="delta"):
        _rewrite._check_fixpoint(t)


def test_relabel_substitutes_simultaneously():
    d0, d1, x = dummy(0), dummy(1), free_var("x")
    t = make_term(3, dummies=(d0, d1),
                  factors=(phi(d0), pi_(d1, 1)),
                  functions=(named("f", d0), named("g", d1, 1)),
                  deltas=(delta(d0, x), delta(x, d1, 2), delta(d0, d1, 1)))
    want = make_term(3, dummies=(d1, d0),
                     factors=(phi(d1), pi_(d0, 1)),
                     functions=(named("f", d1), named("g", d0, 1)),
                     deltas=(delta(d1, x), delta(x, d0, 2), delta(d1, d0, 1)))
    assert relabel(t, {d0: d1, d1: d0}) == want
    kept = relabel(t, {d0: d1, d1: d0}, dummies=(d0, d1))
    assert kept.dummies == (d0, d1) and kept.factors == want.factors


def test_shift_dummies_overlapping_ranges():
    d = [dummy(k) for k in range(4)]
    t = make_term(1, dummies=d[:3],
                  factors=(phi(d[0]), pi_(d[1]), phi(d[2], 1)),
                  functions=(named("f", d[1]),),
                  deltas=(delta(d[0], d[2]), delta(d[1], None, 1)))
    want = make_term(1, dummies=d[1:],
                     factors=(phi(d[1]), pi_(d[2]), phi(d[3], 1)),
                     functions=(named("f", d[2]),),
                     deltas=(delta(d[1], d[3]), delta(d[2], None, 1)))
    assert shift_dummies(t, 1) == want


def test_concat_keeps_dummies_disjoint_and_words_in_order():
    d0, d1 = dummy(0), dummy(1)
    ta = make_term(2, dummies=(d0,), factors=(pi_(d0), phi(d0)))
    tb = make_term(3, dummies=(d0,), factors=(phi(d0, 1),))
    assert concat(ta, tb) == make_term(6, dummies=(d0, d1),
                                       factors=(pi_(d0), phi(d0), phi(d1, 1)))


# -- differentiation by the multinomial Leibniz rule ---------------------------


def d_step(t, v, axis):
    """One product-rule step D_axis of `t` in `v`, the reference for
    _diff_multi: one term per slot, a delta with `v` on its right negated."""
    def up(mi):
        return tuple(a + (ax == axis) for ax, a in enumerate(mi))

    c = t.coeff
    out = []
    for i, f in enumerate(t.factors):
        if f.var == v:
            fs = t.factors[:i] + (FieldFactor(f.field, up(f.deriv), v),) + t.factors[i + 1:]
            out.append(Term(t.dummies, c, fs, t.deltas))
    for i, fn in enumerate(c.functions):
        if fn.var == v:
            fns = c.functions[:i] + (NamedFunction(fn.name, up(fn.deriv), v),) + c.functions[i + 1:]
            out.append(Term(t.dummies, Coefficient(c.scalar, c.h, c.i, c.m, c.divergent, fns),
                            t.factors, t.deltas))
    for i, d in enumerate(t.deltas):
        if d.left == d.right:
            continue  # coincident: a constant
        for side, sign in ((d.left, 1), (d.right, -1)):
            if side == v:
                ds = t.deltas[:i] + (DeltaFactor(up(d.deriv), d.left, d.right),) + t.deltas[i + 1:]
                out.append(Term(t.dummies, Coefficient(c.scalar * sign, c.h, c.i, c.m,
                                                       c.divergent, c.functions),
                                t.factors, ds))
    return out


def d_paths(t, v, k):
    terms = [t]
    for axis, reps in enumerate(k):
        for _ in range(reps):
            terms = [nt for tt in terms for nt in d_step(tt, v, axis)]
    return terms


def op_canon(terms):
    # operator mode keeps coincident deltas as formal constants
    return _rewrite.canonicalize_terms(tuple(terms), quantum=True)


def leibniz_cases():
    x, u, w = free_var("x"), free_var("u"), free_var("w")
    return x, [
        make_term(2, factors=(phi(x), phi(x), pi_(x), phi(u))),
        make_term(-3, factors=(phi(x, 1), pi_(x)), functions=(named("f", x),)),
        make_term(1, factors=(phi(x),), deltas=(delta(x, u), delta(w, x, 1))),
        make_term(Fraction(1, 2), factors=(pi_(x),),
                  deltas=(delta(x, x, 1), delta(x, None, 2))),
        make_term(5, factors=(phi(x), phi(x, 1), pi_(u)),
                  functions=(named("g", x, 1),),
                  deltas=(delta(x, u, 1), delta(w, x), delta(x, x), delta(x, None))),
    ]


@pytest.mark.parametrize("n", range(6))
def test_diff_multi_matches_repeated_product_rule(n):
    x, cases = leibniz_cases()
    for t in cases:
        got = _rewrite._diff_multi(t, x, (n,))
        want = d_paths(t, x, (n,))
        assert op_canon(got) == op_canon(want)
        assert len(got) <= len(want)


def test_diff_multi_in_two_dimensions():
    saved = SESSION.dimension
    SESSION.dimension = 2
    try:
        x, u = free_var("x"), free_var("u")
        t = make_term(3, factors=(phi(x), phi(x, (1, 0)), pi_(x, (0, 1))),
                      functions=(named("f", x),),
                      deltas=(delta(u, x, (0, 1)), delta(x, None, (1, 0))))
        got = _rewrite._diff_multi(t, x, (2, 1))
        assert op_canon(got) == op_canon(d_paths(t, x, (2, 1)))
        assert len(got) == comb(2 + 5, 5) * comb(1 + 5, 5)
    finally:
        SESSION.dimension = saved


def test_canonical_forms_in_two_dimensions():
    # integration by parts and contraction beyond the Leibniz rule, with
    # multi-index orders; each form checked by hand
    saved = SESSION.dimension
    SESSION.dimension = 2
    try:
        for text, want in [
            ("int[x](D(phi,[2,0])(x)*phi(x))", "int[x]( -D(phi,[1,0])(x)^2 )"),
            ("int[x](D(phi,[1,0])(x)*D(pi,[0,1])(x))",
             "int[x]( -D(phi,[1,1])(x)*pi(x) )"),
            ("int[x,w](phi(x)*D(pi,[0,1])(w)*delta(x-w;[1,1]))",
             "int[x]( -D(phi,[1,2])(x)*pi(x) )"),
        ]:
            assert format_expression(C(text)) == want
    finally:
        SESSION.dimension = saved


def measure(pieces):
    """Sorted-descending (is a field, name, order) of `pieces`: list order is
    the multiset (Dershowitz-Manna) order _ibp must decrease."""
    return sorted(((type(p) is FieldFactor, p[0], p.deriv) for p in pieces),
                  reverse=True)


def ibp_decreases(pieces):
    """The reference for _ibp at one dummy by full multiset comparison:
    lower the unique top one unit on its first nonzero axis, raise each
    other piece not of the lowered shape, and compare measures.  None when
    no step applies (a tied or underived top)."""
    keys = [(type(p) is FieldFactor, p[0], p.deriv) for p in pieces]
    top = max(keys)
    if not any(top[2]) or keys.count(top) > 1:
        return None
    axis = next(a for a, c in enumerate(top[2]) if c)

    def shift(k, by):
        return k[:2] + (tuple(c + by * (a == axis) for a, c in enumerate(k[2])),)

    low, i = shift(top, -1), keys.index(top)
    old = sorted(keys, reverse=True)
    for j, k in enumerate(keys):
        if j != i and k != low:
            new = keys[:]
            new[i], new[j] = low, shift(k, 1)
            if not sorted(new, reverse=True) < old:
                return False
    return True


@pytest.mark.parametrize("dim", [1, 2])
def test_ibp_decrease_check_matches_the_multiset_order(dim):
    saved = SESSION.dimension
    SESSION.dimension = dim
    try:
        rng, x = random.Random(dim), dummy(0)
        makers = (phi, pi_, lambda v, k: named("f", v, k), lambda v, k: named("g", v, k))
        seen = set()
        for _ in range(400):
            pieces = [rng.choice(makers)(x, [rng.randint(0, 2) for _ in range(dim)])
                      for _ in range(rng.randint(1, 5))]
            factors = [p for p in pieces if isinstance(p, FieldFactor)]
            t = make_term(1, dummies=(x,), factors=factors,
                          functions=[p for p in pieces if p not in factors])
            want = ibp_decreases(factors + list(t.coeff.functions))
            got = _rewrite._ibp(t, sites(t))
            seen.add(want)
            assert (got is not None) == bool(want)
            for nt in got or ():
                assert measure(nt.factors + nt.coeff.functions) < measure(pieces)
        # in 1-D a raised piece of the top's base was at most K - 2 (K - 1 is
        # the lowered shape, left out), so only 2-D has refusals
        assert seen == ({None, True} if dim == 1 else {None, False, True})
    finally:
        SESSION.dimension = saved


def test_ibp_refuses_a_raise_past_the_top_in_two_dimensions():
    # the top is phi_[1,0]; moving its derivative onto phi_[0,5] gives
    # phi_[1,5], above the top, so the measure would grow
    saved = SESSION.dimension
    SESSION.dimension = 2
    try:
        text = "int[x](D(phi,[1,0])(x)*D(phi,[0,5])(x))"
        (t,) = P(text).terms
        assert ibp_decreases(t.factors) is False
        assert _rewrite._ibp(t, sites(t)) is None
        assert format_expression(C(text)) == "int[x]( D(phi,[0,5])(x)*D(phi,[1,0])(x) )"
    finally:
        SESSION.dimension = saved


@pytest.mark.parametrize("r", range(1, 5))
def test_diff_multi_gives_one_term_per_split(r):
    x = free_var("x")
    pieces = [phi(x), pi_(x), phi(x, 1), delta(free_var("u"), x)]
    factors = [p for p in pieces[:r] if isinstance(p, FieldFactor)]
    t = make_term(1, factors=factors, deltas=[p for p in pieces[:r] if p not in factors])
    for n in range(6):
        assert len(_rewrite._diff_multi(t, x, (n,))) == comb(n + r - 1, r - 1)


def test_diff_multi_keeps_the_order_bound():
    x = free_var("x")
    top = SESSION.max_derivative_order
    t = make_term(1, factors=(phi(x), phi(x, top - 1)))
    with pytest.raises(MaxDerivativeError):
        _rewrite._diff_multi(t, x, (2,))
    assert len(_rewrite._diff_multi(t, x, (1,))) == 2


# -- coefficient arithmetic -----------------------------------------------------


@pytest.mark.parametrize("q", [3, -1, Fraction(-2, 3), 0, Fraction(0), 0.5])
def test_scale_matches_make(q):
    # scale keeps the formal parts and builds no new sort; make's result
    # is the reference, and the scalar stays exact
    x, y = free_var("x"), free_var("y")
    for c in (Coefficient.make(Fraction(5, 7), h=1, i=1, m=2,
                               divergent=(DivergentConstant(VOLUME),
                                          DivergentConstant(DELTA_AT_ZERO, (1,)),
                                          DivergentConstant(INT_DELTA_SQ)),
                               functions=(named("g", y, 1), named("f", x))),
              Coefficient.make(-4)):
        got = c.scale(q)
        assert got == Coefficient.make(c.scalar * Fraction(q), c.h, c.i, c.m,
                                       c.divergent, c.functions)
        assert type(got.scalar) is Fraction


# -- rewrite queue ----------------------------------------------------------------


def _record_calls(monkeypatch):
    """Record every canonicalize_terms call: its input, its mode, the key of
    each term _rewrite_step rewrote, the terms it pushed back and the number
    of _normalize_rep calls.  quantum imports canonicalize_terms by name, so
    it is replaced there too."""
    calls = []
    canonicalize_terms, rewrite_step = _rewrite.canonicalize_terms, _rewrite._rewrite_step
    normalize_rep = _rewrite._normalize_rep

    def recording_canonicalize(terms, quantum=False, transfer=None):
        terms = tuple(terms)
        calls.append({"terms": terms, "mode": (quantum, transfer), "keys": [],
                      "pushed": [], "normalized": 0})
        return canonicalize_terms(terms, quantum, transfer)

    def recording_step(t, quantum, transfer):
        calls[-1]["keys"].append(t.key())
        out = rewrite_step(t, quantum, transfer)
        calls[-1]["pushed"] += out or ()
        return out

    def counting_normalize(t, quantum):
        calls[-1]["normalized"] += 1
        return normalize_rep(t, quantum)

    monkeypatch.setattr(_rewrite, "canonicalize_terms", recording_canonicalize)
    monkeypatch.setattr(quantum, "canonicalize_terms", recording_canonicalize)
    monkeypatch.setattr(_rewrite, "_rewrite_step", recording_step)
    monkeypatch.setattr(_rewrite, "_normalize_rep", counting_normalize)
    return calls


def _drive_engine(monkeypatch):
    """The canonicalize_terms calls of a few of criterion 1's Jacobi outer
    brackets and of one operator-mode quantize + ccr_reduce."""
    gen = RandomSymbolGenerator(42, max_grade=3, max_deriv=2, max_terms=1,
                                max_factors=3)
    draws = [(gen.symbol(), gen.symbol(), gen.symbol()) for _ in range(6)]
    inner = [bracket(b, c) for _, b, c in draws]
    calls = _record_calls(monkeypatch)
    for (a, _, _), bc in zip(draws, inner):
        bracket(a, bc)
    ccr_reduce(quantize(P("int[x](D(phi,1)(x)*phi(x)^2*pi(x)^2)"), "weyl"))
    monkeypatch.undo()
    return calls


def test_each_key_is_rewritten_once_per_call(monkeypatch):
    # the queue pops in priority order, so every contribution to a shape
    # merges before the shape is rewritten
    calls = _drive_engine(monkeypatch)
    assert any(c["mode"][0] for c in calls)  # operator mode is covered
    assert sum(len(c["keys"]) for c in calls) > 100
    for c in calls:
        assert len(set(c["keys"])) == len(c["keys"])


def test_each_raw_term_is_normalized_once_per_call(monkeypatch):
    # a raw term (dummy list included) pushed again within one call is only
    # rescaled, and a fixpoint is not normalized a second time
    calls = _drive_engine(monkeypatch)
    assert sum(len(c["terms"]) + len(c["pushed"]) for c in calls) \
        > sum(c["normalized"] for c in calls) > 100
    for c in calls:
        raw = {(t.dummies, t.key()) for t in c["terms"] + tuple(c["pushed"])
               if not t.coeff.is_zero}
        assert c["normalized"] == len(raw)


def _same_sum_reshuffled(terms, rng):
    """The same sum, permuted: each term split into two parts (the second
    with its dummies relabeled), and cancelling pairs added."""
    def scaled(t, q):
        return Term(t.dummies, t.coeff.scale(q), t.factors, t.deltas)

    out = []
    for t in terms:
        q = Fraction(rng.randint(1, 6), 7)
        out += [scaled(t, q), scaled(shift_dummies(t, 3), 1 - q)]
        u = rng.choice(terms)
        out += [u, scaled(u, -1)]
    rng.shuffle(out)
    return out


def test_canonical_form_does_not_depend_on_input_order(monkeypatch):
    calls = _drive_engine(monkeypatch)
    assert {c["mode"][0] for c in calls} == {False, True}
    for seed in range(3):
        rng = random.Random(seed)
        for c in calls:
            want = _rewrite.canonicalize_terms(c["terms"], *c["mode"])
            got = _rewrite.canonicalize_terms(
                _same_sum_reshuffled(c["terms"], rng), *c["mode"])
            assert got == want
