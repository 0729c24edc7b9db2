"""Operator expressions over the canonical commutation relations.

Quantization sends a functional to an operator expression whose terms carry
ordered factor words.  Normal ordering keeps every momentum factor to the
right; Weyl ordering averages each word over all arrangements with equal
rational weights.  ccr_reduce rewrites words into normal order, and each
transposition of a momentum past a field inserts an i*h*delta term; when the
two factors sit at the same point the inserted delta becomes a formal
divergent constant (delta-at-zero of some order, a squared-delta integral,
or a bare volume).  Divergent constants are carried as data and never
simplified; in particular the relation delta(0)*delta'(x) = 2*delta'(0)*delta(x)
that falls out of comparing the two Leibniz expansions of a commutator is
only reported, not applied.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from ._rewrite import _diff_multi, _drain, canonicalize_terms
from .errors import DivergentLeadingTermError, HamalgError, PreconditionError
from .parser import format_expression
from .poisson import bracket
from .session import SESSION
from .terms import (
    ANCHOR,
    DELTA_AT_ZERO,
    DeltaFactor,
    DivergentConstant,
    PHI,
    PI,
    Symbol,
    Term,
    ZERO,
    canonicalize,
    concat,
    delta,
    free_var,
    make_term,
    mi_abs,
    mi_add,
    mi_unit,
    phi,
    pi_,
    relabel,
    symbol,
)
from .variational import require_symbol

SCHEMES = ("normal", "weyl")


class OperatorExpression(Symbol):
    """A sum of terms whose factor tuples are ordered operator words."""

    ORDERED = True

    @property
    def divergent(self) -> bool:
        return any(t.coeff.divergent for t in self.terms)


def operator(*terms: Term) -> OperatorExpression:
    return OperatorExpression(tuple(terms))


def op_canonicalize(e: OperatorExpression) -> OperatorExpression:
    return OperatorExpression(canonicalize_terms(e.terms, quantum=True))


def formal_scale(e, scalar=1, h=0, i=0):
    """Multiply by scalar * h^h * i^i (negative powers allowed)."""
    return type(e)(tuple(Term(t.dummies, t.coeff.scale(scalar).times_formal(h, i),
                              t.factors, t.deltas) for t in e.terms))


def forget_order(e: OperatorExpression) -> Symbol:
    """Reinterpret the words as commutative products (the symbol map)."""
    return canonicalize(Symbol(tuple(e.terms)))


def _check_scheme(scheme: str):
    if scheme not in SCHEMES:
        raise ValueError(f"unknown ordering scheme {scheme!r}; expected one of {SCHEMES}")


#: most Weyl words one quantize call may produce (phi^8*pi^8 has 12,870)
WEYL_WORD_LIMIT = 20_000


def _distinct_arrangements(factors):
    """Yield each distinct arrangement of `factors` once, in lexicographic
    order of factors (Knuth, TAOCP 4A, 7.2.1.2, Algorithm L)."""
    distinct = sorted(set(factors))
    rank = {f: k for k, f in enumerate(distinct)}
    a = sorted(rank[f] for f in factors)
    n = len(a)
    while True:
        yield tuple(distinct[k] for k in a)
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        l = n - 1
        while a[j] >= a[l]:
            l -= 1
        a[j], a[l] = a[l], a[j]
        a[j + 1:] = a[:j:-1]


def quantize(s: Symbol, scheme: str = "normal") -> OperatorExpression:
    """Lift a functional to an operator expression under the given ordering.

    The classical canonical form already lists fields before momenta, so the
    normal scheme keeps each word as is.  The Weyl scheme replaces a word of
    length r by each distinct arrangement once, weighted prod(m_i!)/r!,
    where the m_i are the multiplicities of equal factors; this is the
    average over all r! arrangements.  A symbol whose terms together have
    more than WEYL_WORD_LIMIT distinct arrangements is refused with a
    HamalgError before any word is generated.
    """
    _check_scheme(scheme)
    terms = require_symbol(s).terms
    if scheme == "normal":
        return op_canonicalize(OperatorExpression(terms))
    # a term's weight prod(m_i!)/r! is 1 / (its number of arrangements)
    weights = [Fraction(prod(factorial(m) for m in Counter(t.factors).values()),
                        factorial(len(t.factors))) for t in terms]
    words = sum(w.denominator for w in weights)
    if words > WEYL_WORD_LIMIT:
        raise HamalgError(
            f"Weyl quantization would produce {words} words, above the "
            f"limit of {WEYL_WORD_LIMIT}")
    out = []
    for t, w in zip(terms, weights):
        coeff = t.coeff.scale(w)
        out.extend(Term(t.dummies, coeff, word, t.deltas)
                   for word in _distinct_arrangements(t.factors))
    return op_canonicalize(OperatorExpression(tuple(out)))


def op_multiply(a: OperatorExpression, b: OperatorExpression) -> OperatorExpression:
    """Concatenate words pairwise; integration dummies stay disjoint."""
    return op_canonicalize(OperatorExpression(
        tuple(concat(ta, tb) for ta in a.terms for tb in b.terms)))


# -- normal ordering -----------------------------------------------------------


def _ccr_scalar(phif, pif):
    """[phi-factor, pi-factor] = sign * i*h * delta factor (or delta-at-zero)."""
    sign = (-1) ** mi_abs(pif.deriv)
    order = mi_add(phif.deriv, pif.deriv)
    if phif.var == pif.var:
        return sign, (DivergentConstant(DELTA_AT_ZERO, order),), ()
    return sign, (), (DeltaFactor(order, phif.var, pif.var),)


def _bubble(t: Term):
    for idx in range(len(t.factors) - 1):
        a, b = t.factors[idx], t.factors[idx + 1]
        if a.field != PI or b.field != PHI:
            continue
        swapped = Term(t.dummies, t.coeff,
                       t.factors[:idx] + (b, a) + t.factors[idx + 2:], t.deltas)
        sign, div, ds = _ccr_scalar(b, a)
        coeff = t.coeff.scale(-sign).times_formal(h=1, i=1, divergent=div)
        inserted = Term(t.dummies, coeff,
                        t.factors[:idx] + t.factors[idx + 2:], t.deltas + ds)
        return [swapped, inserted]
    return None


def _sort_blocks(t: Term) -> Term:
    k = sum(1 for f in t.factors if f.field == PHI)
    phis = tuple(sorted(t.factors[:k]))
    pis = tuple(sorted(t.factors[k:]))
    return Term(t.dummies, t.coeff, phis + pis, t.deltas)


def _inversions(word) -> int:
    """Number of (momentum, field) pairs with the momentum to the left."""
    seen_pi = inv = 0
    for f in word:
        if f.field == PI:
            seen_pi += 1
        else:
            inv += seen_pi
    return inv


def ccr_reduce(e: OperatorExpression,
               transfer: bool | None = None) -> OperatorExpression:
    """Rewrite every word into normal order (fields left, momenta right).

    Each transposition inserts the central commutation term; the inserted
    term's word is two factors shorter, so the rewriting terminates.  Within
    a normal-ordered word the fields commute exactly, as do the momenta, so
    the two blocks are sorted.

    Pending terms merge by key and are rewritten in decreasing order of
    (word length, momentum-before-field inversions) (the rewrite engine's
    _drain).  A rewrite step either keeps the length and removes exactly one
    inversion or shortens the word by two, so every contribution to a word
    comes from a strictly higher word and has merged before that word is
    rewritten, and each distinct word is rewritten once.
    """
    done = _drain(e.terms, lambda t: ((t.dummies, t.key()), t),
                  lambda t: (-len(t.factors), -_inversions(t.factors)), _bubble)
    return OperatorExpression(canonicalize_terms(
        tuple(_sort_blocks(t) for t in done.values()), quantum=True,
        transfer=transfer))


def op_equals(a: OperatorExpression, b: OperatorExpression) -> bool:
    """Equality modulo the commutation relations and argument transfer."""
    return ccr_reduce(a - b, transfer=True).is_zero


# -- commutator ------------------------------------------------------------------


def commutator(a: OperatorExpression, b: OperatorExpression,
               grouping: str = "left", reduce: bool = False,
               transfer: bool | None = None) -> OperatorExpression:
    """[a, b] as the exact expansion over central factor commutators.

    Every pairwise factor commutator is a scalar, so ab - ba collapses to

        sum_{i,j} a_<i b_<j [a_i, b_j] b_>j a_>i        (grouping "left")
        sum_{i,j} b_<j a_<i [a_i, b_j] a_>i b_>j        (grouping "right")

    with the scalar pulled out of the word.  The two groupings agree as
    operators; they differ as expressions, which is the point of the
    two-way expansion.  `reduce` applies ccr_reduce to the result.
    """
    if grouping not in ("left", "right"):
        raise ValueError(f"unknown grouping {grouping!r}")
    out = []
    for ta in a.terms:
        for tb in b.terms:
            t = concat(ta, tb)
            A, B = t.factors[:len(ta.factors)], t.factors[len(ta.factors):]
            for i, ai in enumerate(A):
                for j, bj in enumerate(B):
                    if ai.field == bj.field:
                        continue
                    phif, pif = (ai, bj) if ai.field == PHI else (bj, ai)
                    side = 1 if ai.field == PHI else -1
                    sign, div, ds = _ccr_scalar(phif, pif)
                    if grouping == "left":
                        word = A[:i] + B[:j] + B[j + 1:] + A[i + 1:]
                    else:
                        word = B[:j] + A[:i] + A[i + 1:] + B[j + 1:]
                    coeff = t.coeff.scale(side * sign).times_formal(
                        h=1, i=1, divergent=div)
                    out.append(Term(t.dummies, coeff, word, t.deltas + ds))
    res = OperatorExpression(
        canonicalize_terms(tuple(out), quantum=True, transfer=transfer))
    return ccr_reduce(res, transfer=transfer) if reduce else res


def classical_limit(e: OperatorExpression) -> Symbol:
    """Keep the lowest h-order, forget operator order, canonicalize."""
    if e.is_zero:
        return ZERO
    low = min(t.coeff.h for t in e.terms)
    kept = [t for t in e.terms if t.coeff.h == low]
    for t in kept:
        if t.coeff.divergent:
            raise DivergentLeadingTermError(
                f"lowest h-order ({low}) carries a divergent constant; "
                "no classical value exists"
            )
    return canonicalize(Symbol(tuple(kept)))


# -- correspondence at quadratic order -----------------------------------------


@dataclass
class CorrespondenceReport:
    scheme: str
    non_central: OperatorExpression
    central: OperatorExpression

    @property
    def passed(self) -> bool:
        return self.non_central.is_zero

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "passed": self.passed,
            "non_central": format_expression(self.non_central),
            "central": format_expression(self.central),
        }


def correspondence_check(a: Symbol, b: Symbol,
                         scheme: str = "weyl") -> CorrespondenceReport:
    """Check [Q(a), Q(b)] + ih·Q({a, b}) against the central sector.

    With the bracket convention used here the commutator of quantized
    functionals equals -ih times the quantized bracket up to h² terms; at
    quadratic order those h² terms are central (multiples of the identity,
    possibly with divergent coefficients) and are reported, not judged.
    """
    _check_scheme(scheme)
    ca, cb = canonicalize(a), canonicalize(b)
    for s in (ca, cb):
        for t in s.terms:
            if t.field_degree > 2:
                raise PreconditionError(
                    "correspondence is checked on the quadratic sector; "
                    f"got a term of field degree {t.field_degree}"
                )
    q = commutator(quantize(ca, scheme), quantize(cb, scheme))
    p = formal_scale(quantize(bracket(ca, cb), scheme), h=1, i=1)
    r = ccr_reduce(q + p, transfer=True)
    central = tuple(t for t in r.terms if not t.factors)
    rest = tuple(t for t in r.terms if t.factors)
    return CorrespondenceReport(scheme, OperatorExpression(rest),
                                OperatorExpression(central))


# -- the two-way Leibniz expansion and its residual ------------------------------


def _anchor(e, var):
    """Set `var` := 0 inside delta factors (var must occur nowhere else)."""
    out = []
    for t in e.terms:
        if any(f.var == var for f in t.factors) or \
           any(fn.var == var for fn in t.coeff.functions):
            raise HamalgError(f"cannot anchor {var!r}: it occurs outside deltas")
        sign = 1
        deltas = []
        for d in t.deltas:
            if d.right == var:
                deltas.append(DeltaFactor(d.deriv, d.left, ANCHOR))
            elif d.left == var and d.right is not ANCHOR:
                sign *= (-1) ** mi_abs(d.deriv)
                deltas.append(DeltaFactor(d.deriv, d.right, ANCHOR))
            elif d.left == var:
                raise HamalgError("anchoring would evaluate a delta at zero")
            else:
                deltas.append(d)
        out.append(Term(t.dummies, t.coeff.scale(sign), t.factors, tuple(deltas)))
    return type(e)(canonicalize_terms(tuple(out), quantum=True))


def _d_dx(s: Symbol, var, axis: int = 0) -> Symbol:
    return Symbol(tuple(nt for t in s.terms
                        for nt in _diff_multi(t, var, mi_unit(axis))))


def _pool_anchored(s: Symbol) -> Symbol:
    """Apply delta^(j)(x) * delta^(k)(x) -> delta0(k) * delta^(j)(x), j <= k.

    This is the one place the coincident-square substitution is used; the
    rewrite engine itself never applies it.
    """
    out = []
    for t in s.terms:
        by_var = {}
        for idx, d in enumerate(t.deltas):
            if d.right is ANCHOR:
                by_var.setdefault(d.left, []).append(idx)
        pair = next((idxs for idxs in by_var.values() if len(idxs) >= 2), None)
        if pair is None:
            out.append(t)
            continue
        i1, i2 = sorted(pair[:2], key=lambda k: mi_abs(t.deltas[k].deriv))
        lo, hi = t.deltas[i1], t.deltas[i2]
        deltas = tuple(d for k, d in enumerate(t.deltas) if k not in (i1, i2))
        coeff = t.coeff.times_formal(
            divergent=(DivergentConstant(DELTA_AT_ZERO, hi.deriv),))
        out.append(Term(t.dummies, coeff, t.factors, deltas + (lo,)))
    return canonicalize(Symbol(tuple(out)))


def delta_square_defect() -> Symbol:
    """Differentiate delta(x)^2 = delta(0)delta(x) along both routes and subtract.

    Route one substitutes first and then differentiates; route two
    differentiates the square by the product rule and substitutes afterwards.
    The difference is the formal obstruction delta0(0)*delta'(x) - 2*delta0(1)*delta(x).
    """
    if SESSION.dimension != 1:
        raise PreconditionError("the delta-square computation is one-dimensional")
    xv = free_var("x")
    d0 = delta(xv, None)
    sq = symbol(make_term(1, deltas=(d0, d0)))
    route1 = _d_dx(_pool_anchored(sq), xv)
    route2 = _pool_anchored(_d_dx(sq, xv))
    return canonicalize(route1 - route2)


@dataclass
class LeibnizResidualReport:
    f_name: str
    g_name: str
    way1: OperatorExpression
    way2: OperatorExpression
    residual: OperatorExpression
    combination: Symbol
    differentiation_check: Symbol
    routes_agree: bool
    classical_zero: bool

    def to_dict(self) -> dict:
        return {
            "pairing": f"int {self.f_name}(x) {self.g_name}(y) dx dy (omitted)",
            "way1": format_expression(self.way1),
            "way2": format_expression(self.way2),
            "residual": format_expression(self.residual),
            "combination": format_expression(self.combination),
            "differentiation_check": format_expression(self.differentiation_check),
            "routes_agree": self.routes_agree,
            "classical_zero": self.classical_zero,
        }


def leibniz_residual(f_name: str = "f", g_name: str = "g") -> LeibnizResidualReport:
    """Expand [phi(x)phi'(x), pi(y)^2] two ways and report the mismatch.

    The pairing against f(x)g(y) is left implicit.  Both expansions are
    exact; bringing them to a common form (arguments moved onto x, words in
    normal order) makes them differ by (ih)^2 times the combination
    delta0(0)*delta'(x) - 2*delta0(1)*delta(x), anchored at y = 0.  The same
    combination falls out of differentiating delta(x)^2 = delta(0)delta(x),
    and both routes are reported side by side.
    """
    if SESSION.dimension != 1:
        raise PreconditionError("the residual identity is a one-dimensional computation")
    SESSION.require_function(f_name)
    SESSION.require_function(g_name)
    xv, yv = free_var("x"), free_var("y")
    kept, dropped = (xv, yv) if xv < yv else (yv, xv)
    a = operator(make_term(1, factors=(phi(kept), phi(kept, 1))))
    b = operator(make_term(1, factors=(pi_(dropped), pi_(dropped))))
    way1 = commutator(a, b, grouping="left", transfer=True)
    way2 = commutator(a, b, grouping="right", transfer=True)
    diff = ccr_reduce(way1 - way2, transfer=True)
    residual = _anchor(diff, dropped)
    if kept != xv:
        residual = OperatorExpression(canonicalize_terms(
            tuple(relabel(t, {kept: xv}) for t in residual.terms), quantum=True))
    combination = forget_order(formal_scale(residual, h=-2, i=-2))
    check = delta_square_defect()
    return LeibnizResidualReport(
        f_name, g_name, way1, way2, residual, combination, check,
        routes_agree=(canonicalize(combination - check).is_zero),
        classical_zero=forget_order(way1 - way2).is_zero,
    )
