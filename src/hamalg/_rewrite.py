"""Rewriting engine behind canonical forms.

Pipeline per term (first applicable rule fires):

1. (at push) drop exact zeros, rename dummies canonically (below), orient
   delta arguments (smaller variable first) and sort;
2. coincident deltas: delta^(k)(v - v) becomes the formal constant
   delta^(k)(0) in operator mode and is an error in classical mode;
3. paired deltas on one variable pair: the exclusive order-0 square under its
   own two integrals becomes the formal constant int delta^2; derivative
   decorations on such pairs have no sound substitution rule and raise;
4. a lone anchored delta under its own integral evaluates the integral
   (1 for order 0, 0 otherwise);
5. contraction: a delta with at least one integration-dummy argument is
   eliminated against the rest of the term, transferring its derivative by
   integration by parts; the derivative of the remaining product comes from
   the multinomial Leibniz rule, D^k(u_1...u_r) = sum over j_1 + ... + j_r = k
   of k!/(j_1!...j_r!) D^j_1 u_1 ... D^j_r u_r, one term per split rather
   than one per path of single product-rule steps;
6. orphaned integration variables: the formal volume constant, in both
   modes ({int phi, int pi} = -vol classically);
7. argument transfer across free-variable deltas (binomial identity), so
   expressions differing only by which delta argument carries the fields
   coincide structurally;
8. integration by parts per dummy: the greatest factor's derivative order is
   reduced (with chain-rule grouping) while the multiset of (base, order)
   pairs at the dummy strictly decreases, which holds exactly when every
   other piece, raised, stays below the top; else the term is left alone.

Pending terms merge by Term.key and pop (_drain) greatest _priority first: the
number of deltas, the sum of their orders, then the sorted-descending (base,
order) pairs over every dummy (the Dershowitz-Manna multiset order).  Every
rule output is strictly smaller than its input, so all contributions to a
shape merge before it is rewritten, once, except the ties of _orphan (same
pieces) and of _transfer with j = 0 (a piece moves between free variables),
which pop after what is queued at their priority.  Every rule is linear in
the scalar, so the order decides only how much work is repeated.

Pushed terms are relabeled canonically at once: dummies renamed by one sort
on their signatures (what sits at each dummy), classical factor lists sorted
(operator words keep their order).  At a fixpoint the sort is canonical, as
contraction leaves no two-argument delta on a dummy, so dummies with equal
signatures swap freely; the exit checks that invariant.  Within one call a
raw term pushed again (equal up to its scalar, dummy list included) is
rescaled from its first normalization; nothing outlives the call.  Pieces
and terms sort in their own tuple order (see the terms module).

Every rule reads a term through one index, terms.sites (what sits at each
variable: factors, coefficient functions and delta sides), built once per
rewrite step.  Every rule rebuilds terms through the same few edits:
terms.relabel renames variables; _edit_slots, the one slot edit, shifts the
orders of several factors, coefficient functions or deltas (and moves a
factor or function to another point) in one rebuild, for differentiation,
integration by parts, argument transfer and quantum._d_dx alike; and
_accumulate adds like terms by key.  _drain is the one rewrite queue, here
and in quantum.ccr_reduce.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from itertools import count, product
from math import comb, factorial, prod

from .errors import (CoincidentDeltaError, HamalgError,
                     UnsupportedDivergenceError)
from .terms import (
    ANCHOR,
    Coefficient,
    DUMMY,
    DeltaFactor,
    DivergentConstant,
    FieldFactor,
    INT_DELTA_SQ,
    DELTA_AT_ZERO,
    VOLUME,
    Term,
    VarId,
    dummy,
    mi_abs,
    mi_add,
    mi_unit,
    relabel,
    sites,
)


def canonicalize_terms(terms, quantum: bool = False,
                       transfer: bool | None = None) -> tuple[Term, ...]:
    # operator words keep delta arguments where the reduction put them unless
    # a normal form across argument placement is explicitly requested
    if transfer is None:
        transfer = not quantum

    # every rule is linear in the leading scalar, reads only the rest of the
    # term, and is label-invariant, so pushed terms are relabeled canonically
    # and in-flight duplicates merge; cancelling shapes disappear before they
    # fan out.  seen maps a raw term without its scalar (dummy list included,
    # which Term.key leaves out) to (key, normalized term, sign flipped)
    seen = {}

    def normalized(t):
        c = t.coeff
        s = c.scalar
        if s == 0:
            return None
        raw = (t.dummies, t.factors, t.deltas, c.h, c.i, c.m, c.divergent, c.functions)
        hit = seen.get(raw)
        if hit is None:
            nt = _canonical(t, quantum)
            seen[raw] = hit = nt.key(), nt, nt.coeff.scalar != s
            return hit[:2]
        k, nt, flip = hit
        c, s = nt.coeff, s if type(s) is Fraction else Fraction(s)
        return k, Term(nt.dummies, Coefficient(-s if flip else s, c.h, c.i, c.m,
                                               c.divergent, c.functions),
                       nt.factors, nt.deltas)

    done = _drain(terms, normalized, _priority,
                  lambda t: _rewrite_step(t, quantum, transfer))
    for t in done.values():
        _check_fixpoint(t)
    return tuple(done[k] for k in sorted(done))


def _drain(terms, keyed, priority, step) -> dict:
    """Rewrite `terms` to fixpoints, returned merged by key.  keyed(t) gives
    (key, term), or None to drop t; step(t) gives the rewritten terms, None
    at a fixpoint.  Pending terms merge by key (_accumulate) and a heap pops
    the least priority(t) first, so when every output of a step has a
    greater priority than its input, each key is rewritten once.  A key
    that cancels and is pushed again leaves a stale heap entry, which pops
    to nothing; keys need not be ordered, so a counter breaks ties."""
    pending, done, heap, tiebreak = {}, {}, [], count()

    def push(t):
        kt = keyed(t)
        if kt is not None and _accumulate(pending, *kt):
            heappush(heap, (priority(kt[1]), next(tiebreak), kt[0]))

    for t in terms:
        push(t)
    while heap:
        k = heappop(heap)[-1]
        t = pending.pop(k, None)
        if t is None:
            continue
        out = step(t)
        if out is None:
            _accumulate(done, k, t)
        else:
            for nt in out:
                push(nt)
    return done


class _Greatest(tuple):
    """A priority that the heap, which pops the least first, pops greatest
    first."""
    __slots__ = ()

    def __lt__(self, other):
        return tuple.__gt__(self, other)


def _priority(t: Term) -> _Greatest:
    """The queue order: deltas, their orders, then the sorted-descending (is a
    field, name, order) of the pieces at dummies: functions below phi below pi."""
    return _Greatest((len(t.deltas), sum(sum(d.deriv) for d in t.deltas),
                      tuple(sorted([(type(p) is FieldFactor, p[0], p.deriv)
                                    for p in t.factors + t.coeff.functions
                                    if p.var.kind == DUMMY], reverse=True))))


# -- single rewrite step -------------------------------------------------------


def _rewrite_step(t: Term, quantum: bool, transfer: bool):
    r = _coincident(t, quantum)
    if r is not None:
        return r
    at = sites(t)
    r = _pair_rule(t, quantum, at)
    if r is not None:
        return r
    r = _anchored_lone(t, at)
    if r is not None:
        return r
    r = _contract(t)
    if r is not None:
        return r
    r = _orphan(t, at)
    if r is not None:
        return r
    if transfer:
        r = _transfer(t, at)
        if r is not None:
            return r
    r = _ibp(t, at)
    if r is not None:
        return r
    return None


def _coincident(t: Term, quantum: bool):
    for idx, d in enumerate(t.deltas):
        if d.left == d.right:
            if not quantum:
                raise CoincidentDeltaError(
                    f"coincident delta of order {d.deriv} on {d.left!r}; "
                    "classical functionals never produce these"
                )
            rest = t.deltas[:idx] + t.deltas[idx + 1:]
            coeff = t.coeff.times_formal(
                divergent=(DivergentConstant(DELTA_AT_ZERO, d.deriv),))
            return [Term(t.dummies, coeff, t.factors, rest)]
    return None


def _pair_rule(t: Term, quantum: bool, at: dict):
    if not quantum:
        return None
    by_pair: dict[tuple, list[int]] = {}
    for idx, d in enumerate(t.deltas):
        if d.right is not ANCHOR and d.left != d.right:
            by_pair.setdefault((d.left, d.right), []).append(idx)
    for (l, r), idxs in sorted(by_pair.items()):
        if len(idxs) < 2:
            continue
        if any(mi_abs(t.deltas[i].deriv) > 0 for i in idxs):
            raise UnsupportedDivergenceError(
                "product of coincident deltas with derivative decoration has "
                "no formal substitution rule"
            )
        if len(idxs) > 2:
            raise UnsupportedDivergenceError(
                "delta cubed (or higher) at one variable pair is not supported"
            )
        # nothing but the paired deltas sits at either variable
        exclusive = (l.is_dummy and r.is_dummy
                     and all(kind == "delta" and i in idxs
                             for kind, i, _ in at[l] + at[r]))
        if exclusive:
            deltas = tuple(d for i, d in enumerate(t.deltas) if i not in idxs)
            dummies = tuple(v for v in t.dummies if v not in (l, r))
            coeff = t.coeff.times_formal(divergent=(DivergentConstant(INT_DELTA_SQ),))
            return [Term(dummies, coeff, t.factors, deltas)]
    return None


def _anchored_lone(t: Term, at: dict):
    for idx, d in enumerate(t.deltas):
        if d.right is not ANCHOR or not d.left.is_dummy:
            continue
        if len(at[d.left]) == 1:  # the delta itself is all that sits there
            if mi_abs(d.deriv) > 0:
                return []  # integral of a pure derivative of delta
            deltas = t.deltas[:idx] + t.deltas[idx + 1:]
            dummies = tuple(v for v in t.dummies if v != d.left)
            return [Term(dummies, t.coeff, t.factors, deltas)]
    return None


# -- differentiation ------------------------------------------------------------


def _edit_slots(t: Term, by: dict, q=1, var=None) -> Term:
    """`q` times `t`, with the multi-index by[slot] added to the order of the
    factor, coefficient function or delta at each slot (mi_add bounds the
    result), all in one rebuild; `var` moves the edited factors and
    functions, not the deltas, to that point."""
    c = t.coeff
    pieces = {"factor": list(t.factors), "func": list(c.functions),
              "delta": list(t.deltas)}
    for slot, j in by.items():
        kind, idx = slot[0], slot[1]
        p = pieces[kind][idx]
        deriv = mi_add(p.deriv, j)
        if kind == "delta":
            p = DeltaFactor(deriv, p.left, p.right)
        else:  # a FieldFactor or NamedFunction: (field or name, deriv, var)
            p = type(p)(p[0], deriv, p.var if var is None else var)
        pieces[kind][idx] = p
    scalar = c.scalar if q == 1 else c.scalar * q
    return Term(t.dummies,
                Coefficient(scalar, c.h, c.i, c.m, c.divergent, tuple(pieces["func"])),
                tuple(pieces["factor"]), tuple(pieces["delta"]))


def _compositions(n: int, r: int):
    """Every way of writing `n` as an ordered sum of `r` parts >= 0."""
    if r == 0:
        if n == 0:
            yield ()
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, r - 1):
            yield (first,) + rest


def _diff_multi(t: Term, v: VarId, k, moved: Term | None = None) -> list[Term]:
    """D^k of `t` in `v` by the multinomial Leibniz rule: one term for each
    split j_1 + ... + j_r = k over the slots at `v`, weighted by
    k!/(j_1!...j_r!); a delta with `v` on its right gives (-1)^|j|.

    `moved`, when given, is `t` relabeled with every piece at its index (as
    terms.relabel leaves it): the splits are read off `t` and applied to
    `moved`, so a contraction rebuilds each output once."""
    moved = t if moved is None else moved
    if not any(k):
        return [moved]
    # a coincident delta is a constant in v
    slots = [sl for sl in sites(t).get(v, ())
             if sl[0] != "delta" or t.deltas[sl[1]].left != t.deltas[sl[1]].right]
    kfact = prod(map(factorial, k))
    out = []
    for split in product(*(_compositions(a, len(slots)) for a in k)):
        w, sign, by = kfact, 1, {}
        for slot, j in zip(slots, zip(*split)):
            if any(j):
                by[slot] = j
                w //= prod(map(factorial, j))
                if slot[0] == "delta" and slot[2] == "right" and sum(j) % 2:
                    sign = -sign
        out.append(_edit_slots(moved, by, sign * w))
    return out


# -- contraction ----------------------------------------------------------------


def _contract(t: Term):
    for d in sorted(t.deltas):
        if d.right is ANCHOR or d.left == d.right:
            continue
        cands = [v for v in (d.left, d.right) if v.is_dummy]
        if not cands:
            continue
        v = max(cands)
        keep = d.right if v == d.left else d.left
        sign = 1 if v == d.right else (-1) ** mi_abs(d.deriv)
        idx = t.deltas.index(d)
        stripped = Term(t.dummies, t.coeff.scale(sign), t.factors,
                        t.deltas[:idx] + t.deltas[idx + 1:])
        moved = relabel(stripped, {v: keep}, tuple(x for x in t.dummies if x != v))
        return _diff_multi(stripped, v, d.deriv, moved)
    return None


def _orphan(t: Term, at: dict):
    # an integration variable nothing depends on contributes the formal
    # volume constant; {int phi, int pi} is the canonical classical example
    orphans = [v for v in t.dummies if v not in at]
    if not orphans:
        return None
    coeff = t.coeff.times_formal(
        divergent=tuple(DivergentConstant(VOLUME) for _ in orphans))
    return [Term(tuple(v for v in t.dummies if v not in orphans),
                 coeff, t.factors, t.deltas)]


# -- argument transfer across free-variable deltas -------------------------------


def _transfer(t: Term, at: dict):
    for didx, d in enumerate(t.deltas):
        if d.right is ANCHOR or d.left.is_dummy or d.right.is_dummy:
            continue
        # orientation guarantees left < right; move the first factor (else
        # function) at the right argument onto the left
        slot = next((sl for sl in at[d.right] if sl[0] != "delta"), None)
        if slot is None:
            continue
        return [_edit_slots(t, {("delta", didx, "left"): tuple(-b for b in j), slot: j},
                            prod(map(comb, d.deriv, j)), d.left)
                for j in product(*(range(a + 1) for a in d.deriv))]
    return None


# -- integration by parts ---------------------------------------------------------


def _ibp_keys(t: Term, slots):
    """(base, deriv, slot) keys of the factors/functions at `slots` (no
    delta); base ranks functions, by name, below phi below pi."""
    pieces = [(t.factors if sl[0] == "factor" else t.coeff.functions)[sl[1]] for sl in slots]
    return [((type(p) is FieldFactor, p[0]), p.deriv, sl) for p, sl in zip(pieces, slots)]


def _ibp(t: Term, at: dict):
    for v in sorted(t.dummies):
        slots = at.get(v)
        if not slots or any(sl[0] == "delta" for sl in slots):
            continue
        keys = _ibp_keys(t, slots)
        base, K, top_slot = max(keys, key=lambda k: (k[0], k[1]))
        # an underived or tied maximum: no sound single-factor reduction
        if not any(K) or sum(1 for k in keys if (k[0], k[1]) == (base, K)) > 1:
            continue
        axis = next(a for a, c in enumerate(K) if c > 0)
        Km = K[:axis] + (K[axis] - 1,) + K[axis + 1:]
        p = sum(1 for k in keys if (k[0], k[1]) == (base, Km))
        rest = [k for k in keys if k[2] != top_slot and (k[0], k[1]) != (base, Km)]
        # the multiset loses (base, K) and gains (base, Km) < (base, K), so
        # it decreases exactly when every raised piece stays below the top
        if all((b, d[:axis] + (d[axis] + 1,) + d[axis + 1:]) < (base, K)
               for b, d, _ in rest):
            e = mi_unit(axis)
            down, scale = tuple(-a for a in e), Fraction(-1, p + 1)
            return [_edit_slots(t, {top_slot: down, s: e}, scale) for _, _, s in rest]
    return None


# -- relabeling, sorting, merging ---------------------------------------------


def _signature(t: Term, slots, quantum: bool) -> tuple:
    """What sits at the `slots` of a dummy (of a delta, only its left side);
    operator words also record word positions."""
    desc = []
    for kind, idx, side in slots:
        if kind == "factor":
            f = t.factors[idx]
            desc.append(("F", f.field, f.deriv, idx if quantum else -1))
        elif kind == "func":
            fn = t.coeff.functions[idx]
            desc.append(("N", fn.name, fn.deriv))
        elif side == "left":
            desc.append(("DL", t.deltas[idx].deriv))
    return tuple(sorted(desc))


def _rename(t: Term, order: list[VarId]) -> Term:
    """Rename the dummies in `order` to d0, d1, ..."""
    m = {old: dummy(i) for i, old in enumerate(order)}
    dummies = tuple(m.values())
    if all(k == v for k, v in m.items()):
        return Term(dummies, t.coeff, t.factors, t.deltas)
    return relabel(t, m, dummies)


def _normalize_rep(t: Term, quantum: bool) -> Term:
    """Orient deltas (smaller variable first) and sort what is sortable."""
    c = t.coeff
    scalar = c.scalar
    deltas = []
    for d in t.deltas:
        if d.right is not ANCHOR and d.left > d.right:
            deltas.append(DeltaFactor(d.deriv, d.right, d.left))
            if mi_abs(d.deriv) % 2:
                scalar = -scalar
        else:
            deltas.append(d)
    deltas = tuple(sorted(deltas))
    factors = t.factors if quantum else tuple(sorted(t.factors))
    coeff = Coefficient.make(scalar, c.h, c.i, c.m, c.divergent, c.functions)
    return Term(t.dummies, coeff, factors, deltas)


def _canonical(t: Term, quantum: bool) -> Term:
    """`t` with its dummies renamed by one sort on their signatures, deltas
    oriented and what is sortable sorted: the push normalization, and the
    canonical labeling once `t` is a fixpoint (see _check_fixpoint)."""
    if t.dummies:
        at = sites(t)
        t = _rename(t, sorted(t.dummies,
                              key=lambda v: _signature(t, at.get(v, ()), quantum)))
    return _normalize_rep(t, quantum)


def _check_fixpoint(t: Term) -> None:
    """Refuse a fixpoint where a delta links an integration dummy: there the
    signature sort of _canonical would not be canonical."""
    for d in t.deltas:
        if d.right is not ANCHOR and (d.left.is_dummy or d.right.is_dummy):
            raise HamalgError(
                f"delta of order {d.deriv} on ({d.left!r}, {d.right!r}) links an integration "
                "dummy at the fixpoint; contraction should have removed it")


def _accumulate(acc: dict, k, t: Term) -> bool:
    """Add `t` into acc[k], dropping the entry when the scalars cancel;
    True when `k` is a new key."""
    old = acc.get(k)
    if old is None:
        acc[k] = t
        return True
    s = old.coeff.scalar + t.coeff.scalar
    if s == 0:
        del acc[k]
    else:
        c = old.coeff
        acc[k] = Term(old.dummies, Coefficient(s, c.h, c.i, c.m, c.divergent, c.functions),
                      old.factors, old.deltas)
    return False
