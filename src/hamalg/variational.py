"""Variational derivatives of functionals.

The variational derivative of int F(phi, pi, ...) dx with respect to phi at a
free point y replaces each occurrence phi^(alpha)(x) by delta^(alpha)(x - y);
contraction then produces the Euler-Lagrange form.  A symbol (a genuine
functional of the fields) is characterized by both of its variational
derivatives being free of delta factors at the test point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotASymbolError
from .terms import (
    DeltaFactor,
    PHI,
    PI,
    Symbol,
    Term,
    VarId,
    canonicalize,
    free_var,
    sites,
)


def _check_field(field: str) -> str:
    if field not in (PHI, PI):
        raise ValueError(f"field must be {PHI!r} or {PI!r}, got {field!r}")
    return field


def _test_point(*symbols) -> VarId:
    """A free point that occurs in none of `symbols` (factor, coefficient
    function or delta): _pb, else _pb1, _pb2, ..."""
    taken = {v for s in symbols for t in s.terms for v in sites(t)}
    n = 0
    while (y := free_var(f"_pb{n or ''}")) in taken:
        n += 1
    return y


def vderiv(s: Symbol, field: str, var: VarId) -> Symbol:
    """delta s / delta field(var); `var` must be free and absent from `s`."""
    _check_field(field)
    if var.is_dummy:
        raise ValueError("variational derivative requires a free variable")
    out = []
    for t in s.terms:
        if var in sites(t):
            raise ValueError(
                "test point already occurs in the expression; "
                "differentiate at a fresh free variable"
            )
        for idx, f in enumerate(t.factors):
            if f.field != field:
                continue
            d = DeltaFactor(f.deriv, f.var, var)
            out.append(Term(t.dummies, t.coeff,
                            t.factors[:idx] + t.factors[idx + 1:],
                            t.deltas + (d,)))
    return canonicalize(Symbol(tuple(out)))


def second_vderiv(s: Symbol, fields: tuple[str, str], var1: VarId, var2: VarId) -> Symbol:
    """delta^2 s / delta fields[1](var2) delta fields[0](var1)."""
    if var1 == var2:
        raise ValueError("second variation requires two distinct free points")
    return vderiv(vderiv(s, _check_field(fields[0]), var1),
                  _check_field(fields[1]), var2)


@dataclass(frozen=True)
class SymbolCheck:
    is_symbol: bool
    witnesses: tuple[Term, ...]
    canonical: Symbol  # the canonical form of the checked expression


def _delta_terms_at(s: Symbol, var: VarId) -> list[Term]:
    out = []
    for t in s.terms:
        for d in t.deltas:
            if d.left == var or d.right == var:
                out.append(t)
                break
    return out


def check_symbol(s: Symbol) -> SymbolCheck:
    """Test whether `s` is a functional of the fields (a symbol).

    Both variational derivatives must be delta-free at the test point;
    offending canonical terms are returned as witnesses.
    """
    test = _test_point(s)  # canonical forms bring no new free variable
    c = canonicalize(s)
    witnesses = tuple(t for field in (PHI, PI)
                      for t in _delta_terms_at(vderiv(c, field, test), test))
    return SymbolCheck(not witnesses, witnesses, c)


def require_symbol(s: Symbol, what: str = "operand") -> Symbol:
    """The canonical form of `s`; NotASymbolError if `s` is no symbol."""
    chk = check_symbol(s)
    if not chk.is_symbol:
        raise NotASymbolError(
            f"{what} is not a functional of the fields "
            f"({len(chk.witnesses)} witness terms)"
        )
    return chk.canonical
