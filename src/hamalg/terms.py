"""Term model for polynomial functionals of a scalar field.

A Symbol is a finite sum of terms.  Each term is a product of integrals

    coeff * int d^n x_0 ... int d^n x_{d-1}  prod_k F_k

where every factor F_k is a field value phi^(alpha)(v), a momentum value
pi^(alpha)(v), or a delta factor delta^(alpha)(u - v); v is either an
integration dummy or a named free variable.  Derivative orders alpha are
multi-indices of length n (the session dimension).  The coefficient carries
an exact rational scalar, powers of the formal constants h, i, m, declared
coefficient functions evaluated at variables (f^(alpha)(v)), and formal
divergent constants produced by the operator calculus.

The same Term class backs operator expressions; there the factor tuple is an
ordered word of field operators and its order is significant.

Variables and the pieces of a term are NamedTuples whose field order is the
canonical order, so sorts, merges and hashes use the values themselves, and
Term.key() (the term without its scalar) is a tuple of them.  Pieces of
different types never compare equal: their fields differ in number or type,
and function names exclude phi and pi (session.RESERVED), so no NamedFunction
equals a FieldFactor.  An anchored delta delta^(alpha)(left) has right =
ANCHOR, a variable that sorts first and is no point (sites skips it).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .errors import MaxDerivativeError
from .session import SESSION

DUMMY = 0
FREE = 1

PHI = "phi"
PI = "pi"

MultiIndex = tuple[int, ...]


class VarId(NamedTuple):
    kind: int
    index: int

    @property
    def is_dummy(self) -> bool:
        return self.kind == DUMMY

    def __repr__(self):
        return f"d{self.index}" if self.kind == DUMMY else f"v{self.index}"


#: the right argument of an anchored delta; sorts before every variable
ANCHOR = VarId(-1, -1)


def dummy(index: int) -> VarId:
    return VarId(DUMMY, index)


def free_var(name: str) -> VarId:
    """Intern `name` in the session and return the corresponding variable."""
    return VarId(FREE, SESSION.intern_free(name))


# -- multi-indices ----------------------------------------------------------

def mi_coerce(order: Union[int, Sequence[int], None]) -> MultiIndex:
    """Coerce an int (dimension-1 shorthand) or sequence to a multi-index."""
    n = SESSION.dimension
    if order is None:
        return (0,) * n
    if isinstance(order, int):
        if n != 1:
            raise ValueError("integer derivative order requires dimension 1")
        order = (order,)
    mi = tuple(int(a) for a in order)
    if len(mi) != n or any(a < 0 for a in mi):
        raise ValueError(f"bad multi-index {order!r} for dimension {n}")
    if sum(mi) > SESSION.max_derivative_order:
        raise MaxDerivativeError(
            f"derivative order {sum(mi)} exceeds bound {SESSION.max_derivative_order}"
        )
    return mi


def mi_unit(axis: int) -> MultiIndex:
    n = SESSION.dimension
    return tuple(1 if a == axis else 0 for a in range(n))


def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    s = tuple(x + y for x, y in zip(a, b))
    if sum(s) > SESSION.max_derivative_order:
        raise MaxDerivativeError(
            f"derivative order {sum(s)} exceeds bound {SESSION.max_derivative_order}"
        )
    return s


def mi_abs(a: MultiIndex) -> int:
    return sum(a)


# -- factors ------------------------------------------------------------------

class NamedFunction(NamedTuple):
    """A declared coefficient function f^(alpha) evaluated at a variable."""
    name: str
    deriv: MultiIndex
    var: VarId


class FieldFactor(NamedTuple):
    field: str  # PHI or PI; "phi" < "pi"
    deriv: MultiIndex
    var: VarId


class DeltaFactor(NamedTuple):
    """delta^(alpha)(left - right); right is ANCHOR for delta^(alpha)(left)."""
    deriv: MultiIndex
    left: VarId
    right: VarId


DELTA_AT_ZERO = "delta0"     # delta^(alpha)(0)
INT_DELTA_SQ = "intdelta2"   # int delta(x)^2 dx
VOLUME = "vol"               # int dx over an argument nothing depends on


class DivergentConstant(NamedTuple):
    kind: str
    order: MultiIndex = ()


def named(name: str, var: VarId, deriv=None) -> NamedFunction:
    SESSION.require_function(name)
    return NamedFunction(name, mi_coerce(deriv), var)


def phi(var: VarId, deriv=None) -> FieldFactor:
    return FieldFactor(PHI, mi_coerce(deriv), var)


def pi_(var: VarId, deriv=None) -> FieldFactor:
    return FieldFactor(PI, mi_coerce(deriv), var)


def delta(left: VarId, right: VarId | None, deriv=None) -> DeltaFactor:
    """delta^(deriv)(left - right); right None gives the anchored delta."""
    return DeltaFactor(mi_coerce(deriv), left, ANCHOR if right is None else right)


# -- coefficient ---------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Coefficient:
    scalar: Fraction
    h: int = 0
    i: int = 0
    m: int = 0
    divergent: tuple[DivergentConstant, ...] = ()
    functions: tuple[NamedFunction, ...] = ()

    @staticmethod
    def make(scalar, h=0, i=0, m=0, divergent=(), functions=()) -> "Coefficient":
        if type(scalar) is not Fraction:
            scalar = Fraction(scalar)
        # i^2 = -1 folds into the scalar sign; i stays in {0, 1}
        i = int(i)
        if (i % 4) in (2, 3):
            scalar = -scalar
        i = i % 2
        if scalar == 0:
            return Coefficient(Fraction(0))
        return Coefficient(
            scalar, int(h), i, int(m),
            tuple(sorted(divergent)), tuple(sorted(functions)),
        )

    def mul(self, other: "Coefficient") -> "Coefficient":
        return Coefficient.make(
            self.scalar * other.scalar,
            self.h + other.h,
            self.i + other.i,
            self.m + other.m,
            self.divergent + other.divergent,
            self.functions + other.functions,
        )

    def scale(self, q) -> "Coefficient":
        # only the scalar changes, so the formal parts keep the order make
        # gave them and are not sorted again; a non-rational q is made exact
        s = self.scalar * q
        if type(s) is not Fraction:
            s = Fraction(self.scalar) * Fraction(q)
        if s == 0:
            return Coefficient(Fraction(0))
        return Coefficient(s, self.h, self.i, self.m, self.divergent, self.functions)

    def times_formal(self, h=0, i=0, divergent=()) -> "Coefficient":
        return Coefficient.make(self.scalar, self.h + h, self.i + i, self.m,
                                self.divergent + tuple(divergent), self.functions)

    @property
    def is_zero(self) -> bool:
        return self.scalar == 0


# -- terms and symbols ---------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Term:
    """One product of integrals.  `factors` order is significant only when the
    term is used inside an operator expression (the factors form the operator
    word); classical canonical form keeps `factors` sorted."""
    dummies: tuple[VarId, ...]
    coeff: Coefficient
    factors: tuple[FieldFactor, ...]
    deltas: tuple[DeltaFactor, ...]

    def key(self):
        """The term without its scalar: like terms share it."""
        c = self.coeff
        return (len(self.dummies), self.factors, self.deltas,
                (c.h, c.i, c.m, c.divergent, c.functions))

    @property
    def pi_degree(self) -> int:
        return sum(1 for f in self.factors if f.field == PI)

    @property
    def field_degree(self) -> int:
        return len(self.factors)


def make_term(scalar, dummies=(), factors=(), deltas=(), h=0, i=0, m=0,
              divergent=(), functions=()) -> Term:
    return Term(
        tuple(dummies),
        Coefficient.make(scalar, h, i, m, divergent, functions),
        tuple(factors),
        tuple(deltas),
    )


@dataclass(frozen=True, slots=True)
class Symbol:
    """A finite sum of classical terms (not necessarily canonical)."""
    terms: tuple[Term, ...]

    ORDERED = False  # factor tuples are commutative products

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Symbol") -> "Symbol":
        if type(other) is not type(self):
            raise TypeError("cannot mix classical symbols and operator expressions")
        return type(self)(self.terms + other.terms)

    def __sub__(self, other: "Symbol") -> "Symbol":
        return self + (-other)

    def __neg__(self) -> "Symbol":
        return self.scale(-1)

    def scale(self, q) -> "Symbol":
        q = Fraction(q)
        if q == 0:
            return type(self)(())
        return type(self)(tuple(
            Term(t.dummies, t.coeff.scale(q), t.factors, t.deltas) for t in self.terms
        ))


ZERO = Symbol(())


def symbol(*terms: Term) -> Symbol:
    return Symbol(tuple(terms))


# -- variable plumbing shared by the rewrite engine ----------------------------

def relabel(t: Term, m: dict, dummies=None) -> Term:
    """Substitute every variable in `m` at once, in factors, functions and
    both delta arguments; the dummy list is mapped too unless `dummies`
    replaces it."""
    get = m.get
    c = t.coeff
    if c.functions:
        c = Coefficient(c.scalar, c.h, c.i, c.m, c.divergent,
                        tuple(NamedFunction(f.name, f.deriv, get(f.var, f.var))
                              for f in c.functions))
    return Term(
        tuple(get(v, v) for v in t.dummies) if dummies is None else dummies,
        c,
        tuple(FieldFactor(f.field, f.deriv, get(f.var, f.var)) for f in t.factors),
        tuple(DeltaFactor(d.deriv, get(d.left, d.left), get(d.right, d.right))
              for d in t.deltas),
    )


def sites(t: Term) -> dict:
    """Where each variable of `t` sits: {var: [(kind, idx, side), ...]} with
    the variables in order of first appearance across the factors, the
    coefficient functions and each delta's left then right argument.  kind
    is "factor", "func" or "delta" and idx indexes that tuple; side is
    "left" or "right" for a delta and None otherwise, so a coincident delta
    is listed twice."""
    out: dict = {}
    for idx, f in enumerate(t.factors):
        out.setdefault(f.var, []).append(("factor", idx, None))
    for idx, fn in enumerate(t.coeff.functions):
        out.setdefault(fn.var, []).append(("func", idx, None))
    for idx, d in enumerate(t.deltas):
        out.setdefault(d.left, []).append(("delta", idx, "left"))
        if d.right is not ANCHOR:
            out.setdefault(d.right, []).append(("delta", idx, "right"))
    return out


def shift_dummies(t: Term, offset: int) -> Term:
    """Relabel every dummy index by +offset (used to keep products disjoint)."""
    if offset == 0 or not t.dummies:
        return t
    return relabel(t, {v: dummy(v.index + offset) for v in t.dummies})


def concat(ta: Term, tb: Term) -> Term:
    """Product of two terms, `tb`'s dummies shifted past `ta`'s; factor
    words concatenate in order."""
    tb = shift_dummies(tb, max((v.index for v in ta.dummies), default=-1) + 1)
    return Term(ta.dummies + tb.dummies, ta.coeff.mul(tb.coeff),
                ta.factors + tb.factors, ta.deltas + tb.deltas)


def bind_free(s: Symbol, var: VarId) -> Symbol:
    """Integrate a symbol over one of its free variables."""
    if var.kind != FREE:
        raise ValueError("bind_free expects a free variable")
    out = []
    for t in s.terms:
        d = dummy(max((v.index for v in t.dummies), default=-1) + 1)
        out.append(relabel(t, {var: d}, t.dummies + (d,)))
    return Symbol(tuple(out))


# -- public algebra entry points (engine lives in _rewrite) --------------------

def canonicalize(s: Symbol) -> Symbol:
    from . import _rewrite
    return Symbol(_rewrite.canonicalize_terms(s.terms, quantum=False))


def multiply(a: Symbol, b: Symbol) -> Symbol:
    """Product of functionals; integration dummies are kept disjoint."""
    from . import _rewrite
    return Symbol(_rewrite.canonicalize_terms(
        tuple(concat(ta, tb) for ta in a.terms for tb in b.terms), quantum=False))


def equals(a: Symbol, b: Symbol) -> bool:
    """Structural equality of canonical forms."""
    return canonicalize(a).terms == canonicalize(b).terms
