"""Seeded random symbols for property suites.

Hand-rolled generators (random.Random) so corpora are reproducible from a
single integer seed and structurally bounded: grade (momentum degree),
derivative order, term and factor counts are all capped.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .session import SESSION
from .terms import (
    Symbol,
    Term,
    canonicalize,
    concat,
    dummy,
    make_term,
    named,
    phi,
    pi_,
)

_SCALARS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
            Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(1, 3)]


class RandomSymbolGenerator:
    def __init__(self, seed: int = 0, max_grade: int = 3, max_deriv: int = 2,
                 max_terms: int = 2, max_factors: int = 4,
                 functions: tuple[str, ...] = ("f", "g")):
        self.rng = random.Random(seed)
        self.max_grade = max_grade
        self.max_deriv = max_deriv
        self.max_terms = max_terms
        self.max_factors = max_factors
        self.functions = functions

    # -- single integral bodies -------------------------------------------

    def _order(self, cap: int) -> tuple[int, ...]:
        """A derivative multi-index, one draw of 0..cap per axis."""
        return tuple(self.rng.randint(0, cap) for _ in range(SESSION.dimension))

    def _integral_term(self, n_fields: int, n_pi: int, deriv_cap: int | None = None) -> Term:
        rng = self.rng
        cap = self.max_deriv if deriv_cap is None else deriv_cap
        d0 = dummy(0)
        factors = []
        for k in range(n_fields):
            order = self._order(cap)
            factors.append(pi_(d0, order) if k < n_pi else phi(d0, order))
        funcs = []
        for name in self.functions:
            if rng.random() < 0.35:
                funcs.append(named(name, d0, self._order(1)))
        m_power = 2 if rng.random() < 0.15 else 0
        return make_term(rng.choice(_SCALARS), dummies=[d0], factors=factors,
                         functions=funcs, m=m_power)

    def _product_term(self, grade: int | None = None) -> Term:
        """Product of two single integrals, merged into one term."""
        rng = self.rng
        total = rng.randint(2, max(2, self.max_factors))
        na = rng.randint(1, total - 1)
        nb = total - na
        pis = grade if grade is not None else rng.randint(0, min(self.max_grade, total))
        pa = rng.randint(max(0, pis - nb), min(na, pis))
        ta = self._integral_term(na, pa)
        return concat(ta, self._integral_term(nb, pis - pa))

    # -- public corpus ------------------------------------------------------

    def symbol(self) -> Symbol:
        # canonicalization can fan one raw term into a large derivative
        # family; oversized draws are rejected so that downstream law
        # checks (nested brackets in particular) stay tractable
        for _ in range(50):
            terms = []
            for _ in range(self.rng.randint(1, self.max_terms)):
                if self.rng.random() < 0.25:
                    terms.append(self._product_term())
                else:
                    nf = self.rng.randint(1, self.max_factors)
                    np = self.rng.randint(0, min(self.max_grade, nf))
                    terms.append(self._integral_term(nf, np))
            s = canonicalize(Symbol(tuple(terms)))
            if not s.is_zero and len(s.terms) <= 2 * self.max_terms + 1:
                return s
        raise RuntimeError("random symbol generation kept collapsing to zero")

    def homogeneous(self, grade: int) -> Symbol:
        for _ in range(50):
            terms = []
            for _ in range(self.rng.randint(1, self.max_terms)):
                nf = self.rng.randint(max(1, grade), self.max_factors)
                terms.append(self._integral_term(nf, grade))
            s = canonicalize(Symbol(tuple(terms)))
            if not s.is_zero and all(t.pi_degree == grade for t in s.terms):
                return s
        raise RuntimeError("homogeneous generation kept collapsing to zero")

    def quadratic(self, deriv_cap: int = 1) -> Symbol:
        """Total field degree exactly 2 per term (the quadratic sector)."""
        for _ in range(50):
            terms = []
            for _ in range(self.rng.randint(1, self.max_terms)):
                npi = self.rng.randint(0, 2)
                terms.append(self._integral_term(2, npi, deriv_cap=deriv_cap))
            s = canonicalize(Symbol(tuple(terms)))
            if not s.is_zero:
                return s
        raise RuntimeError("quadratic generation kept collapsing to zero")

    def scalars(self, count: int = 2) -> list[Fraction]:
        return [self.rng.choice(_SCALARS) for _ in range(count)]
