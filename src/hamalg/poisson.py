"""Poisson bracket, grading, and the randomized algebra-law suite.

The bracket of two functionals is

    {A, B} = int ( dA/dpi(y) * dB/dphi(y) - dA/dphi(y) * dB/dpi(y) ) dy

computed with variational derivatives at a shared test point that is bound
back into an integration dummy.  Grading counts momentum factors per term;
the bracket of homogeneous symbols of grades k and l is homogeneous of grade
k + l - 1 (or zero).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

from .errors import NotASymbolError
from .parser import format_expression
from .randsym import RandomSymbolGenerator
from .session import SESSION
from .terms import (
    PHI,
    PI,
    Symbol,
    bind_free,
    canonicalize,
    equals,
    multiply,
)
from .variational import _delta_terms_at, _test_point, check_symbol, vderiv


def bracket(a: Symbol, b: Symbol) -> Symbol:
    """Poisson bracket {a, b}; operands must be symbols (functionals): an
    operand whose variational derivative keeps a delta at the test point
    raises NotASymbolError."""
    ca, cb = canonicalize(a), canonicalize(b)
    y = _test_point(ca, cb)
    a_phi, a_pi = vderiv(ca, PHI, y), vderiv(ca, PI, y)
    b_phi, b_pi = vderiv(cb, PHI, y), vderiv(cb, PI, y)
    for name, parts in (("first operand", (a_phi, a_pi)),
                        ("second operand", (b_phi, b_pi))):
        if any(_delta_terms_at(part, y) for part in parts):
            raise NotASymbolError(f"{name} is not a functional of the fields")
    integrand = multiply(a_pi, b_phi) - multiply(a_phi, b_pi)
    return canonicalize(bind_free(integrand, y))


# -- grading --------------------------------------------------------------------

def grade_decompose(s: Symbol) -> dict[int, Symbol]:
    """Split a canonical symbol into homogeneous components by pi-degree."""
    parts: dict[int, list] = {}
    for t in canonicalize(s).terms:
        parts.setdefault(t.pi_degree, []).append(t)
    return {k: Symbol(tuple(v)) for k, v in sorted(parts.items())}


def grade(s: Symbol) -> int | None:
    """Grade of a homogeneous symbol, None if mixed; zero symbol has grade 0."""
    parts = grade_decompose(s)
    if not parts:
        return 0
    if len(parts) == 1:
        return next(iter(parts))
    return None


# -- randomized law suite ----------------------------------------------------------

@dataclass
class LawResult:
    name: str
    samples: int
    failures: list = dc_field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        # seconds stay out: json reports must be byte-stable per seed
        return {"name": self.name, "samples": self.samples,
                "passed": self.passed, "failures": self.failures}


@dataclass
class AlgebraReport:
    seed: int
    laws: list[LawResult]

    @property
    def passed(self) -> bool:
        return all(law.passed for law in self.laws)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "passed": self.passed,
                "laws": [law.to_dict() for law in self.laws]}


_LAW_NAMES = ("antisymmetry", "bilinearity", "leibniz", "jacobi",
              "closure", "grading")


def check_algebra(seed: int = 0, samples: int = 100, max_grade: int = 3,
                  max_deriv: int = 2, laws=_LAW_NAMES) -> AlgebraReport:
    """Property-check the bracket laws on seeded random symbols.

    Every law demands an identically-zero canonical residual (or an exact
    structural property); any failure is reported with the counterexample.
    """
    report = AlgebraReport(seed, [])
    # nested brackets (jacobi, leibniz) legitimately pile up derivative
    # orders well past the bound meant to catch runaway rewrites
    saved = SESSION.max_derivative_order
    SESSION.max_derivative_order = max(saved, 4 * (max_deriv + 2))
    try:
        for law in laws:
            # single-term draws: every law is multilinear, so multi-term
            # inputs follow from these plus bilinearity; nested brackets
            # stay small enough for exact checking at volume
            gen = RandomSymbolGenerator(seed, max_grade=max_grade,
                                        max_deriv=max_deriv, max_terms=1,
                                        max_factors=3)
            result = LawResult(law, samples)
            t0 = time.perf_counter()
            for k in range(samples):
                fail = _check_one(law, gen)
                if fail is not None:
                    result.failures.append({"sample": k, **fail})
            result.seconds = time.perf_counter() - t0
            report.laws.append(result)
    finally:
        SESSION.max_derivative_order = saved
    return report


def _fmt(*symbols):
    return [format_expression(s) for s in symbols]


def _check_one(law: str, gen: RandomSymbolGenerator):
    if law == "antisymmetry":
        a, b = gen.symbol(), gen.symbol()
        r = bracket(a, b) + bracket(b, a)
        if not canonicalize(r).is_zero or not bracket(a, a).is_zero:
            return {"law": law, "inputs": _fmt(a, b)}
    elif law == "bilinearity":
        a, b, c = gen.symbol(), gen.symbol(), gen.symbol()
        al, be = gen.scalars(2)
        lhs = bracket(a.scale(al) + b.scale(be), c)
        rhs = bracket(a, c).scale(al) + bracket(b, c).scale(be)
        if not equals(lhs, rhs):
            return {"law": law, "inputs": _fmt(a, b, c), "scalars": [str(al), str(be)]}
    elif law == "leibniz":
        a, b, c = gen.symbol(), gen.symbol(), gen.symbol()
        lhs = bracket(a, multiply(b, c))
        rhs = multiply(bracket(a, b), c) + multiply(b, bracket(a, c))
        if not equals(lhs, rhs):
            return {"law": law, "inputs": _fmt(a, b, c)}
    elif law == "jacobi":
        a, b, c = gen.symbol(), gen.symbol(), gen.symbol()
        r = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
             + bracket(c, bracket(a, b)))
        if not canonicalize(r).is_zero:
            return {"law": law, "inputs": _fmt(a, b, c)}
    elif law == "closure":
        a, b = gen.symbol(), gen.symbol()
        chk = check_symbol(bracket(a, b))
        if not chk.is_symbol:
            return {"law": law, "inputs": _fmt(a, b)}
    elif law == "grading":
        k = gen.rng.randint(0, gen.max_grade)
        l = gen.rng.randint(0, gen.max_grade)
        a, b = gen.homogeneous(k), gen.homogeneous(l)
        r = bracket(a, b)
        if not (r.is_zero or grade(r) == k + l - 1):
            return {"law": law, "grades": [k, l], "inputs": _fmt(a, b, r)}
    else:
        raise ValueError(f"unknown law {law!r}")
    return None
