"""Poisson algebra of polynomial field-theory Hamiltonians.

Symbolic calculus for functionals of a scalar field and its momentum
(variational derivatives, Poisson brackets, grading), canonical-quantization
bookkeeping with formal divergent constants, and numeric cross-checks on a
periodic lattice plus finite-dimensional quasiclassical expansions.
"""

import importlib.util
import sys

from .errors import (
    CausticError,
    CoincidentDeltaError,
    DeclarationError,
    DivergentLeadingTermError,
    HamalgError,
    LatticeError,
    MaxDerivativeError,
    NotASymbolError,
    ParseError,
    PreconditionError,
    UnsupportedDivergenceError,
)
from .session import SESSION, Session
from .terms import (
    Coefficient,
    DeltaFactor,
    DivergentConstant,
    FieldFactor,
    NamedFunction,
    Symbol,
    Term,
    ZERO,
    bind_free,
    canonicalize,
    delta,
    dummy,
    equals,
    free_var,
    make_term,
    multiply,
    named,
    phi,
    pi_,
    symbol,
)
from .parser import (
    format_expression,
    from_json,
    parse_operator,
    parse_symbol,
    to_json,
)
from .variational import second_vderiv, vderiv
from .poisson import (
    AlgebraReport,
    bracket,
    check_algebra,
    grade,
    grade_decompose,
)
from .quantum import (
    CorrespondenceReport,
    LeibnizResidualReport,
    OperatorExpression,
    ccr_reduce,
    classical_limit,
    commutator,
    correspondence_check,
    delta_square_defect,
    forget_order,
    formal_scale,
    leibniz_residual,
    op_equals,
    op_multiply,
    quantize,
)
from .randsym import RandomSymbolGenerator
from .lattice import (
    BracketVerification,
    CatalogFunction,
    KgFlowReport,
    LatticeConfig,
    LatticeState,
    NumericBinding,
    default_binding,
    discretize,
    gaussian,
    kg_energy,
    kg_energy_drift,
    kg_flow,
    kg_propagate,
    numeric_bracket,
    poly_gaussian,
    random_profile,
    verify_bracket,
)
from .suite import SuiteReport, run_suite

__version__ = "0.1.0"

# quasiclassics pulls in sympy and scipy, most of the import time.  It is
# registered as hamalg.quasiclassics (in sys.modules too) but executes on
# first attribute access, through the module or through the names below.
_spec = importlib.util.find_spec(".quasiclassics", __name__)
_spec.loader = importlib.util.LazyLoader(_spec.loader)
quasiclassics = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(quasiclassics)
del _spec

_QUASICLASSICS = ("Characteristics", "FiniteDimHamiltonian",
                  "integrate_characteristics", "monodromy", "standard_case",
                  "transport_amplitude", "transport_residual", "wkb_residual")


def __getattr__(name):
    if name in _QUASICLASSICS:
        return getattr(quasiclassics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
