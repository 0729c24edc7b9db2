"""Self-contained acceptance battery.

Nine numbered criteria, each an independent runner that exercises one
guarantee of the package: the bracket laws, the grading rule, the
symbolic-vs-lattice oracle agreement, the ordering residual identity,
divergence flagging, the classical limit of commutators, the free-field
flow, the quasiclassical residuals, and serialization round-trips.

``run_suite("quick")`` uses reduced sample counts and grid sizes so the
whole battery stays under a minute; ``run_suite("full")`` runs the
published parameters and tolerances.  Every criterion is timed, and the
ones with an explicit runtime budget fail if they exceed it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import HamalgError
from .terms import INT_DELTA_SQ, canonicalize, multiply, equals
from .parser import parse_symbol, format_expression, to_json_dict
from .poisson import bracket, check_algebra
from .quantum import quantize, op_multiply, ccr_reduce, commutator, \
    classical_limit, formal_scale, leibniz_residual
from .randsym import RandomSymbolGenerator
from .lattice import LatticeConfig, default_binding, verify_bracket, \
    kg_flow, kg_group_defect, kg_energy_drift, random_profile


@dataclass(frozen=True)
class SuiteProfile:
    name: str
    law_samples: int          # instances per algebraic law
    oracle_pairs: int         # symbol pairs checked against the lattice
    oracle_states: int        # random states per pair per grid
    quadratic_pairs: int      # pairs for the classical-limit check
    kg_sizes: tuple
    kg_times: tuple
    roundtrip_samples: int
    idempotence_samples: int
    quartic_fan: int          # fan size for the quartic wkb case


QUICK = SuiteProfile("quick", law_samples=25, oracle_pairs=6, oracle_states=2,
                     quadratic_pairs=8, kg_sizes=(64, 128), kg_times=(1.7, 5.0),
                     roundtrip_samples=120, idempotence_samples=60,
                     quartic_fan=211)

FULL = SuiteProfile("full", law_samples=100, oracle_pairs=20, oracle_states=3,
                    quadratic_pairs=20, kg_sizes=(64, 256), kg_times=(1.7, 10.0),
                    roundtrip_samples=500, idempotence_samples=200,
                    quartic_fan=411)

PROFILES = {"quick": QUICK, "full": FULL}

#: lattice sizes of criterion 3, ascending, in both profiles
ORACLE_SIZES = (128, 256, 512)

# per-criterion runtime budgets, seconds
TIME_LIMITS = {1: 60.0, 3: 120.0, 7: 30.0, 8: 60.0}


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    seconds: float
    details: dict = dc_field(default_factory=dict)
    failures: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        # timing is reported in text mode only: json output must be
        # byte-identical across runs with the same inputs and seed
        return {"number": self.number, "title": self.title,
                "passed": self.passed,
                "details": self.details, "failures": self.failures}

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} ({self.title}): {mark}  [{self.seconds:.2f}s]"


@dataclass
class SuiteReport:
    profile: str
    seed: int
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.results)

    def to_dict(self) -> dict:
        return {"profile": self.profile, "seed": self.seed,
                "passed": self.passed,
                "criteria": [r.to_dict() for r in self.results]}

    def format_text(self) -> str:
        lines = [r.line() for r in self.results]
        for r in self.results:
            for msg in r.failures[:5]:
                lines.append(f"    {r.number}: {msg}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"suite ({self.profile}): {verdict}  [{self.seconds:.2f}s]")
        return "\n".join(lines)


# -- criterion runners ------------------------------------------------------

LAW_NAMES = ("antisymmetry", "bilinearity", "leibniz", "jacobi", "closure")


def criterion_1(profile: SuiteProfile, seed: int) -> CriterionResult:
    """Bracket laws hold identically on seeded random instances."""
    report = check_algebra(seed=seed, samples=profile.law_samples,
                           max_grade=3, max_deriv=2, laws=LAW_NAMES)
    failures = []
    for law in report.laws:
        for item in law.failures:
            failures.append(f"{law.name}: {item}")
    details = {"laws": [law.to_dict() for law in report.laws]}
    return CriterionResult(1, "bracket laws", not failures, 0.0, details, failures)


def criterion_2(profile: SuiteProfile, seed: int) -> CriterionResult:
    """Brackets of grade-k and grade-l symbols land in grade k + l - 1."""
    report = check_algebra(seed=seed + 1, samples=profile.law_samples,
                           max_grade=3, max_deriv=2, laws=("grading",))
    law = report.laws[0]
    return CriterionResult(2, "grading", law.passed, 0.0,
                           {"law": law.to_dict()},
                           [f"grading: {item}" for item in law.failures])


def criterion_3(profile: SuiteProfile, seed: int) -> CriterionResult:
    """Symbolic brackets match the lattice bracket of the discretized operands.

    The lattice bracket pairs the exact gradients of the discretized
    functionals.  Pairs whose canonical forms are exactly representable
    on the grid sit at the noise floor and carry no order estimate; the
    rest must converge at second order and be accurate on the finest grid.
    """
    # first-derivative, three-factor corpus: the published grids resolve
    # these integrands within tolerance; higher orders and wider products
    # converge at the same rate with larger constants and are exercised
    # separately by the lattice tests
    gen = RandomSymbolGenerator(seed + 2, max_deriv=1, max_factors=3)
    bind = default_binding()
    configs = [LatticeConfig(n=n, length=8.0) for n in ORACLE_SIZES]
    failures, rows = [], []
    for k in range(profile.oracle_pairs):
        a, b = gen.symbol(), gen.symbol()
        rep = verify_bracket(a, b, configs, bind=bind,
                             n_states=profile.oracle_states, seed=seed + 10 + k)
        top = rep.rows[-1].max_rel_error
        rows.append({"a": rep.a, "b": rep.b, "order": rep.order,
                     "exact": rep.exact, "top_error": top})
        if top >= 1e-3:
            failures.append(f"pair {k}: error {top:.2e} at n={rep.rows[-1].n}"
                            f" for {{{rep.a}, {rep.b}}}")
        if rep.order is not None and not 1.7 <= rep.order <= 2.3:
            failures.append(f"pair {k}: convergence order {rep.order:.2f}"
                            f" for {{{rep.a}, {rep.b}}}")
    measured = [r["order"] for r in rows if r["order"] is not None]
    details = {"pairs": rows,
               "mean_order": float(np.mean(measured)) if measured else None,
               "exact_pairs": sum(1 for r in rows if r["exact"])}
    return CriterionResult(3, "lattice oracle", not failures, 0.0, details, failures)


def criterion_4(profile: SuiteProfile, seed: int) -> CriterionResult:
    """The ordering residual is delta0(0) delta'(x) - 2 delta0(1) delta(x)."""
    rep = leibniz_residual()
    want = parse_symbol("delta0(0)*delta(x;1) - 2*delta0(1)*delta(x)")
    failures = []
    if not equals(rep.combination, want):
        failures.append("combination is "
                        + format_expression(rep.combination))
    if not rep.routes_agree:
        failures.append("independent reduction route disagrees")
    details = {"combination": format_expression(rep.combination),
               "routes_agree": rep.routes_agree}
    return CriterionResult(4, "ordering residual", not failures, 0.0,
                           details, failures)


OSCILLATOR_HAMILTONIAN = "int[x]( (1/2)*pi(x)^2 + (1/2)*phi(x)^2 )"


def criterion_5(profile: SuiteProfile, seed: int) -> CriterionResult:
    """Squaring the quantized oscillator Hamiltonian flags int(delta^2)."""
    h = parse_symbol(OSCILLATOR_HAMILTONIAN)
    op = quantize(h, scheme="normal")
    reduced = ccr_reduce(op_multiply(op, op))
    flagged = [t for t in reduced.terms if t.coeff.divergent]
    classical = multiply(h, h)
    leaked = [t for t in classical.terms if t.coeff.divergent]
    failures = []
    if not flagged:
        failures.append("no divergent constant in the reduced square")
    if not any(d.kind == INT_DELTA_SQ for t in flagged for d in t.coeff.divergent):
        failures.append("divergent square of delta not present")
    if leaked:
        failures.append("classical square carries a divergent constant")
    details = {"flagged_terms": len(flagged),
               "classical_terms": len(classical.terms)}
    return CriterionResult(5, "divergence flagging", not failures, 0.0,
                           details, failures)


def criterion_6(profile: SuiteProfile, seed: int) -> CriterionResult:
    """classical_limit(commutator / (-i h)) equals the bracket exactly."""
    gen = RandomSymbolGenerator(seed + 3)
    failures = []
    checked = 0
    for k in range(profile.quadratic_pairs):
        a, b = gen.quadratic(), gen.quadratic()
        want = bracket(a, b)
        for scheme in ("weyl", "normal"):
            comm = commutator(quantize(a, scheme), quantize(b, scheme))
            got = classical_limit(formal_scale(comm, scalar=-1, h=-1, i=-1))
            checked += 1
            if not equals(got, want):
                failures.append(
                    f"pair {k} [{scheme}]: limit {format_expression(got)}"
                    f" != bracket {format_expression(want)}")
    details = {"pairs": profile.quadratic_pairs, "checked": checked}
    return CriterionResult(6, "classical limit", not failures, 0.0,
                           details, failures)


def criterion_7(profile: SuiteProfile, seed: int) -> CriterionResult:
    """The free flow is symplectic and conserves the lattice energy."""
    rng = np.random.default_rng(seed + 4)
    failures, worst_defect, worst_drift = [], 0.0, 0.0
    for n in profile.kg_sizes:
        cfg = LatticeConfig(n=n, length=8.0)
        for m in (0.0, 1.0, 2.5):
            for t in profile.kg_times:
                defect = kg_flow(cfg, m, t).defect
                worst_defect = max(worst_defect, defect)
                if defect >= 1e-10:
                    failures.append(f"symplectic defect {defect:.2e}"
                                    f" at n={n} m={m} t={t}")
            state = random_profile(rng).realize(cfg)
            drift = kg_energy_drift(cfg, m, profile.kg_times[-1], 20, state)
            worst_drift = max(worst_drift, drift)
            if drift >= 1e-9:
                failures.append(f"energy drift {drift:.2e} at n={n} m={m}")
    group = kg_group_defect(LatticeConfig(n=profile.kg_sizes[0], length=8.0),
                            1.0, 1.1, 0.7)
    if group >= 1e-9:
        failures.append(f"composition defect {group:.2e}")
    details = {"worst_defect": worst_defect, "worst_drift": worst_drift,
               "group_defect": group}
    return CriterionResult(7, "free-field flow", not failures, 0.0,
                           details, failures)


def criterion_8(profile: SuiteProfile, seed: int) -> CriterionResult:
    """Transport residuals vanish on closed forms; wkb defect is O(h^2)."""
    from .quasiclassics import (quartic_case, standard_case,
                                transport_residual, wkb_residual)
    failures, details = [], {}
    for name in ("oscillator", "free"):
        case = standard_case(name)
        rep = transport_residual(case["ham"], case["s"], case["a"],
                                 case["t_grid"], case["q_grid"])
        details[f"transport_{name}"] = rep.to_dict()
        if rep.residual_max >= 1e-6:
            failures.append(f"{name} transport residual {rep.residual_max:.2e}")
    case = quartic_case(n_fan=profile.quartic_fan)
    wkb = wkb_residual(case["ham"], case["s"], case["a"],
                       (0.1, 0.05, 0.025), case["t_grid"], case["q_grid"])
    details["wkb_quartic"] = wkb.to_dict()
    if wkb.exponent is None or wkb.exponent < 1.9:
        failures.append(f"wkb defect exponent {wkb.exponent}")
    return CriterionResult(8, "quasiclassical residuals", not failures, 0.0,
                           details, failures)


def _det_payload(seed: int, count: int = 12) -> bytes:
    """Deterministic serialization probe: same seed must give same bytes."""
    gen = RandomSymbolGenerator(seed)
    syms = [canonicalize(gen.symbol()) for _ in range(count)]
    doc = {"formatted": [format_expression(s) for s in syms],
           "json": [to_json_dict(s) for s in syms]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def criterion_9(profile: SuiteProfile, seed: int) -> CriterionResult:
    """Text and JSON round-trips are lossless and byte-deterministic."""
    gen = RandomSymbolGenerator(seed + 5)
    failures = []
    for k in range(profile.roundtrip_samples):
        s = canonicalize(gen.symbol())
        back = parse_symbol(format_expression(s))
        if not equals(back, s):
            failures.append(f"round-trip {k}: {format_expression(s)}")
            break
    for k in range(profile.idempotence_samples):
        s = canonicalize(gen.symbol())
        if canonicalize(s) != s:
            failures.append(f"idempotence {k}: {format_expression(s)}")
            break
    if _det_payload(seed + 6) != _det_payload(seed + 6):
        failures.append("serialization is not deterministic for a fixed seed")
    details = {"roundtrips": profile.roundtrip_samples,
               "idempotence": profile.idempotence_samples}
    return CriterionResult(9, "serialization", not failures, 0.0,
                           details, failures)


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9)


def run_criterion(number: int, profile: SuiteProfile | str = "quick",
                  seed: int = 42) -> CriterionResult:
    if isinstance(profile, str):
        profile = PROFILES[profile]
    if not 1 <= number <= len(CRITERIA):
        raise HamalgError(f"no criterion {number}")
    fn = CRITERIA[number - 1]
    start = time.perf_counter()
    try:
        result = fn(profile, seed)
    except HamalgError as exc:
        result = CriterionResult(number, fn.__doc__.splitlines()[0], False,
                                 0.0, {}, [f"{type(exc).__name__}: {exc}"])
    result.seconds = time.perf_counter() - start
    limit = TIME_LIMITS.get(number)
    if limit is not None and result.seconds > limit:
        result.passed = False
        result.failures.append(
            f"runtime {result.seconds:.1f}s exceeds the {limit:.0f}s budget")
    return result


def run_suite(profile: str = "quick", seed: int = 42) -> SuiteReport:
    if profile not in PROFILES:
        raise HamalgError(f"unknown profile '{profile}'; pick quick or full")
    prof = PROFILES[profile]
    results = [run_criterion(k, prof, seed) for k in range(1, len(CRITERIA) + 1)]
    return SuiteReport(profile=profile, seed=seed, results=results)
