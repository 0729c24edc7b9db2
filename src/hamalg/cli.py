"""Command-line front end: one subcommand per library operation.

Exit codes: 0 on success (all checked properties hold), 1 when a
computed property fails (unequal expressions, law violations, tolerance
breaches, caustics), 2 on usage errors (bad arguments, parse errors
with source location, unsatisfiable preconditions).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import (CausticError, DeclarationError, HamalgError, LatticeError,
                     ParseError, PreconditionError)
from .lattice import (LatticeConfig, default_binding, kg_energy_drift, kg_flow,
                      random_profile, verify_bracket)
from .parser import format_expression, parse_operator, parse_symbol, to_json_dict
from .poisson import bracket, check_algebra, grade, grade_decompose
from .quantum import (ccr_reduce, commutator, correspondence_check,
                      leibniz_residual, quantize)
from .session import SESSION
from .suite import PROFILES, run_suite
from .terms import equals, free_var, multiply
from .variational import vderiv

# ValueError: an argument the library refuses, e.g. a point in the expression
USAGE_ERRORS = (ParseError, DeclarationError, PreconditionError, LatticeError,
                ValueError)


def _print_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _emit(args, payload, lines) -> None:
    if args.json:
        _print_json(payload)
    else:
        for line in lines:
            print(line)


# ------------------------------------------------------------- symbolic core


def _cmd_vderiv(args) -> int:
    out = vderiv(parse_symbol(args.expression), args.field, free_var(args.at))
    _emit(args, {"field": args.field, "at": args.at, "result": to_json_dict(out)},
          [format_expression(out)])
    return 0


def _cmd_bracket(args) -> int:
    out = bracket(parse_symbol(args.first), parse_symbol(args.second))
    _emit(args, {"result": to_json_dict(out)}, [format_expression(out)])
    return 0


def _cmd_multiply(args) -> int:
    out = multiply(parse_symbol(args.first), parse_symbol(args.second))
    _emit(args, {"result": to_json_dict(out)}, [format_expression(out)])
    return 0


def _cmd_grade(args) -> int:
    s = parse_symbol(args.expression)
    g = grade(s)
    if g is not None:
        _emit(args, {"grade": g, "homogeneous": True}, [f"grade {g}"])
        return 0
    parts = {str(k): format_expression(v) for k, v in grade_decompose(s).items()}
    lines = ["mixed:"] + [f"  grade {k}: {v}" for k, v in parts.items()]
    _emit(args, {"grade": None, "homogeneous": False, "components": parts}, lines)
    return 0


def _cmd_equals(args) -> int:
    same = equals(parse_symbol(args.first), parse_symbol(args.second))
    _emit(args, {"equal": same}, ["equal" if same else "different"])
    return 0 if same else 1


def _cmd_check_algebra(args) -> int:
    rep = check_algebra(seed=args.seed, samples=args.samples,
                        max_grade=args.max_grade, max_deriv=args.max_deriv)
    lines = []
    for law in rep.laws:
        lines.append(f"{law.name:<12} {law.samples:>4} samples  "
                     f"{'pass' if law.passed else 'FAIL'}")
        for item in law.failures[:3]:
            lines.append(f"    {item}")
    lines.append(f"algebra: {'PASS' if rep.passed else 'FAIL'}")
    _emit(args, rep.to_dict(), lines)
    return 0 if rep.passed else 1


# ------------------------------------------------------------------ quantum


def _cmd_quantize(args) -> int:
    out = quantize(parse_symbol(args.expression), scheme=args.scheme)
    _emit(args, {"scheme": args.scheme, "result": to_json_dict(out)},
          [format_expression(out)])
    return 0


def _cmd_commutator(args) -> int:
    out = commutator(parse_operator(args.first), parse_operator(args.second),
                     grouping=args.grouping)
    if not args.no_reduce:
        out = ccr_reduce(out)
    _emit(args, {"reduced": not args.no_reduce, "result": to_json_dict(out)},
          [format_expression(out)])
    return 0


def _cmd_correspondence(args) -> int:
    rep = correspondence_check(parse_symbol(args.first), parse_symbol(args.second),
                               scheme=args.scheme)
    lines = [f"scheme {rep.scheme}: {'PASS' if rep.passed else 'FAIL'}",
             f"  central part: {format_expression(rep.central)}"]
    if not rep.passed:
        lines.append(f"  non-central defect: {format_expression(rep.non_central)}")
    _emit(args, rep.to_dict(), lines)
    return 0 if rep.passed else 1


def _present_combination(comb) -> str:
    # ordered for reading: highest delta derivative first
    def depth(t):
        return max((sum(d.deriv) for d in t.deltas), default=0)

    parts = []
    for t in sorted(comb.terms, key=depth, reverse=True):
        text = format_expression(type(comb)((t,)))
        if not parts:
            parts.append(text)
        elif text.startswith("-"):
            parts.append(f"- {text[1:]}")
        else:
            parts.append(f"+ {text}")
    return " ".join(parts) if parts else "0"


def _cmd_residual_identity(args) -> int:
    rep = leibniz_residual(args.f, args.g)
    ok = rep.routes_agree and rep.classical_zero
    payload = rep.to_dict()
    payload["passed"] = ok
    lines = [
        f"pairing against {args.f}(x) {args.g}(y) left implicit",
        f"residual = (i*h)^2 * ( {_present_combination(rep.combination)} )",
        f"delta(x)^2 differentiation route: "
        f"{_present_combination(rep.differentiation_check)}",
        f"routes agree: {'yes' if rep.routes_agree else 'NO'}",
        f"classical residual zero: {'yes' if rep.classical_zero else 'NO'}",
    ]
    _emit(args, payload, lines)
    return 0 if ok else 1


# ------------------------------------------------------------------ numerics


def _cmd_lattice_verify(args) -> int:
    sizes = args.n or [128, 256, 512]
    configs = [LatticeConfig(n=n, length=args.length) for n in sizes]
    rep = verify_bracket(parse_symbol(args.first), parse_symbol(args.second),
                         configs, bind=default_binding(),
                         n_states=args.states, seed=args.seed)
    if args.csv and not args.json:
        sys.stdout.write(rep.to_csv())
    top = rep.rows[-1].max_rel_error
    ok = rep.exact or top < args.tolerance
    payload = rep.to_dict()
    payload["passed"] = ok
    lines = []
    if not args.csv:
        for r in rep.rows:
            lines.append(f"N={r.n:<5} delta={r.delta:.5f}  max rel err {r.max_rel_error:.3e}")
        if rep.exact:
            lines.append("exact to the noise floor on every grid")
        else:
            lines.append(f"observed order {rep.order:.3f}" if rep.order is not None
                         else "order not estimable")
        lines.append(f"finest-grid error {top:.3e} vs tolerance {args.tolerance:.1e}: "
                     f"{'PASS' if ok else 'FAIL'}")
    _emit(args, payload, lines)
    return 0 if ok else 1


def _cmd_kg_flow(args) -> int:
    cfg = LatticeConfig(n=args.n, length=args.length)
    rep = kg_flow(cfg, args.m, args.t)
    state = random_profile(np.random.default_rng(args.seed)).realize(cfg)
    drift = kg_energy_drift(cfg, args.m, args.t, args.steps, state)
    ok = rep.defect < args.tolerance and drift < 1e-9
    payload = rep.to_dict()
    payload.update({"energy_drift": drift, "passed": ok})
    lines = [f"N={rep.n} L={rep.length} m={rep.m} t={rep.t}",
             f"symplectic defect {rep.defect:.3e} (tolerance {args.tolerance:.1e})",
             f"relative energy drift {drift:.3e} over {args.steps} steps",
             "PASS" if ok else "FAIL"]
    _emit(args, payload, lines)
    return 0 if ok else 1


# ------------------------------------------------------------- quasiclassics


def _cmd_qc_characteristics(args) -> int:
    from .quasiclassics import integrate_characteristics, standard_case
    case = standard_case(args.case)
    fan = np.linspace(-args.fan_half_width, args.fan_half_width, args.fan_points)
    chars = integrate_characteristics(case["ham"], case["s0"], fan,
                                      args.t_final, dt=args.dt)
    det = np.linalg.det(chars.jac_q[-1])
    payload = {
        "case": args.case,
        "t_final": args.t_final,
        "batch": chars.batch,
        "steps": int(chars.ts.shape[0] - 1),
        "jacobian_det_min": float(det.min()),
        "jacobian_det_max": float(det.max()),
        "energy_drift": chars.energy_drift,
        "action_final_range": [float(chars.action[-1].min()),
                               float(chars.action[-1].max())],
    }
    lines = [f"case {args.case}: {chars.batch} characteristics, "
             f"{payload['steps']} steps to t={args.t_final}",
             f"det dq/dq0 in [{payload['jacobian_det_min']:.6f}, "
             f"{payload['jacobian_det_max']:.6f}]",
             f"energy drift {chars.energy_drift:.3e}"]
    _emit(args, payload, lines)
    return 0


def _cmd_qc_transport(args) -> int:
    from .quasiclassics import standard_case, transport_residual
    case = standard_case(args.case)
    rep = transport_residual(case["ham"], case["s"], case["a"],
                             case["t_grid"], case["q_grid"])
    ok = rep.residual_max < args.tolerance
    payload = rep.to_dict()
    payload.update({"case": args.case, "passed": ok})
    lines = [f"case {args.case}",
             f"eikonal defect {rep.hj_max:.3e}",
             f"transport residual {rep.residual_max:.3e} "
             f"(tolerance {args.tolerance:.1e}): {'PASS' if ok else 'FAIL'}"]
    _emit(args, payload, lines)
    return 0 if ok else 1


def _cmd_qc_wkb(args) -> int:
    from .quasiclassics import standard_case, wkb_residual
    case = standard_case(args.case)
    hs = tuple(args.h or (0.1, 0.05, 0.025))
    rep = wkb_residual(case["ham"], case["s"], case["a"], hs,
                       case["t_grid"], case["q_grid"])
    # closed-form cases sit at roundoff for every h; the exponent only
    # means something once the residual is genuinely h-limited
    flat = max(rep.residuals) < 1e-7
    ok = flat or (rep.exponent is not None and rep.exponent >= args.min_exponent)
    payload = rep.to_dict()
    payload.update({"case": args.case, "passed": ok})
    lines = [f"case {args.case}"]
    for h, r in zip(rep.h_values, rep.residuals):
        lines.append(f"  h={h:<7} residual {r:.3e}")
    if flat:
        lines.append("residuals at roundoff; ansatz satisfies the equation exactly")
    else:
        lines.append(f"observed exponent {rep.exponent:.3f} "
                     f"(threshold {args.min_exponent})")
    lines.append("PASS" if ok else "FAIL")
    _emit(args, payload, lines)
    return 0 if ok else 1


# --------------------------------------------------------------------- suite


def _cmd_suite(args) -> int:
    rep = run_suite(profile=args.profile, seed=args.seed)
    _emit(args, rep.to_dict(), [rep.format_text()])
    return 0 if rep.passed else 1


# --------------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true",
                        help="emit one line of canonical JSON instead of text")

    p = argparse.ArgumentParser(
        prog="hamalg",
        description="Poisson algebra of polynomial field Hamiltonians: "
                    "symbolic bracket, quantization, lattice and "
                    "quasiclassical checks.")
    sub = p.add_subparsers(dest="cmd", metavar="command")

    q = sub.add_parser("vderiv", parents=[shared],
                       help="variational derivative of a functional")
    q.add_argument("expression")
    q.add_argument("--field", choices=("phi", "pi"), required=True)
    q.add_argument("--at", default="y", help="name of the free evaluation point")
    q.set_defaults(func=_cmd_vderiv)

    q = sub.add_parser("bracket", parents=[shared],
                       help="Poisson bracket of two functionals")
    q.add_argument("first")
    q.add_argument("second")
    q.set_defaults(func=_cmd_bracket)

    q = sub.add_parser("multiply", parents=[shared],
                       help="product of two expressions, canonicalized")
    q.add_argument("first")
    q.add_argument("second")
    q.set_defaults(func=_cmd_multiply)

    q = sub.add_parser("grade", parents=[shared],
                       help="momentum degree, or the homogeneous components")
    q.add_argument("expression")
    q.set_defaults(func=_cmd_grade)

    q = sub.add_parser("equals", parents=[shared],
                       help="canonical equality; exit 1 when different")
    q.add_argument("first")
    q.add_argument("second")
    q.set_defaults(func=_cmd_equals)

    q = sub.add_parser("check", parents=[shared],
                       help="randomized property checks")
    qsub = q.add_subparsers(dest="what", metavar="what")
    qa = qsub.add_parser("algebra", parents=[shared],
                         help="bracket laws on seeded random symbols")
    qa.add_argument("--seed", type=int, default=0)
    qa.add_argument("--samples", type=int, default=100)
    qa.add_argument("--max-grade", type=int, default=3)
    qa.add_argument("--max-deriv", type=int, default=2)
    qa.set_defaults(func=_cmd_check_algebra)

    q = sub.add_parser("quantize", parents=[shared],
                       help="ordered operator expression for a classical symbol")
    q.add_argument("expression")
    q.add_argument("--scheme", choices=("normal", "weyl"), default="normal")
    q.set_defaults(func=_cmd_quantize)

    q = sub.add_parser("commutator", parents=[shared],
                       help="commutator of two operator expressions")
    q.add_argument("first")
    q.add_argument("second")
    q.add_argument("--grouping", choices=("left", "right"), default="left")
    q.add_argument("--no-reduce", action="store_true",
                   help="keep the raw bilinear expansion (skip normal ordering)")
    q.set_defaults(func=_cmd_commutator)

    q = sub.add_parser("correspondence", parents=[shared],
                       help="[Q(a),Q(b)] vs -i*h*Q({a,b}) up to central terms")
    q.add_argument("first")
    q.add_argument("second")
    q.add_argument("--scheme", choices=("normal", "weyl"), default="weyl")
    q.set_defaults(func=_cmd_correspondence)

    q = sub.add_parser("residual-identity", parents=[shared],
                       help="two-route ordering residual and the delta-square check")
    q.add_argument("--f", default="f", help="first paired function name")
    q.add_argument("--g", default="g", help="second paired function name")
    q.set_defaults(func=_cmd_residual_identity)

    q = sub.add_parser("lattice", parents=[shared], help="grid numerics")
    qsub = q.add_subparsers(dest="what", metavar="what")
    qv = qsub.add_parser("verify", parents=[shared],
                         help="lattice oracle for the bracket")
    qv.add_argument("first")
    qv.add_argument("second")
    qv.add_argument("--n", type=int, action="append",
                    help="grid size, repeatable (default 128 256 512)")
    qv.add_argument("--l", dest="length", type=float, default=8.0)
    qv.add_argument("--states", type=int, default=3)
    qv.add_argument("--seed", type=int, default=0)
    qv.add_argument("--tolerance", type=float, default=1e-3)
    qv.add_argument("--csv", action="store_true",
                    help="emit the convergence table as CSV")
    qv.set_defaults(func=_cmd_lattice_verify)

    q = sub.add_parser("kg-flow", parents=[shared],
                       help="symplectic defect and energy drift of the free flow")
    q.add_argument("--n", type=int, default=256)
    q.add_argument("--l", dest="length", type=float, default=8.0)
    q.add_argument("--m", type=float, default=1.0)
    q.add_argument("--t", type=float, default=1.0)
    q.add_argument("--steps", type=int, default=10)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--tolerance", type=float, default=1e-10)
    q.set_defaults(func=_cmd_kg_flow)

    q = sub.add_parser("quasiclassics", parents=[shared],
                       help="characteristics, transport, and wkb defects")
    qsub = q.add_subparsers(dest="what", metavar="what")
    qc = qsub.add_parser("characteristics", parents=[shared])
    qc.add_argument("--case", choices=("oscillator", "free", "quartic"),
                    default="oscillator")
    qc.add_argument("--t-final", type=float, default=0.2)
    qc.add_argument("--dt", type=float, default=1e-3)
    qc.add_argument("--fan-points", type=int, default=201)
    qc.add_argument("--fan-half-width", type=float, default=2.05)
    qc.set_defaults(func=_cmd_qc_characteristics)
    qt = qsub.add_parser("transport", parents=[shared])
    qt.add_argument("--case", choices=("oscillator", "free", "quartic"),
                    default="oscillator")
    qt.add_argument("--tolerance", type=float, default=1e-6)
    qt.set_defaults(func=_cmd_qc_transport)
    qw = qsub.add_parser("wkb", parents=[shared])
    qw.add_argument("--case", choices=("oscillator", "free", "quartic"),
                    default="quartic")
    qw.add_argument("--h", type=float, action="append",
                    help="Planck-like parameter, repeatable (default 0.1 0.05 0.025)")
    qw.add_argument("--min-exponent", type=float, default=1.9)
    qw.set_defaults(func=_cmd_qc_wkb)

    q = sub.add_parser("suite", parents=[shared],
                       help="acceptance criteria, one result per criterion")
    q.add_argument("profile", choices=sorted(PROFILES))
    q.add_argument("--seed", type=int, default=42)
    q.set_defaults(func=_cmd_suite)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        SESSION.dimension  # reads and checks HAMALG_DIM, a usage error
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CausticError as exc:
        print(f"caustic at t = {exc.t:.6f}: {exc}", file=sys.stderr)
        return 1
    except HamalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
