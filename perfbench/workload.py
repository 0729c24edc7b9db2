"""One workload of the hamalg benchmark, run in a fresh process.

    python3 perfbench/workload.py --workload laws --seed 1 --seconds 22 \
        --mode measure

`run.py` starts this file with PYTHONPATH pointing at the in-tree `src`;
it prints one JSON line with the raw figures (per-op latencies, failures,
peak RSS, counters), which `run.py` turns into metrics.

Modes:
  setup    import hamalg, build the inputs, report the time and exit;
  measure  then run whole passes over the inputs until `--seconds` of op
           time and at least MIN_OPS ops have been measured;
  trace    a warm-up pass, a pass without spans, then one with spans;
  digest   one pass, print each op's result digest (for digests.json).

An op is one checked request: the timed part computes the result through
hamalg; the check afterwards (outside the clock) verifies it by a route that
does not go through the code being measured, and compares the sha256 of the
canonical JSON of its symbolic results with the table in digests.json.

Op times are reported in reference seconds: see calibrate.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

t_import = time.perf_counter()
import hamalg as H  # noqa: E402
IMPORT_S = time.perf_counter() - t_import

import numpy as np  # noqa: E402

from calibrate import calibrate, to_reference  # noqa: E402

HERE = Path(__file__).resolve().parent
MIN_OPS = 100
SCALES = [Fraction(n, d) for n, d in
          ((1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2), (3, 2), (-2, 3))]


class Op(NamedTuple):
    kind: str
    run: Callable        # timed; returns the op's result
    check: Callable      # result -> (ok, symbolic outputs for the digest)
    small: bool = False  # part of the reduced deck the self-test runs


# -- laws ------------------------------------------------------------------

# the acceptance suite's default seed: the symbolic corpora are drawn from it
SUITE_SEED = 42

# criterion 1's corpus: the draws check_algebra makes at the suite's seed.
# Their shapes fix each op's cost; the run seed rescales every operand by a
# nonzero rational, which changes every result but not the work (each law
# is multilinear), so runs on different seeds measure the same work.
LAWS_PER_LAW = 15


def _law_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for law in ("antisymmetry", "bilinearity", "leibniz", "jacobi",
                "closure", "grading"):
        gen = H.RandomSymbolGenerator(SUITE_SEED, max_grade=3,
                                      max_deriv=2, max_terms=1, max_factors=3)

        def draw(n):
            return [gen.symbol().scale(rng.choice(SCALES)) for _ in range(n)]

        for k in range(LAWS_PER_LAW):
            small = k < 2
            if law == "antisymmetry":
                ops.append(_antisymmetry(*draw(2), small))
            elif law == "bilinearity":
                a, b, c = draw(3)
                ops.append(_bilinearity(a, b, c, *gen.scalars(2), small))
            elif law == "leibniz":
                ops.append(_leibniz(*draw(3), small))
            elif law == "jacobi":
                ops.append(_jacobi(*draw(3), small))
            elif law == "closure":
                ops.append(_closure(*draw(2), small))
            else:
                k_ = gen.rng.randint(0, gen.max_grade)
                l_ = gen.rng.randint(0, gen.max_grade)
                a = gen.homogeneous(k_).scale(rng.choice(SCALES))
                b = gen.homogeneous(l_).scale(rng.choice(SCALES))
                ops.append(_grading(a, b, k_ + l_ - 1, small))
    return ops


def _verdict(result):
    """A law op computes its own verdict: the law's canonical residual."""
    return result


def _antisymmetry(a, b, small):
    def run():
        ab, ba = H.bracket(a, b), H.bracket(b, a)
        ok = (H.canonicalize(ab + ba).is_zero and H.bracket(a, a).is_zero)
        return ok, [ab, ba]
    return Op("antisymmetry", run, _verdict, small)


def _bilinearity(a, b, c, al, be, small):
    def run():
        lhs = H.bracket(a.scale(al) + b.scale(be), c)
        rhs = H.bracket(a, c).scale(al) + H.bracket(b, c).scale(be)
        return H.equals(lhs, rhs), [lhs]
    return Op("bilinearity", run, _verdict, small)


def _leibniz(a, b, c, small):
    def run():
        lhs = H.bracket(a, H.multiply(b, c))
        rhs = (H.multiply(H.bracket(a, b), c)
               + H.multiply(b, H.bracket(a, c)))
        return H.equals(lhs, rhs), [lhs]
    return Op("leibniz", run, _verdict, small)


def _jacobi(a, b, c, small):
    def run():
        bc, ca, ab = H.bracket(b, c), H.bracket(c, a), H.bracket(a, b)
        outer = [H.bracket(a, bc), H.bracket(b, ca), H.bracket(c, ab)]
        ok = H.canonicalize(outer[0] + outer[1] + outer[2]).is_zero
        return ok, [bc, ca, ab] + outer
    return Op("jacobi", run, _verdict, small)


def _closure(a, b, small):
    def run():
        r = H.bracket(a, b)
        return H.variational.check_symbol(r).is_symbol, [r]
    return Op("closure", run, _verdict, small)


def _grading(a, b, want, small):
    def run():
        r = H.bracket(a, b)
        return r.is_zero or H.grade(r) == want, [r]
    return Op("grading", run, _verdict, small)


# -- operators ---------------------------------------------------------------

WEYL_ORDERS = range(2, 10)  # r = 10 quantizes in about 20 s: out of scope
COMMUTATOR_PAIRS = 44
LEIBNIZ_RESIDUAL = "delta0(0)*delta(x;1) - 2*delta0(1)*delta(x)"


def _coeff_text(q: Fraction) -> str:
    sign = "-" if q < 0 else ""
    q = abs(q)
    return sign + (f"{q.numerator}" if q.denominator == 1
                   else f"({q.numerator}/{q.denominator})")


def _weyl_monomial(rng: random.Random, r: int):
    """Text of c * [w(x)] * phi^a * [D(phi,d)] * pi^b and its factor counts.

    The multiplicity pattern depends on r only, so the number of distinct
    words, and with it the work, is the same on every seed.  Momenta carry
    no derivative, so the canonical form is the monomial itself.  Words of
    length 8 and 9 stay plain: a distinct derivative factor multiplies their
    word count by about five and the pass time with it.
    """
    n_phi = (r + 1) // 2
    n_pi = r - n_phi
    d = rng.randint(1, 2)
    parts = [_coeff_text(rng.choice(SCALES))]
    w = rng.choice(("", "f(x)", "D(g,1)(x)"))
    if w:
        parts.append(w)
    counts = Counter({("phi", 0): n_phi, ("pi", 0): n_pi})
    if 3 <= r <= 7:
        counts[("phi", 0)] -= 1
        counts[("phi", d)] += 1
        parts.append(f"D(phi,{d})(x)")
    parts.append(f"phi(x)^{counts[('phi', 0)]}")
    parts.append(f"pi(x)^{n_pi}")
    return f"int[x]( {'*'.join(parts)} )", counts


def _multinomial(counts: Counter) -> int:
    out = math.factorial(sum(counts.values()))
    for m in counts.values():
        out //= math.factorial(m)
    return out


def _weyl(text: str, counts: Counter, small: bool) -> Op:
    def run():
        s = H.parse_symbol(text)
        q = H.quantize(s, "weyl")
        n = H.ccr_reduce(q)
        return s, q, n, H.format_expression(n)

    def check(result):
        s, q, n, _ = result
        coeff = H.canonicalize(s).terms[0].coeff.scalar
        ok = (len(q.terms) == _multinomial(counts)
              and sum(t.coeff.scalar for t in q.terms) == coeff
              and H.equals(H.forget_order(q), s)
              and H.equals(H.classical_limit(n), s))
        return ok, [q, n]

    return Op(f"weyl_r{sum(counts.values())}", run, check, small)


_FACTORS = ("phi(x)", "pi(x)", "D(phi,1)(x)", "D(pi,1)(x)")


def _field_monomial(shape: random.Random, rng: random.Random,
                    degree: int) -> str:
    """Canonical text of a nonzero single-integral monomial of `degree`.

    `shape` picks the factors and whether a weight function appears, which
    fix the work; `rng` picks the coefficient and the weight's name.
    """
    while True:
        factors = [shape.choice(_FACTORS) for _ in range(degree)]
        weight = [rng.choice(("f(x)", "g(x)"))] if shape.random() < 0.5 else []
        parts = [_coeff_text(rng.choice(SCALES))] + weight + factors
        s = H.canonicalize(H.parse_symbol(f"int[x]( {'*'.join(parts)} )"))
        if not s.is_zero:
            return H.format_expression(s)


def _commutator(a_text: str, b_text: str, scheme: str, small: bool) -> Op:
    def run():
        a, b = H.parse_symbol(a_text), H.parse_symbol(b_text)
        qa, qb = H.quantize(a, scheme), H.quantize(b, scheme)
        left = H.commutator(qa, qb, grouping="left", reduce=True)
        right = H.commutator(qa, qb, grouping="right", reduce=True)
        return a, b, left, right, H.op_equals(left, right), \
            H.format_expression(left)

    def check(result):
        # the groupings agree as operators; as expressions they may differ
        # only by the formal delta0 ordering constants at order h^2, which
        # are reported and never simplified (see leibniz_residual)
        a, b, left, right, agree, _ = result
        if not agree:
            diff = H.ccr_reduce(left - right, transfer=True)
            agree = all(t.coeff.divergent and t.coeff.h >= 2
                        for t in diff.terms)
        # correspondence: the order-h part over -ih is the classical bracket
        # (when the bracket vanishes, only higher orders remain)
        lead = H.OperatorExpression(
            tuple(t for t in left.terms if t.coeff.h == 1))
        limit = H.classical_limit(H.formal_scale(lead, scalar=-1, h=-1, i=-1))
        ok = (agree and all(t.coeff.h >= 1 for t in left.terms)
              and H.equals(limit, H.bracket(a, b)))
        return ok, [left, right]

    return Op(f"commutator_{scheme}", run, check, small)


def _leibniz_residual(small: bool) -> Op:
    def run():
        return H.leibniz_residual()

    def check(rep):
        want = H.parse_symbol(LEIBNIZ_RESIDUAL)
        ok = rep.routes_agree and H.equals(rep.combination, want)
        return ok, [rep.way1, rep.way2, rep.residual]

    return Op("leibniz_residual", run, check, small)


def _operator_ops(seed: int) -> list[Op]:
    # the commutator pairs' factors come from a fixed stream and the run
    # seed draws their coefficients, so every seed measures the same work
    rng, shape = random.Random(seed), random.Random(SUITE_SEED)
    ops = [_weyl(*_weyl_monomial(rng, r), small=r <= 4) for r in WEYL_ORDERS]
    for k in range(COMMUTATOR_PAIRS):
        degree = 2 if k % 2 == 0 else 3
        a = _field_monomial(shape, rng, degree)
        b = _field_monomial(shape, rng, degree)
        scheme = ("weyl", "normal")[(k // 2) % 2]
        ops.append(_commutator(a, b, scheme, small=k < 4))
    ops.append(_leibniz_residual(small=True))
    return ops


# -- oracle ------------------------------------------------------------------

ORACLE_SIZES = (128, 256, 512)
ORACLE_PAIRS = 20   # criterion 3's full corpus
ORACLE_STATES = 3
KERNEL_SIZES = (256, 512, 1024, 2048)
KERNEL_EXPR = ("int[x]( (1/2)*pi(x)^2 + (1/2)*D(phi,1)(x)^2"
               " + f(x)*phi(x)^3 + g(x)*phi(x)*D(phi,2)(x)*pi(x) )")
KG_SIZES = (64, 128, 256)
KG_PER_SIZE = 9
LENGTH = 8.0


def _oracle_scale(rng: random.Random) -> Fraction:
    # |scale| <= 1 keeps every relative error at or below the unscaled one
    return rng.choice((Fraction(1), Fraction(-1), Fraction(1, 2),
                       Fraction(-1, 2), Fraction(3, 4), Fraction(-2, 3)))


def _verify(a, b, state_seed: int, small: bool) -> Op:
    configs = [H.LatticeConfig(n=n, length=LENGTH) for n in ORACLE_SIZES]
    bind = H.default_binding()

    def run():
        return H.verify_bracket(a, b, configs, bind=bind,
                                n_states=ORACLE_STATES, seed=state_seed)

    def check(rep):
        # criterion 3: finest-grid error below 1e-3, and second-order
        # convergence unless the two routes agree to the noise floor
        order_ok = rep.order is None or 1.7 <= rep.order <= 2.3
        return rep.rows[-1].max_rel_error < 1e-3 and order_ok, []

    return Op("verify_bracket", run, check, small)


def _profile(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    c = rng.uniform(-0.5, 0.5, size=3)
    return np.polynomial.polynomial.polyval(x, c) * np.exp(
        -rng.uniform(0.4, 0.7) * x * x)


def _grid(n: int) -> tuple[np.ndarray, float]:
    delta = 2.0 * LENGTH / n
    return -LENGTH + delta * np.arange(n), delta


def _d(u: np.ndarray, delta: float) -> np.ndarray:
    return (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * delta)


def _kernel_reference(phi, pi, x, delta):
    """Value and exact gradient of KERNEL_EXPR on the periodic grid.

    Written from the discretization's definition (sums times the spacing,
    iterated central differences, the default binding's f and g), not
    from hamalg's kernels.  The central difference is antisymmetric, so its
    transpose is its negative and the transpose of its square is itself.
    """
    env = np.exp(-0.5 * x * x)
    f = 0.55 * env
    g = (0.1 + 0.3 * x - 0.12 * x * x) * env
    d1 = _d(phi, delta)
    d2 = _d(d1, delta)
    value = delta * np.sum(0.5 * pi * pi + 0.5 * d1 * d1 + f * phi ** 3
                           + g * phi * d2 * pi)
    g_pi = delta * (pi + g * phi * d2)
    g_phi = delta * (-_d(d1, delta) + 3.0 * f * phi * phi + g * pi * d2
                     + _d(_d(g * phi * pi, delta), delta))
    return value, g_phi, g_pi


def _kernel(sym, n: int, rng: np.random.Generator, small: bool) -> Op:
    cfg = H.LatticeConfig(n=n, length=LENGTH)
    bind = H.default_binding()
    x, delta = _grid(n)
    state = H.LatticeState(_profile(rng, x), _profile(rng, x))

    def run():
        fn = H.discretize(sym, cfg, bind)
        return fn(state), fn.gradient(state)

    def check(result):
        value, (g_phi, g_pi) = result
        want, w_phi, w_pi = _kernel_reference(state.phi, state.pi, x, delta)
        scale = max(np.abs(w_phi).max(), np.abs(w_pi).max())
        ok = (abs(value - want) <= 1e-10 * max(1.0, abs(want))
              and np.abs(g_phi - w_phi).max() <= 1e-6 * scale
              and np.abs(g_pi - w_pi).max() <= 1e-6 * scale)
        return ok, []

    return Op(f"kernel_n{n}", run, check, small)


def _energy(u: np.ndarray, m: float, delta: float) -> float:
    n = len(u) // 2
    phi, pi = u[:n], u[n:]
    d1 = _d(phi, delta)
    return 0.5 * delta * float(np.sum(pi * pi + d1 * d1 + m * m * phi * phi))


def _kg(n: int, m: float, t: float, rng: np.random.Generator,
        small: bool) -> Op:
    cfg = H.LatticeConfig(n=n, length=LENGTH)
    x, delta = _grid(n)
    state = H.LatticeState(_profile(rng, x), _profile(rng, x))

    def run():
        return (H.kg_flow(cfg, m, t),
                H.kg_energy_drift(cfg, m, t, 20, state))

    def check(result):
        # criterion 7: symplectic defect below 1e-10, energy drift below
        # 1e-9; the defect and one energy comparison are recomputed here
        # from the propagator matrix
        rep, drift = result
        eye, zero = delta * np.eye(n), np.zeros((n, n))
        j = np.block([[zero, eye], [-eye, zero]])
        defect = np.abs(rep.matrix.T @ j @ rep.matrix - j).max()
        u = np.concatenate([state.phi, state.pi])
        e0 = _energy(u, m, delta)
        e1 = _energy(rep.matrix @ u, m, delta)
        ok = (defect < 1e-10 and drift < 1e-9
              and abs(e1 - e0) < 1e-9 * max(1.0, abs(e0)))
        return ok, []

    return Op(f"kg_flow_n{n}", run, check, small)


def _wkb(small: bool) -> Op:
    def run():
        case = H.quasiclassics.quartic_case(n_fan=211)
        return H.wkb_residual(case["ham"], case["s"], case["a"],
                              (0.1, 0.05, 0.025), case["t_grid"],
                              case["q_grid"])

    def check(rep):
        # criterion 8: the wkb defect shrinks at least like h^1.9
        return rep.exponent is not None and rep.exponent >= 1.9, []

    return Op("wkb_quartic", run, check, small)


def _oracle_ops(seed: int) -> list[Op]:
    # the symbol pairs are criterion 3's full corpus with its states, the
    # pairs the published tolerances are calibrated on; the run seed scales
    # each operand and draws the kernel and flow inputs
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    gen = H.RandomSymbolGenerator(SUITE_SEED + 2, max_deriv=1, max_factors=3)
    ops = []
    for k in range(ORACLE_PAIRS):
        a, b = gen.symbol(), gen.symbol()
        ops.append(_verify(a.scale(_oracle_scale(rng)),
                           b.scale(_oracle_scale(rng)),
                           SUITE_SEED + 10 + k, small=k < 2))
    sym = H.parse_symbol(KERNEL_EXPR)
    for n in KERNEL_SIZES:
        ops.append(_kernel(sym, n, nrng, small=n <= 512))
    for n in KG_SIZES:
        for k in range(KG_PER_SIZE):
            m = float(nrng.uniform(0.0, 2.5))
            t = float(nrng.uniform(0.5, 10.0))
            ops.append(_kg(n, m, t, nrng, small=k == 0))
    ops.append(_wkb(small=True))
    return ops


DECKS = {"laws": _law_ops, "operators": _operator_ops, "oracle": _oracle_ops}
DIGESTED = ("laws", "operators")


# -- running -----------------------------------------------------------------


def digest(outputs) -> str:
    h = hashlib.sha256()
    for s in outputs:
        h.update(H.to_json(s).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


class Runner:
    def __init__(self, workload: str, seed: int, ops: list[Op]):
        self.ops = ops
        self.expected = None
        if workload in DIGESTED:
            table = json.loads((HERE / "digests.json").read_text())
            self.expected = table[workload].get(str(seed))
        self.seen: dict[int, str] = {}
        self.latencies: list[float] = []  # reference seconds
        self.wall: list[float] = []       # wall seconds
        self.calibrations: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.digested = workload in DIGESTED

    def one_pass(self, tracer=None) -> tuple[float, float]:
        """Run every op once; return the pass's summed op time in wall and
        in reference seconds."""
        wall = ref = 0.0
        cal = calibrate()
        for idx, op in self.ops:
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # a failing op is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            cal_next = calibrate()
            self.calibrations.append(cal_next)
            dt_ref = to_reference(dt, cal, cal_next)
            cal = cal_next
            wall += dt
            ref += dt_ref
            self.wall.append(dt)
            self.latencies.append(dt_ref)
            if error is None:
                error = self._check(idx, op, result)
            if error is not None:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(f"op {idx} ({op.kind}): {error}")
        return wall, ref

    def _check(self, idx: int, op: Op, result):
        try:
            ok, outputs = op.check(result)
        except Exception as exc:
            return f"check raised {type(exc).__name__}: {exc}"
        if not ok:
            return "wrong result"
        if not self.digested:
            return None
        d = digest(outputs)
        want = self.expected[idx] if self.expected else self.seen.get(idx)
        self.seen.setdefault(idx, d)
        if want is not None and d != want:
            return f"digest {d} != {want}"
        return None


def _meta() -> dict:
    import importlib.util

    import scipy
    import sympy
    from hamalg import _kernels
    src = Path(H.__file__).resolve().parent
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "kernel_path": _kernels.active_path(),
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(src.glob("*.py"))),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(DECKS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "digest"),
                    required=True)
    ap.add_argument("--small", action="store_true",
                    help="run the reduced deck (self-test)")
    args = ap.parse_args(argv)

    if args.workload == "laws":
        # what check_algebra allows for nested brackets at max_deriv 2
        H.SESSION.max_derivative_order = 4 * (2 + 2)
    deck = list(enumerate(DECKS[args.workload](args.seed)))
    if args.small:
        deck = [(i, op) for i, op in deck if op.small]
    ready = time.monotonic()
    out = {"ready": ready, "import_s": IMPORT_S}
    if args.mode == "setup":
        # the host's speed at the end of the set-up, for run.py
        out["calibration"] = calibrate()
        print(json.dumps(out))
        return 0

    runner = Runner(args.workload, args.seed, deck)
    if args.mode == "digest":
        runner.expected = None
        runner.one_pass()
        out["digests"] = [runner.seen.get(i) for i in range(max(runner.seen) + 1)]
    elif args.mode == "measure":
        op_time = runner.one_pass()[0]
        while not args.small and (op_time < args.seconds
                                  or len(runner.latencies) < MIN_OPS):
            op_time += runner.one_pass()[0]
    else:
        from tracer import Tracer
        runner.one_pass()  # warm-up: first-call costs stay out of both passes
        untraced = runner.one_pass()[1]
        tracer = Tracer()
        tracer.install()
        traced = runner.one_pass(tracer)[1]
        tracer.uninstall()
        out["ops_per_pass"] = len(deck)
        out["untraced_s"] = untraced
        out["traced_s"] = traced
        out["layers"] = {k: dict(v) for k, v in tracer.stats.items()}
    out.update({
        "latencies": runner.latencies,
        "wall_latencies": runner.wall,
        "calibrations": runner.calibrations,
        "attempted": len(runner.latencies),
        "failed": runner.failed,
        "failures": runner.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "meta": _meta(),
        "hamalg": H.__file__,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
