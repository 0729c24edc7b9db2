"""Lattice truncation of symbolic functionals and the free-field flow check.

Everything here is 1-dimensional: a periodic grid of N points on
[-L, L) standing in for rapidly decaying profiles on the line.  The
module provides an oracle that is independent of the symbolic pipeline:
integrals become Delta-weighted sums, spatial derivatives become
iterated central differences, and bracket values are computed from the
exact gradient of the discretized functional in state space rather than
from symbolic variational derivatives.

Conventions fixed here and used everywhere: delta(x_i - x_j) maps to
Kronecker/Delta, so the discrete pairing is {phi_i, pi_j} = delta_ij /
Delta; the discrete Laplacian is the square of the central first
difference, so the discretized free Hamiltonian is conserved exactly by
the spectral propagator.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels import CONST, PHI as K_PHI, PI as K_PI, TermBank
from .errors import LatticeError
from .parser import format_expression
from .poisson import bracket
from .session import SESSION
from .terms import ANCHOR, PHI, Symbol, canonicalize


@dataclass(frozen=True)
class LatticeConfig:
    """A periodic grid of `n` points on [-length, length); derivatives use
    the order-2 central stencil."""
    n: int = 256
    length: float = 8.0

    def __post_init__(self):
        if self.n < 8 or self.n % 2:
            raise LatticeError("grid size must be even and at least 8")
        if self.length <= 0:
            raise LatticeError("domain half-width must be positive")

    @property
    def delta(self) -> float:
        return 2.0 * self.length / self.n

    def x(self) -> np.ndarray:
        """Grid points -L + j*Delta; x = 0 falls on index n // 2."""
        return -self.length + self.delta * np.arange(self.n)


@dataclass(frozen=True)
class LatticeState:
    phi: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=np.float64))
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=np.float64))
        if self.phi.shape != self.pi.shape or self.phi.ndim != 1:
            raise LatticeError("state fields must be two equal-length vectors")
        if not (np.isfinite(self.phi).all() and np.isfinite(self.pi).all()):
            raise LatticeError("state entries must be finite")


@dataclass(frozen=True)
class CatalogFunction:
    """p(x) * exp(-decay * x^2) with polynomial p; closed under d/dx."""

    poly: tuple[float, ...]
    decay: float

    def __post_init__(self):
        if not self.decay > 0:
            raise LatticeError("catalog functions must decay")

    def derivative(self) -> "CatalogFunction":
        p = np.asarray(self.poly, dtype=np.float64)
        dp = np.polynomial.polynomial.polyder(p) if len(p) > 1 else np.zeros(1)
        xp = np.concatenate(([0.0], p))  # x * p
        out = np.polynomial.polynomial.polyadd(dp, -2.0 * self.decay * xp)
        return CatalogFunction(tuple(out.tolist()), self.decay)

    def sample(self, x: np.ndarray) -> np.ndarray:
        return np.polynomial.polynomial.polyval(x, np.asarray(self.poly)) * np.exp(-self.decay * x * x)


def gaussian(decay: float = 1.0) -> CatalogFunction:
    return CatalogFunction((1.0,), decay)


def poly_gaussian(coeffs, decay: float = 1.0) -> CatalogFunction:
    return CatalogFunction(tuple(float(c) for c in coeffs), decay)


@dataclass(frozen=True)
class NumericBinding:
    functions: dict = field(default_factory=dict)
    m: float | None = None

    def __post_init__(self):
        if self.m is not None and not self.m > 0:
            raise LatticeError("bound mass must be positive")
        for name, fn in self.functions.items():
            if not isinstance(fn, CatalogFunction):
                raise LatticeError(f"binding for '{name}' is not a catalog function")


def default_binding() -> NumericBinding:
    """Bind f, g and the mass to smooth, well-resolved catalog shapes.

    Moderate amplitudes keep the O(Delta^2) constants of products of
    several bound factors within the documented error budget.
    """
    return NumericBinding({"f": poly_gaussian((0.55,), 0.5),
                           "g": poly_gaussian((0.1, 0.3, -0.12), 0.5)},
                          m=1.1)


@dataclass(frozen=True)
class LatticeFunctional:
    cfg: LatticeConfig
    bank: TermBank

    def __call__(self, state: LatticeState) -> float:
        return _kernels.functional_value(self.bank, state.phi, state.pi)

    def gradient(self, state: LatticeState):
        return _kernels.functional_gradient(self.bank, state.phi, state.pi)


def _delta_column(cfg: LatticeConfig, k: int) -> np.ndarray:
    # k-th central-difference derivative of the Kronecker/Delta column
    # anchored at x = 0
    i0 = cfg.n // 2
    w = _kernels.stencil_weights(k, cfg.delta)[k]
    col = np.zeros(cfg.n)
    for j in range(-k, k + 1):
        col[(i0 - j) % cfg.n] += w[k + j] / cfg.delta
    return col


def discretize(s: Symbol, cfg: LatticeConfig, bind: NumericBinding | None = None) -> LatticeFunctional:
    """Compile a canonical functional to an evaluable lattice object.

    Each term becomes its scalar and one group of pieces per integration
    dummy (see _kernels.TermBank): the stencil orders of its field factors
    and the grid arrays of its bound functions and anchored deltas, one
    array per function derivative and per delta column.

    Refuses anything that is not a plain numeric functional: free
    variables, unbound names, formal h/i powers, divergent constants.
    """
    if SESSION.dimension != 1:
        raise LatticeError("lattice oracle is 1-dimensional; set HAMALG_DIM=1")
    if not isinstance(s, Symbol) or getattr(type(s), "ORDERED", False):
        raise LatticeError("operator expressions have no lattice value")
    s = canonicalize(s)
    if bind is None:
        bind = NumericBinding()
    x = cfg.x()
    arrays: dict = {}  # (name, k) for f^(k), k for the delta column

    kmax = 0
    encoded = []
    for t in s.terms:
        c = t.coeff
        if c.divergent:
            raise LatticeError("divergent constant present; symbolic-only object")
        if c.h or c.i:
            raise LatticeError("formal constants h, i have no numeric value")
        scal = float(c.scalar)
        if c.m:
            if bind.m is None:
                raise LatticeError("unbound name 'm'")
            scal *= bind.m ** c.m
        bound = set(t.dummies)
        groups = {d: [] for d in t.dummies}
        for fn in c.functions:
            if fn.var not in bound:
                raise LatticeError(f"free variable in '{fn.name}'; bind or integrate it")
            key = (fn.name, fn.deriv[0])
            if key not in arrays:
                g = bind.functions.get(fn.name)
                if g is None:
                    raise LatticeError(f"unbound name '{fn.name}'")
                for _ in range(key[1]):
                    g = g.derivative()
                arrays[key] = g.sample(x)
            groups[fn.var].append((CONST, arrays[key]))
        for fac in t.factors:
            if fac.var not in bound:
                raise LatticeError("free field variable; not a functional")
            k = fac.deriv[0]
            kmax = max(kmax, k)
            groups[fac.var].append((K_PHI if fac.field == PHI else K_PI, k))
        for dl in t.deltas:
            if dl.right is not ANCHOR or dl.left not in bound:
                raise LatticeError("delta with unbound argument; not a functional")
            k = dl.deriv[0]
            if k not in arrays:
                arrays[k] = _delta_column(cfg, k)
            groups[dl.left].append((CONST, arrays[k]))
        encoded.append((scal, tuple(tuple(groups[d]) for d in t.dummies)))

    bank = TermBank(cfg.n, cfg.delta, tuple(encoded),
                    _kernels.stencil_weights(kmax, cfg.delta))
    return LatticeFunctional(cfg=cfg, bank=bank)


def numeric_bracket(f: LatticeFunctional, g: LatticeFunctional, state: LatticeState) -> float:
    """Discrete bracket sum_i (1/Delta)(dF/dpi_i dG/dphi_i - dF/dphi_i dG/dpi_i).

    Both gradients are the exact gradients of the discretized functionals.
    """
    if f.cfg != g.cfg:
        raise LatticeError("bracket operands live on different grids")
    f_phi, f_pi = f.gradient(state)
    g_phi, g_pi = g.gradient(state)
    return float(np.sum(f_pi * g_phi - f_phi * g_pi) / f.cfg.delta)


# ------------------------------------------------------------- random states


@dataclass(frozen=True)
class StateProfile:
    """Grid-independent description of a random test state."""

    cphi: tuple[float, ...]
    aphi: float
    cpi: tuple[float, ...]
    api: float

    def realize(self, cfg: LatticeConfig) -> LatticeState:
        x = cfg.x()
        return LatticeState(
            CatalogFunction(self.cphi, self.aphi).sample(x),
            CatalogFunction(self.cpi, self.api).sample(x),
        )


def random_profile(rng: np.random.Generator) -> StateProfile:
    # decay >= 0.4 keeps the wrap error at L = 8 below 1e-11; the upper
    # bound keeps high state derivatives (hence the O(Delta^2) constants
    # of the central-difference stencils) moderate
    def draw():
        return tuple(rng.uniform(-0.5, 0.5, size=3).tolist()), float(rng.uniform(0.4, 0.7))
    cphi, aphi = draw()
    cpi, api = draw()
    return StateProfile(cphi, aphi, cpi, api)


# ---------------------------------------------------------- bracket oracle


NOISE_FLOOR = 1e-8


@dataclass
class ConvergenceRow:
    n: int
    delta: float
    max_rel_error: float


@dataclass
class BracketVerification:
    a: str
    b: str
    rows: list[ConvergenceRow]
    order: float | None
    exact: bool

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "rows": [{"n": r.n, "delta": r.delta, "max_rel_error": r.max_rel_error}
                     for r in self.rows],
            "order": self.order,
            "exact": self.exact,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("N,delta,error\n")
        for r in self.rows:
            buf.write(f"{r.n},{r.delta!r},{r.max_rel_error!r}\n")
        return buf.getvalue()


def verify_bracket(a: Symbol, b: Symbol, configs, bind: NumericBinding | None = None,
                   n_states: int = 3, seed: int = 0) -> BracketVerification:
    """Compare the lattice bracket against the discretized symbolic bracket.

    The lattice bracket pairs the exact gradients of the discretized
    operands, so it differs from the discretized symbolic bracket only by
    the O(Delta^2) error of the stencils and by roundoff.

    The same continuum profiles are sampled on every grid so the error
    rows are comparable; the order estimate is the mean log2 error drop
    per grid doubling.  Pairs whose two routes agree to within
    NOISE_FLOOR on every grid are flagged exact and carry no order.
    """
    configs = sorted(configs, key=lambda c: c.n)
    sym = bracket(a, b)  # refuses non-symbols before anything is discretized
    rng = np.random.default_rng(seed)
    profiles = [random_profile(rng) for _ in range(n_states)]

    rows = []
    for cfg in configs:
        fa = discretize(a, cfg, bind)
        fb = discretize(b, cfg, bind)
        ref = discretize(sym, cfg, bind)
        worst = 0.0
        for prof in profiles:
            st = prof.realize(cfg)
            num = numeric_bracket(fa, fb, st)
            want = ref(st)
            worst = max(worst, abs(num - want) / max(1.0, abs(want)))
        rows.append(ConvergenceRow(cfg.n, cfg.delta, worst))

    exact = all(r.max_rel_error < NOISE_FLOOR for r in rows)
    order = None
    if not exact and len(rows) >= 2:
        steps = []
        for lo, hi in zip(rows, rows[1:]):
            # once the finer grid sits in roundoff the ratio is meaningless
            if hi.max_rel_error >= NOISE_FLOOR and lo.max_rel_error > 0:
                ratio = math.log(lo.max_rel_error / hi.max_rel_error)
                steps.append(ratio / math.log(hi.n / lo.n))
        order = sum(steps) / len(steps) if steps else None
    return BracketVerification(a=format_expression(a), b=format_expression(b),
                               rows=rows, order=order, exact=exact)


# ------------------------------------------------------------ free-field flow


def _mode_frequencies(cfg: LatticeConfig, m: float) -> np.ndarray:
    # eigenvalues of the central-difference Laplacian -D1^2
    theta = 2.0 * np.pi * np.arange(cfg.n) / cfg.n
    lam = (np.sin(theta) / cfg.delta) ** 2
    return np.sqrt(m * m + lam)


def kg_propagate(cfg: LatticeConfig, m: float, t: float, phi: np.ndarray, pi: np.ndarray):
    """Exact flow of the discretized free Hamiltonian for time t.

    Per Fourier mode: rotation with frequency omega_k, with the
    omega = 0 modes drifting linearly (free particle).
    """
    omega = _mode_frequencies(cfg, m)
    c = np.cos(omega * t)
    s = np.full_like(omega, t)
    nz = omega > 0
    s[nz] = np.sin(omega[nz] * t) / omega[nz]
    fphi = np.fft.fft(phi, axis=0)
    fpi = np.fft.fft(pi, axis=0)
    shape = (cfg.n,) + (1,) * (fphi.ndim - 1)
    c = c.reshape(shape)
    s = s.reshape(shape)
    w2 = (omega ** 2).reshape(shape)
    phi_t = np.fft.ifft(c * fphi + s * fpi, axis=0)
    pi_t = np.fft.ifft(-w2 * s * fphi + c * fpi, axis=0)
    return phi_t.real, pi_t.real


def kg_energy(cfg: LatticeConfig, m: float, phi: np.ndarray, pi: np.ndarray) -> float:
    dphi = (np.roll(phi, -1) - np.roll(phi, 1)) / (2.0 * cfg.delta)
    return float(0.5 * cfg.delta * np.sum(pi * pi + dphi * dphi + m * m * phi * phi))


@dataclass
class KgFlowReport:
    n: int
    length: float
    m: float
    t: float
    defect: float
    matrix: np.ndarray

    def to_dict(self) -> dict:
        return {"n": self.n, "length": self.length, "m": self.m, "t": self.t,
                "symplectic_defect": self.defect}


def kg_flow(cfg: LatticeConfig, m: float, t: float) -> KgFlowReport:
    """Propagator matrix of the discrete free flow plus its symplectic defect.

    The defect is max|M^T J M - J| with J the canonical form carrying
    the 1/Delta pairing.  The per-mode rotations are exact, so the
    defect is pure roundoff.
    """
    if m < 0:
        raise LatticeError("mass must be nonnegative")
    n = cfg.n
    eye = np.eye(n)
    zero = np.zeros((n, n))
    a, b = kg_propagate(cfg, m, t, eye, zero)
    c, d = kg_propagate(cfg, m, t, zero, eye)
    mat = np.block([[a, c], [b, d]])
    j = np.block([[zero, cfg.delta * eye], [-cfg.delta * eye, zero]])
    # mat.T @ j: j is two scaled identity blocks, so the column halves of
    # mat.T swap and scale (one expression, so no product stays alive)
    defect = float(np.abs(np.hstack([-cfg.delta * mat.T[:, n:],
                                     cfg.delta * mat.T[:, :n]]) @ mat - j).max())
    return KgFlowReport(n=n, length=cfg.length, m=m, t=t, defect=defect, matrix=mat)


def kg_group_defect(cfg: LatticeConfig, m: float, t: float, s: float) -> float:
    mt = kg_flow(cfg, m, t).matrix
    ms = kg_flow(cfg, m, s).matrix
    mts = kg_flow(cfg, m, t + s).matrix
    return float(np.abs(mts - mt @ ms).max())


def kg_energy_drift(cfg: LatticeConfig, m: float, t_final: float, steps: int,
                    state: LatticeState) -> float:
    """Max relative energy change along a stepwise-composed trajectory."""
    phi, pi = state.phi.copy(), state.pi.copy()
    e0 = kg_energy(cfg, m, phi, pi)
    dt = t_final / steps
    worst = 0.0
    for _ in range(steps):
        phi, pi = kg_propagate(cfg, m, dt, phi, pi)
        worst = max(worst, abs(kg_energy(cfg, m, phi, pi) - e0))
    return worst / max(1.0, abs(e0))
