"""Evaluation kernels: stencils, values and the exact gradient."""

import math
import tracemalloc

import numpy as np
import pytest

from hamalg import (LatticeConfig, LatticeState, default_binding, discretize,
                    parse_symbol)
from hamalg._kernels import active_path, functional_value, stencil_weights
from hamalg.lattice import random_profile


def P(text):
    return parse_symbol(text)


def test_stencil_rows_differentiate_polynomials():
    """The k-fold iterated central difference is exact: D^k x^k = k!."""
    delta = 0.25
    kmax = 4
    w = stencil_weights(kmax, delta)
    assert w.shape == (kmax + 1, 2 * kmax + 1)
    offsets = delta * np.arange(-kmax, kmax + 1)
    for k in range(1, kmax + 1):
        got = float(np.dot(w[k], offsets ** k))
        assert abs(got - math.factorial(k)) < 1e-9 * math.factorial(k)
    # support of row k stays within |j| <= k
    assert np.all(w[1, : kmax - 1] == 0.0)
    assert np.all(w[1, kmax + 2:] == 0.0)


def test_stencil_zeroth_row_is_identity():
    w = stencil_weights(2, 0.5)
    assert w[0, 2] == 1.0
    assert np.count_nonzero(w[0]) == 1


BENCH_EXPR = ("int[x]( (1/2)*pi(x)^2 + (1/2)*D(phi,1)(x)^2"
              " + f(x)*phi(x)^3 + g(x)*phi(x)*D(phi,2)(x)*pi(x) )")


def central_difference_gradient(fn, st, eps_rel=1e-5):
    """Reference gradient: perturb one state entry at a time."""
    out = []
    for field in ("phi", "pi"):
        grad = np.zeros(fn.cfg.n)
        for s in range(fn.cfg.n):
            eps = eps_rel * max(1.0, abs(getattr(st, field)[s]))
            vals = []
            for sign in (1.0, -1.0):
                phi, pi = st.phi.copy(), st.pi.copy()
                (phi if field == "phi" else pi)[s] += sign * eps
                vals.append(functional_value(fn.bank, phi, pi))
            grad[s] = (vals[0] - vals[1]) / (2.0 * eps)
        out.append(grad)
    return out


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("text", [
    "int[x]( phi(x)^3*pi(x)^2 )",
    BENCH_EXPR,
    "int[x]( (m^2/2)*phi(x)^2 + (1/2)*D(phi,2)(x)*g(x) )",
    "int[x]( delta(x;1)*phi(x)^2*pi(x) )",
    "int[x]( phi(x)^2 ) * int[y]( f(y)*D(phi,3)(y)*pi(y) )",
])
def test_gradient_matches_central_differences(text, n):
    cfg = LatticeConfig(n=n, length=8.0)
    fn = discretize(P(text), cfg, default_binding())
    rng = np.random.default_rng(17)
    states = [random_profile(rng).realize(cfg) for _ in range(2)]
    # pi = 0 makes whole pieces vanish; their cotangents must still be
    # the products of the other pieces
    states.append(LatticeState(states[0].phi, np.zeros(n)))
    for st in states:
        got = fn.gradient(st)
        want = central_difference_gradient(fn, st)
        scale = max(1.0, max(np.abs(w).max() for w in want))
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-8 * scale


def test_gradient_memory_is_linear_in_the_grid():
    n = 4096
    cfg = LatticeConfig(n=n, length=8.0)
    fn = discretize(P(BENCH_EXPR), cfg, default_binding())
    st = random_profile(np.random.default_rng(3)).realize(cfg)
    tracemalloc.start()
    try:
        fn.gradient(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # linear in N: no more than 64 grid-sized float arrays at once
    assert peak <= 64 * n * 8


def test_active_path_is_numpy():
    assert active_path() == "numpy"
