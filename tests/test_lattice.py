"""Grid discretization and the lattice bracket oracle."""

import numpy as np
import pytest

from hamalg import (LatticeConfig, LatticeError, LatticeState, NumericBinding,
                    RandomSymbolGenerator, default_binding, discretize,
                    gaussian, kg_energy, kg_energy_drift, kg_flow,
                    kg_propagate, numeric_bracket, parse_symbol,
                    poly_gaussian, random_profile, verify_bracket)
from hamalg.lattice import NOISE_FLOOR, kg_group_defect


def P(text):
    return parse_symbol(text)


CFG = LatticeConfig(n=128, length=8.0)


def gaussian_state(cfg):
    x = cfg.x()
    return LatticeState(np.exp(-x * x), np.zeros_like(x))


def test_gaussian_quadrature_value():
    # int exp(-2x^2) dx = sqrt(pi/2); periodic trapezoid is spectrally
    # accurate on decaying smooth data
    fn = discretize(P("int[x]( phi(x)^2 )"), CFG)
    assert abs(fn(gaussian_state(CFG)) - np.sqrt(np.pi / 2)) < 1e-12


def test_gradient_matches_the_density():
    fn = discretize(P("int[x]( phi(x)^2 )"), CFG)
    st = gaussian_state(CFG)
    gphi, gpi = fn.gradient(st)
    assert np.abs(gphi - 2 * CFG.delta * st.phi).max() < 1e-9
    assert np.abs(gpi).max() == 0.0


def test_named_functions_need_a_binding():
    s = P("int[x]( f(x)*phi(x) )")
    with pytest.raises(LatticeError):
        discretize(s, CFG)
    fn = discretize(s, CFG, NumericBinding({"f": gaussian(0.5)}))
    st = gaussian_state(CFG)
    x = CFG.x()
    want = CFG.delta * np.sum(np.exp(-0.5 * x * x) * st.phi)
    assert abs(fn(st) - want) < 1e-12


def test_mass_needs_a_binding():
    s = P("int[x]( (m^2/2)*phi(x)^2 )")
    with pytest.raises(LatticeError):
        discretize(s, CFG)
    fn = discretize(s, CFG, NumericBinding({}, m=2.0))
    st = gaussian_state(CFG)
    assert abs(fn(st) - 2.0 * np.sqrt(np.pi / 2)) < 1e-12


def test_free_variables_cannot_be_discretized():
    with pytest.raises(LatticeError):
        discretize(P("phi(u)^2"), CFG)


def test_formal_constants_cannot_be_discretized():
    with pytest.raises(LatticeError):
        discretize(P("-vol"), CFG)


def test_canonical_pair_is_exact_on_the_grid():
    configs = [LatticeConfig(n=n, length=8.0) for n in (128, 256)]
    rep = verify_bracket(P("int[x]( phi(x)^2 )"), P("int[x]( pi(x)^2 )"),
                         configs, seed=5)
    assert rep.exact
    assert rep.order is None
    assert all(r.max_rel_error < NOISE_FLOOR for r in rep.rows)


def test_derivative_pair_converges_at_second_order():
    configs = [LatticeConfig(n=n, length=8.0) for n in (128, 256, 512)]
    rep = verify_bracket(P("int[x]( f(x)*phi(x)*D(phi,1)(x)*pi(x) )"),
                         P("int[x]( g(x)*pi(x)^2 )"),
                         configs, bind=default_binding(), seed=5)
    assert not rep.exact
    assert 1.7 < rep.order < 2.3
    assert rep.rows[-1].max_rel_error < 1e-3


def test_random_corpus_against_the_oracle():
    gen = RandomSymbolGenerator(60, max_deriv=1, max_factors=3)
    configs = [LatticeConfig(n=n, length=8.0) for n in (128, 256, 512)]
    bind = default_binding()
    for k in range(5):
        rep = verify_bracket(gen.symbol(), gen.symbol(), configs,
                             bind=bind, seed=100 + k)
        assert rep.rows[-1].max_rel_error < 1e-3
        if not rep.exact and rep.order is not None:
            assert 1.7 < rep.order < 2.3


def test_numeric_bracket_antisymmetry():
    bind = default_binding()
    fa = discretize(P("int[x]( f(x)*phi(x)^2*pi(x) )"), CFG, bind)
    fb = discretize(P("int[x]( g(x)*pi(x)^2 )"), CFG, bind)
    st = random_profile(np.random.default_rng(9)).realize(CFG)
    ab = numeric_bracket(fa, fb, st)
    ba = numeric_bracket(fb, fa, st)
    assert abs(ab + ba) < 1e-9 * max(1.0, abs(ab))


def test_kg_flow_is_symplectic():
    for n in (64, 128):
        for m in (0.0, 1.0, 2.5):
            rep = kg_flow(LatticeConfig(n=n, length=8.0), m, 3.0)
            assert rep.defect < 1e-10


@pytest.mark.parametrize("n", [64, 128, 256])
def test_kg_flow_defect_matches_the_dense_form(n):
    # the defect of M^T J M - J with J written out as a dense matrix
    cfg = LatticeConfig(n=n, length=8.0)
    eye, zero = np.eye(n), np.zeros((n, n))
    j = np.block([[zero, cfg.delta * eye], [-cfg.delta * eye, zero]])
    for m in (0.0, 1.0, 2.5):
        for t in (1.7, 5.0, 10.0):
            rep = kg_flow(cfg, m, t)
            mat = rep.matrix
            assert rep.defect == float(np.abs(mat.T @ j @ mat - j).max())


def test_kg_energy_is_conserved():
    cfg = LatticeConfig(n=128, length=8.0)
    st = random_profile(np.random.default_rng(3)).realize(cfg)
    drift = kg_energy_drift(cfg, 1.3, 10.0, 25, st)
    assert drift < 1e-9


def test_kg_propagate_group_law():
    cfg = LatticeConfig(n=64, length=8.0)
    assert kg_group_defect(cfg, 1.0, 1.1, 0.7) < 1e-9


def test_kg_zero_time_is_identity():
    cfg = LatticeConfig(n=64, length=8.0)
    st = gaussian_state(cfg)
    phi1, pi1 = kg_propagate(cfg, 1.0, 0.0, st.phi, st.pi)
    assert np.abs(phi1 - st.phi).max() < 1e-14
    assert np.abs(pi1 - st.pi).max() < 1e-14


def test_kg_energy_value_on_a_mode():
    # a whole number of mode periods on [-L, L): int sin^2 = L, and the
    # centered difference turns k into sin(k Delta)/Delta
    cfg = LatticeConfig(n=64, length=8.0)
    x = cfg.x()
    k = 2 * np.pi / cfg.length
    phi = 0.7 * np.sin(k * x)
    e = kg_energy(cfg, 1.5, phi, np.zeros_like(phi))
    w2 = (np.sin(k * cfg.delta) / cfg.delta) ** 2
    want = 0.5 * 0.7 ** 2 * cfg.length * (w2 + 1.5 ** 2)
    assert abs(e - want) < 1e-12 * want


def test_config_validation():
    with pytest.raises(LatticeError):
        LatticeConfig(n=0, length=8.0)
    with pytest.raises(LatticeError):
        LatticeConfig(n=64, length=-1.0)
    with pytest.raises(LatticeError):
        NumericBinding({}, m=-2.0)
    with pytest.raises(LatticeError):
        LatticeState(np.zeros(4), np.zeros(5))
