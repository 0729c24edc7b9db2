"""Numeric evaluation kernels for lattice functionals.

A discretized functional is stored as a flat term bank (see
:class:`TermBank`).  Each term is a scalar times a product of per-dummy
grid sums; each grid sum runs over a product of "pieces", where a piece
is either a derivative of one of the two state fields or a precomputed
constant grid array (bound named functions, anchored delta columns).

The value is that sum of products, and the gradient in state space is
its exact reverse-mode derivative: every field piece receives the
product of the rest of its term as a cotangent, and the transposed
stencil carries the cotangents back to the state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def active_path() -> str:
    """Name of the evaluation path; plain numpy is the only one."""
    return "numpy"


def stencil_weights(kmax: int, delta: float) -> np.ndarray:
    """Weights of the iterated central difference.

    Row k holds w with (D^k f)[i] = sum_j w[k, kmax+j] f[(i+j) % N],
    where D is the 3-point central first difference.  Row k is
    supported on |j| <= k; entries outside are exactly zero.
    """
    c = kmax
    w = np.zeros((kmax + 1, 2 * kmax + 1))
    w[0, c] = 1.0
    for k in range(1, kmax + 1):
        for j in range(-k, k + 1):
            lo = w[k - 1, c + j - 1] if c + j - 1 >= 0 else 0.0
            hi = w[k - 1, c + j + 1] if c + j + 1 <= 2 * kmax else 0.0
            # (D g)[i] = (g[i+1] - g[i-1]) / (2 delta), composed k times;
            # shifting the offset moves the minus onto the upper neighbor
            w[k, c + j] = (lo - hi) / (2.0 * delta)
    return w


# piece kinds
PHI = 0
PI = 1
CONST = 2


@dataclass(frozen=True)
class TermBank:
    """Flat CSR encoding of a compiled functional.

    scal[t] is the real scalar of term t.  Groups (one per integration
    dummy) are stored contiguously per term via t_gstart; pieces are
    stored contiguously per group via g_pstart.  Constant pieces index
    rows of cbank.
    """

    n: int
    delta: float
    kmax: int
    scal: np.ndarray        # float64[nt]
    t_gstart: np.ndarray    # int64[nt+1]
    g_pstart: np.ndarray    # int64[ng+1]
    p_kind: np.ndarray      # int64[npc]
    p_order: np.ndarray     # int64[npc]
    p_row: np.ndarray       # int64[npc]
    cbank: np.ndarray       # float64[nc, n]
    w: np.ndarray           # float64[kmax+1, 2*kmax+1]

    @property
    def n_terms(self) -> int:
        return len(self.scal)


def make_bank(n, delta, terms, cbank, kmax):
    """Assemble a TermBank from per-term (scalar, groups) descriptions.

    terms: list of (scalar, [[(kind, order, row), ...], ...]).
    """
    scal = []
    t_gstart = [0]
    g_pstart = [0]
    p_kind = []
    p_order = []
    p_row = []
    for scalar, groups in terms:
        scal.append(float(scalar))
        for pieces in groups:
            for kind, order, row in pieces:
                p_kind.append(kind)
                p_order.append(order)
                p_row.append(row)
            g_pstart.append(len(p_kind))
        t_gstart.append(len(g_pstart) - 1)
    cb = np.asarray(cbank, dtype=np.float64).reshape(len(cbank), n) if len(cbank) else np.zeros((0, n))
    return TermBank(
        n=n,
        delta=float(delta),
        kmax=kmax,
        scal=np.asarray(scal, dtype=np.float64),
        t_gstart=np.asarray(t_gstart, dtype=np.int64),
        g_pstart=np.asarray(g_pstart, dtype=np.int64),
        p_kind=np.asarray(p_kind, dtype=np.int64),
        p_order=np.asarray(p_order, dtype=np.int64),
        p_row=np.asarray(p_row, dtype=np.int64),
        cbank=cb,
        w=stencil_weights(kmax, delta),
    )


# ---------------------------------------------------------------- evaluation


def _piece_values(bank: TermBank, phi: np.ndarray, pi: np.ndarray) -> list[np.ndarray]:
    kmax = bank.kmax
    vals = []
    for p in range(len(bank.p_kind)):
        kind = bank.p_kind[p]
        if kind == CONST:
            vals.append(bank.cbank[bank.p_row[p]])
            continue
        k = int(bank.p_order[p])
        f = phi if kind == PHI else pi
        acc = bank.w[k, kmax] * f if bank.w[k, kmax] != 0.0 else np.zeros_like(f)
        for j in range(-k, k + 1):
            if j == 0:
                continue
            cw = bank.w[k, kmax + j]
            if cw != 0.0:
                acc = acc + cw * np.roll(f, -j)
        vals.append(acc)
    return vals


def _group_sums(bank: TermBank, pv: list[np.ndarray]) -> list[float]:
    # Delta * sum_i prod_p pv[p, i] per group; an empty group is the volume
    sums = []
    for g in range(len(bank.g_pstart) - 1):
        lo, hi = bank.g_pstart[g], bank.g_pstart[g + 1]
        if hi == lo:
            sums.append(bank.delta * bank.n)
            continue
        prod = pv[lo]
        for p in range(lo + 1, hi):
            prod = prod * pv[p]
        sums.append(bank.delta * prod.sum())
    return sums


def functional_value(bank: TermBank, phi: np.ndarray, pi: np.ndarray) -> float:
    phi = np.ascontiguousarray(phi, dtype=np.float64)
    pi = np.ascontiguousarray(pi, dtype=np.float64)
    gsum = _group_sums(bank, _piece_values(bank, phi, pi))
    total = 0.0
    for t in range(bank.n_terms):
        term = bank.scal[t]
        for g in range(bank.t_gstart[t], bank.t_gstart[t + 1]):
            term = term * gsum[g]
        total = total + term
    return float(total)


def functional_gradient(bank: TermBank, phi: np.ndarray, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient of the discretized functional in state space.

    Reverse mode through the sum of stencil products.  The cotangent of a
    field piece is the term scalar times the grid sums of the term's other
    dummies times Delta times the product of the other pieces of its
    group, built by multiplication only because a piece may vanish.
    Cotangents are collected per (field, order) and pulled back once
    through the transposed stencil, sum_j w[k, kmax+j] roll(c, j).
    Returns the pair (dF/dphi, dF/dpi) as arrays of length n.
    """
    phi = np.ascontiguousarray(phi, dtype=np.float64)
    pi = np.ascontiguousarray(pi, dtype=np.float64)
    pv = _piece_values(bank, phi, pi)
    gsum = _group_sums(bank, pv)
    cot: dict[tuple[int, int], np.ndarray] = {}
    for t in range(bank.n_terms):
        g0, g1 = bank.t_gstart[t], bank.t_gstart[t + 1]
        for g in range(g0, g1):
            lo, hi = bank.g_pstart[g], bank.g_pstart[g + 1]
            weight = bank.scal[t] * bank.delta
            for h in range(g0, g1):
                if h != g:
                    weight = weight * gsum[h]
            for p in range(lo, hi):
                if bank.p_kind[p] == CONST:
                    continue
                c = weight
                for q in range(lo, hi):
                    if q != p:
                        c = c * pv[q]
                key = (int(bank.p_kind[p]), int(bank.p_order[p]))
                acc = cot.setdefault(key, np.zeros(bank.n))
                acc += c
    out = np.zeros((2, bank.n))
    for (kind, k), c in cot.items():
        for j in range(-k, k + 1):
            cw = bank.w[k, bank.kmax + j]
            if cw != 0.0:
                out[kind] += cw * np.roll(c, j)
    return out[PHI], out[PI]
