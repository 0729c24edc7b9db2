"""Numeric evaluation kernels for lattice functionals.

A discretized functional is a list of terms (see :class:`TermBank`).  Each
term is a scalar times a product of per-dummy grid sums; each grid sum runs
over a product of "pieces", where a piece is either a derivative of one of
the two state fields or a precomputed constant grid array (bound named
functions, anchored delta columns).

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
    """A compiled functional on a periodic grid of `n` points, spacing `delta`.

    Each of `terms` is (scalar, groups) with one group per integration
    dummy; a group is a tuple of pieces, (PHI or PI, k) for the k-th
    central difference of a state field or (CONST, array) for a grid array.
    `w` holds the stencil weights up to the largest field order.
    """

    n: int
    delta: float
    terms: tuple
    w: np.ndarray


# ---------------------------------------------------------------- evaluation


def _piece_values(bank: TermBank, phi: np.ndarray, pi: np.ndarray) -> list:
    """The terms with each group as the list of its pieces' grid arrays.

    Each (field, k) stencil is applied once, the centre weight first and
    then the offsets in increasing order.
    """
    w = bank.w
    c = (w.shape[1] - 1) // 2
    fields: dict = {}

    def value(kind, k):
        if kind == CONST:
            return k  # the piece's grid array
        if (kind, k) not in fields:
            f = phi if kind == PHI else pi
            acc = w[k, c] * f if w[k, c] != 0.0 else np.zeros_like(f)
            for j in range(-k, k + 1):
                if j != 0 and w[k, c + j] != 0.0:
                    acc = acc + w[k, c + j] * np.roll(f, -j)
            fields[kind, k] = acc
        return fields[kind, k]

    return [[[value(*p) for p in pieces] for pieces in groups]
            for _, groups in bank.terms]


def _group_sum(bank: TermBank, arrays) -> float:
    # Delta * sum_i prod_p arrays[p][i]; an empty group is the volume
    if not arrays:
        return bank.delta * bank.n
    prod = arrays[0]
    for a in arrays[1:]:
        prod = prod * a
    return bank.delta * prod.sum()


def functional_value(bank: TermBank, phi: np.ndarray, pi: np.ndarray) -> float:
    phi = np.ascontiguousarray(phi, dtype=np.float64)
    pi = np.ascontiguousarray(pi, dtype=np.float64)
    total = 0.0
    for (scalar, _), groups in zip(bank.terms, _piece_values(bank, phi, pi)):
        term = scalar
        for arrays in groups:
            term = term * _group_sum(bank, arrays)
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
    cot: dict[tuple[int, int], np.ndarray] = {}
    for (scalar, groups), values in zip(bank.terms, _piece_values(bank, phi, pi)):
        sums = [_group_sum(bank, arrays) for arrays in values]
        for g, (pieces, arrays) in enumerate(zip(groups, values)):
            weight = scalar * bank.delta
            for h, s in enumerate(sums):
                if h != g:
                    weight = weight * s
            for p, piece in enumerate(pieces):
                if piece[0] == CONST:
                    continue
                c = weight
                for q, a in enumerate(arrays):
                    if q != p:
                        c = c * a
                acc = cot.setdefault(piece, np.zeros(bank.n))
                acc += c
    kmax = (bank.w.shape[1] - 1) // 2
    out = np.zeros((2, bank.n))
    for (kind, k), c in cot.items():
        for j in range(-k, k + 1):
            cw = bank.w[k, kmax + j]
            if cw != 0.0:
                out[kind] += cw * np.roll(c, j)
    return out[PHI], out[PI]
