"""Bipartite entanglement of a pure state: the reduced state across a cut,
its von Neumann entropy in bits, and whether the state is a product there.

The reduced state is the plain complex matrix m m+, where m is the state's
amplitudes reshaped to (2^|side_a|, 2^|side_b|).  It is built from an already
validated `StateVector`, so it is not checked again; only `Bipartition`,
which carries labels from outside, is validated.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import ATOL, StateVector

EIG_FLOOR = 1e-12  # eigenvalues below this are dropped before the log


@dataclass(frozen=True)
class Bipartition:
    """A nonempty proper subset of the qubits and its complement."""

    side_a: tuple[str, ...]
    side_b: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.side_a or not self.side_b:
            raise ValueError("both sides of a bipartition must be nonempty")
        both = self.side_a + self.side_b
        if len(set(both)) != len(both):
            raise ValueError("bipartition sides must be disjoint and duplicate-free")

    @classmethod
    def of(cls, s: StateVector, side_a: tuple[str, ...] | list[str]) -> "Bipartition":
        side_a = tuple(side_a)
        for name in side_a:
            s.position(name)
        side_b = tuple(name for name in s.names if name not in side_a)
        return cls(side_a, side_b)


def reduce(s: StateVector, cut: Bipartition) -> np.ndarray:
    """Partial trace of |s><s| over side_b of the cut, as a complex matrix.

    Rows and columns follow side_a's order.  The trace is |s|^2, which is
    within about 2*ATOL of 1 for a state `StateVector` accepts; nothing is
    normalized or re-checked.
    """
    if set(cut.side_a) | set(cut.side_b) != set(s.names):
        raise ValueError("bipartition labels do not match the state")
    keep = [s.position(name) for name in cut.side_a]
    drop = [s.position(name) for name in cut.side_b]
    t = s.amps.reshape([2] * s.n).transpose(keep + drop)
    m = t.reshape(2 ** len(keep), 2 ** len(drop))
    return m @ m.conj().T


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits: -sum(lambda * log2 lambda), lambda > 1e-12."""
    ev = np.linalg.eigvalsh(rho)
    ev = ev[ev > EIG_FLOOR]
    return float(-(ev * np.log2(ev)).sum())


def is_product_across(rho: np.ndarray) -> bool:
    """True iff the reduced state `rho` of a cut is pure: tr(rho^2) within
    ATOL of (tr rho)^2, so the state it came from is a product across the cut.

    Purity is taken relative to the trace, so a state that `StateVector`
    accepts with |norm - 1| up to ATOL is judged as its normalized self.
    """
    trace = np.trace(rho).real
    return bool(abs(np.trace(rho @ rho).real - trace * trace) <= ATOL)
