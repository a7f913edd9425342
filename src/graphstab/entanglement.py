"""Reduced density matrices, bipartite von Neumann entropy (bits), and
product-decomposability checks across bipartitions of a pure state."""
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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        # written as `not (x <= ATOL)` so that NaN and inf are rejected too
        if not np.max(np.abs(m - m.conj().T)) <= ATOL:
            raise ValueError("density matrix must be hermitian")
        if not abs(np.trace(m).real - 1.0) <= ATOL:
            raise ValueError("density matrix must have unit trace")
        if not -np.linalg.eigvalsh(m).min() <= ATOL:
            raise ValueError("density matrix must be positive semidefinite")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Real spectrum, descending."""
        return np.linalg.eigvalsh(self.entries)[::-1]

    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)


def reduce(s: StateVector, cut: Bipartition) -> DensityMatrix:
    """Partial trace of |s><s| over side_b of the cut."""
    if set(cut.side_a) | set(cut.side_b) != set(s.names):
        raise ValueError("bipartition labels do not match the state")
    keep = [s.position(name) for name in cut.side_a]
    drop = [s.position(name) for name in cut.side_b]
    t = s.amps.reshape([2] * s.n).transpose(keep + drop)
    m = t.reshape(2 ** len(keep), 2 ** len(drop))
    return DensityMatrix(m @ m.conj().T)


def entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits: -sum(lambda * log2 lambda), lambda > 1e-12."""
    ev = np.linalg.eigvalsh(rho.entries)
    ev = ev[ev > EIG_FLOOR]
    return float(-(ev * np.log2(ev)).sum())


def is_product_across(s: StateVector, cut: Bipartition, atol: float = ATOL) -> bool:
    """True iff the marginal on side_a is pure (purity 1 within tolerance)."""
    return abs(reduce(s, cut).purity() - 1.0) <= atol
