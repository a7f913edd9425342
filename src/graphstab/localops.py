"""Per-qubit unitaries: tensor-product operators and the single-qubit Clifford group.

A :class:`LocalUnitary` is a global scalar phase times one read-only
(n, 2, 2) array of per-qubit factors.  The 24 single-qubit Cliffords are
generated by closure from {H, S}, canonicalized up to global phase, and held
as one read-only (24, 2, 2) array.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

ATOL = 1e-9
MAX_QUBITS = 12  # dense limit: 2^12 amplitudes, 2^12 x 2^12 operators
# The one tolerance of each factor's unitarity (every entry of f f+ - I) and of
# the phase's modulus, derived so that a LocalUnitary keeps every state with
# |norm - 1| <= ATOL/2 within ATOL.  The Hermitian f f+ - I has spectral norm at
# most its Frobenius norm, 2 tol, so f scales norms by sqrt(1 +- 2 tol), inside
# 1 +- 2 tol, and the phase by 1 +- tol: together 1 +- (2 MAX_QUBITS + 1) tol =
# 1 +- ATOL/4 to first order.  The image is then within 3 ATOL/4 of unit norm;
# the ATOL/4 left is far above the round-off of f f+ and of the norm (~1e-15).
_UNITARY_TOL = ATOL / (4 * (2 * MAX_QUBITS + 1))

PAULI_MATS: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PHASE_S = np.array([[1, 0], [0, 1j]], dtype=complex)


def pauli_rotation(letter: str, angle: float) -> np.ndarray:
    """exp(i * angle * P) for a single-qubit Pauli P."""
    p = PAULI_MATS[letter]
    return np.cos(angle) * PAULI_MATS["I"] + 1j * np.sin(angle) * p


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """global_phase * (factors[0] x factors[1] x ... ), position 0 leftmost."""

    global_phase: complex
    factors: np.ndarray  # a read-only complex (n, 2, 2) copy of the input

    def __post_init__(self) -> None:
        if not abs(abs(self.global_phase) - 1.0) <= _UNITARY_TOL:  # also rejects NaN and inf
            raise ValueError("global phase must have unit modulus")
        f = np.array(self.factors, dtype=complex)
        if not f.size:
            raise ValueError("need at least one factor")
        if f.ndim != 3 or f.shape[1:] != (2, 2):
            raise ValueError(f"factors must have shape (n, 2, 2), not {f.shape}")
        err = np.max(np.abs(f @ f.conj().swapaxes(1, 2) - np.eye(2)), axis=(1, 2))
        bad = np.flatnonzero(~(err <= _UNITARY_TOL))  # also rejects NaN and inf
        if len(bad):
            raise ValueError(f"factor on qubit {bad[0]} is not unitary")
        f.setflags(write=False)
        object.__setattr__(self, "factors", f)
        object.__setattr__(self, "global_phase", complex(self.global_phase))

    @classmethod
    def _trusted(cls, global_phase: complex, factors: np.ndarray) -> "LocalUnitary":
        """A unitary from a unit complex phase and a read-only complex (n, 2, 2)
        stack of unitary factors, taken as they are without re-checking."""
        u = object.__new__(cls)
        object.__setattr__(u, "global_phase", global_phase)
        object.__setattr__(u, "factors", factors)
        return u

    @classmethod
    def identity(cls, n: int) -> "LocalUnitary":
        return cls(1.0, np.tile(PAULI_MATS["I"], (n, 1, 1)))

    @property
    def n(self) -> int:
        return len(self.factors)

    def compose(self, other: "LocalUnitary") -> "LocalUnitary":
        """self applied after other (operator product self @ other)."""
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        factors = self.factors @ other.factors  # products of checked factors are unitary
        factors.setflags(write=False)
        return LocalUnitary._trusted(self.global_phase * other.global_phase, factors)

    def dense(self) -> np.ndarray:
        """Full 2^n x 2^n matrix, n <= MAX_QUBITS."""
        if self.n > MAX_QUBITS:
            raise ValueError(f"dense form limited to {MAX_QUBITS} qubits")
        out = np.array([[self.global_phase]], dtype=complex)
        for f in self.factors:
            out = np.kron(out, f)
        return out


# --- single-qubit Clifford group ---

def canonical_phase(mat: np.ndarray) -> np.ndarray:
    """Rescale so the first non-negligible entry (row-major) is real positive."""
    flat = mat.reshape(-1)
    for v in flat:
        if abs(v) > ATOL:
            return mat * (abs(v) / v)
    raise ValueError("zero matrix has no canonical phase")


def _key(mat: np.ndarray) -> tuple:
    return tuple(np.round(mat, 9).reshape(-1).view(float))


@lru_cache(maxsize=1)
def single_qubit_cliffords() -> np.ndarray:
    """The 24 single-qubit Cliffords, canonical up to global phase, read-only (24, 2, 2).

    Enumeration order is fixed: breadth-first closure from the identity under
    left multiplication by H then S, deduplicated after phase canonicalization.
    """
    start = canonical_phase(PAULI_MATS["I"])
    found = [start]
    keys = {_key(start)}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for g in (HADAMARD, PHASE_S):
            v = canonical_phase(g @ u)
            k = _key(v)
            if k not in keys:
                keys.add(k)
                found.append(v)
                queue.append(v)
    if len(found) != 24:
        raise RuntimeError(f"Clifford closure produced {len(found)} elements")
    out = np.array(found)
    out.setflags(write=False)
    return out
