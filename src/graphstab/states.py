"""Exact dense state vectors: the ground-truth engine for every symbolic claim.

Index convention: the qubit at position 0 is the most significant bit, so for
labels (A3, A4, B1, B2) the amplitude of |a3 a4 b1 b2> sits at index
8*a3 + 4*a4 + 2*b1 + b2.  All comparisons use absolute tolerance 1e-9;
"exact" equality means component-wise agreement including global phase.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import Graph
from .localops import ATOL, MAX_QUBITS, LocalUnitary
from .pauli import PauliString


@dataclass(frozen=True, eq=False)
class StateVector:
    names: tuple[str, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.names)
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")
        if len(set(self.names)) != n:
            raise ValueError("qubit labels must be unique")
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if amps.size != 2**n:
            raise ValueError(f"expected {2**n} amplitudes, got {amps.size}")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= ATOL:  # also rejects NaN and inf
            raise ValueError(f"state is not normalized (|norm-1| = {abs(norm-1.0):.3e})")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "amps", amps)

    @property
    def n(self) -> int:
        return len(self.names)

    def position(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown qubit label {name!r}") from None


def build_chi00() -> StateVector:
    """The four-qubit state on (A3, A4, B1, B2) with the eight +-1/(2*sqrt2) amplitudes."""
    a = 1.0 / (2.0 * math.sqrt(2.0))
    amps = np.zeros(16, dtype=complex)
    for idx in (0b0000, 0b0110, 0b1001, 0b1010, 0b1100, 0b1111):
        amps[idx] = a
    for idx in (0b0011, 0b0101):
        amps[idx] = -a
    return StateVector(("A3", "A4", "B1", "B2"), amps)


def plus_state(names: Iterable[str]) -> StateVector:
    names = tuple(names)
    n = len(names)
    return StateVector(names, np.full(2**n, 2 ** (-n / 2), dtype=complex))


def build_graph_state(g: Graph) -> StateVector:
    """Controlled-phase gates over every edge, applied to |+>^n."""
    if g.n > MAX_QUBITS:
        raise ValueError(f"graph has {g.n} vertices, dense limit is {MAX_QUBITS}")
    s = plus_state(g.names)
    for a, b in g.edges():
        s = apply_controlled_phase(s, a, b)
    return s


def apply_controlled_phase(s: StateVector, a: str, b: str) -> StateVector:
    """Negate every amplitude whose bits at `a` and `b` are both 1."""
    if a == b:
        raise ValueError(f"controlled-phase needs two distinct qubits, got {a!r} twice")
    pa, pb = s.position(a), s.position(b)
    t = s.amps.reshape([2] * s.n).copy()
    idx: list[object] = [slice(None)] * s.n
    idx[pa] = 1
    idx[pb] = 1
    t[tuple(idx)] *= -1
    return StateVector(s.names, t.reshape(-1))


def _apply_factor(amps: np.ndarray, mat: np.ndarray, pos: int, n: int) -> np.ndarray:
    t = amps.reshape([2] * n)
    t = np.tensordot(mat, t, axes=([1], [pos]))
    return np.moveaxis(t, 0, pos).reshape(-1)


def apply_local(u: LocalUnitary, s: StateVector) -> StateVector:
    if u.n != s.n:
        raise ValueError("qubit counts differ")
    amps = s.amps
    for pos, f in enumerate(u.factors):
        amps = _apply_factor(amps, f, pos, s.n)
    return StateVector(s.names, u.global_phase * amps)


def apply_pauli(p: PauliString, s: StateVector) -> StateVector:
    """Exact action of a signed Pauli, including its i**phase_exp."""
    if p.n != s.n:
        raise ValueError("qubit counts differ")
    t = s.amps.reshape([2] * s.n).copy()
    for q in range(s.n):
        if p.z >> q & 1:
            idx: list[object] = [slice(None)] * s.n
            idx[q] = 1
            t[tuple(idx)] *= -1
    for q in range(s.n):
        if p.x >> q & 1:
            t = np.flip(t, axis=q)
    return StateVector(s.names, (1j**p.phase_exp) * t.reshape(-1))


def overlap(s: StateVector, t: StateVector) -> complex:
    if s.n != t.n:
        raise ValueError("qubit counts differ")
    return complex(np.vdot(s.amps, t.amps))


def expectation(p: PauliString, s: StateVector) -> float:
    """<s| p |s>, demanded real within tolerance; requires hermitian p."""
    if not p.is_hermitian:
        raise ValueError(f"Pauli {p.to_text()!r} is not hermitian")
    val = np.vdot(s.amps, apply_pauli(p, s).amps)
    if abs(val.imag) > ATOL:
        raise AssertionError(f"expectation has imaginary part {val.imag:.3e}")
    return float(val.real)


def allclose(s: StateVector, t: StateVector, atol: float = ATOL) -> bool:
    """Component-wise equality, global phase included."""
    return s.n == t.n and bool(np.max(np.abs(s.amps - t.amps)) <= atol)


def max_residual(s: StateVector, t: StateVector) -> float:
    return float(np.max(np.abs(s.amps - t.amps)))


def equal_up_to_global_phase(s: StateVector, t: StateVector, atol: float = ATOL) -> bool:
    """True iff |<s|t>| = 1 within tolerance (both states are unit norm)."""
    return abs(abs(overlap(s, t)) - 1.0) <= atol


# --- JSON interchange ---

def state_to_dict(s: StateVector) -> dict:
    return {
        "n": s.n,
        "order": list(s.names),
        "amps": [[float(a.real), float(a.imag)] for a in s.amps],
    }


def state_from_dict(data: object) -> StateVector:
    if not isinstance(data, dict):
        raise ValueError("state document must be a JSON object")
    for field in ("n", "order", "amps"):
        if field not in data:
            raise ValueError(f"missing field {field!r}")
    n, order, amps = data["n"], data["order"], data["amps"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("field 'n' must be an integer")
    if not isinstance(order, list) or not all(isinstance(v, str) for v in order):
        raise ValueError("field 'order' must be a list of strings")
    if len(order) != n:
        raise ValueError(f"field 'n' ({n}) disagrees with 'order' length ({len(order)})")
    if not isinstance(amps, list):
        raise ValueError("field 'amps' must be a list of [re, im] pairs")
    if len(amps) != 2**n:
        raise ValueError(f"field 'amps': expected {2**n} entries, got {len(amps)}")
    values = np.empty(2**n, dtype=complex)
    for k, pair in enumerate(amps):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)):
            raise ValueError(f"amps[{k}]: expected a [re, im] pair")
        try:
            values[k] = complex(pair[0], pair[1])
        except OverflowError:
            raise ValueError(f"amps[{k}]: number too large for a float") from None
    with np.errstate(over="ignore"):  # a norm past float range is inf, which StateVector rejects
        return StateVector(tuple(order), values)
