"""Exact dense state vectors: the ground-truth engine for every symbolic claim.

Index convention: the qubit at position 0 is the most significant bit, so for
labels (q0, q1, q2, q3) the amplitude of |x0 x1 x2 x3> sits at index
8*x0 + 4*x1 + 2*x2 + x3.  Tolerances are absolute, ATOL = 1e-9, and a norm may
be ATOL off 1: "exact" equality is component-wise, and s, t match up to phase
iff |<s|t>| >= ||s|| ||t|| - ATOL (Cauchy-Schwarz caps it), as in lc_search.
States are compared by position; differing labels or orders raise ValueError.

Graph states are built by one batched kernel, also used by the orbit check in
:mod:`graphstab.lc`: amplitude x of |G> is 2^{-n/2} (-1)^{q(x)}, where q(x)
counts the edges of G with both ends set in x.

The module holds no paper data: the chi00 state and its graphs are built in
:mod:`graphstab.verify`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Sequence

import numpy as np

from .graphs import Graph
from .localops import ATOL, MAX_QUBITS, LocalUnitary
from .pauli import PauliString, StabilizerSet


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


@lru_cache(maxsize=MAX_QUBITS)
def _bit_table(n: int) -> np.ndarray:
    """Read-only float32 (n, 2^n) table: entry (i, x) is bit i of x, position 0 most significant."""
    j = np.arange(n, dtype=np.int32)
    bits = (np.arange(2**n, dtype=np.int32) >> (n - 1 - j)[:, None] & 1).astype(np.float32)
    bits.setflags(write=False)
    return bits


@lru_cache(maxsize=MAX_QUBITS)
def _walsh_table(n: int) -> np.ndarray:
    """Read-only float64 (2^n, 2^n) table: entry (x, b) is (-1)^popcount(x & b)."""
    bits = _bit_table(n)
    table = 1.0 - 2.0 * ((bits.T @ bits).astype(np.int64) & 1)  # float32 counts <= n are exact
    table.setflags(write=False)
    return table


def _pauli_spectrum(s: StateVector) -> np.ndarray:
    """The 4^n magnitudes |<s|P|s>| over all Paulis P, sorted ascending.

    Up to sign, <s| X^a Z^b |s> = sum_x s*(x) s(x ^ a) (-1)^popcount(x & b):
    row a of the correlations corr[a, x] = s*(x) s(x ^ a) times column b of
    the Walsh table.  Local Cliffords permute the Paulis up to sign, so
    local-Clifford-equivalent states have equal spectra (Van den Nest,
    Dehaene, De Moor, PRA 69, 022316 (2004)).
    """
    x = np.arange(s.amps.size)
    corr = s.amps.conj() * s.amps[x[:, None] ^ x]
    return np.sort(np.abs(corr @ _walsh_table(s.n)), axis=None)


def _graph_state_amps(rows: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """Real (M, 2^n) amplitudes of the graph states whose adjacency rows are rows[k].

    Amplitude x is 2^{-n/2} (-1)^{q(x)}, where q(x) = sum_i x_i |x & upper_i|
    counts the edges with both ends set in x, upper_i being the neighbors of
    vertex i at later positions (position 0 the most significant bit of x).
    Hein, Eisert, Briegel, PRA 69, 062311 (2004), quant-ph/0307130.  The bit
    table and the counts are float32, exact since every value is an integer
    below 2^24, so the (n, 2^n) arrays take half the memory of float64; the
    table is built once per n.
    """
    j = np.arange(n, dtype=np.int32)
    bits = _bit_table(n)
    adjacency = np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * n).reshape(-1, n, 1)
    upper = (adjacency >> j & (j > j[:, None])).astype(np.float32)  # bit j of row i, for j > i
    counts = (upper.reshape(-1, n) @ bits).reshape(len(rows), n, 2**n)  # |x & upper_i|
    q = np.einsum("mix,ix->mx", counts, bits).astype(np.int64)
    return (1 - 2 * (q & 1)) * 2 ** (-n / 2)


def build_graph_state(g: Graph) -> StateVector:
    """|G> = prod over edges of CZ |+>^n, from the parity of the edges set in each basis state."""
    if g.n > MAX_QUBITS:
        raise ValueError(f"graph has {g.n} vertices, dense limit is {MAX_QUBITS}")
    return StateVector(g.names, _graph_state_amps([g.rows], g.n)[0])


def _apply_factor(amps: np.ndarray, mat: np.ndarray, pos: int, n: int) -> np.ndarray:
    """`mat` on qubit `pos` of n-qubit amplitudes: the one np.dot that
    np.tensordot(mat, amps, axes=([1], [pos])) performs, without its overhead."""
    order = [pos, *range(pos), *range(pos + 1, n)]
    out = np.dot(mat, amps.reshape([2] * n).transpose(order).reshape(2, -1))
    return out.reshape(2, 2**pos, -1).transpose(1, 0, 2).reshape(-1)


def apply_local(u: LocalUnitary, s: StateVector) -> StateVector:
    """u applied to s; never raises if |norm(s) - 1| <= ATOL/2 (see localops._UNITARY_TOL)."""
    if u.n != s.n:
        raise ValueError("qubit counts differ")
    amps = s.amps
    for pos, f in enumerate(u.factors):
        amps = _apply_factor(amps, f, pos, s.n)
    return StateVector(s.names, u.global_phase * amps)


def apply_pauli(p: PauliString, s: StateVector) -> StateVector:
    """Exact action of a signed Pauli: amplitude y of i^k X^x Z^z |s> is
    i^k (-1)^popcount((y ^ x) & z) s(y ^ x), masks read as amplitude indices."""
    if p.n != s.n:
        raise ValueError("qubit counts differ")
    q = np.arange(s.n)
    x = int(np.sum((p.x >> q & 1) << (s.n - 1 - q)))
    parity = ((p.z >> q & 1).astype(np.float32) @ _bit_table(s.n)).astype(np.int64) & 1
    signed = (1 - 2 * parity) * s.amps  # Z^z
    return StateVector(s.names, (1j**p.phase_exp) * signed[np.arange(s.amps.size) ^ x])


def _check_same_qubits(s: StateVector, t: StateVector) -> None:
    """Raise ValueError unless s and t list the same labels in the same order."""
    if s.n != t.n:
        raise ValueError("qubit counts differ")
    if s.names != t.names:
        raise ValueError(f"qubit orders differ: {s.names} and {t.names}")


def expectation(p: PauliString, s: StateVector) -> float:
    """<s| p |s>, demanded real within tolerance; requires hermitian p."""
    if not p.is_hermitian:
        raise ValueError(f"Pauli {p.to_text()!r} is not hermitian")
    val = np.vdot(s.amps, apply_pauli(p, s).amps)
    if abs(val.imag) > ATOL:
        raise AssertionError(f"expectation has imaginary part {val.imag:.3e}")
    return float(val.real)


def max_residual(s: StateVector, t: StateVector) -> float:
    _check_same_qubits(s, t)
    return float(np.max(np.abs(s.amps - t.amps)))


def _match_floor(s: StateVector, t: StateVector) -> float:
    """||s|| ||t|| - ATOL: the least |<t|U s>| that is a match, for U unitary."""
    return float(np.linalg.norm(s.amps) * np.linalg.norm(t.amps)) - ATOL


def equal_up_to_global_phase(s: StateVector, t: StateVector) -> bool:
    """True iff |<s|t>| >= ||s|| ||t|| - ATOL, the match rule of this module."""
    _check_same_qubits(s, t)
    return abs(complex(np.vdot(s.amps, t.amps))) >= _match_floor(s, t)


def stabilizes(sset: StabilizerSet, s: StateVector) -> bool:
    """True iff every generator fixes the state component-wise, within ATOL."""
    if sset.n != s.n:
        raise ValueError("qubit counts differ")
    return all(max_residual(apply_pauli(k, s), s) <= ATOL for k in sset.generators)
