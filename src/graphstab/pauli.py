"""Signed multi-qubit Pauli operators in binary symplectic form.

A Pauli is stored as two bitmasks plus a power of i:

    operator = i**phase_exp * prod_q X_q^{x_q} Z_q^{z_q}

with Y = i X Z, so the letter Y at one qubit contributes (x=1, z=1) and one
factor of i absorbed into ``phase_exp``.  Bit q of a mask is the qubit at
position q; positions follow the owning graph/state's vertex order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import MAX_VERTICES
from .localops import MAX_QUBITS, PAULI_MATS, LocalUnitary, clifford_pauli_action

_LETTER_BITS = {"I": (0, 0, 0), "X": (1, 0, 0), "Y": (1, 1, 1), "Z": (0, 1, 0)}
_PHASE_TEXT = {0: "", 1: "+i", 2: "-", 3: "-i"}
_TEXT_PHASE = {"": 0, "+": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}


def _mul1(p1: int, x1: int, z1: int, p2: int, x2: int, z2: int) -> tuple[int, int, int]:
    # (i^p1 X^x1 Z^z1)(i^p2 X^x2 Z^z2): moving X^x2 past Z^z1 costs (-1) per overlap bit
    return (p1 + p2 + 2 * (z1 & x2).bit_count()) % 4, x1 ^ x2, z1 ^ z2


@dataclass(frozen=True)
class PauliString:
    n: int
    x: int
    z: int
    phase_exp: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"qubit count must be in 1..{MAX_VERTICES}, got {self.n}")
        for mask in (self.x, self.z):
            if mask < 0 or mask >> self.n:
                raise ValueError("bitmask addresses qubits outside 0..n-1")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_letters(cls, letters: str, sign: int = 1) -> "PauliString":
        """Build from one of IXYZ per qubit in position order, times +-1."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        x = z = phase = 0
        for q, letter in enumerate(letters):
            try:
                xq, zq, pq = _LETTER_BITS[letter]
            except KeyError:
                raise ValueError(f"unknown Pauli letter {letter!r}") from None
            x |= xq << q
            z |= zq << q
            phase += pq
        if sign < 0:
            phase += 2
        return cls(len(letters), x, z, phase % 4)

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse '-ZXIX' style text: optional {+,-,+i,-i} then IXYZ letters."""
        s = text.strip().replace("−", "-")
        prefix = ""
        while s and s[0] in "+-i":
            prefix += s[0]
            s = s[1:]
        if prefix not in _TEXT_PHASE:
            raise ValueError(f"bad sign prefix in {text!r}")
        if not s:
            raise ValueError(f"no Pauli letters in {text!r}")
        p = cls.from_letters(s)
        return cls(p.n, p.x, p.z, (p.phase_exp + _TEXT_PHASE[prefix]) % 4)

    # --- views ---

    def letter(self, q: int) -> str:
        xq, zq = self.x >> q & 1, self.z >> q & 1
        return "IXZY"[xq + 2 * zq]

    @property
    def letters(self) -> str:
        return "".join(self.letter(q) for q in range(self.n))

    def _letter_phase(self) -> int:
        # i**value relative to the IXYZ letter form (each Y absorbs one i)
        return (self.phase_exp - (self.x & self.z).bit_count()) % 4

    @property
    def is_hermitian(self) -> bool:
        return self._letter_phase() in (0, 2)

    @property
    def sign(self) -> int:
        lp = self._letter_phase()
        if lp == 0:
            return 1
        if lp == 2:
            return -1
        raise ValueError("Pauli has imaginary phase, no real sign")

    def to_text(self) -> str:
        return _PHASE_TEXT[self._letter_phase()] + self.letters

    def __str__(self) -> str:
        return self.to_text()

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix (n <= MAX_QUBITS)."""
        if self.n > MAX_QUBITS:
            raise ValueError(f"dense form limited to {MAX_QUBITS} qubits")
        out = np.array([[1j ** self._letter_phase()]], dtype=complex)
        for q in range(self.n):
            out = np.kron(out, PAULI_MATS[self.letter(q)])
        return out

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)


def multiply(p: PauliString, q: PauliString, *more: PauliString) -> PauliString:
    """Exact operator product, left to right, with accumulated phase."""
    out = p
    for factor in (q, *more):
        if factor.n != out.n:
            raise ValueError("qubit counts differ")
        phase, x, z = _mul1(out.phase_exp, out.x, out.z,
                            factor.phase_exp, factor.x, factor.z)
        out = PauliString(out.n, x, z, phase)
    return out


def commutes(p: PauliString, q: PauliString) -> bool:
    """Symplectic inner product (x_p.z_q + z_p.x_q) mod 2 == 0."""
    if p.n != q.n:
        raise ValueError("qubit counts differ")
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) % 2 == 0


def independent(paulis: Sequence[PauliString]) -> bool:
    """True iff the (x||z) rows are linearly independent over GF(2)."""
    ns = {p.n for p in paulis}
    if len(ns) > 1:
        raise ValueError("qubit counts differ")
    pivots: dict[int, int] = {}
    for p in paulis:
        row = (p.x << p.n) | p.z
        while row:
            msb = row.bit_length() - 1
            if msb in pivots:
                row ^= pivots[msb]
            else:
                pivots[msb] = row
                break
        else:
            return False
    return True


def conjugate_by_local(u: LocalUnitary, p: PauliString) -> PauliString:
    """The exact signed Pauli U p U+, for a local Clifford U.

    Each factor's action is read off dense 2x2 conjugation and applied
    symbolically, so the global phase of `u` never enters.  A factor that
    does not map Paulis to signed Paulis raises, naming the qubit.
    """
    if u.n != p.n:
        raise ValueError("qubit counts differ")
    phase = p.phase_exp
    x_out = z_out = 0
    for q in range(p.n):
        xq, zq = p.x >> q & 1, p.z >> q & 1
        if not (xq or zq):
            continue
        action = clifford_pauli_action(u.factors[q])
        if action is None:
            raise ValueError(f"factor on qubit {q} is not a Clifford")
        (sx, lx), (sz, lz) = action
        acc = (0, 0, 0)
        if xq:
            bx, bz, bp = _LETTER_BITS[lx]
            acc = _mul1(*acc, (bp + (0 if sx > 0 else 2)) % 4, bx, bz)
        if zq:
            bx, bz, bp = _LETTER_BITS[lz]
            acc = _mul1(*acc, (bp + (0 if sz > 0 else 2)) % 4, bx, bz)
        phase = (phase + acc[0]) % 4
        x_out |= acc[1] << q
        z_out |= acc[2] << q
    return PauliString(p.n, x_out, z_out, phase)
