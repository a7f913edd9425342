"""Signed multi-qubit Pauli operators in binary symplectic form.

A Pauli is stored as two bitmasks plus a power of i:

    operator = i**phase_exp * prod_q X_q^{x_q} Z_q^{z_q}

with Y = i X Z, so the letter Y at one qubit contributes (x=1, z=1) and one
factor of i absorbed into ``phase_exp``.  Bit q of a mask is the qubit at
position q; positions follow the owning graph/state's vertex order.

Conjugation by a local Clifford reads the images of X and Z under the factors
it needs off one batched dense 2x2 conjugation and multiplies them
symbolically.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import MAX_VERTICES
from .localops import ATOL, PAULI_MATS, LocalUnitary

_LETTER_BITS = {"I": (0, 0, 0), "X": (1, 0, 0), "Y": (1, 1, 1), "Z": (0, 1, 0)}
_PHASE_TEXT = {0: "", 1: "+i", 2: "-", 3: "-i"}


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

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix (n <= MAX_QUBITS)."""
        factors = [PAULI_MATS[letter] for letter in self.letters]
        return LocalUnitary(1j ** self._letter_phase(), factors).dense()


def multiply(p: PauliString, *more: PauliString) -> PauliString:
    """Exact operator product of one or more factors, left to right, with accumulated phase."""
    out = p
    for factor in more:
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


def _dependencies(rows: Sequence[int]) -> list[int]:
    """A basis of the GF(2) dependencies among `rows`, one per dependent row.

    Each basis vector is a bitmask of row indices whose rows XOR to zero: a
    row that reduces to zero against the rows before it, plus the earlier
    independent rows it is the sum of.  Which rows are independent depends
    only on row order, so the basis does not depend on the pivoting.
    """
    pivots: dict[int, tuple[int, int]] = {}  # leading bit -> (reduced row, combo)
    basis = []
    for i, row in enumerate(rows):
        combo = 1 << i
        while row:
            msb = row.bit_length() - 1
            if msb not in pivots:
                pivots[msb] = (row, combo)
                break
            prow, pcombo = pivots[msb]
            row ^= prow
            combo ^= pcombo
        else:
            basis.append(combo)
    return basis


def independent(paulis: Sequence[PauliString]) -> bool:
    """True iff the (x||z) rows are linearly independent over GF(2)."""
    ns = {p.n for p in paulis}
    if len(ns) > 1:
        raise ValueError("qubit counts differ")
    return not _dependencies([(p.x << p.n) | p.z for p in paulis])


# the six signed one-qubit Paulis, in the order a factor's images are matched
_SIGNED_MATS = np.array([sign * PAULI_MATS[letter] for letter in "XYZ" for sign in (1, -1)])
_SIGNED_PAULIS = tuple(PauliString.from_letters(letter, sign) for letter in "XYZ" for sign in (1, -1))
_X_Z = np.array([PAULI_MATS["X"], PAULI_MATS["Z"]])


def _clifford_images(fs: np.ndarray) -> np.ndarray:
    """f X f+ and f Z f+ for each factor f of a (k, 2, 2) stack, as (k, 2) indices.

    An index points into the six signed Paulis (X, -X, Y, -Y, Z, -Z): the
    first one within ATOL in every entry, or -1 if the image is none of them.
    """
    images = fs[:, None] @ _X_Z @ fs.conj().swapaxes(1, 2)[:, None]  # (k, 2, 2, 2)
    hits = np.max(np.abs(images[:, :, None] - _SIGNED_MATS), axis=(3, 4)) <= ATOL  # (k, 2, 6)
    return np.where(hits.any(axis=2), hits.argmax(axis=2), -1)


def conjugate_by_local(u: LocalUnitary, p: PauliString) -> PauliString:
    """The exact signed Pauli U p U+, for a local Clifford U.

    The images of X and Z under each factor that `p` touches come from one
    batched dense 2x2 conjugation and are multiplied symbolically, so the
    global phase of `u` never enters.  A factor there that does not map X and
    Z to signed Paulis raises, naming the qubit.
    """
    if u.n != p.n:
        raise ValueError("qubit counts differ")
    touched = [q for q in range(p.n) if (p.x | p.z) >> q & 1]
    phase = p.phase_exp
    x_out = z_out = 0
    for q, indices in zip(touched, _clifford_images(u.factors[touched]).tolist()):
        if -1 in indices:
            raise ValueError(f"factor on qubit {q} is not a Clifford")
        bits = (p.x >> q & 1, p.z >> q & 1)
        image = multiply(*(_SIGNED_PAULIS[i] for i, bit in zip(indices, bits) if bit))
        phase += image.phase_exp
        x_out |= image.x << q
        z_out |= image.z << q
    return PauliString(p.n, x_out, z_out, phase)
