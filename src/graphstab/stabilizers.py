"""Stabilizer generator sets of graph states and their local-Clifford conjugates."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph
from .localops import LocalUnitary
from .pauli import PauliString, commutes, conjugate_by_local, independent
from .states import StateVector, allclose, apply_pauli


@dataclass(frozen=True)
class StabilizerSet:
    """Hermitian, pairwise-commuting, GF(2)-independent generators."""

    generators: tuple[PauliString, ...]

    def __post_init__(self) -> None:
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise ValueError("need at least one generator")
        for g in gens:
            if not g.is_hermitian:
                raise ValueError(f"generator {g.to_text()!r} is not hermitian")
        for a, b in combinations(gens, 2):
            if not commutes(a, b):
                raise ValueError(f"generators {a.to_text()!r} and {b.to_text()!r} anticommute")
        if not independent(gens):
            raise ValueError("generators are dependent over GF(2)")

    @property
    def n(self) -> int:
        return self.generators[0].n


def graph_generators(g: Graph) -> StabilizerSet:
    """One generator per vertex: X there, Z on each neighbor, sign +1."""
    gens = []
    for i in range(g.n):
        x = 1 << i
        z = g.rows[i]
        gens.append(PauliString(g.n, x, z, 0))
    return StabilizerSet(tuple(gens))


def stabilizes(sset: StabilizerSet, s: StateVector) -> bool:
    """True iff every generator fixes the state component-wise, within ATOL."""
    if sset.n != s.n:
        raise ValueError("qubit counts differ")
    return all(allclose(apply_pauli(k, s), s) for k in sset.generators)


def conjugate_set(u: LocalUnitary, sset: StabilizerSet) -> StabilizerSet:
    """Element-wise U K U+; the result is validated as a stabilizer set again."""
    return StabilizerSet(tuple(conjugate_by_local(u, k) for k in sset.generators))
