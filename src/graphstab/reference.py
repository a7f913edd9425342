"""The built-in four-qubit reference scenario on qubits (A3, A4, B1, B2).

Everything the verification battery and the `ghz-check` command need:
the two reference graphs, the local unitary relating |G_b> to the chi00
state, both stabilizer generator sets, and the four correlation settings.
"""
from __future__ import annotations

from .graphs import Graph
from .localops import PAULI_MATS, HADAMARD, LocalUnitary
from .nonlocality import CorrelationConstraint, constraint_from_pauli
from .pauli import PauliString, StabilizerSet, conjugate_set, graph_generators, multiply

QUBITS = ("A3", "A4", "B1", "B2")

# Expected generator texts in vertex order (signs all +1).
GENERATOR_LETTERS = ("XZZZ", "ZXIZ", "ZIXZ", "ZZZX")
# Expected conjugated generators and their signs.
CONJUGATED_LETTERS = ("XZZX", "ZXIX", "ZIXX", "ZZZZ")
CONJUGATED_SIGNS = (1, -1, -1, 1)
# Expected product of conjugated generators 1, 2 and 4.
SETTING_PRODUCT_LETTERS = "XXIZ"
SETTING_PRODUCT_SIGN = 1
# Entropy pattern: cut sides and values in bits.
ENTROPY_CUTS = (("A3", "A4"), ("A3", "B1"), ("A3", "B2"))
ENTROPY_BITS = (2.0, 2.0, 1.0)


def graph_a() -> Graph:
    """The 4-cycle A3-A4-B2-B1."""
    return Graph.from_edges(QUBITS, [("A3", "A4"), ("B1", "B2"), ("A3", "B1"), ("A4", "B2")])


def graph_b() -> Graph:
    """graph_a with the A3-B2 chord: the local complement of graph_a at A4."""
    return Graph.from_edges(
        QUBITS,
        [("A3", "A4"), ("A3", "B1"), ("A3", "B2"), ("A4", "B2"), ("B1", "B2")])


def chi00_unitary() -> LocalUnitary:
    """Z on A3 and (Z after H) on B2: maps |G_b> to the chi00 state exactly."""
    z, i = PAULI_MATS["Z"], PAULI_MATS["I"]
    return LocalUnitary(1.0, [z, i, i, z @ HADAMARD])


def plain_generators() -> StabilizerSet:
    return graph_generators(graph_b())


def conjugated_generators() -> StabilizerSet:
    return conjugate_set(chi00_unitary(), plain_generators())


def ghz_origins() -> tuple[PauliString, ...]:
    """The four measurement-setting observables: conjugated generators 1, 2, 4
    and their product."""
    k = conjugated_generators().generators
    return (k[0], k[1], k[3], multiply(k[0], k[1], k[3]))


def ghz_constraints() -> tuple[CorrelationConstraint, ...]:
    return tuple(constraint_from_pauli(p, QUBITS) for p in ghz_origins())
