"""graphstab: exact verification toolkit for graph states, stabilizer groups,
local-Clifford equivalence, and GHZ-type nonlocality arguments.

Two independent engines back every claim: dense state vectors (module
``states``) and symbolic Pauli algebra (module ``pauli``).  The paper's
scenario, chi00 on (A3, A4, B1, B2), lives in ``verify`` beside the
verification battery that cross-checks the two engines on it.
"""

from .entanglement import Bipartition, entropy, is_product_across, reduce
from .graphs import Graph, canonical_key, local_complement
from .lc import (EquivalenceWitness, OrbitMember, OrbitReport, enumerate_orbit,
                 lc_search, tau_unitary)
from .localops import LocalUnitary, single_qubit_cliffords
from .nonlocality import (CorrelationConstraint, constraint_from_pauli,
                          lhv_contradiction_certificate, lhv_solve_exhaustive,
                          quantum_check)
from .pauli import (PauliString, StabilizerSet, commutes, conjugate_by_local, conjugate_set,
                    graph_generators, independent, multiply)
from .states import (StateVector, apply_local, apply_pauli, build_graph_state,
                     equal_up_to_global_phase, expectation, stabilizes)
from .verify import VerificationReport, build_chi00, verify_all

__version__ = "0.1.0"

__all__ = [
    "Bipartition", "CorrelationConstraint", "EquivalenceWitness",
    "Graph", "LocalUnitary", "OrbitMember", "OrbitReport", "PauliString",
    "StabilizerSet", "StateVector", "VerificationReport",
    "apply_local", "apply_pauli", "build_chi00",
    "build_graph_state", "canonical_key", "commutes", "conjugate_by_local",
    "conjugate_set", "constraint_from_pauli", "entropy", "enumerate_orbit",
    "equal_up_to_global_phase", "expectation", "graph_generators", "independent",
    "is_product_across", "lc_search", "lhv_contradiction_certificate",
    "lhv_solve_exhaustive", "local_complement", "multiply",
    "quantum_check", "reduce", "single_qubit_cliffords", "stabilizes",
    "tau_unitary", "verify_all",
]
