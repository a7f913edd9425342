"""The paper's scenario and the battery that checks it, in one module.

The scenario is the four-qubit chi00 state on qubits (A3, A4, B1, B2):
the two reference graphs, the local unitary relating |G_b> to chi00, both
stabilizer generator sets, the four correlation settings, and the expected
texts, signs and entropies.  The engines elsewhere in the package are
general; this module is the only one that knows the paper's data.

The battery, :func:`verify_all`, runs every identity the toolkit exists to
reproduce through both engines, with one report entry per check.  Each check
carries a stable anchor string for traceability; the report is
deterministic, so `verify-all --json` output is byte-identical across runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import Bipartition, entropy, is_product_across, reduce
from .graphs import Graph, local_complement
from .lc import lc_search, tau_unitary
from .localops import ATOL, HADAMARD, PAULI_MATS, LocalUnitary
from .nonlocality import (CorrelationConstraint, constraint_from_pauli,
                          lhv_contradiction_certificate, lhv_solve_exhaustive, quantum_check)
from .pauli import (PauliString, StabilizerSet, commutes, conjugate_set, graph_generators,
                    independent, multiply)
from .states import StateVector, apply_local, build_graph_state, max_residual, stabilizes

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


def build_chi00() -> StateVector:
    """The four-qubit state on QUBITS with the eight +-1/(2*sqrt2) amplitudes."""
    a = 1.0 / (2.0 * math.sqrt(2.0))
    amps = np.zeros(16, dtype=complex)
    for idx in (0b0000, 0b0110, 0b1001, 0b1010, 0b1100, 0b1111):
        amps[idx] = a
    for idx in (0b0011, 0b0101):
        amps[idx] = -a
    return StateVector(QUBITS, amps)


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


@dataclass(frozen=True)
class CheckResult:
    name: str
    anchor: str
    passed: bool
    details: dict


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_all() -> VerificationReport:
    """Run the full battery at amplitude tolerance ATOL."""
    checks: list[CheckResult] = []
    ga = graph_a()
    gb = graph_b()
    chi = build_chi00()
    state_a = build_graph_state(ga)
    state_b = build_graph_state(gb)
    u_chi = chi00_unitary()

    # Local complementation takes the 4-cycle to the graph whose generators
    # are the canonical ones.
    complemented = local_complement(ga, "A4")
    checks.append(CheckResult(
        "local-complementation", "Eq. (8)",
        tuple(k.to_text() for k in graph_generators(complemented).generators)
        == GENERATOR_LETTERS
        and complemented.edges() == gb.edges(),
        {"edges": [list(e) for e in complemented.edges()]},
    ))

    # The tau unitary maps |G_a> to |G_b> exactly, global phase included.
    tau = tau_unitary(ga, "A4")
    resid_tau = max_residual(apply_local(tau, state_a), state_b)
    checks.append(CheckResult(
        "tau-unitary-exact", "Eq. (9)", resid_tau <= ATOL, {"residual": resid_tau}))

    # Z(A3) (Z H)(B2) maps |G_b> to chi00 exactly, and the brute-force
    # Clifford search independently finds a witness.
    resid_chi = max_residual(apply_local(u_chi, state_b), chi)
    witness = lc_search(state_b, chi)
    witness_resid = (max_residual(apply_local(witness.unitary, state_b), chi)
                     if witness.found else float("inf"))
    checks.append(CheckResult(
        "chi00-from-graph-state", "Eq. (10)",
        resid_chi <= ATOL and witness.found and witness_resid <= ATOL,
        {"residual": resid_chi, "search_found": witness.found,
         "search_residual": witness_resid},
    ))

    # Canonical generators: exact texts, commuting, independent, stabilizing.
    gens = plain_generators()
    texts = tuple(k.to_text() for k in gens.generators)
    ok_gens = (
        texts == GENERATOR_LETTERS
        and all(commutes(a, b) for a in gens.generators for b in gens.generators)
        and independent(gens.generators)
        and stabilizes(gens, state_b)
    )
    checks.append(CheckResult(
        "graph-generators", "Eqs. (11)-(14)", ok_gens, {"generators": list(texts)}))

    # Conjugated generators: symbolic signs, cross-checked against dense
    # matrix conjugation.
    conj = conjugated_generators()
    got_signs = tuple(k.sign for k in conj.generators)
    got_letters = tuple(k.letters for k in conj.generators)
    u_dense = u_chi.dense()
    dense_ok = True
    dense_resid = 0.0
    for plain_k, conj_k in zip(gens.generators, conj.generators):
        img = u_dense @ plain_k.to_matrix() @ u_dense.conj().T
        r = float(np.max(np.abs(img - conj_k.to_matrix())))
        dense_resid = max(dense_resid, r)
        dense_ok = dense_ok and r <= ATOL
    checks.append(CheckResult(
        "conjugated-generators", "Eqs. (15)-(18)",
        got_signs == CONJUGATED_SIGNS
        and got_letters == CONJUGATED_LETTERS
        and dense_ok,
        {"generators": [k.to_text() for k in conj.generators],
         "signs": list(got_signs), "dense_residual": dense_resid},
    ))

    # Every conjugated generator fixes the chi00 state.
    checks.append(CheckResult(
        "chi00-stabilized", "Eq. (19)", stabilizes(conj, chi),
        {"generators": [k.to_text() for k in conj.generators]}))

    # Product of conjugated generators 1, 2, 4.
    k = conj.generators
    product = multiply(k[0], k[1], k[3])
    want = PauliString.from_letters(SETTING_PRODUCT_LETTERS,
                                    SETTING_PRODUCT_SIGN)
    checks.append(CheckResult(
        "setting-product", "Eq. (20)", product == want, {"product": product.to_text()}))

    # Quantum predictions for the four measurement settings.
    origins = ghz_origins()
    constraints = ghz_constraints()
    report = quantum_check(chi, constraints, origins)
    checks.append(CheckResult(
        "quantum-correlations", "Eqs. (21)-(24)", report.all_satisfied,
        {"expectations": [e.expectation for e in report.entries],
         "constraints": [e.constraint.to_text() for e in report.entries]},
    ))

    # No deterministic local assignment satisfies all four constraints; the
    # algebraic certificate is the full parity clash, and dropping any single
    # constraint restores satisfiability.
    sat, _ = lhv_solve_exhaustive(constraints)
    contradiction, subset = lhv_contradiction_certificate(constraints)
    drops_ok = True
    for i in range(len(constraints)):
        rest = [c for j, c in enumerate(constraints) if j != i]
        drops_ok = drops_ok and lhv_solve_exhaustive(rest)[0]
    # the same clash at the Pauli level: the product of the subset's origins
    # has the sign opposite to its constraints' sign product
    clash = contradiction and (multiply(*(origins[i] for i in subset)).sign
                               != math.prod(constraints[i].sign for i in subset))
    checks.append(CheckResult(
        "lhv-contradiction", "Eq. (25)",
        (not sat) and contradiction and subset == (0, 1, 2, 3) and drops_ok and clash,
        {"satisfiable": sat, "certificate_subset": list(subset),
         "single_drops_satisfiable": drops_ok},
    ))

    # Entanglement pattern: entropies (2, 2, 1) bits across the three
    # pairings, no pairing is a product cut, and the two graph states agree.
    ent_details: dict = {"entropies": {}}
    ent_ok = True
    for side, want_bits in zip(ENTROPY_CUTS, ENTROPY_BITS):
        cut = Bipartition.of(chi, side)
        rhos = [reduce(state, cut) for state in (chi, state_a, state_b)]
        values = [entropy(rho) for rho in rhos]
        ent_details["entropies"][",".join(side)] = values
        ent_ok = ent_ok and all(abs(v - want_bits) <= ATOL for v in values)
        ent_ok = ent_ok and not is_product_across(rhos[0])
    checks.append(CheckResult(
        "entanglement-pattern", "entanglement (2,2,1)", ent_ok, ent_details))

    return VerificationReport(tuple(checks))
