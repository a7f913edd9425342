import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphstab import (CorrelationConstraint, Graph, PauliString, build_graph_state,
                       conjugate_set, constraint_from_pauli, graph_generators,
                       lhv_contradiction_certificate, lhv_solve_exhaustive, multiply,
                       quantum_check)
from graphstab import verify
from graphstab.localops import ATOL, HADAMARD, PAULI_MATS, LocalUnitary
from graphstab.states import StateVector

QUBITS = verify.QUBITS


@st.composite
def systems(draw, max_labels=4, max_constraints=10):
    labels = [f"q{i}" for i in range(draw(st.integers(1, max_labels)))]
    axes = st.sampled_from(("x", "z", None))
    constraints = []
    for _ in range(draw(st.integers(0, max_constraints))):
        picks = [(q, draw(axes)) for q in labels]
        terms = tuple((q, axis) for q, axis in picks if axis)
        constraints.append(CorrelationConstraint(terms, draw(st.sampled_from((1, -1)))))
    return constraints


def holds(c, assignment):
    return math.prod(assignment[term] for term in c.terms) == c.sign


def reference_exhaustive(constraints):
    """One assignment dict per candidate, each constraint checked with holds."""
    labels = sorted({q for c in constraints for q, _ in c.terms})
    pairs = [(q, axis) for q in labels for axis in ("x", "z")]
    for mask in range(2 ** len(pairs)):
        assignment = {pair: -1 if mask >> j & 1 else 1 for j, pair in enumerate(pairs)}
        if all(holds(c, assignment) for c in constraints):
            return True, assignment
    return False, None


def reference_certificate(constraints):
    """Smallest (size, index bitmask) subset whose terms cancel and signs multiply to -1."""
    clashes = []
    for mask in range(1, 2 ** len(constraints)):
        picked = [c for i, c in enumerate(constraints) if mask >> i & 1]
        terms: set = set()
        for c in picked:
            terms ^= set(c.terms)
        if not terms and np.prod([c.sign for c in picked]) == -1:
            clashes.append((len(picked), mask))
    if not clashes:
        return False, ()
    _, mask = min(clashes)
    return True, tuple(i for i in range(len(constraints)) if mask >> i & 1)


def basis_state(index):
    amps = np.zeros(16, dtype=complex)
    amps[index] = 1.0
    return StateVector(QUBITS, amps)


@pytest.fixture(scope="module")
def settings():
    return verify.ghz_constraints(), verify.ghz_origins()


class TestConstraintFromPauli:
    def test_first_setting(self, kbar_set):
        c = constraint_from_pauli(kbar_set.generators[0], QUBITS)
        assert c.terms == (("A3", "x"), ("A4", "z"), ("B1", "z"), ("B2", "x"))
        assert c.sign == 1

    def test_second_setting_carries_minus(self, kbar_set):
        c = constraint_from_pauli(kbar_set.generators[1], QUBITS)
        assert c.terms == (("A3", "z"), ("A4", "x"), ("B2", "x"))
        assert c.sign == -1

    def test_identity_pauli(self):
        c = constraint_from_pauli(PauliString.identity(2), ("a", "b"))
        assert c.terms == ()
        assert c.sign == 1

    def test_rejects_y_factor(self):
        with pytest.raises(ValueError, match="'b'"):
            constraint_from_pauli(PauliString.from_letters("XY"), ("a", "b"))

    def test_rejects_imaginary_sign(self):
        with pytest.raises(ValueError, match="imaginary"):
            constraint_from_pauli(PauliString(2, 1, 0, 1), ("a", "b"))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError, match="label count"):
            constraint_from_pauli(PauliString.identity(2), ("a",))


class TestQuantumCheck:
    def test_chi_satisfies_all_four(self, chi, settings):
        constraints, origins = settings
        report = quantum_check(chi, constraints, origins)
        assert report.all_satisfied
        for entry in report.entries:
            assert entry.expectation == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("k", [0.9, -0.9])
    def test_norm_edge_chi_satisfies_all_four(self, chi, settings, k):
        # <P> of an eigenstate is ||s||^2, about 1 + 1.8 k ATOL here, not 1
        scaled = StateVector(chi.names, (1.0 + k * ATOL) * chi.amps)
        assert quantum_check(scaled, *settings).all_satisfied

    def test_all_zeros_satisfies_all_z_parity(self, settings):
        constraints, origins = settings
        report = quantum_check(basis_state(0b0000), [constraints[2]], [origins[2]])
        assert report.all_satisfied

    def test_odd_parity_violates_all_z(self, settings):
        constraints, origins = settings
        report = quantum_check(basis_state(0b0001), [constraints[2]], [origins[2]])
        assert not report.all_satisfied
        assert report.entries[0].expectation == pytest.approx(-1.0, abs=1e-9)

    def test_stabilized_states_satisfy_their_own_constraints(self):
        rng = np.random.default_rng(3)
        names = tuple(f"q{i}" for i in range(4))
        pairs = list(itertools.combinations(names, 2))
        for _ in range(10):
            g = Graph.from_edges(names, [p for p in pairs if rng.random() < 0.5])
            gens = graph_generators(g).generators
            constraints = [constraint_from_pauli(k, names) for k in gens]
            report = quantum_check(build_graph_state(g), constraints, gens)
            assert report.all_satisfied

    def test_length_mismatch(self, chi, settings):
        constraints, origins = settings
        with pytest.raises(ValueError, match="pair up"):
            quantum_check(chi, constraints[:2], origins)


class TestExhaustiveSolver:
    def test_reference_system_unsatisfiable(self, settings):
        constraints, _ = settings
        satisfiable, witness = lhv_solve_exhaustive(constraints)
        assert not satisfiable and witness is None

    def test_any_three_are_satisfiable(self, settings):
        constraints, _ = settings
        for drop in range(4):
            rest = [c for i, c in enumerate(constraints) if i != drop]
            satisfiable, witness = lhv_solve_exhaustive(rest)
            assert satisfiable
            assert all(holds(c, witness) for c in rest)

    def test_first_three_witness_is_valid(self, settings):
        constraints, _ = settings
        satisfiable, witness = lhv_solve_exhaustive(constraints[:3])
        assert satisfiable
        assert len(witness) == 8  # both axes for all four qubits
        assert all(holds(c, witness) for c in constraints[:3])

    def test_empty_system(self):
        satisfiable, witness = lhv_solve_exhaustive([])
        assert satisfiable and witness == {}

    def test_unmeasured_axes_still_enumerated(self):
        c = CorrelationConstraint((("a", "x"),), 1)
        _, witness = lhv_solve_exhaustive([c])
        assert set(witness) == {("a", "x"), ("a", "z")}

    def test_oversize_universe(self):
        cs = [CorrelationConstraint(((f"q{i}", "x"),), 1) for i in range(9)]
        with pytest.raises(ValueError, match="16"):
            lhv_solve_exhaustive(cs)


@given(constraints=systems())
def test_solvers_match_reference_scans(constraints):
    assert lhv_solve_exhaustive(constraints) == reference_exhaustive(constraints)
    assert lhv_contradiction_certificate(constraints) == reference_certificate(constraints)


class TestCertificate:
    def test_reference_parity_clash(self, settings):
        constraints, _ = settings
        contradiction, subset = lhv_contradiction_certificate(constraints)
        assert contradiction
        assert subset == (0, 1, 2, 3)

    def test_two_settings_are_consistent(self, settings):
        constraints, _ = settings
        contradiction, subset = lhv_contradiction_certificate(constraints[:2])
        assert not contradiction and subset == ()

    def test_duplicated_consistent_constraint(self):
        c = CorrelationConstraint((("a", "x"), ("b", "z")), 1)
        contradiction, _ = lhv_contradiction_certificate([c, c])
        assert not contradiction

    def test_directly_contradictory_pair(self):
        c1 = CorrelationConstraint((("a", "x"),), 1)
        c2 = CorrelationConstraint((("a", "x"),), -1)
        contradiction, subset = lhv_contradiction_certificate([c1, c2])
        assert contradiction and subset == (0, 1)

    def test_basis_fallback_above_scan_cap(self):
        # 18 constraints of rank 1: a 17-dimensional null space, past the scan cap
        agree = CorrelationConstraint((("a", "x"),), 1)
        clash = CorrelationConstraint((("a", "x"),), -1)
        assert lhv_contradiction_certificate([agree] * 17 + [clash]) == (True, (0, 17))

    def test_agrees_with_exhaustive_on_all_reference_subsets(self, settings):
        constraints, _ = settings
        for r in range(len(constraints) + 1):
            for picks in itertools.combinations(range(4), r):
                sub = [constraints[i] for i in picks]
                sat, _ = lhv_solve_exhaustive(sub)
                contradiction, _ = lhv_contradiction_certificate(sub)
                assert sat == (not contradiction)

    def test_agrees_with_exhaustive_on_random_systems(self):
        rnd = random.Random(20251)
        labels = ["a", "b", "c", "d"]
        for _ in range(100):
            constraints = []
            for _ in range(rnd.randint(1, 6)):
                terms = []
                for q in labels:
                    axis = rnd.choice(("x", "z", None))
                    if axis:
                        terms.append((q, axis))
                constraints.append(CorrelationConstraint(tuple(terms), rnd.choice((1, -1))))
            sat, witness = lhv_solve_exhaustive(constraints)
            contradiction, subset = lhv_contradiction_certificate(constraints)
            assert sat == (not contradiction)
            if sat:
                assert all(holds(c, witness) for c in constraints)
            else:
                # the certified subset really is a parity clash
                sign = 1
                incidence: set = set()
                for i in subset:
                    sign *= constraints[i].sign
                    incidence ^= set(constraints[i].terms)
                assert not incidence and sign == -1


class TestPauliLevelConsistency:
    def test_reference_sign_clash(self, settings):
        constraints, origins = settings
        contradiction, subset = lhv_contradiction_certificate(constraints)
        product = multiply(*(origins[i] for i in subset))
        sign_product = math.prod(constraints[i].sign for i in subset)
        assert contradiction
        assert (product.x, product.z) == (0, 0)
        assert product.sign == 1 and sign_product == -1

    def test_co_stabilizing_random_systems(self):
        # constraints derived from conjugated graph stabilizers plus the
        # product over a subset whose product is Y-free: because the origins
        # jointly stabilize a state, the certificate's sign clash must line
        # up with LHV unsatisfiability in every instance
        rng = np.random.default_rng(77)
        letter_preserving = [PAULI_MATS["I"], PAULI_MATS["X"], PAULI_MATS["Z"], HADAMARD,
                             PAULI_MATS["Z"] @ HADAMARD, PAULI_MATS["X"] @ HADAMARD]
        names = tuple(f"q{i}" for i in range(4))
        pairs = list(itertools.combinations(names, 2))
        subsets = [s for r in (2, 3, 4) for s in itertools.combinations(range(4), r)]
        seen_contradiction = False
        for _ in range(60):
            g = Graph.from_edges(names, [p for p in pairs if rng.random() < 0.5])
            u = LocalUnitary(1.0, tuple(letter_preserving[i]
                                        for i in rng.integers(0, 6, size=4)))
            gens = conjugate_set(u, graph_generators(g)).generators
            members = subsets[int(rng.integers(0, len(subsets)))]
            picked = [gens[i] for i in members]
            product = multiply(picked[0], picked[1], *picked[2:])
            if product.x & product.z:
                continue  # a Y survived; not a valid x/z measurement setting
            origins = picked + [product]
            constraints = [constraint_from_pauli(p, names) for p in origins]
            sat, _ = lhv_solve_exhaustive(constraints)
            contradiction, subset = lhv_contradiction_certificate(constraints)
            assert sat == (not contradiction)
            if contradiction:
                seen_contradiction = True
                prod = multiply(*(origins[i] for i in subset))
                sign_product = math.prod(constraints[i].sign for i in subset)
                assert (prod.x, prod.z) == (0, 0)
                assert prod.sign != sign_product
        assert seen_contradiction
