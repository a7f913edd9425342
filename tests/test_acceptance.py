"""Acceptance battery: one test per exit criterion, each printing a pass/fail
line (visible under ``pytest -s``).  Tolerances are pinned here, not deferred.
"""
import itertools
import math
import random
from contextlib import contextmanager

import numpy as np
import pytest

from graphstab import (CorrelationConstraint, Graph, PauliString, apply_local,
                       apply_pauli, build_chi00, build_graph_state, canonical_key,
                       commutes, conjugate_by_local, conjugate_set, graph_generators,
                       independent, lc_search, lhv_contradiction_certificate,
                       lhv_solve_exhaustive, local_complement, multiply,
                       single_qubit_cliffords, stabilizes, tau_unitary)
from graphstab import reference
from graphstab.entanglement import Bipartition, entropy, is_product_across, reduce
from graphstab.localops import LocalUnitary
from graphstab.states import expectation, max_residual

ATOL = 1e-9
ENTROPY_ATOL = 1e-6


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{title}]: FAIL")
        raise
    print(f"criterion {number:2d} [{title}]: PASS")


def test_criterion_1_local_complement_identity(graph_a, graph_b):
    with criterion(1, "local complementation of the 4-cycle"):
        complemented = local_complement(graph_a, "A4")
        # expected edge set read off the canonical generators
        edges = set()
        for text in reference.GENERATOR_LETTERS:
            (i,) = [q for q, c in enumerate(text) if c == "X"]
            for j, c in enumerate(text):
                if c == "Z":
                    edges.add((min(i, j), max(i, j)))
        names = reference.QUBITS
        expected = Graph.from_edges(names, [(names[i], names[j]) for i, j in sorted(edges)])
        assert set(complemented.edges()) == set(expected.edges())
        assert canonical_key(complemented) == canonical_key(graph_b)


def test_criterion_2_tau_unitary_exact_with_phase(graph_a, state_a, state_b):
    with criterion(2, "tau unitary acts exactly, global phase included"):
        u = tau_unitary(graph_a, "A4")
        assert abs(u.global_phase - np.exp(1j * math.pi / 4)) < ATOL
        assert max_residual(apply_local(u, state_a), state_b) <= ATOL


def test_criterion_3_chi00_local_equivalence(u_chi, state_b, chi):
    with criterion(3, "chi00 equals Z(A3) (Z H)(B2) |G_b>, search finds it"):
        assert max_residual(apply_local(u_chi, state_b), chi) <= ATOL
        assert 24**4 == 331_776  # full candidate space of the scan
        witness = lc_search(state_b, chi)
        assert witness.found
        assert max_residual(apply_local(witness.unitary, state_b), chi) <= ATOL


def test_criterion_4_graph_generators(graph_b, state_b, k_set):
    with criterion(4, "canonical generators: exact, commuting, independent"):
        gens = graph_generators(graph_b)
        assert gens == k_set
        assert tuple(k.to_text() for k in gens.generators) == reference.GENERATOR_LETTERS
        assert all(k.sign == 1 for k in gens.generators)
        for a, b in itertools.combinations(gens.generators, 2):
            assert commutes(a, b)
        assert independent(gens.generators)
        assert stabilizes(gens, state_b)


def test_criterion_5_conjugated_signs(u_chi, k_set, kbar_set):
    with criterion(5, "conjugation signs (+,-,-,+), dense cross-check"):
        conj = conjugate_set(u_chi, k_set)
        assert conj == kbar_set
        assert tuple(k.letters for k in conj.generators) == reference.CONJUGATED_LETTERS
        assert tuple(k.sign for k in conj.generators) == reference.CONJUGATED_SIGNS
        u_dense = u_chi.dense()
        for plain, image in zip(k_set.generators, conj.generators):
            dense = u_dense @ plain.to_matrix() @ u_dense.conj().T
            assert np.max(np.abs(dense - image.to_matrix())) <= ATOL


def test_criterion_6_chi00_stabilized(kbar_set, chi):
    with criterion(6, "all four conjugated generators fix chi00"):
        for k in kbar_set.generators:
            assert max_residual(apply_pauli(k, chi), chi) <= ATOL


def test_criterion_7_setting_product(kbar_set):
    with criterion(7, "product of settings 1,2,4 is +XXIZ"):
        k = kbar_set.generators
        product = multiply(k[0], k[1], k[3])
        assert product == PauliString.from_letters("XXIZ")
        assert product.phase_exp == 0


def test_criterion_8_quantum_expectations(chi):
    with criterion(8, "four origin expectations equal +1"):
        for origin in reference.ghz_origins():
            assert abs(expectation(origin, chi) - 1.0) <= ATOL


def test_criterion_9_lhv_contradiction():
    with criterion(9, "LHV unsatisfiable, parity-clash certificate"):
        constraints = list(reference.ghz_constraints())
        satisfiable, _ = lhv_solve_exhaustive(constraints)
        assert not satisfiable
        contradiction, subset = lhv_contradiction_certificate(constraints)
        assert contradiction and subset == (0, 1, 2, 3)
        for drop in range(4):
            rest = [c for i, c in enumerate(constraints) if i != drop]
            ok, witness = lhv_solve_exhaustive(rest)
            assert ok
            assert all(math.prod(witness[t] for t in c.terms) == c.sign for c in rest)


def test_criterion_10_entanglement_pattern(chi, state_a, state_b):
    with criterion(10, "entropy pattern (2,2,1) bits, no product pairing"):
        for side, bits in zip(reference.ENTROPY_CUTS, reference.ENTROPY_BITS):
            cut = Bipartition.of(chi, side)
            assert abs(entropy(reduce(chi, cut)) - bits) <= ENTROPY_ATOL
            assert not is_product_across(reduce(chi, cut))
            for state in (state_a, state_b):
                assert abs(entropy(reduce(state, cut)) - bits) <= ENTROPY_ATOL


def test_criterion_11a_all_four_vertex_graphs_stabilized():
    with criterion(11, "a: all 64 labelled 4-vertex graph states stabilized"):
        names = ("q0", "q1", "q2", "q3")
        pairs = list(itertools.combinations(names, 2))
        count = 0
        for bits in range(2 ** len(pairs)):
            g = Graph.from_edges(names, [p for k, p in enumerate(pairs) if bits >> k & 1])
            assert stabilizes(graph_generators(g), build_graph_state(g))
            count += 1
        assert count == 64


def test_criterion_11b_involution_on_random_graphs():
    with criterion(11, "b: tau involution on 100 random graphs (n <= 8)"):
        rng = random.Random(424242)
        for _ in range(100):
            n = rng.randint(1, 8)
            names = tuple(f"q{i}" for i in range(n))
            edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            g = Graph.from_edges(names, edges)
            a = names[rng.randrange(n)]
            assert local_complement(local_complement(g, a), a).edges() == g.edges()


def test_criterion_11c_symbolic_vs_dense_conjugation():
    with criterion(11, "c: symbolic vs dense conjugation, 24 x 4 cases"):
        cases = 0
        for mat in single_qubit_cliffords():
            u = LocalUnitary(1.0, (mat,))
            for letters in ("I", "X", "Y", "Z"):
                p = PauliString.from_letters(letters)
                symbolic = conjugate_by_local(u, p).to_matrix()
                dense = mat @ p.to_matrix() @ mat.conj().T
                assert np.max(np.abs(symbolic - dense)) <= ATOL
                cases += 1
        assert cases == 96


def test_criterion_11d_lhv_solver_agreement():
    with criterion(11, "d: exhaustive vs algebraic LHV on 100 random systems"):
        rnd = random.Random(90210)
        labels = ["a", "b", "c", "d"]
        for _ in range(100):
            constraints = []
            for _ in range(rnd.randint(1, 6)):
                terms = tuple((q, axis) for q in labels
                              if (axis := rnd.choice(("x", "z", None))) is not None)
                constraints.append(CorrelationConstraint(terms, rnd.choice((1, -1))))
            satisfiable, _ = lhv_solve_exhaustive(constraints)
            contradiction, _ = lhv_contradiction_certificate(constraints)
            assert satisfiable == (not contradiction)
