import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphstab import (Graph, LocalUnitary, PauliString, StabilizerSet, apply_local,
                       apply_pauli, build_graph_state, conjugate_by_local,
                       equal_up_to_global_phase, expectation, graph_generators, stabilizes)
from graphstab.cli import state_from_dict, state_to_dict
from graphstab.localops import ATOL
from graphstab.states import StateVector, _apply_factor, _bit_table, _pauli_spectrum, max_residual

from strategies import graphs, local_cliffords, paulis, random_states

AMP = 1.0 / (2.0 * math.sqrt(2.0))


def basis_state(names, index):
    amps = np.zeros(2 ** len(names), dtype=complex)
    amps[index] = 1.0
    return StateVector(tuple(names), amps)


# --- independent dense oracle: explicit controlled-phase matrices ---

def _cz_matrix(n, a, b):
    m = np.eye(2**n, dtype=complex)
    for i in range(2**n):
        if (i >> (n - 1 - a)) & 1 and (i >> (n - 1 - b)) & 1:
            m[i, i] = -1
    return m


def graph_state_oracle(g: Graph) -> np.ndarray:
    psi = np.full(2**g.n, 2 ** (-g.n / 2), dtype=complex)
    for a, b in g.edges():
        psi = _cz_matrix(g.n, g.position(a), g.position(b)) @ psi
    return psi


# --- reference: one controlled-phase per edge on |+>^n, in the given edge order ---

def cz_reference(g: Graph, edges=None) -> np.ndarray:
    """The per-edge loop the parity kernel replaced: negate the amplitudes
    whose bits at both ends of each edge are 1."""
    t = np.full([2] * g.n, 2 ** (-g.n / 2), dtype=complex)
    for a, b in g.edges() if edges is None else edges:
        idx: list[object] = [slice(None)] * g.n
        idx[g.position(a)] = idx[g.position(b)] = 1
        t[tuple(idx)] *= -1
    return t.reshape(-1)


def random_graph(n: int, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    names = tuple(f"q{i}" for i in range(n))
    return Graph.from_edges(names, [(names[i], names[j]) for i in range(n)
                                    for j in range(i + 1, n) if rng.random() < 0.5])


class TestChi00:
    def test_amplitude_table(self, chi):
        plus = {0b0000, 0b0110, 0b1001, 0b1010, 0b1100, 0b1111}
        minus = {0b0011, 0b0101}
        for idx in range(16):
            if idx in plus:
                assert chi.amps[idx] == pytest.approx(AMP, abs=1e-15)
            elif idx in minus:
                assert chi.amps[idx] == pytest.approx(-AMP, abs=1e-15)
            else:
                assert chi.amps[idx] == 0

    def test_norm(self, chi):
        assert np.linalg.norm(chi.amps) == pytest.approx(1.0, abs=1e-12)

    def test_qubit_order(self, chi):
        assert chi.names == ("A3", "A4", "B1", "B2")


class TestBuildGraphState:
    def test_empty_graph_is_all_plus(self):
        g = Graph.from_edges(("a", "b", "c"), [])
        s = build_graph_state(g)
        assert np.allclose(s.amps, 2 ** (-1.5))

    def test_single_edge(self):
        g = Graph.from_edges(("a", "b"), [("a", "b")])
        s = build_graph_state(g)
        assert np.allclose(s.amps, np.array([1, 1, 1, -1]) / 2)

    def test_reference_graph_against_oracle(self, graph_b, state_b, k_set):
        assert np.max(np.abs(state_b.amps - graph_state_oracle(graph_b))) < 1e-12
        for k in k_set.generators:
            assert max_residual(apply_pauli(k, state_b), state_b) <= 1e-14

    def test_amplitudes_have_uniform_magnitude(self, state_b):
        assert np.allclose(np.abs(state_b.amps), 0.25)

    def test_oversize_graph_rejected(self):
        g = Graph.from_edges(tuple(f"q{i}" for i in range(13)), [])
        with pytest.raises(ValueError, match="dense limit"):
            build_graph_state(g)

    @given(g=graphs(max_n=6), data=st.data())
    def test_edge_order_irrelevant(self, g, data):
        order = data.draw(st.permutations(g.edges()))
        assert np.array_equal(cz_reference(g, order), build_graph_state(g).amps)

    @staticmethod
    def assert_matches_per_edge_loop(g: Graph):
        amps = build_graph_state(g).amps
        assert amps.real.tobytes() == cz_reference(g).real.tobytes()
        assert amps.imag.tobytes() == bytes(amps.imag.nbytes)  # every imaginary part +0.0

    @given(g=graphs(max_n=8))
    def test_matches_per_edge_loop(self, g):
        self.assert_matches_per_edge_loop(g)

    def test_matches_per_edge_loop_at_dense_limit(self):
        self.assert_matches_per_edge_loop(random_graph(12, seed=12))

    def test_bit_table_is_shared_and_read_only(self):
        bits = _bit_table(3)
        assert _bit_table(3) is bits
        assert not bits.flags.writeable
        assert bits.dtype == np.float32
        assert bits.tolist() == [[x >> (2 - i) & 1 for x in range(8)] for i in range(3)]


class TestApplyLocal:
    def test_identity(self, chi):
        assert max_residual(apply_local(LocalUnitary.identity(4), chi), chi) <= ATOL

    def test_chi00_from_graph_state_exact(self, u_chi, state_b, chi):
        assert max_residual(apply_local(u_chi, state_b), chi) < 1e-12

    def test_tau_instance_exact_including_phase(self, graph_a, state_a, state_b):
        from graphstab import tau_unitary
        u = tau_unitary(graph_a, "A4")
        assert complex(u.global_phase) == pytest.approx(np.exp(1j * np.pi / 4))
        assert max_residual(apply_local(u, state_a), state_b) < 1e-12

    def test_dimension_mismatch(self, chi):
        with pytest.raises(ValueError, match="differ"):
            apply_local(LocalUnitary.identity(3), chi)

    @given(s=random_states(n=3), u=local_cliffords(3))
    def test_preserves_norm(self, s, u):
        assert np.linalg.norm(apply_local(u, s).amps) == pytest.approx(1.0, abs=1e-9)

    @given(data=st.data(), s=random_states(max_n=8))
    def test_factor_matches_tensordot_bit_for_bit(self, data, s):
        seed = data.draw(st.integers(0, 2**32 - 1))
        mat = np.random.default_rng(seed).standard_normal((2, 4)).view(complex)
        pos = data.draw(st.integers(0, s.n - 1))
        want = np.moveaxis(np.tensordot(mat, s.amps.reshape([2] * s.n), axes=([1], [pos])), 0, pos)
        assert _apply_factor(s.amps, mat, pos, s.n).tobytes() == want.tobytes()


class TestApplyPauli:
    def test_identity(self, chi):
        assert max_residual(apply_pauli(PauliString.identity(4), chi), chi) <= ATOL

    def test_all_z_fixes_chi(self, chi):
        zzzz = PauliString.from_letters("ZZZZ")
        assert max_residual(apply_pauli(zzzz, chi), chi) <= ATOL

    def test_x_flips_basis_state(self):
        s = basis_state(("q0",), 0)
        flipped = apply_pauli(PauliString.from_letters("X"), s)
        assert max_residual(flipped, basis_state(("q0",), 1)) <= ATOL

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(paulis(n=n), random_states(n=n))))
    def test_agrees_with_dense_matrix(self, case):
        """Exact: i**k times a signed permutation moves amplitudes without rounding them."""
        p, s = case
        assert np.array_equal(apply_pauli(p, s).amps, p.to_matrix() @ s.amps)

    @given(p=paulis(n=3), s=random_states(n=3))
    def test_preserves_norm(self, p, s):
        assert np.linalg.norm(apply_pauli(p, s).amps) == pytest.approx(1.0, abs=1e-9)


class TestExpectation:
    def test_conjugated_generator_on_chi(self, chi, kbar_set):
        assert expectation(kbar_set.generators[0], chi) == pytest.approx(1.0, abs=1e-12)

    def test_unsigned_tensor_of_second_setting(self, chi):
        assert expectation(PauliString.from_letters("ZXIX"), chi) == pytest.approx(-1.0, abs=1e-12)

    def test_plus_state(self):
        s = build_graph_state(Graph.from_edges(("q0",), []))
        assert expectation(PauliString.from_letters("X"), s) == pytest.approx(1.0, abs=1e-12)

    def test_non_hermitian_rejected(self, chi):
        with pytest.raises(ValueError, match="hermitian"):
            expectation(PauliString(4, 1, 0, 1), chi)


class TestPauliSpectrum:
    @given(random_states(max_n=3))
    def test_matches_sorted_expectations(self, s):
        # the hermitian PauliString with letters x, z has phase_exp = #Y mod 4
        want = sorted(abs(expectation(PauliString(s.n, x, z, (x & z).bit_count() % 4), s))
                      for x in range(2**s.n) for z in range(2**s.n))
        np.testing.assert_allclose(_pauli_spectrum(s), want, rtol=0, atol=1e-12)


class TestPhaseComparison:
    def test_global_phase_ignored(self, chi):
        rotated = StateVector(chi.names, np.exp(0.7j) * chi.amps)
        assert equal_up_to_global_phase(chi, rotated)
        assert not max_residual(chi, rotated) <= ATOL

    def test_chi_and_graph_state_are_orthogonal(self, chi, state_b):
        # frozen from the dense oracle: the overlap is exactly zero
        assert abs(complex(np.vdot(chi.amps, state_b.amps))) < 1e-12
        assert not equal_up_to_global_phase(chi, state_b)

    def test_orthogonal_basis_states(self):
        a, b = basis_state(("q0",), 0), basis_state(("q0",), 1)
        assert not equal_up_to_global_phase(a, b)


class TestComparedLabels:
    """Amplitudes are compared by position, so every comparison checks the labels first."""

    BELL = np.array([1, 0, 0, 1]) / math.sqrt(2)

    @pytest.mark.parametrize("compare", [max_residual, equal_up_to_global_phase])
    @pytest.mark.parametrize("order", [("x", "y"), ("b", "a")])
    def test_label_orders_must_agree(self, compare, order):
        s, t = StateVector(("a", "b"), self.BELL), StateVector(order, self.BELL)
        with pytest.raises(ValueError, match=re.escape(f"qubit orders differ: ('a', 'b') and {order}")):
            compare(s, t)

    @pytest.mark.parametrize("compare", [max_residual, equal_up_to_global_phase])
    def test_qubit_counts_must_agree(self, compare):
        s, t = StateVector(("a", "b"), self.BELL), basis_state(("a",), 0)
        with pytest.raises(ValueError, match="qubit counts differ"):
            compare(s, t)


class TestConjugationConsistency:
    @given(u=local_cliffords(3), p=paulis(n=3), s=random_states(n=3))
    def test_symbolic_matches_dense_transport(self, u, p, s):
        lhs = apply_local(u, apply_pauli(p, s))
        rhs = apply_pauli(conjugate_by_local(u, p), apply_local(u, s))
        assert max_residual(lhs, rhs) < 1e-9


class TestJson:
    def test_round_trip(self, chi):
        back = state_from_dict(json.loads(json.dumps(state_to_dict(chi))))
        assert back.names == chi.names
        assert back.amps.tobytes() == chi.amps.tobytes()

    def test_rejects_wrong_amp_count(self):
        with pytest.raises(ValueError, match="amps"):
            state_from_dict({"n": 1, "order": ["a"], "amps": [[1.0, 0.0]]})

    def test_rejects_mismatched_n(self):
        with pytest.raises(ValueError, match="'n'"):
            state_from_dict({"n": 2, "order": ["a"], "amps": [[1.0, 0.0], [0.0, 0.0]]})

    def test_rejects_bad_pair(self):
        with pytest.raises(ValueError, match=r"amps\[1\]"):
            state_from_dict({"n": 1, "order": ["a"], "amps": [[1.0, 0.0], [0.0]]})

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            state_from_dict({"n": 1, "order": ["a"], "amps": [[1.0, 0.0], [1.0, 0.0]]})

    @pytest.mark.parametrize("doc", [
        {"n": True, "order": ["a"], "amps": [[1.0, 0.0], [0.0, 0.0]]},
        {"n": 1, "order": ["a"], "amps": [[True, False], [False, False]]},
        {"n": 1, "order": ["a"], "amps": [[1.0, 0.0], [0.0, False]]},
    ])
    def test_rejects_booleans(self, doc):
        with pytest.raises(ValueError, match="'n'|amps"):
            state_from_dict(doc)

    def test_rejects_number_too_large_for_a_float(self):
        with pytest.raises(ValueError, match=r"amps\[1\]: number too large"):
            state_from_dict({"n": 1, "order": ["a"], "amps": [[0, 0], [0, 10**400]]})


class TestNonFinite:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_state_vector_rejects(self, bad):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(("a",), [bad, 0.0])
        with pytest.raises(ValueError, match="normalized"):
            StateVector(("a", "b"), [1.0, 0.0, complex(0.0, bad), 0.0])


def all_four_vertex_graphs():
    names = ("q0", "q1", "q2", "q3")
    pairs = list(itertools.combinations(range(4), 2))
    for bits in range(2 ** len(pairs)):
        edges = [(names[i], names[j]) for k, (i, j) in enumerate(pairs) if bits >> k & 1]
        yield Graph.from_edges(names, edges)


class TestStabilizes:
    def test_conjugated_set_fixes_chi(self, kbar_set, chi):
        assert stabilizes(kbar_set, chi)

    def test_plain_set_fixes_graph_state(self, k_set, state_b):
        assert stabilizes(k_set, state_b)

    def test_wrong_sign_detected(self):
        zero = StateVector(("q0",), [1.0, 0.0])
        minus_z = StabilizerSet((PauliString.from_letters("Z", -1),))
        assert not stabilizes(minus_z, zero)

    def test_mismatched_size(self, k_set):
        with pytest.raises(ValueError, match="differ"):
            stabilizes(k_set, StateVector(("q0",), [1.0, 0.0]))

    def test_exhaustive_four_vertex_graphs(self):
        for g in all_four_vertex_graphs():
            assert stabilizes(graph_generators(g), build_graph_state(g))

    def test_random_five_vertex_graphs(self):
        rng = np.random.default_rng(11)
        names = tuple(f"q{i}" for i in range(5))
        pairs = list(itertools.combinations(names, 2))
        for _ in range(25):
            edges = [p for p in pairs if rng.random() < 0.5]
            g = Graph.from_edges(names, edges)
            assert stabilizes(graph_generators(g), build_graph_state(g))
