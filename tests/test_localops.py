import numpy as np
import pytest

from graphstab import LocalUnitary, PauliString, conjugate_by_local, single_qubit_cliffords
from graphstab.localops import (HADAMARD, PAULI_MATS, canonical_phase,
                                clifford_conjugation_table, clifford_pauli_action,
                                pauli_rotation)

T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])


def test_group_has_24_distinct_elements():
    cliffs = single_qubit_cliffords()
    assert len(cliffs) == 24
    keys = {tuple(np.round(c, 9).reshape(-1)) for c in cliffs}
    assert len(keys) == 24


def test_identity_comes_first():
    assert np.allclose(single_qubit_cliffords()[0], np.eye(2))


def test_closed_under_composition():
    cliffs = single_qubit_cliffords()
    keys = {tuple(np.round(canonical_phase(c), 9).reshape(-1)) for c in cliffs}
    for a in cliffs[:6]:
        for b in cliffs:
            prod = tuple(np.round(canonical_phase(a @ b), 9).reshape(-1))
            assert prod in keys


def test_enumeration_is_deterministic():
    first = [c.copy() for c in single_qubit_cliffords()]
    single_qubit_cliffords.cache_clear()
    clifford_conjugation_table.cache_clear()
    second = single_qubit_cliffords()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_conjugation_table_matches_dense_algebra():
    cliffs = single_qubit_cliffords()
    table = clifford_conjugation_table()
    for mat, ((sx, lx), (sz, lz)) in zip(cliffs, table):
        assert np.max(np.abs(mat @ PAULI_MATS["X"] @ mat.conj().T - sx * PAULI_MATS[lx])) < 1e-9
        assert np.max(np.abs(mat @ PAULI_MATS["Z"] @ mat.conj().T - sz * PAULI_MATS[lz])) < 1e-9


def test_symbolic_conjugation_agrees_with_dense_on_all_96_cases():
    cliffs = single_qubit_cliffords()
    for mat in cliffs:
        u = LocalUnitary(1.0, (mat,))
        for letters in ("I", "X", "Y", "Z"):
            p = PauliString.from_letters(letters)
            symbolic = conjugate_by_local(u, p).to_matrix()
            dense = mat @ p.to_matrix() @ mat.conj().T
            assert np.max(np.abs(symbolic - dense)) < 1e-9


def test_non_clifford_detected():
    assert clifford_pauli_action(T_GATE) is None
    assert clifford_pauli_action(HADAMARD) is not None


def test_rotation_matrices_are_unitary():
    for letter in ("X", "Y", "Z"):
        m = pauli_rotation(letter, 0.3)
        assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-12


class TestLocalUnitary:
    def test_rejects_non_unitary_factor(self):
        with pytest.raises(ValueError, match="qubit 0"):
            LocalUnitary(1.0, (np.array([[1, 1], [0, 1]], dtype=complex),))

    def test_rejects_bad_phase(self):
        with pytest.raises(ValueError, match="phase"):
            LocalUnitary(2.0, (np.eye(2),))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_phase(self, bad):
        with pytest.raises(ValueError, match="phase"):
            LocalUnitary(bad, (np.eye(2),))
        with pytest.raises(ValueError, match="phase"):
            LocalUnitary(complex(bad, 0.0), (np.eye(2),))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_factor(self, bad):
        with pytest.raises(ValueError, match="qubit 1"):
            LocalUnitary(1.0, (np.eye(2), np.array([[bad, 0], [0, 1]])))

    def test_compose_then_inverse_is_identity(self):
        u = LocalUnitary(1j, (HADAMARD, PAULI_MATS["Z"] @ HADAMARD))
        ident = u.compose(u.inverse())
        assert np.max(np.abs(ident.dense() - np.eye(4))) < 1e-12

    def test_dense_kron_order(self):
        u = LocalUnitary.embed(2, {0: PAULI_MATS["X"]})
        assert np.allclose(u.dense(), np.kron(PAULI_MATS["X"], np.eye(2)))

    def test_factors_are_read_only(self):
        u = LocalUnitary.identity(1)
        with pytest.raises(ValueError):
            u.factors[0][0, 0] = 5.0
