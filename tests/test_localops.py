import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphstab import (LocalUnitary, PauliString, StateVector, apply_local, conjugate_by_local,
                       single_qubit_cliffords)
from graphstab.localops import (ATOL, HADAMARD, MAX_QUBITS, PAULI_MATS, _UNITARY_TOL,
                                 canonical_phase, pauli_rotation)

from strategies import local_cliffords, random_states


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
    second = single_qubit_cliffords()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_stack_bytes_are_pinned():
    # canonical_phase cuts at ATOL, far from every magnitude the closure
    # inspects: each is at least 0.7 or at most 3.3e-17
    digest = hashlib.sha256(single_qubit_cliffords().tobytes()).hexdigest()
    assert digest == "435cb1092818792d230816a83c26b4efe9bcd6e63a517fbdc6dfb1b1f7480b0d"


def test_symbolic_conjugation_agrees_with_dense_on_all_96_cases():
    cliffs = single_qubit_cliffords()
    for mat in cliffs:
        u = LocalUnitary(1.0, (mat,))
        for letters in ("I", "X", "Y", "Z"):
            p = PauliString.from_letters(letters)
            symbolic = conjugate_by_local(u, p).to_matrix()
            dense = mat @ p.to_matrix() @ mat.conj().T
            assert np.max(np.abs(symbolic - dense)) < 1e-9


def test_group_is_one_read_only_stack():
    cliffs = single_qubit_cliffords()
    assert cliffs.shape == (24, 2, 2)
    with pytest.raises(ValueError):
        cliffs[0, 0, 0] = 5.0


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

    def test_rejects_factors_whose_norms_multiply_past_atol(self):
        # each factor is within ATOL of unitary, but four of them take chi00's
        # norm 1.8e-9 from 1, which apply_local would reject
        with pytest.raises(ValueError, match="qubit 0"):
            LocalUnitary(1.0, [(1 + 0.45e-9) * np.eye(2)] * 4)

    def test_dense_kron_order(self):
        u = LocalUnitary(1.0, [PAULI_MATS["X"], np.eye(2)])
        assert np.allclose(u.dense(), np.kron(PAULI_MATS["X"], np.eye(2)))

    def test_factors_are_read_only(self):
        u = LocalUnitary.identity(1)
        with pytest.raises(ValueError):
            u.factors[0][0, 0] = 5.0

    def test_factors_are_one_stack(self):
        u = LocalUnitary(1.0, [HADAMARD, PAULI_MATS["Z"]])
        assert u.factors.shape == (2, 2, 2)
        assert u.factors.dtype == complex

    def test_factors_are_copied_from_the_input(self):
        mats = np.array([HADAMARD, PAULI_MATS["X"]])
        u = LocalUnitary(1.0, mats)
        mats[0] = PAULI_MATS["Z"]
        assert np.array_equal(u.factors[0], HADAMARD)

    @pytest.mark.parametrize("factors", [
        (np.ones((2, 3), dtype=complex),),
        np.ones((2, 2), dtype=complex),
        (),
        np.zeros((0, 2, 2)),
        [np.eye(2), np.eye(3)],  # ragged
    ], ids=["2x3", "unstacked", "empty", "empty-stack", "ragged"])
    def test_rejects_malformed_factors(self, factors):
        with pytest.raises(ValueError):
            LocalUnitary(1.0, factors)


@st.composite
def phased_cliffords(draw, n: int) -> LocalUnitary:
    u = draw(local_cliffords(n))
    angle = draw(st.floats(0.0, 2 * math.pi))
    return LocalUnitary(complex(math.cos(angle), math.sin(angle)), u.factors)


@st.composite
def clifford_pairs_and_state(draw):
    n = draw(st.integers(1, 4))
    return draw(phased_cliffords(n)), draw(phased_cliffords(n)), draw(random_states(n=n))


@given(clifford_pairs_and_state())
def test_stacked_algebra_matches_dense(case):
    u, v, s = case
    assert np.max(np.abs(u.compose(v).dense() - u.dense() @ v.dense())) < 1e-12
    assert np.max(np.abs(apply_local(u, s).amps - u.dense() @ s.amps)) < 1e-12


@st.composite
def at_the_unitary_bound(draw):
    """A LocalUnitary whose factors and phase all stretch (or all shrink) norms
    as far as the constructor allows, and a state within ATOL/2 of unit norm,
    off in the same direction: random, or the product state stretched most."""
    n = draw(st.integers(1, MAX_QUBITS))
    direction = draw(st.sampled_from([1, -1]))
    tol = direction * _UNITARY_TOL * (1 - 1e-3)  # a hair inside, for the round-off of f f+
    # f f+ = I + tol [[1, 1], [1, 1]]: every entry off by tol, |+> scaled by sqrt(1 + 2 tol)
    stretch = np.eye(2) + (np.sqrt(1 + 2 * tol) - 1) * np.full((2, 2), 0.5)
    angles = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=3 * n, max_size=3 * n))
    rotations = [pauli_rotation("Z", a) @ pauli_rotation("X", b) @ pauli_rotation("Z", c)
                 for a, b, c in zip(angles[::3], angles[1::3], angles[2::3])]
    angle = draw(st.floats(0.0, 2 * math.pi))
    u = LocalUnitary((1 + tol) * complex(math.cos(angle), math.sin(angle)),
                     [stretch @ r for r in rotations])
    if draw(st.booleans()):
        amps = np.ones(1, dtype=complex)
        for r in rotations:
            amps = np.kron(amps, r.conj().T @ np.array([1, 1]) / math.sqrt(2))
    else:
        amps = draw(random_states(n=n)).amps
    scale = 1 + direction * draw(st.floats(0.0, ATOL / 2))
    return u, StateVector(tuple(f"q{i}" for i in range(n)), scale * amps)


@given(at_the_unitary_bound())
def test_apply_local_keeps_the_norm_at_the_unitary_bound(case):
    u, s = case
    err = np.max(np.abs(u.factors @ u.factors.conj().swapaxes(1, 2) - np.eye(2)))
    assert err > 0.99 * _UNITARY_TOL  # the factors sit at the bound
    out = apply_local(u, s)  # raises if the norm left ATOL
    assert abs(np.linalg.norm(out.amps) - 1) <= 3 * ATOL / 4
