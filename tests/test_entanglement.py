import itertools
import math

import numpy as np
import pytest
from hypothesis import given

from graphstab import (Bipartition, DensityMatrix, apply_local, entropy,
                       is_product_across, reduce)
from graphstab.states import StateVector

from strategies import local_cliffords, random_states

BELL = np.array([1, 0, 0, 1]) / math.sqrt(2)


def bell_pair_product():
    amps = np.kron(BELL, BELL)
    return StateVector(("a1", "a2", "b1", "b2"), amps)


class TestReduce:
    def test_pure_marginal_of_basis_state(self):
        s = StateVector(("a", "b"), [1, 0, 0, 0])
        rho = reduce(s, Bipartition.of(s, ("a",)))
        assert np.allclose(rho.entries, [[1, 0], [0, 0]])

    def test_chi_marginal_on_first_pair_is_maximally_mixed(self, chi):
        rho = reduce(chi, Bipartition.of(chi, ("A3", "A4")))
        assert np.max(np.abs(rho.entries - np.eye(4) / 4)) < 1e-12

    def test_chi_marginal_on_diagonal_pair_has_rank_two(self, chi):
        # frozen from the dense oracle: eigenvalues (1/2, 1/2, 0, 0)
        rho = reduce(chi, Bipartition.of(chi, ("A3", "B2")))
        assert np.allclose(rho.eigenvalues(), [0.5, 0.5, 0.0, 0.0], atol=1e-9)

    def test_label_mismatch(self, chi):
        cut = Bipartition(("A3",), ("A4", "B1"))
        with pytest.raises(ValueError, match="match"):
            reduce(chi, cut)


class TestEntropy:
    @pytest.mark.parametrize("side,bits", [(("A3", "A4"), 2.0), (("A3", "B1"), 2.0),
                                           (("A3", "B2"), 1.0)])
    def test_chi_pattern(self, chi, side, bits):
        value = entropy(reduce(chi, Bipartition.of(chi, side)))
        assert value == pytest.approx(bits, abs=1e-6)

    def test_product_state_marginal_is_pure(self):
        s = bell_pair_product()
        assert entropy(reduce(s, Bipartition.of(s, ("a1", "a2")))) == pytest.approx(0.0, abs=1e-9)

    def test_graph_states_share_the_pattern(self, chi, state_a, state_b):
        # entropy across every cut is a local-unitary invariant
        for size in (1, 2):
            for side in itertools.combinations(chi.names, size):
                if "A3" not in side and size == 2:
                    continue  # complements of the three pairings
                values = [entropy(reduce(s, Bipartition.of(s, side)))
                          for s in (chi, state_a, state_b)]
                assert max(values) - min(values) < 1e-6

    @given(s=random_states(n=4), u=local_cliffords(4))
    def test_invariant_under_local_unitaries(self, s, u):
        side = ("q0", "q2")
        before = entropy(reduce(s, Bipartition.of(s, side)))
        moved = apply_local(u, s)
        after = entropy(reduce(moved, Bipartition.of(moved, side)))
        assert after == pytest.approx(before, abs=1e-9)

    @given(s=random_states(n=4))
    def test_schmidt_symmetry(self, s):
        cut = Bipartition.of(s, ("q0", "q3"))
        comp = Bipartition(cut.side_b, cut.side_a)
        assert entropy(reduce(s, cut)) == pytest.approx(entropy(reduce(s, comp)), abs=1e-9)

    @given(s=random_states(n=5))
    def test_bounds(self, s):
        cut = Bipartition.of(s, ("q0", "q1"))
        value = entropy(reduce(s, cut))
        assert -1e-9 <= value <= 2.0 + 1e-9


class TestProductCheck:
    def test_basis_state_is_product_everywhere(self):
        s = StateVector(("a", "b", "c", "d"), np.eye(16)[0])
        for size in (1, 2, 3):
            for side in itertools.combinations(s.names, size):
                assert is_product_across(s, Bipartition.of(s, side))

    def test_chi_is_not_a_product_under_any_pairing(self, chi):
        for side in (("A3", "A4"), ("A3", "B1"), ("A3", "B2")):
            assert not is_product_across(chi, Bipartition.of(chi, side))

    def test_bell_pair_product_splits_on_its_pairing(self):
        s = bell_pair_product()
        assert is_product_across(s, Bipartition.of(s, ("a1", "a2")))
        assert not is_product_across(s, Bipartition.of(s, ("a1", "b1")))


class TestValidation:
    def test_bipartition_needs_both_sides(self, chi):
        with pytest.raises(ValueError, match="nonempty"):
            Bipartition.of(chi, ("A3", "A4", "B1", "B2"))
        with pytest.raises(ValueError, match="nonempty"):
            Bipartition.of(chi, ())

    def test_bipartition_rejects_unknown_label(self, chi):
        with pytest.raises(ValueError, match="'Q9'"):
            Bipartition.of(chi, ("Q9",))

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError, match="hermitian"):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))
        with pytest.raises(ValueError, match="positive"):
            DensityMatrix(np.diag([1.5, -0.5]))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_density_matrix_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="density matrix"):
            DensityMatrix(np.array([[bad, 0.0], [0.0, 1.0]]))
