import ast
import inspect
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import graphstab
from graphstab import (Graph, LocalUnitary, PauliString, StabilizerSet, apply_local,
                       build_graph_state, commutes, conjugate_by_local, conjugate_set,
                       graph_generators, independent, multiply, stabilizes)
from graphstab.localops import HADAMARD, PAULI_MATS, pauli_rotation, single_qubit_cliffords
from graphstab.pauli import _clifford_images, _dependencies

from strategies import graphs, local_cliffords, paulis


class TestTextFormat:
    @pytest.mark.parametrize("text", ["XZZZ", "-ZXIX", "+iY", "-iXZ", "IIII", "ZZZZ"])
    def test_round_trip(self, text):
        # the letters times the power of i that each of the four prefixes names
        letters = text.lstrip("+-i")
        phase = {"": 0, "+i": 1, "-": 2, "-i": 3}[text[:len(text) - len(letters)]]
        p = multiply(PauliString(len(letters), 0, 0, phase), PauliString.from_letters(letters))
        assert p.to_text() == text

    def test_positive_sign_omitted(self):
        assert PauliString.from_letters("XZ").to_text() == "XZ"
        assert PauliString.from_letters("XZ", -1).to_text() == "-XZ"


class TestMultiply:
    def test_x_squared_is_identity(self):
        x = PauliString.from_letters("X")
        assert multiply(x, x) == PauliString.identity(1)

    def test_x_times_z_is_minus_i_y(self):
        x, z = PauliString.from_letters("X"), PauliString.from_letters("Z")
        assert multiply(x, z).to_text() == "-iY"

    def test_reference_setting_product(self, kbar_set):
        k = kbar_set.generators
        product = multiply(k[0], k[1], k[3])
        assert product.to_text() == "XXIZ"
        assert product.sign == 1

    def test_mismatched_size(self):
        with pytest.raises(ValueError, match="differ"):
            multiply(PauliString.identity(2), PauliString.identity(3))

    @given(p=paulis())
    def test_single_factor_is_itself(self, p):
        assert multiply(p) == p

    @given(p=paulis(n=4), q=paulis(n=4), r=paulis(n=4))
    def test_associative(self, p, q, r):
        assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))

    @given(p=paulis())
    def test_identity_neutral(self, p):
        e = PauliString.identity(p.n)
        assert multiply(e, p) == p
        assert multiply(p, e) == p

    @given(p=paulis())
    def test_square_is_plus_or_minus_identity(self, p):
        sq = multiply(p, p)
        assert (sq.x, sq.z) == (0, 0)
        assert sq.phase_exp in (0, 2)


class TestCommutes:
    def test_reference_generators_commute(self, k_set):
        k1, k2 = k_set.generators[0], k_set.generators[1]
        assert commutes(k1, k2)

    def test_x_z_same_qubit_anticommute(self):
        assert not commutes(PauliString.from_letters("X"), PauliString.from_letters("Z"))

    def test_all_conjugated_pairs_commute(self, kbar_set):
        gens = kbar_set.generators
        for i in range(4):
            for j in range(i + 1, 4):
                assert commutes(gens[i], gens[j])

    @given(p=paulis(n=3), q=paulis(n=3))
    def test_symmetric(self, p, q):
        assert commutes(p, q) == commutes(q, p)


class TestIndependent:
    def test_reference_generators(self, k_set):
        assert independent(k_set.generators)

    def test_repeated_element(self):
        p = PauliString.from_letters("XZ")
        assert not independent([p, p])

    def test_product_is_dependent(self, kbar_set):
        k = kbar_set.generators
        assert not independent([k[0], k[1], k[3], multiply(k[0], k[1], k[3])])


@given(rows=st.lists(st.integers(0, 2**8 - 1), max_size=8))
def test_dependencies_form_a_basis_of_the_row_dependencies(rows):
    basis = _dependencies(rows)
    subset_xors = []
    for mask in range(2 ** len(rows)):
        acc = 0
        for i, row in enumerate(rows):
            if mask >> i & 1:
                acc ^= row
        subset_xors.append(acc)
    rank = len(set(subset_xors)).bit_length() - 1  # the span has 2^rank elements
    for combo in basis:
        assert combo and subset_xors[combo] == 0
    assert len({combo.bit_length() for combo in basis}) == len(basis)  # independent combos
    assert len(basis) == len(rows) - rank
    assert (not basis) == (subset_xors.count(0) == 1)  # only the empty subset XORs to zero


class TestConjugateByLocal:
    def test_reference_k2(self, u_chi, k_set):
        out = conjugate_by_local(u_chi, k_set.generators[1])
        assert out.to_text() == "-ZXIX"

    def test_reference_k4(self, u_chi, k_set):
        out = conjugate_by_local(u_chi, k_set.generators[3])
        assert out.to_text() == "ZZZZ"

    def test_identity_unitary(self, k_set):
        u = LocalUnitary.identity(4)
        for k in k_set.generators:
            assert conjugate_by_local(u, k) == k

    # each factor maps one of X, Z to a signed Pauli and the other not
    @pytest.mark.parametrize("factor, letters", [
        (pauli_rotation("X", math.pi / 5), "IXI"),
        (np.diag([1.0, np.exp(1j * np.pi / 4)]), "IXI"),
        (pauli_rotation("Z", 0.3), "IZI"),
    ], ids=["x-rotation", "t-gate", "z-rotation"])
    def test_non_clifford_factor_names_qubit(self, factor, letters):
        u = LocalUnitary(1.0, [np.eye(2), factor, np.eye(2)])
        with pytest.raises(ValueError, match="qubit 1"):
            conjugate_by_local(u, PauliString.from_letters(letters))

    def test_first_non_clifford_touched_is_named(self):
        u = LocalUnitary(1.0, [np.eye(2), pauli_rotation("X", 0.3),
                               np.eye(2), pauli_rotation("Z", 0.3)])
        with pytest.raises(ValueError, match="qubit 1"):
            conjugate_by_local(u, PauliString.from_letters("IZIX"))
        with pytest.raises(ValueError, match="qubit 3"):
            conjugate_by_local(u, PauliString.from_letters("XIZX"))

    def test_clifford_images_match_one_factor_at_a_time(self):
        signed = [sign * PAULI_MATS[letter] for letter in "XYZ" for sign in (1, -1)]
        factors = np.concatenate([single_qubit_cliffords(),
                                  [pauli_rotation("X", 0.3), np.diag([1, np.exp(1j * np.pi / 4)])]])
        want = [[next((i for i, m in enumerate(signed) if np.allclose(f @ p @ f.conj().T, m,
                                                                       rtol=0, atol=1e-9)), -1)
                 for p in (PAULI_MATS["X"], PAULI_MATS["Z"])] for f in factors]
        assert _clifford_images(factors).tolist() == want
        assert len({tuple(row) for row in want[:24]}) == 24 and want[24:] == [[0, -1], [-1, 4]]

    def test_non_clifford_skipped_when_identity_hit(self):
        # a non-Clifford factor on a qubit the Pauli does not touch is fine
        u = LocalUnitary(1.0, [np.eye(2), pauli_rotation("X", math.pi / 5)])
        p = PauliString.from_letters("XI")
        assert conjugate_by_local(u, p) == p

    @given(data=st.data(), n=st.integers(1, 4))
    def test_matches_dense_conjugation(self, data, n):
        u, p = data.draw(local_cliffords(n)), data.draw(paulis(n=n))
        dense = u.dense()
        want = dense @ p.to_matrix() @ dense.conj().T
        assert np.max(np.abs(conjugate_by_local(u, p).to_matrix() - want)) <= 1e-12

    @given(u=local_cliffords(3), p=paulis(n=3), q=paulis(n=3))
    def test_preserves_commutation(self, u, p, q):
        assert commutes(p, q) == commutes(conjugate_by_local(u, p), conjugate_by_local(u, q))

    @given(u=local_cliffords(3), p=paulis(n=3))
    def test_preserves_hermiticity(self, u, p):
        assert conjugate_by_local(u, p).is_hermitian == p.is_hermitian


def test_to_matrix_refuses_past_dense_limit():
    with pytest.raises(ValueError, match="dense form limited to 12 qubits"):
        PauliString.identity(13).to_matrix()


class TestHermiticity:
    def test_sign_of_negative(self):
        assert PauliString.from_letters("ZZ", -1).sign == -1

    def test_imaginary_phase_rejected(self):
        p = PauliString(1, 1, 0, 1)  # +iX
        assert not p.is_hermitian
        with pytest.raises(ValueError, match="imaginary"):
            _ = p.sign

    def test_y_is_hermitian(self):
        assert PauliString.from_letters("Y").is_hermitian
        assert PauliString.from_letters("Y").sign == 1


class TestGraphGenerators:
    def test_reference_graph(self, graph_b, k_set):
        assert [k.to_text() for k in k_set.generators] == ["XZZZ", "ZXIZ", "ZIXZ", "ZZZX"]
        assert graph_generators(graph_b) == k_set

    def test_empty_graph(self):
        gens = graph_generators(Graph.from_edges(("a", "b"), [])).generators
        assert [k.to_text() for k in gens] == ["XI", "IX"]

    def test_single_edge(self):
        gens = graph_generators(Graph.from_edges(("a", "b"), [("a", "b")])).generators
        assert [k.to_text() for k in gens] == ["XZ", "ZX"]

    def test_order_follows_vertices(self, graph_b, k_set):
        for i, k in enumerate(k_set.generators):
            assert k.letter(i) == "X"


class TestConjugateSet:
    def test_reference_signs(self, u_chi, k_set):
        conj = conjugate_set(u_chi, k_set)
        assert [k.to_text() for k in conj.generators] == ["XZZX", "-ZXIX", "-ZIXX", "ZZZZ"]
        assert [k.sign for k in conj.generators] == [1, -1, -1, 1]

    def test_identity_leaves_set_unchanged(self, k_set):
        assert conjugate_set(LocalUnitary.identity(4), k_set) == k_set

    def test_hadamard_twice_restores(self, k_set):
        u = LocalUnitary(1.0, [np.eye(2), np.eye(2), HADAMARD, np.eye(2)])
        assert conjugate_set(u, conjugate_set(u, k_set)) == k_set

    @given(g=graphs(min_n=2, max_n=5), data=st.data())
    def test_preserves_invariants(self, g, data):
        u = data.draw(local_cliffords(g.n))
        conj = conjugate_set(u, graph_generators(g))
        gens = conj.generators
        assert independent(gens)
        for a, b in itertools.combinations(gens, 2):
            assert commutes(a, b)

    @given(g=graphs(min_n=2, max_n=5), data=st.data())
    def test_transports_stabilization(self, g, data):
        u = data.draw(local_cliffords(g.n))
        sset = graph_generators(g)
        state = build_graph_state(g)
        assert stabilizes(conjugate_set(u, sset), apply_local(u, state))


class TestValidation:
    def test_rejects_anticommuting(self):
        with pytest.raises(ValueError, match="anticommute"):
            StabilizerSet((PauliString.from_letters("X"), PauliString.from_letters("Z")))

    def test_rejects_dependent(self):
        p = PauliString.from_letters("XZ")
        with pytest.raises(ValueError, match="dependent"):
            StabilizerSet((p, p))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="hermitian"):
            StabilizerSet((PauliString(1, 1, 0, 1),))


def _imports_states(tree: ast.Module) -> bool:
    """True iff the module imports the dense engine, in any import form."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "graphstab.states" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".states", "graphstab.states"):
                return True
            if module in (".", "graphstab") and any(a.name == "states" for a in node.names):
                return True
    return False


PACKAGE_DIR = Path(graphstab.__file__).parent
PAPER_QUBITS = ("A3", "A4", "B1", "B2")


class TestLayering:
    def test_symbolic_engine_does_not_import_dense_engine(self):
        modules = {inspect.getmodule(obj) for obj in (graphstab.StabilizerSet,
                                                      graphstab.graph_generators,
                                                      graphstab.conjugate_set)}
        offenders = [m.__name__ for m in modules
                     if _imports_states(ast.parse(inspect.getsource(m)))]
        assert offenders == []

    @pytest.mark.parametrize(
        "path", sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "verify.py"),
        ids=lambda p: p.name)
    def test_only_verify_spells_the_paper_qubits(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spelled = [node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and node.value in PAPER_QUBITS]
        assert spelled == []

    def test_the_scenario_has_no_module_of_its_own(self):
        assert (PACKAGE_DIR / "verify.py").is_file()
        assert not (PACKAGE_DIR / "reference.py").exists()
