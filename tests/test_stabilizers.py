import ast
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import graphstab
from graphstab import (Graph, LocalUnitary, PauliString, StabilizerSet, apply_local,
                       build_graph_state, commutes, conjugate_set, graph_generators,
                       independent, stabilizes)
from graphstab.localops import HADAMARD
from graphstab.states import StateVector

from strategies import graphs, local_cliffords


def all_four_vertex_graphs():
    names = ("q0", "q1", "q2", "q3")
    pairs = list(itertools.combinations(range(4), 2))
    for bits in range(2 ** len(pairs)):
        edges = [(names[i], names[j]) for k, (i, j) in enumerate(pairs) if bits >> k & 1]
        yield Graph.from_edges(names, edges)


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


class TestLayering:
    def test_symbolic_engine_does_not_import_dense_engine(self):
        modules = {inspect.getmodule(obj) for obj in (graphstab.StabilizerSet,
                                                      graphstab.graph_generators,
                                                      graphstab.conjugate_set)}
        offenders = [m.__name__ for m in modules
                     if _imports_states(ast.parse(inspect.getsource(m)))]
        assert offenders == []
