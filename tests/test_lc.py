import itertools
import math
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphstab import (Graph, LocalUnitary, apply_local, build_chi00, build_graph_state,
                       canonical_key, enumerate_orbit, equal_up_to_global_phase, lc_search,
                       local_complement, single_qubit_cliffords, tau_unitary)
from graphstab.states import StateVector, allclose, max_residual, overlap

from strategies import graphs, local_cliffords, random_states

# frozen ahead of the build by an independent breadth-first search with
# adjacency hashing (see orbit_oracle below): 4 paths + 1 cycle + 4 paws
# + 2 diamonds reachable from the reference 4-cycle
REFERENCE_ORBIT_SIZE = 11
REFERENCE_ORBIT_EDGE_HISTOGRAM = {3: 4, 4: 5, 5: 2}


def orbit_oracle(g: Graph) -> set:
    """Plain dict-of-sets BFS, sharing no code with the package graph type."""
    adj = {i: set() for i in range(g.n)}
    for a, b in g.edges():
        i, j = g.position(a), g.position(b)
        adj[i].add(j)
        adj[j].add(i)

    def complement(a, v):
        a = {k: set(s) for k, s in a.items()}
        nb = sorted(a[v])
        for x in range(len(nb)):
            for y in range(x + 1, len(nb)):
                u, w = nb[x], nb[y]
                if w in a[u]:
                    a[u].remove(w)
                    a[w].remove(u)
                else:
                    a[u].add(w)
                    a[w].add(u)
        return a

    def key(a):
        return tuple(tuple(sorted(a[v])) for v in range(g.n))

    seen = {key(adj)}
    frontier = [adj]
    while frontier:
        nxt = []
        for a in frontier:
            for v in range(g.n):
                b = complement(a, v)
                k = key(b)
                if k not in seen:
                    seen.add(k)
                    nxt.append(b)
        frontier = nxt
    return seen


class TestTauUnitary:
    def test_reference_instance_exact(self, graph_a, state_a, state_b):
        u = tau_unitary(graph_a, "A4")
        assert max_residual(apply_local(u, state_a), state_b) < 1e-12

    def test_global_phase_convention(self, graph_a):
        u = tau_unitary(graph_a, "A4")
        assert u.global_phase == pytest.approx(np.exp(1j * math.pi / 4))

    def test_isolated_vertex_leaves_residual_phase_i(self):
        g = Graph.from_edges(("a", "b", "c"), [("a", "b")])
        s = build_graph_state(g)
        out = apply_local(tau_unitary(g, "c"), s)
        assert allclose(out, StateVector(s.names, 1j * s.amps), 1e-12)
        assert equal_up_to_global_phase(out, s)

    def test_round_trip_up_to_phase(self, graph_a, state_a):
        u1 = tau_unitary(graph_a, "A4")
        u2 = tau_unitary(local_complement(graph_a, "A4"), "A4")
        assert equal_up_to_global_phase(apply_local(u2.compose(u1), state_a), state_a)

    def test_unknown_label(self, graph_a):
        with pytest.raises(ValueError, match="'nope'"):
            tau_unitary(graph_a, "nope")

    def test_residual_phase_depends_only_on_degree(self):
        # regression for the fixed-phase convention: the leftover global
        # phase is i * exp(-i pi deg/4), measured numerically pre-build
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            names = tuple(f"q{i}" for i in range(n))
            edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            g = Graph.from_edges(names, edges)
            a = names[int(rng.integers(0, n))]
            got = apply_local(tau_unitary(g, a), build_graph_state(g))
            want = build_graph_state(local_complement(g, a))
            ratio = overlap(want, got)
            predicted = 1j * np.exp(-1j * math.pi * g.degree(a) / 4)
            assert abs(ratio - predicted) < 1e-9


class TestEnumerateOrbit:
    def test_reference_orbit_size_and_histogram(self, graph_a):
        report = enumerate_orbit(graph_a)
        assert not report.truncated
        assert len(report.members) == REFERENCE_ORBIT_SIZE
        hist = Counter(m.graph.edge_count() for m in report.members)
        assert dict(hist) == REFERENCE_ORBIT_EDGE_HISTOGRAM

    def test_matches_independent_bfs_oracle(self, graph_a):
        report = enumerate_orbit(graph_a)
        oracle_keys = orbit_oracle(graph_a)
        assert len(report.members) == len(oracle_keys)
        member_keys = {
            tuple(tuple(sorted(m.graph.position(v) for v in neighbors))
                  for neighbors in _named_rows(m.graph))
            for m in report.members
        }
        assert member_keys == oracle_keys

    def test_contains_chorded_graph_at_one_step(self, graph_a, graph_b):
        report = enumerate_orbit(graph_a)
        hits = [m for m in report.members if canonical_key(m.graph) == canonical_key(graph_b)]
        assert len(hits) == 1
        assert hits[0].path == ("A4",)

    def test_witnesses_pass_dense_check(self, graph_a, state_a):
        report = enumerate_orbit(graph_a)  # verification is built in for n <= 6
        member = report.members[-1]
        got = apply_local(member.witness, state_a)
        assert equal_up_to_global_phase(got, build_graph_state(member.graph))

    def test_member_keys_are_distinct(self, graph_a):
        report = enumerate_orbit(graph_a)
        keys = [canonical_key(m.graph) for m in report.members]
        assert len(keys) == len(set(keys))

    def test_edgeless_orbit_is_single_member(self):
        report = enumerate_orbit(Graph.empty(("a", "b", "c")))
        assert len(report.members) == 1
        assert report.members[0].path == ()
        assert not report.truncated

    def test_truncation_flag(self, graph_a):
        report = enumerate_orbit(graph_a, max_members=4)
        assert report.truncated
        assert len(report.members) == 4

    def test_exact_cap_does_not_flag(self, graph_a):
        report = enumerate_orbit(graph_a, max_members=REFERENCE_ORBIT_SIZE)
        assert not report.truncated

    def test_oversize_rejected(self):
        g = Graph.empty(tuple(f"q{i}" for i in range(13)))
        with pytest.raises(ValueError, match="12"):
            enumerate_orbit(g)


def _named_rows(g: Graph):
    return [[g.names[j] for j in range(g.n) if g.rows[i] >> j & 1] for i in range(g.n)]


class TestLcSearch:
    def test_graph_state_to_chi(self, state_b, chi, u_chi):
        witness = lc_search(state_b, chi)
        assert witness.found
        assert max_residual(apply_local(witness.unitary, state_b), chi) < 1e-9
        # agrees with the closed-form unitary on the state, up to global phase
        assert equal_up_to_global_phase(apply_local(witness.unitary, state_b),
                                        apply_local(u_chi, state_b))

    def test_identity_pair(self, chi):
        witness = lc_search(chi, chi)
        assert witness.found
        assert max_residual(apply_local(witness.unitary, chi), chi) < 1e-9
        for f in witness.unitary.factors:
            assert np.allclose(f, np.eye(2))

    def test_cycle_state_to_chi(self, state_a, chi):
        witness = lc_search(state_a, chi)
        assert witness.found
        assert max_residual(apply_local(witness.unitary, state_a), chi) < 1e-9

    def test_success_is_symmetric(self, state_b, chi):
        assert lc_search(state_b, chi).found == lc_search(chi, state_b).found

    def test_product_state_not_equivalent_to_bell(self):
        zero = StateVector(("a", "b"), [1, 0, 0, 0])
        bell = StateVector(("a", "b"), np.array([1, 0, 0, 1]) / math.sqrt(2))
        assert not lc_search(zero, bell).found
        assert not lc_search(bell, zero).found

    def test_orbit_members_pairwise_equivalent(self, graph_a):
        members = enumerate_orbit(graph_a).members
        rng = np.random.default_rng(63)
        for _ in range(5):
            i, j = rng.choice(len(members), size=2, replace=False)
            src = build_graph_state(members[i].graph)
            dst = build_graph_state(members[j].graph)
            witness = lc_search(src, dst)
            assert witness.found
            assert max_residual(apply_local(witness.unitary, src), dst) < 1e-9

    def test_mismatched_sizes(self, chi):
        with pytest.raises(ValueError, match="differ"):
            lc_search(chi, StateVector(("a",), [1, 0]))

    def test_oversize_rejected(self):
        names = tuple(f"q{i}" for i in range(7))
        amps = np.zeros(128)
        amps[0] = 1.0
        s = StateVector(names, amps)
        with pytest.raises(ValueError, match="6"):
            lc_search(s, s)


# --- slow oracle for lc_search: explicit Kronecker products, lexicographic scan ---

@lru_cache(maxsize=None)
def kron_table(t: int) -> np.ndarray:
    """All 24^t Kronecker products of the canonical Cliffords, lexicographic order."""
    cliffs = np.array(single_qubit_cliffords())
    if t == 1:
        return cliffs
    # np.kron of (K, 1, d, d) with (1, 24, 2, 2) pairs every product with every Clifford
    return np.kron(kron_table(t - 1)[:, None], cliffs[None]).reshape(24**t, 2**t, 2**t)


def lc_search_reference(source: StateVector, target: StateVector, atol: float = 1e-9):
    """(factor indices, phase) of the first candidate mapping source to target, or None.

    Leading qubits beyond the last three are applied as dense kron(prefix, I);
    the last three are scanned through the Kronecker table.
    """
    n = source.n
    t = min(n, 3)
    table = kron_table(t)
    cliffs = single_qubit_cliffords()
    for prefix in itertools.product(range(24), repeat=n - t):
        lead = np.eye(1, dtype=complex)
        for c in prefix:
            lead = np.kron(lead, cliffs[c])
        psi = (np.kron(lead, np.eye(2**t)) @ source.amps).reshape(2 ** (n - t), 2**t)
        # images[k] = (I x table[k]) psi, as one matrix product over all k
        images = (table.reshape(-1, 2**t) @ psi.T).reshape(len(table), 2**t, -1)
        images = images.transpose(0, 2, 1).reshape(len(table), -1)
        overlaps = images @ target.amps.conj()
        hits = np.flatnonzero(np.abs(np.abs(overlaps) - 1.0) <= atol)
        if hits.size:
            ov = overlaps[hits[0]]
            tail = np.unravel_index(hits[0], (24,) * t)
            return prefix + tuple(int(c) for c in tail), ov.conjugate() / abs(ov)
    return None


@st.composite
def search_pairs(draw):
    g = draw(graphs(min_n=1, max_n=4))
    source = build_graph_state(g)
    kind = draw(st.sampled_from(["hit", "graph", "random"]))
    if kind == "hit":
        u = draw(local_cliffords(g.n))
        angle = draw(st.floats(0.0, 2 * math.pi))
        u = LocalUnitary(complex(math.cos(angle), math.sin(angle)), u.factors)
        target = apply_local(u, source)
    elif kind == "graph":
        h = draw(graphs(min_n=g.n, max_n=g.n))
        target = build_graph_state(h)
    else:
        target = draw(random_states(n=g.n))
    return source, target


class TestLcSearchMatchesKronReference:
    @given(search_pairs())
    def test_same_witness_as_kron_scan(self, pair):
        source, target = pair
        want = lc_search_reference(source, target)
        got = lc_search(source, target)
        assert got.found == (want is not None)
        if want is None:
            return
        cliffs = single_qubit_cliffords()
        indices = tuple(next(k for k, c in enumerate(cliffs) if np.array_equal(c, f))
                        for f in got.unitary.factors)
        assert indices == want[0]
        assert abs(got.unitary.global_phase - want[1]) <= 1e-12
