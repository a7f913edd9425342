import itertools
import math
import random
import re
from collections import Counter, deque
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphstab import (EquivalenceWitness, Graph, LocalUnitary, PauliString, apply_local,
                       apply_pauli, build_chi00, build_graph_state, canonical_key,
                       enumerate_orbit, equal_up_to_global_phase, expectation, lc_search,
                       local_complement, single_qubit_cliffords, tau_unitary)
from graphstab import lc
from graphstab.lc import OrbitMember, OrbitReport, _DENSE_CHUNK, _dense_overlaps, _verify_orbit
from graphstab.localops import ATOL, PAULI_MATS, pauli_rotation
from graphstab.states import StateVector, _graph_state_amps, _pauli_spectrum, max_residual

from strategies import graphs, local_cliffords, random_states
from test_states import cz_reference

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
        assert max_residual(out, StateVector(s.names, 1j * s.amps)) <= 1e-12
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
            ratio = complex(np.vdot(want.amps, got.amps))
            predicted = 1j * np.exp(-1j * math.pi * g.rows[g.position(a)].bit_count() / 4)
            assert abs(ratio - predicted) < 1e-9


def tau_unitary_reference(g: Graph, a: str) -> LocalUnitary:
    """tau_unitary built through the validating constructor."""
    pos = g.position(a)
    factors = [pauli_rotation("Z", -math.pi / 4) if g.rows[pos] >> j & 1 else PAULI_MATS["I"]
               for j in range(g.n)]
    factors[pos] = pauli_rotation("X", math.pi / 4)
    return LocalUnitary(complex(math.cos(math.pi / 4), math.sin(math.pi / 4)), factors)


class TestTrustedConstructors:
    @given(data=st.data(), g=graphs(max_n=12))
    def test_results_pass_the_validating_constructor(self, data, g):
        a = data.draw(st.sampled_from(g.names))
        tau = tau_unitary(g, a)
        want = tau_unitary_reference(g, a)
        assert tau.global_phase == want.global_phase
        assert tau.factors.tobytes() == want.factors.tobytes()
        other = data.draw(local_cliffords(g.n))
        for u in (tau, tau.compose(other), other.compose(tau)):
            assert not u.factors.flags.writeable
            checked = LocalUnitary(u.global_phase, u.factors)
            assert checked.global_phase == u.global_phase
            assert checked.factors.tobytes() == u.factors.tobytes()


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
        report = enumerate_orbit(Graph.from_edges(("a", "b", "c"), []))
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
        g = Graph.from_edges(tuple(f"q{i}" for i in range(13)), [])
        with pytest.raises(ValueError, match="12"):
            enumerate_orbit(g)


def ring(n: int) -> Graph:
    names = tuple(f"r{i}" for i in range(n))
    return Graph.from_edges(names, [(names[i], names[(i + 1) % n]) for i in range(n)])


def random_graph(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    names = tuple(f"q{i}" for i in range(n))
    return Graph.from_edges(names, [e for e in itertools.combinations(names, 2) if rng.random() < 0.4])


def enumerate_orbit_reference(seed: Graph, max_members=None):
    """(members, truncated) of the per-member BFS the level-synchronous one
    replaced: a built `local_complement` per move, dedup on its rows, and
    `tau_unitary(...).compose(parent.witness)` per new member."""
    members = [OrbitMember(seed, LocalUnitary.identity(seed.n), ())]
    seen = {seed.rows}
    queue = deque(members)
    truncated = False
    while queue and not truncated:
        parent = queue.popleft()
        for a in seed.names:
            child = local_complement(parent.graph, a)
            if child.rows in seen:
                continue
            if max_members is not None and len(members) >= max_members:
                truncated = True
                break
            seen.add(child.rows)
            witness = tau_unitary(parent.graph, a).compose(parent.witness)
            member = OrbitMember(child, witness, parent.path + (a,))
            members.append(member)
            queue.append(member)
    return members, truncated


def assert_same_as_reference(g: Graph, cap) -> None:
    report = enumerate_orbit(g, max_members=cap, verify=False)
    want, truncated = enumerate_orbit_reference(g, cap)
    assert report.truncated == truncated
    assert [m.graph.rows for m in report.members] == [m.graph.rows for m in want]
    for got, ref in zip(report.members, want):
        assert got.graph.names == g.names
        assert got.path == ref.path
        assert got.witness.global_phase == ref.witness.global_phase
        assert got.witness.factors.tobytes() == ref.witness.factors.tobytes()
        assert not got.witness.factors.flags.writeable


class TestLevelSynchronousOrbit:
    @given(g=graphs(max_n=8), cap=st.one_of(st.none(), st.integers(1, 400)))
    def test_matches_per_member_bfs(self, g, cap):
        assert_same_as_reference(g, cap)

    @given(g=graphs(max_n=8), cap=st.one_of(st.none(), st.integers(1, 400)))
    def test_matches_per_member_bfs_across_small_blocks(self, g, cap):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lc, "_LEVEL_BLOCK", 3)
            assert_same_as_reference(g, cap)

    # the hypothesis properties stop at 8 vertices; these reach the 12-vertex cap
    @pytest.mark.parametrize("g", [ring(12), random_graph(12, seed=20080106)], ids=["ring", "random"])
    def test_matches_per_member_bfs_at_twelve_vertices(self, g):
        assert_same_as_reference(g, 500)

    @pytest.mark.parametrize("n, size", [(6, 372), (8, 2_932), (10, 22_484)])
    def test_ring_orbit_sizes(self, n, size):
        report = enumerate_orbit(ring(n), verify=False if n > 8 else None)
        assert not report.truncated
        assert len(report.members) == size
        assert len({m.graph.rows for m in report.members}) == size


def with_tampered_witness(report: OrbitReport, index: int) -> OrbitReport:
    """The report with Z applied after the first factor of one member's witness."""
    m = report.members[index]
    factors = m.witness.factors.copy()
    factors[0] = PAULI_MATS["Z"] @ factors[0]
    bad = OrbitMember(m.graph, LocalUnitary(m.witness.global_phase, factors), m.path)
    members = report.members[:index] + (bad,) + report.members[index + 1:]
    return OrbitReport(report.seed, members, report.truncated)


def verify_report(report: OrbitReport) -> None:
    """_verify_orbit on the report's witnesses."""
    _verify_orbit(report.seed, report.members, np.stack([m.witness.factors for m in report.members]))


def dense_check_reference(seed: Graph, members) -> list[tuple[complex, bool]]:
    """The per-member check the batched one replaced: (overlap, passed) per member."""
    seed_state = build_graph_state(seed)
    out = []
    for member in members:
        got = apply_local(member.witness, seed_state)
        want = build_graph_state(member.graph)
        out.append((complex(np.vdot(want.amps, got.amps)), equal_up_to_global_phase(got, want)))
    return out


class TestDenseCheck:
    def test_tampered_member_of_paper_cycle_is_named(self, graph_a):
        report = enumerate_orbit(graph_a)
        path = report.members[5].path
        with pytest.raises(RuntimeError) as exc:
            verify_report(with_tampered_witness(report, 5))
        assert str(exc.value) == f"orbit witness for path {path} failed the dense check"

    def test_tampered_member_past_the_first_chunk_is_named(self):
        report = enumerate_orbit(ring(7), verify=True)
        index = (_DENSE_CHUNK >> 7) + 5  # the check batches 2^12 / 2^7 members at a time
        assert index < len(report.members)
        path = report.members[index].path
        with pytest.raises(RuntimeError) as exc:
            verify_report(with_tampered_witness(report, index))
        assert str(exc.value) == f"orbit witness for path {path} failed the dense check"

    def test_enumeration_checks_every_member(self, monkeypatch):
        # e^{-i pi/4 X} on the complemented vertex is off by X there, so every
        # member past the seed carries a wrong witness
        wrong = np.array(lc._TAU_STACK)
        wrong[2] = pauli_rotation("X", -math.pi / 4)
        monkeypatch.setattr(lc, "_TAU_STACK", wrong)
        assert len(enumerate_orbit(ring(6), verify=False).members) == 372
        with pytest.raises(RuntimeError) as exc:
            enumerate_orbit(ring(6))
        assert str(exc.value) == "orbit witness for path ('r0',) failed the dense check"

    @given(data=st.data(), g=graphs(max_n=7))
    def test_batch_matches_per_member_loop(self, data, g):
        members = enumerate_orbit(g, max_members=40, verify=False).members
        amps = _graph_state_amps([m.graph.rows for m in members], g.n)
        for row, m in zip(amps, members):
            assert row.tobytes() == cz_reference(m.graph).real.tobytes()
        # pair witnesses with other members' graphs too, so failing overlaps are compared
        order = data.draw(st.permutations(range(len(members))))
        paired = [OrbitMember(members[k].graph, m.witness, m.path) for k, m in zip(order, members)]
        seed_amps = _graph_state_amps([g.rows], g.n)[0]
        got = _dense_overlaps(seed_amps, paired, np.stack([m.witness.factors for m in paired]))
        for ov, (want, passed) in zip(got, dense_check_reference(g, paired)):
            assert abs(ov - want) <= 1e-12
            assert (abs(abs(ov) - 1.0) <= 1e-9) == passed


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

    @pytest.mark.parametrize("order", [("x", "y"), ("b", "a")])
    def test_mismatched_labels(self, order):
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        source, target = StateVector(("a", "b"), bell), StateVector(order, bell)
        with pytest.raises(ValueError, match=re.escape(f"('a', 'b') and {order}")):
            lc_search(source, target)

    def test_oversize_rejected(self):
        names = tuple(f"q{i}" for i in range(7))
        amps = np.zeros(128)
        amps[0] = 1.0
        s = StateVector(names, amps)
        with pytest.raises(ValueError, match="6"):
            lc_search(s, s)


# --- slow oracle for lc_search: explicit Kronecker products, lexicographic scan ---

def clifford_indices(u: LocalUnitary) -> tuple[int, ...]:
    """Positions of the factors of `u` in the canonical 24-element Clifford list."""
    cliffs = single_qubit_cliffords()
    return tuple(next(k for k, c in enumerate(cliffs) if np.array_equal(c, f)) for f in u.factors)


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
        assert clifford_indices(got.unitary) == want[0]
        assert abs(got.unitary.global_phase - want[1]) <= 1e-12


# --- the leaf as it was written with np.tensordot, kept as the bit-for-bit reference ---

def lc_search_tensordot(source: StateVector, target: StateVector):
    """(factor indices, phase) of the first hit, or None: the scan with each
    qubit's factor applied by np.tensordot, every leaf contracted by one
    np.tensordot per tail qubit and checked in full, with no early reject."""
    n = source.n
    cliffs = single_qubit_cliffords()
    t = min(n, 3)
    target_block = target.amps.reshape(2 ** (n - t), 2**t)

    def scan(pos, amps, prefix):
        if pos == n - t:
            overlaps = (target_block.conj().T @ amps.reshape(2 ** (n - t), 2**t)).reshape([2] * (2 * t))
            for _ in range(t):
                overlaps = np.tensordot(cliffs, overlaps, axes=([1, 2], [t - 1, -1]))
            hits = np.argwhere(np.abs(np.abs(overlaps) - 1.0) <= ATOL)
            if len(hits):
                first = tuple(int(c) for c in hits[0])
                return prefix + first, overlaps[first]
            return None
        for c in range(24):
            image = np.tensordot(cliffs[c], amps.reshape([2] * n), axes=([1], [pos]))
            found = scan(pos + 1, np.moveaxis(image, 0, pos).reshape(-1), prefix + (c,))
            if found is not None:
                return found
        return None

    hit = scan(0, source.amps, ())
    if hit is None:
        return None
    assignment, ov = hit
    return assignment, ov.conjugate() / abs(ov)


def seeded_pair(n: int, kind: str, seed: int):
    """(source, target) on labels q0..q{n-1}.

    Kinds: "hit" maps a random graph state by a random local Clifford and
    phase, "state-hit" does the same to a random state (so the witness phase
    carries rounding), "graph" pairs two random graph states and "random" a
    graph state with a random state.
    """
    rng = np.random.default_rng([n, seed])
    names = tuple(f"q{i}" for i in range(n))

    def graph_state():
        edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        return build_graph_state(Graph.from_edges(names, edges))

    def random_state():
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        return StateVector(names, amps / np.linalg.norm(amps))

    source = random_state() if kind == "state-hit" else graph_state()
    if kind in ("hit", "state-hit"):
        angle = rng.uniform(0, 2 * math.pi)
        u = LocalUnitary(complex(math.cos(angle), math.sin(angle)),
                         single_qubit_cliffords()[rng.integers(0, 24, n)])
        return source, apply_local(u, source)
    return source, graph_state() if kind == "graph" else random_state()


PAIR_KINDS = ("hit", "state-hit", "graph", "random")
SEEDED_CASES = [(n, kind, seed) for n in (1, 2, 3, 4) for kind in PAIR_KINDS for seed in range(6)]
SEEDED_CASES += [(5, kind, seed) for kind in PAIR_KINDS for seed in range(2)]


class TestLcSearchBitIdentical:
    @pytest.mark.parametrize("n, kind, seed", SEEDED_CASES)
    def test_same_witness_as_tensordot_leaf(self, n, kind, seed):
        source, target = seeded_pair(n, kind, seed)
        want = lc_search_tensordot(source, target)
        got = lc_search(source, target)
        assert got.found == (want is not None)
        if kind.endswith("hit"):
            assert got.found
        if want is not None:
            assert clifford_indices(got.unitary) == want[0]
            assert got.unitary.global_phase == want[1]


class TestEarlyReject:
    """Targets at a chosen distance 1 - cos(theta) from a local-Clifford image."""

    @pytest.mark.parametrize("seed", range(6))
    def test_reject_threshold_is_one_minus_atol(self, seed):
        n = 2 + seed % 3
        source, image = seeded_pair(n, "hit", seed)
        exact = lc_search(source, image)
        assert exact.found
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        w -= np.vdot(image.amps, w) * image.amps
        w /= np.linalg.norm(w)
        for gap, found in ((ATOL / 2, True), (2 * ATOL, False)):
            cos = 1.0 - gap
            target = StateVector(source.names, cos * image.amps + math.sqrt(1.0 - cos**2) * w)
            got = lc_search(source, target)
            assert got.found == found
            if found:
                assert clifford_indices(got.unitary) == clifford_indices(exact.unitary)
                assert abs(got.unitary.global_phase - exact.unitary.global_phase) <= 1e-12


class TestSpectrumReject:
    @pytest.mark.parametrize("seed", range(8))
    def test_tolerance_edge_hit_keeps_the_scan_witness(self, seed):
        # Source and target at norm 1 + 0.9 ATOL with |overlap| 1 - 0.9 ATOL: the
        # target tilts the image u by theta toward Q u, for a one-qubit Pauli Q
        # with <u|Q|u> = 0, which moves |<Q>| from 0 to about 1.47e-4, past the
        # slack 2 sqrt(2 ATOL) that leaves out the norm tolerance.
        n = 2 + seed % 4
        graph, image = seeded_pair(n, "hit", seed)
        scale = 1.0 + 0.9 * ATOL
        q = next(p for p in (PauliString.from_letters(c + "I" * (n - 1)) for c in "XYZ")
                 if abs(expectation(p, image)) < 1e-12)
        theta = math.acos((1.0 - 0.9 * ATOL) / scale**2)
        source = StateVector(graph.names, scale * graph.amps)
        target = StateVector(graph.names, scale * (math.cos(theta) * image.amps
                                                   + math.sin(theta) * apply_pauli(q, image).amps))
        assert np.max(np.abs(_pauli_spectrum(source) - _pauli_spectrum(target))) > 2 * math.sqrt(2 * ATOL)
        want = lc_search_tensordot(source, target)
        got = lc_search(source, target)
        assert want is not None and got.found
        assert clifford_indices(got.unitary) == want[0]
        assert got.unitary.global_phase == want[1]

    @pytest.mark.parametrize("n", [4, 5])
    def test_differing_spectra_skip_the_scan(self, monkeypatch, n):
        def no_scan(*args):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(lc, "_apply_factor", no_scan)
        assert lc_search(*seeded_pair(n, "random", 0)) == EquivalenceWitness(False, None)
        with pytest.raises(AssertionError, match="the scan ran"):  # graph states share a spectrum
            lc_search(*seeded_pair(n, "graph", 0))
