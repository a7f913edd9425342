"""Local-complementation unitaries, LC-orbit enumeration, and brute-force
local-Clifford equivalence search between dense states.

An orbit is a level-synchronous breadth-first closure.  Each member's
adjacency rows are packed into one int key, and a move XORs that key with
the memoized toggle mask of the vertex's neighborhood, so duplicates are
rejected before any graph or witness is built.  The witnesses of a level's new
members are computed by one batched matrix product per block of at most
2^10 members: tau's factors, looked up in a (3, 2, 2) stack by the parent's
neighbor bits, times the parents' factors.  Each witness is a read-only view
into its level's factor array.  The optional dense check contracts those
arrays into the seed state one qubit at a time and compares them with the
members' graph states, built from the parity of the adjacency quadratic form,
in batches of at most 2^12 amplitudes.

The search space per qubit is the canonical (24, 2, 2) Clifford stack from
:mod:`graphstab.localops`; assignments are scanned in lexicographic order
over positions, so witnesses are deterministic across runs.  The scan fixes
leading qubits by recursion and covers the last three in chunks of 24^3
candidates, contracted with the stack factor by factor (a few hundred KB of
working memory per chunk).  Witnesses are :class:`LocalUnitary` objects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, _pack, _packed_toggle, _unpack
from .localops import ATOL, MAX_QUBITS, LocalUnitary, pauli_rotation, single_qubit_cliffords
from .states import StateVector, _apply_factor

MAX_SEARCH_QUBITS = 6
_BATCH_TAIL = 3  # qubits handled by one fully vectorized block
_TAU_STACK = np.array([np.eye(2), pauli_rotation("Z", -math.pi / 4), pauli_rotation("X", math.pi / 4)],
                      dtype=complex)
_TAU_STACK.setflags(write=False)  # indexed by neighbor bit, 2 on the vertex itself
_TAU_PHASE = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
_LEVEL_BLOCK = 1 << 10  # members per batched witness product; bounds its temporaries
_DENSE_CHUNK = 1 << 12  # amplitudes per batch of the orbit's dense check


def _tau_factors(nbs: np.ndarray, vertices: np.ndarray, n: int) -> np.ndarray:
    """(M, n, 2, 2) factors of tau at position vertices[k] of a graph whose row
    there is nbs[k]: e^{i pi/4 X} on the vertex, e^{-i pi/4 Z} on each neighbor."""
    idx = (nbs[:, None] >> np.arange(n)) & 1
    idx[np.arange(len(idx)), vertices] = 2
    return _TAU_STACK[idx]


def tau_unitary(g: Graph, a: str) -> LocalUnitary:
    """The local unitary implementing local complementation at `a`.

    Global phase e^{i pi/4}, factor e^{i pi/4 X} on `a`, e^{-i pi/4 Z} on each
    neighbor, identity elsewhere.  With this fixed phase convention the map
    |g> -> |tau_a(g)> is exact for degree-2 vertices and holds up to a global
    phase (i * e^{-i pi deg(a)/4}) otherwise.
    """
    pos = g.position(a)
    idx = [g.rows[pos] >> j & 1 for j in range(g.n)]
    idx[pos] = 2
    factors = _TAU_STACK[idx]
    factors.setflags(write=False)
    return LocalUnitary._trusted(_TAU_PHASE, factors)


@dataclass(frozen=True)
class OrbitMember:
    graph: Graph
    witness: LocalUnitary
    path: tuple[str, ...]


@dataclass(frozen=True)
class OrbitReport:
    seed: Graph
    members: tuple[OrbitMember, ...]
    truncated: bool


def enumerate_orbit(seed: Graph, max_members: int | None = None,
                    verify: bool | None = None) -> OrbitReport:
    """Breadth-first closure of `seed` under local complementation.

    Members are listed level by level, each level in the order of its
    parents and then of the complemented vertex's position, and carry the
    composed witness unitary plus the complementation path (first move
    first).  A move is deduplicated on the adjacency rows packed into one int
    (equal rows are equal edge sets, since every member shares the seed's
    label order), so only new members are built.  A level's witnesses are
    tau times the parent's witness, computed by one matrix product per block
    of at most 2^10 members; each witness's factors are a read-only view into
    its level's array.  When `verify` is true (default for n <= 6) every
    witness is checked against the dense engine, up to global phase, in
    batches of at most 2^12 amplitudes.
    """
    if seed.n > MAX_QUBITS:
        raise ValueError(f"orbit enumeration limited to {MAX_QUBITS} vertices")
    if max_members is not None and max_members < 1:
        raise ValueError("max_members must be positive")
    if verify is None:
        verify = seed.n <= MAX_SEARCH_QUBITS

    n = seed.n
    root = OrbitMember(seed, LocalUnitary.identity(n), ())
    members = [root]
    stacks = [root.witness.factors[None]]  # each level's witness factors, in member order
    frontier = [(root, _pack(seed.rows, n))]
    seen = {frontier[0][1]}
    toggles: dict[int, int] = {}
    row_values = tuple(range(1 << n))  # members share one int object per row value
    truncated = False
    while frontier and not truncated:
        # dedup the level's moves on packed keys, building nothing
        moves, keys = [], []  # (parent index, vertex position, its neighbor mask), child key
        for p, (parent, key) in enumerate(frontier):
            for v, nb in enumerate(parent.graph.rows):
                toggle = toggles.get(nb)
                if toggle is None:
                    toggle = toggles[nb] = _packed_toggle(nb, n)
                child = key ^ toggle
                if child not in seen:
                    seen.add(child)
                    moves.append((p, v, nb))
                    keys.append(child)
        if max_members is not None and len(members) + len(moves) > max_members:
            room = max_members - len(members)
            del moves[room:], keys[room:]
            truncated = True
        if not moves:
            break

        pidx, vertices, nbs = np.array(moves).T
        factors = np.empty((len(moves), n, 2, 2), dtype=complex)
        for s in range(0, len(moves), _LEVEL_BLOCK):
            block = slice(s, s + _LEVEL_BLOCK)
            np.matmul(_tau_factors(nbs[block], vertices[block], n), stacks[-1][pidx[block]],
                      out=factors[block])
        factors.setflags(write=False)
        stacks.append(factors)

        level = []
        for (p, v, _), key, f in zip(moves, keys, factors):
            parent = frontier[p][0]
            witness = LocalUnitary._trusted(_TAU_PHASE * parent.witness.global_phase, f)
            member = OrbitMember(Graph._trusted(seed.names, _unpack(key, n, row_values)), witness,
                                 parent.path + (seed.names[v],))
            level.append((member, key))
            members.append(member)
        frontier = level

    if verify:
        _verify_orbit(seed, members, np.concatenate(stacks))
    return OrbitReport(seed, tuple(members), truncated)


def _graph_state_amps(graphs: list[Graph]) -> np.ndarray:
    """Real (M, 2^n) amplitudes of the graph states of M graphs on n vertices.

    Amplitude x is 2^{-n/2} (-1)^{q(x)}, where q(x) counts the edges with
    both ends set in x (position 0 the most significant bit of x).
    """
    n = graphs[0].n
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1  # (2^n, n)
    i, j = np.triu_indices(n, 1)  # vertex pairs i < j
    rows = np.array([g.rows for g in graphs], dtype=np.int64)
    edges = (rows[:, i] >> j & 1).astype(float)  # (M, pairs)
    edges_in_x = (edges @ (bits[:, i] & bits[:, j]).T).astype(np.int64)  # exact small integers
    return (1 - 2 * (edges_in_x & 1)) * 2 ** (-n / 2)


def _dense_overlaps(seed_amps: np.ndarray, members: Sequence[OrbitMember],
                    factors: np.ndarray) -> np.ndarray:
    """<member graph state| witness |seed> for each member, as one batch.

    `factors` is the (M, n, 2, 2) stack of the members' witness factors.  The
    images keep the member axis last, and each qubit's factor is applied as an
    elementwise 2x2 update of amplitude pairs.
    """
    m, n = factors.shape[:2]
    coefs = factors.transpose(1, 2, 3, 0)  # (n, 2, 2, M)
    images = seed_amps[:, None]  # broadcast against the batch by the first update
    for q in range(n):
        blocks = images.reshape(2**q, 2, -1, images.shape[1])
        x0, x1 = blocks[:, :1], blocks[:, 1:]
        (a, b), (c, d) = coefs[q]
        images = np.concatenate([a * x0 + b * x1, c * x0 + d * x1], axis=1).reshape(2**n, m)
    phases = np.array([member.witness.global_phase for member in members])
    graph_amps = _graph_state_amps([member.graph for member in members])
    return phases * np.einsum("mx,xm->m", graph_amps, images)


def _verify_orbit(seed: Graph, members: Sequence[OrbitMember], factors: np.ndarray) -> None:
    """Raise RuntimeError naming the first member whose witness fails the dense check.

    `factors` is the (M, n, 2, 2) stack of the members' witness factors.
    """
    seed_amps = _graph_state_amps([seed])[0]
    chunk = max(1, _DENSE_CHUNK >> seed.n)
    for start in range(0, len(members), chunk):
        batch = members[start:start + chunk]
        overlaps = _dense_overlaps(seed_amps, batch, factors[start:start + chunk])
        bad = np.flatnonzero(~(np.abs(np.abs(overlaps) - 1.0) <= ATOL))
        if len(bad):
            raise RuntimeError(f"orbit witness for path {batch[bad[0]].path} failed the dense check")


@dataclass(frozen=True)
class EquivalenceWitness:
    found: bool
    unitary: LocalUnitary | None = None


def lc_search(source: StateVector, target: StateVector) -> EquivalenceWitness:
    """Exhaustive scan of per-qubit Clifford assignments mapping source to target.

    Returns the first match in canonical (lexicographic) enumeration order,
    with the witness global phase fixed so the map is exact, or found=False
    after all 24^n candidates.

    The leading n - 3 qubits are fixed one Clifford at a time by recursion;
    the last min(n, 3) are scanned together, in chunks of 24^3 candidates.  A
    chunk contracts the overlap block of target and source on those qubits
    with the 24 Cliffords factor by factor, last qubit first, so there is no
    precomputed table and a chunk's working memory is a few hundred KB.
    """
    if source.n != target.n:
        raise ValueError("qubit counts differ")
    n = source.n
    if n > MAX_SEARCH_QUBITS:
        raise ValueError(f"search limited to {MAX_SEARCH_QUBITS} qubits (24^n candidates)")
    cliffs = single_qubit_cliffords()
    t = min(n, _BATCH_TAIL)
    target_block = target.amps.reshape(2 ** (n - t), 2**t)

    def scan(pos: int, amps: np.ndarray, prefix: tuple[int, ...]):
        if pos == n - t:
            block = amps.reshape(2 ** (n - t), 2**t)
            overlaps = (target_block.conj().T @ block).reshape([2] * (2 * t))
            # Axes are (Clifford indices..., row bits..., column bits...); the
            # current qubit's row bit sits at axis t - 1 and its column bit
            # last, and each contraction puts its Clifford axis in front.
            for _ in range(t):
                overlaps = np.tensordot(cliffs, overlaps, axes=([1, 2], [t - 1, -1]))
            hits = np.argwhere(np.abs(np.abs(overlaps) - 1.0) <= ATOL)
            if len(hits):
                first = tuple(int(c) for c in hits[0])
                return prefix + first, overlaps[first]
            return None
        for c in range(24):
            found = scan(pos + 1, _apply_factor(amps, cliffs[c], pos, n), prefix + (c,))
            if found is not None:
                return found
        return None

    hit = scan(0, source.amps, ())
    if hit is None:
        return EquivalenceWitness(False, None)
    assignment, ov = hit
    phase = ov.conjugate() / abs(ov)
    witness = LocalUnitary(phase, cliffs[list(assignment)])
    return EquivalenceWitness(True, witness)
