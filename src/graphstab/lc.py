"""Local-complementation unitaries, LC-orbit enumeration, and brute-force
local-Clifford equivalence search between dense states.

The search space per qubit is the canonical (24, 2, 2) Clifford stack from
:mod:`graphstab.localops`; assignments are scanned in lexicographic order
over positions, so witnesses are deterministic across runs.  The scan fixes
leading qubits by recursion and covers the last three in chunks of 24^3
candidates, contracted with the stack factor by factor (a few hundred KB of
working memory per chunk).  Witnesses are :class:`LocalUnitary` objects.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, canonical_key, local_complement
from .localops import ATOL, MAX_QUBITS, LocalUnitary, pauli_rotation, single_qubit_cliffords
from .states import (StateVector, _apply_factor, apply_local, build_graph_state,
                     equal_up_to_global_phase)

MAX_SEARCH_QUBITS = 6
_BATCH_TAIL = 3  # qubits handled by one fully vectorized block
_TAU_VERTEX = pauli_rotation("X", math.pi / 4)
_TAU_NEIGHBOR = pauli_rotation("Z", -math.pi / 4)
_TAU_PHASE = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))


def tau_unitary(g: Graph, a: str) -> LocalUnitary:
    """The local unitary implementing local complementation at `a`.

    Global phase e^{i pi/4}, factor e^{i pi/4 X} on `a`, e^{-i pi/4 Z} on each
    neighbor, identity elsewhere.  With this fixed phase convention the map
    |g> -> |tau_a(g)> is exact for degree-2 vertices and holds up to a global
    phase (i * e^{-i pi deg(a)/4}) otherwise.
    """
    pos = g.position(a)
    placed = {pos: _TAU_VERTEX}
    row = g.rows[pos]
    for j in range(g.n):
        if row >> j & 1:
            placed[j] = _TAU_NEIGHBOR
    return LocalUnitary.embed(g.n, placed, _TAU_PHASE)


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

    Members are deduplicated by canonical key and each carries the composed
    witness unitary plus the complementation path (first move first).  When
    `verify` is true (default for n <= 6) every witness is checked against
    the dense engine, up to global phase.
    """
    if seed.n > MAX_QUBITS:
        raise ValueError(f"orbit enumeration limited to {MAX_QUBITS} vertices")
    if max_members is not None and max_members < 1:
        raise ValueError("max_members must be positive")
    if verify is None:
        verify = seed.n <= MAX_SEARCH_QUBITS

    members = [OrbitMember(seed, LocalUnitary.identity(seed.n), ())]
    seen = {canonical_key(seed)}
    queue = deque(members)
    truncated = False
    while queue and not truncated:
        parent = queue.popleft()
        for a in seed.names:
            child = local_complement(parent.graph, a)
            key = canonical_key(child)
            if key in seen:
                continue
            if max_members is not None and len(members) >= max_members:
                truncated = True
                break
            seen.add(key)
            witness = tau_unitary(parent.graph, a).compose(parent.witness)
            member = OrbitMember(child, witness, parent.path + (a,))
            members.append(member)
            queue.append(member)

    report = OrbitReport(seed, tuple(members), truncated)
    if verify:
        _verify_orbit(report)
    return report


def _verify_orbit(report: OrbitReport) -> None:
    seed_state = build_graph_state(report.seed)
    for member in report.members:
        got = apply_local(member.witness, seed_state)
        want = build_graph_state(member.graph)
        if not equal_up_to_global_phase(got, want):
            raise RuntimeError(f"orbit witness for path {member.path} failed the dense check")


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
