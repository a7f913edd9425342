"""Local-complementation unitaries, LC-orbit enumeration, and exact
local-Clifford equivalence search between dense states.

An orbit is a level-synchronous breadth-first closure.  Each level is a
(L, n) uint16 array of its members' adjacency rows; the kernel of
:mod:`graphstab.graphs` complements all of them at every vertex at once,
and the L*n children are deduplicated on their row bytes, so duplicates are
rejected before any graph or witness is built.  The witnesses of a level's new
members are computed by one batched matrix product per block of at most
2^10 members: tau's factors, looked up in a (3, 2, 2) stack by the parent's
neighbor bits, times the parents' factors.  Each witness is a read-only view
into its level's factor array.  The optional dense check contracts those
arrays into the seed state one qubit at a time and compares them with the
members' graph states, built by the batched kernel of
:mod:`graphstab.states` that also backs ``build_graph_state``, in batches of
at most 2^12 amplitudes.

The search first compares the two states' Pauli spectra, the sorted
magnitudes of their 4^n Pauli expectations, which local Cliffords only
permute; a pair whose spectra differ by more than any hit allows is answered
found=False without a scan.  Every other pair is scanned.  The search space
per qubit is the canonical (24, 2, 2) Clifford stack from
:mod:`graphstab.localops`; assignments are scanned in lexicographic order
over positions, so witnesses are deterministic across runs.  The scan fixes
leading qubits by recursion and covers the last three in leaves of 24^3
candidates (a few hundred KB of working memory per leaf).  A leaf contracts
its overlap block with the stack, reshaped to (24, 4), by one matrix
product per tail qubit over axis orders fixed once per search: the products
np.tensordot would form, so the overlaps are the same to the bit.  It then
takes their magnitudes once and is left at once when the largest is below
1 - ATOL, since no candidate can then be within ATOL of 1; only the other
leaves are compared entry by entry for the first hit.  Witnesses are
:class:`LocalUnitary` objects.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, _complements
from .localops import ATOL, MAX_QUBITS, LocalUnitary, pauli_rotation, single_qubit_cliffords
from .states import StateVector, _apply_factor, _check_same_qubits, _graph_state_amps, _pauli_spectrum

MAX_SEARCH_QUBITS = 6
_BATCH_TAIL = 3  # qubits handled by one fully vectorized block
_TAU_STACK = np.array([np.eye(2), pauli_rotation("Z", -math.pi / 4), pauli_rotation("X", math.pi / 4)],
                      dtype=complex)
_TAU_STACK.setflags(write=False)  # indexed by neighbor bit, 2 on the vertex itself
_TAU_PHASE = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
_LEVEL_BLOCK = 1 << 10  # members per batched witness product; bounds its temporaries
_DENSE_CHUNK = 1 << 12  # amplitudes per batch of the orbit's dense check
# How far a hit lets one Pauli expectation move.  A hit has |<t|U s>| >= 1 - ATOL,
# and StateVector admits norms within ATOL of 1, so with the phase chosen to make
# the overlap real, ||t - e^{i phi} U s||^2 <= 2 (1 + ATOL)^2 - 2 (1 - ATOL)
# = 6 ATOL + 2 ATOL^2.  Then |<t|P|t> - <v|P|v>| <= (||t|| + ||v||) ||t - v||
# for v = e^{i phi} U s, whose expectations are those of s up to order and sign;
# magnitudes and sorting move no entry further.  The ATOL on top is a round-off
# margin, far above the ~1e-14 error of a sum over the 2^6 amplitudes.
_SPECTRUM_SLACK = 2 * (1 + ATOL) * math.sqrt(6 * ATOL + 2 * ATOL**2) + ATOL


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
    factors = _tau_factors(np.array([g.rows[pos]]), np.array([pos]), g.n)[0]
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
    first).  Each level's adjacency rows are one (L, n) array; all L*n
    children are formed at once and deduplicated on their row bytes (equal
    rows are equal edge sets, since every member shares the seed's label
    order), so only new members are built.  A level's witnesses are tau
    times the parent's witness, computed by one matrix product per block of
    at most 2^10 members; each witness's factors are a read-only view into
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
    members, parents = [root], [root]
    stacks = [root.witness.factors[None]]  # each level's witness factors, in member order
    level = np.array([seed.rows], dtype=np.uint16)  # the parents' rows; n <= 12 bits each
    seen = {level.tobytes()}
    row_values = tuple(range(1 << n))  # members share one int object per row value
    truncated = False
    while not truncated:
        # dedup the level's children on their row bytes, building nothing
        children = _complements(level).reshape(-1, n)  # parent-major, then vertex
        moves = []  # indices k = parent * n + vertex of the new members
        for k, (key,) in enumerate(struct.iter_unpack(f"{children.itemsize * n}s", children)):
            if key not in seen:
                seen.add(key)
                moves.append(k)
        if max_members is not None and len(members) + len(moves) > max_members:
            del moves[max_members - len(members):]
            truncated = True
        if not moves:
            break

        pidx, vertices = np.divmod(moves, n)
        nbs = level[pidx, vertices]
        level = children[moves]
        del children  # freed before the factors: 12 MB at the 12-ring's widest level
        factors = np.empty((len(moves), n, 2, 2), dtype=complex)
        for s in range(0, len(moves), _LEVEL_BLOCK):
            block = slice(s, s + _LEVEL_BLOCK)
            np.matmul(_tau_factors(nbs[block], vertices[block], n), stacks[-1][pidx[block]],
                      out=factors[block])
        factors.setflags(write=False)
        stacks.append(factors)

        new = []
        for p, v, rows, f in zip(pidx.tolist(), vertices.tolist(), level.tolist(), factors):
            parent = parents[p]
            witness = LocalUnitary._trusted(_TAU_PHASE * parent.witness.global_phase, f)
            new.append(OrbitMember(Graph._trusted(seed.names, tuple([row_values[r] for r in rows])),
                                   witness, parent.path + (seed.names[v],)))
        members.extend(new)
        parents = new

    if verify:
        _verify_orbit(seed, members, np.concatenate(stacks))
    return OrbitReport(seed, tuple(members), truncated)


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
    graph_amps = _graph_state_amps([member.graph.rows for member in members], n)
    return phases * np.einsum("mx,xm->m", graph_amps, images)


def _verify_orbit(seed: Graph, members: Sequence[OrbitMember], factors: np.ndarray) -> None:
    """Raise RuntimeError naming the first member whose witness fails the dense check.

    `factors` is the (M, n, 2, 2) stack of the members' witness factors.
    """
    seed_amps = _graph_state_amps([seed.rows], seed.n)[0]
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
    """Exact search for a per-qubit Clifford assignment mapping source to target.

    Returns the first match in canonical (lexicographic) enumeration order,
    with the witness global phase fixed so the map is exact, or found=False.
    Both states must list the same labels in the same order, since amplitudes
    are compared by position.

    A pair whose Pauli spectra (the sorted |<psi|P|psi>| over all 4^n Paulis)
    differ anywhere by more than a hit allows is answered found=False without
    the scan; the slack is wide enough that this never drops a hit, so the
    answer and witness are the scan's.  Every other miss is found=False after
    all 24^n candidates.

    The leading n - 3 qubits are fixed one Clifford at a time by recursion;
    the last min(n, 3) are scanned together, in leaves of 24^3 candidates.  A
    leaf contracts the overlap block of target and source on those qubits
    with the 24 Cliffords factor by factor, last qubit first: each step is
    one matrix product of the (24, 4) Clifford stack with the block's axes
    moved into a fixed order, so there is no precomputed table and a leaf's
    working memory is a few hundred KB.  A leaf whose largest overlap
    magnitude is below 1 - ATOL cannot hold a hit and is left at once.
    """
    _check_same_qubits(source, target)
    n = source.n
    if n > MAX_SEARCH_QUBITS:
        raise ValueError(f"search limited to {MAX_SEARCH_QUBITS} qubits (24^n candidates)")
    if np.max(np.abs(_pauli_spectrum(source) - _pauli_spectrum(target))) > _SPECTRUM_SLACK:
        return EquivalenceWitness(False, None)
    cliffs = single_qubit_cliffords()
    stack = cliffs.reshape(24, 4)
    t = min(n, _BATCH_TAIL)
    target_adj = target.amps.reshape(2 ** (n - t), 2**t).conj().T
    # Axes of the overlap block are (Clifford indices..., row bits...,
    # column bits...); the current qubit's row bit sits at axis t - 1 and its
    # column bit last, and each product puts its Clifford axis in front.
    steps = []  # (axis order, shape of the product), as np.tensordot forms them
    shape = [2] * (2 * t)
    for _ in range(t):
        order = [t - 1, len(shape) - 1] + [k for k in range(len(shape) - 1) if k != t - 1]
        shape = [24] + [shape[k] for k in order[2:]]
        steps.append((order, shape))
    floor = 1.0 - ATOL

    def scan(pos: int, amps: np.ndarray, prefix: tuple[int, ...]):
        if pos == n - t:
            overlaps = (target_adj @ amps.reshape(2 ** (n - t), 2**t)).reshape([2] * (2 * t))
            for order, shape in steps:
                overlaps = np.dot(stack, overlaps.transpose(order).reshape(4, -1)).reshape(shape)
            mags = np.abs(overlaps)
            if mags.max() < floor:  # no |ov| within ATOL of 1
                return None
            hits = np.argwhere(np.abs(mags - 1.0) <= ATOL)
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
