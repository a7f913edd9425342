"""Known answers worked out without the package under test.

Everything here is plain numpy and GF(2) bit arithmetic.  Nothing imports
``graphstab``: these functions are the independent side of every verdict
check in the benchmark.

Conventions match the package's documented ones: qubit position 0 is the most
significant bit of a basis index, and a graph is a tuple of adjacency-row
bitmasks where bit j of row i marks the edge (i, j).
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

TOL = 1e-9

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


# --- graphs as adjacency bitmasks ---

def rows_from_edges(n: int, edges) -> tuple[int, ...]:
    rows = [0] * n
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return tuple(rows)


def edges_from_rows(rows) -> list[tuple[int, int]]:
    n = len(rows)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i] >> j & 1]


def is_connected(rows) -> bool:
    seen, stack = 1, [0]
    while stack:
        i = stack.pop()
        new = rows[i] & ~seen
        seen |= new
        stack.extend(j for j in range(len(rows)) if new >> j & 1)
    return seen == (1 << len(rows)) - 1


def lc_rows(rows, a: int) -> tuple[int, ...]:
    """Local complement at vertex a: toggle every edge between two neighbours of a."""
    nb = rows[a]
    return tuple(r ^ (nb & ~(1 << i)) if nb >> i & 1 else r for i, r in enumerate(rows))


def orbit_keys(rows) -> frozenset[tuple[int, ...]]:
    """Every graph reachable from `rows` by local complementations."""
    seen = {tuple(rows)}
    stack = [tuple(rows)]
    while stack:
        g = stack.pop()
        for a in range(len(g)):
            h = lc_rows(g, a)
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return frozenset(seen)


def orbit_is_closed(members) -> bool:
    """Every member's local complement at every vertex is again a member."""
    keys = set(members)
    return all(lc_rows(g, a) in keys for g in keys for a in range(len(g)))


def gf2_rank(vectors) -> int:
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def cut_rank(rows, side_a) -> int:
    """GF(2) rank of the adjacency block between `side_a` and the rest.

    For a graph state this is the entanglement entropy across the cut, in
    bits (Hein, Eisert and Briegel, PRA 69, 062311), and it is invariant
    under local unitaries.
    """
    mask_a = sum(1 << i for i in side_a)
    return gf2_rank(rows[i] & ~mask_a for i in side_a)


# --- dense states ---

def graph_state(n: int, rows) -> np.ndarray:
    """Controlled-phase on every edge applied to |+>^n."""
    idx = np.arange(2**n)
    bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
    parity = np.zeros(2**n, dtype=np.int64)
    for i, j in edges_from_rows(rows):
        parity ^= bits[i] & bits[j]
    return (1.0 - 2.0 * parity) / math.sqrt(2**n) + 0j


def apply_factors(amps: np.ndarray, factors, phase: complex = 1.0) -> np.ndarray:
    """phase * (factors[0] x factors[1] x ...) applied to amps, by einsum per qubit."""
    n = len(factors)
    t = np.asarray(amps, dtype=complex).reshape([2] * n)
    for q, f in enumerate(factors):
        t = np.moveaxis(np.einsum("ab,...b->...a", f, np.moveaxis(t, q, -1)), -1, q)
    return phase * t.reshape(-1)


def kron_all(factors, phase: complex = 1.0) -> np.ndarray:
    out = np.array([[phase]], dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def maps_exactly(factors, phase, source: np.ndarray, target: np.ndarray) -> bool:
    """The Kronecker product of the witness takes source to target, phase included."""
    got = kron_all(factors, phase) @ source
    return bool(np.max(np.abs(got - target)) <= 1e-8)


def has_uniform_support(amps: np.ndarray) -> bool:
    """Stabilizer states have equal magnitude on every nonzero amplitude."""
    mags = np.abs(amps)
    mags = mags[mags > 1e-9]
    return bool(mags.max() - mags.min() <= 1e-9)


@lru_cache(maxsize=16)
def _parity_table(n: int) -> np.ndarray:
    idx = np.arange(2**n)
    par = np.zeros(2**n, dtype=np.int64)
    for q in range(n):
        par ^= (idx >> q) & 1
    return par


def letters_expectation(amps: np.ndarray, letters: str) -> complex:
    """<psi| P |psi> for the unsigned Pauli word `letters` (position 0 first)."""
    n = len(letters)
    xm = zm = ny = 0
    for q, c in enumerate(letters):
        bit = 1 << (n - 1 - q)
        if c in "XY":
            xm |= bit
        if c in "ZY":
            zm |= bit
        ny += c == "Y"
    idx = np.arange(2**n)
    # Y = i X Z, and X^x Z^z |j> = (-1)^{|j & z|} |j ^ x>
    src = idx ^ xm
    sign = 1.0 - 2.0 * _parity_table(n)[src & zm]
    return complex((1j**ny) * np.vdot(amps, sign * amps[src]))


# --- the single-qubit Clifford group, built here from H and S ---

def _canonical(m: np.ndarray) -> np.ndarray:
    flat = m.reshape(-1)
    k = int(np.flatnonzero(np.abs(flat) > 1e-6)[0])
    return m * (abs(flat[k]) / flat[k])


@lru_cache(maxsize=1)
def cliffords() -> tuple[np.ndarray, ...]:
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)
    found = {}
    frontier = [np.eye(2, dtype=complex)]
    while frontier:
        m = frontier.pop()
        key = tuple(np.round(m, 8).reshape(-1))
        if key in found:
            continue
        found[key] = m
        frontier.extend(_canonical(g @ m) for g in (h, s))
    assert len(found) == 24
    return tuple(found[k] for k in sorted(found, key=lambda k: [(z.real, z.imag) for z in k]))


@lru_cache(maxsize=1)
def letter_maps() -> tuple[dict[str, str], ...]:
    """For each Clifford U, the unsigned letter of U P U^dagger for P in X, Y, Z."""
    out = []
    for u in cliffords():
        image = {}
        for p in "XYZ":
            m = u @ PAULI[p] @ u.conj().T
            image[p] = next(l for l in "XYZ" if min(np.max(np.abs(m - s * PAULI[l])) for s in (1, -1)) < 1e-9)
        image["I"] = "I"
        out.append(image)
    return tuple(out)


# --- GHZ-type census of a locally rotated graph state ---

def stabilizer_census(n: int, rows, clifford_ids, amps: np.ndarray) -> dict[str, int]:
    """Every element of the stabilizer group of U|G>, as {letters: sign}.

    Element s of the graph's group is, up to sign, X on the vertices in s and
    Z on the XOR of their adjacency rows; U maps each letter by its own
    conjugation, and the sign is read off the dense expectation (+-1).
    """
    maps = letter_maps()
    out = {}
    for s in range(2**n):
        z = 0
        for i in range(n):
            if s >> i & 1:
                z ^= rows[i]
        word = "".join(
            maps[clifford_ids[q]]["IXZY"[(s >> q & 1) + 2 * (z >> q & 1)]] for q in range(n))
        val = letters_expectation(amps, word)
        if abs(abs(val.real) - 1.0) > 1e-8 or abs(val.imag) > 1e-8:
            raise AssertionError(f"element {word} is not a stabilizer of the rotated state")
        out[word] = 1 if val.real > 0 else -1
    return out


def constraint_rows(census: dict[str, int], labels) -> list[tuple[frozenset, int]]:
    """Y-free non-identity elements as (set of (label, axis) terms, sign)."""
    out = []
    for word, sign in census.items():
        if "Y" in word or set(word) == {"I"}:
            continue
        terms = frozenset((labels[q], c.lower()) for q, c in enumerate(word) if c != "I")
        out.append((terms, sign))
    return out


def lhv_satisfiable(constraints) -> bool:
    """GF(2) elimination with a sign column: unsatisfiable iff some row reduces to 0 = 1."""
    universe = sorted({t for terms, _ in constraints for t in terms})
    index = {t: j for j, t in enumerate(universe)}
    pivots: dict[int, tuple[int, int]] = {}
    for terms, sign in constraints:
        v = sum(1 << index[t] for t in terms)
        b = 0 if sign > 0 else 1
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = (v, b)
                break
            pv, pb = pivots[top]
            v ^= pv
            b ^= pb
        else:
            if b:
                return False
    return True


def assignment_satisfies(constraints, assignment) -> bool:
    for terms, sign in constraints:
        prod = 1
        for t in terms:
            prod *= assignment[t]
        if prod != sign:
            return False
    return True


def certificate_valid(constraints, subset) -> bool:
    """The chosen constraints' terms cancel in pairs and their signs multiply to -1."""
    if not subset:
        return False
    parity: dict = {}
    sign = 1
    for i in subset:
        terms, s = constraints[i]
        sign *= s
        for t in terms:
            parity[t] = parity.get(t, 0) ^ 1
    return sign == -1 and not any(parity.values())


# --- the paper's four-qubit scenario on (A3, A4, B1, B2) ---

PAPER_LABELS = ("A3", "A4", "B1", "B2")
# The 4-cycle A3-A4-B2-B1 and its local complement at A4 (adds the A3-B2 chord).
PAPER_CYCLE = ((0, 1), (2, 3), (0, 2), (1, 3))
PAPER_GB = ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3))
PAPER_CUTS = ((0, 1), (0, 2), (0, 3))


def paper_chi00() -> np.ndarray:
    """The eight +-1/(2 sqrt 2) amplitudes of the chi00 state."""
    a = 1.0 / (2.0 * math.sqrt(2.0))
    amps = np.zeros(16, dtype=complex)
    for idx in (0b0000, 0b0110, 0b1001, 0b1010, 0b1100, 0b1111):
        amps[idx] = a
    for idx in (0b0011, 0b0101):
        amps[idx] = -a
    return amps
