"""Hypothesis strategies shared across the test modules."""
import numpy as np
from hypothesis import strategies as st

from graphstab import Graph, LocalUnitary, PauliString, StateVector, single_qubit_cliffords


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    names = tuple(f"q{i}" for i in range(n))
    pair_count = n * (n - 1) // 2
    bits = draw(st.integers(0, 2**pair_count - 1)) if pair_count else 0
    edges = []
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if bits >> k & 1:
                edges.append((names[i], names[j]))
            k += 1
    return Graph.from_edges(names, edges)


@st.composite
def paulis(draw, n: int | None = None, max_n: int = 6):
    if n is None:
        n = draw(st.integers(1, max_n))
    return PauliString(
        n,
        draw(st.integers(0, 2**n - 1)),
        draw(st.integers(0, 2**n - 1)),
        draw(st.integers(0, 3)),
    )


@st.composite
def local_cliffords(draw, n: int):
    cliffs = single_qubit_cliffords()
    idx = draw(st.tuples(*(st.integers(0, 23) for _ in range(n))))
    return LocalUnitary(1.0, cliffs[list(idx)])


@st.composite
def random_states(draw, n: int | None = None, max_n: int = 5):
    if n is None:
        n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    amps /= np.linalg.norm(amps)
    return StateVector(tuple(f"q{i}" for i in range(n)), amps)
