"""Seeded input generation.

Inputs are plain data (adjacency rows, amplitude arrays, Clifford indices
into :func:`oracle.cliffords`) built from one ``random.Random`` and one numpy
generator seeded by ``--seed``.  The same seed gives the same inputs; the
package under test only ever sees the finished inputs.

Each workload is a sequence of cycles.  A cycle holds a fixed number of
inputs of each kind (size and answer kind), so the mix a run measures does not
drift with the seed; the seed only picks which graphs, which local Cliffords
and which order.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

import oracle


def names(n: int) -> tuple[str, ...]:
    return tuple(f"q{i}" for i in range(n))


def ring_rows(rng: random.Random, n: int) -> tuple[int, ...]:
    """A cycle through the vertices in a seeded order."""
    order = list(range(n))
    rng.shuffle(order)
    return oracle.rows_from_edges(n, [(order[i], order[(i + 1) % n]) for i in range(n)])


def random_connected_rows(rng: random.Random, n: int, p: float = 0.45) -> tuple[int, ...]:
    while True:
        edges = [(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < p]
        rows = oracle.rows_from_edges(n, edges)
        if oracle.is_connected(rows):
            return rows


def cut_ranks(rows) -> tuple[int, ...]:
    n = len(rows)
    return tuple(oracle.cut_rank(rows, a)
                 for k in range(1, n // 2 + 1) for a in itertools.combinations(range(n), k))


@dataclass
class Item:
    """One operation's input and its known answer."""

    kind: str
    n: int
    rows: tuple[int, ...] = ()
    data: dict = field(default_factory=dict)

    def props(self) -> dict:
        out = {"kind": self.kind, "n": self.n}
        if self.rows:
            out["edges"] = sum(r.bit_count() for r in self.rows) // 2
        return out


class Generator:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.np_rng = np.random.default_rng(seed)

    # --- orbit-census ---

    def orbit_cycle(self, mix) -> list[Item]:
        items = []
        for family, n, count in mix:
            for _ in range(count):
                rows = ring_rows(self.rng, n) if family == "ring" else random_connected_rows(self.rng, n)
                items.append(Item(family, n, rows))
        self.rng.shuffle(items)
        return items

    # --- lc-decide ---

    def lc_item(self, kind: str, n: int) -> Item:
        rows = random_connected_rows(self.rng, n)
        source = oracle.graph_state(n, rows)
        if kind == "hit":
            cl = oracle.cliffords()
            ids = [self.rng.randrange(24) for _ in range(n)]
            phase = complex(np.exp(1j * self.rng.uniform(0, 2 * math.pi)))
            target = oracle.apply_factors(source, [cl[i] for i in ids], phase)
        elif kind == "graph-miss":
            ranks = cut_ranks(rows)
            while True:
                other = random_connected_rows(self.rng, n)
                if cut_ranks(other) != ranks:
                    break
            target = oracle.graph_state(n, other)
        else:
            while True:
                v = self.np_rng.normal(size=2**n) + 1j * self.np_rng.normal(size=2**n)
                target = v / np.linalg.norm(v)
                if not oracle.has_uniform_support(target):
                    break
        return Item(kind, n, rows, {"source": source, "target": target})

    def lc_cycle(self, mix) -> list[Item]:
        items = [self.lc_item(kind, n) for kind, n, count in mix for _ in range(count)]
        self.rng.shuffle(items)
        return items

    # --- ghz-census ---

    def ghz_item(self, kind: str, n: int, attempts: int = 400) -> Item:
        """A connected graph and local Clifford whose Y-free census has the wanted answer."""
        want_sat = kind == "lhv-sat"
        for _ in range(attempts):
            rows = random_connected_rows(self.rng, n)
            ids = tuple(self.rng.randrange(24) for _ in range(n))
            cl = oracle.cliffords()
            amps = oracle.apply_factors(oracle.graph_state(n, rows), [cl[i] for i in ids])
            census = oracle.stabilizer_census(n, rows, ids, amps)
            constraints = oracle.constraint_rows(census, names(n))
            if len(constraints) < 2 or oracle.lhv_satisfiable(constraints) != want_sat:
                continue
            return Item(kind, n, rows, {"clifford_ids": ids, "census": census})
        raise RuntimeError(f"no {kind} system at n={n} in {attempts} draws")

    def ghz_cycle(self, mix) -> list[Item]:
        items = [self.ghz_item(kind, n) for kind, n, count in mix for _ in range(count)]
        self.rng.shuffle(items)
        return items
