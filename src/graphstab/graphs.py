"""Labeled simple undirected graphs and local complementation.

Vertices carry string labels and a fixed position (0..n-1); every bit and
ket convention downstream keys off the position, with position 0 the most
significant bit.  Adjacency is stored as one bitmask per vertex.  Local
complementation is one array kernel, :func:`_complements`, which maps a
stack of graphs' rows to the rows of every local complement at every
vertex; :func:`local_complement` takes one of them and the orbit
enumeration in :mod:`graphstab.lc` takes them all.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

MAX_VERTICES = 32  # adjacency rows must fit one machine word


@dataclass(frozen=True)
class Graph:
    """Immutable labeled simple graph.

    `rows[i]` has bit j set iff vertices i and j share an edge.
    """

    names: tuple[str, ...]
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.names)
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        if len(set(self.names)) != n:
            raise ValueError("vertex labels must be unique")
        if len(self.rows) != n:
            raise ValueError("adjacency rows must match vertex count")
        for i, row in enumerate(self.rows):
            if row >> n:
                raise ValueError(f"adjacency row {i} addresses unknown vertices")
            if row >> i & 1:
                raise ValueError(f"self-loop on {self.names[i]!r}")
            for j in range(n):
                if (row >> j & 1) != (self.rows[j] >> i & 1):
                    raise ValueError("adjacency must be symmetric")

    @classmethod
    def from_edges(cls, names: Iterable[str], edges: Iterable[tuple[str, str]]) -> "Graph":
        names = tuple(names)
        index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            raise ValueError("vertex labels must be unique")
        rows = [0] * len(names)
        seen: set[frozenset[str]] = set()
        for a, b in edges:
            for name in (a, b):
                if name not in index:
                    raise ValueError(f"unknown qubit label {name!r}")
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            pair = frozenset((a, b))
            if pair in seen:
                raise ValueError(f"duplicate edge {sorted(pair)}")
            seen.add(pair)
            rows[index[a]] |= 1 << index[b]
            rows[index[b]] |= 1 << index[a]
        return cls(names, tuple(rows))

    @classmethod
    def _trusted(cls, names: tuple[str, ...], rows: tuple[int, ...]) -> "Graph":
        """A graph from fields already known to be valid, without re-checking them."""
        g = object.__new__(cls)
        object.__setattr__(g, "names", names)
        object.__setattr__(g, "rows", rows)
        return g

    @property
    def n(self) -> int:
        return len(self.names)

    def position(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown qubit label {name!r}") from None

    def edges(self) -> tuple[tuple[str, str], ...]:
        """Edges as name pairs, ordered by position (i < j, row-major)."""
        out = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.rows[i] >> j & 1:
                    out.append((self.names[i], self.names[j]))
        return tuple(out)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2


def _complements(rows: np.ndarray) -> np.ndarray:
    """The (L, n, n) rows of every local complement of an (L, n) stack of
    graphs' rows, at every vertex v: row i toggles by v's row minus bit i
    when i is a neighbor of v.  The result has the dtype of `rows`."""
    bits = 1 << np.arange(rows.shape[1], dtype=rows.dtype)
    nbs = rows[:, :, None]
    return rows[:, None, :] ^ (nbs ^ bits) * (nbs & bits != 0)


def local_complement(g: Graph, a: str) -> Graph:
    """Toggle every edge between two neighbors of `a`; everything else unchanged."""
    rows = _complements(np.array([g.rows], dtype=np.int64))[0, g.position(a)]
    # a symmetric toggle of a valid graph's rows, clear of the diagonal, is valid
    return Graph._trusted(g.names, tuple(rows.tolist()))


def canonical_key(g: Graph) -> int:
    """Upper-triangular adjacency bits packed row-major.

    Equal keys <=> equal edge sets, for graphs sharing one vertex label order.
    """
    key = 0
    shift = 0
    for i, row in enumerate(g.rows):
        key |= row >> (i + 1) << shift  # bits j > i of row i
        shift += g.n - i - 1
    return key


# --- JSON / DOT interchange ---

def graph_to_dict(g: Graph) -> dict:
    return {"vertices": list(g.names), "edges": [list(e) for e in g.edges()]}


def graph_from_dict(data: object) -> Graph:
    if not isinstance(data, dict):
        raise ValueError("graph document must be a JSON object")
    try:
        vertices = data["vertices"]
        edges = data["edges"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ValueError("field 'vertices' must be a list of strings")
    if not isinstance(edges, list):
        raise ValueError("field 'edges' must be a list of pairs")
    pairs = []
    for k, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e)):
            raise ValueError(f"edges[{k}]: expected a pair of labels")
        pairs.append((e[0], e[1]))
    try:
        return Graph.from_edges(vertices, pairs)
    except ValueError as exc:
        raise ValueError(f"edges/vertices: {exc}") from None


_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}  # in any case


def _dot_id(name: str) -> str:
    """`name` bare if it is a non-keyword identifier, else quoted with `\\` and `"` escaped."""
    bare = name and (name[0].isalpha() or name[0] == "_") and all(c.isalnum() or c == "_" for c in name)
    if bare and name.lower() not in _DOT_KEYWORDS:
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: Graph, graph_name: str) -> str:
    lines = [f"graph {graph_name} {{"]
    for name in g.names:
        lines.append(f"  {_dot_id(name)};")
    for a, b in g.edges():
        lines.append(f"  {_dot_id(a)} -- {_dot_id(b)};")
    lines.append("}")
    return "\n".join(lines)
