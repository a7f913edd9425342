"""Labeled simple undirected graphs and local complementation.

Vertices carry string labels and a fixed position (0..n-1); every bit and
ket convention downstream keys off the position, with position 0 the most
significant bit.  Adjacency is stored as one bitmask per vertex; the orbit
enumeration in :mod:`graphstab.lc` packs a graph's rows into one int, n bits
per row, and applies local complementation to that int as one XOR mask.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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

    @classmethod
    def empty(cls, names: Iterable[str]) -> "Graph":
        return cls.from_edges(names, [])

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


def _neighbor_toggles(nb: int) -> Iterator[tuple[int, int]]:
    """(j, mask) per neighbor j in the mask `nb`, lowest first: local
    complementation at a vertex with neighbors `nb` XORs row j with `mask`."""
    rest = nb
    while rest:
        low = rest & -rest
        yield low.bit_length() - 1, nb ^ low
        rest ^= low


def _packed_toggle(nb: int, n: int) -> int:
    """The XOR mask of local complementation at a vertex with neighbors `nb`,
    on rows packed n bits apiece (see :func:`_pack`)."""
    return sum(mask << n * j for j, mask in _neighbor_toggles(nb))


def _pack(rows: tuple[int, ...], n: int) -> int:
    """Adjacency rows of an n-vertex graph as one int, row i at bits n*i .. n*i + n - 1."""
    key = 0
    for i, row in enumerate(rows):
        key |= row << n * i
    return key


def _unpack(key: int, n: int, values: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`_pack`, taking row value r as the object `values[r]`,
    so that every graph unpacked through one tuple of values shares its ints."""
    full = (1 << n) - 1
    return tuple([values[key >> shift & full] for shift in range(0, n * n, n)])


def local_complement(g: Graph, a: str) -> Graph:
    """Toggle every edge between two neighbors of `a`; everything else unchanged."""
    rows = list(g.rows)
    for j, mask in _neighbor_toggles(g.rows[g.position(a)]):
        rows[j] ^= mask
    # a symmetric toggle of a valid graph's rows, clear of the diagonal, is valid
    return Graph._trusted(g.names, tuple(rows))


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


def _dot_id(name: str) -> str:
    if name and (name[0].isalpha() or name[0] == "_") and all(c.isalnum() or c == "_" for c in name):
        return name
    return '"' + name.replace('"', '\\"') + '"'


def graph_to_dot(g: Graph, graph_name: str = "") -> str:
    lines = [f"graph {graph_name}{{" if not graph_name else f"graph {graph_name} {{"]
    for name in g.names:
        lines.append(f"  {_dot_id(name)};")
    for a, b in g.edges():
        lines.append(f"  {_dot_id(a)} -- {_dot_id(b)};")
    lines.append("}")
    return "\n".join(lines)
