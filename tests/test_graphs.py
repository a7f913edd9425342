import json
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphstab import Graph, canonical_key, local_complement
from graphstab.graphs import _complements, graph_from_dict, graph_to_dict, graph_to_dot

from strategies import graphs

DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def quoted_end(text):
    """Index just past the DOT quoted string that opens `text`, or None if it
    never closes; a backslash and the character after it form one unit."""
    i = 1
    while i < len(text):
        if text[i] == '"':
            return i + 1
        i += 2 if text[i] == "\\" else 1
    return None


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(("a", "b"), [("a", "a")])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(("a", "b"), [("a", "b"), ("b", "a")])

    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError, match="'c'"):
            Graph.from_edges(("a", "b"), [("a", "c")])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            Graph.from_edges(("a", "a"), [])

    def test_rejects_oversize(self):
        names = tuple(f"q{i}" for i in range(33))
        with pytest.raises(ValueError, match="1..32"):
            Graph.from_edges(names, [])

    def test_positions_follow_declaration_order(self, graph_a):
        assert [graph_a.position(a) for a in graph_a.names] == [0, 1, 2, 3]
        assert graph_a.position("B1") == 2
        with pytest.raises(ValueError, match="'Q9'"):
            graph_a.position("Q9")


def bits(g: Graph, *names: str) -> int:
    """The row mask with the bits of the given labels set."""
    return sum(1 << g.position(a) for a in names)


class TestNeighbors:
    # a vertex's neighbors are the set bits of its adjacency row
    def test_reference_cycle(self, graph_a):
        assert graph_a.rows[graph_a.position("A4")] == bits(graph_a, "A3", "B2")

    def test_empty_graph(self):
        g = Graph.from_edges(("a", "b", "c"), [])
        assert g.rows[g.position("a")] == 0

    def test_chorded_graph(self, graph_b):
        assert graph_b.rows[graph_b.position("A3")] == bits(graph_b, "A4", "B1", "B2")

    def test_unknown_label(self, graph_a):
        with pytest.raises(ValueError, match="'nope'"):
            graph_a.rows[graph_a.position("nope")]


class TestLocalComplement:
    def test_reference_instance(self, graph_a, graph_b):
        assert local_complement(graph_a, "A4").edges() == graph_b.edges()

    def test_isolated_vertex_is_noop(self):
        g = Graph.from_edges(("a", "b", "c"), [("a", "b")])
        assert local_complement(g, "c").edges() == g.edges()

    def test_key_changes_for_non_isolated_vertex(self, graph_a):
        # direct edge comparison backs the canonical-key claim
        comp = local_complement(graph_a, "A4")
        assert set(comp.edges()) != set(graph_a.edges())
        assert canonical_key(comp) != canonical_key(graph_a)

    @given(data=st.data(), g=graphs(max_n=8))
    def test_involution(self, data, g):
        a = data.draw(st.sampled_from(g.names))
        assert local_complement(local_complement(g, a), a).edges() == g.edges()

    @given(data=st.data(), g=graphs(max_n=8))
    def test_preserves_vertices_and_own_degree(self, data, g):
        a = data.draw(st.sampled_from(g.names))
        out = local_complement(g, a)
        assert out.names == g.names
        assert out.rows[out.position(a)].bit_count() == g.rows[g.position(a)].bit_count()
        assert out.rows[out.position(a)] == g.rows[g.position(a)]

    @given(data=st.data(), g=graphs(max_n=12))
    def test_output_passes_the_validating_constructor(self, data, g):
        out = local_complement(g, data.draw(st.sampled_from(g.names)))
        assert Graph(out.names, out.rows) == out

    @given(data=st.data(), g=graphs(max_n=8))
    def test_toggles_exactly_the_neighborhood_pairs(self, data, g):
        a = data.draw(st.sampled_from(g.names))
        out = local_complement(g, a)
        before, after = set(g.edges()), set(out.edges())
        toggled = before ^ after
        row = g.rows[g.position(a)]
        nb = {b for b in g.names if row >> g.position(b) & 1}
        assert len(toggled) == len(list(combinations(nb, 2)))
        for u, v in toggled:
            assert u in nb and v in nb

    # int64 rows as local_complement passes them, uint16 rows as the orbit does
    @pytest.mark.parametrize("dtype", [np.int64, np.uint16])
    @given(data=st.data())
    def test_kernel_matches_per_edge_toggles(self, dtype, data):
        n = data.draw(st.integers(1, 12))
        stack = data.draw(st.lists(graphs(min_n=n, max_n=n), min_size=1, max_size=3))

        def toggled(g, v):
            rows = list(g.rows)
            nb = [i for i in range(n) if g.rows[v] >> i & 1]
            for i, j in combinations(nb, 2):
                rows[i] ^= 1 << j
                rows[j] ^= 1 << i
            return rows

        out = _complements(np.array([g.rows for g in stack], dtype=dtype))
        assert out.dtype == dtype
        assert out.tolist() == [[toggled(g, v) for v in range(n)] for g in stack]


class TestCanonicalKey:
    def test_empty_graph_is_zero(self):
        assert canonical_key(Graph.from_edges(("a", "b", "c", "d"), [])) == 0

    def test_distinct_edge_sets_distinct_keys(self, graph_a, graph_b):
        assert canonical_key(graph_a) != canonical_key(graph_b)

    @given(g=graphs(max_n=6))
    def test_key_reconstructibility(self, g):
        # same labels, same edges <=> same key
        rebuilt = Graph.from_edges(g.names, g.edges())
        assert canonical_key(rebuilt) == canonical_key(g)

    @given(g=graphs(max_n=12))
    def test_matches_per_bit_packing(self, g):
        # the upper-triangular bits, one at a time, row-major
        key = 0
        bit = 0
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if g.rows[i] >> j & 1:
                    key |= 1 << bit
                bit += 1
        assert canonical_key(g) == key


class TestInterchange:
    def test_json_round_trip(self, graph_a):
        data = json.loads(json.dumps(graph_to_dict(graph_a)))
        assert graph_from_dict(data).edges() == graph_a.edges()

    def test_rejects_missing_field(self):
        with pytest.raises(ValueError, match="'edges'"):
            graph_from_dict({"vertices": ["a"]})

    def test_rejects_self_loop_document(self):
        with pytest.raises(ValueError, match="self-loop"):
            graph_from_dict({"vertices": ["a", "b"], "edges": [["a", "a"]]})

    def test_rejects_duplicate_edge_document(self):
        with pytest.raises(ValueError, match="duplicate"):
            graph_from_dict({"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]})

    def test_rejects_bad_pair_shape(self):
        with pytest.raises(ValueError, match=r"edges\[0\]"):
            graph_from_dict({"vertices": ["a", "b"], "edges": [["a", "b", "a"]]})

    def test_dot_lists_vertices_and_edges(self, graph_a):
        dot = graph_to_dot(graph_a, "member0")
        assert dot.startswith("graph member0 {")
        assert "  A3;" in dot
        assert "  A3 -- A4;" in dot
        assert dot.rstrip().endswith("}")

    def test_dot_ids_are_well_formed_and_distinct(self):
        labels = ["node", "Edge", "a\\", 'a"b', 'a\\"b']
        dot = graph_to_dot(Graph.from_edges(labels, [("node", "Edge")]), "g").splitlines()
        ids = [line[2:-1] for line in dot[1:1 + len(labels)]]
        assert dot[1 + len(labels)] == f"  {ids[0]} -- {ids[1]};"
        for dot_id in ids:
            if re.fullmatch(r"[A-Za-z_]\w*", dot_id):
                assert dot_id.lower() not in DOT_KEYWORDS
            else:
                assert dot_id.startswith('"') and quoted_end(dot_id) == len(dot_id)
        assert len(set(ids)) == len(labels)
