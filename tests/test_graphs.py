import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import digraphs, graphs
from pcomp import (
    Digraph,
    Graph,
    InvalidParameterError,
    complement,
    cover_from_json_dict,
    digraph_from_json_dict,
    digraph_to_dot,
    digraph_to_json_dict,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    is_clique,
    make_cycle,
)


class TestMakeCycle:
    def test_triangle(self):
        assert make_cycle(3).edges == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_five_cycle(self):
        assert make_cycle(5).edges == frozenset(
            {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})

    def test_too_small(self):
        with pytest.raises(InvalidParameterError):
            make_cycle(2)

    @given(st.integers(3, 60))
    def test_edge_count_and_degrees(self, n):
        g = make_cycle(n)
        assert len(g.edges) == n
        assert all(g.degree(v) == 2 for v in range(n))


class TestComplement:
    def test_c5_self_complementary_labels(self):
        assert complement(make_cycle(5)).edges == frozenset(
            {(0, 2), (1, 3), (2, 4), (0, 3), (1, 4)})

    def test_k3(self):
        assert complement(make_cycle(3)).edges == frozenset()

    def test_c8_edge_count(self):
        assert len(complement(make_cycle(8)).edges) == 20

    @given(graphs())
    def test_involution(self, g):
        assert complement(complement(g)) == g

    @given(st.integers(3, 40))
    def test_cycle_complement_size(self, n):
        assert len(complement(make_cycle(n)).edges) == n * (n - 3) // 2


class TestIsClique:
    def test_triangle_in_c6_complement(self):
        assert is_clique(complement(make_cycle(6)), {0, 2, 4})

    def test_empty_and_singletons(self):
        g = make_cycle(4)
        assert is_clique(g, set())
        assert is_clique(g, {2})

    def test_non_clique(self):
        assert not is_clique(make_cycle(4), {0, 1, 2})

    def test_out_of_range_member(self):
        with pytest.raises(InvalidParameterError):
            is_clique(make_cycle(4), {0, 4})

    @given(graphs(min_n=2))
    def test_pairwise_characterization(self, g):
        from itertools import combinations

        members = [v for v in range(g.n) if v % 2 == 0]
        expected = all(
            g.has_edge(u, v) for u, v in combinations(members, 2))
        assert is_clique(g, members) == expected


class TestEquality:
    def test_equal_cycles(self):
        assert make_cycle(5) == make_cycle(5)
        assert make_cycle(4) == Graph(4, [(1, 0), (2, 1), (3, 2), (0, 3)])

    def test_isomorphic_but_different_labels(self):
        assert make_cycle(5) != complement(make_cycle(5))


class TestConstruction:
    def test_edges_normalized(self):
        g = Graph(3, [(2, 0), (0, 2)])
        assert g.edges == frozenset({(0, 2)})

    def test_rejects_self_pair(self):
        with pytest.raises(InvalidParameterError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            Graph(3, [(0, 3)])

    def test_digraph_allows_loops(self):
        d = Digraph(2, [(0, 0), (0, 1)])
        assert (0, 0) in d.arcs
        assert d.out_degree(0) == 2

    def test_digraph_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            Digraph(2, [(0, 2)])


class TestSerialization:
    @given(graphs())
    def test_graph_json_roundtrip(self, g):
        assert graph_from_json_dict(json.loads(json.dumps(graph_to_json_dict(g)))) == g

    @given(digraphs())
    def test_digraph_json_roundtrip(self, d):
        assert digraph_from_json_dict(
            json.loads(json.dumps(digraph_to_json_dict(d)))) == d

    def test_graph_json_accepts_either_edge_order(self):
        g = graph_from_json_dict({"n": 4, "edges": [[3, 1], [1, 3], [0, 2]]})
        assert g.edges == frozenset({(1, 3), (0, 2)})

    def test_graph_json_writes_sorted_pairs(self):
        data = graph_to_json_dict(make_cycle(4))
        assert data == {"n": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]}

    def test_malformed_json_rejected(self):
        with pytest.raises(InvalidParameterError):
            graph_from_json_dict({"edges": []})
        with pytest.raises(InvalidParameterError):
            digraph_from_json_dict({"n": 2, "arcs": [["a", 0]]})

    @pytest.mark.parametrize("reader,field", [
        (graph_from_json_dict, "edges"),
        (digraph_from_json_dict, "arcs"),
        (cover_from_json_dict, "sets"),
    ])
    @pytest.mark.parametrize("n,rows", [
        (True, []),              # a bool is not a vertex count
        (2.0, []),               # nor is a float
        ("3", []),               # nor a string
        (3, [[0.9, 1.7]]),       # floats were truncated to an edge (0, 1)
        (3, [["0", 2]]),         # numeric strings were coerced
        (3, [[True, 2]]),        # bools were read as 1
    ])
    def test_json_readers_accept_only_plain_integers(self, reader, field, n, rows):
        with pytest.raises(InvalidParameterError):
            reader({"n": n, field: rows})

    def test_dot_output(self):
        dot = graph_to_dot(make_cycle(3))
        assert "graph G {" in dot and "0 -- 1;" in dot
        ddot = digraph_to_dot(Digraph(2, [(0, 1)]))
        assert "digraph D {" in ddot and "0 -> 1;" in ddot
