import json
import random
from itertools import combinations, islice

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import arc_sets, digraphs, edge_sets, graphs, literal_predators, predator_sets
from pcomp import (
    CliqueCover,
    Digraph,
    Graph,
    InvalidParameterError,
    complement,
    complement_cycle_cover,
    cover_from_json_dict,
    cycle_cover,
    digraph_from_json_dict,
    digraph_to_dot,
    digraph_to_json_dict,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    is_clique,
    make_cycle,
    p_competition_graph,
    realize,
    verify_p_ecc,
)
import pcomp.graphs as graphs_module
from pcomp.graphs import MAX_N, _partners


def cycle_edges(n):
    return {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}


def literal_nonedges(n, edges):
    return {pr for pr in combinations(range(n), 2) if pr not in edges}


def rows_of(members, n):
    """rows[v] with bit j set iff bit v of members[j] is."""
    return tuple(sum(1 << j for j, m in enumerate(members) if m >> v & 1) for v in range(n))


def seeded_full_set_families(p, n, rng):
    """Seeded families over n vertices with 0..p+1 full sets at drawn
    positions among up to five drawn sets, as (rows, members, c) with c
    the literal number of full sets."""
    for full in range(p + 2):
        for _ in range(6):
            members = [rng.getrandbits(n) for _ in range(rng.randrange(6))]
            for _ in range(full):
                members.insert(rng.randrange(len(members) + 1), (1 << n) - 1)
            yield rows_of(members, n), tuple(members), sum(m == (1 << n) - 1 for m in members)


def literal_partners(rows, p):
    """For each u, the mask of the v != u with (rows[u] & rows[v]) of at least p bits."""
    return [sum(1 << v for v in range(len(rows)) if v != u and (rows[u] & rows[v]).bit_count() >= p)
            for u in range(len(rows))]


class ReadLog(tuple):
    """A tuple of masks that logs the index of every item read."""

    def __new__(cls, items):
        log = super().__new__(cls, items)
        log.read = []
        return log

    def __getitem__(self, j):
        self.read.append(j)
        return super().__getitem__(j)


class TestPartners:
    """_partners(rows, masks, p) yields, row by row, the vertices sharing
    p sets with each u (bit u unspecified): the OR of u's sets outside
    p - 1 full ones when there are that many full sets, else a popcount
    of u's pigeonhole candidates above it, each hit carried down."""

    @pytest.mark.parametrize("p", range(1, 5))
    def test_matches_literal_pair_count_in_both_modes(self, p):
        for n in range(1, 9):
            rng = random.Random(f"partners-{p}-{n}")
            for rows, members, _ in seeded_full_set_families(p, n, rng):
                got = [near & ~(1 << u) for u, near in enumerate(_partners(rows, members, p))]
                assert got == literal_partners(rows, p), (rows, p)

    @given(st.integers(0, 12), st.data())
    def test_matches_literal_pair_count_on_drawn_rows(self, r, data):
        n = data.draw(st.integers(1, 40))
        rows = data.draw(st.lists(st.integers(0, (1 << r) - 1), min_size=n, max_size=n))
        p = data.draw(st.integers(1, 4))
        masks = tuple(sum(1 << v for v, row in enumerate(rows) if row >> j & 1) for j in range(r))
        got = [near & ~(1 << u) for u, near in enumerate(_partners(tuple(rows), masks, p))]
        assert got == literal_partners(rows, p)

    @pytest.mark.parametrize("p,c,union", [
        (1, 0, True), (1, 2, True), (2, 0, False), (2, 1, True), (2, 3, True),
        (4, 2, False), (4, 3, True), (4, 5, True)])
    def test_union_mode_exactly_from_p_minus_1_full_sets(self, monkeypatch, p, c, union):
        # c full sets on 3 vertices, before and after two sets that hold
        # vertex 0 alone and vertices 1 and 2
        calls = []

        def counting(*args):
            calls.append(args)
            return unions(*args)

        unions = graphs_module._unions
        monkeypatch.setattr(graphs_module, "_unions", counting)
        members = (7,) * (c - c // 2) + (1, 6) + (7,) * (c // 2)
        rows = rows_of(members, 3)
        got = [near & ~(1 << u) for u, near in enumerate(_partners(rows, members, p))]
        assert bool(calls) == union
        assert got == literal_partners(rows, p)

    @pytest.mark.parametrize("p", range(1, 5))
    @pytest.mark.parametrize("full", [False, True], ids=["count", "union"])
    def test_a_prefix_of_the_rows_reads_right(self, p, full):
        # each prefix is read from a fresh generator, so no row is computed
        # past it; a count-mode row holds the partners carried from below
        rng = random.Random(f"prefix-{p}-{full}")
        n = 40
        members = [rng.getrandbits(n) for _ in range(p + 8)] + [(1 << n) - 1] * (p - 1) * full
        rows = rows_of(members, n)
        literal = literal_partners(rows, p)
        for stop in (0, 1, 7, 20, 39):
            got = [near & ~(1 << u)
                   for u, near in enumerate(islice(_partners(rows, tuple(members), p), stop))]
            assert got == literal[:stop], stop

    @pytest.mark.parametrize("k,p", [(2, 2), (3, 2), (7, 2), (4, 3), (6, 4), (5, 5)])
    def test_narrows_to_the_lowest_k_minus_p_plus_1_sets(self, k, p):
        # vertex u lies in sets 0..k - 1 and every other vertex in none, so
        # count mode runs (p >= 2, no full set) and no row but u's reads a
        # mask; u's reads its lowest k - p + 1 only when more than k - p
        # vertices lie above it, else it counts them all
        n = 8
        for u in range(n):
            masks = ReadLog([1 << u] * k)
            rows = tuple((1 << k) - 1 if v == u else 0 for v in range(n))
            partners = [near & ~(1 << v) for v, near in enumerate(_partners(rows, masks, p))]
            assert partners == [0] * n
            assert masks.read == ([*range(k - p + 1)] if n - 1 - u > k - p else []), u

    def test_k300_with_two_copies_of_v_at_p_2(self):
        # c = 2 >= p: every pair shares p sets, read off the ORs alone
        n = 300
        f = CliqueCover(n, [range(n), range(n), range(0, n, 2)])
        kn = complement(Graph(n, []))
        assert all(near | 1 << u == (1 << n) - 1
                   for u, near in enumerate(_partners(*f._incidence(), 2)))
        assert verify_p_ecc(kn, f, 2).valid
        assert p_competition_graph(realize(f), 2) == kn


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

    def test_edges_are_the_literal_cycle_up_to_60(self):
        for n in range(3, 61):
            assert make_cycle(n).edges == cycle_edges(n)

    def test_library_constructor_is_not_capped(self):
        assert len(make_cycle(MAX_N + 1).edges) == MAX_N + 1


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

    @given(edge_sets())
    def test_edges_are_the_literal_nonedges(self, drawn):
        n, edges = drawn
        assert complement(Graph(n, edges)).edges == literal_nonedges(n, edges)

    def test_cycle_complements_up_to_60(self):
        for n in range(3, 61):
            assert complement(make_cycle(n)).edges == literal_nonedges(n, cycle_edges(n))

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


class TestOneRulePerInput:
    """Every vertex count goes through errors._at_least and every vertex
    through graphs._vertex, so each bad input gets the same one line
    wherever it is given."""

    @pytest.mark.parametrize("bad", [3.0, True, "3"], ids=["float", "bool", "str"])
    @pytest.mark.parametrize("build", [
        Graph, Digraph, lambda n: CliqueCover(n, []), make_cycle,
        lambda n: cycle_cover(n, 1), complement_cycle_cover,
    ], ids=["Graph", "Digraph", "CliqueCover", "make_cycle", "cycle_cover",
            "complement_cycle_cover"])
    def test_n_must_be_an_int(self, build, bad):
        with pytest.raises(InvalidParameterError) as caught:
            build(bad)
        assert str(caught.value) == f"need n to be an int, got n={bad!r}"

    @pytest.mark.parametrize("bad", [1.0, True, None], ids=["float", "bool", "none"])
    @pytest.mark.parametrize("use", [
        lambda u, v: Graph(3, [(u, v)]), lambda u, v: Digraph(3, [(u, v)]),
        lambda u, v: make_cycle(3).has_edge(u, v),
    ], ids=["Graph", "Digraph", "has_edge"])
    @pytest.mark.parametrize("end", ["first", "second"])
    def test_vertex_must_be_an_int(self, use, end, bad):
        # unchecked, 1.0 and None fail with a bare TypeError and True reads as 1
        with pytest.raises(InvalidParameterError) as caught:
            use(*((bad, 2) if end == "first" else (2, bad)))
        assert str(caught.value) == f"vertex {bad!r} is not an integer"


class TestAccessors:
    """Per-vertex reads refuse a vertex outside 0..n-1 instead of indexing
    the masks with it (where -1 would read vertex n - 1)."""

    @pytest.mark.parametrize("bad", [-1, 5, 6])
    def test_graph_accessors(self, bad):
        g = make_cycle(5)
        assert g.has_edge(0, 4) and not g.has_edge(0, 2) and g.degree(4) == 2
        message = rf"^vertex {bad} out of range for n=5$"
        for u, v in [(bad, 0), (0, bad)]:
            with pytest.raises(InvalidParameterError, match=message):
                g.has_edge(u, v)
        with pytest.raises(InvalidParameterError, match=message):
            g.degree(bad)

    @pytest.mark.parametrize("bad", [-1, 3, 4])
    @pytest.mark.parametrize("accessor", ["out_mask", "out_degree"])
    def test_digraph_accessors(self, accessor, bad):
        d = Digraph(3, [(0, 1), (2, 1)])
        assert d.out_mask(2) == 0b10 and d.out_degree(2) == 1
        with pytest.raises(InvalidParameterError, match=rf"^vertex {bad} out of range for n=3$"):
            getattr(d, accessor)(bad)

    # True would index vertex 1, and 1.0 would raise a bare TypeError
    @pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
    def test_vertices_must_be_ints(self, bad):
        g = make_cycle(5)
        message = rf"^vertex {bad!r} is not an integer$"
        for u, v in [(bad, 2), (2, bad)]:
            with pytest.raises(InvalidParameterError, match=message):
                g.has_edge(u, v)
        with pytest.raises(InvalidParameterError, match=message):
            g.degree(bad)
        with pytest.raises(InvalidParameterError, match=message):
            is_clique(g, [0, bad])
        d = Digraph(3, [(0, 1), (2, 1)])
        for accessor in (d.out_mask, d.out_degree):
            with pytest.raises(InvalidParameterError, match=message):
                accessor(bad)


class TestEquality:
    def test_equal_cycles(self):
        assert make_cycle(5) == make_cycle(5)
        assert make_cycle(4) == Graph(4, [(1, 0), (2, 1), (3, 2), (0, 3)])

    def test_isomorphic_but_different_labels(self):
        assert make_cycle(5) != complement(make_cycle(5))

    @staticmethod
    def assert_interchangeable(built, listed):
        assert built == listed and listed == built
        assert hash(built) == hash(listed)
        assert {built: "key"}[listed] == "key"
        assert len({built, listed}) == 1

    @given(edge_sets())
    def test_complement_equals_graph_of_listed_nonedges(self, drawn):
        n, edges = drawn
        # endpoints listed high-first, so the constructor must normalise them
        listed = Graph(n, [(v, u) for u, v in literal_nonedges(n, edges)])
        self.assert_interchangeable(complement(Graph(n, edges)), listed)

    def test_cycles_equal_graphs_of_listed_edges_up_to_60(self):
        for n in range(3, 61):
            self.assert_interchangeable(make_cycle(n), Graph(n, cycle_edges(n)))
            self.assert_interchangeable(
                complement(make_cycle(n)), Graph(n, literal_nonedges(n, cycle_edges(n))))

    def test_one_edge_apart_or_vertex_count_apart_are_unequal(self):
        assert make_cycle(5) != Graph(5, cycle_edges(5) - {(0, 1)})
        assert Graph(3) != Graph(4)
        assert Digraph(2, [(0, 1)]) != Digraph(2, [(1, 0)])

    def test_masks_are_all_an_instance_holds(self):
        assert Graph.__slots__ == ("n", "_adj")
        assert Digraph.__slots__ == ("n", "_out", "_in")

    @given(arc_sets())
    def test_filled_in_masks_keep_equality_hash_and_repr(self, drawn):
        n, arcs = drawn
        # in-masks filled by the arc loop against in-masks handed over by a
        # builder, as realize does, both built from the literal arc set
        filled = Digraph(n, arcs)
        out = [sum(1 << v for x, v in arcs if x == u) for u in range(n)]
        in_ = tuple(sum(1 << x for x in preds) for preds in literal_predators(n, arcs))
        handed = Digraph._from_masks(n, out, in_)
        assert filled._in == handed._in
        self.assert_interchangeable(filled, handed)
        assert repr(filled) == repr(handed)

    def test_pairs_are_rebuilt_equal_on_every_read(self):
        for g, pairs in [(make_cycle(7), cycle_edges(7)),
                         (complement(make_cycle(7)), literal_nonedges(7, cycle_edges(7))),
                         (Graph(5, [(3, 0), (1, 4), (2, 3)]), {(0, 3), (1, 4), (2, 3)})]:
            assert g.edges == g.edges == pairs
        f = cycle_cover(7, 2)
        d = realize(f)
        arcs = {(x, j) for j, members in enumerate(f.sets) for x in members}
        assert d.arcs == d.arcs == arcs


class TestInMasks:
    """Bit x of Digraph._in[v] is set iff (x, v) is an arc."""

    @given(digraphs())
    @example(Digraph(1))
    @example(Digraph(1, [(0, 0), (0, 0)]))
    @example(Digraph(3, [(0, 1), (2, 1), (0, 1), (1, 1), (1, 0)]))
    def test_filled_with_the_out_masks(self, d):
        assert predator_sets(d) == literal_predators(d.n, d.arcs)

    @given(arc_sets())
    def test_from_masks_keeps_the_in_masks_it_is_handed(self, drawn):
        n, arcs = drawn
        d = Digraph(n, arcs)
        assert Digraph._from_masks(n, d._out, d._in)._in is d._in


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

    @given(edge_sets())
    def test_graph_writers_list_sorted_pairs(self, drawn):
        n, edges = drawn
        g = Graph(n, [(v, u) for u, v in edges])
        pairs = sorted(edges)
        assert graph_to_json_dict(g) == {"n": n, "edges": [list(e) for e in pairs]}
        assert graph_to_dot(g).splitlines()[n + 1:-1] == [f"  {u} -- {v};" for u, v in pairs]
        assert repr(g) == f"Graph(n={n}, edges={pairs})"

    @given(arc_sets())
    def test_digraph_writers_list_sorted_arcs(self, drawn):
        n, arcs = drawn
        d = Digraph(n, arcs)
        pairs = sorted(arcs)
        assert digraph_to_json_dict(d) == {"n": n, "arcs": [list(a) for a in pairs]}
        assert digraph_to_dot(d).splitlines()[n + 1:-1] == [f"  {x} -> {v};" for x, v in pairs]
        assert repr(d) == f"Digraph(n={n}, arcs={pairs})"

    def test_json_vertex_count_limit(self):
        assert graph_from_json_dict({"n": MAX_N, "edges": []}).n == MAX_N
        for reader, field in ((graph_from_json_dict, "edges"),
                              (digraph_from_json_dict, "arcs"),
                              (cover_from_json_dict, "sets")):
            with pytest.raises(InvalidParameterError, match=str(MAX_N)):
                reader({"n": MAX_N + 1, field: []})
            with pytest.raises(InvalidParameterError, match=str(MAX_N)):
                reader({"n": 10 ** 20, field: []})

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
