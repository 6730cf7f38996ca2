from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import arc_sets, digraphs
from pcomp import (
    Digraph,
    InvalidParameterError,
    common_prey_count,
    cycle_cover,
    make_cycle,
    p_competition_graph,
    realize,
)


def literal_p_competition_edges(n, arcs, p):
    """Pairs x < y with at least p vertices v such that (x, v) and (y, v)
    are both arcs, counted over the arc tuples themselves."""
    prey = [set() for _ in range(n)]
    for x, v in arcs:
        prey[x].add(v)
    return {(x, y) for x, y in combinations(range(n), 2) if len(prey[x] & prey[y]) >= p}


class TestCommonPreyCount:
    def test_single_shared_prey(self):
        d = Digraph(3, [(0, 2), (1, 2)])
        assert common_prey_count(d, 0, 1) == 1

    def test_no_arcs(self):
        d = Digraph(4)
        assert all(
            common_prey_count(d, x, y) == 0
            for x in range(4) for y in range(4) if x != y)

    def test_prey_may_be_an_endpoint(self):
        # loops and arcs onto x/y themselves count like any other prey
        d = Digraph(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        assert common_prey_count(d, 0, 1) == 2

    def test_same_vertex_rejected(self):
        with pytest.raises(InvalidParameterError):
            common_prey_count(Digraph(3), 1, 1)

    def test_counts_over_cycle_cover_realization(self):
        d = realize(cycle_cover(5, 2))
        assert common_prey_count(d, 0, 1) == 2
        assert common_prey_count(d, 0, 2) == 1

    @given(digraphs(min_n=2))
    def test_symmetric(self, d):
        assert common_prey_count(d, 0, 1) == common_prey_count(d, 1, 0)


class TestPCompetitionGraph:
    def test_arcless_digraph(self):
        assert p_competition_graph(Digraph(5), 1).edges == frozenset()

    def test_ordinary_competition_graph(self):
        d = Digraph(3, [(0, 2), (1, 2)])
        assert p_competition_graph(d, 1).edges == frozenset({(0, 1)})

    def test_roundtrip_c8_p3(self):
        d = realize(cycle_cover(8, 3))
        assert p_competition_graph(d, 3) == make_cycle(8)

    def test_p_below_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            p_competition_graph(Digraph(2), 0)

    def test_keeps_vertex_count(self):
        d = Digraph(6, [(0, 1), (2, 1)])
        assert p_competition_graph(d, 1).n == 6

    @given(arc_sets(), st.integers(1, 4))
    def test_matches_literal_definition(self, drawn, p):
        n, arcs = drawn
        assert p_competition_graph(Digraph(n, arcs), p).edges == \
            literal_p_competition_edges(n, arcs, p)

    def test_cycle_cover_realizations_up_to_60(self):
        for n in range(4, 61):
            for p in sorted({1, 2, n // 2, n - 3} & set(range(1, n - 2))):
                f = cycle_cover(n, p)
                arcs = {(x, j) for j, s in enumerate(f.sets) for x in s}
                back = p_competition_graph(realize(f), p)
                assert back.edges == literal_p_competition_edges(n, arcs, p)
                assert back == make_cycle(n)

    @given(digraphs(), st.integers(1, 4))
    def test_monotone_in_p(self, d, p):
        assert p_competition_graph(d, p + 1).edges <= p_competition_graph(d, p).edges

    @given(digraphs())
    def test_edgeless_beyond_max_out_degree(self, d):
        p = max((d.out_degree(v) for v in range(d.n)), default=0) + 1
        assert p_competition_graph(d, p).edges == frozenset()
