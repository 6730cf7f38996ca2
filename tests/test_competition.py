import random
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import arc_sets, digraphs
from pcomp import (
    Digraph,
    InvalidParameterError,
    common_prey_count,
    complement_cycle_cover,
    cycle_cover,
    lift_cover,
    make_cycle,
    p_competition_graph,
    realize,
)
from pcomp.competition import _all_pairs_cheaper, _all_pairs_scan, _prey_scan


def literal_p_competition_edges(n, arcs, p):
    """Pairs x < y with at least p vertices v such that (x, v) and (y, v)
    are both arcs, counted over the arc tuples themselves."""
    prey = [set() for _ in range(n)]
    for x, v in arcs:
        prey[x].add(v)
    return {(x, y) for x, y in combinations(range(n), 2) if len(prey[x] & prey[y]) >= p}


def assert_scans_match_literal(n, arcs, p):
    """p_competition_graph and both scans it chooses between, each run
    directly, give the literal graph."""
    literal = literal_p_competition_edges(n, arcs, p)
    for scan in (p_competition_graph, _all_pairs_scan, _prey_scan):
        assert scan(Digraph(n, arcs), p).edges == literal, scan.__name__


@cache
def first_all_pairs_prefix(n, seed, p):
    """The shortest prefix of a seeded arc order on which _all_pairs_cheaper
    holds, as (length, arc order); masks grow one arc at a time."""
    order = random.Random(seed).sample([(x, v) for x in range(n) for v in range(n)], n * n)
    out, preds = [0] * n, [0] * n
    for k, (x, v) in enumerate(order, 1):
        out[x] |= 1 << v
        preds[v] |= 1 << x
        if _all_pairs_cheaper(Digraph._from_masks(n, out, tuple(preds)), p):
            return k, order
    raise AssertionError(f"the complete digraph on {n} vertices keeps the prey scan at p={p}")


@st.composite
def sparse_arc_sets(draw):
    """n in 16..64 and at most n/8 prey per vertex, loops allowed, so the
    arcs stay within n^2/8."""
    n = draw(st.integers(16, 64))
    prey = st.lists(st.integers(0, n - 1), max_size=n // 8, unique=True)
    return n, {(x, v) for x in range(n) for v in draw(prey)}


@st.composite
def dense_arc_sets(draw):
    """More than n^2/8 arcs on n in 2..24."""
    n = draw(st.integers(2, 24))
    pairs = [(x, v) for x in range(n) for v in range(n)]
    rng = random.Random(draw(st.integers(0, 2**32)))
    return n, set(rng.sample(pairs, draw(st.integers(n * n // 8 + 1, n * n))))


def _counted_arcs(rng, n, p):
    """Each predator x has 0, p - 1, p or p + 1 prey, drawn from x itself
    and the first p + 2 vertices, so loops are prey and many pairs share
    about p of them."""
    arcs = set()
    for x in range(n):
        k = rng.choice((0, p - 1, p, p + 1))
        arcs |= {(x, v) for v in rng.sample(sorted({*range(p + 2), x}), k)}
    return arcs


class TestPreyFilter:
    """The prey scan ORs the predator masks of only the lowest k - p + 1
    prey of x (k: x's prey); predators with k - p at -1, 0 and 1, with
    loops among the prey, give the literal graph on both scans, sparse
    (at most n^2/8 arcs) or dense."""

    @pytest.mark.parametrize("seed", range(30))
    def test_sparse_scan(self, seed):
        rng = random.Random(f"sparse-{seed}")
        n, p = rng.randint(40, 80), rng.randint(1, 4)
        arcs = _counted_arcs(rng, n, p)
        assert len(arcs) * 8 <= n * n
        assert any(x == v for x, v in arcs)
        assert_scans_match_literal(n, arcs, p)

    @pytest.mark.parametrize("seed", range(30))
    def test_dense_scan(self, seed):
        rng = random.Random(f"dense-{seed}")
        p = rng.randint(1, 3)
        n = rng.randint(p + 3, 16)
        arcs = _counted_arcs(rng, n, p)
        for x in rng.sample(range(n), n):  # predators of every vertex, loop included
            arcs |= {(x, v) for v in range(n)}
            if len(arcs) * 8 > n * n:
                break
        assert any(x == v for x, v in arcs)
        assert_scans_match_literal(n, arcs, p)


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
        assert_scans_match_literal(n, arcs, p)

    @given(sparse_arc_sets(), st.integers(1, 4))
    def test_sparse_digraphs_match_literal_definition(self, drawn, p):
        n, arcs = drawn
        assert len(arcs) * 8 <= n * n
        assert_scans_match_literal(n, arcs, p)

    @given(dense_arc_sets(), st.integers(1, 4))
    def test_dense_digraphs_match_literal_definition(self, drawn, p):
        n, arcs = drawn
        assert len(arcs) * 8 > n * n
        assert_scans_match_literal(n, arcs, p)

    @pytest.mark.parametrize("n", [4, 8, 16, 24, 40])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_at_the_sparse_dense_threshold(self, n, extra):
        # arcs added one at a time switch _all_pairs_cheaper from the prey
        # scan to the all-pairs scan at prefix k; test k - 1, k and k + 1
        for seed in range(5):
            for p in range(1, 4):
                k, order = first_all_pairs_prefix(n, seed, p)
                assert not _all_pairs_cheaper(Digraph(n, order[:k - 1]), p)
                assert _all_pairs_cheaper(Digraph(n, order[:k]), p)
                assert_scans_match_literal(n, order[:k + extra], p)

    def test_chooser_follows_the_candidate_pairs(self):
        # more than n^2/8 arcs, but the lowest prey of most x is a set
        # ending at x, so the prey scan meets few candidates above x
        for n, p in [(200, 50), (500, 100)]:
            assert not _all_pairs_cheaper(realize(cycle_cover(n, p)), p)
        # the p - 1 full sets make every pair a candidate
        assert _all_pairs_cheaper(realize(lift_cover(complement_cycle_cover(101), 3)), 3)
        assert not _all_pairs_cheaper(Digraph(40), 1)

    @pytest.mark.parametrize("n,arcs", [
        (1, []),
        (1, [(0, 0)]),
        (16, [(x, x) for x in range(16)]),
        (16, [*((x, x) for x in range(16)), *((x, 0) for x in range(1, 4))]),
        (32, [(0, 5), (1, 5), (0, 6), (1, 6), (7, 5), (7, 7), (5, 7)]),
    ], ids=["n1", "n1-loop", "loops-only", "loops-and-shared-prey", "isolated"])
    def test_loops_and_isolated_vertices(self, n, arcs):
        for p in range(1, 4):
            assert p_competition_graph(Digraph(n, arcs), p).n == n
            assert_scans_match_literal(n, arcs, p)

    def test_cycle_cover_realizations_up_to_60(self):
        for n in range(4, 61):
            for p in sorted({1, 2, n // 2, n - 3} & set(range(1, n - 2))):
                f = cycle_cover(n, p)
                arcs = {(x, j) for j, s in enumerate(f.sets) for x in s}
                literal = literal_p_competition_edges(n, arcs, p)
                for scan in (p_competition_graph, _all_pairs_scan, _prey_scan):
                    back = scan(realize(f), p)
                    assert back.edges == literal
                    assert back == make_cycle(n)

    @given(digraphs(), st.integers(1, 4))
    def test_monotone_in_p(self, d, p):
        assert p_competition_graph(d, p + 1).edges <= p_competition_graph(d, p).edges

    @given(digraphs())
    def test_edgeless_beyond_max_out_degree(self, d):
        p = max((d.out_degree(v) for v in range(d.n)), default=0) + 1
        assert p_competition_graph(d, p).edges == frozenset()
