import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import arc_sets, digraphs
from pcomp import (
    CliqueCover,
    Digraph,
    Graph,
    InvalidParameterError,
    common_prey_count,
    complement,
    complement_cycle_cover,
    cycle_cover,
    lift_cover,
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


def assert_scans_match_literal(n, arcs, p):
    """p_competition_graph gives the literal graph."""
    assert p_competition_graph(Digraph(n, arcs), p).edges == literal_p_competition_edges(n, arcs, p)


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


def _predator_with_one_candidate_mask(rng, n, p, extra):
    """(x, arcs): predator x has p prey, so its candidates are the in-mask
    of its lowest prey v alone, and v has a predators above x with
    2a + 1 = n - x - 1 + extra.  Every other vertex draws prey at random,
    taking v only if it is one of the a or lies below x, and preferring
    x's prey."""
    x = rng.choice([x for x in range(n) if (n - x + extra) % 2 == 0 and n - x - 1 + extra >= 1])
    a = (n - x - 2 + extra) // 2
    v = rng.randrange(n - p + 1)
    prey = {v, *rng.sample(range(v + 1, n), p - 1)}
    on_v = {*rng.sample(range(x + 1, n), a), *(y for y in range(x) if rng.random() < 0.5)}
    arcs = {(x, w) for w in prey}
    for y in set(range(n)) - {x}:
        arcs |= {(y, w) for w in range(n) if w != v and rng.random() < (0.6 if w in prey else 0.25)}
        if y in on_v:
            arcs.add((y, v))
    return x, arcs


class TestPreyFilter:
    """The candidate walk ORs the predator masks of only the lowest
    k - p + 1 prey of x (k: x's prey); predators with k - p at -1, 0 and
    1, with loops among the prey, give the literal graph, sparse (at most
    n^2/8 arcs) or dense, and so do realizations of random covers."""

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

    @pytest.mark.parametrize("seed", range(3))
    def test_random_cover_realizations(self, seed):
        # 300 sets, each vertex in each with probability 0.05: about 15 prey
        # per predator, and about half of all pairs are candidates
        rng = random.Random(f"cover-{seed}")
        n = 300
        family = [{v for v in range(n) if rng.random() < 0.05} for _ in range(n)]
        arcs = {(x, j) for j, s in enumerate(family) for x in s}
        d = realize(CliqueCover(n, family))
        for p in range(2, 5):
            # compared as masks, so a row that misses its lower neighbours fails
            assert p_competition_graph(d, p) == Graph(n, literal_p_competition_edges(n, arcs, p))


@st.composite
def arc_sets_with_universal_prey(draw, max_n=10, max_p=4):
    """(n, arcs, p): drawn arcs plus 0..p + 1 prey that every vertex
    preys on, so the prey common to all number c = p - 1, c >= p, or 0
    (the ordinary competition graph at p = 1)."""
    n = draw(st.integers(1, max_n))
    p = draw(st.integers(1, max_p))
    arcs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    universal = draw(st.sets(st.integers(0, n - 1), max_size=p + 1))
    return n, arcs | {(x, v) for x in range(n) for v in universal}, p


class TestUniversalPrey:
    """Prey of every predator are shared by every pair: with c of them and
    p - c = 1, each predator's neighbours are the predators of its other
    prey; other c keep the pair count.  The graph is the literal one."""

    @settings(max_examples=400)
    @given(arc_sets_with_universal_prey())
    def test_matches_literal_definition(self, drawn):
        assert_scans_match_literal(*drawn)

    def test_one_prey_shared_by_both_at_p_1(self):
        # c = 1 >= p: nothing is set aside at p = 1, so the universal prey
        # puts both predators in each union
        for arcs in ([(0, 0), (1, 0)], [(0, 1), (1, 1)], [(0, 0), (1, 0), (0, 1)]):
            assert p_competition_graph(Digraph(2, arcs), 1).edges == {(0, 1)}
            assert_scans_match_literal(2, arcs, 1)

    @pytest.mark.parametrize("n", range(9, 32))
    def test_lifted_co_cycle_realizations(self, n):
        # the lift's p - 1 full sets are p - 1 universal prey; realized with
        # one set dropped, an original or a full one, the map gives the
        # literal graph, and the valid lift gives co-C_n back
        base = complement_cycle_cover(n)
        for p in range(2, 6):
            sets = lift_cover(base, p).sets
            if len(sets) > n:
                continue
            for family in (sets, sets[1:], sets[:-1]):
                f = CliqueCover(n, family)
                arcs = {(x, j) for j, s in enumerate(family) for x in s}
                back = p_competition_graph(realize(f), p)
                assert back.edges == literal_p_competition_edges(n, arcs, p)
            assert p_competition_graph(realize(lift_cover(base, p)), p) == complement(make_cycle(n))


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

    @pytest.mark.parametrize("x,y", [(5, 0), (0, 5), (-1, 2), (5, 5)])
    def test_out_of_range_vertex_rejected(self, x, y):
        # each vertex is checked before the two are compared
        bad = y if x in range(3) else x
        with pytest.raises(InvalidParameterError,
                           match=rf"^vertex {bad} out of range for n=3$"):
            common_prey_count(Digraph(3), x, y)

    @pytest.mark.parametrize("x,y", [(True, 2), (2, False), (1, True), (1, 1.0)])
    def test_bool_vertex_rejected(self, x, y):
        # True == 1 == 1.0, but a vertex must be an int, not a bool or a float
        bad = y if type(x) is int else x
        with pytest.raises(InvalidParameterError, match=rf"^vertex {bad} is not an integer$"):
            common_prey_count(Digraph(3), x, y)

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

    def test_one_call_walks_loops_and_skips(self):
        # disjoint blocks at p = 3: a C30 cover realization on 0..29;
        # predators 30..39 with two prey each, so no candidates; a lifted
        # co-C11 cover realization on 40..50; a complete digraph on 51..55.
        # No prey is common to all, so every row walks its candidates: an
        # instrumented copy met 1..6 of them per row on 0..28, none on
        # 29..39, 1..8 on 40..48 and every vertex above x on 51..54.
        p = 3
        arcs = {(x, j) for j, s in enumerate(cycle_cover(30, p).sets) for x in s}
        arcs |= {(x, 30 + (x + i) % 10) for x in range(30, 40) for i in range(p - 1)}
        lifted = lift_cover(complement_cycle_cover(11), p)
        arcs |= {(40 + x, 40 + j) for j, s in enumerate(lifted.sets) for x in s}
        arcs |= {(x, v) for x in range(51, 56) for v in range(51, 56)}
        literal = literal_p_competition_edges(56, arcs, p)
        # compared as masks, so a row that misses its lower neighbours fails
        assert p_competition_graph(Digraph(56, arcs), p) == Graph(56, literal)
        # the complete block's looped rows each meet their next vertex
        assert {(x, x + 1) for x in range(51, 55)} <= literal

    @pytest.mark.parametrize("n", [4, 8, 16, 24, 40])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_predator_with_one_candidate_mask(self, n, extra):
        for seed in range(5):
            for p in range(1, 4):
                _, arcs = _predator_with_one_candidate_mask(random.Random(seed), n, p, extra)
                literal = literal_p_competition_edges(n, arcs, p)
                # compared as masks, so a row that misses its lower neighbours fails
                assert p_competition_graph(Digraph(n, arcs), p) == Graph(n, literal)

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
