import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import arc_sets, covers, graph_cover_p, literal_predators, predator_sets
from pcomp import (
    CliqueCover,
    Digraph,
    Graph,
    InfeasibleError,
    InvalidParameterError,
    common_prey_count,
    complement,
    complement_cycle_cover,
    cycle_cover,
    is_acyclic,
    lift_cover,
    make_cycle,
    p_competition_graph,
    realize,
    realize_acyclic,
    satisfies_acyclic_ordering,
    verify_p_ecc,
)


class TestRealize:
    def test_cycle_cover_arc_count_and_sources(self):
        d = realize(cycle_cover(5, 2))
        assert len(d.arcs) == 15
        assert {x for x, v in d.arcs if v == 0} == {0, 1, 2}

    def test_empty_sets_give_arcless_digraph(self):
        assert realize(CliqueCover(4, [(), (), ()])).arcs == frozenset()

    def test_too_many_sets_rejected(self):
        with pytest.raises(InfeasibleError, match="<= n"):
            realize(CliqueCover(2, [(0,), (1,), (0, 1)]))

    def test_fewer_sets_than_vertices_allowed(self):
        d = realize(CliqueCover(5, [(0, 1)]))
        assert d.arcs == frozenset({(0, 0), (1, 0)})

    @given(covers(max_n=8, max_sets=8))
    def test_arcs_are_the_literal_memberships(self, f):
        padded = CliqueCover(max(f.n, len(f.sets)), f.sets)
        literal = {(x, j) for j, s in enumerate(padded.sets) for x in s}
        d = realize(padded)
        assert d.arcs == literal
        assert d._in is not None  # the members, handed over by realize
        assert predator_sets(d) == literal_predators(padded.n, literal)
        listed = Digraph(padded.n, literal)
        assert d == listed and listed == d
        assert hash(d) == hash(listed)
        assert {d: "key"}[listed] == "key"
        assert repr(d) == repr(listed)

    @pytest.mark.parametrize("f", [
        CliqueCover(5, [(0, 1), (1, 2, 4)]),
        CliqueCover(4, [(0, 3), (), (1, 2, 3), (0,)]),
        cycle_cover(7, 2),
        lift_cover(complement_cycle_cover(9), 2),
    ], ids=["fewer-sets", "exactly-n", "cycle-exactly-n", "lift-fewer-sets"])
    def test_in_masks_are_the_literal_predators(self, f):
        literal = {(x, j) for j, s in enumerate(f.sets) for x in s}
        d = realize(f)
        assert d._in is not None
        assert predator_sets(d) == literal_predators(f.n, literal)

    @given(graph_cover_p(max_n=8, max_sets=8))
    def test_arcs_and_verdicts_do_not_depend_on_call_order(self, instance):
        # realize reads the incidence verify_p_ecc fills, and fills it itself
        # when it comes first
        g, f, p = instance
        n = max(g.n, len(f.sets))
        g = Graph(n, g.edges)
        literal = {(x, j) for j, s in enumerate(f.sets) for x in s}
        verified_first = CliqueCover(n, f.sets)
        realized_first = CliqueCover(n, f.sets)
        before = verify_p_ecc(g, verified_first, p)
        assert realize(verified_first).arcs == literal
        assert realize(realized_first).arcs == literal
        assert verify_p_ecc(g, verified_first, p) == before
        assert verify_p_ecc(g, realized_first, p) == before

    def test_constructions_realize_their_literal_memberships(self):
        for f in (cycle_cover(9, 3), lift_cover(complement_cycle_cover(9), 2)):
            assert realize(f).arcs == {(x, j) for j, s in enumerate(f.sets) for x in s}

    def test_lifted_complement_cover_roundtrip(self):
        f = lift_cover(complement_cycle_cover(10), 5)
        assert p_competition_graph(realize(f), 5) == complement(make_cycle(10))

    @pytest.mark.parametrize(
        "n,p",
        [(n, p) for n in range(9, 26, 2) for p in range(1, (n - 3) // 2 + 1)]
        + [(n, p) for n in range(10, 25, 2) for p in range(1, n // 2 + 1)],
    )
    def test_lifted_complement_covers_roundtrip_in_range(self, n, p):
        g = complement(make_cycle(n))
        f = lift_cover(complement_cycle_cover(n), p)
        assert len(f.sets) <= n
        assert verify_p_ecc(g, f, p).valid
        assert p_competition_graph(realize(f), p) == g

    @given(covers(max_n=7, max_sets=7), st.integers(1, 3))
    def test_prey_counts_equal_shared_set_counts(self, f, p):
        padded = CliqueCover(max(f.n, len(f.sets)), f.sets)
        d = realize(padded)
        for u in range(padded.n):
            for v in range(u + 1, padded.n):
                shared = sum(1 for s in padded.sets if u in s and v in s)
                assert common_prey_count(d, u, v) == shared


class TestAcyclicOrdering:
    def test_prefix_family_accepted(self):
        f = CliqueCover(3, [(), (0,), (0, 1)])
        assert satisfies_acyclic_ordering(f, [0, 1, 2])

    def test_cycle_cover_identity_rejected(self):
        assert not satisfies_acyclic_ordering(cycle_cover(5, 2), [0, 1, 2, 3, 4])

    def test_singletons_accepted(self):
        f = CliqueCover(3, [(), (0,), (1,)])
        assert satisfies_acyclic_ordering(f, [0, 1, 2])

    def test_nontrivial_order(self):
        # set j may only contain vertices placed before position j
        f = CliqueCover(3, [(), (2,), (2, 0)])
        assert satisfies_acyclic_ordering(f, [2, 0, 1])
        assert not satisfies_acyclic_ordering(f, [0, 1, 2])

    def test_non_permutation_rejected(self):
        f = CliqueCover(3, [(), (), ()])
        with pytest.raises(InvalidParameterError):
            satisfies_acyclic_ordering(f, [0, 1, 1])
        with pytest.raises(InvalidParameterError, match="order has 2 entries, expected 3"):
            satisfies_acyclic_ordering(f, [0, 1])

    def test_wrong_family_size_rejected(self):
        with pytest.raises(InvalidParameterError):
            satisfies_acyclic_ordering(CliqueCover(3, [(0,)]), [0, 1, 2])

    @pytest.mark.parametrize("order", [[0.0, 1, 2], [0, "a", 2], [True, 0, 2]],
                             ids=["float", "str", "bool"])
    @pytest.mark.parametrize("check", [satisfies_acyclic_ordering, realize_acyclic])
    def test_non_int_entries_rejected(self, check, order):
        # 0.0 and True compare equal to 0 and 1, and 'a' does not compare at all
        with pytest.raises(InvalidParameterError, match="must be a permutation of 0..2"):
            check(CliqueCover(3, [(), (0,), (0, 1)]), order)


class TestRealizeAcyclic:
    def test_identity_example(self):
        f = CliqueCover(3, [(), (0,), (0, 1)])
        d = realize_acyclic(f, [0, 1, 2])
        assert d.arcs == frozenset({(0, 1), (0, 2), (1, 2)})
        assert is_acyclic(d)
        # an order that can be read only once gives the same digraph
        assert realize_acyclic(f, iter([0, 1, 2])) == d
        assert realize_acyclic(f, (v for v in [0, 1, 2])) == d

    def test_violating_pair_rejected(self):
        with pytest.raises(InfeasibleError):
            realize_acyclic(cycle_cover(5, 2), [0, 1, 2, 3, 4])

    def test_path_cover_roundtrip(self):
        # covering the path 0-1-2 needs a fourth host vertex: sets at
        # indices 0 and 1 may hold at most zero and one vertex, so only two
        # slots could carry an edge otherwise
        path = CliqueCover(4, [(), (), (0, 1), (1, 2)])
        order = [0, 1, 2, 3]
        assert satisfies_acyclic_ordering(path, order)
        d = realize_acyclic(path, order)
        assert is_acyclic(d)
        assert p_competition_graph(d, 1).edges == frozenset({(0, 1), (1, 2)})

    def test_reordered_prey_keeps_competition_graph(self):
        f = CliqueCover(3, [(), (1,), (1, 0)])
        order = [1, 0, 2]
        assert satisfies_acyclic_ordering(f, order)
        d = realize_acyclic(f, order)
        assert is_acyclic(d)
        assert p_competition_graph(d, 1).edges == frozenset({(0, 1)})

    @given(st.data())
    def test_ordered_families_realize_acyclically(self, data):
        # draw an ordering and a family whose set j only uses vertices at
        # positions < j; these always satisfy the ordering condition and
        # must produce an acyclic digraph realizing their own p-competition
        # graph
        n = data.draw(st.integers(2, 7))
        order = data.draw(st.permutations(range(n)))
        sets = []
        for j in range(n):
            allowed = list(order[:j])
            sets.append(data.draw(st.frozensets(st.sampled_from(allowed))
                                  if allowed else st.just(frozenset())))
        f = CliqueCover(n, sets)
        p = data.draw(st.integers(1, 3))
        assert satisfies_acyclic_ordering(f, order)
        d = realize_acyclic(f, order)
        arcs = {(x, order[j]) for j, s in enumerate(sets) for x in s}
        assert d.arcs == arcs
        assert d._in is not None  # set j's members, put at prey order[j]
        assert predator_sets(d) == literal_predators(n, arcs)
        assert is_acyclic(d)
        assert p_competition_graph(d, p) == p_competition_graph(realize(f), p)
        assert realize_acyclic(f, iter(order)) == d
        assert realize_acyclic(f, (v for v in order)) == d

    @pytest.mark.parametrize("n,density,grid", [(300, 0.5, True), (1000, 0.01, False)],
                             ids=["grid", "loop"])
    def test_large_ordered_families_realize_acyclically(self, n, density, grid):
        # the small families above never reach the cover's byte grid, which
        # realize builds a dense family's incidence through
        rng = random.Random(f"acyclic-{n}-{density}")
        order = list(range(n))
        rng.shuffle(order)
        sets = [frozenset(x for x in order[:j] if rng.random() < density) for j in range(n)]
        f = CliqueCover(n, sets)
        assert (16 * sum(map(len, sets)) > n * n + 8192) == grid  # covers._incidence's rule
        d = realize_acyclic(f, order)
        arcs = {(x, order[j]) for j, s in enumerate(sets) for x in s}
        assert d.arcs == arcs
        assert predator_sets(d) == literal_predators(n, arcs)
        assert is_acyclic(d)
        for p in (1, 2):
            assert p_competition_graph(d, p) == p_competition_graph(realize(f), p)


class TestIsAcyclic:
    def test_arcless(self):
        assert is_acyclic(Digraph(4))

    def test_loop_is_a_cycle(self):
        assert not is_acyclic(Digraph(1, [(0, 0)]))

    def test_directed_triangle(self):
        assert not is_acyclic(Digraph(3, [(0, 1), (1, 2), (2, 0)]))

    def test_diamond_dag(self):
        assert is_acyclic(Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))

    @given(arc_sets(), st.booleans())
    def test_matches_repeated_source_removal(self, drawn, forward_only):
        n, arcs = drawn
        if forward_only:
            arcs = {(x, v) for x, v in arcs if x < v}
        # literal: peel off vertices without in-arcs until none are left
        left, rest = set(range(n)), set(arcs)
        while True:
            sources = {v for v in left if all(w != v for _, w in rest)}
            if not sources:
                break
            left -= sources
            rest = {(x, w) for x, w in rest if x not in sources}
        assert is_acyclic(Digraph(n, arcs)) == (not left)
