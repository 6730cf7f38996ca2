import random
import sys
from itertools import chain, combinations, combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    graphs,
    hole_row_cover,
    literal_verify_p_ecc,
    reference_clique_search,
    reference_row_search,
    reference_theta_e,
    reference_theta_e_p,
)
import pcomp.oracle
from pcomp import (
    CliqueCover,
    Graph,
    InvalidParameterError,
    PcompError,
    ScaleError,
    SearchResult,
    UnsupportedInstanceError,
    Verdict,
    complement,
    cover_to_json_dict,
    cycle_cover,
    exact_theta_e,
    exact_theta_e_p,
    is_p_competition,
    make_cycle,
    maximal_cliques,
    p_competition_graph,
    realize,
    verify_ecc,
    verify_p_ecc,
)
from pcomp.oracle import _clique_masks, _closed_edges, _row_rounds, _tables


def random_graph(n, density, seed, hubs=0):
    """G(n, density) drawn from random.Random(seed), with the top `hubs`
    labels joined to every lower vertex."""
    rng = random.Random(seed)
    return Graph(n, [(u, v) for v in range(n) for u in range(v)
                     if v >= n - hubs or rng.random() < density])


class TestMaximalCliques:
    def test_c5_cliques_are_its_edges(self):
        assert maximal_cliques(make_cycle(5)) == [
            frozenset(e) for e in sorted(make_cycle(5).edges)]

    def test_c8_complement_contains_both_4_sets(self):
        found = maximal_cliques(complement(make_cycle(8)))
        assert frozenset({0, 2, 4, 6}) in found
        assert frozenset({1, 3, 5, 7}) in found
        assert max(len(c) for c in found) == 4

    def test_complete_graph(self):
        k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert maximal_cliques(k4) == [frozenset({0, 1, 2, 3})]

    def test_edgeless_graph_gives_singletons(self):
        assert maximal_cliques(Graph(3)) == [
            frozenset({0}), frozenset({1}), frozenset({2})]

    def test_guard(self):
        with pytest.raises(ScaleError):
            maximal_cliques(Graph(33))

    # the lowest-vertex pivot's worst cases: hubs at the top labels, and
    # a dense graph
    @example(random_graph(12, 0.3, 12, hubs=3))
    @example(random_graph(13, 0.3, 13, hubs=3))
    @example(random_graph(14, 0.3, 14, hubs=3))
    @example(random_graph(14, 0.85, 14))
    @given(graphs(max_n=7))
    def test_all_maximal_and_none_missing(self, g):
        from itertools import combinations

        found = maximal_cliques(g)
        as_sets = set(found)
        assert len(found) == len(as_sets)
        for c in found:
            assert all(g.has_edge(u, v) for u, v in combinations(sorted(c), 2))
            assert not any(
                all(g.has_edge(w, v) for v in c)
                for w in range(g.n) if w not in c)
        # every clique extends to some maximal one
        for r in range(1, 4):
            for cand in combinations(range(g.n), r):
                if all(g.has_edge(u, v) for u, v in combinations(cand, 2)):
                    assert any(set(cand) <= c for c in as_sets)


class TestExactThetaE:
    @pytest.mark.parametrize("n,want", [(5, 5), (6, 5), (7, 7), (8, 6)])
    def test_cycle_complements(self, n, want):
        g = complement(make_cycle(n))
        result = exact_theta_e(g)
        assert result.value == want
        assert len(result.certificate.sets) == want
        assert verify_ecc(g, result.certificate).valid

    @pytest.mark.parametrize("n", range(4, 13))
    def test_cycles_need_one_clique_per_edge(self, n):
        assert exact_theta_e(make_cycle(n)).value == n

    def test_edgeless(self):
        result = exact_theta_e(Graph(5))
        assert result.value == 0
        assert len(result.certificate.sets) == 0
        # an empty cover has length 0, which must not read as "no certificate"
        assert result.to_json_dict()["certificate"] == {"n": 5, "sets": []}

    def test_rejected_certificate_raises_pcomp_error(self, monkeypatch):
        monkeypatch.setattr(
            pcomp.oracle, "verify_p_ecc", lambda g, f, p: Verdict(False, "stub", (0, 2)))
        with pytest.raises(PcompError, match="n=6, p=1"):
            exact_theta_e(complement(make_cycle(6)))

    def test_upper_bound_exceeded(self):
        result = exact_theta_e(complement(make_cycle(7)), upper=5)
        assert result.outcome == "exceeds-bound"
        assert result.value is None and result.certificate is None

    @pytest.mark.parametrize("n,bound", [(9, 7), (11, 8), (13, 9), (10, 6), (12, 7)])
    def test_consistent_with_construction_bounds(self, n, bound):
        # the constructed families give upper bounds; the exact value may be smaller
        result = exact_theta_e(complement(make_cycle(n)))
        assert result.value <= bound
        assert verify_ecc(complement(make_cycle(n)), result.certificate).valid

    @pytest.mark.parametrize("g", [complement(make_cycle(7)), Graph(5)], ids=["co-C7", "edgeless"])
    def test_negative_upper_rejected(self, g):
        # refused before the edgeless shortcut, which would answer 0
        with pytest.raises(InvalidParameterError, match="need upper >= 0"):
            exact_theta_e(g, upper=-1)
        assert exact_theta_e(g, upper=0).value == (0 if not g.edges else None)

    def test_guard_rejects_large_graphs(self):
        with pytest.raises(ScaleError):
            exact_theta_e(Graph(17))
        assert exact_theta_e(Graph(17), guard=17).value == 0

    def test_deterministic_certificates(self):
        g = complement(make_cycle(8))
        a = exact_theta_e(g)
        b = exact_theta_e(g)
        assert a.certificate == b.certificate and a.nodes == b.nodes

    def test_guard_alone_caps_the_clique_enumeration(self):
        path = Graph(33, [(v, v + 1) for v in range(32)])
        result = exact_theta_e(path, guard=40)
        assert result.value == 32
        assert sorted(result.certificate.sets, key=sorted) == [
            frozenset({v, v + 1}) for v in range(32)]
        # called on its own, maximal_cliques keeps its public guard of 32
        with pytest.raises(ScaleError, match="requires n <= 32"):
            maximal_cliques(path)


# the largest p at which co-C_n has a p-cover of at most n sets, n = 17..22
LARGEST_P = [(17, 11), (18, 13), (19, 13), (20, 14), (21, 15), (22, 16)]


class TestExactThetaEP:
    def test_c4_p2_refuted(self):
        result = exact_theta_e_p(make_cycle(4), 2, 4)
        assert result.outcome == "exceeds-bound"
        assert result.bound == 4
        assert 0 < result.nodes <= 65536

    def test_c5_p2_minimum_is_five(self):
        result = exact_theta_e_p(make_cycle(5), 2, 5)
        assert result.value == 5
        assert verify_p_ecc(make_cycle(5), result.certificate, 2).valid

    def test_edgeless_needs_nothing(self):
        result = exact_theta_e_p(Graph(4), 3, 0)
        assert result.value == 0
        assert result.to_json_dict()["certificate"] == {"n": 4, "sets": []}

    def test_rejected_certificate_raises_pcomp_error(self, monkeypatch):
        monkeypatch.setattr(
            pcomp.oracle, "verify_p_ecc",
            lambda g, f, p: Verdict(False, "stub", (0, 2)))
        with pytest.raises(PcompError, match="n=5, p=2"):
            exact_theta_e_p(make_cycle(5), 2, 5)

    def test_budget_below_p_with_edges(self):
        result = exact_theta_e_p(make_cycle(4), 3, 2)
        assert result.outcome == "exceeds-bound"

    def test_certificates_lexicographically_stable(self):
        a = exact_theta_e_p(make_cycle(6), 2, 6)
        b = exact_theta_e_p(make_cycle(6), 2, 6)
        assert a.value == b.value
        assert a.certificate == b.certificate

    def test_guard(self):
        # the row search's default guard is 8; at p = 1 the clique search
        # keeps exact_theta_e's 16, so the two calls answer alike
        with pytest.raises(ScaleError):
            exact_theta_e_p(make_cycle(9), 2, 9)
        assert exact_theta_e_p(make_cycle(9), 1, 9) == exact_theta_e(make_cycle(9), upper=9)
        assert exact_theta_e_p(make_cycle(9), 1, 9).value == 9
        with pytest.raises(ScaleError):
            exact_theta_e_p(make_cycle(17), 1)
        assert is_p_competition(Graph(9, [(0, 1)]), 1).value
        with pytest.raises(UnsupportedInstanceError):
            is_p_competition(Graph(17, [(0, 1)]), 1)
        with pytest.raises(UnsupportedInstanceError):
            is_p_competition(Graph(9, [(0, 1)]), 2)

    def test_default_guard_is_theta_e_s_at_p_1(self):
        # past the row search's guard of 8, up to exact_theta_e's 16
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(9, 16)
            density = rng.random()
            g = Graph(n, [pr for pr in combinations(range(n), 2) if rng.random() < density])
            budget = rng.randint(0, n)
            assert exact_theta_e_p(g, 1, budget) == exact_theta_e(g, upper=budget)

    def test_p_and_budget_validation(self):
        with pytest.raises(InvalidParameterError):
            exact_theta_e_p(make_cycle(4), 0, 4)
        with pytest.raises(InvalidParameterError):
            exact_theta_e_p(make_cycle(4), 1, -1)

    @settings(deadline=None)
    @given(graphs(max_n=5), st.integers(1, 2))
    def test_certificate_always_verifies(self, g, p):
        result = exact_theta_e_p(g, p, g.n)
        if result.value is not None:
            assert len(result.certificate.sets) == result.value
            assert verify_p_ecc(g, result.certificate, p).valid

    @settings(deadline=None)
    @given(graphs(max_n=7), st.integers(1, 3))
    def test_default_bounds(self, g, p):
        # the budget defaults to n; without upper, theta_e stops by |E| sets
        assert exact_theta_e_p(g, p) == exact_theta_e_p(g, p, g.n)
        assert exact_theta_e(g) == exact_theta_e(g, upper=len(g.edges))

    def test_matches_naive_enumeration(self):
        # second opinion: minimum over all nondecreasing multifamilies of
        # arbitrary subsets, judged by the literal all-p-subsets checker
        def naive_minimum(g, p, budget):
            subsets = list(chain.from_iterable(
                combinations(range(g.n), k) for k in range(g.n + 1)))
            for r in range(budget + 1):
                for combo in combinations_with_replacement(subsets, r):
                    if literal_verify_p_ecc(g, CliqueCover(g.n, combo), p):
                        return r
            return None

        rng = random.Random(7)
        for _ in range(12):
            n = rng.randint(2, 4)
            pairs = list(combinations(range(n), 2))
            g = Graph(n, [pr for pr in pairs if rng.random() < 0.5])
            for p in (1, 2):
                assert exact_theta_e_p(g, p, n).value == naive_minimum(g, p, n)

    def test_agrees_with_theta_e_at_p_1(self):
        # at p = 1 exact_theta_e_p runs exact_theta_e's clique search, so
        # the two agree field for field; the row search is an independent
        # route to the same value and bound.  Triangle-free graphs can need
        # more sets than the drawn budget, and all three say exceeds-bound
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 8)
            density = rng.random()
            g = Graph(n, [pr for pr in combinations(range(n), 2) if rng.random() < density])
            budget = rng.randint(0, 8)
            theta = exact_theta_e(g).value
            got = exact_theta_e_p(g, 1, budget)
            assert got == exact_theta_e(g, upper=budget)
            assert got.value == (theta if theta <= budget else None)
            row = row_search(g, 1, budget)
            assert (row.value, row.bound) == (got.value, got.bound)

    def test_set_count_is_capped_by_the_guard(self):
        # K_{4,4} has no 2-cover of at most 8 sets; the guard stops the
        # round at 9 sets before it places a row
        k44 = Graph(8, [(u, v) for u in range(4) for v in range(4, 8)])
        assert exact_theta_e_p(k44, 2, budget=8).outcome == "exceeds-bound"
        with pytest.raises(ScaleError, match="at most 8 sets"):
            exact_theta_e_p(k44, 2, budget=10)

    def test_set_count_is_not_capped_at_p_1(self):
        # at p = 1 the clique search runs, and the guard caps n alone: the
        # 16 edges of K_{4,4} share no triangle, so they need 16 sets
        k44 = Graph(8, [(u, v) for u in range(4) for v in range(4, 8)])
        result = exact_theta_e_p(k44, 1, budget=16)
        assert result.value == 16 and len(result.certificate) == 16
        assert exact_theta_e_p(k44, 1, budget=15).outcome == "exceeds-bound"

    @pytest.mark.parametrize("n,largest", [(5, 2), (6, 3), (7, 2), (8, 4), (9, 4), (10, 5),
                                           (11, 6), (12, 7), (13, 8), (14, 9), (15, 10),
                                           (16, 11)])
    def test_cycle_complement_answers(self, n, largest):
        # the largest p at which co-C_n has a p-cover of at most n sets
        g = complement(make_cycle(n))
        for p in range(1, n):
            result = exact_theta_e_p(g, p, n, guard=n)
            if p > largest:
                assert result.outcome == "exceeds-bound"
                continue
            assert result.value <= n
            assert verify_p_ecc(g, result.certificate, p).valid
            assert p_competition_graph(realize(result.certificate), p) == g

    # past n = 16 the largest p is no longer n - 5: it is 11, 13, 13, 14, 15
    # and 16 for n = 17..22
    @pytest.mark.parametrize("n,largest", LARGEST_P)
    def test_cycle_complement_refuted_above_the_largest_p(self, n, largest):
        result = exact_theta_e_p(complement(make_cycle(n)), largest + 1, n, guard=n)
        assert result.outcome == "exceeds-bound" and result.bound == n

    # at p = n - 4 .. n - 1 the refutation walks a tree whose size does not
    # depend on n (measured the same for every n from 9 to 40), a first step
    # towards a no for every n
    @pytest.mark.parametrize("n", range(9, 25))
    def test_cycle_complement_high_p_refutation_does_not_grow_with_n(self, n):
        g = complement(make_cycle(n))
        nodes = {}
        for gap in (4, 3, 2, 1):
            result = exact_theta_e_p(g, n - gap, n, guard=n)
            assert result.outcome == "exceeds-bound" and result.bound == n
            nodes[gap] = result.nodes
        assert nodes == {4: 341, 3: 95, 2: 30, 1: 10}

    # the yes at the largest p for n = 19..22 takes 1.3-30 s on 2 vCPU, so
    # the suite leaves it out
    @pytest.mark.parametrize("n,largest", [(17, 11), (18, 13)])
    def test_cycle_complement_covered_at_the_largest_p(self, n, largest):
        g = complement(make_cycle(n))
        result = exact_theta_e_p(g, largest, n, guard=n)
        assert result.value == n
        assert verify_p_ecc(g, result.certificate, largest).valid
        assert p_competition_graph(realize(result.certificate), largest) == g


class TestHoleRowSearch:
    """conftest.hole_row_cover, a search over the sets that miss each vertex
    with list domains, against the row search, so that a no rests on two
    searches that share no code."""

    @pytest.mark.parametrize("n,largest", LARGEST_P)
    def test_refutes_above_the_largest_p(self, n, largest):
        assert hole_row_cover(complement(make_cycle(n)), largest + 1, n) is None

    @settings(deadline=None, max_examples=150)
    @given(graphs(max_n=8), st.integers(1, 5))
    def test_least_cover_matches_the_row_search(self, g, p):
        covers = (hole_row_cover(g, p, r) for r in range(g.n + 1))
        least = next((r for r, f in enumerate(covers) if f is not None), None)
        assert least == exact_theta_e_p(g, p, g.n).value
        if least:
            f = hole_row_cover(g, p, least)
            assert len(f) == least and verify_p_ecc(g, f, p).valid


def _search_outcome(g, p):
    result = exact_theta_e_p(g, p, g.n)
    return result.value, result.certificate, result.bound, result.nodes


def _decision_outcome(g, p):
    decision = is_p_competition(g, p, method="oracle")
    return decision.value, decision.certificate


def _cache_runs():
    """A fixed list of theta_e^p searches and oracle decisions, as
    (outcome function, graph, p)."""
    k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    searches = [(make_cycle(n), p) for n in range(4, 9) for p in range(1, n)]
    searches += [(complement(make_cycle(n)), p) for n in range(5, 9) for p in range(1, n - 1)]
    decisions = [(make_cycle(6), 3), (make_cycle(6), 4), (complement(make_cycle(7)), 2),
                 (complement(make_cycle(7)), 3), (complement(make_cycle(8)), 4),
                 (complement(make_cycle(8)), 5), (k33, 1), (k33, 2)]
    return ([(_search_outcome, g, p) for g, p in searches]
            + [(_decision_outcome, g, p) for g, p in decisions])


class TestRowTables:
    """The row search's per-process tables for (r, p), built one row at a time."""

    def test_tables_match_the_definition(self):
        for r in range(1, 8):
            for p in range(1, r + 2):
                universe, meets, ties = _tables(r, p)
                assert universe == [x for x in range(1 << r) if x == 0 or x.bit_count() >= p]
                for i, x in enumerate(universe):
                    assert meets[i] == sum(1 << k for k, y in enumerate(universe)
                                           if (x & y).bit_count() >= p), (r, p, x)
                # every row has now been read, whatever earlier tests built
                assert len(meets) == len(universe)
                for tied in range(0, 1 << r, 2):
                    assert ties[tied] == sum(1 << k for k, x in enumerate(universe)
                                             if not x & tied & ~(x << 1)), (r, p, tied)

    def test_results_do_not_depend_on_the_cache(self):
        runs = _cache_runs()
        assert len(runs) == 51
        cold = []
        for run, g, p in runs:
            _tables.cache_clear()
            cold.append(run(g, p))
        warm = [run(g, p) for run, g, p in runs]
        backwards = [run(g, p) for run, g, p in reversed(runs)][::-1]
        assert cold == warm == backwards
        assert any(value is None for value, *_ in cold)

    def test_a_repeated_call_builds_no_table(self):
        g = complement(make_cycle(7))
        _tables.cache_clear()
        first = exact_theta_e_p(g, 2, 7)
        # one set of tables per round, rounds r = 2..first.value
        assert _tables.cache_info().misses == first.value - 2 + 1
        rounds = range(2, first.value + 1)
        built = [(len(_tables(r, 2)[1]), len(_tables(r, 2)[2])) for r in rounds]
        again = exact_theta_e_p(g, 2, 7)
        assert _tables.cache_info().misses == first.value - 2 + 1
        assert [(len(_tables(r, 2)[1]), len(_tables(r, 2)[2])) for r in rounds] == built
        assert again == first

    def test_masks_are_built_only_for_rows_placed(self):
        _tables.cache_clear()
        result = exact_theta_e_p(complement(make_cycle(12)), 7, 12, guard=12)
        assert result.value == 12
        universe, meets, _ = _tables(12, 7)
        # row 0 and the 1,586 rows of 12 bits with at least 7 set, of 4,096
        assert len(universe) == 1587
        assert 0 < len(meets) < len(universe)

    def test_rounds_past_twelve_sets_run_within_the_guard(self):
        g = complement(make_cycle(8))
        solve = _row_rounds(g, 2, guard=20)
        sets, _ = solve(13)
        assert len(sets) == 13
        assert verify_p_ecc(g, CliqueCover(8, sets), 2).valid

    def test_a_round_past_the_guard_is_refused(self):
        solve = _row_rounds(complement(make_cycle(8)), 2, guard=12)
        with pytest.raises(ScaleError, match="at most 12 sets"):
            solve(13)


@st.composite
def graphs_with_isolated_vertices(draw, max_n=7):
    """A graph on up to max_n vertices, at least one of them isolated, with
    the isolated vertices at drawn labels."""
    core = draw(graphs(max_n=max_n - 1))
    n = core.n + draw(st.integers(1, max_n - core.n))
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in core.edges])


def complete_graph(n):
    return Graph(n, list(combinations(range(n), 2)))


class TestCliqueTables:
    """The clique search's tables against their literal definitions: the
    mask core's order is the sorted order of the vertex tuples, each mask
    of _closed_edges holds the edges inside N[w], and the edges inside both
    N[u] and N[v], by which edge uv is ranked, are the edges (uv included)
    that share a maximal clique with uv."""

    @staticmethod
    def check(g):
        cliques = [frozenset(v for v in range(g.n) if m >> v & 1) for m in _clique_masks(g, g.n)]
        assert cliques == sorted(cliques, key=lambda c: tuple(sorted(c)))
        assert cliques == maximal_cliques(g)
        edges = sorted(g.edges)
        inside = _closed_edges(g._adj, edges)
        for w in range(g.n):
            closed = {w, *(v for v in range(g.n) if g.has_edge(v, w))}
            assert inside[w] == sum(1 << k for k, e in enumerate(edges) if set(e) <= closed)
        for u, v in edges:
            together = {e for c in cliques if u in c and v in c
                        for e in combinations(sorted(c), 2)}
            assert (inside[u] & inside[v]).bit_count() == len(together)

    @settings(deadline=None, max_examples=150)
    @given(graphs(max_n=12))
    def test_random_graphs(self, g):
        self.check(g)

    @settings(deadline=None, max_examples=75)
    @given(graphs_with_isolated_vertices(max_n=12))
    def test_graphs_with_isolated_vertices(self, g):
        self.check(g)

    @pytest.mark.parametrize("g", [
        Graph(1), Graph(12), complete_graph(2), complete_graph(12),
        complement(make_cycle(12)), make_cycle(12),
    ], ids=["K1", "edgeless 12", "K2", "K12", "co-C12", "C12"])
    def test_edge_cases(self, g):
        self.check(g)


def row_search(g, p, budget, guard=8):
    """The row search at any p: exact_theta_e_p for p >= 2, and its kernel
    run through _deepen at p = 1, where exact_theta_e_p runs the clique
    search."""
    if p > 1:
        return exact_theta_e_p(g, p, budget, guard=guard)
    return pcomp.oracle._deepen(g, 1, budget, guard, "p-cover search", _row_rounds)


class TestRowSearchMatchesReference:
    """The row search against its form before the universe and the early
    stop (reference_row_search in tests/conftest.py): the same value, bound
    and certificate, and no more rows placed.  At p = 1 the universe holds
    every row, so the same rows are placed."""

    @staticmethod
    def same(g, p, guard=8):
        got = row_search(g, p, g.n, guard=guard)
        want = reference_row_search(g, p, g.n, guard=guard)
        assert outcome(got) == outcome(want)
        assert got.nodes <= want.nodes
        if p == 1:
            assert got.nodes == want.nodes
        return got, want

    @settings(deadline=None, max_examples=150)
    @given(graphs(max_n=8), st.integers(1, 5))
    def test_random_graphs(self, g, p):
        self.same(g, p)

    @settings(deadline=None, max_examples=100)
    @given(graphs_with_isolated_vertices(), st.integers(1, 5))
    def test_graphs_with_isolated_vertices(self, g, p):
        assert any(not a for a in g._adj)
        self.same(g, p)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_cycle_complements_at_every_p(self, n):
        g = complement(make_cycle(n))
        fewer = 0
        for p in range(1, n + 1):
            got, want = self.same(g, p, guard=n)
            fewer += got.nodes < want.nodes
        assert fewer > 0


class TestCliqueSearchMatchesReference:
    """The clique search against its form before a tight packing tried only
    the candidates of its packed edges (reference_clique_search in
    tests/conftest.py): the same value, certificate and bound, and no more
    nodes, since the tree searched is a subset of the reference's."""

    @staticmethod
    def same(g, upper=None):
        got = exact_theta_e(g, upper=upper)
        want = reference_clique_search(g, upper=upper)
        assert outcome(got) == outcome(want)
        assert got.nodes <= want.nodes
        return got.nodes < want.nodes

    def test_random_graphs_with_a_drawn_bound(self):
        rng = random.Random(30)
        fewer = 0
        for _ in range(400):
            n = rng.randint(2, 13)
            density = rng.random()
            g = Graph(n, [pr for pr in combinations(range(n), 2) if rng.random() < density])
            upper = rng.choice([None, rng.randint(0, n * n // 4 + 1)])
            fewer += self.same(g, upper)
        assert fewer > 20

    @pytest.mark.parametrize("n", range(9, 17))
    def test_relabeled_cycle_complements(self, n):
        for seed in range(4):
            g = relabeled(complement(make_cycle(n)), random.Random(3000 * n + seed))
            assert self.same(g)
            theta = exact_theta_e(g).value
            self.same(g, upper=theta - 1)


def complete_bipartite(m):
    return Graph(2 * m, [(i, m + j) for i in range(m) for j in range(m)])


class TestRecursionLimit:
    """A search that would recurse past Python's recursion limit ends in a
    ScaleError naming n, and leaves the limit as it was."""

    @pytest.mark.parametrize("run,n", [
        (lambda: maximal_cliques(complement(Graph(1100)), guard=2048), 1100),
        (lambda: exact_theta_e(Graph(2048, [(2 * i, 2 * i + 1) for i in range(1024)]),
                               guard=2048), 2048),
        (lambda: exact_theta_e_p(Graph(1200, [(0, 1)]), 2, 1200, guard=2048), 1200),
        # one recursion level per set: theta_e(K_{40,40}) = 1600 on n = 80
        (lambda: exact_theta_e(complete_bipartite(40), guard=80), 80),
    ], ids=["K1100 cliques", "matching theta_e", "one edge theta_e_p", "K40,40 theta_e"])
    def test_overflow_is_a_scale_error(self, run, n):
        limit = sys.getrecursionlimit()
        with pytest.raises(ScaleError, match=f"n={n} recurses past Python's recursion limit"):
            run()
        assert sys.getrecursionlimit() == limit

    def test_deep_search_within_the_limit_answers(self):
        result = exact_theta_e(complete_bipartite(20), guard=40)
        assert result.value == 400 and result.certificate is not None


def outcome(result):
    return result.value, result.certificate, result.bound


def p_outcome(g, p, result):
    """(value, bound) of a theta_e^p result, after checking its certificate
    with the verifier and, within n sets, by the realization round trip."""
    if result.value is not None:
        f = result.certificate
        assert len(f) == result.value
        assert verify_p_ecc(g, f, p).valid
        if len(f) <= g.n:
            assert p_competition_graph(realize(f), p) == g
    return result.value, result.bound


def rows_of(f):
    """Bit j of rows[v] is set iff v is in set j: the rows of the cover matrix."""
    return tuple(sum(1 << j for j, s in enumerate(f.sets) if v in s) for v in range(f.n))


def canonical_rows(g, p, r):
    """Brute force: the least row sequence among p-covers of r sets whose
    columns are nonincreasing read from vertex 0 down.

    Columns are enumerated as nonincreasing tuples of n-bit numbers with
    vertex 0 as the top bit.  A column of fewer than two vertices holds no
    pair, so a minimum cover never has one: above p sets it could be
    dropped, and at p sets every set holds every edge.  Pair counts sit in
    4-bit fields (r <= 5, p <= 3): adding 8 - p to each sets a field's top
    bit iff the pair lies in at least p sets, which must hold exactly on
    the edges.
    """
    n = g.n
    pairs = list(combinations(range(n), 2))
    columns = [c for c in range((1 << n) - 1, -1, -1) if c.bit_count() >= 2]
    packed = {}
    for c in columns:
        members = {v for v in range(n) if c >> (n - 1 - v) & 1}
        packed[c] = sum(1 << 4 * k for k, (u, v) in enumerate(pairs)
                        if u in members and v in members)
    offset = sum((8 - p) << 4 * k for k in range(len(pairs)))
    top = sum(8 << 4 * k for k in range(len(pairs)))
    want = sum(8 << 4 * k for k, pr in enumerate(pairs) if pr in g.edges)
    best = None
    for cols in combinations_with_replacement(columns, r):
        if (sum(map(packed.__getitem__, cols)) + offset) & top == want:
            rows = tuple(sum(1 << j for j, c in enumerate(cols) if c >> (n - 1 - v) & 1)
                         for v in range(n))
            if best is None or rows < best:
                best = rows
    return best


def relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


class TestCoverSearchMatchesReference:
    """Both kernels against the searches they replaced (tests/conftest.py).

    The clique search matches reference_theta_e in value, certificate and
    bound.  exact_theta_e_p, the clique search at p = 1 and the row search
    above, matches reference_theta_e_p in value and bound only: neither
    certificate need be the lexicographically least family of vertex
    subsets, so every certificate is checked on its own, and the row
    search's, for n <= 5, against a brute-force canonical cover.
    """

    @settings(deadline=None, max_examples=100)
    @given(graphs(max_n=7), st.integers(1, 4), st.data())
    def test_theta_e_p_random(self, g, p, data):
        budget = data.draw(st.integers(0, g.n))
        want = reference_theta_e_p(g, p, budget)
        assert p_outcome(g, p, exact_theta_e_p(g, p, budget)) == (want.value, want.bound)

    def test_theta_e_p_certificates_are_canonical(self):
        rng = random.Random(5)
        found = 0
        for _ in range(150):
            n = rng.randint(2, 5)
            g = Graph(n, [pr for pr in combinations(range(n), 2) if rng.random() < 0.6])
            p = rng.randint(1, 3)
            result = row_search(g, p, n)
            if result.value:
                found += 1
                assert rows_of(result.certificate) == canonical_rows(g, p, result.value)
        assert found > 50

    def test_theta_e_random(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 12)
            density = rng.random()
            g = Graph(n, [pr for pr in combinations(range(n), 2) if rng.random() < density])
            for upper in (None, *range(9)):
                assert (outcome(exact_theta_e(g, upper=upper))
                        == outcome(reference_theta_e(g, upper=upper)))

    @pytest.mark.parametrize("n", range(9, 15))
    def test_theta_e_relabeled_cycle_complements(self, n):
        g = relabeled(complement(make_cycle(n)), random.Random(n))
        assert outcome(exact_theta_e(g)) == outcome(reference_theta_e(g))

    @pytest.mark.parametrize("seed", range(1, 4))
    @pytest.mark.parametrize("n", range(9, 14))
    def test_theta_e_relabeled_cycle_complements_refuted_one_below(self, n, seed):
        g = relabeled(complement(make_cycle(n)), random.Random(1000 * n + seed))
        want = reference_theta_e(g)
        assert outcome(exact_theta_e(g)) == outcome(want)
        below = want.value - 1
        assert outcome(exact_theta_e(g, upper=below)) == outcome(reference_theta_e(g, upper=below))

    @settings(deadline=None, max_examples=100)
    @given(graphs(max_n=9), st.data())
    def test_theta_e_random_with_a_drawn_bound(self, g, data):
        # theta_e <= n^2 / 4 (Erdos, Goodman and Posa), so the draw lands on both sides
        upper = data.draw(st.none() | st.integers(0, g.n * g.n // 4 + 1))
        assert outcome(exact_theta_e(g, upper=upper)) == outcome(reference_theta_e(g, upper=upper))

    # every C_n and co-C_n with n <= 8 and p <= 6 was compared once outside
    # the suite; these are the ones the reference decides within about 2 s
    @pytest.mark.parametrize("family,n,p", [
        *(("cycle", n, p) for n in range(3, 8) for p in range(1, 7)),
        ("cycle", 8, 1),
        *(("co-cycle", n, p) for n in (5, 6) for p in range(1, 7)),
        *(("co-cycle", 7, p) for p in (1, 2, 5, 6)),
        ("co-cycle", 8, 1),
    ])
    def test_theta_e_p_cycles_and_complements(self, family, n, p):
        g = make_cycle(n) if family == "cycle" else complement(make_cycle(n))
        want = reference_theta_e_p(g, p, n)
        assert p_outcome(g, p, exact_theta_e_p(g, p, n)) == (want.value, want.bound)

    @pytest.mark.parametrize("run,want", [
        (lambda: exact_theta_e(complement(make_cycle(14))), 266),
        (lambda: exact_theta_e(complement(make_cycle(15))), 6356),
        (lambda: exact_theta_e_p(complement(make_cycle(7)), 2, 7), 404),
        (lambda: exact_theta_e_p(make_cycle(7), 4, 7), 50),
        (lambda: exact_theta_e(complement(make_cycle(12)), upper=6), 34),
        (lambda: exact_theta_e(complement(make_cycle(13)), upper=6), 50),
        (lambda: exact_theta_e_p(make_cycle(8), 6, 8), 25),
        (lambda: exact_theta_e_p(complement(make_cycle(6)), 4, 6), 30),
        (lambda: exact_theta_e_p(make_cycle(8), 7, 8), 10),
    ], ids=["co-C14 theta_e", "co-C15 theta_e", "co-C7 p=2", "C7 p=4", "co-C12 refuted",
            "co-C13 refuted", "C8 p=6 refuted", "co-C6 p=4 refuted", "C8 p=7 refuted"])
    def test_node_counts_do_not_regress(self, run, want):
        assert run().nodes == want


class TestIsPCompetition:
    def test_c4_p2_false(self):
        assert is_p_competition(make_cycle(4), 2).value is False

    def test_c9_p6_true_constructively(self):
        decision = is_p_competition(make_cycle(9), 6)
        assert decision.value is True and decision.method == "construct"

    def test_c5_p3_false(self):
        assert is_p_competition(make_cycle(5), 3).value is False

    def test_triangle_is_special(self):
        # K_3 admits p copies of the full set for p <= 3, so the cycle law
        # (which needs a nonadjacent pair at distance 2) must not fire
        assert is_p_competition(make_cycle(3), 3).value is True
        assert is_p_competition(make_cycle(3), 4).value is False

    def test_complement_route(self):
        g = complement(make_cycle(12))
        decision = is_p_competition(g, 6)
        assert decision.value is True
        assert decision.method == "construct"
        assert decision.cover_size == 12

    def test_complement_inconclusive_falls_to_oracle(self):
        g = complement(make_cycle(5))
        decision = is_p_competition(g, 2)
        assert decision.method == "oracle"
        assert decision.value is True  # co-C5 is a relabeled C_5

    def test_unsupported_instance(self):
        with pytest.raises(UnsupportedInstanceError):
            is_p_competition(Graph(12, [(0, 1)]), 2)

    def test_forced_construct_on_plain_graph_fails(self):
        with pytest.raises(UnsupportedInstanceError):
            is_p_competition(Graph(4, [(0, 1)]), 1, method="construct")

    def test_no_lift_is_built_for_p_above_n(self):
        # a lift of 10**18 sets could never fit, and building one would fail
        with pytest.raises(UnsupportedInstanceError):
            is_p_competition(complement(make_cycle(7)), 10**18, method="construct")

    def test_method_both_agrees(self):
        decision = is_p_competition(make_cycle(5), 2, method="both")
        assert decision.value is True and decision.method == "both"

    def test_method_both_disagreement_raises_pcomp_error(self, monkeypatch):
        monkeypatch.setattr(
            pcomp.oracle, "exact_theta_e_p",
            lambda g, p, budget, guard: SearchResult(4, cycle_cover(4, 1), 0))
        with pytest.raises(PcompError, match="disagree on n=4, p=2"):
            is_p_competition(make_cycle(4), 2, method="both")

    @pytest.mark.parametrize("n,p", [(4, 2), (4, 3), (5, 3), (5, 4), (6, 4)])
    def test_oracle_refutations(self, n, p):
        decision = is_p_competition(make_cycle(n), p, method="oracle")
        assert decision.value is False and decision.method == "oracle"

    @pytest.mark.parametrize("n", range(4, 9))
    def test_both_paths_agree_with_the_law(self, n):
        for p in range(1, n + 1):
            decision = is_p_competition(make_cycle(n), p, method="both")
            assert decision.value == (n >= p + 3)


@pytest.mark.parametrize("call", [
    lambda g, guard: maximal_cliques(g, guard=guard),
    lambda g, guard: exact_theta_e(g, guard=guard),
    lambda g, guard: exact_theta_e_p(g, 1, g.n, guard=guard),
    lambda g, guard: is_p_competition(g, 1, guard=guard),
], ids=["maximal_cliques", "exact_theta_e", "exact_theta_e_p", "is_p_competition"])
def test_negative_guard_rejected(call):
    # C5 at p = 1 has a constructive yes, so only the check refuses it
    with pytest.raises(InvalidParameterError, match="need guard >= 0"):
        call(make_cycle(5), -1)


@pytest.mark.parametrize("call,checks", [
    (lambda: exact_theta_e(complement(make_cycle(6))), 1),
    (lambda: exact_theta_e_p(complement(make_cycle(5)), 2, 5), 1),
    (lambda: is_p_competition(complement(make_cycle(5)), 2, method="oracle"), 1),
    (lambda: is_p_competition(make_cycle(9), 6), 1),
    (lambda: is_p_competition(make_cycle(6), 3, method="both"), 2),
], ids=["theta_e", "theta_e_p", "oracle", "construct", "both"])
def test_each_cover_is_checked_once(monkeypatch, call, checks):
    # "both" returns the constructive cover but also checks the search's
    calls = []

    def counted(g, f, p):
        calls.append(f)
        return verify_p_ecc(g, f, p)

    monkeypatch.setattr(pcomp.oracle, "verify_p_ecc", counted)
    call()
    assert len(calls) == checks


def _drop_last_set(build):
    def dropped(*args):
        f = build(*args)
        return CliqueCover(f.n, f.sets[:-1])
    return dropped


class TestDecisionCertificates:
    """Every yes carries a p-cover of at most n sets that the library has
    checked; these tests check it again with their own calls."""

    @pytest.mark.parametrize("family,n", [
        *(("cycle", n) for n in range(3, 13)),
        *(("co-cycle", n) for n in range(5, 13)),
    ])
    def test_yes_decisions_carry_checked_covers(self, family, n):
        g = make_cycle(n) if family == "cycle" else complement(make_cycle(n))
        methods = ["construct", "auto", "both", "oracle"] if n <= 6 else ["construct"]
        yes = 0
        for p in range(1, n + 1):
            for method in methods:
                try:
                    d = is_p_competition(g, p, method=method)
                except UnsupportedInstanceError:
                    continue
                if method == "construct" and n > 6:
                    # beyond the oracle, auto takes the same constructive path
                    assert is_p_competition(g, p) == d
                if not d.value:
                    assert d.certificate is None and d.cover_size is None
                    continue
                yes += 1
                f = d.certificate
                assert len(f) == d.cover_size <= n
                assert verify_p_ecc(g, f, p).valid
                assert p_competition_graph(realize(f), p) == g
        assert yes > 0

    def test_both_keeps_the_constructive_cover(self):
        g = complement(make_cycle(6))
        both = is_p_competition(g, 1, method="both")
        assert both.certificate == is_p_competition(g, 1, method="construct").certificate
        assert both.method == "both" and both.cover_size == 5

    def test_json_carries_the_certificate(self):
        yes = is_p_competition(make_cycle(9), 6)
        assert yes.to_json_dict() == {
            "is_p_competition": True, "method": "construct", "cover_size": 9,
            "certificate": cover_to_json_dict(cycle_cover(9, 6))}
        assert is_p_competition(make_cycle(4), 2).to_json_dict() == {
            "is_p_competition": False, "method": "construct", "cover_size": None,
            "certificate": None}

    def test_constructive_cover_missing_a_set_raises(self, monkeypatch):
        monkeypatch.setattr(pcomp.oracle, "cycle_cover", _drop_last_set(cycle_cover))
        with pytest.raises(PcompError, match="failed verification"):
            is_p_competition(make_cycle(9), 6)

    def test_round_trip_catches_what_the_verifier_passes(self, monkeypatch):
        monkeypatch.setattr(pcomp.oracle, "cycle_cover", _drop_last_set(cycle_cover))
        monkeypatch.setattr(
            pcomp.oracle, "verify_p_ecc", lambda g, f, p: Verdict(True, None, None))
        with pytest.raises(PcompError, match="does not realize"):
            is_p_competition(make_cycle(9), 6)

    def test_no_round_trip_beyond_n_sets(self):
        # K_{3,3} is triangle-free, so each of its 9 edges needs its own clique
        k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        assert exact_theta_e(k33).value == 9


class TestMethodBoth:
    """method "both" runs every route that applies, as each survey cell does."""

    def test_both_within_the_guard(self):
        d = is_p_competition(make_cycle(5), 2, method="both", guard=5)
        assert (d.value, d.method, d.cover_size) == (True, "both", 5)

    def test_construct_beyond_the_guard(self):
        d = is_p_competition(make_cycle(9), 7, method="both", guard=5)
        assert (d.value, d.method, d.cover_size) == (False, "construct", None)

    def test_oracle_where_no_construction_applies(self):
        d = is_p_competition(complement(make_cycle(5)), 2, method="both", guard=5)
        assert (d.value, d.method, d.cover_size) == (True, "oracle", 5)

    def test_nothing_applies(self):
        with pytest.raises(UnsupportedInstanceError, match="no decision path applies"):
            is_p_competition(complement(make_cycle(9)), 4, method="both", guard=5)

    def test_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(
            pcomp.oracle, "exact_theta_e_p",
            lambda g, p, budget, guard: SearchResult(4, cycle_cover(4, 1), 0))
        with pytest.raises(PcompError, match="disagree on n=4, p=2"):
            is_p_competition(make_cycle(4), 2, method="both", guard=5)
