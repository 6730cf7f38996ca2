import copy
import json
import pickle
import random
import sys
import threading
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcomp.covers as covers_module
from conftest import covers, graph_cover_p, literal_verify_p_ecc, reference_verdict
from pcomp import (
    REASON_FAMILY_SMALLER_THAN_P,
    REASON_NONEDGE_IN_P_SETS,
    REASON_UNCOVERED_EDGE,
    CliqueCover,
    Graph,
    InfeasibleError,
    InvalidParameterError,
    complement,
    complement_cycle_cover,
    cover_from_json_dict,
    cover_to_json_dict,
    cycle_cover,
    exact_theta_e,
    exact_theta_e_p,
    is_p_competition,
    lift_cover,
    make_cycle,
    maximal_cliques,
    p_competition_graph,
    realize,
    verify_ecc,
    verify_p_ecc,
)


def co_occurrences(f, u, v):
    return sum(1 for s in f.sets if u in s and v in s)


class TestVerifyEcc:
    def test_c6_complement_family(self):
        f = CliqueCover(6, [(0, 2, 4), (1, 3, 5), (2, 5), (1, 4), (0, 3)])
        assert verify_ecc(complement(make_cycle(6)), f).valid

    def test_c8_complement_family(self):
        f = CliqueCover(
            8,
            [(0, 3, 5), (2, 5, 7), (4, 1, 7), (6, 1, 3), (0, 2, 4, 6), (1, 3, 5, 7)],
        )
        assert verify_ecc(complement(make_cycle(8)), f).valid

    def test_non_clique_set_rejected_with_witness(self):
        verdict = verify_ecc(make_cycle(4), CliqueCover(4, [(0, 1, 2)]))
        assert not verdict.valid
        assert verdict.reason == REASON_NONEDGE_IN_P_SETS
        assert verdict.pair == (0, 2)

    def test_uncovered_edge_rejected(self):
        verdict = verify_ecc(make_cycle(4), CliqueCover(4, [(0, 1)]))
        assert not verdict.valid
        assert verdict.reason == REASON_UNCOVERED_EDGE
        assert verdict.pair in make_cycle(4).edges

    def test_empty_family_covers_edgeless_graph(self):
        assert verify_ecc(Graph(3), CliqueCover(3, ())).valid


class TestVerifyPEcc:
    def test_cycle_cover_is_valid_2_cover(self):
        assert verify_p_ecc(make_cycle(5), cycle_cover(5, 2), 2).valid

    def test_repeated_edge_set_leaves_edges_uncovered(self):
        f = CliqueCover(4, [(0, 1)] * 4)
        verdict = verify_p_ecc(make_cycle(4), f, 2)
        assert not verdict.valid
        assert verdict.reason == REASON_UNCOVERED_EDGE
        assert verdict.pair in make_cycle(4).edges
        assert co_occurrences(f, *verdict.pair) < 2

    def test_c7_p4_counts(self):
        f = cycle_cover(7, 4)
        assert verify_p_ecc(make_cycle(7), f, 4).valid
        assert co_occurrences(f, 0, 2) == 3
        assert co_occurrences(f, 0, 1) == 4

    def test_mismatched_host_rejected(self):
        with pytest.raises(InvalidParameterError):
            verify_p_ecc(make_cycle(5), CliqueCover(6, ()), 1)

    def test_family_smaller_than_p(self):
        verdict = verify_p_ecc(make_cycle(4), CliqueCover(4, [(0, 1)]), 2)
        assert not verdict.valid
        assert verdict.reason == REASON_FAMILY_SMALLER_THAN_P

    def test_small_family_fine_without_edges(self):
        # fewer than p sets cannot cover an edge, but with no edges the
        # p-subset conditions hold vacuously
        assert verify_p_ecc(Graph(4), CliqueCover(4, [(0, 1)]), 3).valid

    def test_least_offending_pair_is_named(self):
        # C4 at p = 2: the nonedge (0, 2) lies in both sets, but the edge
        # (0, 1) lies in none and is the lesser pair
        f = CliqueCover(4, [(0, 2)] * 2)
        assert verify_p_ecc(make_cycle(4), f, 2) == (False, REASON_UNCOVERED_EDGE, (0, 1))
        # a nonedge below every short edge is named first
        g = Graph(4, [(1, 2)])
        assert verify_p_ecc(g, f, 2) == (False, REASON_NONEDGE_IN_P_SETS, (0, 2))

    def test_nonedge_saturation_detected(self):
        # a valid C5 2-cover plus one set holding the nonedge (0, 2), which
        # then lies in two sets: the only offence is that nonedge
        f = CliqueCover(5, [*cycle_cover(5, 2).sets, (0, 2)])
        assert verify_p_ecc(make_cycle(5), f, 2) == (False, REASON_NONEDGE_IN_P_SETS, (0, 2))

    @pytest.mark.parametrize("n,p", [(12, 1), (12, 3), (40, 2), (40, 5), (200, 10)])
    def test_reads_partner_rows_up_to_the_first_disagreement(self, monkeypatch, n, p):
        # one set of cycle_cover(n, p) dropped leaves its p cycle edges
        # short; the least of them is at row k, or at row 0 when the set
        # wraps past n - 1, and no row past it is computed
        read = []
        partners = covers_module._partners

        def counting(*args):
            for row in partners(*args):
                read.append(row)
                yield row

        monkeypatch.setattr(covers_module, "_partners", counting)
        g, f = make_cycle(n), cycle_cover(n, p)
        for k in (0, 1, n // 2, n - p - 1, n - p, n - 1):
            read.clear()
            dropped = CliqueCover(n, f.sets[:k] + f.sets[k + 1:])
            verdict = verify_p_ecc(g, dropped, p)
            assert verdict == reference_verdict(g, dropped, p)
            assert verdict.pair[0] == (k if k + p < n else 0)
            assert len(read) == verdict.pair[0] + 1, k

    @settings(max_examples=300)
    @given(graph_cover_p())
    def test_matches_literal_definition(self, instance):
        g, f, p = instance
        assert verify_p_ecc(g, f, p).valid == literal_verify_p_ecc(g, f, p)

    @given(graph_cover_p(max_n=6, max_sets=6, max_p=3))
    def test_families_from_realizations_always_verify(self, instance):
        # the graph defined by "pairs sharing >= p sets" turns any family
        # into a valid p-cover of itself; widen the host when hypothesis
        # draws more sets than vertices so realization stays legal
        _, f, p = instance
        padded = CliqueCover(max(f.n, len(f.sets)), f.sets)
        g = p_competition_graph(realize(padded), p)
        assert verify_p_ecc(g, padded, p).valid


def _structured_instances(family, n):
    """A construction's certificate for n, plus two seeded mutants: one set
    dropped, and a nonedge appended as a pair set until it reaches p sets."""
    rng = random.Random(f"{family}-{n}")
    if family == "cycle":
        p = rng.randint(1, n - 3)
        g, f = make_cycle(n), cycle_cover(n, p)
    else:
        p = rng.randint(1, 5)
        g, f = complement(make_cycle(n)), lift_cover(complement_cycle_cover(n), p)
    nonedges = [pr for pr in combinations(range(n), 2) if not g.has_edge(*pr)]
    u, v = rng.choice(nonedges)
    k = rng.randrange(len(f.sets))
    dropped = CliqueCover(n, f.sets[:k] + f.sets[k + 1:])
    saturated = CliqueCover(
        n, [*f.sets, *[(u, v)] * (p - co_occurrences(f, u, v))])
    return g, p, (f, dropped, saturated)


class TestVerdictMatchesReference:
    """The bitmask verifier returns the Counter-based verifier's verdict,
    witness pair included."""

    @settings(max_examples=500)
    @given(graph_cover_p())
    def test_random_families(self, instance):
        g, f, p = instance
        assert verify_p_ecc(g, f, p) == reference_verdict(g, f, p)

    @pytest.mark.parametrize("family,n", [
        *(("cycle", n) for n in range(4, 61)),
        *(("co-cycle", n) for n in range(5, 61)),
    ])
    def test_constructions_and_mutants(self, family, n):
        g, p, families = _structured_instances(family, n)
        verdicts = [verify_p_ecc(g, f, p) for f in families]
        assert verdicts == [reference_verdict(g, f, p) for f in families]
        valid, _, saturated = verdicts
        assert valid.valid
        assert saturated.reason == REASON_NONEDGE_IN_P_SETS


@st.composite
def families_with_full_sets(draw, max_n=8, max_sets=6, max_p=4):
    """(g, f, p): a drawn family with 0..p + 1 copies of V inserted at drawn
    positions, on its own share graph (a valid cover) or that graph with one
    drawn pair toggled (an edge left uncovered, or a nonedge in p sets)."""
    n = draw(st.integers(1, max_n))
    p = draw(st.integers(1, max_p))
    sets = draw(st.lists(st.frozensets(st.integers(0, n - 1)), max_size=max_sets))
    for _ in range(draw(st.integers(0, p + 1))):
        sets.insert(draw(st.integers(0, len(sets))), frozenset(range(n)))
    f = CliqueCover(n, sets)
    edges = _share_graph(f, p).edges
    pairs = list(combinations(range(n), 2))
    if pairs and draw(st.booleans()):
        edges ^= {draw(st.sampled_from(pairs))}
    return Graph(n, edges), f, p


class TestFullSets:
    """With c >= p - 1 full sets, the partner kernel reads each vertex's
    partners off the OR of its sets outside p - 1 full ones; a smaller c
    keeps the pair count.  Verdicts match the Counter-based reference, witness
    included, and validity the literal definition."""

    @settings(max_examples=400)
    @given(families_with_full_sets())
    def test_matches_reference_and_literal(self, instance):
        g, f, p = instance
        verdict = verify_p_ecc(g, f, p)
        assert verdict == reference_verdict(g, f, p)
        assert verdict.valid == literal_verify_p_ecc(g, f, p)

    def test_drawn_families_meet_every_case(self):
        # c = p - 1 (the union path), c >= p, c = 0 at p = 1 and the empty
        # family are all drawn, valid and invalid
        seen = set()

        @settings(max_examples=400, database=None, derandomize=True)
        @given(families_with_full_sets())
        def record(instance):
            g, f, p = instance
            c = sum(len(s) == f.n for s in f.sets) if f.sets else None
            case = ("empty" if c is None else "c = 0, p = 1" if c == 0 and p == 1
                    else "c = p - 1" if c == p - 1 else "c >= p" if c >= p else "other")
            seen.add((case, verify_p_ecc(g, f, p).valid))

        record()
        cases = ("empty", "c = 0, p = 1", "c = p - 1", "c >= p", "other")
        assert {(case, valid) for case in cases for valid in (True, False)} <= seen

    def test_one_set_on_k2_at_p_1(self):
        # the set is full, so c = 1 >= p: every pair shares p sets, and
        # with nothing set aside at p = 1 each union is every vertex
        k2 = Graph(2, [(0, 1)])
        f = CliqueCover(2, [(0, 1)])
        assert verify_p_ecc(k2, f, 1) == reference_verdict(k2, f, 1) == (True, None, None)
        assert verify_p_ecc(k2, CliqueCover(2, [(0, 1), (0, 1)]), 2).valid
        assert verify_p_ecc(k2, CliqueCover(2, [(0, 1), (0,)]), 2) == (
            False, REASON_UNCOVERED_EDGE, (0, 1))

    def test_only_full_sets_below_p(self):
        # p - 1 full sets and nothing else: fewer than p sets, no edge covered
        g = make_cycle(5)
        f = CliqueCover(5, [range(5)] * 2)
        assert verify_p_ecc(g, f, 3) == reference_verdict(g, f, 3) == (
            False, REASON_FAMILY_SMALLER_THAN_P, (0, 1))

    @pytest.mark.parametrize("n", range(9, 32))
    def test_lifted_co_cycle_covers(self, n):
        # the valid lift, an original set dropped, a full set dropped (then
        # c = p - 2 and the pair count runs) and a cycle edge appended as a
        # set: a nonedge of co-C_n already in the p - 1 full sets
        g = complement(make_cycle(n))
        base = complement_cycle_cover(n)
        rng = random.Random(f"lifted-{n}")
        for p in range(2, 6):
            f = lift_cover(base, p)
            k = rng.randrange(len(base))
            u = rng.randrange(n)
            families = [f, CliqueCover(n, f.sets[:k] + f.sets[k + 1:]),
                        CliqueCover(n, f.sets[:-1]),
                        CliqueCover(n, (*f.sets, (u, (u + 1) % n)))]
            verdicts = [verify_p_ecc(g, h, p) for h in families]
            assert verdicts == [reference_verdict(g, h, p) for h in families]
            assert [v.reason for v in verdicts] == [
                None, REASON_UNCOVERED_EDGE, REASON_UNCOVERED_EDGE, REASON_NONEDGE_IN_P_SETS]


def _counted_family(rng, n, r, counts):
    """r sets over n vertices, vertex v in exactly counts[v] of them."""
    sets = [[] for _ in range(r)]
    for v, k in enumerate(counts):
        for j in rng.sample(range(r), k):
            sets[j].append(v)
    return CliqueCover(n, sets)


def _share_graph(f, p):
    """The graph of the pairs that f holds in at least p sets."""
    return Graph(f.n, [pr for pr in combinations(range(f.n), 2)
                       if co_occurrences(f, *pr) >= p])


def _count_rows(f, p):
    """How graphs._partners treats the vertices above each vertex that lies
    in k >= p sets, when f has fewer than p - 1 full sets: "narrowed" to
    those in its lowest k - p + 1 sets when more than k - p lie above it,
    else "direct"."""
    assert sum(len(s) == f.n for s in f.sets) < p - 1
    scans = set()
    for u in range(f.n):
        k = sum(1 for s in f.sets if u in s)
        if k >= p:
            scans.add("narrowed" if f.n - 1 - u > k - p else "direct")
    return scans


class TestPigeonholeFilter:
    """In count mode the partner kernel checks a vertex v above u only if
    v lies in one of u's lowest k - p + 1 sets (k: the sets holding u), or
    all of them when u has at most k - p above it.  Verdicts and witnesses
    match the Counter-based reference on families at the edge of the
    filter."""

    @pytest.mark.parametrize("seed", range(30))
    def test_vertices_in_p_minus_one_to_p_plus_one_sets(self, seed):
        rng = random.Random(f"filter-{seed}")
        n, p = rng.randint(20, 80), rng.randint(1, 4)
        # k - p is -1, 0 or 1 for every vertex, and some lie in no set
        counts = [rng.choice((0, p - 1, p, p, p + 1, p + 1)) for _ in range(n)]
        f = _counted_family(rng, n, rng.randint(p + 1, 3 * p + 6), counts)
        g = _share_graph(f, p)
        assert verify_p_ecc(g, f, p) == reference_verdict(g, f, p) == (True, None, None)
        edges, nonedges = sorted(g.edges), sorted(complement(g).edges)
        mutants = [Graph(n, rng.sample(edges, len(edges) - 1)) if edges else g,
                   Graph(n, [*edges, rng.choice(nonedges)]) if nonedges else g,
                   Graph(n, rng.sample(edges, len(edges) // 2))]
        for h in mutants:
            assert verify_p_ecc(h, f, p) == reference_verdict(h, f, p)

    @pytest.mark.parametrize("seed", range(20))
    def test_small_and_large_nonneighbour_targets(self, seed):
        rng = random.Random(f"targets-{seed}")
        n, p = rng.randint(12, 80), rng.randint(1, 3)
        counts = [rng.randint(p, p + 4) for _ in range(n)]
        f = _counted_family(rng, n, rng.randint(p + 4, 3 * p + 12), counts)
        u = rng.randrange(n - 1)
        # the rows up to n - 1 - (k - p) are narrowed, the last ones checked
        # directly.  Saturating {u, u + 1} puts a violation in both graphs:
        # co-C_n, which f leaves short on most edges, so the least pair
        # offends with either reason, and the share graph of the saturated
        # family with {u, u + 1} removed, where it is the only offence.
        saturated = CliqueCover(n, [*f.sets, *[(u, u + 1)] * p])
        dense = complement(make_cycle(n))
        sparse = Graph(n, _share_graph(saturated, p).edges - {(u, u + 1)})
        if p >= 2:
            assert _count_rows(f, p) == _count_rows(saturated, p) == {"direct", "narrowed"}
        for g in (dense, sparse):
            for h in (f, saturated):
                verdict = verify_p_ecc(g, h, p)
                assert verdict == reference_verdict(g, h, p)
        assert verdict == (False, REASON_NONEDGE_IN_P_SETS, (u, u + 1))

    def test_both_scans_met_within_one_graph(self):
        # the top rows lie in many sets with few vertices above, so are
        # checked directly; the lower half is narrowed, and holds the least
        # violation: an edge of the share graph taken out
        rng = random.Random("mixed")
        for n in (30, 55, 80):
            for p in (1, 2, 4):
                half, r = n // 2, 2 * p + 10
                sets = [[] for _ in range(r)]
                for v in range(n):
                    # the lower half picks p of p + 1 sets, so shares them often
                    picks = rng.sample(range(p + 1), p) if v <= half else rng.sample(range(r), p + 5)
                    for j in picks:
                        sets[j].append(v)
                f = CliqueCover(n, sets)
                edges = _share_graph(f, p).edges
                upper = {(u, v) for u, v in combinations(range(half + 1, n), 2) if v > u + 3}
                lower = sorted(e for e in edges if e[1] <= half)
                g = Graph(n, (edges | upper) - {rng.choice(lower)})
                if p >= 2:
                    assert _count_rows(f, p) == {"direct", "narrowed"}
                verdict = verify_p_ecc(g, f, p)
                assert verdict == reference_verdict(g, f, p)
                assert verdict.reason == REASON_NONEDGE_IN_P_SETS


class TestCycleCover:
    def test_5_2_sets(self):
        assert [sorted(s) for s in cycle_cover(5, 2).sets] == [
            [0, 1, 2], [1, 2, 3], [2, 3, 4], [0, 3, 4], [0, 1, 4]]

    def test_6_3_shape(self):
        f = cycle_cover(6, 3)
        assert len(f.sets) == 6
        assert all(len(s) == 4 for s in f.sets)
        assert sorted(f.sets[0]) == [0, 1, 2, 3]

    def test_infeasible_below_p_plus_3(self):
        with pytest.raises(InfeasibleError, match="n >= p\\+3"):
            cycle_cover(4, 2)
        with pytest.raises(InfeasibleError, match="n >= p\\+3"):
            cycle_cover(3, 1)

    @pytest.mark.parametrize("n", [-2, 0, 1, 2])
    def test_fewer_than_3_vertices_rejected(self, n):
        with pytest.raises(InvalidParameterError, match=rf"^need n >= 3, got n={n}$"):
            cycle_cover(n, 1)

    def test_set_order_is_the_literal_runs(self):
        # realize feeds set j to prey j, so the order is part of the output
        for n in range(4, 61):
            for p in range(1, n - 2):
                assert cycle_cover(n, p).sets == tuple(
                    frozenset((i + k) % n for k in range(p + 1)) for i in range(n))

    def test_each_set_is_sized_for_its_members(self):
        # a copy of a set is sized once for its members, where a frozenset
        # grown from a slice can take twice the table
        for n in range(4, 61):
            for p in range(1, n - 2):
                for s in cycle_cover(n, p).sets:
                    assert sys.getsizeof(s) == sys.getsizeof(frozenset(set(s))), (n, p, s)

    def test_sets_share_the_vertices_ints(self):
        # every member is one of n int objects, not a fresh int per set
        sets = cycle_cover(1000, 30).sets
        assert len({id(v) for s in sets for v in s}) == 1000

    def test_p_below_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            cycle_cover(5, 0)

    @pytest.mark.parametrize("n", range(4, 25))
    def test_valid_over_full_range(self, n):
        for p in range(1, n - 2):
            f = cycle_cover(n, p)
            assert verify_p_ecc(make_cycle(n), f, p).valid

    @given(st.integers(4, 24), st.data())
    def test_pair_count_is_window_overlap(self, n, data):
        # a window of p+1 consecutive vertices holds a pair at cyclic
        # distance d iff it covers one of the two arcs between them, of
        # lengths d and n-d; the wraparound term only appears for d >= n-p
        p = data.draw(st.integers(1, n - 3))
        f = cycle_cover(n, p)
        i = data.draw(st.integers(0, n - 2))
        j = data.draw(st.integers(i + 1, n - 1))
        d = min(j - i, n - (j - i))
        expected = max(0, p + 1 - d) + max(0, p + 1 - (n - d))
        assert co_occurrences(f, i, j) == expected
        if d >= 2:
            # within the feasible range the sum stays below p, which is
            # exactly what keeps nonadjacent pairs legal
            assert expected <= p - 1


class TestComplementCycleCover:
    def test_n7_family_as_given(self):
        f = complement_cycle_cover(7)
        assert [sorted(s) for s in f.sets] == [
            [0, 2, 5], [1, 3, 6], [0, 2, 4], [1, 3, 5], [2, 4, 6], [0, 3], [1, 4]]

    def test_n9_family(self):
        f = complement_cycle_cover(9)
        assert [sorted(s) for s in f.sets] == [
            [0, 2, 4, 6], [0, 3, 5, 7], [1, 3, 5, 7],
            [1, 4, 6, 8], [3, 6, 8], [2, 5, 8], [2, 4, 7]]

    def test_n10_family(self):
        f = complement_cycle_cover(10)
        assert [sorted(s) for s in f.sets] == [
            [0, 2, 4, 6, 8], [0, 3, 5, 7], [2, 5, 7, 9],
            [1, 4, 7, 9], [1, 3, 6, 9], [1, 3, 5, 8]]

    def test_small_n_rejected(self):
        with pytest.raises(InvalidParameterError):
            complement_cycle_cover(4)

    @pytest.mark.parametrize("n", range(5, 27))
    def test_sizes_validity_and_independence(self, n):
        f = complement_cycle_cover(n)
        expected = {5: 5, 6: 5, 7: 7, 8: 6}.get(
            n, (n + 5) // 2 if n % 2 else n // 2 + 1)
        assert len(f.sets) == expected
        assert verify_ecc(complement(make_cycle(n)), f).valid
        cyc = make_cycle(n)
        for s in f.sets:
            assert all(not cyc.has_edge(u, v) for u, v in combinations(sorted(s), 2))


class TestLiftCover:
    def test_p1_identity(self):
        f = complement_cycle_cover(6)
        assert lift_cover(f, 1) is f

    def test_size_arithmetic(self):
        f = complement_cycle_cover(6)
        assert len(lift_cover(f, 4).sets) == len(f.sets) + 3
        assert len(lift_cover(f, 2).sets) == 6

    def test_appends_full_vertex_sets(self):
        lifted = lift_cover(complement_cycle_cover(10), 3)
        assert lifted.sets[-2:] == (frozenset(range(10)),) * 2
        # one shared set, so p - 1 copies cost one set's memory
        assert lifted.sets[-1] is lifted.sets[-2]

    def test_lifted_cover_verifies(self):
        g = complement(make_cycle(10))
        lifted = lift_cover(complement_cycle_cover(10), 5)
        assert len(lifted.sets) == 10
        assert verify_p_ecc(g, lifted, 5).valid

    @given(st.integers(5, 16), st.integers(1, 5))
    def test_lift_of_valid_ecc_is_valid_p_cover(self, n, p):
        g = complement(make_cycle(n))
        f = complement_cycle_cover(n)
        lifted = lift_cover(f, p)
        assert len(lifted.sets) == len(f.sets) + p - 1
        assert verify_p_ecc(g, lifted, p).valid


@pytest.mark.parametrize("n", range(5, 41))
def test_constructions_pass_the_public_checks(n):
    # the constructions skip CliqueCover's range check; the public
    # constructor re-checks every member and freezes every set
    built = [complement_cycle_cover(n), lift_cover(complement_cycle_cover(n), 3),
             *(cycle_cover(n, p) for p in range(1, n - 2))]
    for f in built:
        assert CliqueCover(f.n, f.sets) == f
        assert hash(CliqueCover(f.n, f.sets)) == hash(f)
        assert all(type(s) is frozenset for s in f.sets)


def odd_complement_family(n):
    """The literal co-C_n family for odd n >= 9: three seed sets, then one
    set per odd index i, each pairwise at cyclic distance >= 2."""
    sets = [
        list(range(0, n - 2, 2)),            # evens 0..n-3
        [0, *range(3, n - 1, 2)],            # 0 plus odds 3..n-2
        list(range(1, n - 1, 2)),            # odds 1..n-2
    ]
    for i in range(1, n - 1, 2):
        t = [i, *range(2, i - 2, 2), *range(i + 3, n - 2, 2)]
        # v_{n-1} neighbors v_{n-2} on the cycle, so the last set omits it.
        if i != n - 2:
            t.append(n - 1)
        sets.append(t)
    return sets


def even_complement_family(n):
    """The literal co-C_n family for even n >= 10."""
    sets = [
        list(range(0, n - 1, 2)),            # all even vertices
        [0, *range(3, n - 2, 2)],            # 0 plus odds 3..n-3 (0 and n-1 are cycle-adjacent)
    ]
    for i in range(2, n - 1, 2):
        sets.append([i, *range(1, i - 2, 2), *range(i + 3, n, 2)])
    return sets


def literal_incidence(f):
    """f's (rows, members), read off its sets one membership at a time."""
    rows = tuple(sum(1 << j for j, s in enumerate(f.sets) if v in s) for v in range(f.n))
    members = tuple(sum(1 << v for v in s) for s in f.sets)
    return rows, members


def realized(f):
    """realize(f), or its refusal's message."""
    try:
        return realize(f)
    except InfeasibleError as exc:
        return str(exc)


# (name, view read, read(f, g, p, public)): public is f's literal family as
# a checked cover, g the graph f covers at p; a reader of the sets or the
# masks returns whether it read them right, a copier returns the copy
READERS = [
    ("==", "sets", lambda f, g, p, c: f == c and c == f),
    ("hash", "sets", lambda f, g, p, c: hash(f) == hash(c) and {c: 1}.get(f) == 1),
    ("repr", "sets", lambda f, g, p, c: repr(f) == repr(c)),
    ("iter", "sets", lambda f, g, p, c: list(f) == list(c)),
    ("slice", "sets", lambda f, g, p, c: CliqueCover(f.n, f.sets[1:])
     == CliqueCover(c.n, c.sets[1:])),
    ("len(sets)", "sets", lambda f, g, p, c: len(f.sets) == len(c.sets)),
    ("json", "sets", lambda f, g, p, c: cover_to_json_dict(f) == cover_to_json_dict(c)),
    ("len", "masks", lambda f, g, p, c: len(f) == len(c)),
    ("realize", "masks", lambda f, g, p, c: realized(f) == realized(c)),
    ("verify, realize, compete", "masks", lambda f, g, p, c: verify_p_ecc(g, f, p).valid
     and (len(c) > f.n or p_competition_graph(realize(f), p) == g)),
    *((f"pickle {proto}", "copy", lambda f, g, p, c, proto=proto:
       pickle.loads(pickle.dumps(f, proto))) for proto in range(pickle.HIGHEST_PROTOCOL + 1)),
    ("copy", "copy", lambda f, g, p, c: copy.copy(f)),
    ("deepcopy", "copy", lambda f, g, p, c: copy.deepcopy(f)),
]
CONSTRUCTION_KINDS = ["cycle", "co-cycle", "lift", "public lift", "public"]


def constructions(kind):
    """(label, make, g, p, literal sets, (sets deferred, masks deferred)) of
    one kind: cycle_cover at n = 3..60 and p = 1, 2, n // 2, n - 4, n - 3
    (test_deferred_sets_equal_the_literal runs every p); complement_cycle_cover
    at n = 5..200; its lifts, and the lifts of its public copy, at n = 5..40,
    101, 200, 301 and q = 1..5; and public covers, one with an empty set."""
    def co_cycle(n):
        if n <= 8:  # stored data
            return covers_module._SMALL_COMPLEMENT_FAMILIES[n]
        return (odd_complement_family if n % 2 else even_complement_family)(n)

    if kind == "cycle":
        for n in range(3, 61):
            for p in sorted({1, 2, n // 2, n - 4, n - 3} & set(range(1, n - 2))):
                yield (f"C{n} p{p}", lambda n=n, p=p: cycle_cover(n, p), make_cycle(n), p,
                       [[(i + k) % n for k in range(p + 1)] for i in range(n)], (True, False))
    elif kind == "co-cycle":
        for n in range(5, 201):
            yield (f"co-C{n}", lambda n=n: complement_cycle_cover(n), complement(make_cycle(n)),
                   1, co_cycle(n), (n >= 9, True))
    elif kind in ("lift", "public lift"):
        for n in (*range(5, 41), 101, 200, 301):
            base = co_cycle(n)
            g = complement(make_cycle(n))
            for q in range(1, 6):
                if kind == "lift":
                    make = lambda n=n, q=q: lift_cover(complement_cycle_cover(n), q)
                    deferred = (n >= 9 or q > 1, True)
                else:
                    make = lambda n=n, q=q, base=base: lift_cover(CliqueCover(n, base), q)
                    deferred = (q > 1, True)
                yield f"{kind} co-C{n} q{q}", make, g, q, [*base, *[range(n)] * (q - 1)], deferred
    else:
        sets = [(0, 1), (), (2, 3, 4)]
        g = Graph(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
        yield "public 5", lambda: CliqueCover(5, sets), g, 1, sets, (False, True)
        for n in (5, 9, 10, 101):
            yield (f"public co-C{n}", lambda n=n: CliqueCover(n, co_cycle(n)),
                   complement(make_cycle(n)), 1, co_cycle(n), (False, True))


def cells_cover(n, r, count, seed):
    """r sets over n vertices holding ``count`` seeded (set, vertex) cells."""
    sets = [set() for _ in range(r)]
    for cell in random.Random(seed).sample(range(n * r), count):
        sets[cell // n].add(cell % n)
    return CliqueCover(n, sets)


def grid_built(monkeypatch, f):
    """f's incidence, and whether it was built through the byte grid."""
    calls = []

    def counting(*args):
        calls.append(args)
        return bytearray(*args)

    monkeypatch.setattr(covers_module, "bytearray", counting, raising=False)
    inc = f._incidence()
    monkeypatch.undo()
    return inc, bool(calls)


@pytest.fixture(scope="module")
def literal_incidences():
    """label -> literal_incidence of its family, computed once per module."""
    return {}


class TestIncidence:
    def test_rows_and_members_are_the_memberships(self):
        rows, members = CliqueCover(4, [(0, 2), (), (2, 3), (0, 2)])._incidence()
        assert rows == (0b1001, 0b0000, 0b1101, 0b0100)
        assert members == (0b0101, 0b0000, 0b1100, 0b0101)

    def test_built_once_and_kept(self):
        f = CliqueCover(6, [(0, 1), (1, 2, 3)])
        first = f._incidence()
        assert f._incidence() is first

    @pytest.mark.parametrize("kind", CONSTRUCTION_KINDS)
    @pytest.mark.parametrize("name,view,read", READERS, ids=[r[0] for r in READERS])
    def test_each_reader_builds_only_its_view(self, name, view, read, kind, literal_incidences):
        # the one rule: _sets and _inc each hold the value or a builder run
        # on first read; a reader of one view leaves the other as it was
        for label, make, g, p, lit, deferred in constructions(kind):
            public = CliqueCover(g.n, lit)  # the literal family, checked
            if label not in literal_incidences:
                literal_incidences[label] = literal_incidence(public)
            where = f"{label}, read by {name}"

            def holds_the_literal(c):
                assert c.sets == public.sets and c.sets is c.sets, where  # kept
                assert c._incidence() == literal_incidences[label], where
                assert c._incidence() is c._incidence(), where
                if kind.endswith("lift") and p >= 3:  # p is the lift's q
                    assert c.sets[-1] is c.sets[-2], where  # one full set shared

            f = make()
            assert (callable(f._sets), callable(f._inc)) == deferred, where
            out = read(f, g, p, public)
            if view == "sets":
                assert out and callable(f._inc) == deferred[1], where
            elif view == "masks":
                assert out and callable(f._sets) == deferred[0], where
            else:  # a copy carries the sets as a value, and the masks as
                # a value once built, else as the default builder
                assert not callable(out._sets), where
                assert callable(out._inc) == callable(f._inc) == deferred[1], where
                if deferred[1]:
                    assert out._inc is covers_module._incidence_of, where
                assert out == f and hash(out) == hash(f), where
                holds_the_literal(out)
            holds_the_literal(f)

    @pytest.mark.parametrize("copier", [
        copy.copy, copy.deepcopy,
        *(lambda f, proto=proto: pickle.loads(pickle.dumps(f, proto))
          for proto in range(pickle.HIGHEST_PROTOCOL + 1))])
    def test_a_copy_builds_no_masks(self, copier):
        # the copy carries the default builder by name, so neither cover
        # has built its masks until one is read
        f = CliqueCover(1000, cycle_cover(1000, 30).sets)
        out = copier(f)
        assert f._inc is out._inc is covers_module._incidence_of
        assert out.sets == f.sets
        assert out._incidence() == f._incidence() == literal_incidence(f)
        # a built incidence is carried as a value
        again = copier(f)
        assert again._incidence() == f._incidence() and not callable(again._inc)

    def test_deferred_sets_equal_the_literal(self):
        for n in range(3, 61):
            full = frozenset(range(n))
            for p in range(1, n - 2):
                runs = tuple(frozenset((i + k) % n for k in range(p + 1)) for i in range(n))
                f = cycle_cover(n, p)
                assert callable(f._sets)  # holds the masks only
                assert f._incidence() == literal_incidence(CliqueCover(n, runs)), (n, p)
                assert f.sets == runs, (n, p)
                assert f.sets is f.sets  # built once and kept
                for q in range(1, 5):  # a lift reads the deferred sets
                    assert lift_cover(cycle_cover(n, p), q).sets == runs + (full,) * (q - 1)

    def test_mask_readers_build_no_sets(self):
        g = make_cycle(30)
        f = cycle_cover(30, 4)
        assert len(f) == 30
        assert verify_p_ecc(g, f, 4).valid
        assert verify_p_ecc(g, f, 31).reason == REASON_FAMILY_SMALLER_THAN_P
        assert p_competition_graph(realize(f), 4) == g
        d = is_p_competition(g, 4, method="construct")
        assert d.cover_size == 30
        assert all(callable(c._sets) for c in (f, d.certificate))
        for n, p in ((9, 2), (10, 5), (101, 3), (200, 5), (301, 2)):
            g = complement(make_cycle(n))
            f = lift_cover(complement_cycle_cover(n), p)
            assert len(f) == n // 2 + 1 + n % 2 * 2 + p - 1
            assert verify_p_ecc(g, f, p).valid
            assert p_competition_graph(realize(f), p) == g
            d = is_p_competition(g, p, method="construct")
            assert d.cover_size == len(f)
            assert all(callable(c._sets) for c in (f, d.certificate))

    @given(covers(max_n=9, max_sets=8), st.integers(4, 12), st.data())
    def test_filled_incidence_keeps_equality_and_hash(self, filled, n, data):
        filled._incidence()
        fresh = CliqueCover(filled.n, filled.sets)
        assert filled == fresh and fresh == filled
        assert hash(filled) == hash(fresh)
        assert {fresh: "key"}[filled] == "key"
        assert repr(filled) == repr(fresh)
        # each read below is the first of a construction's sets
        p = data.draw(st.integers(1, n - 3))
        fresh = CliqueCover(n, cycle_cover(n, p).sets)
        for read in (lambda f: f == fresh, lambda f: fresh == f,
                     lambda f: hash(f) == hash(fresh), lambda f: {fresh: "key"}.get(f) == "key",
                     lambda f: repr(f) == repr(fresh), lambda f: list(f) == list(fresh)):
            deferred = cycle_cover(n, p)
            assert callable(deferred._sets)
            assert read(deferred)

    def test_threads_racing_to_fill_it_agree(self):
        f = CliqueCover(300, [range(j, 300, 1 + j % 7) for j in range(300)])
        g = p_competition_graph(realize(CliqueCover(f.n, f.sets)), 3)
        deferred = cycle_cover(1000, 30)  # threads race to build its sets
        lifted = lift_cover(complement_cycle_cover(301), 2)  # and the lift's
        # a lift's masks, deferred twice: its builder runs the base's builder
        masked = lift_cover(complement_cycle_cover(301), 2)
        results = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: results.append(
                (deferred.sets, lifted.sets, masked._incidence(), verify_p_ecc(g, f, 3),
                 realize(f))))
                for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 6 and len(set(results)) == 1
        assert results[0][3].valid
        assert f._incidence() == literal_incidence(f)
        assert deferred == CliqueCover(1000, [[(i + k) % 1000 for k in range(31)]
                                              for i in range(1000)])
        literal = CliqueCover(301, [*odd_complement_family(301), range(301)])
        assert lifted == literal
        assert masked._incidence() == results[0][2] == literal_incidence(literal)
        assert callable(masked._sets)  # only the masks were read


class TestIncidencePaths:
    # the grid is taken iff 16 * incidences > n * r + 8192; at n = r = 64
    # that is above 768 incidences
    @pytest.mark.parametrize("count,grid", [(767, False), (768, False), (769, True)])
    def test_at_the_rule(self, monkeypatch, count, grid):
        for seed in range(5):
            f = cells_cover(64, 64, count, f"rule:{count}:{seed}")
            assert grid_built(monkeypatch, f) == (literal_incidence(f), grid)

    @pytest.mark.parametrize("n,r", [(300, 300), (120, 80), (40, 400)])
    @pytest.mark.parametrize("density", [0.0, 0.01, 0.05, 0.1, 0.3, 0.7, 1.0])
    def test_densities_on_both_sides(self, monkeypatch, n, r, density):
        count = round(density * n * r)
        f = cells_cover(n, r, count, f"density:{n}:{r}:{density}")
        inc, grid = grid_built(monkeypatch, f)
        assert inc == literal_incidence(f)
        assert grid == (16 * count > n * r + 8192)

    def test_empty_and_repeated_sets(self, monkeypatch):
        rng = random.Random(35)
        some = [frozenset(v for v in range(200) if rng.random() < 0.6) for _ in range(60)]
        sets = [*some, (), *some[:20], range(200), (), range(200), *some[::-1]]
        f = CliqueCover(200, sets)
        assert grid_built(monkeypatch, f) == (literal_incidence(f), True)
        sparse = CliqueCover(200, [(), (3,), (), (3,), (7, 9)] * 10)
        assert grid_built(monkeypatch, sparse) == (literal_incidence(sparse), False)

    @pytest.mark.parametrize("n,sets,grid", [
        (5, [], False),                                  # r = 0
        (10, [range(0, 10, 2), range(10)] * 50, True),    # r > n
        (10, [(1,), (2, 3), ()] * 200, False),           # r > n, sparse
        (1, [(0,)] * 600, True),                         # n = 1
        (1, [(0,), ()] * 3, False),
    ], ids=["r0", "r>n grid", "r>n loop", "n1 grid", "n1 loop"])
    def test_edge_shapes(self, monkeypatch, n, sets, grid):
        f = CliqueCover(n, sets)
        assert grid_built(monkeypatch, f) == (literal_incidence(f), grid)

    def test_construction_outputs_take_either_path(self, monkeypatch):
        # lifted co-cycle families are dense, cycle covers with small p sparse;
        # the constructions hold their masks, so public copies build them
        dense = CliqueCover(101, lift_cover(complement_cycle_cover(101), 3).sets)
        sparse = CliqueCover(1000, cycle_cover(1000, 5).sets)
        assert grid_built(monkeypatch, dense) == (literal_incidence(dense), True)
        assert grid_built(monkeypatch, sparse) == (literal_incidence(sparse), False)


class TestConstructorRange:
    N = 300

    def family(self):
        return [range(j % 5, self.N, 1 + j % 3) for j in range(self.N)]

    @pytest.mark.parametrize("k", [0, 150, 299], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [-1, 300], ids=["-1", "n"])
    def test_names_the_set_and_member(self, k, bad):
        sets = self.family()
        sets[k] = [*sets[k], bad]
        with pytest.raises(InvalidParameterError) as caught:
            CliqueCover(self.N, sets)
        assert str(caught.value) == f"set {k}: vertex {bad} out of range for n=300"

    @pytest.mark.parametrize("k", [0, 150, 299], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [0.5, float("nan"), "7", None],
                             ids=["float", "nan", "str", "none"])
    def test_names_a_member_that_is_not_an_int(self, k, bad):
        sets = self.family()
        sets[k] = [*sets[k], bad]
        with pytest.raises(InvalidParameterError) as caught:
            CliqueCover(self.N, sets)
        assert str(caught.value) == f"set {k}: vertex {bad!r} is not an integer"

    @pytest.mark.parametrize("bad", [1.0, True], ids=["float", "bool"])
    def test_refuses_a_member_equal_to_an_int(self, bad):
        # 1.0 would fail later with a bare TypeError, True would read as 1
        with pytest.raises(InvalidParameterError) as caught:
            CliqueCover(3, [(bad, 2)])
        assert str(caught.value) == f"set 0: vertex {bad!r} is not an integer"

    def test_names_the_first_failing_set(self):
        sets = self.family()
        sets[299] = [*sets[299], -1]
        sets[150] = [*sets[150], 300]
        with pytest.raises(InvalidParameterError) as caught:
            CliqueCover(self.N, sets)
        assert str(caught.value) == "set 150: vertex 300 out of range for n=300"


class TestCoverSerialization:
    def test_roundtrip_preserves_order_and_repetition(self):
        f = CliqueCover(5, [(1, 3), (0,), (1, 3), ()])
        data = json.loads(json.dumps(cover_to_json_dict(f)))
        assert cover_from_json_dict(data) == f
        assert data["sets"] == [[1, 3], [0], [1, 3], []]

    def test_rejects_out_of_range_member(self):
        with pytest.raises(InvalidParameterError):
            cover_from_json_dict({"n": 3, "sets": [[0, 3]]})


@pytest.mark.parametrize("call,name,value", [
    (lambda: cycle_cover(8, 2.0), "p", "2.0"),
    (lambda: cycle_cover(8, True), "p", "True"),
    (lambda: lift_cover(complement_cycle_cover(6), 2.0), "p", "2.0"),
    (lambda: verify_p_ecc(make_cycle(6), cycle_cover(6, 2), 2.0), "p", "2.0"),
    (lambda: p_competition_graph(realize(cycle_cover(8, 2)), 1.5), "p", "1.5"),
    (lambda: exact_theta_e_p(make_cycle(6), 2.0), "p", "2.0"),
    (lambda: exact_theta_e_p(make_cycle(6), 2, budget=6.0), "budget", "6.0"),
    (lambda: exact_theta_e(make_cycle(6), upper="6"), "upper", "'6'"),
    (lambda: maximal_cliques(make_cycle(6), guard=True), "guard", "True"),
    (lambda: is_p_competition(make_cycle(6), 2, guard=8.5), "guard", "8.5"),
], ids=["cycle_cover float p", "cycle_cover bool p", "lift_cover", "verify_p_ecc",
        "p_competition_graph", "exact_theta_e_p p", "budget", "upper",
        "maximal_cliques guard", "is_p_competition guard"])
def test_non_int_parameters_rejected(call, name, value):
    # the floor check refuses what is not an int, a bool included (True
    # would read as 1), before any use could fail with a bare TypeError
    with pytest.raises(InvalidParameterError) as caught:
        call()
    assert str(caught.value) == f"need {name} to be an int, got {name}={value}"
