import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hypothesis import strategies as st

from pcomp import (
    REASON_FAMILY_SMALLER_THAN_P,
    REASON_NONEDGE_IN_P_SETS,
    REASON_UNCOVERED_EDGE,
    CliqueCover,
    Digraph,
    Graph,
    Verdict,
)


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, edges)


@st.composite
def digraphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(x, v) for x in range(n) for v in range(n)]
    arcs = draw(st.sets(st.sampled_from(pairs)))
    return Digraph(n, arcs)


@st.composite
def covers(draw, n=None, max_n=8, max_sets=12):
    if n is None:
        n = draw(st.integers(1, max_n))
    sets = draw(
        st.lists(st.frozensets(st.integers(0, n - 1)), max_size=max_sets))
    return CliqueCover(n, sets)


@st.composite
def graph_cover_p(draw, max_n=8, max_sets=12, max_p=4):
    g = draw(graphs(max_n=max_n))
    f = draw(covers(n=g.n, max_sets=max_sets))
    p = draw(st.integers(1, max_p))
    return g, f, p


def literal_verify_p_ecc(g: Graph, f: CliqueCover, p: int) -> bool:
    """The p-cover conditions straight from the definition: enumerate every
    p-subset of the family, require each intersection to be a clique, and
    require the intersections to cover all edges.  Independent of the
    pair-counting implementation under test."""
    intersections = []
    for picked in combinations(range(len(f.sets)), p):
        inter = frozenset.intersection(*(f.sets[j] for j in picked))
        for u, v in combinations(sorted(inter), 2):
            if (u, v) not in g.edges:
                return False
        intersections.append(inter)
    for u, v in g.edges:
        if not any(u in s and v in s for s in intersections):
            return False
    return True


def reference_verdict(g: Graph, f: CliqueCover, p: int) -> Verdict:
    """verify_p_ecc as it was before the bitmask kernel: count every pair
    incidence of every set in a Counter, then report the least saturated
    nonedge, else the least edge below p.  Kept as the reference the
    bitmask verifier must match verdict for verdict."""
    edges = sorted(g.edges)
    if len(f.sets) < p and edges:
        return Verdict(False, REASON_FAMILY_SMALLER_THAN_P, edges[0])
    counts = Counter()
    for s in f.sets:
        for pair in combinations(sorted(s), 2):
            counts[pair] += 1
    saturated_nonedges = sorted(
        pair for pair, c in counts.items() if c >= p and not g.has_edge(*pair))
    if saturated_nonedges:
        return Verdict(False, REASON_NONEDGE_IN_P_SETS, saturated_nonedges[0])
    for e in edges:
        if counts.get(e, 0) < p:
            return Verdict(False, REASON_UNCOVERED_EDGE, e)
    return Verdict(True)


def random_instance(rng, max_n=7, max_sets=10, max_p=3):
    """One random (graph, cover, p) triple from a seeded RNG."""
    n = rng.randint(1, max_n)
    pairs = list(combinations(range(n), 2))
    g = Graph(n, [pr for pr in pairs if rng.random() < 0.5])
    sets = []
    for _ in range(rng.randint(0, max_sets)):
        sets.append([v for v in range(n) if rng.random() < 0.45])
    return g, CliqueCover(n, sets), rng.randint(1, max_p)
