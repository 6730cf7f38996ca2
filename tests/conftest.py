import io
import os
from collections import Counter
from contextlib import chdir, redirect_stderr, redirect_stdout
from itertools import chain, combinations
from pathlib import Path
from typing import NamedTuple

from hypothesis import strategies as st

from pcomp import (
    REASON_FAMILY_SMALLER_THAN_P,
    REASON_NONEDGE_IN_P_SETS,
    REASON_UNCOVERED_EDGE,
    CliqueCover,
    Digraph,
    Graph,
    InvalidParameterError,
    PcompError,
    ScaleError,
    SearchResult,
    Verdict,
    maximal_cliques,
)
from pcomp.cli import main
from pcomp.graphs import _edge_pairs, iter_bits
from pcomp.oracle import _certify, _clique_masks, _closed_edges, _deepen

SRC = Path(__file__).resolve().parents[1] / "src"


class Run(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_main(argv, cwd=None) -> Run:
    """Exit code, stdout and stderr of cli.main on argv (each item passed as
    str), run in-process from cwd, the current directory when None."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with chdir(cwd or os.curdir), redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return Run(code, stdout.getvalue(), stderr.getvalue())


def child_env(**variables: str) -> dict[str, str]:
    """The environment of a child interpreter that imports pcomp from src/,
    with variables set on top: for the few checks whose subject is the
    interpreter itself (-O, PYTHONHASHSEED, a fresh sys.modules)."""
    path = str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")
    return {**os.environ, "PYTHONPATH": path, **variables}


@st.composite
def edge_sets(draw, min_n=1, max_n=8):
    """A vertex count and a set of pairs (u, v) with u < v."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return n, edges


@st.composite
def graphs(draw, min_n=1, max_n=8):
    return Graph(*draw(edge_sets(min_n, max_n)))


@st.composite
def arc_sets(draw, min_n=1, max_n=8):
    """A vertex count and a set of arcs (x, v), loops included."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(x, v) for x in range(n) for v in range(n)]
    arcs = draw(st.sets(st.sampled_from(pairs)))
    return n, arcs


@st.composite
def digraphs(draw, min_n=1, max_n=8):
    return Digraph(*draw(arc_sets(min_n, max_n)))


def literal_predators(n, arcs):
    """The predator sets {x : (x, v) in arcs}, for v = 0..n-1."""
    return [{x for x, w in arcs if w == v} for v in range(n)]


def predator_sets(d: Digraph):
    """d's in-masks read back as vertex sets."""
    return [set(iter_bits(m)) for m in d._in]


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


def reference_theta_e(g: Graph, upper: int | None = None, guard: int = 16) -> SearchResult:
    """exact_theta_e as it was before the single cover search: a greedy
    bound, branch and bound over maximal cliques, then a second pass for
    the lexicographically least optimal cover.  Kept as the reference the
    cover search must match in value, certificate and bound.

    Exact minimum edge clique cover size, with an optimal cover.

    Set cover over the edges using maximal cliques as candidate sets.  With
    ``upper`` given, returns exceeds-bound instead when the minimum is
    larger.  Edgeless graphs need zero cliques.
    """
    if g.n > guard:
        raise ScaleError(
            f"exact cover search requires n <= {guard} (got {g.n}); raise guard to override")
    edges = sorted(g.edges)
    if not edges:
        return SearchResult(value=0, certificate=CliqueCover(g.n, ()), nodes=0)

    cliques = [c for c in maximal_cliques(g) if len(c) >= 2]
    edge_index = {e: i for i, e in enumerate(edges)}
    masks = []
    for c in cliques:
        mask = 0
        for pair in combinations(sorted(c), 2):
            mask |= 1 << edge_index[pair]
        masks.append(mask)
    m = len(edges)
    full = (1 << m) - 1
    covering = [[i for i, cm in enumerate(masks) if cm >> e & 1] for e in range(m)]
    max_cover = max(cm.bit_count() for cm in masks)
    nodes = 0

    # greedy cover for the initial upper bound
    best = 0
    uncovered = full
    while uncovered:
        gain, pick = 0, -1
        for i, cm in enumerate(masks):
            got = (cm & uncovered).bit_count()
            if got > gain:
                gain, pick = got, i
        uncovered &= ~masks[pick]
        best += 1

    def descend(uncovered: int, depth: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if not uncovered:
            if depth < best:
                best = depth
            return
        remaining = uncovered.bit_count()
        if depth + (remaining + max_cover - 1) // max_cover >= best:
            return
        # branch on the uncovered edge with the fewest covering cliques
        branch_edge, fewest = -1, None
        for e in iter_bits(uncovered):
            k = len(covering[e])
            if fewest is None or k < fewest:
                branch_edge, fewest = e, k
        for i in covering[branch_edge]:
            descend(uncovered & ~masks[i], depth + 1)

    descend(full, 0)
    if upper is not None and best > upper:
        return SearchResult(value=None, certificate=None, nodes=nodes, bound=upper)

    # lexicographically least optimal cover, ascending over candidate indices
    suffix_union = [0] * (len(masks) + 1)
    for i in range(len(masks) - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | masks[i]
    chosen: list[int] = []

    def lex(start: int, uncovered: int, left: int) -> bool:
        nonlocal nodes
        nodes += 1
        if not uncovered:
            return True
        if left == 0 or uncovered & ~suffix_union[start]:
            return False
        if (uncovered.bit_count() + max_cover - 1) // max_cover > left:
            return False
        for i in range(start, len(masks)):
            if not masks[i] & uncovered:
                continue
            chosen.append(i)
            if lex(i + 1, uncovered & ~masks[i], left - 1):
                return True
            chosen.pop()
        return False

    if not lex(0, full, best):
        raise PcompError(
            f"optimum {best} found but no certificate reconstructed (n={g.n}, p=1)")
    certificate = CliqueCover(g.n, tuple(cliques[i] for i in chosen))
    _certify(g, certificate, 1)
    return SearchResult(value=best, certificate=certificate, nodes=nodes)


def reference_theta_e_p(g: Graph, p: int, budget: int, guard: int = 8) -> SearchResult:
    """exact_theta_e_p as it was before the single cover search, with a
    per-pair count list updated one pair at a time.  Kept as the reference
    the cover search must match in value, certificate and bound.

    Smallest r <= budget admitting a p-edge clique cover of r sets.

    Iterative deepening over the family size; at each size a depth-first
    search runs over nondecreasing sequences of subsets in canonical
    (sorted-tuple) order.  Subsets with fewer than two members touch no
    pair and can be dropped from any valid family, so they are excluded
    from the search alphabet.  Pruning is by pair counts only and is
    exhaustive: a nonadjacent pair may never reach p common sets, every
    deficient edge needs one future set per missing count, and the total
    deficit cannot exceed the remaining slots times the best remaining
    per-set edge gain.
    """
    if p < 1:
        raise InvalidParameterError(f"need p >= 1, got p={p}")
    if budget < 0:
        raise InvalidParameterError(f"need budget >= 0, got budget={budget}")
    if g.n > guard:
        raise ScaleError(
            f"p-cover search requires n <= {guard} (got {g.n}); raise guard to override")
    if not g.edges:
        return SearchResult(value=0, certificate=CliqueCover(g.n, ()), nodes=0)

    n = g.n
    pairs = list(combinations(range(n), 2))
    pair_id = {pr: k for k, pr in enumerate(pairs)}
    edge_flag = [pr in g.edges for pr in pairs]
    edge_ids = [pair_id[e] for e in sorted(g.edges)]

    alphabet = sorted(
        chain.from_iterable(combinations(range(n), k) for k in range(2, n + 1)))
    member_pairs = [[pair_id[pr] for pr in combinations(s, 2)] for s in alphabet]
    edge_gain = [sum(1 for k in mp if edge_flag[k]) for mp in member_pairs]

    last_cover = {eid: -1 for eid in edge_ids}
    for i, mp in enumerate(member_pairs):
        for k in mp:
            if edge_flag[k]:
                last_cover[k] = i

    size = len(alphabet)
    suffix_best_gain = [0] * (size + 1)
    for i in range(size - 1, -1, -1):
        suffix_best_gain[i] = max(suffix_best_gain[i + 1], edge_gain[i])

    counts = [0] * len(pairs)
    chosen: list[int] = []
    nodes = 0
    cap = p - 1  # co-occurrence ceiling for nonadjacent pairs

    def search(slots: int, lo: int) -> bool:
        nonlocal nodes
        nodes += 1
        deficit_total = 0
        for eid in edge_ids:
            d = p - counts[eid]
            if d > 0:
                if d > slots or last_cover[eid] < lo:
                    return False
                deficit_total += d
        if slots == 0:
            return True
        if deficit_total > slots * suffix_best_gain[lo]:
            return False
        for i in range(lo, size):
            mp = member_pairs[i]
            blocked = False
            for k in mp:
                if counts[k] >= cap and not edge_flag[k]:
                    blocked = True
                    break
            if blocked:
                continue
            for k in mp:
                counts[k] += 1
            chosen.append(i)
            if search(slots - 1, i):
                return True
            chosen.pop()
            for k in mp:
                counts[k] -= 1
        return False

    for r in range(p, budget + 1):
        chosen.clear()
        if search(r, 0):
            certificate = CliqueCover(
                n, tuple(frozenset(alphabet[i]) for i in chosen))
            _certify(g, certificate, p)
            return SearchResult(value=r, certificate=certificate, nodes=nodes)
    return SearchResult(value=None, certificate=None, nodes=nodes, bound=budget)


def hole_row_cover(g: Graph, p: int, r: int) -> CliqueCover | None:
    """A p-edge clique cover of g with r sets, or None when none exists: a
    second search that shares no code with the library's row search.

    It places, vertex by vertex, the hole row of each vertex: the sets that
    miss it.  Two vertices share r - |h_u | h_v| sets, so an edge needs
    |h_u | h_v| <= r - p and a nonedge more.  A vertex without edges lies in
    no set and meets every other in none, so only the others are placed,
    each among the holes of at most r - p sets; domains are lists of holes,
    narrowed by each hole placed.  Permuting the sets keeps a cover, so the
    columns are kept in order: within each run of columns equal so far, a
    hole holds the run's lowest columns.
    """
    near: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        near[u].add(v)
        near[v].add(u)
    order = [v for v in range(g.n) if near[v]]
    slack = r - p
    holes: dict[int, int] = {}

    def lowest(h: int, run: int) -> bool:
        x = (h & run) >> (run & -run).bit_length() - 1
        return not x & (x + 1)

    def place(i: int, domains: list[list[int]], runs: list[int]) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for h in domains[0]:
            if not all(lowest(h, run) for run in runs):
                continue
            rest = []
            for u, domain in zip(order[i + 1:], domains[1:]):
                if u in near[v]:
                    domain = [x for x in domain if (x | h).bit_count() <= slack]
                else:
                    domain = [x for x in domain if (x | h).bit_count() > slack]
                if not domain:
                    break
                rest.append(domain)
            else:
                split = [part for run in runs for part in (run & h, run & ~h) if part]
                if place(i + 1, rest, split):
                    holes[v] = h
                    return True
        return False

    domain = sorted(sum(1 << j for j in c)
                    for k in range(slack + 1) for c in combinations(range(r), k))
    if not place(0, [domain] * len(order), [(1 << r) - 1] if r else []):
        return None
    return CliqueCover(g.n, tuple(frozenset(v for v in order if not holes[v] >> j & 1)
                                  for j in range(r)))


def _reference_column(full: int, j: int) -> int:
    """The rows y < 2^r, as one 2^r-bit mask (full), that hold column j: 2^j
    zeros then 2^j ones, repeated."""
    return full // ((1 << (2 << j)) - 1) * (((1 << (1 << j)) - 1) << (1 << j))


def reference_row_rounds(g: Graph, p: int, guard: int):
    """The row search's solve(r) as it was before its domains were indexed
    by the rows that can hold an edge, and before each row stopped at its
    first emptied domain: every domain, meet mask and tie mask spans all
    2^r rows, and each placed row narrows every later domain before any is
    tested.  Kept as the reference the row search must match in value and
    certificate, with no more rows placed."""
    n = g.n
    rows = [0] * n
    nodes = 0

    def solve(r: int):
        if r > guard:
            raise ScaleError(f"p-cover search allows at most {guard} sets (reached r={r}); "
                             "raise guard to override")
        full = (1 << (1 << r)) - 1
        meets, ties = {}, {}

        def meet(x: int) -> int:
            if x not in meets:
                at_least = [full] + [0] * p
                for j in iter_bits(x):
                    column = _reference_column(full, j)
                    at_least = [full] + [low | high & column
                                         for low, high in zip(at_least[1:], at_least)]
                meets[x] = at_least[p]
            return meets[x]

        def tie(tied: int) -> int:
            if tied not in ties:
                mask = full
                for j in iter_bits(tied):
                    mask &= ~(_reference_column(full, j) & ~_reference_column(full, j - 1))
                ties[tied] = mask
            return ties[tied]

        def place(v: int, later: list[int], tied: int) -> bool:
            nonlocal nodes
            near = g._adj[v]
            todo = later[0] & tie(tied)
            while todo:
                low = todo & -todo
                todo ^= low
                x = low.bit_length() - 1
                nodes += 1
                rows[v] = x
                m = meet(x)
                rest = [d & m if near >> w & 1 else d & ~m
                        for w, d in enumerate(later[1:], v + 1)]
                if all(rest) and (v + 1 == n or place(v + 1, rest, tied & ~(x ^ (x << 1)))):
                    return True
            return False

        if not place(0, [full] * n, (1 << r) - 2):
            return None, nodes
        return tuple(frozenset(v for v in range(n) if rows[v] >> j & 1) for j in range(r)), nodes

    return solve


def reference_row_search(g: Graph, p: int, budget: int, guard: int = 8) -> SearchResult:
    """exact_theta_e_p through reference_row_rounds."""
    return _deepen(g, p, budget, guard, "p-cover search", reference_row_rounds)


def reference_clique_rounds(g: Graph, p: int, guard: int):
    """The clique search's solve(r) as it was before a tight packing tried
    only the cliques that hold every uncovered edge their packed edge alone
    shares a clique with: at a tight packing it tries every clique from lo
    on that holds a packed edge.  Kept as the reference the clique search
    must match in value, certificate and bound, with no more nodes."""
    adj = g._adj
    cliques = [c for c in _clique_masks(g, guard) if c & (c - 1)]
    pairs = list(_edge_pairs(adj))
    inside = _closed_edges(adj, pairs)
    edges = sorted(pairs, key=lambda e: (inside[e[0]] & inside[e[1]]).bit_count())
    inside = _closed_edges(adj, edges)
    together = [inside[u] & inside[v] for u, v in edges]
    masks = []
    for c in cliques:
        mask = -1
        for v in iter_bits(c):
            mask &= inside[v]
        masks.append(mask)
    size = len(masks)
    reach = [0] * (size + 1)
    for i in range(size - 1, -1, -1):
        reach[i] = reach[i + 1] | masks[i]
    chosen: list[int] = []
    nodes = 0

    def search(short: int, slots: int, lo: int) -> bool:
        nonlocal nodes
        nodes += 1
        if not short:
            return True
        packed = count = 0
        left = short
        while left:
            low = left & -left
            count += 1
            if count > slots:
                return False
            packed |= low
            left &= ~together[low.bit_length() - 1]
        need = packed if count == slots else short
        for i in range(lo, size):
            if short & ~reach[i]:
                break
            if masks[i] & need:
                chosen.append(i)
                if search(short & ~masks[i], slots - 1, i):
                    return True
                chosen.pop()
        return False

    def solve(r: int):
        found = search(reach[0], r, 0)
        return (tuple(frozenset(iter_bits(cliques[i])) for i in chosen)
                if found else None), nodes

    return solve


def reference_clique_search(g: Graph, upper: int | None = None, guard: int = 16) -> SearchResult:
    """exact_theta_e through reference_clique_rounds."""
    upper = len(g.edges) if upper is None else upper
    return _deepen(g, 1, upper, guard, "exact cover search", reference_clique_rounds)
