"""Exhaustive ground truth at desk scale.

Three exact searches, all deterministic:

  * maximal_cliques   Bron-Kerbosch with pivoting on bitmasks.
  * exact_theta_e     minimum edge clique cover size, by the clique search
                      (_clique_rounds) over the maximal cliques.
  * exact_theta_e_p   minimum p-edge clique cover size up to a budget, by
                      the clique search at p = 1 and the row search
                      (_row_rounds, over the tables of _tables) at p >= 2.

Both kernels run through _deepen, which owns the guard on n, the edgeless
answer, the deepening of the number of sets r and the certificate check
(_certify).  is_p_competition decides by the constructions
(_constructive_decision) or by exact_theta_e_p.  Each kernel's docstring
says why its pruning keeps the cover it finds and what its ``nodes``
counts; each other function's says why its own rule holds.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import NamedTuple

from .competition import p_competition_graph
from .covers import (
    CliqueCover,
    complement_cycle_cover,
    cover_to_json_dict,
    cycle_cover,
    lift_cover,
    verify_p_ecc,
)
from .errors import (
    InfeasibleError,
    InvalidParameterError,
    PcompError,
    ScaleError,
    UnsupportedInstanceError,
    _at_least,
)
from .graphs import Graph, _edge_pairs, complement, iter_bits, make_cycle
from .realization import realize

class SearchResult(NamedTuple):
    """Outcome of an exact search.

    Either an exact value with a verifying certificate, or exceeds-bound
    when no family within the given budget exists.  ``nodes`` counts the
    search tree nodes the kernel visited, as its docstring defines them.
    """

    value: int | None
    certificate: CliqueCover | None
    nodes: int
    bound: int | None = None

    @property
    def outcome(self) -> str:
        return "exact" if self.value is not None else "exceeds-bound"

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "value": self.value,
            "certificate": (
                cover_to_json_dict(self.certificate)
                if self.certificate is not None else None),
            "nodes": self.nodes,
        }


class Decision(NamedTuple):
    """Answer of is_p_competition, the path that produced it, and for a yes
    the p-edge clique cover of at most n sets that certifies it."""

    value: bool
    method: str
    certificate: CliqueCover | None = None

    @property
    def cover_size(self) -> int | None:
        return len(self.certificate) if self.certificate is not None else None

    def to_json_dict(self) -> dict:
        return {
            "is_p_competition": self.value,
            "method": self.method,
            "cover_size": self.cover_size,
            "certificate": (
                cover_to_json_dict(self.certificate)
                if self.certificate is not None else None),
        }


def _certify(g: Graph, cover: CliqueCover, p: int) -> CliqueCover:
    """Return cover, or refuse a certificate the verifier rejects, or one of
    at most n sets whose realization does not give g back; unlike an
    assert, this check also runs under python -O.  Each cover is checked
    once, where it is made."""
    verdict = verify_p_ecc(g, cover, p)
    if not verdict.valid:
        raise PcompError(
            f"certificate failed verification (n={g.n}, p={p}): "
            f"{verdict.reason} at {verdict.pair}")
    if len(cover) <= g.n and p_competition_graph(realize(cover), p) != g:
        raise PcompError(
            f"certificate does not realize the graph (n={g.n}, p={p})")
    return cover


def _clique_masks(g: Graph, guard: int) -> list[int]:
    """The maximal cliques of g as vertex masks, in maximal_cliques' order.

    No maximal clique holds another, so of two sorted vertex tuples neither
    is a prefix of the other, and the first that holds the least vertex of
    their symmetric difference comes first.  So does the larger mask read
    with vertex 0 as its top bit: the order is descending in that reading.
    """
    _at_least("guard", guard, 0)
    if g.n > guard:
        raise ScaleError(
            f"maximal clique enumeration requires n <= {guard} (got {g.n})")
    adj = g._adj
    found: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            found.append(r)
            return
        # any vertex of P | X is a sound pivot; the lowest takes one step,
        # and a scan for the most neighbours in P costs more than it prunes
        # on co-C_n
        pivot = ((p | x) & -(p | x)).bit_length() - 1
        candidates = p & ~adj[pivot]
        while candidates:
            bit = candidates & -candidates
            v = bit.bit_length() - 1
            expand(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit
            candidates &= candidates - 1

    try:
        expand(0, (1 << g.n) - 1, 0)
    except RecursionError:
        raise ScaleError(f"maximal clique enumeration on n={g.n} recurses past "
                         "Python's recursion limit") from None
    n = g.n
    return sorted(found, key=lambda m: int(f"{m:0{n}b}"[::-1], 2), reverse=True)


def maximal_cliques(g: Graph, guard: int = 32) -> list[frozenset[int]]:
    """All inclusion-maximal cliques, each once, in canonical sorted order."""
    return [frozenset(iter_bits(m)) for m in _clique_masks(g, guard)]


def _deepen(g: Graph, p: int, budget: int, guard: int, search: str, rounds) -> SearchResult:
    """The least r in p..budget at which a kernel round finds a cover of r sets.

    Refuses a negative guard (an invalid parameter, not an exceeded guard)
    and n above guard, and answers an edgeless graph with no sets, before
    rounds(g, p, guard) returns the kernel's solve(r): the sets found (or
    None) and the nodes visited so far.  _certify checks the cover found.
    A round recursing past Python's recursion limit, which is left alone,
    raises ScaleError too.
    """
    _at_least("guard", guard, 0)
    if g.n > guard:
        raise ScaleError(
            f"{search} requires n <= {guard} (got {g.n}); raise guard to override")
    if not any(g._adj):
        return SearchResult(value=0, certificate=CliqueCover(g.n, ()), nodes=0)
    solve = rounds(g, p, guard)
    nodes = 0
    for r in range(p, budget + 1):
        try:
            sets, nodes = solve(r)
        except RecursionError:
            raise ScaleError(f"{search} on n={g.n} recurses past Python's recursion "
                             f"limit at r={r}") from None
        if sets is not None:
            certificate = _certify(g, CliqueCover(g.n, sets), p)
            return SearchResult(value=r, certificate=certificate, nodes=nodes)
    return SearchResult(value=None, certificate=None, nodes=nodes, bound=budget)


def _closed_edges(adj: tuple[int, ...], edges: list[tuple[int, int]]) -> list[int]:
    """For each vertex w, the edges with both ends in N[w], as a mask whose
    bit k is edges[k]: every edge at none of the vertices outside N[w]."""
    star = [0] * len(adj)  # star[v]: the edges at v
    for k, (u, v) in enumerate(edges):
        star[u] |= 1 << k
        star[v] |= 1 << k
    every = (1 << len(edges)) - 1
    full = (1 << len(adj)) - 1
    inside = []
    for w, a in enumerate(adj):
        out = full & ~(a | 1 << w)
        mask = every
        while out:
            low = out & -out
            mask &= ~star[low.bit_length() - 1]
            out ^= low
        inside.append(mask)
    return inside


def _clique_rounds(g: Graph, p: int, guard: int):
    """solve(r) for exact_theta_e: the lexicographically least family of r
    cliques, nondecreasing in their order, that covers every edge.  The
    maximal cliques of two or more vertices cover every edge together.
    Edges are bits of a mask, and ``nodes`` counts the partial families
    visited.  Besides the tight candidates below, a family is pruned when
    some uncovered edge lies in no clique from index lo on, or when more
    uncovered edges than slots pairwise share no clique, so each needs a
    clique of its own (the packing bound of Gramm, Guo, Hüffner and
    Niedermeier, ACM JEA 13, 2008).

    Edges are numbered so that an edge sharing a clique with fewer other
    edges comes first (ties in ascending pair order), so the packing, which
    takes the lowest uncovered edge first, packs the most isolated edges.
    An edge xy shares a clique with uv exactly when x and y lie in both
    N[u] and N[v]: {u, v, x, y} is then a clique, which grows to a maximal
    one, and a clique holding uv lies in N[u] and N[v].  So the edges
    inside both (an AND of _closed_edges' masks) rank the edges before any
    clique table is built, and a maximal clique, the intersection of N[w]
    over its vertices w, holds the edges inside every such N[w].  The
    numbering moves only bits: the cliques, their order and the cover
    found stay the same.

    When the packing holds exactly as many edges as slots are left (it is
    tight), any completion is at most that many cliques from index lo on
    that together hold every packed edge, and no clique holds two packed
    edges, so it has exactly one clique per packed edge e, e's clique.  An
    uncovered edge lies in some clique of the completion, so it shares a
    clique with that clique's packed edge; if it shares one with e alone
    (it lies in solo_e, e among them), it lies in e's clique.  So e's
    clique is a candidate of e: a clique from lo on that holds all of
    solo_e.  A packed edge without candidates, or uncovered edges that no
    candidate holds, leave no completion, and the next clique, the
    completion's first, is a candidate.  Trying only the candidates, in
    ascending order, skips only subtrees without a cover, so the least
    cover found does not change and the tree searched is a subset of the
    one that tries every clique holding a packed edge.
    """
    adj = g._adj
    cliques = [c for c in _clique_masks(g, guard) if c & (c - 1)]
    pairs = list(_edge_pairs(adj))
    inside = _closed_edges(adj, pairs)
    edges = sorted(pairs, key=lambda e: (inside[e[0]] & inside[e[1]]).bit_count())
    inside = _closed_edges(adj, edges)  # edge k is now bit k of every mask
    # together[k]: edges sharing some clique with edge k
    together = [inside[u] & inside[v] for u, v in edges]
    masks = []
    member = [0] * g.n  # member[v]: the cliques holding v, bit i for cliques[i]
    for i, c in enumerate(cliques):
        bit = 1 << i
        mask = -1
        while c:
            low = c & -c
            v = low.bit_length() - 1
            mask &= inside[v]
            member[v] |= bit
            c ^= low
        masks.append(mask)
    size = len(masks)
    # holders[k]: (i, masks[i]) for the cliques holding edge k, by descending
    # i; built from member the first time edge k is packed at a tight packing
    holders: list[list[tuple[int, int]] | None] = [None] * len(edges)
    # reach[i]: edges held by a clique at index >= i (reach[0] holds them all)
    reach = [0] * (size + 1)
    for i in range(size - 1, -1, -1):
        reach[i] = reach[i + 1] | masks[i]
    chosen: list[int] = []
    nodes = 0

    def search(short: int, slots: int, lo: int) -> bool:
        # short: the edges no chosen clique holds yet
        nonlocal nodes
        nodes += 1
        if not short:
            return True
        # packing: uncovered edges no single clique holds together need a slot
        # each; once and twice: the uncovered edges sharing a clique with at
        # least one packed edge (all of them) and with at least two
        packed = []
        count = once = twice = 0
        left = short
        while left:
            low = left & -left
            count += 1
            if count > slots:
                return False
            k = low.bit_length() - 1
            packed.append(k)
            near = together[k] & short
            twice |= once & near
            once |= near
            left &= ~near
        if count < slots:
            tries = range(lo, size)
        else:
            # tight: only the candidates of the packed edges may come next
            alone = short & ~twice
            tries = []
            cover = 0  # the edges the candidates hold
            for k in packed:
                solo = together[k] & alone
                held = holders[k]
                if held is None:
                    u, v = edges[k]
                    both = member[u] & member[v]
                    held = holders[k] = []
                    while both:
                        i = both.bit_length() - 1
                        held.append((i, masks[i]))
                        both ^= 1 << i
                for i, mask in held:
                    if i < lo:
                        break
                    if not solo & ~mask:
                        tries.append(i)
                        cover |= mask
                if not cover >> k & 1:
                    return False  # only a candidate of edge k holds edge k
            if short & ~cover:
                return False
            tries.sort()
        for i in tries:
            if short & ~reach[i]:
                break  # the cliques from i on no longer hold every uncovered edge
            # a clique without an uncovered edge could be dropped, leaving a
            # cover of r - 1 cliques, which the previous round ruled out
            if masks[i] & short:
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


class _Lazy(dict):
    """A mapping that builds each value with build(key) the first time the
    key is read, and then keeps it."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        self[key] = value = self.build(key)
        return value


@cache
def _tables(r: int, p: int) -> tuple[list[int], _Lazy, _Lazy]:
    """The row search's tables for r sets and p, one per process.

    universe: U(r, p), row 0 and the r-bit rows with at least p bits, in
    ascending order; index i stands for row universe[i], and every mask is
    a |U|-bit mask over these indices.  meets[i]: the indices k with
    (universe[i] & universe[k]).bit_count() >= p.  ties[tied]: the indices
    of the rows that set no column j in tied without column j - 1 (tied
    never holds column 0).
    """
    universe = [0, *sorted(sum(1 << j for j in c) for k in range(p, r + 1)
                           for c in combinations(range(r), k))]
    full = (1 << len(universe)) - 1
    # columns[j]: the indices of the rows holding column j
    bits = [format(x, f"0{r}b") for x in universe]
    columns = [int("".join(c)[::-1], 2) for c in zip(*bits)][::-1]

    def meet(i: int) -> int:
        # at_least[k]: the rows holding at least k of the columns of row i seen so far
        at_least = [full] + [0] * p
        for j in iter_bits(universe[i]):
            at_least = [full] + [low | high & columns[j]
                                 for low, high in zip(at_least[1:], at_least)]
        return at_least[p]

    def tie(tied: int) -> int:
        mask = full
        for j in iter_bits(tied):
            mask &= ~(columns[j] & ~columns[j - 1])
        return mask

    return universe, _Lazy(meet), _Lazy(tie)


def _row_rounds(g: Graph, p: int, guard: int):
    """solve(r) for exact_theta_e_p at p >= 2: the canonical p-edge clique
    cover of r sets, built as its n x r incidence matrix one vertex at a
    time, in ascending order.  Vertex v takes an r-bit row, the sets that
    hold it (bit j: v is in set j; its out-mask in realize), so a pair lies
    in (row_u & row_v).bit_count() sets.  It is sound at p = 1 too, where
    U holds every row.

    Rows are drawn from U(r, p) (see _tables).  Every later vertex keeps
    the rows it may still take as one |U|-bit domain, and each placed row
    narrows the domains of the later vertices to rows sharing at least p
    bits with it across an edge and fewer than p across a nonedge; an
    empty domain prunes.  Columns are kept nonincreasing read from vertex
    0 down: while columns j - 1 and j agree on every placed row, a row may
    not set j without j - 1 (the column half of the double-lex order of
    Flener et al., CP 2002).  So a vertex tries, in ascending order, only
    its domain masked by the tie mask of the columns still tied, and the
    cover found is canonical: of the covers of r sets with nonincreasing
    columns, the one whose rows, read as integers from vertex 0 on, form
    the least sequence.  Its sets are the columns, built only when a round
    finds a cover.  ``nodes`` counts the rows placed.

    The universe leaves the cover found as it is.  A vertex with an edge
    shares p sets with that neighbour, so its row has at least p bits.  A
    row of fewer (row 0 among them) empties the domain of a later neighbour
    at once, and lies outside the domain of a vertex whose neighbour was
    placed before it.  An isolated vertex always has row 0 in its domain
    and tries it first, and row 0 narrows no domain and keeps every column
    tie.  If any row completes the cover there, row 0 does too: giving the
    vertex row 0 keeps a p-cover, and re-sorting the columns within each
    run of columns tied on the rows placed before it restores the column
    order without moving those rows.  So every row outside U that a search
    over all 2^r rows tries fails, and the search over U places the same
    rows in the same order, less those, and finds the same cover.  |U| is
    2^r - r at p = 2 and shrinks as p nears r, and so do each domain and
    each mask a placed row reads.

    A placed row narrows the later domains one at a time and is dropped at
    the first that empties.  Before them all it tests the later vertex
    whose domain emptied last at this depth (one offset per depth, kept
    across rows and rounds).  A row is kept iff no later domain empties,
    whatever order they are tested in, so this order changes neither the
    rows placed nor the cover found.
    """
    n = g.n
    rows = [0] * n
    # culprit[v]: the offset from v of the later vertex whose domain emptied
    # last while v was placed (0 before any did)
    culprit = [0] * n
    nodes = 0

    def solve(r: int):
        if r > guard:
            raise ScaleError(f"p-cover search allows at most {guard} sets (reached r={r}); "
                             "raise guard to override")
        universe, meets, ties = _tables(r, p)

        def place(v: int, later: list[int], tied: int) -> bool:
            # later[k]: the rows vertex v + k may still take, by index in U;
            # bit j of tied: columns j - 1 and j agree on every placed row
            nonlocal nodes
            near = g._adj[v] >> v  # bit k: v and v + k are adjacent
            todo = later[0] & ties[tied]
            while todo:
                low = todo & -todo
                todo ^= low
                i = low.bit_length() - 1
                nodes += 1
                meet = meets[i]
                miss = ~meet
                k = culprit[v]
                if k and not later[k] & (meet if near >> k & 1 else miss):
                    continue
                rest = []
                for k in range(1, len(later)):
                    d = later[k] & (meet if near >> k & 1 else miss)
                    if not d:
                        culprit[v] = k
                        break
                    rest.append(d)
                else:
                    x = rows[v] = universe[i]
                    if not rest or place(v + 1, rest, tied & ~(x ^ (x << 1))):
                        return True
            return False

        if not place(0, [(1 << len(universe)) - 1] * n, (1 << r) - 2):
            return None, nodes
        return tuple(frozenset(v for v in range(n) if rows[v] >> j & 1) for j in range(r)), nodes

    return solve


def exact_theta_e(g: Graph, upper: int | None = None, guard: int = 16) -> SearchResult:
    """Exact minimum edge clique cover size, with an optimal cover.

    The clique search over the maximal cliques, which ``guard`` alone caps.
    Above ``upper`` (at least 0; |E| by default, as one clique per edge
    covers) it returns exceeds-bound.  Edgeless graphs need zero cliques.
    """
    upper = sum(a.bit_count() for a in g._adj) // 2 if upper is None else upper
    _at_least("upper", upper, 0)
    return _deepen(g, 1, upper, guard, "exact cover search", _clique_rounds)


def _kernel_guard(p: int, guard: int | None) -> int:
    """guard, or when None the default of the kernel answering at p: 16,
    exact_theta_e's, for the clique search at p = 1, and 8 for the row
    search at p >= 2."""
    return (16 if p == 1 else 8) if guard is None else guard


def exact_theta_e_p(g: Graph, p: int, budget: int | None = None,
                    guard: int | None = None) -> SearchResult:
    """Smallest r <= budget (by default n, the characterization's bound)
    admitting a p-edge clique cover of r sets, with a cover of that size.

    At p = 1 no nonedge may share a set, so every set is a clique, and
    growing each to a maximal clique keeps the cover: the clique search
    answers, with the same result as exact_theta_e(g, budget, guard), its
    certificate the least family of maximal cliques, and ``guard`` (16 by
    default, as for exact_theta_e) caps n alone.  At p >= 2 the row search
    answers with the canonical cover, and ``guard`` (8 by default) caps
    both n and the number of sets.
    """
    _at_least("p", p, 1)
    budget = g.n if budget is None else budget
    _at_least("budget", budget, 0)
    return _deepen(g, p, budget, _kernel_guard(p, guard), "p-cover search",
                   _clique_rounds if p == 1 else _row_rounds)


def _constructive_decision(g: Graph, p: int) -> Decision | None:
    """Decide via the cover constructions, or None when they say nothing.

    Cycles on n >= 4 are decided both ways: the consecutive-run cover works
    exactly when n >= p+3, and below that no family of n sets exists (the
    counting refutation uses a nonadjacent pair at cyclic distance 2, which
    a triangle does not have, hence the n >= 4 restriction).  For cycle
    complements only the sufficient direction is known: the lift certifies
    when it stays within n sets, which no lift for p > n does.  A yes
    carries its cover, checked by _certify.
    """
    n = g.n
    if n >= 4 and g == make_cycle(n):
        try:
            cover = cycle_cover(n, p)
        except InfeasibleError:
            return Decision(False, "construct")
        return Decision(True, "construct", _certify(g, cover, p))
    if n >= 5 and p <= n and g == complement(make_cycle(n)):
        lifted = lift_cover(complement_cycle_cover(n), p)
        if len(lifted) <= n:
            return Decision(True, "construct", _certify(g, lifted, p))
    return None


METHODS = ("auto", "construct", "oracle", "both")  # the routes is_p_competition takes


def is_p_competition(g: Graph, p: int, method: str = "auto",
                     guard: int | None = None) -> Decision:
    """Is g the p-competition graph of some digraph?

    method "construct" uses the cycle / cycle-complement constructions,
    "oracle" the exhaustive p-cover search with budget n (a graph on n
    vertices is a p-competition graph iff it has a p-edge clique cover of
    at most n sets), "auto" prefers the constructive route and falls back
    to the search within its guard, and "both" runs each route that
    applies (the search when n <= guard) and raises PcompError if two ran
    and disagree; it answers "both" when two ran.  A yes carries the
    constructive cover if any, else the search's.
    ``guard`` defaults as in exact_theta_e_p: 16 at p = 1, else 8.
    """
    _at_least("p", p, 1)
    if method not in METHODS:
        raise InvalidParameterError(f"unknown method {method!r}")
    guard = _kernel_guard(p, guard)
    _at_least("guard", guard, 0)

    constructive = None if method == "oracle" else _constructive_decision(g, p)
    if constructive is not None and (method in ("auto", "construct") or g.n > guard):
        return constructive
    if method == "construct":
        raise UnsupportedInstanceError(
            "no constructive decision for this graph/p combination")
    if method != "oracle" and g.n > guard:
        raise UnsupportedInstanceError(
            f"no decision path applies: not a recognized construction and n={g.n} "
            f"exceeds the oracle guard {guard}")
    result = exact_theta_e_p(g, p, budget=g.n, guard=guard)
    found = result.value is not None
    if constructive is None:
        return Decision(found, "oracle", result.certificate)
    if constructive.value != found:
        raise PcompError(
            f"construction and exhaustive search disagree on n={g.n}, p={p}: "
            f"{constructive.value} vs {found}")
    return constructive._replace(method="both")
