"""Exhaustive ground truth at desk scale.

Three exact searches, all deterministic:

  * maximal_cliques       Bron-Kerbosch with pivoting on bitmasks.
  * exact_theta_e         minimum edge clique cover size, branch and bound
                          over maximal cliques (growing any cover set to a
                          maximal clique never hurts coverage).
  * exact_theta_e_p       minimum p-edge clique cover size up to a budget.
                          Sets in a p-cover need not be cliques for p >= 2,
                          so this searches arbitrary vertex subsets, with
                          canonical-order symmetry breaking (families are
                          nondecreasing in a fixed total order on subsets)
                          and incremental pair-count pruning.

Certificates are lexicographically least among the optimal families under
the canonical subset order, so repeated runs return identical results.
Scale guards are explicit parameters with safe defaults rather than hard
limits.

is_p_competition combines the constructive route (cycle and cycle-
complement covers plus lifting) with the exhaustive route (a graph on n
vertices is a p-competition graph iff it has a p-edge clique cover of at
most n sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

from .covers import (
    CliqueCover,
    Verdict,
    complement_cycle_cover,
    cover_to_json_dict,
    cycle_cover,
    verify_ecc,
    verify_p_ecc,
)
from .errors import InvalidParameterError, PcompError, ScaleError, UnsupportedInstanceError
from .graphs import Graph, complement, iter_bits, make_cycle


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exact search.

    Either an exact value with a verifying certificate, or exceeds-bound
    when no family within the given budget exists.  ``nodes`` counts the
    partial families (search tree nodes) examined.
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


@dataclass(frozen=True)
class Decision:
    """Answer of is_p_competition together with the path that produced it."""

    value: bool
    method: str
    cover_size: int | None = None


def _check_certificate(verdict: Verdict, n: int, p: int) -> None:
    """Refuse to return a certificate the verifier rejects; unlike an
    assert, this check also runs under python -O."""
    if not verdict.valid:
        raise PcompError(
            f"search certificate failed verification (n={n}, p={p}): "
            f"{verdict.reason} at {verdict.pair}")


def maximal_cliques(g: Graph, guard: int = 32) -> list[frozenset[int]]:
    """All inclusion-maximal cliques, each once, in canonical sorted order."""
    if g.n > guard:
        raise ScaleError(
            f"maximal clique enumeration requires n <= {guard} (got {g.n})")
    adj = [g.neighbor_mask(v) for v in range(g.n)]
    found: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            found.append(r)
            return
        # pivot with most neighbors in P; ties to the lowest vertex
        pivot, best = -1, -1
        probe = p | x
        while probe:
            u = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            score = (p & adj[u]).bit_count()
            if score > best:
                pivot, best = u, score
        candidates = p & ~adj[pivot]
        while candidates:
            bit = candidates & -candidates
            v = bit.bit_length() - 1
            expand(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit
            candidates &= candidates - 1

    expand(0, (1 << g.n) - 1, 0)
    cliques = [frozenset(v for v in range(g.n) if mask >> v & 1) for mask in found]
    return sorted(cliques, key=lambda c: tuple(sorted(c)))


def exact_theta_e(g: Graph, upper: int | None = None, guard: int = 16) -> SearchResult:
    """Exact minimum edge clique cover size, with an optimal cover.

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
    _check_certificate(verify_ecc(g, certificate), g.n, 1)
    return SearchResult(value=best, certificate=certificate, nodes=nodes)


def exact_theta_e_p(g: Graph, p: int, budget: int, guard: int = 8) -> SearchResult:
    """Smallest r <= budget admitting a p-edge clique cover of r sets.

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
            _check_certificate(verify_p_ecc(g, certificate, p), n, p)
            return SearchResult(value=r, certificate=certificate, nodes=nodes)
    return SearchResult(value=None, certificate=None, nodes=nodes, bound=budget)


def _constructive_decision(g: Graph, p: int) -> Decision | None:
    """Decide via the cover constructions, or None when they say nothing.

    Cycles on n >= 4 are decided both ways: the consecutive-run cover works
    exactly when n >= p+3, and below that no family of n sets exists (the
    counting refutation uses a nonadjacent pair at cyclic distance 2, which
    a triangle does not have, hence the n >= 4 restriction).  For cycle
    complements only the sufficient direction is known: lifting the cover
    stays within n sets iff size + p - 1 <= n.
    """
    n = g.n
    if n >= 4 and g == make_cycle(n):
        if n >= p + 3:
            return Decision(True, "construct", cover_size=n)
        return Decision(False, "construct")
    if n >= 5 and g == complement(make_cycle(n)):
        base = len(complement_cycle_cover(n))
        if base + p - 1 <= n:
            return Decision(True, "construct", cover_size=base + p - 1)
        return None
    return None


def _oracle_decision(g: Graph, p: int, guard: int) -> Decision:
    result = exact_theta_e_p(g, p, budget=g.n, guard=guard)
    if result.value is not None:
        return Decision(True, "oracle", cover_size=result.value)
    return Decision(False, "oracle")


def is_p_competition(g: Graph, p: int, method: str = "auto",
                     guard: int = 8) -> Decision:
    """Is g the p-competition graph of some digraph?

    method "construct" uses the cycle / cycle-complement constructions,
    "oracle" the exhaustive p-cover search with budget n, "both" runs the
    two and insists they agree, and "auto" prefers the constructive route
    and falls back to the oracle within its guard.
    """
    if p < 1:
        raise InvalidParameterError(f"need p >= 1, got p={p}")
    if method not in ("auto", "construct", "oracle", "both"):
        raise InvalidParameterError(f"unknown method {method!r}")

    constructive = _constructive_decision(g, p) if method != "oracle" else None
    if method == "construct":
        if constructive is None:
            raise UnsupportedInstanceError(
                "no constructive decision for this graph/p combination")
        return constructive
    if method == "oracle":
        return _oracle_decision(g, p, guard)
    if method == "both":
        if constructive is None:
            raise UnsupportedInstanceError(
                "no constructive decision for this graph/p combination")
        oracle = _oracle_decision(g, p, guard)
        if oracle.value != constructive.value:
            raise AssertionError(
                f"construction and exhaustive search disagree on n={g.n}, p={p}: "
                f"{constructive.value} vs {oracle.value}")
        size = (constructive.cover_size if constructive.cover_size is not None
                else oracle.cover_size)
        return Decision(constructive.value, "both", cover_size=size)
    # auto
    if constructive is not None:
        return constructive
    if g.n <= guard:
        return _oracle_decision(g, p, guard)
    raise UnsupportedInstanceError(
        f"no decision path applies: not a recognized construction and n={g.n} "
        f"exceeds the oracle guard {guard}")
