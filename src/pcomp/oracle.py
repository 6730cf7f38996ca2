"""Exhaustive ground truth at desk scale.

Three exact searches, all deterministic:

  * maximal_cliques   Bron-Kerbosch with pivoting on bitmasks.
  * exact_theta_e     minimum edge clique cover size: the cover search at
                      p = 1 over the maximal cliques (growing any cover set
                      to a maximal clique never hurts coverage).
  * exact_theta_e_p   minimum p-edge clique cover size up to a budget: the
                      cover search over every vertex subset of two or more
                      members (sets in a p-cover need not be cliques).

The one cover search deepens the family size r from p up to the budget.
At each r a depth-first search runs over nondecreasing sequences of
alphabet indices, so the first family found is the lexicographically
least one of the least size, and repeated runs return identical results.
Pair counts are bit-sliced over pair indices: ge[k] is the mask of pairs
lying in more than k chosen sets, so each rule is a few ANDs and popcounts.
A partial family is pruned when

  * some edge lacks more counts than there are slots left,
  * some deficient edge lies in no set at or after the current index,
  * the total deficit exceeds the slots times the most edges one of the
    remaining sets holds, or
  * more deficient edges than slots pairwise share no alphabet set, so
    each needs a set of its own (the packing bound of Gramm, Guo, Hüffner
    and Niedermeier, ACM JEA 13, 2008; it never fires over all subsets).

A candidate set is skipped when it would put a nonadjacent pair into p
sets, when it holds no deficient edge (dropping it would leave a valid
family of r - 1 sets, which the previous round ruled out), or when the
sets from it on no longer hold every deficient edge.  Scale guards are
explicit parameters with safe defaults rather than hard limits.

is_p_competition combines the constructive route (cycle and cycle-
complement covers plus lifting) with the exhaustive route (a graph on n
vertices is a p-competition graph iff it has a p-edge clique cover of at
most n sets).  A yes carries that cover; _certify checks every returned
cover with the verifier and, within n sets, by realizing it back to g.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, combinations

from .competition import p_competition_graph
from .covers import (
    CliqueCover,
    complement_cycle_cover,
    cover_to_json_dict,
    cycle_cover,
    lift_cover,
    verify_p_ecc,
)
from .errors import InvalidParameterError, PcompError, ScaleError, UnsupportedInstanceError
from .graphs import Graph, complement, iter_bits, make_cycle
from .realization import realize


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


def _certify(g: Graph, cover: CliqueCover, p: int) -> None:
    """Refuse a certificate the verifier rejects, or one of at most n sets
    whose realization does not give g back; unlike an assert, this check
    also runs under python -O."""
    verdict = verify_p_ecc(g, cover, p)
    if not verdict.valid:
        raise PcompError(
            f"certificate failed verification (n={g.n}, p={p}): "
            f"{verdict.reason} at {verdict.pair}")
    if len(cover) <= g.n and p_competition_graph(realize(cover), p) != g:
        raise PcompError(
            f"certificate does not realize the graph (n={g.n}, p={p})")


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


def _cover_search(g: Graph, p: int, alphabet: list[tuple[int, ...]],
                  budget: int) -> SearchResult:
    """Least r <= budget with a p-edge clique cover of g by r alphabet sets,
    and the lexicographically least such family over alphabet indices.

    g must have an edge.  Sets may repeat; families are nondecreasing in
    the alphabet order.
    """
    n = g.n
    pair_index = {pr: k for k, pr in enumerate(combinations(range(n), 2))}
    edges = 0
    for e in g.edges:
        edges |= 1 << pair_index[e]
    nonedges = ((1 << len(pair_index)) - 1) & ~edges
    masks = []
    for s in alphabet:
        m = 0
        for pr in combinations(s, 2):
            m |= 1 << pair_index[pr]
        masks.append(m)
    size = len(masks)
    # reach[i]: pairs held by a set at index >= i; gain[i]: the most edges
    # one such set holds; together[k]: edges sharing some set with pair k
    reach = [0] * (size + 1)
    gain = [0] * (size + 1)
    for i in range(size - 1, -1, -1):
        reach[i] = reach[i + 1] | masks[i]
        gain[i] = max(gain[i + 1], (masks[i] & edges).bit_count())
    together = [0] * len(pair_index)
    for m in masks:
        for k in iter_bits(m & edges):
            together[k] |= m & edges

    top = p - 1
    levels = range(1, p)
    chosen: list[int] = []
    nodes = 0

    def search(ge: list[int], slots: int, lo: int) -> bool:
        # ge[k]: pairs lying in more than k chosen sets
        nonlocal nodes
        nodes += 1
        short = edges & ~ge[top]
        if not short:
            return True
        if slots <= top and edges & ~ge[top - slots]:
            return False  # some edge lacks more counts than slots remain
        if short & ~reach[lo]:
            return False  # some deficient edge is in no remaining set
        deficit = 0
        for at_least in ge:
            deficit += (edges & ~at_least).bit_count()
        if deficit > slots * gain[lo]:
            return False  # the slots left cannot add the missing counts
        # packing: deficient edges no single set holds together need a set each
        packed = 0
        left = short
        while left:
            packed += 1
            if packed > slots:
                return False
            left &= ~together[(left & -left).bit_length() - 1]
        # candidates end where reach stops holding every deficient edge
        a, b = lo + 1, size
        while a < b:
            mid = (a + b) // 2
            if short & ~reach[mid]:
                b = mid
            else:
                a = mid + 1
        blocked = nonedges & ge[top - 1] if top else nonedges
        for i in range(lo, a):
            m = masks[i]
            # a set without a deficient edge could be dropped, leaving a
            # valid family of r - 1 sets, which the previous round ruled out
            if not m & short or m & blocked:
                continue
            child = [ge[0] | m]
            for k in levels:
                child.append(ge[k] | (ge[k - 1] & m))
            chosen.append(i)
            if search(child, slots - 1, i):
                return True
            chosen.pop()
        return False

    for r in range(p, budget + 1):
        if search([0] * p, r, 0):
            certificate = CliqueCover(n, tuple(frozenset(alphabet[i]) for i in chosen))
            _certify(g, certificate, p)
            return SearchResult(value=r, certificate=certificate, nodes=nodes)
    return SearchResult(value=None, certificate=None, nodes=nodes, bound=budget)


def exact_theta_e(g: Graph, upper: int | None = None, guard: int = 16) -> SearchResult:
    """Exact minimum edge clique cover size, with an optimal cover.

    The cover search at p = 1 over the maximal cliques.  With ``upper``
    given, returns exceeds-bound instead when the minimum is larger.
    Edgeless graphs need zero cliques.
    """
    if g.n > guard:
        raise ScaleError(
            f"exact cover search requires n <= {guard} (got {g.n}); raise guard to override")
    if not g.edges:
        return SearchResult(value=0, certificate=CliqueCover(g.n, ()), nodes=0)
    cliques = [tuple(sorted(c)) for c in maximal_cliques(g) if len(c) >= 2]
    return _cover_search(g, 1, cliques, len(cliques) if upper is None else upper)


def exact_theta_e_p(g: Graph, p: int, budget: int, guard: int = 8) -> SearchResult:
    """Smallest r <= budget admitting a p-edge clique cover of r sets.

    The cover search over every vertex subset with at least two members,
    in sorted-tuple order; smaller subsets touch no pair and can be dropped
    from any valid family.
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
    alphabet = sorted(
        chain.from_iterable(combinations(range(g.n), k) for k in range(2, g.n + 1)))
    return _cover_search(g, p, alphabet, budget)


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
            return Decision(True, "construct", cycle_cover(n, p))
        return Decision(False, "construct")
    if n >= 5 and g == complement(make_cycle(n)):
        base = complement_cycle_cover(n)
        if len(base) + p - 1 <= n:
            return Decision(True, "construct", lift_cover(base, p))
    return None


def _oracle_decision(g: Graph, p: int, guard: int) -> Decision:
    result = exact_theta_e_p(g, p, budget=g.n, guard=guard)
    return Decision(result.value is not None, "oracle", result.certificate)


def is_p_competition(g: Graph, p: int, method: str = "auto",
                     guard: int = 8) -> Decision:
    """Is g the p-competition graph of some digraph?

    method "construct" uses the cycle / cycle-complement constructions,
    "oracle" the exhaustive p-cover search with budget n, "both" runs the
    two and raises PcompError unless they agree, and "auto" prefers the
    constructive route and falls back to the oracle within its guard.  A
    yes carries the constructive cover if any, else the search's.
    """
    if p < 1:
        raise InvalidParameterError(f"need p >= 1, got p={p}")
    if method not in ("auto", "construct", "oracle", "both"):
        raise InvalidParameterError(f"unknown method {method!r}")

    constructive = None if method == "oracle" else _constructive_decision(g, p)
    if constructive is None and method != "oracle":
        if method != "auto":
            raise UnsupportedInstanceError(
                "no constructive decision for this graph/p combination")
        if g.n > guard:
            raise UnsupportedInstanceError(
                f"no decision path applies: not a recognized construction and n={g.n} "
                f"exceeds the oracle guard {guard}")
    decision = constructive if constructive is not None else _oracle_decision(g, p, guard)
    if method == "both":
        oracle = _oracle_decision(g, p, guard)
        if oracle.value != decision.value:
            raise PcompError(
                f"construction and exhaustive search disagree on n={g.n}, p={p}: "
                f"{decision.value} vs {oracle.value}")
        decision = replace(decision, method="both")
    if decision.certificate is not None:
        _certify(g, decision.certificate, p)
    return decision


def survey_decision(g: Graph, p: int, guard: int) -> Decision | None:
    """One survey cell: "both" within the guard and "construct" beyond it,
    falling back to "oracle" within the guard; None if nothing applies."""
    try:
        return is_p_competition(
            g, p, method="both" if g.n <= guard else "construct", guard=guard)
    except UnsupportedInstanceError:
        if g.n > guard:
            return None
        return is_p_competition(g, p, method="oracle", guard=guard)
