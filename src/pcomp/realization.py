"""Digraphs whose p-competition graph is a covered graph.

The realization attaches set j of a family to prey vertex j: arc (x, j)
iff x is in set j.  Two vertices then share exactly as many prey as the
number of sets containing both, so for a valid p-edge clique cover with at
most n sets the p-competition graph of the realization is the covered
graph.  An ordering with "member of set j sits at position < j" yields an
acyclic variant.

The digraphs are built as out-masks: bit j of the out-mask of x is set iff
x lies in set j, the same per-vertex set masks the cover verifier counts
pairs with.  A digraph takes its in-masks at construction, and here they
are the sets' member masks: the predators of prey j are the members of
set j.  realize reads both from the cover's incidence, which the cover
builds on first use and keeps (see ``covers``), so realizing a verified
cover builds nothing new.  realize_acyclic puts set j at index order[j]
of a new cover and realizes that, so set j's prey is order[j].  No arc
tuples are formed; ``Digraph.arcs`` derives them on demand.
"""

from __future__ import annotations

from typing import Iterable

from .covers import CliqueCover
from .errors import InfeasibleError, InvalidParameterError
from .graphs import Digraph, iter_bits

EXCERPT = 60  # the most characters of an input an error line echoes


def realize(f: CliqueCover) -> Digraph:
    """Digraph on f.n vertices with an arc (x, j) for every x in set j.

    Needs len(f) <= f.n so that every set has its own prey vertex;
    vertices beyond the last set simply receive no arcs from the family.
    """
    if len(f) > f.n:
        raise InfeasibleError(
            f"realization requires |sets| <= n ({len(f)} sets on {f.n} vertices)")
    rows, members = f._incidence()
    return Digraph._from_masks(f.n, rows, members + (0,) * (f.n - len(members)))


def excerpt(text: str) -> str:
    """text as an error line echoes it: whole, or its first EXCERPT characters and its length."""
    return text if len(text) <= EXCERPT else f"{text[:EXCERPT]}... ({len(text)} characters)"


def _position_map(order: Iterable[int], n: int) -> dict[int, int]:
    order = list(order)
    if len(order) != n:
        raise InvalidParameterError(f"order has {len(order)} entries, expected {n}")
    if any(type(v) is not int for v in order) or sorted(order) != list(range(n)):
        raise InvalidParameterError(
            f"order must be a permutation of 0..{n - 1}, got {excerpt(str(order))}")
    return {v: i for i, v in enumerate(order)}


def satisfies_acyclic_ordering(f: CliqueCover, order: Iterable[int]) -> bool:
    """True iff every member of set j sits at a position before j in order."""
    pos = _position_map(order, f.n)
    if len(f) != f.n:
        raise InvalidParameterError(
            f"ordering check needs exactly n sets ({len(f)} sets on {f.n} vertices)")
    return all(pos[x] < j for j, s in enumerate(f.sets) for x in s)


def realize_acyclic(f: CliqueCover, order: Iterable[int]) -> Digraph:
    """Like realize, but the prey of set j is order[j].

    Under the ordering condition every arc goes from a lower position to a
    higher one, so the result is acyclic; prey vertices stay distinct per
    set, which keeps common-prey counts equal to common-set counts.
    """
    order = list(order)
    if not satisfies_acyclic_ordering(f, order):
        raise InfeasibleError(
            "ordering condition violated: some set j contains a vertex at position >= j")
    sets = [frozenset()] * f.n
    for s, v in zip(f.sets, order):
        sets[v] = s
    return realize(CliqueCover._trusted(f.n, sets))


def is_acyclic(d: Digraph) -> bool:
    """True iff d has no directed cycle; a loop counts as a cycle."""
    out = d._out
    indeg = [m.bit_count() for m in d._in]
    # Kahn's peeling; a vertex with a loop never reaches in-degree 0
    stack = [v for v in range(d.n) if indeg[v] == 0]
    seen = 0
    while stack:
        u = stack.pop()
        seen += 1
        for w in iter_bits(out[u]):
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return seen == d.n
