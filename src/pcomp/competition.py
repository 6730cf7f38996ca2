"""Competition graphs of digraphs.

In the p-competition graph of a digraph D, distinct vertices x and y are
adjacent iff they have at least p distinct common prey, i.e. p vertices v
with (x, v) and (y, v) both arcs of D.  The common prey may include x or y
themselves (loops contribute like any other arc), and the output keeps the
full vertex set even for isolated vertices.  p = 1 is the ordinary
competition graph.

The count for a pair is the popcount of the AND of two out-masks.  Two
scans give the same graph.  The all-pairs scan counts all n(n-1)/2 pairs.
The prey scan counts only candidate pairs: x's candidates are the union
of the in-masks (predator masks) of the lowest k - p + 1 of x's k prey,
which by ``graphs._sharers`` holds every vertex sharing p prey with x, and
only candidates above x are counted.  The scans read the digraph's
in-masks, which every digraph holds from construction (see ``graphs``).

The prey scan wins when the candidates are few, and loses when prey are
shared so widely that most pairs are candidates, since a candidate costs
about two all-pairs pair tests.  ``_all_pairs_cheaper`` estimates the
candidates from the in-masks in O(n) bit counts: for each x, the k - p + 1
ORed masks times the predators above x of x's lowest prey.  Counting only
predators above x matters: in a cycle cover's realization the lowest prey
of most x is a set ending at x, so the scan meets almost no candidates.
"""

from __future__ import annotations

from .errors import InvalidParameterError
from .graphs import Digraph, Graph, _sharers


def common_prey_count(d: Digraph, x: int, y: int) -> int:
    """Number of vertices v such that (x, v) and (y, v) are both arcs."""
    if x == y:
        raise InvalidParameterError("common prey is defined for distinct vertices")
    if not (0 <= x < d.n and 0 <= y < d.n):
        raise InvalidParameterError(f"vertices ({x},{y}) out of range for n={d.n}")
    return (d.out_mask(x) & d.out_mask(y)).bit_count()


def p_competition_graph(d: Digraph, p: int) -> Graph:
    """Graph on d's vertices with {x, y} an edge iff they share >= p prey."""
    if p < 1:
        raise InvalidParameterError(f"need p >= 1, got p={p}")
    return (_all_pairs_scan if _all_pairs_cheaper(d, p) else _prey_scan)(d, p)


def _all_pairs_cheaper(d: Digraph, p: int) -> bool:
    """True iff the estimated cost of the prey scan exceeds n(n-1)/2 pair
    tests: each ORed in-mask costs one, each candidate two, and x's
    candidates are taken as its k - p + 1 ORed masks times the predators
    above x of its lowest prey."""
    preds = d._in
    cost = 0
    for x, ox in enumerate(d._out):
        r = ox.bit_count() - p + 1
        if r > 0:
            above = (preds[(ox & -ox).bit_length() - 1] >> x + 1).bit_count()
            cost += r * (2 * above + 1)
    return cost > d.n * (d.n - 1) // 2


def _all_pairs_scan(d: Digraph, p: int) -> Graph:
    """p_competition_graph counted over all n(n-1)/2 pairs."""
    n, out = d.n, d._out
    adj = [0] * n
    for x, ox in enumerate(out):
        bit, row = 1 << x, 0
        for y in range(x + 1, n):
            if (ox & out[y]).bit_count() >= p:
                row |= 1 << y
                adj[y] |= bit
        adj[x] |= row
    return Graph._from_masks(n, adj)


def _prey_scan(d: Digraph, p: int) -> Graph:
    """p_competition_graph counted over the pairs that may share p prey."""
    out, preds = d._out, d._in
    adj = [0] * d.n
    for x, ox in enumerate(out):
        bit, row = 1 << x, 0
        near = _sharers(ox, preds, p) & -(bit << 1)  # candidates above x
        while near:
            low = near & -near
            y = low.bit_length() - 1
            if (ox & out[y]).bit_count() >= p:
                row |= low
                adj[y] |= bit
            near ^= low
        adj[x] |= row
    return Graph._from_masks(d.n, adj)
