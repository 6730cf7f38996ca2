"""Competition graphs of digraphs.

In the p-competition graph of a digraph D, distinct vertices x and y are
adjacent iff they have at least p distinct common prey, i.e. p vertices v
with (x, v) and (y, v) both arcs of D.  The common prey may include x or y
themselves (loops contribute like any other arc), and the output keeps the
full vertex set even for isolated vertices.  p = 1 is the ordinary
competition graph.

The count for a pair is the popcount of the AND of two out-masks.  On a
sparse digraph (at most n^2/8 arcs, mean out-degree at most n/8) only
candidate pairs are counted: each prey's predators are gathered into one
mask, and x's candidates are the union of those masks over the lowest
k - p + 1 of x's k prey, which by ``graphs._sharers`` holds every vertex
sharing p prey with x.  Denser digraphs share prey between most pairs
anyway, and there the plain scan of all n(n-1)/2 pairs is faster.  Both
give the same graph.
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
    n = d.n
    out = d._out
    adj = [0] * n
    if sum(o.bit_count() for o in out) * 8 > n * n:
        for x in range(n):
            ox = out[x]
            for y in range(x + 1, n):
                if (ox & out[y]).bit_count() >= p:
                    adj[x] |= 1 << y
                    adj[y] |= 1 << x
        return Graph._from_masks(n, adj)
    # preds[v]: the vertices with an arc to v
    preds = [0] * n
    for x, ox in enumerate(out):
        bit = 1 << x
        while ox:
            low = ox & -ox
            preds[low.bit_length() - 1] |= bit
            ox ^= low
    for x, ox in enumerate(out):
        bit = 1 << x
        near = _sharers(ox, preds, p) & -(bit << 1)  # candidates above x
        while near:
            low = near & -near
            y = low.bit_length() - 1
            if (ox & out[y]).bit_count() >= p:
                adj[x] |= low
                adj[y] |= bit
            near ^= low
    return Graph._from_masks(n, adj)
