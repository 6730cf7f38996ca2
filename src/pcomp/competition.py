"""Competition graphs of digraphs.

In the p-competition graph of a digraph D, distinct vertices x and y are
adjacent iff they have at least p distinct common prey, i.e. p vertices v
with (x, v) and (y, v) both arcs of D.  The common prey may include x or y
themselves (loops contribute like any other arc), and the output keeps the
full vertex set even for isolated vertices.  p = 1 is the ordinary
competition graph.

When at least p - 1 vertices are prey of every vertex, as in the
realization of a lifted cover and at every p = 1, x's neighbours are the
OR of in-masks that ``graphs._one_short_unions`` gives for x, less x
itself.  Otherwise x counts its common prey, by popcount, only with the
candidates above it that ``graphs._sharers`` gives for x.  Each of the
two functions says why its rule holds.  The in-masks come with every
digraph (see ``graphs``).
"""

from __future__ import annotations

from .errors import InvalidParameterError, _at_least
from .graphs import Digraph, Graph, _one_short_unions, _sharers


def common_prey_count(d: Digraph, x: int, y: int) -> int:
    """Number of vertices v such that (x, v) and (y, v) are both arcs."""
    shared = d.out_mask(x) & d.out_mask(y)  # out_mask checks each vertex first
    if x == y:
        raise InvalidParameterError("common prey is defined for distinct vertices")
    return shared.bit_count()


def p_competition_graph(d: Digraph, p: int) -> Graph:
    """Graph on d's vertices with {x, y} an edge iff they share >= p prey."""
    _at_least("p", p, 1)
    n, out, preds = d.n, d._out, d._in
    unions = _one_short_unions(out, preds, p)
    if unions is not None:  # x's neighbours: its union without x
        return Graph._from_masks(n, [near & ~(1 << x) for x, near in enumerate(unions)])
    adj = [0] * n
    for x, ox in enumerate(out):
        bit, row = 1 << x, 0
        near = _sharers(ox, preds, p) & -(bit << 1)
        while near:
            low = near & -near
            y = low.bit_length() - 1
            if (ox & out[y]).bit_count() >= p:
                row |= low
                adj[y] |= bit
            near ^= low
        adj[x] |= row
    return Graph._from_masks(n, adj)
