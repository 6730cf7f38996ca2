"""Competition graphs of digraphs.

In the p-competition graph of a digraph D, distinct vertices x and y are
adjacent iff they have at least p distinct common prey, i.e. p vertices v
with (x, v) and (y, v) both arcs of D.  The common prey may include x or y
themselves (loops contribute like any other arc), and the output keeps the
full vertex set even for isolated vertices.  p = 1 is the ordinary
competition graph.
"""

from __future__ import annotations

from .errors import InvalidParameterError
from .graphs import Digraph, Graph


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
    for x in range(n):
        ox = out[x]
        for y in range(x + 1, n):
            if (ox & out[y]).bit_count() >= p:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    return Graph._from_masks(n, adj)
