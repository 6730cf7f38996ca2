"""Competition graphs of digraphs.

In the p-competition graph of a digraph D, distinct vertices x and y are
adjacent iff they have at least p distinct common prey, i.e. p vertices v
with (x, v) and (y, v) both arcs of D.  The common prey may include x or y
themselves (loops contribute like any other arc), and the output keeps the
full vertex set even for isolated vertices.  p = 1 is the ordinary
competition graph.

Each vertex's neighbours are its partners, the predators sharing p prey
with it, read off the out- and in-masks by ``graphs._partners``, which
states its rules.  The in-masks come with every digraph (see ``graphs``).
"""

from __future__ import annotations

from .errors import InvalidParameterError, _at_least
from .graphs import Digraph, Graph, _partners


def common_prey_count(d: Digraph, x: int, y: int) -> int:
    """Number of vertices v such that (x, v) and (y, v) are both arcs."""
    shared = d.out_mask(x) & d.out_mask(y)  # out_mask checks each vertex first
    if x == y:
        raise InvalidParameterError("common prey is defined for distinct vertices")
    return shared.bit_count()


def p_competition_graph(d: Digraph, p: int) -> Graph:
    """Graph on d's vertices with {x, y} an edge iff they share >= p prey."""
    _at_least("p", p, 1)
    return Graph._from_masks(d.n, _partners(d._out, d._in, p))
