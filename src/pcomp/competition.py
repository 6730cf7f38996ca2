"""Competition graphs of digraphs.

In the p-competition graph of a digraph D, distinct vertices x and y are
adjacent iff they have at least p distinct common prey, i.e. p vertices v
with (x, v) and (y, v) both arcs of D.  The common prey may include x or y
themselves (loops contribute like any other arc), and the output keeps the
full vertex set even for isolated vertices.  p = 1 is the ordinary
competition graph.

When at least p - 1 vertices are prey of every vertex, as in the
realization of a lifted cover and at every p = 1, x's neighbours are
the OR of in-masks that ``graphs._one_short_unions`` gives for x, less
x itself, with no pair count.  Otherwise the count
for a pair is the popcount of the AND of two out-masks, and one pass
over the predators x counts x against vertices above it.  A
predator with fewer than p prey shares p with nobody and is skipped.
Otherwise, with k prey, x's candidates are the union of the in-masks
(predator masks) of its lowest k - p + 1 prey, which by
``graphs._sharers`` holds every vertex sharing p prey with x.  Walking
the candidates above x costs one pair test per ORed mask and about two
per candidate; the plain loop tests each of the n - x - 1 vertices above
x once.  x walks iff the walk's estimated cost is at most n - x - 1, with
its candidates taken as the k - p + 1 masks times the predators above x
of its lowest prey (one shift and bit count).  Counting only predators
above x matters: in a cycle cover's realization the lowest prey of most
x is a set ending at x, so the walk meets almost no candidates.
The two loops stay apart: one loop body walking candidates through
``iter_bits`` was 1.11-1.15x slower on cycle-cover realizations.  The
in-masks come with every digraph (see ``graphs``).
"""

from __future__ import annotations

from .errors import InvalidParameterError, _at_least
from .graphs import Digraph, Graph, _one_short_unions, _sharers


def common_prey_count(d: Digraph, x: int, y: int) -> int:
    """Number of vertices v such that (x, v) and (y, v) are both arcs;
    Digraph.out_mask checks each vertex."""
    if x == y:
        raise InvalidParameterError("common prey is defined for distinct vertices")
    return (d.out_mask(x) & d.out_mask(y)).bit_count()


def p_competition_graph(d: Digraph, p: int) -> Graph:
    """Graph on d's vertices with {x, y} an edge iff they share >= p prey."""
    _at_least("p", p, 1)
    n, out, preds = d.n, d._out, d._in
    unions = _one_short_unions(out, preds, p)
    if unions is not None:  # x's neighbours: its union without x
        return Graph._from_masks(n, [near & ~(1 << x) for x, near in enumerate(unions)])
    adj = [0] * n
    for x, ox in enumerate(out):
        r = ox.bit_count() - p + 1  # in-masks ORed into x's candidates
        if r < 1:
            continue
        bit, row = 1 << x, 0
        above = (preds[(ox & -ox).bit_length() - 1] >> x + 1).bit_count()
        if r * (2 * above + 1) <= n - x - 1:  # walk the candidates above x
            near = _sharers(ox, preds, p) & -(bit << 1)
            while near:
                low = near & -near
                y = low.bit_length() - 1
                if (ox & out[y]).bit_count() >= p:
                    row |= low
                    adj[y] |= bit
                near ^= low
        else:  # count every vertex above x
            for y in range(x + 1, n):
                if (ox & out[y]).bit_count() >= p:
                    row |= 1 << y
                    adj[y] |= bit
        adj[x] |= row
    return Graph._from_masks(n, adj)
