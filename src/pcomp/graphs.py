"""Undirected graphs and digraphs on vertex set {0, ..., n-1}.

Both structures are immutable after construction, hashable, and safe to
share between threads.  Adjacency is kept as per-vertex bitmasks so that
pair queries and common-neighbor counts are cheap even inside exhaustive
searches.

JSON wire formats:

    graph   {"n": <int>, "edges": [[i, j], ...]}   (i < j on write)
    digraph {"n": <int>, "arcs":  [[x, v], ...]}   (loops [x, x] allowed)

Edges are accepted in either endpoint order on read.  ``n`` and every
vertex must be a JSON integer (not a boolean, float or string).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InvalidParameterError


def _normalize_edge(u: int, v: int, n: int) -> tuple[int, int]:
    if u == v:
        raise InvalidParameterError(f"self-pair ({u},{v}) is not a valid edge")
    if not (0 <= u < n and 0 <= v < n):
        raise InvalidParameterError(f"edge ({u},{v}) out of range for n={n}")
    return (u, v) if u < v else (v, u)


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a nonnegative mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


class Graph:
    """Simple undirected graph.

    ``edges`` is a frozenset of pairs ``(u, v)`` with ``u < v``.  Equality is
    label-sensitive: two graphs are equal iff they have the same vertex count
    and identical edge sets (isomorphism is out of scope here).
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 1:
            raise InvalidParameterError(f"need at least one vertex, got n={n}")
        normalized = frozenset(_normalize_edge(u, v, n) for u, v in edges)
        adj = [0] * n
        for u, v in normalized:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.edges = normalized
        self._adj = tuple(adj)

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool(self._adj[u] >> v & 1)

    def neighbor_mask(self, v: int) -> int:
        """Bitmask with bit u set iff {u, v} is an edge."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


class Digraph:
    """Directed graph; loops (x, x) are permitted, duplicate arcs collapse."""

    __slots__ = ("n", "arcs", "_out")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()) -> None:
        if n < 1:
            raise InvalidParameterError(f"need at least one vertex, got n={n}")
        cleaned = set()
        for x, v in arcs:
            if not (0 <= x < n and 0 <= v < n):
                raise InvalidParameterError(f"arc ({x},{v}) out of range for n={n}")
            cleaned.add((x, v))
        out = [0] * n
        for x, v in cleaned:
            out[x] |= 1 << v
        self.n = n
        self.arcs = frozenset(cleaned)
        self._out = tuple(out)

    def out_mask(self, x: int) -> int:
        """Bitmask of prey of x (bit v set iff (x, v) is an arc)."""
        return self._out[x]

    def out_degree(self, x: int) -> int:
        return self._out[x].bit_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={sorted(self.arcs)})"


def make_cycle(n: int) -> Graph:
    """The cycle on vertices 0..n-1 with edges {i, i+1 mod n}; needs n >= 3."""
    if n < 3:
        raise InvalidParameterError(f"a cycle requires n >= 3, got n={n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the non-edges of g."""
    full = (1 << g.n) - 1
    edges = [
        (u, v)
        for u in range(g.n)
        for v in iter_bits(~g.neighbor_mask(u) & full & -(2 << u))
    ]
    return Graph(g.n, edges)


def is_clique(g: Graph, members: Iterable[int]) -> bool:
    """True iff every two distinct members are adjacent in g.

    The empty set and singletons count as cliques.
    """
    vs = sorted(set(members))
    for v in vs:
        if not 0 <= v < g.n:
            raise InvalidParameterError(f"vertex {v} out of range for n={g.n}")
    mask = 0
    for v in vs:
        mask |= 1 << v
    for v in vs:
        want = mask & ~(1 << v)
        if g.neighbor_mask(v) & want != want:
            return False
    return True


# --- JSON / DOT ---------------------------------------------------------


def vertex_lists_from_json(data: dict, kind: str, field: str,
                           arity: int | None = None) -> tuple[int, list[list[int]]]:
    """Read ``n`` and the vertex lists under ``field`` of a JSON object.

    Only plain integers pass, as ``n`` and as vertices: booleans, floats and
    numeric strings are rejected rather than coerced.  With ``arity`` given,
    every list must have exactly that many vertices.
    """
    try:
        n = data["n"]
        rows = data[field]
    except (TypeError, KeyError) as exc:
        raise InvalidParameterError(f"{kind} JSON needs 'n' and '{field}': {exc}") from exc
    if type(n) is not int:
        raise InvalidParameterError(f"{kind} JSON field 'n' must be an integer, got {n!r}")
    try:
        lists = [list(row) for row in rows]
    except TypeError as exc:
        raise InvalidParameterError(f"malformed {kind} {field}: {exc}") from exc
    for row in lists:
        if arity is not None and len(row) != arity:
            raise InvalidParameterError(
                f"malformed {kind} {field}: {row!r} does not have {arity} vertices")
        for v in row:
            if type(v) is not int:
                raise InvalidParameterError(
                    f"malformed {kind} {field}: vertex {v!r} is not an integer")
    return n, lists


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def graph_from_json_dict(data: dict) -> Graph:
    return Graph(*vertex_lists_from_json(data, "graph", "edges", arity=2))


def digraph_to_json_dict(d: Digraph) -> dict:
    return {"n": d.n, "arcs": [list(a) for a in sorted(d.arcs)]}


def digraph_from_json_dict(data: dict) -> Digraph:
    return Digraph(*vertex_lists_from_json(data, "digraph", "arcs", arity=2))


def graph_to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    lines += [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in sorted(g.edges)]
    lines.append("}")
    return "\n".join(lines)


def digraph_to_dot(d: Digraph) -> str:
    lines = ["digraph D {"]
    lines += [f"  {v};" for v in range(d.n)]
    lines += [f"  {x} -> {v};" for x, v in sorted(d.arcs)]
    lines.append("}")
    return "\n".join(lines)
