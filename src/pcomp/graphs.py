"""Undirected graphs and digraphs on vertex set {0, ..., n-1}.

The stored form of both structures is one bitmask per vertex: bit v of
``Graph._adj[u]`` is set iff {u, v} is an edge, bit v of ``Digraph._out[x]``
iff (x, v) is an arc.  Pair queries, common-neighbour counts, complements
and equality are then a few integer operations per vertex, even inside
exhaustive searches.  The masks are all an instance holds: ``Graph.edges``
and ``Digraph.arcs`` build a fresh frozenset from them on every read, and
the JSON and DOT writers and ``repr`` read the pairs off the masks, already
in ascending order.  A digraph also holds its in-masks (bit x of
``Digraph._in[v]`` set iff (x, v) is an arc) in one private slot:
``Digraph(n, arcs)`` fills them in the loop that fills the out-masks, and
the realizations hand them over with the out-masks.

Both structures are immutable after construction and hashable, so they
are safe to share between threads.

``Graph(n, edges)`` and ``Digraph(n, arcs)`` check n with
``errors._at_least`` and both ends of every edge and arc with ``_vertex``.
The private ``_from_masks`` constructors check nothing; they serve library
code whose masks are correct by construction (symmetric and loop-free for
graphs, within n bits for both).

JSON wire formats:

    graph   {"n": <int>, "edges": [[i, j], ...]}   (i < j on write)
    digraph {"n": <int>, "arcs":  [[x, v], ...]}   (loops [x, x] allowed)

Edges are accepted in either endpoint order on read.  ``n`` and every
vertex must be a JSON integer (not a boolean, float or string), and ``n``
may be at most MAX_N.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InvalidParameterError, _at_least

# Largest vertex count the JSON readers and the CLI accept: co-C_2048 has
# 2.1M edges, about the largest graph JSON the CLI should write.  Library
# constructors are not capped.
MAX_N = 2048


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a nonnegative mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


_NIBBLES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def _or_tables(masks: tuple[int, ...]) -> list[tuple[int, ...]]:
    """For each four masks masks[i..i+3] (i a multiple of 4), the 16 ORs of
    their subsets, entry b the OR of masks[i + t] over the set bits t of b."""
    tables = []
    padded = (*masks, 0, 0, 0)
    for i in range(0, len(masks), 4):
        a, b, c, d = padded[i:i + 4]
        ab, ac, bc = a | b, a | c, b | c
        abc = ab | c
        tables.append((0, a, b, ab, c, ac, bc, abc,
                       d, a | d, b | d, ab | d, c | d, ac | d, bc | d, abc | d))
    return tables


def _partners(rows: tuple[int, ...], masks: tuple[int, ...], p: int) -> Iterator[int]:
    """For each u in order, a mask of the vertices v != u that share at
    least p sets with u, (rows[u] & rows[v]).bit_count() >= p; bit u is
    clear, so the rows are symmetric.

    Read rows[u] as the sets holding u (or the prey of predator u) and
    masks[j] as the members of set j (the predators of prey j).  Two
    vertices share as many prey in realize(F) as they share sets in F
    (Kim, McKee, McMorris and Roberts, LAA 217, 1995), so this one kernel
    serves the verifier and the p-competition map.  The rows are found
    lazily, each in one of two ways, so a scan that stops early pays only
    for the rows it read.

    Union mode.  A set in every row is a full set, like the p - 1 copies
    of V that ``lift_cover`` appends.  When there are at least p - 1 of
    them, set p - 1 aside: every two vertices share those, so v shares p
    sets with u iff v lies in one of u's other sets, and the row is their
    OR without u.  The full sets beyond p - 1 stay in the OR, so with p or
    more of them every row is every vertex but u.  At p = 1 nothing is set
    aside, so this mode serves every p = 1.  The AND of the rows stops
    once it reaches 0.

    Count mode.  Otherwise row u counts shared sets by popcount, with the
    vertices above u only, and carries each hit v to row v.  A vertex that
    shares p of u's k sets misses at most k - p of them, so by pigeonhole
    it lies in one of any k - p + 1 of them: when more than k - p
    vertices lie above u, only those in u's lowest k - p + 1 sets are
    counted, else counting them all is cheaper than narrowing.
    """
    every = -1
    for row in rows:
        every &= row
        if not every:
            break
    spare = every.bit_count() - p + 1  # full sets beyond the p - 1 set aside
    if spare >= 0:
        for _ in range(spare):  # the lowest of them go back into the ORs
            every &= every - 1
        yield from _unions(rows, masks, ~every)
        return
    n = len(rows)
    lower = [0] * n  # each row's partners below it, carried from their rows
    for u, row in enumerate(rows):
        m = (1 << n) - (2 << u)  # the vertices above u
        spare = row.bit_count() - p  # sets of u a partner may miss
        if n - 1 - u > spare:
            near, bits = 0, row
            for _ in range(spare + 1):
                low = bits & -bits
                near |= masks[low.bit_length() - 1]
                bits ^= low
            m &= near
        bit, found = 1 << u, 0
        while m:
            low = m & -m
            v = low.bit_length() - 1
            if (row & rows[v]).bit_count() >= p:
                found |= low
                lower[v] |= bit
            m ^= low
        yield lower[u] | found


def _unions(rows: tuple[int, ...], masks: tuple[int, ...], keep: int) -> Iterator[int]:
    """The union-mode rows of ``_partners``: for each row u, the OR of
    masks[j] over its bits j in keep, without u.  A row whose bits are
    dense in its length reads its OR from ``_or_tables``, one lookup per
    four sets, built once at the first such row; a sparse one ORs its masks
    one by one."""
    tables = None
    for u, row in enumerate(rows):
        row &= keep
        near = 0
        # the tables take one lookup per four bits up to the row's top bit,
        # each about a third of one OR step, plus a fixed cost of about three
        # steps (measured on 40- to 1000-bit rows)
        if 12 * row.bit_count() > row.bit_length() + 40:
            if tables is None:
                tables = _or_tables(masks)
            for table, nibble in zip(tables, f"{row:x}".encode().translate(_NIBBLES)[::-1]):
                near |= table[nibble]
        else:
            while row:
                low = row & -row
                near |= masks[low.bit_length() - 1]
                row ^= low
        yield near and near ^ 1 << u  # u lies in every set it ORed


def _vertex(v: int, n: int) -> int:
    """v, checked to be an int (not a bool) among the vertices 0..n-1."""
    if type(v) is not int:
        raise InvalidParameterError(f"vertex {v!r} is not an integer")
    if not 0 <= v < n:
        raise InvalidParameterError(f"vertex {v} out of range for n={n}")
    return v


def _edge_pairs(adj: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """Edges (u, v) with u < v read off adjacency masks, in ascending order."""
    return ((u, v) for u, a in enumerate(adj) for v in iter_bits(a & -(2 << u)))


def _arc_pairs(out: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """Arcs (x, v) read off out-masks, in ascending order."""
    return ((x, v) for x, a in enumerate(out) for v in iter_bits(a))


class Graph:
    """Simple undirected graph, stored as per-vertex adjacency masks.

    ``edges`` is a frozenset of pairs ``(u, v)`` with ``u < v``, built from
    the masks on each read.  Equality is label-sensitive: two graphs are
    equal iff they have the same vertex count and identical edge sets
    (isomorphism is out of scope here), which is iff their masks are equal.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        _at_least("n", n, 1)
        adj = [0] * n
        for u, v in edges:
            if _vertex(u, n) == _vertex(v, n):
                raise InvalidParameterError(f"self-pair ({u},{v}) is not a valid edge")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)

    @classmethod
    def _from_masks(cls, n: int, adj: Iterable[int]) -> Graph:
        """Graph with adjacency masks ``adj``, trusted to be symmetric,
        loop-free and within n bits."""
        g = cls.__new__(cls)
        g.n = n
        g._adj = tuple(adj)
        return g

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(_edge_pairs(self._adj))

    def has_edge(self, u: int, v: int) -> bool:
        u, v = _vertex(u, self.n), _vertex(v, self.n)
        return u != v and bool(self._adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self._adj[_vertex(v, self.n)].bit_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(_edge_pairs(self._adj))})"


class Digraph:
    """Directed graph, stored as per-vertex out-masks; loops (x, x) are
    permitted, duplicate arcs collapse.

    ``arcs`` is a frozenset of pairs ``(x, v)``, built from the masks on
    each read.  Two digraphs are equal iff they have the same vertex count
    and identical arc sets, which is iff their out-masks are equal; the
    in-masks follow from the out-masks, so equality, hash and repr read
    only those.
    """

    __slots__ = ("n", "_out", "_in")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()) -> None:
        _at_least("n", n, 1)
        out, in_ = [0] * n, [0] * n
        for x, v in arcs:
            out[_vertex(x, n)] |= 1 << _vertex(v, n)
            in_[v] |= 1 << x
        self.n = n
        self._out = tuple(out)
        self._in = tuple(in_)

    @classmethod
    def _from_masks(cls, n: int, out: Iterable[int], in_: tuple[int, ...]) -> Digraph:
        """Digraph with out-masks ``out``, trusted to be within n bits, and
        in-masks ``in_``, trusted to be theirs."""
        d = cls.__new__(cls)
        d.n = n
        d._out = tuple(out)
        d._in = in_
        return d

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset(_arc_pairs(self._out))

    def out_mask(self, x: int) -> int:
        """Bitmask of prey of x (bit v set iff (x, v) is an arc)."""
        return self._out[_vertex(x, self.n)]

    def out_degree(self, x: int) -> int:
        return self.out_mask(x).bit_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self._out == other._out

    def __hash__(self) -> int:
        return hash((self.n, self._out))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={list(_arc_pairs(self._out))})"


def make_cycle(n: int) -> Graph:
    """The cycle on vertices 0..n-1 with edges {i, i+1 mod n}; needs n >= 3."""
    _at_least("n", n, 3)
    return Graph._from_masks(n, [(1 << (v - 1) % n) | (1 << (v + 1) % n) for v in range(n)])


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the non-edges of g."""
    full = (1 << g.n) - 1
    return Graph._from_masks(g.n, [full & ~a & ~(1 << v) for v, a in enumerate(g._adj)])


def is_clique(g: Graph, members: Iterable[int]) -> bool:
    """True iff every two distinct members are adjacent in g.

    The empty set and singletons count as cliques.
    """
    vs = {_vertex(v, g.n) for v in members}
    mask = sum(1 << v for v in vs)
    # v's neighbours hold every other member
    return all(mask & ~g._adj[v] == 1 << v for v in vs)


# --- JSON / DOT ---------------------------------------------------------


def vertex_lists_from_json(data: dict, kind: str, field: str,
                           arity: int | None = None) -> tuple[int, list[list[int]]]:
    """Read ``n`` and the vertex lists under ``field`` of a JSON object.

    Only plain integers pass, as ``n`` and as vertices: booleans, floats and
    numeric strings are rejected rather than coerced.  ``n`` above MAX_N is
    rejected before anything of that size is allocated.  With ``arity``
    given, every list must have exactly that many vertices.
    """
    try:
        n = data["n"]
        rows = data[field]
    except (TypeError, KeyError) as exc:
        raise InvalidParameterError(f"{kind} JSON needs 'n' and '{field}': {exc}") from exc
    if type(n) is not int:
        raise InvalidParameterError(f"{kind} JSON field 'n' must be an integer, got {n!r}")
    if n > MAX_N:
        raise InvalidParameterError(f"{kind} JSON field 'n' is {n}, above the limit {MAX_N}")
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
    return {"n": g.n, "edges": [[u, v] for u, v in _edge_pairs(g._adj)]}


def graph_from_json_dict(data: dict) -> Graph:
    return Graph(*vertex_lists_from_json(data, "graph", "edges", arity=2))


def digraph_to_json_dict(d: Digraph) -> dict:
    return {"n": d.n, "arcs": [[x, v] for x, v in _arc_pairs(d._out)]}


def digraph_from_json_dict(data: dict) -> Digraph:
    return Digraph(*vertex_lists_from_json(data, "digraph", "arcs", arity=2))


def _dot(head: str, n: int, link: str, pairs: Iterable[tuple[int, int]]) -> str:
    """DOT text: every vertex, then one line per pair joined by link."""
    lines = [f"{head} {{", *(f"  {v};" for v in range(n)),
             *(f"  {a} {link} {b};" for a, b in pairs), "}"]
    return "\n".join(lines)


def graph_to_dot(g: Graph) -> str:
    return _dot("graph G", g.n, "--", _edge_pairs(g._adj))


def digraph_to_dot(d: Digraph) -> str:
    return _dot("digraph D", d.n, "->", _arc_pairs(d._out))
