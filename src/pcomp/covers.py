"""Vertex-set families: p-edge clique cover verification and the cover
constructions for cycles and complements of cycles.

A family F = (S_0, ..., S_{r-1}) of vertex subsets is a p-edge clique cover
of a graph G when every intersection of p of its sets is a clique of G and
those intersections cover all edges of G.  Both conditions reduce to pair
counting:

    (a) every nonadjacent pair of distinct vertices lies together in at
        most p-1 sets, and
    (b) every edge lies together in at least p sets.

A pair is in some p-wise intersection iff it lies in at least p sets, which
gives the equivalence; the test suite re-checks it against the literal
all-p-subsets definition on small instances.

Pair counts are popcounts of per-vertex set masks: with bit j of rows[v]
set iff v is in S_j, the pair {u, v} lies in (rows[u] & rows[v]).bit_count()
sets.  rows[v] is the out-mask of v in realize(F), so the verifier reads
each vertex's partners (the vertices sharing p sets with it) from the
kernel that builds the p-competition map, ``graphs._partners``, which
states its rules.  A cover holds these masks, rows and members (bit v of
members[j] set iff v is in S_j), beside its sets; ``CliqueCover._trusted``
states the one rule by which each view is built on first read and kept.

``CliqueCover(n, sets)`` checks n, and each distinct member once: an int
(not a bool) in 0..n - 1, else ``graphs._vertex``'s message after the
set's index.  The constructions build through ``CliqueCover._trusted``,
which checks nothing, since their members are below n by construction.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import InfeasibleError, InvalidParameterError, _at_least
from .graphs import Graph, _partners, _vertex, vertex_lists_from_json

REASON_UNCOVERED_EDGE = "uncovered-edge"
REASON_NONEDGE_IN_P_SETS = "nonedge-in-p-sets"
REASON_FAMILY_SMALLER_THAN_P = "family-smaller-than-p"


def _incidence_of(f: CliqueCover) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """f's incidence built from its sets, a cover's default ``_inc``: with
    r sets and I members in all, through a byte grid when 16 * I > n * r +
    8192, and member by member otherwise.  The grid holds one n-byte row of
    ASCII '0's per set, with a '1' stored at each member, so a member costs
    one byte store instead of big-int ORs: members[j] is row j reversed and
    read in base 2, and rows[v] is column v (one strided slice of the
    joined rows) read the same way.  The grid costs n * r bytes whatever
    the family holds, so it loses on sparse and on small families.
    """
    n, sets = f.n, f.sets
    members = []
    # the grid and the loop cross at a density of 0.05-0.09 at n = r = 300
    # and 1000 (BENCH_pr35_incidence.json); r = 0 never takes the grid, so
    # no row or column it reads is empty
    if 16 * sum(map(len, sets)) > n * len(sets) + 8192:
        blank = b"0" * n
        grid = bytearray()
        for s in sets:
            row = bytearray(blank)
            for v in s:
                row[v] = 49  # b"1"
            members.append(int(row[::-1], 2))
            grid += row
        rows = [int(grid[v::n][::-1], 2) for v in range(n)]
    else:
        rows = [0] * n
        for j, s in enumerate(sets):
            bit = 1 << j
            m = 0
            for v in s:
                rows[v] |= bit
                m |= 1 << v
            members.append(m)
    return tuple(rows), tuple(members)


class CliqueCover:
    """Ordered multifamily of vertex subsets over a host vertex count.

    Order is significant (realization feeds set j to prey vertex j) and
    repeated sets are allowed.  Sets may contain nonadjacent vertices; for
    p >= 2 that is often necessary.
    """

    __slots__ = ("n", "_sets", "_inc")

    def __init__(self, n: int, sets: Iterable[Iterable[int]]) -> None:
        _at_least("n", n, 1)
        frozen = tuple(frozenset(s) for s in sets)
        # each distinct member is checked once; on a failure the loop below
        # names the first set that fails, in the order given
        if not all(type(v) is int and 0 <= v < n for v in frozenset().union(*frozen)):
            for k, s in enumerate(frozen):
                try:
                    for v in s:
                        _vertex(v, n)
                except InvalidParameterError as exc:
                    raise InvalidParameterError(f"set {k}: {exc}") from exc
        self.n = n
        self._sets = frozen
        self._inc = _incidence_of

    @classmethod
    def _trusted(cls, n: int, sets: Iterable[Iterable[int]] | Callable[[CliqueCover], tuple],
                 inc: tuple | Callable[[CliqueCover], tuple] = _incidence_of) -> CliqueCover:
        """Cover of ``sets``, trusted to hold only vertices below n >= 1,
        and of ``inc``, trusted to be their incidence.

        One rule for a cover's two views, ``sets`` and ``_incidence()``:
        the slots ``_sets`` and ``_inc`` each hold the value or a builder,
        a function of the cover that runs on first read and whose result
        is kept (threads racing to run it store equal values).  A callable
        ``sets`` is a builder; an incidence not given is built from the
        sets.  A construction's builders read its closed form or its base
        cover, never its other view, so a reader of one view builds only
        that one: ``len`` (while the sets are a builder), verify_p_ecc and
        realize read the masks; equality, hash, repr, iteration and JSON
        read the sets.
        """
        f = cls.__new__(cls)
        f.n = n
        f._sets = sets if callable(sets) else tuple(map(frozenset, sets))
        f._inc = inc
        return f

    @property
    def sets(self) -> tuple[frozenset[int], ...]:
        """The sets in order, as frozensets, read by ``_trusted``'s rule."""
        sets = self._sets
        if callable(sets):
            sets = self._sets = sets(self)
        return sets

    def _incidence(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(rows, members): bit j of rows[v] and bit v of members[j] are set
        iff v is in set j; read by ``_trusted``'s rule."""
        inc = self._inc
        if callable(inc):
            inc = self._inc = inc(self)
        return inc

    def __len__(self) -> int:
        return len(self._incidence()[1] if callable(self._sets) else self._sets)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self.sets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CliqueCover):
            return NotImplemented
        return self.n == other.n and self.sets == other.sets

    def __hash__(self) -> int:
        return hash((self.n, self.sets))

    def __repr__(self) -> str:
        return f"CliqueCover(n={self.n}, sets={[sorted(s) for s in self.sets]})"

    def __reduce__(self) -> tuple:
        # pickle refuses a builder (often a local function), so a pickled
        # cover carries its sets as a value, and its incidence as a value
        # once built, else as the default builder, which pickles by name
        inc = self._inc
        return CliqueCover._trusted, (self.n, self.sets, _incidence_of if callable(inc) else inc)


class Verdict(NamedTuple):
    """Verification outcome; invalid verdicts carry a concrete witness pair."""

    valid: bool
    reason: str | None = None
    pair: tuple[int, int] | None = None

    def to_json_dict(self) -> dict:
        if self.valid:
            return {"valid": True, "witness": None}
        witness: dict = {"reason": self.reason}
        if self.pair is not None:
            witness["pair"] = list(self.pair)
        return {"valid": False, "witness": witness}


def verify_p_ecc(g: Graph, f: CliqueCover, p: int) -> Verdict:
    """Decide whether f is a p-edge clique cover of g.

    An invalid verdict names the least offending pair (u, v), u < v: a
    nonadjacent pair lying in p common sets, or an edge lying in fewer
    than p.  A family with fewer than p sets covers no edge, so an edge it
    leaves short is reported as ``family-smaller-than-p`` (and the family
    is valid when g has no edges, matching the p-subset definition).
    """
    if f.n != g.n:
        raise InvalidParameterError(
            f"host vertex counts differ: graph has n={g.n}, family has n={f.n}")
    _at_least("p", p, 1)
    adj = g._adj
    rows, members = f._incidence()
    # row u offends where its partners and neighbours differ; both are
    # symmetric, so the first row that differs does so above u alone, and
    # its lowest such v gives the least pair
    for u, near in enumerate(_partners(rows, members, p)):
        if near != adj[u]:
            wrong = near ^ adj[u]
            v = (wrong & -wrong).bit_length() - 1
            if near >> v & 1:
                return Verdict(False, REASON_NONEDGE_IN_P_SETS, (u, v))
            reason = REASON_FAMILY_SMALLER_THAN_P if len(members) < p else REASON_UNCOVERED_EDGE
            return Verdict(False, reason, (u, v))
    return Verdict(True)


def verify_ecc(g: Graph, f: CliqueCover) -> Verdict:
    """Decide whether f is an edge clique cover of g.

    Equivalent to verify_p_ecc with p = 1: every set must be a clique
    (a non-clique set exhibits a nonadjacent pair inside one set) and
    every edge must lie inside some set.
    """
    return verify_p_ecc(g, f, 1)


def cycle_cover(n: int, p: int) -> CliqueCover:
    """The p-edge clique cover of the cycle on n vertices by consecutive runs.

    Set i is {i, i+1, ..., i+p} mod n.  A set holds a pair at cyclic
    distance d iff it covers one of the two arcs between the pair, so the
    pair shares max(0, p+1-d) + max(0, p+1-(n-d)) sets: exactly p for the
    cycle's edges, and with n >= p+3 at most p-1 for everything else.
    Below p+3 no family of at most n sets works at all.
    """
    _at_least("p", p, 1)
    _at_least("n", n, 3)
    if n < p + 3:
        raise InfeasibleError(f"cycle cover requires n >= p+3 (got n={n}, p={p})")
    wrap = n - p  # runs from i >= wrap pass n - 1 and go on from 0
    run, full = (1 << (p + 1)) - 1, (1 << n) - 1
    # members[i] is the run rotated by i; v lies in sets v-p..v, whose mask
    # is the run rotated by v - p, which is members[(v + wrap) % n]
    members = (*(run << i for i in range(wrap)),
               *(((run << i) & full) | (run >> (n - i)) for i in range(wrap, n)))

    def sets(_):  # one run slid along the cycle and copied at each step: a copy
        # of a set keeps its members' hashes and is sized for them once, and
        # every set shares the ints of one vertex tuple
        vs = tuple(range(n))
        run = set(vs[:p + 1])
        out = [frozenset(run)]
        for i, v in zip(vs, vs[p + 1:] + vs[:p]):
            run.discard(i)
            run.add(v)
            out.append(frozenset(run))
        return tuple(out)

    return CliqueCover._trusted(n, sets, (members[wrap:] + members[:wrap], members))


# Edge clique covers of complement(C_n) for n = 5..8.  These minima are
# irregular, so they are stored as data; sizes are 5, 5, 7, 6.
_SMALL_COMPLEMENT_FAMILIES: dict[int, tuple[tuple[int, ...], ...]] = {
    5: ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4)),
    6: ((0, 2, 4), (1, 3, 5), (2, 5), (1, 4), (0, 3)),
    7: ((0, 2, 5), (1, 3, 6), (2, 0, 4), (3, 1, 5), (4, 2, 6), (0, 3), (1, 4)),
    8: ((0, 3, 5), (2, 5, 7), (4, 1, 7), (6, 1, 3), (0, 2, 4, 6), (1, 3, 5, 7)),
}


def complement_cycle_cover(n: int) -> CliqueCover:
    """An edge clique cover of complement(C_n) for n >= 5.

    Sizes: 5 -> 5, 6 -> 5, 7 -> 7, 8 -> 6, odd n >= 9 -> (n+5)/2,
    even n >= 10 -> n/2 + 1.  Every emitted set is an independent set of
    C_n, hence a clique of the complement.  Below n = 5 the complement is
    edgeless (n = 3) or a perfect matching (n = 4) and is excluded here.

    From n = 9 the sets are, in order: the evens 0..n-2; 0 and the odds
    3..n-2; for odd n the odds 1..n-2; then t_i for each i in 1..n-2 of
    n's parity, ascending, where t_i is i and the vertices 1..n-1 of the
    other parity but i - 1 and i + 1.  The cover builds their masks in
    closed form, and the sets, each on first read.
    """
    _at_least("n", n, 5)
    if n <= 8:
        return CliqueCover._trusted(n, _SMALL_COMPLEMENT_FAMILIES[n])
    odd = n % 2
    ts = range(2 - odd, n - 1, 2)  # t_i flips i - 1, i and i + 1 (never 0) in other

    def masks(_):
        evens = ((1 << n - odd) - 1) // 3  # 0, 2, ..., n - 2
        odds = evens << 1 & (1 << n - 1) - 1  # 1, 3, ..., n - 2
        other = (1 << n + 1) // 3 & -2  # 1..n - 1 of the parity of n - 1
        members = (evens, odds ^ 3, *(odds,) * odd, *(other ^ 7 << i - 1 & -2 for i in ts))
        t = (1 << len(members)) - (1 << 2 + odd)  # the bits of the t_i
        # vertex 0 lies in sets 0 and 1, a vertex of n's parity in one t_i,
        # and one of the other parity in every t_i but two adjacent ones
        if odd:  # t_i is set i // 2 + 3
            return (3, 12, *(r for v in range(2, n - 2, 2)
                             for r in (t & ~(3 << v // 2 + 2) | 1, 6 | 1 << v // 2 + 3)),
                    t ^ 1 << n // 2 + 2), members
        # t_i is set i // 2 + 1
        return (3, t ^ 4, 5, *(r for v in range(3, n - 2, 2)
                               for r in (t & ~(3 << (v + 1) // 2) | 2, 1 | 1 << (v + 3) // 2)),
                t ^ 1 << n // 2), members

    def sets(_):  # slices of one vertex tuple, so the sets share its ints
        vs = tuple(range(n))
        base = frozenset(vs[1 + odd::2])
        return (frozenset(vs[:n - 1:2]), frozenset((0, *vs[3:n - 1:2])),
                *([frozenset(vs[1:n - 1:2])] if odd else ()),
                *(frozenset(vs[max(i - 1, 1):i + 2]).symmetric_difference(base) for i in ts))

    return CliqueCover._trusted(n, sets, masks)


def lift_cover(f: CliqueCover, p: int) -> CliqueCover:
    """Turn an edge clique cover into a p-edge clique cover by appending
    p-1 copies of the full vertex set.

    Any p of the lifted sets include at least one original clique, so their
    intersection is a clique; an edge covered by original set S lies in the
    p sets {S, V, ..., V}.  The output has exactly len(f) + p - 1 sets, so
    it certifies p-competition via realization only while that total stays
    within the host vertex count.  The lift builds its sets from the
    base's sets, and its masks from the base's masks, each on first read.
    """
    _at_least("p", p, 1)
    if p == 1:
        return f

    def masks(_):
        rows, members = f._incidence()
        high = ((1 << p - 1) - 1) << len(members)  # the p - 1 full sets
        return tuple(r | high for r in rows), members + ((1 << f.n) - 1,) * (p - 1)

    # the p - 1 copies share one full set
    return CliqueCover._trusted(
        f.n, lambda _: (*f.sets, *[frozenset(range(f.n))] * (p - 1)), masks)


# --- JSON ---------------------------------------------------------------


def cover_to_json_dict(f: CliqueCover) -> dict:
    return {"n": f.n, "sets": [sorted(s) for s in f.sets]}


def cover_from_json_dict(data: dict) -> CliqueCover:
    return CliqueCover(*vertex_lists_from_json(data, "cover", "sets"))
