"""Undirected simple graphs with bitmask adjacency.

Vertices are the integers 1..n.  A vertex set travels in one of two
interchangeable forms: a frozenset of ids at API boundaries, or an int
bitmask with bit v set for vertex v inside the solvers (bit 0 is never
used).  The helpers the solvers call (neighborhoods, components,
connected subsets) take and return masks only, and iter_mask turns a
mask into its ascending vertex tuple, memoized in one module-level table
of at most 2^16 masks.  All solver stages only ever delete vertices,
never single edges, so "the current graph" is always the original graph
induced on a mask and vertex ids stay stable through the whole
pipeline, down to the final coloring of each member.

Graph is the one graph type of the package: the pattern H is a Graph on
colors 1..k (pattern.PatternGraph) and the blob graph a weighted one
(mwis.WeightedGraph, blob.BlobGraph).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

__all__ = [
    "Graph",
    "NotP5FreeError",
    "enumerate_connected_subsets",
    "find_induced_c5",
    "find_induced_p5",
    "iter_mask",
    "mask_from",
    "masked_components",
    "maximal_cliques",
    "neighborhood_mask",
    "set_from_mask",
]


def mask_from(vertices: Iterable[int]) -> int:
    """Bitmask with bit v set for every vertex v in the iterable."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


_BITS: dict[int, tuple[int, ...]] = {}
_BITS_CAP = 1 << 16


def iter_mask(mask: int) -> tuple[int, ...]:
    """The set bit positions of mask, ascending, as a tuple.

    The solvers walk the same small masks millions of times, so each
    tuple is built once and then served from a module-level table of at
    most _BITS_CAP masks (2^16); past that, tuples of new masks are
    built on every call and not stored.  Raises ValueError on a
    negative mask, whose set bits never run out.
    """
    try:
        return _BITS[mask]
    except KeyError:
        pass
    if mask < 0:
        raise ValueError(f"mask must be nonnegative, got {mask}")
    bits = []
    rest = mask
    while rest:
        low = rest & -rest
        bits.append(low.bit_length() - 1)
        rest ^= low
    out = tuple(bits)
    if len(_BITS) < _BITS_CAP:
        _BITS[mask] = out
    return out


def set_from_mask(mask: int) -> frozenset[int]:
    return frozenset(iter_mask(mask))


class Graph:
    """Immutable undirected simple graph on vertices 1..n.

    Duplicate edges are tolerated (adjacency is a set); self-loops are
    rejected.  Neighborhoods are stored as bitmasks so that intersection,
    union and difference of neighborhoods are single int operations.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"vertex count must be a nonnegative int, got {n!r}")
        adj = [0] * (n + 1)
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) out of range 1..{n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)

    @classmethod
    def from_adjacency(cls, adj: Sequence[int]) -> "Graph":
        """The graph on 1..len(adj) - 1 in which vertex v has neighborhood
        mask adj[v] (adj[0] unused), as adjacency_masks returns it.  The
        table is taken as it is: it must be symmetric and loopless."""
        g = cls.__new__(cls)
        g.n = len(adj) - 1
        g._adj = tuple(adj)
        return g

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def full_mask(self) -> int:
        """Mask of all vertices."""
        return (1 << (self.n + 1)) - 2 if self.n else 0

    def adjacency_masks(self) -> tuple[int, ...]:
        """The whole adjacency table (index 0 unused), for hot loops."""
        return self._adj

    def neighbors(self, v: int) -> frozenset[int]:
        return set_from_mask(self._adj[self._check_vertex(v)])

    def degree(self, v: int) -> int:
        return self._adj[self._check_vertex(v)].bit_count()

    def _check_vertex(self, v: int) -> int:
        """v, or ValueError when it is not a vertex."""
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        return v

    def has_edge(self, u: int, v: int) -> bool:
        if not (1 <= u <= self.n and 1 <= v <= self.n):
            raise ValueError(f"edge query ({u}, {v}) out of range 1..{self.n}")
        return bool(self._adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v."""
        out = []
        for u in self.vertices:
            rest = self._adj[u] & (-1 << (u + 1))
            for v in iter_mask(rest):
                out.append((u, v))
        return out

    @property
    def edge_count(self) -> int:
        return sum(self._adj[v].bit_count() for v in self.vertices) // 2

    # -- convenience constructors ----------------------------------------

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(v, v + 1) for v in range(1, n)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls(n, [(v, v + 1) for v in range(1, n)] + [(n, 1)])

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, m={self.edge_count})"


def neighborhood_mask(adj: Sequence[int], mask: int) -> int:
    """Union of the open neighborhoods of the vertices in mask, given the
    adjacency table of Graph.adjacency_masks."""
    out = 0
    for v in iter_mask(mask):
        out |= adj[v]
    return out


def maximal_cliques(adj: Sequence[int], mask: int) -> list[int]:
    """The maximal cliques of the graph induced on mask, as masks in
    ascending order, given an adjacency table like that of
    Graph.adjacency_masks.

    Bron and Kerbosch (1973) without a pivot, on an explicit stack: a
    state (clique, candidates, excluded) branches on each candidate in
    turn, which then moves from the candidates to the excluded, and a
    state with neither is a maximal clique.  Each one is found once.
    """
    out = []
    stack = [(0, mask, 0)]
    while stack:
        clique, cand, excl = stack.pop()
        if not cand | excl:
            out.append(clique)
        for v in iter_mask(cand):
            stack.append((clique | 1 << v, cand & adj[v], excl & adj[v]))
            cand ^= 1 << v
            excl |= 1 << v
    out.sort()
    return out


def masked_components(g: Graph, vmask: int) -> list[int]:
    """Connected components of g induced on vmask, as masks.

    Ordered by smallest contained vertex.
    """
    adj = g._adj
    comps = []
    rem = vmask
    while rem:
        comp = 0
        frontier = rem & -rem
        while frontier:
            comp |= frontier
            frontier = neighborhood_mask(adj, frontier) & rem & ~comp
        comps.append(comp)
        rem &= ~comp
    return comps


class NotP5FreeError(Exception):
    """The input graph contains an induced 5-vertex path."""

    def __init__(self, witness: tuple[int, int, int, int, int]) -> None:
        super().__init__(f"input graph is not P5-free; induced path {witness}")
        self.witness = witness


def _extend_induced_p3(g: Graph, closed: bool) -> tuple[int, int, int, int, int] | None:
    """First (a, b, c, d, e) with b-c-d an induced path, a adjacent to b
    but to neither c nor d, e adjacent to d but to neither b nor c, and
    a, e adjacent exactly when closed; or None.

    That is an induced P5 a-b-c-d-e when closed is False and an induced
    C5 when it is True.  Deterministic: all loops ascend, and e is the
    lowest that fits, so the answer is stable.
    """
    adj = g._adj
    for c in g.vertices:
        nc = adj[c]
        ncc = nc | (1 << c)
        # the vertices of N(c) with a neighbor outside N[c]: any other b
        # has no end a, and any other d no end e
        ends = 0
        for b in iter_mask(nc):
            if adj[b] & ~ncc:
                ends |= 1 << b
        for b in iter_mask(ends):
            higher = ends & (-1 << (b + 1))
            for d in iter_mask(higher):
                if adj[b] >> d & 1:
                    continue
                a_cands = adj[b] & ~ncc & ~(adj[d] | (1 << d))
                if not a_cands:
                    continue
                e_base = adj[d] & ~ncc & ~(adj[b] | (1 << b))
                if not e_base:
                    continue
                for a in iter_mask(a_cands):
                    rest = e_base & adj[a] if closed else e_base & ~(adj[a] | (1 << a))
                    if rest:
                        e = (rest & -rest).bit_length() - 1
                        return (a, b, c, d, e)
    return None


def find_induced_p5(g: Graph) -> tuple[int, int, int, int, int] | None:
    """First induced 5-vertex path, as an ordered tuple, or None.

    Walks every induced path on 3 vertices b-c-d and asks whether it
    extends on both ends: an endpoint a adjacent to b but to neither c
    nor d, and an endpoint e adjacent to d but to none of a, b, c.
    Deterministic: all loops ascend, so the answer is stable.
    """
    return _extend_induced_p3(g, closed=False)


def find_induced_c5(g: Graph) -> tuple[int, int, int, int, int] | None:
    """First induced 5-cycle a-b-c-d-e-a, as an ordered tuple, or None.

    The same walk as find_induced_p5, over every induced path b-c-d, but
    the two ends must meet: e is adjacent to d and a, and to neither b
    nor c.  Deterministic: all loops ascend, so the answer is stable.
    Cographs and split graphs never have one: a C5 holds an induced P4,
    and a clique or an independent set holds at most two of its vertices.
    """
    return _extend_induced_p3(g, closed=True)


def enumerate_connected_subsets(g: Graph, lo: int, hi: int) -> Iterator[int]:
    """All vertex sets of size lo..hi inducing a connected subgraph, as
    masks.

    Yields each set exactly once, in lexicographic order of the sorted
    vertex tuple.  Requires 1 <= lo <= hi.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    adj = g._adj
    found: list[int] = []

    def grow(smask: int, size: int, ext: int, nbrs: int, above: int) -> None:
        if size >= lo:
            found.append(smask)
        if size == hi:
            return
        while ext:
            wbit = ext & -ext
            ext ^= wbit
            w = wbit.bit_length() - 1
            fresh = adj[w] & above & ~(smask | nbrs)
            grow(smask | wbit, size + 1, ext | fresh, nbrs | adj[w], above)

    for v in g.vertices:
        above = -1 << (v + 1)
        grow(1 << v, 1, adj[v] & above, adj[v], above)
    found.sort(key=iter_mask)
    yield from found

