"""Problem model: pattern graphs, instances, solutions, list homomorphisms.

An instance asks for a maximum-weight vertex subset of a host graph that
admits a homomorphism into a loopless pattern graph H, where each host
vertex may only receive colors from its own list.  The pattern is a Graph
whose vertices 1..k are the colors (PatternGraph adds only that
vocabulary).  Weights are exact rationals throughout; floats never enter
a weight comparison.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .graph import Graph, iter_mask, mask_from

__all__ = [
    "Instance",
    "PatternGraph",
    "Solution",
    "SolutionViolation",
    "exists_list_hom",
    "scale_weights",
    "verify_solution",
]

ZERO = Fraction(0)


class PatternGraph(Graph):
    """Loopless undirected pattern graph: a Graph whose vertices 1..k are
    the colors.  Construction, adjacency, equality and hashing are
    Graph's, so a pattern equals the Graph with the same edges."""

    __slots__ = ()

    @property
    def k(self) -> int:
        return self.n

    @property
    def colors(self) -> range:
        return self.vertices

    @property
    def is_complete(self) -> bool:
        """True iff every pair of distinct colors is adjacent."""
        return self.edge_count == self.k * (self.k - 1) // 2


def _check_weight(w: object, v: int) -> Fraction:
    """w as an exact Fraction; ValueError for a float or bool weight of
    vertex v, whose binary value would silently stand in for the intended
    one, and for a negative weight.  A Fraction is returned as it is: it
    is already in lowest terms, with the sign on its numerator."""
    if type(w) is not Fraction:
        if isinstance(w, (bool, float)):
            raise ValueError(f"weight {w!r} at vertex {v} is a {type(w).__name__}, not exact")
        w = Fraction(w)
    if w.numerator < 0:
        raise ValueError(f"negative weight {w} at vertex {v}")
    return w


def scale_weights(weights: Mapping[int, Fraction]) -> tuple[int, tuple[int, ...]]:
    """(scale, ints): the lcm of the denominators, and ints[v] =
    weights[v] * scale for the keys v = 1..n, with ints[0] = 0."""
    ratios = [w.as_integer_ratio() for w in weights.values()]
    scale = lcm(*[den for _, den in ratios])
    ints = [0] * (len(weights) + 1)
    for v, (num, den) in zip(weights, ratios):
        ints[v] = num * (scale // den)
    return scale, tuple(ints)


def _check_color(c: object, v: int, k: int) -> None:
    """ValueError unless list color c of vertex v is a non-bool int in 1..k."""
    if isinstance(c, bool) or not isinstance(c, int):
        raise ValueError(f"list color {c!r} at vertex {v} is not an int")
    if not 1 <= c <= k:
        raise ValueError(f"list color {c} at vertex {v} out of range 1..{k}")


@dataclass(frozen=True)
class Instance:
    """A host graph with pattern, exact rational weights and color lists.

    wt and lists must be total on the vertices of g.  Weights are
    nonnegative and exact: an int, a Fraction or a Fraction string; a
    float or bool raises ValueError.  Lists hold int colors in 1..k.
    Empty lists are legal (the vertex can never be chosen).  Use
    Instance.build for unit-weight / full-list defaults.
    """

    g: Graph
    h: PatternGraph
    wt: Mapping[int, Fraction]
    lists: Mapping[int, frozenset[int]]

    def __post_init__(self) -> None:
        verts = set(self.g.vertices)
        if set(self.wt) != verts:
            raise ValueError("weights must be defined exactly on the vertices of g")
        if set(self.lists) != verts:
            raise ValueError("lists must be defined exactly on the vertices of g")
        wt = {v: _check_weight(self.wt[v], v) for v in sorted(verts)}
        k = self.h.k
        lists = {}
        for v in sorted(verts):
            ls = frozenset(self.lists[v])
            for c in ls:
                _check_color(c, v, k)
            lists[v] = ls
        object.__setattr__(self, "wt", wt)
        object.__setattr__(self, "lists", lists)

    @classmethod
    def build(
        cls,
        g: Graph,
        h: PatternGraph,
        wt: Mapping[int, object] | None = None,
        lists: Mapping[int, Iterable[int]] | None = None,
    ) -> "Instance":
        """Instance with defaults filled in: weight 1 and the full color
        list for every vertex not mentioned.  A key that is not a vertex
        of g raises ValueError."""
        full = frozenset(h.colors)
        wt = dict(wt or {})
        lists = dict(lists or {})
        verts = g.vertices
        for name, given in (("weight", wt), ("list", lists)):
            for v in given:
                if v not in verts:
                    raise ValueError(f"{name} given for vertex {v!r}, not in 1..{g.n}")
        wt_total = {v: wt.get(v, 1) for v in verts}
        lists_total = {v: frozenset(lists.get(v, full)) for v in verts}
        return cls(g, h, wt_total, lists_total)

    @cached_property
    def lists_masks(self) -> tuple[int, ...]:
        """Color lists as bitmasks, indexed by vertex (index 0 unused)."""
        return (0, *[mask_from(self.lists[v]) for v in self.g.vertices])

    @cached_property
    def scaled_weights(self) -> tuple[int, tuple[int, ...]]:
        """scale_weights(wt), the one scaling of this instance's weights:
        (scale, ints), with ints[v] = wt[v] * scale."""
        return scale_weights(self.wt)

    def weight_of(self, vertices: Iterable[int]) -> Fraction:
        """The total weight of the named vertices, as one exact integer
        sum of the scaled weights, divided once (0 for none).  A vertex
        outside 1..n raises ValueError."""
        scale, ints = self.scaled_weights
        n = self.g.n
        total = 0
        for v in vertices:
            if not 1 <= v <= n:
                raise ValueError(f"vertex {v} out of range 1..{n}")
            total += ints[v]
        return Fraction(total, scale)


@dataclass(frozen=True)
class Solution:
    """A chosen vertex set, a total coloring of it, and its stated weight.

    The weight is exact: an int, a Fraction or a Fraction string; a float
    or bool raises ValueError.  It is not checked against the instance
    (verify_solution does that), so it may be negative."""

    chosen: frozenset[int]
    coloring: Mapping[int, int]
    weight: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "chosen", frozenset(self.chosen))
        object.__setattr__(self, "coloring", dict(self.coloring))
        w = self.weight
        if type(w) is not Fraction:
            if isinstance(w, (bool, float)):
                raise ValueError(f"weight {w!r} is a {type(w).__name__}, not exact")
            object.__setattr__(self, "weight", Fraction(w))

    @classmethod
    def empty(cls) -> "Solution":
        return cls(frozenset(), {}, ZERO)

    @classmethod
    def from_assignment(cls, inst: Instance, coloring: Mapping[int, int]) -> "Solution":
        chosen = frozenset(coloring)
        return cls(chosen, dict(coloring), inst.weight_of(chosen))


@dataclass(frozen=True)
class SolutionViolation:
    """First constraint a candidate solution breaks."""

    kind: str  # "coloring" | "list" | "edge" | "weight"
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def _coloring_violation(
    adj: Sequence[int], hadj: Sequence[int], k: int, lists: Sequence[int],
    coloring: Mapping[int, int], order: Collection[int],
) -> SolutionViolation | None:
    """The first violation of coloring on the vertices of order, or None.

    Checks, in order: each vertex's color, in the order given, is an int
    in 1..k on its list (lists holds color bitmasks); then every host edge
    (adj) between two vertices of order maps to a pattern edge (hadj).
    """
    cmask = 0
    for v in order:
        c = coloring[v]
        if isinstance(c, bool) or not isinstance(c, int):
            return SolutionViolation("list", f"vertex {v}: color {c!r} is not an int")
        if not 1 <= c <= k:
            return SolutionViolation("list", f"vertex {v}: color {c} outside 1..{k}")
        if not lists[v] >> c & 1:
            return SolutionViolation("list", f"vertex {v}: color {c} not in its list")
        cmask |= 1 << v
    for v in order:
        cv = coloring[v]
        for u in iter_mask(adj[v] & cmask & (-1 << (v + 1))):
            if not hadj[cv] >> coloring[u] & 1:
                return SolutionViolation(
                    "edge", f"edge {v}-{u} maps to ({cv}, {coloring[u]}), not a pattern edge"
                )
    return None


def verify_solution(inst: Instance, sol: Solution) -> SolutionViolation | None:
    """None if the solution is feasible, else the first violation found.

    Checks, in order: the coloring's domain is exactly the chosen set, every
    color is on the vertex's list, every induced edge maps to a pattern
    edge, and the stored weight equals the weight of the chosen set,
    computed as one exact integer sum (Instance.weight_of).  Raises
    ValueError if a chosen vertex is outside the graph.
    """
    n = inst.g.n
    order = sorted(sol.chosen)
    if order and not 1 <= order[0] <= order[-1] <= n:
        v = next(v for v in sol.chosen if not 1 <= v <= n)
        raise ValueError(f"chosen vertex {v} out of range 1..{n}")
    coloring = sol.coloring
    if coloring.keys() != sol.chosen:
        extra = set(coloring) - sol.chosen
        missing = sol.chosen - set(coloring)
        return SolutionViolation(
            "coloring",
            f"coloring domain mismatch (uncolored {sorted(missing)}, stray {sorted(extra)})",
        )
    violation = _coloring_violation(inst.g.adjacency_masks(), inst.h.adjacency_masks(),
                                    inst.h.k, inst.lists_masks, coloring, order)
    if violation is None:
        true_weight = inst.weight_of(order)
        if sol.weight != true_weight:
            violation = SolutionViolation(
                "weight", f"stored weight {sol.weight} != actual {true_weight}"
            )
    return violation


def exists_list_hom(
    g: Graph, h: PatternGraph, lists: Mapping[int, Iterable[int]]
) -> dict[int, int] | None:
    """A list homomorphism into h of the subgraph of g induced on the
    vertices that lists names, or None.

    The keys of lists are vertices of g and its colors ints in 1..k
    (ValueError otherwise); vertices not named are ignored, and the answer
    colors exactly the named ones, in g's own ids.  Exhaustive backtracking
    with forward list pruning, on an explicit stack, so its depth is not
    bounded by Python's recursion limit; picks the most constrained vertex
    first, the smallest id among equals, and tries its colors ascending.
    The search is exact: None means no list homomorphism exists.
    """
    n, k = g.n, h.k
    cand = [0] * (n + 1)
    smask = 0
    for v in sorted(lists):
        if not 1 <= v <= n:
            raise ValueError(f"vertex {v} out of range 1..{n}")
        m = 0
        for c in lists[v]:
            if not (type(c) is int and 1 <= c <= k):
                _check_color(c, v, k)
            m |= 1 << c
        if m == 0:
            return None
        cand[v] = m
        smask |= 1 << v
    adj = g.adjacency_masks()
    hadj = h.adjacency_masks()
    assigned: dict[int, int] = {}
    # one frame per colored vertex: (vertex, colors not yet tried, the
    # (vertex, old candidates) pairs its current color pruned)
    frames: list[tuple[int, int, list[tuple[int, int]]]] = []
    named = iter_mask(smask)
    free = smask
    while free:
        v, best = 0, 1 << 30
        for u in named:
            if free >> u & 1:
                size = cand[u].bit_count()
                if size < best:
                    v, best = u, size
        free ^= 1 << v
        rest, undo = cand[v], []
        while True:
            for u, old in undo:
                cand[u] = old
            if not rest:
                # every color of v failed: back to the previous vertex
                free |= 1 << v
                del assigned[v]
                if not frames:
                    return None
                v, rest, undo = frames.pop()
                continue
            low = rest & -rest
            rest ^= low
            c = low.bit_length() - 1
            assigned[v] = c
            undo = []
            for u in iter_mask(adj[v] & smask):
                if not free >> u & 1:
                    continue
                new = cand[u] & hadj[c]
                if new != cand[u]:
                    undo.append((u, cand[u]))
                    cand[u] = new
                    if new == 0:
                        break
            else:
                frames.append((v, rest, undo))
                break
    return assigned
