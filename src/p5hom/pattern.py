"""Problem model: pattern graphs, instances, solutions, list homomorphisms.

An instance asks for a maximum-weight vertex subset of a host graph that
admits a homomorphism into a loopless pattern graph H, where each host
vertex may only receive colors from its own list.  The pattern is a Graph
whose vertices 1..k are the colors (PatternGraph adds only that
vocabulary).  Weights are exact rationals throughout; floats never enter
a weight comparison.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .graph import Graph, iter_mask

__all__ = [
    "Instance",
    "PatternGraph",
    "Solution",
    "SolutionViolation",
    "exists_list_hom",
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
    one, and for a negative weight."""
    if isinstance(w, (bool, float)):
        raise ValueError(f"weight {w!r} at vertex {v} is a {type(w).__name__}, not exact")
    w = Fraction(w)
    if w < 0:
        raise ValueError(f"negative weight {w} at vertex {v}")
    return w


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
        out = [0] * (self.g.n + 1)
        for v, ls in self.lists.items():
            m = 0
            for c in ls:
                m |= 1 << c
            out[v] = m
        return tuple(out)

    def weight_of(self, vertices: Iterable[int]) -> Fraction:
        return sum((self.wt[v] for v in vertices), ZERO)


@dataclass(frozen=True)
class Solution:
    """A chosen vertex set, a total coloring of it, and its weight."""

    chosen: frozenset[int]
    coloring: Mapping[int, int]
    weight: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "chosen", frozenset(self.chosen))
        object.__setattr__(self, "coloring", dict(self.coloring))
        object.__setattr__(self, "weight", Fraction(self.weight))

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


def verify_solution(inst: Instance, sol: Solution) -> SolutionViolation | None:
    """None if the solution is feasible, else the first violation found.

    Checks, in order: the coloring's domain is exactly the chosen set, every
    color is on the vertex's list, every induced edge maps to a pattern
    edge, and the stored weight equals the weight of the chosen set.
    Raises ValueError if a chosen vertex is outside the graph.
    """
    n = inst.g.n
    for v in sol.chosen:
        if not 1 <= v <= n:
            raise ValueError(f"chosen vertex {v} out of range 1..{n}")
    if set(sol.coloring) != sol.chosen:
        extra = set(sol.coloring) - sol.chosen
        missing = sol.chosen - set(sol.coloring)
        return SolutionViolation(
            "coloring",
            f"coloring domain mismatch (uncolored {sorted(missing)}, stray {sorted(extra)})",
        )
    hk = inst.h.k
    for v in sorted(sol.chosen):
        c = sol.coloring[v]
        if not (isinstance(c, int) and 1 <= c <= hk):
            return SolutionViolation("list", f"vertex {v}: color {c!r} outside 1..{hk}")
        if c not in inst.lists[v]:
            return SolutionViolation("list", f"vertex {v}: color {c} not in its list")
    cmask = 0
    for v in sol.chosen:
        cmask |= 1 << v
    hadj = inst.h.adjacency_masks()
    for v in sorted(sol.chosen):
        inside = inst.g.adjacency_mask(v) & cmask & (-1 << (v + 1))
        cv = sol.coloring[v]
        for u in iter_mask(inside):
            if not hadj[cv] >> sol.coloring[u] & 1:
                return SolutionViolation(
                    "edge",
                    f"edge {v}-{u} maps to ({cv}, {sol.coloring[u]}), not a pattern edge",
                )
    true_weight = inst.weight_of(sol.chosen)
    if sol.weight != true_weight:
        return SolutionViolation(
            "weight", f"stored weight {sol.weight} != actual {true_weight}"
        )
    return None


def exists_list_hom(
    g: Graph, h: PatternGraph, lists: Mapping[int, Iterable[int]]
) -> dict[int, int] | None:
    """A list homomorphism into h of the subgraph of g induced on the
    vertices that lists names, or None.

    The keys of lists are vertices of g and its colors ints in 1..k
    (ValueError otherwise); vertices not named are ignored, and the answer
    colors exactly the named ones, in g's own ids.  Exhaustive backtracking with forward list
    pruning; picks the most constrained vertex first, the smallest id
    among equals.  The search is exact: None means no list homomorphism
    exists.
    """
    n, k = g.n, h.k
    cand = [0] * (n + 1)
    smask = 0
    for v in sorted(lists):
        if not 1 <= v <= n:
            raise ValueError(f"vertex {v} out of range 1..{n}")
        m = 0
        for c in lists[v]:
            _check_color(c, v, k)
            m |= 1 << c
        if m == 0:
            return None
        cand[v] = m
        smask |= 1 << v
    size = smask.bit_count()
    adj = g.adjacency_masks()
    hadj = h.adjacency_masks()
    assigned: dict[int, int] = {}

    def pick() -> int:
        best, best_sz = 0, 1 << 30
        for v in iter_mask(smask):
            if v in assigned:
                continue
            sz = cand[v].bit_count()
            if sz < best_sz:
                best, best_sz = v, sz
        return best

    def rec() -> bool:
        if len(assigned) == size:
            return True
        v = pick()
        options = cand[v]
        for c in iter_mask(options):
            assigned[v] = c
            touched: list[tuple[int, int]] = []
            ok = True
            for u in iter_mask(adj[v] & smask):
                if u in assigned:
                    continue
                new = cand[u] & hadj[c]
                if new != cand[u]:
                    touched.append((u, cand[u]))
                    cand[u] = new
                    if new == 0:
                        ok = False
                        break
            if ok and rec():
                return True
            for u, old in touched:
                cand[u] = old
            del assigned[v]
        return False

    if rec():
        return dict(assigned)
    return None
