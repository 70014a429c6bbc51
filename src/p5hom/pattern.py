"""Problem model: pattern graphs, instances, solutions, list homomorphisms.

An instance asks for a maximum-weight vertex subset of a host graph that
admits a homomorphism into a loopless pattern graph H, where each host
vertex may only receive colors from its own list.  Weights are exact
rationals throughout; floats never enter a weight comparison.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
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


class PatternGraph:
    """Loopless undirected pattern graph on colors 1..k."""

    __slots__ = ("k", "_adj")

    def __init__(self, k: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"color count must be a nonnegative int, got {k!r}")
        adj = [0] * (k + 1)
        for a, b in edges:
            if not (1 <= a <= k and 1 <= b <= k):
                raise ValueError(f"pattern edge ({a}, {b}) out of range 1..{k}")
            if a == b:
                raise ValueError(f"pattern graph must be loopless; loop at color {a}")
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        self.k = k
        self._adj = tuple(adj)

    @property
    def colors(self) -> range:
        return range(1, self.k + 1)

    @property
    def full_colors_mask(self) -> int:
        return (1 << (self.k + 1)) - 2 if self.k else 0

    def adjacency_masks(self) -> tuple[int, ...]:
        return self._adj

    def has_edge(self, a: int, b: int) -> bool:
        if not (1 <= a <= self.k and 1 <= b <= self.k):
            raise ValueError(f"color pair ({a}, {b}) out of range 1..{self.k}")
        return bool(self._adj[a] >> b & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for a in self.colors:
            rest = self._adj[a] & (-1 << (a + 1))
            for b in iter_mask(rest):
                out.append((a, b))
        return out

    @property
    def is_complete(self) -> bool:
        """True iff every pair of distinct colors is adjacent."""
        full = self.full_colors_mask
        return all(self._adj[c] == full & ~(1 << c) for c in self.colors)

    @classmethod
    def complete(cls, k: int) -> "PatternGraph":
        return cls(k, [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)])

    @classmethod
    def path(cls, k: int) -> "PatternGraph":
        return cls(k, [(c, c + 1) for c in range(1, k)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternGraph):
            return NotImplemented
        return self.k == other.k and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.k, self._adj))

    def __repr__(self) -> str:
        return f"PatternGraph(k={self.k}, edges={self.edges()})"


@dataclass(frozen=True)
class Instance:
    """A host graph with pattern, exact rational weights and color lists.

    wt and lists must be total on the vertices of g; weights nonnegative,
    lists subsets of 1..k.  Empty lists are legal (the vertex can never be
    chosen).  Use Instance.build for unit-weight / full-list defaults.
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
        wt = {}
        for v in sorted(verts):
            w = Fraction(self.wt[v])
            if w < 0:
                raise ValueError(f"negative weight {w} at vertex {v}")
            wt[v] = w
        lists = {}
        for v in sorted(verts):
            ls = frozenset(self.lists[v])
            for c in ls:
                if not 1 <= c <= self.h.k:
                    raise ValueError(f"list color {c} at vertex {v} out of range 1..{self.h.k}")
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
        list for every vertex not mentioned."""
        full = frozenset(h.colors)
        wt = dict(wt or {})
        lists = dict(lists or {})
        wt_total = {v: Fraction(wt.get(v, 1)) for v in g.vertices}
        lists_total = {v: frozenset(lists.get(v, full)) for v in g.vertices}
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

    @cached_property
    def wt_tuple(self) -> tuple[Fraction, ...]:
        """Weights indexed by vertex (index 0 unused)."""
        return tuple([ZERO] + [self.wt[v] for v in self.g.vertices])

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
    """A list homomorphism coloring every vertex of g into h, or None.

    Exhaustive backtracking with forward list pruning; picks the most
    constrained vertex first.  The search is exact: None means no list
    homomorphism exists.
    """
    n = g.n
    if n == 0:
        return {}
    cand = [0] * (n + 1)
    for v in g.vertices:
        try:
            ls = lists[v]
        except KeyError:
            raise ValueError(f"lists must cover every vertex; missing {v}") from None
        m = 0
        for c in ls:
            if not 1 <= c <= h.k:
                raise ValueError(f"list color {c} at vertex {v} out of range 1..{h.k}")
            m |= 1 << c
        if m == 0:
            return None
        cand[v] = m
    adj = g.adjacency_masks()
    hadj = h.adjacency_masks()
    assigned: dict[int, int] = {}

    def pick() -> int:
        best, best_sz = 0, 1 << 30
        for v in g.vertices:
            if v in assigned:
                continue
            sz = cand[v].bit_count()
            if sz < best_sz:
                best, best_sz = v, sz
        return best

    def rec() -> bool:
        if len(assigned) == n:
            return True
        v = pick()
        options = cand[v]
        for c in iter_mask(options):
            assigned[v] = c
            touched: list[tuple[int, int]] = []
            ok = True
            for u in iter_mask(adj[v]):
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
