"""Exact maximum weight independent set.

A branch-and-bound solver that accepts arbitrary graphs: the conflict
graphs arising in the pipeline's base case are not guaranteed P5-free, so
a specialized polynomial routine would not be safe here.  Consequently
this step is exponential in the worst case; at the scales the pipeline
produces it is far from the bottleneck.

It prunes by a clique cover (clique_cover_bound, shared with the
connected search): an independent set takes at most one vertex of each
host clique, so a branch whose weight plus the heaviest vertex of every
clique of a greedy cover cannot strictly beat the best so far is
skipped.  Only a strictly heavier set replaces the best, so the skip
changes no pick and no tie.

The search runs on integers.  scale_weights, the one scaling step of
both searches, multiplies by the lcm of the denominators; a positive
scale keeps every comparison and tie, and an answer w is exactly
w / scale.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .graph import Graph, iter_mask, set_from_mask
from .pattern import _check_weight

__all__ = ["WeightedGraph", "clique_cover_bound", "clique_cover_counted", "list_clique_cover",
           "scale_weights", "solve_mwis", "solve_mwis_masked"]


@dataclass(frozen=True)
class WeightedGraph:
    """A graph with a nonnegative exact rational weight per vertex.

    Weights follow the Instance rule (pattern._check_weight): an int, a
    Fraction or a Fraction string; a float, a bool or a negative weight
    raises ValueError."""

    graph: Graph
    weights: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        verts = set(self.graph.vertices)
        if set(self.weights) != verts:
            raise ValueError("weights must be defined exactly on the vertices")
        norm = {v: _check_weight(self.weights[v], v) for v in sorted(verts)}
        object.__setattr__(self, "weights", norm)


def scale_weights(weights: Mapping[int, Fraction]) -> tuple[int, tuple[int, ...]]:
    """(scale, ints): the lcm of the denominators, and ints[v] =
    weights[v] * scale for the keys v = 1..n, with ints[0] = 0."""
    scale = lcm(*(w.denominator for w in weights.values()))
    ints = [0] * (len(weights) + 1)
    for v, w in weights.items():
        ints[v] = w.numerator * (scale // w.denominator)
    return scale, tuple(ints)


def clique_cover_bound(
    adj: Sequence[int], order: Sequence[int], weights: Sequence[int], mask: int, omega: int
) -> int:
    """An upper bound on the weight of any vertex set inside mask that
    holds at most omega vertices of each host clique.

    The vertices of mask are split greedily into cliques of adj, taken
    in order (heaviest first; order must hold every vertex of mask), each
    joining the first clique it is adjacent to throughout or opening a new
    one; a clique counts only its first omega vertices, its heaviest.
    omega = 1 bounds an independent set; the connected search passes the
    pattern's clique number, as an answer colors at most that many
    vertices of a host clique.  Weights are nonnegative integers, so the
    walk stops at the first zero weight.
    """
    commons: list[int] = []  # common neighborhood of each clique
    room: list[int] = []  # vertices each clique may still count
    total = 0
    for v in order:
        if not mask or not weights[v]:
            break
        if not mask >> v & 1:
            continue
        mask ^= 1 << v
        for i, common in enumerate(commons):
            if common >> v & 1:
                commons[i] = common & adj[v]
                if room[i]:
                    room[i] -= 1
                    total += weights[v]
                break
        else:
            commons.append(adj[v])
            room.append(omega - 1)
            total += weights[v]
    return total


def clique_cover_counted(
    adj: Sequence[int], order: Sequence[int], weights: Sequence[int], mask: int, omega: int
) -> int:
    """The vertices that clique_cover_bound counts, as a mask: the same
    greedy cover, each clique keeping its first omega vertices, so their
    weights add up to the bound.  A walk of its own, because the bound
    runs in the inner loops of both searches, where building this mask
    would cost every call.
    """
    commons: list[int] = []
    room: list[int] = []
    counted = 0
    for v in order:
        if not mask or not weights[v]:
            break
        if not mask >> v & 1:
            continue
        mask ^= 1 << v
        for i, common in enumerate(commons):
            if common >> v & 1:
                commons[i] = common & adj[v]
                if room[i]:
                    room[i] -= 1
                    counted |= 1 << v
                break
        else:
            commons.append(adj[v])
            room.append(omega - 1)
            counted |= 1 << v
    return counted


def _greedy_cliques(
    adj: Sequence[int], order: Sequence[int], weights: Sequence[int], mask: int
) -> list[list[int]]:
    """The cliques of clique_cover_bound's greedy cover, each as its
    vertices in order: the vertices of mask with a nonzero weight, taken
    in order (any order that holds every vertex of mask), each joining
    the first clique it is adjacent to throughout or opening a new one.
    The bound and clique_cover_counted keep walks of their own, which
    build no lists: the bound runs in the inner loops of both searches,
    and the counted vertices on solve_full's first certificate.
    """
    commons: list[int] = []  # common neighborhood of each clique
    cliques: list[list[int]] = []
    for v in order:
        if not mask:
            break
        if not mask >> v & 1:
            continue
        mask ^= 1 << v
        if not weights[v]:
            continue
        for i, common in enumerate(commons):
            if common >> v & 1:
                commons[i] = common & adj[v]
                cliques[i].append(v)
                break
        else:
            commons.append(adj[v])
            cliques.append([v])
    return cliques


def list_clique_cover(
    adj: Sequence[int],
    order: Sequence[int],
    weights: Sequence[int],
    mask: int,
    lists: Sequence[int],
    colorsets: Sequence[int],
) -> tuple[int, int]:
    """(bound, counted): a clique cover that reads the lists.

    The cliques are those of _greedy_cliques in the given order.  Each
    counts its heaviest subset whose vertices take pairwise distinct
    colors of one color set, each a color of its list (lists[v], a color
    mask), the best color set of colorsets for that clique.  counted is
    the union of those subsets, so its weights add up to bound.

    Such subsets are the independent sets of a transversal matroid, so
    its greedy (Edmonds and Fulkerson, 1965) finds a heaviest one: walk
    the clique heaviest first and keep a vertex when an augmenting path
    (_augment) matches it, every kept vertex keeping a color.  Everything
    is on integers and deterministic: ties keep the earlier color set
    and, inside a clique, the lighter id.
    """
    bound = counted = 0
    for clique in _greedy_cliques(adj, order, weights, mask):
        clique.sort(key=lambda v: (-weights[v], v))
        best = best_kept = -1
        for colors in colorsets:
            owner: dict[int, int] = {}  # color -> the kept vertex matched to it
            total = kept = 0
            for v in clique:
                if _augment(v, lists, colors, owner, set()):
                    total += weights[v]
                    kept |= 1 << v
            if total > best:
                best, best_kept = total, kept
        bound += best
        counted |= best_kept
    return bound, counted


def _augment(
    v: int, lists: Sequence[int], colors: int, owner: dict[int, int], seen: set[int]
) -> bool:
    """Kuhn's augmenting path: match v to a color of its list in colors,
    in place in owner, each matched vertex on the path moving on to
    another color of its list; False, owner unchanged, when there is no
    path.  seen holds the colors this search has visited."""
    for c in iter_mask(lists[v] & colors):
        if c not in seen:
            seen.add(c)
            u = owner.get(c)
            if u is None or _augment(u, lists, colors, owner, seen):
                owner[c] = v
                return True
    return False


def solve_mwis(wg: WeightedGraph) -> tuple[frozenset[int], Fraction]:
    """An exact maximum weight independent set and its exact weight.

    Ties between equal-weight sets are broken by the deterministic search
    order, so repeated runs return the same set.
    """
    g = wg.graph
    scale, ints = scale_weights(wg.weights)
    mask, weight = solve_mwis_masked(g.adjacency_masks(), g.full_mask, ints)
    return set_from_mask(mask), Fraction(weight, scale)


def solve_mwis_masked(adj: Sequence[int], vmask: int, weights: Sequence[int]) -> tuple[int, int]:
    """Exact MWIS on the subgraph induced by vmask, as (mask, weight).

    adj is a bitmask adjacency table (index 0 unused) and weights an
    array of nonnegative integers indexed the same way (see
    scale_weights); an empty vmask gives weight 0.  Strategy:
    degree-0 vertices are always taken, a degree-1 vertex at least as
    heavy as its neighbor is taken, otherwise branch on a maximum-degree
    vertex; prune when the chosen weight plus the clique-cover bound of
    the vertices left (clique_cover_bound with omega = 1, in the
    heaviest-first order of the greedy start) cannot beat the best.
    """
    # greedy initial bound: heaviest-first packing, the cover's order too
    best_w = 0
    order = sorted(iter_mask(vmask), key=lambda v: (-weights[v], v))
    taken = 0
    blocked = 0
    for v in order:
        if blocked >> v & 1:
            continue
        taken |= 1 << v
        blocked |= adj[v] | (1 << v)
        best_w += weights[v]
    best_mask = taken

    def rec(avail: int, chosen: int, cur: int) -> None:
        nonlocal best_mask, best_w
        # reductions: take isolated vertices, resolve heavy pendants
        while True:
            applied = False
            for v in iter_mask(avail):
                nb = adj[v] & avail
                if nb == 0:
                    avail ^= 1 << v
                    chosen |= 1 << v
                    cur += weights[v]
                    applied = True
                    break
                if nb & (nb - 1) == 0:
                    u = nb.bit_length() - 1
                    if weights[v] >= weights[u]:
                        avail &= ~((1 << v) | nb)
                        chosen |= 1 << v
                        cur += weights[v]
                        applied = True
                        break
            if not applied:
                break
        if avail == 0:
            if cur > best_w:
                best_w = cur
                best_mask = chosen
            return
        if cur + clique_cover_bound(adj, order, weights, avail, 1) <= best_w:
            return
        pick, pick_deg = -1, -1
        for v in iter_mask(avail):
            d = (adj[v] & avail).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
        rec(avail & ~(adj[pick] | (1 << pick)), chosen | (1 << pick), cur + weights[pick])
        rec(avail ^ (1 << pick), chosen, cur)

    rec(vmask, 0, 0)
    return best_mask, best_w
