"""Exact maximum weight independent set.

A branch-and-bound solver that accepts arbitrary graphs: the conflict
graphs arising in the pipeline's base case are not guaranteed P5-free, so
a specialized polynomial routine would not be safe here.  Consequently
this step is exponential in the worst case; at the scales the pipeline
produces it is far from the bottleneck.

It prunes by a clique cover (clique_cover, shared with the connected
search and its certificate): an independent set takes at most one
vertex of each host clique, so a branch whose weight plus the heaviest
vertex of every clique of a greedy cover cannot strictly beat the best
so far is skipped.  Only a strictly heavier set replaces the best, so
the skip changes no pick and no tie.

The search runs on integers.  pattern.scale_weights, the one scaling
step, multiplies by the lcm of the denominators; a positive scale keeps
every comparison and tie, and an answer w is exactly w / scale.
solve_mwis scales the weights of the graph it is given; the connected
search reads its instance's scaling once, as Instance.scaled_weights.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, iter_mask, set_from_mask
from .pattern import _check_weight, scale_weights

__all__ = ["WeightedGraph", "clique_cover", "list_clique_cover", "solve_mwis",
           "solve_mwis_masked"]


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


def clique_cover(
    adj: Sequence[int], order: Sequence[int], weights: Sequence[int], mask: int, omega: int
) -> tuple[int, int, list[int]]:
    """(bound, counted, cliques): a greedy clique cover of mask and an
    upper bound on the weight of any vertex set inside mask that holds at
    most omega vertices of each of its cliques.

    The vertices of mask with a nonzero weight are split into cliques of
    adj, taken in order (any order that holds every vertex of mask), each
    joining the first clique it is adjacent to throughout or opening a new
    one.  A clique depends only on the vertices before it, so the walk
    grows one clique at a time: the first vertex left opens it, and the
    vertices after it in order that are still in its common neighborhood
    join it one by one.  cliques holds each clique as a mask, in opening
    order; counted is the first omega vertices of each, the heaviest in
    a heaviest-first order, and bound is their weight.  omega = 1 bounds
    an independent set; the connected search passes the pattern's clique
    number, as an answer colors at most that many vertices of a host
    clique.
    """
    bound = counted = 0
    cliques: list[int] = []
    for i, v in enumerate(order):
        if not mask:
            break
        if not mask >> v & 1:
            continue
        mask ^= 1 << v
        if not weights[v]:
            continue
        clique = 1 << v
        bound += weights[v]
        counted |= clique
        room = omega - 1
        common = adj[v] & mask  # the vertices left that may still join
        for u in order[i + 1:] if common else ():
            if common >> u & 1:
                bit = 1 << u
                mask ^= bit
                common ^= bit
                if weights[u]:
                    common &= adj[u]
                    clique |= bit
                    if room:
                        room -= 1
                        bound += weights[u]
                        counted |= bit
                if not common:
                    break
        cliques.append(clique)
    return bound, counted, cliques


def list_clique_cover(
    cliques: Sequence[int],
    weights: Sequence[int],
    lists: Sequence[int],
    colorsets: Sequence[int],
) -> tuple[int, int]:
    """(bound, counted): a clique cover that reads the lists.

    The cliques are the masks of a cover, such as clique_cover gives.  Each
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
    for clique in cliques:
        heaviest = sorted(iter_mask(clique), key=lambda v: (-weights[v], v))
        best = best_kept = -1
        for colors in colorsets:
            owner: dict[int, int] = {}  # color -> the kept vertex matched to it
            total = kept = 0
            for v in heaviest:
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
    vertex, taking it before dropping it; prune when the chosen weight
    plus the clique-cover bound of the vertices left (clique_cover with
    omega = 1, in the heaviest-first order of the greedy start)
    cannot beat the best.  The branches run depth first on an explicit
    stack, so the depth of the search, up to one level per vertex, is
    not bounded by Python's recursion limit.
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

    stack = [(vmask, 0, 0)]
    while stack:
        avail, chosen, cur = stack.pop()
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
            continue
        if cur + clique_cover(adj, order, weights, avail, 1)[0] <= best_w:
            continue
        pick, pick_deg = -1, -1
        for v in iter_mask(avail):
            d = (adj[v] & avail).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
        # the drop branch goes under the take branch, which pops first
        stack.append((avail ^ (1 << pick), chosen, cur))
        stack.append(
            (avail & ~(adj[pick] | (1 << pick)), chosen | (1 << pick), cur + weights[pick])
        )
    return best_mask, best_w
