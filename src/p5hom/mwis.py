"""Exact maximum weight independent set.

A branch-and-bound solver that accepts arbitrary graphs: the conflict
graphs arising in the pipeline's base case are not guaranteed P5-free, so
a specialized polynomial routine would not be safe here.  Consequently
this step is exponential in the worst case; at the scales the pipeline
produces it is far from the bottleneck.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, iter_mask, set_from_mask
from .pattern import ZERO

__all__ = ["WeightedGraph", "solve_mwis", "solve_mwis_masked"]


@dataclass(frozen=True)
class WeightedGraph:
    """A graph with a nonnegative exact rational weight per vertex."""

    graph: Graph
    weights: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        verts = set(self.graph.vertices)
        if set(self.weights) != verts:
            raise ValueError("weights must be defined exactly on the vertices")
        norm = {}
        for v in sorted(verts):
            w = Fraction(self.weights[v])
            if w < 0:
                raise ValueError(f"negative weight {w} at vertex {v}")
            norm[v] = w
        object.__setattr__(self, "weights", norm)


def solve_mwis(wg: WeightedGraph) -> tuple[frozenset[int], Fraction]:
    """An exact maximum weight independent set and its weight.

    Ties between equal-weight sets are broken by the deterministic search
    order, so repeated runs return the same set.
    """
    g = wg.graph
    warr = [ZERO] * (g.n + 1)
    for v, w in wg.weights.items():
        warr[v] = w
    mask, weight = solve_mwis_masked(g.adjacency_masks(), g.full_mask, warr)
    return set_from_mask(mask), Fraction(weight)


def solve_mwis_masked(
    adj: Sequence[int], vmask: int, weights: Sequence[int | Fraction]
) -> tuple[int, int | Fraction]:
    """Exact MWIS on the subgraph induced by vmask, as (mask, weight).

    adj is a bitmask adjacency table (index 0 unused) and weights an
    array of nonnegative exact numbers (int or Fraction) indexed the same
    way.  Sums start at int 0, so integer weights give an integer weight
    (and an empty vmask gives 0).  Strategy:
    degree-0 vertices are always taken, a degree-1 vertex at least as
    heavy as its neighbor is taken, otherwise branch on a maximum-degree
    vertex; prune when the remaining total weight cannot beat the best.
    """
    # greedy initial bound: heaviest-first packing
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

    def rec(avail: int, chosen: int, cur: int | Fraction) -> None:
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
        ub = cur
        for v in iter_mask(avail):
            ub += weights[v]
        if ub <= best_w:
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
