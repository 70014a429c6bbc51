"""Exact maximum weight independent set.

A branch-and-bound solver that accepts arbitrary graphs: the conflict
graphs arising in the pipeline's base case are not guaranteed P5-free, so
a specialized polynomial routine would not be safe here.  Consequently
this step is exponential in the worst case; at the scales the pipeline
produces it is far from the bottleneck.

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

__all__ = ["WeightedGraph", "scale_weights", "solve_mwis", "solve_mwis_masked"]


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


def scale_weights(weights: Mapping[int, Fraction]) -> tuple[int, tuple[int, ...]]:
    """(scale, ints): the lcm of the denominators, and ints[v] =
    weights[v] * scale for the keys v = 1..n, with ints[0] = 0."""
    scale = lcm(*(w.denominator for w in weights.values()))
    ints = [0] * (len(weights) + 1)
    for v, w in weights.items():
        ints[v] = w.numerator * (scale // w.denominator)
    return scale, tuple(ints)


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
