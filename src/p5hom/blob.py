"""Blob-graph reduction: from a component family to one MWIS call.

Two vertex sets touch when they share a vertex or an edge joins them.
The blob graph is a WeightedGraph with one vertex per family member,
weighted by the member's total weight, with edges between touching
members; the touching rule lives in build_blob_graph, as one mask test
per pair.  A maximum weight independent set of the blob graph selects
pairwise non-touching members whose union is the final answer; each
selected member is colored independently, by a list homomorphism of the
host graph induced on it, in host ids.  The colorings cannot conflict
because non-touching sets share neither vertices nor edges.

For P5-free inputs the blob graph is itself P5-free; the test suite
probes that as an invariant but the solver does not rely on it (the MWIS
stage is exact on arbitrary graphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .family import Family, build_family
from .graph import Graph, neighborhood_mask
from .mwis import WeightedGraph, scale_weights, solve_mwis
from .pattern import Instance, Solution, exists_list_hom, verify_solution
from .connected import ConnectedSolver, SolveResult

__all__ = ["BlobGraph", "build_blob_graph", "solve_full"]


@dataclass(frozen=True)
class BlobGraph(WeightedGraph):
    """One vertex per family member (1-based, family order), weighted by
    the member's weight sum, adjacent iff the members touch; members[i - 1]
    is the member of blob vertex i."""

    members: tuple[frozenset[int], ...]


def build_blob_graph(inst: Instance, fam: Family) -> BlobGraph:
    members = fam.members
    m = len(members)
    adj = inst.g.adjacency_masks()
    scale, ints = scale_weights(inst.wt)
    masks = []
    weights = {}
    for i, member in enumerate(members, start=1):
        mask = total = 0
        for v in member:
            mask |= 1 << v
            total += ints[v]
        masks.append(mask)
        weights[i] = Fraction(total, scale)
    reach = [mask | neighborhood_mask(adj, mask) for mask in masks]
    edges = []
    for i in range(m):
        ri = reach[i]
        for j in range(i + 1, m):
            if ri & masks[j]:
                edges.append((i + 1, j + 1))
    return BlobGraph(Graph(m, edges), weights, members)


def solve_full(inst: Instance, budget: int | None = None) -> SolveResult:
    """Full pipeline: family, blob graph, MWIS, per-member coloring.

    Raises NotP5FreeError on inputs with an induced 5-vertex path.  The
    returned solution is always verified feasible; with an uncapped
    budget and a complete pattern it is exact at the scales the test
    suite probes (the differential suite measures any gap for other
    patterns).  budget bounds the guesses of the whole family build (see
    build_family); exhaustive is False when it ran out.  A cut family
    may hold only small members, so a run that is not exhaustive returns
    the whole-instance greedy (ConnectedSolver.incumbent) instead when
    that is strictly heavier; ties keep the blob answer.  The solution
    stores its weight, so verify_solution's weight check also checks
    that the colored members (or the greedy's vertices) add up to it.
    """
    fam = build_family(inst, budget=budget)
    blob = build_blob_graph(inst, fam)
    picked, blob_weight = solve_mwis(blob)
    coloring: dict[int, int] = {}
    for bv in sorted(picked):
        member = blob.members[bv - 1]
        hom = exists_list_hom(inst.g, inst.h, {v: inst.lists[v] for v in member})
        if hom is None:
            raise RuntimeError(
                f"internal error: family member {sorted(member)} admits no list homomorphism"
            )
        coloring.update(hom)
    sol = Solution(frozenset(coloring), coloring, blob_weight)
    if not fam.exhaustive:
        engine = ConnectedSolver(inst)
        weight, greedy = engine.incumbent(inst.g.full_mask, inst.lists_masks)
        greedy_weight = Fraction(weight, engine.scale)
        if greedy_weight > blob_weight:
            sol = Solution(frozenset(v for v, _ in greedy), dict(greedy), greedy_weight)
    violation = verify_solution(inst, sol)
    if violation is not None:
        raise RuntimeError(f"internal error: pipeline produced invalid solution ({violation})")
    return SolveResult(sol, fam.exhaustive)
