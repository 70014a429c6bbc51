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

solve_full reaches the family only when a cheaper certificate fails: a
coloring of the whole instance whose weight meets an upper bound on the
optimum is already optimal, and is returned as it is.  The bounds come
from greedy covers of the host by cliques.  The colored vertices of one
host clique are pairwise adjacent and the pattern is loopless, so they
take pairwise distinct, pairwise pattern-adjacent colors of their lists:
a pattern clique, matched to them.  The first bound lets each cover
clique count its omega heaviest vertices, omega the pattern's clique
number; the second, tried only when the first certifies nothing, its
heaviest vertices that their lists can match to one maximal pattern
clique.  The coloring is the greedy's, when it meets a bound, or a list
homomorphism of the vertices a bound counts, which weigh it exactly (see
solve_full).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# the family build goes by this name, which perfbench's tracer times as
# the family layer; it takes the solver of solve_full's certificates
from .family import Family, _build_family as build_family
from .graph import Graph, NotP5FreeError, find_induced_p5, iter_mask, neighborhood_mask
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
    """Full pipeline: certificate, or family, blob graph, MWIS, per-member
    coloring.

    Raises NotP5FreeError on inputs with an induced 5-vertex path, and
    ValueError on a negative budget.  The first step colors the whole
    instance greedily (ConnectedSolver.incumbent over the vertices with a
    nonempty list) and tries to certify a coloring of the whole instance
    against two upper bounds on the optimum, in turn.  Both split the
    vertices into host cliques greedily.  The first lets each clique
    count its omega heaviest vertices, omega the pattern's clique number
    on every list color (ConnectedSolver.cover_bound).  The second lets
    it count its heaviest vertices whose lists can take pairwise distinct
    colors of one maximal pattern clique, and takes the lesser of two
    covers (ConnectedSolver.list_cover).  Both bound the optimum: the
    colored vertices of a host clique are pairwise adjacent, and the
    pattern is loopless, so they take pairwise distinct, pairwise
    pattern-adjacent colors of their lists, a pattern clique of at most
    omega colors matched to them; weights are nonnegative.  Against each
    bound in turn, a greedy that meets it is optimal, and so is a list
    homomorphism (exists_list_hom) of the vertices it counts, which weigh
    the bound exactly.  The second bound is built only when neither check
    passes against the first.  A certified coloring is returned after
    the P5 check, exhaustive at any budget, with no guess made and no
    family built.  Otherwise the certificate's solver, which spent no
    guess, builds the family (family._build_family, which makes the P5
    check), its blob graph is solved and each picked member colored.
    The returned solution is always verified feasible; with an uncapped
    budget and a complete pattern it is exact at the scales the test
    suite probes (the differential suite measures any gap for other
    patterns).  budget bounds the guesses of the whole family build (see
    build_family); exhaustive is False when it ran out.  A cut family
    may hold only small members, so a run that is not exhaustive returns
    the greedy instead when that is strictly heavier; ties keep the blob
    answer.  The solution stores its weight, so verify_solution's weight
    check also checks that the colored members (or the certified or
    greedy vertices) add up to it.
    """
    # one solver for the certificates, which spend no guess, and the family
    engine = ConnectedSolver(inst, budget=budget)
    lists = inst.lists_masks
    live = universe = 0
    for v in inst.g.vertices:
        if lists[v]:
            live |= 1 << v
            universe |= lists[v]
    weight, greedy = engine.incumbent(live, lists)
    greedy_sol = Solution(
        frozenset(v for v, _ in greedy), dict(greedy), Fraction(weight, engine.scale)
    )
    omega = engine.clique_number(universe)
    bound = engine.cover_bound(live, omega)
    certified: Solution | None = None
    for rung in range(2):
        if rung:  # the list-aware cover, built only when the first fails
            bound, counted = engine.list_cover(live, lists, universe)
        if bound <= weight:
            certified = greedy_sol
            break
        if not rung:
            counted = engine.cover_counted(live, omega)
        hom = exists_list_hom(inst.g, inst.h, {v: inst.lists[v] for v in iter_mask(counted)})
        if hom is not None:
            certified = Solution(frozenset(hom), hom, Fraction(bound, engine.scale))
            break
    if certified is not None:
        witness = find_induced_p5(inst.g)
        if witness is not None:
            raise NotP5FreeError(witness)
        sol, exhaustive = certified, True
    else:
        fam = build_family(inst, lambda: engine)
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
        exhaustive = fam.exhaustive
        if not exhaustive and greedy_sol.weight > blob_weight:
            sol = greedy_sol
    violation = verify_solution(inst, sol)
    if violation is not None:
        raise RuntimeError(f"internal error: pipeline produced invalid solution ({violation})")
    return SolveResult(sol, exhaustive)
