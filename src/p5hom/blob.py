"""Blob-graph reduction: from a component family to one MWIS call.

Two vertex sets touch when they share a vertex or an edge joins them.
The blob graph is a WeightedGraph with one vertex per family member,
weighted by the member's total weight, with edges between touching
members; the touching rule lives in build_blob_graph, as one mask test
per pair.  A maximum weight independent set of the blob graph selects
pairwise non-touching members whose union is the final answer; each
selected member keeps the coloring it entered the family with
(Family.colorings), a list homomorphism of the host graph induced on
it, in host ids.  The colorings cannot conflict because non-touching
sets share neither vertices nor edges.

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
clique.  Both bounds read one greedy cover in weight order, walked
once.  The coloring is the greedy's, when it meets a bound, or a list
homomorphism of the vertices a bound counts, which weigh it exactly (see
solve_full).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# perfbench's tracer wraps the stages by their names in this module, so
# solve_full calls them through these names
from .family import Family, build_family
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
    # blob vertex i + 1's adjacency mask, one touching test per pair
    badj = [0] * (m + 1)
    for i, mask in enumerate(masks):
        reach = mask | neighborhood_mask(adj, mask)
        for j in range(i + 1, m):
            if reach & masks[j]:
                badj[i + 1] |= 1 << (j + 1)
                badj[j + 1] |= 1 << (i + 1)
    return BlobGraph(Graph.from_adjacency(badj), weights, members)


def solve_full(inst: Instance, budget: int | None = None) -> SolveResult:
    """Full pipeline: certificate, or family, blob graph, MWIS, and the
    picked members' colorings from the family.

    Raises NotP5FreeError on inputs with an induced 5-vertex path, and
    ValueError on a negative budget.  The first step colors the whole
    instance greedily (ConnectedSolver.incumbent over the vertices with a
    nonempty list) and tries to certify a coloring of the whole instance
    against two upper bounds on the optimum, in turn, both yielded by
    ConnectedSolver.certificate_covers.  Both split the vertices into host
    cliques greedily, the second sharing the first's cover in weight order.
    The first lets each clique count its omega heaviest vertices, omega the
    pattern's clique number on every list color.  The second lets each
    clique count its heaviest vertices whose lists can take pairwise
    distinct colors of one maximal pattern clique, and takes the lesser of
    two covers, the weight order's and one in degree order.  Both bound the
    optimum: the colored vertices of a host clique are pairwise adjacent,
    and the pattern is loopless, so they take pairwise distinct, pairwise
    pattern-adjacent colors of their lists, a pattern clique of at most
    omega colors matched to them; weights are nonnegative.  Against each
    bound in turn, a greedy that meets it is optimal, and so is a list
    homomorphism (exists_list_hom) of the vertices it counts, which weigh
    the bound exactly.  The second bound is built only when neither check
    passes against the first.  A certified coloring is returned after the P5
    check, exhaustive at any budget, with no guess made and no family built.
    Otherwise the family is built by build_family, which makes the P5
    check and builds its own ConnectedSolver from the budget; its blob graph
    is solved and each picked member takes the coloring the family carries
    for it (Family.colorings: the colors of the answer of the guess that
    first yielded it), with no search made again.  The returned solution is
    always verified feasible; with an uncapped budget and a complete pattern
    it is exact at the scales the test suite probes (the differential suite
    measures any gap for other patterns).  budget bounds the guesses of the
    whole family build (see build_family); exhaustive is False when it ran
    out.  A cut family may hold only small members, so a run that is not
    exhaustive returns the greedy instead when that is strictly heavier;
    ties keep the blob answer.  The greedy's Solution is built only where
    it is returned: on the greedy certificate and on that fallback.  The
    solution stores its weight, so verify_solution's weight check also
    checks that the colored members (or the certified or greedy vertices)
    add up to it.
    """
    # made first, so a negative budget raises before any work
    engine = ConnectedSolver(inst, budget=budget)
    lists = inst.lists_masks
    live = universe = 0
    for v in inst.g.vertices:
        if lists[v]:
            live |= 1 << v
            universe |= lists[v]
    weight, greedy = engine.incumbent(live, lists)
    greedy_weight = Fraction(weight, engine.scale)
    certified: Solution | None = None
    for bound, counted in engine.certificate_covers(live, lists, universe):
        if bound <= weight:
            coloring = dict(greedy)
            certified = Solution(frozenset(coloring), coloring, greedy_weight)
            break
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
        fam = build_family(inst, budget)
        blob = build_blob_graph(inst, fam)
        picked, blob_weight = solve_mwis(blob)
        coloring = {}
        for bv in sorted(picked):
            coloring.update(fam.colorings[blob.members[bv - 1]])
        sol = Solution(frozenset(coloring), coloring, blob_weight)
        exhaustive = fam.exhaustive
        if not exhaustive and greedy_weight > blob_weight:
            coloring = dict(greedy)
            sol = Solution(frozenset(coloring), coloring, greedy_weight)
    violation = verify_solution(inst, sol)
    if violation is not None:
        raise RuntimeError(f"internal error: pipeline produced invalid solution ({violation})")
    return SolveResult(sol, exhaustive)
