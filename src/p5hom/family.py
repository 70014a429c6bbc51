"""Component family construction.

Builds, for a P5-free instance, a polynomial bag of connected vertex
sets (each admitting a list homomorphism) guaranteed to contain every
connected component of some maximum-weight solution.  Seeding starts
with all single vertices carrying a nonempty list.  Then, for every
nonempty color subset W with at least two colors (lists restricted to W;
one-color components are already covered by the singletons), the builder
guesses a connected dominator set D of |W| or |W|+1 vertices and a
surjective coloring h of D onto W, prunes vertices adjacent to every
color class, prunes components of G - N[D] that are not modules, guesses
an irredundant second set D' of at most |W|+1 vertices (each vertex of
D', taken in order, grows the seed N[D u D']; any other D' repeats a
seed already guessed), closes N[D u D'] downward by deleting every seed
vertex with a neighbor outside the seed, and hands the closed region to
the connected-case solver.  The connected components of every answer
enter the family.

Lists are restricted to W, not to h, so both prunes, the second-set
walk, every closure and every solve depend on h only through the
partition of D into color classes.  A surjection whose partition was
already walked for its (W, D) is not walked again: it charges the
budget, in one spend, what the first walk charged; and a closed region
already solved for W reuses that answer.  The work skipped would yield
only members already held, its solves would be memo hits that spend
nothing, and a partition is replayed only after its first walk
finished, so the family, its provenance and every budget charge are
those of the walk over every surjection.

The module prune and the closure are single passes.  The components of
G - N[D] are pairwise non-adjacent, so deleting the non-modules leaves
N[D] and every other component's outside neighborhood as they were;
and a closure deletion removes a vertex from the region and the graph
at once, so the vertices outside the region never change.  A second
round of either would find nothing.

All pruning works on vertex-mask views over the original graph, so
members come out in original vertex ids directly.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, combinations, product

from .connected import ConnectedSolver
from .graph import (
    Graph,
    enumerate_connected_subsets,
    find_induced_p5,
    iter_mask,
    mask_from,
    masked_components,
    set_from_mask,
)
from .pattern import Instance

__all__ = [
    "Family",
    "FamilyProvenance",
    "NotP5FreeError",
    "build_family",
]


class NotP5FreeError(Exception):
    """The input graph contains an induced 5-vertex path."""

    def __init__(self, witness: tuple[int, int, int, int, int]) -> None:
        super().__init__(f"input graph is not P5-free; induced path {witness}")
        self.witness = witness


@dataclass(frozen=True)
class FamilyProvenance:
    """Which guess produced a member: the color subset, the dominators,
    their coloring, and the second guessed set."""

    colors: tuple[int, ...]
    dominators: tuple[int, ...]
    coloring: tuple[int, ...]
    second: tuple[int, ...]


@dataclass(frozen=True)
class Family:
    """Deduplicated members (sorted by size, then lexicographically) with
    per-member provenance ("singleton" or the first guess producing it);
    exhaustive is False when the guess budget ran out."""

    members: tuple[frozenset[int], ...]
    provenance: Mapping[frozenset[int], FamilyProvenance | str]
    exhaustive: bool


def _prune_common_mask(
    adj: Sequence[int], vmask: int, class_masks: Sequence[int]
) -> int:
    """Delete, smallest id first and one at a time, any vertex adjacent to
    at least one live member of every color class.

    One ascending sweep suffices: a deletion only shrinks the live
    classes, so a vertex that is not adjacent to all of them stays so
    for the rest of the run, and the next victim is always larger than
    the last.  The result equals that of restarting from the smallest
    vertex after every deletion.
    """
    alive = [cm & vmask for cm in class_masks]
    if not all(alive):
        return vmask
    for v in iter_mask(vmask):
        av = adj[v]
        if all(av & a for a in alive):
            bit = 1 << v
            vmask ^= bit
            alive = [a & ~bit for a in alive]
            if not all(alive):
                break
    return vmask


def _prune_non_modules_mask(g: Graph, vmask: int, dmask: int) -> int:
    """Delete every component of the graph minus N[D] that is not a module
    of the graph.

    One round suffices: the components are pairwise non-adjacent, so
    deleting some of them changes neither N[D] nor the outside
    neighborhood of any other component, and every survivor stays a
    module.
    """
    adj = g.adjacency_masks()
    nd = dmask & vmask
    for d in iter_mask(dmask & vmask):
        nd |= adj[d]
    bad = 0
    for comp in masked_components(g, vmask & ~nd):
        first = comp & -comp
        ref = adj[first.bit_length() - 1] & vmask & ~comp
        for v in iter_mask(comp ^ first):
            if adj[v] & vmask & ~comp != ref:
                bad |= comp
                break
    return vmask & ~bad


def _core_region_mask(adj: Sequence[int], vmask: int, seed: int) -> int:
    """Close the seed region downward: delete (from the graph and the
    region) every region vertex with a neighbor outside, and return what
    is left of the region.

    One pass suffices: a deletion removes the vertex from both the region
    and the graph, so the vertices outside the region never change, and
    the result equals that of deleting the smallest such vertex and
    rescanning until none is left.
    """
    core = seed & vmask
    outside = vmask & ~core
    for v in iter_mask(core):
        if adj[v] & outside:
            core ^= 1 << v
    return core


def _surjections(doms: tuple[int, ...], colors: tuple[int, ...]):
    """All colorings of doms using every color at least once."""
    want = set(colors)
    for combo in product(colors, repeat=len(doms)):
        if set(combo) == want:
            yield combo


def _second_sets(adj: Sequence[int], vmask: int, seed: int, max_size: int):
    """Yield (D', N[D u D']) for each second set D' of at most max_size
    vertices of vmask whose seed is new, in size-then-lexicographic order
    of D'; seed is N[D] inside vmask.

    Only irredundant D' are walked: a set of size s extends a set of size
    s-1 that brought a new seed by a later vertex whose closed
    neighborhood grows that seed.  A skipped set has the seed of a smaller
    or lexicographically earlier set, so the walk yields exactly the first
    occurrences that a walk over all subsets would, in the same order.
    """
    closed = [0] * len(adj)
    for v in iter_mask(vmask):
        closed[v] = (adj[v] | 1 << v) & vmask
    verts = list(iter_mask(vmask))
    seen = {seed}
    yield (), seed
    frontier = [((), seed, 0)]
    for _ in range(max_size):
        grown_sets = []
        for second, base, start in frontier:
            for i in range(start, len(verts)):
                v = verts[i]
                grown = base | closed[v]
                if grown in seen:  # also when v does not grow base
                    continue
                seen.add(grown)
                nxt = second + (v,)
                yield nxt, grown
                grown_sets.append((nxt, grown, i + 1))
        frontier = grown_sets


def _guessed_members(inst: Instance, solver: ConnectedSolver):
    """Yield (component mask, provenance) for every answer component, in
    guess order: color subset W by size then lexicographically, connected
    dominator set D, surjection h, second set D'.  Each D' whose seed
    N[D u D'] is new for its (W, D, h) is one guess charged to the
    solver's budget; the walk stops when the budget cannot pay for one.

    The walk of (W, D, h) depends on h only through the partition of D
    into color classes, so a surjection whose partition was walked before
    for the same (W, D) is not walked again: it charges, in one spend,
    the number of second sets the first walk charged (a pruned dominator
    charged none), and stops the generator if the budget cannot pay for
    all of them.  A repeated walk would yield only components an earlier
    guess already yielded, its solves would be memo hits that spend
    nothing, and a walk is replayed only once it has finished, so the
    budget pays for the same guesses in the same order.  Likewise each
    closed region is solved once per W: a repeated core reuses the
    component masks of its first answer.
    """
    g = inst.g
    adj = g.adjacency_masks()
    full = g.full_mask
    k = inst.h.k
    subsets = chain.from_iterable(
        combinations(range(1, k + 1), size) for size in range(2, min(k, g.n) + 1)
    )
    for colors in subsets:
        wmask = mask_from(colors)
        kprime = len(colors)
        lists_w = tuple(lv & wmask for lv in inst.lists_masks)
        regions: dict[int, list[int]] = {}  # closed core -> answer components
        for dset in enumerate_connected_subsets(g, kprime, min(kprime + 1, g.n)):
            doms = tuple(sorted(dset))
            dmask = mask_from(doms)
            walked: dict[frozenset[int], int] = {}  # class partition -> charged
            for h in _surjections(doms, colors):
                classes: dict[int, int] = {}
                for d, c in zip(doms, h):
                    classes[c] = classes.get(c, 0) | (1 << d)
                partition = frozenset(classes.values())
                charged = walked.get(partition)
                if charged is not None:
                    if solver.spend(charged) < charged:
                        return
                    continue
                charged = walked[partition] = 0
                v1 = _prune_common_mask(adj, full, list(classes.values()))
                v2 = _prune_non_modules_mask(g, v1, dmask)
                if dmask & ~v2:
                    continue  # a dominator was pruned; the region step needs D intact
                closed_d = dmask
                for d in doms:
                    closed_d |= adj[d]
                closed_d &= v2
                for second, seed in _second_sets(adj, v2, closed_d, kprime + 1):
                    if not solver.spend():
                        return
                    charged += 1
                    core = _core_region_mask(adj, v2, seed)
                    if not core:
                        continue
                    comps = regions.get(core)
                    if comps is None:
                        _, assignment = solver.solve_masked(core, lists_w)
                        chosen = mask_from(v for v, _ in assignment)
                        comps = regions[core] = masked_components(g, chosen)
                    prov = FamilyProvenance(colors, doms, h, second)
                    for comp in comps:
                        yield comp, prov
                walked[partition] = charged


def build_family(inst: Instance, budget: int | None = None) -> Family:
    """Build the component family for a P5-free instance.

    Raises NotP5FreeError (with a witness path) otherwise.  One
    ConnectedSolver answers every closed region, so its memo and its
    budget span the whole build: budget bounds the guesses of the run
    (one per second set D' with a new seed, plus the solver's own), and a
    build that runs out keeps the members found so far and reports
    exhaustive False.  Each (W, D, class partition) is walked once and
    each (W, closed region) solved once; a repeated partition charges
    what its first walk charged, so a budget pays for the same guesses
    as a walk over every surjection, and each member keeps the
    provenance of the first guess that yields it.
    """
    witness = find_induced_p5(inst.g)
    if witness is not None:
        raise NotP5FreeError(witness)
    members: dict[int, FamilyProvenance | str] = {}
    for v in inst.g.vertices:
        if inst.lists[v]:
            members.setdefault(1 << v, "singleton")
    solver = ConnectedSolver(inst.g, inst.h, inst.wt_tuple, budget=budget)
    for mask, prov in _guessed_members(inst, solver):
        members.setdefault(mask, prov)

    ordered = sorted(members, key=lambda m: (m.bit_count(), tuple(iter_mask(m))))
    member_sets = tuple(set_from_mask(m) for m in ordered)
    provenance = {set_from_mask(m): members[m] for m in ordered}
    return Family(member_sets, provenance, solver.exhaustive)
