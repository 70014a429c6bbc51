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

Lists are restricted to W, not to h, and only the solves read them, so
both prunes, the second-set walk and every closure depend on the guess
(W, D, h) only through D and the partition of D into color classes; the
partition also fixes |W|, its number of classes.  The family is a union
over every guess, so the loops may run in any order: for each size |W|,
each (D, partition) is walked once, its first surjection in product
order standing for all of them, and W runs innermost.  Each D' is one
guess charged to the budget, and each closed region new to the size is
solved under every W of that size.  A region met again would yield only
members already held, and its solves would be memo hits.  A member's
provenance is the first guess in this order that yields it.  The
common-neighbor prune deletes its victims a mask at a time: every
candidate up to the next class member in one step.

The module prune and the closure are single passes.  The components of
G - N[D] are pairwise non-adjacent, so deleting the non-modules leaves
N[D] and every other component's outside neighborhood as they were;
and a closure deletion removes a vertex from the region and the graph
at once, so the vertices outside the region never change.  A second
round of either would find nothing.

Every step, the dominator enumeration included, works on vertex masks
over the original graph, so members come out in original vertex ids
directly; they become frozensets only in the returned Family.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import combinations

from .connected import ConnectedSolver
from .graph import (
    Graph,
    NotP5FreeError,
    enumerate_connected_subsets,
    find_induced_p5,
    iter_mask,
    mask_from,
    masked_components,
    neighborhood_mask,
    set_from_mask,
)
from .pattern import Instance

__all__ = [
    "Family",
    "FamilyProvenance",
    "NotP5FreeError",
    "build_family",
]


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

    A deletion only shrinks the live classes, so a vertex that is not
    adjacent to all of them stays so for the rest of the run, and the
    next victim is always larger than the last: one ascending sweep
    gives the result of restarting from the smallest vertex after every
    deletion.  The sweep works a mask at a time.  The candidates above
    the last deletion are the vertices of vmask adjacent to every live
    class; deleting one that is not a class member leaves the classes
    as they were, so every candidate up to and including the first class
    member goes in one step, and the candidates are recomputed only after
    a class member leaves.  A victim keeps, in every class, the live
    neighbor that made it one, so no class empties during the sweep; a
    class with no member in vmask stops it before it starts.
    """
    alive = [cm & vmask for cm in class_masks]
    if not all(alive):
        return vmask
    reach = [neighborhood_mask(adj, a) for a in alive]
    members = 0
    for a in alive:
        members |= a
    passed = 0  # the sweep has gone past these bits
    while True:
        cand = vmask & ~passed
        for r in reach:
            cand &= r
        hit = cand & members
        if not hit:
            return vmask & ~cand
        low = hit & -hit
        passed = (low << 1) - 1
        vmask &= ~(cand & passed)
        members ^= low
        for i, a in enumerate(alive):
            if a & low:
                alive[i] = a ^ low
                reach[i] = neighborhood_mask(adj, a ^ low)


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
    nd |= neighborhood_mask(adj, nd)
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


def _class_labellings(size: int, kprime: int, head: tuple[int, ...] = ()):
    """One labelling of size positions per partition of them into kprime
    classes: the restricted-growth strings (each label at most one past
    the largest before it), in lexicographic order, extending head.

    The first surjection onto range(kprime) in product order with a given
    class partition numbers the classes by first position, so this is
    that surjection, and the partitions come in the order of their first
    surjections.
    """
    rest = size - len(head)
    if not rest:
        yield head
        return
    top = max(head, default=-1) + 1  # classes opened so far
    if kprime - top > rest:
        return
    labels = (top,) if kprime - top == rest else range(min(top + 1, kprime))
    for c in labels:
        yield from _class_labellings(size, kprime, head + (c,))


def _guessed_members(inst: Instance, solver: ConnectedSolver):
    """Yield (component mask, provenance) for every answer component, in
    guess order: size |W|, connected dominator set D, class partition of
    D, second set D', color subset W of that size lexicographically.
    Each D' whose seed N[D u D'] is new for its (D, partition) is one
    guess, charged to the solver's budget before its region is closed;
    the walk stops when the budget cannot pay for one.

    Lists are restricted to W, not to h, and only the solves read them,
    so the prunes, the second sets and their closed cores depend on
    (W, D, h) only through D and the class partition of D under h, which
    also fixes |W| as its number of classes.  Each (D, partition) is
    walked once per size, with its first surjection in product order
    (its restricted-growth labelling, read through each W's colors), and
    each closed core new to the size is solved under every W of the size.
    A core met again would yield only components already yielded, and
    its solves would be memo hits that spend nothing.
    """
    g = inst.g
    adj = g.adjacency_masks()
    full = g.full_mask
    k = inst.h.k
    for kprime in range(2, min(k, g.n) + 1):
        wsets = [
            (colors, tuple(lv & mask_from(colors) for lv in inst.lists_masks))
            for colors in combinations(range(1, k + 1), kprime)
        ]
        solved = {0}  # closed cores solved at this size; an empty core needs no solve
        for dmask in enumerate_connected_subsets(g, kprime, min(kprime + 1, g.n)):
            doms = tuple(iter_mask(dmask))
            for hidx in _class_labellings(len(doms), kprime):
                classes = [0] * kprime
                for d, c in zip(doms, hidx):
                    classes[c] |= 1 << d
                v = _prune_common_mask(adj, full, classes)
                if dmask & ~v:
                    continue  # the region step needs D intact
                v = _prune_non_modules_mask(g, v, dmask)  # keeps N[D]
                closed_d = (dmask | neighborhood_mask(adj, dmask)) & v
                for second, seed in _second_sets(adj, v, closed_d, kprime + 1):
                    if not solver.spend():
                        return
                    core = _core_region_mask(adj, v, seed)
                    if core in solved:
                        continue
                    solved.add(core)
                    for colors, lists_w in wsets:
                        _, assignment = solver.solve_masked(core, lists_w)
                        prov = FamilyProvenance(
                            colors, doms, tuple(colors[c] for c in hidx), second
                        )
                        for comp in masked_components(g, mask_from(u for u, _ in assignment)):
                            yield comp, prov


def build_family(inst: Instance, budget: int | None = None) -> Family:
    """Build the component family for a P5-free instance.

    Raises NotP5FreeError (with a witness path) otherwise.  One
    ConnectedSolver answers every closed region, so its memo and its
    budget span the whole build: budget bounds the guesses of the run
    (one per second set D' with a new seed, plus the solver's own), and a
    build that runs out keeps the members found so far and reports
    exhaustive False.  For each size |W|, each (D, class partition) is
    walked once, whatever W, and each closed region new to the size is
    solved under every W of that size, so the unit of the budget is one
    guess per (D, partition, D'); each member keeps the provenance of
    the first guess that yields it.
    """
    witness = find_induced_p5(inst.g)
    if witness is not None:
        raise NotP5FreeError(witness)
    members: dict[int, FamilyProvenance | str] = {}
    for v in inst.g.vertices:
        if inst.lists[v]:
            members.setdefault(1 << v, "singleton")
    solver = ConnectedSolver(inst, budget=budget)
    for mask, prov in _guessed_members(inst, solver):
        members.setdefault(mask, prov)

    ordered = sorted(members, key=lambda m: (m.bit_count(), tuple(iter_mask(m))))
    member_sets = tuple(set_from_mask(m) for m in ordered)
    provenance = {set_from_mask(m): members[m] for m in ordered}
    return Family(member_sets, provenance, solver.exhaustive)
