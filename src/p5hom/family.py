"""Component family construction.

Builds, for a P5-free instance, a polynomial bag of connected vertex
sets (each admitting a list homomorphism) guaranteed to contain every
connected component of some maximum-weight solution.  Seeding starts
with all single vertices carrying a nonempty list.  Then, for every
nonempty color subset W with at least two colors (lists restricted to W;
one-color components are already covered by the singletons), the builder
guesses a connected dominator set D of |W| or |W|+1 vertices and a
surjective coloring h of D onto W, prunes vertices adjacent to every
color class, guesses an irredundant second set D' of at most |W|+1
vertices (each vertex of D', taken in order, grows the seed N[D u D'];
any other D' repeats a seed already guessed), closes N[D u D'] downward
by deleting every seed vertex with a neighbor outside the seed, and
hands the closed region to the connected-case solver.  The connected
components of every answer enter the family, each with the colors that
answer gives it, a list homomorphism of the component found by the
solver: stage 3 colors the members it picks with them.  A single vertex
enters with its lowest list color.

The paper also prunes the components of G - N[D] that are not modules.
On a P5-free host that prune deletes nothing, so the region of a guess
is the graph minus the common neighbors of D's classes.  Let C be such a
component and x a vertex of the region outside C that sees part of C.
Then x is in N(D), as C is a component of G - N[D], and x is not a
common neighbor, so it is not adjacent to all of D: it has a neighbor
d1 and a non-neighbor d2 in D, and since D is connected they can be
taken adjacent.  If x saw some of C but not all of it, the connected C
would have an edge c1c2 with x adjacent to c1 only, and c2-c1-x-d1-d2
would be an induced P5.  So every component is already a module.
build_family checks that the host is P5-free, and every D walked is
connected.

Lists are restricted to W, not to h, and only the solves read them, so
the prune, the second-set walk and every closure depend on the guess
(W, D, h) only through D and the partition of D into color classes; the
partition also fixes |W|, its number of classes.  The family is a union
over every guess, so the loops may run in any order: for each size |W|,
each (D, partition) is pruned once, its first surjection in product
order standing for all of them, and W runs innermost.  Each D' is one
guess charged to the budget, and each closed region is solved under
every W of that size, piece by piece.  A piece is a component of the
region's vertices whose W-list is not empty, which is what the solver
itself would split the region into, so the components of the region's
answer are those of its pieces' answers.  A member's provenance is the
first guess in this order that yields it.

Stage 2 skips work by four rules and no others:

- no W whose pattern restriction H[W] has no edge.  Under such a W no
  two adjacent vertices can both be colored, so every answer is an
  independent set and yields only singletons, which are seeded already;
  its solves would charge no guess, each piece going to the conflict
  MWIS, and guesses are charged per second set, not per W.
- one second-set walk per (common-neighbor mask, N[D]) per size.  The
  walk and its closed cores depend only on that pair, so a pair met
  again at the size is charged its first walk's second sets in one
  call and walked no more: that walk solved every core it closes.
- one solve per (piece, W).  Each W keeps the set of pieces it has
  solved: a piece met again would yield only members already held, and
  its solve would be a memo hit that charges nothing.
- no solve of a one-vertex piece.  Its only possible member is its
  vertex, which the singletons already hold, and its solve charges no
  guess, ending at the conflict MWIS or at a greedy start that meets
  the cover bound.

A core closed again at its size needs no rule of its own: its guess is
charged before the closure, its split under each W is a hit in the
solver's component cache, and each of its pieces of two or more
vertices is in that W's set already, so it solves and yields nothing.

The common-neighbor prune is one intersection: its candidates change
only when a vertex of D goes, which drops the guess, so a guess whose D
meets the common neighbors of its classes is dropped and any other loses
exactly those.  Each D's partitions are read off its rows in one pass:
a class of one vertex adds its row to an AND, and the one class of two,
when |D| = |W| + 1, the OR of its two rows; only that class can hold a
common neighbor in D.

The components of a vertex mask depend on the mask alone, the graph
being fixed, so the family splits answers through the solver's cache
(ConnectedSolver.components), the same split the solver's own solves
use.  The walk yields every component of every answer, and the family
keeps each member's first provenance and coloring, those of the first
guess yielding it; a later answer holding it adds nothing to the family.

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
    NotP5FreeError,
    enumerate_connected_subsets,
    find_induced_p5,
    iter_mask,
    mask_from,
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
    per-member provenance ("singleton" or the first guess producing it)
    and a per-member coloring, a list homomorphism of the host graph
    induced on the member, in host ids: a singleton's lowest list color,
    or the colors that the first guess's answer gives the member.
    exhaustive is False when the guess budget ran out."""

    members: tuple[frozenset[int], ...]
    provenance: Mapping[frozenset[int], FamilyProvenance | str]
    colorings: Mapping[frozenset[int], Mapping[int, int]]
    exhaustive: bool


def _core_region_mask(adj: Sequence[int], vmask: int, seed: int) -> int:
    """The closed core of a seed region: the seed minus the neighborhood
    of the rest of the region, vmask being the graph.

    Closing the seed downward, deleting (from the graph and the region)
    each region vertex with a neighbor outside, removes a vertex from the
    region and the graph at once, so the vertices outside the region
    never change: what is left is this one expression, and it equals
    deleting the smallest such vertex and rescanning until none is left.
    """
    return seed & vmask & ~neighborhood_mask(adj, vmask & ~seed)


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
    verts = iter_mask(vmask)
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


def _class_partitions(
    size: int, kprime: int
) -> list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """(labelling, pair, singles) for each partition of size (kprime or
    kprime + 1) positions into kprime classes.  The labellings are the
    restricted-growth strings (each label at most one past the largest
    before it), in lexicographic order; pair holds the two positions of
    the one two-position class (none when size is kprime) and singles the
    other positions, each a class of its own.  At kprime + 1 the string
    counts to b, repeats a label a < b, then counts on from b, so its
    pair is (a, b).

    The first surjection onto range(kprime) in product order with a given
    class partition numbers the classes by first position, so the
    labelling is that surjection, and the partitions come in the order of
    their first surjections.
    """
    if size == kprime:
        return [(tuple(range(kprime)), (), tuple(range(kprime)))]
    out = []
    for b in range(1, kprime + 1):
        for a in range(b):
            singles = tuple(i for i in range(size) if i != a and i != b)
            out.append(((*range(b), a, *range(b, kprime)), (a, b), singles))
    return out


def _intact_partitions(
    rows: Sequence[int],
    dmask: int,
    partitions: Sequence[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]],
) -> list[tuple[tuple[int, ...], int]]:
    """(labelling, common) for each class partition of D that the
    common-neighbor prune leaves whole, in the order of partitions, the
    _class_partitions of |D| positions; rows[i] is the neighborhood of the
    i-th vertex of D, ascending, and common the vertices adjacent to a
    member of every class.

    The prune deletes, smallest first and rescanning after each
    deletion, every vertex adjacent to a live member of every class.  Its
    candidates are common until a class member, a vertex of D, goes, so it
    either reaches a vertex of D in common or deletes exactly common; a
    guess whose D loses a vertex is dropped, so common is all the walk
    needs.  A class of one vertex contributes its row to an AND, and the
    one class of two vertices, when |D| = |W| + 1, the OR of their
    rows.  No vertex is its own neighbor, so only a vertex of that pair
    can be in common: with singleton classes alone, common never meets D.
    """
    out = []
    for hidx, pair, singles in partitions:
        common = -1
        for i in singles:
            common &= rows[i]
        if pair:
            common &= rows[pair[0]] | rows[pair[1]]
            if common & dmask:
                continue
        out.append((hidx, common))
    return out


def _guessed_members(inst: Instance, solver: ConnectedSolver):
    """Yield (component mask, provenance, answer) for every component of
    an answer on a piece of two or more vertices (the caller seeds the
    singletons, the only members a one-vertex piece can give), in guess
    order: size |W|, connected dominator set D, class partition of D,
    second set D', color subset W of that size lexicographically.
    Each D' whose seed N[D u D'] is new for its (D, partition) is one
    guess, charged to the solver's budget before its region is closed;
    the walk stops when the budget cannot pay for one.

    The host must be P5-free (build_family checks it): only then is the
    region of a guess the graph minus the common neighbors of D's
    classes, the paper's module prune deleting nothing more (see the
    module docstring).

    Each (D, partition) is pruned once per size, with its first
    surjection in product order (its restricted-growth labelling, read
    through each W's colors), and each closed core is solved under every
    W of the size, piece by piece, skipping work only by the module
    docstring's four skip rules.  A repeated walk is charged its
    second-set count in one call, as that many single charges would be.

    A component is yielded at every guess whose answer holds it, with
    that guess's provenance and answer, which maps every vertex that the
    guess's solves color under its W, the component's among them, to its
    color; build_family keeps the first, and the component's colors in
    it.  Answers are split by solver.components, a pure function of the
    answer's vertex mask.
    """
    g = inst.g
    adj = g.adjacency_masks()
    full = g.full_mask
    hadj = inst.h.adjacency_masks()
    k = inst.h.k
    for kprime in range(2, min(k, g.n) + 1):
        # (W, lists restricted to W, vertices with a W-list, pieces solved),
        # for each W of the size whose H[W] has an edge
        wsets = []
        for colors in combinations(range(1, k + 1), kprime):
            wmask = mask_from(colors)
            if not any(hadj[c] & wmask for c in colors):
                continue
            lists_w = tuple(lv & wmask for lv in inst.lists_masks)
            live_w = mask_from(v for v, lv in enumerate(lists_w) if lv)
            wsets.append((colors, lists_w, live_w, set()))
        walked: dict[tuple[int, int], int] = {}  # (common, N[D]) -> second sets charged
        partitions = {s: _class_partitions(s, kprime) for s in (kprime, kprime + 1)}
        for dmask in enumerate_connected_subsets(g, kprime, min(kprime + 1, g.n)):
            doms = iter_mask(dmask)
            rows = [adj[d] for d in doms]
            closed = dmask | neighborhood_mask(adj, dmask)
            for hidx, common in _intact_partitions(rows, dmask, partitions[len(doms)]):
                charged = walked.get((common, closed))
                if charged is not None:  # every core of this walk is solved
                    if solver.spend(charged) < charged:
                        return
                    continue
                v = full & ~common
                charged = 0
                for second, seed in _second_sets(adj, v, closed & v, kprime + 1):
                    if not solver.spend():
                        return
                    charged += 1
                    core = _core_region_mask(adj, v, seed)
                    for colors, lists_w, live_w, pieces in wsets:
                        answer: dict[int, int] = {}
                        for piece in solver.components(core & live_w):
                            if piece & (piece - 1) and piece not in pieces:
                                pieces.add(piece)
                                answer.update(solver.solve_masked(piece, lists_w)[1])
                        if not answer:
                            continue
                        prov = FamilyProvenance(
                            colors, doms, tuple(colors[c] for c in hidx), second
                        )
                        for comp in solver.components(mask_from(answer)):
                            yield comp, prov, answer
                walked[common, closed] = charged


def build_family(inst: Instance, budget: int | None = None) -> Family:
    """Build the component family for a P5-free instance.

    Raises NotP5FreeError (with a witness path) otherwise, before a
    negative budget's ValueError: the solver is made after the P5 check.
    One ConnectedSolver answers every closed region, so its memo and its
    budget span the whole build: budget bounds the guesses of the run
    (one per second set D' with a new seed, plus the solver's own), and a
    build that runs out keeps the members found so far and reports
    exhaustive False.  For each size |W|, each (D, class partition) is
    pruned once, whatever W, and the walk skips work only by the module
    docstring's four skip rules, so the unit of the budget is one
    guess per (D, partition, D'), a repeated walk charged all at once;
    each member keeps the provenance of the first guess that yields it,
    and the colors that guess's answer gives it (Family.colorings).  The
    singletons are seeded first, each with its lowest list color, so no
    one-vertex piece is solved.
    """
    witness = find_induced_p5(inst.g)
    if witness is not None:
        raise NotP5FreeError(witness)
    solver = ConnectedSolver(inst, budget=budget)
    members: dict[int, tuple[FamilyProvenance | str, dict[int, int]]] = {}
    for v in inst.g.vertices:
        if inst.lists[v]:
            members[1 << v] = "singleton", {v: min(inst.lists[v])}
    for mask, prov, answer in _guessed_members(inst, solver):
        if mask not in members:
            members[mask] = prov, {v: answer[v] for v in iter_mask(mask)}

    provenance, colorings = {}, {}
    for m in sorted(members, key=lambda m: (m.bit_count(), iter_mask(m))):
        member = set_from_mask(m)
        provenance[member], colorings[member] = members[m]
    return Family(tuple(provenance), provenance, colorings, solver.exhaustive)
