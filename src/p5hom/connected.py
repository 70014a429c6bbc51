"""Solver stage for instances whose optimum is promised connected.

The search guesses a small dominating set D inside the optimum, splits
the remaining vertices into the neighborhood parts X_1..X_|D| carved out
by D's members in order, and deletes everything D does not dominate.
Every connected P5-free graph has a dominating clique or a dominating
induced P3 (Bacsó and Tuza, 1990; Camby and Schaudt, 2016), and one
that has no induced C5 either has a dominating clique (Bacsó and Tuza,
1990; Cozzens and Kelleher, 1990).  A clique inside an H-colorable set
takes pairwise distinct, pairwise adjacent colors, H being loopless, so
it has at most omega vertices, omega being the clique number of H on
the colors of the live lists.  D therefore ranges over those cliques
and the induced P3s only: one of them dominates a connected optimum.
The tuples come from one growth rule, a clique growing by each vertex
of its common neighborhood above its last vertex, level by level from
the single vertices; the induced P3s (a non-adjacent pair with a common
neighbor) join the size-3 level, which is then sorted, so the tuples
come by size, then lexicographically.
The solver checks its host graph for an induced C5 once, and when there
is none it walks the cliques alone: every piece it searches is an
induced subgraph of that host, so a connected optimum of a piece has
neither an induced P5 nor an induced C5, and a clique of it dominates
it.  Cographs and split graphs never have an induced C5.  The search
then guesses,
for every part pair (i, j) with i < j and every color r, a set of at
most two independent vertices of X_i standing in for the optimum's
r-colored X_i vertices; the guess drives two list cleanups:

  1. every X_j vertex adjacent to the guessed set keeps only colors
     pattern-adjacent to r;
  2. across every edge between different parts, the lower-indexed
     endpoint keeps only the colors pattern-adjacent to every color left
     on the other; one pass over the parts in order settles every such
     edge, since a part's lists shrink only after every lower part has
     read them.

The search colors D before it guesses the stand-ins.  For each
dominator tuple it tries every coloring of D (adjacent dominators on
pattern-adjacent colors) and propagates it onto N(D): a neighbor of a
dominator keeps only the colors pattern-adjacent to the dominator's.
Only then are the stand-ins guessed and the cleanups run, on the
propagated lists of the vertices still live.  The cleanups never touch
D's own lists, so the order is free, and it stays sound: in the branch
that colors D as an optimum O colors it, propagation keeps every color
that O uses, so O's r-colored X_i vertices still hold r and the right
stand-in guess is still in the pool.  Rule 1 then keeps O's colors, and
so does rule 2: in that branch rule 1 has already cut every later-part
neighbor of an O-colored X_i vertex to the colors pattern-adjacent to
that vertex's color, and rule 2 only reads lists that small or smaller.
Under a complete pattern every X_i vertex has lost d_i's color, so no
stand-in for that color is guessed in X_i.

D is then removed and each part recurses as an independent smaller
instance; the color universe inside a part shrinks by the dominator's
color, so the recursion depth is at most k.  The recursion stops at a
piece whose live lists are all single colors or whose live colors span
no pattern edge (omega = 1): there every answer is an independent set
of a conflict graph, solved exactly by the MWIS (_conflict_mwis).  A
part is solved by the same connected search, which is exact only when
the part has a connected optimum, and O's vertices in a part need not
be connected.  So the branch of one clique D that dominates a connected
optimum O can fall short of O (the random-p5free instance with n = 8,
K3, seed 7, density 1/2, list density 7/10 and weights 0..6, digest
c4042a2af7a6: D = (3, 6) reaches 287/12 of 73/3); exactness rests on
trying every tuple.  Every assembled candidate
is feasible by construction, since every edge of it is covered: D-D
edges by D's coloring, D-part edges by the propagation, in-part edges
by the recursion and part-crossing edges by rule 2.  Each candidate is
still checked against the branch's entry lists; a failure would be an
internal inconsistency and raises RuntimeError.  Each piece starts from
a greedy coloring (heaviest vertex first, each taking the lowest list
color that fits its colored neighbors), feasible by construction and
possibly disconnected; the final answer is the best candidate, never
worse than that start.

The best answer so far is replaced only by a strictly heavier candidate,
and weights are nonnegative, so a branch that no candidate heavier than
the best weight so far can come from cannot change the answer.  Such a
branch is skipped at four points.  The whole piece, a dominator tuple
(by N[D]), a dominator coloring (by N[D] minus the vertices its
propagation empties) and a cleaned state (by the vertices it keeps) are
bounded by a clique cover (mwis.clique_cover_bound, the MWIS's bound
too): the vertices are split greedily into host cliques, and each
clique counts only its omega heaviest vertices, since an answer colors
at most omega vertices of a clique.  A cleaned state that passes solves
every part it keeps, and its candidate is compared with the best once.
The answer, ties included, is the one the search without these skips
would return from the same greedy start.

All recursion operates on (vertex mask, list-mask vector) views over the
original graph, memoized in one table so that a family build can share
work across thousands of overlapping sub-instances.  An optional budget
bounds the guesses of the whole run: dominator tuples, dominator
colorings and cleanup states draw on one counter, shared with the family
build's second sets when the family drives the solver; on a host with no
induced C5 no P3 is walked, so none is charged.  The solver is
built from an Instance and scales its weights once to integers
(mwis.scale_weights), so no sum inside the search is a Fraction.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product

from .graph import (
    NotP5FreeError,
    find_induced_c5,
    find_induced_p5,
    iter_mask,
    mask_from,
    masked_components,
    maximal_cliques,
)
from .mwis import (
    clique_cover_bound,
    clique_cover_counted,
    list_clique_cover,
    scale_weights,
    solve_mwis_masked,
)
from .pattern import Instance, Solution, verify_solution

__all__ = [
    "SolveResult",
    "solve_connected_case",
    "ConnectedSolver",
]


@dataclass(frozen=True)
class SolveResult:
    """A solver answer plus whether the search ran to completion.

    exhaustive is False only when the run's guess budget ran out before
    every guess was tried, in which case the solution is still feasible
    but may be suboptimal.
    """

    solution: Solution
    exhaustive: bool


def _conflict_mwis(
    adj: Sequence[int],
    vmask: int,
    lists: Sequence[int],
    hadj: Sequence[int],
    weights: Sequence[int],
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Exact solve when every live list is a single color, or when no two
    live colors are pattern-adjacent (omega = 1).

    Each vertex takes the lowest color of its list.  Builds the conflict
    graph (host edges whose color pair is not a pattern edge) and returns
    its MWIS with that coloring.  With one color per list the coloring is
    forced; with omega = 1 every host edge is a conflict, so an answer is
    an independent set and any list color serves.  The weight is in the
    units of weights.
    """
    color = {}
    for v in iter_mask(vmask):
        color[v] = (lists[v] & -lists[v]).bit_length() - 1
    conf = [0] * len(adj)
    for v in iter_mask(vmask):
        for u in iter_mask(adj[v] & vmask & (-1 << (v + 1))):
            if not hadj[color[v]] >> color[u] & 1:
                conf[v] |= 1 << u
                conf[u] |= 1 << v
    mask, weight = solve_mwis_masked(conf, vmask, weights)
    return weight, tuple((v, color[v]) for v in iter_mask(mask))


def _cross_part_cleanup(
    adj: Sequence[int],
    hadj: Sequence[int],
    lists: list[int],
    part_masks: Sequence[int],
    used: int,
) -> int:
    """Second cleanup, in place: across every part-crossing edge, the lower
    part's endpoint keeps only the colors pattern-adjacent to every color
    left on the higher part's endpoint.

    One pass over the parts in order suffices: a part's lists change only
    while that part is processed, after every lower part has read them,
    and lists only shrink.  Returns used (the dominators plus their parts)
    minus the part vertices left with an empty list, which the branch
    deletes.
    """
    later = 0
    for x in part_masks:
        later |= x
    kept = used
    for x in part_masks:
        later &= ~x
        for u in iter_mask(x):
            lu = lists[u]
            for v in iter_mask(adj[u] & later):
                for c in iter_mask(lists[v]):
                    lu &= hadj[c]
            lists[u] = lu
            if not lu:
                kept &= ~(1 << u)
    return kept


def _dominator_tuples(
    adj: Sequence[int], vmask: int, omega: int, p3s: bool
) -> Iterator[tuple[int, ...]]:
    """The dominator tuples of the live piece vmask: its cliques of 1..omega
    vertices and, at size 3 when p3s is set, its induced P3s.  The solver
    passes the clique number of the pattern on the live colors as omega,
    so under a bipartite pattern (a path, say) no triangle is walked, and
    clears p3s when its host graph has no induced C5, so on such a host
    only cliques are walked.

    Tuples are ascending and come by size, then lexicographically, which
    is the order of combinations(sorted vmask, size) with every other
    tuple left out.  Each is built from neighborhood masks, never by
    testing a combination, by one rule: a clique grows by each vertex of
    its common neighborhood above its last vertex, a level at a time, so
    each level comes in order.  The singletons are yielded as nbr is
    built, and the last level is yielded as it grows, its own common
    neighborhoods never built.  An induced P3 is a non-adjacent pair
    a < b with a common neighbor; with p3s these join the size-3 level,
    which is then sorted.
    """
    verts = iter_mask(vmask)
    nbr = [0] * len(adj)
    for v in verts:
        nbr[v] = adj[v] & vmask
        yield (v,)
    # (clique, its common neighborhood above its last vertex)
    cliques = [((v,), nbr[v] & (-1 << (v + 1))) for v in verts] if omega > 1 else []
    for size in range(2, max(omega, 3 if p3s else 0) + 1):
        if size < omega:
            cliques = [(t + (c,), common & nbr[c] & (-1 << (c + 1)))
                       for t, common in cliques for c in iter_mask(common)]
            level = [t for t, _ in cliques]
        else:
            level = (t + (c,) for t, common in cliques for c in iter_mask(common))
            cliques = []
        if size == 3 and p3s:
            level = sorted([*level, *(tuple(sorted((a, b, c))) for a in verts
                                      for b in iter_mask(vmask & ~nbr[a] & (-1 << (a + 1)))
                                      for c in iter_mask(nbr[a] & nbr[b]))])
        yield from level


class ConnectedSolver:
    """Reusable engine over one Instance's graph, pattern and weights.

    solve_masked answers sub-instances given as (vertex mask, list-mask
    vector); results are memoized across calls, so a family build can
    reuse everything.  The memo key is the nonempty lists of the mask's
    vertices in vertex order followed by the mask of those (live)
    vertices: no answer reads a list outside them, so vectors that differ
    only there share one entry.  budget, when set, is the number of
    guesses the solver's whole life may make, charged through spend in
    this order:
    one per dominator tuple, then for the tuple one per dominator
    coloring, each followed by one per cleanup state kept for that
    coloring, and whatever the caller charges (the family build: one per
    second set with a new seed).  A guess the budget cannot pay for is
    skipped and clears the exhaustive flag.  A negative budget raises
    ValueError.  A dominator tuple or a dominator coloring skipped by the
    clique-cover bound costs its one guess and nothing more; a piece
    whose greedy start already meets the bound costs none.

    The dominator tuples are the cliques of the piece and, only when the
    host graph has an induced C5 (graph.find_induced_c5, run once, the
    first time a piece walks its tuples), its induced P3s.  Every piece
    is an induced subgraph of the host, so on a C5-free host a connected
    optimum of a piece is (P5, C5)-free and has a dominating clique
    (Bacsó and Tuza, 1990; Cozzens and Kelleher, 1990), of at most omega
    vertices as it is H-colorable: the P3s are not needed, and a budget
    pays for none of them.

    Inside the solver weights are inst.wt scaled to integers by
    mwis.scale_weights; solve_masked returns weights in these units, and
    weight / scale is the exact one.  An Instance holds no negative
    weight, so no vertex lowers a sum: that makes it sound to skip every
    branch whose bound cannot strictly beat the best so far.  The
    solver also keeps the vertices in one weight-descending order (ties
    by id) for the greedy start and the bound, the pattern's clique
    number per color mask, and the bound per (mask, omega).

    One more cache holds a result that depends on its key alone: the
    components of each vertex mask (components, the one split used by
    solve_masked and the family's splits of closed regions and answers).
    It changes no guess charge, as a split is never charged.
    """

    def __init__(self, inst: Instance, budget: int | None = None) -> None:
        self._g = inst.g
        self._adj = inst.g.adjacency_masks()
        self._hadj = inst.h.adjacency_masks()
        self.scale, self._wt = scale_weights(inst.wt)
        # heaviest first, ties by id: the incumbent's and the bound's order
        self._order = sorted(inst.g.vertices, key=lambda v: (-self._wt[v], v))
        self._omega = {0: 0}  # clique_number's table, by color mask
        self._bounds: dict[tuple[int, int], int] = {}  # cover_bound's, by (mask, omega)
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be nonnegative, got {budget}")
        self._left = budget
        self.exhaustive = True
        # (*the live lists, the live mask) -> answer; the mask fixes whose
        # lists they are
        self._memo: dict[tuple[int, ...], tuple[int, tuple[tuple[int, int], ...]]] = {}
        self._components: dict[int, tuple[int, ...]] = {}  # vertex mask -> its components

    @cached_property
    def _p3s(self) -> bool:
        """Whether the host has an induced C5, the only host that needs P3
        dominators; checked when first read (the first tuple walk), and a
        value set on the solver wins."""
        return find_induced_c5(self._g) is not None

    # -- public entry ------------------------------------------------------

    def spend(self, n: int = 1) -> int:
        """Charge up to n guesses to the budget and return how many it paid
        for; paying for fewer than n clears the exhaustive flag."""
        if self._left is None:
            return n
        paid = min(n, self._left)
        self._left -= paid
        if paid < n:
            self.exhaustive = False
        return paid

    def solve_masked(
        self, vmask: int, lists: Sequence[int]
    ) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Best verified (weight, sorted (vertex, color) pairs) found; the
        weight is in scaled integer units (divide by scale).  Only the
        vertices of vmask with a nonempty list take part, and only their
        lists are read."""
        live = 0
        live_lists = []
        for v in iter_mask(vmask):
            lv = lists[v]
            if lv:
                live |= 1 << v
                live_lists.append(lv)
        if not live:
            return 0, ()
        key = (*live_lists, live)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        comps = self.components(live)
        if len(comps) > 1:
            total = 0
            asg: list[tuple[int, int]] = []
            for comp in comps:
                w, a = self.solve_masked(comp, lists)
                total += w
                asg.extend(a)
            result = (total, tuple(sorted(asg)))
        else:
            result = self._solve_piece(live, lists)
        self._memo[key] = result
        return result

    def components(self, mask: int) -> tuple[int, ...]:
        """The connected components of the graph induced on mask, as masks
        ordered by smallest vertex (graph.masked_components).

        The split depends on the mask alone, since the graph is the
        solver's for its whole life, so each mask is split once per solver
        and served as the same tuple after that; a tuple, so that no
        caller can change what the next one gets.
        """
        comps = self._components.get(mask)
        if comps is None:
            comps = self._components[mask] = tuple(masked_components(self._g, mask))
        return comps

    # -- one connected sub-instance -----------------------------------------

    def _solve_piece(
        self, vmask: int, lists: Sequence[int]
    ) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Best verified answer on one connected live vmask.

        A piece whose live lists are all single colors, or whose live
        colors span no pattern edge (omega = 1), is solved exactly by
        _conflict_mwis and charges no guess: with omega = 1 no two
        adjacent vertices can both be colored, so the tuple walk would
        find nothing heavier than its greedy start.  Otherwise the
        dominator tuples are those of _dominator_tuples, with omega
        the clique number of the pattern on the colors of the live lists:
        the cliques of at most omega vertices and, when the host has an
        induced C5, the induced P3s.  A connected optimum induces a
        connected P5-free graph, which has a dominating clique or a
        dominating induced P3 (Bacsó and Tuza; Camby and Schaudt), and a
        dominating clique when it also has no induced C5 (Bacsó and Tuza;
        Cozzens and Kelleher); its cliques take pairwise distinct,
        pairwise adjacent colors, so one of these tuples dominates it.
        When no optimum of the piece is connected, no tuple need dominate
        one, and the answer (still verified) may fall short, though never
        below the greedy start.  Each tuple is charged one guess before
        its branch.

        The best answer so far starts at the greedy incumbent and is
        replaced only by a strictly heavier candidate.  When the piece's
        clique-cover bound is at most the incumbent's weight, no candidate
        can replace it and the piece returns it at once; otherwise a
        branch whose bound is at most the best weight so far is skipped
        (see _branch).  Skipping such a branch leaves
        every later comparison as it was, so the answer, ties included,
        is the one the search without skips would return from the same
        start.
        """
        universe = 0
        all_singletons = True
        for v in iter_mask(vmask):
            lv = lists[v]
            universe |= lv
            if lv & (lv - 1):
                all_singletons = False
        omega = self.clique_number(universe)
        if all_singletons or omega == 1:
            return _conflict_mwis(self._adj, vmask, lists, self._hadj, self._wt)
        best = self.incumbent(vmask, lists)
        if self.cover_bound(vmask, omega) <= best[0]:
            return best
        for doms in _dominator_tuples(self._adj, vmask, omega, self._p3s):
            if not self.spend():
                return best
            best = self._branch(vmask, lists, doms, omega, best)
        return best

    def clique_number(self, colors: int) -> int:
        """omega(H[colors]), the clique number of the pattern on a color mask.

        omega(S) = max(omega(S - c), 1 + omega(S & N_H(c))) with c the
        lowest color of S: a largest clique either misses c or holds it and
        only neighbors of c.  Each mask is computed once per solver, when
        first asked for, so a large pattern costs only the masks it meets.
        """
        memo = self._omega
        hit = memo.get(colors)
        if hit is None:
            low = colors & -colors
            hit = max(
                self.clique_number(colors ^ low),
                1 + self.clique_number(colors & self._hadj[low.bit_length() - 1]),
            )
            memo[colors] = hit
        return hit

    def incumbent(
        self, vmask: int, lists: Sequence[int]
    ) -> tuple[int, tuple[tuple[int, int], ...]]:
        """A feasible answer on vmask, colored greedily.

        Vertices come heaviest first (the solver's weight order, ties by
        id); each takes the lowest color of its list that is
        pattern-adjacent to the colors of all its colored neighbors, and
        is left out when none is.  Zero-weight vertices are left out: they
        would add nothing.  The heaviest vertex always gets its lowest
        color, so the answer is never lighter than any single vertex.
        """
        adj = self._adj
        hadj = self._hadj
        wt = self._wt
        color = {}
        colored = 0
        total = 0
        rest = vmask
        for v in self._order:
            if not rest or not wt[v]:
                break
            if not rest >> v & 1:
                continue
            rest ^= 1 << v
            fits = lists[v]
            for u in iter_mask(adj[v] & colored):
                fits &= hadj[color[u]]
            if fits:
                color[v] = (fits & -fits).bit_length() - 1
                colored |= 1 << v
                total += wt[v]
        return total, tuple((v, color[v]) for v in iter_mask(colored))

    def cover_bound(self, mask: int, omega: int) -> int:
        """An upper bound on the weight of any answer inside mask whose
        colors span a pattern clique of at most omega colors: the greedy
        clique cover of mwis.clique_cover_bound in the solver's weight
        order, each host clique counting its omega heaviest vertices.  An
        answer's vertices in one host clique take pairwise distinct colors
        that are pairwise pattern-adjacent, so there are at most omega of
        them.  Bounds are memoized per solver: the cleaned states of one
        dominator tuple mostly keep the same mask.
        """
        key = (mask, omega)
        total = self._bounds.get(key)
        if total is None:
            total = self._bounds[key] = clique_cover_bound(
                self._adj, self._order, self._wt, mask, omega
            )
        return total

    def cover_counted(self, mask: int, omega: int) -> int:
        """The vertices that cover_bound(mask, omega) counts, as a mask
        (mwis.clique_cover_counted): their weights add up to the bound, so
        an answer that colors all of them is optimal inside mask."""
        return clique_cover_counted(self._adj, self._order, self._wt, mask, omega)

    def list_cover(self, mask: int, lists: Sequence[int], colors: int) -> tuple[int, int]:
        """(bound, counted): an upper bound on the weight of any answer
        inside mask that colors from lists and only with colors of the
        color mask colors, and the vertices the bound counts, which weigh
        it exactly.

        It is mwis.list_clique_cover over the maximal cliques of the
        pattern on colors, taken for two greedy clique covers, in the
        solver's weight order and in degree-descending order (degrees in
        the host graph, ties in weight order), and the lesser of the two,
        the weight order's on a tie.  An answer's vertices in one host
        clique take pairwise distinct, pairwise pattern-adjacent colors of
        their lists: a pattern clique, inside a maximal one, matched to
        them.  So each cover clique holds at most the weight it counts,
        and the bound is at most cover_bound(mask, omega), which counts
        each clique's omega heaviest.  Computed afresh on every call.
        """
        adj = self._adj
        cliques = maximal_cliques(self._hadj, colors)
        by_degree = sorted(self._order, key=lambda v: -adj[v].bit_count())
        weight_cover = list_clique_cover(adj, self._order, self._wt, mask, lists, cliques)
        degree_cover = list_clique_cover(adj, by_degree, self._wt, mask, lists, cliques)
        return degree_cover if degree_cover[0] < weight_cover[0] else weight_cover

    # -- one dominator guess --------------------------------------------------

    def _branch(self, vmask, lists, doms, omega, best):
        """best, or a heavier verified candidate of the dominator tuple.

        Every candidate colors a subset of N[D] inside vmask, so the tuple
        is skipped when the clique-cover bound of that mask is at most
        best.  Each coloring of D is charged and propagated onto N(D); it
        is skipped when the bound of N[D] minus the vertices it emptied is
        at most best, before its cleanup states are built (and charged)
        from the propagated lists of the parts' live vertices.  A cleaned
        state is skipped when the bound of its kept mask is at most best;
        otherwise every part it keeps is solved under its lists, and the
        candidate (D's coloring plus the parts' answers) replaces best
        only when strictly heavier.
        """
        parts, used = self.carve(vmask, doms)
        if self.cover_bound(used, omega) <= best[0]:
            return best
        adj = self._adj
        hadj = self._hadj
        dmask = mask_from(doms)
        dom_w = self._weigh(dmask)
        for colors in self._colorings(doms, lists):
            mod = list(lists)
            live = used
            for d, c in zip(doms, colors):
                hmask = hadj[c]
                for v in iter_mask(adj[d] & live & ~dmask):
                    mod[v] &= hmask
                    if not mod[v]:
                        live ^= 1 << v
            if self.cover_bound(live, omega) <= best[0]:
                continue
            states = self.cleaned_states(tuple(mod), [x & live for x in parts], live)
            for st, kept in sorted(states):
                if self.cover_bound(kept, omega) <= best[0]:
                    continue
                total = dom_w
                coloring = dict(zip(doms, colors))
                for x in parts:
                    if x & kept:
                        w, asg = self.solve_masked(x & kept, st)
                        total += w
                        coloring.update(asg)
                if total > best[0]:
                    self._verify_candidate(coloring, lists)
                    best = (total, tuple(sorted(coloring.items())))
        return best

    def _colorings(self, doms: Sequence[int], lists: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """The colorings of D from its lists that put every edge of D on a
        pattern edge, in lexicographic order; each is charged one guess,
        and one the budget cannot pay for is skipped."""
        adj = self._adj
        hadj = self._hadj
        edges = [(i, j) for j, b in enumerate(doms) for i in range(j) if adj[doms[i]] >> b & 1]
        for colors in product(*[iter_mask(lists[d]) for d in doms]):
            if all(hadj[colors[i]] >> colors[j] & 1 for i, j in edges) and self.spend():
                yield colors

    def _weigh(self, mask: int) -> int:
        wt = self._wt
        total = 0
        for v in iter_mask(mask):
            total += wt[v]
        return total

    def carve(self, vmask: int, doms: Sequence[int]) -> tuple[list[int], int]:
        """Carve N[D] inside vmask into the ordered parts X_1..X_|D|.

        parts[i] is the neighborhood of doms[i] minus the dominators and
        all earlier parts; used is D plus every part.  Everything of vmask
        outside used is not dominated and is deleted in this branch.
        """
        adj = self._adj
        parts = []
        used = mask_from(doms)
        for d in doms:
            x = adj[d] & vmask & ~used
            parts.append(x)
            used |= x
        return parts, used

    def cleaned_states(
        self,
        lists: tuple[int, ...],
        parts: Sequence[int],
        used: int,
    ) -> set[tuple[tuple[int, ...], int]]:
        """Every (list-mask vector, kept mask) the guesses and cleanups reach.

        For each part pair (i, j) with i < j and color r of a list in X_i,
        the guess is an independent set of at most two X_i vertices whose
        lists hold r, or no vertex; X_j neighbors of the guess keep only
        colors pattern-adjacent to r.  Guesses with the same X_j
        neighborhood are one effect.  Each resulting state then runs the
        cross-part cleanup, and kept is used minus the part vertices it
        emptied.  Every state kept is charged to the budget.  Under a
        budget with g guesses left, the growth is cut to its g + 1
        lexicographically smallest states after every slot, and of the
        states left at the end the budget keeps those it can pay for,
        smallest first; the entries outside the parts are the caller's,
        equal in every state, so the order is that of the part lists.  A
        state cut early takes its descendants with it, so the states kept
        need not be the smallest that the uncut growth would reach.
        """
        adj = self._adj
        hadj = self._hadj

        # cleanup slots: (color, distinct neighborhoods-to-clean inside X_j)
        slots: list[tuple[int, list[int]]] = []
        p = len(parts)
        for i in range(p - 1):
            xi = parts[i]
            colors = 0
            for v in iter_mask(xi):
                colors |= lists[v]
            # per color of X_i, the neighborhood of every guessable set
            guesses = []
            for r in iter_mask(colors):
                pool = [v for v in iter_mask(xi) if lists[v] >> r & 1]
                nbhs = [adj[v] for v in pool]
                nbhs += [adj[v] | adj[u] for v, u in combinations(pool, 2) if not adj[v] >> u & 1]
                guesses.append((r, nbhs))
            for j in range(i + 1, p):
                xj = parts[j]
                if not xj:
                    continue
                for r, nbhs in guesses:
                    effects = {e & xj for e in nbhs}
                    effects.add(0)
                    if len(effects) > 1:
                        slots.append((r, sorted(effects)))

        # the budget pays for at most _left states, so growth is cut one
        # past that: the extra state tells spend that some were dropped
        cap = None if self._left is None else self._left + 1
        states: set[tuple[int, ...]] = {lists}
        for r, effects in slots:
            hmask = hadj[r]
            nxt: set[tuple[int, ...]] = set()
            for st in states:
                for eff in effects:
                    if eff:
                        mod = list(st)
                        for v in iter_mask(eff):
                            mod[v] &= hmask
                        nxt.add(tuple(mod))
                    else:
                        nxt.add(st)
            states = nxt
            if cap is not None and len(states) > cap:
                states = set(sorted(states)[:cap])
        paid = self.spend(len(states))
        if paid < len(states):
            states = set(sorted(states)[:paid])

        cleaned: set[tuple[tuple[int, ...], int]] = set()
        for st in states:
            mod = list(st)
            kept = _cross_part_cleanup(adj, hadj, mod, parts, used)
            cleaned.add((tuple(mod), kept))
        return cleaned

    def _verify_candidate(self, coloring, entry_lists) -> None:
        """RuntimeError unless coloring keeps to the entry lists and puts
        every host edge inside it on a pattern edge."""
        adj = self._adj
        hadj = self._hadj
        cmask = 0
        for v in coloring:
            cmask |= 1 << v
        for v, c in coloring.items():
            if not entry_lists[v] >> c & 1:
                raise RuntimeError(f"internal error: candidate color {c} off the list of {v}")
            for u in iter_mask(adj[v] & cmask & (-1 << (v + 1))):
                if not hadj[c] >> coloring[u] & 1:
                    raise RuntimeError(f"internal error: candidate edge {v}-{u} off the pattern")


def solve_connected_case(inst: Instance, budget: int | None = None) -> SolveResult:
    """Run the connected-promise search on a full instance.

    Raises NotP5FreeError (with a witness path) if inst's graph has an
    induced P5: the dominator tuples rest on P5-freeness.  The output is
    always feasible for inst (verified); when some maximum-weight
    solution of inst is connected, it is optimal at the scales the test
    suite probes.
    """
    witness = find_induced_p5(inst.g)
    if witness is not None:
        raise NotP5FreeError(witness)
    engine = ConnectedSolver(inst, budget=budget)
    weight, assignment = engine.solve_masked(inst.g.full_mask, inst.lists_masks)
    sol = Solution(
        frozenset(v for v, _ in assignment), dict(assignment), Fraction(weight, engine.scale)
    )
    violation = verify_solution(inst, sol)
    if violation is not None:
        raise RuntimeError(f"internal error: solver produced invalid solution ({violation})")
    return SolveResult(sol, engine.exhaustive)
