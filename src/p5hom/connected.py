"""Solver stage for instances whose optimum is promised connected.

The search guesses a small dominating set D inside the optimum, splits
the remaining vertices into the neighborhood parts X_1..X_|D| carved out
by D's members in order, and deletes everything D does not dominate.
Every connected P5-free graph has a dominating clique or a dominating
induced P3 (Bacsó and Tuza, 1990; Camby and Schaudt, 2016).  A clique
inside an H-colorable set takes pairwise distinct, pairwise adjacent
colors, H being loopless, so it has at most omega vertices, omega being
the clique number of H on the colors of the live lists.  D therefore
ranges over those cliques and the induced P3s only: one of them
dominates a connected optimum.  The search then guesses,
for every part pair (i, j) with i < j and every color r, a set of at
most two independent vertices of X_i standing in for the optimum's
r-colored X_i vertices; the guess drives two list cleanups:

  1. every X_j vertex adjacent to the guessed set keeps only colors
     pattern-adjacent to r;
  2. any edge between different parts with overlapping lists loses the
     shared colors on the lower-indexed side; one pass over the parts in
     order settles every such edge, since a part's lists shrink only
     after every lower part has read them.

After guessing colors for D's members (each propagating pattern-adjacency
onto its neighbors' lists), D is removed and each part recurses as an
independent smaller instance; the color universe inside a part shrinks by
the dominator's color, so the recursion depth is at most k.  Every
assembled candidate is re-verified against the branch's own instance and
dropped if infeasible: for non-complete patterns the part-wise recursion
can propose cross-part conflicts, and verification is what keeps the
output sound.  Each piece starts from a greedy coloring (heaviest vertex
first, each taking the lowest list color that fits its colored
neighbors), feasible by construction and possibly disconnected; the
final answer is the best verified candidate, never worse than that
start.

The best answer so far is replaced only by a strictly heavier candidate,
and weights are nonnegative, so a branch that no candidate heavier than
the best weight so far can come from cannot change the answer.  Such a
branch is skipped at four points.  The whole piece, a dominator tuple
(by N[D]) and a cleaned state (by the vertices it keeps) are bounded by
a clique cover: the vertices are split greedily into host cliques, and
each clique counts only its omega heaviest vertices, since an answer
colors at most omega vertices of a clique.  A dominator coloring is
bounded by the plain weight of D plus the part vertices with nonempty
lists, tightened part by part as each part's answer comes back.  The
answer, ties included, is the one the search without these skips
would return from the same greedy start.

All recursion operates on (vertex mask, list-mask vector) views over the
original graph, memoized in one table so that a family build can share
work across thousands of overlapping sub-instances.  An optional budget
bounds the guesses of the whole run: dominator tuples, cleanup states
and dominator colorings draw on one counter, shared with the family
build's second sets when the family drives the solver.  The solver is
built from an Instance and scales its weights once to integers
(mwis.scale_weights), so no sum inside the search is a Fraction.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .graph import (
    NotP5FreeError,
    find_induced_p5,
    iter_mask,
    mask_from,
    masked_components,
)
from .mwis import scale_weights, solve_mwis_masked
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
    """Exact solve when every live list is a single color.

    Builds the conflict graph (host edges whose fixed color pair is not a
    pattern edge) and returns its MWIS with the forced coloring.  The
    weight is in the units of weights.
    """
    color = {}
    for v in iter_mask(vmask):
        color[v] = lists[v].bit_length() - 1
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
    lists: list[int],
    part_masks: Sequence[int],
    used: int,
) -> int:
    """Second cleanup, in place: strip from the lower part's endpoint every
    color shared across a part-crossing edge.

    One pass over the parts in order suffices: a part's lists change only
    while that part is processed, after every lower part has read them,
    and lists only shrink, so afterwards every part-crossing edge has
    disjoint lists.  Returns used (the dominators plus their parts) minus
    the part vertices left with an empty list, which the branch deletes.
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
                lu &= ~lists[v]
            lists[u] = lu
            if not lu:
                kept ^= 1 << u
    return kept


def _dominator_tuples(
    adj: Sequence[int], vmask: int, omega: int
) -> Iterator[tuple[int, ...]]:
    """The dominator tuples of the live piece vmask: its cliques of 1..omega
    vertices and, at size 3, its induced P3s.  The solver passes the
    clique number of the pattern on the live colors as omega, so under a
    bipartite pattern (a path, say) no triangle is walked.

    Tuples are ascending and come by size, then lexicographically, which
    is the order of combinations(sorted vmask, size) with every other
    tuple left out.  Each is built from neighborhood masks, never by
    testing a combination: an edge (a, b) from N(a) above a; a 3-tuple
    from each pair a < b, its third vertex above b taken from N(a) | N(b)
    when a ~ b (less N(a) & N(b), the triangles, when omega < 3) and
    from N(a) & N(b) otherwise; a larger clique by extending a smaller
    one with its common neighborhood above its last vertex.
    """
    verts = list(iter_mask(vmask))
    nbr = [0] * len(adj)
    for v in verts:
        nbr[v] = adj[v] & vmask
    for v in verts:
        yield (v,)
    if omega >= 2:
        for a in verts:
            for b in iter_mask(nbr[a] & (-1 << (a + 1))):
                yield (a, b)
    # triangles with their common neighborhood above the last vertex,
    # kept only to grow the cliques of 4..omega vertices
    cliques: list[tuple[tuple[int, ...], int]] = []
    for i, a in enumerate(verts):
        na = nbr[a]
        for b in verts[i + 1:]:
            nb = nbr[b]
            above = -1 << (b + 1)
            if na >> b & 1:
                common = na & nb & above
                third = (na | nb) & above
                if omega < 3:
                    third &= ~common
                elif omega > 3:
                    for c in iter_mask(common):
                        cliques.append(((a, b, c), common & nbr[c] & (-1 << (c + 1))))
            else:
                third = na & nb & above
            for c in iter_mask(third):
                yield (a, b, c)
    for size in range(4, omega + 1):
        grown = []
        for clique, common in cliques:
            for c in iter_mask(common):
                bigger = clique + (c,)
                yield bigger
                if size < omega:
                    grown.append((bigger, common & nbr[c] & (-1 << (c + 1))))
        cliques = grown


class ConnectedSolver:
    """Reusable engine over one Instance's graph, pattern and weights.

    solve_masked answers sub-instances given as (vertex mask, list-mask
    vector); results are memoized across calls, so a family build can
    reuse everything.  budget, when set, is the number of guesses the
    solver's whole life may make, charged through spend: one per
    dominator tuple, one per cleanup state kept, one per dominator
    coloring, and whatever the caller charges (the family build: one per
    second set with a new seed).  A guess the budget cannot pay for is
    skipped and clears the exhaustive flag.  A negative budget raises
    ValueError.  A dominator tuple skipped by the clique-cover bound costs
    its one guess and nothing more; a piece whose greedy start already
    meets the bound costs none.

    Inside the solver weights are inst.wt scaled to integers by
    mwis.scale_weights; solve_masked returns weights in these units, and
    weight / scale is the exact one.  An Instance holds no negative
    weight, so no vertex lowers a sum: that makes it sound to skip every
    branch whose bound cannot strictly beat the best so far.  The
    solver also keeps the vertices in one weight-descending order (ties
    by id) for the greedy start and the bound, the pattern's clique
    number per color mask, and the bound per (mask, omega).
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
        # keyed on the list vector alone: the live vertices are exactly
        # those with a nonempty list in it
        self._memo: dict[tuple[int, ...], tuple[int, tuple[tuple[int, int], ...]]] = {}

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
        weight is in scaled integer units (divide by scale)."""
        live = 0
        for v in iter_mask(vmask):
            if lists[v]:
                live |= 1 << v
        if not live:
            return 0, ()
        n = self._g.n
        norm = tuple(lists[v] if live >> v & 1 else 0 for v in range(n + 1))
        hit = self._memo.get(norm)
        if hit is not None:
            return hit
        comps = masked_components(self._g, live)
        if len(comps) > 1:
            total = 0
            asg: list[tuple[int, int]] = []
            for comp in comps:
                w, a = self.solve_masked(comp, norm)
                total += w
                asg.extend(a)
            result = (total, tuple(sorted(asg)))
        else:
            result = self._solve_piece(live, norm)
        self._memo[norm] = result
        return result

    # -- one connected sub-instance -----------------------------------------

    def _solve_piece(
        self, vmask: int, lists: tuple[int, ...]
    ) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Best verified answer on one connected live vmask.

        The dominator tuples are those of _dominator_tuples, with omega
        the clique number of the pattern on the colors of the live lists:
        the cliques of at most omega vertices and the induced P3s.  A
        connected optimum induces a connected P5-free graph, which has a
        dominating clique or a dominating induced P3 (Bacsó and Tuza;
        Camby and Schaudt), and its cliques take pairwise distinct,
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
        (see _branch and _branch_colors).  Skipping such a branch leaves
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
        if all_singletons:
            return _conflict_mwis(self._adj, vmask, lists, self._hadj, self._wt)
        best = self.incumbent(vmask, lists)
        omega = self.clique_number(universe)
        if self.cover_bound(vmask, omega) <= best[0]:
            return best
        for doms in _dominator_tuples(self._adj, vmask, omega):
            if not self.spend():
                return best
            best = self._branch(vmask, lists, doms, universe, omega, best)
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
        colors span a pattern clique of at most omega colors.

        mask is split greedily into host cliques, heaviest vertex first,
        each vertex joining the first clique it is adjacent to throughout
        or opening a new one; a clique counts only its omega heaviest
        vertices.  An answer's vertices in one host clique take pairwise
        distinct colors that are pairwise pattern-adjacent, so there are
        at most omega of them.  Bounds are memoized per solver: the
        cleaned states of one dominator tuple mostly keep the same mask.
        """
        key = (mask, omega)
        total = self._bounds.get(key)
        if total is not None:
            return total
        adj = self._adj
        wt = self._wt
        commons: list[int] = []  # common neighborhood of each clique
        room: list[int] = []  # vertices each clique may still count
        total = 0
        for v in self._order:
            if not mask or not wt[v]:
                break
            if not mask >> v & 1:
                continue
            mask ^= 1 << v
            for i, common in enumerate(commons):
                if common >> v & 1:
                    commons[i] = common & adj[v]
                    if room[i]:
                        room[i] -= 1
                        total += wt[v]
                    break
            else:
                commons.append(adj[v])
                room.append(omega - 1)
                total += wt[v]
        self._bounds[key] = total
        return total

    # -- one dominator guess --------------------------------------------------

    def _branch(self, vmask, lists, doms, universe, omega, best):
        """best, or a heavier verified candidate of the dominator tuple.

        Every candidate colors a subset of N[D] inside vmask, so the tuple
        is skipped before its cleanup states are built (and charged) when
        the clique-cover bound of that mask is at most best; a cleaned
        state likewise when the bound of its kept mask is.
        """
        parts, used = self.carve(vmask, doms)
        if self.cover_bound(used, omega) <= best[0]:
            return best
        dmask = mask_from(doms)
        for st, kept in sorted(self.cleaned_states(lists, parts, used, universe)):
            if self.cover_bound(kept, omega) > best[0]:
                best = self._branch_colors(st, kept, doms, dmask, parts, lists, best)
        return best

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
        universe: int,
    ) -> set[tuple[tuple[int, ...], int]]:
        """Every (list-mask vector, kept mask) the guesses and cleanups reach.

        For each part pair (i, j) with i < j and color r in universe, the
        guess is an independent set of at most two X_i vertices whose lists
        hold r, or no vertex; X_j neighbors of the guess keep only colors
        pattern-adjacent to r.  Guesses with the same X_j neighborhood are
        one effect.  Each resulting state then runs the cross-part cleanup,
        and kept is used minus the part vertices it emptied.  Every state
        kept is charged to the budget.  Under a budget with g guesses
        left, the growth is cut to its g + 1 lexicographically smallest
        states after every slot, and of the states left at the end the
        budget keeps those it can pay for, smallest first.  A state cut
        early takes its descendants with it, so the states kept need not
        be the smallest that the uncut growth would reach.
        """
        adj = self._adj
        hadj = self._hadj

        # cleanup slots: (color, distinct neighborhoods-to-clean inside X_j)
        slots: list[tuple[int, list[int]]] = []
        p = len(parts)
        for i in range(p):
            xi = parts[i]
            if not xi:
                continue
            for j in range(i + 1, p):
                xj = parts[j]
                if not xj:
                    continue
                for r in iter_mask(universe):
                    pool = [
                        v for v in iter_mask(xi) if lists[v] >> r & 1
                    ]
                    effects = {0}
                    for v in pool:
                        e = adj[v] & xj
                        if e:
                            effects.add(e)
                    for v, u in combinations(pool, 2):
                        if adj[v] >> u & 1:
                            continue
                        e = (adj[v] | adj[u]) & xj
                        if e:
                            effects.add(e)
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
            kept = _cross_part_cleanup(adj, mod, parts, used)
            cleaned.add((tuple(mod), kept))
        return cleaned

    # -- one cleaned state: color the dominators, recurse per part -------------

    def _branch_colors(self, lists, kept, doms, dmask, parts, entry_lists, best):
        """best, or a heavier verified candidate of the cleaned state.

        A dominator coloring is charged, then skipped when D's weight plus
        the part vertices whose lists it leaves nonempty weighs at most
        best.  Each part's term of that bound becomes the part's answer as
        it comes back, and the coloring stops once the bound falls to
        best; a coloring that finishes weighs exactly its bound.
        """
        adj = self._adj
        hadj = self._hadj
        p = len(doms)
        assign = [0] * p
        pieces = [x & kept for x in parts if x & kept]
        piece_w = [self._weigh(pm) for pm in pieces]
        dom_w = self._weigh(dmask)

        def color_rec(idx: int):
            if idx == p:
                if self.spend():
                    yield tuple(assign)
                return
            d = doms[idx]
            for r in iter_mask(lists[d]):
                ok = True
                for jdx in range(idx):
                    if adj[d] >> doms[jdx] & 1 and not hadj[r] >> assign[jdx] & 1:
                        ok = False
                        break
                if not ok:
                    continue
                assign[idx] = r
                yield from color_rec(idx + 1)

        for colors in color_rec(0):
            mod = list(lists)
            emptied = 0
            for idx in range(p):
                hmask = hadj[colors[idx]]
                for v in iter_mask(adj[doms[idx]] & kept & ~dmask):
                    lv = mod[v] & hmask
                    mod[v] = lv
                    if not lv:
                        emptied |= 1 << v
            caps = piece_w
            if emptied:
                caps = [w - self._weigh(pm & emptied) for pm, w in zip(pieces, piece_w)]
            bound = dom_w + sum(caps)
            if bound <= best[0]:
                continue
            mod = tuple(mod)
            coloring = dict(zip(doms, colors))
            for pm, cap in zip(pieces, caps):
                w, asg = self.solve_masked(pm, mod)
                bound += w - cap
                if bound <= best[0]:
                    break
                coloring.update(asg)
            else:
                if self._verify_candidate(coloring, entry_lists):
                    best = (bound, tuple(sorted(coloring.items())))
        return best

    def _verify_candidate(self, coloring, entry_lists) -> bool:
        adj = self._adj
        hadj = self._hadj
        cmask = 0
        for v in coloring:
            cmask |= 1 << v
        for v, c in coloring.items():
            if not entry_lists[v] >> c & 1:
                return False
            for u in iter_mask(adj[v] & cmask & (-1 << (v + 1))):
                if not hadj[c] >> coloring[u] & 1:
                    return False
        return True


def solve_connected_case(inst: Instance, budget: int | None = None) -> SolveResult:
    """Run the connected-promise search on a full instance.

    Raises NotP5FreeError (with a witness path) if inst's graph has an
    induced P5: the dominator tuples rest on P5-freeness.  The output is
    always feasible for inst (verified); when some maximum-weight
    solution of inst is connected and the pattern is complete, it is
    optimal at the scales the test suite probes.
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
