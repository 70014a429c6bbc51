"""Exhaustive reference implementations for the test suite.

Everything here enumerates without pruning so it stays independent of the
branch-and-bound / guessing machinery under test, except
ColorsLastConnectedSolver, the reference for the order of the connected
search's guesses, which keeps its bounds,
plain_sum_solve_mwis_masked, the reference for the MWIS's clique-cover
prune, which prunes by the plain weight sum, and vertex_greedy_cliques,
the reference for mwis.clique_cover's cover, which places one vertex at
a time.  Usable only at desk scale.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations

from p5hom.connected import ConnectedSolver, _conflict_mwis, _dominator_tuples
from p5hom.family import (
    FamilyProvenance,
    _core_region_mask,
    _second_sets,
)
from p5hom.graph import (
    Graph,
    enumerate_connected_subsets,
    iter_mask,
    mask_from,
    masked_components,
)
from p5hom.pattern import Instance, PatternGraph


def brute_mwis(n: int, edges: list[tuple[int, int]],
               weights: dict[int, Fraction]) -> Fraction:
    """Best independent-set weight by trying every vertex subset."""
    verts = list(range(1, n + 1))
    eset = {frozenset(e) for e in edges}
    best = Fraction(0)
    for r in range(n + 1):
        for sub in itertools.combinations(verts, r):
            if any(frozenset(p) in eset for p in itertools.combinations(sub, 2)):
                continue
            w = sum((weights[v] for v in sub), Fraction(0))
            if w > best:
                best = w
    return best


def brute_mwis_subsets(n: int, edges: list[tuple[int, int]],
                       weights: dict[int, Fraction]) -> Fraction:
    """Best independent-set weight by enumerating all 2^n subsets as masks.

    Same answer as brute_mwis but tolerable up to n = 16: a subset is
    independent iff dropping its lowest vertex leaves an independent set
    with no edge back to that vertex.
    """
    adj = [0] * n  # bit v-1 stands for vertex v
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    size = 1 << n
    indep = bytearray(size)
    indep[0] = 1
    wsum = [Fraction(0)] * size
    best = Fraction(0)
    for m in range(1, size):
        low = m & -m
        rest = m ^ low
        v = low.bit_length() - 1
        if indep[rest] and not (adj[v] & rest):
            indep[m] = 1
            w = wsum[rest] + weights[v + 1]
            wsum[m] = w
            if w > best:
                best = w
    return best


def vertex_greedy_cliques(
    adj: Sequence[int], order: Sequence[int], weights: Sequence[int], mask: int
) -> list[list[int]]:
    """The cliques of mwis.clique_cover's greedy cover, each as its
    vertices in order, built one vertex at a time: the vertices of mask
    with a nonzero weight, taken in order (any order that holds every
    vertex of mask), each joining the first clique it is adjacent to
    throughout or opening a new one."""
    commons: list[int] = []  # common neighborhood of each clique
    cliques: list[list[int]] = []
    for v in order:
        if not mask >> v & 1 or not weights[v]:
            continue
        for i, common in enumerate(commons):
            if common >> v & 1:
                commons[i] = common & adj[v]
                cliques[i].append(v)
                break
        else:
            commons.append(adj[v])
            cliques.append([v])
    return cliques


def plain_sum_solve_mwis_masked(
    adj: Sequence[int], vmask: int, weights: Sequence[int]
) -> tuple[int, int]:
    """Exact MWIS on the subgraph induced by vmask, as (mask, weight):
    the search of mwis.solve_mwis_masked (the same greedy start,
    reductions and branching order) pruned by the plain weight sum of the
    vertices left, the reference for its clique-cover prune.

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


def brute_mplhc(inst: Instance) -> Fraction:
    """Best partial-list-homomorphism weight by trying every subset and
    every coloring of it."""
    verts = list(inst.g.vertices)
    best = Fraction(0)
    for r in range(len(verts) + 1):
        for sub in itertools.combinations(verts, r):
            w = sum((inst.wt[v] for v in sub), Fraction(0))
            if w <= best:
                continue
            pools = [sorted(inst.lists[v]) for v in sub]
            if any(not p for p in pools):
                continue
            for colors in itertools.product(*pools):
                assign = dict(zip(sub, colors))
                ok = True
                for u, v in itertools.combinations(sub, 2):
                    if inst.g.has_edge(u, v) and not inst.h.has_edge(assign[u], assign[v]):
                        ok = False
                        break
                if ok:
                    best = w
                    break
    return best


def brute_has_induced_p5(g: Graph) -> bool:
    """Check every 5-vertex subset for an induced path.

    A 5-vertex graph is a path iff it has exactly 4 edges, maximum degree
    2, and is connected (a connected 4-edge graph on 5 vertices is a tree,
    and a tree with maximum degree 2 is a path).
    """
    for combo in itertools.combinations(g.vertices, 5):
        deg = dict.fromkeys(combo, 0)
        m = 0
        for u, v in itertools.combinations(combo, 2):
            if g.has_edge(u, v):
                m += 1
                deg[u] += 1
                deg[v] += 1
        if m != 4 or max(deg.values()) > 2:
            continue
        seen = {combo[0]}
        stack = [combo[0]]
        inside = set(combo)
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in inside and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == 5:
            return True
    return False


def brute_has_induced_c5(g: Graph) -> bool:
    """Check every 5-vertex subset for an induced cycle.

    A 5-vertex graph is a cycle iff it has exactly 5 edges and every
    vertex has degree 2: a 2-regular graph is a union of cycles of at
    least 3 vertices each, and 5 vertices hold only one.
    """
    for combo in itertools.combinations(g.vertices, 5):
        deg = dict.fromkeys(combo, 0)
        for u, v in itertools.combinations(combo, 2):
            if g.has_edge(u, v):
                deg[u] += 1
                deg[v] += 1
        if all(d == 2 for d in deg.values()):
            return True
    return False


def brute_connected_subsets(g: Graph, lo: int, hi: int) -> set[frozenset[int]]:
    """All connected vertex subsets with lo <= size <= hi, by filtering
    every subset."""
    out: set[frozenset[int]] = set()
    verts = list(g.vertices)
    for r in range(lo, hi + 1):
        for sub in itertools.combinations(verts, r):
            seen = {sub[0]}
            stack = [sub[0]]
            inside = set(sub)
            while stack:
                u = stack.pop()
                for w in g.neighbors(u):
                    if w in inside and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == r:
                out.add(frozenset(sub))
    return out


def brute_has_connected_optimum(inst: Instance, opt: Fraction) -> bool:
    """Does some solution of weight opt induce a connected subgraph?

    The empty solution counts when the optimum is zero.  The dominating-
    set solver promises exactness only on instances where this holds.
    """
    if opt == 0:
        return True
    g = inst.g
    for sub in brute_connected_subsets(g, 1, g.n):
        if sum((inst.wt[v] for v in sub), Fraction(0)) != opt:
            continue
        order = sorted(sub)
        pools = [sorted(inst.lists[v]) for v in order]
        if any(not p for p in pools):
            continue
        inner = [(u, v) for u, v in g.edges() if u in sub and v in sub]
        for colors in itertools.product(*pools):
            assign = dict(zip(order, colors))
            if all(inst.h.has_edge(assign[u], assign[v]) for u, v in inner):
                return True
    return False


def brute_exists_hom(g: Graph, h: PatternGraph,
                     lists: dict[int, frozenset[int]]) -> bool:
    """Does a full list homomorphism exist?  Tries every coloring."""
    verts = list(g.vertices)
    pools = [sorted(lists[v]) for v in verts]
    if any(not p for p in pools):
        return False
    for colors in itertools.product(*pools):
        assign = dict(zip(verts, colors))
        if all(h.has_edge(assign[u], assign[v]) for u, v in g.edges()):
            return True
    return False


def brute_second_sets(adj: list[int], vmask: int, seed: int,
                      max_size: int) -> list[tuple[tuple[int, ...], int]]:
    """(D', seed | N[D'] inside vmask) for every subset D' of vmask with at
    most max_size vertices whose seed has not appeared before, walking all
    subsets by size and then lexicographically."""
    verts = [v for v in range(len(adj)) if vmask >> v & 1]
    seen: set[int] = set()
    out = []
    for size in range(max_size + 1):
        for second in itertools.combinations(verts, size):
            s = seed
            for v in second:
                s |= adj[v] | 1 << v
            s &= vmask
            if s not in seen:
                seen.add(s)
                out.append((second, s))
    return out


def brute_common_neighbors(adj: list[int], class_masks: list[int]) -> int:
    """The vertices adjacent to a member of every class, tested one
    vertex at a time."""
    return mask_from(
        v for v in range(len(adj)) if all(adj[v] & cm for cm in class_masks)
    )


def brute_prune_common(adj: list[int], vmask: int, class_masks: list[int]) -> int:
    """Delete the smallest vertex of vmask adjacent to a live member of
    every class, rescanning from the smallest vertex after each deletion,
    until no such vertex exists."""
    while True:
        alive = [cm & vmask for cm in class_masks]
        victim = next(
            (v for v in range(len(adj))
             if vmask >> v & 1 and all(adj[v] & a for a in alive)),
            None,
        )
        if victim is None:
            return vmask
        vmask ^= 1 << victim


def brute_cross_part_cleanup(adj: list[int], hadj: list[int], lists: list[int],
                             part_masks: list[int], used: int) -> int:
    """The cross-part cleanup run to a fixpoint: visit the part pairs
    (i, j) with i < j in lexicographic order, strip from each X_i vertex
    every color c such that some color of an X_j neighbor's list is not
    pattern-adjacent to c, and repeat while any list changed.  Works in
    place; returns used minus the emptied part vertices."""
    p = len(part_masks)
    changed = True
    while changed:
        changed = False
        for i in range(p):
            for j in range(i + 1, p):
                for u in iter_mask(part_masks[i]):
                    for v in iter_mask(adj[u] & part_masks[j]):
                        for c in iter_mask(lists[u]):
                            if lists[v] & ~hadj[c]:
                                lists[u] &= ~(1 << c)
                                changed = True
    kept = used
    for x in part_masks:
        for v in iter_mask(x):
            if not lists[v]:
                kept ^= 1 << v
    return kept


def brute_core_region(adj: list[int], vmask: int, seed: int) -> tuple[int, int]:
    """(surviving vertices, region) after repeatedly deleting, from the
    graph and the region, the smallest region vertex with a neighbor
    outside, rescanning from the smallest vertex after each deletion."""
    core = seed & vmask
    while True:
        for v in iter_mask(core):
            if adj[v] & vmask & ~core:
                bit = 1 << v
                core ^= bit
                vmask ^= bit
                break
        else:
            return vmask, core


def brute_prune_non_modules(g: Graph, vmask: int, dmask: int) -> int:
    """Delete every component of the graph minus N[D] that is not a module
    of the current graph, repeating until no such component is left."""
    adj = g.adjacency_masks()
    while True:
        nd = dmask & vmask
        for d in iter_mask(dmask & vmask):
            nd |= adj[d]
        outside = vmask & ~nd
        bad = 0
        for comp in masked_components(g, outside):
            first = comp & -comp
            ref = adj[first.bit_length() - 1] & vmask & ~comp
            for v in iter_mask(comp ^ first):
                if adj[v] & vmask & ~comp != ref:
                    bad |= comp
                    break
        if not bad:
            return vmask
        vmask &= ~bad


def _surjections(doms: tuple[int, ...], colors: tuple[int, ...]):
    """All colorings of doms using every color at least once, in product
    order."""
    want = set(colors)
    for combo in itertools.product(colors, repeat=len(doms)):
        if set(combo) == want:
            yield combo


def brute_class_labellings(size: int, kprime: int, head: tuple[int, ...] = ()):
    """The restricted-growth strings of length size with exactly kprime
    labels (each label at most one past the largest before it) that
    extend head, in lexicographic order, built one position at a time."""
    rest = size - len(head)
    if not rest:
        yield head
        return
    top = max(head, default=-1) + 1  # classes opened so far
    if kprime - top > rest:
        return
    labels = (top,) if kprime - top == rest else range(min(top + 1, kprime))
    for c in labels:
        yield from brute_class_labellings(size, kprime, head + (c,))


def brute_guessed_members(inst: Instance, solver):
    """The family's guess loop with the paper's two prunes (common
    neighbors, then non-module components, each to its fixpoint), every
    surjection walked in full and every closed region handed to the
    solver under every color set: (component mask, provenance, the
    answer's colors as a dict) for every answer component, in the order
    size, dominators D, surjection onto color indices, second set D',
    color set W.  One guess is charged per second set with a new
    seed, for the first surjection of each class partition of D only,
    and the walk stops when the budget cannot pay for one."""
    g = inst.g
    adj = g.adjacency_masks()
    full = g.full_mask
    k = inst.h.k
    for size in range(2, min(k, g.n) + 1):
        wsets = list(combinations(range(1, k + 1), size))
        for dmask in enumerate_connected_subsets(g, size, min(size + 1, g.n)):
            doms = tuple(iter_mask(dmask))
            walked = set()  # class partitions of D already charged
            for h in _surjections(doms, tuple(range(size))):
                classes: dict[int, int] = {}
                for d, c in zip(doms, h):
                    classes[c] = classes.get(c, 0) | (1 << d)
                partition = frozenset(classes.values())
                first = partition not in walked
                walked.add(partition)
                v1 = brute_prune_common(adj, full, list(classes.values()))
                closed = dmask
                for d in doms:
                    closed |= adj[d]
                v2 = brute_prune_non_modules(g, v1, dmask)
                if dmask & ~v2:
                    continue
                closed_d = closed & v2
                for second, seed in _second_sets(adj, v2, closed_d, size + 1):
                    if first and not solver.spend():
                        return
                    core = _core_region_mask(adj, v2, seed)
                    if not core:
                        continue
                    for colors in wsets:
                        wmask = mask_from(colors)
                        lists_w = tuple(lv & wmask for lv in inst.lists_masks)
                        _, assignment = solver.solve_masked(core, lists_w)
                        if not assignment:
                            continue
                        chosen = mask_from(v for v, _ in assignment)
                        prov = FamilyProvenance(
                            colors, doms, tuple(colors[c] for c in h), second
                        )
                        for comp in masked_components(g, chosen):
                            yield comp, prov, dict(assignment)


def brute_dominator_tuples(
    adj: list[int], vmask: int, omega: int, p3s: bool = True
) -> list[tuple[int, ...]]:
    """Every ascending vertex tuple of vmask that is a clique of at most
    omega vertices or, when p3s is set, an induced P3, by size, then
    lexicographically."""
    verts = list(iter_mask(vmask))
    out = []
    for size in range(1, max(omega, 3) + 1):
        for t in combinations(verts, size):
            edges = sum(1 for u, v in combinations(t, 2) if adj[u] >> v & 1)
            if (size <= omega and edges == size * (size - 1) // 2
                    or p3s and size == 3 and edges == 2):
                out.append(t)
    return out


def brute_clique_number(h: PatternGraph, colors: int) -> int:
    """The largest number of pairwise adjacent colors in the color mask
    colors, by trying every subset from the largest down."""
    cs = [c for c in h.colors if colors >> c & 1]
    hadj = h.adjacency_masks()
    for size in range(len(cs), 0, -1):
        for sub in combinations(cs, size):
            if all(hadj[a] >> b & 1 for a, b in combinations(sub, 2)):
                return size
    return 0


class UnprunedConnectedSolver(ConnectedSolver):
    """The connected search with no weight bound: every dominator tuple,
    dominator coloring and cleaned state is searched in full and every
    assembled candidate is compared with the best so far.  The starting
    answer (the greedy incumbent), the tuples (_dominator_tuples with
    omega the pattern's clique number on the live colors, and P3s only on
    a host with an induced C5) and the order
    (each coloring of D propagated onto N(D) before its cleanup states)
    and the base case (the conflict-graph MWIS when every live list is a
    single color or no two live colors are pattern-adjacent) are the
    solver's own: this is the reference for the bounds, not for the
    incumbent, the base case, the tuple set or the order."""

    def _solve_piece(
        self, vmask: int, lists: tuple[int, ...]
    ) -> tuple[int, tuple[tuple[int, int], ...]]:
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
        best_w, best_asg = self.incumbent(vmask, lists)
        for doms in _dominator_tuples(self._adj, vmask, omega, self._p3s):
            if not self.spend():
                return best_w, best_asg
            for w, asg in self._candidates(vmask, lists, doms):
                if w > best_w:
                    best_w = w
                    best_asg = asg
        return best_w, best_asg

    def _candidates(self, vmask, lists, doms):
        adj = self._adj
        hadj = self._hadj
        wt = self._wt
        parts, used = self.carve(vmask, doms)
        dmask = mask_from(doms)
        for colors in self._colorings(doms, lists):
            mod = list(lists)
            for d, c in zip(doms, colors):
                for v in iter_mask(adj[d] & used & ~dmask):
                    mod[v] &= hadj[c]
            live = used & ~mask_from(v for v in iter_mask(used & ~dmask) if not mod[v])
            states = self.cleaned_states(tuple(mod), [x & live for x in parts], live)
            for st, kept in sorted(states):
                total = sum(wt[d] for d in doms)
                coloring = dict(zip(doms, colors))
                for x in parts:
                    if x & kept:
                        w, asg = self.solve_masked(x & kept, st)
                        total += w
                        coloring.update(asg)
                self._verify_candidate(coloring, lists)
                yield total, tuple(sorted(coloring.items()))


class P3ConnectedSolver(ConnectedSolver):
    """The connected search that walks the induced P3s among its dominator
    tuples on every host, C5-free or not: the reference for the solver's
    cliques-only tuples on C5-free hosts."""

    def __init__(self, inst: Instance, budget: int | None = None) -> None:
        super().__init__(inst, budget)
        self._p3s = True


class ColorsLastConnectedSolver(ConnectedSolver):
    """The connected search with its two guess loops the other way round,
    bounds included: every cleaned state of a dominator tuple is built
    from the entry lists and charged, and only then is every coloring of
    D tried on each state, charged, propagated onto the state's kept
    vertices and bounded by D's weight plus the part vertices it leaves
    with a nonempty list.  Its weights equal the solver's; its ties may
    fall to another assignment."""

    def _branch(self, vmask, lists, doms, omega, best):
        parts, used = self.carve(vmask, doms)
        if self.cover_bound(used, omega) <= best[0]:
            return best
        dmask = mask_from(doms)
        for st, kept in sorted(self.cleaned_states(lists, parts, used)):
            if self.cover_bound(kept, omega) > best[0]:
                best = self._branch_colors(st, kept, doms, dmask, parts, lists, best)
        return best

    def _branch_colors(self, lists, kept, doms, dmask, parts, entry_lists, best):
        adj = self._adj
        hadj = self._hadj
        p = len(doms)
        pieces = [x & kept for x in parts if x & kept]
        piece_w = [self._weigh(pm) for pm in pieces]
        dom_w = self._weigh(dmask)
        for colors in self._colorings(doms, lists):
            mod = list(lists)
            emptied = 0
            for idx in range(p):
                hmask = hadj[colors[idx]]
                for v in iter_mask(adj[doms[idx]] & kept & ~dmask):
                    lv = mod[v] & hmask
                    mod[v] = lv
                    if not lv:
                        emptied |= 1 << v
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
                self._verify_candidate(coloring, entry_lists)
                best = (bound, tuple(sorted(coloring.items())))
        return best
