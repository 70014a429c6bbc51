"""Exhaustive reference implementations for the test suite.

Everything here enumerates without pruning so it stays independent of the
branch-and-bound / guessing machinery under test.  Usable only at desk
scale.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from itertools import combinations

from p5hom.connected import ConnectedSolver, _conflict_mwis, _dominator_tuples
from p5hom.family import (
    FamilyProvenance,
    _core_region_mask,
    _prune_common_mask,
    _prune_non_modules_mask,
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


def brute_cross_part_cleanup(adj: list[int], lists: list[int],
                             part_masks: list[int], used: int) -> int:
    """The cross-part cleanup run to a fixpoint: visit the part pairs
    (i, j) with i < j in lexicographic order, strip from each X_i vertex
    the colors it shares with an X_j neighbor, and repeat while any list
    changed.  Works in place; returns used minus the emptied part
    vertices."""
    p = len(part_masks)
    changed = True
    while changed:
        changed = False
        for i in range(p):
            xi = part_masks[i]
            if not xi:
                continue
            for j in range(i + 1, p):
                xj = part_masks[j]
                if not xj:
                    continue
                for u in iter_mask(xi):
                    lu = lists[u]
                    if not lu:
                        continue
                    for v in iter_mask(adj[u] & xj):
                        shared = lu & lists[v]
                        if shared:
                            lu &= ~shared
                            if not lu:
                                break
                    if lu != lists[u]:
                        lists[u] = lu
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


def brute_guessed_members(inst: Instance, solver):
    """The family's guess loop with every surjection walked in full and
    every closed region handed to the solver under every color set:
    (component mask, provenance) for every answer component, in the
    order size, dominators D, surjection onto color indices, second set
    D', color set W.  One guess is charged per second set with a new
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
                v1 = _prune_common_mask(adj, full, list(classes.values()))
                v2 = _prune_non_modules_mask(g, v1, dmask)
                if dmask & ~v2:
                    continue
                closed_d = dmask
                for d in doms:
                    closed_d |= adj[d]
                closed_d &= v2
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
                            yield comp, prov


def brute_dominator_tuples(
    adj: list[int], vmask: int, omega: int
) -> list[tuple[int, ...]]:
    """Every ascending vertex tuple of vmask that is a clique of at most
    omega vertices or an induced P3, by size, then lexicographically."""
    verts = list(iter_mask(vmask))
    out = []
    for size in range(1, max(omega, 3) + 1):
        for t in combinations(verts, size):
            edges = sum(1 for u, v in combinations(t, 2) if adj[u] >> v & 1)
            if (size <= omega and edges == size * (size - 1) // 2
                    or size == 3 and edges == 2):
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
    cleaned state and dominator coloring is searched in full and every
    assembled candidate is compared with the best so far.  The starting
    answer (the greedy incumbent) and the tuples (_dominator_tuples with
    omega the pattern's clique number on the live colors) are the
    solver's own: this is the reference for the bounds, not for the
    incumbent or the tuple set."""

    def _solve_piece(
        self, vmask: int, lists: tuple[int, ...]
    ) -> tuple[int, tuple[tuple[int, int], ...]]:
        wt = self._wt
        universe = 0
        all_singletons = True
        for v in iter_mask(vmask):
            lv = lists[v]
            universe |= lv
            if lv & (lv - 1):
                all_singletons = False
        if all_singletons:
            return _conflict_mwis(self._adj, vmask, lists, self._hadj, wt)
        best_w, best_asg = self.incumbent(vmask, lists)
        for doms in _dominator_tuples(self._adj, vmask, self.clique_number(universe)):
            if not self.spend():
                return best_w, best_asg
            for w, asg in self._branch(vmask, lists, doms, universe):
                if w > best_w:
                    best_w = w
                    best_asg = asg
        return best_w, best_asg

    def _branch(self, vmask, lists, doms, universe):
        parts, used = self.carve(vmask, doms)
        dmask = mask_from(doms)
        for st, kept in sorted(self.cleaned_states(lists, parts, used, universe)):
            yield from self._branch_colors(st, kept, doms, dmask, parts, lists)

    def _branch_colors(self, lists, kept, doms, dmask, parts, entry_lists):
        adj = self._adj
        hadj = self._hadj
        wt = self._wt
        p = len(doms)
        assign = [0] * p

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
            for idx in range(p):
                hmask = hadj[colors[idx]]
                for v in iter_mask(adj[doms[idx]] & kept & ~dmask):
                    mod[v] &= hmask
            total = 0
            coloring: dict[int, int] = {}
            for idx in range(p):
                total += wt[doms[idx]]
                coloring[doms[idx]] = colors[idx]
            for x in parts:
                pm = x & kept
                if not pm:
                    continue
                w, asg = self.solve_masked(pm, tuple(mod))
                total += w
                coloring.update(asg)
            if self._verify_candidate(coloring, entry_lists):
                yield total, tuple(sorted(coloring.items()))
