"""Component family: pruning operations, construction invariants."""

import hashlib
import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import p5hom.connected as connected_module
import p5hom.family as family_module
from p5hom.blob import solve_full
from p5hom.connected import ConnectedSolver, solve_connected_case
from p5hom.family import (
    FamilyProvenance,
    NotP5FreeError,
    build_family,
    _class_partitions,
    _core_region_mask,
    _guessed_members,
    _intact_partitions,
    _second_sets,
)
from p5hom.generators import FAMILIES, TRIAL_DENSITIES, GenSpec, generate
from p5hom.graph import (
    Graph,
    enumerate_connected_subsets,
    iter_mask,
    mask_from,
    masked_components,
    set_from_mask,
)
from p5hom.pattern import Instance, PatternGraph, Solution, exists_list_hom, verify_solution
from p5hom.textio import serialize_solution

from brute import (
    _surjections,
    brute_class_labellings,
    brute_common_neighbors,
    brute_core_region,
    brute_guessed_members,
    brute_has_induced_p5,
    brute_prune_common,
    brute_prune_non_modules,
    brute_second_sets,
)

GEM = Graph(5, [(1, 2), (2, 3), (3, 4), (5, 1), (5, 2), (5, 3), (5, 4)])


def closed_seed(g: Graph, verts, vmask: int) -> int:
    """N[verts] inside vmask, the seed the family closes."""
    adj = g.adjacency_masks()
    seed = mask_from(verts)
    for v in verts:
        seed |= adj[v]
    return seed & vmask


def label_classes(dmask: int, labels, nclasses: int) -> list[int]:
    """The class masks of D's vertices, ascending, under labels."""
    classes = [0] * nclasses
    for d, c in zip(iter_mask(dmask), labels):
        classes[c] |= 1 << d
    return classes


def test_prune_common_neighbors_frozen():
    # the restart reference on frozen cases; where vmask is the whole
    # graph, the family's rule reads the same answer off one intersection:
    # D loses a vertex exactly when a common neighbor is in D, and
    # otherwise the prune deletes the common neighbors
    def check(g, class_masks, want, vmask=None):
        adj = g.adjacency_masks()
        full = g.full_mask
        assert brute_prune_common(adj, full if vmask is None else vmask, class_masks) == want
        if vmask is None:
            dmask = mask_from(v for cm in class_masks for v in iter_mask(cm))
            common = brute_common_neighbors(adj, class_masks)
            assert bool(common & dmask) == bool(dmask & ~want)
            if not common & dmask:
                assert want == full & ~common

    # vertex 3 and then 4 are adjacent to both classes and get deleted
    g = Graph(4, [(1, 2), (2, 3), (1, 3), (1, 4), (2, 4)])
    check(g, [mask_from([1]), mask_from([2])], mask_from([1, 2]))

    # dominators themselves are deletable: with one class {1, 2}, vertex 1
    # is adjacent to a live class member and goes first
    check(Graph(2, [(1, 2)]), [mask_from([1, 2])], mask_from([2]))

    # nobody is adjacent to both classes: immediate fixpoint
    p4 = Graph.path(4)
    check(p4, [mask_from([1]), mask_from([4])], p4.full_mask)

    # class member 1 goes first; the prune goes on to delete 3, while 4,
    # adjacent to both classes only through 1, now stays
    g = Graph(5, [(1, 2), (1, 4), (1, 5), (2, 3), (2, 5), (3, 5), (4, 5)])
    check(g, [mask_from([1, 2]), mask_from([5])], mask_from([2, 4, 5]))

    # class {4} has no member in vmask, so nothing is deleted, although 3
    # is adjacent to both other classes
    g = Graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
    vmask = mask_from([1, 2, 3])
    check(g, [mask_from([1]), mask_from([2]), mask_from([4])], vmask, vmask)


def test_prune_non_module_components_frozen():
    # G - N[{1}] on the 4-path is the edge {3, 4}, whose ends see different
    # outside neighborhoods, so it goes
    p4 = Graph.path(4)
    assert brute_prune_non_modules(p4, p4.full_mask, mask_from([1])) == mask_from([1, 2])

    # star: the leftover leaves are single vertices, always modules
    star = Graph(4, [(1, 2), (1, 3), (1, 4)])
    assert brute_prune_non_modules(star, star.full_mask, mask_from([2])) == star.full_mask

    # G - N[{5}] is the edge {1, 2}, and both ends see {3, 4} outside it:
    # a module, kept; without vertex 2 the single vertex 1 is kept too
    g = Graph(5, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)])
    assert brute_prune_non_modules(g, g.full_mask, mask_from([5])) == g.full_mask
    vmask = mask_from([1, 3, 4, 5])
    assert brute_prune_non_modules(g, vmask, mask_from([5])) == vmask

    # without the edge 2-4, vertex 1 sees {3, 4} and vertex 2 sees {3}:
    # not a module, deleted; the module test reads the current graph, so
    # once 4 is gone both ends see {3} and the edge stays
    g = Graph(5, [(1, 2), (1, 3), (2, 3), (1, 4), (3, 5), (4, 5)])
    assert brute_prune_non_modules(g, g.full_mask, mask_from([5])) == mask_from([3, 4, 5])
    vmask = mask_from([1, 2, 3, 5])
    assert brute_prune_non_modules(g, vmask, mask_from([5])) == vmask


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(4, 9), st.integers(0, 10**9))
def test_module_prune_deletes_nothing_after_common_prune(family, n, seed):
    # the lemma behind the family's region full & ~common: on a P5-free
    # host, with D connected and the common neighbors of its classes gone,
    # every component C of G - N[D] is a module.  A vertex x left in N(D)
    # is not adjacent to all of D, so it has a neighbor d1 and a
    # non-neighbor d2 in D, adjacent as D is connected; if x saw c1 but
    # not c2 of an edge of C, c2-c1-x-d1-d2 would be an induced P5
    g = generate(GenSpec(
        family=family,
        n=n,
        k=2,
        seed=seed,
        density=TRIAL_DENSITIES[family][seed % 3],
        max_tries=500,
    )).g
    adj = g.adjacency_masks()
    for dmask in enumerate_connected_subsets(g, 2, 4):
        for kprime in (2, 3):
            for labels in brute_class_labellings(dmask.bit_count(), kprime):
                common = brute_common_neighbors(adj, label_classes(dmask, labels, kprime))
                if not common & dmask:
                    region = g.full_mask & ~common
                    assert brute_prune_non_modules(g, region, dmask) == region


def test_module_prune_deletes_without_the_lemma():
    # negative controls: on P5 itself (not P5-free) with D = {1, 2}, whose
    # classes have no common neighbor, the component {4, 5} is not a
    # module; on P4 with D = {1} and the common prune skipped, vertex 2
    # (adjacent to all of D) stays and the component {3, 4} is not a module
    p5 = Graph.path(5)
    assert brute_common_neighbors(p5.adjacency_masks(), [mask_from([1]), mask_from([2])]) == 0
    assert brute_prune_non_modules(p5, p5.full_mask, mask_from([1, 2])) == mask_from([1, 2, 3])
    p4 = Graph.path(4)
    assert brute_prune_non_modules(p4, p4.full_mask, mask_from([1])) == mask_from([1, 2])


def test_core_region_frozen():
    # (graph, D, closed region of N[D])
    cases = [
        (Graph.path(4), [2], {1, 2}),
        (Graph.path(3), [2], {1, 2, 3}),
        # a dominating seed closes over everything
        (GEM, [5], {1, 2, 3, 4, 5}),
    ]
    for g, doms, core in cases:
        seed = closed_seed(g, doms, g.full_mask)
        assert _core_region_mask(g.adjacency_masks(), g.full_mask, seed) == mask_from(core)


def test_core_region_has_no_outgoing_edges():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 8)
        g = Graph(n, [
            (u, v)
            for u, v in itertools.combinations(range(1, n + 1), 2)
            if rng.random() < 0.5
        ])
        d = rng.randint(1, n)
        adj = g.adjacency_masks()
        seed = closed_seed(g, [d], g.full_mask)
        core = _core_region_mask(adj, g.full_mask, seed)
        # the closure deletes the seed vertices it drops from the graph too
        surv = g.full_mask & ~(seed & ~core)
        for u in iter_mask(core):
            assert adj[u] & surv & ~core == 0


def test_rejects_non_p5free():
    inst = Instance.build(Graph.path(5), PatternGraph.complete(2))
    with pytest.raises(NotP5FreeError) as exc:
        build_family(inst)
    assert exc.value.witness == (1, 2, 3, 4, 5)


def test_family_contains_singletons():
    inst = Instance.build(Graph.cycle(5), PatternGraph.complete(2),
                          lists={3: []})
    fam = build_family(inst)
    singles = {m for m in fam.members if len(m) == 1}
    # every vertex with a nonempty list appears; vertex 3 cannot
    assert singles == {frozenset({v}) for v in (1, 2, 4, 5)}
    assert all(fam.provenance[s] == "singleton" for s in singles)


def test_family_frozen_shapes():
    # no connected pair exists, so only singletons can appear
    inst = Instance.build(Graph(3, []), PatternGraph.complete(2))
    fam = build_family(inst)
    assert set(fam.members) == {frozenset({v}) for v in (1, 2, 3)}

    # the optimum of C5 under K2 is a connected 4-vertex piece, so the
    # family must offer one
    inst = Instance.build(Graph.cycle(5), PatternGraph.complete(2))
    fam = build_family(inst)
    assert any(len(m) == 4 for m in fam.members)

    # each edge of 2K2 is a whole optimum component
    inst = Instance.build(Graph(4, [(1, 2), (3, 4)]), PatternGraph.complete(2))
    fam = build_family(inst)
    assert frozenset({1, 2}) in fam.members
    assert frozenset({3, 4}) in fam.members


def random_p5free_instance(seed: int) -> Instance:
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    while True:
        g = Graph(n, [
            (u, v)
            for u, v in itertools.combinations(range(1, n + 1), 2)
            if rng.random() < 0.55
        ])
        if not brute_has_induced_p5(g):
            break
    k = rng.randint(2, 3)
    h = PatternGraph.complete(k) if rng.random() < 0.6 else PatternGraph.path(k)
    lists = {v: frozenset(c for c in h.colors if rng.random() < 0.8)
             for v in g.vertices}
    wt = {v: Fraction(rng.randint(0, 6), rng.randint(1, 3)) for v in g.vertices}
    return Instance(g, h, wt, lists)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_members_connected_and_colorable(seed):
    inst = random_p5free_instance(seed)
    fam = build_family(inst)
    assert fam.exhaustive
    for member in fam.members:
        assert len(masked_components(inst.g, mask_from(member))) == 1
        assert exists_list_hom(inst.g, inst.h, {v: inst.lists[v] for v in member}) is not None
        prov = fam.provenance[member]
        assert prov == "singleton" or isinstance(prov, FamilyProvenance)


def assert_colorings_verify(inst: Instance, fam) -> None:
    """Each member's coloring colors exactly the member, from its lists,
    every edge inside on a pattern edge (verify_solution, which reads no
    family code); a singleton takes its lowest list color."""
    assert list(fam.colorings) == list(fam.members)
    for member in fam.members:
        sol = Solution.from_assignment(inst, fam.colorings[member])
        assert sol.chosen == member
        assert verify_solution(inst, sol) is None
        if fam.provenance[member] == "singleton":
            (v,) = member
            assert sol.coloring == {v: min(inst.lists[v])}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_member_colorings_verify(seed):
    inst = random_p5free_instance(seed)
    assert_colorings_verify(inst, build_family(inst))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9))
def test_build_is_deterministic(seed):
    inst = random_p5free_instance(seed)
    a = build_family(inst)
    b = build_family(inst)
    assert a.members == b.members
    assert a.provenance == b.provenance
    assert a.colorings == b.colorings


# (family, pattern) for the frozen-family instances: every generator
# family with K2, K3 and P3, then three more draws
FROZEN_SPECS = [
    (family, pattern)
    for pattern in ("complete:2", "complete:3", "path:3")
    for family in FAMILIES
] + [("cograph", "complete:3"), ("split", "complete:3"), ("random-p5free", "path:3")]


def frozen_instance(index: int) -> Instance:
    """Seeded instance in the style of the acceptance corpus, n <= 9."""
    rng = random.Random(4049 * 100003 + index)
    family, pattern = FROZEN_SPECS[index]
    pname, _, karg = pattern.partition(":")
    return generate(GenSpec(
        family=family,
        n=rng.randint(5, 9),
        k=int(karg),
        seed=4049 + index,
        density=TRIAL_DENSITIES[family][rng.randrange(3)],
        pattern=pname,
        list_density=Fraction(7, 10),
        weight_range=(0, 6),
        max_tries=500,
    ))


def family_digest(fam) -> str:
    """SHA-256 over members, per-member provenance and the exhaustive bit."""
    rows = []
    for m in fam.members:
        prov = fam.provenance[m]
        if isinstance(prov, FamilyProvenance):
            prov = (prov.colors, prov.dominators, prov.coloring, prov.second)
        rows.append((tuple(sorted(m)), prov))
    return hashlib.sha256(repr((rows, fam.exhaustive)).encode()).hexdigest()


@pytest.mark.parametrize("budget, digest", [
    (None, "ffa15a2a3167ea482c8a22b83dd7da02842fdcffdf7f363d068a78d08c75a5b3"),
    (5, "65f3304eecb22bac51e05041d504e4d7451b05f7f36fcdcf98fdf000f699399d"),
    (40, "fe143e77db84943b64bfd4317bfed23d929a41ef5428739922f36f362dd2eaf5"),
], ids=["None", "5", "40"])
def test_family_frozen_digest(budget, digest):
    # the family (members, provenance, exhaustive) of twelve seeded
    # instances, pinned so that a faster build must reproduce it exactly
    h = hashlib.sha256()
    for i in range(len(FROZEN_SPECS)):
        h.update(family_digest(build_family(frozen_instance(i), budget=budget)).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("budget", [None, 5, 40], ids=["None", "5", "40"])
def test_frozen_member_colorings_verify(budget):
    for i in range(len(FROZEN_SPECS)):
        inst = frozen_instance(i)
        assert_colorings_verify(inst, build_family(inst, budget=budget))


def answers_digest(budget) -> str:
    """SHA-256 over the serialized solution and the exhaustive bit of
    solve_full and of solve_connected_case on every frozen instance."""
    h = hashlib.sha256()
    for i in range(len(FROZEN_SPECS)):
        inst = frozen_instance(i)
        for solve in (solve_full, solve_connected_case):
            res = solve(inst, budget=budget)
            h.update(repr((serialize_solution(res.solution), res.exhaustive)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("budget, digest", [
    (None, "2bfa3cc162bc355bd0b50384aa159d5a0c13a7711ce9d815684903a91256b9f9"),
    (5, "ba0d3291d916f35c0723dca3729f7af78acb3cb6b6be5df9b6ec718a9898c3ce"),
    (40, "30da86138404cf03840d90552e26f2b35debb6e8718298a4811e757427a9dec0"),
], ids=["None", "5", "40"])
def test_answers_frozen_digest(budget, digest):
    # the answers (colorings, tie-breaks, exhaustive bits) of both
    # searches on the twelve frozen instances, pinned so that a change
    # inside the solver must reproduce them exactly
    assert answers_digest(budget) == digest


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_second_set_walk_matches_all_subsets(seed):
    # the irredundant walk yields exactly the first-occurrence seeds of
    # the walk over every subset, with the same D' and in the same order
    g = random_p5free_instance(seed).g
    rng = random.Random(seed + 1)
    adj = list(g.adjacency_masks())
    vmask = mask_from(v for v in g.vertices if rng.random() < 0.8)
    dmask = mask_from(v for v in set_from_mask(vmask) if rng.random() < 0.3)
    base = dmask
    for d in set_from_mask(dmask):
        base |= adj[d]
    base &= vmask
    max_size = rng.randint(0, 4)
    got = list(_second_sets(adj, vmask, base, max_size))
    assert got == brute_second_sets(adj, vmask, base, max_size)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_common_prune_is_one_intersection(seed):
    # on the whole graph, with classes partitioning a connected D, the
    # restart prune keeps D intact exactly when no vertex of D is a common
    # neighbor of the classes, and then deletes just the common neighbors
    g = random_p5free_instance(seed).g
    rng = random.Random(seed + 1)
    adj = list(g.adjacency_masks())
    dmask = rng.choice(list(enumerate_connected_subsets(g, 1, 4)))
    size = dmask.bit_count()
    nclasses = rng.randint(1, size)
    labels = list(range(nclasses)) + [rng.randrange(nclasses) for _ in range(size - nclasses)]
    rng.shuffle(labels)
    class_masks = label_classes(dmask, labels, nclasses)
    common = brute_common_neighbors(adj, class_masks)
    got = brute_prune_common(adj, g.full_mask, class_masks)
    assert (dmask & ~got == 0) == (common & dmask == 0)
    if not common & dmask:
        assert got == g.full_mask & ~common


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_intact_partitions_match_the_restart_prune(seed):
    # for every connected D and |W| in {|D| - 1, |D|}, the partitions the
    # family walks are exactly the labellings whose restart prune keeps D
    # whole, in labelling order, each with the mask that prune deletes
    g = random_p5free_instance(seed).g
    adj = g.adjacency_masks()
    for dmask in enumerate_connected_subsets(g, 1, 5):
        rows = [adj[d] for d in iter_mask(dmask)]
        size = len(rows)
        for kprime in range(max(1, size - 1), size + 1):
            want = []
            for labels in brute_class_labellings(size, kprime):
                kept = brute_prune_common(adj, g.full_mask, label_classes(dmask, labels, kprime))
                if not dmask & ~kept:
                    want.append((labels, g.full_mask & ~kept))
            partitions = _class_partitions(size, kprime)
            assert _intact_partitions(rows, dmask, partitions) == want


def random_graph(rng: random.Random, max_n: int = 9) -> Graph:
    """A random graph, P5-free or not, on 1..max_n vertices."""
    n = rng.randint(1, max_n)
    density = rng.choice([0.25, 0.45, 0.65])
    return Graph(n, [
        (u, v)
        for u, v in itertools.combinations(range(1, n + 1), 2)
        if rng.random() < density
    ])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_one_pass_core_region_matches_restart(seed):
    rng = random.Random(seed)
    g = random_graph(rng)
    adj = g.adjacency_masks()
    vmask = g.full_mask if rng.random() < 0.5 else mask_from(
        v for v in g.vertices if rng.random() < 0.8)
    verts = [v for v in set_from_mask(vmask) if rng.random() < 0.3]
    seed_mask = closed_seed(g, verts, vmask)
    assert _core_region_mask(adj, vmask, seed_mask) == brute_core_region(adj, vmask, seed_mask)[1]


@pytest.mark.parametrize("kprime", range(1, 9))
def test_class_labellings_closed_form(kprime):
    # the identity for |D| = |W|, and for |D| = |W| + 1 the strings that
    # repeat one earlier label: the restricted-growth strings, in order,
    # each with the positions of its repeated label and the rest
    for size in (kprime, kprime + 1):
        partitions = _class_partitions(size, kprime)
        assert [hidx for hidx, _, _ in partitions] == list(brute_class_labellings(size, kprime))
        for hidx, pair, singles in partitions:
            assert pair == tuple(i for i, c in enumerate(hidx) if hidx.count(c) == 2)
            assert singles == tuple(i for i, c in enumerate(hidx) if hidx.count(c) == 1)


def walk_members(walk, inst: Instance, budget):
    """(members in insertion order, exhaustive, budget left) of one guess
    walk on a fresh solver, the singletons seeded first as build_family
    seeds them; a guessed member comes with its first provenance and the
    colors of its first answer."""
    solver = ConnectedSolver(inst, budget=budget)
    members: dict = {1 << v: "singleton" for v in inst.g.vertices if inst.lists[v]}
    for mask, prov, answer in walk(inst, solver):
        if mask not in members:
            members[mask] = prov, {v: answer[v] for v in iter_mask(mask)}
    return list(members.items()), solver.exhaustive, solver._left


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(FAMILIES),
    st.tuples(st.sampled_from(["complete:2", "complete:3", "path:3"]), st.integers(4, 7))
    | st.tuples(st.just("complete:4"), st.integers(4, 6)),
    st.integers(0, 10**9),
    st.none() | st.integers(0, 80),
)
def test_guess_order_matches_full_walk(family, pattern_n, seed, budget):
    # walking each (D, class partition) once per size, with W innermost,
    # and skipping a core already solved at its size and every one-vertex
    # piece give the members, provenance, exhaustive flag and budget left
    # of the walk over every surjection and every region under every W,
    # the singletons seeded first in both; under K4 a 3-vertex D is walked
    # for |W| = 2 and for |W| = 3
    pattern, n = pattern_n
    pname, _, karg = pattern.partition(":")
    inst = generate(GenSpec(
        family=family,
        n=n,
        k=int(karg),
        seed=seed,
        density=TRIAL_DENSITIES[family][seed % 3],
        pattern=pname,
        list_density=Fraction(7, 10),
        weight_range=(0, 6),
        max_tries=500,
    ))
    assert walk_members(_guessed_members, inst, budget) == walk_members(
        brute_guessed_members, inst, budget
    )


def test_budget_runs_out_inside_a_repeated_walk(monkeypatch):
    # on GEM under K3 most second sets of size 3 sit in walks whose pruned
    # region and N[D] an earlier walk of the size already had, and such a
    # walk is charged in one call; every budget, including those that run
    # out inside that call, stops where the walk over every surjection does
    g, k = GEM, 3
    inst = Instance.build(g, PatternGraph.complete(k))
    adj = g.adjacency_masks()
    walks = set()  # (D, class partition) kept intact at size 3
    region_walks = set()  # (pruned region, N[D]) at size 3
    for dmask in enumerate_connected_subsets(g, k, k + 1):
        doms = tuple(iter_mask(dmask))
        for h in _surjections(doms, tuple(range(k))):
            classes = [mask_from(d for d, c in zip(doms, h) if c == i) for i in range(k)]
            v = brute_prune_non_modules(g, brute_prune_common(adj, g.full_mask, classes), dmask)
            if not dmask & ~v:
                walks.add((doms, frozenset(classes)))
                region_walks.add((v, closed_seed(g, doms, v)))
    assert len(region_walks) < len(walks)

    repeats = []  # (asked, paid) of the family's charges for a repeated walk
    spend = ConnectedSolver.spend

    def counted_spend(self, *n):
        paid = spend(self, *n)
        # the family names the count only when it charges a repeated walk
        if n and sys._getframe(1).f_code is _guessed_members.__code__:
            repeats.append((n[0], paid))
        return paid

    monkeypatch.setattr(ConnectedSolver, "spend", counted_spend)
    big = 10**9
    solver = ConnectedSolver(inst, budget=big)
    list(_guessed_members(inst, solver))
    total = big - solver._left
    for budget in range(total + 2):
        runs = [walk_members(walk, inst, budget)
                for walk in (_guessed_members, brute_guessed_members)]
        assert runs[0] == runs[1]
        assert runs[0][1] == (budget >= total)
    assert repeats and any(paid < n for n, paid in repeats)


@pytest.mark.parametrize(
    "g, k",
    [(Graph.cycle(5), 2), (GEM, 3), (Graph(5, [(1, 2), (2, 3), (3, 4)]), 2),
     (Graph(5, [(1, 2), (2, 3), (1, 3), (2, 4), (3, 5)]), 3)],
    ids=["C5-K2", "GEM-K3", "P4+K1-K2", "bull-K3"],
)
def test_one_walk_per_partition_one_solve_per_region(monkeypatch, g, k):
    inst = Instance.build(g, PatternGraph.complete(k))
    adj = g.adjacency_masks()
    guesses = 0
    partitions = set()  # (W, D, class partition)
    walks = set()  # (|W|, D, class partition)
    regions = set()  # (W, nonempty closed core), by the restart references
    walk_seconds = {}  # (|W|, D, class partition) kept intact -> second sets
    region_walks = {}  # (|W|, pruned region, N[D]) -> second sets
    for size in range(2, min(k, g.n) + 1):
        for colors in itertools.combinations(range(1, k + 1), size):
            for dmask in enumerate_connected_subsets(g, size, min(size + 1, g.n)):
                doms = tuple(iter_mask(dmask))
                for h in _surjections(doms, colors):
                    guesses += 1
                    classes = {c: frozenset(d for d, e in zip(doms, h) if e == c) for c in h}
                    partitions.add((colors, doms, frozenset(classes.values())))
                    walks.add((size, doms, frozenset(classes.values())))
                    v = brute_prune_common(adj, g.full_mask, [mask_from(c) for c in classes.values()])
                    if dmask & ~v:
                        continue
                    v = brute_prune_non_modules(g, v, dmask)
                    closed_d = closed_seed(g, doms, v)
                    seconds = brute_second_sets(adj, v, closed_d, size + 1)
                    walk_seconds[(size, doms, frozenset(classes.values()))] = len(seconds)
                    region_walks[(size, v, closed_d)] = len(seconds)
                    for _, seed in seconds:
                        core = brute_core_region(adj, v, seed)[1]
                        if core:
                            regions.add((colors, core))

    events = []  # ("walk", |W|), ("close", core), top-level ("solve", piece), ("yield", mask)
    walk = family_module._second_sets

    def counted_walk(adj, vmask, seed, max_size):
        events.append(("walk", max_size - 1))
        return walk(adj, vmask, seed, max_size)

    close = family_module._core_region_mask

    def counted_close(*args):
        core = close(*args)
        events.append(("close", core))
        return core

    splits = []
    split = connected_module.masked_components

    def counted_split(graph, mask):
        splits.append(mask)
        return split(graph, mask)

    top = []
    components = set()  # of the top-level answers
    depth = [0]
    solve = ConnectedSolver.solve_masked

    def counted_solve(self, vmask, lists):
        if not depth[0]:
            top.append((vmask, tuple(lists)))
            events.append(("solve", vmask))
        depth[0] += 1
        try:
            answer = solve(self, vmask, lists)
        finally:
            depth[0] -= 1
        if not depth[0]:
            components.update(masked_components(g, mask_from(v for v, _ in answer[1])))
        return answer

    monkeypatch.setattr(family_module, "_second_sets", counted_walk)
    monkeypatch.setattr(connected_module, "masked_components", counted_split)
    monkeypatch.setattr(family_module, "_core_region_mask", counted_close)
    monkeypatch.setattr(ConnectedSolver, "solve_masked", counted_solve)
    solver = ConnectedSolver(inst)
    yielded = []
    for mask, prov, _ in _guessed_members(inst, solver):
        events.append(("yield", mask))
        yielded.append((mask, prov))
    assert solver.exhaustive

    # one second-set walk per distinct (|W|, pruned region, N[D]) in the
    # whole build, whatever W and surjection: under K2 a surjection and its
    # color swap share a class partition, and under K3 the three 2-color
    # sets share every walk of their size
    walked = [e for e in events if e[0] == "walk"]
    assert len(walked) == len(region_walks) <= len(walk_seconds) <= len(walks)
    assert len(walks) <= len(partitions) < guesses
    if k == 2:
        assert 2 * len(walks) == guesses
    else:
        assert len(walks) < len(partitions)
    # one split per distinct vertex mask in the solver's whole life
    assert len(splits) == len(set(splits))
    # a walk met again is charged without closing its second sets; on GEM
    # under K3 that saves closures over one walk per (|W|, D, partition)
    closures = [e for e in events if e[0] == "close"]
    assert len(closures) == sum(region_walks.values()) <= sum(walk_seconds.values())
    if k == 3:
        assert len(closures) < sum(walk_seconds.values())
    # a core closed again at its size makes no top-level solve and yields
    # no new mask: each of its pieces is solved under every W already
    size, cores, held, repeats, repeated = 0, set(), set(), 0, False
    for event in events:
        if event[0] == "walk":
            size, repeated = event[1], False
        elif event[0] == "close":
            repeated = (size, event[1]) in cores
            repeats += repeated
            cores.add((size, event[1]))
        elif event[0] == "solve":
            assert not repeated
        elif event[0] == "yield":
            assert not repeated or event[1] in held
            held.add(event[1])
    assert repeats
    # one solve per distinct (W, closed region) piece of two or more
    # vertices: every list is full, so the lists restricted to W tell the
    # W apart; fewer solves than one walk per (|W|, D, class partition)
    # closes regions, and at most one region new to its size per closure
    assert len(top) == len(set(top)) < sum(walk_seconds.values())
    assert all(vmask & (vmask - 1) for vmask, _ in top)
    assert len({(max(lists).bit_count(), vmask) for vmask, lists in top}) <= len(closures)
    assert len(top) <= len(regions)
    # every component of an answer is yielded, and an answer may have
    # several (the greedy incumbent need not be connected); a component
    # met again is yielded again, and build_family keeps the provenance
    # of its first yield
    first = {}
    for mask, prov in yielded:
        first.setdefault(mask, prov)
    assert set(first) == components
    monkeypatch.undo()
    kept = build_family(inst).provenance
    for mask, prov in first.items():
        assert kept[set_from_mask(mask)] == (prov if mask & (mask - 1) else "singleton")
