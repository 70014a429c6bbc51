"""Component family: pruning operations, construction invariants."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import p5hom.family as family_module
from p5hom.blob import solve_full
from p5hom.connected import ConnectedSolver, solve_connected_case
from p5hom.family import (
    FamilyProvenance,
    NotP5FreeError,
    build_family,
    _core_region_mask,
    _guessed_members,
    _prune_common_mask,
    _prune_non_modules_mask,
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
from p5hom.pattern import Instance, PatternGraph, exists_list_hom
from p5hom.textio import serialize_solution

from brute import (
    _surjections,
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


def test_prune_common_neighbors_frozen():
    # vertex 3 and then 4 are adjacent to both classes and get deleted
    g = Graph(4, [(1, 2), (2, 3), (1, 3), (1, 4), (2, 4)])
    got = _prune_common_mask(g.adjacency_masks(), g.full_mask, [mask_from([1]), mask_from([2])])
    assert got == mask_from([1, 2])

    # dominators themselves are deletable: with one class {1, 2}, vertex 1
    # is adjacent to a live class member and goes first
    g = Graph(2, [(1, 2)])
    got = _prune_common_mask(g.adjacency_masks(), g.full_mask, [mask_from([1, 2])])
    assert got == mask_from([2])

    # nobody is adjacent to both classes: immediate fixpoint
    p4 = Graph.path(4)
    got = _prune_common_mask(p4.adjacency_masks(), p4.full_mask, [mask_from([1]), mask_from([4])])
    assert got == p4.full_mask

    # class member 1 goes first; the sweep goes on to delete 3, while 4,
    # adjacent to both classes only through 1, now stays
    g = Graph(5, [(1, 2), (1, 4), (1, 5), (2, 3), (2, 5), (3, 5), (4, 5)])
    got = _prune_common_mask(g.adjacency_masks(), g.full_mask, [mask_from([1, 2]), mask_from([5])])
    assert got == mask_from([2, 4, 5])

    # class {4} has no member in vmask, so the sweep stops before it
    # starts, although 3 is adjacent to both other classes
    g = Graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
    vmask = mask_from([1, 2, 3])
    got = _prune_common_mask(g.adjacency_masks(), vmask, [mask_from([1]), mask_from([2]), mask_from([4])])
    assert got == vmask


def test_prune_non_module_components_frozen():
    # G - N[{1}] on the 4-path is the edge {3, 4}, whose ends see different
    # outside neighborhoods, so it goes
    p4 = Graph.path(4)
    assert _prune_non_modules_mask(p4, p4.full_mask, mask_from([1])) == mask_from([1, 2])

    # star: the leftover leaves are single vertices, always modules
    star = Graph(4, [(1, 2), (1, 3), (1, 4)])
    assert _prune_non_modules_mask(star, star.full_mask, mask_from([2])) == star.full_mask

    # G - N[{5}] is the edge {1, 2}, and both ends see {3, 4} outside it:
    # a module, kept; without vertex 2 the single vertex 1 is kept too
    g = Graph(5, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)])
    assert _prune_non_modules_mask(g, g.full_mask, mask_from([5])) == g.full_mask
    vmask = mask_from([1, 3, 4, 5])
    assert _prune_non_modules_mask(g, vmask, mask_from([5])) == vmask

    # without the edge 2-4, vertex 1 sees {3, 4} and vertex 2 sees {3}:
    # not a module, deleted; the module test reads the current graph, so
    # once 4 is gone both ends see {3} and the edge stays
    g = Graph(5, [(1, 2), (1, 3), (2, 3), (1, 4), (3, 5), (4, 5)])
    assert _prune_non_modules_mask(g, g.full_mask, mask_from([5])) == mask_from([3, 4, 5])
    vmask = mask_from([1, 2, 3, 5])
    assert _prune_non_modules_mask(g, vmask, mask_from([5])) == vmask


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


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9))
def test_build_is_deterministic(seed):
    inst = random_p5free_instance(seed)
    a = build_family(inst)
    b = build_family(inst)
    assert a.members == b.members
    assert a.provenance == b.provenance


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
    (5, "f11f44abc06e4e485345e3bc99f70a46bb7ae2e837d2bc3b22fd61f79a04e7ff"),
    (40, "a96e99a5a52c21dffa5e36830c8128fabf02dc9f79c6b90156db0dbea5022a90"),
], ids=["None", "5", "40"])
def test_family_frozen_digest(budget, digest):
    # the family (members, provenance, exhaustive) of twelve seeded
    # instances, pinned so that a faster build must reproduce it exactly
    h = hashlib.sha256()
    for i in range(len(FROZEN_SPECS)):
        h.update(family_digest(build_family(frozen_instance(i), budget=budget)).encode())
    assert h.hexdigest() == digest


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
    (None, "5b89c8b5dc8a1b9b8bd0ed153160e5ed01ee94061dda3786968cb679cb82b580"),
    (5, "4ce574fbea9ecc4ad2df7d4c38d071b596d9a0005a6d916e492f36c9717ea567"),
    (40, "a0bd57a74741ec290366ebe6d8305f63095e923c229deb543f93abaaacd7dcaf"),
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
def test_one_sweep_prune_matches_restart(seed):
    g = random_p5free_instance(seed).g
    rng = random.Random(seed + 1)
    adj = list(g.adjacency_masks())
    doms = [v for v in g.vertices if rng.random() < 0.4] or [1]
    classes: dict[int, int] = {}
    for d in doms:
        c = rng.randint(1, 3)
        classes[c] = classes.get(c, 0) | 1 << d
    vmask = g.full_mask if rng.random() < 0.5 else mask_from(
        v for v in g.vertices if rng.random() < 0.8)
    class_masks = list(classes.values())
    assert _prune_common_mask(adj, vmask, class_masks) == brute_prune_common(
        adj, vmask, class_masks)


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


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_one_round_module_prune_matches_repeat(seed):
    rng = random.Random(seed)
    g = random_graph(rng)
    vmask = g.full_mask if rng.random() < 0.5 else mask_from(
        v for v in g.vertices if rng.random() < 0.8)
    dmask = mask_from(v for v in g.vertices if rng.random() < 0.25) or mask_from([1])
    assert _prune_non_modules_mask(g, vmask, dmask) == brute_prune_non_modules(g, vmask, dmask)


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
    # and skipping a region already solved at its size give the members,
    # provenance, exhaustive flag and budget left of the walk over every
    # surjection and every region under every W; under K4 a 3-vertex D
    # is walked for |W| = 2 and for |W| = 3
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
    runs = []
    for walk in (_guessed_members, brute_guessed_members):
        solver = ConnectedSolver(inst, budget=budget)
        members: dict = {}
        for mask, prov in walk(inst, solver):
            members.setdefault(mask, prov)
        runs.append((list(members.items()), solver.exhaustive, solver._left))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("g, k", [(Graph.cycle(5), 2), (GEM, 3)], ids=["C5-K2", "GEM-K3"])
def test_one_walk_per_partition_one_solve_per_region(monkeypatch, g, k):
    inst = Instance.build(g, PatternGraph.complete(k))
    adj = g.adjacency_masks()
    guesses = 0
    partitions = set()  # (W, D, class partition)
    walks = set()  # (|W|, D, class partition)
    regions = set()  # (W, nonempty closed core), by the restart references
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
                    v = brute_prune_non_modules(g, v, dmask)
                    if dmask & ~v:
                        continue
                    for _, seed in brute_second_sets(adj, v, closed_seed(g, doms, v), size + 1):
                        core = brute_core_region(adj, v, seed)[1]
                        if core:
                            regions.add((colors, core))

    prunes = []
    prune = family_module._prune_common_mask

    def counted_prune(*args):
        prunes.append(args)
        return prune(*args)

    closures = []
    close = family_module._core_region_mask

    def counted_close(*args):
        closures.append(args)
        return close(*args)

    top = []
    components = [0]  # of the top-level answers
    depth = [0]
    solve = ConnectedSolver.solve_masked

    def counted_solve(self, vmask, lists):
        if not depth[0]:
            top.append((vmask, tuple(lists)))
        depth[0] += 1
        try:
            answer = solve(self, vmask, lists)
        finally:
            depth[0] -= 1
        if not depth[0]:
            components[0] += len(masked_components(g, mask_from(v for v, _ in answer[1])))
        return answer

    monkeypatch.setattr(family_module, "_prune_common_mask", counted_prune)
    monkeypatch.setattr(family_module, "_core_region_mask", counted_close)
    monkeypatch.setattr(ConnectedSolver, "solve_masked", counted_solve)
    solver = ConnectedSolver(inst)
    yielded = list(_guessed_members(inst, solver))
    assert solver.exhaustive

    # one walk per distinct (|W|, D, class partition) in the whole build;
    # under K2 a surjection and its color swap share a partition, and
    # under K3 the three 2-color sets share every walk of their size
    assert len(prunes) == len(walks) <= len(partitions) < guesses
    if k == 2:
        assert 2 * len(prunes) == guesses
    else:
        assert len(walks) < len(partitions)
    # one solve per distinct (W, closed region): every list is full, so
    # the lists restricted to W tell the W apart
    assert len(top) == len(set(top)) < len(closures)
    assert len(top) <= len(regions)
    # each solve yields every component of its answer once; an answer may
    # have several (the greedy incumbent need not be connected)
    assert len(yielded) == components[0]
