"""Component family: pruning operations, construction invariants."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p5hom.family import (
    FamilyProvenance,
    NotP5FreeError,
    build_family,
    core_region,
    prune_common_neighbors,
    prune_non_module_components,
)
from p5hom.graph import Graph, induced_subgraph, masked_components, mask_from
from p5hom.pattern import Instance, PatternGraph, exists_list_hom

from brute import brute_has_induced_p5

GEM = Graph(5, [(1, 2), (2, 3), (3, 4), (5, 1), (5, 2), (5, 3), (5, 4)])


def test_prune_common_neighbors_frozen():
    # vertex 3 and then 4 are adjacent to both classes and get deleted
    g = Graph(4, [(1, 2), (2, 3), (1, 3), (1, 4), (2, 4)])
    assert prune_common_neighbors(g, [1, 2], {1: 1, 2: 2}) == {1, 2}

    # dominators themselves are deletable: with one class {1, 2}, vertex 1
    # is adjacent to a live class member and goes first
    g = Graph(2, [(1, 2)])
    assert prune_common_neighbors(g, [1, 2], {1: 1, 2: 1}) == {2}

    # nobody is adjacent to both classes: immediate fixpoint
    p4 = Graph.path(4)
    assert prune_common_neighbors(p4, [1, 4], {1: 1, 4: 2}) == {1, 2, 3, 4}


def test_prune_common_neighbors_validation():
    g = Graph(3, [(1, 2)])
    with pytest.raises(ValueError):
        prune_common_neighbors(g, [], {})
    with pytest.raises(ValueError):
        prune_common_neighbors(g, [1], {2: 1})


def test_prune_non_module_components_frozen():
    # G - N[{1}] on the 4-path is the edge {3, 4}, whose ends see different
    # outside neighborhoods, so it goes
    assert prune_non_module_components(Graph.path(4), [1]) == {1, 2}

    # star: the leftover leaves are single vertices, always modules
    star = Graph(4, [(1, 2), (1, 3), (1, 4)])
    assert prune_non_module_components(star, [2]) == {1, 2, 3, 4}

    with pytest.raises(ValueError):
        prune_non_module_components(star, [])


def test_core_region_frozen():
    surv, core = core_region(Graph.path(4), [2], [])
    assert core == {1, 2}
    assert surv == {1, 2, 4}

    surv, core = core_region(Graph.path(3), [2], [])
    assert core == {1, 2, 3} and surv == {1, 2, 3}

    # a dominating seed closes over everything
    surv, core = core_region(GEM, [5], [])
    assert core == {1, 2, 3, 4, 5}
    assert surv == {1, 2, 3, 4, 5}

    with pytest.raises(ValueError):
        core_region(Graph.path(4), [1], [], within=[2, 3])


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
        surv, core = core_region(g, [d], [])
        for u in core:
            assert g.neighbors(u) & surv <= core


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
        sub = induced_subgraph(inst.g, member)
        sub_lists = {sub.to_sub[v]: inst.lists[v] for v in member}
        assert exists_list_hom(sub.graph, inst.h, sub_lists) is not None
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
