"""Pattern graphs, instances, solution verification, list homomorphism."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p5hom.graph import Graph
from p5hom.pattern import (
    Instance,
    PatternGraph,
    Solution,
    exists_list_hom,
    verify_solution,
)

from brute import brute_exists_hom


def test_pattern_graph_basics():
    h = PatternGraph(3, [(1, 2), (2, 3)])
    assert list(h.colors) == [1, 2, 3]
    assert h.has_edge(1, 2) and h.has_edge(2, 1)
    assert not h.has_edge(1, 3)
    assert h.edges() == [(1, 2), (2, 3)]
    assert not h.is_complete
    assert PatternGraph.complete(3).is_complete
    assert PatternGraph.path(3) == h
    # a single color with no edges is complete (no missing pair)
    assert PatternGraph.complete(1).is_complete


def test_pattern_graph_is_a_graph():
    # equality and hashing are Graph's, and the hash is the one the
    # pattern had as a class of its own: hash((k, adjacency table))
    h = PatternGraph.complete(3)
    assert isinstance(h, Graph)
    assert h == Graph.complete(3) and Graph.complete(3) == h
    assert hash(h) == hash(Graph.complete(3)) == hash((3, h.adjacency_masks()))
    assert h != Graph.path(3)
    assert h.full_mask == 0b1110 and PatternGraph(0).full_mask == 0


def test_pattern_graph_rejects_loops_and_bad_range():
    with pytest.raises(ValueError):
        PatternGraph(2, [(1, 1)])
    with pytest.raises(ValueError):
        PatternGraph(2, [(1, 3)])
    with pytest.raises(ValueError):
        PatternGraph(-1)
    assert PatternGraph(0).k == 0  # zero colors is legal, nothing colorable


def test_instance_build_defaults():
    g = Graph(3, [(1, 2)])
    h = PatternGraph.complete(2)
    inst = Instance.build(g, h, wt={2: Fraction(5, 3)}, lists={3: [1]})
    assert inst.wt == {1: 1, 2: Fraction(5, 3), 3: 1}
    assert inst.lists == {1: {1, 2}, 2: {1, 2}, 3: {1}}
    assert inst.weight_of([1, 2]) == Fraction(8, 3)


def test_instance_build_rejects_keys_outside_the_graph():
    # a caller counting vertices from 0 must hear about it, not lose input
    g, h = Graph.path(3), PatternGraph.complete(2)
    with pytest.raises(ValueError, match="vertex 0"):
        Instance.build(g, h, wt={0: 5}, lists={0: [1], 4: [2]})
    with pytest.raises(ValueError, match="vertex 4"):
        Instance.build(g, h, lists={4: [2]})
    with pytest.raises(ValueError, match="vertex 0"):
        Instance.build(g, h, wt={0: 5})


def test_instance_validation():
    g = Graph(2, [(1, 2)])
    h = PatternGraph.complete(2)
    with pytest.raises(ValueError):
        Instance(g, h, {1: Fraction(1)}, {1: frozenset(), 2: frozenset()})
    with pytest.raises(ValueError):
        Instance.build(g, h, wt={1: -1})
    with pytest.raises(ValueError):
        Instance.build(g, h, lists={1: [3]})
    # a color that is not an int (a bool included) is named with its vertex
    with pytest.raises(ValueError, match="vertex 1"):
        Instance.build(g, h, lists={1: [1.0]})
    with pytest.raises(ValueError, match="vertex 2"):
        Instance.build(g, h, lists={2: [True]})


@pytest.mark.parametrize("bad", [0.1, 2.0, True, False], ids=repr)
def test_float_and_bool_weights_rejected(bad):
    # a float's binary value or a bool's 0/1 must not stand in for the
    # intended exact weight; the error names the vertex
    g, h = Graph.path(2), PatternGraph.complete(2)
    with pytest.raises(ValueError, match="vertex 2"):
        Instance.build(g, h, wt={1: 1, 2: bad})
    with pytest.raises(ValueError, match="vertex 1"):
        Instance(g, h, {1: bad, 2: Fraction(1)}, {1: frozenset({1}), 2: frozenset({2})})


def test_exact_weights_accepted():
    # ints, Fractions and Fraction strings (the text format's weights)
    inst = Instance.build(
        Graph.path(3), PatternGraph.complete(2), wt={1: 3, 2: Fraction(1, 10), 3: "2/7"})
    assert inst.wt == {1: Fraction(3), 2: Fraction(1, 10), 3: Fraction(2, 7)}
    assert all(type(w) is Fraction for w in inst.wt.values())


def test_solution_constructors():
    g = Graph(2, [(1, 2)])
    inst = Instance.build(g, PatternGraph.complete(2), wt={1: 2, 2: 3})
    sol = Solution.from_assignment(inst, {1: 1, 2: 2})
    assert sol.chosen == {1, 2}
    assert sol.weight == 5
    assert Solution.empty().weight == 0


def test_verify_solution_accepts_valid():
    g = Graph.cycle(5)
    inst = Instance.build(g, PatternGraph.complete(2))
    sol = Solution.from_assignment(inst, {1: 1, 2: 2, 3: 1, 4: 2})
    assert verify_solution(inst, sol) is None
    assert verify_solution(inst, Solution.empty()) is None


def test_verify_solution_flags_each_kind():
    g = Graph(3, [(1, 2), (2, 3)])
    h = PatternGraph.complete(2)
    inst = Instance.build(g, h, lists={3: [1]})

    v = verify_solution(inst, Solution(frozenset({1}), {}, Fraction(1)))
    assert v is not None and v.kind == "coloring"

    v = verify_solution(inst, Solution(frozenset({3}), {3: 2}, Fraction(1)))
    assert v is not None and v.kind == "list"

    v = verify_solution(inst, Solution(frozenset({1, 2}), {1: 1, 2: 1}, Fraction(2)))
    assert v is not None and v.kind == "edge"

    v = verify_solution(inst, Solution(frozenset({1}), {1: 1}, Fraction(7)))
    assert v is not None and v.kind == "weight"

    with pytest.raises(ValueError):
        verify_solution(inst, Solution(frozenset({9}), {9: 1}, Fraction(1)))


def test_exists_list_hom_frozen_cases():
    # odd cycle into K2: impossible
    assert exists_list_hom(Graph.cycle(5), PatternGraph.complete(2),
                           {v: {1, 2} for v in range(1, 6)}) is None
    # even path into K2: alternates
    got = exists_list_hom(Graph.path(4), PatternGraph.complete(2),
                          {v: {1, 2} for v in range(1, 5)})
    assert got is not None
    assert all(got[u] != got[v] for u, v in Graph.path(4).edges())
    # forced by singleton lists
    got = exists_list_hom(Graph(2, [(1, 2)]), PatternGraph.path(3),
                          {1: {1}, 2: {2}})
    assert got == {1: 1, 2: 2}
    # colors 1 and 3 are non-adjacent in the 3-path pattern
    assert exists_list_hom(Graph(2, [(1, 2)]), PatternGraph.path(3),
                           {1: {1}, 2: {3}}) is None
    # empty list on a vertex: impossible
    assert exists_list_hom(Graph(1, []), PatternGraph.complete(2), {1: set()}) is None
    # no vertex named: the empty coloring
    assert exists_list_hom(Graph.cycle(5), PatternGraph.complete(2), {}) == {}


def test_exists_list_hom_colors_named_vertices_in_host_ids():
    c5, k2 = Graph.cycle(5), PatternGraph.complete(2)
    # C5 has no 2-coloring, but the path 1-2-3-4 inside it has
    got = exists_list_hom(c5, k2, {v: {1, 2} for v in (1, 2, 3, 4)})
    assert got is not None and set(got) == {1, 2, 3, 4}
    assert all(got[v] != got[v + 1] for v in (1, 2, 3))
    # {2, 3, 5} induces the one edge 2-3; 5 is the most constrained, then
    # the smallest id among equals
    assert exists_list_hom(c5, k2, {2: {1, 2}, 3: {1, 2}, 5: {2}}) == {5: 2, 2: 1, 3: 2}


def test_exists_list_hom_rejects_vertices_outside_the_graph():
    k2 = PatternGraph.complete(2)
    with pytest.raises(ValueError, match="vertex 4"):
        exists_list_hom(Graph.path(3), k2, {1: {1}, 4: {2}})
    with pytest.raises(ValueError, match="vertex 0"):
        exists_list_hom(Graph.path(3), k2, {0: {1}})
    with pytest.raises(ValueError, match="vertex 1"):
        exists_list_hom(Graph.path(3), k2, {1: {1.0}})
    with pytest.raises(ValueError, match="vertex 2"):
        exists_list_hom(Graph.path(3), k2, {2: {True}})


def random_case(seed: int):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    k = rng.randint(1, 3)
    g = Graph(n, [
        (u, v)
        for u, v in itertools.combinations(range(1, n + 1), 2)
        if rng.random() < 0.5
    ])
    h = PatternGraph(k, [
        (a, b)
        for a, b in itertools.combinations(range(1, k + 1), 2)
        if rng.random() < 0.6
    ])
    lists = {
        v: frozenset(c for c in h.colors if rng.random() < 0.75)
        for v in g.vertices
    }
    return g, h, lists


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_exists_list_hom_matches_brute(seed):
    g, h, lists = random_case(seed)
    got = exists_list_hom(g, h, lists)
    assert (got is not None) == brute_exists_hom(g, h, lists)
    if got is not None:
        assert set(got) == set(g.vertices)
        assert all(got[v] in lists[v] for v in g.vertices)
        assert all(h.has_edge(got[u], got[v]) for u, v in g.edges())


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_exists_list_hom_on_a_vertex_subset_matches_brute(seed):
    # coloring the vertices lists names is coloring the subgraph they
    # induce: the brute force sees that subgraph with the other vertices
    # isolated and free to take any color
    g, h, lists = random_case(seed)
    rng = random.Random(seed + 1)
    named = {v for v in g.vertices if rng.random() < 0.6}
    got = exists_list_hom(g, h, {v: lists[v] for v in named})
    inner = [(u, v) for u, v in g.edges() if u in named and v in named]
    free = {v: lists[v] if v in named else frozenset(h.colors) for v in g.vertices}
    assert (got is not None) == brute_exists_hom(Graph(g.n, inner), h, free)
    if got is not None:
        assert set(got) == named
        assert all(got[v] in lists[v] for v in named)
        assert all(h.has_edge(got[u], got[v]) for u, v in inner)
