"""Graph core: construction, masks, components, P5 and C5 detection,
enumeration."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p5hom import graph
from p5hom.generators import GenSpec, generate
from p5hom.graph import (
    Graph,
    enumerate_connected_subsets,
    find_induced_c5,
    find_induced_p5,
    iter_mask,
    mask_from,
    masked_components,
    maximal_cliques,
    neighborhood_mask,
    set_from_mask,
)

from brute import brute_connected_subsets, brute_has_induced_c5, brute_has_induced_p5


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(1, n + 1), 2)
        if rng.random() < p
    ]
    return Graph(n, edges)


graph_strategy = st.builds(
    lambda n, seed, p: random_graph(random.Random(seed), n, p),
    st.integers(1, 8),
    st.integers(0, 10**6),
    st.floats(0.1, 0.9),
)


def test_mask_helpers_roundtrip():
    assert mask_from([3, 1, 5]) == 0b101010
    assert list(iter_mask(0b101010)) == [1, 3, 5]
    assert set_from_mask(0) == frozenset()
    assert set_from_mask(mask_from([2, 7])) == frozenset({2, 7})


@settings(max_examples=200, deadline=None)
@given(st.integers(0, (1 << 200) - 1))
def test_iter_mask_matches_bit_list(mask):
    bits = iter_mask(mask)
    assert type(bits) is tuple
    assert bits == tuple(i for i in range(200) if mask >> i & 1)
    assert iter_mask(mask) == bits


def test_iter_mask_rejects_negative_masks():
    # a negative mask has infinitely many set bits; the error comes on
    # the call itself, before anything iterates
    for mask in (-1, -2, -(1 << 70)):
        with pytest.raises(ValueError):
            iter_mask(mask)


def test_iter_mask_table_is_capped(monkeypatch):
    # past the cap, new masks are answered but not stored
    monkeypatch.setattr(graph, "_BITS", {})
    cap = graph._BITS_CAP
    high = 1 << 300
    for i in range(cap + 50):
        assert iter_mask(high | i) == tuple(b for b in range(20) if i >> b & 1) + (300,)
    assert len(graph._BITS) == cap
    assert high | (cap + 49) not in graph._BITS
    assert iter_mask(0b1011 << 100) == (100, 101, 103)
    assert len(graph._BITS) == cap


def test_graph_basics():
    g = Graph(4, [(1, 2), (2, 3), (2, 3)])  # duplicate edges collapse
    assert g.n == 4
    assert g.edge_count == 2
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(1, 3)
    assert g.neighbors(2) == {1, 3}
    assert g.degree(4) == 0
    assert g.edges() == [(1, 2), (2, 3)]
    assert list(g.vertices) == [1, 2, 3, 4]


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(3, [(2, 4)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_named_constructors():
    assert Graph.complete(4).edge_count == 6
    assert Graph.path(5).edges() == [(1, 2), (2, 3), (3, 4), (4, 5)]
    c5 = Graph.cycle(5)
    assert c5.edge_count == 5
    assert c5.has_edge(1, 5)


def test_graph_equality_and_hash():
    a = Graph(3, [(1, 2)])
    b = Graph(3, [(2, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph(3, [(1, 3)])


def test_components():
    g = Graph(6, [(1, 2), (2, 3), (5, 6)])
    comps = masked_components(g, g.full_mask)
    assert [set_from_mask(m) for m in comps] == [{1, 2, 3}, {4}, {5, 6}]
    masked = masked_components(g, mask_from([1, 2, 5, 6]))
    assert sorted(set_from_mask(m) for m in masked) == [{1, 2}, {5, 6}]


def test_neighborhood_mask():
    g = Graph(4, [(1, 2), (2, 3)])
    adj = g.adjacency_masks()
    assert set_from_mask(neighborhood_mask(adj, mask_from([1]))) == {2}
    assert set_from_mask(neighborhood_mask(adj, mask_from([1, 3]))) == {2}
    assert neighborhood_mask(adj, 0) == 0


@settings(max_examples=100, deadline=None)
@given(graph_strategy, st.integers(0, 10**6))
def test_maximal_cliques_match_brute(g, seed):
    # exactly the cliques of the induced subgraph that no vertex of the
    # mask extends, ascending; an empty mask has the empty clique alone
    adj = g.adjacency_masks()
    vmask = mask_from(v for v in g.vertices if random.Random(seed).random() < 0.8)
    verts = set_from_mask(vmask)

    def is_clique(s):
        return all(g.has_edge(u, v) for u, v in itertools.combinations(s, 2))

    want = sorted(
        mask_from(s)
        for r in range(len(verts) + 1)
        for s in itertools.combinations(sorted(verts), r)
        if is_clique(s) and not any(is_clique((*s, x)) for x in verts - set(s))
    )
    assert maximal_cliques(adj, vmask) == want


def test_find_induced_p5_frozen_cases():
    p5 = Graph.path(5)
    w = find_induced_p5(p5)
    assert w == (1, 2, 3, 4, 5)
    assert find_induced_p5(Graph.cycle(5)) is None
    assert find_induced_p5(Graph.complete(6)) is None
    gem = Graph(5, [(1, 2), (2, 3), (3, 4), (5, 1), (5, 2), (5, 3), (5, 4)])
    assert find_induced_p5(gem) is None
    # five consecutive C6 vertices induce a chordless path
    assert find_induced_p5(Graph.cycle(6)) is not None


def test_find_induced_p5_witness_is_induced_path():
    g = Graph(7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 7)])
    w = find_induced_p5(g)
    assert w is not None
    a, b, c, d, e = w
    path_pairs = {(a, b), (b, c), (c, d), (d, e)}
    for u, v in itertools.combinations(w, 2):
        expected = (u, v) in path_pairs or (v, u) in path_pairs
        assert g.has_edge(u, v) == expected


@settings(max_examples=60, deadline=None)
@given(graph_strategy)
def test_find_induced_p5_matches_brute(g):
    got = find_induced_p5(g)
    assert (got is not None) == brute_has_induced_p5(g)
    if got is not None:
        a, b, c, d, e = got
        assert len(set(got)) == 5
        assert g.has_edge(a, b) and g.has_edge(b, c)
        assert g.has_edge(c, d) and g.has_edge(d, e)
        assert not g.has_edge(a, c) and not g.has_edge(a, d) and not g.has_edge(a, e)
        assert not g.has_edge(b, d) and not g.has_edge(b, e) and not g.has_edge(c, e)


def assert_induced_c5(g: Graph, witness) -> None:
    """witness lists five vertices in cycle order, and the graph has
    exactly the cycle's five edges among them."""
    assert len(set(witness)) == 5
    cycle = {frozenset((witness[i], witness[(i + 1) % 5])) for i in range(5)}
    for u, v in itertools.combinations(witness, 2):
        assert g.has_edge(u, v) == (frozenset((u, v)) in cycle)


def test_find_induced_c5_frozen_cases():
    assert find_induced_c5(Graph.cycle(5)) == (3, 2, 1, 5, 4)
    assert find_induced_c5(Graph.path(5)) is None
    assert find_induced_c5(Graph.complete(6)) is None
    assert find_induced_c5(Graph.cycle(6)) is None
    gem = Graph(5, [(1, 2), (2, 3), (3, 4), (5, 1), (5, 2), (5, 3), (5, 4)])
    assert find_induced_c5(gem) is None
    # a C5 with a chord is no induced C5; a sixth vertex on all five
    # leaves the C5 induced
    assert find_induced_c5(Graph(5, Graph.cycle(5).edges() + [(1, 3)])) is None
    wheel = Graph(6, Graph.cycle(5).edges() + [(v, 6) for v in range(1, 6)])
    assert find_induced_c5(wheel) == (3, 2, 1, 5, 4)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10**6), st.floats(0.1, 0.9),
       st.booleans())
def test_find_induced_c5_matches_brute(n, seed, p, p5free):
    # random graphs, P5-free ones among them
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    while p5free and find_induced_p5(g) is not None:
        g = random_graph(rng, n, p)
    got = find_induced_c5(g)
    assert (got is not None) == brute_has_induced_c5(g)
    if got is not None:
        assert_induced_c5(g, got)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=5, max_size=5), st.integers(0, 10**6))
def test_find_induced_c5_in_blown_up_c5(sizes, seed):
    # each C5 vertex becomes an independent set, joined to the sets of
    # its two cycle neighbors, under a random labelling: still P5-free,
    # and every induced C5 takes one vertex of each set in cycle order
    rng = random.Random(seed)
    n = sum(sizes)
    labels = rng.sample(range(1, n + 1), n)
    classes = []
    for size in sizes:
        classes.append(labels[:size])
        labels = labels[size:]
    g = Graph(n, [(u, v) for i in range(5) for u in classes[i] for v in classes[(i + 1) % 5]])
    assert find_induced_p5(g) is None
    got = find_induced_c5(g)
    assert got is not None
    assert_induced_c5(g, got)
    where = [next(i for i, cl in enumerate(classes) if v in cl) for v in got]
    assert sorted(where) == [0, 1, 2, 3, 4]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["cograph", "split"]), st.integers(1, 40),
       st.integers(0, 10**6), st.sampled_from([1, 3, 5, 7, 9]))
def test_cographs_and_split_graphs_have_no_induced_c5(family, n, seed, tenths):
    g = generate(GenSpec(family=family, n=n, k=1, seed=seed, density=Fraction(tenths, 10))).g
    assert find_induced_c5(g) is None
    if n <= 9:
        assert not brute_has_induced_c5(g)


@settings(max_examples=40, deadline=None)
@given(graph_strategy, st.integers(1, 4), st.integers(0, 3))
def test_enumerate_connected_subsets_matches_brute(g, lo, extra):
    hi = min(lo + extra, g.n)
    if hi < lo:
        return
    got = [tuple(iter_mask(m)) for m in enumerate_connected_subsets(g, lo, hi)]
    # lexicographic order of the sorted vertex tuples, which the family's
    # guess order (and so its provenance) follows; no duplicates
    assert got == sorted(set(got))
    assert set(map(frozenset, got)) == brute_connected_subsets(g, lo, hi)


def test_enumerate_connected_subsets_validation():
    g = Graph(3, [(1, 2)])
    with pytest.raises(ValueError):
        list(enumerate_connected_subsets(g, 0, 2))
    with pytest.raises(ValueError):
        list(enumerate_connected_subsets(g, 3, 2))
