"""Exact maximum weight independent set solver."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p5hom.graph import Graph
from p5hom.mwis import WeightedGraph, clique_cover, list_clique_cover, solve_mwis, solve_mwis_masked

from brute import brute_mwis, brute_mwis_subsets, plain_sum_solve_mwis_masked, vertex_greedy_cliques


def test_frozen_small_cases():
    # path ends beat the middle: take {1, 4}
    wg = WeightedGraph(Graph.path(4), {1: Fraction(2), 2: Fraction(1),
                                       3: Fraction(1), 4: Fraction(2)})
    chosen, weight = solve_mwis(wg)
    assert weight == 4
    assert chosen == {1, 4}

    wg = WeightedGraph(Graph.cycle(5), {v: Fraction(1) for v in range(1, 6)})
    _, weight = solve_mwis(wg)
    assert weight == 2

    wg = WeightedGraph(Graph(3, []), {1: Fraction(1), 2: Fraction(2), 3: Fraction(3)})
    chosen, weight = solve_mwis(wg)
    assert chosen == {1, 2, 3} and weight == 6

    wg = WeightedGraph(Graph(0, []), {})
    assert solve_mwis(wg) == (frozenset(), 0)


def test_zero_weights_never_hurt():
    wg = WeightedGraph(Graph.complete(3), {1: Fraction(0), 2: Fraction(0),
                                           3: Fraction(0)})
    chosen, weight = solve_mwis(wg)
    assert weight == 0


def test_weighted_graph_validation():
    g = Graph(2, [(1, 2)])
    with pytest.raises(ValueError):
        WeightedGraph(g, {1: Fraction(1)})
    with pytest.raises(ValueError):
        WeightedGraph(g, {1: Fraction(-1), 2: Fraction(1)})
    # the Instance rule: a float or a bool is not an exact weight
    with pytest.raises(ValueError):
        WeightedGraph(g, {1: 0.1, 2: Fraction(1)})
    with pytest.raises(ValueError):
        WeightedGraph(g, {1: Fraction(1), 2: True})
    wg = WeightedGraph(g, {1: 2, 2: "1/3"})
    assert wg.weights == {1: Fraction(2), 2: Fraction(1, 3)}


def test_exact_fractions_survive():
    g = Graph(3, [(1, 2), (2, 3)])
    wg = WeightedGraph(g, {1: Fraction(1, 3), 2: Fraction(1, 2), 3: Fraction(1, 6)})
    chosen, weight = solve_mwis(wg)
    assert weight == Fraction(1, 2)  # {1, 3} also gives 1/2; either is fine
    assert isinstance(weight, Fraction)


def random_weighted(seed: int):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    g = Graph(n, [
        (u, v)
        for u, v in itertools.combinations(range(1, n + 1), 2)
        if rng.random() < 0.45
    ])
    wt = {v: Fraction(rng.randint(0, 12), rng.randint(1, 4)) for v in g.vertices}
    return g, wt


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_matches_brute_force(seed):
    g, wt = random_weighted(seed)
    chosen, weight = solve_mwis(WeightedGraph(g, wt))
    assert weight == brute_mwis(g.n, g.edges(), wt)
    # the witness is an independent set with the claimed weight
    assert all(not g.has_edge(u, v) for u, v in itertools.combinations(sorted(chosen), 2))
    assert sum((wt[v] for v in chosen), Fraction(0)) == weight


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_deterministic(seed):
    g, wt = random_weighted(seed)
    wg = WeightedGraph(g, wt)
    assert solve_mwis(wg) == solve_mwis(wg)


def masked_graph(seed: int, max_n: int):
    """(n, adj, weights, vmask, rng): a random graph on 0..max_n vertices
    as a bitmask table, integer weights 0..3 (many ties and zeros) and a
    random vertex mask."""
    rng = random.Random(seed)
    n = rng.randint(0, max_n)
    p = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
    adj = [0] * (n + 1)
    for u, v in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < p:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    weights = [0] + [rng.randint(0, 3) for _ in range(n)]
    vmask = sum(1 << v for v in range(1, n + 1) if rng.random() < 0.8)
    return n, adj, weights, vmask, rng


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_clique_cover_prune_matches_plain_sum(seed):
    # the clique-cover prune skips only branches that cannot be strictly
    # heavier than the best so far, so the set and the weight are those of
    # the search that prunes by the plain weight sum, ties included
    _, adj, weights, vmask, _ = masked_graph(seed, 16)
    assert solve_mwis_masked(adj, vmask, weights) == plain_sum_solve_mwis_masked(
        adj, vmask, weights)


@pytest.mark.parametrize("p, want", [(0.95, 84), (0.99, 70)])
def test_deep_search_runs_at_the_default_recursion_limit(p, want):
    # 1,100 vertices, dense enough that the search drops about one vertex
    # per level, deeper than Python's default recursion limit of 1,000;
    # the weight is the one the search gives with that limit raised
    n = 1100
    rng = random.Random(1)
    adj = [0] * (n + 1)
    for u, v in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < p:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    weights = [0] + [rng.randint(1, 24) for _ in range(n)]
    vmask = sum(1 << v for v in range(1, n + 1))
    mask, weight = solve_mwis_masked(adj, vmask, weights)
    chosen = [v for v in range(1, n + 1) if mask >> v & 1]
    assert all(not adj[u] >> v & 1 for u, v in itertools.combinations(chosen, 2))
    assert sum(weights[v] for v in chosen) == weight == want


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_clique_cover_bound(seed):
    # with omega = 1 the bound is at least the MWIS of the mask; on an
    # independent mask it is the weight sum, and on a clique it is the sum
    # of the omega heaviest weights
    n, adj, weights, vmask, rng = masked_graph(seed, 12)
    order = sorted(range(1, n + 1), key=lambda v: (-weights[v], v))
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if adj[u] >> v & 1]
    inside = {v: Fraction(weights[v] if vmask >> v & 1 else 0) for v in range(1, n + 1)}
    assert clique_cover(adj, order, weights, vmask, 1)[0] >= brute_mwis_subsets(n, edges, inside)
    independent = clique = 0
    for v in rng.sample(range(1, n + 1), n):
        if not adj[v] & independent:
            independent |= 1 << v
        if adj[v] & clique == clique:
            clique |= 1 << v
    assert clique_cover(adj, order, weights, independent, 1)[0] == sum(
        weights[v] for v in range(1, n + 1) if independent >> v & 1)
    heaviest = [weights[v] for v in order if clique >> v & 1]
    for omega in (1, 2, 3):
        assert clique_cover(adj, order, weights, clique, omega)[0] == sum(heaviest[:omega])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4))
def test_clique_cover_counted(seed, omega):
    # the vertices the bound counts, the first omega of each clique of the
    # greedy cover in the bound's order, lie in the mask and weigh the
    # bound; on a clique they are its omega heaviest of positive weight,
    # ties by id
    n, adj, weights, vmask, rng = masked_graph(seed, 12)
    order = sorted(range(1, n + 1), key=lambda v: (-weights[v], v))

    def counted(mask):
        return clique_cover(adj, order, weights, mask, omega)[1]

    assert counted(vmask) & ~vmask == 0
    assert sum(weights[v] for v in range(1, n + 1) if counted(vmask) >> v & 1) == (
        clique_cover(adj, order, weights, vmask, omega)[0])
    clique = 0
    for v in rng.sample(range(1, n + 1), n):
        if adj[v] & clique == clique:
            clique |= 1 << v
    heaviest = [v for v in order if clique >> v & 1 and weights[v]][:omega]
    assert counted(clique) == sum(1 << v for v in heaviest)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_clique_cover_matches_vertex_at_a_time(seed, shuffled):
    # the cover grown one clique at a time is the one that places one
    # vertex at a time (vertex_greedy_cliques), in weight order and in a
    # shuffled order, where zero weights fall mid-order as in the
    # certificate's degree-order walk; each clique counts its first omega
    # vertices, and the bound is their weight
    n, adj, weights, vmask, rng = masked_graph(seed, 12)
    order = sorted(range(1, n + 1), key=lambda v: (-weights[v], v))
    if shuffled:
        rng.shuffle(order)
    want = vertex_greedy_cliques(adj, order, weights, vmask)
    for omega in (1, 2, 3, 4):
        first = [v for clique in want for v in clique[:omega]]
        assert clique_cover(adj, order, weights, vmask, omega) == (
            sum(weights[v] for v in first),
            sum(1 << v for v in first),
            [sum(1 << v for v in clique) for clique in want],
        )


def test_list_clique_cover_reroutes_a_matched_vertex():
    # a triangle under one color set {1, 2}: vertex 1 (weight 5) lists
    # both colors and takes color 1 first; vertex 2 (weight 4) lists only
    # color 1, so an augmenting path moves vertex 1 to color 2; vertex 3
    # (weight 3) lists color 1 too and finds no color left
    adj = [0, 0b1100, 0b1010, 0b0110]
    weights = [0, 5, 4, 3]
    lists = [0, 0b110, 0b010, 0b010]
    cliques = clique_cover(adj, [1, 2, 3], weights, 0b1110, 1)[2]
    assert list_clique_cover(cliques, weights, lists, [0b110]) == (9, 0b0110)
    # two color sets, {1} and {2, 3}: the second fits only vertex 1, the
    # first the heaviest of any one vertex, so the tie keeps the first
    assert list_clique_cover(cliques, weights, lists, [0b010, 0b1100]) == (5, 0b0010)


def brute_matchable(clique, weights, lists, colors):
    """The heaviest weight of a subset of clique whose vertices take
    pairwise distinct colors of colors, each from its list."""
    best = 0
    for r in range(len(clique) + 1):
        for sub in itertools.combinations(clique, r):
            options = [[c for c in range(1, 8) if (lists[v] & colors) >> c & 1] for v in sub]
            if any(len(set(pick)) == r for pick in itertools.product(*options)):
                best = max(best, sum(weights[v] for v in sub))
    return best


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_list_clique_cover(seed):
    # the counted vertices lie in the mask and weigh the bound; the bound
    # never passes the omega-count bound, omega the largest color set;
    # on a clique it is the heaviest matchable subset of the best color set
    n, adj, weights, vmask, rng = masked_graph(seed, 9)
    lists = [0] + [rng.randrange(1, 16) << 1 for _ in range(n)]
    colorsets = [rng.randrange(1, 16) << 1 for _ in range(rng.randint(1, 3))]
    order = sorted(range(1, n + 1), key=lambda v: (-weights[v], v))
    bound, counted = list_clique_cover(
        clique_cover(adj, order, weights, vmask, 1)[2], weights, lists, colorsets)
    assert counted & ~vmask == 0
    assert sum(weights[v] for v in range(1, n + 1) if counted >> v & 1) == bound
    omega = max(c.bit_count() for c in colorsets)
    assert bound <= clique_cover(adj, order, weights, vmask, omega)[0]
    clique = 0
    for v in rng.sample(range(1, n + 1), n):
        if adj[v] & clique == clique:
            clique |= 1 << v
    members = [v for v in range(1, n + 1) if clique >> v & 1]
    want = max(brute_matchable(members, weights, lists, c) for c in colorsets)
    assert list_clique_cover(
        clique_cover(adj, order, weights, clique, 1)[2], weights, lists, colorsets)[0] == want
