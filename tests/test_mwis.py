"""Exact maximum weight independent set solver."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p5hom.graph import Graph
from p5hom.mwis import (WeightedGraph, clique_cover_bound, clique_cover_counted, solve_mwis,
                        solve_mwis_masked)

from brute import brute_mwis, brute_mwis_subsets, plain_sum_solve_mwis_masked


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
    assert clique_cover_bound(adj, order, weights, vmask, 1) >= brute_mwis_subsets(n, edges, inside)
    independent = clique = 0
    for v in rng.sample(range(1, n + 1), n):
        if not adj[v] & independent:
            independent |= 1 << v
        if adj[v] & clique == clique:
            clique |= 1 << v
    assert clique_cover_bound(adj, order, weights, independent, 1) == sum(
        weights[v] for v in range(1, n + 1) if independent >> v & 1)
    heaviest = [weights[v] for v in order if clique >> v & 1]
    for omega in (1, 2, 3):
        assert clique_cover_bound(adj, order, weights, clique, omega) == sum(heaviest[:omega])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4))
def test_clique_cover_counted(seed, omega):
    # the counted vertices lie in the mask and weigh the bound; on a
    # clique they are its omega heaviest of positive weight, ties by id
    n, adj, weights, vmask, rng = masked_graph(seed, 12)
    order = sorted(range(1, n + 1), key=lambda v: (-weights[v], v))
    counted = clique_cover_counted(adj, order, weights, vmask, omega)
    assert counted & ~vmask == 0
    assert sum(weights[v] for v in range(1, n + 1) if counted >> v & 1) == clique_cover_bound(
        adj, order, weights, vmask, omega)
    clique = 0
    for v in rng.sample(range(1, n + 1), n):
        if adj[v] & clique == clique:
            clique |= 1 << v
    heaviest = [v for v in order if clique >> v & 1 and weights[v]][:omega]
    assert clique_cover_counted(adj, order, weights, clique, omega) == sum(1 << v for v in heaviest)
