"""Backtracking reference solver (independent of the main pipeline)."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p5hom.graph import Graph
from p5hom.oracle import OracleSizeError, oracle_solve
from p5hom.pattern import Instance, PatternGraph, verify_solution

from brute import brute_mplhc


def test_named_instances():
    # every value below was confirmed by exhaustive subset-and-coloring search
    inst = Instance.build(Graph.cycle(5), PatternGraph.complete(2))
    assert oracle_solve(inst).weight == 4

    two_triangles = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    inst = Instance.build(two_triangles, PatternGraph.complete(2))
    assert oracle_solve(inst).weight == 4

    inst = Instance.build(Graph.complete(4), PatternGraph.complete(3))
    assert oracle_solve(inst).weight == 3

    gem = Graph(5, [(1, 2), (2, 3), (3, 4), (5, 1), (5, 2), (5, 3), (5, 4)])
    inst = Instance.build(gem, PatternGraph.complete(2))
    assert oracle_solve(inst).weight == 4

    tri = Graph(3, [(1, 2), (2, 3), (1, 3)])
    inst = Instance.build(tri, PatternGraph.complete(2),
                          lists={1: [1], 2: [2], 3: [1, 2]})
    assert oracle_solve(inst).weight == 2


def test_output_always_verifies():
    gem = Graph(5, [(1, 2), (2, 3), (3, 4), (5, 1), (5, 2), (5, 3), (5, 4)])
    inst = Instance.build(gem, PatternGraph.path(3))
    sol = oracle_solve(inst)
    assert verify_solution(inst, sol) is None


def test_all_lists_empty_yields_nothing():
    g = Graph(4, [(1, 2), (2, 3), (3, 4)])
    lists = {v: frozenset() for v in g.vertices}
    inst = Instance.build(g, PatternGraph.complete(3), lists=lists)
    sol = oracle_solve(inst)
    assert sol.weight == 0
    assert sol.chosen == frozenset()


def test_size_cap():
    big = Graph(15, [])
    inst = Instance.build(big, PatternGraph.complete(2))
    with pytest.raises(OracleSizeError):
        oracle_solve(inst)
    sol = oracle_solve(inst, force=True)
    assert sol.weight == 15


def random_instance(seed: int) -> Instance:
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
    lists = {v: frozenset(c for c in h.colors if rng.random() < 0.8)
             for v in g.vertices}
    wt = {v: Fraction(rng.randint(0, 8), rng.randint(1, 3)) for v in g.vertices}
    return Instance(g, h, wt, lists)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_matches_exhaustive_search(seed):
    inst = random_instance(seed)
    sol = oracle_solve(inst)
    assert verify_solution(inst, sol) is None
    assert sol.weight == brute_mplhc(inst)
