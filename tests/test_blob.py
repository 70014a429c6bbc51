"""Blob graph reduction and the full three-stage pipeline."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import p5hom.blob as blob_module
import p5hom.mwis as mwis_module
import p5hom.pattern as pattern_module
from p5hom.blob import build_blob_graph, solve_full
from p5hom.connected import ConnectedSolver, solve_connected_case
from p5hom.family import Family, build_family
from p5hom.generators import GenSpec, generate, trial_spec
from p5hom.graph import Graph, NotP5FreeError, find_induced_p5, mask_from, maximal_cliques
from p5hom.mwis import solve_mwis
from p5hom.oracle import oracle_solve
from p5hom.pattern import Instance, PatternGraph, exists_list_hom, verify_solution

from brute import brute_has_induced_p5, brute_mplhc


def test_touches():
    # the touching rule of build_blob_graph, on a hand-built family
    g = Graph(5, [(1, 2), (3, 4)])
    inst = Instance.build(g, PatternGraph.complete(2))
    members = tuple(map(frozenset, ([1], [1, 3], [2], [3], [2, 5], [3, 4])))
    blob = build_blob_graph(inst, Family(members, {}, {}, True))
    edges = set(blob.graph.edges())
    assert (1, 2) in edges  # {1}, {1, 3}: a shared vertex
    assert (1, 3) in edges  # {1}, {2}: an edge between
    assert (1, 4) not in edges  # {1}, {3}
    assert (5, 6) not in edges  # {2, 5}, {3, 4}
    assert edges == {(1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (2, 6),
                     (3, 5), (4, 6)}


def test_blob_graph_structure():
    inst = Instance.build(Graph.cycle(5), PatternGraph.complete(2))
    fam = build_family(inst)
    blob = build_blob_graph(inst, fam)
    assert blob.graph.n == len(fam.members)
    assert blob.members == fam.members
    # weight of each blob vertex is the member's weight sum
    for i, member in enumerate(blob.members, start=1):
        assert blob.weights[i] == inst.weight_of(member)
    # edges agree with the touching relation: a shared vertex or an edge
    for i, j in itertools.combinations(range(1, blob.graph.n + 1), 2):
        a, b = blob.members[i - 1], blob.members[j - 1]
        expect = bool(a & b) or any(inst.g.has_edge(u, v) for u in a for v in b)
        assert blob.graph.has_edge(i, j) == expect


def test_blob_weights_exact_with_mixed_denominators():
    # member weights are summed on the instance's integer scale and come
    # back as the exact Fraction sum of their vertices' weights
    g = Graph(4, [(1, 2), (2, 3), (3, 4)])
    wt = {1: Fraction(1, 3), 2: Fraction(5, 4), 3: Fraction(0), 4: Fraction(7, 6)}
    inst = Instance.build(g, PatternGraph.complete(2), wt=wt)
    members = tuple(map(frozenset, ([1], [1, 2], [2, 4], [3], [1, 2, 3, 4])))
    blob = build_blob_graph(inst, Family(members, {}, {}, True))
    assert blob.weights == {1: Fraction(1, 3), 2: Fraction(19, 12), 3: Fraction(29, 12),
                            4: Fraction(0), 5: Fraction(11, 4)}
    for i, member in enumerate(members, start=1):
        assert blob.weights[i] == inst.weight_of(member)


def test_blob_graph_frozen_shapes():
    # two nonadjacent singleton members: edgeless blob
    g = Graph(2, [])
    inst = Instance.build(g, PatternGraph.complete(2))
    blob = build_blob_graph(inst, build_family(inst))
    assert blob.graph.n == 2 and blob.graph.edge_count == 0

    # hand-built family on a path plus an isolated vertex
    g = Graph(4, [(1, 2), (2, 3)])
    inst = Instance.build(g, PatternGraph.complete(2))
    members = (frozenset({3}), frozenset({4}), frozenset({1, 2}))
    fam = Family(members, {m: "singleton" for m in members}, {}, True)
    blob = build_blob_graph(inst, fam)
    # member order is preserved: {3} is blob 1, {4} is 2, {1,2} is 3
    assert blob.graph.edges() == [(1, 3)]

    # overlapping members always touch
    members = (frozenset({1, 2}), frozenset({2, 3}))
    fam = Family(members, {m: "singleton" for m in members}, {}, True)
    assert build_blob_graph(inst, fam).graph.edges() == [(1, 2)]


def test_blob_graph_is_p5free_on_p5free_input():
    inst = Instance.build(Graph.cycle(5), PatternGraph.complete(2))
    blob = build_blob_graph(inst, build_family(inst))
    assert find_induced_p5(blob.graph) is None


def test_solve_full_named_instances():
    named = [
        (Graph.cycle(5), PatternGraph.complete(2), None, Fraction(4)),
        (Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]),
         PatternGraph.complete(2), None, Fraction(4)),
        (Graph.complete(4), PatternGraph.complete(3), None, Fraction(3)),
        (Graph(5, [(1, 2), (2, 3), (3, 4), (5, 1), (5, 2), (5, 3), (5, 4)]),
         PatternGraph.complete(2), None, Fraction(4)),
        (Graph(3, [(1, 2), (2, 3), (1, 3)]), PatternGraph.complete(2),
         {1: [1], 2: [2], 3: [1, 2]}, Fraction(2)),
    ]
    for g, h, lists, want in named:
        inst = Instance.build(g, h, lists=lists)
        res = solve_full(inst)
        assert res.exhaustive
        assert res.solution.weight == want
        assert verify_solution(inst, res.solution) is None


def test_solve_full_edge_cases():
    # empty lists everywhere: the empty solution
    g = Graph(3, [(1, 2)])
    inst = Instance.build(g, PatternGraph.complete(2),
                          lists={v: [] for v in g.vertices})
    res = solve_full(inst)
    assert res.solution.weight == 0 and res.solution.chosen == frozenset()

    # single vertex
    inst = Instance.build(Graph(1, []), PatternGraph.complete(2),
                          wt={1: Fraction(7, 3)})
    assert solve_full(inst).solution.weight == Fraction(7, 3)

    # one-color pattern forces an independent set
    inst = Instance.build(Graph.path(4), PatternGraph.complete(1))
    assert solve_full(inst).solution.weight == 2


def test_solve_full_checks_the_mwis_weight(monkeypatch):
    # a blob MWIS weight the colored members do not add up to is an
    # internal error, not a solution
    solve = blob_module.solve_mwis

    def off_by_one(blob):
        picked, weight = solve(blob)
        return picked, weight + 1

    monkeypatch.setattr(blob_module, "solve_mwis", off_by_one)
    inst = Instance.build(Graph.cycle(5), PatternGraph.complete(2))
    with pytest.raises(RuntimeError, match="weight"):
        solve_full(inst)


def test_budget_flag_propagates():
    inst = Instance.build(Graph.cycle(5), PatternGraph.complete(2))
    res = solve_full(inst, budget=1)
    assert not res.exhaustive
    assert verify_solution(inst, res.solution) is None
    assert res.solution.weight <= 4


def certificate(inst):
    """(greedy weight, rungs), the weights exact: the whole-instance
    greedy over the vertices with a nonempty list, and per bound in
    solve_full's order (the clique cover at the pattern's clique number on
    every list color, then the list-aware cover) the pair (bound, whether
    the vertices it counts admit a list homomorphism)."""
    engine = ConnectedSolver(inst)
    lists = inst.lists_masks
    live = mask_from(v for v in inst.g.vertices if lists[v])
    universe = 0
    for v in inst.g.vertices:
        universe |= lists[v]
    greedy, _ = engine.incumbent(live, lists)
    rungs = []
    for bound, counted in engine.certificate_covers(live, lists, universe):
        colorable = exists_list_hom(
            inst.g, inst.h, {v: inst.lists[v] for v in inst.g.vertices if counted >> v & 1}
        ) is not None
        rungs.append((Fraction(bound, engine.scale), colorable))
    return Fraction(greedy, engine.scale), tuple(rungs)


def certified_bound(greedy, rungs):
    """The bound solve_full certifies its answer at, given certificate's
    answer: that of the first rung whose bound the greedy meets or whose
    counted vertices are colorable; None when neither rung certifies."""
    for bound, colorable in rungs:
        if greedy == bound or colorable:
            return bound
    return None


@pytest.mark.parametrize("budget", [0, 40])
def test_budgeted_answer_never_below_greedy(budget):
    # a cut family holds only small members; the answer still weighs at
    # least the whole-instance greedy (cograph and split, n = 12 and 16,
    # K3, seeds 1-4, where the greedy outweighs every budget-40 blob
    # answer); a certified instance (a greedy that meets a rung's bound,
    # or colorable vertices that it counts) is returned exhaustive at the
    # bound of the first rung that certifies it
    certified = 0
    for family in ("cograph", "split"):
        for n in (12, 16):
            for seed in range(1, 5):
                inst = generate(GenSpec(family=family, n=n, k=3, seed=seed,
                                        list_density=Fraction(7, 10), weight_range=(0, 6)))
                greedy, rungs = certificate(inst)
                bound = certified_bound(greedy, rungs)
                res = solve_full(inst, budget=budget)
                if bound is not None:
                    certified += 1
                    assert res.exhaustive
                    assert res.solution.weight == bound
                else:
                    assert not res.exhaustive
                    assert res.solution.weight >= greedy
    assert 0 < certified < 16


def counted_build_family(monkeypatch):
    """Patch solve_full's family build with one that records each call's
    instance and budget."""
    calls = []
    build = blob_module.build_family

    def counted(inst, budget=None):
        calls.append((inst, budget))
        return build(inst, budget)

    monkeypatch.setattr(blob_module, "build_family", counted)
    return calls


def test_certified_instance_skips_the_family(monkeypatch):
    # K4 under K3 and a split draw whose greedies meet their bounds: the
    # greedy comes back exhaustive even at budget 0, with no family built
    calls = counted_build_family(monkeypatch)
    split = generate(GenSpec(family="split", n=12, k=3, seed=4,
                             list_density=Fraction(7, 10), weight_range=(0, 6)))
    for inst in (Instance.build(Graph.complete(4), PatternGraph.complete(3)), split):
        greedy, rungs = certificate(inst)
        assert greedy == rungs[0][0]
        engine = ConnectedSolver(inst)
        _, coloring = engine.incumbent(inst.g.full_mask, inst.lists_masks)
        res = solve_full(inst, budget=0)
        assert res.exhaustive
        assert res.solution.weight == oracle_solve(inst).weight == greedy
        assert res.solution.coloring == dict(coloring)
    assert calls == []


def test_colorable_counted_vertices_skip_the_family(monkeypatch):
    # P3 under K2, the middle vertex heaviest and the ends listing color 1
    # alone: the greedy gives the middle color 1 and drops both ends (3 of
    # 7), but all three vertices the bound counts are colorable, so that
    # coloring comes back exhaustive at budget 0, with no family built
    calls = counted_build_family(monkeypatch)
    inst = Instance.build(Graph.path(3), PatternGraph.complete(2),
                          wt={1: 2, 2: 3, 3: 2}, lists={1: [1], 3: [1]})
    greedy, rungs = certificate(inst)
    assert (greedy, rungs[0]) == (3, (7, True))
    res = solve_full(inst, budget=0)
    assert res.exhaustive
    assert res.solution.coloring == {1: 1, 2: 2, 3: 1}
    assert res.solution.weight == oracle_solve(inst).weight == 7
    assert calls == []


def test_list_cover_certifies_where_the_omega_count_fails(monkeypatch):
    # cograph n = 12, K3, seed 4: the greedy misses the omega-count bound
    # and the vertices that bound counts are not colorable, but the greedy
    # meets the list-aware bound or the vertices it counts are colorable,
    # so the instance comes back exhaustive at budget 0 at the oracle's
    # weight, with no family built
    calls = counted_build_family(monkeypatch)
    inst = generate(GenSpec(family="cograph", n=12, k=3, seed=4,
                            list_density=Fraction(7, 10), weight_range=(0, 6)))
    greedy, (first, second) = certificate(inst)
    assert greedy < first[0] and not first[1]
    assert greedy == second[0] or second[1]
    res = solve_full(inst, budget=0)
    assert res.exhaustive
    assert res.solution.weight == oracle_solve(inst).weight == second[0]
    assert calls == []


def test_degree_order_cover_certifies_where_the_weight_order_fails(monkeypatch):
    # split n = 10, K3, seed 7: the greedy (87/4) misses the omega-count
    # bound (88/3), and the weight-order list-aware bound is 88/3 too;
    # neither counts colorable vertices.  In degree order the zero-weight
    # listed vertices 6 and 10 fall mid-way, and that cover's list-aware
    # bound, 24, counts colorable vertices: the instance comes back
    # exhaustive at budget 0 at the oracle's weight, with no family built
    calls = counted_build_family(monkeypatch)
    inst = generate(GenSpec("split", 10, 3, 7, density=Fraction(1, 2),
                            list_density=Fraction(7, 10), weight_range=(0, 6)))
    greedy, rungs = certificate(inst)
    assert (greedy, rungs) == (Fraction(87, 4), ((Fraction(88, 3), False), (24, True)))
    scale, wt = inst.scaled_weights
    lists, adj = inst.lists_masks, inst.g.adjacency_masks()
    by_weight = sorted(inst.g.vertices, key=lambda v: (-wt[v], v))
    by_degree = sorted(by_weight, key=lambda v: -adj[v].bit_count())
    assert by_degree == [7, 4, 2, 1, 9, 10, 6, 3, 8, 5]
    assert wt[6] == wt[10] == 0 and lists[6] and lists[10]
    universe = 0
    for v in inst.g.vertices:
        universe |= lists[v]
    live = mask_from(v for v in inst.g.vertices if lists[v])
    cliques = mwis_module.clique_cover(adj, by_weight, wt, live, 3)[2]  # omega of K3
    bound, counted = mwis_module.list_clique_cover(
        cliques, wt, lists, maximal_cliques(inst.h.adjacency_masks(), universe))
    assert Fraction(bound, scale) == Fraction(88, 3)
    assert exists_list_hom(
        inst.g, inst.h, {v: inst.lists[v] for v in inst.g.vertices if counted >> v & 1}) is None
    res = solve_full(inst, budget=0)
    assert res.exhaustive
    assert res.solution.weight == oracle_solve(inst).weight == 24
    assert calls == []


def test_uncertified_instance_builds_the_family(monkeypatch):
    # C5 under K2: the greedy colors 4 of both bounds' 5, and the five
    # counted vertices are an odd cycle; the family gets solve_full's budget
    calls = counted_build_family(monkeypatch)
    inst = Instance.build(Graph.cycle(5), PatternGraph.complete(2))
    assert certificate(inst) == (4, ((5, False), (5, False)))
    res = solve_full(inst)
    assert res.exhaustive and res.solution.weight == 4
    solve_full(inst, budget=7)
    assert calls == [(inst, None), (inst, 7)]


def test_solve_full_scales_an_instances_weights_once(monkeypatch):
    # C5 under K2 is uncertified, so the certificate, the family and the
    # blob graph all read inst's weights; they are scaled once, on the
    # first solve of the instance, and the blob MWIS scales its own
    scaled = []
    scale = pattern_module.scale_weights

    def counted(weights):
        scaled.append(weights)
        return scale(weights)

    monkeypatch.setattr(pattern_module, "scale_weights", counted)
    monkeypatch.setattr(mwis_module, "scale_weights", counted)
    inst = Instance.build(Graph.cycle(5), PatternGraph.complete(2))
    assert solve_full(inst).solution.weight == 4
    assert [w is inst.wt for w in scaled] == [True, False]
    solve_full(inst)
    assert [w is inst.wt for w in scaled] == [True, False, False]


def test_uncertified_solve_full_is_the_public_stages():
    # C5 under K2 and a cograph draw that no certificate settles: at every
    # budget, solve_full answers as build_family, build_blob_graph,
    # solve_mwis and the picked members' Family.colorings do by hand, unless
    # a cut family lets the strictly heavier whole-instance greedy through
    cograph = generate(GenSpec(family="cograph", n=12, k=3, seed=1,
                               list_density=Fraction(7, 10), weight_range=(0, 6)))
    paths = set()
    for inst in (Instance.build(Graph.cycle(5), PatternGraph.complete(2)), cograph):
        greedy, rungs = certificate(inst)
        assert certified_bound(greedy, rungs) is None
        for budget in (None, 0, 5, 40):
            fam = build_family(inst, budget)
            blob = build_blob_graph(inst, fam)
            picked, weight = solve_mwis(blob)
            coloring = {}
            for bv in sorted(picked):
                coloring.update(fam.colorings[blob.members[bv - 1]])
            res = solve_full(inst, budget=budget)
            assert res.exhaustive == fam.exhaustive
            assert res.exhaustive or budget is not None
            if (res.solution.weight, res.solution.coloring) == (weight, coloring):
                paths.add("stages")
            else:
                assert not res.exhaustive
                assert res.solution.weight == greedy > weight
                assert verify_solution(inst, res.solution) is None
                paths.add("greedy")
    assert paths == {"stages", "greedy"}


def test_negative_budget_error_order():
    # P5 under K2 at budget -1: the family and the connected case make the
    # P5 check before their solver, while solve_full makes its certificate
    # solver first, so a negative budget raises there before any work
    inst = Instance.build(Graph.path(5), PatternGraph.complete(2))
    with pytest.raises(NotP5FreeError):
        build_family(inst, -1)
    with pytest.raises(NotP5FreeError):
        solve_connected_case(inst, budget=-1)
    with pytest.raises(ValueError, match="nonnegative"):
        solve_full(inst, budget=-1)


def test_certified_non_p5free_input_still_raises():
    # P5 under K2: the greedy 2-colors the whole path, as the bound allows
    inst = Instance.build(Graph.path(5), PatternGraph.complete(2))
    greedy, rungs = certificate(inst)
    assert (greedy, rungs[0]) == (5, (5, True))
    with pytest.raises(NotP5FreeError):
        solve_full(inst)


PATTERNS = ["complete:2", "complete:3", "complete:4", "path:3", "path:4"]


def trial_instance(pattern, index, seed):
    name, _, k = pattern.partition(":")
    return generate(trial_spec(seed, seed + 1, index, 9, name, int(k), Fraction(7, 10)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PATTERNS), st.integers(0, 2), st.integers(0, 10**9))
def test_certified_greedy_matches_oracle(pattern, index, seed):
    # the certificate is sound under any pattern: a whole-instance greedy
    # that meets either cover bound weighs what the oracle does
    inst = trial_instance(pattern, index, seed)
    greedy, rungs = certificate(inst)
    assume(any(greedy == bound for bound, _ in rungs))
    assert oracle_solve(inst).weight == greedy


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PATTERNS), st.integers(0, 2), st.integers(0, 10**9))
def test_colorable_counted_vertices_match_oracle(pattern, index, seed):
    # so are the other certificates: when the vertices a cover bound
    # counts are colorable, the bound is the optimum, and solve_full
    # returns the first certified bound exhaustive at budget 0
    inst = trial_instance(pattern, index, seed)
    greedy, rungs = certificate(inst)
    want = oracle_solve(inst).weight
    for bound, colorable in rungs:
        if colorable:
            assert want == bound
    bound = certified_bound(greedy, rungs)
    if bound is not None:
        res = solve_full(inst, budget=0)
        assert res.exhaustive and res.solution.weight == bound == want


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PATTERNS), st.integers(0, 2), st.integers(0, 10**9))
def test_list_cover_bounds_the_optimum(pattern, index, seed):
    # the list-aware bound is at least the optimum and at most the
    # omega-count bound (the first one yielded, cover_bound's value), and
    # the vertices it counts weigh it exactly
    inst = trial_instance(pattern, index, seed)
    engine = ConnectedSolver(inst)
    lists = inst.lists_masks
    live = mask_from(v for v in inst.g.vertices if lists[v])
    universe = 0
    for v in inst.g.vertices:
        universe |= lists[v]
    (first, _), (bound, counted) = engine.certificate_covers(live, lists, universe)
    assert Fraction(bound, engine.scale) >= oracle_solve(inst).weight
    assert bound <= first == engine.cover_bound(live, engine.clique_number(universe))
    assert counted & ~live == 0
    assert inst.weight_of(v for v in inst.g.vertices if counted >> v & 1) == Fraction(
        bound, engine.scale)


def random_p5free_instance(seed: int):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    while True:
        g = Graph(n, [
            (u, v)
            for u, v in itertools.combinations(range(1, n + 1), 2)
            if rng.random() < 0.5
        ])
        if not brute_has_induced_p5(g):
            break
    complete = rng.random() < 0.6
    k = rng.randint(1, 3)
    h = PatternGraph.complete(k) if complete else PatternGraph.path(k)
    lists = {v: frozenset(c for c in h.colors if rng.random() < 0.75)
             for v in g.vertices}
    wt = {v: Fraction(rng.randint(0, 8), rng.randint(1, 3)) for v in g.vertices}
    return Instance(g, h, wt, lists), complete


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_full_pipeline_vs_exhaustive(seed):
    inst, complete = random_p5free_instance(seed)
    res = solve_full(inst)
    assert verify_solution(inst, res.solution) is None
    best = brute_mplhc(inst)
    if complete:
        assert res.solution.weight == best
    else:
        assert res.solution.weight <= best
