"""Connected-case solver: carve, cleanups, base case, full search."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import p5hom.connected as connected_module
import p5hom.mwis as mwis_module
from p5hom import family
from p5hom.blob import build_blob_graph, solve_full
from p5hom.connected import (
    ConnectedSolver,
    _cross_part_cleanup,
    _dominator_tuples,
    solve_connected_case,
)
from p5hom.generators import FAMILIES, TRIAL_DENSITIES, GenSpec, generate
from p5hom.graph import (
    Graph,
    NotP5FreeError,
    find_induced_c5,
    find_induced_p5,
    iter_mask,
    mask_from,
    masked_components,
    neighborhood_mask,
    set_from_mask,
)
from p5hom.mwis import WeightedGraph, solve_mwis
from p5hom.oracle import oracle_solve
from p5hom.pattern import Instance, PatternGraph, Solution, verify_solution

from brute import (
    ColorsLastConnectedSolver,
    P3ConnectedSolver,
    UnprunedConnectedSolver,
    brute_clique_number,
    brute_cross_part_cleanup,
    brute_dominator_tuples,
    brute_has_connected_optimum,
    brute_has_induced_p5,
    brute_mplhc,
    brute_mwis_subsets,
)

GEM = Graph(5, [(1, 2), (2, 3), (3, 4), (5, 1), (5, 2), (5, 3), (5, 4)])


def solver_for(g: Graph, h: PatternGraph) -> tuple[ConnectedSolver, Instance]:
    inst = Instance.build(g, h)
    return ConnectedSolver(inst), inst


def test_partition_around():
    # (graph, dominators, expected parts X_1..X_|D|, undominated rest)
    cases = [
        (GEM, (5,), [{1, 2, 3, 4}], set()),
        (GEM, (1, 4), [{2, 5}, {3}], set()),
        # non-dominating choice leaves a rest
        (Graph.path(4), (1,), [{2}], {3, 4}),
        (Graph.cycle(5), (1, 3), [{2, 5}, {4}], set()),
        (Graph.path(4), (2,), [{1, 3}], {4}),
    ]
    for g, doms, parts, rest in cases:
        solver, _ = solver_for(g, PatternGraph.complete(2))
        got, used = solver.carve(g.full_mask, doms)
        assert got == [mask_from(x) for x in parts]
        assert g.full_mask & ~used == mask_from(rest)


def test_base_case_conflict_edge():
    # every list is a single color, so the search goes straight to the
    # conflict-graph base case; colors 1 and 3 are not adjacent in the
    # 3-path pattern, so the edge forces dropping one endpoint
    e = Graph(2, [(1, 2)])
    h = PatternGraph.path(3)
    inst = Instance.build(e, h, lists={1: [1], 2: [3]})
    sol = solve_connected_case(inst).solution
    assert sol.weight == 1

    inst = Instance.build(e, h, lists={1: [1], 2: [2]})
    assert solve_connected_case(inst).solution.weight == 2

    # equal colors collide on a loopless pattern; keep the heavier end
    inst = Instance.build(e, PatternGraph.complete(2), wt={1: 3, 2: 5},
                          lists={1: [1], 2: [1]})
    sol = solve_connected_case(inst).solution
    assert sol.weight == 5 and sol.chosen == {2}


def gem_cleaned_states(h: PatternGraph) -> list:
    """The solver's cleaned (kept, lists) states for GEM with D = (1, 4),
    in the order the branch visits them; lists covers kept only."""
    solver, inst = solver_for(GEM, h)
    parts, used = solver.carve(GEM.full_mask, (1, 4))
    cleaned = solver.cleaned_states(inst.lists_masks, parts, used)
    return [
        (set_from_mask(kept), {v: set_from_mask(st[v]) for v in iter_mask(kept)})
        for st, kept in sorted(cleaned)
    ]


def test_tilde_cleanup_frozen():
    # X_1 = {2, 5}, X_2 = {3}; every state is one guess per (1, 2, color)
    k2 = gem_cleaned_states(PatternGraph.complete(2))
    # guess {2} for color 1
    assert (frozenset({1, 2, 3, 4, 5}),
            {1: {1, 2}, 2: {1}, 3: {2}, 4: {1, 2}, 5: {1}}) in k2

    # an isolated pattern color empties the touched lists, deleting vertex 3
    states = gem_cleaned_states(PatternGraph(2, []))
    assert (frozenset({1, 2, 4, 5}), {v: {1, 2} for v in (1, 2, 4, 5)}) in states

    # middle color of the 3-path pattern keeps only its two neighbors
    states = gem_cleaned_states(PatternGraph.path(3))
    assert (frozenset({1, 2, 3, 4, 5}),
            {1: {1, 2, 3}, 2: {2}, 3: {1, 3}, 4: {1, 2, 3}, 5: {2}}) in states

    # empty guess: only the cross-part cleanup fires; it empties the
    # lower-part ends of the 2-3 and 5-3 edges
    assert (frozenset({1, 3, 4}), {v: {1, 2} for v in (1, 3, 4)}) in k2

    # the full K2 set: no guess, guess {2} for color 1 or for color 2, or both
    assert k2 == [
        (frozenset({1, 3, 4}), {v: {1, 2} for v in (1, 3, 4)}),
        (frozenset({1, 2, 3, 4, 5}), {1: {1, 2}, 2: {1}, 3: {2}, 4: {1, 2}, 5: {1}}),
        (frozenset({1, 2, 3, 4, 5}), {1: {1, 2}, 2: {2}, 3: {1}, 4: {1, 2}, 5: {2}}),
        (frozenset({1, 2, 4, 5}), {v: {1, 2} for v in (1, 2, 4, 5)}),
    ]


def test_named_connected_cases():
    inst = Instance.build(Graph.cycle(5), PatternGraph.complete(2))
    res = solve_connected_case(inst)
    assert res.solution.weight == 4
    assert res.exhaustive

    inst = Instance.build(GEM, PatternGraph.complete(2))
    assert solve_connected_case(inst).solution.weight == 4

    tri = Graph(3, [(1, 2), (2, 3), (1, 3)])
    inst = Instance.build(tri, PatternGraph.complete(2),
                          lists={1: [1], 2: [2], 3: [1, 2]})
    assert solve_connected_case(inst).solution.weight == 2

    one = Instance.build(Graph(1, []), PatternGraph.complete(2), lists={1: []})
    res = solve_connected_case(one)
    assert res.solution.weight == 0 and res.solution.chosen == frozenset()


def test_disconnected_input_splits():
    two_triangles = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    inst = Instance.build(two_triangles, PatternGraph.complete(2))
    res = solve_connected_case(inst)
    assert res.solution.weight == 4
    assert verify_solution(inst, res.solution) is None


def test_budget_truncates_but_stays_feasible():
    inst = Instance.build(Graph.cycle(5), PatternGraph.complete(2))
    res = solve_connected_case(inst, budget=1)
    assert not res.exhaustive
    assert verify_solution(inst, res.solution) is None
    assert res.solution.weight <= 4


@pytest.mark.parametrize("budget", [1, 3, 10])
@pytest.mark.parametrize("run", [solve_full, solve_connected_case])
def test_budget_bounds_whole_run(run, budget, monkeypatch):
    # every dominator tuple is charged before its branch runs, and every
    # family second set with a new seed before its region is closed, so
    # the branches and regions of the whole run never outnumber the budget
    calls = 0

    def counting(fn):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ConnectedSolver, "_branch", counting(ConnectedSolver._branch))
    monkeypatch.setattr(family, "_core_region_mask", counting(family._core_region_mask))
    inst = Instance.build(Graph.cycle(5), PatternGraph.complete(2))
    res = run(inst, budget=budget)
    assert calls <= budget
    assert res.exhaustive is False
    assert verify_solution(inst, res.solution) is None


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        ConnectedSolver(Instance.build(GEM, PatternGraph.complete(2)), budget=-1)


def test_verify_candidate_rejects_off_list_and_off_pattern():
    # the candidate check reads the lists the branch entered with, not the
    # instance's, and raises on the first violation
    inst = Instance.build(Graph.path(3), PatternGraph.complete(2))
    solver = ConnectedSolver(inst)
    lists = list(inst.lists_masks)
    solver._verify_candidate({1: 1, 2: 2, 3: 1}, lists)
    lists[3] = 1 << 2
    with pytest.raises(RuntimeError, match="candidate list: vertex 3: color 1 not in its list"):
        solver._verify_candidate({1: 1, 2: 2, 3: 1}, lists)
    with pytest.raises(RuntimeError, match="candidate edge: edge 2-3 maps to"):
        solver._verify_candidate({1: 1, 2: 2, 3: 2}, lists)


def test_negative_weight_rejected():
    # the weight bound rests on nonnegative weights
    with pytest.raises(ValueError):
        Instance.build(GEM, PatternGraph.complete(2), wt={3: Fraction(-1, 2)})


COPRIME_WEIGHTS = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 4), Fraction(11, 6), Fraction(0))


@pytest.mark.parametrize("g, k", [(Graph.cycle(5), 2), (GEM, 3)], ids=["C5-K2", "GEM-K3"])
def test_integer_weights_inside_exact_outside(monkeypatch, g, k):
    # the solver scales by lcm(3, 7, 4, 6) = 84 and works on integers;
    # every answer at the boundary is the oracle's exact Fraction; the
    # MWIS search, the blob's and the base case's, sees only ints
    seen = []
    inner = mwis_module.solve_mwis_masked

    def spy(adj, vmask, weights):
        seen.extend(weights)
        return inner(adj, vmask, weights)

    monkeypatch.setattr(mwis_module, "solve_mwis_masked", spy)
    monkeypatch.setattr(connected_module, "solve_mwis_masked", spy)
    wt = dict(zip(g.vertices, COPRIME_WEIGHTS))
    _, weight = mwis_module.solve_mwis(WeightedGraph(g, wt))
    assert type(weight) is Fraction and weight == brute_mwis_subsets(g.n, g.edges(), wt)
    assert seen and all(type(w) is int for w in seen)

    h = PatternGraph.complete(k)
    inst = Instance.build(g, h, wt=wt)
    assert ConnectedSolver(inst).scale == 84
    opt = oracle_solve(inst).weight
    for sol in (solve_connected_case(inst).solution, solve_full(inst).solution):
        assert type(sol.weight) is Fraction and sol.weight == opt
        assert verify_solution(inst, sol) is None

    # singleton lists: the base case runs on the scaled integers too
    single = Instance.build(g, h, wt=wt, lists={v: [v % k + 1] for v in g.vertices})
    sol = solve_connected_case(single).solution
    assert type(sol.weight) is Fraction and sol.weight == oracle_solve(single).weight

    # all-zero weights still report an exact zero, also when every list
    # is empty and the base case has nothing to sum
    zero = Instance.build(g, h, wt=dict.fromkeys(g.vertices, 0))
    empty = Instance.build(g, h, wt=dict.fromkeys(g.vertices, 0),
                           lists=dict.fromkeys(g.vertices, []))
    for sol in (solve_connected_case(zero).solution, solve_full(zero).solution,
                solve_connected_case(empty).solution):
        assert type(sol.weight) is Fraction and sol.weight == 0
    assert all(type(w) is int for w in seen)


def random_instance(seed: int, complete_only: bool, p5free: bool = False) -> Instance:
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    while True:
        g = Graph(n, [
            (u, v)
            for u, v in itertools.combinations(range(1, n + 1), 2)
            if rng.random() < 0.55
        ])
        if not p5free or not brute_has_induced_p5(g):
            break
    k = rng.randint(1, 3)
    h = PatternGraph.complete(k) if complete_only else (
        PatternGraph.path(k) if rng.random() < 0.5 else PatternGraph.complete(k))
    lists = {v: frozenset(c for c in h.colors if rng.random() < 0.8)
             for v in g.vertices}
    wt = {v: Fraction(rng.randint(0, 8), rng.randint(1, 3)) for v in g.vertices}
    return Instance(g, h, wt, lists)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_matches_oracle_on_complete_patterns(seed):
    # exactness is promised only for P5-free inputs where some optimum
    # induces a connected subgraph; without that, only soundness holds
    inst = random_instance(seed, complete_only=True, p5free=True)
    opt = brute_mplhc(inst)
    assume(brute_has_connected_optimum(inst, opt))
    res = solve_connected_case(inst)
    assert verify_solution(inst, res.solution) is None
    assert res.solution.weight == opt


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_sound_on_any_pattern(seed):
    # a draw with an induced P5 is rejected with its witness; the engine
    # run on it directly still returns only feasible answers
    inst = random_instance(seed, complete_only=False)
    witness = find_induced_p5(inst.g)
    if witness is None:
        sol = solve_connected_case(inst).solution
    else:
        with pytest.raises(NotP5FreeError) as exc:
            solve_connected_case(inst)
        assert exc.value.witness == witness
        solver = ConnectedSolver(inst)
        weight, assignment = solver.solve_masked(inst.g.full_mask, inst.lists_masks)
        sol = Solution.from_assignment(inst, dict(assignment))
        assert sol.weight == Fraction(weight, solver.scale)
    assert verify_solution(inst, sol) is None
    assert sol.weight <= oracle_solve(inst).weight


# non-complete patterns as (k, explicit edge tuple over 1..k)
EDGE_PATTERNS = {
    "P3": (3, ((1, 2), (2, 3))),
    "P4": (4, ((1, 2), (2, 3), (3, 4))),
    "C4": (4, ((1, 2), (2, 3), (3, 4), (1, 4))),
    "C5": (5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))),
    "K1,3": (4, ((1, 2), (1, 3), (1, 4))),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FAMILIES), st.sampled_from(sorted(EDGE_PATTERNS)),
       st.integers(2, 9), st.integers(0, 10**6), st.integers(4, 10))
def test_exact_on_non_complete_patterns_when_an_optimum_is_connected(
        graphs, pattern, n, seed, tenths):
    # every candidate passes its check (a failed one raises), and the
    # answer is the optimum whenever some optimum induces a connected
    # subgraph, under non-complete patterns too
    k, edges = EDGE_PATTERNS[pattern]
    inst = generate(GenSpec(
        family=graphs,
        n=n,
        k=k,
        seed=seed,
        density=TRIAL_DENSITIES[graphs][seed % 3],
        pattern=edges,
        list_density=Fraction(tenths, 10),
        weight_range=(0, 6),
        max_tries=500,
    ))
    sol = solve_connected_case(inst).solution
    opt = oracle_solve(inst).weight
    assert verify_solution(inst, sol) is None
    if brute_has_connected_optimum(inst, opt):
        assert sol.weight == opt
    else:
        assert sol.weight <= opt


@pytest.mark.parametrize("family_name, n, k, seed, cliques", [
    ("cograph", 7, 4, 4, [(1,)]),
    ("split", 7, 3, 8, [(1, 2), (1, 4)]),
], ids=["ee88e759524d", "b8a9ed07c307"])
def test_dominating_clique_branch_reaches_connected_optimum(family_name, n, k, seed, cliques):
    # each clique lies inside a connected optimum and dominates it, and its
    # branch alone, from an empty best, reaches the optimum: the parts it
    # carves whose live colors span no pattern edge are solved exactly by
    # the conflict-graph MWIS, not by a tuple walk that stops at its greedy
    # start
    inst = generate(GenSpec(
        family=family_name, n=n, k=k, seed=seed, density=Fraction(1, 2), pattern="path",
        list_density=Fraction(7, 10), weight_range=(0, 6), max_tries=500,
    ))
    opt = oracle_solve(inst)
    lists = inst.lists_masks
    adj = inst.g.adjacency_masks()
    live = mask_from(v for v in inst.g.vertices if lists[v])
    universe = 0
    for v in iter_mask(live):
        universe |= lists[v]
    chosen = mask_from(opt.chosen)
    solver = ConnectedSolver(inst)
    assert len(solver.components(live)) == 1
    assert len(solver.components(chosen)) == 1
    for doms in cliques:
        dmask = mask_from(doms)
        assert dmask & ~chosen == 0
        assert chosen & ~(dmask | neighborhood_mask(adj, dmask)) == 0
        weight, _ = solver._branch(live, lists, doms, solver.clique_number(universe), (0, ()))
        assert Fraction(weight, solver.scale) == opt.weight


def random_graph(rng: random.Random, n: int) -> Graph:
    p = rng.choice((0.2, 0.4, 0.6, 0.8))
    return Graph(n, [(u, v) for u, v in itertools.combinations(range(1, n + 1), 2)
                     if rng.random() < p])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 6), st.booleans())
def test_dominator_tuples_match_filter(seed, omega, p3s):
    # the mask-built tuples are exactly the cliques of at most omega
    # vertices and, with p3s, the induced P3s, in combinations order
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 10))
    vmask = mask_from(v for v in g.vertices if rng.random() < 0.85)
    adj = list(g.adjacency_masks())
    assert list(_dominator_tuples(adj, vmask, omega, p3s)) == brute_dominator_tuples(
        adj, vmask, omega, p3s)


def dominating_tuples(g: Graph, omega: int, p3s: bool = True) -> list[tuple[int, ...]]:
    """The dominator tuples of the whole of g that dominate g."""
    adj = g.adjacency_masks()
    return [t for t in _dominator_tuples(adj, g.full_mask, omega, p3s)
            if neighborhood_mask(adj, mask_from(t)) | mask_from(t) == g.full_mask]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_some_dominator_tuple_dominates(seed):
    # every connected P5-free graph has a dominating clique or induced
    # P3, and a dominating clique when it has no induced C5 either (the
    # solver's rule), and its cliques have at most omega(G) vertices
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    while True:
        g = random_graph(rng, n)
        if (len(masked_components(g, g.full_mask)) == 1
                and find_induced_p5(g) is None):
            break
    omega = max(size for size in range(1, n + 1)
                for t in itertools.combinations(g.vertices, size)
                if all(g.has_edge(u, v) for u, v in itertools.combinations(t, 2)))
    assert dominating_tuples(g, omega, p3s=find_induced_c5(g) is not None)


def test_c5_is_dominated_only_by_induced_p3s():
    # random draws seldom need a P3 (C5 has no dominating clique); each
    # of its five induced P3s dominates it
    assert dominating_tuples(Graph.cycle(5), 2) == [
        (1, 2, 3), (1, 2, 5), (1, 4, 5), (2, 3, 4), (3, 4, 5)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FAMILIES),
    st.sampled_from(["complete:2", "complete:3", "complete:4", "path:3", "path:4"]),
    st.integers(4, 9),
    st.integers(0, 10**9),
)
def test_cliques_only_on_c5_free_hosts_match_p3_walk(graphs, pattern, n, seed):
    # on a host with no induced C5 the solver walks no induced P3, and its
    # uncapped answer and family yields are those of the walk that also
    # tries every P3: weight, assignment, ties and order included
    inst = drawn_instance(graphs, pattern, n, seed, random.Random(seed))
    assume(find_induced_c5(inst.g) is None)
    runs = []
    for cls in (ConnectedSolver, P3ConnectedSolver):
        solver = cls(inst)
        answer = solver.solve_masked(inst.g.full_mask, inst.lists_masks)
        solver = cls(inst)
        runs.append((answer, list(family._guessed_members(inst, solver)), solver._p3s))
    assert runs[0][:2] == runs[1][:2]
    assert (runs[0][2], runs[1][2]) == (False, True)


def test_c5_host_keeps_its_p3s():
    # host C5, pattern K3: the optimum colors the whole cycle, only an
    # induced P3 dominates it, and dropping the P3s loses it
    inst = Instance(
        Graph.cycle(5),
        PatternGraph.complete(3),
        {v: Fraction(w) for v, w in zip(range(1, 6), (4, 6, 4, 5, 4))},
        {1: frozenset({1, 2, 3}), 2: frozenset({2, 3}), 3: frozenset({2}),
         4: frozenset({1, 2}), 5: frozenset({3})},
    )
    assert oracle_solve(inst).weight == 23
    assert solve_connected_case(inst).solution.weight == 23
    assert solve_full(inst).solution.weight == 23
    solver = ConnectedSolver(inst)
    assert solver._p3s
    solver._p3s = False
    assert solver.solve_masked(inst.g.full_mask, inst.lists_masks)[0] == 19


def c5_blowup(rng: random.Random) -> Graph:
    """C5 with each vertex replaced by a clique or an independent set of 1
    or 2 vertices, consecutive bags fully joined.  P5 is prime, so the
    blow-up is P5-free, and one vertex per bag still induces a C5."""
    bags, edges, n = [], [], 0
    for _ in range(5):
        bag = list(range(n + 1, n + rng.randint(1, 2) + 1))
        n = bag[-1]
        if rng.random() < 0.5:
            edges += itertools.combinations(bag, 2)
        bags.append(bag)
    for i in range(5):
        edges += itertools.product(bags[i], bags[(i + 1) % 5])
    return Graph(n, edges)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("seed", range(12))
def test_p3_walk_on_c5_blowups_matches_oracle(monkeypatch, seed, k):
    # the only hosts on which the search walks induced P3s: the family
    # route (family, blob graph, MWIS) walks some and still meets the
    # oracle under a complete pattern, driven directly, as solve_full
    # skips the family whenever its greedy meets the cover bound
    rng = random.Random(seed)
    g = c5_blowup(rng)
    assert find_induced_c5(g) is not None and find_induced_p5(g) is None
    inst = Instance(
        g,
        PatternGraph.complete(k),
        {v: Fraction(rng.randint(0, 6), rng.randint(1, 4)) for v in g.vertices},
        {v: frozenset(c for c in range(1, k + 1) if rng.random() < 0.7) for v in g.vertices},
    )
    walked = []  # the induced P3s walked
    walk = connected_module._dominator_tuples

    def counted(adj, vmask, omega, p3s):
        for t in walk(adj, vmask, omega, p3s):
            if sum(adj[a] >> b & 1 for a, b in itertools.combinations(t, 2)) == 2:
                walked.append(t)
            yield t

    monkeypatch.setattr(connected_module, "_dominator_tuples", counted)
    want = oracle_solve(inst).weight
    assert solve_mwis(build_blob_graph(inst, family.build_family(inst)))[1] == want
    assert walked
    assert solve_full(inst).solution.weight == want


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_one_pass_cross_part_cleanup_matches_fixpoint(seed):
    # random graph and lists (P5-free or not), parts carved around a
    # random dominator tuple in random order
    inst = random_instance(seed, complete_only=False)
    g = inst.g
    rng = random.Random(seed + 1)
    vmask = g.full_mask if rng.random() < 0.5 else mask_from(
        v for v in g.vertices if rng.random() < 0.8) or g.full_mask
    verts = list(iter_mask(vmask))
    doms = tuple(rng.sample(verts, rng.randint(1, min(3, len(verts)))))
    solver = ConnectedSolver(inst)
    parts, used = solver.carve(vmask, doms)
    one = list(inst.lists_masks)
    fix = list(inst.lists_masks)
    adj = g.adjacency_masks()
    hadj = inst.h.adjacency_masks()
    assert _cross_part_cleanup(adj, hadj, one, parts, used) == brute_cross_part_cleanup(
        adj, hadj, fix, parts, used)
    assert one == fix


def test_cross_part_cleanup_keeps_emptied_vertices_out():
    # GEM with D = (1, 4): X_1 = {2, 5}, X_2 = {3}.  Vertex 5 enters with
    # an empty list and outside used, as propagating a dominator coloring
    # leaves it; it must stay out.  Vertex 2 loses its one color to 3.
    adj = GEM.adjacency_masks()
    hadj = PatternGraph.complete(2).adjacency_masks()
    lists = [0, 0b110, 0b010, 0b010, 0b110, 0]
    parts = [mask_from([2, 5]), mask_from([3])]
    kept = _cross_part_cleanup(adj, hadj, lists, parts, mask_from([1, 2, 3, 4]))
    assert kept == mask_from([1, 3, 4])
    assert lists == [0, 0b110, 0, 0b010, 0b110, 0]


def test_cross_part_cleanup_follows_pattern_adjacency():
    # path pattern 1-2-3 on GEM with D = (1, 4): X_1 = {2, 5}, X_2 = {3}.
    # Vertex 3 keeps {3}; its X_1 neighbors keep only colors adjacent to
    # 3, so 2 and 5 go from {1, 2} to {2}.  Stripping only the shared
    # colors, right under K_k only, would leave {1, 2} and allow the
    # non-edge (1, 3).
    adj = GEM.adjacency_masks()
    hadj = PatternGraph.path(3).adjacency_masks()
    lists = [0, 0b1110, 0b0110, 0b1000, 0b1110, 0b0110]
    parts = [mask_from([2, 5]), mask_from([3])]
    kept = _cross_part_cleanup(adj, hadj, lists, parts, mask_from([1, 2, 3, 4, 5]))
    assert kept == mask_from([1, 2, 3, 4, 5])
    assert lists == [0, 0b1110, 0b0100, 0b1000, 0b1110, 0b0100]


def drawn_instance(graphs: str, pattern: str, n: int, seed: int, rng: random.Random) -> Instance:
    """A seeded P5-free instance of the family under pattern ("complete:K"
    or "path:K"), its list density drawn from rng, weights 0..6."""
    pname, _, karg = pattern.partition(":")
    return generate(GenSpec(
        family=graphs,
        n=n,
        k=int(karg),
        seed=seed,
        density=TRIAL_DENSITIES[graphs][seed % 3],
        pattern=pname,
        list_density=Fraction(rng.randint(4, 9), 10),
        weight_range=(0, 6),
        max_tries=500,
    ))


def weighted_instance(graphs, pattern, n, seed, weights) -> Instance:
    """drawn_instance with its weights kept ("fractions"), each zeroed
    with probability 1/2 ("zeros") or all zeroed ("all-zero")."""
    rng = random.Random(seed)
    inst = drawn_instance(graphs, pattern, n, seed, rng)
    if weights == "all-zero":
        wt = dict.fromkeys(inst.g.vertices, Fraction(0))
    elif weights == "zeros":
        wt = {v: w if rng.random() < 0.5 else Fraction(0) for v, w in inst.wt.items()}
    else:
        wt = inst.wt
    return Instance(inst.g, inst.h, wt, inst.lists)


# a tie that the two dominator orders break differently (see
# test_dominator_order_tie_frozen)
TIE = ("random-p5free", "complete:3", 5, 5, "fractions")

WEIGHTED_DRAWS = (
    st.sampled_from(FAMILIES),
    st.sampled_from(["complete:2", "complete:3", "complete:4", "path:3"]),
    st.integers(4, 8),
    st.integers(0, 10**9),
    st.sampled_from(["fractions", "zeros", "all-zero"]),
)


@settings(max_examples=80, deadline=None)
@given(*WEIGHTED_DRAWS)
@example(*TIE)
def test_weight_bound_matches_unpruned_search(graphs, pattern, n, seed, weights):
    # skipping every branch that cannot beat the best answer so far keeps
    # the answer, ties included, and every family member and provenance
    inst = weighted_instance(graphs, pattern, n, seed, weights)
    answers = []
    members = []
    for cls in (ConnectedSolver, UnprunedConnectedSolver):
        solver = cls(inst)
        answers.append(solver.solve_masked(inst.g.full_mask, inst.lists_masks))
        solver = cls(inst)
        members.append(list(family._guessed_members(inst, solver)))
    assert answers[0] == answers[1]
    assert members[0] == members[1]


@settings(max_examples=80, deadline=None)
@given(*WEIGHTED_DRAWS)
@example(*TIE)
def test_colors_first_weight_matches_colors_last(graphs, pattern, n, seed, weights):
    # coloring D before the cleanup guesses keeps the weight of the order
    # that built every cleaned state first; a tie may fall elsewhere
    inst = weighted_instance(graphs, pattern, n, seed, weights)
    first = ConnectedSolver(inst).solve_masked(inst.g.full_mask, inst.lists_masks)
    last = ColorsLastConnectedSolver(inst).solve_masked(inst.g.full_mask, inst.lists_masks)
    assert first[0] == last[0]


def test_dominator_order_tie_frozen():
    # both orders reach weight 11 and break the tie differently
    inst = weighted_instance(*TIE)
    answers = [cls(inst).solve_masked(inst.g.full_mask, inst.lists_masks)
               for cls in (ConnectedSolver, ColorsLastConnectedSolver)]
    assert answers == [
        (11, ((1, 2), (2, 3), (3, 1), (4, 3), (5, 1))),
        (11, ((1, 3), (2, 2), (3, 1), (4, 2), (5, 1))),
    ]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_components_cache_matches_masked_components(seed):
    # on any graph, P5-free or not, the solver's split of a mask is the
    # tuple of masked_components, and a repeated mask gets the same tuple
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    density = rng.choice([0.15, 0.3, 0.5])
    g = Graph(n, [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < density])
    solver = ConnectedSolver(Instance.build(g, PatternGraph.complete(2)))
    masks = [mask_from(v for v in g.vertices if rng.random() < 0.6) for _ in range(4)]
    for mask in masks + masks[::-1]:
        comps = solver.components(mask)
        assert type(comps) is tuple
        assert comps == tuple(masked_components(g, mask))
        assert solver.components(mask) is comps


def test_colors_first_strips_dominator_colors_and_builds_fewer_states(monkeypatch):
    # under K3 each coloring of D reaches the cleanups with d_i's color
    # gone from every X_i list, so no cleaned state leaves it there; the
    # colors-last order builds every state of a tuple before coloring D,
    # and so builds more states for the same weight
    inst = generate(GenSpec(family="split", n=9, k=3, seed=1,
                            list_density=Fraction(7, 10), weight_range=(0, 6)))
    coloring: list[int] = []
    checked = [0]
    built = [0]
    colorings = ConnectedSolver._colorings
    cleaned_states = ConnectedSolver.cleaned_states

    def spy_colorings(self, doms, lists):
        for colors in colorings(self, doms, lists):
            coloring[:] = colors
            yield colors

    def spy_cleaned_states(self, lists, parts, used):
        states = cleaned_states(self, lists, parts, used)
        built[0] += len(states)
        if type(self) is ConnectedSolver:
            for st, _ in states:
                for x, c in zip(parts, coloring, strict=True):
                    for v in iter_mask(x):
                        assert not st[v] >> c & 1
                        checked[0] += 1
        return states

    monkeypatch.setattr(ConnectedSolver, "_colorings", spy_colorings)
    monkeypatch.setattr(ConnectedSolver, "cleaned_states", spy_cleaned_states)
    weights = []
    counts = []
    for cls in (ConnectedSolver, ColorsLastConnectedSolver):
        built[0] = 0
        weights.append(cls(inst).solve_masked(inst.g.full_mask, inst.lists_masks)[0])
        counts.append(built[0])
    assert checked[0] > 0
    assert weights[0] == weights[1]
    assert 0 < counts[0] < counts[1]


def count_solves(solver: ConnectedSolver) -> list[int]:
    """Count every solve_masked call the solver makes, its own recursive
    calls included."""
    calls = [0]
    inner = solver.solve_masked

    def counting(vmask, lists):
        calls[0] += 1
        return inner(vmask, lists)

    solver.solve_masked = counting
    return calls


@pytest.mark.parametrize("g, k", [(Graph.cycle(5), 2), (GEM, 3)], ids=["C5-K2", "GEM-K3"])
def test_weight_bound_prunes_and_spends_less(g, k):
    h = PatternGraph.complete(k)
    inst = Instance.build(g, h, wt={v: Fraction(v + 2, 3) for v in g.vertices})
    big = 10**9
    runs = []
    for cls in (ConnectedSolver, UnprunedConnectedSolver):
        solver = cls(inst, budget=big)
        calls = count_solves(solver)
        answer = solver.solve_masked(g.full_mask, inst.lists_masks)
        runs.append((answer, calls[0], big - solver._left))
    (answer, calls, spent), (ref_answer, ref_calls, ref_spent) = runs
    assert answer == ref_answer
    assert calls < ref_calls
    assert spent <= ref_spent

    # the reference's whole spend is enough for the pruned search
    solver = ConnectedSolver(inst, budget=ref_spent)
    assert solver.solve_masked(g.full_mask, inst.lists_masks) == ref_answer
    assert solver.exhaustive is True


def random_pattern(seed: int) -> PatternGraph:
    rng = random.Random(seed)
    k = rng.randint(1, 5)
    return PatternGraph(k, [e for e in itertools.combinations(range(1, k + 1), 2)
                            if rng.random() < 0.5])


PATTERNS = {
    **{f"complete:{k}": PatternGraph.complete(k) for k in range(1, 6)},
    **{f"path:{k}": PatternGraph.path(k) for k in range(1, 6)},
    "C5": PatternGraph.cycle(5),
    **{f"random-{seed}": random_pattern(seed) for seed in range(8)},
}


@pytest.mark.parametrize("h", PATTERNS.values(), ids=PATTERNS.keys())
def test_clique_number_table(h):
    # omega(H[S]) by the recurrence equals the largest clique found by
    # trying every color subset, on every color mask S
    solver = ConnectedSolver(Instance.build(Graph(1, []), h))
    for colors in range(0, 1 << (h.k + 1), 2):
        assert solver.clique_number(colors) == brute_clique_number(h, colors)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(FAMILIES),
    st.sampled_from(["complete:2", "complete:3", "path:3", "path:4"]),
    st.integers(3, 8),
    st.integers(0, 10**9),
)
def test_cover_bound_and_incumbent(graphs, pattern, n, seed):
    # on a random vertex mask, the clique-cover bound is at least the
    # optimum of the instance restricted to the mask, and the greedy
    # incumbent is a feasible answer of that instance with its weight
    rng = random.Random(seed)
    inst = drawn_instance(graphs, pattern, n, seed, rng)
    vmask = mask_from(v for v in inst.g.vertices if rng.random() < 0.7)
    restricted = Instance(inst.g, inst.h, inst.wt, {
        v: ls if vmask >> v & 1 else frozenset() for v, ls in inst.lists.items()})
    lists = restricted.lists_masks
    universe = 0
    for v in iter_mask(vmask):
        universe |= lists[v]
    solver = ConnectedSolver(inst)
    bound = solver.cover_bound(vmask, solver.clique_number(universe))
    assert Fraction(bound, solver.scale) >= oracle_solve(restricted).weight
    weight, assignment = solver.incumbent(vmask, lists)
    sol = Solution(frozenset(v for v, _ in assignment), dict(assignment),
                   Fraction(weight, solver.scale))
    assert verify_solution(restricted, sol) is None


class ColorCountSolver(ConnectedSolver):
    """The solver with omega taken as the number of live colors, as if the
    pattern on them were complete, wherever the pattern has an edge on
    them: a piece whose live colors span no pattern edge still goes to the
    conflict-graph MWIS, so the color count reaches only the tuple walk
    and the bound."""

    def clique_number(self, colors: int) -> int:
        if any(self._hadj[c] & colors for c in iter_mask(colors)):
            return colors.bit_count()
        return super().clique_number(colors)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FAMILIES),
    st.sampled_from(["path:3", "path:4"]),
    st.integers(4, 8),
    st.integers(0, 10**9),
)
def test_trimmed_tuples_under_path_patterns(graphs, pattern, n, seed):
    # a path pattern is bipartite, so no triangle can be colored into it:
    # the trimmed tuple set holds none, and dropping them (with the bound
    # that counts two vertices per host clique) leaves the answer as it was
    inst = drawn_instance(graphs, pattern, n, seed, random.Random(seed))
    lists = inst.lists_masks
    adj = inst.g.adjacency_masks()
    live = mask_from(v for v in inst.g.vertices if lists[v])
    universe = 0
    for v in iter_mask(live):
        universe |= lists[v]
    solver = ConnectedSolver(inst)
    for t in _dominator_tuples(adj, live, solver.clique_number(universe), True):
        assert len(t) <= 3
        assert sum(adj[a] >> b & 1 for a, b in itertools.combinations(t, 2)) < 3
    assert solver.solve_masked(inst.g.full_mask, lists) == ColorCountSolver(
        inst).solve_masked(inst.g.full_mask, lists)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FAMILIES),
    st.sampled_from(["complete:2", "complete:3", "path:3"]),
    st.integers(4, 8),
    st.integers(0, 10**9),
)
def test_shared_solver_matches_fresh_solvers(graphs, pattern, n, seed):
    # one solver answering many (vmask, lists) pairs through its memo
    # gives every pair the answer of a fresh solver: lists that differ only
    # outside vmask are one memo entry, and the same list sequence on
    # another vertex mask is another
    rng = random.Random(seed)
    inst = drawn_instance(graphs, pattern, n, seed, rng)
    verts = list(inst.g.vertices)
    k = inst.h.k
    shared = ConnectedSolver(inst)

    def check(vmask, lists):
        answer = shared.solve_masked(vmask, lists)
        assert answer == ConnectedSolver(inst).solve_masked(vmask, lists)
        return answer

    for _ in range(4):
        vmask = mask_from(v for v in verts if rng.random() < 0.7)
        lists = [0] + [rng.getrandbits(k) << 1 for _ in verts]
        answer = check(vmask, lists)
        # other lists outside vmask: a memo hit with the same answer
        outside = [lv if vmask >> v & 1 else rng.getrandbits(k) << 1
                   for v, lv in enumerate(lists)]
        entries = len(shared._memo)
        assert check(vmask, outside) == answer
        assert len(shared._memo) == entries
        # the live lists, in order, moved onto other vertices
        live = [v for v in iter_mask(vmask) if lists[v]]
        moved = sorted(rng.sample(verts, len(live)))
        shifted = [0] * len(lists)
        for v, u in zip(live, moved):
            shifted[u] = lists[v]
        check(mask_from(moved), shifted)
