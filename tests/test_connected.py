"""Connected-case solver: carve, cleanups, base case, full search."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from p5hom import family
from p5hom.blob import solve_full
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
    find_induced_p5,
    iter_mask,
    mask_from,
    masked_components,
    neighborhood_mask,
    set_from_mask,
)
from p5hom.oracle import oracle_solve
from p5hom.pattern import Instance, PatternGraph, Solution, verify_solution

from brute import (
    UnprunedConnectedSolver,
    brute_cross_part_cleanup,
    brute_dominator_tuples,
    brute_has_connected_optimum,
    brute_has_induced_p5,
    brute_mplhc,
)

GEM = Graph(5, [(1, 2), (2, 3), (3, 4), (5, 1), (5, 2), (5, 3), (5, 4)])


def solver_for(g: Graph, h: PatternGraph) -> tuple[ConnectedSolver, Instance]:
    inst = Instance.build(g, h)
    return ConnectedSolver(g, h, inst.wt_tuple), inst


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
    cleaned = solver.cleaned_states(inst.lists_masks, parts, used, h.full_mask)
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
        ConnectedSolver(GEM, PatternGraph.complete(2), (0,) * 6, budget=-1)


def test_negative_weight_rejected():
    # the weight bound rests on nonnegative weights
    with pytest.raises(ValueError):
        ConnectedSolver(GEM, PatternGraph.complete(2), (0, 1, 2, Fraction(-1, 2), 3, 4))


COPRIME_WEIGHTS = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 4), Fraction(11, 6), Fraction(0))


@pytest.mark.parametrize("g, k", [(Graph.cycle(5), 2), (GEM, 3)], ids=["C5-K2", "GEM-K3"])
def test_integer_weights_inside_exact_outside(g, k):
    # the solver scales by lcm(3, 7, 4, 6) = 84 and works on integers;
    # every answer at the boundary is the oracle's exact Fraction
    h = PatternGraph.complete(k)
    inst = Instance.build(g, h, wt=dict(zip(g.vertices, COPRIME_WEIGHTS)))
    assert ConnectedSolver(g, h, inst.wt_tuple).scale == 84
    opt = oracle_solve(inst).weight
    for sol in (solve_connected_case(inst).solution, solve_full(inst).solution):
        assert type(sol.weight) is Fraction and sol.weight == opt
        assert verify_solution(inst, sol) is None

    # singleton lists: the base case runs on the scaled integers too
    single = Instance.build(g, h, wt=dict(zip(g.vertices, COPRIME_WEIGHTS)),
                            lists={v: [v % k + 1] for v in g.vertices})
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
        solver = ConnectedSolver(inst.g, inst.h, inst.wt_tuple)
        weight, assignment = solver.solve_masked(inst.g.full_mask, inst.lists_masks)
        sol = Solution.from_assignment(inst, dict(assignment))
        assert sol.weight == Fraction(weight, solver.scale)
    assert verify_solution(inst, sol) is None
    assert sol.weight <= oracle_solve(inst).weight


def random_graph(rng: random.Random, n: int) -> Graph:
    p = rng.choice((0.2, 0.4, 0.6, 0.8))
    return Graph(n, [(u, v) for u, v in itertools.combinations(range(1, n + 1), 2)
                     if rng.random() < p])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 6))
def test_dominator_tuples_match_filter(seed, omega):
    # the mask-built tuples are exactly the cliques of at most omega
    # vertices and the induced P3s, in combinations order
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 10))
    vmask = mask_from(v for v in g.vertices if rng.random() < 0.85)
    adj = list(g.adjacency_masks())
    assert list(_dominator_tuples(adj, vmask, omega)) == brute_dominator_tuples(
        adj, vmask, omega)


def dominating_tuples(g: Graph, omega: int) -> list[tuple[int, ...]]:
    """The dominator tuples of the whole of g that dominate g."""
    adj = g.adjacency_masks()
    return [t for t in _dominator_tuples(adj, g.full_mask, omega)
            if neighborhood_mask(adj, mask_from(t)) | mask_from(t) == g.full_mask]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_some_dominator_tuple_dominates(seed):
    # every connected P5-free graph has a dominating clique or induced
    # P3, and its cliques have at most omega(G) vertices
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
    assert dominating_tuples(g, omega)


def test_c5_is_dominated_only_by_induced_p3s():
    # random draws seldom need a P3 (C5 has no dominating clique); each
    # of its five induced P3s dominates it
    assert dominating_tuples(Graph.cycle(5), 2) == [
        (1, 2, 3), (1, 2, 5), (1, 4, 5), (2, 3, 4), (3, 4, 5)]


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
    solver = ConnectedSolver(g, inst.h, inst.wt_tuple)
    parts, used = solver.carve(vmask, doms)
    one = list(inst.lists_masks)
    fix = list(inst.lists_masks)
    adj = g.adjacency_masks()
    assert _cross_part_cleanup(adj, one, parts, used) == brute_cross_part_cleanup(
        adj, fix, parts, used)
    assert one == fix


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(FAMILIES),
    st.sampled_from(["complete:2", "complete:3", "path:3"]),
    st.integers(4, 8),
    st.integers(0, 10**9),
    st.sampled_from(["fractions", "zeros", "all-zero"]),
)
def test_weight_bound_matches_unpruned_search(graphs, pattern, n, seed, weights):
    # skipping every branch that cannot beat the best answer so far keeps
    # the answer, ties included, and every family member and provenance
    pname, _, karg = pattern.partition(":")
    rng = random.Random(seed)
    inst = generate(GenSpec(
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
    if weights == "all-zero":
        wt = dict.fromkeys(inst.g.vertices, Fraction(0))
    elif weights == "zeros":
        wt = {v: w if rng.random() < 0.5 else Fraction(0) for v, w in inst.wt.items()}
    else:
        wt = inst.wt
    inst = Instance(inst.g, inst.h, wt, inst.lists)
    answers = []
    members = []
    for cls in (ConnectedSolver, UnprunedConnectedSolver):
        solver = cls(inst.g, inst.h, inst.wt_tuple)
        answers.append(solver.solve_masked(inst.g.full_mask, inst.lists_masks))
        solver = cls(inst.g, inst.h, inst.wt_tuple)
        members.append(list(family._guessed_members(inst, solver)))
    assert answers[0] == answers[1]
    assert members[0] == members[1]


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
        solver = cls(g, h, inst.wt_tuple, budget=big)
        calls = count_solves(solver)
        answer = solver.solve_masked(g.full_mask, inst.lists_masks)
        runs.append((answer, calls[0], big - solver._left))
    (answer, calls, spent), (ref_answer, ref_calls, ref_spent) = runs
    assert answer == ref_answer
    assert calls < ref_calls
    assert spent <= ref_spent

    # the reference's whole spend is enough for the pruned search
    solver = ConnectedSolver(g, h, inst.wt_tuple, budget=ref_spent)
    assert solver.solve_masked(g.full_mask, inst.lists_masks) == ref_answer
    assert solver.exhaustive is True
