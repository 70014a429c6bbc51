"""Seeded generators for P5-free test instances.

Three graph families:

* cograph: a random cotree (recursive binary split of the vertex ids,
  each internal node a join with probability density, else a disjoint
  union).  Cographs have no induced 4-vertex path, hence no induced P5.
* split: every vertex lands on a clique side or an independent side with
  equal probability; cross edges appear with probability density.  Split
  graphs have no induced pair of disjoint edges, and an induced P5
  contains one, so they are P5-free.
* random-p5free: Erdos-Renyi draws with edge probability density,
  rejection-sampled until P5-free, up to max_tries.

Randomness comes from random.Random (CPython's Mersenne Twister, whose
output for a fixed seed is stable across platforms and versions).  The
draw order is part of the contract: graph first, then one list draw per
vertex in ascending order, then one weight draw per vertex in ascending
order.  Equal specs therefore produce byte-identical serializations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, find_induced_p5
from .pattern import Instance, PatternGraph

__all__ = ["GenSpec", "GenerationError", "generate", "trial_spec"]

FAMILIES = ("cograph", "split", "random-p5free")

# per family, the edge densities that seeded trial corpora draw from
TRIAL_DENSITIES = {
    "cograph": (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)),
    "split": (Fraction(2, 5), Fraction(3, 5), Fraction(4, 5)),
    "random-p5free": (Fraction(3, 20), Fraction(4, 5), Fraction(17, 20)),
}


class GenerationError(RuntimeError):
    """Rejection sampling failed to find a P5-free graph in max_tries."""


def _as_fraction(value) -> Fraction:
    # str() keeps float literals like 0.7 exact (7/10, not the binary float)
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class GenSpec:
    """Deterministic description of one generated instance.

    pattern is "complete", "path", or an explicit edge tuple over 1..k.
    density drives both cotree joins and cross/ER edge draws.  Each color
    enters a vertex list with probability list_density (empty lists are
    legal).  Weights are uniform rationals in [weight_range[0],
    weight_range[1]]: a denominator is drawn from 1..4, then a numerator
    uniform over the multiples inside the range.
    """

    family: str
    n: int
    k: int
    seed: int
    density: Fraction = Fraction(1, 2)
    pattern: str | tuple[tuple[int, int], ...] = "complete"
    list_density: Fraction = Fraction(1)
    weight_range: tuple[int, int] = (1, 1)
    max_tries: int = 200

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.n < 0 or self.k < 0:
            raise ValueError("n and k must be nonnegative")
        object.__setattr__(self, "density", _as_fraction(self.density))
        object.__setattr__(self, "list_density", _as_fraction(self.list_density))
        for name in ("density", "list_density"):
            val = getattr(self, name)
            if not 0 <= val <= 1:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        lo, hi = self.weight_range
        if not (isinstance(lo, int) and isinstance(hi, int) and 0 <= lo <= hi):
            raise ValueError(f"weight_range must be ints 0 <= lo <= hi, got {self.weight_range}")
        if self.max_tries < 1:
            raise ValueError("max_tries must be at least 1")


def _pattern_graph(spec: GenSpec) -> PatternGraph:
    if spec.pattern == "complete":
        return PatternGraph.complete(spec.k)
    if spec.pattern == "path":
        return PatternGraph.path(spec.k)
    return PatternGraph(spec.k, spec.pattern)


def _cograph_edges(rng: random.Random, ids: list[int], density: float,
                   edges: list[tuple[int, int]]) -> None:
    if len(ids) <= 1:
        return
    cut = rng.randint(1, len(ids) - 1)
    join = rng.random() < density
    left, right = ids[:cut], ids[cut:]
    _cograph_edges(rng, left, density, edges)
    _cograph_edges(rng, right, density, edges)
    if join:
        for u in left:
            for v in right:
                edges.append((u, v))


def _gen_graph(spec: GenSpec, rng: random.Random) -> Graph:
    n = spec.n
    density = float(spec.density)
    if spec.family == "cograph":
        edges: list[tuple[int, int]] = []
        _cograph_edges(rng, list(range(1, n + 1)), density, edges)
        return Graph(n, edges)
    if spec.family == "split":
        clique = [v for v in range(1, n + 1) if rng.random() < 0.5]
        cmask = set(clique)
        edges = [(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :]]
        for u in range(1, n + 1):
            if u in cmask:
                continue
            for v in clique:
                if rng.random() < density:
                    edges.append((min(u, v), max(u, v)))
        return Graph(n, edges)
    # random-p5free: rejection sampling
    for _ in range(spec.max_tries):
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < density
        ]
        g = Graph(n, edges)
        if find_induced_p5(g) is None:
            return g
    raise GenerationError(
        f"no P5-free graph with n={n}, density={spec.density} in {spec.max_tries} tries"
    )


def generate(spec: GenSpec) -> Instance:
    """The instance a GenSpec determines.  Equal GenSpecs give equal
    instances (and byte-identical serializations)."""
    rng = random.Random(spec.seed)
    g = _gen_graph(spec, rng)
    h = _pattern_graph(spec)
    list_density = float(spec.list_density)
    lists = {
        v: frozenset(c for c in range(1, spec.k + 1) if rng.random() < list_density)
        for v in range(1, spec.n + 1)
    }
    lo, hi = spec.weight_range
    wt = {}
    for v in range(1, spec.n + 1):
        if lo == hi:
            wt[v] = Fraction(lo)
        else:
            den = rng.randint(1, 4)
            wt[v] = Fraction(rng.randint(lo * den, hi * den), den)
    return Instance(g, h, wt, lists)


def trial_spec(rng_seed: int, gen_seed: int, index: int, max_n: int,
               pattern: str, k: int, list_density: Fraction) -> GenSpec:
    """The spec of one seeded trial instance: the family rotates with
    index, then n in 2..max_n and the density from TRIAL_DENSITIES are
    drawn from random.Random(rng_seed), in that order; gen_seed seeds the
    generator itself, and weights range over 0..6."""
    rng = random.Random(rng_seed)
    family = FAMILIES[index % len(FAMILIES)]
    menu = TRIAL_DENSITIES[family]
    return GenSpec(
        family=family,
        n=rng.randint(2, max_n),
        k=k,
        seed=gen_seed,
        density=menu[rng.randrange(len(menu))],
        pattern=pattern,
        list_density=list_density,
        weight_range=(0, 6),
        max_tries=500,
    )
