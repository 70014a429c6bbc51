"""Seeded benchmark corpora.

A workload is a pinned list of graph shapes.  A shape names a generator
family, a vertex count, a pattern and a generator seed, so the graph it
gives is the same in every run.  The workload seed then draws, for each
shape, a relabeling of the vertices, the color lists and the weights.
The graph decides most of an instance's cost, so pinning the graphs
keeps the work in a corpus steady across workload seeds, while the
seeded relabeling, lists and weights still change every instance and
every count the solver reports.

p5hom is passed in as a module rather than imported here, because the
set-up measurement imports it afresh each time.
"""

from __future__ import annotations

import importlib
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

LIST_DENSITY = 0.7
WEIGHT_RANGE = (0, 6)


@dataclass(frozen=True)
class Shape:
    family: str
    n: int
    k: int
    pattern: str  # "complete" or "path"
    density: Fraction
    graph_seed: int


def _graph(p5, shape: Shape):
    spec = p5.GenSpec(
        shape.family,
        shape.n,
        shape.k,
        shape.graph_seed,
        density=shape.density,
        pattern=shape.pattern,
        max_tries=500,
    )
    return p5.generate(spec)


def _family_sparse(p5) -> list[Shape]:
    # Most sparse cotrees on 9 vertices have two or three edges and cost
    # nothing.  Keep the first generator seeds whose graph has 40..150
    # connected vertex sets of size 2..4 (the family's dominator guesses):
    # there the family's own enumeration is the largest share, and the
    # graphs above the band cost a second or more each, too few per run
    # to average out the seeded lists.
    shapes = []
    seed = 0
    while len(shapes) < 26:
        seed += 1
        shape = Shape("cograph", 9, 3, "complete", Fraction(1, 5), seed)
        g = _graph(p5, shape).g
        guesses = sum(1 for _ in p5.graph.enumerate_connected_subsets(g, 2, 4))
        if 40 <= guesses <= 150:
            shapes.append(shape)
    return shapes


def _connected_split(p5) -> list[Shape]:
    # K2 at 9 vertices and K3 at 6 cost about 0.05 s each, so the median
    # instance does not sit between two patterns' costs.  Per instance the
    # seeded lists change the cost by up to 2x, so it takes many instances
    # to average that out.
    shapes = []
    for seed in range(1, 91):
        shapes.append(Shape("split", 9, 2, "complete", Fraction(1, 2), seed))
        shapes.append(Shape("split", 6, 3, "complete", Fraction(1, 2), seed))
    return shapes


_DIFF_FAMILIES = ("cograph", "split", "random-p5free")
_DIFF_PATTERNS = (("complete", 2), ("complete", 3), ("path", 3))
_DIFF_DENSITIES = {
    "cograph": (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)),
    "split": (Fraction(2, 5), Fraction(3, 5), Fraction(4, 5)),
    "random-p5free": (Fraction(3, 20), Fraction(4, 5), Fraction(17, 20)),
}
_DIFF_SIZES = (5, 6, 7)
_DIFF_REPLICATES = 3


def _difftest_small(p5) -> list[Shape]:
    # A full factorial, three times over: family, pattern, size and
    # density each rotate on their own digit of the index, so every family
    # meets every pattern.  Above 7 vertices a few K3 instances would
    # carry most of the time.
    cells = 3 * 3 * len(_DIFF_SIZES) * 3
    shapes = []
    for i in range(cells * _DIFF_REPLICATES):
        family = _DIFF_FAMILIES[i % 3]
        pattern, k = _DIFF_PATTERNS[i // 3 % 3]
        n = _DIFF_SIZES[i // 9 % len(_DIFF_SIZES)]
        density = _DIFF_DENSITIES[family][i // (9 * len(_DIFF_SIZES)) % 3]
        shapes.append(Shape(family, n, k, pattern, density, i + 1))
    return shapes


WORKLOADS: dict[str, Callable] = {
    "family-sparse": _family_sparse,
    "connected-split": _connected_split,
    "difftest-small": _difftest_small,
}


def draw_instance(p5, shape: Shape, seed: int, workload: str, index: int):
    """The instance for one shape under one workload seed.

    The graph and pattern come from the generator with the shape's pinned
    seed.  The relabeling, then one list draw per vertex, then one weight
    draw per vertex come from the workload seed, in the generator's
    conventions: each color enters a list with probability LIST_DENSITY,
    and a weight draws a denominator from 1..4, then a numerator in range.
    """
    base = _graph(p5, shape)
    rng = random.Random(f"{workload}/{seed}/{index}")
    n = shape.n
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    g = p5.Graph(n, [(perm[u - 1], perm[v - 1]) for u, v in base.g.edges()])
    lists = {
        v: frozenset(c for c in range(1, shape.k + 1) if rng.random() < LIST_DENSITY)
        for v in range(1, n + 1)
    }
    lo, hi = WEIGHT_RANGE
    wt = {}
    for v in range(1, n + 1):
        den = rng.randint(1, 4)
        wt[v] = Fraction(rng.randint(lo * den, hi * den), den)
    return p5.Instance(g, base.h, wt, lists)


@dataclass
class SetUp:
    p5: object
    shapes: list[Shape]
    texts: list[str]
    corpus: list
    round_trip_ok: bool
    setup_s: float
    generate_s: float
    parse_s: float


def set_up(workload: str, seed: int) -> SetUp:
    """Import p5hom afresh, generate the corpus, and pass every instance
    through serialize_instance/parse_instance, the CLI's input path."""
    for name in [m for m in sys.modules if m == "p5hom" or m.startswith("p5hom.")]:
        del sys.modules[name]
    t0 = perf_counter()
    p5 = importlib.import_module("p5hom")
    t1 = perf_counter()
    shapes = WORKLOADS[workload](p5)
    originals = [draw_instance(p5, s, seed, workload, i) for i, s in enumerate(shapes)]
    t2 = perf_counter()
    texts = [p5.serialize_instance(inst) for inst in originals]
    t3 = perf_counter()
    corpus = [p5.parse_instance(text) for text in texts]
    t4 = perf_counter()
    return SetUp(
        p5, shapes, texts, corpus, corpus == originals, t4 - t0, t2 - t1, t4 - t3
    )
