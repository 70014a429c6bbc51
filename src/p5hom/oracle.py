"""Brute-force reference solver.

Deliberately independent of the staged pipeline: a plain backtracking
search over per-vertex choices (exclude, or include with one listed
color) with only two safe prunings, edge compatibility against already
chosen neighbors and a remaining-weight bound.  It shares no constraint
propagation machinery with the pipeline, which is what makes it useful
as a differential-testing referee.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import iter_mask
from .pattern import ZERO, Instance, Solution

__all__ = ["DEFAULT_SIZE_CAP", "OracleSizeError", "oracle_solve"]

DEFAULT_SIZE_CAP = 14


class OracleSizeError(ValueError):
    """Instance exceeds DEFAULT_SIZE_CAP and force was not given."""


def oracle_solve(inst: Instance, *, force: bool = False) -> Solution:
    """Exact maximum-weight solution by exhaustive backtracking.

    Refuses instances with more than DEFAULT_SIZE_CAP vertices unless
    force is true (the search is exponential).  Deterministic: vertices
    are processed heaviest first and colors in ascending order, and only
    a strictly better weight replaces the incumbent.
    """
    n = inst.g.n
    if n > DEFAULT_SIZE_CAP and not force:
        raise OracleSizeError(
            f"instance has {n} vertices, above the oracle cap of {DEFAULT_SIZE_CAP}; "
            "pass force=True to run anyway"
        )
    order = sorted(inst.g.vertices, key=lambda v: (-inst.wt[v], v))
    wt = inst.wt
    suffix = [ZERO] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + wt[order[i]]
    adj = inst.g.adjacency_masks()
    hadj = inst.h.adjacency_masks()
    list_colors = {v: sorted(inst.lists[v]) for v in inst.g.vertices}

    best_w = ZERO
    best_coloring: dict[int, int] = {}
    coloring: dict[int, int] = {}

    def rec(i: int, chosen_mask: int, cur: Fraction) -> None:
        nonlocal best_w, best_coloring
        if cur + suffix[i] <= best_w:
            return
        if i == n:
            best_w = cur
            best_coloring = dict(coloring)
            return
        v = order[i]
        for c in list_colors[v]:
            ok = True
            for u in iter_mask(adj[v] & chosen_mask):
                if not hadj[c] >> coloring[u] & 1:
                    ok = False
                    break
            if not ok:
                continue
            coloring[v] = c
            rec(i + 1, chosen_mask | (1 << v), cur + wt[v])
            del coloring[v]
        rec(i + 1, chosen_mask, cur)

    rec(0, 0, ZERO)
    return Solution(frozenset(best_coloring), best_coloring, best_w)
