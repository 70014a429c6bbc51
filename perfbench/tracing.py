"""Layer tracing from outside the package.

Tracer replaces the module-level entry points of each p5hom layer with
wrappers that record spans (name, start, end, parent span, instance) in
memory.  ConnectedSolver.solve_masked recurses up to about a million
times per instance, so it gets no span of its own: its calls are counted
and its top-level (non-nested) calls timed, and the totals are attached
to the enclosing build_family span when that span closes.  The same goes
for solve_mwis_masked, the singleton-list base case it reaches.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


# span name -> per-layer time key
_SPAN_TIME = {
    "solve": "solve_s",
    "family": "family.s",
    "graph.p5check": "graph.p5check_s",
    "blob.build": "blob.build_s",
    "mwis.blob": "mwis.blob_s",
    "pattern.color": "pattern.color_s",
    "pattern.verify": "pattern.verify_s",
}
# (span name, count attached to it) -> per-layer key
_SPAN_COUNT = {
    ("family", "members"): "family.members",
    ("family", "connected_calls"): "connected.calls",
    ("family", "connected_top_calls"): "family.connected_calls",
    ("family", "connected_s"): "connected.time_s",
    ("family", "base_calls"): "mwis.base_calls",
    ("family", "base_s"): "mwis.base_s",
    ("blob.build", "vertices"): "blob.vertices",
    ("blob.build", "edges"): "blob.edges",
}


@dataclass
class Span:
    sid: int
    parent: int | None
    instance: int
    name: str
    start: float
    end: float
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # calls, top-level calls, top-level seconds, nesting depth
        self._conn = [0, 0, 0.0, 0]
        # calls, seconds
        self._base = [0, 0.0]

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, self.instance, name, perf_counter(), 0.0)
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own calls."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, owner, attr: str, name: str, on_result=None, on_close=None) -> None:
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
                if on_result is not None:
                    on_result(span, result)
                return result
            finally:
                tracer._close(span)
                if on_close is not None:
                    on_close(span)

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    # -- the aggregated hot paths --------------------------------------------

    def _wrap_solve_masked(self, p5) -> None:
        cls = p5.connected.ConnectedSolver
        orig = cls.solve_masked
        c = self._conn

        @functools.wraps(orig)
        def solve_masked(solver, vmask, lists):
            c[0] += 1
            if c[3]:
                c[3] += 1
                try:
                    return orig(solver, vmask, lists)
                finally:
                    c[3] -= 1
            c[1] += 1
            c[3] = 1
            t0 = perf_counter()
            try:
                return orig(solver, vmask, lists)
            finally:
                c[2] += perf_counter() - t0
                c[3] = 0

        cls.solve_masked = solve_masked
        self._restore.append((cls, "solve_masked", orig))

    def _wrap_base_case(self, p5) -> None:
        mod = p5.connected
        orig = mod.solve_mwis_masked
        b = self._base

        @functools.wraps(orig)
        def solve_mwis_masked(*args):
            b[0] += 1
            t0 = perf_counter()
            try:
                return orig(*args)
            finally:
                b[1] += perf_counter() - t0

        mod.solve_mwis_masked = solve_mwis_masked
        self._restore.append((mod, "solve_mwis_masked", orig))

    def _flush_hot(self, span: Span) -> None:
        c, b = self._conn, self._base
        span.counts.update(
            connected_calls=c[0],
            connected_top_calls=c[1],
            connected_s=c[2],
            base_calls=b[0],
            base_s=b[1],
        )
        c[0] = c[1] = c[3] = 0
        c[2] = 0.0
        b[0] = 0
        b[1] = 0.0

    # -- install / remove ----------------------------------------------------

    def install(self, p5) -> None:
        """Wrap the entry points of this import of p5hom."""
        blob = p5.blob

        def family_result(span, fam):
            span.counts["members"] = len(fam.members)

        def blob_result(span, bg):
            span.counts["vertices"] = bg.graph.n
            span.counts["edges"] = bg.graph.edge_count

        self._wrap(blob, "build_family", "family", family_result, self._flush_hot)
        self._wrap(p5.family, "find_induced_p5", "graph.p5check")
        self._wrap_solve_masked(p5)
        self._wrap_base_case(p5)
        self._wrap(blob, "build_blob_graph", "blob.build", blob_result)
        self._wrap(blob, "solve_mwis", "mwis.blob")
        self._wrap(blob, "exists_list_hom", "pattern.color")
        self._wrap(blob, "verify_solution", "pattern.verify")

    def remove(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- summaries -------------------------------------------------------------

    def layer_totals(self, instances: set[int]) -> dict[str, float]:
        """Per-layer times and counts summed over the given instances."""
        t = dict.fromkeys(list(_SPAN_TIME.values()) + list(_SPAN_COUNT.values()), 0)
        for s in self.spans:
            if s.instance not in instances:
                continue
            t[_SPAN_TIME[s.name]] += s.seconds
            for key, value in s.counts.items():
                t[_SPAN_COUNT[s.name, key]] += value
        # build_family's own work: its span minus the P5 check and the
        # connected-case calls it makes (the only layers nested in it)
        t["family.self_s"] = t.pop("family.s") - t["graph.p5check_s"] - t["connected.time_s"]
        return t

    def fingerprints(self) -> dict[int, tuple]:
        """Per instance, the counts that must repeat exactly for one input."""
        out: dict[int, list] = {}
        for s in self.spans:
            if s.counts:
                counts = tuple(sorted((k, v) for k, v in s.counts.items() if not k.endswith("_s")))
                out.setdefault(s.instance, []).append((s.name, counts))
        return {i: tuple(v) for i, v in out.items()}

    def records(self) -> list[dict]:
        return [
            {
                "id": s.sid,
                "parent": s.parent,
                "instance": s.instance,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                **s.counts,
            }
            for s in self.spans
        ]
