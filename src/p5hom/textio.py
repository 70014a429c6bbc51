"""Line-based instance and solution file formats.

Instance files are UTF-8 text; '#' starts a comment, blank lines are
skipped.  The pattern section must precede the host section:

    H <k>            pattern on colors 1..k
    HEDGE <a> <b>    pattern edge (loops rejected)
    G <n>            host graph on vertices 1..n
    GEDGE <u> <v>    host edge
    WT <u> <w>       weight, integer or p/q (default 1)
    LIST <u> [<c>..] color list (default: all colors; no colors = empty)

Duplicate edges are tolerated; a repeated WT or LIST line for the same
vertex overrides the earlier one.  Serialization is canonical (every
weight as p/q, every list explicit, sorted lines), so equal instances
serialize byte-identically and round-trip through the parser.

Solution files:

    weight <w>       integer or p/q, as WT
    vertex <id> <color>

Counts, vertices and colors are ASCII digits, optionally signed with
'-'.  A weight is the same, optionally followed by '/' and more digits.
Exponents, decimal points, underscores, '+' and other scripts' digits
are rejected.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .pattern import Instance, PatternGraph, Solution
from .graph import Graph

__all__ = [
    "ParseError",
    "parse_instance",
    "parse_solution",
    "serialize_instance",
    "serialize_solution",
]


class ParseError(ValueError):
    """Malformed instance or solution text; carries the 1-based line."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _plain(text: str) -> bool:
    """True when text is ASCII with no '_' or '+': int() then reads a
    whitespace-free token of it as -?[0-9]+ or not at all."""
    return text.isascii() and "_" not in text and "+" not in text


def _tokens(text: str):
    """(line number, tokens, plain) per line with a body, plain being
    _plain of the body: the check _int needs, made once per line."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield line_no, body.split(), _plain(body)


def _int(tok: str, line_no: int, what: str, plain: bool) -> int:
    """An ASCII integer, -?[0-9]+, nothing else: int alone would also take
    1_0, +2 and other scripts' digits.  plain says the token's line passed
    _plain, so only a token of another line is checked on its own: every
    count, vertex and color of a file comes through here."""
    if plain or _plain(tok):
        try:
            return int(tok)
        except ValueError:  # not digits, or too many of them for int
            pass
    raise ParseError(line_no, f"{what} must be an integer, got {tok!r}")


_WEIGHT = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _weight(tok: str, line_no: int) -> Fraction:
    """An ASCII integer n or fraction n/d, nothing else: Fraction alone
    would also take 1e3, 1.5 and 1_0."""
    if _WEIGHT.fullmatch(tok) is None:
        raise ParseError(line_no, f"bad weight {tok!r}; expected an integer or p/q")
    num, _, den = tok.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError):  # too many digits for int, or d = 0
        raise ParseError(line_no, f"bad weight {tok!r}") from None


def parse_instance(text: str) -> Instance:
    """Parse instance text; raises ParseError with a line number."""
    k: int | None = None
    n: int | None = None
    hedges: list[tuple[int, int]] = []
    gedges: list[tuple[int, int]] = []
    wt: dict[int, Fraction] = {}
    lists: dict[int, frozenset[int]] = {}
    last_line = 0
    for line_no, toks, plain in _tokens(text):
        last_line = line_no
        key = toks[0].upper()
        if key == "H":
            if k is not None:
                raise ParseError(line_no, "duplicate H line")
            if n is not None:
                raise ParseError(line_no, "H must come before G")
            if len(toks) != 2:
                raise ParseError(line_no, "H takes exactly one argument")
            k = _int(toks[1], line_no, "color count", plain)
            if k < 0:
                raise ParseError(line_no, "color count must be nonnegative")
        elif key == "HEDGE":
            if k is None:
                raise ParseError(line_no, "HEDGE before H")
            if n is not None:
                raise ParseError(line_no, "HEDGE after G; pattern section is closed")
            if len(toks) != 3:
                raise ParseError(line_no, "HEDGE takes two arguments")
            a = _int(toks[1], line_no, "color", plain)
            b = _int(toks[2], line_no, "color", plain)
            if not (1 <= a <= k and 1 <= b <= k):
                raise ParseError(line_no, f"pattern edge ({a}, {b}) out of range 1..{k}")
            if a == b:
                raise ParseError(line_no, f"loop at color {a} is not allowed in the pattern")
            hedges.append((a, b))
        elif key == "G":
            if k is None:
                raise ParseError(line_no, "G before H; pattern section must come first")
            if n is not None:
                raise ParseError(line_no, "duplicate G line")
            if len(toks) != 2:
                raise ParseError(line_no, "G takes exactly one argument")
            n = _int(toks[1], line_no, "vertex count", plain)
            if n < 0:
                raise ParseError(line_no, "vertex count must be nonnegative")
        elif key in ("GEDGE", "WT", "LIST"):
            if n is None:
                raise ParseError(line_no, f"{key} before G")
            if key == "GEDGE":
                if len(toks) != 3:
                    raise ParseError(line_no, "GEDGE takes two arguments")
                u = _int(toks[1], line_no, "vertex", plain)
                v = _int(toks[2], line_no, "vertex", plain)
                if not (1 <= u <= n and 1 <= v <= n):
                    raise ParseError(line_no, f"edge ({u}, {v}) out of range 1..{n}")
                if u == v:
                    raise ParseError(line_no, f"self-loop at vertex {u} is not allowed")
                gedges.append((u, v))
            elif key == "WT":
                if len(toks) != 3:
                    raise ParseError(line_no, "WT takes two arguments")
                u = _int(toks[1], line_no, "vertex", plain)
                if not 1 <= u <= n:
                    raise ParseError(line_no, f"vertex {u} out of range 1..{n}")
                w = _weight(toks[2], line_no)
                if w < 0:
                    raise ParseError(line_no, f"negative weight {w} at vertex {u}")
                wt[u] = w
            else:
                if len(toks) < 2:
                    raise ParseError(line_no, "LIST takes a vertex")
                u = _int(toks[1], line_no, "vertex", plain)
                if not 1 <= u <= n:
                    raise ParseError(line_no, f"vertex {u} out of range 1..{n}")
                colors = []
                for tok in toks[2:]:
                    c = _int(tok, line_no, "color", plain)
                    if not 1 <= c <= (k or 0):
                        raise ParseError(line_no, f"list color {c} out of range 1..{k}")
                    colors.append(c)
                lists[u] = frozenset(colors)
        else:
            raise ParseError(line_no, f"unknown directive {toks[0]!r}")
    if k is None:
        raise ParseError(last_line or 1, "missing H line")
    if n is None:
        raise ParseError(last_line or 1, "missing G line")
    h = PatternGraph(k, hedges)
    g = Graph(n, gedges)
    return Instance.build(g, h, wt, lists)


def serialize_instance(inst: Instance) -> str:
    """Canonical text form; equal instances serialize identically."""
    out = [f"H {inst.h.k}"]
    out.extend(f"HEDGE {a} {b}" for a, b in inst.h.edges())
    out.append(f"G {inst.g.n}")
    out.extend(f"GEDGE {u} {v}" for u, v in inst.g.edges())
    for v in inst.g.vertices:
        w = inst.wt[v]
        out.append(f"WT {v} {w.numerator}/{w.denominator}")
    for v in inst.g.vertices:
        cols = " ".join(str(c) for c in sorted(inst.lists[v]))
        out.append(f"LIST {v} {cols}".rstrip())
    return "\n".join(out) + "\n"


def parse_solution(text: str) -> Solution:
    """Parse a solution file into a Solution (weight as stated, so a
    wrong weight line shows up as a verification failure, not here)."""
    weight: Fraction | None = None
    coloring: dict[int, int] = {}
    for line_no, toks, plain in _tokens(text):
        key = toks[0].lower()
        if key == "weight":
            if weight is not None:
                raise ParseError(line_no, "duplicate weight line")
            if len(toks) != 2:
                raise ParseError(line_no, "weight takes one argument")
            weight = _weight(toks[1], line_no)
        elif key == "vertex":
            if len(toks) != 3:
                raise ParseError(line_no, "vertex takes two arguments")
            v = _int(toks[1], line_no, "vertex", plain)
            c = _int(toks[2], line_no, "color", plain)
            if v in coloring:
                raise ParseError(line_no, f"duplicate vertex {v}")
            coloring[v] = c
        else:
            raise ParseError(line_no, f"unknown directive {toks[0]!r}")
    if weight is None:
        raise ParseError(1, "missing weight line")
    return Solution(frozenset(coloring), coloring, weight)


def serialize_solution(sol: Solution) -> str:
    w = sol.weight
    out = [f"weight {w.numerator}/{w.denominator}"]
    out.extend(f"vertex {v} {sol.coloring[v]}" for v in sorted(sol.chosen))
    return "\n".join(out) + "\n"
