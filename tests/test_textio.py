"""Instance / solution text format: parsing, serialization, error reporting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p5hom.generators import FAMILIES, GenSpec, generate
from p5hom.graph import Graph
from p5hom.pattern import Instance, PatternGraph, Solution
from p5hom.textio import (
    ParseError,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)

SAMPLE = """\
# pattern on two colors
H 2
HEDGE 1 2
G 3
GEDGE 1 2
GEDGE 2 3  # trailing comment
WT 2 5/3
LIST 3 1
"""


def test_parse_sample():
    inst = parse_instance(SAMPLE)
    assert inst.h.k == 2 and inst.h.has_edge(1, 2)
    assert inst.g.n == 3 and inst.g.edges() == [(1, 2), (2, 3)]
    assert inst.wt == {1: 1, 2: Fraction(5, 3), 3: 1}
    assert inst.lists == {1: {1, 2}, 2: {1, 2}, 3: {1}}


def test_roundtrip_is_identity():
    inst = parse_instance(SAMPLE)
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again == inst
    # canonical form is a fixpoint
    assert serialize_instance(again) == text


def test_serialize_canonical_shape():
    inst = Instance.build(Graph(2, [(1, 2)]), PatternGraph.complete(2),
                          lists={2: []})
    text = serialize_instance(inst)
    lines = text.splitlines()
    assert lines[0] == "H 2"
    assert "WT 1 1/1" in lines  # weights always explicit p/q
    assert "LIST 2" in lines  # empty list serialized as a bare LIST line
    assert text.endswith("\n")


def test_weight_and_list_last_wins():
    text = "H 1\nG 1\nWT 1 2/1\nWT 1 9/2\nLIST 1\nLIST 1 1\n"
    inst = parse_instance(text)
    assert inst.wt[1] == Fraction(9, 2)
    assert inst.lists[1] == {1}


def test_duplicate_edges_tolerated():
    text = "H 2\nHEDGE 1 2\nHEDGE 2 1\nG 2\nGEDGE 1 2\nGEDGE 1 2\n"
    inst = parse_instance(text)
    assert inst.g.edge_count == 1
    assert inst.h.edges() == [(1, 2)]


@pytest.mark.parametrize("text,fragment", [
    ("G 2\nH 2\n", "G before H"),
    ("H 2\n", "missing G"),
    ("G 2\n", "G before H"),
    ("H 2\nG 2\nH 2\n", "duplicate"),
    ("H 2\nG 2\nG 2\n", "duplicate"),
    ("H 2\nHEDGE 1 1\nG 1\n", "loop"),
    ("H 2\nG 2\nGEDGE 1 1\n", "loop"),
    ("H 2\nG 2\nGEDGE 0 2\n", "range"),
    ("H 2\nG 2\nHEDGE 1 2\n", "HEDGE"),
    ("H 2\nG 2\nWT 1 -3\n", "negative"),
    ("H 2\nG 2\nWT 1 1/0\n", "weight"),
    ("H 2\nG 2\nWT 1 1e3\n", "bad weight"),
    ("H 2\nG 2\nWT 1 1.5\n", "bad weight"),
    ("H 2\nG 2\nWT 1 1_0\n", "bad weight"),
    ("H 2\nG 2\nWT 1 +1\n", "bad weight"),
    ("H 2\nG 2\nWT 1 1/-2\n", "bad weight"),
    ("H 2\nG 2\nWT 1 \u0661\n", "bad weight"),
    ("H 2\nG 2\nLIST 1 5\n", "range"),
    ("H 2\nG 2\nWT 3 1\n", "range"),
    ("H x\nG 2\n", "integer"),
    ("H 1_0\nG 2\n", "color count must be an integer"),
    ("H 2\nG \u0663\n", "vertex count must be an integer"),
    ("H 2\nG 3\nGEDGE \u0661 +2\n", "vertex must be an integer"),
    ("H 2\nG 3\nGEDGE 1 +2\n", "vertex must be an integer"),
    ("H 2\nHEDGE 1 2.0\nG 3\n", "color must be an integer"),
    ("H 2\nG 3\nLIST 1 0_1\n", "color must be an integer"),
    ("H 2\nG 3\nWT 1e0 1\n", "vertex must be an integer"),
    ("H 2\nG 2\nBOGUS 1\n", "BOGUS"),
    ("H 2\nG 2\nLIST\n", "LIST takes a vertex"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert fragment.lower() in str(exc.value).lower()


@pytest.mark.parametrize("line, fragment", [
    ("GEDGE 1 \uff12", "vertex must be an integer"),
    ("GEDGE 1_0 2", "vertex must be an integer"),
    ("LIST 1 +1", "color must be an integer"),
    ("LIST 1 1 \u0661", "color must be an integer"),
    ("GEDGE 1 " + "9" * 5000, "vertex must be an integer"),
    ("LIST " + "1" * 5000, "vertex must be an integer"),
])
def test_int_rejections_on_checked_lines(line, fragment):
    # the line check passes a token to int() only when int() can read
    # nothing but ASCII digits; every other token is still rejected
    with pytest.raises(ParseError) as exc:
        parse_instance(f"H 2\nG 3\n{line}\n")
    assert fragment in str(exc.value)


def test_int_check_skips_comments():
    # a comment's characters do not reach the line check
    inst = parse_instance("H 2\nG 2\nGEDGE 1 2 # +\u0661 _ \uff11\nLIST 2 1 # \u00e9\n")
    assert inst.g.has_edge(1, 2) and inst.lists[2] == frozenset({1})


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_instance("H 2\nG 2\nGEDGE 1 1\n")
    assert exc.value.line_no == 3


def test_solution_roundtrip():
    sol = Solution(frozenset({1, 3}), {1: 2, 3: 1}, Fraction(7, 2))
    text = serialize_solution(sol)
    again = parse_solution(text)
    assert again == sol


def test_solution_parse_errors():
    with pytest.raises(ParseError):
        parse_solution("vertex 1 1\n")  # no weight line
    for weight in ("1e3", "1.5", "1_0", "1/0"):
        with pytest.raises(ParseError, match="bad weight"):
            parse_solution(f"weight {weight}\nvertex 1 1\n")
    for line in ("vertex \u0661 1", "vertex 1 1_0", "vertex +1 1", "vertex 1 \uff11"):
        with pytest.raises(ParseError, match="must be an integer"):
            parse_solution(f"weight 1\n{line}\n")
    with pytest.raises(ParseError):
        parse_solution("weight 1/1\nweight 2/1\n")
    with pytest.raises(ParseError):
        parse_solution("weight 1/1\nvertex 1 1\nvertex 1 2\n")


def test_solution_weight_taken_verbatim():
    # the parser does not recompute the weight; verify_solution will
    sol = parse_solution("weight 9/1\nvertex 1 1\n")
    assert sol.weight == 9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(FAMILIES))
def test_generated_instances_roundtrip(seed, family):
    spec = GenSpec(family=family, n=7, k=3, seed=seed,
                   list_density=Fraction(7, 10), weight_range=(0, 5),
                   pattern="path")
    inst = generate(spec)
    text = serialize_instance(inst)
    assert parse_instance(text) == inst
