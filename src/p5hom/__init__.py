"""Exact solver for maximum-weight partial list homomorphism on P5-free graphs.

The pipeline: a connected-case solver built on dominator guessing, a
component-family construction that covers every piece of some optimal
solution, and a reduction to maximum weight independent set on a blob
graph whose vertices are the family members.  Weights are exact
Fractions at the Instance/Solution boundary and, inside the solver,
integers scaled once by the least common multiple of the denominators.
"""

from .blob import BlobGraph, build_blob_graph, solve_full
from .connected import SolveResult, solve_connected_case
from .family import Family, FamilyProvenance, build_family
from .generators import FAMILIES, GenerationError, GenSpec, generate
from .graph import Graph, NotP5FreeError, find_induced_p5
from .mwis import WeightedGraph, solve_mwis
from .oracle import OracleSizeError, oracle_solve
from .pattern import (
    Instance,
    PatternGraph,
    Solution,
    SolutionViolation,
    exists_list_hom,
    verify_solution,
)
from .textio import (
    ParseError,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)

__version__ = "0.1.0"

__all__ = [
    "BlobGraph",
    "FAMILIES",
    "Family",
    "FamilyProvenance",
    "GenSpec",
    "GenerationError",
    "Graph",
    "Instance",
    "NotP5FreeError",
    "OracleSizeError",
    "ParseError",
    "PatternGraph",
    "Solution",
    "SolutionViolation",
    "SolveResult",
    "WeightedGraph",
    "build_blob_graph",
    "build_family",
    "exists_list_hom",
    "find_induced_p5",
    "generate",
    "oracle_solve",
    "parse_instance",
    "parse_solution",
    "serialize_instance",
    "serialize_solution",
    "solve_connected_case",
    "solve_full",
    "solve_mwis",
    "verify_solution",
]
