"""Exact computation of boolean numbers of Ferrers graphs.

The triangle engine is the production path; the row recursion, the edge
recursion, the edge-elimination polynomial, and the word-complex census are
independent oracles used to cross-check it.
"""

from .boolcomplex import RankVector, WordClass, beta_via_rank, canonical_form, rank_vector, word_classes
from .graphs import (
    EdgeNotPresent,
    GraphTooLarge,
    MultiGraph,
    SimpleGraph,
    TrivariatePolynomial,
    beta_edge_recursion,
    beta_via_xi,
    bichromatic_via_xi,
    bivariate_chromatic_count,
    contract_edge,
    delete_edge,
    extract_edge,
    ferrers_graph,
    parse_edge_list,
    simple_contract_edge,
    xi_polynomial,
)
from .recursion import beta_row_recursion
from .sequences import (
    NonIntegerResult,
    beta_complete_bipartite,
    beta_staircase_closed,
    chat_gf_check,
    genocchi2,
    genocchi_ls_identity,
    legendre_stirling,
    legendre_stirling_via_triangle,
    stirling2,
)
from .shapes import (
    EmptyShape,
    FerrersShape,
    NotAPartition,
    ParseError,
    ShapeError,
    ShiftTooNegative,
    TooFewRows,
    enumerate_shapes,
    parse_shape,
    random_shape,
    rectangle,
    staircase,
)
from .triangle import (
    CostReport,
    beta_triangle,
    instrumented_gamma,
    iter_row_values,
    predicted_cost,
)

__version__ = "0.1.0"

__all__ = [
    "CostReport",
    "EdgeNotPresent",
    "EmptyShape",
    "FerrersShape",
    "GraphTooLarge",
    "MultiGraph",
    "NonIntegerResult",
    "NotAPartition",
    "ParseError",
    "RankVector",
    "ShapeError",
    "ShiftTooNegative",
    "SimpleGraph",
    "TooFewRows",
    "TrivariatePolynomial",
    "WordClass",
    "beta_complete_bipartite",
    "beta_edge_recursion",
    "beta_row_recursion",
    "beta_staircase_closed",
    "beta_triangle",
    "beta_via_rank",
    "beta_via_xi",
    "bichromatic_via_xi",
    "bivariate_chromatic_count",
    "canonical_form",
    "chat_gf_check",
    "contract_edge",
    "delete_edge",
    "enumerate_shapes",
    "extract_edge",
    "ferrers_graph",
    "genocchi2",
    "genocchi_ls_identity",
    "instrumented_gamma",
    "iter_row_values",
    "legendre_stirling",
    "legendre_stirling_via_triangle",
    "parse_edge_list",
    "parse_shape",
    "predicted_cost",
    "random_shape",
    "rank_vector",
    "rectangle",
    "simple_contract_edge",
    "staircase",
    "stirling2",
    "word_classes",
    "xi_polynomial",
]
