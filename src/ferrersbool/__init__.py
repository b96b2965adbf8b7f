"""Exact computation of boolean numbers of Ferrers graphs.

The triangle engine is the production path; the row recursion, the edge
recursion, the edge-elimination polynomial, and the word-complex census are
independent oracles used to cross-check it.
"""

from .boolcomplex import beta_via_rank, rank_vector
from .checks import GraphTooLarge
from .graphs import (
    MultiGraph,
    beta_edge_recursion,
    beta_via_xi,
    ferrers_graph,
    parse_edge_list,
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
)
from .shapes import (
    FerrersShape,
    ShapeError,
    enumerate_shapes,
    parse_shape,
    random_shape,
    rectangle,
    staircase,
)
from .triangle import (
    beta_triangle,
    iter_row_values,
    predicted_cost,
)

__version__ = "0.1.0"

__all__ = [
    "FerrersShape",
    "GraphTooLarge",
    "MultiGraph",
    "NonIntegerResult",
    "ShapeError",
    "beta_complete_bipartite",
    "beta_edge_recursion",
    "beta_row_recursion",
    "beta_staircase_closed",
    "beta_triangle",
    "beta_via_rank",
    "beta_via_xi",
    "chat_gf_check",
    "enumerate_shapes",
    "ferrers_graph",
    "genocchi2",
    "genocchi_ls_identity",
    "iter_row_values",
    "legendre_stirling",
    "parse_edge_list",
    "parse_shape",
    "predicted_cost",
    "random_shape",
    "rank_vector",
    "rectangle",
    "staircase",
    "xi_polynomial",
]
