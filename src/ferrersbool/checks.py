"""The cross-checks behind ``verify`` and the acceptance gate, and the one
route to the slow oracles: ``oracle_beta`` runs each of the four, and
``oracle_graph`` holds the one vertex-cap rule of the three graph oracles.

Each check is defined once here.  The per-shape checks return None when they
hold and otherwise a one-line description of what broke; the sequence
identities take their size and return whether the identity holds up to it.

The engine and the oracles are called through their modules
(``triangle.beta_triangle``, ``recursion.beta_row_recursion``, ...), so that
code which replaces a module attribute, such as a test that breaks one route
on purpose, reaches the calls made here.  The four slow oracles never read the
triangle: their independence is what makes them cross-checks.
"""

from __future__ import annotations

from . import boolcomplex, graphs, recursion, sequences, shapes, triangle
from .shapes import FerrersShape

EDGE_RECURSION_VERTEX_CAP = 12
EXHAUSTIVE_VERTEX_CAP = 8


class GraphTooLarge(RuntimeError):
    """The graph exceeds the vertex cap of the oracle asked to run on it."""


def oracle_graph(
    method: str, source: FerrersShape | graphs.MultiGraph, cap: int | None = None
) -> graphs.MultiGraph:
    """The graph that oracle `method` runs on, once it is within its vertex cap.

    This is the one cap rule of the three graph oracles, which take no cap
    themselves.  The cap is `cap` if given, else 8 for the rank census
    ("rank") and 12 for the edge recursion and xi ("edge", "xi").  A shape is
    priced as its Ferrers graph's r + L1 vertices before that graph is built,
    so a shape of any size gets its GraphTooLarge at once.
    """
    rank = method == "rank"
    if cap is None:
        cap = EXHAUSTIVE_VERTEX_CAP if rank else EDGE_RECURSION_VERTEX_CAP
    is_shape = isinstance(source, FerrersShape)
    vertices = source.row_count + source.rows[0] if is_shape else source.vertex_count
    if vertices > cap:
        name = "rank-census" if rank else "edge-recursion"
        raise GraphTooLarge(f"{vertices} vertices exceeds the {name} cap {cap}")
    return graphs.ferrers_graph(source) if is_shape else source


def oracle_beta(
    method: str, source: FerrersShape | graphs.MultiGraph, cap: int | None = None
) -> int:
    """beta of a shape or graph by one slow oracle: "row" (shapes only),
    "edge", "xi" or "rank"; the graph oracles obey `oracle_graph`'s cap."""
    if method == "row":
        return recursion.beta_row_recursion(source)
    g = oracle_graph(method, source, cap)
    if method == "edge":
        return graphs.beta_edge_recursion(g)
    if method == "rank":
        return boolcomplex.beta_via_rank(g)
    return graphs.beta_via_xi(g)


# ---------------------------------------------------------------------------
# per-shape checks
# ---------------------------------------------------------------------------

def method_agreement(
    shape: FerrersShape, expected: int, cap: int | None = None
) -> tuple[list[str], list[str]]:
    """The oracles whose beta differs from `expected` on shape, in the order
    row, edge, xi, rank; and those skipped because the graph is above their
    cap."""
    wrong: list[str] = []
    skipped: list[str] = []
    g = graphs.ferrers_graph(shape)
    for method in ("row", "edge", "xi", "rank"):
        try:
            if oracle_beta(method, shape if method == "row" else g, cap) != expected:
                wrong.append(method)
        except GraphTooLarge:
            skipped.append(method)
    return wrong, skipped


def zero_iff_zero_row(shape: FerrersShape, value: int) -> str | None:
    """beta is 0 exactly when the shape has a zero row."""
    if (value == 0) != shape.has_zero_row:
        return f"counterexample {shape}"
    return None


def triangle_structure(shape: FerrersShape) -> str | None:
    """Row i has i+1 entries, sums to zero, starts with zero below the
    full-width rows, and alternates in sign off its leftmost column."""
    width = shape.rows[0]
    for i, row in enumerate(triangle.iter_row_values(shape), start=1):
        if len(row) != i + 1:
            return f"row {i} of {shape} has {len(row)} entries"
        if sum(row) != 0:
            return f"row {i} of {shape} does not sum to zero"
        if shape.rows[i - 1] < width and row[0] != 0:
            return f"row {i} of {shape} should start with zero"
        for j in range(1, len(row) - 1):
            if row[j] and row[j + 1] and (row[j] > 0) == (row[j + 1] > 0):
                return f"row {i} of {shape} breaks sign alternation at {j}"
    return None


def transpose_invariance(shape: FerrersShape) -> str | None:
    """Without a zero row, the triangle gives the same beta on both
    orientations.  Both run as given: beta_triangle would run the cheaper one
    for both."""
    if not shape.has_zero_row and (
        triangle.evaluate(shape.transpose()) != triangle.evaluate(shape)
    ):
        return f"counterexample {shape}"
    return None


def cost_model(shape: FerrersShape) -> str | None:
    """predicted_cost is the per-row sum 2 * sum_{i>=2} (i+1) * (d_i+1), and
    without a zero row predicted_transpose_cost is predicted_cost of the
    transpose.  No triangle runs."""
    charged = 2 * sum((i + 1) * (d + 1) for i, d in enumerate(shape.differences(), start=2))
    if triangle.predicted_cost(shape) != charged or not shape.has_zero_row and (
        triangle.predicted_transpose_cost(shape) != triangle.predicted_cost(shape.transpose())
    ):
        return f"counterexample {shape}"
    return None


# ---------------------------------------------------------------------------
# sequence identities
# ---------------------------------------------------------------------------

def staircase_genocchi(n: int) -> bool:
    """For heights 1..n, the unit staircase's beta by the triangle and by the
    one-pass stream, the Genocchi number g(r) and the closed double sum agree."""
    return all(
        triangle.beta_triangle(shapes.staircase(r, 1)) == beta == g
        == sequences.beta_staircase_closed(r)
        for r, beta, g in zip(
            range(1, n + 1),
            sequences.beta_staircases(n),
            sequences.genocchi2_values(n),
            strict=True,
        )
    )


def legendre_stirling_triangle(n: int) -> bool:
    """Rows 1..n of the rescaled staircase triangle are the Legendre-Stirling
    numbers of the closed form."""
    return all(
        value == sequences.legendre_stirling(i, j)
        for i, row in enumerate(sequences.rescaled_staircase_rows(n), start=1)
        for j, value in enumerate(row, start=1)
    )


def genocchi_ls_identity(n: int) -> bool:
    """g(r) = sum_j (-1)**(r+j) (j!)^2 d(r, j) for r = 1..n."""
    return all(lhs == rhs for lhs, rhs in map(sequences.genocchi_ls_identity, range(1, n + 1)))


def complete_bipartite(n: int) -> bool:
    """The Stirling formula equals the triangle on every rectangle up to n by n."""
    return all(
        sequences.beta_complete_bipartite(r, k) == triangle.beta_triangle(shapes.rectangle(r, k))
        for r in range(1, n + 1)
        for k in range(1, n + 1)
    )


def staircase_column_gf(max_j: int, max_d: int, order: int) -> bool:
    """Both routes to column j of the rescaled steplength-d staircase triangle
    agree to the given order, for j <= max_j and d <= max_d."""
    return all(
        a == b
        for j in range(1, max_j + 1)
        for d in range(1, max_d + 1)
        for a, b in [sequences.chat_gf_check(j, d, order)]
    )
