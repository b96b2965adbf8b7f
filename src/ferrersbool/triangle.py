"""Coefficient-triangle engine for boolean numbers of Ferrers shapes.

For a shape with rows L1 >= ... >= Lr the triangle starts from (-1, 1) and
row i follows from row i-1 with exponent d_i = L_{i-1} - L_i:

    c(i, j) = j * (j-1)**d_i * c(i-1, j-1)  -  (j+1) * j**d_i * c(i-1, j)

with the convention 0**0 = 1 (Python's pow already honours it).  Both terms
are values of t(k) = (k+1) * k**d_i * c(i-1, k), so the kernel computes the
row as the backward difference c(i, j) = t(j-1) - t(j), with t(-1) and
t(i) zero: one product with a big entry per column, and k**d_i raised only
for the i columns of row i-1, never for the empty column past it.  The boolean
number is sum_j c(r, j) * j**Lr, again with 0**0 = 1, so a zero bottom row
yields the row sum, which is zero.  Without a zero row the number is the same
for the shape and its transpose; beta_triangle runs the cheaper of the two.

Every consumer reads the rows from one stream, ``iter_row_values``, which is
the only caller of the row update, and keeps only the row it is on.

Everything here is exact integer arithmetic; the entries grow exponentially
with the row index, so fixed-width arithmetic is never used.
"""

from __future__ import annotations

from typing import Iterator

from .shapes import FerrersShape

FIRST_ROW: tuple[int, ...] = (-1, 1)


def next_values(prev: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Apply the row update with exponent d as the backward difference of
    t(k) = (k+1) * k**d * prev[k]; entries outside the row are zero."""
    if d < 0:
        raise ValueError("difference exponent must be >= 0")
    out = []
    prior = 0
    for k, c in enumerate(prev):
        t = (k + 1) * k**d * c
        out.append(prior - t)
        prior = t
    out.append(prior)
    return tuple(out)


def iter_row_values(shape: FerrersShape) -> Iterator[tuple[int, ...]]:
    """Stream rows 1..r; row i is the tuple c(i, 0..i)."""
    row = FIRST_ROW
    yield row
    for d in shape.differences():
        row = next_values(row, d)
        yield row


def beta_triangle(shape: FerrersShape) -> int:
    """Boolean number of a shape, run on its cheaper orientation.

    A zero row makes the number zero.  Otherwise beta does not change under
    transposition, so the triangle runs on the orientation with the smaller
    predicted_cost, the given one on a tie; the transpose is built only when
    it is the cheaper one.
    """
    if shape.has_zero_row:
        return 0
    if predicted_transpose_cost(shape) < predicted_cost(shape):
        shape = shape.transpose()
    return evaluate(shape)


def evaluate(shape: FerrersShape) -> int:
    """Boolean number of the shape as given, sum_j c(r, j) * j**Lr; only the
    row being streamed is kept."""
    for row in iter_row_values(shape):
        pass
    bottom = shape.rows[-1]
    return sum(c * j**bottom for j, c in enumerate(row))


def _paper_cost(r: int, width: int, n: int, bottom: int) -> int:
    """2 * sum_{i=2..r} (i+1) * (d_i + 1) for r rows of n cells, the first
    `width` long and the last `bottom` long: sum_{i=2..r} (i+1) = (r+1)(r+2)/2 - 3
    and, by parts, sum_{i=2..r} (i+1) * d_i = 2*width + n - (r+2)*bottom."""
    return 2 * ((r + 1) * (r + 2) // 2 - 3 + 2 * width + n - (r + 2) * bottom)


def predicted_cost(shape: FerrersShape) -> int:
    """The multiplications the paper's cost model charges the triangle:
    2 * sum_{i=2..r} (i+1) * (d_i + 1).

    Each update term a * b**d * c is charged d+1 multiplications: d-1 for the
    power by repeated multiplication and two for the products when d >= 1, a
    single product when d = 0.  Row i has i+1 entries of two terms each, so it
    is charged 2*(i+1)*(d_i+1).
    """
    rows = shape.rows
    return _paper_cost(len(rows), rows[0], sum(rows), rows[-1])


def predicted_transpose_cost(shape: FerrersShape) -> int:
    """predicted_cost(shape.transpose()) for a shape with no zero row, in O(r):
    the transpose has L1 rows, a first row of r cells, the same n cells, and a
    last row as long as the number of full-width rows."""
    rows = shape.rows
    return _paper_cost(rows[0], len(rows), sum(rows), rows.count(rows[0]))
