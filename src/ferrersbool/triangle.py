"""Coefficient-triangle engine for boolean numbers of Ferrers shapes.

For a shape with rows L1 >= ... >= Lr the triangle starts from (-1, 1) and
row i follows from row i-1 with exponent d_i = L_{i-1} - L_i:

    c(i, j) = j * (j-1)**d_i * c(i-1, j-1)  -  (j+1) * j**d_i * c(i-1, j)

with the convention 0**0 = 1 (Python's pow already honours it).  The boolean
number is sum_j c(r, j) * j**Lr, again with 0**0 = 1, so a zero bottom row
yields the row sum, which is zero.

Every consumer reads the rows from one stream, ``iter_row_values``, which is
the only caller of the row update, and keeps only the row it is on.

Everything here is exact integer arithmetic; the entries grow exponentially
with the row index, so fixed-width arithmetic is never used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .shapes import FerrersShape

FIRST_ROW: tuple[int, ...] = (-1, 1)


@dataclass(frozen=True)
class CostReport:
    """Observed vs. closed-form multiplication count of the instrumented run."""

    multiplications: int
    predicted: int


def next_values(prev: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Apply the row update with exponent d; entries outside the row are zero."""
    if d < 0:
        raise ValueError("difference exponent must be >= 0")
    out = []
    for j in range(len(prev) + 1):
        left = prev[j - 1] if j >= 1 else 0
        right = prev[j] if j < len(prev) else 0
        out.append(j * (j - 1) ** d * left - (j + 1) * j**d * right)
    return tuple(out)


def iter_row_values(shape: FerrersShape) -> Iterator[tuple[int, ...]]:
    """Stream rows 1..r; row i is the tuple c(i, 0..i)."""
    row = FIRST_ROW
    yield row
    for d in shape.differences():
        row = next_values(row, d)
        yield row


def beta_triangle(shape: FerrersShape) -> int:
    """Boolean number via the triangle: sum_j c(r, j) * j**Lr with 0**0 = 1."""
    for row in iter_row_values(shape):
        pass
    bottom = shape.rows[-1]
    return sum(c * j**bottom for j, c in enumerate(row))


def predicted_cost(shape: FerrersShape) -> int:
    """Closed-form multiplication count: 2 * sum_{i=2..r} (i+1) * (d_i + 1)."""
    return 2 * sum(
        (i + 1) * (d + 1) for i, d in enumerate(shape.differences(), start=2)
    )


def instrumented_gamma(shape: FerrersShape) -> tuple[tuple[int, ...], CostReport]:
    """Final triangle row plus the multiplication census of computing it.

    The census applies the paper's cost model to the rows the kernel streams.
    Each update term a * b**d * c is charged d+1 multiplications: d-1 for the
    power by repeated multiplication and two for the products when d >= 1, a
    single product when d = 0.  Row i has i+1 entries of two terms each, so it
    is charged 2*(i+1)*(d_i+1); the closed form sums exactly these charges.
    """
    rows = iter_row_values(shape)
    row = next(rows)
    muls = 0
    for d, row in zip(shape.differences(), rows):
        muls += 2 * len(row) * (d + 1)
    report = CostReport(multiplications=muls, predicted=predicted_cost(shape))
    return row, report
